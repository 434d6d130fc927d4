//! Shared pieces: the seeded generator, latency statistics, the span
//! recorder of the traced run, and the result document.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use partita_core::telemetry::json::JsonValue;

/// SplitMix64: a small, seedable generator. Every op order, arrival time
/// and fresh RG derives from one of these, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// A generator for one named stream of the same seed, so adding a
    /// draw to one stream never shifts another.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Host-speed calibration. The host's speed drifts by tens of percent over
/// minutes (other tenants of the machine), which moves every timing by the
/// same share. A fixed reference computation, run in short slices through
/// the timed phase, measures that speed; [`Speed::factor`] scales measured
/// times to the speed of the reference host (2 vCPU), where one slice took
/// [`NOMINAL_SLICE_S`].
pub struct Speed {
    slices: Vec<f64>,
    buf: Vec<u64>,
}

/// Seconds one reference slice took on the reference host.
pub const NOMINAL_SLICE_S: f64 = 0.0028;

impl Speed {
    pub fn new() -> Speed {
        Speed {
            slices: Vec::new(),
            buf: vec![1; REFERENCE_WORDS],
        }
    }

    /// Runs `n` reference slices and returns the time they took.
    pub fn sample(&mut self, n: usize) -> Duration {
        let started = Instant::now();
        for _ in 0..n {
            let t0 = Instant::now();
            std::hint::black_box(reference_slice(self.slices.len() as u64, &mut self.buf));
            self.slices.push(t0.elapsed().as_secs_f64());
        }
        started.elapsed()
    }

    /// Multiply a measured time by this (divide a rate by it) to express
    /// it at the reference host's speed.
    pub fn factor(&self) -> f64 {
        ratio(NOMINAL_SLICE_S, median(&self.slices))
    }

    /// Runs `f` right after a few reference slices and returns its result
    /// with its time in seconds, scaled to the reference host's speed at
    /// that moment (set-up is short, so it is scaled by the speed measured
    /// next to it rather than the run's).
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let mut local = Speed::new();
        local.sample(3);
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_secs_f64() * local.factor())
    }

    pub fn to_json(&self) -> String {
        object(&[
            ("factor", self.factor()),
            ("slices", self.slices.len() as f64),
            ("slice_ms_median", median(&self.slices) * 1e3),
            ("nominal_slice_ms", NOMINAL_SLICE_S * 1e3),
        ])
    }
}

/// The reference computation, about 2 ms of fixed work in three parts:
/// dense floating-point row eliminations on a small matrix (the simplex's
/// shape of work), sorting, ordered-map updates and small string
/// allocations (the branch-and-bound's bookkeeping), and dependent random
/// reads and writes over a buffer larger than a core's private caches. On
/// the reference host the work-to-reference time ratio of 8 s windows
/// varied with CV 6 % where the work alone varied with CV 10 %. Never
/// changes with the program.
fn reference_slice(seed: u64, buf: &mut [u64]) -> f64 {
    const M: usize = 24;
    const N: usize = 48;
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut a = [0.0f64; M * N];
    let mut acc = 0.0;
    for k in 0..1200 {
        if k % 40 == 0 {
            for v in a.iter_mut() {
                *v = 1.0 + (next() % 1000) as f64 / 1000.0;
            }
        }
        let (r, c) = (k % M, (k * 7) % N);
        let p = a[r * N + c];
        if p.abs() > 1e-9 {
            for i in (0..M).filter(|&i| i != r) {
                let f = a[i * N + c] / p;
                for j in 0..N {
                    a[i * N + j] -= f * a[r * N + j];
                }
            }
        }
        acc += a[(k * 13) % (M * N)];
    }
    let mut keys: Vec<u64> = (0..4500).map(|_| next() % 100_000).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        if k % 3 == 0 {
            map.insert(*k, i);
        } else {
            map.remove(&(k / 2));
        }
    }
    let names: usize = (0..1200).map(|i| format!("r{i}").len()).sum();
    let mut sum = 0u64;
    for _ in 0..10_000 {
        let i = (next() ^ sum) as usize % buf.len();
        sum = sum.wrapping_add(buf[i]);
        buf[i] = sum;
    }
    acc + (map.len() + names) as f64 + (keys[keys.len() / 2] ^ (sum & 1)) as f64
}

/// Words in the reference computation's buffer (4 MB).
const REFERENCE_WORDS: usize = 1 << 19;

/// Nearest-rank percentile of a sorted sample, `p` in percent.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

/// The tail percentiles the benchmark may report, highest first.
const TAIL_LEVELS: [f64; 3] = [99.0, 95.0, 90.0];

/// A latency summary: median, the highest percentile with at least ten
/// samples beyond it, and the samples around each (for the gap check).
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub tail_level: f64,
    pub tail: f64,
    pub mean: f64,
    /// `(level, value, low neighbour, high neighbour)` per reported level.
    pub neighbours: Vec<(f64, f64, f64, f64)>,
}

/// Half-width, in percentile points, of the window whose samples must not
/// span a gap: 2 points, narrowed to a tenth of the tail beyond the level
/// so that a tail percentile is judged by its own cluster of samples.
fn window(level: f64) -> f64 {
    2.0f64.min((100.0 - level) / 10.0)
}

pub fn latency(samples_ms: &[f64]) -> Latency {
    let mut s = samples_ms.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail_level = TAIL_LEVELS
        .iter()
        .copied()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let neighbours = [50.0, tail_level]
        .iter()
        .map(|&p| {
            let w = window(p);
            (
                p,
                percentile(&s, p),
                percentile(&s, p - w),
                percentile(&s, p + w),
            )
        })
        .collect();
    Latency {
        n,
        p50: percentile(&s, 50.0),
        tail_level,
        tail: percentile(&s, tail_level),
        mean: s.iter().sum::<f64>() / n.max(1) as f64,
        neighbours,
    }
}

impl Latency {
    pub fn to_json(&self) -> String {
        let nb: Vec<String> = self
            .neighbours
            .iter()
            .map(|(p, v, lo, hi)| {
                format!("{{\"level\":{p},\"value\":{v},\"low\":{lo},\"high\":{hi}}}")
            })
            .collect();
        format!(
            "{{\"n\":{},\"p50_ms\":{},\"tail_level\":{},\"tail_ms\":{},\"mean_ms\":{},\"neighbours\":[{}]}}",
            self.n,
            self.p50,
            self.tail_level,
            self.tail,
            self.mean,
            nb.join(",")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: a timed call into a layer's public function.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle of an open span.
pub struct Open {
    idx: usize,
    started: Instant,
}

/// Span recorder of the traced run. Spans stay in memory until
/// [`Tracer::write`]; with tracing off, `start`/`end` only read the clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses (`false`) or resumes recording; kept spans stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn start(&mut self, name: &'static str, op: u64, parent: Option<&Open>) -> Open {
        let started = Instant::now();
        let idx = if self.on {
            self.spans.push(Span {
                name,
                op,
                parent: parent.map(|p| p.idx),
                start: started - self.t0,
                end: started - self.t0,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        Open { idx, started }
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if self.on {
            self.spans[open.idx].end = now - self.t0;
        }
        now - open.started
    }

    /// Per span name: (calls, total time, self time), where self time is
    /// the span minus the time its child spans cover.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let d = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            );
        }
        std::fs::write(path, text)
    }
}

/// The outcome of one workload run, rendered as the benchmark's final
/// stdout line plus a detailed report file.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra report sections: `(key, raw JSON)`.
    pub report: Vec<(String, String)>,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn section(&mut self, key: &str, json: String) {
        self.report.push((key.to_string(), json));
    }

    /// Records a failed op with a reason (the first 20 reasons are kept).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn report_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"result\":{}",
            self.result_line()
        );
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(out, ",\"failures\":[{}]", failures.join(","));
        for (k, v) in &self.report {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}

impl Outcome {
    /// Adds the five end-to-end metrics, the times scaled to the reference
    /// host's speed (`setups` already are, see [`Speed::timed`]); the
    /// measured values stay in the report. An open loop's rate follows its
    /// schedule and its median is thread wake-ups and socket hops, which
    /// the reference does not predict, so `open_loop` leaves both as
    /// measured.
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        ops_per_s: f64,
        lat: &Latency,
        speed: &Speed,
        open_loop: bool,
    ) {
        let f = speed.factor();
        let g = if open_loop { 1.0 } else { f };
        self.section("speed", speed.to_json());
        self.metric("setup_s", median(setups), "s");
        self.metric("ops_per_s", ops_per_s / g, "1/s");
        self.metric("op_ms_p50", lat.p50 * g, "ms");
        self.metric("op_ms_tail", lat.tail * f, "ms");
        let rss_kb = partita_bench::suite::peak_rss_kb().unwrap_or(0);
        self.metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
        self.section(
            "measured",
            object(&[
                ("ops_per_s", ops_per_s),
                ("op_ms_p50", lat.p50),
                ("op_ms_tail", lat.tail),
                ("tail_level", lat.tail_level),
                ("samples", lat.n as f64),
            ]),
        );
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders numbers as a JSON array.
pub fn list(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", body.join(","))
}

/// Renders `(name, value)` rows as a JSON object.
pub fn object(rows: &[(&str, f64)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Reads the committed `BENCH_partita.json` of the checkout.
pub fn bench_json(root: &std::path::Path) -> Result<JsonValue, String> {
    let path = root.join("BENCH_partita.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Follows a key path through nested JSON objects.
pub fn at<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, k| v.get(k))
}

pub fn at_u64(doc: &JsonValue, path: &[&str]) -> Result<u64, String> {
    at(doc, path)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("BENCH_partita.json lacks {}", path.join(".")))
}
