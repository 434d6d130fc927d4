//! `service-open-loop`: seeded Poisson arrivals at one fixed rate into the
//! daemon's real transport (`server::serve` on a socket, default
//! `ServiceConfig`), from three tenants over one connection.
//!
//! About two thirds of the requests are answered fast (cross-tenant cache
//! hits, `ping`, `stats`, typed errors) and the rest solve (fresh-RG
//! misses, plus `sweep` / `delta` / `batch`), so `op_ms_p50` measures the
//! daemon's own path and `op_ms_tail` the solve path.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partita_core::api::{selection_digest, Request, Response, SolveSpec};
use partita_core::telemetry::json::JsonValue;
use partita_core::{ImpDb, Redaction, Solver};
use partita_service::{replay, server, ServiceConfig, ServiceCore};
use partita_workloads::{corpus, Workload};

use crate::util::{self, latency, ms, ratio, us, Outcome, Rng, Speed};
use crate::Args;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;

/// Offered load in requests per second: about a tenth of one worker's
/// capacity for this mix on the reference host (2 vCPU; ≈1.1 ms of
/// `handle_request` per request). At 150/s with a costlier mix, fast
/// answers already queued behind solves and the median wandered with the
/// host's speed.
const RATE: f64 = 90.0;

/// The sender runs one host-speed reference slice (see [`Speed`]) before
/// every this many requests, when the next one is due at least
/// [`SLICE_GAP`] later. Slices taken before and after the stream missed
/// the speed during it; these see the same contention the daemon does,
/// at ~3 % of one vCPU. They scale `op_ms_tail`, the solve path.
const SLICE_EVERY: usize = 8;
const SLICE_GAP: Duration = Duration::from_millis(6);

/// An answer slower than this (from its due time) counts as failed.
const LATENCY_LIMIT_MS: f64 = 500.0;

/// A cache-hit request repeats a point another tenant asked for at least
/// this many requests earlier, so the first answer is in the cache.
const HIT_LAG: usize = 40;

/// Requests in flight at once during warm-up.
const WINDOW: usize = 16;

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// The corpus groups the stream draws instances from.
const GROUPS: [(&str, &str); 5] = [
    ("synth", "micro"),
    ("adpcm", ""),
    ("viterbi", ""),
    ("lms", ""),
    ("fft_radix4", ""),
];

/// What a request is, and so what its answer must look like.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Kind {
    SolveHit,
    SolveMiss,
    Sweep,
    Delta,
    Batch,
    Ping,
    Stats,
    /// A request that must come back as this typed error code.
    Error(u32),
}

impl Kind {
    /// The wire method of a request that solves points.
    fn method(&self) -> Option<&'static str> {
        match self {
            Kind::SolveHit | Kind::SolveMiss => Some("solve"),
            Kind::Sweep => Some("sweep"),
            Kind::Delta => Some("delta"),
            Kind::Batch => Some("batch"),
            Kind::Ping | Kind::Stats | Kind::Error(_) => None,
        }
    }

    fn name(&self) -> String {
        match self {
            Kind::SolveHit => "solve:hit".into(),
            Kind::SolveMiss => "solve:miss".into(),
            Kind::Sweep => "sweep".into(),
            Kind::Delta => "delta".into(),
            Kind::Batch => "batch".into(),
            Kind::Ping => "ping".into(),
            Kind::Stats => "stats".into(),
            Kind::Error(code) => format!("error:{code}"),
        }
    }
}

struct Req {
    id: String,
    line: String,
    kind: Kind,
    /// Offset of the due time from the stream start.
    due: Duration,
}

struct Catalog {
    ids: Vec<String>,
    workloads: HashMap<String, Workload>,
}

fn catalog() -> Result<Catalog, String> {
    let mut ids = Vec::new();
    let mut workloads = HashMap::new();
    for e in corpus::manifest()?.into_iter().filter(|e| !e.gated) {
        if GROUPS.iter().any(|(f, p)| e.family == *f && e.preset == *p) {
            workloads.insert(e.id.clone(), e.verify()?);
            ids.push(e.id);
        }
    }
    Ok(Catalog { ids, workloads })
}

/// A fresh RG for `id`: odd (warm-up points are even, so the timed stream
/// never repeats one) and inside the entry's sweep range.
fn fresh_rg(rng: &mut Rng, w: &Workload) -> u64 {
    let lo = w.rg_sweep.iter().map(|c| c.get()).min().unwrap_or(1);
    let hi = w.rg_sweep.iter().map(|c| c.get()).max().unwrap_or(1);
    (lo + rng.below(hi - lo + 1)) | 1
}

fn solve_line(id: &str, tenant: &str, inst: &str, rg: u64) -> String {
    format!(
        "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"solve\",\
         \"instance\":\"{inst}\",\"rg\":{rg},\"audit\":true}}"
    )
}

/// The seeded request stream: kinds, instances, fresh RGs and arrivals.
fn stream(seed: u64, n: usize, cat: &Catalog) -> Vec<Req> {
    let mut rng = Rng::stream(seed, "service-open-loop/stream");
    let mut arrivals = Rng::stream(seed, "service-open-loop/arrivals");
    let mut used: HashSet<(usize, u64)> = HashSet::new();
    // (request index, tenant, instance, rg) of every plain solve miss.
    let mut asked: Vec<(usize, usize, usize, u64)> = Vec::new();
    let mut out = Vec::with_capacity(n);
    let mut due = 0.0f64;
    let fresh = |rng: &mut Rng, used: &mut HashSet<(usize, u64)>| loop {
        let inst = rng.below(cat.ids.len() as u64) as usize;
        let rg = fresh_rg(rng, &cat.workloads[&cat.ids[inst]]);
        if used.insert((inst, rg)) {
            return (inst, rg);
        }
    };
    for i in 0..n {
        due += -(1.0 - arrivals.unit()).ln() / RATE;
        let tenant_ix = rng.below(TENANTS.len() as u64) as usize;
        let tenant = TENANTS[tenant_ix];
        let id = format!("q{i}");
        let roll = rng.below(100);
        let (kind, line) = match roll {
            0..=49 => {
                let eligible: Vec<&(usize, usize, usize, u64)> = asked
                    .iter()
                    .filter(|(at, t, _, _)| *at + HIT_LAG <= i && *t != tenant_ix)
                    .collect();
                if eligible.is_empty() {
                    let (inst, rg) = fresh(&mut rng, &mut used);
                    asked.push((i, tenant_ix, inst, rg));
                    (Kind::SolveMiss, solve_line(&id, tenant, &cat.ids[inst], rg))
                } else {
                    let &&(_, _, inst, rg) = &eligible[rng.below(eligible.len() as u64) as usize];
                    (Kind::SolveHit, solve_line(&id, tenant, &cat.ids[inst], rg))
                }
            }
            50..=68 => {
                let (inst, rg) = fresh(&mut rng, &mut used);
                asked.push((i, tenant_ix, inst, rg));
                (Kind::SolveMiss, solve_line(&id, tenant, &cat.ids[inst], rg))
            }
            69..=81 => (
                Kind::Ping,
                format!("{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"ping\"}}"),
            ),
            82..=89 => (
                Kind::Stats,
                format!("{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"stats\"}}"),
            ),
            90..=94 => match rng.below(5) {
                0 => (Kind::Error(100), format!("this line {id} is not json")),
                1 => (
                    Kind::Error(100),
                    format!("{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\"}}"),
                ),
                2 => (
                    Kind::Error(101),
                    format!("{{\"api_version\":2,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"ping\"}}"),
                ),
                3 => (
                    Kind::Error(102),
                    format!("{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"warp\"}}"),
                ),
                _ => (
                    Kind::Error(103),
                    format!(
                        "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"solve\",\
                         \"instance\":\"no-such-{id}\",\"rg\":1}}"
                    ),
                ),
            },
            _ => {
                let method = rng.below(3);
                let (inst, _) = fresh(&mut rng, &mut used);
                let w = &cat.workloads[&cat.ids[inst]];
                let mut rgs: Vec<u64> = Vec::new();
                while rgs.len() < if method == 0 { 3 } else { 2 } {
                    let rg = fresh_rg(&mut rng, w);
                    if used.insert((inst, rg)) {
                        rgs.push(rg);
                    }
                }
                let list = rgs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                let name = &cat.ids[inst];
                match method {
                    0 => (
                        Kind::Sweep,
                        format!(
                            "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"sweep\",\
                             \"instance\":\"{name}\",\"rgs\":[{list}],\"audit\":true}}"
                        ),
                    ),
                    1 => (
                        Kind::Delta,
                        format!(
                            "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"delta\",\
                             \"instance\":\"{name}\",\"rg\":{},\"rgs\":[{list}],\"audit\":true}}",
                            rgs[0]
                        ),
                    ),
                    _ => {
                        let (other, rg) = fresh(&mut rng, &mut used);
                        (
                            Kind::Batch,
                            format!(
                                "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"method\":\"batch\",\
                                 \"jobs\":[{{\"instance\":\"{name}\",\"rg\":{},\"audit\":true}},\
                                 {{\"instance\":\"{}\",\"rg\":{rg},\"audit\":true}}]}}",
                                rgs[0], cat.ids[other]
                            ),
                        )
                    }
                }
            }
        };
        out.push(Req {
            id: if line.starts_with("this line") {
                String::new()
            } else {
                id
            },
            line,
            kind,
            due: Duration::from_secs_f64(due),
        });
    }
    out
}

/// A daemon serving one socket from a background thread.
struct Daemon {
    core: Arc<ServiceCore>,
    client: UnixStream,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let (client, server_end) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        let serving = core.clone();
        let thread = std::thread::spawn(move || {
            let reader = BufReader::new(server_end.try_clone()?);
            let workers = serving.config().workers;
            server::serve(&serving, reader, server_end, workers, Redaction::None)
        });
        Ok(Daemon {
            core,
            client,
            thread,
        })
    }

    /// Sends `lines` in windows of [`WINDOW`] requests and waits for every
    /// answer (the closed-loop warm-up traffic). The window keeps the
    /// backlog under `ServiceConfig::degrade_load`, so every answer is exact.
    fn exchange(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let io = |e: std::io::Error| format!("daemon socket: {e}");
        let mut writer = self.client.try_clone().map_err(io)?;
        let mut reader = BufReader::new(self.client.try_clone().map_err(io)?);
        let mut answers = Vec::with_capacity(lines.len());
        for window in lines.chunks(WINDOW) {
            let payload: String = window.iter().map(|l| format!("{l}\n")).collect();
            writer.write_all(payload.as_bytes()).map_err(io)?;
            for _ in window {
                let mut line = String::new();
                if reader.read_line(&mut line).map_err(io)? == 0 {
                    return Err("daemon closed the socket".into());
                }
                answers.push(line.trim_end().to_string());
            }
        }
        Ok(answers)
    }

    /// Closes the client's sending side and waits for the daemon to drain.
    fn stop(self) -> Result<Arc<ServiceCore>, String> {
        let _ = self.client.shutdown(std::net::Shutdown::Write);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        Ok(self.core)
    }
}

fn check_ok(answers: &[String], what: &str) -> Result<(), String> {
    for a in answers {
        if !a.contains("\"ok\":true") {
            return Err(format!("{what} request failed: {a}"));
        }
    }
    Ok(())
}

/// Starts the daemon and loads every instance the stream uses: one RG-0
/// solve each (a point the timed stream never asks for), handed straight
/// to `ServiceCore::handle_request` on this thread. Over the socket, 190
/// round trips made set-up depend on where the threads landed (~185 or
/// ~260 ms per process); the loading itself is the same code either way.
fn setup(cat: &Catalog) -> Result<Daemon, String> {
    let d = Daemon::start()?;
    for (i, id) in cat.ids.iter().enumerate() {
        let line = solve_line(&format!("s{i}"), TENANTS[i % 3], id, 0);
        let req = Request::parse(&line).map_err(|e| format!("set-up request: {e:?}"))?;
        if let Err(e) = d.core.handle_request(&req).result {
            return Err(format!("set-up request failed: {line}: {e:?}"));
        }
    }
    Ok(d)
}

/// One solve per instance at an even RG, plus pings and stats.
fn warm_up_lines(cat: &Catalog) -> Vec<String> {
    let mut lines: Vec<String> = cat
        .ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let w = &cat.workloads[id];
            let rg = w.rg_sweep[w.rg_sweep.len() / 2].get() & !1;
            solve_line(&format!("w{i}"), TENANTS[i % 3], id, rg)
        })
        .collect();
    for i in 0..20 {
        lines.push(format!(
            "{{\"api_version\":1,\"id\":\"wp{i}\",\"tenant\":\"alice\",\"method\":\"{}\"}}",
            if i % 2 == 0 { "ping" } else { "stats" }
        ));
    }
    lines
}

fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the open-loop run observed per request.
struct Observed {
    /// Answer line and latency from the due time, by request index.
    answers: Vec<Option<(String, f64)>>,
    late_max_ms: f64,
    /// Median lateness of a send behind its due time.
    late_p50_ms: f64,
    wall: Duration,
}

/// Plays the stream open-loop into the daemon: one sender thread on the
/// schedule, one receiver thread timestamping answers.
fn play(d: &Daemon, reqs: &[Req], speed: &mut Speed) -> Result<Observed, String> {
    let io = |e: std::io::Error| format!("daemon socket: {e}");
    let mut writer = d.client.try_clone().map_err(io)?;
    let reader = BufReader::new(d.client.try_clone().map_err(io)?);
    let index: HashMap<&str, usize> = reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.id.is_empty())
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    // Id-less answers (unparseable lines) come back in send order.
    let anonymous: VecDeque<usize> = reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.id.is_empty())
        .map(|(i, _)| i)
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let (answers, late, end) = std::thread::scope(|s| {
        let receiver = s.spawn(move || -> std::io::Result<Vec<(String, Instant)>> {
            let mut got = Vec::with_capacity(reqs.len());
            let mut lines = reader.lines();
            while got.len() < reqs.len() {
                match lines.next() {
                    Some(line) => got.push((line?, Instant::now())),
                    None => break,
                }
            }
            Ok(got)
        });
        let mut late = Vec::with_capacity(reqs.len());
        let mut sent = Ok(());
        for (i, r) in reqs.iter().enumerate() {
            let due = t0 + r.due;
            // A reference slice in an idle gap measures the host's speed
            // while the daemon works; see `SLICE_EVERY`.
            if i % SLICE_EVERY == 0 && due > Instant::now() + SLICE_GAP {
                speed.sample(1);
            }
            sleep_until(due);
            late.push(ms(Instant::now().saturating_duration_since(due)));
            if let Err(e) = writer
                .write_all(r.line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
            {
                sent = Err(e);
                break;
            }
        }
        let got = receiver.join().expect("receiver thread");
        (sent.and(got), late, Instant::now())
    });
    let mut anonymous = anonymous;
    let mut out: Vec<Option<(String, f64)>> = (0..reqs.len()).map(|_| None).collect();
    for (line, at) in answers.map_err(io)? {
        let id = JsonValue::parse(&line)
            .ok()
            .and_then(|v| v.get("id").and_then(JsonValue::as_str).map(str::to_string))
            .unwrap_or_default();
        let i = if id.is_empty() {
            anonymous.pop_front()
        } else {
            index.get(id.as_str()).copied()
        };
        if let Some(i) = i {
            let lat = ms(at.saturating_duration_since(t0 + reqs[i].due));
            out[i] = Some((line, lat));
        }
    }
    Ok(Observed {
        answers: out,
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
        late_p50_ms: util::median(&late),
        wall: end.saturating_duration_since(t0),
    })
}

/// The `digest` fields of an answer line, in order, read from the text:
/// the JSON reader holds numbers as `f64`, which cannot carry 64 bits.
fn digests(line: &str) -> Vec<u64> {
    line.split("\"digest\":")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap_or(0)
        })
        .collect()
}

/// Every solved point `(rg, digest, degraded, status, cache_hit)` in an
/// answer.
fn points(line: &str, doc: &JsonValue) -> Vec<(u64, u64, bool, String, bool)> {
    let mut digest = digests(line).into_iter();
    let mut one = |r: &JsonValue| {
        (
            r.get("rg").and_then(JsonValue::as_u64).unwrap_or(0),
            digest.next().unwrap_or(0),
            r.get("degraded")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            r.get("status")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            r.get("cache_hit")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        )
    };
    if let Some(r) = doc.get("result") {
        return vec![one(r)];
    }
    doc.get("results")
        .and_then(JsonValue::as_array)
        .map(|rs| {
            rs.iter()
                .map(|r| one(r.get("result").unwrap_or(r)))
                .collect()
        })
        .unwrap_or_default()
}

/// Instances a request names, in job order (batch jobs may differ).
fn instances(line: &str) -> Vec<String> {
    let Ok(doc) = JsonValue::parse(line) else {
        return Vec::new();
    };
    if let Some(jobs) = doc.get("jobs").and_then(JsonValue::as_array) {
        return jobs
            .iter()
            .filter_map(|j| {
                j.get("instance")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect();
    }
    doc.get("instance")
        .and_then(JsonValue::as_str)
        .map(|s| vec![s.to_string()])
        .unwrap_or_default()
}

/// Checks every answer; returns the library cold-solve digests it used.
fn check(out: &mut Outcome, reqs: &[Req], obs: &Observed, cat: &Catalog) -> Result<(), String> {
    let mut expected: HashMap<(String, u64), u64> = HashMap::new();
    for (r, answer) in reqs.iter().zip(&obs.answers) {
        out.attempted += 1;
        let Some((line, lat)) = answer else {
            out.fail(format!("{}: no answer", r.line));
            continue;
        };
        if *lat > LATENCY_LIMIT_MS {
            out.fail(format!("{}: answered after {lat:.1} ms", r.line));
            continue;
        }
        let Ok(doc) = JsonValue::parse(line) else {
            out.fail(format!("{}: unparseable answer {line}", r.line));
            continue;
        };
        let ok = doc.get("ok").and_then(JsonValue::as_bool) == Some(true);
        let verdict = match &r.kind {
            Kind::Ping => (ok && doc.get("pong").is_some()).then_some(()),
            Kind::Stats => (ok && doc.get("stats").is_some()).then_some(()),
            Kind::Error(code) => (!ok
                && doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(JsonValue::as_u64)
                    == Some(u64::from(*code)))
            .then_some(()),
            _ => {
                let names = instances(&r.line);
                let pts = points(line, &doc);
                let mut good = ok && !pts.is_empty();
                for (j, (rg, digest, degraded, status, _)) in pts.iter().enumerate() {
                    let inst = names.get(j).or(names.first()).cloned().unwrap_or_default();
                    if *degraded && status == "heuristic" {
                        continue;
                    }
                    let key = (inst.clone(), *rg);
                    let want = match expected.get(&key) {
                        Some(d) => *d,
                        None => {
                            let w = cat
                                .workloads
                                .get(&inst)
                                .ok_or_else(|| format!("unknown instance {inst}"))?;
                            let spec = SolveSpec {
                                rg: *rg,
                                audit: true,
                                ..SolveSpec::default()
                            };
                            let d = Solver::new(&w.instance)
                                .with_imps(w.imps.clone())
                                .solve(&spec.to_options())
                                .map(|s| selection_digest(&s))
                                .unwrap_or(0);
                            expected.insert(key, d);
                            d
                        }
                    };
                    good &= want != 0 && *digest == want;
                }
                good.then_some(())
            }
        };
        if verdict.is_none() {
            out.fail(format!("{} -> {line}", r.line));
        }
    }
    Ok(())
}

/// Replays `reqs` straight through parse → handle → encode on a fresh,
/// warmed core, timing each call. Returns per request
/// `(parse, handle, encode, answer)`.
fn replay_direct(
    args: &mut Args,
    cat: &Catalog,
    reqs: &[Req],
) -> Result<Vec<(Duration, Duration, Duration, Response)>, String> {
    let mut d = setup(cat)?;
    check_ok(&d.exchange(&warm_up_lines(cat))?, "warm-up")?;
    let core = d.stop()?;
    let mut out = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let op = i as u64 + 1;
        let top = args.tracer.start("service-open-loop::op", op, None);
        let sp = args
            .tracer
            .start("core::api::Request::parse", op, Some(&top));
        let parsed = Request::parse(&r.line);
        let parse = args.tracer.end(sp);
        let sp = args
            .tracer
            .start("service::ServiceCore::handle_request", op, Some(&top));
        let resp = match &parsed {
            Ok(req) => core.handle_request(req),
            Err(e) => Response::error(&r.id, "", e.clone()),
        };
        let handle = args.tracer.end(sp);
        let sp = args
            .tracer
            .start("core::api::Response::to_json", op, Some(&top));
        let text = resp.to_json(Redaction::None);
        let encode = args.tracer.end(sp);
        args.tracer.end(top);
        drop(text);
        out.push((parse, handle, encode, resp));
    }
    Ok(out)
}

fn golden(root: &std::path::Path, out: &mut Outcome) -> Result<(), String> {
    let dir = root.join("tests").join("service");
    let read = |f: &str| {
        std::fs::read_to_string(dir.join(f)).map_err(|e| format!("{}/{f}: {e}", dir.display()))
    };
    let (requests, golden) = (read("requests.jsonl")?, read("golden.jsonl")?);
    let answers = replay::replay(&ServiceCore::new(ServiceConfig::default()), &requests);
    out.attempted += answers.len() as u64;
    for mismatch in replay::diff_golden(&answers, &golden) {
        out.fail(format!("golden replay: {mismatch}"));
    }
    Ok(())
}

pub fn run(args: &mut Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    golden(&args.root, &mut out)?;
    let cat = catalog()?;
    let n = ((args.seconds * RATE).round() as usize).max(1);
    let reqs = stream(args.seed, n, &cat);

    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = daemon.take() {
            Daemon::stop(old)?;
        }
        let (started, took) = Speed::timed(|| setup(&cat));
        daemon = Some(started?);
        setups.push(took);
    }
    let mut d = daemon.expect("at least one set-up");
    check_ok(&d.exchange(&warm_up_lines(&cat))?, "warm-up")?;
    let before = d.core.stats();
    let mut speed = Speed::new();
    let obs = play(&d, &reqs, &mut speed)?;
    let core = d.stop()?;
    let stats = core.stats();
    check(&mut out, &reqs, &obs, &cat)?;

    let lats: Vec<f64> = obs.answers.iter().flatten().map(|(_, l)| *l).collect();
    let lat = latency(&lats);
    if args.tracer.on() {
        let direct = replay_direct(args, &cat, &reqs)?;
        let mut by_kind: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        let (mut hit, mut miss, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
        let (mut parse, mut encode) = (Vec::new(), Vec::new());
        let mut point_count = 0u64;
        let mut nodes = 0u64;
        for ((r, answer), (p, h, e, resp)) in reqs.iter().zip(&obs.answers).zip(&direct) {
            parse.push(us(*p));
            encode.push(us(*e));
            let text = resp.to_json(Redaction::None);
            let pts = JsonValue::parse(&text)
                .map(|doc| points(&text, &doc))
                .unwrap_or_default();
            point_count += pts.len() as u64;
            let cached = !pts.is_empty() && pts.iter().all(|p| p.4);
            if let Ok(partita_core::api::Payload::Solve(res)) = &resp.result {
                nodes += if res.cache_hit { 0 } else { res.nodes };
            }
            // Solving methods are split by what the cache actually did.
            let label = match r.kind.method() {
                Some(method) if !pts.is_empty() => {
                    format!("{method}:{}", if cached { "hit" } else { "miss" })
                }
                _ => r.kind.name(),
            };
            if matches!(r.kind, Kind::SolveHit | Kind::SolveMiss) {
                if cached {
                    hit.push(us(*h));
                } else {
                    miss.push(ms(*h));
                }
            }
            let row = by_kind.entry(label).or_default();
            row.1.push(us(*h));
            if let Some((_, l)) = answer {
                row.0.push(*l);
                overhead.push(l - ms(*p + *h + *e));
            }
        }
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        // Lazy-load layers: digest-checked rebuild and IMP generation of
        // every instance the stream uses.
        let (mut verify, mut generate) = (Vec::new(), Vec::new());
        for e in corpus::manifest()? {
            if let Some(w) = cat.workloads.get(&e.id) {
                let sp = args
                    .tracer
                    .start("workloads::ManifestEntry::verify", 0, None);
                e.verify()?;
                verify.push(ms(args.tracer.end(sp)));
                let sp = args.tracer.start("core::impdb::generate", 0, None);
                drop(ImpDb::generate(&w.instance));
                generate.push(us(args.tracer.end(sp)));
            }
        }
        let points_timed = point_count as f64;
        let layers = [
            ("workloads.verify_ms", mean(&verify)),
            ("impdb.generate_us", mean(&generate)),
            ("ilp.nodes", nodes as f64),
            ("api.parse_us", mean(&parse)),
            ("api.encode_us", mean(&encode)),
            ("service.hit_us", mean(&hit)),
            ("service.miss_ms", mean(&miss)),
            (
                "cache.hit_ratio",
                ratio((stats.cache_hits - before.cache_hits) as f64, points_timed),
            ),
            (
                "service.degraded_share",
                ratio((stats.degraded - before.degraded) as f64, points_timed),
            ),
            (
                "service.rejected_share",
                ratio((stats.rejected - before.rejected) as f64, reqs.len() as f64),
            ),
            ("server.overhead_ms_p50", latency(&overhead).p50),
            ("generator.late_ms_max", obs.late_max_ms),
        ];
        let busy = direct
            .iter()
            .map(|(p, h, e, _)| (*p + *h + *e).as_secs_f64())
            .sum();
        crate::layers::emit(&mut out, &args.tracer, &layers, busy);
        let rows: Vec<String> = by_kind
            .iter()
            .map(|(k, (lat, handle))| {
                let l = latency(lat);
                format!(
                    "\"{k}\":{}",
                    util::object(&[
                        ("requests", handle.len() as f64),
                        ("share", handle.len() as f64 / reqs.len() as f64),
                        ("op_ms_p50", l.p50),
                        ("op_ms_mean", l.mean),
                        ("handle_us_mean", mean(handle)),
                    ])
                )
            })
            .collect();
        out.section("kinds", format!("{{{}}}", rows.join(",")));
        out.section(
            "ratios",
            util::object(&[
                ("cache_hits", (stats.cache_hits - before.cache_hits) as f64),
                ("points_base", points_timed),
                ("degraded", (stats.degraded - before.degraded) as f64),
                ("rejected", (stats.rejected - before.rejected) as f64),
                ("requests_base", reqs.len() as f64),
            ]),
        );
    } else {
        let ops_per_s = lats.len() as f64 / obs.wall.as_secs_f64();
        out.end_to_end(&setups, ops_per_s, &lat, &speed, true);
    }
    out.section("latency", lat.to_json());
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, a) in reqs.iter().zip(&obs.answers) {
        if let Some((_, l)) = a {
            by_kind.entry(r.kind.name()).or_default().push(*l);
        }
    }
    let rows: Vec<String> = by_kind
        .iter()
        .map(|(k, v)| {
            let l = latency(v);
            format!(
                "\"{k}\":{}",
                util::object(&[
                    ("requests", v.len() as f64),
                    ("op_ms_p25", util::percentile_of(v, 25.0)),
                    ("op_ms_p50", l.p50),
                    ("op_ms_p75", util::percentile_of(v, 75.0)),
                    ("op_ms_p90", util::percentile_of(v, 90.0)),
                    ("op_ms_mean", l.mean),
                ])
            )
        })
        .collect();
    out.section("measured_kinds", format!("{{{}}}", rows.join(",")));
    out.section("setup_s", util::list(&setups));
    let fast = reqs
        .iter()
        .filter(|r| {
            !matches!(
                r.kind,
                Kind::SolveMiss | Kind::Sweep | Kind::Delta | Kind::Batch
            )
        })
        .count();
    out.section(
        "run",
        util::object(&[
            ("requests", reqs.len() as f64),
            ("rate_per_s", RATE),
            ("fast_share_planned", fast as f64 / reqs.len() as f64),
            ("late_ms_max", obs.late_max_ms),
            ("late_ms_p50", obs.late_p50_ms),
            ("wall_s", obs.wall.as_secs_f64()),
            ("latency_limit_ms", LATENCY_LIMIT_MS),
        ]),
    );
    Ok(out)
}
