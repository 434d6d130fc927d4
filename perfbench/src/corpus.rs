//! `corpus-exact`: every ungated entry of the six exact corpus groups
//! (synth:micro, synth:small, adpcm, viterbi, lms, fft_radix4) at its
//! mid-sweep RG. One op is a cold `Solver::solve` plus a
//! `SelectionAuditor::audit`: 250 ops per pass, freshly shuffled each pass.

use std::time::{Duration, Instant};

use partita_core::{ImpDb, RequiredGains, SelectionAuditor, SolveOptions, Solver};
use partita_workloads::{corpus, Workload};

use crate::util::{self, at_u64, latency, ms, ratio, us, Outcome, Rng, Speed};
use crate::Args;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Nominal wall time of one pass on the reference host (see
/// `paper::NOMINAL_PASS_S`).
const NOMINAL_PASS_S: f64 = 4.3;

/// One host-speed reference slice runs before every this many ops (see
/// [`Speed`]).
const OPS_PER_SLICE: usize = 5;

/// The exact corpus groups, in report order.
const GROUPS: [&str; 6] = [
    "synth:micro",
    "synth:small",
    "adpcm",
    "viterbi",
    "lms",
    "fft_radix4",
];

struct Entry {
    id: String,
    group: usize,
    w: Workload,
    opts: SolveOptions,
}

/// Per-group totals of one pass, compared with `BENCH_partita.json`.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Totals {
    solved: u64,
    gain: u64,
    area_tenths: u64,
    nodes: u64,
    pivots: u64,
}

fn group_of(e: &corpus::ManifestEntry) -> Option<usize> {
    let key = if e.preset.is_empty() {
        e.family.clone()
    } else {
        format!("{}:{}", e.family, e.preset)
    };
    GROUPS.iter().position(|g| *g == key)
}

/// Rebuilds and digest-checks every entry, and reads the expected group
/// totals.
fn setup(args: &mut Args) -> Result<(Vec<Entry>, Vec<Totals>), String> {
    let bench = util::bench_json(&args.root)?;
    let mut expected = Vec::new();
    for g in GROUPS {
        let field = |k| at_u64(&bench, &["corpus", g, "portable", k]);
        expected.push(Totals {
            solved: field("solved")?,
            gain: field("gain")?,
            area_tenths: field("area_tenths")?,
            nodes: field("nodes")?,
            pivots: field("pivots")?,
        });
    }
    let mut entries = Vec::new();
    for e in corpus::manifest()?.into_iter().filter(|e| !e.gated) {
        let Some(group) = group_of(&e) else { continue };
        let sp = args
            .tracer
            .start("workloads::ManifestEntry::verify", 0, None);
        let w = e.verify()?;
        args.tracer.end(sp);
        let rg = w.rg_sweep[w.rg_sweep.len() / 2];
        entries.push(Entry {
            id: e.id,
            group,
            opts: SolveOptions::problem2(RequiredGains::uniform(rg)),
            w,
        });
    }
    Ok((entries, expected))
}

/// Per-group tallies over the timed passes.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    nodes: u64,
    pivots: u64,
    phase1: u64,
    dual: u64,
    builds: u64,
    reuses: u64,
    search: Duration,
    decode: Duration,
    audit: Duration,
}

pub fn run(args: &mut Args) -> Result<Outcome, String> {
    let tracing = args.tracer.on();
    let mut setups = Vec::new();
    let (mut entries, mut expected) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let (built, took) = Speed::timed(|| setup(args));
        (entries, expected) = built?;
        setups.push(took);
    }
    let passes = ((args.seconds / NOMINAL_PASS_S).round() as usize).max(1);
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let mut rng = Rng::stream(args.seed, "corpus-exact/order");
    let mut out = Outcome::default();
    let mut tallies: Vec<Tally> = GROUPS.iter().map(|_| Tally::default()).collect();
    let (mut generate, mut formulate, mut root_lp) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed = Duration::ZERO;
    let mut op = 0u64;
    let mut speed = Speed::new();

    // Pass 0 is the untimed, unrecorded warm-up.
    for pass in 0..=passes {
        args.tracer.set_on(tracing && pass > 0);
        rng.shuffle(&mut order);
        let mut totals = vec![Totals::default(); GROUPS.len()];
        let mut failed_ops = vec![0u64; GROUPS.len()];
        let mut samples = Vec::with_capacity(order.len());
        let started = Instant::now();
        let mut sampling = Duration::ZERO;
        for (k, &i) in order.iter().enumerate() {
            if pass > 0 && k % OPS_PER_SLICE == 0 {
                sampling += speed.sample(1);
            }
            op += 1;
            let e = &entries[i];
            let t0 = Instant::now();
            let top = args.tracer.start("corpus-exact::op", op, None);
            let sp = args.tracer.start("core::solver::solve", op, Some(&top));
            let solved = Solver::new(&e.w.instance)
                .with_imps(e.w.imps.clone())
                .solve(&e.opts);
            args.tracer.end(sp);
            let result = solved.map(|sel| {
                let sp = args.tracer.start("core::verify::audit", op, Some(&top));
                let clean = SelectionAuditor::new(&e.w.instance, &e.w.imps)
                    .audit(&sel, &e.opts)
                    .is_clean();
                let d = args.tracer.end(sp);
                (sel, clean, d)
            });
            args.tracer.end(top);
            let took = t0.elapsed();
            samples.push((e.group, ms(took), result));
        }
        if pass == 0 {
            continue;
        }
        timed += started.elapsed() - sampling;
        for (&i, (group, took_ms, result)) in order.iter().zip(samples) {
            let e = &entries[i];
            out.attempted += 1;
            let t = &mut tallies[group];
            t.ms.push(took_ms);
            match result {
                Ok((sel, clean, audit)) => {
                    let tr = &sel.trace;
                    let piv = (tr.phase1_pivots + tr.phase2_pivots + tr.dual_pivots + tr.lex_pivots)
                        as u64;
                    let tot = &mut totals[group];
                    tot.solved += 1;
                    tot.gain += sel.total_gain().get();
                    tot.area_tenths += sel.total_area().tenths() as u64;
                    tot.nodes += tr.nodes_explored as u64;
                    tot.pivots += piv;
                    t.nodes += tr.nodes_explored as u64;
                    t.pivots += piv;
                    t.phase1 += tr.phase1_pivots as u64;
                    t.dual += tr.dual_pivots as u64;
                    t.builds += tr.tableau_builds as u64;
                    t.reuses += tr.scratch_reuses as u64;
                    t.search += tr.solve;
                    t.decode += tr.decode;
                    t.audit += audit;
                    if !clean {
                        failed_ops[group] += 1;
                        out.fail(format!("{}: audit not clean", e.id));
                    }
                }
                Err(err) => {
                    failed_ops[group] += 1;
                    out.fail(format!("{}: {err}", e.id));
                }
            }
        }
        // The group totals must equal the committed corpus section; a
        // mismatch fails every op of the group that has not failed yet.
        for (g, (got, want)) in totals.iter().zip(&expected).enumerate() {
            if got != want {
                let size = entries.iter().filter(|e| e.group == g).count() as u64;
                for _ in failed_ops[g]..size {
                    out.fail(format!(
                        "{}: pass totals {got:?}, BENCH_partita.json has {want:?}",
                        GROUPS[g]
                    ));
                }
            }
        }
        if args.tracer.on() {
            for e in &entries {
                let sp = args.tracer.start("core::impdb::generate", op, None);
                let db = ImpDb::generate(&e.w.instance);
                generate.push(args.tracer.end(sp));
                drop(db);
                let sp = args.tracer.start("core::solver::formulate", op, None);
                let model = Solver::new(&e.w.instance)
                    .with_imps(e.w.imps.clone())
                    .formulate(&e.opts)
                    .map_err(|err| format!("{} formulate: {err}", e.id))?;
                formulate.push(args.tracer.end(sp));
                let sp = args
                    .tracer
                    .start("ilp::simplex::solve_relaxation", op, None);
                partita_ilp::simplex::solve_relaxation(
                    &model,
                    partita_ilp::simplex::SimplexOptions::default(),
                )
                .map_err(|err| format!("{} root LP: {err}", e.id))?;
                root_lp.push(args.tracer.end(sp));
            }
        }
    }

    let all: Vec<f64> = tallies.iter().flat_map(|t| t.ms.iter().copied()).collect();
    let lat = latency(&all);
    let p = passes as f64;
    if tracing {
        let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
        let dur = |f: fn(&Tally) -> Duration| tallies.iter().map(f).sum::<Duration>();
        let n_ops = all.len() as f64;
        let mean_us = |v: &[Duration]| ratio(v.iter().map(|d| us(*d)).sum(), v.len() as f64);
        let verify = args.tracer.layers()["workloads::ManifestEntry::verify"];
        let layers = [
            ("workloads.verify_ms", ms(verify.1) / verify.0 as f64),
            ("impdb.generate_us", mean_us(&generate)),
            ("formulate.us_per_op", mean_us(&formulate)),
            ("ilp.search_ms_per_op", ms(dur(|t| t.search)) / n_ops),
            (
                "ilp.us_per_node",
                ratio(us(dur(|t| t.search)), sum(|t| t.nodes) as f64),
            ),
            ("ilp.nodes", sum(|t| t.nodes) as f64 / p),
            ("ilp.pivots", sum(|t| t.pivots) as f64 / p),
            ("ilp.phase1_pivots", sum(|t| t.phase1) as f64 / p),
            ("ilp.dual_pivots", sum(|t| t.dual) as f64 / p),
            ("ilp.tableau_builds", sum(|t| t.builds) as f64 / p),
            (
                "ilp.scratch_reuse_ratio",
                ratio(sum(|t| t.reuses) as f64, sum(|t| t.builds) as f64),
            ),
            ("ilp.root_lp_us", mean_us(&root_lp)),
            ("solver.decode_us_per_op", us(dur(|t| t.decode)) / n_ops),
            ("verify.audit_us_per_op", us(dur(|t| t.audit)) / n_ops),
        ];
        crate::layers::emit(
            &mut out,
            &args.tracer,
            &layers,
            all.iter().sum::<f64>() / 1e3,
        );
        let rows: Vec<String> = GROUPS
            .iter()
            .zip(&tallies)
            .map(|(g, t)| {
                let l = latency(&t.ms);
                format!(
                    "\"{g}\":{}",
                    util::object(&[
                        ("ops_per_pass", t.ms.len() as f64 / p),
                        ("op_ms_p50", l.p50),
                        ("op_ms_mean", l.mean),
                        ("nodes_per_pass", t.nodes as f64 / p),
                        ("pivots_per_pass", t.pivots as f64 / p),
                        ("search_ms_per_op", ratio(ms(t.search), t.ms.len() as f64)),
                        ("us_per_node", ratio(us(t.search), t.nodes as f64)),
                        (
                            "share_of_op_time",
                            ratio(t.ms.iter().sum(), all.iter().sum())
                        ),
                    ])
                )
            })
            .collect();
        out.section("groups", format!("{{{}}}", rows.join(",")));
        out.section(
            "ratios",
            util::object(&[
                ("scratch_reuses", sum(|t| t.reuses) as f64),
                ("tableau_builds_base", sum(|t| t.builds) as f64),
                (
                    "search_share_of_op_time",
                    ratio(ms(dur(|t| t.search)), all.iter().sum()),
                ),
            ]),
        );
    } else {
        let ops_per_s = all.len() as f64 / timed.as_secs_f64();
        out.end_to_end(&setups, ops_per_s, &lat, &speed, false);
    }
    out.section("latency", lat.to_json());
    out.section("setup_s", util::list(&setups));
    out.section(
        "run",
        util::object(&[
            ("passes", p),
            ("ops_per_pass", all.len() as f64 / p),
            ("timed_s", timed.as_secs_f64()),
            (
                "setup_s_min",
                setups.iter().copied().fold(f64::INFINITY, f64::min),
            ),
        ]),
    );
    Ok(out)
}
