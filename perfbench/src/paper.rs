//! `paper-sweep`: the paper's own experiment. Each pass solves every RG
//! column of Tables 1–3, Fig. 9 and Fig. 11 three ways — a cold sweep and a
//! chained sweep, each in a fresh `SweepSession`, and (Tables 1–3) a
//! descending `DeltaSession` walk — in a freshly shuffled order. One op is
//! one point: 27 cold + 27 chained + 21 delta = 75 ops per pass.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use partita_core::api::selection_digest;
use partita_core::delta::{DeltaSession, InstanceDelta};
use partita_core::{
    ImpDb, RequiredGains, Selection, SelectionAuditor, SolveOptions, Solver, SweepSession,
    SweepTrace,
};
use partita_mop::Cycles;
use partita_workloads::{gsm, jpeg, Workload};

use crate::util::{self, at, at_u64, latency, ms, ratio, us, Outcome, Rng, Speed};
use crate::Args;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 25;

/// Nominal wall time of one pass on the reference host (2 vCPU, release
/// build, 1 thread). `--seconds` is turned into a fixed pass count with it,
/// so every run of a given `--seconds` does identical work.
const NOMINAL_PASS_S: f64 = 0.095;

/// Host-speed reference slices run after each pass (see [`Speed`]).
const SLICES_PER_PASS: usize = 2;

/// Published area column of Tables 1–3, in tenths of the paper's area
/// unit. A measured area must match to the paper's 0.5-unit rounding.
const TABLE1_AREA: [i64; 8] = [30, 30, 30, 170, 180, 180, 240, 410];
const TABLE2_AREA: [i64; 8] = [40, 40, 40, 40, 40, 70, 150, 450];
const TABLE3_AREA: [i64; 5] = [40, 110, 165, 270, 330];
const ROUNDING_TENTHS: i64 = 5;

/// One application of the sweep, with what the checks expect of it.
struct App {
    key: &'static str,
    w: Workload,
    published: Option<&'static [i64]>,
    /// `(gain, area_tenths)` per RG column from `BENCH_partita.json`.
    points: Vec<(u64, i64)>,
    cold_pivots: u64,
    chained_pivots: u64,
    /// `(delta nodes, basis reuses)` of the resolve walk (Tables 1–3).
    delta: Option<(u64, u64)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Cold,
    Chained,
    Delta,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Chained => "chained",
            Kind::Delta => "delta",
        }
    }
}

fn pivots(sel: &Selection) -> u64 {
    let t = &sel.trace;
    (t.phase1_pivots + t.phase2_pivots + t.dual_pivots + t.lex_pivots) as u64
}

/// Builds the five applications and checks them against the committed
/// `BENCH_partita.json` (same RG columns, expected answers and counts).
fn setup(root: &std::path::Path) -> Result<Vec<App>, String> {
    let bench = util::bench_json(root)?;
    let apps: [(&'static str, Workload, Option<&'static [i64]>); 5] = [
        ("table1", gsm::encoder(), Some(&TABLE1_AREA)),
        ("table2", gsm::decoder(), Some(&TABLE2_AREA)),
        ("table3", jpeg::encoder(), Some(&TABLE3_AREA)),
        ("fig9", partita_bench::suite::fig9_workload(), None),
        ("fig11", jpeg::encoder_hierarchical(), None),
    ];
    let mut out = Vec::new();
    for (key, w, published) in apps {
        let cold = format!("{key}:cold:t1");
        let chained = format!("{key}:chained:t1");
        let listed = at(&bench, &["configs", &cold, "portable", "points"])
            .and_then(|p| p.as_array())
            .ok_or_else(|| format!("BENCH_partita.json lacks configs.{cold}.portable.points"))?;
        let mut points = Vec::new();
        for (p, rg) in listed.iter().zip(&w.rg_sweep) {
            if at_u64(p, &["rg"])? != rg.get() {
                return Err(format!("{key}: RG column differs from BENCH_partita.json"));
            }
            points.push((at_u64(p, &["gain"])?, at_u64(p, &["area_tenths"])? as i64));
        }
        if listed.len() != w.rg_sweep.len()
            || published.is_some_and(|a| a.len() != w.rg_sweep.len())
        {
            return Err(format!("{key}: RG column has the wrong length"));
        }
        let ops_pivots = |config: &str| -> Result<u64, String> {
            let ops = [
                "phase1_pivots",
                "phase2_pivots",
                "dual_pivots",
                "lex_pivots",
            ];
            ops.iter().try_fold(0, |acc, k| {
                Ok(acc + at_u64(&bench, &["configs", config, "portable", "ops", k])?)
            })
        };
        let delta = if published.is_some() {
            Some((
                at_u64(&bench, &["resolve", key, "portable", "delta_nodes"])?,
                at_u64(&bench, &["resolve", key, "portable", "basis_reused"])?,
            ))
        } else {
            None
        };
        out.push(App {
            key,
            points,
            cold_pivots: ops_pivots(&cold)?,
            chained_pivots: ops_pivots(&chained)?,
            delta,
            w,
            published,
        });
    }
    Ok(out)
}

/// One answered point.
struct Point {
    col: usize,
    ms: f64,
    sel: Selection,
    clean: bool,
}

/// What one unit (a sweep call or a delta walk) returned.
#[derive(Default)]
struct Unit {
    points: Vec<Point>,
    sweep: Option<SweepTrace>,
    apply: Vec<Duration>,
    resolve: Vec<Duration>,
    audit: Vec<Duration>,
}

fn audit(
    args: &mut Args,
    op: u64,
    parent: &util::Open,
    w: &Workload,
    sel: &Selection,
    rg: Cycles,
    unit: &mut Unit,
) -> (Duration, bool) {
    let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
    let sp = args.tracer.start("core::verify::audit", op, Some(parent));
    let clean = SelectionAuditor::new(&w.instance, &w.imps)
        .audit(sel, &opts)
        .is_clean();
    let d = args.tracer.end(sp);
    unit.audit.push(d);
    (d, clean)
}

fn run_unit(args: &mut Args, app: &App, kind: Kind, op: u64) -> Result<Unit, String> {
    let w = &app.w;
    let mut unit = Unit::default();
    let top = args.tracer.start("paper-sweep::op", op, None);
    match kind {
        Kind::Cold | Kind::Chained => {
            let mut session = SweepSession::new();
            let base = SolveOptions::default();
            let (name, chain) = match kind {
                Kind::Cold => ("core::sweep::sweep_cold", false),
                _ => ("core::sweep::sweep", true),
            };
            let sp = args.tracer.start(name, op, Some(&top));
            let sels = if chain {
                session.sweep(&w.instance, &w.imps, &base, &w.rg_sweep)
            } else {
                session.sweep_cold(&w.instance, &w.imps, &base, &w.rg_sweep)
            }
            .map_err(|e| format!("{} {} sweep: {e}", app.key, kind.name()))?;
            args.tracer.end(sp);
            let trace = session.take_trace();
            let walls: HashMap<u64, Duration> = trace
                .points
                .iter()
                .filter_map(|p| p.rg.map(|rg| (rg.get(), p.wall)))
                .collect();
            for (col, (sel, &rg)) in sels.into_iter().zip(&w.rg_sweep).enumerate() {
                let (d, clean) = audit(args, op, &top, w, &sel, rg, &mut unit);
                let wall = walls.get(&rg.get()).copied().unwrap_or_default();
                unit.points.push(Point {
                    col,
                    ms: ms(wall + d),
                    sel,
                    clean,
                });
            }
            unit.sweep = Some(trace);
        }
        Kind::Delta => {
            let mut cols: Vec<usize> = (0..w.rg_sweep.len()).collect();
            cols.sort_by(|&a, &b| w.rg_sweep[b].cmp(&w.rg_sweep[a]));
            let first = RequiredGains::uniform(w.rg_sweep[cols[0]]);
            let sp = args.tracer.start("core::delta::new", op, Some(&top));
            let mut session = DeltaSession::new(
                w.instance.clone(),
                w.imps.clone(),
                SolveOptions::problem2(first),
            )
            .map_err(|e| format!("{} delta session: {e}", app.key))?;
            let mut lead = args.tracer.end(sp);
            for (i, &col) in cols.iter().enumerate() {
                let rg = w.rg_sweep[col];
                let mut took = std::mem::take(&mut lead);
                if i > 0 {
                    let sp = args.tracer.start("core::delta::apply", op, Some(&top));
                    session
                        .apply(InstanceDelta::SetRg(RequiredGains::uniform(rg)))
                        .map_err(|e| format!("{} delta apply: {e}", app.key))?;
                    let d = args.tracer.end(sp);
                    unit.apply.push(d);
                    took += d;
                }
                let sp = args.tracer.start("core::delta::resolve", op, Some(&top));
                let sel = session
                    .resolve()
                    .map_err(|e| format!("{} delta resolve at RG {}: {e}", app.key, rg.get()))?;
                let d = args.tracer.end(sp);
                unit.resolve.push(d);
                let (a, clean) = audit(args, op, &top, w, &sel, rg, &mut unit);
                unit.points.push(Point {
                    col,
                    ms: ms(took + d + a),
                    sel,
                    clean,
                });
            }
        }
    }
    args.tracer.end(top);
    Ok(unit)
}

/// Traced-run probes outside the op spans: IMP generation, formulation
/// and the root LP relaxation of each RG column.
struct Probes {
    generate: Vec<Duration>,
    formulate: Vec<Duration>,
    root_lp: Vec<Duration>,
}

fn probe(args: &mut Args, app: &App, op: u64, probes: &mut Probes) -> Result<(), String> {
    let w = &app.w;
    let sp = args.tracer.start("core::impdb::generate", op, None);
    let db = ImpDb::generate(&w.instance);
    probes.generate.push(args.tracer.end(sp));
    drop(db);
    for &rg in &w.rg_sweep {
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        let sp = args.tracer.start("core::solver::formulate", op, None);
        let model = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .formulate(&opts)
            .map_err(|e| format!("{} formulate: {e}", app.key))?;
        probes.formulate.push(args.tracer.end(sp));
        let sp = args
            .tracer
            .start("ilp::simplex::solve_relaxation", op, None);
        partita_ilp::simplex::solve_relaxation(
            &model,
            partita_ilp::simplex::SimplexOptions::default(),
        )
        .map_err(|e| format!("{} root LP: {e}", app.key))?;
        probes.root_lp.push(args.tracer.end(sp));
    }
    Ok(())
}

/// Per-kind tallies over the timed passes.
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
}

impl Tally {
    fn absorb(&mut self, p: &Point) {
        let t = &p.sel.trace;
        self.ms.push(p.ms);
        self.nodes += t.nodes_explored as u64;
        self.pivots += pivots(&p.sel);
        self.phase1 += t.phase1_pivots as u64;
        self.dual += t.dual_pivots as u64;
        self.builds += t.tableau_builds as u64;
        self.reuses += t.scratch_reuses as u64;
        self.search += t.solve;
        self.decode += t.decode;
    }
}

pub fn run(args: &mut Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, took) = Speed::timed(|| setup(&args.root));
        apps = built?;
        setups.push(took);
    }
    let passes = ((args.seconds / NOMINAL_PASS_S).round() as usize).max(1);
    let mut units: Vec<(usize, Kind)> = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        units.push((i, Kind::Cold));
        units.push((i, Kind::Chained));
        if app.delta.is_some() {
            units.push((i, Kind::Delta));
        }
    }
    let mut rng = Rng::stream(args.seed, "paper-sweep/order");
    let mut out = Outcome::default();

    // Warm-up pass (untimed, unrecorded). It also fixes each column's
    // reference digest from the cold sweep; every timed op must match it.
    let tracing = args.tracer.on();
    args.tracer.set_on(false);
    let mut reference: HashMap<(usize, usize), u64> = HashMap::new();
    for &(a, kind) in &units {
        let unit = run_unit(args, &apps[a], kind, 0)?;
        for p in &unit.points {
            if kind == Kind::Cold {
                reference.insert((a, p.col), selection_digest(&p.sel));
            }
        }
    }
    args.tracer.set_on(tracing);

    let mut per_kind: HashMap<Kind, Tally> = HashMap::new();
    let mut per_app: HashMap<(usize, Kind), (u64, u64, u64)> = HashMap::new();
    let mut chain = (0u64, 0u64);
    let mut sweep_walls: HashMap<Kind, Vec<Duration>> = HashMap::new();
    let (mut apply, mut resolve, mut audits) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = Probes {
        generate: Vec::new(),
        formulate: Vec::new(),
        root_lp: Vec::new(),
    };
    let mut op = 0u64;
    let mut timed = Duration::ZERO;
    let mut speed = Speed::new();
    for _ in 0..passes {
        rng.shuffle(&mut units);
        let started = Instant::now();
        let mut results = Vec::with_capacity(units.len());
        for &(a, kind) in &units {
            op += 1;
            results.push((a, kind, run_unit(args, &apps[a], kind, op)?));
        }
        timed += started.elapsed();
        speed.sample(SLICES_PER_PASS);
        for (a, kind, unit) in results {
            let app = &apps[a];
            let entry = per_app.entry((a, kind)).or_default();
            for p in &unit.points {
                out.attempted += 1;
                let rg = app.w.rg_sweep[p.col].get();
                let area = p.sel.total_area().tenths();
                let gain = p.sel.total_gain().get();
                let (want_gain, want_area) = app.points[p.col];
                per_kind.entry(kind).or_default().absorb(p);
                entry.0 += p.sel.trace.nodes_explored as u64;
                entry.1 += pivots(&p.sel);
                entry.2 += u64::from(p.sel.trace.basis_reused);
                if let Some(published) = app
                    .published
                    .filter(|a| (area - a[p.col]).abs() > ROUNDING_TENTHS)
                {
                    out.fail(format!(
                        "{} {} RG {rg}: area {area} tenths, paper prints {}",
                        app.key,
                        kind.name(),
                        published[p.col]
                    ));
                } else if (gain, area) != (want_gain, want_area) {
                    out.fail(format!(
                        "{} {} RG {rg}: (gain, area) = ({gain}, {area}), BENCH_partita.json has ({want_gain}, {want_area})",
                        app.key,
                        kind.name()
                    ));
                } else if reference.get(&(a, p.col)) != Some(&selection_digest(&p.sel)) {
                    out.fail(format!(
                        "{} {} RG {rg}: selection differs from the cold sweep's",
                        app.key,
                        kind.name()
                    ));
                } else if !p.clean {
                    out.fail(format!(
                        "{} {} RG {rg}: audit not clean",
                        app.key,
                        kind.name()
                    ));
                }
            }
            if let Some(t) = &unit.sweep {
                sweep_walls
                    .entry(kind)
                    .or_default()
                    .extend(t.points.iter().map(|p| p.wall));
                if kind == Kind::Chained {
                    chain.0 += t.chained_accepts;
                    chain.1 += t.chained_accepts + t.chained_rejects;
                }
            }
            apply.extend(unit.apply);
            resolve.extend(unit.resolve);
            audits.extend(unit.audit);
        }
        if args.tracer.on() {
            for app in &apps {
                probe(args, app, op, &mut probes)?;
            }
        }
    }

    let all: Vec<f64> = per_kind
        .values()
        .flat_map(|t| t.ms.iter().copied())
        .collect();
    let lat = latency(&all);
    let p = passes as f64;
    if args.tracer.on() {
        // Count determinism: every pass must repeat the committed counts.
        for (a, app) in apps.iter().enumerate() {
            let got = |k| per_app.get(&(a, k)).copied().unwrap_or_default();
            let mut want = vec![
                (Kind::Cold, "pivots", got(Kind::Cold).1, app.cold_pivots),
                (
                    Kind::Chained,
                    "pivots",
                    got(Kind::Chained).1,
                    app.chained_pivots,
                ),
            ];
            if let Some((nodes, reused)) = app.delta {
                want.push((Kind::Delta, "nodes", got(Kind::Delta).0, nodes));
                want.push((Kind::Delta, "basis_reused", got(Kind::Delta).2, reused));
            }
            for (kind, what, total, per_pass) in want {
                if total != per_pass * passes as u64 {
                    out.fail(format!(
                        "{} {}: {what} {} per pass, BENCH_partita.json has {per_pass}",
                        app.key,
                        kind.name(),
                        total as f64 / p
                    ));
                }
            }
        }
        let empty = Tally::default();
        let t = |k| per_kind.get(&k).unwrap_or(&empty);
        let (cold, chained, delta) = (t(Kind::Cold), t(Kind::Chained), t(Kind::Delta));
        let total = |f: fn(&Tally) -> u64| f(cold) + f(chained) + f(delta);
        let search = cold.search + chained.search + delta.search;
        let decode = cold.decode + chained.decode + delta.decode;
        let n_ops = all.len() as f64;
        let mean_us = |v: &[Duration]| ratio(v.iter().map(|d| us(*d)).sum(), v.len() as f64);
        let walls = |k| sweep_walls.get(&k).cloned().unwrap_or_default();
        let layers = vec![
            ("impdb.generate_us", mean_us(&probes.generate)),
            ("formulate.us_per_op", mean_us(&probes.formulate)),
            ("ilp.search_ms_per_op", ms(search) / n_ops),
            (
                "ilp.us_per_node",
                ratio(us(search), total(|t| t.nodes) as f64),
            ),
            ("ilp.nodes", total(|t| t.nodes) as f64 / p),
            ("ilp.pivots", total(|t| t.pivots) as f64 / p),
            ("ilp.phase1_pivots", total(|t| t.phase1) as f64 / p),
            ("ilp.dual_pivots", total(|t| t.dual) as f64 / p),
            ("ilp.tableau_builds", total(|t| t.builds) as f64 / p),
            (
                "ilp.scratch_reuse_ratio",
                ratio(total(|t| t.reuses) as f64, total(|t| t.builds) as f64),
            ),
            ("ilp.root_lp_us", mean_us(&probes.root_lp)),
            ("solver.decode_us_per_op", us(decode) / n_ops),
            ("verify.audit_us_per_op", mean_us(&audits)),
            ("sweep.cold_us_per_point", mean_us(&walls(Kind::Cold))),
            ("sweep.chained_us_per_point", mean_us(&walls(Kind::Chained))),
            ("sweep.cold_pivots", cold.pivots as f64 / p),
            ("sweep.chained_pivots", chained.pivots as f64 / p),
            (
                "sweep.chain_accept_ratio",
                ratio(chain.0 as f64, chain.1 as f64),
            ),
            ("delta.apply_us", mean_us(&apply)),
            ("delta.resolve_us", mean_us(&resolve)),
            ("delta.nodes", delta.nodes as f64 / p),
            (
                "delta.basis_reuse_ratio",
                ratio(
                    per_app
                        .iter()
                        .filter(|((_, k), _)| *k == Kind::Delta)
                        .map(|(_, v)| v.2)
                        .sum::<u64>() as f64,
                    resolve.len() as f64,
                ),
            ),
        ];
        crate::layers::emit(
            &mut out,
            &args.tracer,
            &layers,
            all.iter().sum::<f64>() / 1e3,
        );
        let kinds: Vec<String> = [
            (Kind::Cold, cold),
            (Kind::Chained, chained),
            (Kind::Delta, delta),
        ]
        .iter()
        .map(|(k, t)| {
            let l = latency(&t.ms);
            format!(
                "\"{}\":{}",
                k.name(),
                util::object(&[
                    ("ops_per_pass", t.ms.len() as f64 / p),
                    ("op_ms_p50", l.p50),
                    ("op_ms_mean", l.mean),
                    ("nodes_per_pass", t.nodes as f64 / p),
                    ("pivots_per_pass", t.pivots as f64 / p),
                    ("search_ms_per_op", ratio(ms(t.search), t.ms.len() as f64)),
                ])
            )
        })
        .collect();
        out.section("kinds", format!("{{{}}}", kinds.join(",")));
        let mut rows: Vec<String> = Vec::new();
        for (a, app) in apps.iter().enumerate() {
            for kind in [Kind::Cold, Kind::Chained, Kind::Delta] {
                if let Some(&(nodes, piv, reused)) = per_app.get(&(a, kind)) {
                    rows.push(format!(
                        "\"{}:{}\":{}",
                        app.key,
                        kind.name(),
                        util::object(&[
                            ("nodes_per_pass", nodes as f64 / p),
                            ("pivots_per_pass", piv as f64 / p),
                            ("basis_reused_per_pass", reused as f64 / p),
                        ])
                    ));
                }
            }
        }
        out.section("apps", format!("{{{}}}", rows.join(",")));
        out.section(
            "ratios",
            util::object(&[
                ("chain_accepts", chain.0 as f64),
                ("chain_base_points", chain.1 as f64),
                ("scratch_reuses", total(|t| t.reuses) as f64),
                ("tableau_builds_base", total(|t| t.builds) as f64),
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
        ]),
    );
    Ok(out)
}
