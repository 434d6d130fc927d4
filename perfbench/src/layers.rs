//! The per-layer metrics of the traced run, in one fixed order.
//!
//! Every traced run prints every metric. A layer a workload drives no work
//! through reads 0 there (for example `api.parse_us` on `paper-sweep`):
//! that is the "no change expected" control of `README.md`'s map.

use std::time::Instant;

use crate::util::{self, Outcome, Tracer};

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.verify_ms", "ms"),
    ("impdb.generate_us", "us"),
    ("formulate.us_per_op", "us"),
    ("ilp.search_ms_per_op", "ms"),
    ("ilp.us_per_node", "us"),
    ("ilp.nodes", "count"),
    ("ilp.pivots", "count"),
    ("ilp.phase1_pivots", "count"),
    ("ilp.dual_pivots", "count"),
    ("ilp.tableau_builds", "count"),
    ("ilp.scratch_reuse_ratio", "ratio"),
    ("ilp.root_lp_us", "us"),
    ("solver.decode_us_per_op", "us"),
    ("verify.audit_us_per_op", "us"),
    ("sweep.cold_us_per_point", "us"),
    ("sweep.chained_us_per_point", "us"),
    ("sweep.cold_pivots", "count"),
    ("sweep.chained_pivots", "count"),
    ("sweep.chain_accept_ratio", "ratio"),
    ("delta.apply_us", "us"),
    ("delta.resolve_us", "us"),
    ("delta.nodes", "count"),
    ("delta.basis_reuse_ratio", "ratio"),
    ("api.parse_us", "us"),
    ("api.encode_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("service.degraded_share", "ratio"),
    ("service.rejected_share", "ratio"),
    ("server.overhead_ms_p50", "ms"),
    ("generator.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Cost of recording one span, measured on this host.
fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let mut probe = Tracer::new(true);
    let started = Instant::now();
    for i in 0..N {
        let s = probe.start("probe", i as u64, None);
        probe.end(s);
    }
    started.elapsed().as_secs_f64() / N as f64
}

/// Prints every per-layer metric (`values` supplies the measured ones)
/// and adds the span table to the report. `busy_s` is the total op time
/// of the traced passes; the tracing overhead is the recorder's own cost
/// over it.
pub fn emit(out: &mut Outcome, tracer: &Tracer, values: &[(&str, f64)], busy_s: f64) {
    let layers = tracer.layers();
    let spans: u64 = layers.values().map(|v| v.0).sum();
    let overhead = util::ratio(spans as f64 * span_cost_s(), busy_s) * 100.0;
    for (name, unit) in PER_LAYER {
        let value = if name == "trace.overhead_pct" {
            overhead
        } else {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        out.metric(name, value, unit);
    }
    debug_assert!(values
        .iter()
        .all(|(n, _)| PER_LAYER.iter().any(|(m, _)| m == n)));
    let rows: Vec<String> = layers
        .iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "\"{name}\":{}",
                util::object(&[
                    ("calls", *calls as f64),
                    ("total_ms", util::ms(*total)),
                    ("self_ms", util::ms(*own)),
                ])
            )
        })
        .collect();
    out.section("spans", format!("{{{}}}", rows.join(",")));
}
