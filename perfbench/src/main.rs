//! The partita benchmark binary: runs one named workload through
//! partita's public API, checks every answer, and prints the result as one
//! JSON line. `perfbench/run.py` builds and drives it; see
//! `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! partita-perfbench --workload <paper-sweep|corpus-exact|service-open-loop>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   [--root <checkout>] [--out <dir>]
//! ```

mod corpus;
mod layers;
mod paper;
mod service;
mod util;

use std::path::PathBuf;

use util::{Outcome, Tracer};

/// Everything a workload needs from the command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Checkout root (holds `BENCH_partita.json` and `tests/service/`).
    pub root: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: partita-perfbench --workload <paper-sweep|corpus-exact|service-open-loop> \
         --seed <n> --seconds <s> --trace <0|1> [--root <dir>] [--out <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = PathBuf::from(".");
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--root" => root = PathBuf::from(value),
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let mut args = Args {
        seed,
        seconds,
        tracer: Tracer::new(trace),
        root,
    };
    let result = match workload.as_str() {
        "paper-sweep" => paper::run(&mut args),
        "corpus-exact" => corpus::run(&mut args),
        "service-open-loop" => service::run(&mut args),
        _ => usage(),
    };
    let outcome: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if let Some(dir) = out {
        let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{tag}.json")),
                    outcome.report_json(&workload, seed, trace),
                )
            })
            .and_then(|()| {
                if trace {
                    args.tracer.write(&dir.join(format!("{tag}.spans.jsonl")))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot write the report to {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
    }
    println!("{}", outcome.result_line());
}
