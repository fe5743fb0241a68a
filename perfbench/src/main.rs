//! End-to-end and per-layer benchmark of the RT-OPEX reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <phy_mix|cell_steal_tcp|cell_partitioned_udp|sim_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans around the public calls into each layer, writes them to
//! `.bench_out/`, and reports the per-layer metrics computed from them.
//! See `perfbench/README.md` for what each metric means.

mod cell;
mod fleet;
mod phy;
mod probes;
mod report;
mod trace;
mod util;

use report::Outcome;
use rtopex_runtime::SchedulerMode;
use std::time::Instant;
use trace::Tracer;
use util::Args;

/// Worker threads each workload runs.
fn worker_threads(workload: &str) -> usize {
    match workload {
        "cell_steal_tcp" | "cell_partitioned_udp" => cell::worker_threads(),
        _ => 1,
    }
}

fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    let workers = worker_threads(&args.workload);
    let cores = util::cores();
    if workers > cores {
        return Err(format!(
            "refused: {} needs {workers} worker threads but this machine has {cores} cores",
            args.workload
        ));
    }
    let mut out = Outcome::new();
    let mut tr = Tracer::new(args.trace, Instant::now());
    match args.workload.as_str() {
        "phy_mix" => phy::run(args.seed, args.seconds, &mut tr, &mut out),
        "cell_steal_tcp" => cell::run(
            &cell::CellSpec {
                mode: SchedulerMode::RtOpexSteal,
                udp: false,
            },
            args.seed,
            args.seconds,
            &mut tr,
            &mut out,
        )?,
        "cell_partitioned_udp" => cell::run(
            &cell::CellSpec {
                mode: SchedulerMode::Partitioned,
                udp: true,
            },
            args.seed,
            args.seconds,
            &mut tr,
            &mut out,
        )?,
        "sim_fleet" => fleet::run(args.seed, args.seconds, &mut tr, &mut out),
        other => return Err(format!("unknown workload {other}")),
    }
    out.set("peak_rss_mb", util::peak_rss_mb());
    if args.trace {
        layer_probes(args, &mut tr, &mut out);
    }
    Ok((out, tr))
}

/// The replay probes every traced run adds, so each layer's metrics are
/// measured whatever the workload drives.
fn layer_probes(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    const PROBE_SUBFRAMES: usize = 16;
    const HANDOFFS: usize = 2_000;
    let needs_pool = !matches!(
        args.workload.as_str(),
        "cell_steal_tcp" | "cell_partitioned_udp"
    );
    if needs_pool {
        let pool = phy::generate(args.seed, &phy::tower_mix(args.seed, PROBE_SUBFRAMES));
        if args.workload != "phy_mix" {
            phy::probe(&pool, tr, out);
        }
        if !probes::wire(&pool, pool.len() * 8, tr, out) {
            out.fail_check("wire replay lost a subframe".into());
        }
    }
    probes::steal(HANDOFFS, tr, out);
    probes::sim(&fleet::probe_config(args.seed), tr, out);
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let fp = util::fingerprint();
    println!("# {fp}");
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok((out, tr)) => {
            if args.trace {
                match tr.write_out(&args.workload, args.seed, &fp) {
                    Ok(path) => println!("# spans written to {path}"),
                    Err(e) => eprintln!("perfbench: could not write spans: {e}"),
                }
            }
            println!("# end_to_end {}", out.end_to_end_json());
            println!("{}", out.json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
