//! `sim_fleet`: the pooling experiment's host shape (8 hosts × 8 cells on
//! an 8-core budget) run by `run_fleet` under RT-OPEX, partitioned and
//! global-EDF in turn, closed loop on one worker thread.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, process_cpu, quantile};
use rtopex_core::global::QueuePolicy;
use rtopex_experiments::common::Opts;
use rtopex_experiments::pooling::{pooling_config, CORE_BUDGET};
use rtopex_sim::{host_config, run_fleet, FleetConfig, SchedulerKind};
use std::time::Instant;

const HOSTS: usize = 8;
const CELLS_PER_HOST: usize = 8;

const ENGINES: [(&str, SchedulerKind); 3] = [
    ("sim.rtopex", SchedulerKind::RtOpex { delta_us: 20 }),
    ("sim.partitioned", SchedulerKind::Partitioned),
    (
        "sim.global",
        SchedulerKind::Global {
            cores: CORE_BUDGET,
            policy: QueuePolicy::Edf,
        },
    ),
];

/// The three fleet configurations, each pinned to one worker thread
/// (`pooling_config` shards across every core by default).
fn configs(seed: u64) -> Vec<FleetConfig> {
    let opts = Opts { quick: true, seed };
    ENGINES
        .iter()
        .map(|(_, kind)| {
            let mut fc =
                pooling_config(&opts, HOSTS, CELLS_PER_HOST, *kind).expect("8 cells fit 8 cores");
            fc.threads = 1;
            fc
        })
        .collect()
}

/// Builds the three fleets' configurations and every host's
/// configuration, the public calls that set a fleet up; `run_fleet`
/// builds each host's engine itself, inside the timed simulation.
fn set_up(seed: u64) -> Vec<FleetConfig> {
    let fleets = configs(seed);
    for fc in &fleets {
        for host in 0..fc.hosts {
            std::hint::black_box(host_config(&fc.base, host));
        }
    }
    fleets
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let per_op = (HOSTS * CELLS_PER_HOST * configs(seed)[0].base.subframes) as u64;

    let mut us_per_sf: Vec<f64> = Vec::new();
    let mut ops = 0u64;
    let mut migrated_frac = 0.0;
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut busy = 0.0;
    // Every round sets the fleets up afresh; the set-up takes ~0.2 ms,
    // so its median over the whole run steadies it against host drift.
    let mut setups = Vec::new();
    loop {
        let t = Instant::now();
        let fleets = set_up(seed);
        setups.push(t.elapsed().as_secs_f64());
        let mut missed = [0u64; 3];
        for (i, fc) in fleets.iter().enumerate() {
            let t = Instant::now();
            let rep = run_fleet(fc);
            let dt = t.elapsed();
            tr.record(ENGINES[i].0, 0, ops as u32, t, t + dt);
            busy += dt.as_secs_f64();
            us_per_sf.push(dt.as_secs_f64() * 1e6 / per_op as f64);
            ops += 1;
            let m = &rep.merged;
            let total = m.deadline.total_subframes();
            if total != per_op {
                out.fail_check(format!(
                    "{} accounted {total} of {per_op} subframes",
                    ENGINES[i].0
                ));
            }
            missed[i] = m.deadline.overall().missed;
            let mig = &m.migration;
            let moved = mig.fft_migrated + mig.decode_migrated;
            if ENGINES[i].0 == "sim.partitioned" && (moved > 0 || mig.whole_tasks > 0) {
                out.fail_check(format!("partitioned migrated {moved} subtasks"));
            }
            if ENGINES[i].0 == "sim.rtopex" {
                migrated_frac = moved as f64 / (mig.fft_total + mig.decode_total).max(1) as f64;
            }
        }
        if missed[0] > missed[1] {
            out.fail_check(format!(
                "RT-OPEX missed {} > partitioned {} on identical inputs",
                missed[0], missed[1]
            ));
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let cpu = (process_cpu() - cpu0).as_secs_f64();
    let simulated = ops * per_op;

    out.attempted = ops;
    out.failed = 0;
    us_per_sf.sort_by(f64::total_cmp);
    out.set("sf_per_s", simulated as f64 / busy);
    out.set("proc_p50_us", quantile(&us_per_sf, 0.5));
    out.set("proc_p90_us", quantile(&us_per_sf, 0.9));
    out.set("cpu_us_per_sf", cpu * 1e6 / simulated as f64);
    out.set("setup_s", median(&setups));
    println!("sim_fleet: {ops} fleet runs of {per_op} subframes in {busy:.2} s");

    if tr.on() {
        for (name, metric) in [
            ("sim.rtopex", "sim.rtopex_sf_per_s"),
            ("sim.partitioned", "sim.partitioned_sf_per_s"),
            ("sim.global", "sim.global_sf_per_s"),
        ] {
            out.set(metric, per_op as f64 / (tr.mean_us(name) / 1e6));
        }
        out.set("sim.migrated_frac", migrated_frac);
    }
}

/// The base simulation configuration the fleet's RT-OPEX engine runs,
/// for the replay probes.
pub fn probe_config(seed: u64) -> rtopex_sim::SimConfig {
    configs(seed).swap_remove(0).base
}
