//! The cell workloads: one live cell fed over loopback through
//! `CranCluster::run_fed`, open loop at one subframe per [`PERIOD`].
//!
//! A run is [`ROUNDS`] sessions. Each session binds a receiver, connects
//! the benchmark's sender to it, and calls `run_fed` on a tap receiver
//! that wraps the real one. The tap's first `recv_into` ends the set-up
//! time and releases the sender, which then sends the same subframes
//! every session, spacing each send [`PERIOD`] after the previous one and
//! never catching up after a stall.

use crate::phy::{self, PhySf};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, process_cpu, quantile};
use rtopex_runtime::{ClusterConfig, CranCluster, FedReport, SchedulerMode};
use rtopex_transport::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};
use rtopex_transport_net::{TcpFronthaulTx, TcpRxPending, UdpFronthaulTx, UdpRxPending};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wire id of the one cell.
pub const CELL_ID: u16 = 0;
/// Send spacing. With `rtt_half` 0 the Eq. 3 budget is two periods,
/// 100 ms: a subframe then survives the host's longest observed thread
/// freeze (90 ms). At 20 ms, 3 of 56 partitioned runs of 1,000
/// subframes each missed one deadline.
pub const PERIOD: Duration = Duration::from_millis(50);
/// Sessions per run; `setup_s` is their median.
const ROUNDS: usize = 5;
/// How long the sender waits for the receiver to come up.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// Ready-queue depth of the transport receiver.
const QUEUE_DEPTH: usize = 16;

/// Which contender a cell workload runs.
pub struct CellSpec {
    pub mode: SchedulerMode,
    pub udp: bool,
}

fn cluster_config(mode: SchedulerMode, subframes: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        bandwidth: phy::BANDWIDTH,
        num_antennas: phy::ANTENNAS,
        num_cells: 1,
        subframes,
        period: PERIOD,
        rtt_half: Duration::ZERO,
        mode,
        snr_db: phy::SNR_DB,
        mcs_pool: (0..=rtopex_workload::mcs_map::MAX_MAPPED_MCS).collect(),
        delta_us: 60.0,
        seed,
        batch_decode: true,
    }
}

/// Worker threads a cell workload spawns (two cores per cell).
pub fn worker_threads() -> usize {
    cluster_config(SchedulerMode::Partitioned, 1, 0).total_cores()
}

/// Wraps the real receiver: its first `recv_into` marks the end of
/// `run_fed`'s set-up and releases the sender.
struct Tap {
    inner: Box<dyn FronthaulRx>,
    called: Instant,
    setup: Option<Duration>,
    release: Option<mpsc::Sender<()>>,
    tr: Tracer,
}

impl FronthaulRx for Tap {
    fn params(&self) -> &StreamParams {
        self.inner.params()
    }

    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError> {
        if let Some(release) = self.release.take() {
            self.setup = Some(self.called.elapsed());
            let _ = release.send(());
        }
        let t = self.tr.begin();
        let r = self.inner.recv_into(buf, timeout);
        if matches!(r, Ok(Recv::Subframe)) {
            self.tr.end(t, "rx.recv_into", buf.cell, buf.seq);
        }
        r
    }

    fn stats(&self) -> RxStats {
        self.inner.stats()
    }
}

/// What the sender thread reports back from one session.
struct Sent {
    count: usize,
    cpu_at_first: Duration,
    slip: Duration,
    tr: Tracer,
}

fn connect(
    udp: bool,
    addr: std::net::SocketAddr,
    params: StreamParams,
) -> Result<Box<dyn FronthaulTx>, TransportError> {
    Ok(if udp {
        Box::new(UdpFronthaulTx::connect(addr, params)?)
    } else {
        Box::new(TcpFronthaulTx::connect(addr, params)?)
    })
}

/// The paced sender: waits for the release, then sends `pool` in order.
fn send_session(
    udp: bool,
    addr: std::net::SocketAddr,
    params: StreamParams,
    pool: &[PhySf],
    released: mpsc::Receiver<()>,
    mut tr: Tracer,
) -> Result<Sent, String> {
    let mut tx = connect(udp, addr, params).map_err(|e| format!("sender connect: {e}"))?;
    released
        .recv_timeout(CONNECT_TIMEOUT)
        .map_err(|_| "receiver never asked for a subframe".to_string())?;
    let cpu_at_first = process_cpu();
    let first = Instant::now();
    let mut last = first;
    for (k, sf) in pool.iter().enumerate() {
        if k > 0 {
            let due = last + PERIOD;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            last = Instant::now();
        }
        let seq = k as u32;
        tr.span("tx.send", CELL_ID, seq, || {
            tx.send(CELL_ID, seq, sf.mcs, &sf.samples)
        })
        .map_err(|e| format!("send: {e}"))?;
        tr.span("tx.flush", CELL_ID, seq, || tx.flush())
            .map_err(|e| format!("flush: {e}"))?;
    }
    tx.finish().map_err(|e| format!("finish: {e}"))?;
    let grid = PERIOD * (pool.len().saturating_sub(1)) as u32;
    Ok(Sent {
        count: pool.len(),
        cpu_at_first,
        slip: last.saturating_duration_since(first + grid),
        tr,
    })
}

/// One session: bind, connect, `run_fed` through the tap.
fn session(
    spec: &CellSpec,
    cfg: &ClusterConfig,
    pool: &[PhySf],
    tr: &mut Tracer,
) -> Result<(FedReport, Sent, Duration, Duration), String> {
    let params = crate::probes::stream_params(
        pool.len(),
        PERIOD.as_micros() as u32,
        cfg.budget().as_micros() as u32,
    );
    let cluster = CranCluster::new(cfg.clone());
    let (release_tx, release_rx) = mpsc::channel();
    let traced = tr.on();
    let base = Instant::now();
    std::thread::scope(|s| {
        let (rx, addr): (Box<dyn FronthaulRx>, _);
        let sender;
        if spec.udp {
            let pending = UdpRxPending::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            addr = pending.local_addr().map_err(|e| e.to_string())?;
            let p = params.clone();
            sender = s.spawn(move || {
                send_session(true, addr, p, pool, release_rx, Tracer::new(traced, base))
            });
            rx = Box::new(
                pending
                    .accept(CONNECT_TIMEOUT, QUEUE_DEPTH)
                    .map_err(|e| e.to_string())?,
            );
        } else {
            let pending = TcpRxPending::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            addr = pending.local_addr().map_err(|e| e.to_string())?;
            let p = params.clone();
            sender = s.spawn(move || {
                send_session(false, addr, p, pool, release_rx, Tracer::new(traced, base))
            });
            rx = Box::new(
                pending
                    .accept(CONNECT_TIMEOUT, QUEUE_DEPTH)
                    .map_err(|e| e.to_string())?,
            );
        }
        let mut tap = Tap {
            inner: rx,
            called: Instant::now(),
            setup: None,
            release: Some(release_tx),
            tr: Tracer::new(traced, base),
        };
        let fed = cluster.run_fed(&mut tap);
        let cpu_end = process_cpu();
        let sent = sender.join().map_err(|_| "sender panicked".to_string())??;
        let setup = tap.setup.ok_or("run_fed never received")?;
        tr.absorb(tap.tr);
        Ok((fed, sent, setup, cpu_end))
    })
}

/// Runs a cell workload for `seconds` of sending.
pub fn run(
    spec: &CellSpec,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // Whole rounds: every session sends the same subframes, a multiple
    // of four so the tower mix stays balanced.
    let per_round = ((seconds / ROUNDS as f64 / PERIOD.as_secs_f64()) as usize / 4).max(1) * 4;
    let pool = phy::generate(seed, &phy::tower_mix(seed, per_round));
    let cfg = cluster_config(spec.mode, per_round, seed);

    let mut proc_us: Vec<f64> = Vec::new();
    let mut setups = Vec::with_capacity(ROUNDS);
    let (mut cpu, mut elapsed) = (Duration::ZERO, Duration::ZERO);
    let (mut completed, mut ok, mut sent_total) = (0u64, 0u64, 0u64);
    let mut slip = Duration::ZERO;
    let (mut steals, mut declined, mut dec_mig, mut dec_total) = (0u64, 0u64, 0u64, 0u64);
    let (mut missed, mut dropped, mut shed, mut crc) = (0u64, 0u64, 0u64, 0u64);
    let mut rx = RxStats::default();
    for round in 0..ROUNDS {
        let (fed, sent, setup, cpu_end) = session(spec, &cfg, &pool, tr)?;
        let c = &fed.cluster;
        let done = c.proc_us.len() as u64;
        let miss = c.deadline.overall().missed;
        // Every delivered subframe ends in one accounted outcome.
        if fed.rx.delivered != done + c.dropped {
            out.fail_check(format!(
                "round {round}: {} delivered but {done} completed + {} dropped",
                fed.rx.delivered, c.dropped
            ));
        }
        if c.crc_failures > 0 || fed.rx.stale > 0 || fed.rx.bad_frames > 0 {
            out.fail_check(format!(
                "round {round}: {} CRC failures, {} stale and {} bad frames on clean input",
                c.crc_failures, fed.rx.stale, fed.rx.bad_frames
            ));
        }
        ok += done.saturating_sub(c.crc_failures + miss.saturating_sub(c.dropped));
        completed += done;
        sent_total += sent.count as u64;
        proc_us.extend_from_slice(c.proc_us.as_slice());
        setups.push(setup.as_secs_f64());
        cpu += cpu_end.saturating_sub(sent.cpu_at_first);
        elapsed += c.elapsed;
        slip += sent.slip;
        steals += c.steals;
        declined += c.declined_steals;
        dec_mig += c.migration.decode_migrated;
        dec_total += c.migration.decode_total;
        missed += miss;
        dropped += c.dropped;
        shed += fed.shed;
        crc += c.crc_failures;
        rx.delivered += fed.rx.delivered;
        rx.gaps += fed.rx.gaps;
        rx.stale += fed.rx.stale;
        rx.drops += fed.rx.drops;
        rx.bad_frames += fed.rx.bad_frames;
        tr.absorb(sent.tr);
    }

    // A capacity claim must show that its mechanism ran.
    match spec.mode {
        SchedulerMode::RtOpexSteal if steals == 0 => {
            out.fail_check("steal mode ran with zero steals".into());
        }
        SchedulerMode::Partitioned if steals > 0 => {
            out.fail_check(format!("partitioned mode stole {steals} subtasks"));
        }
        _ => {}
    }

    out.attempted = sent_total;
    out.failed = sent_total - ok.min(sent_total);
    proc_us.sort_by(f64::total_cmp);
    out.set("sf_per_s", completed as f64 / elapsed.as_secs_f64());
    out.set("proc_p50_us", quantile(&proc_us, 0.5));
    out.set("proc_p90_us", quantile(&proc_us, 0.9));
    out.set(
        "cpu_us_per_sf",
        cpu.as_secs_f64() * 1e6 / completed.max(1) as f64,
    );
    out.set("setup_s", median(&setups));
    println!(
        "{}: {sent_total} sent, {} delivered, {completed} completed, {missed} missed, {shed} shed, {} gaps, {steals} steals",
        spec.mode.name(),
        rx.delivered,
        rx.gaps
    );

    if tr.on() {
        let sf = completed.max(1) as f64;
        out.set("tx.send_us", tr.mean_us("tx.send"));
        out.set("tx.flush_us", tr.mean_us("tx.flush"));
        out.set("rx.delivered", rx.delivered as f64);
        out.set("rx.gaps", rx.gaps as f64);
        out.set("rx.stale", rx.stale as f64);
        out.set("rx.drops", rx.drops as f64);
        out.set("rx.bad_frames", rx.bad_frames as f64);
        out.set("cluster.steals_per_sf", steals as f64 / sf);
        out.set("cluster.declined_per_sf", declined as f64 / sf);
        out.set(
            "cluster.decode_migrated_frac",
            dec_mig as f64 / dec_total.max(1) as f64,
        );
        out.set("cluster.missed", missed as f64);
        out.set("cluster.dropped", dropped as f64);
        out.set("cluster.shed", shed as f64);
        out.set("cluster.crc_failures", crc as f64);
        out.set("gen.slip_ms", slip.as_secs_f64() * 1e3 / ROUNDS as f64);
        phy::probe(&pool, tr, out);
        if !crate::probes::wire(&pool, pool.len(), tr, out) {
            out.fail_check("wire replay lost a subframe".into());
        }
    }
    Ok(())
}
