//! PHY inputs, the staged decoder the benchmark drives, and the
//! `phy_mix` workload.
//!
//! Inputs: 5 MHz subframes from 2 antennas at 30 dB AWGN. Each
//! subframe's MCS is drawn from the four tower load traces: every tower's
//! trace runs for [`TRACE_LEN`] subframes and the mix takes evenly spaced
//! quantiles of the MCS values it visited, so every seed sees the same
//! share of each load level and seeds differ in the trace path, the
//! order, the payload bytes and the channel noise.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, process_cpu};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex_phy::channel::{AwgnChannel, ChannelModel};
use rtopex_phy::params::Bandwidth;
use rtopex_phy::uplink::{DecodeBatchScratch, JobSlab, UplinkConfig, UplinkRx, UplinkTx};
use rtopex_phy::Cf32;
use rtopex_workload::mcs_map::MAX_MAPPED_MCS;
use rtopex_workload::{load_to_mcs, LoadTrace, TraceParams};
use std::time::Instant;

pub const BANDWIDTH: Bandwidth = Bandwidth::Mhz5;
pub const ANTENNAS: usize = 2;
pub const SNR_DB: f64 = 30.0;
/// Subframes each tower trace runs before the mix samples its quantiles.
const TRACE_LEN: usize = 20_000;
/// Subframes in one `phy_mix` round (32 per tower).
const MIX_ROUND: usize = 128;
/// Times the decoder set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// Deliberately corrupted subframes decoded per run (not operations).
const CORRUPTED: usize = 4;

/// One generated subframe: what was sent, and what the receiver sees.
pub struct PhySf {
    pub mcs: u8,
    pub payload: Vec<u8>,
    pub samples: Vec<Vec<Cf32>>,
}

/// `n` MCS values (a multiple of 4) following the four tower traces,
/// in seeded random order.
pub fn tower_mix(seed: u64, n: usize) -> Vec<u8> {
    let per_tower = n / 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7041_3E5D);
    let mut mix = Vec::with_capacity(n);
    for tower in 0..4 {
        let mut trace = LoadTrace::new(TraceParams::tower(tower));
        let mut visited: Vec<u8> = (0..TRACE_LEN)
            .map(|_| load_to_mcs(trace.next_load(&mut rng)).index())
            .collect();
        visited.sort_unstable();
        for q in 0..per_tower {
            let at = (2 * q + 1) * TRACE_LEN / (2 * per_tower);
            mix.push(visited[at]);
        }
    }
    for i in (1..mix.len()).rev() {
        let j = rng.gen_range(0..=i);
        mix.swap(i, j);
    }
    mix
}

/// Encodes one subframe per MCS in `mcs` with a random payload and
/// passes it through the AWGN channel.
pub fn generate(seed: u64, mcs: &[u8]) -> Vec<PhySf> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AD0_1E55);
    let mut txs: Vec<Option<UplinkTx>> = (0..=MAX_MAPPED_MCS).map(|_| None).collect();
    let mut chan = AwgnChannel::new(SNR_DB);
    mcs.iter()
        .map(|&m| {
            let tx = txs[m as usize].get_or_insert_with(|| {
                UplinkTx::new(UplinkConfig::new(BANDWIDTH, ANTENNAS, m).expect("valid MCS"))
            });
            let payload: Vec<u8> = (0..tx.config().transport_block_bytes())
                .map(|_| rng.gen())
                .collect();
            let sf = tx.encode_subframe(&payload).expect("encode");
            let samples = chan.apply(&sf.samples, ANTENNAS, &mut rng);
            PhySf {
                mcs: m,
                payload,
                samples,
            }
        })
        .collect()
}

/// The receiver: one `UplinkRx` per MCS plus the warmed slab and batch
/// scratch, driven through the staged call sequence a cluster worker
/// runs (FFT batches, channel estimate, demod subtasks, one batched
/// turbo decode, finish).
pub struct PhyRx {
    rxs: Vec<UplinkRx>,
    slab: JobSlab,
    scratch: DecodeBatchScratch,
}

/// What one staged decode returned.
pub struct Decoded {
    pub crc_ok: bool,
    pub iterations: usize,
    pub blocks: usize,
}

impl PhyRx {
    /// Builds an `UplinkRx` for every MCS the traces can reach and warms
    /// the slab, the batch scratch and this thread's PHY workspace for
    /// each.
    pub fn build() -> PhyRx {
        let rxs: Vec<UplinkRx> = (0..=MAX_MAPPED_MCS)
            .map(|m| UplinkRx::new(UplinkConfig::new(BANDWIDTH, ANTENNAS, m).expect("valid MCS")))
            .collect();
        let mut slab = JobSlab::new();
        let mut scratch = DecodeBatchScratch::new();
        for rx in &rxs {
            slab.warm(rx.config());
            scratch.warm(rx.config());
            rtopex_phy::workspace::with_thread_workspace(|ws| ws.warm(rx.config()));
        }
        PhyRx { rxs, slab, scratch }
    }

    /// Decodes `samples` as MCS `mcs`, recording one span per stage.
    pub fn decode(&mut self, mcs: u8, samples: &[Vec<Cf32>], tr: &mut Tracer, seq: u32) -> Decoded {
        let PhyRx { rxs, slab, scratch } = self;
        let rx = &rxs[mcs as usize];
        let t = tr.begin();
        let mut job = rx.start_job_in(samples, slab).expect("subframe geometry");
        for a in 0..samples.len() {
            job.run_fft_batch_local(a);
        }
        job.finish_fft();
        tr.end(t, "phy.fft", 0, seq);
        let t = tr.begin();
        for i in 0..job.demod_subtask_count() {
            job.run_demod_subtask_local(i);
        }
        tr.end(t, "phy.demod", 0, seq);
        let t = tr.begin();
        let blocks = job.decode_subtask_count();
        let mask = if blocks >= 64 {
            u64::MAX
        } else {
            (1u64 << blocks) - 1
        };
        job.run_decode_batch_local(mask, scratch);
        tr.end(t, "phy.decode", 0, seq);
        let t = tr.begin();
        let v = job.finish().expect("desegmentation");
        tr.end(t, "phy.finish", 0, seq);
        Decoded {
            crc_ok: v.crc_ok,
            iterations: v.total_iterations,
            blocks,
        }
    }

    /// The payload bytes of the last decode.
    pub fn payload(&self) -> &[u8] {
        self.slab.payload()
    }
}

/// Turbo iterations and code blocks summed over a run's decodes.
#[derive(Default)]
pub struct IterCount {
    pub iterations: u64,
    pub blocks: u64,
}

impl IterCount {
    pub fn add(&mut self, d: &Decoded) {
        self.iterations += d.iterations as u64;
        self.blocks += d.blocks as u64;
    }

    pub fn per_block(&self) -> f64 {
        self.iterations as f64 / self.blocks.max(1) as f64
    }
}

/// Decodes every subframe of `pool` once with stage spans and sets the
/// `phy.*` layer metrics. Used on the workloads that do not decode on
/// the benchmark's own thread.
pub fn probe(pool: &[PhySf], tr: &mut Tracer, out: &mut Outcome) {
    let mut rx = PhyRx::build();
    let mut iters = IterCount::default();
    for (i, sf) in pool.iter().enumerate() {
        let t = tr.begin();
        let d = rx.decode(sf.mcs, &sf.samples, tr, i as u32);
        tr.end(t, "phy.total", 0, i as u32);
        iters.add(&d);
    }
    set_layer_metrics(tr, &iters, out);
}

fn set_layer_metrics(tr: &Tracer, iters: &IterCount, out: &mut Outcome) {
    out.set("phy.fft_us", tr.mean_us("phy.fft"));
    out.set("phy.demod_us", tr.mean_us("phy.demod"));
    out.set("phy.decode_us", tr.mean_us("phy.decode"));
    out.set("phy.finish_us", tr.mean_us("phy.finish"));
    out.set("phy.total_us", tr.mean_us("phy.total"));
    out.set("phy.turbo_iters_per_block", iters.per_block());
}

/// Replaces every sample with noise of the same power, so no code block
/// can pass its CRC except by a 2^-24 accident.
fn corrupt(sf: &PhySf, rng: &mut StdRng) -> Vec<Vec<Cf32>> {
    sf.samples
        .iter()
        .map(|ant| {
            ant.iter()
                .map(|_| rtopex_phy::channel::complex_gaussian(rng))
                .collect()
        })
        .collect()
}

/// `phy_mix`: a closed loop on one thread decoding whole rounds of the
/// tower mix until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let pool = generate(seed, &tower_mix(seed, MIX_ROUND));

    // Each set-up starts from nothing: the previous receiver is dropped
    // first, so every repeat pays the same allocation cost.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rx = None;
    for _ in 0..SETUP_REPS {
        drop(rx.take());
        let t = Instant::now();
        let built = PhyRx::build();
        setups.push(t.elapsed().as_secs_f64());
        rx = Some(built);
    }
    let mut rx = rx.expect("at least one set-up");

    // One untimed round warms the decoder and gives the rate from which a
    // traced run reserves its span buffer: five spans per subframe, for
    // twice the subframes that rate predicts plus the last whole round.
    let mut off = Tracer::new(false, Instant::now());
    let t = Instant::now();
    for sf in &pool {
        rx.decode(sf.mcs, &sf.samples, &mut off, 0);
    }
    let rounds = seconds / t.elapsed().as_secs_f64().max(1e-6);
    tr.reserve(5 * pool.len() * (2.0 * rounds + 1.0).ceil() as usize);

    let mut proc_us: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut iters = IterCount::default();
    let mut nacked = 0u64;
    let mut mismatched = 0u64;
    let mut seq = 0u32;
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    loop {
        for sf in &pool {
            let t = Instant::now();
            let d = rx.decode(sf.mcs, &sf.samples, tr, seq);
            let dt = t.elapsed();
            if tr.on() {
                tr.record("phy.total", 0, seq, t, t + dt);
            }
            proc_us.push(dt.as_secs_f64() * 1e6);
            iters.add(&d);
            if !d.crc_ok {
                nacked += 1;
            } else if rx.payload() != sf.payload.as_slice() {
                mismatched += 1;
            }
            seq = seq.wrapping_add(1);
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu0).as_secs_f64();

    // The CRC must reject what the channel destroyed: decode a few
    // subframes whose samples were replaced by noise.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD5);
    let mut accepted_garbage = 0;
    for sf in pool.iter().take(CORRUPTED) {
        let noise = corrupt(sf, &mut rng);
        if rx.decode(sf.mcs, &noise, &mut off, 0).crc_ok {
            accepted_garbage += 1;
        }
    }
    if accepted_garbage > 0 {
        out.fail_check(format!(
            "{accepted_garbage} of {CORRUPTED} noise-only subframes passed CRC"
        ));
    }

    if mismatched > 0 {
        out.fail_check(format!(
            "{mismatched} subframes passed CRC with a wrong payload"
        ));
    }

    let n = proc_us.len();
    out.attempted = n as u64;
    out.failed = nacked;
    proc_us.sort_by(f64::total_cmp);
    out.set("sf_per_s", n as f64 / wall);
    out.set("proc_p50_us", crate::util::quantile(&proc_us, 0.5));
    out.set("proc_p90_us", crate::util::quantile(&proc_us, 0.9));
    out.set("cpu_us_per_sf", cpu * 1e6 / n as f64);
    out.set("setup_s", median(&setups));
    println!(
        "phy_mix: {n} subframes in {wall:.2} s ({} per round), {nacked} failed CRC",
        pool.len()
    );
    if tr.on() {
        set_layer_metrics(tr, &iters, out);
    }
}
