//! Replay probes for the traced run: each times public calls of one
//! layer on inputs the benchmark builds, so every traced run reports
//! these layers whatever its workload drives.

use crate::phy::PhySf;
use crate::report::Outcome;
use crate::trace::Tracer;
use rtopex_core::steal::{steal_pair, Steal};
use rtopex_core::time::Nanos;
use rtopex_sim::event::EventKind;
use rtopex_sim::gen::TaskStream;
use rtopex_sim::wheel::TimingWheel;
use rtopex_sim::SimConfig;
use rtopex_transport::{StreamParams, SubframeBuf};
use rtopex_transport_net::ring::Pop;
use rtopex_transport_net::session::ASM_SLOTS;
use rtopex_transport_net::{wire, RxSession, SwapQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream geometry of one cell carrying `pool`-shaped subframes.
pub fn stream_params(subframes: usize, period_us: u32, budget_us: u32) -> StreamParams {
    StreamParams {
        samples_per_subframe: crate::phy::BANDWIDTH.samples_per_subframe() as u32,
        antennas: crate::phy::ANTENNAS as u8,
        cells: vec![crate::cell::CELL_ID],
        period_us,
        budget_us,
        mcs_pool: (0..=rtopex_workload::mcs_map::MAX_MAPPED_MCS).collect(),
        subframes: subframes as u32,
    }
}

/// Replays `n` subframes of `pool` through the wire codec and the
/// receive session: `wire::write_iq_frame` for every fragment
/// (`net.frame`), then `RxSession::ingest_frame` for every fragment and
/// `SwapQueue::pop_swap` for the assembled subframe (`net.ingest`).
/// Returns false if a subframe failed to come back whole.
pub fn wire(pool: &[PhySf], n: usize, tr: &mut Tracer, out: &mut Outcome) -> bool {
    let params = stream_params(n, 1_000, 2_000);
    let depth = 4;
    let queue = Arc::new(SwapQueue::new(&params, depth + ASM_SLOTS + 1, depth));
    let mut session = RxSession::new(params.clone(), Arc::clone(&queue));
    let per_ant = params.samples_per_subframe as usize;
    let frags = wire::fragments_for(per_ant);
    let mut frames = vec![0u8; crate::phy::ANTENNAS * frags * wire::MAX_IQ_FRAME];
    let mut lens = Vec::with_capacity(crate::phy::ANTENNAS * frags);
    let mut got = SubframeBuf::for_stream(&params);
    let mut bytes = 0usize;
    let mut whole = true;
    for k in 0..n {
        let sf = &pool[k % pool.len()];
        let seq = k as u32;
        lens.clear();
        let t = tr.begin();
        let mut off = 0;
        for (ant, s) in sf.samples.iter().enumerate() {
            for (frag, chunk) in s.chunks(wire::SAMPLES_PER_FRAG).enumerate() {
                let len = wire::write_iq_frame(
                    &mut frames[off..],
                    sf.mcs,
                    crate::cell::CELL_ID,
                    ant as u8,
                    frag as u8,
                    frags as u16,
                    seq,
                    chunk,
                );
                lens.push(len);
                off += wire::MAX_IQ_FRAME;
            }
        }
        tr.end(t, "net.frame", crate::cell::CELL_ID, seq);
        bytes += lens.iter().sum::<usize>();
        let t = tr.begin();
        for (i, &len) in lens.iter().enumerate() {
            let at = i * wire::MAX_IQ_FRAME;
            session.ingest_frame(&frames[at..at + len]);
        }
        let popped = queue.pop_swap(&mut got, Duration::ZERO);
        tr.end(t, "net.ingest", crate::cell::CELL_ID, seq);
        whole &= matches!(popped, Pop::Got) && got.seq == seq && got.mcs == sf.mcs;
    }
    out.set("net.frame_us", tr.mean_us("net.frame"));
    out.set("net.ingest_us", tr.mean_us("net.ingest"));
    out.set("tx.wire_bytes_per_sf", bytes as f64 / n.max(1) as f64);
    whole
}

/// Hands `n` tickets from a deque's owner to a thief on another thread,
/// one at a time, and records each push → steal latency
/// (`core.steal_handoff`).
pub fn steal(n: usize, tr: &mut Tracer, out: &mut Outcome) {
    let (mut owner, thief) = steal_pair(64);
    let base = Instant::now();
    let pushed_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let taken = AtomicU64::new(0);
    let thief_tr = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut ttr = Tracer::new(true, base);
            let mut spins = 0u32;
            while (taken.load(Ordering::Relaxed) as usize) < n {
                match thief.steal() {
                    Steal::Taken(i) => {
                        let now = Instant::now();
                        let at = base
                            + Duration::from_nanos(pushed_ns[i as usize].load(Ordering::Acquire));
                        ttr.record("core.steal_handoff", 0, i as u32, at, now);
                        taken.fetch_add(1, Ordering::Release);
                    }
                    Steal::Empty | Steal::Retry => {
                        spins += 1;
                        if spins.is_multiple_of(64) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            ttr
        });
        for (i, stamp) in pushed_ns.iter().enumerate() {
            stamp.store(base.elapsed().as_nanos() as u64, Ordering::Release);
            owner.push(i as u64).expect("deque has room");
            while (taken.load(Ordering::Acquire) as usize) <= i {
                std::thread::yield_now();
            }
        }
        h.join().expect("thief thread")
    });
    if tr.on() {
        tr.absorb(thief_tr);
    }
    let lat: Vec<f64> = tr
        .spans()
        .filter(|s| s.name == "core.steal_handoff")
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    out.set("core.steal_handoff_us", crate::util::median(&lat));
}

/// Times `TaskStream::next_task` over every cell of `cfg`
/// (`sim.gen`) and `TimingWheel::push`/`pop` over the same release
/// schedule, one millisecond window at a time (`sim.wheel`).
pub fn sim(cfg: &SimConfig, tr: &mut Tracer, out: &mut Outcome) {
    let mut tasks = 0u64;
    for bs in 0..cfg.num_bs {
        let mut stream = TaskStream::new(cfg, bs);
        let t = tr.begin();
        while let Some(task) = stream.next_task() {
            std::hint::black_box(task);
            tasks += 1;
        }
        tr.end(t, "sim.gen", bs as u16, 0);
    }
    out.set(
        "sim.gen_ns_per_task",
        tr.total_s("sim.gen") * 1e9 / tasks.max(1) as f64,
    );

    let mut wheel = TimingWheel::new();
    let mut events = 0u64;
    for j in 0..cfg.subframes as u64 {
        let t = tr.begin();
        for bs in 0..cfg.num_bs {
            let release = Nanos::from_us(j * 1_000 + bs as u64 * 10);
            wheel.push(release, EventKind::Release { bs, index: j });
            wheel.push(Nanos(release.0 + 600_000), EventKind::TaskDone { core: bs });
        }
        // Pop this window's releases and the completions that came due.
        while wheel
            .peek_time()
            .is_some_and(|at| at.0 < (j + 1) * 1_000_000)
        {
            std::hint::black_box(wheel.pop());
            events += 1;
        }
        tr.end(t, "sim.wheel", 0, j as u32);
    }
    let t = tr.begin();
    while let Some(e) = wheel.pop() {
        std::hint::black_box(e);
        events += 1;
    }
    tr.end(t, "sim.wheel", 0, cfg.subframes as u32);
    out.set(
        "sim.wheel_ns_per_event",
        tr.total_s("sim.wheel") * 1e9 / events.max(1) as f64,
    );
}
