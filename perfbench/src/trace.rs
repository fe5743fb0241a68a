//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public API, named
//! `layer.call` and keyed by the `(cell, seq)` of the subframe it served.
//! Each thread records into its own [`Tracer`]; the buffers are merged
//! after the run and written out once at exit. With tracing off a
//! [`Tracer`] records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub cell: u16,
    pub seq: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A per-thread span buffer sharing the run's time base.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer recording only when `on`; `base` is the run's time zero.
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer {
            on,
            base,
            // Enough for the cell and fleet workloads; `phy_mix` records
            // more and calls [`Tracer::reserve`] before its timed loop.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Makes room for `spans` more spans when recording, so a timed loop
    /// that records at most that many never grows the buffer.
    pub fn reserve(&mut self, spans: usize) {
        if self.on {
            self.spans.reserve(spans);
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording it as span `name` for `(cell, seq)` when on.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, cell: u16, seq: u32, f: impl FnOnce() -> R) -> R {
        let t0 = self.begin();
        let r = f();
        self.end(t0, name, cell, seq);
        r
    }

    /// Start of a span: the current instant when recording, else `None`.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Ends a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, t0: Option<Instant>, name: &'static str, cell: u16, seq: u32) {
        if let Some(t0) = t0 {
            self.record(name, cell, seq, t0, Instant::now());
        }
    }

    /// Records a span whose ends were timed elsewhere.
    pub fn record(&mut self, name: &'static str, cell: u16, seq: u32, t0: Instant, t1: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            cell,
            seq,
            start_ns: t0.saturating_duration_since(self.base).as_nanos() as u64,
            dur_ns: t1.saturating_duration_since(t0).as_nanos() as u64,
        });
    }

    /// Moves another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Mean span duration of `name`, µs (0 when never recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.dur_ns));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Total duration of every `name` span, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes every span as tab-separated text (one header line naming
    /// the machine, then `name cell seq start_ns dur_ns`) and returns the
    /// path written. Also prints a per-name summary.
    pub fn write_out(
        &self,
        workload: &str,
        seed: u64,
        fingerprint: &str,
    ) -> std::io::Result<String> {
        let dir = ".bench_out";
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/spans-{workload}-seed{seed}.tsv");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "# {fingerprint}")?;
        writeln!(out, "name\tcell\tseq\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.cell, s.seq, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()?;
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        for (name, (n, sum)) in by_name {
            println!(
                "span {name:<24} n={n:<8} mean_us={:.3}",
                sum as f64 / n as f64 / 1e3
            );
        }
        Ok(path)
    }
}
