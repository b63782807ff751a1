//! Outside-in tracing of the serving path.
//!
//! Nothing here adds a span inside the program. The traced run swaps in
//! three stand-ins through the library's public extension points and
//! times the calls that cross them:
//!
//! * [`TimedMechanism`] — one per built-in query kind, registered with
//!   `ServingLoop::register_mechanism`; it delegates to the standard
//!   registry's handler and times `admit` and `execute`.
//! * [`TimedWal`] — a `WalStorage` over a `MemoryWal`; it times and
//!   counts every `append` and `flush` the engine makes.
//! * [`SpanRecorder`] — a `Recorder` whose `enabled()` is false, so the
//!   engine takes its untraced branches, but which sums the two wall
//!   spans the program already emits (`engine.batch.wall`,
//!   `serve.tick.wall`).

use dplearn::engine::dataset::Dataset;
use dplearn::engine::request::{QueryKind, QueryValue};
use dplearn::engine::wal::{MemoryWal, WalResult, WalStorage};
use dplearn::engine::{MechanismRegistry, QueryMechanism};
use dplearn::mechanisms::privacy::Budget;
use dplearn::numerics::rng::Rng;
use dplearn::telemetry::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry names of the seven built-in query kinds, in the order the
/// per-kind layer metrics are reported.
pub const KINDS: [&str; 7] = [
    "laplace_count",
    "laplace_sum",
    "select_bin",
    "noisy_max_bin",
    "svt_run",
    "gibbs_quantile",
    "continual_count",
];

/// The wrappers' clock. They run several times per request, so they
/// read the x86-64 time-stamp counter, which costs about 20 ns against
/// about 55 ns for `Instant::now` on a 2-vCPU Xeon VM; other targets
/// fall back to `Instant`.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter. It has no
    // memory-safety preconditions and every x86-64 CPU implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    nanos_since(*ORIGIN.get_or_init(Instant::now))
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    let start = Instant::now();
    let t0 = ticks();
    while start.elapsed() < Duration::from_millis(20) {}
    let t1 = ticks();
    start.elapsed().as_nanos() as f64 / (t1 - t0).max(1) as f64
}

/// Tick and event accumulators for every traced layer. Relaxed
/// atomics: each value is an independent statistic read after the
/// traced section ends.
pub struct Layers {
    ns_per_tick: f64,
    admit: AtomicU64,
    exec: [AtomicU64; 7],
    exec_calls: [AtomicU64; 7],
    wal: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    wal_flushes: AtomicU64,
    batch_span: AtomicU64,
    tick_span: AtomicU64,
}

/// A plain copy of [`Layers`] at one instant; differences of two
/// snapshots give the work done in between.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub admit_ns: u64,
    pub exec_ns: [u64; 7],
    pub exec_calls: [u64; 7],
    pub wal_ns: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_flushes: u64,
    pub batch_span_ns: u64,
    pub tick_span_ns: u64,
}

fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

fn add(a: &AtomicU64, v: u64) {
    a.fetch_add(v, Ordering::Relaxed);
}

#[cfg(not(target_arch = "x86_64"))]
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            ns_per_tick: ns_per_tick(),
            admit: AtomicU64::default(),
            exec: Default::default(),
            exec_calls: Default::default(),
            wal: AtomicU64::default(),
            wal_appends: AtomicU64::default(),
            wal_bytes: AtomicU64::default(),
            wal_flushes: AtomicU64::default(),
            batch_span: AtomicU64::default(),
            tick_span: AtomicU64::default(),
        }
    }

    /// Current totals, with times converted from ticks to nanoseconds.
    pub fn totals(&self) -> LayerTotals {
        let ns = |a: &AtomicU64| (load(a) as f64 * self.ns_per_tick) as u64;
        LayerTotals {
            admit_ns: ns(&self.admit),
            exec_ns: std::array::from_fn(|k| ns(&self.exec[k])),
            exec_calls: std::array::from_fn(|k| load(&self.exec_calls[k])),
            wal_ns: ns(&self.wal),
            wal_appends: load(&self.wal_appends),
            wal_bytes: load(&self.wal_bytes),
            wal_flushes: load(&self.wal_flushes),
            batch_span_ns: ns(&self.batch_span),
            tick_span_ns: ns(&self.tick_span),
        }
    }
}

impl LayerTotals {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &LayerTotals) -> LayerTotals {
        LayerTotals {
            admit_ns: self.admit_ns - earlier.admit_ns,
            exec_ns: std::array::from_fn(|k| self.exec_ns[k] - earlier.exec_ns[k]),
            exec_calls: std::array::from_fn(|k| self.exec_calls[k] - earlier.exec_calls[k]),
            wal_ns: self.wal_ns - earlier.wal_ns,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_flushes: self.wal_flushes - earlier.wal_flushes,
            batch_span_ns: self.batch_span_ns - earlier.batch_span_ns,
            tick_span_ns: self.tick_span_ns - earlier.tick_span_ns,
        }
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &LayerTotals) -> LayerTotals {
        LayerTotals {
            admit_ns: self.admit_ns + other.admit_ns,
            exec_ns: std::array::from_fn(|k| self.exec_ns[k] + other.exec_ns[k]),
            exec_calls: std::array::from_fn(|k| self.exec_calls[k] + other.exec_calls[k]),
            wal_ns: self.wal_ns + other.wal_ns,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            wal_flushes: self.wal_flushes + other.wal_flushes,
            batch_span_ns: self.batch_span_ns + other.batch_span_ns,
            tick_span_ns: self.tick_span_ns + other.tick_span_ns,
        }
    }
}

/// Times one built-in mechanism by delegating to the standard handler
/// registered under the same name.
pub struct TimedMechanism {
    inner: Arc<dyn QueryMechanism>,
    slot: usize,
    layers: Arc<Layers>,
}

impl TimedMechanism {
    /// One wrapper per entry of [`KINDS`].
    pub fn all(layers: &Arc<Layers>) -> Vec<Arc<dyn QueryMechanism>> {
        let standard = MechanismRegistry::standard();
        KINDS
            .iter()
            .enumerate()
            .map(|(slot, name)| {
                let inner = standard
                    .get(name)
                    .expect("every built-in kind is in the standard registry");
                Arc::new(TimedMechanism {
                    inner,
                    slot,
                    layers: Arc::clone(layers),
                }) as Arc<dyn QueryMechanism>
            })
            .collect()
    }
}

impl QueryMechanism for TimedMechanism {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&self, kind: &QueryKind, dataset: &Dataset) -> dplearn::engine::Result<Budget> {
        let start = ticks();
        let out = self.inner.admit(kind, dataset);
        add(&self.layers.admit, ticks() - start);
        out
    }

    fn execute(
        &self,
        kind: &QueryKind,
        dataset: &Dataset,
        rng: &mut dyn Rng,
    ) -> dplearn::engine::Result<QueryValue> {
        let start = ticks();
        let out = self.inner.execute(kind, dataset, rng);
        add(&self.layers.exec[self.slot], ticks() - start);
        add(&self.layers.exec_calls[self.slot], 1);
        out
    }
}

/// Times and counts the storage calls the engine makes on its log.
pub struct TimedWal {
    inner: MemoryWal,
    layers: Arc<Layers>,
}

impl TimedWal {
    pub fn new(inner: MemoryWal, layers: &Arc<Layers>) -> Self {
        TimedWal {
            inner,
            layers: Arc::clone(layers),
        }
    }
}

impl WalStorage for TimedWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        let start = ticks();
        let out = self.inner.append(frame);
        add(&self.layers.wal, ticks() - start);
        add(&self.layers.wal_appends, 1);
        add(&self.layers.wal_bytes, frame.len() as u64);
        out
    }

    fn flush(&mut self) -> WalResult<()> {
        let start = ticks();
        let out = self.inner.flush();
        add(&self.layers.wal, ticks() - start);
        add(&self.layers.wal_flushes, 1);
        out
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        self.inner.snapshot()
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        self.inner.truncate(len)
    }
}

/// Collects the program's own wall spans without turning on any other
/// telemetry: `enabled()` stays false and every counter, gauge and
/// histogram call is the trait's no-op default.
pub struct SpanRecorder {
    layers: Arc<Layers>,
}

impl SpanRecorder {
    pub fn new(layers: &Arc<Layers>) -> Self {
        SpanRecorder {
            layers: Arc::clone(layers),
        }
    }
}

impl Recorder for SpanRecorder {
    fn span_begin(&self) -> u64 {
        ticks()
    }

    fn span_end(&self, name: &'static str, _label: &str, begin: u64) {
        let elapsed = ticks().saturating_sub(begin);
        match name {
            "engine.batch.wall" => add(&self.layers.batch_span, elapsed),
            "serve.tick.wall" => add(&self.layers.tick_span, elapsed),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn::telemetry::SpanTimer;

    #[test]
    fn span_recorder_sums_only_the_two_wall_spans() {
        let layers = Arc::new(Layers::new());
        let rec = SpanRecorder::new(&layers);
        assert!(!rec.enabled());
        {
            let _a = SpanTimer::new(&rec, "engine.batch.wall", "");
            let _b = SpanTimer::new(&rec, "serve.tick.wall", "");
            let _c = SpanTimer::new(&rec, "other.span", "");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = layers.totals();
        assert!(t.batch_span_ns >= 2_000_000);
        assert!(t.tick_span_ns >= 2_000_000);
    }

    #[test]
    fn timed_wal_counts_appends_bytes_and_flushes_exactly() {
        let layers = Arc::new(Layers::new());
        let mem = MemoryWal::new();
        let mut wal = TimedWal::new(mem.handle(), &layers);
        wal.append(&[1, 2, 3]).unwrap();
        wal.append(&[4]).unwrap();
        wal.flush().unwrap();
        let t = layers.totals();
        assert_eq!((t.wal_appends, t.wal_bytes, t.wal_flushes), (2, 4, 1));
        assert_eq!(mem.bytes(), vec![1, 2, 3, 4]);
    }
}
