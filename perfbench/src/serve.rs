//! The two serving workloads: `serve_mixed` (query-heavy reads over all
//! seven built-in kinds) and `serve_ingest` (cheap Laplace queries
//! alongside per-tick appends, live continual counters and hosted SVT
//! sessions).
//!
//! A run is a sequence of identical *rounds*. Each round sets up a fresh
//! fleet (timed: `setup_s`), drives a fixed number of closed-loop ticks
//! from one client (timed: throughput and latency), then restarts the
//! fleet from the write-ahead-log images it wrote (timed: `fixed_job_s`)
//! and checks the result. Every round replays the same seed-derived
//! inputs, so per-round counts repeat exactly and the restart always
//! replays a log of the same size, however fast the program runs.

use crate::stats::{self, Percentiles};
use crate::trace::{LayerTotals, Layers, SpanRecorder, TimedMechanism, TimedWal, KINDS};
use crate::{Metric, RunResult};
use dplearn::engine::dataset::StatsMode;
use dplearn::engine::request::{NoisyMaxNoise, QueryKind, QueryRequest, SelectStrategy};
use dplearn::engine::wal::{scan_frames, FsyncPolicy, MemoryWal, WalStorage};
use dplearn::mechanisms::privacy::{Budget, Epsilon};
use dplearn::numerics::rng::{shuffle_in_place, Rng, Xoshiro256};
use dplearn::numerics::special::KahanSum;
use dplearn::numerics::stats::median;
use dplearn::telemetry::{MemoryRecorder, Recorder};
use dplearn_serve::{ServeConfig, ServingLoop, SessionHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mixed,
    Ingest,
}

// No record of real traffic exists in the repository (the serving bench
// sends LaplaceCount only), so the mix and sizes follow stated rules
// rather than a guessed profile; `README.md` gives the rules and the
// sources of the remaining constants.

/// Sizes of one round. Every field is fixed per workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub tenants: usize,
    pub records_per_tenant: usize,
    pub ticks_per_round: usize,
    pub requests_per_tick: usize,
    /// Kinds sent, the first this many of [`KINDS`], in equal shares.
    pub kinds: usize,
    /// `serve_ingest` only: per tick, this many append batches, and
    /// this many live continual counters and SVT sessions, each called
    /// once. One of each per shard.
    pub streams: usize,
}

impl Sizes {
    /// Records per append batch: a tick appends as many records as it
    /// sends queries.
    pub fn records_per_append(&self) -> usize {
        self.requests_per_tick / self.streams.max(1)
    }
}

impl Workload {
    pub fn sizes(self) -> Sizes {
        let common = Sizes {
            tenants: 64,
            records_per_tenant: 2048,
            ticks_per_round: 64,
            requests_per_tick: 512,
            kinds: KINDS.len(),
            streams: 0,
        };
        match self {
            Workload::Mixed => common,
            Workload::Ingest => Sizes {
                kinds: 2,
                streams: ServeConfig::default().shards,
                ..common
            },
        }
    }

    fn stats_mode(self) -> StatsMode {
        match self {
            Workload::Mixed => StatsMode::Exact,
            Workload::Ingest => StatsMode::Sketch {
                k: dplearn::numerics::sketch::DEFAULT_SKETCH_K,
            },
        }
    }
}

/// Every tenant's budget cap: far above what a round spends, so no
/// request is refused for budget.
const TENANT_CAP_EPSILON: f64 = 1.0e7;
/// E7's ε grid (`e7_channel_tradeoff`): every per-request ε is one of
/// these points.
const EPSILON_GRID: [f64; 8] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
/// Continual-counter ε (a point of the grid) and horizon, the horizon
/// of the streaming bench (steps = appends to the tenant).
const COUNTER_EPSILON: f64 = 0.5;
const COUNTER_HORIZON: u64 = 4096;
/// SVT session ε (a point of the grid) and a threshold no probe count
/// comes near, so every answer is `Below` and no session halts
/// mid-round.
const SVT_EPSILON: f64 = 0.5;
const SVT_THRESHOLD: f64 = 1.0e12;

/// The generated inputs of one round. The program sees only these.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInput {
    pub workload: Workload,
    /// Master seed of the fleet (mechanism noise).
    pub fleet_seed: u64,
    pub tenants: Vec<(String, Vec<f64>)>,
    pub ticks: Vec<TickInput>,
}

/// What the one client sends in one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickInput {
    /// Queries, each with the index of its tenant.
    pub requests: Vec<(usize, QueryRequest)>,
    /// Append batches: tenant index and records.
    pub appends: Vec<(usize, Vec<f64>)>,
    /// One SVT probe range per session.
    pub svt_probes: Vec<(f64, f64)>,
}

/// `n` slots over `kinds` kinds in equal shares (the first `n % kinds`
/// kinds get one more), in a seed-shuffled order. Every tick of every
/// seed has the same mix, so seeds vary the inputs, not the workload.
fn equal_mix(kinds: usize, n: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..n).map(|i| i % kinds).collect();
    shuffle_in_place(rng, &mut slots);
    slots
}

fn range(rng: &mut Xoshiro256) -> (f64, f64) {
    let a = rng.next_f64();
    let b = rng.next_f64();
    (a.min(b), a.max(b))
}

fn epsilon(rng: &mut Xoshiro256) -> f64 {
    EPSILON_GRID[rng.next_below(EPSILON_GRID.len() as u64) as usize]
}

/// A `serve_mixed` query of kind `slot`; `nth` counts earlier queries
/// of the kind in the tick and cycles the discrete parameters.
fn mixed_kind(slot: usize, nth: usize, rng: &mut Xoshiro256) -> QueryKind {
    const BINS: [usize; 3] = [16, 32, 64];
    let eps = epsilon(rng);
    match KINDS[slot] {
        "laplace_count" => {
            let (lo, hi) = range(rng);
            QueryKind::LaplaceCount {
                lo,
                hi,
                epsilon: eps,
            }
        }
        "laplace_sum" => QueryKind::LaplaceSum { epsilon: eps },
        "select_bin" => QueryKind::Select {
            bins: BINS[nth % 3],
            epsilon: eps,
            strategy: if nth % 2 == 0 {
                SelectStrategy::Exponential
            } else {
                SelectStrategy::PermuteAndFlip
            },
        },
        "noisy_max_bin" => QueryKind::NoisyMax {
            bins: BINS[nth % 3],
            epsilon: eps,
            noise: if nth % 2 == 0 {
                NoisyMaxNoise::Laplace
            } else {
                NoisyMaxNoise::Gumbel
            },
        },
        "svt_run" => QueryKind::SvtRun {
            threshold: SVT_THRESHOLD,
            epsilon: eps,
            probes: (0..4).map(|_| range(rng)).collect(),
        },
        "gibbs_quantile" => QueryKind::GibbsQuantile {
            quantile: 0.05 + 0.9 * rng.next_f64(),
            candidates: 64,
            epsilon: eps,
            draws: 1,
        },
        _ => QueryKind::ContinualCount {
            epsilon: eps,
            horizon: 16,
        },
    }
}

fn ingest_kind(slot: usize, rng: &mut Xoshiro256) -> QueryKind {
    let eps = epsilon(rng);
    if slot == 0 {
        let (lo, hi) = range(rng);
        QueryKind::LaplaceCount {
            lo,
            hi,
            epsilon: eps,
        }
    } else {
        QueryKind::LaplaceSum { epsilon: eps }
    }
}

/// Records on [0, 1], skewed per tenant so bin counts differ.
fn records(n: usize, skew: f64, rng: &mut Xoshiro256) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64().powf(skew)).collect()
}

impl RoundInput {
    /// The round's inputs, a pure function of `(workload, seed)`.
    pub fn generate(workload: Workload, seed: u64) -> RoundInput {
        let sizes = workload.sizes();
        let mut rng = Xoshiro256::substream(seed, 0x5E47E);
        let fleet_seed = rng.next_u64();
        let tenants = (0..sizes.tenants)
            .map(|t| {
                let skew = 0.5 + 2.0 * rng.next_f64();
                (
                    format!("tenant-{t:03}"),
                    records(sizes.records_per_tenant, skew, &mut rng),
                )
            })
            .collect();
        let ticks = (0..sizes.ticks_per_round)
            .map(|tick| {
                let mut nth = vec![0usize; sizes.kinds];
                let requests = equal_mix(sizes.kinds, sizes.requests_per_tick, &mut rng)
                    .into_iter()
                    .map(|slot| {
                        let tenant = rng.next_below(sizes.tenants as u64) as usize;
                        let kind = match workload {
                            Workload::Mixed => mixed_kind(slot, nth[slot], &mut rng),
                            Workload::Ingest => ingest_kind(slot, &mut rng),
                        };
                        nth[slot] += 1;
                        (
                            tenant,
                            QueryRequest::new(format!("tenant-{tenant:03}"), kind),
                        )
                    })
                    .collect();
                // Round-robin over tenants, so every counter tenant has
                // an observed step before its first release.
                let appends = (0..sizes.streams)
                    .map(|i| {
                        let tenant = (tick * sizes.streams + i) % sizes.tenants;
                        (tenant, records(sizes.records_per_append(), 1.0, &mut rng))
                    })
                    .collect();
                let svt_probes = (0..sizes.streams).map(|_| range(&mut rng)).collect();
                TickInput {
                    requests,
                    appends,
                    svt_probes,
                }
            })
            .collect();
        RoundInput {
            workload,
            fleet_seed,
            tenants,
            ticks,
        }
    }

    #[cfg(test)]
    /// A canonical byte encoding of the inputs (`Debug` prints every
    /// `f64` in shortest round-trip form), for determinism tests.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            seed: self.fleet_seed,
            ..ServeConfig::default()
        }
    }

    fn cap() -> Budget {
        Budget::pure(Epsilon::new(TENANT_CAP_EPSILON).expect("positive finite cap"))
    }

    /// Index of the tenant hosting live continual counter `c`.
    fn counter_tenant(&self, c: usize) -> usize {
        c % self.tenants.len()
    }

    /// Index of the tenant hosting SVT session `s` (after the counters).
    fn svt_tenant(&self, s: usize) -> usize {
        (self.workload.sizes().streams + s) % self.tenants.len()
    }
}

/// How a round is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No wrappers, `NoopRecorder`: the end-to-end configuration.
    Plain,
    /// Timing wrappers and the span-only recorder.
    Traced,
    /// A `MemoryRecorder` on every shard (for its overhead ratio only).
    Memory,
}

/// Layer times of one traced round, outside-in.
#[derive(Debug, Clone, Copy, Default)]
struct ClientLayers {
    enqueue_ns: u64,
    /// Calls into `append`, `continual_release`, the SVT methods and
    /// `tick`, each with the WAL storage time it caused.
    append_ns: u64,
    append_wal_ns: u64,
    continual_ns: u64,
    continual_wal_ns: u64,
    continual_calls: u64,
    svt_ns: u64,
    svt_wal_ns: u64,
    svt_calls: u64,
    tick_call_ns: u64,
    tick_wal_ns: u64,
    recover_ns: u64,
    report_ns: u64,
    replayed_records: u64,
}

impl ClientLayers {
    fn plus(&self, o: &ClientLayers) -> ClientLayers {
        ClientLayers {
            enqueue_ns: self.enqueue_ns + o.enqueue_ns,
            append_ns: self.append_ns + o.append_ns,
            append_wal_ns: self.append_wal_ns + o.append_wal_ns,
            continual_ns: self.continual_ns + o.continual_ns,
            continual_wal_ns: self.continual_wal_ns + o.continual_wal_ns,
            continual_calls: self.continual_calls + o.continual_calls,
            svt_ns: self.svt_ns + o.svt_ns,
            svt_wal_ns: self.svt_wal_ns + o.svt_wal_ns,
            svt_calls: self.svt_calls + o.svt_calls,
            tick_call_ns: self.tick_call_ns + o.tick_call_ns,
            tick_wal_ns: self.tick_wal_ns + o.tick_wal_ns,
            recover_ns: self.recover_ns + o.recover_ns,
            report_ns: self.report_ns + o.report_ns,
            replayed_records: self.replayed_records + o.replayed_records,
        }
    }
}

/// What one round measured.
struct Round {
    setup_ns: u64,
    timed_ns: u64,
    fixed_job_ns: u64,
    requests: u64,
    executed: u64,
    failed: u64,
    appended_records: u64,
    /// Per-request latency, enqueue to the return of its tick.
    latency: Percentiles,
    /// Mean request latency of each tick, in order.
    tick_latency_ms: Vec<f64>,
    client: ClientLayers,
    /// Program-side layer totals over the timed phase (traced rounds).
    layers: LayerTotals,
    failures: Vec<String>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One fleet's storages: the `MemoryWal` handles the benchmark keeps,
/// attached bare or behind the timing wrapper.
fn attach(
    fleet: &mut ServingLoop,
    handles: &[MemoryWal],
    mode: Mode,
    layers: &Arc<Layers>,
) -> Result<(), String> {
    let res = if mode == Mode::Traced {
        let wals = handles.iter().map(|h| TimedWal::new(h.handle(), layers));
        fleet.attach_wal(wals.collect(), FsyncPolicy::EveryAppend)
    } else {
        fleet.attach_wal(handles.to_vec(), FsyncPolicy::EveryAppend)
    };
    res.map_err(err("attach_wal"))
}

/// Install the mode's instrumentation on a fleet (live or recovered).
fn instrument(fleet: &mut ServingLoop, mode: Mode, layers: &Arc<Layers>) -> Result<(), String> {
    match mode {
        Mode::Plain => {}
        Mode::Traced => {
            for mech in TimedMechanism::all(layers) {
                fleet.register_mechanism(mech);
            }
            let rec: Arc<dyn Recorder> = Arc::new(SpanRecorder::new(layers));
            fleet.set_recorder(Arc::clone(&rec));
            for k in 0..fleet.shard_count() {
                fleet
                    .set_shard_recorder(k, Arc::clone(&rec))
                    .map_err(err("set_shard_recorder"))?;
            }
        }
        Mode::Memory => {
            for k in 0..fleet.shard_count() {
                fleet
                    .set_shard_recorder(k, Arc::new(MemoryRecorder::new()))
                    .map_err(err("set_shard_recorder"))?;
            }
        }
    }
    Ok(())
}

fn register_all(
    fleet: &mut ServingLoop,
    tenants: Vec<(String, Vec<f64>)>,
    mode: StatsMode,
) -> Result<(), String> {
    for (name, values) in tenants {
        fleet
            .register_tenant_with_mode(&name, values, 0.0, 1.0, RoundInput::cap(), mode)
            .map_err(err("register_tenant"))?;
    }
    Ok(())
}

fn run_round(input: &RoundInput, mode: Mode, layers: &Arc<Layers>) -> Result<Round, String> {
    let sizes = input.workload.sizes();
    let stats_mode = input.workload.stats_mode();
    // Owned copies of the inputs, made before any timer starts.
    let tenants = input.tenants.clone();
    let mut ticks: Vec<Vec<QueryRequest>> = input
        .ticks
        .iter()
        .map(|t| t.requests.iter().map(|(_, r)| r.clone()).collect())
        .collect();
    let tenant_of: Vec<usize> = input
        .ticks
        .iter()
        .flat_map(|t| t.requests.iter().map(|(tenant, _)| *tenant))
        .collect();
    let handles: Vec<MemoryWal> = (0..ServeConfig::default().shards)
        .map(|_| MemoryWal::new())
        .collect();
    let mut spend: Vec<KahanSum> = vec![KahanSum::new(); sizes.tenants];
    let mut charges: Vec<u64> = vec![0; sizes.tenants];

    // ---- set-up: fleet, tenants, WAL, standing sessions ----
    let start = Instant::now();
    let mut fleet = ServingLoop::new(input.config()).map_err(err("ServingLoop::new"))?;
    register_all(&mut fleet, tenants, stats_mode)?;
    attach(&mut fleet, &handles, mode, layers)?;
    let mut counters: Vec<SessionHandle> = Vec::with_capacity(sizes.streams);
    for c in 0..sizes.streams {
        let t = input.counter_tenant(c);
        let h = fleet
            .continual_open(&input.tenants[t].0, COUNTER_EPSILON, COUNTER_HORIZON)
            .map_err(err("continual_open"))?;
        counters.push(h);
        spend[t].add(COUNTER_EPSILON);
        charges[t] += 1;
    }
    let mut sessions: Vec<SessionHandle> = Vec::with_capacity(sizes.streams);
    for s in 0..sizes.streams {
        let t = input.svt_tenant(s);
        let h = fleet
            .svt_open(&input.tenants[t].0, SVT_THRESHOLD, SVT_EPSILON)
            .map_err(err("svt_open"))?;
        sessions.push(h);
        spend[t].add(SVT_EPSILON);
        charges[t] += 1;
    }
    let setup_ns = nanos(start.elapsed());
    instrument(&mut fleet, mode, layers)?;

    // ---- timed phase: closed loop, one client ----
    let mut round = Round {
        setup_ns,
        timed_ns: 0,
        fixed_job_ns: 0,
        requests: tenant_of.len() as u64,
        executed: 0,
        failed: 0,
        appended_records: 0,
        latency: Percentiles::default(),
        tick_latency_ms: Vec::with_capacity(sizes.ticks_per_round),
        client: ClientLayers::default(),
        layers: LayerTotals::default(),
        failures: Vec::new(),
    };
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(tenant_of.len());
    let mut enqueued_at: Vec<Instant> = Vec::with_capacity(sizes.requests_per_tick);
    let c = &mut round.client;
    let before = layers.totals();
    let phase_start = Instant::now();
    for (tick, requests) in input.ticks.iter().zip(ticks.iter_mut()) {
        enqueued_at.clear();
        let t0 = Instant::now();
        for req in requests.drain(..) {
            enqueued_at.push(Instant::now());
            fleet.enqueue(req);
        }
        let t1 = Instant::now();
        c.enqueue_ns += nanos(t1 - t0);

        let wal = || layers.totals().wal_ns;
        let wal0 = wal();
        for (tenant, batch) in &tick.appends {
            if let Err(e) = fleet.append(&input.tenants[*tenant].0, batch) {
                round.failed += 1;
                round.failures.push(format!("append: {e}"));
            }
            round.appended_records += batch.len() as u64;
        }
        let t2 = Instant::now();
        let wal1 = wal();
        c.append_ns += nanos(t2 - t1);
        c.append_wal_ns += wal1 - wal0;

        for h in &counters {
            if let Err(e) = fleet.continual_release(*h) {
                round.failed += 1;
                round.failures.push(format!("continual_release: {e}"));
            }
        }
        let t3 = Instant::now();
        let wal2 = wal();
        c.continual_ns += nanos(t3 - t2);
        c.continual_wal_ns += wal2 - wal1;
        c.continual_calls += counters.len() as u64;

        // Each session is probed once, then suspended and resumed.
        for (h, &(lo, hi)) in sessions.iter_mut().zip(&tick.svt_probes) {
            let resumed = fleet.svt_query(*h, lo, hi).and_then(|_| {
                fleet
                    .svt_suspend(*h)
                    .and_then(|(tenant, state)| fleet.svt_resume(&tenant, state))
            });
            match resumed {
                Ok(next) => *h = next,
                Err(e) => {
                    round.failed += 1;
                    round
                        .failures
                        .push(format!("svt query/suspend/resume: {e}"));
                }
            }
        }
        c.svt_calls += 3 * sessions.len() as u64;
        let t4 = Instant::now();
        let wal3 = wal();
        c.svt_ns += nanos(t4 - t3);
        c.svt_wal_ns += wal3 - wal2;

        let report = fleet.tick();
        let done = Instant::now();
        c.tick_call_ns += nanos(done - t4);
        c.tick_wal_ns += wal() - wal3;
        let tick_start = latencies_ms.len();
        latencies_ms.extend(enqueued_at.iter().map(|t| (done - *t).as_secs_f64() * 1e3));
        let this_tick = &latencies_ms[tick_start..];
        round
            .tick_latency_ms
            .push(this_tick.iter().sum::<f64>() / this_tick.len().max(1) as f64);
        round.executed += report.executed() as u64;
        round.failed += (report.rejected() + report.faulted()) as u64;
        for (ticket, outcome) in &report.outcomes {
            if let Some(&tenant) = usize::try_from(*ticket).ok().and_then(|i| tenant_of.get(i)) {
                spend[tenant].add(outcome.spent().epsilon);
                charges[tenant] += u64::from(!outcome.is_rejected());
            }
        }
    }
    round.timed_ns = nanos(phase_start.elapsed());
    round.latency = stats::percentiles(&latencies_ms)
        .ok_or("too few latency samples for a p90 with ten beyond it")?;
    round.layers = layers.totals().since(&before);

    // ---- fixed job: restart from the WAL images, then report ----
    let images: Vec<MemoryWal> = handles
        .iter()
        .map(|h| MemoryWal::from_bytes(h.bytes()))
        .collect();
    if mode == Mode::Traced {
        for img in &images {
            let bytes = img.snapshot().map_err(err("snapshot"))?;
            let scan = scan_frames(&bytes).map_err(err("scan_frames"))?;
            round.client.replayed_records += scan.records.len() as u64;
        }
    }
    let tenants = input.tenants.clone();
    let start = Instant::now();
    let recovered = if mode == Mode::Traced {
        let wals: Vec<TimedWal> = images
            .into_iter()
            .map(|m| TimedWal::new(m, layers))
            .collect();
        ServingLoop::recover(input.config(), wals, FsyncPolicy::EveryAppend)
    } else {
        ServingLoop::recover(input.config(), images, FsyncPolicy::EveryAppend)
    };
    let mut recovered = recovered.map_err(err("ServingLoop::recover"))?;
    register_all(&mut recovered, tenants, stats_mode)?;
    let rearmed = Instant::now();
    let report = recovered.report().map_err(err("report"))?;
    let end = Instant::now();
    round.fixed_job_ns = nanos(end - start);
    round.client.recover_ns = nanos(rearmed - start);
    round.client.report_ns = nanos(end - rearmed);

    // ---- checks ----
    let f = &mut round.failures;
    if round.executed != round.requests {
        f.push(format!(
            "{} of {} requests were not executed",
            round.requests - round.executed,
            round.requests
        ));
    }
    for (t, (name, _)) in input.tenants.iter().enumerate() {
        match report.tenant(name) {
            Some(s)
                if s.basic.epsilon.to_bits() == spend[t].value().to_bits()
                    && s.operations as u64 == charges[t] => {}
            Some(s) => f.push(format!(
                "{name}: ledger spend {} over {} charges, outcomes sum to {} over {}",
                s.basic.epsilon,
                s.operations,
                spend[t].value(),
                charges[t]
            )),
            None => f.push(format!("{name}: missing from the recovered report")),
        }
    }
    if recovered.durability_digest() != fleet.durability_digest() {
        f.push("recovered durability digest differs from the live fleet's".to_string());
    }
    if recovered.stream_digest() != fleet.stream_digest() {
        f.push("recovered stream digest differs from the live fleet's".to_string());
    }
    if mode == Mode::Traced {
        // The wrappers must be live again on the restarted fleet.
        instrument(&mut recovered, mode, layers)?;
        let seen = layers.totals();
        for req in input.ticks[0].requests.iter().take(KINDS.len() * 8) {
            recovered.enqueue(req.1.clone());
        }
        let probe = recovered.tick();
        let after = layers.totals().since(&seen);
        let calls: u64 = after.exec_calls.iter().sum();
        if calls != probe.executed() as u64 || after.wal_appends == 0 || after.batch_span_ns == 0 {
            f.push("timing wrappers are not live after recover".to_string());
        }
    }
    Ok(round)
}

/// Run `workload` for at least `seconds` of rounds after one warm-up
/// round. With `trace`, rounds rotate through plain, traced and
/// `MemoryRecorder` instrumentation and the per-layer metrics are
/// reported; otherwise every round is plain and the end-to-end metrics
/// are reported.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let input = RoundInput::generate(workload, seed);
    let layers = Arc::new(Layers::new());
    run_round(&input, Mode::Plain, &layers)?;

    let modes: &[Mode] = if trace {
        &[Mode::Plain, Mode::Traced, Mode::Memory]
    } else {
        &[Mode::Plain]
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds: Vec<(Mode, Round)> = Vec::new();
    while start.elapsed() < budget || rounds.len() < 3 * modes.len() {
        let mode = modes[rounds.len() % modes.len()];
        rounds.push((mode, run_round(&input, mode, &layers)?));
    }
    let mut result = RunResult::default();
    for (_, r) in &rounds {
        result.attempted += r.requests;
        result.failed += r.failed;
        result.failures.extend(r.failures.iter().cloned());
    }
    let of = |m: Mode| {
        rounds
            .iter()
            .filter(move |(mode, _)| *mode == m)
            .map(|(_, r)| r)
    };
    result.metrics = if trace {
        layer_metrics(
            of(Mode::Plain),
            of(Mode::Traced),
            of(Mode::Memory),
            &mut result.failures,
        )
    } else {
        end_to_end(of(Mode::Plain))
    };
    Ok(result)
}

/// Medians over rounds: a round disturbed by the host moves one
/// sample, not the result.
fn end_to_end<'a>(rounds: impl Iterator<Item = &'a Round>) -> Vec<Metric> {
    let rounds: Vec<&Round> = rounds.collect();
    let median = |f: &dyn Fn(&Round) -> f64| {
        let xs: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
        median(&xs).unwrap_or(0.0)
    };
    vec![
        Metric::new(
            "throughput_per_s",
            median(&|r| r.executed as f64 / (r.timed_ns as f64 * 1e-9)),
            "1/s",
        ),
        Metric::new("latency_p50_ms", median(&|r| r.latency.p50), "ms"),
        Metric::new("latency_p90_ms", median(&|r| r.latency.p90), "ms"),
        Metric::new(
            "fixed_job_s",
            median(&|r| r.fixed_job_ns as f64 * 1e-9),
            "s",
        ),
        Metric::new("setup_s", median(&|r| r.setup_ns as f64 * 1e-9), "s"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ]
}

fn layer_metrics<'a>(
    plain: impl Iterator<Item = &'a Round>,
    traced: impl Iterator<Item = &'a Round>,
    memory: impl Iterator<Item = &'a Round>,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let plain: Vec<&Round> = plain.collect();
    let traced: Vec<&Round> = traced.collect();
    let memory: Vec<&Round> = memory.collect();
    let per_req_ns = |rs: &[&Round], f: fn(&Round) -> u64| {
        let req: u64 = rs.iter().map(|r| r.requests).sum();
        rs.iter().map(|r| f(r)).sum::<u64>() as f64 / req as f64
    };
    let l = traced
        .iter()
        .fold(LayerTotals::default(), |acc, r| acc.plus(&r.layers));
    let c = traced
        .iter()
        .fold(ClientLayers::default(), |acc, r| acc.plus(&r.client));
    let rounds = traced.len() as f64;
    let req: f64 = traced.iter().map(|r| r.requests as f64).sum();
    let timed_ns: f64 = traced.iter().map(|r| r.timed_ns as f64).sum();
    let appended: f64 = traced.iter().map(|r| r.appended_records as f64).sum();
    let exec_ns: u64 = l.exec_ns.iter().sum();
    // Layers that are a span less the measured layers inside it. Nested
    // times can only fit inside their span, so a negative one means an
    // inner layer is mis-timed or counted twice, and fails the run.
    let less = |outer: u64, inner: u64| outer as f64 - inner as f64;
    let engine_self = less(l.batch_span_ns, l.admit_ns + exec_ns + c.tick_wal_ns);
    let tick_self = less(l.tick_span_ns, l.batch_span_ns);
    let append_self = less(c.append_ns, c.append_wal_ns);
    let continual_self = less(c.continual_ns, c.continual_wal_ns);
    let svt_self = less(c.svt_ns, c.svt_wal_ns);
    for (name, ns) in [
        ("engine batch less admit, execute and WAL", engine_self),
        ("tick span less engine batches", tick_self),
        ("append calls less WAL", append_self),
        ("continual_release calls less WAL", continual_self),
        ("SVT calls less WAL", svt_self),
    ] {
        if ns < 0.0 {
            failures.push(format!("{name} is negative ({ns} ns)"));
        }
    }
    let us = |ns: f64, per: f64| if per > 0.0 { ns / per / 1e3 } else { 0.0 };

    let mut out = Vec::new();
    for (k, name) in KINDS.iter().enumerate() {
        let calls = l.exec_calls[k] as f64;
        out.push(Metric::new(
            &format!("mech.{name}.exec_us"),
            us(l.exec_ns[k] as f64, calls),
            "us",
        ));
        out.push(Metric::new(
            &format!("mech.{name}.calls"),
            calls / rounds,
            "count",
        ));
    }
    out.extend([
        Metric::new(
            "engine.batch_us_per_req",
            us(l.batch_span_ns as f64, req),
            "us",
        ),
        Metric::new("engine.admit_us_per_req", us(l.admit_ns as f64, req), "us"),
        Metric::new("engine.self_us_per_req", us(engine_self, req), "us"),
        Metric::new("wal.appends_per_req", l.wal_appends as f64 / req, "count"),
        Metric::new("wal.bytes_per_req", l.wal_bytes as f64 / req, "bytes"),
        Metric::new("wal.flushes_per_req", l.wal_flushes as f64 / req, "count"),
        Metric::new("wal.storage_us_per_req", us(l.wal_ns as f64, req), "us"),
        Metric::new("serve.recover_ms", c.recover_ns as f64 / rounds / 1e6, "ms"),
        Metric::new(
            "wal.replay_records_per_s",
            c.replayed_records as f64 / (c.recover_ns as f64 * 1e-9),
            "1/s",
        ),
        Metric::new("serve.report_ms", c.report_ns as f64 / rounds / 1e6, "ms"),
        Metric::new(
            "serve.enqueue_us_per_req",
            us(c.enqueue_ns as f64, req),
            "us",
        ),
        Metric::new("serve.tick_self_us_per_req", us(tick_self, req), "us"),
        Metric::new(
            "dataset.append_us_per_record",
            us(append_self, appended),
            "us",
        ),
        Metric::new(
            "serve.continual_release_us",
            us(continual_self, c.continual_calls as f64),
            "us",
        ),
        Metric::new(
            "serve.svt_us_per_call",
            us(svt_self, c.svt_calls as f64),
            "us",
        ),
    ]);

    // Layers partition the timed phase: client calls (less the WAL time
    // they caused), the tick span split into its own time, the engine's
    // own time, admission, execution, and all WAL storage time.
    let layer_sum = c.enqueue_ns as f64
        + append_self
        + continual_self
        + svt_self
        + tick_self
        + engine_self
        + (l.admit_ns + exec_ns) as f64
        + l.wal_ns as f64;
    let tick_per_req = |rs: &[&Round]| per_req_ns(rs, |r| r.client.tick_call_ns);
    let op_per_req = |rs: &[&Round]| per_req_ns(rs, |r| r.timed_ns);
    let tick_latency: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.tick_latency_ms.iter().copied())
        .collect();
    out.extend([
        Metric::new(
            "telemetry.recorder_overhead_ratio",
            tick_per_req(&memory) / tick_per_req(&plain),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            op_per_req(&traced) / op_per_req(&plain),
            "ratio",
        ),
        Metric::new("trace.layer_sum_ratio", layer_sum / timed_ns, "ratio"),
        Metric::new(
            "drift_ratio",
            stats::drift_ratio(&tick_latency).unwrap_or(0.0),
            "ratio",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for w in [Workload::Mixed, Workload::Ingest] {
            let a = RoundInput::generate(w, 7).to_bytes();
            let b = RoundInput::generate(w, 7).to_bytes();
            assert_eq!(a, b);
            assert_ne!(a, RoundInput::generate(w, 8).to_bytes());
        }
    }

    #[test]
    fn traced_rounds_repeat_their_counts_exactly() {
        for w in [Workload::Mixed, Workload::Ingest] {
            let input = RoundInput::generate(w, 3);
            let counts = || {
                let layers = Arc::new(Layers::new());
                let round = run_round(&input, Mode::Traced, &layers).unwrap();
                assert!(round.failures.is_empty(), "{:?}", round.failures);
                let l = round.layers;
                (
                    l.exec_calls,
                    l.wal_appends,
                    l.wal_bytes,
                    l.wal_flushes,
                    round.executed,
                )
            };
            assert_eq!(counts(), counts());
        }
    }

    #[test]
    fn every_tick_has_the_same_equal_kind_mix_at_any_seed() {
        for w in [Workload::Mixed, Workload::Ingest] {
            let mix = |seed: u64, tick: usize| {
                let input = RoundInput::generate(w, seed);
                let mut seen = [0usize; 7];
                for (_, req) in &input.ticks[tick].requests {
                    seen[KINDS
                        .iter()
                        .position(|n| *n == req.kind.mechanism_name())
                        .unwrap()] += 1;
                }
                seen
            };
            let sizes = w.sizes();
            let first = mix(1, 0);
            assert_eq!(first.iter().sum::<usize>(), sizes.requests_per_tick);
            let share = sizes.requests_per_tick / sizes.kinds;
            for (k, &n) in first.iter().enumerate() {
                let want = if k < sizes.kinds {
                    share..=share + 1
                } else {
                    0..=0
                };
                assert!(want.contains(&n), "{}: {n}", KINDS[k]);
            }
            assert_eq!(mix(1, 5), first);
            assert_eq!(mix(2, 0), first);
        }
    }
}
