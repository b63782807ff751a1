//! The `leakage_audit` workload: exact leakage of the paper's learning
//! channel and of a large-alphabet Gibbs-selection channel, with no
//! engine on the path.
//!
//! One op audits one ε point in two stages of comparable cost:
//!
//! * (a) the Figure-1 channel Ẑ→θ over an enumerated dataset space
//!   (E6/E7): `learning_channel`, its mutual information, min-entropy
//!   leakage, the exact neighbour privacy level and the Theorem 4.2
//!   witness (a Blahut–Arimoto solve);
//! * (b) a Gibbs-selection `FlatChannel` over a 10³-symbol alphabet
//!   (E14): build, blocked mutual information, blocked min-entropy
//!   leakage.
//!
//! ε is drawn from [`EPS_LO`, `EPS_HI`], a band where the Blahut–Arimoto
//! iteration count varies by about a tenth, so every op is in one cost
//! class and p50 and p90 never straddle two.
//!
//! A round repeats set-up [`SETUP_REPS`] times, runs the [`CYCLE`] ops
//! of the seed once, then runs the fixed job: the 8-point E7
//! `epsilon_sweep`.

use crate::stats;
use crate::{Metric, RunResult};
use dplearn::certificate::PrivacyCertificate;
use dplearn::information::{learning_channel, theorem_42_witness, DatasetSpace};
use dplearn::infotheory::dp_bounds::{cuff_yu_mi_charge_nats, mi_bound_nats};
use dplearn::infotheory::flat::FlatChannel;
use dplearn::infotheory::leakage::min_entropy_leakage_bits;
use dplearn::learning::hypothesis::{FiniteClass, ThresholdClassifier};
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::numerics::rng::{Rng, Xoshiro256};
use dplearn::numerics::special::log_sum_exp;
use dplearn::numerics::stats::median;
use dplearn::pacbayes::posterior::FinitePosterior;
use dplearn::tradeoff::{discrete_world_true_risks, epsilon_sweep};
use std::time::{Duration, Instant};

/// Stage (a): E7's world — `m` inputs, flip probability, sample size
/// `n` (so `(2m)ⁿ` datasets) and a threshold class of `HYPOTHESES`.
pub const WORLD_M: usize = 4;
pub const FLIP: f64 = 0.1;
pub const SAMPLE_N: usize = 3;
pub const HYPOTHESES: usize = 5;
/// Stage (b): E14's channel — secrets × hypotheses, kernel tile.
pub const SECRETS: usize = 64;
pub const OUTPUTS: usize = 4096;
pub const TILE: usize = 256;
/// The ε band every op draws from.
pub const EPS_LO: f64 = 1.5;
pub const EPS_HI: f64 = 2.75;
/// Ops per round, and set-ups per round.
pub const CYCLE: usize = 8;
pub const SETUP_REPS: usize = 20;
/// The fixed job's ε grid (E7's).
pub const SWEEP_EPSILONS: [f64; 8] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// One generated op: the ε point and the seed of its stage-(b) scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub epsilon: f64,
    pub scores_seed: u64,
}

/// The ops of a round, a pure function of the seed.
pub fn generate(seed: u64) -> Vec<Point> {
    let mut rng = Xoshiro256::substream(seed, 0xA0D17);
    (0..CYCLE)
        .map(|_| Point {
            epsilon: EPS_LO + (EPS_HI - EPS_LO) * rng.next_f64(),
            scores_seed: rng.next_u64(),
        })
        .collect()
}

/// Everything built before the first op.
struct Setup {
    space: DatasetSpace,
    class: FiniteClass<ThresholdClassifier>,
    prior: FinitePosterior,
    true_risks: Vec<f64>,
}

fn setup() -> Result<Setup, String> {
    let world = DiscreteWorld::new(WORLD_M, FLIP);
    let space = DatasetSpace::enumerate(&world, SAMPLE_N).map_err(|e| e.to_string())?;
    let class = FiniteClass::threshold_grid(0.0, WORLD_M as f64, HYPOTHESES);
    let prior = FinitePosterior::uniform(HYPOTHESES).map_err(|e| e.to_string())?;
    let true_risks = discrete_world_true_risks(&world, &class);
    Ok(Setup {
        space,
        class,
        prior,
        true_risks,
    })
}

/// The values one audit produces; all must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Audit {
    mi: f64,
    mi_bound: f64,
    leakage_bits: f64,
    realized_epsilon: f64,
    ba_iterations: usize,
    optimal_objective: f64,
    gibbs_objective: f64,
    flat_mi: f64,
    flat_leakage_bits: f64,
}

/// Nanoseconds per layer of one or more audits.
#[derive(Debug, Clone, Copy, Default)]
struct AuditLayers {
    learning_channel: u64,
    mi: u64,
    leakage: u64,
    neighbor: u64,
    ba: u64,
    flat_build: u64,
    flat_mi: u64,
    flat_leakage: u64,
}

impl AuditLayers {
    fn total(&self) -> u64 {
        self.learning_channel
            + self.mi
            + self.leakage
            + self.neighbor
            + self.ba
            + self.flat_build
            + self.flat_mi
            + self.flat_leakage
    }

    fn plus(&self, o: &AuditLayers) -> AuditLayers {
        AuditLayers {
            learning_channel: self.learning_channel + o.learning_channel,
            mi: self.mi + o.mi,
            leakage: self.leakage + o.leakage,
            neighbor: self.neighbor + o.neighbor,
            ba: self.ba + o.ba,
            flat_build: self.flat_build + o.flat_build,
            flat_mi: self.flat_mi + o.flat_mi,
            flat_leakage: self.flat_leakage + o.flat_leakage,
        }
    }
}

/// Run `f`, adding its wall time to `acc` when tracing.
fn timed<T>(trace: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *acc += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

/// Gibbs-selection channel: rows `p(θ|x) ∝ exp(λ·s_x(θ))` with i.i.d.
/// uniform scores, built in log space (E14's construction). Every row
/// log-ratio is at most 2λ.
fn gibbs_channel(lambda: f64, scores_seed: u64) -> Result<FlatChannel, String> {
    let mut rng = Xoshiro256::seed_from(scores_seed);
    let mut kernel = Vec::with_capacity(SECRETS * OUTPUTS);
    let mut logits = vec![0.0f64; OUTPUTS];
    for _ in 0..SECRETS {
        for l in &mut logits {
            *l = lambda * rng.next_f64();
        }
        let lse = log_sum_exp(&logits);
        kernel.extend(logits.iter().map(|l| (l - lse).exp()));
    }
    FlatChannel::new(vec![1.0 / SECRETS as f64; SECRETS], kernel, OUTPUTS)
        .map_err(|e| e.to_string())
}

fn audit(s: &Setup, p: Point, trace: bool, t: &mut AuditLayers) -> Result<Audit, String> {
    let lambda = PrivacyCertificate::lambda_for_epsilon(p.epsilon, 1.0, SAMPLE_N)
        .map_err(|e| e.to_string())?;
    let lc = timed(trace, &mut t.learning_channel, || {
        learning_channel(&s.space, &s.class, &ZeroOne, &s.prior, lambda)
    })
    .map_err(|e| e.to_string())?;
    let mi = timed(trace, &mut t.mi, || lc.mutual_information());
    let leakage_bits = timed(trace, &mut t.leakage, || {
        min_entropy_leakage_bits(&lc.channel)
    });
    let realized_epsilon = timed(trace, &mut t.neighbor, || {
        lc.neighbor_privacy_level(&s.space)
    });
    let witness = timed(trace, &mut t.ba, || {
        theorem_42_witness(&s.space, &lc.risks, lambda)
    })
    .map_err(|e| e.to_string())?;

    // Stage (b): λ = ε/2 makes the selection channel ε-DP.
    let flat = timed(trace, &mut t.flat_build, || {
        gibbs_channel(p.epsilon / 2.0, p.scores_seed)
    })?;
    let flat_mi = timed(trace, &mut t.flat_mi, || {
        flat.mutual_information_blocked(TILE)
    })
    .map_err(|e| e.to_string())?;
    let flat_leakage_bits = timed(trace, &mut t.flat_leakage, || {
        flat.min_entropy_leakage_bits_blocked(TILE)
    })
    .map_err(|e| e.to_string())?;

    Ok(Audit {
        mi,
        mi_bound: mi_bound_nats(p.epsilon, SAMPLE_N).map_err(|e| e.to_string())?,
        leakage_bits,
        realized_epsilon,
        ba_iterations: witness.rate_distortion.iterations,
        optimal_objective: witness.optimal_objective,
        gibbs_objective: lc.mi_regularized_objective(),
        flat_mi,
        flat_leakage_bits,
    })
}

/// Stage (a)'s guarantees: realized ε ≤ ε, MI ≤ the n·ε bound, and the
/// Blahut–Arimoto optimum no worse than the Gibbs channel's objective.
fn stage_a_violation(p: Point, a: &Audit) -> Option<String> {
    if a.realized_epsilon > p.epsilon + 1e-9 {
        return Some(format!(
            "ε={}: realized ε {} exceeds it",
            p.epsilon, a.realized_epsilon
        ));
    }
    if a.mi > a.mi_bound + 1e-12 {
        return Some(format!(
            "ε={}: MI {} exceeds the n·ε bound {}",
            p.epsilon, a.mi, a.mi_bound
        ));
    }
    if a.optimal_objective > a.gibbs_objective + 1e-9 {
        return Some(format!(
            "ε={}: Blahut–Arimoto optimum above the Gibbs channel",
            p.epsilon
        ));
    }
    None
}

/// E14's sandwich on stage (b), exact MI ≤ ε̂·tanh(ε̂/2) ≤ ε̂ ≤ ε, where
/// ε̂ is the channel's realized ε (the max row log-ratio — a scan too
/// slow to time with every op, so it is checked once per point).
fn check_sandwich(p: Point, flat_mi: f64) -> Result<(), String> {
    let flat = gibbs_channel(p.epsilon / 2.0, p.scores_seed)?;
    let realized = flat
        .max_row_log_ratio_blocked(TILE)
        .map_err(|e| e.to_string())?;
    let charge = cuff_yu_mi_charge_nats(realized).map_err(|e| e.to_string())?;
    if !(realized <= p.epsilon + 1e-9 && flat_mi <= charge + 1e-12 && charge <= realized) {
        return Err(format!(
            "ε={}: Cuff–Yu sandwich fails: MI {flat_mi}, charge {charge}, realized ε {realized}",
            p.epsilon
        ));
    }
    Ok(())
}

fn sweep(s: &Setup) -> Result<(), String> {
    let world = DiscreteWorld::new(WORLD_M, FLIP);
    let rows = epsilon_sweep(
        &world,
        SAMPLE_N,
        &s.class,
        &ZeroOne,
        &s.true_risks,
        &SWEEP_EPSILONS,
    )
    .map_err(|e| e.to_string())?;
    for r in &rows {
        if r.realized_epsilon > r.epsilon + 1e-9 || r.mi_nats > r.mi_bound_nats + 1e-12 {
            return Err(format!("sweep row ε={} breaks its bounds", r.epsilon));
        }
    }
    Ok(())
}

/// Unordered neighbour pairs (datasets differing in one position) among
/// the `(2m)ⁿ` datasets of size `n`: computed, not counted by a scan.
fn neighbor_pairs(n: usize) -> u64 {
    let k = (2 * WORLD_M) as u64;
    k.pow(n as u32) * n as u64 * (k - 1) / 2
}

/// What one round measured.
struct Round {
    traced: bool,
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    fixed_job_s: f64,
    layers: AuditLayers,
    iterations: usize,
    failed: u64,
    failures: Vec<String>,
}

/// Runs one round. `reference` holds each point's warm-up audit, or
/// why it failed its checks.
fn run_round(
    points: &[Point],
    reference: &[Result<Audit, String>],
    trace: bool,
) -> Result<Round, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let s = setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(s);
    }
    let s = built.ok_or("no set-up ran")?;
    let mut round = Round {
        traced: trace,
        setup_s,
        op_ms: Vec::with_capacity(points.len()),
        fixed_job_s: 0.0,
        layers: AuditLayers::default(),
        iterations: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for (p, want) in points.iter().zip(reference) {
        let start = Instant::now();
        let got = audit(&s, *p, trace, &mut round.layers);
        round.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match (got, want) {
            (Ok(a), Ok(w)) if a == *w => round.iterations += a.ba_iterations,
            (Ok(a), Ok(w)) => {
                round.failed += 1;
                round.failures.push(format!(
                    "ε={}: audit not reproducible: {a:?} vs {w:?}",
                    p.epsilon
                ));
            }
            // Already reported by the warm-up.
            (Ok(_), Err(_)) => round.failed += 1,
            (Err(e), _) => {
                round.failed += 1;
                round.failures.push(e);
            }
        }
    }
    let start = Instant::now();
    let swept = sweep(&s);
    round.fixed_job_s = start.elapsed().as_secs_f64();
    if let Err(e) = swept {
        round.failed += 1;
        round.failures.push(e);
    }
    Ok(round)
}

/// Run `leakage_audit` for at least `seconds` after a warm-up round that
/// also fixes the reference outputs and checks stage (b)'s sandwich.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let points = generate(seed);
    let s = setup()?;
    let mut result = RunResult::default();
    let reference: Vec<Result<Audit, String>> = points
        .iter()
        .map(|p| {
            let a = audit(&s, *p, false, &mut AuditLayers::default())?;
            match stage_a_violation(*p, &a) {
                Some(v) => Err(v),
                None => check_sandwich(*p, a.flat_mi).map(|()| a),
            }
        })
        .collect();
    for r in &reference {
        if let Err(e) = r {
            result.failures.push(e.clone());
        }
    }

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // At least 100 plain audits, so the p90 has ten beyond it.
    let min_rounds = 2 * (100 / CYCLE + 1);
    while start.elapsed() < budget || rounds.len() < min_rounds {
        // With tracing, alternate plain and traced rounds.
        let traced = trace && rounds.len() % 2 == 1;
        rounds.push(run_round(&points, &reference, traced)?);
    }
    for r in &rounds {
        result.attempted += r.op_ms.len() as u64;
        result.failed += r.failed;
        result.failures.extend(r.failures.iter().cloned());
    }
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let ops: Vec<f64> = plain.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    if !trace {
        let p = stats::percentiles(&ops).ok_or("too few ops for a p90 with ten beyond it")?;
        let round_rates: Vec<f64> = plain
            .iter()
            .map(|r| r.op_ms.len() as f64 / (r.op_ms.iter().sum::<f64>() / 1e3))
            .collect();
        let setups: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        let jobs: Vec<f64> = plain.iter().map(|r| r.fixed_job_s).collect();
        result.metrics = vec![
            Metric::new(
                "throughput_per_s",
                median(&round_rates).unwrap_or(0.0),
                "1/s",
            ),
            Metric::new("latency_p50_ms", p.p50, "ms"),
            Metric::new("latency_p90_ms", p.p90, "ms"),
            Metric::new("fixed_job_s", median(&jobs).unwrap_or(0.0), "s"),
            Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
            Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ];
        return Ok(result);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let l = traced
        .iter()
        .fold(AuditLayers::default(), |acc, r| acc.plus(&r.layers));
    let traced_ops: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let n = traced_ops.len() as f64;
    let ms = |ns: u64| ns as f64 / n / 1e6;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let layer_sum = l.total() as f64 / 1e6 / traced_ops.iter().sum::<f64>();
    result.metrics = vec![
        Metric::new("core.learning_channel_ms", ms(l.learning_channel), "ms"),
        Metric::new("core.neighbor_privacy_ms", ms(l.neighbor), "ms"),
        Metric::new(
            "core.neighbor_pairs",
            neighbor_pairs(SAMPLE_N) as f64,
            "count",
        ),
        Metric::new("infotheory.ba_ms", ms(l.ba), "ms"),
        Metric::new(
            "infotheory.ba_iterations",
            traced[0].iterations as f64 / CYCLE as f64,
            "count",
        ),
        Metric::new("infotheory.mi_ms", ms(l.mi), "ms"),
        Metric::new("infotheory.min_entropy_leakage_ms", ms(l.leakage), "ms"),
        Metric::new("infotheory.flat_build_ms", ms(l.flat_build), "ms"),
        Metric::new("infotheory.flat_mi_ms", ms(l.flat_mi), "ms"),
        Metric::new("infotheory.flat_leakage_ms", ms(l.flat_leakage), "ms"),
        Metric::new(
            "infotheory.flat_cells",
            (SECRETS * OUTPUTS * std::mem::size_of::<f64>()) as f64,
            "bytes",
        ),
        Metric::new(
            "trace.overhead_ratio",
            mean(&traced_ops) / mean(&ops),
            "ratio",
        ),
        Metric::new("trace.layer_sum_ratio", layer_sum, "ratio"),
        Metric::new(
            "drift_ratio",
            stats::drift_ratio(&ops).unwrap_or(0.0),
            "ratio",
        ),
    ];
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_a_pure_function_of_the_seed() {
        assert_eq!(generate(3), generate(3));
        assert_ne!(generate(3), generate(4));
        assert!(generate(5)
            .iter()
            .all(|p| (EPS_LO..EPS_HI).contains(&p.epsilon)));
    }

    #[test]
    fn neighbor_pair_formula_matches_a_scan() {
        let world = DiscreteWorld::new(WORLD_M, FLIP);
        let space = DatasetSpace::enumerate(&world, 2).unwrap();
        let mut pairs = 0u64;
        for (i, a) in space.datasets.iter().enumerate() {
            for b in &space.datasets[i + 1..] {
                let diff = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
                pairs += u64::from(diff == 1);
            }
        }
        assert_eq!(pairs, neighbor_pairs(2));
    }
}
