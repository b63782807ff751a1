//! Typed query requests, released values, and per-request outcomes.
//!
//! A [`QueryRequest`] names a dataset and a [`QueryKind`]; the kind
//! carries every parameter the dispatched mechanism needs, so the engine
//! can validate and **cost** a request fully before touching any budget
//! (admission control is reject-before-execute).

use crate::EngineError;
use dplearn_mechanisms::privacy::Budget;
use dplearn_mechanisms::sparse_vector::SvtAnswer;
use dplearn_robust::fault::FaultClass;

pub use dplearn_mechanisms::noisy_max::NoisyMaxNoise;

/// Which private-selection mechanism a [`QueryKind::Select`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectStrategy {
    /// The exponential mechanism (paper Theorem 2.2).
    Exponential,
    /// Permute-and-flip (McKenna & Sheldon, 2020) — never worse in
    /// expected quality at the same ε.
    PermuteAndFlip,
}

/// A typed query against a registered dataset.
///
/// Every variant's `epsilon` is the **target privacy level** of the
/// release; the dispatched mechanism declares the resulting budget charge
/// up front (for most kinds the charge is exactly `epsilon`; Gibbs
/// sampling charges `epsilon · draws` since each posterior draw is an
/// independent exponential-mechanism release).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// Laplace-noised count of records in `[lo, hi]` (sensitivity 1).
    LaplaceCount {
        /// Lower edge of the counted range.
        lo: f64,
        /// Upper edge of the counted range.
        hi: f64,
        /// Target privacy level.
        epsilon: f64,
    },
    /// Laplace-noised sum of all records (sensitivity = domain width).
    LaplaceSum {
        /// Target privacy level.
        epsilon: f64,
    },
    /// Privately select the most populated of `bins` equal-width
    /// histogram bins (quality = bin count, sensitivity 1).
    Select {
        /// Number of equal-width bins over the dataset domain.
        bins: usize,
        /// Target privacy level.
        epsilon: f64,
        /// Which selection mechanism to run.
        strategy: SelectStrategy,
    },
    /// Report-noisy-max over `bins` equal-width histogram bins.
    NoisyMax {
        /// Number of equal-width bins over the dataset domain.
        bins: usize,
        /// Target privacy level.
        epsilon: f64,
        /// Noise flavour (Laplace or Gumbel).
        noise: NoisyMaxNoise,
    },
    /// A self-contained sparse-vector (AboveThreshold) session: probe
    /// range-counts against `threshold`, stopping at the first `Above`.
    /// The whole transcript costs `epsilon` regardless of length.
    /// (For suspendable multi-turn sessions use
    /// [`Engine::svt_open`](crate::engine::Engine::svt_open).)
    SvtRun {
        /// The (public) threshold the noisy counts are compared against.
        threshold: f64,
        /// Target privacy level of the whole session.
        epsilon: f64,
        /// Range-count probes `(lo, hi)`, answered in order.
        probes: Vec<(f64, f64)>,
    },
    /// Draw from the Gibbs posterior over a candidate grid for the
    /// `quantile`-th quantile: `π̂(c) ∝ exp(−λ·|#{x ≤ c}/n − q|)` with
    /// λ calibrated so each draw is an `epsilon`-DP exponential-mechanism
    /// release (paper Theorem 4.1). Charges `epsilon · draws`.
    GibbsQuantile {
        /// Target quantile in (0, 1).
        quantile: f64,
        /// Number of evenly spaced candidate values over the domain.
        candidates: usize,
        /// Target privacy level **per draw**.
        epsilon: f64,
        /// Number of posterior draws to release.
        draws: usize,
    },
    /// Release the dataset's full continual-count tape: one noisy
    /// running record-count per arrival batch (registration batch
    /// first), produced by a binary tree-aggregation counter over a
    /// horizon of `horizon` steps. The **whole tape** costs `epsilon`
    /// regardless of how many batches have arrived (continual
    /// observation; see [`dplearn_mechanisms::continual::TreeCounter`]).
    /// (For a live counter that follows the stream as it grows use
    /// [`Engine::continual_open`](crate::engine::Engine::continual_open).)
    ContinualCount {
        /// Target privacy level of the entire release sequence.
        epsilon: f64,
        /// Maximum number of steps the ε accounting covers; must be at
        /// least the number of batches that have arrived.
        horizon: u64,
    },
    /// Dispatch to a custom mechanism registered under `mechanism`,
    /// passing opaque scalar parameters through.
    Custom {
        /// Registry name of the mechanism to run.
        mechanism: String,
        /// Mechanism-defined parameters.
        params: Vec<f64>,
    },
}

impl QueryKind {
    /// The registry key this kind dispatches to.
    pub fn mechanism_name(&self) -> &str {
        match self {
            QueryKind::LaplaceCount { .. } => "laplace_count",
            QueryKind::LaplaceSum { .. } => "laplace_sum",
            QueryKind::Select { .. } => "select_bin",
            QueryKind::NoisyMax { .. } => "noisy_max_bin",
            QueryKind::SvtRun { .. } => "svt_run",
            QueryKind::GibbsQuantile { .. } => "gibbs_quantile",
            QueryKind::ContinualCount { .. } => "continual_count",
            QueryKind::Custom { mechanism, .. } => mechanism,
        }
    }
}

/// A query request: which dataset, and what to run against it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Name of the target dataset in the engine's registry.
    pub dataset: String,
    /// The typed query.
    pub kind: QueryKind,
}

impl QueryRequest {
    /// Convenience constructor.
    pub fn new(dataset: impl Into<String>, kind: QueryKind) -> Self {
        QueryRequest {
            dataset: dataset.into(),
            kind,
        }
    }
}

/// A released (privatized) value.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A noised scalar (counts, sums).
    Scalar(f64),
    /// A selected index (selection mechanisms).
    Index(usize),
    /// Released draws (Gibbs-posterior sampling).
    Draws(Vec<f64>),
    /// An SVT transcript: per-probe answers, halting at the first
    /// `Above`.
    SvtTranscript(Vec<SvtAnswer>),
}

impl QueryValue {
    /// Every scalar the value releases — the engine scans these for
    /// non-finite leaks before handing the value to the caller.
    pub(crate) fn released_scalars(&self) -> &[f64] {
        match self {
            QueryValue::Scalar(v) => std::slice::from_ref(v),
            QueryValue::Index(_) | QueryValue::SvtTranscript(_) => &[],
            QueryValue::Draws(vs) => vs,
        }
    }
}

/// The per-request outcome of a batch (or single submission).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The request was admitted, charged `cost`, and executed.
    Executed {
        /// The released value.
        value: QueryValue,
        /// Budget charged (exactly the declared cost).
        cost: Budget,
        /// Execution attempts consumed (1 = first try).
        attempts: usize,
    },
    /// Admission control rejected the request **before any charge**:
    /// malformed parameters, unknown dataset/mechanism, a poisoned
    /// ledger, or insufficient budget. Provably zero spend.
    Rejected {
        /// Why the request was turned away.
        error: EngineError,
    },
    /// The request was admitted and charged, but execution failed even
    /// after retries. The charge is **not refunded** (the mechanism may
    /// have consumed randomness or leaked partial output) and the
    /// dataset's ledger is poisoned; other datasets are unaffected.
    Faulted {
        /// The terminal execution error.
        error: EngineError,
        /// Budget that was charged (and stays spent).
        cost: Budget,
        /// Execution attempts consumed.
        attempts: usize,
        /// Fault-taxonomy classification when the failure was a
        /// non-finite release.
        fault: Option<FaultClass>,
    },
}

impl QueryOutcome {
    /// True for [`QueryOutcome::Executed`].
    pub fn is_executed(&self) -> bool {
        matches!(self, QueryOutcome::Executed { .. })
    }

    /// True for [`QueryOutcome::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, QueryOutcome::Rejected { .. })
    }

    /// True for [`QueryOutcome::Faulted`].
    pub fn is_faulted(&self) -> bool {
        matches!(self, QueryOutcome::Faulted { .. })
    }

    /// The released value, if the request executed.
    pub fn value(&self) -> Option<&QueryValue> {
        match self {
            QueryOutcome::Executed { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The budget actually spent by this request: the declared cost for
    /// executed and faulted requests, zero for rejected ones.
    pub fn spent(&self) -> Budget {
        match self {
            QueryOutcome::Executed { cost, .. } | QueryOutcome::Faulted { cost, .. } => *cost,
            QueryOutcome::Rejected { .. } => Budget {
                epsilon: 0.0,
                delta: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_names_are_stable() {
        let kinds = [
            (
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 1.0,
                    epsilon: 0.1,
                },
                "laplace_count",
            ),
            (QueryKind::LaplaceSum { epsilon: 0.1 }, "laplace_sum"),
            (
                QueryKind::Select {
                    bins: 4,
                    epsilon: 0.1,
                    strategy: SelectStrategy::Exponential,
                },
                "select_bin",
            ),
            (
                QueryKind::NoisyMax {
                    bins: 4,
                    epsilon: 0.1,
                    noise: NoisyMaxNoise::Laplace,
                },
                "noisy_max_bin",
            ),
            (
                QueryKind::SvtRun {
                    threshold: 1.0,
                    epsilon: 0.1,
                    probes: vec![(0.0, 1.0)],
                },
                "svt_run",
            ),
            (
                QueryKind::GibbsQuantile {
                    quantile: 0.5,
                    candidates: 8,
                    epsilon: 0.1,
                    draws: 1,
                },
                "gibbs_quantile",
            ),
            (
                QueryKind::ContinualCount {
                    epsilon: 0.1,
                    horizon: 16,
                },
                "continual_count",
            ),
        ];
        for (kind, want) in kinds {
            assert_eq!(kind.mechanism_name(), want);
        }
        let custom = QueryKind::Custom {
            mechanism: "my_mech".to_string(),
            params: vec![],
        };
        assert_eq!(custom.mechanism_name(), "my_mech");
    }

    #[test]
    fn outcome_spent_accounting() {
        let cost = Budget {
            epsilon: 0.3,
            delta: 0.0,
        };
        let exec = QueryOutcome::Executed {
            value: QueryValue::Scalar(1.0),
            cost,
            attempts: 1,
        };
        assert!(exec.is_executed());
        assert_eq!(exec.spent(), cost);
        let rej = QueryOutcome::Rejected {
            error: EngineError::UnknownDataset("x".to_string()),
        };
        assert!(rej.is_rejected());
        assert_eq!(rej.spent().epsilon, 0.0);
        let fault = QueryOutcome::Faulted {
            error: EngineError::NonFiniteRelease(FaultClass::Nan),
            cost,
            attempts: 2,
            fault: Some(FaultClass::Nan),
        };
        assert!(fault.is_faulted());
        assert_eq!(fault.spent(), cost);
    }
}
