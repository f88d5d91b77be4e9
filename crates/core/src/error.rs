use accpar_dnn::NetworkError;
use accpar_hw::HwError;
use accpar_sim::SimError;
use std::fmt;

/// Errors produced while planning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The network could not be analyzed.
    Network(NetworkError),
    /// The array could not be bisected as requested.
    Hw(HwError),
    /// The produced plan failed simulation-time validation (indicates a
    /// planner bug).
    Sim(SimError),
    /// The search was configured with an empty set of partition types.
    EmptySearchSpace,
    /// No plan fits the array's HBM, even with every weight sharded.
    Infeasible {
        /// Peak per-leaf bytes of the best attempt.
        required_bytes: f64,
        /// Peak occupancy (bytes / capacity) of the best attempt.
        occupancy: f64,
    },
    /// The hardware surviving a fault scenario cannot host a plan at
    /// all (e.g. too few boards left to bisect).
    ReplanInfeasible(String),
    /// An input does not line up with the search: wrong number of shard
    /// scales or plan entries, or a plan type outside the configured
    /// space.
    Mismatch(String),
    /// A request was configured with invalid knobs (zero thread budget,
    /// zero hierarchy depth); reported by
    /// [`PlanRequest::build`](crate::PlanRequest::build), and by the
    /// `validate` methods of the serving and supervisor configurations.
    Config(String),
    /// A [`Budget`](accpar_runtime::Budget) stopped the search before
    /// any plan could be assembled. The planner converts this into a
    /// partial result internally; it only surfaces from direct
    /// level-searcher use.
    Interrupted(accpar_runtime::StopReason),
    /// A worker closure panicked through every retry attempt and the
    /// serial fallback; the panic was isolated instead of unwinding
    /// through the planner.
    WorkerPanic {
        /// Total attempts made on the failing unit (retries + 1).
        attempts: u32,
        /// Panic payload, when it was a string.
        message: String,
    },
    /// A cost table produced a non-finite value (NaN or infinity, e.g.
    /// from a zero-bandwidth link under the full objective): the DP
    /// `min` comparisons would silently drop such entries, so the
    /// search refuses to run on them.
    NonFinite(String),
    /// A batch-serving request was shed because the queue exceeded the
    /// configured bound (see [`ServeConfig`](crate::ServeConfig)).
    Overloaded {
        /// Requests in the submitted batch.
        depth: usize,
        /// Configured queue bound.
        bound: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Network(e) => write!(f, "network error: {e}"),
            PlanError::Hw(e) => write!(f, "hardware error: {e}"),
            PlanError::Sim(e) => write!(f, "simulation error: {e}"),
            PlanError::EmptySearchSpace => {
                write!(f, "search space must contain at least one partition type")
            }
            PlanError::Infeasible {
                required_bytes,
                occupancy,
            } => write!(
                f,
                "no plan fits the array's memory: peak {:.2} GB per leaf ({:.0}% of HBM)",
                required_bytes / 1e9,
                occupancy * 100.0
            ),
            PlanError::ReplanInfeasible(msg) => {
                write!(f, "cannot re-plan on the surviving hardware: {msg}")
            }
            PlanError::Mismatch(msg) => {
                write!(f, "input does not match the search: {msg}")
            }
            PlanError::Config(msg) => {
                write!(f, "invalid planner configuration: {msg}")
            }
            PlanError::Interrupted(reason) => {
                write!(f, "search interrupted by its budget: {reason}")
            }
            PlanError::WorkerPanic { attempts, message } => {
                write!(f, "worker panicked after {attempts} attempt(s): {message}")
            }
            PlanError::NonFinite(msg) => {
                write!(f, "non-finite cost in the search space: {msg}")
            }
            PlanError::Overloaded { depth, bound } => {
                write!(
                    f,
                    "request shed: queue depth {depth} exceeds the bound of {bound}"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Network(e) => Some(e),
            PlanError::Hw(e) => Some(e),
            PlanError::Sim(e) => Some(e),
            PlanError::EmptySearchSpace
            | PlanError::Infeasible { .. }
            | PlanError::ReplanInfeasible(_)
            | PlanError::Mismatch(_)
            | PlanError::Config(_)
            | PlanError::Interrupted(_)
            | PlanError::WorkerPanic { .. }
            | PlanError::NonFinite(_)
            | PlanError::Overloaded { .. } => None,
        }
    }
}

impl From<NetworkError> for PlanError {
    fn from(e: NetworkError) -> Self {
        PlanError::Network(e)
    }
}

impl From<HwError> for PlanError {
    fn from(e: HwError) -> Self {
        PlanError::Hw(e)
    }
}

impl From<SimError> for PlanError {
    fn from(e: SimError) -> Self {
        PlanError::Sim(e)
    }
}

impl From<accpar_runtime::StopReason> for PlanError {
    fn from(reason: accpar_runtime::StopReason) -> Self {
        PlanError::Interrupted(reason)
    }
}

impl From<accpar_runtime::WorkerPanic> for PlanError {
    fn from(e: accpar_runtime::WorkerPanic) -> Self {
        PlanError::WorkerPanic {
            attempts: e.attempts,
            message: e.message,
        }
    }
}

impl From<accpar_cost::NonFiniteCost> for PlanError {
    fn from(e: accpar_cost::NonFiniteCost) -> Self {
        PlanError::NonFinite(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanError>();
    }

    #[test]
    fn conversions_and_sources() {
        use std::error::Error;
        let e: PlanError = HwError::EmptyArray.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("hardware"));
        assert!(PlanError::EmptySearchSpace.source().is_none());
    }
}
