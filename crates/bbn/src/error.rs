//! Error type shared by all Bayesian-network operations.

use std::fmt;

/// Result alias used throughout [`crate`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building, querying or learning a Bayesian network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A variable with this name was already declared.
    DuplicateVariable(String),
    /// The named variable does not exist in the network.
    UnknownVariable(String),
    /// A variable was declared with fewer than two states.
    TooFewStates {
        /// The offending variable name.
        variable: String,
        /// How many states were declared.
        states: usize,
    },
    /// The dependency graph contains a directed cycle through this variable.
    CycleDetected(String),
    /// A conditional probability table is missing or malformed.
    InvalidCpt {
        /// The variable whose CPT is malformed.
        variable: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// Evidence refers to an out-of-range state or malformed likelihood.
    InvalidEvidence {
        /// The variable the finding refers to.
        variable: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// A factor operation was given incompatible shapes.
    ShapeMismatch {
        /// Expected element or dimension count.
        expected: usize,
        /// Actual element or dimension count.
        actual: usize,
    },
    /// A factor operation referenced a variable outside the factor scope.
    NotInScope(String),
    /// The same variable appears twice in a factor scope.
    DuplicateInScope(String),
    /// The evidence has zero probability under the model.
    ImpossibleEvidence,
    /// A propagation workspace was read as calibrated but holds no
    /// calibrated beliefs.
    Uncalibrated,
    /// An absorption plan is not an outward walk of the tree from the
    /// finding's home clique.
    InvalidPlan(String),
    /// A read of this variable from an absorbed view whose plan does not
    /// reach the variable's home clique.
    NotOnPlan(String),
    /// A junction-tree clique has more cells than its compiled message
    /// index maps can address (`u32`).
    CliqueTooLarge {
        /// The clique's variables.
        variables: Vec<String>,
    },
    /// An iterative algorithm failed to converge.
    NotConverged {
        /// The algorithm that gave up.
        what: String,
        /// The iteration budget it exhausted.
        iterations: usize,
    },
    /// Learning was invoked with no cases.
    NoCases,
    /// Learning was invoked with cases that cannot inform a fit: every case
    /// was impossible under the starting model, or a case carried a
    /// non-finite or negative weight.
    UnusableCases {
        /// Human-readable explanation of why the datalog is unusable.
        reason: String,
    },
    /// (De)serialisation failure.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateVariable(name) => {
                write!(f, "variable `{name}` is already declared")
            }
            Error::UnknownVariable(name) => write!(f, "unknown variable `{name}`"),
            Error::TooFewStates { variable, states } => write!(
                f,
                "variable `{variable}` declared with {states} state(s); at least 2 required"
            ),
            Error::CycleDetected(name) => {
                write!(f, "dependency graph has a cycle through `{name}`")
            }
            Error::InvalidCpt { variable, reason } => {
                write!(f, "invalid CPT for `{variable}`: {reason}")
            }
            Error::InvalidEvidence { variable, reason } => {
                write!(f, "invalid evidence on `{variable}`: {reason}")
            }
            Error::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} values, got {actual}"
                )
            }
            Error::NotInScope(name) => write!(f, "variable `{name}` is not in the factor scope"),
            Error::DuplicateInScope(name) => {
                write!(f, "variable `{name}` appears twice in the factor scope")
            }
            Error::ImpossibleEvidence => {
                write!(f, "evidence has zero probability under the model")
            }
            Error::Uncalibrated => {
                write!(f, "workspace holds no calibrated beliefs; propagate first")
            }
            Error::InvalidPlan(reason) => write!(f, "invalid absorption plan: {reason}"),
            Error::NotOnPlan(name) => {
                write!(f, "variable `{name}` is off the absorption plan")
            }
            Error::CliqueTooLarge { variables } => write!(
                f,
                "junction-tree clique over {} has more than 2^32 cells",
                variables.join(", ")
            ),
            Error::NotConverged { what, iterations } => {
                write!(f, "{what} did not converge within {iterations} iterations")
            }
            Error::NoCases => write!(f, "no cases supplied for learning"),
            Error::UnusableCases { reason } => {
                write!(f, "cases cannot inform a fit: {reason}")
            }
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples = [
            Error::DuplicateVariable("x".into()),
            Error::UnknownVariable("y".into()),
            Error::TooFewStates {
                variable: "z".into(),
                states: 1,
            },
            Error::CycleDetected("w".into()),
            Error::InvalidCpt {
                variable: "v".into(),
                reason: "row 0 sums to 0".into(),
            },
            Error::InvalidEvidence {
                variable: "u".into(),
                reason: "state 9".into(),
            },
            Error::ShapeMismatch {
                expected: 4,
                actual: 3,
            },
            Error::NotInScope("t".into()),
            Error::DuplicateInScope("s".into()),
            Error::ImpossibleEvidence,
            Error::Uncalibrated,
            Error::InvalidPlan("step 0 -> 1".into()),
            Error::NotOnPlan("r".into()),
            Error::CliqueTooLarge {
                variables: vec!["a".into(), "b".into()],
            },
            Error::NotConverged {
                what: "EM".into(),
                iterations: 10,
            },
            Error::NoCases,
            Error::UnusableCases {
                reason: "every case was impossible".into(),
            },
            Error::Io("disk on fire".into()),
        ];
        for err in samples {
            let text = err.to_string();
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn from_io_error() {
        let io = std::io::Error::other("boom");
        let err: Error = io.into();
        assert_eq!(err, Error::Io("boom".into()));
    }
}
