//! Error types for generation and execution.

use gospel_lang::SpecError;
use std::fmt;

/// Error turning a specification into an optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum GenerateError {
    /// The specification failed validation.
    Spec(SpecError),
    /// A construct the generator does not support (mirrors the paper's
    /// listed prototype restrictions).
    Unsupported(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Spec(e) => write!(f, "invalid specification: {e}"),
            GenerateError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<SpecError> for GenerateError {
    fn from(e: SpecError) -> Self {
        GenerateError::Spec(e)
    }
}

/// Error while running a generated optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// Dependence analysis failed (malformed program).
    Analyze(String),
    /// An action referenced something that no longer exists or evaluated to
    /// the wrong kind of value.
    Action(String),
    /// The optimizer kept finding the same application point; the driver
    /// aborted after its application budget (guards against specifications
    /// whose actions do not invalidate their own precondition).
    Diverged {
        /// The budget that was exhausted.
        limit: usize,
    },
    /// No optimizer with the requested name is registered.
    UnknownOptimizer {
        /// The name that failed to resolve.
        name: String,
    },
    /// A panic escaped search or action code and was contained at the
    /// session boundary (see `GuardedSession` in the guard crate).
    Internal(String),
    /// The wall-clock budget for one `apply` call ran out.
    Timeout {
        /// The configured budget, in milliseconds.
        ms: u64,
    },
    /// The search-cost budget (pattern checks + dependence checks +
    /// transformation operations) ran out.
    FuelExhausted {
        /// The configured budget.
        limit: u64,
    },
    /// The transformed program grew past the configured multiple of its
    /// original statement count — a runaway expansion (e.g. an unrolling
    /// spec with a broken guard).
    GrowthLimit {
        /// Statement count when the driver aborted.
        statements: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Analyze(m) => write!(f, "dependence analysis failed: {m}"),
            RunError::Action(m) => write!(f, "action failed: {m}"),
            RunError::Diverged { limit } => {
                write!(f, "optimizer did not converge within {limit} applications")
            }
            RunError::UnknownOptimizer { name } => {
                write!(f, "no optimizer named `{name}` registered")
            }
            RunError::Internal(m) => write!(f, "internal error (contained panic): {m}"),
            RunError::Timeout { ms } => write!(f, "optimizer exceeded its {ms} ms time budget"),
            RunError::FuelExhausted { limit } => {
                write!(f, "optimizer exhausted its search-cost budget of {limit}")
            }
            RunError::GrowthLimit { statements, limit } => write!(
                f,
                "program grew to {statements} statements, past the growth cap of {limit}"
            ),
        }
    }
}

impl RunError {
    /// The [`RunError::Internal`] for a panic caught by `catch_unwind`,
    /// carrying the panic's message when its payload is a string.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> RunError {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        RunError::Internal(msg)
    }
}

impl std::error::Error for RunError {}
