//! [`AnalysisError`]: why a function's liveness analysis produced no
//! answer — the typed alternative to letting a panic or a poisoned
//! lock take the process down.
//!
//! The paper's algorithm itself is total: every well-formed query has
//! an answer. Failures enter through the *system* around it — a
//! precomputation that panics on a pathological input, a detached
//! definition at a point query. Engines catch those and return this
//! error per function, so one bad function degrades to one failed
//! result while every other function keeps answering.

use crate::provider::PointError;

/// A per-function analysis failure. Returned by engine-level entry
/// points (`EngineSession` queries, `AnalysisEngine::destruct_module`)
/// instead of unwinding: callers always receive a correct answer or a
/// typed error, never a crash from another tenant's function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The precomputation (or a fault-injection hook standing in for
    /// it) panicked. The payload is the panic message when it carried
    /// one. The in-flight slot for the function's CFG shape was
    /// abandoned; a later probe of the same shape retries from
    /// scratch.
    ComputePanicked {
        /// The panic payload, stringified (`"<non-string panic>"` when
        /// the payload was neither `&str` nor `String`).
        message: String,
    },
    /// A point-granularity query failed (see [`PointError`]).
    Point(PointError),
}

impl From<PointError> for AnalysisError {
    fn from(e: PointError) -> Self {
        AnalysisError::Point(e)
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::ComputePanicked { message } => {
                write!(f, "liveness precomputation panicked: {message}")
            }
            AnalysisError::Point(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Point(e) => Some(e),
            AnalysisError::ComputePanicked { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::Value;

    #[test]
    fn displays_and_converts() {
        let e = AnalysisError::ComputePanicked {
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        let v = Value::from_index(3);
        let p: AnalysisError = PointError::DefinitionRemoved(v).into();
        assert_eq!(p, AnalysisError::Point(PointError::DefinitionRemoved(v)));
        assert!(std::error::Error::source(&p).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
