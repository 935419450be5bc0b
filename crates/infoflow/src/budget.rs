//! Resource budgets and cooperative cancellation for analysis sessions.
//!
//! A [`Budget`] bounds every stage of the pipeline — front end, Reaching
//! Definitions, closures, simulation — plus an optional wall-clock deadline.
//! Budgets are **cooperative**: each stage checks its own counter at
//! iteration boundaries and the deadline/cancel flag is checked at *stage*
//! boundaries, so exhaustion surfaces as a structured
//! [`crate::EngineError::ResourceExhausted`] instead of a hang or abort.
//! Pure counter limits are deterministic (the same source and budget always
//! truncate at the same point); the wall-clock deadline and the
//! [`CancelFlag`] are not, which is why they are checked *before* a stage
//! is memoized rather than recorded into shared memo slots.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-stage resource limits of an analysis session.
///
/// Every field is optional; `None` means unlimited.  The budget is part of
/// [`crate::AnalysisOptions`] and therefore participates in the engine's
/// memo key: analyses under different budgets never share memo slots, which
/// keeps truncation points byte-identical across runs and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Budget {
    /// Maximum accepted source length in bytes (checked before lexing).
    pub max_source_bytes: Option<u64>,
    /// Maximum parser nesting depth (expressions, statements, blocks).
    /// Clamped to the parser's own stack-safety bound
    /// ([`vhdl1_syntax::DEFAULT_PARSE_DEPTH`]).
    pub max_parse_depth: Option<u32>,
    /// Maximum worklist iterations per Reaching Definitions fixpoint solve.
    pub max_dataflow_steps: Option<u64>,
    /// Maximum worklist pops per closure (Table 8 or Table 9): one pop per
    /// `R0` entry of the closed matrix.
    pub max_closure_iterations: Option<u64>,
    /// Maximum delta cycles in a smoke simulation (further capped by the
    /// caller's own `max_deltas` argument).
    pub max_sim_deltas: Option<u64>,
    /// Maximum total statement steps in a smoke simulation, summed over all
    /// processes and delta cycles.
    pub max_sim_steps: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from the creation of
    /// each [`crate::Analysis`] handle and checked at stage boundaries.
    /// Unlike every other limit, deadline exhaustion is **not** memoized.
    pub deadline_ms: Option<u64>,
}

impl Budget {
    /// No limits at all — the default.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A deliberately tight budget for adversarial or untrusted inputs:
    /// small sources, shallow nesting, and fixpoint/simulation caps low
    /// enough that the hostile corpus family exhausts them.
    pub fn tight() -> Budget {
        Budget {
            max_source_bytes: Some(16_384),
            max_parse_depth: Some(64),
            max_dataflow_steps: Some(20_000),
            max_closure_iterations: Some(10_000),
            max_sim_deltas: Some(1_000),
            max_sim_steps: Some(200_000),
            deadline_ms: None,
        }
    }

    /// A generous serving budget: large enough for any realistic design,
    /// small enough that nothing can spin unboundedly.
    pub fn standard() -> Budget {
        Budget {
            max_source_bytes: Some(4 * 1024 * 1024),
            max_parse_depth: None,
            max_dataflow_steps: Some(2_000_000),
            max_closure_iterations: Some(1_000_000),
            max_sim_deltas: Some(20_000),
            max_sim_steps: Some(20_000_000),
            deadline_ms: None,
        }
    }

    /// Whether every field is `None` (no limits configured).
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Parses a named preset: `"tight"`, `"standard"` or `"unlimited"`.
    pub fn preset(name: &str) -> Option<Budget> {
        match name {
            "tight" => Some(Budget::tight()),
            "standard" => Some(Budget::standard()),
            "unlimited" => Some(Budget::unlimited()),
            _ => None,
        }
    }
}

/// A cooperative cancellation flag shared between an analysis and an
/// external watchdog.
///
/// Cancellation is observed at stage boundaries (the same places the
/// wall-clock deadline is checked): a cancelled analysis finishes its
/// current stage and then reports
/// [`crate::EngineError::ResourceExhausted`] with the `deadline` stage.
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// Creates a fresh, uncancelled flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation; observed at the next stage boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Budget::preset("tight"), Some(Budget::tight()));
        assert_eq!(Budget::preset("standard"), Some(Budget::standard()));
        assert_eq!(Budget::preset("unlimited"), Some(Budget::unlimited()));
        assert_eq!(Budget::preset("bogus"), None);
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::tight().is_unlimited());
    }

    #[test]
    fn cancel_flag_is_shared_between_clones() {
        let flag = CancelFlag::new();
        let observer = flag.clone();
        assert!(!observer.is_cancelled());
        flag.cancel();
        assert!(observer.is_cancelled());
    }
}
