//! # `vhdl1-dataflow` — Reaching Definitions analyses for VHDL1
//!
//! This crate implements Section 4 of *Information Flow Analysis for VHDL*
//! (Tolstrup, Nielson & Nielson, PaCT 2005):
//!
//! * control-flow graphs of process bodies ([`mod@cfg`]),
//! * the cross-flow relation `cf` over synchronisation points ([`crossflow`]),
//! * a generic monotone-framework solver ([`framework`]),
//! * the Reaching Definitions analysis for **active** signal values with its
//!   over- and under-approximations ([`active`], Table 4),
//! * the Reaching Definitions analysis for local variables and **present**
//!   signal values ([`present`], Table 5).
//!
//! ```
//! use vhdl1_dataflow::{ReachingDefinitions, RdOptions};
//!
//! let design = vhdl1_syntax::frontend(
//!     "entity e is port(a : in std_logic; b : out std_logic); end e;
//!      architecture rtl of e is begin
//!        p : process begin b <= a; wait on a; end process p;
//!      end rtl;")?;
//! let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
//! assert!(rd.active.may_be_active_at(2).contains("b"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod cfg;
pub mod crossflow;
pub mod dense;
pub mod framework;
pub mod present;
#[cfg(any(test, feature = "setref"))]
pub mod setref;

pub use active::{active_signals_rd, active_signals_rd_bounded, ActiveRd, SigDef};
pub use cfg::{BasicBlock, BlockKind, DesignCfg, ProcessCfg};
pub use crossflow::{CrossFlow, SyncSummary};
pub use dense::FactInterner;
pub use framework::{solve, Combine, DenseEquations, Equations, Solution, SolveExhausted};
pub use present::{present_rd, present_rd_bounded, Def, PresentRd, ResDef};

use serde::{Deserialize, Serialize};
use vhdl1_syntax::Design;

/// Options shared by the Reaching Definitions analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdOptions {
    /// Model each process as repeating indefinitely (`null; while '1' do ss`,
    /// Section 3.2) by adding loop-back edges.  Disable to analyse the
    /// straight-line illustration programs of Figures 3 and 4 exactly as the
    /// paper presents them.
    pub process_repeats: bool,
    /// Use the under-approximation `RD∩ϕ` to kill present-value definitions
    /// at synchronisation points (Table 5).  Disabling this is the ablation
    /// discussed in DESIGN.md: every wait-definition of a signal survives.
    pub use_under_approximation: bool,
    /// Additionally kill the initial-value definition `(s, ?)` at a wait when
    /// `s` is guaranteed to be re-synchronised.  The paper's Table 5 keeps the
    /// `?` definition; this switch explores the (more aggressive) variant.
    pub kill_initial_at_wait: bool,
}

impl Default for RdOptions {
    fn default() -> Self {
        RdOptions {
            process_repeats: true,
            use_under_approximation: true,
            kill_initial_at_wait: false,
        }
    }
}

/// Bundle of every artefact of the Reaching Definitions phase, computed in
/// the order mandated by the paper (active signals first, then present
/// values).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachingDefinitions {
    /// The options the analyses were run with.
    pub options: RdOptions,
    /// Control-flow graphs of every process.
    pub cfg: DesignCfg,
    /// The cross-flow relation over wait statements.
    pub cross: CrossFlow,
    /// Reaching Definitions for active signal values (Table 4).
    pub active: ActiveRd,
    /// Reaching Definitions for variables and present signal values (Table 5).
    pub present: PresentRd,
}

impl ReachingDefinitions {
    /// Computes all Reaching Definitions artefacts for `design`.
    pub fn compute(design: &Design, options: &RdOptions) -> ReachingDefinitions {
        match ReachingDefinitions::compute_bounded(design, options, u64::MAX) {
            Ok(rd) => rd,
            Err(e) => unreachable!("unbounded solve cannot exhaust: {e}"),
        }
    }

    /// [`ReachingDefinitions::compute`] under a worklist step budget: each of
    /// the three fixpoint solves (active over, active under, present) may take
    /// up to `max_steps` worklist iterations.
    ///
    /// # Errors
    ///
    /// Returns [`SolveExhausted`] if any fixpoint fails to converge within
    /// the budget.
    pub fn compute_bounded(
        design: &Design,
        options: &RdOptions,
        max_steps: u64,
    ) -> Result<ReachingDefinitions, SolveExhausted> {
        let cfg = DesignCfg::build(design);
        let cross = CrossFlow::build(design);
        let active = active_signals_rd_bounded(design, &cfg, options, max_steps)?;
        let present = present_rd_bounded(design, &cfg, &cross, &active, options, max_steps)?;
        Ok(ReachingDefinitions {
            options: *options,
            cfg,
            cross,
            active,
            present,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bundles_all_phases() {
        let design = vhdl1_syntax::frontend(
            "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is begin
               p : process begin b <= a; wait on a; end process p;
             end rtl;",
        )
        .unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        assert_eq!(rd.cfg.processes.len(), 1);
        assert!(rd.cross.is_nonempty());
        assert!(rd.active.may_be_active_at(2).contains("b"));
        assert!(rd
            .present
            .definitions_reaching(1, "a")
            .contains(&present::Def::Init));
    }

    #[test]
    fn default_options_are_paper_faithful() {
        let o = RdOptions::default();
        assert!(o.process_repeats);
        assert!(o.use_under_approximation);
        assert!(!o.kill_initial_at_wait);
    }
}
