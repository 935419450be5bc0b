//! Reaching Definitions analysis for **active** signal values (Table 4).
//!
//! The analysis runs per process and tracks pairs `(s, l)` meaning "the
//! signal assignment at label `l` may (over-approximation `RD∪ϕ`) / must
//! (under-approximation `RD∩ϕ`) still be pending as the active value of `s`".
//!
//! * a signal assignment kills every other pending assignment to the same
//!   signal in the same process and generates its own pair;
//! * a `wait` statement synchronises all active values and therefore kills
//!   every pending assignment of the process.

use crate::cfg::DesignCfg;
use crate::framework::{Combine, DenseEquations, Solution, SolveExhausted};
use crate::RdOptions;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_syntax::{Design, Ident, Label};

/// A pending signal definition: `(signal, label of the assignment)`.
pub type SigDef = (Ident, Label);

/// Result of the active-signal Reaching Definitions analysis for a whole
/// design (labels are globally unique, so the per-process solutions are
/// stored in a single label-indexed map).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveRd {
    /// The over-approximation `RD∪ϕ`.
    pub over: Solution<SigDef>,
    /// The under-approximation `RD∩ϕ`.
    pub under: Solution<SigDef>,
}

impl ActiveRd {
    /// Signals that *may* be active at the entry of label `l`
    /// (`fst(RD∪ϕentry(l))`).
    pub fn may_be_active_at(&self, l: Label) -> BTreeSet<Ident> {
        self.over.entry_iter(l).map(|(s, _)| s.clone()).collect()
    }

    /// Signals that *must* be active at the entry of label `l`
    /// (`fst(RD∩ϕentry(l))`).
    pub fn must_be_active_at(&self, l: Label) -> BTreeSet<Ident> {
        self.under.entry_iter(l).map(|(s, _)| s.clone()).collect()
    }
}

/// Runs the active-signal Reaching Definitions analysis (both approximations)
/// on every process of `design`.
pub fn active_signals_rd(design: &Design, cfg: &DesignCfg, options: &RdOptions) -> ActiveRd {
    match active_signals_rd_bounded(design, cfg, options, u64::MAX) {
        Ok(rd) => rd,
        Err(e) => unreachable!("unbounded solve cannot exhaust: {e}"),
    }
}

/// [`active_signals_rd`] under a per-solve worklist step budget (each of the
/// two approximations may take up to `max_steps` steps).
///
/// # Errors
///
/// Returns [`SolveExhausted`] if either fixpoint fails to converge within
/// `max_steps` worklist iterations.
pub fn active_signals_rd_bounded(
    design: &Design,
    cfg: &DesignCfg,
    options: &RdOptions,
    max_steps: u64,
) -> Result<ActiveRd, SolveExhausted> {
    let over = build_equations(design, cfg, options, Combine::Union).solve_bounded(max_steps)?;
    let under = if options.use_under_approximation {
        build_equations(design, cfg, options, Combine::IntersectDotted).solve_bounded(max_steps)?
    } else {
        // Ablation: pretend nothing is ever guaranteed to be active.
        Solution::empty_for(cfg.labels())
    };
    Ok(ActiveRd { over, under })
}

fn build_equations(
    design: &Design,
    cfg: &DesignCfg,
    options: &RdOptions,
    combine: Combine,
) -> DenseEquations<SigDef> {
    let mut eq: DenseEquations<SigDef> = DenseEquations::new(combine);
    for pcfg in &cfg.processes {
        let with_loop = options.process_repeats;

        // Intern every signal-assignment pair of the process once; the
        // per-signal lists drive the assignment kills, the flat list the
        // wait kill.
        let mut per_signal: BTreeMap<&Ident, Vec<(Label, u32)>> = BTreeMap::new();
        for (l, block) in &pcfg.blocks {
            if let Some(s) = block.kind.assigned_signal() {
                let id = eq.intern((s.clone(), *l));
                per_signal.entry(s).or_default().push((*l, id));
            }
        }
        let all_assignments: Vec<u32> = per_signal
            .values()
            .flat_map(|defs| defs.iter().map(|&(_, id)| id))
            .collect();

        let mut preds = pcfg.predecessor_map(with_loop);
        for (l, block) in &pcfg.blocks {
            let row = eq.add_label(*l, preds.remove(l).unwrap_or_default());
            match &block.kind {
                crate::cfg::BlockKind::SignalAssign { target, .. } => {
                    let defs = &per_signal[&target.name];
                    for &(_, id) in defs {
                        eq.push_kill(row, id);
                    }
                    let own = defs
                        .iter()
                        .find(|(l2, _)| l2 == l)
                        .expect("own assignment is in the per-signal list")
                        .1;
                    eq.push_gen(row, own);
                }
                crate::cfg::BlockKind::Wait { .. } => eq.extend_kill(row, &all_assignments),
                _ => {}
            }
        }
        // The under-approximation treats the initial label as isolated: on the
        // very first entry nothing is guaranteed to be active, and the dotted
        // intersection with that empty path keeps it empty forever.
        if combine == Combine::IntersectDotted {
            let init_row = eq.row_of(pcfg.init).expect("init label was added");
            eq.force_entry(init_row);
        }
        let _ = design; // the design is only needed for documentation symmetry
    }
    eq
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_syntax::frontend;

    fn setup(body: &str) -> (Design, DesignCfg) {
        let src = format!(
            "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
               signal u : std_logic;
             begin
               p : process
                 variable x : std_logic;
               begin
                 {body}
               end process p;
             end rtl;"
        );
        let d = frontend(&src).unwrap();
        let cfg = DesignCfg::build(&d);
        (d, cfg)
    }

    fn run(body: &str) -> ActiveRd {
        let (d, cfg) = setup(body);
        active_signals_rd(&d, &cfg, &RdOptions::default())
    }

    #[test]
    fn assignment_reaches_following_wait() {
        // 1: t <= a; 2: wait
        let rd = run("t <= a; wait on a;");
        assert_eq!(rd.may_be_active_at(2), BTreeSet::from(["t".to_string()]));
        assert_eq!(rd.must_be_active_at(2), BTreeSet::from(["t".to_string()]));
        assert_eq!(rd.over.entry_of(2), BTreeSet::from([("t".to_string(), 1)]));
    }

    #[test]
    fn wait_kills_all_active_definitions() {
        // 1: t <= a; 2: wait; 3: u <= a; 4: wait
        let rd = run("t <= a; wait on a; u <= a; wait on a;");
        assert_eq!(rd.may_be_active_at(3), BTreeSet::new());
        assert_eq!(rd.may_be_active_at(4), BTreeSet::from(["u".to_string()]));
    }

    #[test]
    fn reassignment_kills_previous_definition_of_same_signal() {
        // 1: t <= a; 2: t <= b... use x (variable) to avoid port issue; 3: wait
        let rd = run("t <= a; t <= x; wait on a;");
        assert_eq!(rd.over.entry_of(3), BTreeSet::from([("t".to_string(), 2)]));
        assert_eq!(rd.under.entry_of(3), BTreeSet::from([("t".to_string(), 2)]));
    }

    #[test]
    fn branch_makes_definition_may_but_not_must() {
        // 1: if cond 2: t <= a else 3: null; 4: wait
        let rd = run("if a = '1' then t <= a; else null; end if; wait on a;");
        assert_eq!(rd.may_be_active_at(4), BTreeSet::from(["t".to_string()]));
        assert_eq!(rd.must_be_active_at(4), BTreeSet::new());
    }

    #[test]
    fn both_branches_assigning_intersect_per_definition() {
        let rd = run("if a = '1' then t <= a; else t <= x; end if; wait on a;");
        // Two distinct definitions may reach.
        assert_eq!(
            rd.over.entry_of(4),
            BTreeSet::from([("t".to_string(), 2), ("t".to_string(), 3)])
        );
        // The paper's under-approximation works over (signal, label) pairs, so
        // two different defining labels do not intersect: `t` is not reported
        // as guaranteed-active even though both branches assign it.  This is
        // the (sound, conservative) behaviour of Table 4.
        assert_eq!(rd.under.entry_of(4), BTreeSet::new());
        assert_eq!(rd.must_be_active_at(4), BTreeSet::new());
    }

    #[test]
    fn same_assignment_on_both_paths_is_must() {
        // The assignment before the conditional is on every path to the wait,
        // so its pair survives the intersection.
        let rd = run("t <= a; if a = '1' then x := a; else null; end if; wait on a;");
        assert_eq!(rd.must_be_active_at(5), BTreeSet::from(["t".to_string()]));
    }

    #[test]
    fn loop_back_makes_definitions_wrap_around_in_over_approximation() {
        // 1: t <= a; 2: wait -- after the wait the process restarts.
        let rd = run("t <= a; wait on a;");
        // Entry of label 1 on the second iteration comes from the wait, which
        // killed everything, so nothing is pending.
        assert_eq!(rd.may_be_active_at(1), BTreeSet::new());
        // Without the trailing wait the assignment wraps around:
        let rd2 = run("t <= a; u <= x; wait on a; null;");
        // label 4 is the null; label 1 receives the loop-back from 4.
        assert!(rd2.may_be_active_at(1).is_empty());
        assert_eq!(rd2.may_be_active_at(4), BTreeSet::new());
    }

    #[test]
    fn under_approximation_disabled_by_ablation_option() {
        let (d, cfg) = setup("t <= a; wait on a;");
        let rd = active_signals_rd(
            &d,
            &cfg,
            &RdOptions {
                use_under_approximation: false,
                ..Default::default()
            },
        );
        assert_eq!(rd.must_be_active_at(2), BTreeSet::new());
        assert_eq!(rd.may_be_active_at(2), BTreeSet::from(["t".to_string()]));
    }

    #[test]
    fn straight_line_mode_removes_loop_back() {
        let (d, cfg) = setup("t <= a; null; wait on a;");
        let rd = active_signals_rd(
            &d,
            &cfg,
            &RdOptions {
                process_repeats: false,
                ..Default::default()
            },
        );
        assert_eq!(rd.may_be_active_at(1), BTreeSet::new());
        assert_eq!(rd.may_be_active_at(2), BTreeSet::from(["t".to_string()]));
    }

    #[test]
    fn two_processes_do_not_interfere() {
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; end process p1;
               p2 : process begin b <= t; wait on t; end process p2;
             end rtl;";
        let d = frontend(src).unwrap();
        let cfg = DesignCfg::build(&d);
        let rd = active_signals_rd(&d, &cfg, &RdOptions::default());
        // Process 2's wait (label 4) sees only its own assignment to b.
        assert_eq!(rd.may_be_active_at(4), BTreeSet::from(["b".to_string()]));
        assert_eq!(rd.may_be_active_at(2), BTreeSet::from(["t".to_string()]));
    }
}
