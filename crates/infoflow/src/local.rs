//! Local dependency analysis (Table 6).
//!
//! The inference system `B ⊢ ss : RM` computes, per process, the Resource
//! Matrix of *local* dependencies: which resources are read and modified at
//! each label, taking implicit flows from enclosing `if`/`while` conditions
//! into account through the block set `B`.

use crate::rm::{Access, Node, ResourceMatrix};
use std::collections::BTreeSet;
use vhdl1_syntax::{Design, Expr, Ident, Stmt};

/// Computes the local Resource Matrix `RM_lo = ⋃_i RM_i` where
/// `∅ ⊢ ss_i : RM_i` for every process of the design.
pub fn local_dependencies(design: &Design) -> ResourceMatrix {
    let mut rm = ResourceMatrix::new();
    for process in &design.processes {
        let fs_body = design.process_free_signals(process.index);
        analyse_stmt(
            design,
            process.index,
            &process.body,
            &BTreeSet::new(),
            &fs_body,
            &mut rm,
        );
    }
    rm
}

/// Reads contributed by an expression: `FV(e) ∪ FS(e)` in the scope of
/// process `pidx`.
fn expr_reads(design: &Design, pidx: usize, e: &Expr) -> BTreeSet<Ident> {
    let mut out = design.free_vars(pidx, e);
    out.extend(design.free_signals(e));
    out
}

fn analyse_stmt(
    design: &Design,
    pidx: usize,
    stmt: &Stmt,
    block_set: &BTreeSet<Ident>,
    fs_body: &BTreeSet<Ident>,
    rm: &mut ResourceMatrix,
) {
    match stmt {
        Stmt::Null { .. } => {}
        Stmt::VarAssign {
            label,
            target,
            expr,
        } => {
            rm.insert(Node::res(target.name.clone()), *label, Access::M0);
            let mut reads = expr_reads(design, pidx, expr);
            reads.extend(block_set.iter().cloned());
            for n in reads {
                rm.insert(Node::res(n), *label, Access::R0);
            }
        }
        Stmt::SignalAssign {
            label,
            target,
            expr,
        } => {
            rm.insert(Node::res(target.name.clone()), *label, Access::M1);
            let mut reads = expr_reads(design, pidx, expr);
            reads.extend(block_set.iter().cloned());
            for n in reads {
                rm.insert(Node::res(n), *label, Access::R0);
            }
        }
        Stmt::Wait { label, on, until } => {
            // All free signals of the process body are synchronised here.
            for s in fs_body {
                rm.insert(Node::res(s.clone()), *label, Access::R1);
            }
            // The block set, the waited-on signals and the condition are read.
            let mut reads: BTreeSet<Ident> = block_set.clone();
            reads.extend(on.iter().cloned());
            reads.extend(expr_reads(design, pidx, until));
            for n in reads {
                rm.insert(Node::res(n), *label, Access::R0);
            }
        }
        Stmt::Seq(a, b) => {
            analyse_stmt(design, pidx, a, block_set, fs_body, rm);
            analyse_stmt(design, pidx, b, block_set, fs_body, rm);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let mut extended = block_set.clone();
            extended.extend(expr_reads(design, pidx, cond));
            analyse_stmt(design, pidx, then_branch, &extended, fs_body, rm);
            analyse_stmt(design, pidx, else_branch, &extended, fs_body, rm);
        }
        Stmt::While { cond, body, .. } => {
            let mut extended = block_set.clone();
            extended.extend(expr_reads(design, pidx, cond));
            analyse_stmt(design, pidx, body, &extended, fs_body, rm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_syntax::frontend;

    fn rm_for(body: &str) -> ResourceMatrix {
        let src = format!(
            "entity e is port(a : in std_logic; c : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p : process
                 variable x : std_logic;
                 variable y : std_logic;
               begin
                 {body}
               end process p;
             end rtl;"
        );
        local_dependencies(&frontend(&src).unwrap())
    }

    #[test]
    fn variable_assignment_records_m0_and_reads() {
        // 1: x := a and y
        let rm = rm_for("x := a and y; wait on a;");
        assert!(rm.contains(&Node::res("x"), 1, Access::M0));
        assert!(rm.contains(&Node::res("a"), 1, Access::R0));
        assert!(rm.contains(&Node::res("y"), 1, Access::R0));
        assert!(!rm.contains(&Node::res("x"), 1, Access::R0));
    }

    #[test]
    fn signal_assignment_records_m1() {
        let rm = rm_for("t <= x; wait on a;");
        assert!(rm.contains(&Node::res("t"), 1, Access::M1));
        assert!(rm.contains(&Node::res("x"), 1, Access::R0));
        assert!(!rm.contains(&Node::res("t"), 1, Access::M0));
    }

    #[test]
    fn implicit_flows_from_conditions() {
        // 1: if c 2: x := a 3: null; 4: wait
        let rm = rm_for("if c = '1' then x := a; else null; end if; wait on a;");
        assert!(rm.contains(&Node::res("x"), 2, Access::M0));
        assert!(rm.contains(&Node::res("a"), 2, Access::R0));
        // The condition variable is read wherever the branch modifies something.
        assert!(rm.contains(&Node::res("c"), 2, Access::R0));
        // The condition label itself carries no entries (Table 6).
        assert!(rm.at_label(1).next().is_none());
    }

    #[test]
    fn nested_conditions_accumulate_block_set() {
        let rm = rm_for("if c = '1' then if a = '1' then x := y; end if; end if; wait on a;");
        // x := y is label 3; both c and a are in its block set.
        assert!(rm.contains(&Node::res("c"), 3, Access::R0));
        assert!(rm.contains(&Node::res("a"), 3, Access::R0));
        assert!(rm.contains(&Node::res("y"), 3, Access::R0));
    }

    #[test]
    fn while_condition_flows_into_body() {
        let rm = rm_for("while c = '1' loop x := a; end loop; wait on a;");
        assert!(rm.contains(&Node::res("c"), 2, Access::R0));
        assert!(rm.contains(&Node::res("x"), 2, Access::M0));
    }

    #[test]
    fn wait_synchronises_all_free_signals_of_the_process() {
        // Free signals of the body: a (read), t (assigned), c (in condition).
        // Labels: 1 t<=a, 2 if-cond, 3 x:=a, 4 implicit null (else), 5 wait.
        let rm = rm_for("t <= a; if c = '1' then x := a; end if; wait on a until c = '1';");
        let wait_label = 5;
        assert!(rm.contains(&Node::res("t"), wait_label, Access::R1));
        assert!(rm.contains(&Node::res("a"), wait_label, Access::R1));
        assert!(rm.contains(&Node::res("c"), wait_label, Access::R1));
        // The waited-on signal and the condition's names are read (R0).
        assert!(rm.contains(&Node::res("a"), wait_label, Access::R0));
        assert!(rm.contains(&Node::res("c"), wait_label, Access::R0));
    }

    #[test]
    fn null_contributes_nothing() {
        let rm = rm_for("null; wait on a;");
        assert!(rm.at_label(1).next().is_none());
    }

    #[test]
    fn program_a_of_the_paper() {
        // (a): [c := b]^1; [b := a]^2 with plain variables.
        let src = "entity e is port(inp : in std_logic); end e;
             architecture rtl of e is begin
               p : process
                 variable a : std_logic;
                 variable b : std_logic;
                 variable c : std_logic;
               begin
                 c := b;
                 b := a;
               end process p;
             end rtl;";
        let rm = local_dependencies(&frontend(src).unwrap());
        assert!(rm.contains(&Node::res("c"), 1, Access::M0));
        assert!(rm.contains(&Node::res("b"), 1, Access::R0));
        assert!(rm.contains(&Node::res("b"), 2, Access::M0));
        assert!(rm.contains(&Node::res("a"), 2, Access::R0));
        assert_eq!(rm.len(), 4);
    }
}
