//! A monotone-framework solver for forward data-flow equation systems over
//! powerset lattices, in the style of *Principles of Program Analysis*.
//!
//! Both Reaching Definitions analyses of the paper are instances: the
//! over-approximation combines predecessor information by union, the
//! under-approximation by the *dotted intersection* operator `⋂̇` of
//! Section 4.1 (`⋂̇ ∅ = ∅`), which keeps the least solution of the equation
//! system well-defined.
//!
//! ## Dense engine
//!
//! The solver works on an interned dense representation: every fact is
//! mapped to a `u32` id by a [`FactInterner`], per-label entry/exit values
//! are fixed-width bitset rows (`u64` words, [`crate::dense::BitMatrix`]),
//! and gen/kill sets are precomputed masks, so a transfer function is
//! `exit = (entry & !kill) | gen` evaluated word-wise.  The worklist
//! propagates only changed words: a union along an edge updates the exit row
//! in the same pass over exactly the words the entry row gained.
//!
//! Equation systems can be built two ways:
//!
//! * [`Equations`] — the set-based builder (facts in `BTreeSet`s).  [`solve`]
//!   lowers it to dense form internally.  A reference set-based solver over
//!   the same type is kept as a differential-testing oracle in
//!   `crate::setref` (behind the `setref` feature outside of tests).
//! * [`DenseEquations`] — the dense builder used by the hot analyses
//!   ([`crate::active`], [`crate::present`]): facts are interned once and
//!   gen/kill sets are pushed as id lists, so constructing the system never
//!   materialises fact sets.
//!
//! The least [`Solution`] stays dense and decodes rows back to `BTreeSet`s
//! lazily (memoised per label) through [`Solution::entry_ref`] /
//! [`Solution::exit_ref`]; [`Solution::entry_iter`] iterates borrowed facts
//! without materialising a set at all.

use crate::dense::{iter_ones, words_for, BitMatrix, FactInterner};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::OnceLock;
use vhdl1_syntax::Label;

/// How information flowing from several predecessors is combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Combine {
    /// May-analysis: union of predecessor exit sets.
    Union,
    /// Must-analysis: the dotted intersection `⋂̇` (`⋂̇ ∅ = ∅`).
    IntersectDotted,
}

/// A forward data-flow equation system over a powerset of facts `F`, in
/// set-based form.
///
/// This is the convenient builder: facts are collected into `BTreeSet`s and
/// [`solve`] interns them on the way into the dense engine.  Hot callers
/// construct a [`DenseEquations`] directly instead.
#[derive(Debug, Clone)]
pub struct Equations<F> {
    /// All labels of the system.
    pub labels: Vec<Label>,
    /// Predecessors of each label under the flow relation.
    pub preds: BTreeMap<Label, Vec<Label>>,
    /// How predecessor exits are combined into an entry value.
    pub combine: Combine,
    /// Extra facts (`ι`) unioned into the entry of selected labels.
    pub iota: BTreeMap<Label, BTreeSet<F>>,
    /// Entries forced to a fixed value regardless of predecessors (used for
    /// the isolated-entry treatment of the under-approximation).
    pub forced_entry: BTreeMap<Label, BTreeSet<F>>,
    /// Kill set of each label.
    pub kill: BTreeMap<Label, BTreeSet<F>>,
    /// Gen set of each label.
    pub gen: BTreeMap<Label, BTreeSet<F>>,
}

impl<F: Ord + Clone> Default for Equations<F> {
    fn default() -> Self {
        Equations {
            labels: Vec::new(),
            preds: BTreeMap::new(),
            combine: Combine::Union,
            iota: BTreeMap::new(),
            forced_entry: BTreeMap::new(),
            kill: BTreeMap::new(),
            gen: BTreeMap::new(),
        }
    }
}

/// A forward data-flow equation system in interned dense form.
///
/// Labels are added with [`DenseEquations::add_label`] (which returns the
/// label's row index), facts are interned to ids once, and gen/kill/ι sets
/// are sparse id lists that [`DenseEquations::solve`] turns into bitset
/// masks.  See the [module documentation](self) for how this fits together.
#[derive(Debug, Clone)]
pub struct DenseEquations<F> {
    combine: Combine,
    labels: Vec<Label>,
    index: HashMap<Label, usize>,
    preds: Vec<Vec<Label>>,
    gen: Vec<Vec<u32>>,
    kill: Vec<Vec<u32>>,
    iota: Vec<Vec<u32>>,
    forced: Vec<Option<Vec<u32>>>,
    interner: FactInterner<F>,
}

impl<F: Eq + Hash + Ord + Clone> DenseEquations<F> {
    /// Creates an empty system with the given combination operator.
    pub fn new(combine: Combine) -> Self {
        DenseEquations {
            combine,
            labels: Vec::new(),
            index: HashMap::new(),
            preds: Vec::new(),
            gen: Vec::new(),
            kill: Vec::new(),
            iota: Vec::new(),
            forced: Vec::new(),
            interner: FactInterner::new(),
        }
    }

    /// Adds a label with its predecessor list and returns its row index.
    /// Labels must be unique; predecessors may reference labels added later.
    pub fn add_label(&mut self, label: Label, preds: Vec<Label>) -> usize {
        debug_assert!(!self.index.contains_key(&label), "duplicate label {label}");
        let row = self.labels.len();
        self.labels.push(label);
        self.index.insert(label, row);
        self.preds.push(preds);
        self.gen.push(Vec::new());
        self.kill.push(Vec::new());
        self.iota.push(Vec::new());
        self.forced.push(None);
        row
    }

    /// The row index of `label`, if it has been added.
    pub fn row_of(&self, label: Label) -> Option<usize> {
        self.index.get(&label).copied()
    }

    /// Interns a fact, returning its dense id.
    pub fn intern(&mut self, fact: F) -> u32 {
        self.interner.intern(fact)
    }

    /// Interns a fact by reference (cloning only on first sight).
    pub fn intern_ref(&mut self, fact: &F) -> u32 {
        self.interner.intern_ref(fact)
    }

    /// Adds fact id `id` to the gen set of row `row`.
    pub fn push_gen(&mut self, row: usize, id: u32) {
        self.gen[row].push(id);
    }

    /// Adds fact id `id` to the kill set of row `row`.
    pub fn push_kill(&mut self, row: usize, id: u32) {
        self.kill[row].push(id);
    }

    /// Adds every id of `ids` to the kill set of row `row`.
    pub fn extend_kill(&mut self, row: usize, ids: &[u32]) {
        self.kill[row].extend_from_slice(ids);
    }

    /// Adds fact id `id` to the `ι` (initial facts) set of row `row`.
    pub fn push_iota(&mut self, row: usize, id: u32) {
        self.iota[row].push(id);
    }

    /// Forces the entry of row `row` to a fixed value (initially empty; add
    /// facts with [`DenseEquations::push_forced`]).  A forced entry ignores
    /// predecessors and `ι`.
    pub fn force_entry(&mut self, row: usize) {
        self.forced[row].get_or_insert_with(Vec::new);
    }

    /// Adds fact id `id` to the forced entry of row `row` (forcing it first
    /// if necessary).
    pub fn push_forced(&mut self, row: usize, id: u32) {
        self.forced[row].get_or_insert_with(Vec::new).push(id);
    }

    /// Computes the least solution of the system by worklist iteration from
    /// the empty assignment.  All transfer functions of the framework are
    /// monotone, so the iteration converges to the least fixed point.
    pub fn solve(self) -> Solution<F> {
        match self.solve_bounded(u64::MAX) {
            Ok(sol) => sol,
            Err(e) => unreachable!("unbounded solve cannot exhaust {e}"),
        }
    }

    /// [`DenseEquations::solve`] under a worklist-iteration budget: solving
    /// stops with [`SolveExhausted`] once `max_steps` labels have been popped
    /// off the worklist.  The step count is a deterministic function of the
    /// equation system, so the same system and budget always exhaust (or
    /// converge) identically.
    pub fn solve_bounded(self, max_steps: u64) -> Result<Solution<F>, SolveExhausted> {
        let n = self.labels.len();
        let nf = self.interner.len();
        let words = words_for(nf);

        let fill = |rows: &[Vec<u32>]| {
            let mut m = BitMatrix::zeroed(n, words);
            for (r, ids) in rows.iter().enumerate() {
                for &id in ids {
                    m.set(r, id);
                }
            }
            m
        };
        let gen = fill(&self.gen);
        let kill = fill(&self.kill);

        // Resolve predecessor labels to row indices and build the successor
        // lists used for worklist propagation.  A predecessor outside the
        // label set has a bottom-valued (empty) exit forever: under union it
        // contributes nothing and is dropped, under `⋂̇` it absorbs the whole
        // intersection, which `bottom_pred` records.
        let mut preds: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut bottom_pred: Vec<bool> = vec![false; n];
        for (r, ps) in self.preds.iter().enumerate() {
            let mut rows: Vec<usize> = Vec::with_capacity(ps.len());
            for p in ps {
                match self.index.get(p) {
                    Some(&row) => rows.push(row),
                    None => bottom_pred[r] = true,
                }
            }
            for &p in &rows {
                succs[p].push(r);
            }
            preds.push(rows);
        }

        // Initial assignment: entry = forced | ι, exit = (entry & !kill) | gen.
        let mut entry = BitMatrix::zeroed(n, words);
        let mut exit = BitMatrix::zeroed(n, words);
        for r in 0..n {
            match &self.forced[r] {
                Some(ids) => {
                    for &id in ids {
                        entry.set(r, id);
                    }
                }
                None => {
                    for &id in &self.iota[r] {
                        entry.set(r, id);
                    }
                }
            }
            let (e, k, g) = (entry.row(r), kill.row(r), gen.row(r));
            for w in 0..words {
                let x = (e[w] & !k[w]) | g[w];
                exit.row_mut(r)[w] = x;
            }
        }

        let mut worklist: VecDeque<usize> = (0..n).collect();
        let mut queued: Vec<bool> = vec![true; n];
        let mut steps: u64 = 0;
        macro_rules! charge_step {
            () => {
                steps += 1;
                if steps > max_steps {
                    return Err(SolveExhausted {
                        steps,
                        limit: max_steps,
                    });
                }
            };
        }

        match self.combine {
            // Producer-driven propagation: popping `r` pushes its exit row
            // into every successor, updating entry and exit together over
            // exactly the words that changed.
            Combine::Union => {
                let mut src = vec![0u64; words];
                while let Some(r) = worklist.pop_front() {
                    charge_step!();
                    queued[r] = false;
                    src.copy_from_slice(exit.row(r));
                    for &s in &succs[r] {
                        if self.forced[s].is_some() {
                            continue;
                        }
                        let mut exit_changed = false;
                        let e = entry.row_mut(s);
                        let x = exit.row_mut(s);
                        let (k, g) = (kill.row(s), gen.row(s));
                        for (w, &sw) in src.iter().enumerate() {
                            let ne = e[w] | sw;
                            if ne != e[w] {
                                e[w] = ne;
                                let nx = (ne & !k[w]) | g[w];
                                if nx != x[w] {
                                    x[w] = nx;
                                    exit_changed = true;
                                }
                            }
                        }
                        if exit_changed && !queued[s] {
                            queued[s] = true;
                            worklist.push_back(s);
                        }
                    }
                }
            }
            // Consumer-driven recomputation: popping `r` rebuilds its entry
            // as the dotted intersection of all predecessor exits.  Exits
            // only ever grow, so the intersection grows monotonically too.
            Combine::IntersectDotted => {
                let mut scratch = vec![0u64; words];
                while let Some(r) = worklist.pop_front() {
                    charge_step!();
                    queued[r] = false;
                    if self.forced[r].is_some() {
                        continue;
                    }
                    scratch.iter_mut().for_each(|w| *w = 0);
                    let ps = &preds[r];
                    if !bottom_pred[r] {
                        if let Some((&first, rest)) = ps.split_first() {
                            scratch.copy_from_slice(exit.row(first));
                            for &p in rest {
                                for (w, &pw) in exit.row(p).iter().enumerate() {
                                    scratch[w] &= pw;
                                }
                            }
                        }
                    }
                    for &id in &self.iota[r] {
                        scratch[(id / 64) as usize] |= 1u64 << (id % 64);
                    }
                    if scratch.as_slice() != entry.row(r) {
                        entry.row_mut(r).copy_from_slice(&scratch);
                    }
                    let mut exit_changed = false;
                    let (k, g) = (kill.row(r), gen.row(r));
                    for w in 0..words {
                        let x = (scratch[w] & !k[w]) | g[w];
                        if exit.row(r)[w] != x {
                            exit.row_mut(r)[w] = x;
                            exit_changed = true;
                        }
                    }
                    if exit_changed {
                        for &s in &succs[r] {
                            if !queued[s] {
                                queued[s] = true;
                                worklist.push_back(s);
                            }
                        }
                    }
                }
            }
        }

        let index: HashMap<Label, usize> = self.index;
        Ok(Solution {
            labels: self.labels,
            index,
            facts: self.interner.into_facts(),
            entry,
            exit,
            entry_sets: (0..n).map(|_| OnceLock::new()).collect(),
            exit_sets: (0..n).map(|_| OnceLock::new()).collect(),
        })
    }
}

/// A bounded solve ([`DenseEquations::solve_bounded`]) gave up: the worklist
/// iteration hit its step budget before reaching the fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveExhausted {
    /// Worklist pops performed when the solver gave up (`limit + 1`).
    pub steps: u64,
    /// The configured step budget.
    pub limit: u64,
}

impl std::fmt::Display for SolveExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dataflow worklist budget exhausted: {} steps, limit {}",
            self.steps, self.limit
        )
    }
}

impl std::error::Error for SolveExhausted {}

/// The least solution of an equation system: entry and exit set per label.
///
/// The solution is stored densely (bitset rows over interned fact ids) and
/// decodes to `BTreeSet`s lazily: [`Solution::entry_ref`] memoises the
/// decoded set per label, [`Solution::entry_iter`] yields borrowed facts
/// without building a set at all.
#[derive(Debug, Clone)]
pub struct Solution<F: Ord> {
    labels: Vec<Label>,
    index: HashMap<Label, usize>,
    facts: Vec<F>,
    entry: BitMatrix,
    exit: BitMatrix,
    entry_sets: Vec<OnceLock<BTreeSet<F>>>,
    exit_sets: Vec<OnceLock<BTreeSet<F>>>,
}

impl<F: Ord + Clone> Solution<F> {
    /// An all-empty solution over the given labels (used by analysis
    /// ablations that skip a phase entirely).
    pub fn empty_for(labels: impl IntoIterator<Item = Label>) -> Solution<F> {
        let labels: Vec<Label> = labels.into_iter().collect();
        let n = labels.len();
        let index = labels.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        Solution {
            labels,
            index,
            facts: Vec::new(),

            entry: BitMatrix::zeroed(n, 0),
            exit: BitMatrix::zeroed(n, 0),
            entry_sets: (0..n).map(|_| OnceLock::new()).collect(),
            exit_sets: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The labels of the solution, in insertion order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of distinct facts of the underlying system.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// The entry set of `l` (empty if the label is unknown).  Prefer
    /// [`Solution::entry_ref`] or [`Solution::entry_iter`] on hot paths:
    /// this accessor clones the decoded set.
    pub fn entry_of(&self, l: Label) -> BTreeSet<F> {
        self.entry_ref(l).cloned().unwrap_or_default()
    }

    /// The exit set of `l` (empty if the label is unknown).  Prefer
    /// [`Solution::exit_ref`] or [`Solution::exit_iter`] on hot paths: this
    /// accessor clones the decoded set.
    pub fn exit_of(&self, l: Label) -> BTreeSet<F> {
        self.exit_ref(l).cloned().unwrap_or_default()
    }

    /// Borrowed entry set of `l`, or `None` if the label is unknown.  The
    /// row is decoded on first access and memoised.
    pub fn entry_ref(&self, l: Label) -> Option<&BTreeSet<F>> {
        let &r = self.index.get(&l)?;
        Some(self.entry_sets[r].get_or_init(|| self.decode(self.entry.row(r))))
    }

    /// Borrowed exit set of `l`, or `None` if the label is unknown.  The row
    /// is decoded on first access and memoised.
    pub fn exit_ref(&self, l: Label) -> Option<&BTreeSet<F>> {
        let &r = self.index.get(&l)?;
        Some(self.exit_sets[r].get_or_init(|| self.decode(self.exit.row(r))))
    }

    /// Iterates the facts at the entry of `l` (empty if the label is
    /// unknown) without materialising a set.
    pub fn entry_iter(&self, l: Label) -> impl Iterator<Item = &F> + '_ {
        let row = self.index.get(&l).map(|&r| self.entry.row(r));
        iter_ones(row.unwrap_or(&[])).map(move |id| &self.facts[id as usize])
    }

    /// Iterates the facts at the exit of `l` (empty if the label is unknown)
    /// without materialising a set.
    pub fn exit_iter(&self, l: Label) -> impl Iterator<Item = &F> + '_ {
        let row = self.index.get(&l).map(|&r| self.exit.row(r));
        iter_ones(row.unwrap_or(&[])).map(move |id| &self.facts[id as usize])
    }

    /// Whether `fact` holds at the entry of `l` (via the memoised decoded
    /// set, so repeated probes on the same label are `O(log n)`).
    pub fn entry_contains(&self, l: Label, fact: &F) -> bool {
        self.entry_ref(l).is_some_and(|set| set.contains(fact))
    }

    fn decode(&self, row: &[u64]) -> BTreeSet<F> {
        iter_ones(row)
            .map(|id| self.facts[id as usize].clone())
            .collect()
    }
}

impl<F: Ord + Clone> PartialEq for Solution<F> {
    fn eq(&self, other: &Self) -> bool {
        if self.index.len() != other.index.len() {
            return false;
        }
        self.labels.iter().all(|&l| {
            other.index.contains_key(&l)
                && self.entry_ref(l) == other.entry_ref(l)
                && self.exit_ref(l) == other.exit_ref(l)
        })
    }
}

impl<F: Ord + Clone> Eq for Solution<F> {}

/// Computes the least solution of `eq` by lowering the set-based system into
/// the dense engine (see [`DenseEquations::solve`]).
///
/// # Examples
///
/// A three-label chain `1 → 2 → 3` where label 2 kills the fact generated at
/// label 1:
///
/// ```
/// use std::collections::{BTreeMap, BTreeSet};
/// use vhdl1_dataflow::{solve, Combine, Equations};
///
/// let eq = Equations {
///     labels: vec![1, 2, 3],
///     preds: BTreeMap::from([(2, vec![1]), (3, vec![2])]),
///     combine: Combine::Union,
///     kill: BTreeMap::from([(2, BTreeSet::from(["a"]))]),
///     gen: BTreeMap::from([
///         (1, BTreeSet::from(["a"])),
///         (2, BTreeSet::from(["b"])),
///     ]),
///     ..Default::default()
/// };
/// let sol = solve(&eq);
/// assert_eq!(sol.entry_of(2), BTreeSet::from(["a"]));
/// assert_eq!(sol.entry_of(3), BTreeSet::from(["b"]));
/// ```
pub fn solve<F: Ord + Hash + Clone>(eq: &Equations<F>) -> Solution<F> {
    let mut dense = DenseEquations::new(eq.combine);
    for &l in &eq.labels {
        let row = dense.add_label(l, eq.preds.get(&l).cloned().unwrap_or_default());
        if let Some(facts) = eq.iota.get(&l) {
            for f in facts {
                let id = dense.intern_ref(f);
                dense.push_iota(row, id);
            }
        }
        if let Some(facts) = eq.forced_entry.get(&l) {
            dense.force_entry(row);
            for f in facts {
                let id = dense.intern_ref(f);
                dense.push_forced(row, id);
            }
        }
        if let Some(facts) = eq.kill.get(&l) {
            for f in facts {
                let id = dense.intern_ref(f);
                dense.push_kill(row, id);
            }
        }
        if let Some(facts) = eq.gen.get(&l) {
            for f in facts {
                let id = dense.intern_ref(f);
                dense.push_gen(row, id);
            }
        }
    }
    dense.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_line(combine: Combine) -> Equations<&'static str> {
        // 1 -> 2 -> 3 with a gen at each label.
        Equations {
            labels: vec![1, 2, 3],
            preds: BTreeMap::from([(2, vec![1]), (3, vec![2])]),
            combine,
            iota: BTreeMap::new(),
            forced_entry: BTreeMap::new(),
            kill: BTreeMap::new(),
            gen: BTreeMap::from([
                (1, BTreeSet::from(["a"])),
                (2, BTreeSet::from(["b"])),
                (3, BTreeSet::from(["c"])),
            ]),
        }
    }

    #[test]
    fn union_accumulates_along_flow() {
        let sol = solve(&straight_line(Combine::Union));
        assert_eq!(sol.entry_of(3), BTreeSet::from(["a", "b"]));
        assert_eq!(sol.exit_of(3), BTreeSet::from(["a", "b", "c"]));
    }

    #[test]
    fn kill_removes_facts() {
        let mut eq = straight_line(Combine::Union);
        eq.kill.insert(2, BTreeSet::from(["a"]));
        let sol = solve(&eq);
        assert_eq!(sol.entry_of(3), BTreeSet::from(["b"]));
    }

    #[test]
    fn dotted_intersection_of_branches() {
        // Diamond: 1 -> 2, 1 -> 3, {2,3} -> 4; gen "x" only on 2.
        let eq = Equations {
            labels: vec![1, 2, 3, 4],
            preds: BTreeMap::from([(2, vec![1]), (3, vec![1]), (4, vec![2, 3])]),
            combine: Combine::IntersectDotted,
            iota: BTreeMap::new(),
            forced_entry: BTreeMap::new(),
            kill: BTreeMap::new(),
            gen: BTreeMap::from([(2, BTreeSet::from(["x"])), (3, BTreeSet::from(["y"]))]),
        };
        let sol = solve(&eq);
        assert_eq!(sol.entry_of(4), BTreeSet::new());
        // If both branches generate the same fact it must survive.
        let mut eq2 = eq.clone();
        eq2.gen.insert(3, BTreeSet::from(["x"]));
        let sol2 = solve(&eq2);
        assert_eq!(sol2.entry_of(4), BTreeSet::from(["x"]));
    }

    #[test]
    fn dotted_intersection_over_no_predecessors_is_empty() {
        let eq: Equations<&str> = Equations {
            labels: vec![1],
            combine: Combine::IntersectDotted,
            ..Default::default()
        };
        let sol = solve(&eq);
        assert_eq!(sol.entry_of(1), BTreeSet::new());
    }

    #[test]
    fn forced_entry_overrides_predecessors() {
        let mut eq = straight_line(Combine::Union);
        eq.forced_entry.insert(2, BTreeSet::from(["forced"]));
        let sol = solve(&eq);
        assert_eq!(sol.entry_of(2), BTreeSet::from(["forced"]));
        assert_eq!(sol.entry_of(3), BTreeSet::from(["forced", "b"]));
    }

    #[test]
    fn iota_adds_initial_facts() {
        let mut eq = straight_line(Combine::Union);
        eq.iota.insert(1, BTreeSet::from(["init"]));
        let sol = solve(&eq);
        assert!(sol.entry_of(1).contains("init"));
        assert!(sol.entry_of(3).contains("init"));
    }

    #[test]
    fn loops_reach_fixpoint() {
        // 1 -> 2 -> 1 cycle with gen at 2; union analysis must terminate and
        // propagate around the cycle.
        let eq = Equations {
            labels: vec![1, 2],
            preds: BTreeMap::from([(1, vec![2]), (2, vec![1])]),
            combine: Combine::Union,
            iota: BTreeMap::new(),
            forced_entry: BTreeMap::new(),
            kill: BTreeMap::new(),
            gen: BTreeMap::from([(2, BTreeSet::from(["x"]))]),
        };
        let sol = solve(&eq);
        assert!(sol.entry_of(1).contains("x"));
    }

    #[test]
    fn self_loop_propagates_its_own_exit() {
        // A single label with a loop-back edge onto itself (a one-block
        // process body): its own gen must flow around into its entry.
        let eq = Equations {
            labels: vec![1],
            preds: BTreeMap::from([(1, vec![1])]),
            combine: Combine::Union,
            gen: BTreeMap::from([(1, BTreeSet::from(["x"]))]),
            ..Default::default()
        };
        let sol = solve(&eq);
        assert_eq!(sol.entry_of(1), BTreeSet::from(["x"]));
    }

    #[test]
    fn unknown_label_queries_are_empty() {
        let sol = solve(&straight_line(Combine::Union));
        assert!(sol.entry_of(99).is_empty());
        assert!(sol.exit_of(99).is_empty());
        assert!(sol.entry_ref(99).is_none());
        assert_eq!(sol.entry_iter(99).count(), 0);
        assert_eq!(sol.exit_iter(99).count(), 0);
    }

    #[test]
    fn iter_accessors_agree_with_sets() {
        let sol = solve(&straight_line(Combine::Union));
        for l in [1, 2, 3] {
            let via_iter: BTreeSet<&str> = sol.entry_iter(l).copied().collect();
            assert_eq!(via_iter, sol.entry_of(l));
            let via_iter: BTreeSet<&str> = sol.exit_iter(l).copied().collect();
            assert_eq!(via_iter, sol.exit_of(l));
        }
        assert!(sol.entry_contains(3, &"a"));
        assert!(!sol.entry_contains(3, &"c"));
        assert_eq!(sol.labels(), &[1, 2, 3]);
        assert_eq!(sol.fact_count(), 3);
    }

    #[test]
    fn solutions_compare_by_content_not_interning_order() {
        // Same system, facts interned in different orders (label order
        // reversed): the solutions must still compare equal.
        let eq = straight_line(Combine::Union);
        let mut reversed = eq.clone();
        reversed.labels.reverse();
        assert_eq!(solve(&eq), solve(&reversed));
        let mut other = eq.clone();
        other.gen.insert(3, BTreeSet::from(["different"]));
        assert_ne!(solve(&eq), solve(&other));
    }

    #[test]
    fn bounded_solve_exhausts_deterministically() {
        let lower = |eq: &Equations<&'static str>| {
            let mut dense = DenseEquations::new(eq.combine);
            for &l in &eq.labels {
                let row = dense.add_label(l, eq.preds.get(&l).cloned().unwrap_or_default());
                if let Some(facts) = eq.gen.get(&l) {
                    for f in facts {
                        let id = dense.intern_ref(f);
                        dense.push_gen(row, id);
                    }
                }
            }
            dense
        };
        let eq = straight_line(Combine::Union);
        // A generous budget converges to the same solution as `solve`.
        let sol = lower(&eq).solve_bounded(1_000).expect("converges");
        assert_eq!(sol.entry_of(3), BTreeSet::from(["a", "b"]));
        // A one-step budget exhausts, and always at the same point.
        let e1 = lower(&eq).solve_bounded(1).expect_err("exhausts");
        let e2 = lower(&eq).solve_bounded(1).expect_err("exhausts");
        assert_eq!(e1, e2);
        assert_eq!(e1.limit, 1);
        assert!(e1.steps > e1.limit);
        assert!(e1.to_string().contains("worklist budget exhausted"));
        // The must-analysis path charges the same budget.
        let mut must = eq.clone();
        must.combine = Combine::IntersectDotted;
        assert!(lower(&must).solve_bounded(1).is_err());
    }

    #[test]
    fn empty_solution_has_no_facts() {
        let sol: Solution<&str> = Solution::empty_for([1, 2]);
        assert_eq!(sol.entry_of(1), BTreeSet::new());
        assert_eq!(sol.exit_of(2), BTreeSet::new());
        assert!(sol.entry_ref(1).unwrap().is_empty());
        assert_eq!(sol.fact_count(), 0);
    }
}
