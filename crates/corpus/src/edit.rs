//! Edit-stream generator: a base multi-process design plus a deterministic
//! sequence of single-process mutations.
//!
//! The edit-session workload: every revision differs from its predecessor
//! in exactly one process body (a binary operator swap), which preserves
//! the design's label layout, signal table and process count.  Replaying
//! the stream through `vhdl1_infoflow::Workspace::update` must produce
//! reports byte-identical to analyzing each revision from scratch.
//!
//! The design shape is a mixing chain: process `p0` combines the first
//! input with the shared key into `t0`, each middle process `pi` folds the
//! next input into `t(i-1)`, and the last process drives the sole output —
//! so every process is live (reachable from the output) and an operator
//! swap anywhere genuinely changes the dataflow solution of the touched
//! process.

use crate::rng::Rng;

/// The binary operators the mutation cycle swaps between.  All three parse
/// to a single elementary block, so swapping one for another never changes
/// the label layout.
const OPS: [&str; 3] = ["and", "or", "xor"];

/// One revision of an edit stream: the full source after the edit plus
/// which process the edit touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditRevision {
    /// Full source text of this revision.
    pub source: String,
    /// Index of the (single) process whose body changed relative to the
    /// previous revision.
    pub touched_process: usize,
}

/// A base design plus a deterministic sequence of single-process edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditStream {
    /// Design (architecture) name, shared by every revision.
    pub name: String,
    /// Number of processes in the design (stable across revisions).
    pub processes: usize,
    /// The unedited base source.
    pub base: String,
    /// Successive revisions; revision `j` is revision `j-1` (or the base,
    /// for `j = 0`) with exactly one process body changed.
    pub revisions: Vec<EditRevision>,
}

impl EditStream {
    /// The base source followed by every revision source, in replay order.
    pub fn sources(&self) -> Vec<&str> {
        std::iter::once(self.base.as_str())
            .chain(self.revisions.iter().map(|r| r.source.as_str()))
            .collect()
    }
}

/// Generates a deterministic edit stream: a `processes`-process design and
/// `edits` cumulative single-process mutations.
///
/// Same `(seed, processes, edits)` always yields byte-identical sources,
/// and every revision elaborates through the real front end.
///
/// Every edit moves the touched process to an operator it has never held
/// in this stream, so no revision repeats an earlier source: on a cold
/// engine every revision is a memo-table miss.
///
/// # Panics
///
/// Panics when `processes < 2` (the chain needs a head and a sink) or when
/// `edits` exceeds the fresh operator assignments the pool can express
/// (`processes * 2` for the three-operator pool).
///
/// # Examples
///
/// ```
/// use vhdl1_corpus::edit_stream;
///
/// let stream = edit_stream(7, 8, 3);
/// assert_eq!(stream.revisions.len(), 3);
/// for src in stream.sources() {
///     vhdl1_syntax::frontend(src).unwrap();
/// }
/// // Each revision touches exactly one process: all lines equal but one.
/// let base: Vec<&str> = stream.base.lines().collect();
/// let first: Vec<&str> = stream.revisions[0].source.lines().collect();
/// assert_eq!(base.len(), first.len());
/// assert_eq!(base.iter().zip(&first).filter(|(a, b)| a != b).count(), 1);
/// ```
pub fn edit_stream(seed: u64, processes: usize, edits: usize) -> EditStream {
    assert!(processes >= 2, "edit stream needs at least two processes");
    assert!(
        edits <= processes * (OPS.len() - 1),
        "edit stream of {edits} edits exhausts the {} fresh operator \
         assignments of a {processes}-process design",
        processes * (OPS.len() - 1)
    );
    let name = format!("edit_s{seed}_p{processes}");
    let mut rng = Rng::new(seed).derive(processes as u64);
    // One operator per process; mutations rotate the touched process's
    // operator to a different member of `OPS`.
    let mut ops: Vec<usize> = (0..processes)
        .map(|_| rng.below(OPS.len() as u64) as usize)
        .collect();
    let base = render(&name, &ops);
    // Every edit gives the touched process an operator it has *never*
    // held in this stream: a toggle back to an earlier operator vector
    // would make a revision a whole-design memo hit, blurring the cold
    // replay counters the tests assert.
    let mut used: Vec<std::collections::BTreeSet<usize>> =
        ops.iter().map(|&op| [op].into_iter().collect()).collect();
    let mut revisions = Vec::with_capacity(edits);
    for _ in 0..edits {
        let (touched, next_op) = loop {
            let touched = rng.below(processes as u64) as usize;
            let step = 1 + rng.below(OPS.len() as u64 - 1) as usize;
            let candidate = (ops[touched] + step) % OPS.len();
            if !used[touched].contains(&candidate) {
                break (touched, candidate);
            }
        };
        used[touched].insert(next_op);
        ops[touched] = next_op;
        revisions.push(EditRevision {
            source: render(&name, &ops),
            touched_process: touched,
        });
    }
    EditStream {
        name,
        processes,
        base,
        revisions,
    }
}

/// Renders the design for one operator assignment.  One process per line,
/// so a single-process edit is a single-line diff.
fn render(name: &str, ops: &[usize]) -> String {
    let n = ops.len();
    let mut src = String::new();
    src.push_str(&format!("entity {name} is port("));
    for i in 0..n - 1 {
        src.push_str(&format!("a{i} : in std_logic; "));
    }
    src.push_str("k : in std_logic; o : out std_logic); end ");
    src.push_str(name);
    src.push_str(";\n");
    src.push_str(&format!("architecture {name} of {name} is\n"));
    for i in 0..n - 1 {
        src.push_str(&format!("  signal t{i} : std_logic;\n"));
    }
    src.push_str("begin\n");
    for (i, &op) in ops.iter().enumerate() {
        let op = OPS[op];
        let (target, lhs, rhs) = if i == 0 {
            ("t0".to_string(), "a0".to_string(), "k".to_string())
        } else if i == n - 1 {
            ("o".to_string(), format!("t{}", i - 1), "k".to_string())
        } else {
            (format!("t{i}"), format!("t{}", i - 1), format!("a{i}"))
        };
        src.push_str(&format!(
            "  p{i} : process begin {target} <= {lhs} {op} {rhs}; wait on {lhs}, {rhs}; end process p{i};\n"
        ));
    }
    src.push_str(&format!("end {name};\n"));
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(edit_stream(7, 8, 5), edit_stream(7, 8, 5));
        assert_ne!(edit_stream(7, 8, 5), edit_stream(8, 8, 5));
    }

    #[test]
    fn all_sources_in_a_stream_are_distinct() {
        for seed in [1, 7, 42] {
            let stream = edit_stream(seed, 4, 8);
            let sources: std::collections::BTreeSet<_> = stream.sources().into_iter().collect();
            assert_eq!(sources.len(), stream.revisions.len() + 1);
        }
    }

    #[test]
    fn every_revision_elaborates_with_stable_shape() {
        let stream = edit_stream(11, 8, 4);
        for src in stream.sources() {
            let design = vhdl1_syntax::frontend(src).unwrap();
            assert_eq!(design.name, stream.name);
            assert_eq!(design.processes.len(), 8);
        }
    }

    #[test]
    fn each_edit_touches_exactly_the_named_process() {
        let stream = edit_stream(3, 6, 6);
        let mut prev = stream.base.clone();
        for rev in &stream.revisions {
            let changed: Vec<usize> = prev
                .lines()
                .zip(rev.source.lines())
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(changed.len(), 1, "one line per edit");
            let line = rev.source.lines().nth(changed[0]).unwrap();
            assert!(
                line.trim_start()
                    .starts_with(&format!("p{} :", rev.touched_process)),
                "changed line `{line}` is not process {}",
                rev.touched_process
            );
            prev = rev.source.clone();
        }
    }
}
