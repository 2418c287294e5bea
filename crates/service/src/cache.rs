//! Cross-request warm state: the problem cache and the static-analysis
//! cache, both keyed on the exact structural [`ProblemKey`].
//!
//! # Soundness
//!
//! A [`ProblemKey`] is the exact clause list plus the declarations
//! (arithmetic variables with kinds and ranges, every atom definition),
//! so two requests share an entry only when they denote structurally
//! identical problems (same clauses, definitions, variables, and ranges —
//! whitespace and comment differences do not matter, literal order does).
//! A cached verdict and model, or a cached static-analysis result, are
//! then simply the memoized answer. The server never caches `Unknown`:
//! it reflects a budget, not a fact. The keys are exact values, not lossy
//! hashes, so collisions are impossible.
//!
//! The key leans on the hash-consed term arena: a constraint is
//! represented by its interned [`absolver_nonlinear::ConstraintId`],
//! whose `u32` *is* the constraint up to structural equality. Building a
//! key therefore costs O(1) per constraint — no expression rendering —
//! and comparing keys compares ids, not trees. (Ids are process-local,
//! which is exactly the scope of these in-process caches.)

use absolver_core::{AbProblem, VarKind};
use absolver_logic::Clause;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Exact structural key of a problem's *declarations* (arithmetic
/// variables with kind and range, definitions sorted by Boolean
/// variable). Ranges are compared by bit pattern; constraints by interned
/// constraint id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DeclKey {
    /// `(name, kind, range-lo bits, range-hi bits)` per arithmetic var.
    vars: Vec<(String, VarKind, u64, u64)>,
    /// `(boolean var index, interned constraint ids)` per definition.
    defs: Vec<(usize, Vec<u32>)>,
}

/// Builds the [`DeclKey`] of a problem.
fn decl_key(problem: &AbProblem) -> DeclKey {
    let vars = problem
        .arith_vars()
        .iter()
        .map(|v| {
            (
                v.name.clone(),
                v.kind,
                v.range.lo().to_bits(),
                v.range.hi().to_bits(),
            )
        })
        .collect();
    let mut defs: Vec<_> = problem.defs().collect();
    defs.sort_by_key(|(var, _)| var.index());
    let defs = defs
        .into_iter()
        .map(|(var, def)| {
            (
                var.index(),
                def.constraints.iter().map(|c| c.cid().raw()).collect(),
            )
        })
        .collect();
    DeclKey { vars, defs }
}

/// Exact structural key of a whole problem: the CNF skeleton (variable
/// count and clause list, literal order preserved) plus the declarations.
/// This is the key of both caches: equal keys denote identical problems,
/// so a cached verdict transfers soundly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProblemKey {
    num_vars: usize,
    clauses: Vec<Clause>,
    decls: DeclKey,
}

/// Builds the [`ProblemKey`] of a problem.
pub fn problem_key(problem: &AbProblem) -> ProblemKey {
    ProblemKey {
        num_vars: problem.cnf().num_vars(),
        clauses: problem.cnf().clauses().to_vec(),
        decls: decl_key(problem),
    }
}

/// Bounded map from [`ProblemKey`] to a memoized answer: the server keeps
/// one of verdicts ([`absolver_core::Outcome`]) and one of
/// static-analysis results (`true` when the interval-dataflow fixpoint
/// refuted the problem). Eviction is FIFO by insertion — the cache is a
/// memo table, not a working set, and FIFO keeps it allocation-cheap and
/// predictable.
#[derive(Debug)]
pub struct FifoCache<V> {
    map: HashMap<ProblemKey, V>,
    order: VecDeque<ProblemKey>,
    capacity: usize,
}

impl<V> FifoCache<V> {
    /// Creates a cache holding at most `capacity` answers (min 1).
    pub fn new(capacity: usize) -> FifoCache<V> {
        FifoCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The cached answer for a problem key, if any.
    pub fn get(&self, key: &ProblemKey) -> Option<&V> {
        self.map.get(key)
    }

    /// Caches the answer for a key not cached yet, evicting the oldest
    /// entry when full. A key already cached keeps its answer.
    pub fn insert(&mut self, key: ProblemKey, value: V) {
        if self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(text: &str) -> AbProblem {
        text.parse().expect("test problem parses")
    }

    #[test]
    fn decl_key_ignores_clauses_but_not_ranges() {
        let a = problem("p cnf 2 1\n1 0\nc def real 1 x >= 0\nc range x 0 10\n");
        let b = problem("p cnf 2 2\n1 0\n-2 0\nc def real 1 x >= 0\nc range x 0 10\n");
        let c = problem("p cnf 2 1\n1 0\nc def real 1 x >= 0\nc range x 0 5\n");
        assert_eq!(decl_key(&a), decl_key(&b));
        assert_ne!(decl_key(&a), decl_key(&c));
    }

    /// Three problems with pairwise distinct declarations, for keying.
    fn keyed(n: u32) -> AbProblem {
        problem(&format!(
            "p cnf 2 1\n1 0\nc def real 1 x >= 0\nc range x 0 {n}\n"
        ))
    }

    #[test]
    fn problem_key_distinguishes_clause_order_and_literals() {
        let a = problem("p cnf 2 2\n1 0\n-2 0\nc def real 1 x >= 0\n");
        let b = problem("p cnf 2 2\n-2 0\n1 0\nc def real 1 x >= 0\n");
        let c = problem("p cnf 2 2\n1 0\n-2 0\nc def real 1 x >= 0\n");
        assert_ne!(problem_key(&a), problem_key(&b));
        assert_eq!(problem_key(&a), problem_key(&c));
    }

    #[test]
    fn cache_keeps_the_first_answer_and_evicts_fifo() {
        let (a, b, c) = (
            problem_key(&keyed(1)),
            problem_key(&keyed(2)),
            problem_key(&keyed(3)),
        );
        let mut cache = FifoCache::new(2);
        assert_eq!(cache.get(&a), None);
        cache.insert(a.clone(), true);
        cache.insert(a.clone(), false);
        cache.insert(b.clone(), false);
        assert_eq!(cache.get(&a), Some(&true), "a cached key keeps its answer");
        assert_eq!(cache.get(&b), Some(&false));
        cache.insert(c.clone(), true);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a), None, "FIFO evicts the oldest entry");
        assert_eq!(cache.get(&c), Some(&true));
    }
}
