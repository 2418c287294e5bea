//! A persistent, backtrackable assertion stack over the incremental
//! simplex.
//!
//! The loose control loop of the paper re-solves the linear system from
//! scratch on every theory check; consecutive Boolean models, however,
//! usually differ in only a handful of theory literals. [`AssertionStack`]
//! keeps one [`Simplex`] alive across checks: constraints are `push`ed,
//! suffixes are removed with `pop_to`, and every [`AssertionStack::check`]
//! after the first warm-starts from the previous basis — popping restores
//! *bounds* only, so the tableau rows and the β assignment survive and
//! re-checking costs a few pivots instead of a full solve.
//!
//! Conflicts are reported as **stack positions** ([`RowId`]s), which the
//! caller can map straight back to theory literals. A conflict is the
//! simplex's own row certificate, unshrunk.

use crate::constraint::LinearConstraint;
use crate::simplex::{CheckResult, Simplex};
use absolver_num::Rational;

/// Position of a pushed constraint on the stack: dense, 0-based,
/// assigned in push order and compacted by [`AssertionStack::pop_to`].
pub type RowId = usize;

/// Verdict of [`AssertionStack::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackResult {
    /// The pushed constraints are simultaneously satisfiable.
    Sat,
    /// They are not; the payload holds the stack positions of the
    /// simplex's conflict certificate.
    Unsat(Vec<RowId>),
}

impl StackResult {
    /// Returns `true` for [`StackResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, StackResult::Sat)
    }
}

/// Backtrackable assertion stack with warm-started feasibility checks.
///
/// ```
/// use absolver_linear::{AssertionStack, CmpOp, LinExpr, LinearConstraint, StackResult};
/// use absolver_num::Rational;
///
/// let c = |v, op, rhs: i64| LinearConstraint::new(LinExpr::var(v), op, Rational::from_int(rhs));
/// let mut stack = AssertionStack::new(1);
/// stack.push(&c(0, CmpOp::Ge, 0)).unwrap();
/// let mark = stack.len();
/// stack.push(&c(0, CmpOp::Le, -1)).unwrap_err(); // conflicts with row 0
/// stack.pop_to(mark);
/// assert!(stack.check().is_sat()); // x ≥ 0 alone is fine again
/// ```
#[derive(Debug)]
pub struct AssertionStack {
    simplex: Simplex,
    /// Undo-log mark taken immediately before each entry was asserted;
    /// `RowId` indexes this.
    marks: Vec<usize>,
    /// Simplex constraint id → stack position of the entry that asserted
    /// it. One id is consumed per assertion attempt, and re-assertion
    /// after pops allocates fresh ids, so this table only ever grows; it
    /// is never truncated because restored bounds may still carry old
    /// ids as their reasons.
    owner: Vec<RowId>,
    checks: u64,
    warm_starts: u64,
}

impl AssertionStack {
    /// Creates an empty stack over `num_vars` problem variables.
    pub fn new(num_vars: usize) -> AssertionStack {
        AssertionStack {
            simplex: Simplex::with_vars(num_vars),
            marks: Vec::new(),
            owner: Vec::new(),
            checks: 0,
            warm_starts: 0,
        }
    }

    /// Number of constraints currently on the stack. Doubles as the mark
    /// to hand to [`AssertionStack::pop_to`] for restoring this state.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Returns `true` when no constraints are pushed.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Number of problem variables the stack was created over.
    pub fn num_vars(&self) -> usize {
        self.simplex.num_vars()
    }

    /// Total simplex pivots performed over the stack's lifetime.
    pub fn pivots(&self) -> u64 {
        self.simplex.pivots()
    }

    /// Number of [`AssertionStack::check`] calls so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Checks that reused the basis of an earlier check (all but the
    /// first).
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Pushes a constraint; returns its stack position.
    ///
    /// # Errors
    ///
    /// If the new bound immediately contradicts existing ones, the stack
    /// is left unchanged and the payload lists the positions of the
    /// previously pushed constraints involved; the rejected constraint
    /// itself is part of every such conflict and is *not* listed. An
    /// empty payload means the constraint is contradictory on its own
    /// (e.g. `0 ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if the constraint mentions a variable `>= num_vars()`.
    pub fn push(&mut self, c: &LinearConstraint) -> Result<RowId, Vec<RowId>> {
        let mark = self.simplex.undo_mark();
        let rid = self.marks.len();
        let result = self.simplex.assert_constraint(c);
        // One simplex id is consumed per attempt, also on failure.
        self.owner.push(rid);
        let rejected = self.owner.len() - 1;
        match result {
            Ok(cid) => {
                debug_assert_eq!(cid, rejected, "owner table out of sync with simplex ids");
                self.marks.push(mark);
                Ok(rid)
            }
            Err(cids) => {
                self.simplex.undo_to(mark);
                Err(self.rows_of(cids.into_iter().filter(|&cid| cid != rejected)))
            }
        }
    }

    /// Removes every constraint at position `mark` and above. Bounds are
    /// restored; the tableau and β assignment are kept for warm restarts.
    pub fn pop_to(&mut self, mark: usize) {
        if mark >= self.marks.len() {
            return;
        }
        self.simplex.undo_to(self.marks[mark]);
        self.marks.truncate(mark);
    }

    /// Decides feasibility of the pushed constraints, warm-starting from
    /// the basis the previous check left behind.
    pub fn check(&mut self) -> StackResult {
        self.checks += 1;
        if self.checks > 1 {
            self.warm_starts += 1;
        }
        match self.simplex.check() {
            CheckResult::Sat => StackResult::Sat,
            CheckResult::Unsat(cids) => StackResult::Unsat(self.rows_of(cids)),
        }
    }

    /// Extracts a rational witness after a [`StackResult::Sat`] verdict.
    pub fn model(&self) -> Vec<Rational> {
        self.simplex.model()
    }

    /// Maps simplex constraint ids to the sorted, deduplicated stack
    /// positions that own them.
    fn rows_of(&self, cids: impl IntoIterator<Item = usize>) -> Vec<RowId> {
        let mut rows: Vec<RowId> = cids.into_iter().map(|cid| self.owner[cid]).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CmpOp, LinExpr};
    use crate::simplex::check_conjunction;

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn c(terms: &[(usize, i64)], op: CmpOp, rhs: i64) -> LinearConstraint {
        LinearConstraint::new(
            LinExpr::from_terms(terms.iter().map(|&(v, k)| (v, q(k)))),
            op,
            q(rhs),
        )
    }

    #[test]
    fn push_check_pop_roundtrip() {
        let mut s = AssertionStack::new(2);
        s.push(&c(&[(0, 1)], CmpOp::Ge, 0)).unwrap();
        s.push(&c(&[(1, 1)], CmpOp::Ge, 0)).unwrap();
        assert_eq!(s.check(), StackResult::Sat);
        let mark = s.len();
        s.push(&c(&[(0, 1), (1, 1)], CmpOp::Lt, 0)).unwrap();
        match s.check() {
            StackResult::Unsat(core) => assert_eq!(core, vec![0, 1, 2]),
            StackResult::Sat => panic!("expected conflict"),
        }
        s.pop_to(mark);
        assert_eq!(s.check(), StackResult::Sat);
        assert!(s.warm_starts() >= 2);
    }

    #[test]
    fn push_conflict_reports_positions_and_leaves_stack_intact() {
        let mut s = AssertionStack::new(1);
        s.push(&c(&[(0, 1)], CmpOp::Le, 3)).unwrap();
        let err = s.push(&c(&[(0, 1)], CmpOp::Gt, 3)).unwrap_err();
        assert_eq!(err, vec![0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.check(), StackResult::Sat);
        // A self-contradictory constraint reports an empty external core.
        let err = s
            .push(&LinearConstraint::new(LinExpr::zero(), CmpOp::Ge, q(1)))
            .unwrap_err();
        assert!(err.is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn conflict_certificate_is_infeasible_and_pop_restores() {
        let rows = [
            c(&[(1, 1)], CmpOp::Ge, 0), // irrelevant
            c(&[(0, 1), (1, 1)], CmpOp::Le, 2),
            c(&[(0, 1)], CmpOp::Ge, 2),
            c(&[(1, 1)], CmpOp::Ge, 1),
            c(&[(0, 1), (1, 1)], CmpOp::Le, 10), // dominated
        ];
        let mut s = AssertionStack::new(2);
        for row in &rows {
            s.push(row).unwrap();
        }
        match s.check() {
            StackResult::Unsat(core) => {
                let subset: Vec<LinearConstraint> = core.iter().map(|&r| rows[r].clone()).collect();
                assert!(
                    !check_conjunction(&subset).is_feasible(),
                    "certificate {core:?} is feasible on its own"
                );
            }
            StackResult::Sat => panic!("expected conflict"),
        }
        // Popping the middle of the triangle makes the rest feasible again.
        s.pop_to(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.check(), StackResult::Sat);
        let model = s.model();
        assert!(&model[0] + &model[1] <= q(2));
    }

    #[test]
    fn repeated_pop_push_cycles_agree_with_scratch() {
        // Alternate between two bound sets many times; verdicts must
        // match one-shot checks throughout.
        let base = vec![
            c(&[(0, 1), (1, 1)], CmpOp::Le, 4),
            c(&[(0, 1)], CmpOp::Ge, 0),
        ];
        let tight = c(&[(1, 1)], CmpOp::Ge, 5); // makes it infeasible
        let loose = c(&[(1, 1)], CmpOp::Ge, 1);
        let mut s = AssertionStack::new(2);
        for cst in &base {
            s.push(cst).unwrap();
        }
        let mark = s.len();
        for round in 0..10 {
            let extra = if round % 2 == 0 { &tight } else { &loose };
            let mut scratch: Vec<LinearConstraint> = base.clone();
            scratch.push(extra.clone());
            let expect = check_conjunction(&scratch).is_feasible();
            if s.push(extra).is_ok() {
                assert_eq!(s.check().is_sat(), expect, "round {round}");
            } else {
                assert!(
                    !expect,
                    "round {round}: assert-time conflict on feasible set"
                );
            }
            s.pop_to(mark);
        }
        assert_eq!(s.check(), StackResult::Sat);
    }

    #[test]
    fn equality_bounds_pop_cleanly() {
        let mut s = AssertionStack::new(2);
        s.push(&c(&[(0, 1), (1, 1)], CmpOp::Eq, 5)).unwrap();
        let mark = s.len();
        s.push(&c(&[(0, 1), (1, 1)], CmpOp::Eq, 6)).unwrap_err();
        s.pop_to(mark);
        s.push(&c(&[(0, 1), (1, -1)], CmpOp::Eq, 1)).unwrap();
        assert_eq!(s.check(), StackResult::Sat);
        let m = s.model();
        assert_eq!(m[0], q(3));
        assert_eq!(m[1], q(2));
    }

    /// Differential: random push/pop/check interleavings agree with
    /// from-scratch `check_conjunction` on the live prefix.
    #[test]
    fn random_interleavings_agree_with_scratch() {
        use absolver_testkit::{Rng, TestRng};
        let mut rng = TestRng::seed_from_u64(0x57AC_D1FF);
        for case in 0..200 {
            let num_vars = rng.gen_range(1..=3usize);
            let mut stack = AssertionStack::new(num_vars);
            let mut live: Vec<LinearConstraint> = Vec::new();
            for _step in 0..24 {
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        // Push a random constraint (possibly rejected).
                        let cst = random_constraint(&mut rng, num_vars);
                        match stack.push(&cst) {
                            Ok(rid) => {
                                assert_eq!(rid, live.len());
                                live.push(cst);
                            }
                            Err(core) => {
                                // The rejected constraint plus the cited
                                // rows must be jointly infeasible.
                                let mut subset: Vec<LinearConstraint> =
                                    core.iter().map(|&r| live[r].clone()).collect();
                                subset.push(cst);
                                assert!(
                                    !check_conjunction(&subset).is_feasible(),
                                    "case {case}: push conflict certificate is feasible"
                                );
                            }
                        }
                    }
                    2 => {
                        let mark = rng.gen_range(0..=live.len());
                        stack.pop_to(mark);
                        live.truncate(mark);
                    }
                    _ => {
                        let expect = check_conjunction(&live).is_feasible();
                        match stack.check() {
                            StackResult::Sat => {
                                assert!(expect, "case {case}: stack sat, scratch unsat");
                                let model = stack.model();
                                for cst in &live {
                                    assert!(
                                        cst.eval(&model),
                                        "case {case}: witness violates {cst}"
                                    );
                                }
                            }
                            StackResult::Unsat(core) => {
                                assert!(!expect, "case {case}: stack unsat, scratch sat");
                                let subset: Vec<LinearConstraint> =
                                    core.iter().map(|&r| live[r].clone()).collect();
                                assert!(
                                    !check_conjunction(&subset).is_feasible(),
                                    "case {case}: unsat core {core:?} is feasible"
                                );
                            }
                        }
                    }
                }
            }
        }

        fn random_constraint(
            rng: &mut impl absolver_testkit::Rng,
            num_vars: usize,
        ) -> LinearConstraint {
            let nterms = rng.gen_range(1..=3usize);
            let terms: Vec<(usize, Rational)> = (0..nterms)
                .map(|_| {
                    (
                        rng.gen_range(0..num_vars),
                        Rational::from_int(rng.gen_range(-4i64..=4)),
                    )
                })
                .collect();
            let op = match rng.gen_range(0..5u32) {
                0 => CmpOp::Le,
                1 => CmpOp::Ge,
                2 => CmpOp::Lt,
                3 => CmpOp::Gt,
                _ => CmpOp::Eq,
            };
            LinearConstraint::new(
                LinExpr::from_terms(terms),
                op,
                Rational::from_int(rng.gen_range(-6i64..=6)),
            )
        }
    }
}
