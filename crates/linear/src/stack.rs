//! A persistent, backtrackable assertion stack over the incremental
//! simplex.
//!
//! The loose control loop of the paper re-solves the linear system from
//! scratch on every theory check; consecutive Boolean models, however,
//! usually differ in only a handful of theory literals. [`AssertionStack`]
//! keeps one [`Simplex`] alive across checks. Constraints are `push`ed, and
//! any of them can be `retract`ed again, wherever it sits: each variable
//! keeps all its asserted bounds, so retracting one restores the
//! next-tightest. [`AssertionStack::pop_to`] retracts the latest pushes, for
//! callers that explore cases above a mark. Every [`AssertionStack::check`]
//! after the first warm-starts from the previous basis: retraction touches
//! *bounds* only, so the tableau rows and the β assignment survive and
//! re-checking costs a few pivots instead of a full solve.
//!
//! Conflicts are reported as [`RowId`]s, the handles `push` returned, which
//! the caller can map straight back to theory literals. A conflict is the
//! simplex's own row certificate, unshrunk. Where several rows bound a
//! variable equally tightly, the certificate names the lowest-ranked
//! ([`AssertionStack::push_ranked`]); by default that is the one pushed
//! first.

use crate::constraint::LinearConstraint;
use crate::simplex::{CheckResult, Simplex};
use absolver_num::Rational;

/// Handle of a pushed constraint. It names the row until the row is
/// retracted; a later push may then reuse it.
pub type RowId = usize;

/// Verdict of [`AssertionStack::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackResult {
    /// The pushed constraints are simultaneously satisfiable.
    Sat,
    /// They are not; the payload holds the handles of the rows in the
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
/// let low = stack.push(&c(0, CmpOp::Ge, 0)).unwrap();
/// stack.push(&c(0, CmpOp::Le, -1)).unwrap_err(); // conflicts with `low`
/// stack.push(&c(0, CmpOp::Le, 5)).unwrap();
/// stack.retract(low);
/// stack.push(&c(0, CmpOp::Le, -1)).unwrap(); // fine without `low`
/// assert!(stack.check().is_sat());
/// ```
#[derive(Debug)]
pub struct AssertionStack {
    simplex: Simplex,
    checks: u64,
}

impl AssertionStack {
    /// Creates an empty stack over `num_vars` problem variables.
    pub fn new(num_vars: usize) -> AssertionStack {
        AssertionStack {
            simplex: Simplex::with_vars(num_vars),
            checks: 0,
        }
    }

    /// Number of constraints currently on the stack. Doubles as the mark
    /// to hand to [`AssertionStack::pop_to`] for restoring this state.
    pub fn len(&self) -> usize {
        self.simplex.len()
    }

    /// Returns `true` when no constraints are pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Pushes a constraint, ranked above every row pushed so far; returns
    /// its handle.
    ///
    /// # Errors
    ///
    /// If the new bound immediately contradicts existing ones, the stack
    /// is left unchanged and the payload lists the rows involved; the
    /// rejected constraint itself is part of every such conflict and is
    /// *not* listed. An empty payload means the constraint is
    /// contradictory on its own (e.g. `0 ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if the constraint mentions a variable `>= num_vars()`.
    pub fn push(&mut self, c: &LinearConstraint) -> Result<RowId, Vec<RowId>> {
        self.simplex.assert_constraint(c)
    }

    /// [`AssertionStack::push`] at the given rank. Of rows that bound a
    /// variable equally tightly, the lowest-ranked is the bound's reason,
    /// and so the row a conflict names; a caller that keeps rows in an
    /// order of its own ranks each by its place in that order.
    ///
    /// # Errors
    ///
    /// As [`AssertionStack::push`].
    pub fn push_ranked(&mut self, c: &LinearConstraint, rank: u64) -> Result<RowId, Vec<RowId>> {
        self.simplex.assert_ranked(c, rank)
    }

    /// Gives a pushed row a new rank (see [`AssertionStack::push_ranked`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not on the stack.
    pub fn set_rank(&mut self, row: RowId, rank: u64) {
        self.simplex.set_rank(row, rank);
    }

    /// Removes one row, wherever it sits. The bounds it set fall back to
    /// the next-tightest rows'; the tableau and β assignment are kept for
    /// warm restarts.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not on the stack.
    pub fn retract(&mut self, row: RowId) {
        self.simplex.retract(row);
    }

    /// Retracts the most recently pushed rows until `mark` rows remain.
    pub fn pop_to(&mut self, mark: usize) {
        self.simplex.retract_to(mark);
    }

    /// Decides feasibility of the pushed constraints, warm-starting from
    /// the basis the previous check left behind.
    pub fn check(&mut self) -> StackResult {
        self.checks += 1;
        match self.simplex.check() {
            CheckResult::Sat => StackResult::Sat,
            CheckResult::Unsat(rows) => StackResult::Unsat(rows),
        }
    }

    /// Extracts a rational witness after a [`StackResult::Sat`] verdict.
    pub fn model(&self) -> Vec<Rational> {
        self.simplex.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CmpOp, LinExpr};
    use crate::simplex::check_conjunction;
    use absolver_testkit::{gen, property, Gen};

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
        assert_eq!(s.checks(), 3);
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

    #[test]
    fn retracting_a_middle_row_restores_the_next_bound() {
        let mut s = AssertionStack::new(2);
        let loose = s.push(&c(&[(0, 1)], CmpOp::Le, 5)).unwrap();
        let tight = s.push(&c(&[(0, 1)], CmpOp::Le, 1)).unwrap();
        let sum = s.push(&c(&[(0, 1), (1, 1)], CmpOp::Ge, 4)).unwrap();
        s.push(&c(&[(1, 1)], CmpOp::Le, 2)).unwrap();
        match s.check() {
            StackResult::Unsat(core) => assert!(core.contains(&tight) && core.contains(&sum)),
            StackResult::Sat => panic!("x ≤ 1, y ≤ 2 and x + y ≥ 4 conflict"),
        }
        // Without `x ≤ 1`, `x ≤ 5` bounds x again: sat, and x ≤ 5 holds.
        s.retract(tight);
        assert_eq!(s.len(), 3);
        assert_eq!(s.check(), StackResult::Sat);
        let m = s.model();
        assert!(m[0] <= q(5) && &m[0] + &m[1] >= q(4));
        // A conflict now names the loose bound.
        s.push(&c(&[(1, 1)], CmpOp::Le, -2)).unwrap();
        match s.check() {
            StackResult::Unsat(core) => assert!(core.contains(&loose), "{core:?}"),
            StackResult::Sat => panic!("x ≤ 5, y ≤ −2 and x + y ≥ 4 conflict"),
        }
    }

    #[test]
    fn equal_bounds_name_the_lowest_rank() {
        let mut s = AssertionStack::new(1);
        let late = s.push_ranked(&c(&[(0, 1)], CmpOp::Le, 3), 5).unwrap();
        let early = s.push_ranked(&c(&[(0, 1)], CmpOp::Le, 3), 2).unwrap();
        assert_eq!(s.push(&c(&[(0, 1)], CmpOp::Ge, 4)), Err(vec![early]));
        s.set_rank(late, 1);
        assert_eq!(s.push(&c(&[(0, 1)], CmpOp::Ge, 4)), Err(vec![late]));
        s.retract(late);
        assert_eq!(s.push(&c(&[(0, 1)], CmpOp::Ge, 4)), Err(vec![early]));
    }

    /// One step of [`retraction_interleavings_agree_with_scratch`].
    #[derive(Debug, Clone)]
    enum Op {
        /// Push a constraint, at a given rank or above every row.
        Push(LinearConstraint, Option<u64>),
        /// Retract the live row at this index (modulo the live count).
        Retract(usize),
        /// Give the live row at this index a new rank.
        Rank(usize, u64),
        /// Pop back to this many rows (modulo the live count + 1).
        PopTo(usize),
        Check,
    }

    fn op() -> Gen<Op> {
        let var = gen::ints(0..3usize);
        let coeff = gen::ints(-4i64..=4);
        let term = Gen::new(move |src| (var.generate(src), q(coeff.generate(src))));
        let terms = gen::vec_of(term, 1..4);
        let cmp = gen::from_slice(&[CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt, CmpOp::Eq]);
        let rhs = gen::ints(-6i64..=6);
        let constraint = Gen::new(move |src| {
            LinearConstraint::new(
                LinExpr::from_terms(terms.generate(src)),
                cmp.generate(src),
                q(rhs.generate(src)),
            )
        });
        let kind = gen::ints(0..10u32);
        let index = gen::ints(0..64usize);
        let rank = gen::ints(0..8u64);
        let ranked = gen::bool_any();
        Gen::new(move |src| match kind.generate(src) {
            0..=3 => {
                let c = constraint.generate(src);
                let r = rank.generate(src);
                Op::Push(c, ranked.generate(src).then_some(r))
            }
            4 | 5 => Op::Retract(index.generate(src)),
            6 => Op::Rank(index.generate(src), rank.generate(src)),
            7 => Op::PopTo(index.generate(src)),
            _ => Op::Check,
        })
    }

    property! {
        #![cases = 256]

        /// Differential: push, retraction at any position, re-ranking,
        /// `pop_to` and check, interleaved, agree with from-scratch
        /// `check_conjunction` on the live rows. Every witness satisfies
        /// every live row, and every certificate, at check or at
        /// assertion, is infeasible on its own.
        fn retraction_interleavings_agree_with_scratch(ops in gen::vec_of(op(), 1..48)) {
            let mut stack = AssertionStack::new(3);
            // The live rows in push order, with their handles.
            let mut live: Vec<(RowId, LinearConstraint)> = Vec::new();
            let rows_of = |live: &[(RowId, LinearConstraint)], ids: &[RowId]| -> Vec<LinearConstraint> {
                ids.iter()
                    .map(|id| {
                        let (_, row) = live.iter().find(|(r, _)| r == id).expect("certificate names a live row");
                        row.clone()
                    })
                    .collect()
            };
            for op in ops {
                match op {
                    Op::Push(cst, rank) => {
                        let pushed = match rank {
                            Some(rank) => stack.push_ranked(&cst, rank),
                            None => stack.push(&cst),
                        };
                        match pushed {
                            Ok(id) => live.push((id, cst)),
                            Err(core) => {
                                let mut subset = rows_of(&live, &core);
                                subset.push(cst);
                                assert!(
                                    !check_conjunction(&subset).is_feasible(),
                                    "push conflict {core:?} is feasible"
                                );
                            }
                        }
                    }
                    Op::Retract(i) if !live.is_empty() => {
                        let (id, _) = live.remove(i % live.len());
                        stack.retract(id);
                    }
                    Op::Rank(i, rank) if !live.is_empty() => {
                        stack.set_rank(live[i % live.len()].0, rank);
                    }
                    Op::PopTo(mark) => {
                        let mark = mark % (live.len() + 1);
                        stack.pop_to(mark);
                        live.truncate(mark);
                    }
                    Op::Check => {
                        let rows: Vec<LinearConstraint> = live.iter().map(|(_, r)| r.clone()).collect();
                        let expect = check_conjunction(&rows).is_feasible();
                        match stack.check() {
                            StackResult::Sat => {
                                assert!(expect, "stack sat, scratch unsat: {rows:?}");
                                let model = stack.model();
                                for row in &rows {
                                    assert!(row.eval(&model), "witness violates {row}");
                                }
                            }
                            StackResult::Unsat(core) => {
                                assert!(!expect, "stack unsat, scratch sat: {rows:?}");
                                assert!(
                                    !check_conjunction(&rows_of(&live, &core)).is_feasible(),
                                    "certificate {core:?} is feasible"
                                );
                            }
                        }
                    }
                    Op::Retract(_) | Op::Rank(..) => {}
                }
                assert_eq!(stack.len(), live.len());
            }
        }
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
