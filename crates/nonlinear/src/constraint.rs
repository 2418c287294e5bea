//! Nonlinear constraints `expr ⋈ rhs` and their three-valued evaluation.
//!
//! A constraint is stored in *interned* form: the LHS lives in the global
//! [`crate::term`] arena as a dense [`TermId`], the `(term, op, rhs)`
//! triple has a stable [`ConstraintId`], and evaluation runs over the
//! shared flat [`TermTape`] instead of recursing a boxed tree. Structural
//! equality is id equality, which is what makes the constraint usable as
//! an O(1) cache-key component across solves and requests.

use crate::expr::{Expr, VarId};
use crate::term::{self, ConstraintId, TermId, TermTape};
use absolver_linear::{CmpOp, LinExpr};
use absolver_num::{Interval, Rational};
use std::fmt;
use std::sync::Arc;

/// A nonlinear constraint `expr ⋈ rhs` in interned form.
///
/// `op` and `rhs` are plain public fields (the id is keyed on them at
/// construction; they are read-only by convention everywhere). The LHS is
/// reached through [`NlConstraint::tape`] on hot paths and rebuilt via
/// [`NlConstraint::expr`] on cold ones (printing, rendering).
#[derive(Clone)]
pub struct NlConstraint {
    /// Interned LHS term.
    term: TermId,
    /// Stable id of the whole `(term, op, rhs)` constraint.
    cid: ConstraintId,
    /// Shared flat evaluation form of the LHS.
    tape: Arc<TermTape>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side constant.
    pub rhs: Rational,
}

/// Three-valued verdict of an interval check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalVerdict {
    /// Every point of the box satisfies the constraint.
    CertainlyTrue,
    /// No point of the box satisfies the constraint.
    CertainlyFalse,
    /// The box contains both kinds of points (or precision was lost).
    Unknown,
}

impl NlConstraint {
    /// Creates `expr ⋈ rhs`, interning the LHS into the global arena.
    pub fn new(expr: Expr, op: CmpOp, rhs: Rational) -> NlConstraint {
        let (term, tape) = term::intern_with_tape(&expr);
        let cid = term::intern_constraint(term, op, &rhs);
        NlConstraint {
            term,
            cid,
            tape,
            op,
            rhs,
        }
    }

    /// The same LHS under a different comparison (no re-interning of the
    /// term — only the constraint id changes).
    pub fn with_op(&self, op: CmpOp) -> NlConstraint {
        let cid = term::intern_constraint(self.term, op, &self.rhs);
        NlConstraint {
            term: self.term,
            cid,
            tape: Arc::clone(&self.tape),
            op,
            rhs: self.rhs.clone(),
        }
    }

    /// Interned id of the LHS term.
    pub fn term(&self) -> TermId {
        self.term
    }

    /// Stable dense id of the whole constraint: equal ids ⇔ structurally
    /// equal constraints, across solves and requests. The service's
    /// structural keys are built on this.
    pub fn cid(&self) -> ConstraintId {
        self.cid
    }

    /// The shared flat evaluation form of the LHS.
    pub fn tape(&self) -> &Arc<TermTape> {
        &self.tape
    }

    /// Rebuilds the LHS as a boxed expression tree (cold paths only).
    pub fn expr(&self) -> Expr {
        term::rebuild(self.term)
    }

    /// The LHS value at a point, in `f64` arithmetic.
    pub fn lhs_f64(&self, point: &[f64]) -> f64 {
        self.tape.eval_f64(point)
    }

    /// Point evaluation in `f64` arithmetic (exact comparison, no
    /// tolerance). NaN evaluates to `false`.
    pub fn eval(&self, point: &[f64]) -> bool {
        let lhs = self.tape.eval_f64(point);
        let rhs = self.rhs.to_f64();
        match self.op {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
        }
    }

    /// Witness-quality evaluation: inequalities are checked *exactly* in
    /// `f64`, only equalities get a tolerance (exact float equality being
    /// unattainable for a numerical solver). This is the acceptance test
    /// for nonlinear witnesses, so that downstream exact re-evaluation
    /// (e.g. simulating the original model) agrees with the solver.
    pub fn eval_robust(&self, point: &[f64], eq_tol: f64) -> bool {
        holds_robust(
            self.op,
            self.tape.eval_f64(point),
            self.rhs.to_f64(),
            eq_tol,
        )
    }

    /// Point evaluation with a tolerance on non-strict and equality
    /// comparisons — the satisfaction notion of numerical solvers like
    /// IPOPT, which the local search targets.
    pub fn eval_with_tol(&self, point: &[f64], tol: f64) -> bool {
        let lhs = self.tape.eval_f64(point);
        let rhs = self.rhs.to_f64();
        match self.op {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs + tol,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs - tol,
            CmpOp::Eq => (lhs - rhs).abs() <= tol,
        }
    }

    /// The RHS as a sound enclosing interval: a point when the rational is
    /// exactly representable as a double, one ulp of widening otherwise.
    pub fn rhs_interval(&self) -> Interval {
        let v = self.rhs.to_f64();
        if Rational::from_f64(v).as_ref() == Some(&self.rhs) {
            Interval::point(v)
        } else {
            Interval::checked(v.next_down(), v.next_up())
        }
    }

    /// Sound three-valued check over a box.
    ///
    /// `CertainlyTrue`/`CertainlyFalse` are rigorous (interval arithmetic
    /// with outward rounding); `Unknown` carries no information.
    pub fn check_box(&self, boxes: &[Interval]) -> IntervalVerdict {
        self.check_interval(self.tape.eval_interval(boxes))
    }

    /// Classifies a precomputed enclosure of the LHS (as produced by
    /// [`TermTape::eval_interval`] or the HC4 forward pass) against the
    /// RHS — the allocation-free core of [`NlConstraint::check_box`].
    pub fn check_interval(&self, lhs: Interval) -> IntervalVerdict {
        if lhs.is_empty() {
            // The expression is undefined everywhere in the box (e.g. sqrt
            // of a negative range): no point satisfies the constraint.
            return IntervalVerdict::CertainlyFalse;
        }
        let rhs = self.rhs_interval();
        match self.op {
            CmpOp::Lt => {
                if lhs.hi() < rhs.lo() {
                    IntervalVerdict::CertainlyTrue
                } else if lhs.lo() >= rhs.hi() {
                    IntervalVerdict::CertainlyFalse
                } else {
                    IntervalVerdict::Unknown
                }
            }
            CmpOp::Le => {
                if lhs.hi() <= rhs.lo() {
                    IntervalVerdict::CertainlyTrue
                } else if lhs.lo() > rhs.hi() {
                    IntervalVerdict::CertainlyFalse
                } else {
                    IntervalVerdict::Unknown
                }
            }
            CmpOp::Gt => {
                if lhs.lo() > rhs.hi() {
                    IntervalVerdict::CertainlyTrue
                } else if lhs.hi() <= rhs.lo() {
                    IntervalVerdict::CertainlyFalse
                } else {
                    IntervalVerdict::Unknown
                }
            }
            CmpOp::Ge => {
                if lhs.lo() >= rhs.hi() {
                    IntervalVerdict::CertainlyTrue
                } else if lhs.hi() < rhs.lo() {
                    IntervalVerdict::CertainlyFalse
                } else {
                    IntervalVerdict::Unknown
                }
            }
            CmpOp::Eq => {
                if lhs.is_point() && rhs.is_point() && lhs == rhs {
                    IntervalVerdict::CertainlyTrue
                } else if lhs.intersect(rhs).is_empty() {
                    IntervalVerdict::CertainlyFalse
                } else {
                    IntervalVerdict::Unknown
                }
            }
        }
    }

    /// The interval the LHS must fall into for the constraint to hold
    /// (closing strict bounds — a sound over-approximation used by the HC4
    /// contractor).
    pub fn target_interval(&self) -> Interval {
        let rhs = self.rhs_interval();
        match self.op {
            CmpOp::Lt | CmpOp::Le => Interval::new(f64::NEG_INFINITY, rhs.hi()),
            CmpOp::Gt | CmpOp::Ge => Interval::new(rhs.lo(), f64::INFINITY),
            CmpOp::Eq => rhs,
        }
    }

    /// Largest variable id mentioned, if any (precomputed on the tape).
    pub fn max_var(&self) -> Option<VarId> {
        self.tape.max_var
    }

    /// The sorted variables the constraint mentions (precomputed on the
    /// tape).
    pub fn variables(&self) -> &[VarId] {
        &self.tape.vars
    }

    /// Whether the LHS is affine (precomputed on the tape).
    pub fn is_linear(&self) -> bool {
        self.tape.is_linear()
    }

    /// The affine view `Σ aᵢ·xᵢ + c` of the LHS, when linear
    /// (precomputed on the tape).
    pub fn to_affine(&self) -> Option<&(LinExpr, Rational)> {
        self.tape.affine.as_ref()
    }

    /// The *normalized* affine inequality view: `Σ aᵢ·xᵢ ⋈ t` with the
    /// LHS constant folded into the threshold (`t = (rhs − c) / |lead|`)
    /// and the whole row scaled so the leading coefficient (the lowest
    /// variable id) is `+1` — scaling by a negative flips the comparison
    /// direction. Two affine constraints dominate one another exactly
    /// when their normalized rows are equal and the threshold/direction
    /// pairs compare, so the analyzer's dominance pass keys on the
    /// returned [`LinExpr`]. `None` for a nonlinear LHS or an affine LHS
    /// without variables.
    pub fn normalized_affine(&self) -> Option<(LinExpr, CmpOp, Rational)> {
        let (lin, constant) = self.to_affine()?;
        let lead = lin.terms().first()?.1.clone();
        let inv = lead.recip();
        let mut expr = lin.clone();
        expr.scale(&inv);
        let threshold = (self.rhs.clone() - constant.clone()) * inv;
        let op = if lead.is_negative() {
            self.op.flip()
        } else {
            self.op
        };
        Some((expr, op, threshold))
    }

    /// The negated constraint as a disjunction (Sec. 1: `¬(= c)` splits
    /// into `< c ∨ > c`). Reuses the interned term — no tree rebuilding.
    pub fn negate(&self) -> Vec<NlConstraint> {
        match self.op.negate() {
            Some(op) => vec![self.with_op(op)],
            None => vec![self.with_op(CmpOp::Lt), self.with_op(CmpOp::Gt)],
        }
    }
}

/// [`NlConstraint::eval_robust`] on an already evaluated `lhs ⋈ rhs`.
pub(crate) fn holds_robust(op: CmpOp, lhs: f64, rhs: f64, eq_tol: f64) -> bool {
    match op {
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
        CmpOp::Eq => (lhs - rhs).abs() <= eq_tol,
    }
}

/// How far an evaluated `lhs ⋈ rhs` is from holding (`0` when it holds);
/// the penalty the local search minimises. `margin` nudges every
/// inequality into the strict interior, so that accepted witnesses satisfy
/// the exact `f64` comparison and do not hug boundaries.
pub(crate) fn violation(op: CmpOp, lhs: f64, rhs: f64, margin: f64) -> f64 {
    let v = match op {
        CmpOp::Lt | CmpOp::Le => lhs - rhs + margin,
        CmpOp::Gt | CmpOp::Ge => rhs - lhs + margin,
        CmpOp::Eq => return (lhs - rhs).abs(),
    };
    v.max(0.0)
}

impl PartialEq for NlConstraint {
    fn eq(&self, other: &NlConstraint) -> bool {
        // Ids are canonical: equal ids ⇔ structurally equal constraints.
        self.cid == other.cid
    }
}

impl fmt::Debug for NlConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NlConstraint")
            .field("expr", &self.expr())
            .field("op", &self.op)
            .field("rhs", &self.rhs)
            .field("cid", &self.cid)
            .finish()
    }
}

impl fmt::Display for NlConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.expr(), self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn point_eval() {
        let c = NlConstraint::new(x() * x(), CmpOp::Le, q(4));
        assert!(c.eval(&[2.0]));
        assert!(c.eval(&[-2.0]));
        assert!(!c.eval(&[2.1]));
        let s = NlConstraint::new(x(), CmpOp::Lt, q(0));
        assert!(!s.eval(&[0.0]));
        assert!(s.eval(&[-1e-300]));
    }

    #[test]
    fn eval_with_tolerance() {
        let c = NlConstraint::new(x(), CmpOp::Eq, q(1));
        assert!(!c.eval(&[1.0 + 1e-9]));
        assert!(c.eval_with_tol(&[1.0 + 1e-9], 1e-6));
        assert!(!c.eval_with_tol(&[1.1], 1e-6));
    }

    #[test]
    fn violations() {
        assert_eq!(violation(CmpOp::Le, 1.0, 2.0, 0.0), 0.0);
        assert_eq!(violation(CmpOp::Le, 3.0, 2.0, 0.0), 1.0);
        assert_eq!(violation(CmpOp::Eq, 5.0, 2.0, 0.0), 3.0);
        assert!(violation(CmpOp::Gt, 0.0, 0.0, 1e-3) > 0.0);
        assert_eq!(violation(CmpOp::Gt, 1.0, 0.0, 1e-3), 0.0);
    }

    #[test]
    fn interval_checks() {
        let c = NlConstraint::new(x() * x(), CmpOp::Le, q(4));
        assert_eq!(
            c.check_box(&[Interval::new(-1.0, 1.0)]),
            IntervalVerdict::CertainlyTrue
        );
        assert_eq!(
            c.check_box(&[Interval::new(3.0, 5.0)]),
            IntervalVerdict::CertainlyFalse
        );
        assert_eq!(
            c.check_box(&[Interval::new(1.0, 3.0)]),
            IntervalVerdict::Unknown
        );
    }

    #[test]
    fn interval_check_undefined_expression() {
        // sqrt(x) with x entirely negative: constraint unsatisfiable there.
        let c = NlConstraint::new(x().sqrt(), CmpOp::Ge, q(0));
        assert_eq!(
            c.check_box(&[Interval::new(-5.0, -1.0)]),
            IntervalVerdict::CertainlyFalse
        );
    }

    #[test]
    fn equality_certainty() {
        let c = NlConstraint::new(x(), CmpOp::Eq, q(2));
        assert_eq!(
            c.check_box(&[Interval::new(3.0, 4.0)]),
            IntervalVerdict::CertainlyFalse
        );
        assert_eq!(
            c.check_box(&[Interval::new(1.0, 3.0)]),
            IntervalVerdict::Unknown
        );
    }

    #[test]
    fn negation_splits_equality() {
        let c = NlConstraint::new(x().sin(), CmpOp::Eq, q(0));
        let neg = c.negate();
        assert_eq!(neg.len(), 2);
        assert_eq!(neg[0].op, CmpOp::Lt);
        assert_eq!(neg[1].op, CmpOp::Gt);
        assert_eq!(neg[0].term(), c.term(), "negation shares the interned LHS");
        let le = NlConstraint::new(x(), CmpOp::Le, q(0)).negate();
        assert_eq!(le.len(), 1);
        assert_eq!(le[0].op, CmpOp::Gt);
    }

    #[test]
    fn target_intervals() {
        let le = NlConstraint::new(x(), CmpOp::Le, q(3));
        assert!(le.target_interval().contains(3.0));
        assert!(le.target_interval().contains(-1e300));
        assert!(!le.target_interval().contains(4.0));
        let eq = NlConstraint::new(x(), CmpOp::Eq, q(3));
        assert!(eq.target_interval().contains(3.0));
        assert!(eq.target_interval().width() < 1e-9);
    }

    #[test]
    fn interned_equality_is_structural() {
        let a = NlConstraint::new(x() * x(), CmpOp::Le, q(4));
        let b = NlConstraint::new(x() * x(), CmpOp::Le, q(4));
        let c = NlConstraint::new(x() * x(), CmpOp::Lt, q(4));
        assert_eq!(a, b);
        assert_eq!(a.cid(), b.cid());
        assert_ne!(a, c);
        assert_eq!(a.expr(), b.expr());
    }
}
