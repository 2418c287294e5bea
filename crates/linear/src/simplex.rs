//! An incremental simplex solver for conjunctions of linear constraints.
//!
//! This module plays the role COIN LP plays in the paper: deciding
//! feasibility of the linear constraint system implied by a Boolean model,
//! and producing either a rational witness or a conflicting subset of
//! constraints. The conflicting subset is the certificate of the row that
//! cannot be repaired; the control loop returns it "as a hint for further
//! queries to the SAT-solver" (Sec. 4) without shrinking it further.
//!
//! The algorithm is the general simplex of Dutertre & de Moura ("A fast
//! linear-arithmetic solver for DPLL(T)"): each distinct linear form gets a
//! slack variable, constraints become bounds in the infinitesimal-extended
//! rationals [`QDelta`], and a Bland-rule pivot loop restores bound
//! consistency or yields an infeasibility certificate. Exact [`Rational`]
//! arithmetic makes every verdict sound. The same engine serves both
//! ABsolver's loosely-coupled control loop (one-shot checks) and the
//! tightly-integrated baseline (incremental `push`/`pop`).

use crate::constraint::{CmpOp, LinExpr, LinearConstraint, VarId};
use crate::qdelta::QDelta;
use absolver_num::Rational;
use std::collections::HashMap;

/// Identifier of an asserted constraint, in assertion order.
pub type ConstraintId = usize;

/// Result of a feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The asserted constraints are simultaneously satisfiable.
    Sat,
    /// They are not; the payload is a conflicting subset of constraint ids.
    Unsat(Vec<ConstraintId>),
}

impl CheckResult {
    /// Returns `true` for [`CheckResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat)
    }
}

#[derive(Debug, Clone)]
struct Bound {
    value: QDelta,
    reason: ConstraintId,
}

#[derive(Debug, Clone)]
struct Row {
    basic: VarId,
    /// The basic variable expressed over nonbasic variables.
    expr: LinExpr,
}

#[derive(Debug)]
enum Undo {
    SetLower(VarId, Option<Bound>),
    SetUpper(VarId, Option<Bound>),
}

/// Incremental simplex over `Q_δ` with backtracking scopes.
///
/// ```
/// use absolver_linear::{CheckResult, CmpOp, LinExpr, LinearConstraint, Simplex};
/// use absolver_num::Rational;
///
/// // x + y <= 2  ∧  x - y >= 3  ∧  y >= 0 is infeasible.
/// let c = |terms: Vec<(usize, i64)>, op, rhs: i64| {
///     LinearConstraint::new(
///         LinExpr::from_terms(terms.into_iter().map(|(v, k)| (v, Rational::from_int(k)))),
///         op,
///         Rational::from_int(rhs),
///     )
/// };
/// let mut s = Simplex::with_vars(2);
/// s.assert_constraint(&c(vec![(0, 1), (1, 1)], CmpOp::Le, 2)).unwrap();
/// s.assert_constraint(&c(vec![(0, 1), (1, -1)], CmpOp::Ge, 3)).unwrap();
/// s.assert_constraint(&c(vec![(1, 1)], CmpOp::Ge, 0)).unwrap();
/// assert!(!s.check().is_sat());
/// ```
#[derive(Debug)]
pub struct Simplex {
    /// Number of problem (non-slack) variables.
    num_problem_vars: usize,
    /// Current value of every variable (problem + slack).
    value: Vec<QDelta>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    /// Row index of each basic variable.
    basic_row: Vec<Option<usize>>,
    rows: Vec<Row>,
    /// Canonical linear form → slack variable.
    slack_of: HashMap<LinExpr, VarId>,
    next_constraint: ConstraintId,
    undo: Vec<Undo>,
    scopes: Vec<usize>,
    /// Statistics: pivot operations performed.
    pivots: u64,
}

impl Default for Simplex {
    fn default() -> Self {
        Simplex::with_vars(0)
    }
}

impl Simplex {
    /// Creates a solver over `num_vars` problem variables (`0..num_vars`).
    pub fn with_vars(num_vars: usize) -> Simplex {
        let mut s = Simplex {
            num_problem_vars: num_vars,
            value: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            basic_row: Vec::new(),
            rows: Vec::new(),
            slack_of: HashMap::new(),
            next_constraint: 0,
            undo: Vec::new(),
            scopes: Vec::new(),
            pivots: 0,
        };
        s.grow_to(num_vars);
        s
    }

    /// Number of problem variables.
    pub fn num_vars(&self) -> usize {
        self.num_problem_vars
    }

    /// Total pivot operations performed so far.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    fn grow_to(&mut self, n: usize) {
        while self.value.len() < n {
            self.value.push(QDelta::zero());
            self.lower.push(None);
            self.upper.push(None);
            self.basic_row.push(None);
        }
    }

    /// Opens a backtracking scope.
    pub fn push(&mut self) {
        self.scopes.push(self.undo.len());
    }

    /// Reverts all bound assertions since the matching [`Simplex::push`].
    ///
    /// # Panics
    ///
    /// Panics if there is no open scope.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        self.undo_to(mark);
    }

    /// Current position in the undo log; pass to [`Simplex::undo_to`] to
    /// revert everything asserted after this point. Unlike the
    /// `push`/`pop` scope pair this imposes no nesting discipline — it is
    /// the raw primitive the [`crate::AssertionStack`] builds on.
    pub(crate) fn undo_mark(&self) -> usize {
        self.undo.len()
    }

    /// Reverts bound assertions down to a mark from [`Simplex::undo_mark`].
    /// Only bounds are undone: tableau rows, slack variables and the
    /// current β assignment persist, which is what makes a subsequent
    /// [`Simplex::check`] a warm start.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().unwrap() {
                Undo::SetLower(v, old) => self.lower[v] = old,
                Undo::SetUpper(v, old) => self.upper[v] = old,
            }
        }
    }

    /// Returns the slack variable representing `expr`, creating a tableau
    /// row if this linear form is new. The expression is canonicalised by
    /// dividing through the leading coefficient; the returned factor `k`
    /// satisfies `expr = k · canonical`.
    fn slack_for(&mut self, expr: &LinExpr) -> (VarId, Rational) {
        debug_assert!(!expr.is_zero());
        let lead = expr.terms()[0].1.clone();
        let mut canon = expr.clone();
        canon.scale(&lead.recip());
        // A canonical single variable needs no slack: bound it directly.
        if canon.terms().len() == 1 {
            return (canon.terms()[0].0, lead);
        }
        if let Some(&s) = self.slack_of.get(&canon) {
            return (s, lead);
        }
        // New slack variable s = canon; substitute current basic variables.
        let s = self.value.len();
        self.grow_to(s + 1);
        let mut row_expr = LinExpr::zero();
        for (v, c) in canon.terms() {
            match self.basic_row[*v] {
                Some(r) => {
                    let sub = self.rows[r].expr.clone();
                    row_expr.add_scaled(&sub, c);
                }
                None => row_expr.add_term(*v, c),
            }
        }
        // β(s) := row value under current β.
        let mut beta = QDelta::zero();
        for (v, c) in row_expr.terms() {
            beta = &beta + &self.value[*v].scale(c);
        }
        self.value[s] = beta;
        self.basic_row[s] = Some(self.rows.len());
        self.rows.push(Row {
            basic: s,
            expr: row_expr,
        });
        self.slack_of.insert(canon, s);
        (s, lead)
    }

    /// Asserts a constraint; returns its id, or an immediate conflict when
    /// the new bound contradicts an existing one on the same linear form.
    ///
    /// # Errors
    ///
    /// The error payload is a conflicting subset of constraint ids
    /// (including the new constraint's own id).
    ///
    /// # Panics
    ///
    /// Panics if the constraint mentions a variable `>= num_vars()`.
    pub fn assert_constraint(
        &mut self,
        c: &LinearConstraint,
    ) -> Result<ConstraintId, Vec<ConstraintId>> {
        let cid = self.next_constraint;
        self.next_constraint += 1;

        if let Some(max) = c.max_var() {
            assert!(
                max < self.num_problem_vars,
                "constraint mentions unregistered variable v{max}"
            );
        }
        if c.is_trivial() {
            // 0 ⋈ rhs
            return if c.op.eval(&Rational::zero(), &c.rhs) {
                Ok(cid)
            } else {
                Err(vec![cid])
            };
        }

        let (var, k) = self.slack_for(&c.expr);
        // expr ⋈ rhs  ⇔  k·s ⋈ rhs  ⇔  s ⋈' rhs/k  (⋈' flipped if k < 0).
        let rhs = &c.rhs / &k;
        let op = if k.is_negative() { c.op.flip() } else { c.op };
        let result = match op {
            CmpOp::Le => self.assert_bound(var, false, QDelta::real(rhs), cid),
            CmpOp::Lt => self.assert_bound(var, false, QDelta::just_below(rhs), cid),
            CmpOp::Ge => self.assert_bound(var, true, QDelta::real(rhs), cid),
            CmpOp::Gt => self.assert_bound(var, true, QDelta::just_above(rhs), cid),
            CmpOp::Eq => self
                .assert_bound(var, true, QDelta::real(rhs.clone()), cid)
                .and_then(|_| self.assert_bound(var, false, QDelta::real(rhs), cid)),
        };
        result.map(|_| cid)
    }

    fn assert_bound(
        &mut self,
        var: VarId,
        is_lower: bool,
        bound: QDelta,
        reason: ConstraintId,
    ) -> Result<(), Vec<ConstraintId>> {
        if is_lower {
            if let Some(l) = &self.lower[var] {
                if bound <= l.value {
                    return Ok(()); // weaker than the existing bound
                }
            }
            if let Some(u) = &self.upper[var] {
                if bound > u.value {
                    let mut conflict = vec![reason, u.reason];
                    conflict.sort_unstable();
                    conflict.dedup();
                    return Err(conflict);
                }
            }
            self.undo.push(Undo::SetLower(var, self.lower[var].take()));
            self.lower[var] = Some(Bound {
                value: bound.clone(),
                reason,
            });
            if self.basic_row[var].is_none() && self.value[var] < bound {
                self.update_nonbasic(var, bound);
            }
        } else {
            if let Some(u) = &self.upper[var] {
                if bound >= u.value {
                    return Ok(());
                }
            }
            if let Some(l) = &self.lower[var] {
                if bound < l.value {
                    let mut conflict = vec![reason, l.reason];
                    conflict.sort_unstable();
                    conflict.dedup();
                    return Err(conflict);
                }
            }
            self.undo.push(Undo::SetUpper(var, self.upper[var].take()));
            self.upper[var] = Some(Bound {
                value: bound.clone(),
                reason,
            });
            if self.basic_row[var].is_none() && self.value[var] > bound {
                self.update_nonbasic(var, bound);
            }
        }
        Ok(())
    }

    /// Moves a nonbasic variable to `v`, adjusting all dependent basics.
    fn update_nonbasic(&mut self, var: VarId, v: QDelta) {
        let diff = &v - &self.value[var];
        for row in &self.rows {
            let c = row.expr.coeff(var);
            if !c.is_zero() {
                let adj = diff.scale(&c);
                self.value[row.basic] = &self.value[row.basic] + &adj;
            }
        }
        self.value[var] = v;
    }

    /// Restores bound consistency; returns a conflict certificate on
    /// infeasibility. Uses Bland's rule, so it always terminates.
    pub fn check(&mut self) -> CheckResult {
        loop {
            // Find the violating basic variable with the smallest id.
            let mut violating: Option<(VarId, bool)> = None; // (var, below_lower)
            for row in &self.rows {
                let x = row.basic;
                if let Some(l) = &self.lower[x] {
                    if self.value[x] < l.value {
                        if violating.is_none_or(|(v, _)| x < v) {
                            violating = Some((x, true));
                        }
                        continue;
                    }
                }
                if let Some(u) = &self.upper[x] {
                    if self.value[x] > u.value && violating.is_none_or(|(v, _)| x < v) {
                        violating = Some((x, false));
                    }
                }
            }
            let Some((xi, below)) = violating else {
                return CheckResult::Sat;
            };
            let row_idx = self.basic_row[xi].expect("violating var must be basic");
            let row_expr = self.rows[row_idx].expr.clone();

            // Select the entering variable (smallest id, Bland's rule).
            let mut entering: Option<(VarId, Rational)> = None;
            for (xj, a) in row_expr.terms() {
                let can_increase = self.upper[*xj]
                    .as_ref()
                    .is_none_or(|u| self.value[*xj] < u.value);
                let can_decrease = self.lower[*xj]
                    .as_ref()
                    .is_none_or(|l| self.value[*xj] > l.value);
                // To raise xi (below lower): need a>0 and xj can increase, or
                // a<0 and xj can decrease. Mirror-image to lower xi.
                let ok = if below {
                    (a.is_positive() && can_increase) || (a.is_negative() && can_decrease)
                } else {
                    (a.is_positive() && can_decrease) || (a.is_negative() && can_increase)
                };
                if ok {
                    entering = Some((*xj, a.clone()));
                    break; // terms are sorted by var id
                }
            }

            match entering {
                None => {
                    // Infeasible: build the certificate from the row.
                    let mut conflict = Vec::new();
                    if below {
                        conflict.push(self.lower[xi].as_ref().unwrap().reason);
                        for (xj, a) in row_expr.terms() {
                            let b = if a.is_positive() {
                                self.upper[*xj].as_ref()
                            } else {
                                self.lower[*xj].as_ref()
                            };
                            conflict.push(b.expect("blocking bound must exist").reason);
                        }
                    } else {
                        conflict.push(self.upper[xi].as_ref().unwrap().reason);
                        for (xj, a) in row_expr.terms() {
                            let b = if a.is_positive() {
                                self.lower[*xj].as_ref()
                            } else {
                                self.upper[*xj].as_ref()
                            };
                            conflict.push(b.expect("blocking bound must exist").reason);
                        }
                    }
                    conflict.sort_unstable();
                    conflict.dedup();
                    return CheckResult::Unsat(conflict);
                }
                Some((xj, a)) => {
                    let target = if below {
                        self.lower[xi].as_ref().unwrap().value.clone()
                    } else {
                        self.upper[xi].as_ref().unwrap().value.clone()
                    };
                    self.pivot_and_update(xi, xj, &a, target);
                }
            }
        }
    }

    /// Pivots `xj` into the basis replacing `xi`, and moves `xi` to `v`.
    fn pivot_and_update(&mut self, xi: VarId, xj: VarId, aij: &Rational, v: QDelta) {
        self.pivots += 1;
        let row_idx = self.basic_row[xi].unwrap();

        // Adjust β first: θ = (v − β(xi)) / aij.
        let theta = (&v - &self.value[xi]).scale(&aij.recip());
        self.value[xi] = v;
        self.value[xj] = &self.value[xj] + &theta;
        for (r, row) in self.rows.iter().enumerate() {
            if r == row_idx {
                continue;
            }
            let c = row.expr.coeff(xj);
            if !c.is_zero() {
                self.value[row.basic] = &self.value[row.basic] + &theta.scale(&c);
            }
        }

        // Rewrite the pivot row: xi = expr  ⇒  xj = (xi − (expr − aij·xj)) / aij.
        let mut rest = self.rows[row_idx].expr.clone();
        rest.add_term(xj, &-aij.clone());
        let mut new_expr = LinExpr::var(xi);
        new_expr.add_scaled(&rest, &-Rational::one());
        new_expr.scale(&aij.recip());
        self.rows[row_idx] = Row {
            basic: xj,
            expr: new_expr.clone(),
        };
        self.basic_row[xi] = None;
        self.basic_row[xj] = Some(row_idx);

        // Substitute xj in every other row.
        for r in 0..self.rows.len() {
            if r == row_idx {
                continue;
            }
            let c = self.rows[r].expr.coeff(xj);
            if !c.is_zero() {
                let mut e = std::mem::take(&mut self.rows[r].expr);
                e.add_term(xj, &-c.clone());
                e.add_scaled(&new_expr, &c);
                self.rows[r].expr = e;
            }
        }
    }

    /// Extracts a rational model for the problem variables. Must be called
    /// after a [`CheckResult::Sat`] verdict; the witness is exact and
    /// satisfies every asserted constraint, including strict ones (a
    /// concrete positive value is substituted for `δ`).
    pub fn model(&self) -> Vec<Rational> {
        // Find ε > 0 keeping every bound satisfied.
        let mut eps = Rational::one();
        for v in 0..self.value.len() {
            let beta = &self.value[v];
            if let Some(l) = &self.lower[v] {
                // l.real + l.delta·ε ≤ beta.real + beta.delta·ε
                let dr = &beta.real - &l.value.real; // ≥ 0 when beta ≥ l
                let dd = &l.value.delta - &beta.delta;
                if dd.is_positive() && dr.is_positive() {
                    eps = eps.min(&dr / &dd);
                }
            }
            if let Some(u) = &self.upper[v] {
                let dr = &u.value.real - &beta.real;
                let dd = &beta.delta - &u.value.delta;
                if dd.is_positive() && dr.is_positive() {
                    eps = eps.min(&dr / &dd);
                }
            }
        }
        (0..self.num_problem_vars)
            .map(|v| self.value[v].eval(&eps))
            .collect()
    }
}

/// Feasibility verdict of [`check_conjunction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// Satisfiable; the witness assigns every problem variable.
    Feasible(Vec<Rational>),
    /// Unsatisfiable; the payload indexes a conflicting subset of the input
    /// slice.
    Infeasible(Vec<usize>),
}

impl Feasibility {
    /// Returns `true` for [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }
}

/// One-shot feasibility check of a conjunction of constraints — the entry
/// point used by ABsolver's loosely-coupled control loop.
pub fn check_conjunction(constraints: &[LinearConstraint]) -> Feasibility {
    check_conjunction_counted(constraints).0
}

/// Like [`check_conjunction`], but also reports the number of simplex
/// pivots the check performed — the cost metric the observability layer
/// attributes to the linear phase.
pub fn check_conjunction_counted(constraints: &[LinearConstraint]) -> (Feasibility, u64) {
    let num_vars = constraints
        .iter()
        .filter_map(LinearConstraint::max_var)
        .map(|v| v + 1)
        .max()
        .unwrap_or(0);
    let mut s = Simplex::with_vars(num_vars);
    for c in constraints {
        if let Err(conflict) = s.assert_constraint(c) {
            return (Feasibility::Infeasible(conflict), s.pivots());
        }
    }
    let feasibility = match s.check() {
        CheckResult::Sat => Feasibility::Feasible(s.model()),
        CheckResult::Unsat(conflict) => Feasibility::Infeasible(conflict),
    };
    (feasibility, s.pivots())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn assert_model_satisfies(constraints: &[LinearConstraint]) {
        match check_conjunction(constraints) {
            Feasibility::Feasible(model) => {
                for (i, cst) in constraints.iter().enumerate() {
                    assert!(
                        cst.eval(&model),
                        "constraint {i} `{cst}` violated by model {model:?}"
                    );
                }
            }
            Feasibility::Infeasible(core) => {
                panic!("expected feasible, got conflict {core:?}")
            }
        }
    }

    #[test]
    fn single_bounds() {
        assert_model_satisfies(&[c(&[(0, 1)], CmpOp::Ge, 3), c(&[(0, 1)], CmpOp::Le, 5)]);
        assert_model_satisfies(&[c(&[(0, 1)], CmpOp::Gt, 3), c(&[(0, 1)], CmpOp::Lt, 4)]);
    }

    #[test]
    fn contradictory_bounds() {
        let cs = [c(&[(0, 1)], CmpOp::Ge, 5), c(&[(0, 1)], CmpOp::Le, 3)];
        match check_conjunction(&cs) {
            Feasibility::Infeasible(core) => assert_eq!(core, vec![0, 1]),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn strict_empty_interval() {
        // x > 3 ∧ x < 3 is infeasible; x ≥ 3 ∧ x ≤ 3 is feasible (x = 3).
        let strict = [c(&[(0, 1)], CmpOp::Gt, 3), c(&[(0, 1)], CmpOp::Lt, 3)];
        assert!(!check_conjunction(&strict).is_feasible());
        assert_model_satisfies(&[c(&[(0, 1)], CmpOp::Ge, 3), c(&[(0, 1)], CmpOp::Le, 3)]);
    }

    #[test]
    fn strict_open_interval_needs_epsilon() {
        // 3 < x < 3 + 1/1000000 — feasible only with careful δ handling.
        let cs = [
            c(&[(0, 1_000_000)], CmpOp::Gt, 3_000_000),
            c(&[(0, 1_000_000)], CmpOp::Lt, 3_000_001),
        ];
        assert_model_satisfies(&cs);
    }

    #[test]
    fn two_var_system() {
        // x + y ≤ 10, x − y ≥ 2, y ≥ 1 feasible.
        assert_model_satisfies(&[
            c(&[(0, 1), (1, 1)], CmpOp::Le, 10),
            c(&[(0, 1), (1, -1)], CmpOp::Ge, 2),
            c(&[(1, 1)], CmpOp::Ge, 1),
        ]);
    }

    #[test]
    fn infeasible_triangle() {
        // x + y ≤ 2 ∧ x ≥ 2 ∧ y ≥ 1 infeasible.
        let cs = [
            c(&[(0, 1), (1, 1)], CmpOp::Le, 2),
            c(&[(0, 1)], CmpOp::Ge, 2),
            c(&[(1, 1)], CmpOp::Ge, 1),
        ];
        match check_conjunction(&cs) {
            Feasibility::Infeasible(core) => {
                assert_eq!(core, vec![0, 1, 2], "whole set is the minimal core");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn equalities() {
        // x + y = 5 ∧ x − y = 1 → x = 3, y = 2.
        let cs = [
            c(&[(0, 1), (1, 1)], CmpOp::Eq, 5),
            c(&[(0, 1), (1, -1)], CmpOp::Eq, 1),
        ];
        match check_conjunction(&cs) {
            Feasibility::Feasible(m) => {
                assert_eq!(m[0], q(3));
                assert_eq!(m[1], q(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shared_linear_form_reuses_slack() {
        // Both constraints are bounds on the same form x + y.
        let mut s = Simplex::with_vars(2);
        s.assert_constraint(&c(&[(0, 1), (1, 1)], CmpOp::Le, 10))
            .unwrap();
        s.assert_constraint(&c(&[(0, 2), (1, 2)], CmpOp::Ge, 4))
            .unwrap();
        assert!(s.check().is_sat());
        let m = s.model();
        let sum = &m[0] + &m[1];
        assert!(sum >= q(2) && sum <= q(10));
        // Contradictory bound on the shared form is detected at assert time.
        let conflict = s.assert_constraint(&c(&[(0, 3), (1, 3)], CmpOp::Lt, 6));
        assert_eq!(conflict, Err(vec![1, 2]));
    }

    #[test]
    fn negative_leading_coefficient() {
        // −x ≤ −3  ⇔  x ≥ 3.
        let cs = [c(&[(0, -1)], CmpOp::Le, -3), c(&[(0, 1)], CmpOp::Le, 10)];
        match check_conjunction(&cs) {
            Feasibility::Feasible(m) => assert!(m[0] >= q(3) && m[0] <= q(10)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trivial_constraints() {
        // 0 ≤ 1 holds; 0 ≥ 1 conflicts alone.
        let ok = LinearConstraint::new(LinExpr::zero(), CmpOp::Le, q(1));
        let bad = LinearConstraint::new(LinExpr::zero(), CmpOp::Ge, q(1));
        assert!(check_conjunction(std::slice::from_ref(&ok)).is_feasible());
        assert_eq!(
            check_conjunction(&[ok, bad]),
            Feasibility::Infeasible(vec![1])
        );
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::with_vars(2);
        s.assert_constraint(&c(&[(0, 1)], CmpOp::Ge, 0)).unwrap();
        s.assert_constraint(&c(&[(1, 1)], CmpOp::Ge, 0)).unwrap();
        assert!(s.check().is_sat());
        s.push();
        // Conflict is only discoverable by pivoting, not at assert time.
        s.assert_constraint(&c(&[(0, 1), (1, 1)], CmpOp::Lt, 0))
            .unwrap();
        assert!(!s.check().is_sat());
        s.pop();
        assert!(s.check().is_sat());
        // And the solver can keep going after the pop.
        s.assert_constraint(&c(&[(0, 1)], CmpOp::Le, 7)).unwrap();
        assert!(s.check().is_sat());
        assert!(s.model()[0] >= q(0) && s.model()[0] <= q(7));
    }

    #[test]
    fn pop_after_assert_time_conflict() {
        let mut s = Simplex::with_vars(1);
        s.assert_constraint(&c(&[(0, 1)], CmpOp::Le, 3)).unwrap();
        s.push();
        assert!(s.assert_constraint(&c(&[(0, 1)], CmpOp::Gt, 3)).is_err());
        s.pop();
        assert!(s.check().is_sat());
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        Simplex::with_vars(0).pop();
    }

    #[test]
    fn chained_equalities_force_unique_solution() {
        // x0 = 1, x_{i+1} = x_i + 1 → x4 = 5; adding x4 ≤ 4 is infeasible.
        let mut cs = vec![c(&[(0, 1)], CmpOp::Eq, 1)];
        for i in 0..4 {
            cs.push(c(&[(i + 1, 1), (i, -1)], CmpOp::Eq, 1));
        }
        match check_conjunction(&cs) {
            Feasibility::Feasible(m) => assert_eq!(m[4], q(5)),
            other => panic!("{other:?}"),
        }
        cs.push(c(&[(4, 1)], CmpOp::Le, 4));
        assert!(!check_conjunction(&cs).is_feasible());
    }

    #[test]
    fn degenerate_pivoting_terminates() {
        // A system known to make naive pivot rules cycle; Bland must cope.
        let cs = [
            c(&[(0, 1), (1, -1)], CmpOp::Le, 0),
            c(&[(1, 1), (2, -1)], CmpOp::Le, 0),
            c(&[(2, 1), (0, -1)], CmpOp::Le, 0),
            c(&[(0, 1), (1, 1), (2, 1)], CmpOp::Eq, 0),
            c(&[(0, 1)], CmpOp::Ge, 0),
            c(&[(1, 1)], CmpOp::Ge, 0),
            c(&[(2, 1)], CmpOp::Ge, 0),
        ];
        assert_model_satisfies(&cs);
    }

    #[test]
    fn fractional_solution() {
        // 2x = 1 → x = 1/2.
        let cs = [c(&[(0, 2)], CmpOp::Eq, 1)];
        match check_conjunction(&cs) {
            Feasibility::Feasible(m) => assert_eq!(m[0], Rational::new(1, 2)),
            other => panic!("{other:?}"),
        }
    }
}
