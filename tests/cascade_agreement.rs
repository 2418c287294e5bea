//! Differential suite for the contractor cascade: the *configuration* of
//! the nonlinear engine (which contractors run, how many worker threads
//! explore boxes) is a scheduling choice and must never change a
//! verdict. Every satisfiable verdict's model is re-checked against the
//! problem.
//!
//! The corpus is decisively solvable — each instance is either clearly
//! satisfiable or refutable well inside the box budget — because only the
//! budget-limited `Unknown` frontier may legitimately differ between
//! configurations.

use absolver::linear::CmpOp;
use absolver::nonlinear::{ContractorConfig, Expr, NlConstraint, NlOptions, NlProblem, NlVerdict};
use absolver::num::{Interval, Rational};
use absolver_testkit::{domain, gen, property, Gen};

fn q(n: i64) -> Rational {
    Rational::from_int(n)
}

fn x() -> Expr {
    Expr::var(0)
}

fn y() -> Expr {
    Expr::var(1)
}

/// Engine configurations under test: full cascade vs. HC4-only,
/// sequential vs. 2 and 4 worker threads.
fn configs() -> Vec<(&'static str, NlOptions)> {
    let base = NlOptions::default;
    vec![
        ("cascade", base()),
        (
            "hc4-only",
            NlOptions {
                contractors: ContractorConfig::hc4_only(),
                ..base()
            },
        ),
        (
            "jobs-2",
            NlOptions {
                nl_jobs: 2,
                ..base()
            },
        ),
        (
            "jobs-4",
            NlOptions {
                nl_jobs: 4,
                ..base()
            },
        ),
    ]
}

/// Solves `p` under every configuration, asserts verdict identity, and
/// re-checks every satisfiable model against the problem itself.
fn assert_agreement(label: &str, p: &NlProblem) {
    let mut first: Option<(String, &'static str)> = None;
    for (name, opts) in configs() {
        let verdict = p.solve_with(&opts);
        let kind = match &verdict {
            NlVerdict::Sat(model) => {
                assert!(
                    p.is_satisfied(model, 1e-6),
                    "{label}/{name}: claimed model fails re-check: {model:?}"
                );
                "sat"
            }
            NlVerdict::Unsat => "unsat",
            NlVerdict::Unknown => "unknown",
        };
        match &first {
            None => first = Some((kind.to_string(), name)),
            Some((expect, base)) => assert_eq!(
                kind, expect,
                "{label}: verdict diverged — {base} says {expect}, {name} says {kind}"
            ),
        }
    }
}

fn bounded(p: &mut NlProblem, lo: f64, hi: f64) {
    for v in 0..p.num_vars() {
        p.bound_var(v, Interval::new(lo, hi));
    }
}

#[test]
fn circle_chord_is_sat_everywhere() {
    // x² + y² ≤ 1 ∧ x + y ≥ 1: feasible on the chord.
    let mut p = NlProblem::new(2);
    p.add_constraint(NlConstraint::new(x().pow(2) + y().pow(2), CmpOp::Le, q(1)));
    p.add_constraint(NlConstraint::new(x() + y(), CmpOp::Ge, q(1)));
    bounded(&mut p, -2.0, 2.0);
    assert_agreement("circle-chord", &p);
}

#[test]
fn circle_far_line_is_unsat_everywhere() {
    // x² + y² ≤ 1 ∧ x + y ≥ 3: the line misses the disc.
    let mut p = NlProblem::new(2);
    p.add_constraint(NlConstraint::new(x().pow(2) + y().pow(2), CmpOp::Le, q(1)));
    p.add_constraint(NlConstraint::new(x() + y(), CmpOp::Ge, q(3)));
    bounded(&mut p, -2.0, 2.0);
    assert_agreement("circle-far-line", &p);
}

#[test]
fn trig_band_is_sat_everywhere() {
    // sin(x) ≥ ½ over [0, π]: HC4 is blind, BC3 shaves, all agree.
    let mut p = NlProblem::new(1);
    p.add_constraint(NlConstraint::new(
        x().sin(),
        CmpOp::Ge,
        "0.5".parse().unwrap(),
    ));
    p.bound_var(0, Interval::new(0.0, std::f64::consts::PI));
    assert_agreement("trig-band", &p);
}

#[test]
fn sqrt_two_equality_is_sat_everywhere() {
    // x² = 2 over [0, 2]: the Newton stage's home turf.
    let mut p = NlProblem::new(1);
    p.add_constraint(NlConstraint::new(x().pow(2), CmpOp::Eq, q(2)));
    p.bound_var(0, Interval::new(0.0, 2.0));
    assert_agreement("sqrt-two", &p);
}

#[test]
fn negative_square_is_unsat_everywhere() {
    // x² = -1 over [-5, 5]: refuted at the root box.
    let mut p = NlProblem::new(1);
    p.add_constraint(NlConstraint::new(x().pow(2), CmpOp::Eq, q(-1)));
    p.bound_var(0, Interval::new(-5.0, 5.0));
    assert_agreement("negative-square", &p);
}

#[test]
fn positive_exponential_is_unsat_everywhere() {
    // eˣ ≤ 0 over [-5, 5].
    let mut p = NlProblem::new(1);
    p.add_constraint(NlConstraint::new(x().exp(), CmpOp::Le, q(0)));
    p.bound_var(0, Interval::new(-5.0, 5.0));
    assert_agreement("positive-exponential", &p);
}

#[test]
fn hyperbola_line_system_is_sat_everywhere() {
    // x·y = 1 ∧ x + y = 2 → x = y = 1.
    let mut p = NlProblem::new(2);
    p.add_constraint(NlConstraint::new(x() * y(), CmpOp::Eq, q(1)));
    p.add_constraint(NlConstraint::new(x() + y(), CmpOp::Eq, q(2)));
    bounded(&mut p, -4.0, 4.0);
    assert_agreement("hyperbola-line", &p);
}

#[test]
fn strict_boundary_is_unsat_everywhere() {
    // x < 0 ∧ x ≥ 0: empty by strictness alone — the closed-interval
    // contraction fixpoint sits exactly on the boundary.
    let mut p = NlProblem::new(1);
    p.add_constraint(NlConstraint::new(x(), CmpOp::Lt, q(0)));
    p.add_constraint(NlConstraint::new(x(), CmpOp::Ge, q(0)));
    p.bound_var(0, Interval::new(-1.0, 1.0));
    assert_agreement("strict-boundary", &p);
}

/// Real-definedness guard (see `tests/contractor_soundness.rs`).
fn real_defined(e: &Expr, point: &[f64]) -> bool {
    let own = e.eval_f64(point).is_finite();
    own && match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Neg(a)
        | Expr::Pow(a, _)
        | Expr::Sin(a)
        | Expr::Cos(a)
        | Expr::Exp(a)
        | Expr::Ln(a)
        | Expr::Sqrt(a)
        | Expr::Abs(a) => real_defined(a, point),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            real_defined(a, point) && real_defined(b, point)
        }
    }
}

fn expr_gen() -> Gen<Expr> {
    domain::expr(2, 3, domain::ExprProfile::polyish())
}

property! {
    #![cases = 48]

    /// Random anchored-satisfiable conjunctions: two inequalities built
    /// to share a witness point. Whatever each configuration concludes,
    /// they must all conclude the same thing, and every claimed model
    /// must satisfy the problem.
    fn random_anchored_conjunctions_agree(
        e1 in expr_gen(),
        e2 in expr_gen(),
        px in gen::f64_in(-3.0, 3.0),
        py in gen::f64_in(-3.0, 3.0),
        s1 in gen::f64_in(0.5, 3.0),
        s2 in gen::f64_in(0.5, 3.0),
        ge1 in gen::bool_any(),
        ge2 in gen::bool_any(),
    ) {
        let p = [px, py];
        let mut problem = NlProblem::new(2);
        for (e, slack, ge) in [(e1, s1, ge1), (e2, s2, ge2)] {
            absolver_testkit::assume!(real_defined(&e, &p));
            let v = e.eval_f64(&p);
            absolver_testkit::assume!(v.is_finite() && v.abs() < 1e6);
            let rhs = if ge { v - slack } else { v + slack };
            let rhs = match Rational::from_f64(rhs) {
                Some(r) => r,
                None => absolver_testkit::runner::reject_case(),
            };
            let op = if ge { CmpOp::Ge } else { CmpOp::Le };
            problem.add_constraint(NlConstraint::new(e, op, rhs));
        }
        bounded(&mut problem, -4.0, 4.0);
        assert_agreement("random-anchored", &problem);
    }
}
