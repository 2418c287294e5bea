//! Nonlinear arithmetic solving for the ABsolver constraint-solving
//! library — the reproduction's stand-in for IPOPT.
//!
//! The crate provides:
//!
//! * [`Expr`] — nonlinear expression trees over `+ − * /` plus the paper's
//!   "straightforward extensions" (`sin`, `cos`, `exp`, `ln`, `sqrt`,
//!   `abs`, integer powers), with `f64` evaluation, sound interval
//!   evaluation, symbolic differentiation, and affine-form extraction.
//! * [`term`] — the global hash-consed term arena: structurally equal
//!   terms intern to one dense `u32` [`TermId`], every term carries a
//!   shared flat evaluation tape, and derivatives are derived and
//!   memoised once per `(node, var)`.
//! * [`NlConstraint`] — comparisons `expr ⋈ c` with point, tolerance and
//!   box (three-valued) evaluation, stored in interned form.
//! * [`hc4`] — the HC4 forward–backward interval contractor, the cheap
//!   first stage of the contractor [`cascade`] (HC4 → BC3 bound shaving
//!   → interval [`newton`]).
//! * [`NlProblem`] — feasibility of constraint conjunctions in two
//!   passes: a cheap [`NlProblem::probe`] ([`PROBE_BOXES`] boxes of
//!   [`branch_and_prune`], then an IPOPT-style multistart
//!   [`local_search`]) and the full [`NlProblem::solve`] (the box search
//!   under the whole budget, which can *prove* UNSAT over a box, then the
//!   local search).
//!
//! ```
//! use absolver_linear::CmpOp;
//! use absolver_nonlinear::{Expr, NlConstraint, NlProblem};
//! use absolver_num::{Interval, Rational};
//!
//! // x² + y² ≤ 1 ∧ x + y ≥ 1: feasible (e.g. on the chord).
//! let x = Expr::var(0);
//! let y = Expr::var(1);
//! let mut p = NlProblem::new(2);
//! p.add_constraint(NlConstraint::new(
//!     x.clone().pow(2) + y.clone().pow(2),
//!     CmpOp::Le,
//!     Rational::one(),
//! ));
//! p.add_constraint(NlConstraint::new(x + y, CmpOp::Ge, Rational::one()));
//! p.bound_var(0, Interval::new(-2.0, 2.0));
//! p.bound_var(1, Interval::new(-2.0, 2.0));
//! assert!(p.solve().is_sat());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade;
mod constraint;
mod expr;
pub mod hc4;
pub mod newton;
mod solve;
pub mod term;

pub use cascade::{bc3_revise, cascade_contract, ActiveSet, Cascade, ContractorConfig};
pub use constraint::{IntervalVerdict, NlConstraint};
pub use expr::{Expr, VarId};
pub use newton::{newton_revise, NewtonConstraint};
pub use solve::{
    branch_and_prune, branch_and_prune_stats, local_search, NlOptions, NlProblem, NlSearchStats,
    NlVerdict, PROBE_BOXES,
};
pub use term::{ArenaStats, ConstraintId, TermId, TermTape};

#[cfg(test)]
mod proptests {
    use super::*;
    use absolver_linear::CmpOp;
    use absolver_num::{Interval, Rational};
    use absolver_testkit::{gen, property, Gen};

    /// Random polynomial-ish expressions over 2 variables, at most
    /// `depth` operator levels deep.
    fn expr_gen(depth: u32) -> Gen<Expr> {
        let leaf = gen::one_of(vec![
            gen::ints(-5i64..=5).map(Expr::int),
            gen::ints(0usize..2).map(Expr::var),
        ]);
        if depth == 0 {
            return leaf;
        }
        let inner = expr_gen(depth - 1);
        let binop = |f: fn(Expr, Expr) -> Expr| {
            let inner = inner.clone();
            Gen::new(move |src| f(inner.generate(src), inner.generate(src)))
        };
        let pow = {
            let inner = inner.clone();
            let n = gen::ints(0i32..4);
            Gen::new(move |src| inner.generate(src).pow(n.generate(src)))
        };
        gen::one_of(vec![
            leaf,
            binop(|a, b| a + b),
            binop(|a, b| a - b),
            binop(|a, b| a * b),
            binop(|a, b| a / b),
            inner.clone().map(|a| -a),
            pow,
            inner.clone().map(Expr::sin),
            inner.clone().map(Expr::cos),
            inner.map(Expr::abs),
        ])
    }

    fn expr_strategy() -> Gen<Expr> {
        expr_gen(3)
    }

    /// Random expressions over the whole operator set and variables
    /// `0..3`, for points that bind only two variables: division by zero,
    /// negative powers of zero, `ln`/`sqrt` of negative values and
    /// unbound (NaN) variables all occur.
    pub(crate) fn wild_expr_gen(depth: u32) -> Gen<Expr> {
        let leaf = gen::one_of(vec![
            gen::ints(-2i64..=2).map(Expr::int),
            gen::ints(0usize..3).map(Expr::var),
        ]);
        if depth == 0 {
            return leaf;
        }
        let inner = wild_expr_gen(depth - 1);
        let binop = |f: fn(Expr, Expr) -> Expr| {
            let inner = inner.clone();
            Gen::new(move |src| f(inner.generate(src), inner.generate(src)))
        };
        let pow = {
            let inner = inner.clone();
            let n = gen::ints(-2i32..4);
            Gen::new(move |src| inner.generate(src).pow(n.generate(src)))
        };
        gen::one_of(vec![
            leaf,
            binop(|a, b| a + b),
            binop(|a, b| a - b),
            binop(|a, b| a * b),
            binop(|a, b| a / b),
            inner.clone().map(|a| -a),
            pow,
            inner.clone().map(Expr::sin),
            inner.clone().map(Expr::cos),
            inner.clone().map(Expr::exp),
            inner.clone().map(Expr::ln),
            inner.clone().map(Expr::sqrt),
            inner.map(Expr::abs),
        ])
    }

    /// Real-definedness: every subexpression evaluates to a finite value
    /// (IEEE `f64` can "recover" from an undefined subterm, e.g.
    /// `0 / (1/0) = 0`, where real arithmetic — and hence interval
    /// arithmetic — says undefined).
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

    /// Body of `interval_encloses_points`, shared with the regression
    /// tests below.
    fn check_interval_encloses_point(e: &Expr, tx: f64, ty: f64) {
        let bx = [Interval::new(-3.0, 2.0), Interval::new(0.5, 4.0)];
        let px = -3.0 + tx * 5.0;
        let py = 0.5 + ty * 3.5;
        if real_defined(e, &[px, py]) {
            let v = e.eval_f64(&[px, py]);
            let iv = e.eval_interval(&bx);
            assert!(iv.contains(v), "{v} escaped {iv} for {e}");
        }
    }

    /// Historical counterexample (from the proptest era): cos of a
    /// division used to lose enclosure tightness near the period
    /// boundary.
    #[test]
    fn regression_cos_of_division_enclosure() {
        let e = Expr::cos(Expr::var(0) / Expr::int(-2));
        check_interval_encloses_point(&e, 0.7366688729558212, 0.0);
    }

    /// Historical counterexample (from the proptest era): IEEE floats
    /// "recover" from the undefined subterm in `0 / (1/0)`, evaluating
    /// to 0, while real (and interval) arithmetic says undefined —
    /// `real_defined` must reject the point rather than comparing the
    /// two semantics.
    #[test]
    fn regression_division_by_infinite_subterm() {
        let e = Expr::int(0) / (Expr::int(1) / Expr::int(0));
        assert!(!real_defined(&e, &[-3.0, 0.5]));
        check_interval_encloses_point(&e, 0.0, 0.0);
    }

    property! {
        #![cases = 96]

        /// Interval evaluation must enclose point evaluation everywhere the
        /// expression is real-defined.
        fn interval_encloses_points(e in expr_strategy(), tx in gen::f64_unit(), ty in gen::f64_unit()) {
            check_interval_encloses_point(&e, tx, ty);
        }

        /// Simplification must preserve point semantics.
        fn simplify_preserves_value(e in expr_strategy(), tx in gen::f64_unit(), ty in gen::f64_unit()) {
            let px = -2.0 + tx * 4.0;
            let py = -2.0 + ty * 4.0;
            let v1 = e.eval_f64(&[px, py]);
            let v2 = e.simplify().eval_f64(&[px, py]);
            if v1.is_finite() && v2.is_finite() {
                let scale = v1.abs().max(1.0);
                assert!((v1 - v2).abs() / scale < 1e-9, "{e}: {v1} vs {v2}");
            }
        }

        /// Derivatives must match numeric differentiation on smooth points.
        fn derivative_matches_finite_difference(e in expr_strategy(), tx in gen::f64_in(0.1, 0.9), ty in gen::f64_in(0.1, 0.9)) {
            let px = -1.0 + tx * 2.0;
            let py = -1.0 + ty * 2.0;
            let h = 1e-6;
            let d = e.derivative(0);
            let sym = d.eval_f64(&[px, py]);
            let f1 = e.eval_f64(&[px + h, py]);
            let f0 = e.eval_f64(&[px - h, py]);
            let num = (f1 - f0) / (2.0 * h);
            // Only check smooth, well-conditioned samples.
            if sym.is_finite() && num.is_finite() && f1.abs() < 1e6 && f0.abs() < 1e6 {
                let scale = sym.abs().max(num.abs()).max(1.0);
                assert!(
                    (sym - num).abs() / scale < 1e-3,
                    "{e}: symbolic {sym} vs numeric {num} at ({px},{py})"
                );
            }
        }

        /// Every root of a compiled [`term::DagProgram`] — expressions
        /// sharing subterms, and their partial derivatives — has the same
        /// bits as its own tape, or is NaN exactly when the tape is, and
        /// the program holds one instruction per distinct node. In the
        /// one-program form (the expressions as the head, the partials as
        /// the tail) the values read after the prefix, and the partials
        /// after the suffix, have the bits of the two separate programs,
        /// at a first point and again at a second one in the same slots.
        fn dag_program_matches_tapes_bitwise(
            a in wild_expr_gen(3),
            b in wild_expr_gen(3),
            x in gen::one_of(vec![gen::f64_in(-4.0, 4.0), gen::from_slice(&[0.0, -0.0, -1.0])]),
            y in gen::one_of(vec![gen::f64_in(-4.0, 4.0), gen::from_slice(&[0.0, 1.0, -2.0])]),
        ) {
            // Rust leaves the sign and payload of a NaN that arithmetic
            // produces unspecified: with two NaN operands of opposite
            // signs, `a * b` may return either, depending on how the
            // compiler orders the operands. So NaNs agree as NaNs.
            let same = |got: f64, want: f64| {
                if want.is_nan() {
                    got.is_nan()
                } else {
                    got.to_bits() == want.to_bits()
                }
            };
            let exprs = [a.clone(), b.clone(), a.clone() + b.clone(), a.clone() * a.clone() / b];
            let heads: Vec<TermId> = exprs.iter().map(term::intern).collect();
            let partials: Vec<TermId> = heads.iter().map(|&r| term::derivative(r, 0)).collect();
            let roots = [heads.clone(), partials.clone()].concat();
            let program = term::compile(&roots);
            assert_eq!(program.len() as u64, term::sharing(&roots).1);
            let point = [x, y];
            let mut slots = Vec::new();
            program.eval_f64(&point, &mut slots);
            for (i, &r) in roots.iter().enumerate() {
                let dag = program.root(&slots, i);
                let tape = term::tape(r).eval_f64(&point);
                assert!(
                    same(dag, tape),
                    "root {i} ({}) at {point:?}: program {dag} vs tape {tape}",
                    term::rebuild(r)
                );
            }

            let one = term::compile_with_prefix(&heads, &partials);
            let (values, grads) = (term::compile(&heads), term::compile(&partials));
            assert_eq!(one.len(), program.len());
            let (mut at, mut value_slots, mut grad_slots) = (Vec::new(), Vec::new(), Vec::new());
            for point in [[x, y], [y, x]] {
                values.eval_f64(&point, &mut value_slots);
                grads.eval_f64(&point, &mut grad_slots);
                one.eval_prefix(&point, &mut at);
                assert_eq!(at.len(), values.len(), "the prefix is the head's program");
                for i in 0..heads.len() {
                    let (got, want) = (one.root(&at, i), values.root(&value_slots, i));
                    assert!(same(got, want), "value {i} at {point:?}: {got} vs {want}");
                }
                one.eval_suffix(&point, &mut at);
                for k in 0..partials.len() {
                    let (got, want) = (one.root(&at, heads.len() + k), grads.root(&grad_slots, k));
                    assert!(same(got, want), "partial {k} at {point:?}: {got} vs {want}");
                }
            }
        }

        /// HC4 propagation never removes a known solution.
        fn hc4_keeps_known_solutions(e in expr_strategy(), tx in gen::f64_unit(), ty in gen::f64_unit()) {
            let px = -2.0 + tx * 4.0;
            let py = -2.0 + ty * 4.0;
            absolver_testkit::assume!(real_defined(&e, &[px, py]));
            let v = e.eval_f64(&[px, py]);
            absolver_testkit::assume!(v.abs() < 1e9);
            // Build a constraint this point definitely satisfies: e ≤ ⌈v⌉ + 1.
            let rhs = Rational::from_f64(v.ceil() + 1.0).unwrap();
            let c = NlConstraint::new(e, CmpOp::Le, rhs);
            let mut bx = vec![Interval::new(-2.0, 2.0), Interval::new(-2.0, 2.0)];
            let out = hc4::propagate(&[c], &mut bx, 10);
            assert_ne!(out, hc4::Contraction::Empty);
            assert!(bx[0].contains(px), "x={px} pruned from {}", bx[0]);
            assert!(bx[1].contains(py), "y={py} pruned from {}", bx[1]);
        }
    }
}
