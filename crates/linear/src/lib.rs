//! Exact linear-arithmetic solving for the ABsolver constraint-solving
//! library.
//!
//! This crate is the reproduction's stand-in for the COIN LP solver the
//! paper plugs into ABsolver's linear domain:
//!
//! * [`LinExpr`] / [`LinearConstraint`] — sparse rational linear forms and
//!   comparisons (`<`, `≤`, `>`, `≥`, `=`).
//! * [`Simplex`] — an incremental Dutertre–de-Moura general simplex over
//!   the infinitesimal-extended rationals [`QDelta`], with
//!   `push`/`pop` backtracking for tight DPLL(T) integration.
//! * [`check_conjunction`] — one-shot feasibility with witness or conflict
//!   certificate, the entry point of ABsolver's loose control loop.
//! * [`AssertionStack`] — a persistent, backtrackable assertion stack over
//!   one simplex instance: `push`/`pop_to`/`check` with warm-started
//!   re-checks, the engine behind the orchestrator's incremental theory
//!   checks.
//!
//! A conflict is the certificate of the simplex row that cannot be
//! repaired: the row's bound plus the bounds blocking every nonbasic
//! variable on it. Both entry points return exactly that set; the control
//! loop feeds it back to the Boolean solver as the paper's conflict hint.
//!
//! All arithmetic is exact ([`absolver_num::Rational`]); verdicts are never
//! subject to floating-point error.
//!
//! ```
//! use absolver_linear::{check_conjunction, CmpOp, Feasibility, LinExpr, LinearConstraint};
//! use absolver_num::Rational;
//!
//! // i ≥ 0 ∧ j ≥ 0 ∧ i + j < 5 (from the paper's running example).
//! let ge0 = |v| LinearConstraint::new(LinExpr::var(v), CmpOp::Ge, Rational::zero());
//! let sum = LinearConstraint::new(
//!     LinExpr::from_terms([(0, Rational::one()), (1, Rational::one())]),
//!     CmpOp::Lt,
//!     Rational::from_int(5),
//! );
//! match check_conjunction(&[ge0(0), ge0(1), sum]) {
//!     Feasibility::Feasible(model) => assert!(&model[0] + &model[1] < Rational::from_int(5)),
//!     Feasibility::Infeasible(core) => panic!("unexpected conflict {core:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod qdelta;
mod simplex;
mod stack;

pub use constraint::{CmpOp, LinExpr, LinearConstraint, VarId};
pub use qdelta::QDelta;
pub use simplex::{
    check_conjunction, check_conjunction_counted, CheckResult, ConstraintId, Feasibility, Simplex,
};
pub use stack::{AssertionStack, RowId, StackResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use absolver_num::Rational;
    use absolver_testkit::{gen, property, Gen};

    fn constraint_gen(num_vars: usize) -> Gen<LinearConstraint> {
        let var = gen::ints(0..num_vars);
        let coeff = gen::ints(-4i64..=4);
        let term =
            Gen::new(move |src| (var.generate(src), Rational::from_int(coeff.generate(src))));
        let terms = gen::vec_of(term, 1..4);
        let op = gen::from_slice(&[CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt, CmpOp::Eq]);
        let rhs = gen::ints(-6i64..=6);
        Gen::new(move |src| {
            LinearConstraint::new(
                LinExpr::from_terms(terms.generate(src)),
                op.generate(src),
                Rational::from_int(rhs.generate(src)),
            )
        })
    }

    property! {
        #![cases = 128]

        /// Feasible verdicts must come with a genuinely satisfying witness.
        fn witnesses_are_sound(cs in gen::vec_of(constraint_gen(3), 1..8)) {
            if let Feasibility::Feasible(model) = check_conjunction(&cs) {
                for c in &cs {
                    assert!(c.eval(&model), "constraint {c} violated by witness {model:?}");
                }
            }
        }

        /// Conflict certificates must themselves be infeasible sets.
        fn conflicts_are_sound(cs in gen::vec_of(constraint_gen(3), 1..8)) {
            if let Feasibility::Infeasible(core) = check_conjunction(&cs) {
                assert!(!core.is_empty());
                let subset: Vec<LinearConstraint> =
                    core.iter().map(|&i| cs[i].clone()).collect();
                assert!(
                    !check_conjunction(&subset).is_feasible(),
                    "certificate {core:?} is feasible on its own"
                );
            }
        }

        /// Rational-grid ground truth: brute-force a small grid; if any grid
        /// point satisfies everything, the solver must say feasible.
        fn grid_completeness(cs in gen::vec_of(constraint_gen(2), 1..6)) {
            let mut grid_sat = false;
            'outer: for x in -8..=8i64 {
                for y in -8..=8i64 {
                    let point = vec![Rational::from_int(x), Rational::from_int(y)];
                    if cs.iter().all(|c| c.eval(&point)) {
                        grid_sat = true;
                        break 'outer;
                    }
                }
            }
            if grid_sat {
                assert!(check_conjunction(&cs).is_feasible());
            }
        }
    }
}
