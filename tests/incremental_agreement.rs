//! Differential tests for the incremental theory engine: the
//! assertion-stack simplex path must be invisible in verdicts — only the
//! effort counters may differ.

use absolver::core::{AbProblem, CdclBoolean, LinearBackend, Orchestrator, SimplexLinear, VarKind};
use absolver::linear::{CmpOp, Feasibility, LinearConstraint};
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use absolver_testkit::{Rng, TestRng};

/// A linear backend that answers exactly like [`SimplexLinear`] but
/// refuses to provide an assertion stack, forcing the orchestrator onto
/// the from-scratch `check_conjunction` path of the theory layer.
struct ScratchLinear(SimplexLinear);

impl LinearBackend for ScratchLinear {
    fn name(&self) -> &str {
        "scratch-simplex"
    }

    fn check(&mut self, constraints: &[LinearConstraint]) -> (Feasibility, u64) {
        self.0.check(constraints)
    }
    // Default `make_stack` returns `None`: no incremental session.
}

/// Random Boolean-linear problems over boxed integer variables, the
/// same shape as the solver_agreement corpus.
fn random_problem(rng: &mut TestRng) -> AbProblem {
    let mut b = AbProblem::builder();
    let n_arith = rng.gen_range(1..=2usize);
    let vars: Vec<usize> = (0..n_arith)
        .map(|i| b.arith_var(&format!("v{i}"), VarKind::Int))
        .collect();
    let mut atoms = Vec::new();
    for &v in &vars {
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-3));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(3));
        b.require(hi.positive());
    }
    for _ in 0..rng.gen_range(1..5usize) {
        let v1 = vars[rng.gen_range(0..vars.len())];
        let v2 = vars[rng.gen_range(0..vars.len())];
        let k1 = rng.gen_range(-2i64..=2);
        let k2 = rng.gen_range(-2i64..=2);
        let rhs = rng.gen_range(-4i64..=4);
        let op = match rng.gen_range(0..5) {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            _ => CmpOp::Eq,
        };
        atoms.push(b.atom(
            Expr::int(k1) * Expr::var(v1) + Expr::int(k2) * Expr::var(v2),
            op,
            Rational::from_int(rhs),
        ));
    }
    for _ in 0..rng.gen_range(1..4usize) {
        let len = rng.gen_range(1..=2usize);
        let lits: Vec<_> = (0..len)
            .map(|_| {
                let a = atoms[rng.gen_range(0..atoms.len())];
                if rng.gen_bool(0.5) {
                    a.positive()
                } else {
                    a.negative()
                }
            })
            .collect();
        b.add_clause(lits);
    }
    b.build()
}

#[test]
fn incremental_stack_agrees_with_scratch_backend() {
    let mut rng = TestRng::seed_from_u64(0x1CC0);
    let mut total_warm = 0u64;
    for round in 0..40 {
        let problem = random_problem(&mut rng);

        let mut inc = Orchestrator::with_defaults();
        let with_stack = inc.solve(&problem).unwrap();

        // The second scratch stack replaces the default linear backend:
        // the orchestrator has one linear slot, not a list.
        let scratch_stacks = [
            Orchestrator::custom(Box::new(CdclBoolean::new()))
                .with_linear(Box::new(ScratchLinear(SimplexLinear::new()))),
            Orchestrator::with_defaults()
                .with_linear(Box::new(ScratchLinear(SimplexLinear::new()))),
        ];
        for (i, mut scratch) in scratch_stacks.into_iter().enumerate() {
            let without_stack = scratch.solve(&problem).unwrap();
            assert_eq!(
                with_stack.is_sat(),
                without_stack.is_sat(),
                "round {round}, scratch {i}: incremental {with_stack:?} vs scratch {without_stack:?}"
            );
            if let Some(m) = without_stack.model() {
                assert!(
                    m.satisfies(&problem, 1e-9),
                    "round {round}, scratch {i}: scratch model invalid"
                );
            }
            assert_eq!(
                scratch.stats().simplex_warm_starts,
                0,
                "round {round}, scratch {i}: scratch backend must never warm-start"
            );
        }
        if let Some(m) = with_stack.model() {
            assert!(
                m.satisfies(&problem, 1e-9),
                "round {round}: incremental model invalid"
            );
        }
        total_warm += inc.stats().simplex_warm_starts;
    }
    assert!(total_warm > 0, "corpus never exercised the warm-start path");
}
