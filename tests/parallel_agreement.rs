//! Differential testing of the parallel subsystem: `solve` at several job
//! counts must agree with the sequential control loop, cancellation must
//! be observed within a bounded number of iterations even from deep
//! inside a theory check, and `--time-limit` must hold as a wall-clock
//! deadline rather than a per-iteration hint.

use absolver::core::{
    AbProblem, CdclBoolean, Orchestrator, OrchestratorOptions, Outcome, PenaltyNonlinear,
    SimplexLinear, VarKind,
};
use absolver::linear::CmpOp;
use absolver::logic::Tri;
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use absolver_testkit::{domain, gen, property, Gen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A testkit generator for small Boolean-linear AB-problems (the linear
/// theory path is complete, so sequential verdicts are always Sat or
/// Unsat and differential comparison is exact).
fn linear_problem_gen() -> Gen<AbProblem> {
    let n_vars = gen::ints(1usize..=3);
    let int_kind = gen::bool_any();
    let atoms = gen::vec_of(
        {
            let var = gen::ints(0usize..3);
            let k = gen::ints(-3i64..=3);
            let rhs = gen::ints(-5i64..=5);
            let op = domain::cmp_op();
            Gen::new(move |src| {
                (
                    var.generate(src),
                    k.generate(src),
                    op.generate(src),
                    rhs.generate(src),
                )
            })
        },
        1..5,
    );
    let clauses = gen::vec_of(
        gen::vec_of(
            {
                let idx = gen::ints(0usize..8);
                let neg = gen::bool_any();
                Gen::new(move |src| (idx.generate(src), neg.generate(src)))
            },
            1..3,
        ),
        1..4,
    );
    Gen::new(move |src| {
        let n = n_vars.generate(src);
        let kind = if int_kind.generate(src) {
            VarKind::Int
        } else {
            VarKind::Real
        };
        let mut b = AbProblem::builder();
        let vars: Vec<usize> = (0..n)
            .map(|i| b.arith_var(&format!("v{i}"), kind))
            .collect();
        // Box every variable so verdicts don't hinge on unbounded rays.
        for &v in &vars {
            let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-6));
            b.require(lo.positive());
            let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(6));
            b.require(hi.positive());
        }
        let atom_vars: Vec<_> = atoms
            .generate(src)
            .into_iter()
            .map(|(v, k, op, rhs)| {
                b.atom(
                    Expr::int(k) * Expr::var(vars[v % vars.len()]),
                    op,
                    Rational::from_int(rhs),
                )
            })
            .collect();
        for clause in clauses.generate(src) {
            let lits: Vec<_> = clause
                .into_iter()
                .map(|(i, neg)| {
                    let a = atom_vars[i % atom_vars.len()];
                    if neg {
                        a.negative()
                    } else {
                        a.positive()
                    }
                })
                .collect();
            b.add_clause(lits);
        }
        b.build()
    })
}

property! {
    #![cases = 100]

    /// `solve` at 1, 2, and 4 jobs returns the same SAT/UNSAT
    /// verdict as the sequential control loop, and every Sat model
    /// satisfies the three-valued Boolean circuit *and* the arithmetic
    /// constraints.
    fn parallel_agrees_with_sequential(problem in linear_problem_gen()) {
        let mut orc = Orchestrator::with_defaults();
        let sequential = orc.solve(&problem).unwrap();
        assert!(
            !matches!(sequential, Outcome::Unknown),
            "linear problems must be decided sequentially"
        );

        for jobs in [1usize, 2, 4] {
            let mut par = Orchestrator::with_defaults().with_options(OrchestratorOptions {
                jobs,
                deterministic: true,
                ..Default::default()
            });
            let outcome = par.solve(&problem).unwrap();
            let stats = par.stats();
            assert_eq!(
                sequential.is_sat(),
                outcome.is_sat(),
                "jobs={jobs}: sequential {sequential:?} vs parallel {outcome:?} ({stats})"
            );
            assert_eq!(sequential.is_unsat(), outcome.is_unsat(), "jobs={jobs}");
            if let Outcome::Sat(m) = &outcome {
                assert_eq!(
                    problem.cnf().eval(&m.boolean),
                    Tri::True,
                    "jobs={jobs}: parallel model fails the Boolean circuit"
                );
                assert!(
                    m.satisfies(&problem, 1e-9),
                    "jobs={jobs}: parallel model invalid"
                );
            }
        }
    }
}

/// A problem whose only theory check is a huge numerical search: with a
/// penalty-only stack and an inflated multistart budget, one
/// `local_search` call would run for minutes — far past any test budget —
/// unless the engine polls its interrupt.
fn heavy_nonlinear_problem() -> AbProblem {
    "p cnf 1 1\n1 0\nc def real 1 x^2 <= -1\nc range x -50 50\n"
        .parse()
        .unwrap()
}

fn heavy_penalty_orchestrator() -> Orchestrator {
    let mut penalty = PenaltyNonlinear::default();
    penalty.options.restarts = 50_000_000;
    penalty.options.iterations = 100_000;
    Orchestrator::custom(Box::new(CdclBoolean::new()))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(penalty))
}

/// A shard stuck deep inside a large nonlinear budget observes the
/// cancellation token within a bounded number of iterations: the solve
/// returns `Unknown` with `cancelled` set well before the budget is
/// exhausted, after at most the one Boolean iteration it was inside.
#[test]
fn cancellation_is_observed_inside_a_theory_check() {
    let problem = heavy_nonlinear_problem();
    let token = Arc::new(AtomicBool::new(false));
    let (outcome, stats, observed_after) = std::thread::scope(|scope| {
        let solver_token = token.clone();
        let handle = scope.spawn(move || {
            let mut orc = heavy_penalty_orchestrator().with_cancel_token(solver_token);
            let outcome = orc.solve(&problem).unwrap();
            (outcome, orc.stats())
        });
        std::thread::sleep(Duration::from_millis(100));
        let raised = Instant::now();
        token.store(true, Ordering::Relaxed);
        let (outcome, stats) = handle.join().unwrap();
        (outcome, stats, raised.elapsed())
    });
    assert_eq!(outcome, Outcome::Unknown);
    assert!(
        stats.cancelled,
        "stats must record the cancellation: {stats}"
    );
    assert!(
        stats.boolean_iterations <= 2,
        "cancel must interrupt the theory check itself, not wait out the budget: {stats}"
    );
    assert!(
        observed_after < Duration::from_secs(5),
        "token observed only after {observed_after:?}"
    );
}

/// Regression for `--time-limit`: the limit is a deadline *inside* the
/// theory budget, so a single theory check longer than the whole limit
/// is interrupted — previously the limit was only consulted between
/// Boolean iterations and a deep check could overshoot it arbitrarily.
#[test]
fn time_limit_interrupts_a_deep_theory_check() {
    let problem = heavy_nonlinear_problem();
    let limit = Duration::from_millis(200);
    let mut orc = heavy_penalty_orchestrator().with_options(OrchestratorOptions {
        time_limit: Some(limit),
        ..Default::default()
    });
    let started = Instant::now();
    let outcome = orc.solve(&problem).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(outcome, Outcome::Unknown);
    assert!(
        orc.stats().timed_out,
        "stats must record the timeout: {}",
        orc.stats()
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "a 200ms limit must not let one theory check run for {elapsed:?}"
    );
}

/// `--time-limit` composed with `--jobs`: every shard shares one
/// wall-clock deadline, and the aggregated stats report the timeout.
#[test]
fn time_limit_bounds_parallel_runs() {
    let problem = heavy_nonlinear_problem();
    let mut orc = Orchestrator::with_defaults().with_options(OrchestratorOptions {
        jobs: 2,
        time_limit: Some(Duration::from_millis(200)),
        ..Default::default()
    });
    let started = Instant::now();
    let outcome = orc.solve(&problem).unwrap();
    let elapsed = started.elapsed();
    let stats = orc.stats();
    // The interval engine proves this UNSAT instantly, so the default
    // portfolio stacks may legitimately finish inside the limit; what is
    // forbidden is running long or claiming Sat.
    assert!(!outcome.is_sat(), "x^2 <= -1 cannot be Sat");
    assert!(
        elapsed < Duration::from_secs(10),
        "200ms limit overshot to {elapsed:?} ({stats})"
    );
}

/// The caller's own token stops a `jobs` ≥ 2 solve, whose shards poll
/// only their run's token: a token raised before the call reaches every
/// component shard, and the call reports the cancellation, which no
/// decisive item settled.
#[test]
fn caller_token_stops_a_parallel_solve() {
    let problem = absolver_bench::workloads::decomposable_problem(4, 120);
    let mut orc = Orchestrator::with_defaults()
        .with_options(OrchestratorOptions {
            jobs: 2,
            ..Default::default()
        })
        .with_cancel_token(Arc::new(AtomicBool::new(true)));
    assert_eq!(orc.solve(&problem).unwrap(), Outcome::Unknown);
    let stats = orc.stats();
    assert!(stats.cancelled, "{stats}");
    assert!(!stats.timed_out, "{stats}");
    assert_eq!(stats.components, 4, "{stats}");
}
