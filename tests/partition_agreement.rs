//! Differential testing of the structural-partition subsystem: solving a
//! problem component-by-component (sequentially under the preprocessor,
//! concurrently under `solve_parallel`, or by hand via
//! [`Partition::extract`]/[`Partition::stitch`]) must agree verdict-for-
//! verdict with solving the whole problem at once, and every stitched
//! model must satisfy the *original* conjunction — the Boolean circuit
//! and the arithmetic constraints alike.
//!
//! The salted corpus deliberately includes disconnected problems: each
//! generated block draws its own arithmetic variables and its own atoms,
//! and no clause ever mixes atoms across blocks, so a `k`-block draw has
//! exactly `k` incidence-graph components.

use absolver::analyze::Simplifier;
use absolver::core::{
    AbModel, AbProblem, Orchestrator, Outcome, ParallelOptions, Partition, VarKind,
};
use absolver::linear::CmpOp;
use absolver::logic::Tri;
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use absolver::trace::{CollectingSink, TraceSink};
use absolver_testkit::{domain, gen, property, Gen};
use std::sync::Arc;

/// A testkit generator for problems made of 1–3 *independent* blocks:
/// every block is a small Boolean-linear subproblem over its own
/// arithmetic variables (the linear theory is complete, so verdicts are
/// always Sat or Unsat and differential comparison is exact).
fn disconnected_problem_gen() -> Gen<AbProblem> {
    let n_blocks = gen::ints(1usize..=3);
    let block_vars = gen::ints(1usize..=2);
    let int_kind = gen::bool_any();
    let atoms = gen::vec_of(
        {
            let var = gen::ints(0usize..2);
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
        1..4,
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
        1..3,
    );
    Gen::new(move |src| {
        let mut b = AbProblem::builder();
        for blk in 0..n_blocks.generate(src) {
            let n = block_vars.generate(src);
            let kind = if int_kind.generate(src) {
                VarKind::Int
            } else {
                VarKind::Real
            };
            let vars: Vec<usize> = (0..n)
                .map(|i| b.arith_var(&format!("b{blk}v{i}"), kind))
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
        }
        b.build()
    })
}

/// Asserts a Sat model satisfies the whole original problem.
fn assert_model_valid(problem: &AbProblem, model: &AbModel, context: &str) {
    assert_eq!(
        problem.cnf().eval(&model.boolean),
        Tri::True,
        "{context}: model fails the Boolean circuit"
    );
    assert!(
        model.satisfies(problem, 1e-9),
        "{context}: model violates an arithmetic constraint"
    );
}

property! {
    #![cases = 100]

    /// Whole-problem solving, the preprocessor's sequential component
    /// loop, the parallel component shards, and a by-hand
    /// extract/solve/stitch all agree on the verdict, and every Sat
    /// witness checks out against the original problem.
    fn partitioned_agrees_with_whole(problem in disconnected_problem_gen()) {
        // Control: the plain control loop on the whole problem, no
        // preprocessing, no partitioning.
        let mut control = Orchestrator::with_defaults();
        let whole = control.solve(&problem).unwrap();
        assert!(
            !matches!(whole, Outcome::Unknown),
            "linear problems must be decided"
        );

        // Sequential component loop (the `--preprocess` path).
        let mut seq = Orchestrator::with_defaults()
            .with_preprocessor(Box::new(Simplifier::new()));
        let seq_outcome = seq.solve(&problem).unwrap();
        assert_eq!(
            whole.is_sat(),
            seq_outcome.is_sat(),
            "sequential component loop diverged: whole {whole:?} vs {seq_outcome:?} ({})",
            seq.stats()
        );
        if let Outcome::Sat(m) = &seq_outcome {
            assert_model_valid(&problem, m, "sequential component loop");
        }

        // Parallel component shards (gated on >= 2 components inside
        // `solve_parallel`; single-component problems fall back to the
        // portfolio, which the parallel_agreement suite already pins).
        let opts = ParallelOptions {
            jobs: 2,
            deterministic: true,
            ..Default::default()
        };
        let mut par = Orchestrator::with_defaults();
        let (par_outcome, pstats) = par.solve_parallel(&problem, &opts).unwrap();
        assert_eq!(
            whole.is_sat(),
            par_outcome.is_sat(),
            "parallel component shards diverged: whole {whole:?} vs {par_outcome:?} ({pstats})"
        );
        if let Outcome::Sat(m) = &par_outcome {
            assert_model_valid(&problem, m, "parallel component shards");
        }

        // By-hand partition: extract each component, solve it in
        // isolation, stitch the witnesses, and re-check the stitched
        // model against the *whole* problem.
        let partition = Partition::of(&problem);
        if partition.len() >= 2 {
            assert_eq!(pstats.components, partition.len(), "parallel stats miscount");
            let mut models = Vec::new();
            let mut any_unsat = false;
            for idx in 0..partition.len() {
                let sub = partition.extract(&problem, idx);
                match Orchestrator::with_defaults().solve(&sub).unwrap() {
                    Outcome::Sat(m) => models.push(*m),
                    Outcome::Unsat => any_unsat = true,
                    Outcome::Unknown => panic!("linear component must be decided"),
                }
            }
            if any_unsat {
                assert!(
                    whole.is_unsat(),
                    "a component is unsat but the whole problem is not"
                );
            } else {
                assert!(
                    whole.is_sat(),
                    "every component is sat but the whole problem is not"
                );
                let stitched = partition.stitch(&models);
                assert_model_valid(&problem, &stitched, "stitched model");
            }
        }
    }
}

/// A deliberately disconnected two-component problem: component A pins
/// `x` into `[1, 3]`, component B pins `y` into `[-2, 0]`; the two share
/// no variables.
const TWO_COMPONENTS: &str = "\
p cnf 4 4
1 0
2 0
3 0
4 0
c def real 1 x >= 1
c def real 2 x <= 3
c def real 3 y >= -2
c def real 4 y <= 0
";

#[test]
fn sequential_component_loop_reports_components_and_traces() {
    let problem: AbProblem = TWO_COMPONENTS.parse().unwrap();
    assert_eq!(Partition::of(&problem).len(), 2, "fixture must decompose");
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults()
        .with_preprocessor(Box::new(Simplifier::new()))
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let outcome = orc.solve(&problem).unwrap();
    assert!(outcome.is_sat());
    if let Outcome::Sat(m) = &outcome {
        assert_model_valid(&problem, m, "two-component fixture");
    }
    // The partition is announced once; note the *preprocessed* problem
    // may decompose differently from the raw one, so only presence and
    // consistency with the stats are asserted.
    let kinds = sink.kinds();
    assert!(
        kinds.iter().any(|k| k == "analyze.partition"),
        "missing analyze.partition event in {kinds:?}"
    );
    let components = orc.stats().components;
    assert!(components >= 1, "components stat must be recorded");
    if components >= 2 {
        assert!(
            kinds.iter().any(|k| k == "component.start"),
            "a multi-component solve must trace per-component outcomes"
        );
    }
}

#[test]
fn parallel_component_shards_solve_disconnected_problems() {
    let problem: AbProblem = TWO_COMPONENTS.parse().unwrap();
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let opts = ParallelOptions {
        jobs: 2,
        deterministic: true,
        ..Default::default()
    };
    let (outcome, stats) = orc.solve_parallel(&problem, &opts).unwrap();
    assert!(outcome.is_sat(), "fixture is satisfiable: {stats}");
    if let Outcome::Sat(m) = &outcome {
        assert_model_valid(&problem, m, "parallel two-component fixture");
    }
    assert_eq!(
        stats.components, 2,
        "both components must be sharded: {stats}"
    );
    let kinds = sink.kinds();
    assert!(kinds.iter().any(|k| k == "analyze.partition"));
    assert!(kinds.iter().any(|k| k == "component.start"));
    assert!(kinds.iter().any(|k| k == "component.end"));
}

/// An unsat component refutes the whole conjunction even when its
/// sibling component is trivially satisfiable.
#[test]
fn one_unsat_component_refutes_the_whole_problem() {
    let text = "\
p cnf 3 3
1 0
2 0
3 0
c def real 1 x >= 1
c def real 2 x <= 0
c def real 3 y >= 5
";
    let problem: AbProblem = text.parse().unwrap();
    let whole = Orchestrator::with_defaults().solve(&problem).unwrap();
    assert!(whole.is_unsat());
    let opts = ParallelOptions {
        jobs: 2,
        deterministic: true,
        ..Default::default()
    };
    let (outcome, _) = Orchestrator::with_defaults()
        .solve_parallel(&problem, &opts)
        .unwrap();
    assert!(outcome.is_unsat());
}

/// A statically-unsatisfiable problem is answered `Unsat` by the
/// preprocessor's dataflow refutation alone: the Boolean control loop
/// never starts (no `boolean.model` / `theory.check` events, zero
/// Boolean iterations) and the stats record the static answer.
#[test]
fn statically_unsat_problems_never_enter_the_solve_loop() {
    let text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 0\n";
    let problem: AbProblem = text.parse().unwrap();
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults()
        .with_preprocessor(Box::new(Simplifier::new()))
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let outcome = orc.solve(&problem).unwrap();
    assert!(outcome.is_unsat());
    let stats = orc.stats();
    assert_eq!(stats.static_unsat, 1, "static refutation must be counted");
    assert_eq!(
        stats.boolean_iterations, 0,
        "the Boolean loop must never have started: {stats}"
    );
    let kinds = sink.kinds();
    assert!(
        kinds.iter().any(|k| k == "analyze.static_unsat"),
        "missing analyze.static_unsat in {kinds:?}"
    );
    assert!(
        !kinds
            .iter()
            .any(|k| k == "boolean.model" || k == "theory.check" || k == "shard.start"),
        "the solve loop must not run on a statically-unsat problem: {kinds:?}"
    );
}
