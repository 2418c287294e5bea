//! Cross-crate integration tests: input language → orchestrator →
//! validated models, the model-conversion pipeline, and the paper's
//! benchmark generators.

use absolver::core::{AbProblem, Orchestrator, Outcome};
use absolver::model::{diagram_to_lustre, steering_problem};
use absolver_bench::fischer::{fischer, fischer_mutex, FischerConfig};
use absolver_bench::sudoku::{self, Difficulty};
use absolver_bench::table1;

#[test]
fn paper_example_full_pipeline() {
    let text = "\
p cnf 4 3
1 0
-2 3 0
4 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
c range a -10 10
c range x -10 10
c range y -10 10
";
    let problem: AbProblem = text.parse().unwrap();
    let mut orc = Orchestrator::with_defaults();
    let outcome = orc.solve(&problem).unwrap();
    let model = outcome.model().expect("satisfiable");
    assert!(model.satisfies(&problem, 1e-6));
    // Integers must actually be integral in the witness.
    for name in ["i", "j"] {
        let id = problem.arith_var(name).unwrap();
        let v = model.arith.value_f64(id).unwrap();
        assert!(
            (v - v.round()).abs() < 1e-6,
            "{name} = {v} must be integral"
        );
    }
}

#[test]
fn steering_case_study_statistics() {
    let p = steering_problem();
    assert_eq!(
        (
            p.cnf().len(),
            p.num_constraints(),
            p.num_linear(),
            p.num_nonlinear()
        ),
        (976, 24, 4, 20),
        "paper Table 1 row 1"
    );
}

#[test]
fn lustre_round_trip_of_steering_model() {
    let (node, _) = diagram_to_lustre(&absolver::model::steering_diagram());
    let text = node.to_string();
    let reparsed = absolver::model::lustre::parse(&text).unwrap();
    assert_eq!(reparsed.equations.len(), node.equations.len());
    assert_eq!(reparsed.inputs, node.inputs);
}

#[test]
fn table1_small_instances_solve_fast_and_correctly() {
    let mut orc = Orchestrator::with_defaults();
    let esat = table1::esat_n11_m8_nonlinear();
    assert!(orc.solve(&esat).unwrap().is_sat());
    let unsat = table1::nonlinear_unsat();
    assert!(orc.solve(&unsat).unwrap().is_unsat());
    let div = table1::div_operator();
    let outcome = orc.solve(&div).unwrap();
    assert!(outcome.model().unwrap().satisfies(&div, 1e-6));
}

#[test]
fn fischer_family_verdicts() {
    let mut orc = Orchestrator::with_defaults();
    for n in 1..=5 {
        let sat = fischer(n);
        let outcome = orc.solve(&sat).unwrap();
        assert!(
            outcome
                .model()
                .map(|m| m.satisfies(&sat, 1e-9))
                .unwrap_or(false),
            "fischer({n}) must be SAT with a valid model"
        );
    }
    let safe = fischer_mutex(FischerConfig::standard(3));
    assert!(orc.solve(&safe).unwrap().is_unsat());
}

#[test]
fn sudoku_mixed_encoding_end_to_end() {
    let (puzzle, _) = sudoku::generate(31, Difficulty::Easy);
    let problem = sudoku::encode_mixed(&puzzle);
    let mut orc = Orchestrator::with_defaults();
    match orc.solve(&problem).unwrap() {
        Outcome::Sat(model) => {
            let grid = sudoku::decode(&problem, &model).expect("integral");
            assert!(sudoku::is_valid_solution(&grid));
            assert!(sudoku::extends(&puzzle, &grid));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn enumeration_counts_distinct_boolean_models() {
    // x ∈ {1, 2, 3} via three atoms, exactly-one clauses: three models.
    let text = "\
p cnf 3 4
1 2 3 0
-1 -2 0
-1 -3 0
-2 -3 0
c def int 1 x = 1
c def int 2 x = 2
c def int 3 x = 3
";
    let problem: AbProblem = text.parse().unwrap();
    let mut orc = Orchestrator::with_defaults();
    let (models, end) = orc.solve_all(&problem, usize::MAX).unwrap();
    assert_eq!(models.len(), 3);
    assert!(end.is_unsat(), "all models were enumerated");
    for m in &models {
        assert!(m.satisfies(&problem, 1e-9));
    }
}

#[test]
fn baselines_and_absolver_agree_on_linear_fischer() {
    use absolver::baselines::{BaselineVerdict, CvcLike, MathSatLike};
    for n in 2..=4 {
        let sat = fischer(n);
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&sat).unwrap().is_sat());
        assert!(MathSatLike::new().solve(&sat).verdict.is_sat(), "n={n}");
        assert!(CvcLike::new().solve(&sat).verdict.is_sat(), "n={n}");
        let unsat = fischer_mutex(FischerConfig::standard(n));
        assert!(orc.solve(&unsat).unwrap().is_unsat());
        assert_eq!(
            MathSatLike::new().solve(&unsat).verdict,
            BaselineVerdict::Unsat
        );
        assert_eq!(CvcLike::new().solve(&unsat).verdict, BaselineVerdict::Unsat);
    }
}

#[test]
fn nonlinear_rejection_by_baselines() {
    use absolver::baselines::{BaselineVerdict, CvcLike, MathSatLike};
    for (_, p) in table1::table1_suite() {
        let m = MathSatLike::new().solve(&p);
        let c = CvcLike::new().solve(&p);
        assert!(matches!(m.verdict, BaselineVerdict::Rejected(_)));
        assert!(matches!(c.verdict, BaselineVerdict::Rejected(_)));
    }
}

#[test]
fn solve_all_surfaces_iteration_limit_error() {
    use absolver::core::{OrchestratorOptions, SolveError};
    let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 0\nc def real 2 x <= 100\n";
    let problem: AbProblem = text.parse().unwrap();
    let opts = OrchestratorOptions {
        max_iterations: 1,
        ..Default::default()
    };
    let mut orc = Orchestrator::with_defaults().with_options(opts);
    // Enumerating three models needs more than one Boolean iteration, so
    // the cap trips mid-enumeration and must surface as an error, not as
    // a silently short model list.
    assert_eq!(
        orc.solve_all(&problem, usize::MAX),
        Err(SolveError::IterationLimit(1))
    );
}

#[test]
fn solve_all_stops_at_unknown_without_fabricating_models() {
    use absolver::core::{CdclBoolean, PenaltyNonlinear, SimplexLinear};
    // Penalty-only stack on an UNSAT nonlinear core: every theory check is
    // Unknown, so enumeration finds nothing — and stats record why.
    let text = "p cnf 1 1\n1 0\nc def real 1 x^2 <= -1\nc range x -50 50\n";
    let problem: AbProblem = text.parse().unwrap();
    let mut orc = Orchestrator::custom(Box::new(CdclBoolean::new()))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(PenaltyNonlinear::default()));
    let (models, end) = orc.solve_all(&problem, usize::MAX).unwrap();
    assert!(models.is_empty());
    assert_eq!(end, Outcome::Unknown, "an inconclusive end is not unsat");
    assert!(orc.stats().unknown_checks >= 1, "{}", orc.stats());
    assert_eq!(orc.solve(&problem).unwrap(), Outcome::Unknown);
}

#[test]
fn solve_all_mixes_decided_and_unknown_models() {
    use absolver::core::{CdclBoolean, PenaltyNonlinear, SimplexLinear};
    // One linearly-decidable atom and one hopeless nonlinear atom: the
    // enumeration returns exactly the models where the hopeless atom is
    // false, skipping (not inventing) the undecidable ones.
    let text = "p cnf 2 1\n1 -2 0\nc def real 1 x >= 0\nc def real 2 y^2 <= -1\nc range y -10 10\n";
    let problem: AbProblem = text.parse().unwrap();
    let mut orc = Orchestrator::custom(Box::new(CdclBoolean::new()))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(PenaltyNonlinear::default()));
    let (models, end) = orc.solve_all(&problem, usize::MAX).unwrap();
    assert!(!models.is_empty());
    assert_eq!(
        end,
        Outcome::Unknown,
        "the undecidable models leave it open"
    );
    for m in &models {
        assert!(m.satisfies(&problem, 1e-9));
    }
    assert!(orc.stats().unknown_checks >= 1, "{}", orc.stats());
}

/// `(x − y)² < c` over `[−10, 10]²`, written so that interval arithmetic
/// cannot see the square: refuting it takes a box search whose size grows
/// as `c` approaches 0 (803 boxes for `c = −4`).
fn square_gap(c: &str) -> String {
    format!("c def real 1 x * x - 2 * x * y + y * y < {c}\nc range x -10 10\nc range y -10 10\n")
}

#[test]
fn unit_model_left_open_by_the_probe_is_refuted_before_unsat() {
    // The unit clause makes the probe's blocking clause fail at once:
    // the loop ends at its blocking-clause exit, and only the second
    // pass there proves the model unsat.
    let problem: AbProblem = format!("p cnf 1 1\n1 0\n{}", square_gap("-4"))
        .parse()
        .unwrap();
    let mut orc = Orchestrator::with_defaults();
    assert_eq!(
        orc.solve(&problem).unwrap(),
        Outcome::Unsat,
        "{}",
        orc.stats()
    );
    assert_eq!(orc.stats().unknown_checks, 1, "{}", orc.stats());
    assert_eq!(orc.stats().escalated_checks, 1, "{}", orc.stats());
}

#[test]
fn models_left_open_by_the_probe_are_refuted_once_the_boolean_side_runs_out() {
    // Three Boolean models: two are refuted at once, the third is left
    // open by the probe; the loop ends when `next_model` finds no more.
    let problem: AbProblem = format!(
        "p cnf 2 1\n1 2 0\n{}c def real 2 x >= 20\n",
        square_gap("-4")
    )
    .parse()
    .unwrap();
    let mut orc = Orchestrator::with_defaults();
    assert_eq!(
        orc.solve(&problem).unwrap(),
        Outcome::Unsat,
        "{}",
        orc.stats()
    );
    let stats = orc.stats();
    assert_eq!(stats.boolean_iterations, 3, "{stats}");
    assert_eq!(stats.conflicts_fed_back, 2, "{stats}");
    assert_eq!(stats.escalated_checks, 1, "{stats}");
}

#[test]
fn a_model_the_second_pass_cannot_settle_stays_unknown() {
    let problem: AbProblem = format!("p cnf 1 1\n1 0\n{}", square_gap("-1"))
        .parse()
        .unwrap();
    let mut orc = Orchestrator::with_defaults();
    assert_eq!(
        orc.solve(&problem).unwrap(),
        Outcome::Unknown,
        "{}",
        orc.stats()
    );
    assert_eq!(orc.stats().escalated_checks, 1, "{}", orc.stats());
}

#[test]
fn second_pass_splits_a_negated_equality_on_a_local_search_witness() {
    use absolver::core::{ArithModel, CdclBoolean, IntervalNonlinear, SimplexLinear};
    // x² ≥ 100 ∧ (y − 10)² + 10 − x ≤ 0 (expanded) holds only at the
    // corner (10, 10). No box midpoint reaches it, so only the local
    // search finds it: the box search alone is inconclusive.
    let corner = "c def real 1 x * x >= 100\n\
                  c def real 2 y * y - 20 * y + 100 + 10 - x <= 0\n\
                  c range x -10 10\nc range y -10 10\n";
    let sat: AbProblem = format!("p cnf 2 2\n1 0\n2 0\n{corner}").parse().unwrap();
    let mut orc = Orchestrator::with_defaults();
    let outcome = orc.solve(&sat).unwrap();
    assert_eq!(
        outcome.model().expect("sat").arith,
        ArithModel::Numeric(vec![10.0, 10.0])
    );
    let mut interval = Orchestrator::custom(Box::new(CdclBoolean::new()))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::<IntervalNonlinear>::default());
    assert_eq!(interval.solve(&sat).unwrap(), Outcome::Unknown);
    // With ¬(x = 10) the witness is split on in both passes: x > 10 is
    // refuted, and x < 10 is left open in the probe. The second pass must
    // reach that branch again through the local search and give it the
    // full check. Its only near-solutions crowd the corner, where no box
    // search bottoms out, so the model stays open, as it did with one
    // pass: the answer must not be sat, and is unsat only if the branch is
    // refuted.
    let split: AbProblem = format!("p cnf 3 3\n1 0\n2 0\n-3 0\n{corner}c def real 3 x = 10\n")
        .parse()
        .unwrap();
    let mut orc = Orchestrator::with_defaults();
    let outcome = orc.solve(&split).unwrap();
    assert!(!outcome.is_sat(), "{}", orc.stats());
    assert_eq!(orc.stats().escalated_checks, 1, "{}", orc.stats());
}

#[test]
fn single_pass_backends_save_nothing_for_a_second_pass() {
    use absolver::core::{CdclBoolean, IntervalNonlinear, PenaltyNonlinear, SimplexLinear};
    let problem: AbProblem = format!("p cnf 1 1\n1 0\n{}", square_gap("-4"))
        .parse()
        .unwrap();
    let stack = |nonlinear: Box<dyn absolver::core::NonlinearBackend>| {
        Orchestrator::custom(Box::new(CdclBoolean::new()))
            .with_linear(Box::new(SimplexLinear::new()))
            .with_nonlinear(nonlinear)
    };
    // The interval engine runs its full budget in one pass and proves it.
    let mut interval = stack(Box::<IntervalNonlinear>::default());
    assert_eq!(interval.solve(&problem).unwrap(), Outcome::Unsat);
    assert_eq!(interval.stats().escalated_checks, 0, "{}", interval.stats());
    // The penalty search can never refute, and has no second pass.
    let mut penalty = stack(Box::<PenaltyNonlinear>::default());
    assert_eq!(penalty.solve(&problem).unwrap(), Outcome::Unknown);
    assert_eq!(penalty.stats().unknown_checks, 1, "{}", penalty.stats());
    assert_eq!(penalty.stats().escalated_checks, 0, "{}", penalty.stats());
}

/// threshold-reach (m = 60) over `int` variables: each negated free atom
/// `xᵢ < 1` reaches the simplex as `xᵢ ≤ 0`, so the LP itself refutes
/// every Boolean model below the threshold, with or without the
/// preprocessor. The Boolean search takes the same 34 iterations as when
/// branch-and-bound refuted each model, now without a single pivot, and
/// its conflicts no longer widen to every definition.
#[test]
fn threshold_reach_is_refuted_in_the_lp_without_branch_and_bound() {
    let problem = absolver_bench::workloads::threshold_problem(60);
    for preprocess in [false, true] {
        let mut orc = Orchestrator::with_defaults();
        if preprocess {
            orc = orc.with_preprocessor(Box::new(absolver::analyze::Simplifier::new()));
        }
        let outcome = orc.solve(&problem).unwrap();
        let stats = orc.stats();
        match outcome {
            Outcome::Sat(model) => assert!(model.satisfies(&problem, 1e-9)),
            other => panic!("preprocess={preprocess}: {other:?}"),
        }
        assert_eq!(stats.boolean_iterations, 34, "{stats}");
        assert_eq!(stats.simplex_pivots, 0, "{stats}");
        assert!(stats.conflict_literals <= 2013, "{stats}");
    }
}
