//! Integration tests for the observability layer: per-phase timing
//! invariants, counter monotonicity across model enumeration, and a
//! differential test pinning the single-shard portfolio to the
//! sequential control loop, trace-event by trace-event.

use absolver::core::{
    AbProblem, Orchestrator, OrchestratorOptions, ParallelOptions, ParallelStrategy,
};
use absolver::trace::{CollectingSink, TraceSink};
use std::sync::Arc;

const FIG2: &str = "\
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

fn fig2() -> AbProblem {
    FIG2.parse().expect("paper example parses")
}

#[test]
fn phase_times_are_bounded_by_elapsed() {
    let mut orc = Orchestrator::with_defaults();
    let outcome = orc.solve(&fig2()).expect("solve");
    assert!(outcome.is_sat());
    let stats = orc.stats();
    // The instrumented phases partition a subset of the wall clock: their
    // sum can never exceed the total. No pass minimises conflicts, so
    // that clock stays at zero.
    let phase_sum = stats.boolean_time + stats.linear_time + stats.nonlinear_time;
    assert!(
        phase_sum <= stats.elapsed,
        "boolean {:?} + linear {:?} + nonlinear {:?} = {phase_sum:?} > elapsed {:?}",
        stats.boolean_time,
        stats.linear_time,
        stats.nonlinear_time,
        stats.elapsed
    );
    assert_eq!(stats.conflict_min_time, std::time::Duration::ZERO);
    // This workload exercises both theory layers, so the counters and
    // clocks must have moved.
    assert!(stats.theory_checks > 0);
    assert!(stats.simplex_pivots > 0, "simplex must have pivoted");
    assert!(stats.hc4_contractions > 0, "HC4 must have contracted");
    assert!(stats.linear_time.as_nanos() > 0);
    assert!(stats.nonlinear_time.as_nanos() > 0);
}

#[test]
fn stats_json_reflects_the_struct() {
    let mut orc = Orchestrator::with_defaults();
    orc.solve(&fig2()).expect("solve");
    let stats = orc.stats();
    let json = stats.to_json();
    assert!(json.contains(&format!(
        "\"boolean_iterations\":{}",
        stats.boolean_iterations
    )));
    assert!(json.contains(&format!("\"simplex_pivots\":{}", stats.simplex_pivots)));
    assert!(json.contains(&format!("\"hc4_contractions\":{}", stats.hc4_contractions)));
    assert!(json.contains(&format!("\"elapsed_us\":{}", stats.elapsed.as_micros())));
}

#[test]
fn contractions_per_check_reports_nonlinear_effort() {
    // Nonlinear-heavy workloads used to report only the simplex columns
    // (`simplex_pivots: 0`, `pivots_per_check: 0`), which read as "the
    // solver did nothing". The derived nonlinear effort metrics must show
    // the real work instead.
    let mut orc = Orchestrator::with_defaults();
    let outcome = orc.solve(&fig2()).expect("solve");
    assert!(outcome.is_sat());
    let stats = orc.stats();
    assert_eq!(
        stats.total_contractions(),
        stats.hc4_contractions + stats.bc3_contractions + stats.newton_contractions
    );
    assert!(stats.theory_checks > 0);
    let per_check = stats.contractions_per_check();
    assert!(
        (per_check - stats.total_contractions() as f64 / stats.theory_checks as f64).abs()
            < f64::EPSILON,
        "derived field must match its inputs"
    );
    assert!(per_check > 0.0, "fig2 forces nonlinear contraction work");
}

#[test]
fn contractions_per_check_is_zero_without_checks() {
    // A default stats block (no solve) must not divide by zero.
    let stats = absolver::core::OrchestratorStats::default();
    assert_eq!(stats.contractions_per_check(), 0.0);
}

#[test]
fn iteration_counter_is_strictly_monotone_across_solve_all() {
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let (models, _) = orc.solve_all(&fig2(), 5).expect("solve_all");
    assert!(!models.is_empty());
    let iterations: Vec<u64> = sink
        .events()
        .iter()
        .filter(|e| e.kind == "boolean.model")
        .map(|e| {
            e.get("iteration")
                .expect("iteration field")
                .parse()
                .expect("u64")
        })
        .collect();
    assert!(
        !iterations.is_empty(),
        "boolean.model events must carry iterations"
    );
    for pair in iterations.windows(2) {
        assert!(
            pair[0] < pair[1],
            "iteration counter must be strictly increasing across enumeration: {iterations:?}"
        );
    }
    // The counter in the final stats matches the last traced iteration.
    assert_eq!(orc.stats().boolean_iterations, *iterations.last().unwrap());
}

/// The solver-visible event stream of a single-shard deterministic
/// portfolio must match the sequential control loop exactly: shard 0 of
/// the portfolio *is* the default stack, so any divergence in the
/// (kind, iteration) sequence is an instrumentation or diversification
/// bug.
#[test]
fn single_shard_portfolio_traces_like_the_sequential_loop() {
    let problem = fig2();
    let solver_kinds = [
        "boolean.model",
        "theory.check",
        "phase.linear",
        "phase.nonlinear",
        "conflict",
    ];
    let filter = |sink: &CollectingSink| -> Vec<String> {
        sink.events()
            .iter()
            .filter(|e| solver_kinds.contains(&e.kind.as_str()))
            .map(|e| match e.get("iteration") {
                Some(it) => format!("{}@{it}", e.kind),
                None => e.kind.clone(),
            })
            .collect()
    };

    let seq_sink = Arc::new(CollectingSink::new());
    let mut seq =
        Orchestrator::with_defaults().with_trace_sink(seq_sink.clone() as Arc<dyn TraceSink>);
    let seq_outcome = seq.solve(&problem).expect("sequential solve");

    let par_sink = Arc::new(CollectingSink::new());
    let mut par =
        Orchestrator::with_defaults().with_trace_sink(par_sink.clone() as Arc<dyn TraceSink>);
    let opts = ParallelOptions {
        jobs: 1,
        strategy: ParallelStrategy::Portfolio,
        deterministic: true,
        base: OrchestratorOptions::default(),
    };
    let (par_outcome, _) = par
        .solve_parallel(&problem, &opts)
        .expect("portfolio solve");

    assert_eq!(seq_outcome.is_sat(), par_outcome.is_sat());
    let seq_trace = filter(&seq_sink);
    let par_trace = filter(&par_sink);
    assert!(!seq_trace.is_empty());
    assert_eq!(
        seq_trace, par_trace,
        "shard 0 must replay the sequential stack"
    );
    // The parallel run additionally stamps shard ids on every event.
    assert!(par_sink
        .events()
        .iter()
        .filter(|e| solver_kinds.contains(&e.kind.as_str()))
        .all(|e| e.shard == Some(0)));
    // ... and brackets the run in shard lifecycle events.
    let kinds = par_sink.kinds();
    assert!(kinds.iter().any(|k| k == "shard.start"));
    assert!(kinds.iter().any(|k| k == "shard.end"));
}

#[test]
fn trace_overhead_is_skipped_when_disabled() {
    // The default NullSink reports `enabled() == false`; a collecting
    // sink reports true. This is what gates lazy event construction.
    use absolver::trace::NullSink;
    assert!(!NullSink.enabled());
    assert!(CollectingSink::new().enabled());
}

#[test]
fn refute_pass_checks_are_traced_and_counted_alike() {
    // Of the three Boolean models, the probe refutes two and leaves the
    // `(x − y)² < −4` one open; the refute pass settles it at the end.
    let problem: AbProblem = "p cnf 2 1\n1 2 0\n\
        c def real 1 x * x - 2 * x * y + y * y < -4\nc def real 2 x >= 20\n\
        c range x -10 10\nc range y -10 10\n"
        .parse()
        .expect("parses");
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    assert!(orc.solve(&problem).expect("solve").is_unsat());
    let stats = orc.stats();
    let passes: Vec<String> = sink
        .events()
        .iter()
        .filter(|e| e.kind == "theory.check")
        .map(|e| {
            e.get("pass")
                .expect("theory.check carries its pass")
                .to_string()
        })
        .collect();
    let refutes = passes.iter().filter(|p| *p == "refute").count() as u64;
    assert_eq!(refutes, stats.escalated_checks, "{passes:?} vs {stats}");
    assert_eq!(refutes, 1, "{passes:?}");
    assert_eq!(passes.len() as u64, stats.boolean_iterations + refutes);
    // The refute check comes after every probe, and ends the run unsat.
    assert_eq!(passes.last().map(String::as_str), Some("refute"));
    assert!(stats
        .to_json()
        .contains(&format!("\"escalated_checks\":{}", stats.escalated_checks)));
}
