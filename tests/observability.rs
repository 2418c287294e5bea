//! Integration tests for the observability layer: per-phase timing
//! invariants, counter monotonicity across model enumeration, the
//! warm/cold labels of linear phases, the trace crate's event table
//! against what the solver emits, trace events summing to the stats
//! counters, the interning a component's extraction does, a differential
//! test pinning a two-job component run to the sequential solve,
//! trace-event by trace-event, and the folded statistics of two-job runs
//! against their shard events.

use absolver::analyze::Simplifier;
use absolver::core::{
    parser, AbProblem, Orchestrator, OrchestratorOptions, OrchestratorStats, Session, VarKind,
};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::{Interval, Rational};
use absolver::trace::{CollectingSink, TraceEvent, TraceSink};
use std::collections::HashMap;
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

/// Fig. 2 solved whole: `solve` would split it into two components, and
/// its nonlinear one needs no HC4 narrowing on its own.
fn solve_fig2_whole(orc: &mut Orchestrator) {
    let (models, _) = orc.solve_all(&fig2(), 1).expect("solve_all");
    assert_eq!(models.len(), 1, "fig2 is satisfiable");
}

#[test]
fn phase_times_are_bounded_by_elapsed() {
    let mut orc = Orchestrator::with_defaults();
    solve_fig2_whole(&mut orc);
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

    // The setup (definition preparation, CNF load, stack creation) is a
    // phase of its own, disjoint from the other three.
    let mut orc = Orchestrator::with_defaults();
    orc.solve(&absolver_bench::workloads::threshold_problem(60))
        .expect("solve");
    let stats = orc.stats();
    assert!(stats.setup_time.as_nanos() > 0, "setup must be timed");
    let phase_sum =
        stats.setup_time + stats.boolean_time + stats.linear_time + stats.nonlinear_time;
    assert!(
        phase_sum <= stats.elapsed,
        "setup {:?} + boolean {:?} + linear {:?} + nonlinear {:?} = {phase_sum:?} > elapsed {:?}",
        stats.setup_time,
        stats.boolean_time,
        stats.linear_time,
        stats.nonlinear_time,
        stats.elapsed
    );
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
    solve_fig2_whole(&mut orc);
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

/// Options for a two-job solve, components pinned or drawn from the
/// shared queue.
fn two_jobs(deterministic: bool) -> OrchestratorOptions {
    OrchestratorOptions {
        jobs: 2,
        deterministic,
        ..Default::default()
    }
}

/// The solver-visible events (`kind`, or `kind@iteration`) of `events`.
fn solver_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<String> {
    const SOLVER_KINDS: [&str; 5] = [
        "boolean.model",
        "theory.check",
        "phase.linear",
        "phase.nonlinear",
        "conflict",
    ];
    events
        .into_iter()
        .filter(|e| SOLVER_KINDS.contains(&e.kind.as_str()))
        .map(|e| match e.get("iteration") {
            Some(it) => format!("{}@{it}", e.kind),
            None => e.kind.clone(),
        })
        .collect()
}

/// A two-job deterministic run of Fig. 2 pins one of its two components
/// to each shard. Every event a shard emits carries its id, and
/// `shard.start`/`shard.end` bracket each shard's events. Shard 0 runs
/// the default stack on component 0, so its solver events replay the
/// sequential solve's events for that component exactly.
#[test]
fn two_shard_component_run_traces_like_the_sequential_solve() {
    let problem = fig2();
    let seq_sink = Arc::new(CollectingSink::new());
    let mut seq =
        Orchestrator::with_defaults().with_trace_sink(seq_sink.clone() as Arc<dyn TraceSink>);
    let seq_outcome = seq.solve(&problem).expect("sequential solve");

    let par_sink = Arc::new(CollectingSink::new());
    let mut par = Orchestrator::with_defaults()
        .with_options(two_jobs(true))
        .with_trace_sink(par_sink.clone() as Arc<dyn TraceSink>);
    let par_outcome = par.solve(&problem).expect("two-job solve");

    assert_eq!(seq_outcome.is_sat(), par_outcome.is_sat());
    assert_eq!(seq.stats().components, 2);
    assert_eq!(par.stats().components, 2);
    let par_events = par_sink.events();
    assert!(!solver_events(&par_events).is_empty());
    // Only the partition is announced outside a shard.
    for e in &par_events {
        assert!(
            e.shard.is_some() || e.kind == "analyze.partition",
            "{e:?} carries no shard id"
        );
    }
    for shard in [0, 1] {
        let own: Vec<&TraceEvent> = par_events
            .iter()
            .filter(|e| e.shard == Some(shard))
            .collect();
        let kinds: Vec<&str> = own.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds.first(),
            Some(&"shard.start"),
            "shard {shard}: {kinds:?}"
        );
        assert_eq!(kinds.last(), Some(&"shard.end"), "shard {shard}: {kinds:?}");
        let count = |kind: &str| kinds.iter().filter(|k| **k == kind).count();
        assert_eq!(
            (count("shard.start"), count("shard.end")),
            (1, 1),
            "{kinds:?}"
        );
        assert_eq!(own[own.len() - 2].kind, "component.end", "{kinds:?}");
        assert_eq!(
            own[own.len() - 2].get("component"),
            Some(shard.to_string().as_str())
        );
    }
    // The sequential solve's events of component 0.
    let seq_events = seq_sink.events();
    let component_0: Vec<&TraceEvent> = seq_events
        .iter()
        .skip_while(|e| e.kind != "component.start")
        .take_while(|e| e.kind != "component.end")
        .collect();
    assert_eq!(component_0[0].get("component"), Some("0"));
    let shard_0 = par_events.iter().filter(|e| e.shard == Some(0));
    assert_eq!(
        solver_events(shard_0),
        solver_events(component_0),
        "shard 0 must replay the sequential stack"
    );
}

/// The `iterations` of every `shard.end` event of a two-job run, and the
/// strategy of its shards.
fn shard_iterations(events: &[TraceEvent]) -> (Vec<u64>, String) {
    let iterations = events
        .iter()
        .filter(|e| e.kind == "shard.end")
        .map(|e| {
            e.get("iterations")
                .expect("iterations")
                .parse()
                .expect("u64")
        })
        .collect();
    let strategy = events
        .iter()
        .find(|e| e.kind == "shard.start")
        .and_then(|e| e.get("strategy"))
        .expect("a shard.start event")
        .to_string();
    (iterations, strategy)
}

/// With two jobs, `solve` folds every shard's effort into its one
/// statistics record: `boolean_iterations` is the sum of the shard.end
/// events' `iterations`, for component shards (pinned or not) and for
/// the portfolio. A decided portfolio run was not cancelled and did not
/// time out, though its losing shard was stopped.
#[test]
fn two_job_stats_sum_the_shard_events() {
    let components = absolver_bench::workloads::decomposable_problem(4, 40);
    let threshold = absolver_bench::workloads::threshold_problem(60);
    for (problem, deterministic, strategy, count) in [
        (&components, true, "components", 4),
        (&components, false, "components", 4),
        (&threshold, false, "portfolio", 1),
    ] {
        let sink = Arc::new(CollectingSink::new());
        let mut orc = Orchestrator::with_defaults()
            .with_options(two_jobs(deterministic))
            .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        assert!(orc.solve(problem).expect("solve").is_sat());
        let stats = orc.stats();
        let (iterations, run_strategy) = shard_iterations(&sink.events());
        assert_eq!(run_strategy, strategy);
        assert_eq!(iterations.len(), 2, "{iterations:?}");
        assert_eq!(
            stats.boolean_iterations,
            iterations.iter().sum::<u64>(),
            "{strategy}: {stats}"
        );
        assert_eq!(stats.components, count, "{stats}");
        assert!(!stats.cancelled, "{strategy}: {stats}");
        assert!(!stats.timed_out, "{strategy}: {stats}");
    }
}

/// Extracting a component re-interns its remapped constraints before the
/// component's control loop starts; each component's solve counts that
/// interning and reports it in its own `term.intern` event. The input is
/// components 4×40 as `absolver` reads it from its file.
#[test]
fn component_extraction_interning_is_counted() {
    let text = parser::write(&absolver_bench::workloads::decomposable_problem(4, 40));
    let problem: AbProblem = text.parse().expect("own output parses");
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    assert!(orc.solve(&problem).expect("solve").is_sat());
    let stats = orc.stats();
    assert_eq!(stats.components, 4, "{stats}");
    assert!(stats.term_dedup_hits >= 1116, "{stats}");
    let events = sink.events();
    let component_of = |e: &absolver::trace::TraceEvent| e.get("component").map(str::to_string);
    let mut current = None;
    let mut interned_in = Vec::new();
    for e in &events {
        match e.kind.as_str() {
            "component.start" => current = component_of(e),
            "component.end" => current = None,
            "term.intern" => interned_in.push(current.clone().expect("inside a component")),
            _ => {}
        }
    }
    assert_eq!(interned_in, ["0", "1", "2", "3"], "{events:?}");
}

/// Consecutive threshold-reach models differ in one free atom, so each
/// warm linear check retracts that atom's old row and pushes its new one,
/// and keeps every other row on the stack.
#[test]
fn warm_linear_checks_push_and_retract_only_the_flipped_row() {
    let problem = absolver_bench::workloads::threshold_problem(60);
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    assert!(orc.solve(&problem).expect("solve").is_sat());
    let field = |e: &absolver::trace::TraceEvent, key: &str| -> u64 {
        e.get(key)
            .unwrap_or_else(|| panic!("phase.linear carries {key}"))
            .parse()
            .expect("u64")
    };
    let events = sink.events();
    let linear: Vec<_> = events.iter().filter(|e| e.kind == "phase.linear").collect();
    let warm: Vec<_> = linear
        .iter()
        .filter(|e| e.get("start") == Some("warm"))
        .collect();
    assert_eq!(warm.len(), 33, "one cold check, then one warm per model");
    let rows = field(linear[0], "pushed_rows");
    for e in &warm {
        assert_eq!(field(e, "pushed_rows"), 1, "{e:?}");
        assert_eq!(field(e, "retracted_rows"), 1, "{e:?}");
        assert_eq!(field(e, "reused_rows"), rows - 1, "{e:?}");
    }
    let pushed: u64 = linear.iter().map(|e| field(e, "pushed_rows")).sum();
    assert_eq!(pushed, orc.stats().linear_rows_pushed);
    assert_eq!(pushed, rows + 33);
}

/// A linear phase is warm when its stack already held rows of an earlier
/// phase, even one that ended in an assert-time conflict before any stack
/// check: on FISCHER 11 only the first phase starts cold.
#[test]
fn linear_phases_after_assert_time_conflicts_start_warm() {
    let problem = absolver_bench::fischer::fischer(11);
    let sink = Arc::new(CollectingSink::new());
    let mut orc = Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    assert!(orc.solve(&problem).expect("solve").is_sat());
    let events = sink.events();
    let linear: Vec<_> = events.iter().filter(|e| e.kind == "phase.linear").collect();
    let cold = linear
        .iter()
        .filter(|e| e.get("start") == Some("cold"))
        .count();
    assert_eq!(cold, 1, "only the first phase starts cold");
    for e in &linear {
        let reused: u64 = e
            .get("reused_rows")
            .expect("reused_rows")
            .parse()
            .expect("u64");
        if reused > 0 {
            assert_eq!(e.get("start"), Some("warm"), "{e:?}");
        }
    }
}

/// The event table in the trace crate's docs, as `kind -> payload keys`.
/// Every backticked name in a row's first column is a kind; every
/// backticked name in its last column is a key (or a value, harmlessly).
fn documented_events() -> HashMap<String, Vec<String>> {
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let mut table = HashMap::new();
    for row in include_str!("../crates/trace/src/lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//! |"))
    {
        let cells: Vec<&str> = row.split('|').collect();
        if cells.len() < 3 {
            continue;
        }
        for kind in ticked(cells[0]) {
            table.insert(kind, ticked(cells[2]));
        }
    }
    table
}

/// Every event the solver emits — through a preprocessed multi-component
/// solve, model enumeration, a session script and both parallel paths —
/// is in the trace crate's event table, with each of its payload keys.
#[test]
fn emitted_trace_events_match_the_documented_table() {
    let sink = Arc::new(CollectingSink::new());
    let traced =
        || Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let preprocessed = || traced().with_preprocessor(Box::new(Simplifier::new()));
    let two_components = absolver_bench::workloads::decomposable_problem(2, 6);
    let static_unsat: AbProblem = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 0\n"
        .parse()
        .expect("parses");
    // Its refute pass differentiates the constraint, interning new terms.
    let refuted: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x * x - 2 * x * y + y * y < -4\n\
        c range x -10 10\nc range y -10 10\n"
        .parse()
        .expect("parses");

    for problem in [&two_components, &fig2(), &static_unsat, &refuted] {
        preprocessed().solve(problem).expect("solve");
    }
    traced().solve_all(&fig2(), 3).expect("solve_all");
    for problem in [&fig2(), &two_components] {
        traced()
            .with_options(two_jobs(false))
            .solve(problem)
            .expect("two-job solve");
    }
    let mut session = Session::with_orchestrator(traced());
    let x = session.arith_var("x", VarKind::Real).expect("declare");
    let ge = session
        .atom(Expr::var(x), CmpOp::Ge, Rational::from_int(1))
        .expect("atom");
    session.require(ge.positive());
    session.check().expect("check");
    session.push();
    let le = session
        .atom(Expr::var(x), CmpOp::Le, Rational::from_int(0))
        .expect("atom");
    session.require(le.positive());
    session.check().expect("check");
    session.pop().expect("pop");
    session.check().expect("check");
    session.reset();
    session.check().expect("check");

    let table = documented_events();
    let events = sink.events();
    for e in &events {
        let keys = table
            .get(&e.kind)
            .unwrap_or_else(|| panic!("`{}` is missing from the event table", e.kind));
        let duration = e.duration_us.map(|_| "duration_us");
        for key in e.data.iter().map(|(k, _)| k.as_str()).chain(duration) {
            assert!(
                keys.iter().any(|k| k == key),
                "`{}` emits `{key}`, which its table row does not list: {e:?}",
                e.kind
            );
        }
    }
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    for kind in [
        "analyze.partition",
        "analyze.static_unsat",
        "component.start",
        "component.end",
        "term.intern",
        "phase.setup",
        "shard.start",
        "shard.end",
        "session.push",
        "session.pop",
        "session.reset",
        "session.check.start",
        "session.check.end",
    ] {
        assert!(kinds.contains(&kind), "the runs never emitted `{kind}`");
    }
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

/// The effort a trace reports, as `[HC4, BC3, Newton, local-search
/// steps, linear rows pushed]`: the summed `count` of each `contract.*`
/// and `local_search.steps` event, and the summed `pushed_rows` of
/// `phase.linear`.
fn traced_effort(events: &[TraceEvent]) -> [u64; 5] {
    let sum = |kind: &str, key: &str| -> u64 {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| {
                e.get(key)
                    .unwrap_or_else(|| panic!("`{kind}` carries `{key}`"))
                    .parse::<u64>()
                    .expect("u64")
            })
            .sum()
    };
    [
        sum("contract.hc4", "count"),
        sum("contract.bc3", "count"),
        sum("contract.newton", "count"),
        sum("local_search.steps", "count"),
        sum("phase.linear", "pushed_rows"),
    ]
}

/// The same effort as the stats count it, in [`traced_effort`]'s order.
fn counted_effort(stats: &OrchestratorStats) -> [u64; 5] {
    [
        stats.hc4_contractions,
        stats.bc3_contractions,
        stats.newton_contractions,
        stats.local_search_steps,
        stats.linear_rows_pushed,
    ]
}

/// A traced solve's effort events sum to its stats counters. Between
/// them the inputs emit every effort event kind: the two-pass
/// `(x − y)² < −4 ∨ x ≥ 20` input runs the local search and escalates
/// one check, the trigonometric sum needs BC3 to be refuted, and the
/// circle-and-cubic system takes interval-Newton steps.
#[test]
fn trace_effort_events_sum_to_the_stats_counters() {
    let inputs = [
        "p cnf 2 1\n1 2 0\n\
         c def real 1 x * x - 2 * x * y + y * y < -4\nc def real 2 x >= 20\n\
         c range x -10 10\nc range y -10 10\n",
        "p cnf 1 1\n1 0\n\
         c def real 1 sin(x) * cos(y) + sin(y) * cos(x) >= 1.2\n\
         c range x -3 3\nc range y -3 3\n",
        "p cnf 2 2\n1 0\n2 0\n\
         c def real 1 x * x + y * y = 1\nc def real 2 x * x * x - y = 0.3\n\
         c range x -2 2\nc range y -2 2\n",
    ];
    let mut exercised = [0u64; 5];
    let mut escalated = 0;
    for text in inputs {
        let problem: AbProblem = text.parse().expect("parses");
        let sink = Arc::new(CollectingSink::new());
        let mut orc =
            Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        orc.solve(&problem).expect("solve");
        let stats = orc.stats();
        let traced = traced_effort(&sink.events());
        assert_eq!(traced, counted_effort(&stats), "{text}\n{stats}");
        for (total, count) in exercised.iter_mut().zip(traced) {
            *total += count;
        }
        escalated += stats.escalated_checks;
    }
    assert!(
        exercised.iter().all(|&count| count > 0),
        "some effort event never fired: {exercised:?}"
    );
    assert!(escalated > 0, "no check reached the second pass");
}

/// Each check of a persistent session reports its own effort: its trace
/// events sum to that check's stats, and the two checks together to the
/// session's cumulative stats.
#[test]
fn each_session_check_traces_its_own_effort() {
    let sink = Arc::new(CollectingSink::new());
    let mut session = Session::with_orchestrator(
        Orchestrator::with_defaults().with_trace_sink(sink.clone() as Arc<dyn TraceSink>),
    );
    let x = session.arith_var("x", VarKind::Real).expect("declare");
    let y = session.arith_var("y", VarKind::Real).expect("declare");
    for v in [x, y] {
        session
            .assert_range(v, Interval::new(-2.0, 2.0))
            .expect("range");
    }
    let (ex, ey) = (Expr::var(x), Expr::var(y));
    let circle = ex.clone() * ex.clone() + ey.clone() * ey.clone();
    let cubic = ex.clone() * ex.clone() * ex.clone() - ey.clone();
    let q = |n: i64, d: i64| Rational::new(n, d);
    for (lhs, op, rhs) in [
        (circle, CmpOp::Eq, q(1, 1)),
        (cubic, CmpOp::Eq, q(3, 10)),
        (ex, CmpOp::Ge, q(0, 1)),
    ] {
        let atom = session.atom(lhs, op, rhs).expect("atom");
        session.require(atom.positive());
    }
    // On the circle with x ≥ 0, y = x³ − 0.3 ≤ 0 forces x² + y² < 1.
    let mut total = [0u64; 5];
    for frame in 0..2 {
        if frame == 1 {
            session.push();
            let below = session.atom(ey.clone(), CmpOp::Le, q(0, 1)).expect("atom");
            session.require(below.positive());
        }
        sink.clear();
        let outcome = session.check().expect("check");
        assert_eq!(outcome.is_sat(), frame == 0, "check {frame}: {outcome:?}");
        let stats = session.check_stats();
        let events = sink.events();
        // Each check times its own setup (pool rebuild, stack regrowth,
        // Boolean reload or new clauses) once.
        assert!(!stats.setup_time.is_zero(), "check {frame}: {stats}");
        let setups = events.iter().filter(|e| e.kind == "phase.setup").count();
        assert_eq!(setups, 1, "check {frame}");
        let traced = traced_effort(&events);
        assert_eq!(traced, counted_effort(&stats), "check {frame}: {stats}");
        assert!(traced.iter().any(|&count| count > 0), "check {frame}");
        for (sum, count) in total.iter_mut().zip(traced) {
            *sum += count;
        }
    }
    assert_eq!(total, counted_effort(&session.cumulative_stats()));
}
