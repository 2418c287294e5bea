//! Component-decomposition experiment: solves a deliberately
//! decomposable workload (independent threshold instances over disjoint
//! variables, [`absolver_bench::workloads::decomposable_problem`]) three
//! ways and reports the wall-clock of each:
//!
//! * **whole** — one control-loop run on the monolithic problem
//!   (`solve_all` for one model, which never partitions);
//! * **partitioned** — the default `solve`: one sub-solve per connected
//!   component, models stitched back;
//! * **parallel** — `solve` with one job (shard) per component.
//!
//! ```text
//! cargo run --release -p absolver-bench --bin components
//! ```
//!
//! `ABS_COMPONENTS_INSTANCES` (default 4) and `ABS_COMPONENTS_SIZE`
//! (default 40 variables per instance) shape the workload;
//! `ABS_TIMEOUT_SECS` (default 120) bounds each run; `ABS_BENCH_DIR`
//! (default `.`) is where `BENCH_components.json` is written. The
//! binary exits 1 if any of the three runs disagrees on the verdict —
//! partitioning must never change an answer.

use absolver_bench::harness::{env_seconds, format_duration, print_table};
use absolver_bench::workloads::decomposable_problem;
use absolver_core::{AbProblem, Orchestrator, OrchestratorOptions, Outcome, Partition, SolveError};
use absolver_trace::{saturating_micros, JsonObject};
use std::path::PathBuf;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
}

fn verdict(outcome: &Result<Outcome, SolveError>, problem: &AbProblem) -> String {
    match outcome {
        Ok(Outcome::Sat(model)) => {
            assert!(
                model.satisfies(problem, 1e-6),
                "a Sat witness must validate against the whole problem"
            );
            "sat".to_string()
        }
        Ok(Outcome::Unsat) => "unsat".to_string(),
        Ok(Outcome::Unknown) => "unknown".to_string(),
        Err(e) => format!("error: {e}"),
    }
}

fn main() {
    let instances = env_usize("ABS_COMPONENTS_INSTANCES", 4);
    let size = env_usize("ABS_COMPONENTS_SIZE", 40);
    let timeout = env_seconds("ABS_TIMEOUT_SECS", 120);
    let out_dir = PathBuf::from(std::env::var("ABS_BENCH_DIR").unwrap_or_else(|_| ".".into()));
    let options = OrchestratorOptions {
        time_limit: Some(timeout),
        ..Default::default()
    };

    let problem = decomposable_problem(instances, size);
    let partition = Partition::of(&problem);
    eprintln!(
        "decomposable workload: {instances} instances x {size} vars, \
         {} components",
        partition.len()
    );
    assert_eq!(partition.len(), instances, "workload must decompose");

    // Whole problem, no partitioning: the first model of an enumeration.
    let mut whole = Orchestrator::with_defaults().with_options(options.clone());
    let whole_outcome = whole
        .solve_all(&problem, 1)
        .map(|(mut models, end)| match models.pop() {
            Some(model) => Outcome::Sat(Box::new(model)),
            None => end,
        });
    let whole_verdict = verdict(&whole_outcome, &problem);
    let whole_elapsed = whole.stats().elapsed;

    // The default solve: the sequential component loop.
    let mut seq = Orchestrator::with_defaults().with_options(options.clone());
    let seq_outcome = seq.solve(&problem);
    let seq_verdict = verdict(&seq_outcome, &problem);
    let seq_stats = seq.stats();

    // One shard per component.
    let jobs = instances.max(2);
    let mut par = Orchestrator::with_defaults().with_options(OrchestratorOptions {
        jobs,
        deterministic: true,
        ..options
    });
    let par_outcome = par.solve(&problem);
    let par_verdict = verdict(&par_outcome, &problem);
    let par_stats = par.stats();
    let par_elapsed = par_stats.elapsed;

    print_table(
        &["mode", "verdict", "time", "components"],
        &[
            vec![
                "whole".into(),
                whole_verdict.clone(),
                format_duration(whole_elapsed),
                "1".into(),
            ],
            vec![
                "partitioned".into(),
                seq_verdict.clone(),
                format_duration(seq_stats.elapsed),
                seq_stats.components.to_string(),
            ],
            vec![
                "parallel".into(),
                par_verdict.clone(),
                format_duration(par_elapsed),
                par_stats.components.to_string(),
            ],
        ],
    );

    let mut obj = JsonObject::new();
    obj.field_str("workload", "components")
        .field_u64("instances", instances as u64)
        .field_u64("vars_per_instance", size as u64)
        .field_u64("components", partition.len() as u64)
        .field_str("whole_verdict", &whole_verdict)
        .field_u64("whole_elapsed_us", saturating_micros(whole_elapsed))
        .field_str("partitioned_verdict", &seq_verdict)
        .field_u64(
            "partitioned_elapsed_us",
            saturating_micros(seq_stats.elapsed),
        )
        .field_str("parallel_verdict", &par_verdict)
        .field_u64("parallel_elapsed_us", saturating_micros(par_elapsed))
        .field_u64("parallel_jobs", jobs as u64);
    let report = obj.finish();
    let path = out_dir.join("BENCH_components.json");
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());

    if whole_verdict != seq_verdict || whole_verdict != par_verdict {
        eprintln!(
            "VERDICT DISAGREEMENT: whole={whole_verdict} partitioned={seq_verdict} \
             parallel={par_verdict}"
        );
        std::process::exit(1);
    }
}
