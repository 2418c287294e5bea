//! Sequential-vs-parallel speedup benchmark for `solve_parallel`.
//!
//! Compares the sequential control loop against the portfolio at two job
//! counts on three workloads:
//!
//! * **sudoku hard** — the paper's Table 3 mixed encoding of a 26-clue
//!   puzzle;
//! * **steering** — the paper's Sec. 5.1 hybrid-systems case study;
//! * **threshold** — a reach-style workload built for parallel search:
//!   `m` ternary integers must sum past a 55 % threshold, so the default
//!   all-false decision phases crawl toward the feasible region one
//!   theory conflict at a time, while a diversified shard's scrambled
//!   phases start near it. Speedup here is *work* reduction, so it does
//!   not depend on the core count.
//!
//! `ABS_TIMEOUT_SECS` (default 60) bounds every run.

use absolver_bench::harness::{env_seconds, format_duration, print_table, run_absolver};
use absolver_bench::sudoku::{encode_mixed, generate, Difficulty};
use absolver_bench::workloads::threshold_problem;
use absolver_core::{AbProblem, Orchestrator, OrchestratorOptions, Outcome, ParallelOptions};
use absolver_model::steering_problem;
use std::time::Duration;

fn run_parallel(problem: &AbProblem, jobs: usize, time_limit: Duration) -> (String, Duration) {
    let opts = ParallelOptions {
        jobs,
        deterministic: true,
        base: OrchestratorOptions {
            time_limit: Some(time_limit),
            ..Default::default()
        },
    };
    let mut orc = Orchestrator::with_defaults();
    match orc.solve_parallel(problem, &opts) {
        Ok((outcome, stats)) => {
            let verdict = match outcome {
                Outcome::Sat(model) => {
                    debug_assert!(model.satisfies(problem, 1e-5), "model must validate");
                    "sat"
                }
                Outcome::Unsat => "unsat",
                Outcome::Unknown if stats.timed_out => "timeout",
                Outcome::Unknown => "unknown",
            };
            (verdict.to_string(), stats.elapsed)
        }
        Err(e) => (format!("error: {e}"), Duration::ZERO),
    }
}

fn speedup(seq: Duration, par: Duration) -> String {
    if par.is_zero() {
        return "-".to_string();
    }
    format!("{:.2}x", seq.as_secs_f64() / par.as_secs_f64())
}

fn main() {
    let timeout = env_seconds("ABS_TIMEOUT_SECS", 60);
    println!("Parallel solving: sequential vs portfolio\n");

    let workloads: Vec<(String, AbProblem)> = vec![
        (
            "sudoku hard (mixed)".to_string(),
            encode_mixed(&generate(3, Difficulty::Hard).0),
        ),
        ("steering".to_string(), steering_problem()),
        ("threshold m=120".to_string(), threshold_problem(120)),
        ("threshold m=160".to_string(), threshold_problem(160)),
    ];

    let mut rows = Vec::new();
    for (name, problem) in &workloads {
        eprintln!("running {name} ...");
        let seq = run_absolver(problem, Some(timeout));
        let mut row = vec![name.clone(), format!("{} [{}]", seq.cell(), seq.verdict)];
        let mut best = 0.0f64;
        for jobs in [2, 4] {
            let (verdict, elapsed) = run_parallel(problem, jobs, timeout);
            // Timeouts are reported, not asserted away — with fewer cores
            // than shards a portfolio can legitimately exceed the budget.
            // What must never happen is a Sat/Unsat contradiction.
            if matches!(verdict.as_str(), "sat" | "unsat")
                && matches!(seq.verdict.as_str(), "sat" | "unsat")
            {
                assert_eq!(
                    verdict, seq.verdict,
                    "{name}: portfolio x{jobs} contradicts sequential"
                );
            }
            // A ratio only means something when both sides finished: a
            // timed-out sequential baseline gives a lower bound at best.
            let comparable = matches!(verdict.as_str(), "sat" | "unsat")
                && matches!(seq.verdict.as_str(), "sat" | "unsat");
            if comparable && !elapsed.is_zero() {
                best = best.max(seq.elapsed.as_secs_f64() / elapsed.as_secs_f64());
            }
            let ratio = if comparable {
                speedup(seq.elapsed, elapsed)
            } else {
                "-".to_string()
            };
            row.push(format!("{} ({ratio})", format_duration(elapsed)));
        }
        row.push(if best > 0.0 {
            format!("{best:.2}x")
        } else {
            "-".to_string()
        });
        rows.push(row);
    }
    print_table(
        &[
            "Workload",
            "sequential",
            "portfolio x2",
            "portfolio x4",
            "best",
        ],
        &rows,
    );
    println!("\nSpeedups beyond the core count come from work reduction");
    println!("(diversified decision phases), not from running shards concurrently.");
}
