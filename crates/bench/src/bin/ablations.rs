//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! (a) **LSAT mode vs external restarts** (paper Sec. 4: enumerating all
//!     solutions with a single-solution backend "happens at the expense of
//!     the time required for restarting the entire solving process
//!     externally") — the incremental CDCL backend against
//!     [`RestartingBoolean`] on a Sudoku instance.
//! (c) **Tight vs loose coupling** — the DPLL(T) baseline against
//!     ABsolver's control loop on FISCHER (the architectural contrast of
//!     Table 2).
//!
//! Ablation (b), a deletion filter shrinking each linear conflict, lost
//! to the raw simplex certificate and was removed; EXPERIMENTS.md keeps
//! its before/after numbers.

use absolver_baselines::{MathSatLike, MathSatLikeOptions};
use absolver_bench::fischer::fischer;
use absolver_bench::harness::{env_seconds, format_duration, print_table};
use absolver_bench::sudoku::{encode_mixed, generate, Difficulty};
use absolver_core::{CdclBoolean, Orchestrator, OrchestratorOptions, RestartingBoolean};
use std::time::{Duration, Instant};

fn options(timeout: Duration) -> OrchestratorOptions {
    OrchestratorOptions {
        time_limit: Some(timeout),
        ..Default::default()
    }
}

fn main() {
    let timeout = env_seconds("ABS_TIMEOUT_SECS", 120);

    // ---- (a) incremental enumeration vs external restarts ---------------
    println!("Ablation (a): all-models bookkeeping, incremental vs restarts");
    println!("(enumerating up to 200 interleavings of FISCHER6, and the");
    println!("solutions of an under-constrained Sudoku)\n");
    let fischer_instance = fischer(6);
    let (mut puzzle, _) = generate(2006, Difficulty::Easy);
    // Blank a full band to give the puzzle many solutions.
    for row in puzzle.iter_mut().take(3) {
        row.fill(0);
    }
    let sudoku_instance = encode_mixed(&puzzle);
    let mut rows = Vec::new();
    for (instance_label, problem, cap) in [
        ("FISCHER6 schedules", &fischer_instance, 200usize),
        ("Sudoku solutions", &sudoku_instance, 50),
    ] {
        for (label, restarting) in [
            ("incremental (LSAT mode)", false),
            ("external restarts", true),
        ] {
            let mut orc = if restarting {
                Orchestrator::with_defaults().with_boolean(Box::new(RestartingBoolean::new()))
            } else {
                Orchestrator::with_defaults().with_boolean(Box::new(CdclBoolean::new()))
            }
            .with_options(options(timeout));
            let started = Instant::now();
            let (models, _) = orc.solve_all(problem, cap).expect("within budget");
            rows.push(vec![
                instance_label.to_string(),
                label.to_string(),
                models.len().to_string(),
                format_duration(started.elapsed()),
            ]);
        }
    }
    print_table(&["Instance", "Boolean backend", "models", "time"], &rows);

    // ---- (c) tight vs loose coupling ------------------------------------
    println!("\nAblation (c): tight DPLL(T) vs loose control loop (FISCHER)\n");
    let mut rows = Vec::new();
    for n in [4usize, 8] {
        let problem = fischer(n);
        let started = Instant::now();
        let mut orc = Orchestrator::with_defaults().with_options(options(timeout));
        let _ = orc.solve(&problem).expect("within budget");
        let loose = started.elapsed();
        let mut tight = MathSatLike {
            options: MathSatLikeOptions {
                time_limit: Some(timeout),
                ..Default::default()
            },
        };
        let run = tight.solve(&problem);
        rows.push(vec![
            format!("FISCHER{n}"),
            format_duration(loose),
            format_duration(run.elapsed),
            format!(
                "{:.1}×",
                loose.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        &[
            "Instance",
            "loose (ABsolver)",
            "tight (DPLL(T))",
            "loose/tight",
        ],
        &rows,
    );
}
