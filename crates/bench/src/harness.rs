//! Shared measurement and table-formatting helpers for the `table*`
//! binaries.

use absolver_baselines::{
    BaselineVerdict, CvcLike, CvcLikeOptions, MathSatLike, MathSatLikeOptions,
};
use absolver_core::{AbProblem, Orchestrator, OrchestratorOptions, Outcome};
use absolver_trace::JsonObject;
use std::time::Duration;

/// Result of one solver on one instance.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Short verdict string (`sat`, `unsat`, `rejected`, `oom`, `timeout`…).
    pub verdict: String,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl Measurement {
    /// Formats as the paper's `XmY.ZZZs` column entry, with the verdict
    /// appended when it is not a plain sat/unsat.
    pub fn cell(&self) -> String {
        match self.verdict.as_str() {
            "sat" | "unsat" => format_duration(self.elapsed),
            other => other.to_string(),
        }
    }
}

/// Formats a duration in the paper's `XmY.YYYs` style.
pub fn format_duration(d: Duration) -> String {
    let total = d.as_secs_f64();
    let minutes = (total / 60.0).floor() as u64;
    let seconds = total - minutes as f64 * 60.0;
    format!("{minutes}m{seconds:.3}s")
}

/// Runs ABsolver (the default orchestrator stack) on a problem.
pub fn run_absolver(problem: &AbProblem, time_limit: Option<Duration>) -> Measurement {
    run_absolver_report("", problem, time_limit).0
}

/// Runs ABsolver and additionally renders the machine-readable report:
/// a JSON object with the workload name, verdict, structural statistics,
/// and the full per-phase [`absolver_core::OrchestratorStats`] payload
/// (the `BENCH_<workload>.json` format). The stack is the CLI's default:
/// the problem is solved as written, one control-loop run per component.
pub fn run_absolver_report(
    workload: &str,
    problem: &AbProblem,
    time_limit: Option<Duration>,
) -> (Measurement, String) {
    let mut orc = Orchestrator::with_defaults().with_options(OrchestratorOptions {
        time_limit,
        ..Default::default()
    });
    let outcome = orc.solve(problem);
    let stats = orc.stats();
    let verdict = match outcome {
        Ok(Outcome::Sat(model)) => {
            debug_assert!(model.satisfies(problem, 1e-5), "model must validate");
            "sat".to_string()
        }
        Ok(Outcome::Unsat) => "unsat".to_string(),
        Ok(Outcome::Unknown) if stats.timed_out => "timeout".to_string(),
        Ok(Outcome::Unknown) => "unknown".to_string(),
        Err(e) => format!("error: {e}"),
    };
    // Pivot effort per theory check, the incremental theory engine's
    // derived efficiency metric.
    let pivots_per_check = if stats.theory_checks == 0 {
        0.0
    } else {
        stats.simplex_pivots as f64 / stats.theory_checks as f64
    };
    // Hash-consing census of the workload's atom definitions: how many
    // expression-tree nodes the problem writes down versus how many
    // distinct arena nodes actually back them. The gap is duplication
    // the intern layer collapsed into id copies.
    let roots: Vec<absolver_nonlinear::TermId> = problem
        .defs()
        .flat_map(|(_, def)| def.constraints.iter().map(|c| c.term()))
        .collect();
    let (term_tree_nodes, term_distinct_nodes) = absolver_nonlinear::term::sharing(&roots);
    let term_dedup_rate = if term_tree_nodes == 0 {
        0.0
    } else {
        1.0 - term_distinct_nodes as f64 / term_tree_nodes as f64
    };
    let mut obj = JsonObject::new();
    obj.field_str("workload", workload)
        .field_str("verdict", &verdict)
        .field_u64("clauses", problem.cnf().len() as u64)
        .field_u64("defs", problem.num_defs() as u64)
        .field_u64("linear_constraints", problem.num_linear() as u64)
        .field_u64("nonlinear_constraints", problem.num_nonlinear() as u64)
        .field_f64("pivots_per_check", pivots_per_check)
        .field_f64("contractions_per_check", stats.contractions_per_check())
        .field_u64("term_tree_nodes", term_tree_nodes)
        .field_u64("term_distinct_nodes", term_distinct_nodes)
        .field_f64("term_dedup_rate", term_dedup_rate)
        .field_u64("components", stats.components)
        .field_u64("subsumed_constraints", stats.subsumed_constraints)
        .field_raw("stats", &stats.to_json());
    (
        Measurement {
            verdict,
            elapsed: stats.elapsed,
        },
        obj.finish(),
    )
}

/// Runs the tight DPLL(T) baseline.
pub fn run_mathsat_like(problem: &AbProblem, time_limit: Option<Duration>) -> Measurement {
    let mut solver = MathSatLike {
        options: MathSatLikeOptions {
            time_limit,
            ..MathSatLikeOptions::default()
        },
    };
    let run = solver.solve(problem);
    Measurement {
        verdict: verdict_string(&run.verdict),
        elapsed: run.elapsed,
    }
}

/// Runs the eager baseline.
pub fn run_cvc_like(problem: &AbProblem, time_limit: Option<Duration>) -> Measurement {
    let mut solver = CvcLike {
        options: CvcLikeOptions {
            time_limit,
            ..CvcLikeOptions::default()
        },
    };
    let run = solver.solve(problem);
    Measurement {
        verdict: verdict_string(&run.verdict),
        elapsed: run.elapsed,
    }
}

fn verdict_string(v: &BaselineVerdict) -> String {
    match v {
        BaselineVerdict::Sat(_) => "sat".to_string(),
        BaselineVerdict::Unsat => "unsat".to_string(),
        BaselineVerdict::Unknown => "unknown".to_string(),
        BaselineVerdict::Rejected(_) => "rejected".to_string(),
        BaselineVerdict::OutOfMemory => "–* (oom)".to_string(),
        BaselineVerdict::Timeout => "timeout".to_string(),
    }
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Pulls a `"<key>":<integer>` field out of a report without a JSON
/// parser (the workspace is dependency-free). The first occurrence wins.
pub fn report_u64(report: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = report.find(&needle)? + needle.len();
    let digits: String = report[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Tolerated slowdown vs a checked-in baseline: 15% relative, plus a
/// 50ms absolute grace so micro-runs don't flake on timer noise.
pub fn regression_limit_us(baseline_us: u64) -> u64 {
    baseline_us + baseline_us * 3 / 20 + 50_000
}

/// The deterministic work counters of a `BENCH_<workload>.json` report.
/// `bench_json --check-regress` and `fischer_incremental
/// --check-regress` require each to equal its baseline value exactly, so
/// a change that moves one must refresh the baseline on purpose.
pub const WORK_COUNTERS: [&str; 11] = [
    "components",
    "boolean_iterations",
    "theory_checks",
    "conflict_literals",
    "simplex_pivots",
    "simplex_warm_starts",
    "linear_rows_pushed",
    "hc4_contractions",
    "bc3_contractions",
    "newton_contractions",
    "local_search_steps",
];

/// The [`WORK_COUNTERS`] whose values differ between a baseline and a
/// fresh report, as `(key, baseline, fresh)`. A counter missing from
/// either report counts as changed.
pub fn counter_changes(
    baseline: &str,
    fresh: &str,
) -> Vec<(&'static str, Option<u64>, Option<u64>)> {
    WORK_COUNTERS
        .iter()
        .map(|&key| (key, report_u64(baseline, key), report_u64(fresh, key)))
        .filter(|(_, base, now)| base.is_none() || base != now)
        .collect()
}

/// Prints `COUNTER CHANGED: <key> <baseline> -> <fresh>` for each of the
/// [`counter_changes`] between two reports, or that there are none;
/// returns whether any counter changed.
pub fn print_counter_changes(baseline: &str, fresh: &str) -> bool {
    let show = |v: Option<u64>| v.map_or_else(|| "missing".into(), |v| v.to_string());
    let changes = counter_changes(baseline, fresh);
    for (counter, base, now) in &changes {
        eprintln!(
            "  COUNTER CHANGED: {counter} {} -> {}",
            show(*base),
            show(*now)
        );
    }
    if changes.is_empty() {
        eprintln!("  work counters identical to baseline");
    }
    !changes.is_empty()
}

/// Reads a duration (seconds) from an environment variable.
pub fn env_seconds(name: &str, default_secs: u64) -> Duration {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
        .unwrap_or(Duration::from_secs(default_secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_millis(283)), "0m0.283s");
        assert_eq!(format_duration(Duration::from_secs(58)), "0m58.000s");
        assert_eq!(format_duration(Duration::from_secs(5047)), "84m7.000s");
    }

    #[test]
    fn runners_produce_verdicts() {
        let p: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 0\n".parse().unwrap();
        assert_eq!(run_absolver(&p, None).verdict, "sat");
        assert_eq!(run_mathsat_like(&p, None).verdict, "sat");
        assert_eq!(run_cvc_like(&p, None).verdict, "sat");
        let nl: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x * x >= 0\n".parse().unwrap();
        assert_eq!(run_mathsat_like(&nl, None).verdict, "rejected");
        assert_eq!(run_cvc_like(&nl, None).verdict, "rejected");
    }

    #[test]
    fn u64_extraction_finds_the_named_field() {
        let report = r#"{"workload":"x","whole_elapsed_us":7,"stats":{"phase":{"boolean_us":3},"elapsed_us":4211}}"#;
        assert_eq!(report_u64(report, "elapsed_us"), Some(4211));
        assert_eq!(report_u64(report, "whole_elapsed_us"), Some(7));
        assert_eq!(report_u64(report, "missing"), None);
        assert_eq!(report_u64("{}", "elapsed_us"), None);
    }

    #[test]
    fn regression_limit_adds_relative_and_absolute_grace() {
        // 1s baseline: 15% + 50ms grace.
        assert_eq!(regression_limit_us(1_000_000), 1_200_000);
        // Micro-run: the absolute grace dominates.
        assert_eq!(regression_limit_us(800), 50_920);
    }

    #[test]
    fn counter_changes_flags_any_difference() {
        let base = r#"{"components":1,"stats":{"boolean_iterations":34,"theory_checks":34,"conflict_literals":5973,"simplex_pivots":861,"simplex_warm_starts":33,"linear_rows_pushed":4372,"hc4_contractions":0,"bc3_contractions":0,"newton_contractions":0,"local_search_steps":0}}"#;
        assert!(counter_changes(base, base).is_empty());
        let one_more_pivot = base.replace("861", "862");
        assert_eq!(
            counter_changes(base, &one_more_pivot),
            vec![("simplex_pivots", Some(861), Some(862))]
        );
        let one_more_warm_start = base.replace(":33,", ":34,");
        assert_eq!(
            counter_changes(base, &one_more_warm_start),
            vec![("simplex_warm_starts", Some(33), Some(34))]
        );
        let missing = base.replace("\"components\":1,", "");
        assert_eq!(
            counter_changes(base, &missing),
            vec![("components", Some(1), None)]
        );
    }

    #[test]
    fn env_seconds_parses() {
        assert_eq!(
            env_seconds("ABS_NO_SUCH_ENV_VAR", 7),
            Duration::from_secs(7)
        );
    }
}
