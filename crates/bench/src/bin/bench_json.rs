//! Emits the machine-readable `BENCH_<workload>.json` observability
//! reports: one file per workload, each a single JSON object with the
//! verdict, structural statistics, and the full per-phase solver stats
//! (see `OrchestratorStats::to_json`).
//!
//! ```text
//! cargo run --release -p absolver-bench --bin bench_json [workload ...]
//! ```
//!
//! Without arguments every workload of
//! [`absolver_bench::workloads::bench_suite`] runs (steering,
//! threshold-reach, sudoku, fischer); with arguments only the named
//! subset. `ABS_TIMEOUT_SECS` (default 120) bounds each run;
//! `ABS_BENCH_DIR` (default `.`) selects the output directory.
//!
//! With `--check-regress` each fresh run is additionally compared
//! against the checked-in baseline `BENCH_<workload>.json` in
//! `ABS_BENCH_BASELINE_DIR` (default `.`). The run fails (exit 1) if
//! any workload is more than 15% slower than its baseline or flips its
//! verdict; an absolute grace of 50ms absorbs scheduler noise on
//! sub-millisecond runs. It also fails if any deterministic work counter
//! ([`absolver_bench::harness::WORK_COUNTERS`]: iterations, theory
//! checks, conflict literals, pivots, warm starts, linear rows pushed,
//! contractions, local-search steps, components) differs
//! from the baseline at all, printing `COUNTER CHANGED: <key> <baseline>
//! -> <fresh>`; a change that moves a counter refreshes the baseline.

use absolver_bench::harness::{
    env_seconds, format_duration, print_counter_changes, regression_limit_us, report_u64,
    run_absolver_report,
};
use absolver_bench::workloads::bench_suite;
use absolver_trace::saturating_micros;
use std::path::PathBuf;

/// Pulls the top-level `"verdict":"<s>"` out of a report.
fn report_verdict(report: &str) -> Option<&str> {
    let key = "\"verdict\":\"";
    let at = report.find(key)? + key.len();
    report[at..].split('"').next()
}

fn main() {
    let timeout = env_seconds("ABS_TIMEOUT_SECS", 120);
    let out_dir = PathBuf::from(std::env::var("ABS_BENCH_DIR").unwrap_or_else(|_| ".".into()));
    let baseline_dir =
        PathBuf::from(std::env::var("ABS_BENCH_BASELINE_DIR").unwrap_or_else(|_| ".".into()));
    let mut check_regress = false;
    let selected: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| {
            if arg == "--check-regress" {
                check_regress = true;
                false
            } else {
                true
            }
        })
        .collect();

    let suite = bench_suite();
    if let Some(unknown) = selected
        .iter()
        .find(|name| !suite.iter().any(|(key, _)| key == name))
    {
        let known: Vec<&str> = suite.iter().map(|(key, _)| *key).collect();
        eprintln!("unknown workload `{unknown}` (known: {})", known.join(", "));
        std::process::exit(2);
    }

    let mut failed = false;
    for (key, problem) in suite {
        if !selected.is_empty() && !selected.iter().any(|name| name == key) {
            continue;
        }
        eprintln!("running {key} ...");
        let (m, report) = run_absolver_report(key, &problem, Some(timeout));
        let path = out_dir.join(format!("BENCH_{key}.json"));
        if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            failed = true;
            continue;
        }
        eprintln!(
            "  {} [{}] -> {}",
            format_duration(m.elapsed),
            m.verdict,
            path.display()
        );
        if check_regress {
            let base_path = baseline_dir.join(format!("BENCH_{key}.json"));
            let baseline = std::fs::read_to_string(&base_path).ok();
            match baseline
                .as_deref()
                .and_then(|r| report_u64(r, "elapsed_us"))
            {
                Some(base_us) => {
                    let fresh_us = saturating_micros(m.elapsed);
                    let limit_us = regression_limit_us(base_us);
                    if fresh_us > limit_us {
                        eprintln!(
                            "  REGRESSION: {key} took {fresh_us}us, baseline {base_us}us \
                             (limit {limit_us}us)"
                        );
                        failed = true;
                    } else {
                        eprintln!("  ok vs baseline: {fresh_us}us <= {limit_us}us ({base_us}us)");
                    }
                }
                None => {
                    eprintln!("  no usable baseline at {}", base_path.display());
                    failed = true;
                }
            }
            if let Some(baseline) = baseline.as_deref() {
                failed |= print_counter_changes(baseline, &report);
            }
            if let Some(base_verdict) = baseline.as_deref().and_then(report_verdict) {
                if base_verdict != m.verdict {
                    eprintln!(
                        "  VERDICT FLIP: {key} is now `{}`, baseline says `{base_verdict}`",
                        m.verdict
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_field_extraction() {
        let report = r#"{"workload":"steering","verdict":"sat","pivots_per_check":1.5,"stats":{"elapsed_us":99}}"#;
        assert_eq!(report_verdict(report), Some("sat"));
        assert_eq!(report_verdict("{}"), None);
    }
}
