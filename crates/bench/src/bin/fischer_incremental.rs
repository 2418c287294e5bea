//! Streaming Fischer BMC harness: deepens the FISCHER family n = 1..11
//! inside ONE persistent solve session and races it against the
//! from-scratch Table 2 loop, emitting `BENCH_fischer_incremental.json`.
//!
//! ```text
//! cargo run --release -p absolver-bench --bin fischer_incremental [--check-regress]
//! ```
//!
//! At each depth the session run performs the same three checks the
//! from-scratch loop does — the reachability query, an idempotent
//! re-check (a warm re-check of the unchanged problem), and a
//! `push`/mutex/`check`/`pop` excursion (n ≥ 2) — but keeps its Boolean
//! state, simplex assertion stack and lemmas across all of them. The
//! from-scratch comparator solves byte-identical cloned problems with a
//! fresh orchestrator per check.
//!
//! `ABS_BENCH_DIR` (default `.`) selects the output directory. With
//! `--check-regress` the run fails (exit 1) unless: the fresh session
//! time is within the regression limit of the checked-in baseline in
//! `ABS_BENCH_BASELINE_DIR` (default `.`), the session beats the
//! from-scratch loop outright, and every verdict matches the protocol
//! (reach SAT, mutex UNSAT at every depth, both modes).

use absolver_bench::fischer::FischerStream;
use absolver_bench::harness::{regression_limit_us, report_u64};
use absolver_core::{AbProblem, Orchestrator, Outcome};
use absolver_trace::{saturating_micros, JsonObject};
use std::path::PathBuf;
use std::time::Instant;

const N_MAX: usize = 11;

fn verdict_name(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Sat(_) => "sat",
        Outcome::Unsat => "unsat",
        Outcome::Unknown => "unknown",
    }
}

/// One from-scratch solve on a fresh orchestrator, returning the verdict.
fn scratch_check(problem: &AbProblem) -> Outcome {
    Orchestrator::with_defaults()
        .solve(problem)
        .unwrap_or_else(|e| panic!("from-scratch solve failed: {e}"))
}

fn main() {
    let out_dir = PathBuf::from(std::env::var("ABS_BENCH_DIR").unwrap_or_else(|_| ".".into()));
    let baseline_dir =
        PathBuf::from(std::env::var("ABS_BENCH_BASELINE_DIR").unwrap_or_else(|_| ".".into()));
    let check_regress = std::env::args().any(|a| a == "--check-regress");
    let mut failed = false;

    // ---- streaming session run -------------------------------------
    eprintln!("streaming session: deepening fischer 1..={N_MAX} ...");
    let mut stream = FischerStream::new(N_MAX);
    // Byte-identical copies of every problem the session decides, in
    // check order, so the comparator replays the exact same work.
    let mut scratch_problems: Vec<(AbProblem, &'static str)> = Vec::new();
    let session_started = Instant::now();
    let mut final_verdict = "unknown";
    for n in 1..=N_MAX {
        stream.add_process();
        scratch_problems.push((stream.session().problem().clone(), "sat"));
        let reach = stream
            .session_mut()
            .check()
            .unwrap_or_else(|e| panic!("n={n}: session check failed: {e}"));
        if !reach.is_sat() {
            eprintln!("  BAD VERDICT: n={n} reach is {}", verdict_name(&reach));
            failed = true;
        }
        // Idempotent re-check: same frame, nothing asserted since, so it
        // starts from the warm Boolean state.
        scratch_problems.push((stream.session().problem().clone(), "sat"));
        let again = stream.session_mut().check().unwrap();
        if !again.is_sat() {
            eprintln!("  BAD VERDICT: n={n} re-check is {}", verdict_name(&again));
            failed = true;
        }
        final_verdict = verdict_name(&again);
        if n >= 2 {
            stream.session_mut().push();
            stream.assert_mutex_entry();
            scratch_problems.push((stream.session().problem().clone(), "unsat"));
            let mutex = stream.session_mut().check().unwrap();
            if !mutex.is_unsat() {
                eprintln!("  BAD VERDICT: n={n} mutex is {}", verdict_name(&mutex));
                failed = true;
            }
            stream.session_mut().pop().expect("matching push");
        }
    }
    let session_elapsed = session_started.elapsed();
    let cumulative = stream.session().cumulative_stats();
    eprintln!(
        "  session: {} checks in {}us, {} lemmas retained",
        stream.session().checks(),
        session_elapsed.as_micros(),
        stream.session().lemmas_retained(),
    );

    // ---- from-scratch comparator ------------------------------------
    eprintln!(
        "from-scratch loop: {} fresh solves ...",
        scratch_problems.len()
    );
    let scratch_started = Instant::now();
    for (i, (problem, expected)) in scratch_problems.iter().enumerate() {
        let outcome = scratch_check(problem);
        if verdict_name(&outcome) != *expected {
            eprintln!(
                "  BAD VERDICT: scratch check {i} is {}, expected {expected}",
                verdict_name(&outcome)
            );
            failed = true;
        }
    }
    let scratch_elapsed = scratch_started.elapsed();
    eprintln!("  from-scratch: {}us", scratch_elapsed.as_micros());

    // ---- report ------------------------------------------------------
    let session_us = saturating_micros(session_elapsed);
    let scratch_us = saturating_micros(scratch_elapsed);
    let speedup = if session_us == 0 {
        0.0
    } else {
        scratch_us as f64 / session_us as f64
    };
    let mut obj = JsonObject::new();
    obj.field_str("workload", "fischer_incremental")
        .field_str("verdict", final_verdict)
        .field_u64("depths", N_MAX as u64)
        .field_u64("session_checks", stream.session().checks())
        .field_u64("session_elapsed_us", session_us)
        .field_u64("scratch_elapsed_us", scratch_us)
        .field_f64("speedup", speedup)
        .field_u64("lemmas_retained", stream.session().lemmas_retained() as u64)
        .field_raw("stats", &cumulative.to_json());
    let report = obj.finish();
    let path = out_dir.join("BENCH_fischer_incremental.json");
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        failed = true;
    } else {
        eprintln!("  {:.2}x over from-scratch -> {}", speedup, path.display());
    }

    // ---- gates -------------------------------------------------------
    if check_regress {
        let base_path = baseline_dir.join("BENCH_fischer_incremental.json");
        match std::fs::read_to_string(&base_path)
            .ok()
            .as_deref()
            .and_then(|r| report_u64(r, "session_elapsed_us"))
        {
            Some(base_us) => {
                let limit_us = regression_limit_us(base_us);
                if session_us > limit_us {
                    eprintln!(
                        "  REGRESSION: session took {session_us}us, baseline {base_us}us \
                         (limit {limit_us}us)"
                    );
                    failed = true;
                } else {
                    eprintln!("  ok vs baseline: {session_us}us <= {limit_us}us ({base_us}us)");
                }
            }
            None => {
                eprintln!("  no usable baseline at {}", base_path.display());
                failed = true;
            }
        }
        if session_us >= scratch_us {
            eprintln!(
                "  NO PAYOFF: session ({session_us}us) does not beat from-scratch \
                 ({scratch_us}us)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
