//! Load generator for the `absolverd` solve service, emitting
//! `BENCH_service.json`.
//!
//! ```text
//! cargo run --release -p absolver-bench --bin service_load [--check-regress]
//! ```
//!
//! Drives an in-process [`Server`] through three phases over one shared
//! declaration family (threshold-style problems that differ only in
//! their clauses):
//!
//! 1. **cold** — `VARIANTS` distinct problems, submitted one at a time
//!    (each a one-shot solve);
//! 2. **resub** — the same problems byte-identically resubmitted (the
//!    problem-cache tier: verdict + model replay, no solving);
//! 3. **burst** — `2 × VARIANTS` fresh problems submitted all at once
//!    with mixed priorities (queueing + backpressure-free throughput).
//!
//! Client-side latency (submit → response received, queue wait
//! included) is recorded per request; the report carries overall
//! throughput, p50/p95/p99, the cold-vs-resubmission p50 ratio, the
//! cache hit rate, and the worker abort count.
//!
//! `ABS_BENCH_DIR` (default `.`) selects the output directory. With
//! `--check-regress` the run fails (exit 1) unless: p99 stays within
//! the regression limit of the checked-in baseline in
//! `ABS_BENCH_BASELINE_DIR` (default `.`), throughput is at least half
//! the baseline's, resubmission beats the cold p50 by more than 1.5x,
//! the problem cache scored at least one hit, and no worker aborted.

use absolver_core::parser;
use absolver_core::{AbProblem, VarKind};
use absolver_linear::CmpOp;
use absolver_nonlinear::Expr;
use absolver_num::Rational;
use absolver_service::protocol::{Priority, Response, SolveFrame};
use absolver_service::{Server, ServerOptions, Submission};
use absolver_trace::{saturating_micros, JsonObject};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Instant;

/// Distinct problems per phase (the burst phase uses twice as many).
const VARIANTS: usize = 24;
/// Arithmetic variables per problem (solve cost scales with this).
const M: usize = 14;

/// Pulls a `"<key>":<integer>` field out of a report without a JSON
/// parser (the workspace is dependency-free).
fn report_u64(report: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = report.find(&needle)? + needle.len();
    let digits: String = report[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Tolerated slowdown vs the checked-in baseline: 15% relative plus a
/// 50ms absolute grace for timer noise (same policy as `bench_json`).
fn regression_limit_us(baseline_us: u64) -> u64 {
    baseline_us + baseline_us * 3 / 20 + 50_000
}

/// One member of the shared-declaration problem family: the threshold
/// skeleton (m int vars in `{-1,0,1}`, free atoms `aᵢ ⇔ xᵢ ≥ 1`, a
/// required sum threshold) plus a variant-specific polarity pattern on
/// the free atoms. Every variant renders the same declarations, but the
/// clause sets differ, so the problem-cache tier does not apply (until a
/// byte-identical resubmission).
fn variant_text(variant: usize) -> String {
    let mut b = AbProblem::builder();
    let vars: Vec<usize> = (0..M)
        .map(|i| b.arith_var(&format!("x{i}"), VarKind::Int))
        .collect();
    let mut frees = Vec::new();
    for &v in &vars {
        let a = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1));
        frees.push(a);
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
        b.require(hi.positive());
    }
    let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
    let target = (M * 55).div_ceil(100) as i64;
    let u = b.atom(sum, CmpOp::Ge, Rational::from_int(target));
    b.require(u.positive());
    // A nonlinear coupling on the first two variables, identical in every
    // variant: x0² + x1² ≤ 2 keeps the family satisfiable (any values in
    // {-1,0,1} qualify) while forcing each solve through the interval
    // cascade.
    let curve = b.atom(
        Expr::var(vars[0]) * Expr::var(vars[0]) + Expr::var(vars[1]) * Expr::var(vars[1]),
        CmpOp::Le,
        Rational::from_int(2),
    );
    b.require(curve.positive());
    // The variant bits pin a few free atoms, changing the clause set
    // (and the search) without touching the declarations.
    for (i, &a) in frees.iter().enumerate().take(usize::BITS as usize) {
        if variant & (1 << i) != 0 {
            b.require(a.positive());
        }
    }
    parser::write(&b.build())
}

/// Submits `problems` and waits for every response, returning each
/// request's client-side latency in µs (submit → response).
fn run_phase(
    server: &Server,
    problems: &[(u64, Priority, String)],
    burst: bool,
) -> Vec<(u64, u64)> {
    let (tx, rx) = mpsc::channel::<Response>();
    let mut started: HashMap<u64, Instant> = HashMap::new();
    let mut latencies = Vec::with_capacity(problems.len());
    for (id, priority, text) in problems {
        started.insert(*id, Instant::now());
        let frame = SolveFrame {
            id: *id,
            timeout_ms: None,
            priority: *priority,
            text: text.clone(),
        };
        match server.submit(frame, tx.clone()) {
            Submission::Enqueued { .. } => {}
            Submission::Rejected { .. } => panic!("queue sized for the load; must not reject"),
            // Statically-unsat bodies are answered at submission; the
            // response is already on `rx`, so just collect it below.
            Submission::Answered => {}
        }
        if !burst {
            // One at a time: wait for this response before the next.
            collect_one(&rx, &mut started, &mut latencies);
        }
    }
    while !started.is_empty() {
        collect_one(&rx, &mut started, &mut latencies);
    }
    latencies
}

fn collect_one(
    rx: &mpsc::Receiver<Response>,
    started: &mut HashMap<u64, Instant>,
    latencies: &mut Vec<(u64, u64)>,
) {
    match rx.recv().expect("response") {
        Response::Ok { id, verdict, .. } => {
            let at = started.remove(&id).expect("tracked request");
            assert_eq!(verdict, "sat", "threshold variants are satisfiable");
            latencies.push((id, saturating_micros(at.elapsed())));
        }
        other => panic!("unexpected response under load: {other:?}"),
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn main() {
    let out_dir = PathBuf::from(std::env::var("ABS_BENCH_DIR").unwrap_or_else(|_| ".".into()));
    let baseline_dir =
        PathBuf::from(std::env::var("ABS_BENCH_BASELINE_DIR").unwrap_or_else(|_| ".".into()));
    let check_regress = std::env::args().any(|a| a == "--check-regress");
    let mut failed = false;

    let server = Server::new(ServerOptions {
        workers: 2,
        queue_capacity: 4 * VARIANTS,
        ..Default::default()
    });

    // ---- phase 1: cold ----------------------------------------------
    let cold_problems: Vec<(u64, Priority, String)> = (0..VARIANTS)
        .map(|v| (v as u64, Priority::Normal, variant_text(v)))
        .collect();
    eprintln!("phase 1: {VARIANTS} cold solves ...");
    let run_started = Instant::now();
    let cold = run_phase(&server, &cold_problems, false);

    // ---- phase 2: byte-identical resubmission ------------------------
    let resub_problems: Vec<(u64, Priority, String)> = cold_problems
        .iter()
        .map(|(id, p, text)| (1000 + id, *p, text.clone()))
        .collect();
    eprintln!("phase 2: {VARIANTS} resubmissions ...");
    let resub = run_phase(&server, &resub_problems, false);

    // ---- phase 3: mixed-priority burst -------------------------------
    let burst_problems: Vec<(u64, Priority, String)> = (0..2 * VARIANTS)
        .map(|i| {
            let priority = match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            (2000 + i as u64, priority, variant_text(VARIANTS + i))
        })
        .collect();
    eprintln!("phase 3: {} burst solves ...", burst_problems.len());
    let burst = run_phase(&server, &burst_problems, true);
    let elapsed = run_started.elapsed();

    // ---- metrics -----------------------------------------------------
    let total_requests = (cold.len() + resub.len() + burst.len()) as u64;
    let elapsed_us = saturating_micros(elapsed).max(1);
    let throughput_rps = total_requests as f64 * 1_000_000.0 / elapsed_us as f64;

    let mut all_us: Vec<u64> = cold
        .iter()
        .chain(&resub)
        .chain(&burst)
        .map(|&(_, us)| us)
        .collect();
    all_us.sort_unstable();
    let p50_us = percentile(&all_us, 0.50);
    let p95_us = percentile(&all_us, 0.95);
    let p99_us = percentile(&all_us, 0.99);

    let mut cold_us: Vec<u64> = cold.iter().map(|&(_, us)| us).collect();
    cold_us.sort_unstable();
    let mut resub_us: Vec<u64> = resub.iter().map(|&(_, us)| us).collect();
    resub_us.sort_unstable();
    let cold_p50_us = percentile(&cold_us, 0.50);
    let resub_p50_us = percentile(&resub_us, 0.50).max(1);
    let resub_speedup = cold_p50_us as f64 / resub_p50_us as f64;

    let stats = server.stats();
    let hits = stats.problem_hits.load(Ordering::Relaxed);
    let lookups = hits + stats.problem_misses.load(Ordering::Relaxed);
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let worker_aborts = stats.aborts.load(Ordering::Relaxed);
    let contraction_hits = stats.contraction_hits.load(Ordering::Relaxed);

    eprintln!(
        "  {total_requests} requests in {elapsed_us}us ({throughput_rps:.0} rps), \
         p50 {p50_us}us p95 {p95_us}us p99 {p99_us}us"
    );
    eprintln!(
        "  cold p50 {cold_p50_us}us vs resub p50 {resub_p50_us}us ({resub_speedup:.1}x), \
         cache hit rate {cache_hit_rate:.3}, aborts {worker_aborts}"
    );
    eprintln!("  contraction cache: {contraction_hits} hits");

    // ---- report ------------------------------------------------------
    let mut obj = JsonObject::new();
    obj.field_str("workload", "service_load")
        .field_u64("requests", total_requests)
        .field_u64("elapsed_us", elapsed_us)
        .field_f64("throughput_rps", throughput_rps)
        .field_u64("p50_us", p50_us)
        .field_u64("p95_us", p95_us)
        .field_u64("p99_us", p99_us)
        .field_u64("cold_p50_us", cold_p50_us)
        .field_u64("resub_p50_us", resub_p50_us)
        .field_f64("resub_speedup", resub_speedup)
        .field_f64("cache_hit_rate", cache_hit_rate)
        .field_u64("worker_aborts", worker_aborts)
        .field_raw("stats", &server.stats_json());
    let report = obj.finish();
    let path = out_dir.join("BENCH_service.json");
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        failed = true;
    } else {
        eprintln!("  -> {}", path.display());
    }
    server.shutdown();

    // ---- gates -------------------------------------------------------
    if check_regress {
        let base_path = baseline_dir.join("BENCH_service.json");
        let baseline = std::fs::read_to_string(&base_path).ok();
        match baseline.as_deref().and_then(|r| report_u64(r, "p99_us")) {
            Some(base_p99) => {
                let limit = regression_limit_us(base_p99);
                if p99_us > limit {
                    eprintln!(
                        "  REGRESSION: p99 {p99_us}us, baseline {base_p99}us (limit {limit}us)"
                    );
                    failed = true;
                } else {
                    eprintln!("  ok vs baseline p99: {p99_us}us <= {limit}us ({base_p99}us)");
                }
            }
            None => {
                eprintln!("  no usable baseline at {}", base_path.display());
                failed = true;
            }
        }
        // Throughput floor: half the baseline's rate (rps is noisy on
        // shared CI hardware, so the floor is deliberately loose).
        if let Some(base_elapsed) = baseline
            .as_deref()
            .and_then(|r| report_u64(r, "elapsed_us"))
        {
            let base_requests = baseline
                .as_deref()
                .and_then(|r| report_u64(r, "requests"))
                .unwrap_or(total_requests);
            let base_rps = base_requests as f64 * 1_000_000.0 / base_elapsed.max(1) as f64;
            if throughput_rps < base_rps / 2.0 {
                eprintln!(
                    "  THROUGHPUT FLOOR: {throughput_rps:.0} rps < half of baseline \
                     {base_rps:.0} rps"
                );
                failed = true;
            }
        }
        if resub_speedup <= 1.5 {
            eprintln!(
                "  NO CACHE PAYOFF: resubmission p50 only {resub_speedup:.2}x better than cold"
            );
            failed = true;
        }
        if hits == 0 {
            eprintln!("  DEAD CACHE: zero problem-cache hits under load");
            failed = true;
        }
        if worker_aborts != 0 {
            eprintln!("  WORKER ABORTS: {worker_aborts} requests died in catch_unwind");
            failed = true;
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
    fn percentiles_pick_rank_from_sorted_input() {
        let us = [10, 20, 30, 40, 1000];
        assert_eq!(percentile(&us, 0.50), 30);
        assert_eq!(percentile(&us, 0.99), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn variants_share_declarations_but_not_clauses() {
        let a: AbProblem = variant_text(1).parse().unwrap();
        let b: AbProblem = variant_text(2).parse().unwrap();
        assert_eq!(a.arith_vars(), b.arith_vars());
        assert_eq!(a.defs().count(), b.defs().count());
        assert_ne!(
            absolver_service::problem_key(&a),
            absolver_service::problem_key(&b)
        );
    }
}
