//! Integration tests for the `absolverd` solve service: request
//! lifecycle (deadlines, cancellation, backpressure, priorities) and
//! cross-request cache semantics (verdict identity across tiers).

use absolver::core::{parser, Partition};
use absolver::logic::Var;
use absolver::service::protocol::{CacheTier, ErrCode, Priority, Response, SolveFrame};
use absolver::service::{Server, ServerOptions, Submission};
use absolver::trace::{CollectingSink, TraceSink};
use absolver_bench::workloads::decomposable_problem;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A problem the solver takes long enough on (hundreds of Boolean
/// iterations, each a cancellation/deadline poll point) that a test can
/// reliably interrupt it mid-solve: eight threshold-reach copies of 120
/// variables, linked by one clause over a free atom of each copy. The
/// link makes it one component, so the daemon's solve does not split it
/// into eight short ones. A debug build takes seconds on it, many times
/// the 100 ms deadline below. One copy of 720 variables takes as long,
/// but a debug build overflows a test thread's stack building or parsing
/// its 720-term sum.
fn slow_problem_text() -> String {
    let copies = decomposable_problem(8, 120);
    let link: Vec<_> = Partition::of(&copies)
        .components()
        .iter()
        .map(|c| Var::new(c.bools[0]).positive())
        .collect();
    assert_eq!(link.len(), 8);
    parser::write(&copies.with_clause(link))
}

const EASY_SAT: &str =
    "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 3\nc range x -10 10\n";

fn one_worker() -> ServerOptions {
    ServerOptions {
        workers: 1,
        ..Default::default()
    }
}

fn frame(id: u64, text: &str) -> SolveFrame {
    SolveFrame {
        id,
        timeout_ms: None,
        priority: Priority::Normal,
        text: text.to_string(),
    }
}

fn submit_ok(server: &Server, frame: SolveFrame, tx: &mpsc::Sender<Response>) {
    match server.submit(frame, tx.clone()) {
        Submission::Enqueued { .. } => {}
        Submission::Rejected { .. } => panic!("unexpected rejection"),
        Submission::Answered => {}
    }
}

#[test]
fn cancellation_lands_mid_solve() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();
    let cancel = match server.submit(frame(1, &slow), tx) {
        Submission::Enqueued { cancel } => cancel,
        Submission::Rejected { .. } => panic!("queue empty, must enqueue"),
        Submission::Answered => panic!("not statically unsat, must enqueue"),
    };
    // Let the solve get going, then pull the plug.
    std::thread::sleep(Duration::from_millis(50));
    cancel.store(true, std::sync::atomic::Ordering::Relaxed);
    let started = Instant::now();
    let response = rx.recv().expect("response");
    match response {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::Cancelled),
        other => panic!("expected cancellation, got {other:?}"),
    }
    // The cancel must land at the next poll point, not after the full
    // solve; leave very generous slack for loaded CI machines.
    assert!(started.elapsed() < Duration::from_secs(30));
    server.shutdown();
}

#[test]
fn deadline_expires_mid_solve() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();
    submit_ok(
        &server,
        SolveFrame {
            id: 2,
            timeout_ms: Some(100),
            priority: Priority::Normal,
            text: slow,
        },
        &tx,
    );
    match rx.recv().expect("response") {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::Deadline),
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn deadline_expires_while_queued() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();
    // Occupy the single worker...
    let cancel_a = match server.submit(frame(1, &slow), tx.clone()) {
        Submission::Enqueued { cancel } => cancel,
        Submission::Rejected { .. } => panic!("must enqueue"),
        Submission::Answered => panic!("not statically unsat, must enqueue"),
    };
    std::thread::sleep(Duration::from_millis(50));
    // ...queue a request whose deadline lapses while it waits...
    submit_ok(
        &server,
        SolveFrame {
            id: 2,
            timeout_ms: Some(1),
            priority: Priority::Normal,
            text: EASY_SAT.to_string(),
        },
        &tx,
    );
    std::thread::sleep(Duration::from_millis(20));
    // ...then free the worker so it picks the expired job up.
    cancel_a.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut saw_expired = false;
    for _ in 0..2 {
        match rx.recv().expect("response") {
            Response::Err {
                id: Some(2), code, ..
            } => {
                assert_eq!(code, ErrCode::Deadline);
                saw_expired = true;
            }
            Response::Err {
                id: Some(1), code, ..
            } => assert_eq!(code, ErrCode::Cancelled),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(saw_expired, "queued request must expire");
    assert!(
        server
            .stats()
            .expired
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn backpressure_rejects_with_retry_hint() {
    let server = Server::new(ServerOptions {
        workers: 1,
        queue_capacity: 1,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();
    // First job is popped by the worker almost immediately...
    let cancel_a = match server.submit(frame(1, &slow), tx.clone()) {
        Submission::Enqueued { cancel } => cancel,
        Submission::Rejected { .. } => panic!("must enqueue"),
        Submission::Answered => panic!("not statically unsat, must enqueue"),
    };
    std::thread::sleep(Duration::from_millis(100));
    // ...the second fills the queue...
    submit_ok(&server, frame(2, EASY_SAT), &tx);
    // ...and the third must be rejected with a retry hint.
    match server.submit(frame(3, EASY_SAT), tx.clone()) {
        Submission::Rejected { retry_after_ms } => assert!(retry_after_ms >= 10),
        Submission::Enqueued { .. } => panic!("queue must be full"),
        Submission::Answered => panic!("queue must be full"),
    }
    // The rejection response was delivered on the reply channel too.
    let mut saw_overload = false;
    cancel_a.store(true, std::sync::atomic::Ordering::Relaxed);
    for _ in 0..3 {
        if let Response::Err {
            id: Some(3),
            code,
            retry_after_ms,
            ..
        } = rx.recv().expect("response")
        {
            assert_eq!(code, ErrCode::Overload);
            assert!(retry_after_ms.is_some());
            saw_overload = true;
        }
    }
    assert!(saw_overload);
    assert_eq!(
        server
            .stats()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn high_priority_overtakes_queued_low() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();
    let cancel_a = match server.submit(frame(1, &slow), tx.clone()) {
        Submission::Enqueued { cancel } => cancel,
        Submission::Rejected { .. } => panic!("must enqueue"),
        Submission::Answered => panic!("not statically unsat, must enqueue"),
    };
    std::thread::sleep(Duration::from_millis(50));
    submit_ok(
        &server,
        SolveFrame {
            id: 2,
            timeout_ms: None,
            priority: Priority::Low,
            text: EASY_SAT.to_string(),
        },
        &tx,
    );
    submit_ok(
        &server,
        SolveFrame {
            id: 3,
            timeout_ms: None,
            priority: Priority::High,
            text: EASY_SAT.to_string(),
        },
        &tx,
    );
    cancel_a.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut order = Vec::new();
    for _ in 0..3 {
        match rx.recv().expect("response") {
            Response::Ok { id, .. } => order.push(id),
            Response::Err { id: Some(1), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(order, vec![3, 2], "high band dequeues before low");
    server.shutdown();
}

/// The heart of the caching story: a cached answer must be *identical*
/// to a fresh solve — same verdict, same model — and no request may
/// inherit another's answer.
#[test]
fn cache_tiers_preserve_verdicts_and_models() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();

    let solve = |id: u64, text: &str| -> Response {
        submit_ok(&server, frame(id, text), &tx);
        rx.recv().expect("response")
    };

    // Cold solve.
    let first = solve(1, EASY_SAT);
    let (verdict1, model1) = match &first {
        Response::Ok {
            verdict,
            cache,
            model,
            ..
        } => {
            assert_eq!(*cache, CacheTier::Cold);
            (*verdict, model.clone())
        }
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(verdict1, "sat");

    // Byte-identical resubmission: problem-cache hit, identical answer.
    match &solve(2, EASY_SAT) {
        Response::Ok {
            verdict,
            cache,
            model,
            ..
        } => {
            assert_eq!(*cache, CacheTier::Problem);
            assert_eq!(*verdict, verdict1);
            assert_eq!(*model, model1);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Same declarations, different clauses: a cold one-shot solve. It
    // and a fresh server must agree on the verdict.
    let variant =
        "p cnf 2 2\n-1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 3\nc range x -10 10\n";
    match &solve(3, variant) {
        Response::Ok { verdict, cache, .. } => {
            assert_eq!(*cache, CacheTier::Cold);
            assert_eq!(*verdict, "sat");
        }
        other => panic!("unexpected {other:?}"),
    }
    let fresh = Server::new(one_worker());
    let (ftx, frx) = mpsc::channel();
    submit_ok(&fresh, frame(9, variant), &ftx);
    match frx.recv().expect("response") {
        Response::Ok { verdict, .. } => assert_eq!(verdict, "sat"),
        other => panic!("unexpected {other:?}"),
    }
    fresh.shutdown();

    // An unsatisfiable variant over the same declarations must answer
    // unsat — i.e. not inherit any previous request's clauses or a stale
    // verdict. The contradiction is the classic width-2 Boolean square,
    // which unit propagation and the interval dataflow cannot refute (no
    // forced units), so it reaches the solve loop instead of the
    // static-analysis fast path (that path has its own test below).
    let unsat = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n\
                 c def real 1 x >= 1\nc def real 2 x <= 3\nc range x -10 10\n";
    match &solve(4, unsat) {
        Response::Ok { verdict, cache, .. } => {
            assert_eq!(*cache, CacheTier::Cold);
            assert_eq!(*verdict, "unsat");
        }
        other => panic!("unexpected {other:?}"),
    }

    assert_eq!(
        server
            .stats()
            .aborts
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    server.shutdown();
}

/// Resubmitting the slow problem must answer from the problem cache
/// (solve_us == 0 path) — the latency win the service exists for.
#[test]
fn resubmission_skips_the_solve() {
    let server = Server::new(one_worker());
    let (tx, rx) = mpsc::channel();
    let slow = slow_problem_text();

    submit_ok(&server, frame(1, &slow), &tx);
    let cold = rx.recv().expect("response");
    let cold_us = match &cold {
        Response::Ok { solve_us, .. } => *solve_us,
        other => panic!("unexpected {other:?}"),
    };

    submit_ok(&server, frame(2, &slow), &tx);
    match rx.recv().expect("response") {
        Response::Ok {
            cache, solve_us, ..
        } => {
            assert_eq!(cache, CacheTier::Problem);
            assert!(
                solve_us < cold_us / 2 || cold_us < 2,
                "cache hit ({solve_us}us) must be far cheaper than the cold solve ({cold_us}us)"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

/// Oversized problems are rejected by the limit gate, not solved.
#[test]
fn size_limits_reject_instead_of_solving() {
    let server = Server::new(ServerOptions {
        workers: 1,
        max_bool_vars: 4,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    submit_ok(&server, frame(1, "p cnf 9 1\n1 2 0\n"), &tx);
    match rx.recv().expect("response") {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::Limit),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

/// Statically-unsatisfiable bodies are answered with the distinct
/// `static-unsat` verdict: computed once on a worker (cold), then
/// answered at submission from the analysis cache — without ever
/// entering the solve loop, which the server's trace sink would see as a
/// `solve.start` event.
#[test]
fn statically_unsat_bodies_never_start_a_solve() {
    let sink = Arc::new(CollectingSink::new());
    let server = Server::with_trace(one_worker(), sink.clone() as Arc<dyn TraceSink>);
    let (tx, rx) = mpsc::channel();
    let unsat = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 0\n";
    let solve_starts = || {
        sink.kinds()
            .iter()
            .filter(|kind| *kind == "solve.start")
            .count()
    };

    submit_ok(&server, frame(1, unsat), &tx);
    match rx.recv().expect("response") {
        Response::Ok {
            verdict,
            cache,
            model,
            ..
        } => {
            assert_eq!(verdict, "static-unsat");
            assert_eq!(cache, CacheTier::Cold);
            assert!(model.is_empty(), "unsat answers carry no model");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Resubmission is answered at submission time from the analysis
    // cache — `Submission::Answered`, no worker involved.
    match server.submit(frame(2, unsat), tx.clone()) {
        Submission::Answered => {}
        other => panic!("expected an at-submission answer, got {other:?}"),
    }
    match rx.recv().expect("response") {
        Response::Ok {
            verdict,
            cache,
            solve_us,
            ..
        } => {
            assert_eq!(verdict, "static-unsat");
            assert_eq!(cache, CacheTier::Analysis);
            assert_eq!(solve_us, 0, "no solve happened");
        }
        other => panic!("unexpected {other:?}"),
    }

    let stats = server.stats_json();
    assert!(
        stats.contains("\"static_unsat\":2"),
        "both answers must be counted: {stats}"
    );
    assert_eq!(solve_starts(), 0, "no solve for either static-unsat answer");

    // A satisfiable body that misses both caches is exactly one solve.
    submit_ok(&server, frame(3, EASY_SAT), &tx);
    match rx.recv().expect("response") {
        Response::Ok { verdict, cache, .. } => {
            assert_eq!(verdict, "sat");
            assert_eq!(cache, CacheTier::Cold);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(solve_starts(), 1, "a cold sat body runs one solve");
    server.shutdown();
}
