//! The resident solve server: a bounded worker pool over a priority
//! queue, with per-request deadlines, cooperative cancellation, and the
//! two caches from [`crate::cache`]. A request that misses both is
//! answered by one [`Orchestrator::solve`] call, the CLI's entry point.
//!
//! Workers never abort the process: each request is handled under
//! `catch_unwind`, so a panic becomes an `internal` error response plus
//! an `aborts` counter tick (the request's orchestrator dies with it).

use crate::cache::{problem_key, FifoCache};
use crate::protocol::{CacheTier, ErrCode, Response, SolveFrame};
use crate::queue::JobQueue;
use absolver_analyze::{dataflow, DataflowVerdict};
use absolver_core::{AbProblem, Orchestrator, Outcome, SolveError};
use absolver_trace::{saturating_micros, JsonObject, NullSink, TraceEvent, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads solving requests (min 1).
    pub workers: usize,
    /// Queue capacity; a full queue rejects with `overload` + retry hint.
    pub queue_capacity: usize,
    /// Deadline applied to requests that carry no `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Reject problems with more Boolean variables than this.
    pub max_bool_vars: usize,
    /// Reject problems with more clauses than this.
    pub max_clauses: usize,
    /// Reject problems with more arithmetic variables than this.
    pub max_arith_vars: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            max_bool_vars: 100_000,
            max_clauses: 500_000,
            max_arith_vars: 10_000,
        }
    }
}

/// Entries kept by each of the problem and static-analysis caches (FIFO).
const PROBLEM_CACHE_CAPACITY: usize = 256;

/// Monotone server counters, updated lock-free by workers and the
/// submission path.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Solve requests accepted (queued, or answered at submission from
    /// the static-analysis cache).
    pub received: AtomicU64,
    /// Requests answered with a verdict.
    pub completed: AtomicU64,
    /// Requests answered with an error (all codes).
    pub failed: AtomicU64,
    /// Requests rejected at the queue (backpressure).
    pub rejected: AtomicU64,
    /// Requests whose deadline expired while still queued.
    pub expired: AtomicU64,
    /// Requests cancelled by the client.
    pub cancelled: AtomicU64,
    /// Worker panics contained by `catch_unwind`.
    pub aborts: AtomicU64,
    /// Problem-cache hits (verdict + model reused).
    pub problem_hits: AtomicU64,
    /// Problem-cache misses.
    pub problem_misses: AtomicU64,
    /// Requests answered `static-unsat` by the interval-dataflow
    /// analysis — computed fresh on a worker or replayed from the
    /// analysis cache at submission — without entering the solve loop.
    pub static_unsat: AtomicU64,
    /// Term-intern requests answered by the global arena (structural
    /// duplicates collapsed to an id copy) summed over answered solves.
    pub term_dedup_hits: AtomicU64,
    /// Total queue-wait time across answered requests.
    pub wait_us_total: AtomicU64,
    /// Total solve time across answered requests.
    pub solve_us_total: AtomicU64,
    /// Exponentially-weighted moving average of solve time, for the
    /// `retry_after` hint.
    pub ewma_solve_us: AtomicU64,
}

impl ServerStats {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_solve(&self, solve_us: u64) {
        self.solve_us_total.fetch_add(solve_us, Ordering::Relaxed);
        // EWMA with alpha = 1/8; a stale read under contention only
        // nudges the retry hint, so relaxed read-modify-write is fine.
        let old = self.ewma_solve_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            solve_us
        } else {
            old - old / 8 + solve_us / 8
        };
        self.ewma_solve_us.store(new, Ordering::Relaxed);
    }

    /// Serialises the counters as one JSON object (the `stats` response
    /// payload).
    pub fn to_json(&self, queue_depth: usize) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut obj = JsonObject::new();
        obj.field_u64("received", get(&self.received))
            .field_u64("completed", get(&self.completed))
            .field_u64("failed", get(&self.failed))
            .field_u64("rejected", get(&self.rejected))
            .field_u64("expired", get(&self.expired))
            .field_u64("cancelled", get(&self.cancelled))
            .field_u64("aborts", get(&self.aborts))
            .field_u64("problem_hits", get(&self.problem_hits))
            .field_u64("problem_misses", get(&self.problem_misses))
            .field_u64("static_unsat", get(&self.static_unsat))
            .field_u64("term_dedup_hits", get(&self.term_dedup_hits))
            .field_u64("wait_us_total", get(&self.wait_us_total))
            .field_u64("solve_us_total", get(&self.solve_us_total))
            .field_u64("ewma_solve_us", get(&self.ewma_solve_us))
            .field_u64("queue_depth", queue_depth as u64);
        obj.finish()
    }
}

/// One queued solve job. The body is parsed on the submission path (the
/// parse result is needed there for the static-analysis fast path), so
/// the job carries the parsed problem — or the parse error the worker
/// turns into a `parse` response — rather than the raw text.
struct Job {
    id: u64,
    problem: Result<Box<AbProblem>, String>,
    /// Term-intern dedup hits observed while parsing on the submission
    /// thread (the intern counters are thread-local, so the worker
    /// cannot read them after the fact).
    parse_dedup: u64,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
}

/// The two caches, coordinated under one lock (taken briefly before and
/// after a solve, never across one).
struct Caches {
    /// Verdict and model of each problem solved to `sat` or `unsat`.
    problems: FifoCache<Outcome>,
    /// Whether the interval-dataflow fixpoint refuted each problem.
    analysis: FifoCache<bool>,
}

struct Shared {
    options: ServerOptions,
    queue: JobQueue<Job>,
    caches: Mutex<Caches>,
    stats: ServerStats,
    sink: Arc<dyn TraceSink>,
}

fn lock_caches(shared: &Shared) -> MutexGuard<'_, Caches> {
    match shared.caches.lock() {
        Ok(g) => g,
        // A worker panicking with the lock held leaves value-consistent
        // caches (each mutation completes atomically under the lock), so
        // recover rather than wedge the daemon.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Result of submitting a solve request.
#[derive(Debug)]
pub enum Submission {
    /// Queued; hold the token to support `cancel`.
    Enqueued {
        /// Cooperative cancellation token for this request.
        cancel: Arc<AtomicBool>,
    },
    /// Answered at submission from the static-analysis cache: the
    /// `static-unsat` response was already sent on the reply channel and
    /// no worker was occupied.
    Answered,
    /// Rejected by backpressure; the `overload` response (with this
    /// retry hint) was already sent on the reply channel.
    Rejected {
        /// Suggested client retry delay.
        retry_after_ms: u64,
    },
}

/// Stack size of every thread that parses or solves a problem: the main
/// thread's 8 MiB, so the daemon answers what the CLI answers. The
/// expression walks recurse once per nesting level and a sum nests one
/// level per term, so a default 2 MiB thread aborts the whole process on
/// a sum of a few thousand terms (a few hundred in a debug build).
const THREAD_STACK_BYTES: usize = 8 << 20;

/// Spawns a thread with an 8 MiB stack, as much as a main thread gets,
/// for the daemon's threads that parse or solve problems.
///
/// # Panics
///
/// If the operating system cannot create the thread, as
/// [`std::thread::spawn`] does.
pub fn spawn_with_stack<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .stack_size(THREAD_STACK_BYTES)
        .spawn(f)
        .expect("failed to spawn thread")
}

/// The resident solve service. Construction spawns the worker pool;
/// [`Server::shutdown`] drains and joins it.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server(workers={})", self.shared.options.workers)
    }
}

impl Server {
    /// Spawns a server with the given options and no tracing.
    pub fn new(options: ServerOptions) -> Server {
        Server::with_trace(options, Arc::new(NullSink))
    }

    /// Spawns a server emitting `request.*`/`queue.*`/`cache.*` events,
    /// and the solve events of every cache miss, through `sink`.
    pub fn with_trace(options: ServerOptions, sink: Arc<dyn TraceSink>) -> Server {
        let shared = Arc::new(Shared {
            queue: JobQueue::new(options.queue_capacity),
            caches: Mutex::new(Caches {
                problems: FifoCache::new(PROBLEM_CACHE_CAPACITY),
                analysis: FifoCache::new(PROBLEM_CACHE_CAPACITY),
            }),
            stats: ServerStats::default(),
            sink,
            options,
        });
        let workers = (0..shared.options.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                spawn_with_stack(move || worker_loop(&shared))
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Statistics JSON (the `stats` response payload).
    pub fn stats_json(&self) -> String {
        self.shared.stats.to_json(self.shared.queue.len())
    }

    /// Submits a solve request. Responses (including the backpressure
    /// rejection) arrive on `reply`.
    pub fn submit(&self, frame: SolveFrame, reply: mpsc::Sender<Response>) -> Submission {
        let shared = &self.shared;
        let stats = &shared.stats;
        trace(shared, || {
            TraceEvent::new("request.received")
                .field_u64("id", frame.id)
                .field("priority", frame.priority.as_str())
                .field_u64("bytes", frame.text.len() as u64)
        });
        // Parse here rather than on a worker: the static-analysis fast
        // path below needs the problem key, and a cache hit then answers
        // without occupying a worker at all. A failed parse still rides
        // the queue so the `parse` error response stays asynchronous.
        let term0 = absolver_nonlinear::term::local_counters();
        let problem: Result<Box<AbProblem>, String> = frame
            .text
            .parse::<AbProblem>()
            .map(Box::new)
            .map_err(|e| e.to_string());
        let (_, dedup1) = absolver_nonlinear::term::local_counters();
        let parse_dedup = dedup1.saturating_sub(term0.1);
        if let Ok(problem) = &problem {
            let key = problem_key(problem);
            if lock_caches(shared).analysis.get(&key) == Some(&true) {
                stats.bump(&stats.received);
                stats.bump(&stats.completed);
                stats.bump(&stats.static_unsat);
                stats
                    .term_dedup_hits
                    .fetch_add(parse_dedup, Ordering::Relaxed);
                trace(shared, || {
                    TraceEvent::new("cache.analysis_hit").field_u64("id", frame.id)
                });
                trace(shared, || {
                    TraceEvent::new("request.done")
                        .field_u64("id", frame.id)
                        .field("verdict", "static-unsat")
                        .field("cache", CacheTier::Analysis.as_str())
                        .field_u64("wait_us", 0)
                        .duration_us(0)
                });
                let _ = reply.send(Response::Ok {
                    id: frame.id,
                    verdict: "static-unsat",
                    cache: CacheTier::Analysis,
                    wait_us: 0,
                    solve_us: 0,
                    model: Vec::new(),
                });
                return Submission::Answered;
            }
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let deadline = frame
            .timeout_ms
            .map(Duration::from_millis)
            .or(shared.options.default_timeout)
            .map(|d| Instant::now() + d);
        let job = Job {
            id: frame.id,
            problem,
            parse_dedup,
            deadline,
            cancel: cancel.clone(),
            reply,
            enqueued: Instant::now(),
        };
        match shared.queue.try_push(frame.priority, job) {
            Ok(depth) => {
                stats.bump(&stats.received);
                trace(shared, || {
                    TraceEvent::new("queue.enqueue")
                        .field_u64("id", frame.id)
                        .field_u64("depth", depth as u64)
                });
                Submission::Enqueued { cancel }
            }
            Err(job) => {
                stats.bump(&stats.rejected);
                let retry_after_ms = retry_hint(shared);
                trace(shared, || {
                    TraceEvent::new("queue.reject")
                        .field_u64("id", frame.id)
                        .field_u64("retry_after_ms", retry_after_ms)
                });
                let _ = job.reply.send(Response::Err {
                    id: Some(frame.id),
                    code: ErrCode::Overload,
                    retry_after_ms: Some(retry_after_ms),
                    message: "queue full".to_string(),
                });
                Submission::Rejected { retry_after_ms }
            }
        }
    }

    /// Closes the queue, drains pending jobs, and joins the workers.
    /// Idempotent; later calls return immediately.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let workers = match self.workers.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

fn trace(shared: &Shared, build: impl FnOnce() -> TraceEvent) {
    if shared.sink.enabled() {
        shared.sink.emit(&build());
    }
}

/// Suggested retry delay when rejecting: roughly the time for the
/// current queue to drain through the worker pool, clamped to
/// `[10ms, 10s]`.
fn retry_hint(shared: &Shared) -> u64 {
    let ewma_us = shared
        .stats
        .ewma_solve_us
        .load(Ordering::Relaxed)
        .max(1_000);
    let depth = shared.queue.len().max(1) as u64;
    let workers = shared.options.workers.max(1) as u64;
    (ewma_us * depth / workers / 1_000).clamp(10, 10_000)
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let stats = &shared.stats;
        let wait_us = saturating_micros(job.enqueued.elapsed());
        stats.wait_us_total.fetch_add(wait_us, Ordering::Relaxed);
        if job.cancel.load(Ordering::Relaxed) {
            stats.bump(&stats.cancelled);
            stats.bump(&stats.failed);
            respond_failed(shared, &job, ErrCode::Cancelled, "cancelled while queued");
            continue;
        }
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                stats.bump(&stats.expired);
                stats.bump(&stats.failed);
                trace(shared, || {
                    TraceEvent::new("queue.expired")
                        .field_u64("id", job.id)
                        .field_u64("wait_us", wait_us)
                });
                respond_failed(
                    shared,
                    &job,
                    ErrCode::Deadline,
                    "deadline expired before the solve started",
                );
                continue;
            }
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(shared, &job)));
        let solve_us = saturating_micros(started.elapsed());
        match outcome {
            Ok(response) => {
                let failed = matches!(response, Response::Err { .. });
                if failed {
                    stats.bump(&stats.failed);
                } else {
                    stats.bump(&stats.completed);
                    stats.observe_solve(solve_us);
                }
                finish(shared, &job, response, wait_us, solve_us);
            }
            Err(_) => {
                stats.bump(&stats.aborts);
                stats.bump(&stats.failed);
                let response = Response::Err {
                    id: Some(job.id),
                    code: ErrCode::Internal,
                    retry_after_ms: None,
                    message: "worker panicked on this request".to_string(),
                };
                finish(shared, &job, response, wait_us, solve_us);
            }
        }
    }
}

/// Stamps the timing fields into an `Ok` response, emits the completion
/// trace event, and sends it.
fn finish(shared: &Shared, job: &Job, mut response: Response, wait_us: u64, solve_us: u64) {
    if let Response::Ok {
        wait_us: w,
        solve_us: s,
        verdict,
        cache,
        ..
    } = &mut response
    {
        *w = wait_us;
        *s = solve_us;
        let (verdict, cache) = (*verdict, *cache);
        trace(shared, || {
            TraceEvent::new("request.done")
                .field_u64("id", job.id)
                .field("verdict", verdict)
                .field("cache", cache.as_str())
                .field_u64("wait_us", wait_us)
                .duration_us(solve_us)
        });
    } else if let Response::Err { code, .. } = &response {
        let code = *code;
        trace(shared, || {
            TraceEvent::new("request.failed")
                .field_u64("id", job.id)
                .field("code", code.as_str())
        });
    }
    let _ = job.reply.send(response);
}

fn respond_failed(shared: &Shared, job: &Job, code: ErrCode, message: &str) {
    trace(shared, || {
        TraceEvent::new("request.failed")
            .field_u64("id", job.id)
            .field("code", code.as_str())
    });
    let _ = job.reply.send(Response::Err {
        id: Some(job.id),
        code,
        retry_after_ms: None,
        message: message.to_string(),
    });
}

/// Parses, caches, and solves one request. Returns the response with
/// timing fields left at zero (the worker loop stamps them).
fn handle_request(shared: &Shared, job: &Job) -> Response {
    let stats = &shared.stats;
    let problem: &AbProblem = match &job.problem {
        Ok(p) => p,
        Err(message) => {
            return Response::Err {
                id: Some(job.id),
                code: ErrCode::Parse,
                retry_after_ms: None,
                message: message.clone(),
            };
        }
    };
    // The parse happened on the submission thread; its term-dedup hits
    // ride along in the job (the intern counters are thread-local). The
    // window opened here covers only this worker's solve.
    stats
        .term_dedup_hits
        .fetch_add(job.parse_dedup, Ordering::Relaxed);
    let term0 = absolver_nonlinear::term::local_counters();
    let opts = &shared.options;
    if problem.cnf().num_vars() > opts.max_bool_vars
        || problem.cnf().len() > opts.max_clauses
        || problem.arith_vars().len() > opts.max_arith_vars
    {
        return Response::Err {
            id: Some(job.id),
            code: ErrCode::Limit,
            retry_after_ms: None,
            message: format!(
                "problem exceeds limits (vars {} clauses {} arith {})",
                opts.max_bool_vars, opts.max_clauses, opts.max_arith_vars
            ),
        };
    }

    // Layer 1: structurally identical problem already answered. The key
    // is built from interned constraint ids — O(1) per constraint, no
    // expression rendering.
    let canonical = problem_key(problem);
    if let Some(outcome) = lock_caches(shared).problems.get(&canonical).cloned() {
        stats.bump(&stats.problem_hits);
        trace(shared, || {
            TraceEvent::new("cache.problem_hit").field_u64("id", job.id)
        });
        return ok_response(job.id, problem, &outcome, CacheTier::Problem);
    }
    stats.bump(&stats.problem_misses);
    trace(shared, || {
        TraceEvent::new("cache.problem_miss").field_u64("id", job.id)
    });

    // Layer 2: the interval-dataflow fixpoint refutes statically
    // unsatisfiable bodies without entering the solve loop. The verdict
    // is cached per problem key (both polarities, so resubmissions skip
    // the analysis; a cached `true` answers at submission without
    // reaching a worker at all).
    // (Bind the cache lookup first: a guard inside the match scrutinee
    // would live across the arms and deadlock against the insert below.)
    let cached_analysis = lock_caches(shared).analysis.get(&canonical).copied();
    let statically_unsat = match cached_analysis {
        Some(cached) => cached,
        None => {
            let df = dataflow(problem, ANALYSIS_ROUNDS);
            let unsat = !matches!(df.verdict, DataflowVerdict::Converged);
            lock_caches(shared)
                .analysis
                .insert(canonical.clone(), unsat);
            trace(shared, || {
                TraceEvent::new("cache.analysis_computed")
                    .field_u64("id", job.id)
                    .field_u64("rounds", df.rounds)
                    .field("static_unsat", if unsat { "true" } else { "false" })
            });
            unsat
        }
    };
    if statically_unsat {
        stats.bump(&stats.static_unsat);
        trace(shared, || {
            TraceEvent::new("request.static_unsat").field_u64("id", job.id)
        });
        return Response::Ok {
            id: job.id,
            verdict: "static-unsat",
            cache: CacheTier::Cold,
            wait_us: 0,
            solve_us: 0,
            model: Vec::new(),
        };
    }

    // A miss on both caches is one `Orchestrator::solve`, the CLI's entry
    // point, with the default backends and no preprocessor. It carries
    // the request's deadline and cancel token and the server's trace sink.
    let mut orc = Orchestrator::with_defaults()
        .with_cancel_token(job.cancel.clone())
        .with_trace_sink(Arc::clone(&shared.sink));
    orc.set_deadline(job.deadline);
    let result = orc.solve(problem);
    let solve_stats = orc.stats();
    // Request-window dedup delta on this worker thread (the parse delta
    // was added from `job.parse_dedup` above); the solve's own
    // `term_dedup_hits` covers a sub-window, so it is not added again.
    let (_, dedup1) = absolver_nonlinear::term::local_counters();
    stats
        .term_dedup_hits
        .fetch_add(dedup1.saturating_sub(term0.1), Ordering::Relaxed);
    match result {
        Ok(_) if solve_stats.cancelled => {
            stats.bump(&stats.cancelled);
            Response::Err {
                id: Some(job.id),
                code: ErrCode::Cancelled,
                retry_after_ms: None,
                message: "cancelled mid-solve".to_string(),
            }
        }
        Ok(_) if solve_stats.timed_out => Response::Err {
            id: Some(job.id),
            code: ErrCode::Deadline,
            retry_after_ms: None,
            message: "deadline expired mid-solve".to_string(),
        },
        Ok(outcome) => {
            let response = ok_response(job.id, problem, &outcome, CacheTier::Cold);
            // `Unknown` reflects a budget, not a fact: a resubmission
            // solves again, and a fresh budget may well decide it.
            if !matches!(outcome, Outcome::Unknown) {
                lock_caches(shared).problems.insert(canonical, outcome);
            }
            response
        }
        Err(SolveError::IterationLimit(n)) => Response::Err {
            id: Some(job.id),
            code: ErrCode::Limit,
            retry_after_ms: None,
            message: format!("control loop exceeded {n} Boolean iterations"),
        },
    }
}

/// Sweep bound for the interval-dataflow analysis of a request body —
/// the same bound `absolver check` uses, so the daemon and the linter
/// agree on what is statically unsatisfiable.
const ANALYSIS_ROUNDS: usize = 16;

/// Cap on `model` pairs inlined into an `ok` line.
const MAX_MODEL_VARS: usize = 64;

fn ok_response(id: u64, problem: &AbProblem, outcome: &Outcome, cache: CacheTier) -> Response {
    let (verdict, model) = match outcome {
        Outcome::Sat(m) => {
            let vars = problem.arith_vars();
            let model = if vars.len() <= MAX_MODEL_VARS {
                vars.iter()
                    .enumerate()
                    .map(|(vid, var)| {
                        let value = match m.arith.value_exact(vid) {
                            Some(exact) => exact.to_string(),
                            None => m.arith.value_f64(vid).unwrap_or(f64::NAN).to_string(),
                        };
                        (var.name.clone(), value)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            ("sat", model)
        }
        Outcome::Unsat => ("unsat", Vec::new()),
        Outcome::Unknown => ("unknown", Vec::new()),
    };
    Response::Ok {
        id,
        verdict,
        cache,
        wait_us: 0,
        solve_us: 0,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Priority;

    fn serve_one(server: &Server, frame: SolveFrame) -> Vec<Response> {
        let (tx, rx) = mpsc::channel();
        match server.submit(frame, tx) {
            Submission::Enqueued { .. } => {}
            Submission::Rejected { .. } | Submission::Answered => {
                return vec![rx.recv().expect("immediate response")];
            }
        }
        vec![rx.recv().expect("response")]
    }

    const LINEAR_SAT: &str =
        "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 3\nc range x -10 10\n";

    #[test]
    fn solves_and_caches_identical_problems() {
        let server = Server::new(ServerOptions {
            workers: 1,
            ..Default::default()
        });
        let first = serve_one(
            &server,
            SolveFrame {
                id: 1,
                timeout_ms: None,
                priority: Priority::Normal,
                text: LINEAR_SAT.to_string(),
            },
        );
        match &first[0] {
            Response::Ok { verdict, cache, .. } => {
                assert_eq!(*verdict, "sat");
                assert_eq!(*cache, CacheTier::Cold);
            }
            other => panic!("unexpected {other:?}"),
        }
        let second = serve_one(
            &server,
            SolveFrame {
                id: 2,
                timeout_ms: None,
                priority: Priority::Normal,
                text: LINEAR_SAT.to_string(),
            },
        );
        match &second[0] {
            Response::Ok { verdict, cache, .. } => {
                assert_eq!(*verdict, "sat");
                assert_eq!(*cache, CacheTier::Problem);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().problem_hits.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    /// `(x − y)² < −0.5`: neither pass refutes it, so it answers
    /// `unknown`.
    const UNKNOWN: &str = "p cnf 1 1\n1 0\nc def real 1 x * x - 2 * x * y + y * y < -0.5\n\
        c range x -10 10\nc range y -10 10\n";

    #[test]
    fn unknown_verdicts_are_not_cached() {
        let server = Server::new(ServerOptions {
            workers: 1,
            ..Default::default()
        });
        for id in 1..=2 {
            let response = serve_one(
                &server,
                SolveFrame {
                    id,
                    timeout_ms: None,
                    priority: Priority::Normal,
                    text: UNKNOWN.to_string(),
                },
            );
            match &response[0] {
                Response::Ok { verdict, cache, .. } => {
                    assert_eq!(*verdict, "unknown");
                    assert_eq!(*cache, CacheTier::Cold, "request {id} is solved");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(server.stats().problem_hits.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    const STATIC_UNSAT: &str = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 0\n";

    #[test]
    fn statically_unsat_bodies_skip_the_solve_and_cache_the_analysis() {
        let server = Server::new(ServerOptions {
            workers: 1,
            ..Default::default()
        });
        let first = serve_one(
            &server,
            SolveFrame {
                id: 1,
                timeout_ms: None,
                priority: Priority::Normal,
                text: STATIC_UNSAT.to_string(),
            },
        );
        match &first[0] {
            Response::Ok { verdict, cache, .. } => {
                assert_eq!(*verdict, "static-unsat");
                assert_eq!(
                    *cache,
                    CacheTier::Cold,
                    "first encounter computes on a worker"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.static_unsat.load(Ordering::Relaxed), 1);
        // A resubmission answers at submission from the analysis cache,
        // without occupying a worker.
        let (tx, rx) = mpsc::channel();
        let submission = server.submit(
            SolveFrame {
                id: 2,
                timeout_ms: None,
                priority: Priority::Normal,
                text: STATIC_UNSAT.to_string(),
            },
            tx,
        );
        assert!(matches!(submission, Submission::Answered));
        match rx.recv().expect("immediate response") {
            Response::Ok { verdict, cache, .. } => {
                assert_eq!(verdict, "static-unsat");
                assert_eq!(cache, CacheTier::Analysis);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.static_unsat.load(Ordering::Relaxed), 2);
        assert!(server.stats_json().contains("\"static_unsat\":2"));
        server.shutdown();
    }

    #[test]
    fn parse_errors_are_responses_not_panics() {
        let server = Server::new(ServerOptions {
            workers: 1,
            ..Default::default()
        });
        let responses = serve_one(
            &server,
            SolveFrame {
                id: 9,
                timeout_ms: None,
                priority: Priority::Normal,
                text: "p cnf nope\n".to_string(),
            },
        );
        match &responses[0] {
            Response::Err { code, .. } => assert_eq!(*code, ErrCode::Parse),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().aborts.load(Ordering::Relaxed), 0);
        server.shutdown();
    }
}
