//! Parallel solving on `std::thread`, and the shard driver that every
//! solve of more than one work item runs through.
//!
//! A *shard* takes work items from a queue and solves each with the
//! sequential [`Orchestrator`] control loop. The driver owns what the
//! shards of one run share: the queue (round-robin under
//! [`ParallelOptions::deterministic`], a shared counter otherwise), one
//! wall-clock deadline for the whole call, and the token that stops every
//! shard once one of them has a decisive result. Three paths use it, each
//! with its own reduction of the item verdicts:
//!
//! * **Portfolio** — `jobs` diversified solver stacks (Boolean backend ×
//!   nonlinear backend × decision-phase seed) each solve the whole
//!   problem; the first decisive verdict (Sat or Unsat) wins and cancels
//!   the rest. Sat and Unsat cannot disagree between shards, so the
//!   verdict is deterministic even when the winning shard is not.
//! * **Component shards** — a problem that splits into independent
//!   components ([`Partition`]) queues one item per component. A refuted
//!   component refutes the conjunction and cancels the rest; an undecided
//!   one leaves it undecided; otherwise the witnesses are stitched into
//!   one model.
//! * **The sequential component loop** of [`Orchestrator::solve`] is the
//!   one-shard case of the component path: it runs on the caller's
//!   orchestrator, on the caller's thread. Both entry points partition
//!   the same problem, at every job count.
//!
//! Spawned shards build their solver stacks inside their threads; only
//! the problem, the queue and the token are shared. Cancellation is
//! cooperative: the token is polled at the top of every Boolean
//! iteration, at every linear branch-and-bound node, and every few dozen
//! boxes/steps inside the nonlinear engines, so even a shard stuck deep
//! in a large nonlinear budget observes it within a bounded number of
//! iterations.

use crate::backends::{
    CascadeNonlinear, CdclBoolean, IntervalNonlinear, PenaltyNonlinear, RestartingBoolean,
    SimplexLinear,
};
use crate::orchestrator::{
    earliest, outcome_label, Orchestrator, OrchestratorOptions, OrchestratorStats, Outcome,
    SolveError,
};
use crate::problem::{AbModel, AbProblem};
use crate::structure::Partition;
use absolver_trace::{ShardSink, TraceEvent, TraceSink};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a [`Orchestrator::solve_parallel`] run.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of worker threads (shards). `0` is treated as `1`.
    pub jobs: usize,
    /// Deterministic mode: components are assigned round-robin by shard
    /// index instead of through a shared work queue, so each shard solves
    /// an input-determined component set regardless of scheduling.
    pub deterministic: bool,
    /// Control-loop options every shard starts from (the portfolio
    /// diversifies the *backends*, not these budgets). A `time_limit`
    /// here becomes one wall-clock deadline for the whole parallel call,
    /// shared by all shards and components.
    pub base: OrchestratorOptions,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: 2,
            deterministic: false,
            base: OrchestratorOptions::default(),
        }
    }
}

/// Aggregated statistics of a parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Independent connected components of the problem, as
    /// [`OrchestratorStats::components`] counts them for
    /// [`Orchestrator::solve`]: each solved as its own item, or 1 for a
    /// portfolio run, whose shards each solve the whole problem.
    pub components: usize,
    /// Each shard's control-loop statistics, folded over the items it
    /// solved with [`OrchestratorStats::accumulate`], in shard order.
    pub shards: Vec<OrchestratorStats>,
    /// How many items (the whole problem, or components) each shard
    /// solved, in shard order.
    pub items: Vec<usize>,
    /// Index of the shard that produced the winning verdict, if any
    /// shard won outright.
    pub winner: Option<usize>,
    /// Longest time any losing shard took to observe the cancellation
    /// token after it was raised.
    pub cancel_latency: Option<Duration>,
    /// Whether the run hit the wall-clock deadline.
    pub timed_out: bool,
    /// Wall-clock time of the whole parallel call.
    pub elapsed: Duration,
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iterations: u64 = self.shards.iter().map(|s| s.boolean_iterations).sum();
        write!(
            f,
            "jobs={} components={} iterations={} winner={} elapsed={:?}",
            self.jobs,
            self.components,
            iterations,
            match self.winner {
                Some(i) => i.to_string(),
                None => "-".to_string(),
            },
            self.elapsed,
        )?;
        if let Some(latency) = self.cancel_latency {
            write!(f, " cancel_latency={latency:?}")?;
        }
        Ok(())
    }
}

/// First-verdict bookkeeping shared by all shards.
struct WinnerBoard {
    cancel: Arc<AtomicBool>,
    state: Mutex<Option<(usize, Instant)>>,
}

impl WinnerBoard {
    fn new() -> WinnerBoard {
        WinnerBoard {
            cancel: Arc::new(AtomicBool::new(false)),
            state: Mutex::new(None),
        }
    }

    /// Claims the win for `shard` and raises the cancel token, unless
    /// another shard claimed it first.
    fn claim(&self, shard: usize) {
        let mut state = self.state.lock().expect("winner board poisoned");
        if state.is_none() {
            *state = Some((shard, Instant::now()));
            self.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// The winning shard and when it raised the token, if any did.
    fn claimed(&self) -> Option<(usize, Instant)> {
        *self.state.lock().expect("winner board poisoned")
    }
}

/// A work item: solves item `index` on a shard's orchestrator.
type Solve<'a> = dyn Fn(&mut Orchestrator, usize) -> Result<Outcome, SolveError> + Sync + 'a;

/// What one shard brought home: its statistics folded over the items it
/// solved, and each item's result.
#[derive(Default)]
struct ShardReport {
    stats: OrchestratorStats,
    /// How long after the token was raised the shard noticed, if it was
    /// cancelled.
    latency: Option<Duration>,
    results: Vec<(usize, Result<Outcome, SolveError>)>,
}

/// One run of the shard driver: `items` work items shared by `jobs`
/// shards.
struct Run<'a> {
    started: Instant,
    items: usize,
    jobs: usize,
    /// Shard `s` takes items `s`, `s + jobs`, …; otherwise shards take the
    /// next unclaimed item from `next`.
    pinned: bool,
    next: AtomicUsize,
    deadline: Option<Instant>,
    board: WinnerBoard,
    /// Whether an item's result settles the whole run.
    decisive: fn(&Result<Outcome, SolveError>) -> bool,
    solve: &'a Solve<'a>,
}

impl<'a> Run<'a> {
    fn new(
        items: usize,
        jobs: usize,
        pinned: bool,
        time_limit: Option<Duration>,
        decisive: fn(&Result<Outcome, SolveError>) -> bool,
        solve: &'a Solve<'a>,
    ) -> Run<'a> {
        let started = Instant::now();
        Run {
            started,
            items,
            jobs: jobs.max(1),
            pinned,
            next: AtomicUsize::new(0),
            deadline: time_limit.map(|limit| started + limit),
            board: WinnerBoard::new(),
            decisive,
            solve,
        }
    }

    /// The per-shard loop: solves items on `orc` until the queue is empty
    /// or an item is decisive, errs, is cancelled or runs out of time. A
    /// decisive item raises the token that stops the other shards.
    fn shard(&self, shard: usize, orc: &mut Orchestrator) -> ShardReport {
        let caller_deadline = orc.deadline;
        orc.set_deadline(earliest(caller_deadline, self.deadline));
        let mut report = ShardReport::default();
        let mut pinned_next = shard;
        loop {
            let item = if self.pinned {
                let item = pinned_next;
                pinned_next += self.jobs;
                item
            } else {
                self.next.fetch_add(1, Ordering::Relaxed)
            };
            if item >= self.items {
                break;
            }
            if self.board.cancel.load(Ordering::Relaxed) {
                report.stats.cancelled = true;
                break;
            }
            let result = (self.solve)(orc, item);
            let run = orc.stats();
            report.stats.accumulate(&run);
            let decisive = (self.decisive)(&result);
            if decisive {
                self.board.claim(shard);
            }
            let stop = decisive || result.is_err() || run.cancelled || run.timed_out;
            report.results.push((item, result));
            if stop {
                break;
            }
        }
        if report.stats.cancelled {
            report.latency = self.board.claimed().map(|(_, at)| at.elapsed());
        }
        orc.set_deadline(caller_deadline);
        report
    }

    /// Runs the shards on their own threads, shard `s` on the stack
    /// `build(s)` with `base` options, and returns their reports in shard
    /// order. Every event a shard emits is stamped with its index.
    fn spawn(
        &self,
        strategy: &str,
        build: fn(usize) -> Orchestrator,
        base: &OrchestratorOptions,
        sink: &Arc<dyn TraceSink>,
    ) -> Vec<ShardReport> {
        // The run's deadline replaces a per-item limit that would restart
        // on every item.
        let options = OrchestratorOptions {
            time_limit: None,
            ..base.clone()
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs)
                .map(|shard| {
                    let options = &options;
                    scope.spawn(move || {
                        let sink: Arc<dyn TraceSink> =
                            Arc::new(ShardSink::new(Arc::clone(sink), shard));
                        if sink.enabled() {
                            sink.emit(&TraceEvent::new("shard.start").field("strategy", strategy));
                        }
                        let started = Instant::now();
                        let mut orc = build(shard).with_options(options.clone());
                        orc.set_cancel_token(Some(Arc::clone(&self.board.cancel)));
                        orc.set_trace_sink(Arc::clone(&sink));
                        let report = self.shard(shard, &mut orc);
                        if sink.enabled() {
                            sink.emit(
                                &TraceEvent::new("shard.end")
                                    .field_u64("items", report.results.len() as u64)
                                    .field_u64("iterations", report.stats.boolean_iterations)
                                    .duration(started.elapsed()),
                            );
                        }
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a solver shard panicked"))
                .collect()
        })
    }

    fn stats(&self, reports: &[ShardReport], components: usize) -> ParallelStats {
        ParallelStats {
            jobs: self.jobs,
            components,
            shards: reports.iter().map(|r| r.stats).collect(),
            items: reports.iter().map(|r| r.results.len()).collect(),
            winner: self.board.claimed().map(|(shard, _)| shard),
            cancel_latency: reports.iter().filter_map(|r| r.latency).max(),
            timed_out: reports.iter().any(|r| r.stats.timed_out),
            elapsed: self.started.elapsed(),
        }
    }
}

/// Builds the solver stack of portfolio shard `index`. Shard 0 is the
/// exact sequential default stack, so a 1-job portfolio degenerates to
/// plain [`Orchestrator::solve`]; higher shards rotate the Boolean
/// backend, the nonlinear backend, and the decision-phase seed.
fn portfolio_shard(index: usize) -> Orchestrator {
    let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64);
    let orc = match index % 4 {
        0 => Orchestrator::custom(Box::new(CdclBoolean::new()))
            .with_nonlinear(Box::new(CascadeNonlinear::default())),
        1 => Orchestrator::custom(Box::new(CdclBoolean::with_phase_seed(seed)))
            .with_nonlinear(Box::new(IntervalNonlinear::default()))
            .with_nonlinear(Box::new(PenaltyNonlinear::default())),
        2 => Orchestrator::custom(Box::new(RestartingBoolean::new()))
            .with_nonlinear(Box::new(CascadeNonlinear::default())),
        _ => Orchestrator::custom(Box::new(CdclBoolean::with_phase_seed(seed)))
            .with_nonlinear(Box::new(CascadeNonlinear::default())),
    };
    orc.with_linear(Box::new(SimplexLinear::new()))
}

/// Builds a component shard: the default stack, with decision phases
/// scrambled past shard 0.
fn component_shard(index: usize) -> Orchestrator {
    let boolean = if index == 0 {
        CdclBoolean::new()
    } else {
        CdclBoolean::with_phase_seed(0xD1B5_4A32_D192_ED03u64.wrapping_mul(index as u64))
    };
    Orchestrator::custom(Box::new(boolean))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(CascadeNonlinear::default()))
}

/// A Sat or Unsat verdict on the whole problem settles a portfolio run.
fn decides(result: &Result<Outcome, SolveError>) -> bool {
    matches!(result, Ok(Outcome::Sat(_) | Outcome::Unsat))
}

/// A refuted component refutes the conjunction.
fn refutes(result: &Result<Outcome, SolveError>) -> bool {
    matches!(result, Ok(Outcome::Unsat))
}

/// Solves component `idx` of `problem`, traced as one
/// `component.start`/`component.end` pair.
fn component_item<'a>(
    problem: &'a AbProblem,
    partition: &'a Partition,
) -> impl Fn(&mut Orchestrator, usize) -> Result<Outcome, SolveError> + Sync + 'a {
    move |orc: &mut Orchestrator, idx: usize| {
        orc.trace(|| {
            TraceEvent::new("component.start")
                .field_u64("component", idx as u64)
                .field_u64("size", partition.components()[idx].size() as u64)
        });
        let started = Instant::now();
        // Extraction re-interns the component's constraints: the
        // component's solve counts that interning as its own.
        let term0 = absolver_nonlinear::term::local_counters();
        let sub = partition.extract(problem, idx);
        let result = orc.solve_loop(&sub, term0);
        orc.trace(|| {
            TraceEvent::new("component.end")
                .field_u64("component", idx as u64)
                .field("outcome", outcome_label(&result))
                .duration(started.elapsed())
        });
        result
    }
}

/// The portfolio's reduction, in shard order: any Sat or Unsat is the
/// answer (every shard solved the same problem); an iteration-limit error
/// outranks Unknown, so the caller sees that a budget, not solver
/// incompleteness, was the blocker.
fn reduce_portfolio(reports: Vec<ShardReport>) -> Result<Outcome, SolveError> {
    let rank = |result: &Result<Outcome, SolveError>| match result {
        Ok(Outcome::Sat(_)) => 0,
        Ok(Outcome::Unsat) => 1,
        Err(_) => 2,
        Ok(Outcome::Unknown) => 3,
    };
    reports
        .into_iter()
        .flat_map(|r| r.results)
        .map(|(_, result)| result)
        .min_by_key(rank)
        .unwrap_or(Ok(Outcome::Unknown))
}

/// The components' reduction: one refuted component refutes the
/// conjunction; then the first error in shard order; an undecided or
/// unsolved component leaves it undecided; otherwise the witnesses are
/// stitched into one model.
fn reduce_components(
    partition: &Partition,
    reports: Vec<ShardReport>,
) -> Result<Outcome, SolveError> {
    let mut models: Vec<Option<AbModel>> = (0..partition.len()).map(|_| None).collect();
    let mut error = None;
    for (idx, result) in reports.into_iter().flat_map(|r| r.results) {
        match result {
            Ok(Outcome::Sat(model)) => models[idx] = Some(*model),
            Ok(Outcome::Unsat) => return Ok(Outcome::Unsat),
            Ok(Outcome::Unknown) => {}
            Err(e) => {
                error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }
    let models: Option<Vec<AbModel>> = models.into_iter().collect();
    Ok(models.map_or(Outcome::Unknown, |models| {
        Outcome::Sat(Box::new(partition.stitch(&models)))
    }))
}

/// The sequential component loop of [`Orchestrator::solve`]: one shard,
/// on `orc` and the caller's thread, solves the components of `problem`
/// in order. Leaves the statistics of every component solve, folded, in
/// `orc`'s stats; the caller stamps the call's own `elapsed`.
pub(crate) fn component_loop(
    orc: &mut Orchestrator,
    problem: &AbProblem,
    partition: &Partition,
) -> Result<Outcome, SolveError> {
    let solve = component_item(problem, partition);
    let run = Run::new(
        partition.len(),
        1,
        true,
        orc.options.time_limit,
        refutes,
        &solve,
    );
    let report = run.shard(0, orc);
    orc.stats = report.stats;
    reduce_components(partition, vec![report])
}

impl Orchestrator {
    /// Solves an AB-problem with `jobs` worker threads. A problem that
    /// splits into independent components gets one queued item per
    /// component, at every job count; any other problem runs the
    /// portfolio, one whole-problem item per shard. The receiver's own
    /// backends are not used — shards build their stacks from
    /// [`ParallelOptions::base`], shard 0's the default one, so one job
    /// replays [`Orchestrator::solve`] on the same problem.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::IterationLimit`] if a shard exceeds the
    /// iteration cap and no shard found a definitive verdict.
    pub fn solve_parallel(
        &mut self,
        problem: &AbProblem,
        options: &ParallelOptions,
    ) -> Result<(Outcome, ParallelStats), SolveError> {
        let sink = self.trace_sink();
        let partition = Partition::of(problem);
        self.trace_partition(&partition);
        if !partition.is_trivial() {
            let solve = component_item(problem, &partition);
            let run = Run::new(
                partition.len(),
                options.jobs.min(partition.len()),
                options.deterministic,
                options.base.time_limit,
                refutes,
                &solve,
            );
            let reports = run.spawn("components", component_shard, &options.base, &sink);
            let stats = run.stats(&reports, partition.len());
            return reduce_components(&partition, reports).map(|o| (o, stats));
        }
        // One whole-problem item per shard, pinned so that each shard
        // solves it on its own stack.
        let jobs = options.jobs.max(1);
        let solve = |orc: &mut Orchestrator, _: usize| {
            orc.solve_loop(problem, absolver_nonlinear::term::local_counters())
        };
        let run = Run::new(jobs, jobs, true, options.base.time_limit, decides, &solve);
        let reports = run.spawn("portfolio", portfolio_shard, &options.base, &sink);
        let stats = run.stats(&reports, 1);
        reduce_portfolio(reports).map(|o| (o, stats))
    }
}
