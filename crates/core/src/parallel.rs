//! Parallel solving on `std::thread`, and the shard driver that every
//! solve of more than one work item runs through.
//!
//! A *shard* takes work items from a queue and solves each with the
//! sequential [`Orchestrator`] control loop. The driver owns what the
//! shards of one run share: the queue (round-robin under
//! [`OrchestratorOptions::deterministic`], a shared counter otherwise),
//! one wall-clock deadline for the whole call, and the token that stops
//! every shard once one of them has a decisive result. [`Orchestrator::solve`]
//! runs through it whenever the call has more than one item, with one of
//! two reductions of the item verdicts:
//!
//! * **Component shards** — a problem that splits into independent
//!   components ([`Partition`]) queues one item per component. A refuted
//!   component refutes the conjunction and cancels the rest; an undecided
//!   one leaves it undecided; otherwise the witnesses are stitched into
//!   one model. At [`OrchestratorOptions::jobs`] 1 this is the sequential
//!   component loop: one shard, on the caller's orchestrator and thread.
//! * **Portfolio** — a problem that does not split, at `jobs` ≥ 2: `jobs`
//!   diversified solver stacks (Boolean backend × nonlinear backend ×
//!   decision-phase seed) each solve the whole problem; the first
//!   decisive verdict (Sat or Unsat) wins and cancels the rest. Sat and
//!   Unsat cannot disagree between shards, so the verdict is
//!   deterministic even when the winning shard is not.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the calling thread of a spawned run polls the caller's own
/// cancellation token, which the shards do not see.
const CALLER_POLL: Duration = Duration::from_millis(1);

/// A work item: solves item `index` on a shard's orchestrator.
type Solve<'a> = dyn Fn(&mut Orchestrator, usize) -> Result<Outcome, SolveError> + Sync + 'a;

/// What one shard brought home: its statistics folded over the items it
/// solved, and each item's result.
#[derive(Default)]
struct ShardReport {
    stats: OrchestratorStats,
    results: Vec<(usize, Result<Outcome, SolveError>)>,
}

/// One run of the shard driver: `items` work items shared by `jobs`
/// shards.
struct Run<'a> {
    items: usize,
    jobs: usize,
    /// Shard `s` takes items `s`, `s + jobs`, …; otherwise shards take the
    /// next unclaimed item from `next`.
    pinned: bool,
    next: AtomicUsize,
    deadline: Option<Instant>,
    /// Raised by the first decisive item, or for the caller's own token:
    /// stops every shard.
    cancel: Arc<AtomicBool>,
    /// Whether an item's result settles the whole run.
    decisive: fn(&Result<Outcome, SolveError>) -> bool,
    solve: &'a Solve<'a>,
}

impl<'a> Run<'a> {
    /// A run of `items` items on `jobs` shards, pinned or from the shared
    /// queue, for the call of `orc`, under one deadline: the earlier of
    /// `orc`'s `time_limit` from now and its installed deadline.
    fn new(
        orc: &Orchestrator,
        items: usize,
        jobs: usize,
        pinned: bool,
        decisive: fn(&Result<Outcome, SolveError>) -> bool,
        solve: &'a Solve<'a>,
    ) -> Run<'a> {
        let limit = orc.options.time_limit.map(|limit| Instant::now() + limit);
        Run {
            items,
            jobs: jobs.max(1),
            pinned,
            next: AtomicUsize::new(0),
            deadline: earliest(limit, orc.deadline),
            cancel: Arc::new(AtomicBool::new(false)),
            decisive,
            solve,
        }
    }

    /// The per-shard loop: solves items on `orc` until the queue is empty
    /// or an item is decisive, errs, is cancelled or runs out of time. A
    /// decisive item raises the token that stops the other shards. The
    /// caller's iteration cap bounds the shard's items together: each
    /// item may run what the earlier ones left, and one that runs out
    /// reports the caller's cap.
    fn shard(&self, shard: usize, orc: &mut Orchestrator) -> ShardReport {
        let caller_deadline = orc.deadline;
        orc.set_deadline(self.deadline);
        let cap = orc.options.max_iterations;
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
            if self.cancel.load(Ordering::Relaxed) {
                report.stats.cancelled = true;
                break;
            }
            orc.options.max_iterations = cap.saturating_sub(report.stats.boolean_iterations);
            let result = match (self.solve)(orc, item) {
                Err(SolveError::IterationLimit(_)) => Err(SolveError::IterationLimit(cap)),
                result => result,
            };
            let run = orc.stats();
            report.stats.accumulate(&run);
            let decisive = (self.decisive)(&result);
            if decisive {
                self.cancel.store(true, Ordering::Relaxed);
            }
            let stop = decisive || result.is_err() || run.cancelled || run.timed_out;
            report.results.push((item, result));
            if stop {
                break;
            }
        }
        orc.options.max_iterations = cap;
        orc.set_deadline(caller_deadline);
        report
    }

    /// Runs the shards for the call of `caller`, on its thread when there
    /// is one shard and on their own threads otherwise, and leaves their
    /// statistics folded in `caller`'s. A spawned shard `s` solves on the
    /// stack `build(s)` with the caller's options, at one job, and every
    /// event it emits is stamped with its index. Returns the reports in
    /// shard order.
    fn run(
        &self,
        strategy: &str,
        build: fn(usize) -> Orchestrator,
        caller: &mut Orchestrator,
    ) -> Vec<ShardReport> {
        if self.jobs == 1 {
            // The caller's own token is the shard's.
            let reports = vec![self.shard(0, caller)];
            caller.stats = self.fold(&reports, reports[0].stats.cancelled);
            return reports;
        }
        // Shards do not recurse into shards of their own, and the run's
        // deadline replaces a per-item limit that would restart on every
        // item.
        let options = OrchestratorOptions {
            jobs: 1,
            time_limit: None,
            ..caller.options.clone()
        };
        let sink = caller.trace_sink();
        let (reports, stopped) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs)
                .map(|shard| {
                    let (options, sink) = (&options, &sink);
                    scope.spawn(move || {
                        let sink: Arc<dyn TraceSink> =
                            Arc::new(ShardSink::new(Arc::clone(sink), shard));
                        if sink.enabled() {
                            sink.emit(&TraceEvent::new("shard.start").field("strategy", strategy));
                        }
                        let started = Instant::now();
                        let mut orc = build(shard).with_options(options.clone());
                        orc.set_cancel_token(Some(Arc::clone(&self.cancel)));
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
            // The shards poll only the run's token: relay the caller's.
            let mut stopped = false;
            if let Some(token) = &caller.cancel {
                while !handles.iter().all(|h| h.is_finished()) {
                    if token.load(Ordering::Relaxed) {
                        stopped = !self.cancel.swap(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(CALLER_POLL);
                }
            }
            let reports: Vec<ShardReport> = handles
                .into_iter()
                .map(|h| h.join().expect("a solver shard panicked"))
                .collect();
            (reports, stopped)
        });
        caller.stats = self.fold(&reports, stopped);
        reports
    }

    /// The call's statistics: every shard's counters and phase times
    /// summed. `cancelled` is set only when the caller's token stopped the
    /// run (`caller_stopped`), not when a decisive item stopped the other
    /// shards, and `timed_out` only when no item settled the run.
    fn fold(&self, reports: &[ShardReport], caller_stopped: bool) -> OrchestratorStats {
        let mut stats = OrchestratorStats::default();
        for report in reports {
            stats.accumulate(&report.stats);
        }
        let settled = reports
            .iter()
            .flat_map(|r| &r.results)
            .any(|(_, result)| (self.decisive)(result));
        stats.timed_out &= !settled;
        stats.cancelled = caller_stopped && !settled;
        stats
    }
}

/// Builds the solver stack of portfolio shard `index`. Shard 0 is the
/// default stack; higher shards rotate the Boolean backend, the
/// nonlinear backend, and the decision-phase seed.
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

/// Solves `problem`, split as `partition`, for [`Orchestrator::solve`]
/// through the shard driver: one item per component on
/// `min(jobs, components)` shards, or, for a problem that does not split,
/// the portfolio on `jobs` shards. Leaves every shard's statistics folded
/// in `orc`'s; the caller stamps the call's own `components` and
/// `elapsed`.
pub(crate) fn solve_sharded(
    orc: &mut Orchestrator,
    problem: &AbProblem,
    partition: &Partition,
) -> Result<Outcome, SolveError> {
    let jobs = orc.options.jobs.max(1);
    if !partition.is_trivial() {
        let solve = component_item(problem, partition);
        let pinned = orc.options.deterministic;
        let run = Run::new(
            orc,
            partition.len(),
            jobs.min(partition.len()),
            pinned,
            refutes,
            &solve,
        );
        let reports = run.run("components", component_shard, orc);
        return reduce_components(partition, reports);
    }
    // One whole-problem item per shard, pinned so that each shard solves
    // it on its own stack.
    let solve = |orc: &mut Orchestrator, _: usize| {
        orc.solve_loop(problem, absolver_nonlinear::term::local_counters())
    };
    let run = Run::new(orc, jobs, jobs, true, decides, &solve);
    reduce_portfolio(run.run("portfolio", portfolio_shard, orc))
}
