//! Parallel solving: portfolio and cube-and-conquer on `std::thread`.
//!
//! Two strategies over the sequential [`Orchestrator`] control loop:
//!
//! * **Portfolio** — `jobs` diversified solver stacks (Boolean backend ×
//!   nonlinear backend × decision-phase seed) race on the *same* problem;
//!   the first definitive verdict (Sat or Unsat) wins and cancels the
//!   rest through a shared [`AtomicBool`] token. Sat and Unsat cannot
//!   disagree between shards, so the verdict is deterministic even when
//!   the winning shard is not.
//! * **Cube-and-conquer** — the `k` highest-activity atom variables
//!   (measured by a budgeted CDCL probe) split the search space into up
//!   to `2^k` *cubes*; shards solve cubes as assumption sets via
//!   [`Orchestrator::solve_under`] and exchange theory-conflict clauses
//!   over [`std::sync::mpsc`] channels. A cube's Unsat means
//!   *unsatisfiable under that cube*; the problem is Unsat only once
//!   every cube is refuted.
//!
//! Backends are trait objects and not `Send`, so each shard builds its
//! own solver stack inside its thread; only the plain-data [`AbProblem`]
//! and the atomic token cross thread boundaries. Cancellation is
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
    outcome_label, Orchestrator, OrchestratorOptions, Outcome, SolveError, TimedLemma,
};
use crate::problem::{AbModel, AbProblem};
use crate::structure::Partition;
use absolver_logic::{Lit, Var};
use absolver_sat::Solver;
use absolver_trace::{ShardSink, TraceEvent, TraceSink};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How to split work between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Diversified configurations race on the whole problem;
    /// first definitive verdict wins.
    Portfolio,
    /// Cube-and-conquer: partition the search space on high-activity
    /// atoms and solve each cube under assumptions.
    Cubes,
}

impl fmt::Display for ParallelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelStrategy::Portfolio => write!(f, "portfolio"),
            ParallelStrategy::Cubes => write!(f, "cubes"),
        }
    }
}

impl std::str::FromStr for ParallelStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "portfolio" => Ok(ParallelStrategy::Portfolio),
            "cubes" => Ok(ParallelStrategy::Cubes),
            other => Err(format!(
                "unknown strategy '{other}' (expected portfolio|cubes)"
            )),
        }
    }
}

/// Configuration of a [`Orchestrator::solve_parallel`] run.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of worker threads (shards). `0` is treated as `1`.
    pub jobs: usize,
    /// Work-splitting strategy.
    pub strategy: ParallelStrategy,
    /// Deterministic mode: cubes are assigned round-robin by shard index
    /// instead of through a shared work queue, so each shard solves an
    /// input-determined cube set regardless of scheduling.
    pub deterministic: bool,
    /// Control-loop options every shard starts from (the portfolio
    /// diversifies the *backends*, not these budgets). A `time_limit`
    /// here becomes one wall-clock deadline for the whole parallel call,
    /// shared by all shards and cubes.
    pub base: OrchestratorOptions,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: 2,
            strategy: ParallelStrategy::Portfolio,
            deterministic: false,
            base: OrchestratorOptions::default(),
        }
    }
}

/// Per-shard accounting of a parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Cubes this shard picked up (1 for portfolio shards).
    pub cubes_solved: usize,
    /// Boolean models examined, summed over the shard's cubes.
    pub boolean_iterations: u64,
    /// Theory checks performed.
    pub theory_checks: u64,
    /// Simplex checks that started from a warm tableau.
    pub simplex_warm_starts: u64,
    /// Blocking clauses fed back.
    pub conflicts_fed_back: u64,
    /// Theory-conflict clauses this shard exported to siblings.
    pub clauses_shared: u64,
    /// Clauses this shard imported from siblings.
    pub clauses_imported: u64,
    /// Summed transport latency of the clauses this shard imported.
    pub share_latency: Duration,
    /// Whether the shard was stopped by the cancellation token.
    pub cancelled: bool,
    /// Whether the shard hit the wall-clock deadline.
    pub timed_out: bool,
}

/// Aggregated statistics of a parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Cubes generated (0 for portfolio).
    pub cubes: usize,
    /// Independent connected components solved on separate shards
    /// (0 when the run used a cube or portfolio split instead).
    pub components: usize,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardStats>,
    /// Index of the shard that produced the winning verdict, if any
    /// shard won outright.
    pub winner: Option<usize>,
    /// Theory-conflict clauses exported across all shards.
    pub clauses_shared: u64,
    /// Clauses imported across all shards.
    pub clauses_imported: u64,
    /// Summed lemma transport latency across all shards.
    pub share_latency: Duration,
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
            "jobs={} cubes={} iterations={} shared={} imported={} winner={} elapsed={:?}",
            self.jobs,
            self.cubes,
            iterations,
            self.clauses_shared,
            self.clauses_imported,
            match self.winner {
                Some(i) => i.to_string(),
                None => "-".to_string(),
            },
            self.elapsed,
        )?;
        if self.components > 0 {
            write!(f, " components={}", self.components)?;
        }
        if let Some(latency) = self.cancel_latency {
            write!(f, " cancel_latency={latency:?}")?;
        }
        Ok(())
    }
}

/// What one shard brought home.
struct ShardReport {
    shard: usize,
    result: Result<Outcome, SolveError>,
    stats: ShardStats,
    /// How long after the token was raised this shard noticed, if it was
    /// cancelled.
    latency: Option<Duration>,
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

    /// Claims the win for `shard` and raises the cancel token. Returns
    /// `true` if this shard was first.
    fn claim(&self, shard: usize) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some((shard, Instant::now()));
            self.cancel.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn winner(&self) -> Option<usize> {
        self.state.lock().unwrap().map(|(shard, _)| shard)
    }

    fn raised_at(&self) -> Option<Instant> {
        self.state.lock().unwrap().map(|(_, at)| at)
    }
}

/// Builds the solver stack of portfolio shard `index`. Shard 0 is the
/// exact sequential default stack, so a 1-job portfolio degenerates to
/// plain [`Orchestrator::solve`]; higher shards rotate the Boolean
/// backend, the nonlinear backend, and the decision-phase seed.
fn build_portfolio_shard(index: usize, base: &OrchestratorOptions) -> Orchestrator {
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
        .with_options(base.clone())
}

/// Builds a cube shard: the default stack with phase scrambling past
/// shard 0 so shards diverge even on identical cubes.
fn build_cube_shard(index: usize, base: &OrchestratorOptions) -> Orchestrator {
    let boolean: Box<dyn crate::backends::BooleanSolver> = if index == 0 {
        Box::new(CdclBoolean::new())
    } else {
        Box::new(CdclBoolean::with_phase_seed(
            0xD1B5_4A32_D192_ED03u64.wrapping_mul(index as u64),
        ))
    };
    Orchestrator::custom(boolean)
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(CascadeNonlinear::default()))
        .with_options(base.clone())
}

/// Picks up to `k` cube variables: the highest-activity atom variables
/// after a conflict-budgeted CDCL probe of the CNF skeleton. Theory
/// atoms are preferred (splitting on them prunes arithmetic work);
/// problems without definitions fall back to all CNF variables. Ties
/// break on index, so the pick is deterministic.
fn pick_cube_vars(problem: &AbProblem, k: usize) -> Vec<Var> {
    if k == 0 {
        return Vec::new();
    }
    let mut candidates: Vec<Var> = problem.theory_vars();
    if candidates.is_empty() {
        candidates = (0..problem.cnf().num_vars())
            .map(|i| Var::new(i as u32))
            .collect();
    }
    let mut probe = Solver::from_cnf(problem.cnf());
    probe.set_conflict_budget(512);
    let _ = probe.solve();
    let activity = probe.activities();
    candidates.sort_by(|a, b| {
        let aa = activity.get(a.index()).copied().unwrap_or(0.0);
        let ab = activity.get(b.index()).copied().unwrap_or(0.0);
        ab.partial_cmp(&aa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index().cmp(&b.index()))
    });
    candidates.truncate(k);
    candidates
}

/// Expands `vars` into the `2^k` sign patterns, each a cube of
/// assumption literals. Zero variables yield the single empty cube.
fn make_cubes(vars: &[Var]) -> Vec<Vec<Lit>> {
    let k = vars.len();
    (0..1usize << k)
        .map(|mask| {
            vars.iter()
                .enumerate()
                .map(|(j, &v)| {
                    if mask >> j & 1 == 1 {
                        v.positive()
                    } else {
                        v.negative()
                    }
                })
                .collect()
        })
        .collect()
}

/// The automatic cube count: enough cubes to keep every shard busy with
/// several (≈4 cubes per job), capped so the split stays tractable.
fn auto_cube_vars(jobs: usize, available: usize) -> usize {
    let mut k = 0;
    while (1usize << k) < 4 * jobs.max(1) && k < 8 {
        k += 1;
    }
    k.min(8).min(available)
}

/// Reduces shard verdicts for the *portfolio* strategy, in shard order:
/// every shard solved the same problem, so any Sat or Unsat is the
/// answer; an iteration-limit error outranks Unknown (the caller should
/// see that a budget, not solver incompleteness, was the blocker).
fn reduce_portfolio(reports: &[ShardReport]) -> Result<Outcome, SolveError> {
    for r in reports {
        if let Ok(Outcome::Sat(m)) = &r.result {
            return Ok(Outcome::Sat(m.clone()));
        }
    }
    for r in reports {
        if let Ok(Outcome::Unsat) = &r.result {
            return Ok(Outcome::Unsat);
        }
    }
    for r in reports {
        if let Err(e) = &r.result {
            return Err(e.clone());
        }
    }
    Ok(Outcome::Unknown)
}

/// Solves with the portfolio strategy. See [`Orchestrator::solve_parallel`].
fn solve_portfolio(
    problem: &AbProblem,
    options: &ParallelOptions,
    sink: &Arc<dyn TraceSink>,
) -> (Result<Outcome, SolveError>, ParallelStats) {
    let started = Instant::now();
    let jobs = options.jobs.max(1);
    let board = WinnerBoard::new();
    let deadline = options.base.time_limit.map(|limit| started + limit);

    let mut reports: Vec<ShardReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|shard| {
                let board = &board;
                let sink = Arc::clone(sink);
                scope.spawn(move || {
                    let shard_sink: Arc<dyn TraceSink> =
                        Arc::new(ShardSink::new(Arc::clone(&sink), shard));
                    if shard_sink.enabled() {
                        shard_sink
                            .emit(&TraceEvent::new("shard.start").field("strategy", "portfolio"));
                    }
                    let shard_started = Instant::now();
                    let mut orc = build_portfolio_shard(shard, &options.base);
                    orc.set_cancel_token(Some(board.cancel.clone()));
                    orc.set_deadline(deadline);
                    orc.set_trace_sink(Arc::clone(&shard_sink));
                    let result = orc.solve(problem);
                    if matches!(result, Ok(Outcome::Sat(_)) | Ok(Outcome::Unsat)) {
                        board.claim(shard);
                    }
                    let stats = orc.stats();
                    let latency = if stats.cancelled {
                        board.raised_at().map(|at| at.elapsed())
                    } else {
                        None
                    };
                    if shard_sink.enabled() {
                        shard_sink.emit(
                            &TraceEvent::new("shard.end")
                                .field_u64("iterations", stats.boolean_iterations)
                                .duration(shard_started.elapsed()),
                        );
                    }
                    ShardReport {
                        shard,
                        result,
                        stats: ShardStats {
                            cubes_solved: 1,
                            boolean_iterations: stats.boolean_iterations,
                            theory_checks: stats.theory_checks,
                            simplex_warm_starts: stats.simplex_warm_starts,
                            conflicts_fed_back: stats.conflicts_fed_back,
                            clauses_shared: stats.clauses_shared,
                            clauses_imported: stats.clauses_imported,
                            share_latency: stats.share_latency,
                            cancelled: stats.cancelled,
                            timed_out: stats.timed_out,
                        },
                        latency,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("portfolio shard panicked"))
            .collect()
    });
    reports.sort_by_key(|r| r.shard);

    let outcome = reduce_portfolio(&reports);
    let stats = aggregate(&reports, jobs, 0, board.winner(), started);
    (outcome, stats)
}

/// Solves with the cube-and-conquer strategy. See
/// [`Orchestrator::solve_parallel`].
fn solve_cubes(
    problem: &AbProblem,
    options: &ParallelOptions,
    sink: &Arc<dyn TraceSink>,
) -> (Result<Outcome, SolveError>, ParallelStats) {
    let started = Instant::now();
    let jobs = options.jobs.max(1);
    let available = {
        let atoms = problem.theory_vars().len();
        if atoms > 0 {
            atoms
        } else {
            problem.cnf().num_vars()
        }
    };
    let cube_vars = pick_cube_vars(problem, auto_cube_vars(jobs, available));
    let cubes = make_cubes(&cube_vars);
    let num_cubes = cubes.len();

    let board = WinnerBoard::new();
    let deadline = options.base.time_limit.map(|limit| started + limit);
    // One shared clock for the whole call: shard orchestrators get an
    // absolute deadline instead of a per-`solve_under` time limit, so
    // the budget cannot restart on every cube.
    let mut shard_base = options.base.clone();
    shard_base.time_limit = None;

    // Clause-sharing fabric: shard i receives on channel i and sends to
    // every sibling.
    let (senders, inboxes): (Vec<mpsc::Sender<TimedLemma>>, Vec<_>) =
        (0..jobs).map(|_| mpsc::channel()).unzip();

    // Work queue: deterministic mode assigns cube c to shard c % jobs;
    // otherwise shards pull from a shared counter.
    let next_cube = AtomicUsize::new(0);
    let cubes = &cubes;

    let mut reports: Vec<ShardReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .zip(inboxes)
            .map(|(shard, inbox)| {
                let board = &board;
                let next_cube = &next_cube;
                let shard_base = &shard_base;
                let outbox: Vec<mpsc::Sender<TimedLemma>> = senders
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != shard)
                    .map(|(_, tx)| tx.clone())
                    .collect();
                let deterministic = options.deterministic;
                let sink = Arc::clone(sink);
                scope.spawn(move || {
                    let shard_sink: Arc<dyn TraceSink> =
                        Arc::new(ShardSink::new(Arc::clone(&sink), shard));
                    if shard_sink.enabled() {
                        shard_sink.emit(&TraceEvent::new("shard.start").field("strategy", "cubes"));
                    }
                    let shard_started = Instant::now();
                    let mut orc = build_cube_shard(shard, shard_base);
                    orc.set_cancel_token(Some(board.cancel.clone()));
                    orc.set_deadline(deadline);
                    orc.set_trace_sink(Arc::clone(&shard_sink));
                    orc.set_clause_sharing(outbox, inbox);
                    let mut stats = ShardStats::default();
                    let mut latency = None;
                    let mut result: Result<Outcome, SolveError> = Ok(Outcome::Unsat);
                    let mut cube_index = if deterministic { shard } else { usize::MAX };
                    loop {
                        let (cube, cube_id) = if deterministic {
                            if cube_index >= num_cubes {
                                break;
                            }
                            let id = cube_index;
                            cube_index += jobs;
                            (&cubes[id], id)
                        } else {
                            let c = next_cube.fetch_add(1, Ordering::Relaxed);
                            if c >= num_cubes {
                                break;
                            }
                            (&cubes[c], c)
                        };
                        if board.cancel.load(Ordering::Relaxed) {
                            stats.cancelled = true;
                            latency = board.raised_at().map(|at| at.elapsed());
                            break;
                        }
                        if shard_sink.enabled() {
                            shard_sink.emit(
                                &TraceEvent::new("cube.start")
                                    .cube(cube_id)
                                    .field_u64("literals", cube.len() as u64),
                            );
                        }
                        let cube_started = Instant::now();
                        let cube_result = orc.solve_under(problem, cube);
                        let run = orc.stats();
                        if shard_sink.enabled() {
                            let label = outcome_label(&cube_result);
                            shard_sink.emit(
                                &TraceEvent::new("cube.end")
                                    .cube(cube_id)
                                    .field("outcome", label)
                                    .duration(cube_started.elapsed()),
                            );
                        }
                        stats.cubes_solved += 1;
                        stats.boolean_iterations += run.boolean_iterations;
                        stats.theory_checks += run.theory_checks;
                        stats.simplex_warm_starts += run.simplex_warm_starts;
                        stats.conflicts_fed_back += run.conflicts_fed_back;
                        stats.clauses_shared += run.clauses_shared;
                        stats.clauses_imported += run.clauses_imported;
                        stats.share_latency += run.share_latency;
                        match cube_result {
                            Ok(Outcome::Sat(m)) => {
                                board.claim(shard);
                                result = Ok(Outcome::Sat(m));
                                break;
                            }
                            // This cube is refuted; the next one may not be.
                            Ok(Outcome::Unsat) => {}
                            Ok(Outcome::Unknown) => {
                                if run.cancelled {
                                    stats.cancelled = true;
                                    latency = board.raised_at().map(|at| at.elapsed());
                                    break;
                                }
                                if run.timed_out {
                                    stats.timed_out = true;
                                    result = Ok(Outcome::Unknown);
                                    break;
                                }
                                // A budget-limited Unknown poisons any
                                // overall Unsat claim but not a later Sat.
                                result = Ok(Outcome::Unknown);
                            }
                            Err(e) => {
                                result = Err(e);
                                break;
                            }
                        }
                    }
                    if shard_sink.enabled() {
                        shard_sink.emit(
                            &TraceEvent::new("shard.end")
                                .field_u64("cubes_solved", stats.cubes_solved as u64)
                                .duration(shard_started.elapsed()),
                        );
                    }
                    ShardReport {
                        shard,
                        result,
                        stats,
                        latency,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cube shard panicked"))
            .collect()
    });
    reports.sort_by_key(|r| r.shard);

    // Reduction: Sat anywhere wins; Unsat only if *every* cube was
    // refuted (no Unknown, no error, no unfinished work).
    let mut outcome: Result<Outcome, SolveError> = Ok(Outcome::Unsat);
    for r in &reports {
        if let Ok(Outcome::Sat(m)) = &r.result {
            outcome = Ok(Outcome::Sat(m.clone()));
            break;
        }
    }
    if !matches!(outcome, Ok(Outcome::Sat(_))) {
        for r in &reports {
            match &r.result {
                Err(e) => {
                    outcome = Err(e.clone());
                    break;
                }
                Ok(Outcome::Unknown) => outcome = Ok(Outcome::Unknown),
                _ => {}
            }
        }
        // A shard cancelled without a Sat winner left cubes undecided.
        if matches!(outcome, Ok(Outcome::Unsat))
            && reports
                .iter()
                .any(|r| r.stats.cancelled || r.stats.timed_out)
        {
            outcome = Ok(Outcome::Unknown);
        }
    }

    let stats = aggregate(&reports, jobs, num_cubes, board.winner(), started);
    (outcome, stats)
}

/// What one component shard brought home: the usual shard accounting
/// plus the SAT witnesses of the components it solved.
struct ComponentShardOutcome {
    shard: usize,
    stats: ShardStats,
    latency: Option<Duration>,
    error: Option<SolveError>,
    /// The shard refuted one of its components (whole problem Unsat).
    unsat: bool,
    /// A component came back undecided (budget or incompleteness).
    unknown: bool,
    models: Vec<(usize, AbModel)>,
}

/// Solves each connected component of a decomposable problem on its own
/// shard. Components are distributed round-robin by index in
/// deterministic mode and through a shared work queue otherwise. The
/// conjunction is Unsat as soon as *any* component is, so an Unsat
/// verdict claims the win and cancels the siblings; Sat requires every
/// component's witness, which are stitched back into one model at the
/// end.
fn solve_component_shards(
    problem: &AbProblem,
    partition: &Partition,
    options: &ParallelOptions,
    sink: &Arc<dyn TraceSink>,
) -> (Result<Outcome, SolveError>, ParallelStats) {
    let started = Instant::now();
    let num_components = partition.len();
    let jobs = options.jobs.max(1).min(num_components);
    let board = WinnerBoard::new();
    let deadline = options.base.time_limit.map(|limit| started + limit);
    // Like cubes: one absolute deadline for the whole call, so the budget
    // cannot restart on every component.
    let mut shard_base = options.base.clone();
    shard_base.time_limit = None;
    let next_component = AtomicUsize::new(0);

    let mut outcomes: Vec<ComponentShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|shard| {
                let board = &board;
                let next_component = &next_component;
                let shard_base = &shard_base;
                let deterministic = options.deterministic;
                let sink = Arc::clone(sink);
                scope.spawn(move || {
                    let shard_sink: Arc<dyn TraceSink> =
                        Arc::new(ShardSink::new(Arc::clone(&sink), shard));
                    if shard_sink.enabled() {
                        shard_sink
                            .emit(&TraceEvent::new("shard.start").field("strategy", "components"));
                    }
                    let shard_started = Instant::now();
                    let mut orc = build_cube_shard(shard, shard_base);
                    orc.set_cancel_token(Some(board.cancel.clone()));
                    orc.set_deadline(deadline);
                    orc.set_trace_sink(Arc::clone(&shard_sink));
                    let mut stats = ShardStats::default();
                    let mut latency = None;
                    let mut error = None;
                    let mut unsat = false;
                    let mut unknown = false;
                    let mut models: Vec<(usize, AbModel)> = Vec::new();
                    let mut comp_index = if deterministic { shard } else { usize::MAX };
                    loop {
                        let idx = if deterministic {
                            if comp_index >= num_components {
                                break;
                            }
                            let id = comp_index;
                            comp_index += jobs;
                            id
                        } else {
                            let c = next_component.fetch_add(1, Ordering::Relaxed);
                            if c >= num_components {
                                break;
                            }
                            c
                        };
                        if board.cancel.load(Ordering::Relaxed) {
                            stats.cancelled = true;
                            latency = board.raised_at().map(|at| at.elapsed());
                            break;
                        }
                        let sub = partition.extract(problem, idx);
                        if shard_sink.enabled() {
                            shard_sink.emit(
                                &TraceEvent::new("component.start")
                                    .field_u64("component", idx as u64)
                                    .field_u64("size", partition.components()[idx].size() as u64),
                            );
                        }
                        let comp_started = Instant::now();
                        let comp_result = orc.solve_under(&sub, &[]);
                        let run = orc.stats();
                        if shard_sink.enabled() {
                            let label = outcome_label(&comp_result);
                            shard_sink.emit(
                                &TraceEvent::new("component.end")
                                    .field_u64("component", idx as u64)
                                    .field("outcome", label)
                                    .duration(comp_started.elapsed()),
                            );
                        }
                        stats.cubes_solved += 1;
                        stats.boolean_iterations += run.boolean_iterations;
                        stats.theory_checks += run.theory_checks;
                        stats.simplex_warm_starts += run.simplex_warm_starts;
                        stats.conflicts_fed_back += run.conflicts_fed_back;
                        stats.clauses_shared += run.clauses_shared;
                        stats.clauses_imported += run.clauses_imported;
                        stats.share_latency += run.share_latency;
                        match comp_result {
                            Ok(Outcome::Sat(m)) => models.push((idx, *m)),
                            Ok(Outcome::Unsat) => {
                                board.claim(shard);
                                unsat = true;
                                break;
                            }
                            Ok(Outcome::Unknown) => {
                                if run.cancelled {
                                    stats.cancelled = true;
                                    latency = board.raised_at().map(|at| at.elapsed());
                                    break;
                                }
                                if run.timed_out {
                                    stats.timed_out = true;
                                    unknown = true;
                                    break;
                                }
                                unknown = true;
                            }
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    if shard_sink.enabled() {
                        shard_sink.emit(
                            &TraceEvent::new("shard.end")
                                .field_u64("components_solved", stats.cubes_solved as u64)
                                .duration(shard_started.elapsed()),
                        );
                    }
                    ComponentShardOutcome {
                        shard,
                        stats,
                        latency,
                        error,
                        unsat,
                        unknown,
                        models,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("component shard panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.shard);

    let stats = ParallelStats {
        jobs,
        cubes: 0,
        components: num_components,
        shards: outcomes.iter().map(|o| o.stats).collect(),
        winner: board.winner(),
        clauses_shared: outcomes.iter().map(|o| o.stats.clauses_shared).sum(),
        clauses_imported: outcomes.iter().map(|o| o.stats.clauses_imported).sum(),
        share_latency: outcomes.iter().map(|o| o.stats.share_latency).sum(),
        cancel_latency: outcomes.iter().filter_map(|o| o.latency).max(),
        timed_out: outcomes.iter().any(|o| o.stats.timed_out),
        elapsed: started.elapsed(),
    };

    // Reduction: one refuted component refutes the conjunction; then
    // errors; then anything undecided; Sat only with a witness for every
    // component.
    let any_unknown = outcomes.iter().any(|o| o.unknown);
    let outcome: Result<Outcome, SolveError> = if outcomes.iter().any(|o| o.unsat) {
        Ok(Outcome::Unsat)
    } else if let Some(e) = outcomes.iter().find_map(|o| o.error.clone()) {
        Err(e)
    } else {
        let mut slots: Vec<Option<AbModel>> = (0..num_components).map(|_| None).collect();
        for o in outcomes {
            for (idx, model) in o.models {
                slots[idx] = Some(model);
            }
        }
        if any_unknown
            || stats.timed_out
            || stats.shards.iter().any(|s| s.cancelled)
            || slots.iter().any(Option::is_none)
        {
            Ok(Outcome::Unknown)
        } else {
            let models: Vec<AbModel> = slots.into_iter().map(Option::unwrap).collect();
            Ok(Outcome::Sat(Box::new(partition.stitch(&models))))
        }
    };
    (outcome, stats)
}

/// Folds shard reports into [`ParallelStats`], in shard order.
fn aggregate(
    reports: &[ShardReport],
    jobs: usize,
    cubes: usize,
    winner: Option<usize>,
    started: Instant,
) -> ParallelStats {
    ParallelStats {
        jobs,
        cubes,
        components: 0,
        shards: reports.iter().map(|r| r.stats).collect(),
        winner,
        clauses_shared: reports.iter().map(|r| r.stats.clauses_shared).sum(),
        clauses_imported: reports.iter().map(|r| r.stats.clauses_imported).sum(),
        share_latency: reports.iter().map(|r| r.stats.share_latency).sum(),
        cancel_latency: reports.iter().filter_map(|r| r.latency).max(),
        timed_out: reports.iter().any(|r| r.stats.timed_out),
        elapsed: started.elapsed(),
    }
}

impl Orchestrator {
    /// Solves an AB-problem with `jobs` worker threads under the chosen
    /// [`ParallelStrategy`]. The receiver's own backends are not used —
    /// shards build their stacks from [`ParallelOptions::base`] inside
    /// their threads (backends are not `Send`) — but the aggregated
    /// verdict is exactly comparable to a sequential
    /// [`Orchestrator::solve`] on the same problem.
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
        // A decomposable problem splits into independent subproblems
        // before any strategy-level split: each component gets its own
        // shard. Gated on jobs >= 2 so a 1-job run stays byte-for-byte
        // the sequential control loop.
        if options.jobs >= 2 {
            let partition = Partition::of(problem);
            if partition.len() >= 2 {
                if sink.enabled() {
                    let sizes = partition
                        .sizes()
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    sink.emit(
                        &TraceEvent::new("analyze.partition")
                            .field_u64("components", partition.len() as u64)
                            .field("sizes", sizes),
                    );
                }
                let (outcome, stats) = solve_component_shards(problem, &partition, options, &sink);
                return outcome.map(|o| (o, stats));
            }
        }
        let (outcome, stats) = match options.strategy {
            ParallelStrategy::Portfolio => solve_portfolio(problem, options, &sink),
            ParallelStrategy::Cubes => solve_cubes(problem, options, &sink),
        };
        outcome.map(|o| (o, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubes_cover_all_sign_patterns() {
        let vars = vec![Var::new(0), Var::new(3)];
        let cubes = make_cubes(&vars);
        assert_eq!(cubes.len(), 4);
        let mut signs: Vec<(bool, bool)> = cubes
            .iter()
            .map(|c| (c[0].is_positive(), c[1].is_positive()))
            .collect();
        signs.sort_unstable();
        signs.dedup();
        assert_eq!(signs.len(), 4, "all four sign patterns are distinct");
    }

    #[test]
    fn empty_var_list_yields_single_empty_cube() {
        assert_eq!(make_cubes(&[]), vec![Vec::<Lit>::new()]);
    }

    #[test]
    fn auto_cube_vars_scales_with_jobs() {
        assert_eq!(auto_cube_vars(1, 100), 2); // 4 cubes
        assert_eq!(auto_cube_vars(4, 100), 4); // 16 cubes
        assert_eq!(auto_cube_vars(100, 100), 8); // capped
        assert_eq!(auto_cube_vars(4, 3), 3); // capped by available vars
        assert_eq!(auto_cube_vars(4, 0), 0); // nothing to cube on
    }

    #[test]
    fn pick_cube_vars_prefers_theory_atoms() {
        let text = "p cnf 4 3\n1 4 0\n-1 2 0\n3 4 0\nc def real 1 x >= 0\nc def real 2 x <= 5\n";
        let problem: AbProblem = text.parse().unwrap();
        let picked = pick_cube_vars(&problem, 2);
        assert_eq!(picked.len(), 2);
        for v in &picked {
            assert!(
                problem.theory_vars().contains(v),
                "{v:?} should be a theory atom"
            );
        }
    }

    #[test]
    fn pick_cube_vars_on_pure_boolean_problem() {
        let problem: AbProblem = "p cnf 2 1\n1 2 0\n".parse().unwrap();
        let picked = pick_cube_vars(&problem, 8);
        assert_eq!(
            picked.len(),
            2,
            "falls back to CNF variables, capped at num_vars"
        );
    }

    #[test]
    fn strategy_parses_and_displays() {
        assert_eq!(
            "portfolio".parse::<ParallelStrategy>().unwrap(),
            ParallelStrategy::Portfolio
        );
        assert_eq!(
            "cubes".parse::<ParallelStrategy>().unwrap(),
            ParallelStrategy::Cubes
        );
        assert!("x".parse::<ParallelStrategy>().is_err());
        assert_eq!(ParallelStrategy::Cubes.to_string(), "cubes");
    }
}
