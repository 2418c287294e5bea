//! The ABsolver control loop (paper Sec. 1 and Sec. 4).
//!
//! The loop is the paper's lazy-SMT iteration: query the Boolean solver
//! for a model of the CNF skeleton; induce the arithmetic constraint
//! system from the model (true atoms assert their constraints, false atoms
//! their negations, `¬(… = c)` splitting into `< c ∨ > c`); check it with
//! the linear solver — and, "in case the output pin's value of the circuit
//! is not yet known", the nonlinear solver; on theory conflict, feed the
//! conflicting subset back to the Boolean solver as a blocking clause and
//! iterate, "until a solution is found, or all possible assignments have
//! been shown infeasible". A linear conflicting subset is the simplex's
//! row certificate as is: the paper asks for "the smallest conflicting
//! subset", and DESIGN.md records why no deletion filter shrinks it.
//!
//! The nonlinear solver runs in two passes. Each Boolean model gets the
//! cheap first pass; a model it leaves `Unknown` is blocked, as the paper
//! moves on to another Boolean model, and saved. Only when the Boolean
//! side has no more models do the saved models get the second pass, each
//! backend's full one-shot check
//! ([`crate::backends::NonlinearBackend::escalate`]), in the order they
//! were blocked.
//!
//! The orchestrator's internal bookkeeping also enumerates *all* models
//! ([`Orchestrator::solve_all`]), regardless of whether the Boolean
//! backend supports native enumeration (Sec. 4's LSAT discussion).

use crate::backends::{
    BooleanSolver, CascadeNonlinear, CdclBoolean, LinearBackend, NonlinearBackend, SimplexLinear,
};
use crate::preprocess::{PreprocessSummary, Preprocessed, ProblemPreprocessor};
use crate::problem::{AbModel, AbProblem, VarKind};
use crate::structure::Partition;
use crate::theory::{
    check, prepare_defs, CheckEffort, IncrementalLinear, PreparedConstraint, TheoryBudget,
    TheoryContext, TheoryItem, TheoryVerdict,
};
use absolver_logic::{Assignment, Clause, Lit, Tri, Var};
use absolver_num::Interval;
use absolver_trace::{saturating_micros, JsonObject, NullSink, TraceEvent, TraceSink};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of solving an AB-problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Satisfiable, with a model.
    Sat(Box<AbModel>),
    /// Unsatisfiable.
    Unsat,
    /// Undecided within the configured budgets (the nonlinear engines are
    /// incomplete in general).
    Unknown,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// Returns `true` for [`Outcome::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Outcome::Unsat)
    }

    /// The model, if SAT.
    pub fn model(&self) -> Option<&AbModel> {
        match self {
            Outcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Error produced by the control loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The per-call iteration limit was exceeded.
    IterationLimit(u64),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::IterationLimit(n) => {
                write!(f, "control loop exceeded {n} Boolean iterations")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The trace label of a solve result.
pub(crate) fn outcome_label(result: &Result<Outcome, SolveError>) -> &'static str {
    match result {
        Ok(Outcome::Sat(_)) => "sat",
        Ok(Outcome::Unsat) => "unsat",
        Ok(Outcome::Unknown) => "unknown",
        Err(_) => "iteration-limit",
    }
}

/// The earlier of two optional deadlines.
pub(crate) fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Statistics of a solving run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OrchestratorStats {
    /// Boolean models examined.
    pub boolean_iterations: u64,
    /// Theory checks performed.
    pub theory_checks: u64,
    /// Blocking clauses sent back to the Boolean solver.
    pub conflicts_fed_back: u64,
    /// Sum of literals across those blocking clauses.
    pub conflict_literals: u64,
    /// Theory checks that ended in `Unknown`.
    pub unknown_checks: u64,
    /// Second-pass checks of Boolean models whose first check was
    /// `Unknown`, run once the Boolean side had no more models.
    pub escalated_checks: u64,
    /// Whether the last call hit its wall-clock limit.
    pub timed_out: bool,
    /// Whether the last call was stopped by a cancellation token.
    pub cancelled: bool,
    /// Wall-clock time of the call's setup: definition preparation, CNF
    /// load and assertion-stack creation (for a session check, the pool
    /// rebuild, stack regrowth and Boolean reload or new clauses).
    pub setup_time: Duration,
    /// Wall-clock time spent in the Boolean solver (`next_model`).
    pub boolean_time: Duration,
    /// Wall-clock time spent in the linear theory phase (simplex +
    /// branch-and-bound + disequality splits).
    pub linear_time: Duration,
    /// Wall-clock time spent in the nonlinear theory phase.
    pub nonlinear_time: Duration,
    /// Always zero: linear conflicts are fed back as the simplex's row
    /// certificate, with no minimisation pass to time. Kept so the
    /// `conflict_min_us` JSON key and its readers stay stable.
    pub conflict_min_time: Duration,
    /// Simplex pivots performed by the linear backends.
    pub simplex_pivots: u64,
    /// Incremental simplex checks that warm-started from the previous
    /// feasible basis instead of re-tableauing (0 when no backend
    /// provides an assertion stack).
    pub simplex_warm_starts: u64,
    /// Rows the linear checks pushed onto the incremental assertion stack
    /// for their own items, summed over the call: every row of the first
    /// check, then only the rows whose atoms flipped. Branch-and-bound and
    /// disequality-split rows are not counted.
    pub linear_rows_pushed: u64,
    /// HC4 interval contractions performed by the nonlinear backends.
    pub hc4_contractions: u64,
    /// BC3 bound-shaving contractions performed by the nonlinear backends.
    pub bc3_contractions: u64,
    /// Interval-Newton contractions performed by the nonlinear backends.
    pub newton_contractions: u64,
    /// Always zero: the nonlinear layer has no contraction cache. Kept
    /// with [`OrchestratorStats::contraction_cache_misses`] so the
    /// `contraction_cache_{hits,misses}` JSON keys and their readers stay
    /// stable until the benchmark drops them.
    pub contraction_cache_hits: u64,
    /// Always zero; see [`OrchestratorStats::contraction_cache_hits`].
    pub contraction_cache_misses: u64,
    /// Descent steps of the nonlinear backends' local search.
    pub local_search_steps: u64,
    /// Terms interned into the global hash-consed arena during the call
    /// (preprocessing included): structurally *new* terms that allocated
    /// an arena node.
    pub terms_interned: u64,
    /// Intern requests during the call answered by an existing arena
    /// node (structural duplicates collapsed to an id copy).
    pub term_dedup_hits: u64,
    /// Wall-clock time of the preprocessing pass (zero when none is
    /// installed or the call bypassed it). This and the `pre_*` counters
    /// read 0 on every default path, which installs no preprocessor; they
    /// and their `preprocess` JSON object stay because the benchmark
    /// reads them.
    pub preprocess_time: Duration,
    /// Boolean variables eliminated by preprocessing.
    pub pre_vars_eliminated: u64,
    /// Clauses eliminated by preprocessing.
    pub pre_clauses_eliminated: u64,
    /// Theory atoms statically decided and removed by preprocessing.
    pub pre_atoms_eliminated: u64,
    /// Arithmetic-variable ranges tightened by preprocessing.
    pub pre_ranges_tightened: u64,
    /// Constraints eliminated by the subsumption/dominance pass
    /// (duplicate conjuncts, affine-dominated conjuncts, subsumed
    /// clauses).
    pub subsumed_constraints: u64,
    /// Independent connected components the incidence-graph partition
    /// found: ≥ 1 for every [`Orchestrator::solve`] (1 when it solved the
    /// problem whole), 0 where no partition ran ([`Orchestrator::solve_all`],
    /// sessions, a solve an installed preprocessor refuted).
    pub components: u64,
    /// Solves decided statically unsatisfiable by analysis before the
    /// control loop ran (0 or 1 for a single call; sums under
    /// accumulation).
    pub static_unsat: u64,
    /// Wall-clock time of the last `solve`/`solve_all` call.
    pub elapsed: Duration,
}

impl fmt::Display for OrchestratorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={} theory_checks={} conflicts={} avg_conflict_len={:.1} unknown={} \
             escalated={} timed_out={} cancelled={} pivots={} warm_starts={} \
             rows_pushed={} contractions={}/{}/{} local_search_steps={} terms_interned={} term_dedup={} pre_vars={} pre_clauses={} \
             pre_atoms={} pre_ranges={} subsumed={} components={} static_unsat={} preprocess={:?} \
             setup={:?} boolean={:?} linear={:?} nonlinear={:?} conflict_min={:?} elapsed={:?}",
            self.boolean_iterations,
            self.theory_checks,
            self.conflicts_fed_back,
            if self.conflicts_fed_back == 0 {
                0.0
            } else {
                self.conflict_literals as f64 / self.conflicts_fed_back as f64
            },
            self.unknown_checks,
            self.escalated_checks,
            self.timed_out,
            self.cancelled,
            self.simplex_pivots,
            self.simplex_warm_starts,
            self.linear_rows_pushed,
            self.hc4_contractions,
            self.bc3_contractions,
            self.newton_contractions,
            self.local_search_steps,
            self.terms_interned,
            self.term_dedup_hits,
            self.pre_vars_eliminated,
            self.pre_clauses_eliminated,
            self.pre_atoms_eliminated,
            self.pre_ranges_tightened,
            self.subsumed_constraints,
            self.components,
            self.static_unsat,
            self.preprocess_time,
            self.setup_time,
            self.boolean_time,
            self.linear_time,
            self.nonlinear_time,
            self.conflict_min_time,
            self.elapsed,
        )
    }
}

impl OrchestratorStats {
    /// Adds another run's counters into this one (durations sum, the
    /// `timed_out`/`cancelled` flags OR). Incremental sessions fold every
    /// per-check delta into their cumulative statistics this way, so the
    /// cumulative counters are monotone across checks.
    pub fn accumulate(&mut self, other: &OrchestratorStats) {
        self.boolean_iterations += other.boolean_iterations;
        self.theory_checks += other.theory_checks;
        self.conflicts_fed_back += other.conflicts_fed_back;
        self.conflict_literals += other.conflict_literals;
        self.unknown_checks += other.unknown_checks;
        self.escalated_checks += other.escalated_checks;
        self.timed_out |= other.timed_out;
        self.cancelled |= other.cancelled;
        self.setup_time += other.setup_time;
        self.boolean_time += other.boolean_time;
        self.linear_time += other.linear_time;
        self.nonlinear_time += other.nonlinear_time;
        self.conflict_min_time += other.conflict_min_time;
        self.simplex_pivots += other.simplex_pivots;
        self.simplex_warm_starts += other.simplex_warm_starts;
        self.linear_rows_pushed += other.linear_rows_pushed;
        self.hc4_contractions += other.hc4_contractions;
        self.bc3_contractions += other.bc3_contractions;
        self.newton_contractions += other.newton_contractions;
        self.local_search_steps += other.local_search_steps;
        self.terms_interned += other.terms_interned;
        self.term_dedup_hits += other.term_dedup_hits;
        self.preprocess_time += other.preprocess_time;
        self.pre_vars_eliminated += other.pre_vars_eliminated;
        self.pre_clauses_eliminated += other.pre_clauses_eliminated;
        self.pre_atoms_eliminated += other.pre_atoms_eliminated;
        self.pre_ranges_tightened += other.pre_ranges_tightened;
        self.subsumed_constraints += other.subsumed_constraints;
        self.components += other.components;
        self.static_unsat += other.static_unsat;
        self.elapsed += other.elapsed;
    }

    /// Total interval contractions across all cascade stages (HC4 + BC3 +
    /// Newton).
    pub fn total_contractions(&self) -> u64 {
        self.hc4_contractions + self.bc3_contractions + self.newton_contractions
    }

    /// Average contractions per theory check — the nonlinear counterpart
    /// of pivots-per-check, so nonlinear-only workloads report their
    /// per-check effort instead of an all-zero simplex column. `0.0` when
    /// no theory check ran.
    pub fn contractions_per_check(&self) -> f64 {
        if self.theory_checks == 0 {
            0.0
        } else {
            self.total_contractions() as f64 / self.theory_checks as f64
        }
    }

    /// Serialises the statistics as a single JSON object (the payload of
    /// `--stats json` and the `BENCH_*.json` reports). Times are reported
    /// in integer microseconds; the per-phase ones are nested under
    /// `"phase"`.
    pub fn to_json(&self) -> String {
        let mut phase = JsonObject::new();
        phase
            .field_u64("setup_us", saturating_micros(self.setup_time))
            .field_u64("boolean_us", saturating_micros(self.boolean_time))
            .field_u64("linear_us", saturating_micros(self.linear_time))
            .field_u64("nonlinear_us", saturating_micros(self.nonlinear_time))
            .field_u64("conflict_min_us", saturating_micros(self.conflict_min_time));
        let mut obj = JsonObject::new();
        obj.field_u64("boolean_iterations", self.boolean_iterations)
            .field_u64("theory_checks", self.theory_checks)
            .field_u64("conflicts_fed_back", self.conflicts_fed_back)
            .field_u64("conflict_literals", self.conflict_literals)
            .field_u64("unknown_checks", self.unknown_checks)
            .field_u64("escalated_checks", self.escalated_checks)
            .field_bool("timed_out", self.timed_out)
            .field_bool("cancelled", self.cancelled)
            .field_u64("simplex_pivots", self.simplex_pivots)
            .field_u64("simplex_warm_starts", self.simplex_warm_starts)
            .field_u64("linear_rows_pushed", self.linear_rows_pushed)
            .field_u64("hc4_contractions", self.hc4_contractions)
            .field_u64("bc3_contractions", self.bc3_contractions)
            .field_u64("newton_contractions", self.newton_contractions)
            .field_u64("contraction_cache_hits", self.contraction_cache_hits)
            .field_u64("contraction_cache_misses", self.contraction_cache_misses)
            .field_u64("local_search_steps", self.local_search_steps)
            .field_u64("terms_interned", self.terms_interned)
            .field_u64("term_dedup_hits", self.term_dedup_hits)
            .field_raw("preprocess", &{
                let mut pre = JsonObject::new();
                pre.field_u64("vars_eliminated", self.pre_vars_eliminated)
                    .field_u64("clauses_eliminated", self.pre_clauses_eliminated)
                    .field_u64("atoms_eliminated", self.pre_atoms_eliminated)
                    .field_u64("ranges_tightened", self.pre_ranges_tightened)
                    .field_u64("time_us", saturating_micros(self.preprocess_time));
                pre.finish()
            })
            .field_u64("subsumed_constraints", self.subsumed_constraints)
            .field_u64("components", self.components)
            .field_u64("static_unsat", self.static_unsat)
            .field_raw("phase", &phase.finish())
            .field_u64("elapsed_us", saturating_micros(self.elapsed));
        obj.finish()
    }
}

/// Configuration of the control loop.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Hard cap on Boolean models examined per `solve` call.
    pub max_iterations: u64,
    /// Cap on branch combinations when false multi-constraint definitions
    /// force disjunctive exploration.
    pub max_def_branches: usize,
    /// Theory budgets.
    pub theory: TheoryBudget,
    /// Wall-clock limit per `solve`/`solve_all` call; on expiry the call
    /// returns [`Outcome::Unknown`] (and [`OrchestratorStats::timed_out`]
    /// is set).
    pub time_limit: Option<Duration>,
    /// Read by nothing: the control loop has no theory-verdict cache.
    /// Kept so code that sets it still compiles until the benchmark drops
    /// it.
    pub theory_cache: bool,
}

impl Default for OrchestratorOptions {
    fn default() -> Self {
        OrchestratorOptions {
            max_iterations: 2_000_000,
            max_def_branches: 64,
            theory: TheoryBudget::default(),
            time_limit: None,
            theory_cache: true,
        }
    }
}

/// What one [`crate::session::Session`] check asks of the orchestrator —
/// how much incremental state can be trusted from the previous check.
pub(crate) struct SessionSolveArgs<'a> {
    /// Reload the Boolean solver from the problem CNF and replay
    /// `lemmas`. Set after a pop, a definition change, a reset, or a
    /// previous check whose unknown-projection blockers tainted the
    /// solver's internal learnt clauses.
    pub(crate) reload: bool,
    /// Rebuild the interned per-definition constraint pool (the
    /// definitions changed since the previous check).
    pub(crate) rebuild_defs: bool,
    /// Surviving session lemmas, replayed on reload.
    pub(crate) lemmas: &'a [Vec<Lit>],
    /// Problem clauses appended since the previous check (warm path
    /// only; ignored on reload, where the full CNF is loaded).
    pub(crate) new_clauses: &'a [Clause],
}

/// The theory obligations a Boolean model induces: `fixed` items hold in
/// every branch, `choices` are the disjunctive alternatives of false
/// multi-constraint definitions, and `involved` lists the model's defined
/// literals (item tags index it).
#[derive(Debug)]
struct Obligations {
    fixed: Vec<TheoryItem>,
    choices: Vec<(Lit, Vec<Arc<PreparedConstraint>>)>,
    involved: Vec<Lit>,
}

/// What every theory check of one control-loop run shares.
struct CheckEnv {
    kinds: Vec<VarKind>,
    ranges: Vec<Interval>,
    deadline: Option<Instant>,
}

/// The Boolean models of the current call window whose first theory
/// check was `Unknown`. It outlives each control-loop run, so a
/// [`Orchestrator::solve_all`] enumeration still knows the models its
/// earlier runs blocked.
#[derive(Debug, Default)]
struct Undecided {
    /// Models saved for the second nonlinear pass, in the order they were
    /// blocked, with the obligations their check was built from.
    saved: VecDeque<(Assignment, Obligations)>,
    /// Some model is undecided for good: no backend had a second pass for
    /// it, the second pass was inconclusive too, or (for an enumeration)
    /// models that share a second-pass model's projection were skipped.
    open: bool,
}

/// The ABsolver engine: a Boolean backend, an optional linear backend and
/// a list of nonlinear backends, orchestrated by the lazy-SMT control
/// loop.
#[derive(Debug)]
pub struct Orchestrator {
    boolean: Box<dyn BooleanSolver>,
    linear: Option<Box<dyn LinearBackend>>,
    nonlinear: Vec<Box<dyn NonlinearBackend>>,
    pub(crate) options: OrchestratorOptions,
    pub(crate) stats: OrchestratorStats,
    cancel: Option<Arc<AtomicBool>>,
    pub(crate) deadline: Option<Instant>,
    sink: Arc<dyn TraceSink>,
    /// Prepared per-def constraint pool, rebuilt at each solve entry:
    /// one `Arc` per constraint so per-iteration obligation building
    /// bumps reference counts instead of deep-cloning expression trees,
    /// and checks copy linear rows instead of building them.
    interned: Vec<(Var, Vec<Arc<PreparedConstraint>>)>,
    /// Incremental linear session of the current call (when the linear
    /// backend provides an assertion stack).
    incremental: Option<IncrementalLinear>,
    /// Equisatisfiable pre-pass run by `solve` (not by `solve_all` or
    /// sessions) before the partition.
    preprocessor: Option<Box<dyn ProblemPreprocessor>>,
    /// When `Some`, every theory-conflict blocking clause derived by
    /// `run_loop` is also appended here. Incremental sessions
    /// ([`crate::session::Session`]) drain it after each check to build
    /// their persistent lemma store; `None` (the default) costs nothing.
    session_lemmas: Option<Vec<Vec<Lit>>>,
    /// Undecided Boolean models of the current call window.
    undecided: Undecided,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Orchestrator::with_defaults()
    }
}

impl Orchestrator {
    /// The default stack: CDCL Boolean, exact simplex, interval +
    /// penalty nonlinear cascade.
    pub fn with_defaults() -> Orchestrator {
        Orchestrator {
            boolean: Box::new(CdclBoolean::new()),
            linear: Some(Box::new(SimplexLinear::new())),
            nonlinear: vec![Box::new(CascadeNonlinear::default())],
            options: OrchestratorOptions::default(),
            stats: OrchestratorStats::default(),
            cancel: None,
            deadline: None,
            sink: Arc::new(NullSink),
            interned: Vec::new(),
            incremental: None,
            preprocessor: None,
            session_lemmas: None,
            undecided: Undecided::default(),
        }
    }

    /// Starts from an empty solver stack; push backends with the
    /// `with_*` methods.
    pub fn custom(boolean: Box<dyn BooleanSolver>) -> Orchestrator {
        Orchestrator {
            boolean,
            linear: None,
            nonlinear: Vec::new(),
            options: OrchestratorOptions::default(),
            stats: OrchestratorStats::default(),
            cancel: None,
            deadline: None,
            sink: Arc::new(NullSink),
            interned: Vec::new(),
            incremental: None,
            preprocessor: None,
            session_lemmas: None,
            undecided: Undecided::default(),
        }
    }

    /// Replaces the Boolean backend.
    pub fn with_boolean(mut self, b: Box<dyn BooleanSolver>) -> Orchestrator {
        self.boolean = b;
        self
    }

    /// Sets the linear backend, replacing any earlier one. Without one,
    /// linear checks fall back to a one-shot exact simplex.
    pub fn with_linear(mut self, b: Box<dyn LinearBackend>) -> Orchestrator {
        self.linear = Some(b);
        self
    }

    /// Appends a nonlinear backend (tried after any existing ones).
    pub fn with_nonlinear(mut self, b: Box<dyn NonlinearBackend>) -> Orchestrator {
        self.nonlinear.push(b);
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: OrchestratorOptions) -> Orchestrator {
        self.options = options;
        self
    }

    /// Installs an equisatisfiable preprocessing pass, run by
    /// [`Orchestrator::solve`] before the problem is partitioned. The
    /// concrete simplifier lives in the `absolver-analyze` crate
    /// (`absolver_analyze::Simplifier`); model enumeration
    /// ([`Orchestrator::solve_all`]) deliberately bypasses it, since it
    /// counts models of the *original* problem.
    /// No default path installs one (the simplifier slowed every input
    /// measured); kept because `perfbench` still builds an orchestrator
    /// with it.
    pub fn with_preprocessor(mut self, pass: Box<dyn ProblemPreprocessor>) -> Orchestrator {
        self.preprocessor = Some(pass);
        self
    }

    /// Installs a cooperative cancellation token. When another party sets
    /// it to `true`, the control loop (and the theory engines inside it)
    /// stop at their next check point and the call returns
    /// [`Outcome::Unknown`] with [`OrchestratorStats::cancelled`] set.
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Orchestrator {
        self.set_cancel_token(Some(token));
        self
    }

    /// Installs or clears the cancellation token (see
    /// [`Orchestrator::with_cancel_token`]).
    pub fn set_cancel_token(&mut self, token: Option<Arc<AtomicBool>>) {
        self.cancel = token;
    }

    /// Installs an absolute wall-clock deadline shared across subsequent
    /// calls (parallel shards use this so a per-call `time_limit` cannot
    /// restart the clock on every component). `None` clears it; the
    /// per-call [`OrchestratorOptions::time_limit`] still applies
    /// independently.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a trace sink: every observability event of subsequent
    /// `solve*` calls is emitted through it. Defaults to
    /// [`absolver_trace::NullSink`] (tracing disabled, near-zero cost).
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Orchestrator {
        self.sink = sink;
        self
    }

    /// Installs or replaces the trace sink (see
    /// [`Orchestrator::with_trace_sink`]).
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// The currently installed trace sink.
    pub fn trace_sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink)
    }

    /// Emits a trace event if tracing is enabled. The event is built
    /// lazily so a disabled sink costs only the `enabled()` check.
    pub(crate) fn trace(&self, build: impl FnOnce() -> TraceEvent) {
        if self.sink.enabled() {
            self.sink.emit(&build());
        }
    }

    /// Emits `analyze.partition` for a partition about to be solved.
    pub(crate) fn trace_partition(&self, partition: &Partition) {
        self.trace(|| {
            let sizes = partition
                .sizes()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",");
            TraceEvent::new("analyze.partition")
                .field_u64("components", partition.len() as u64)
                .field("sizes", sizes)
        });
    }

    /// Statistics of the most recent call.
    pub fn stats(&self) -> OrchestratorStats {
        self.stats
    }

    /// Folds the term arena's interning since the snapshot `term0` into
    /// `self.stats` and traces it as `term.intern`. Interning also happens
    /// outside theory checks (parsing, component extraction, the
    /// definition pool), so it is counted by snapshot.
    fn absorb_interning_since(&mut self, term0: (u64, u64)) {
        let (int1, ded1) = absolver_nonlinear::term::local_counters();
        let interned = int1.saturating_sub(term0.0);
        let dedup = ded1.saturating_sub(term0.1);
        self.stats.terms_interned += interned;
        self.stats.term_dedup_hits += dedup;
        if interned + dedup > 0 {
            self.trace(|| {
                let arena = absolver_nonlinear::term::stats();
                TraceEvent::new("term.intern")
                    .field_u64("interned", interned)
                    .field_u64("dedup_hits", dedup)
                    .field_u64("arena_terms", arena.terms as u64)
            });
        }
    }

    /// Rebuilds the prepared per-definition constraint pool
    /// ([`crate::theory::PreparedConstraint`]).
    fn intern_defs(&mut self, problem: &AbProblem) {
        self.interned = prepare_defs(problem);
    }

    /// Per-call setup of the one-shot entry points, timed as the setup
    /// phase: rebuilds the interned constraint pool, opens a fresh
    /// incremental linear session (when the linear backend provides one)
    /// and loads the CNF into the Boolean solver.
    fn prepare_session(&mut self, problem: &AbProblem) {
        self.setup(problem, |orc| {
            orc.intern_defs(problem);
            orc.incremental = orc.make_incremental(problem.arith_vars().len());
            orc.boolean.load(problem.cnf());
        });
    }

    /// A fresh incremental linear session over `num_vars` columns, if the
    /// linear backend provides an assertion stack.
    fn make_incremental(&self, num_vars: usize) -> Option<IncrementalLinear> {
        self.linear
            .as_ref()
            .and_then(|b| b.make_stack(num_vars))
            .map(IncrementalLinear::new)
    }

    /// Solves an AB-problem: the installed preprocessor, if any, then
    /// [`Partition::of`], then one control-loop run for one component or
    /// one per component with the models stitched into one, then the lift
    /// of a preprocessed SAT witness. [`OrchestratorStats::elapsed`] spans
    /// the whole call.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::IterationLimit`] if the Boolean loop exceeds
    /// the configured iteration cap; the cap bounds the whole call, its
    /// components' loops together.
    pub fn solve(&mut self, problem: &AbProblem) -> Result<Outcome, SolveError> {
        let started = Instant::now();
        let pre = self.run_preprocessor(problem);
        let target = match &pre {
            None => problem,
            Some((Preprocessed::Shrunk { problem, .. }, ..)) => problem,
            Some((Preprocessed::TriviallyUnsat { summary }, pre_elapsed, pre_terms)) => {
                self.stats = OrchestratorStats::default();
                self.record_preprocess(summary, *pre_elapsed, *pre_terms);
                self.stats.static_unsat = 1;
                self.stats.elapsed = started.elapsed();
                self.trace(|| {
                    TraceEvent::new("analyze.static_unsat")
                        .field("pass", "preprocess")
                        .duration(*pre_elapsed)
                });
                return Ok(Outcome::Unsat);
            }
        };
        let partition = Partition::of(target);
        self.trace_partition(&partition);
        let outcome = if partition.is_trivial() {
            self.solve_loop(target, absolver_nonlinear::term::local_counters())
        } else {
            crate::parallel::component_loop(self, target, &partition)
        };
        // The control loop resets the stats: the call's own come after.
        self.stats.components = partition.len().max(1) as u64;
        self.stats.elapsed = started.elapsed();
        let Some((
            Preprocessed::Shrunk {
                reconstruction,
                summary,
                ..
            },
            pre_elapsed,
            pre_terms,
        )) = pre
        else {
            return outcome;
        };
        self.record_preprocess(&summary, pre_elapsed, pre_terms);
        match outcome {
            Ok(Outcome::Sat(mut model)) => {
                reconstruction.lift(&mut model);
                Ok(Outcome::Sat(model))
            }
            other => other,
        }
    }

    /// Runs the installed preprocessor on `problem`, traced as
    /// `preprocess.start`/`preprocess.end`, and returns its result, its
    /// duration and the terms it interned (new, deduplicated). `None`
    /// when none is installed.
    fn run_preprocessor(
        &mut self,
        problem: &AbProblem,
    ) -> Option<(Preprocessed, Duration, (u64, u64))> {
        let pass = self.preprocessor.take()?;
        let started = Instant::now();
        self.trace(|| {
            TraceEvent::new("preprocess.start")
                .field("pass", pass.name())
                .field_u64("num_vars", problem.cnf().num_vars() as u64)
                .field_u64("num_clauses", problem.cnf().len() as u64)
                .field_u64("num_defs", problem.num_defs() as u64)
        });
        let term0 = absolver_nonlinear::term::local_counters();
        let result = pass.preprocess(problem);
        let elapsed = started.elapsed();
        let term1 = absolver_nonlinear::term::local_counters();
        let terms = (
            term1.0.saturating_sub(term0.0),
            term1.1.saturating_sub(term0.1),
        );
        self.trace(|| {
            let (label, s) = match &result {
                Preprocessed::Shrunk { summary, .. } => ("shrunk", summary),
                Preprocessed::TriviallyUnsat { summary } => ("trivially-unsat", summary),
            };
            TraceEvent::new("preprocess.end")
                .field("result", label)
                .field_u64("vars_eliminated", s.vars_eliminated)
                .field_u64("clauses_eliminated", s.clauses_eliminated)
                .field_u64("atoms_eliminated", s.atoms_eliminated)
                .field_u64("ranges_tightened", s.ranges_tightened)
                .duration(elapsed)
        });
        self.preprocessor = Some(pass);
        Some((result, elapsed, terms))
    }

    /// Folds a preprocessing pass's effect into the current stats.
    fn record_preprocess(
        &mut self,
        summary: &PreprocessSummary,
        elapsed: Duration,
        terms: (u64, u64),
    ) {
        self.stats.preprocess_time = elapsed;
        self.stats.terms_interned += terms.0;
        self.stats.term_dedup_hits += terms.1;
        self.stats.pre_vars_eliminated = summary.vars_eliminated;
        self.stats.pre_clauses_eliminated = summary.clauses_eliminated;
        self.stats.pre_atoms_eliminated = summary.atoms_eliminated;
        self.stats.pre_ranges_tightened = summary.ranges_tightened;
        self.stats.subsumed_constraints = summary.constraints_subsumed;
    }

    /// The call window every solve entry point runs in: resets the
    /// stats, emits `solve.start` (extended by `start`), runs `body`,
    /// then stamps `elapsed`, folds the interning since the arena
    /// snapshot `term0` into the stats and emits `solve.end` (extended by
    /// `end`). The theory checks in `body` fold their own effort.
    fn call_window<T>(
        &mut self,
        problem: &AbProblem,
        term0: (u64, u64),
        start: impl FnOnce(TraceEvent) -> TraceEvent,
        body: impl FnOnce(&mut Self, Instant) -> T,
        end: impl FnOnce(&T, TraceEvent) -> TraceEvent,
    ) -> T {
        let started = Instant::now();
        self.stats = OrchestratorStats::default();
        self.undecided = Undecided::default();
        self.trace(|| {
            start(
                TraceEvent::new("solve.start")
                    .field_u64("num_vars", problem.cnf().num_vars() as u64)
                    .field_u64("num_defs", problem.defs().count() as u64),
            )
        });
        let out = body(self, started);
        self.stats.elapsed = started.elapsed();
        self.absorb_interning_since(term0);
        self.trace(|| {
            end(&out, TraceEvent::new("solve.end"))
                .field_u64("iterations", self.stats.boolean_iterations)
                .duration(started.elapsed())
        });
        out
    }

    /// Runs a call's setup `work`, timed into
    /// [`OrchestratorStats::setup_time`] and traced as `phase.setup` with
    /// the problem's definition count.
    fn setup<T>(&mut self, problem: &AbProblem, work: impl FnOnce(&mut Self) -> T) -> T {
        let started = Instant::now();
        let out = work(self);
        let elapsed = started.elapsed();
        self.stats.setup_time += elapsed;
        self.trace(|| {
            TraceEvent::new("phase.setup")
                .field_u64("defs", problem.num_defs() as u64)
                .duration(elapsed)
        });
        out
    }

    /// One control-loop run on `problem` as given: no preprocessing, no
    /// partitioning. [`Orchestrator::solve`] and every shard item end here.
    /// Interning since the arena snapshot `term0` counts as the run's.
    pub(crate) fn solve_loop(
        &mut self,
        problem: &AbProblem,
        term0: (u64, u64),
    ) -> Result<Outcome, SolveError> {
        self.call_window(
            problem,
            term0,
            |e| e.field("mode", "solve"),
            |orc, started| {
                orc.prepare_session(problem);
                orc.run_loop(problem, started)
            },
            |outcome, e| e.field("outcome", outcome_label(outcome)),
        )
    }

    /// Runs one check for a persistent [`crate::session::Session`].
    ///
    /// Unlike [`Orchestrator::solve_loop`] this does **not** reset the
    /// incremental machinery: the interned definition pool is rebuilt only
    /// when `args.rebuild_defs` says the definitions changed, and the
    /// simplex assertion stack persists across checks (rebuilt only when
    /// the arithmetic variable count outgrows its columns). The Boolean
    /// solver is kept warm when `args.reload` is false (only
    /// `args.new_clauses` are added); otherwise it is reloaded from the
    /// problem CNF and the
    /// surviving session lemmas are replayed.
    pub(crate) fn session_solve(
        &mut self,
        problem: &AbProblem,
        args: SessionSolveArgs<'_>,
    ) -> Result<Outcome, SolveError> {
        self.call_window(
            problem,
            absolver_nonlinear::term::local_counters(),
            |e| e.field("mode", "session"),
            |orc, started| {
                let trivially_unsat = orc.setup(problem, |orc| {
                    if args.rebuild_defs {
                        orc.intern_defs(problem);
                    }
                    // The assertion stack survives across checks (that is
                    // where the cross-check warm starts come from); rebuild
                    // it only when the arithmetic variable count outgrew its
                    // columns, with headroom so a streaming deepening does
                    // not re-tableau on every step.
                    let num_arith = problem.arith_vars().len();
                    let needs_stack = match &orc.incremental {
                        Some(inc) => inc.stack().num_vars() < num_arith,
                        None => true,
                    };
                    if needs_stack {
                        orc.incremental = orc.make_incremental((num_arith * 2).max(4));
                    }
                    orc.session_lemmas = Some(Vec::new());
                    if args.reload {
                        orc.boolean.load(problem.cnf());
                        args.lemmas
                            .iter()
                            .any(|lemma| !orc.boolean.add_clause(lemma))
                    } else {
                        orc.boolean.reserve_vars(problem.cnf().num_vars());
                        args.new_clauses
                            .iter()
                            .any(|c| !orc.boolean.add_clause(c.lits()))
                    }
                });
                if trivially_unsat {
                    // A clause (or replayed lemma) already contradicts the
                    // formula at the root — sound, because lemmas are
                    // implied by the definitions they mention.
                    Ok(Outcome::Unsat)
                } else {
                    orc.run_loop(problem, started)
                }
            },
            |outcome, e| e.field("outcome", outcome_label(outcome)),
        )
    }

    /// Drains the theory-conflict clauses captured during the last
    /// [`Orchestrator::session_solve`] call (and disables capture until
    /// the next one).
    pub(crate) fn take_session_lemmas(&mut self) -> Vec<Vec<Lit>> {
        self.session_lemmas.take().unwrap_or_default()
    }

    /// Enumerates models of an AB-problem, up to `max_models`. Models are
    /// distinct as *full Boolean assignments*: the blocking clause added
    /// after each model projects on **all** Boolean variables, free
    /// skeleton variables included. Two enumerated models may therefore
    /// share their theory-literal projection (and arithmetic witness)
    /// while differing only on a free variable.
    ///
    /// Alongside the models comes the outcome the enumeration ended on:
    /// [`Outcome::Unsat`] when no further model exists,
    /// [`Outcome::Unknown`] when a check was inconclusive (time limit,
    /// cancellation, or a theory budget; more models may exist), and
    /// [`Outcome::Sat`] with the last model when `max_models` was reached.
    /// A Boolean model whose first check was inconclusive is revisited
    /// with the second nonlinear pass once the others run out, in any of
    /// the enumeration's control-loop runs; if it stays undecided, the
    /// end is [`Outcome::Unknown`].
    /// With `max_models == 0` nothing is examined and the end is
    /// [`Outcome::Unknown`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::IterationLimit`] if the Boolean loop exceeds
    /// the configured iteration cap.
    pub fn solve_all(
        &mut self,
        problem: &AbProblem,
        max_models: usize,
    ) -> Result<(Vec<AbModel>, Outcome), SolveError> {
        self.call_window(
            problem,
            absolver_nonlinear::term::local_counters(),
            |e| e.field("mode", "solve_all"),
            |orc, started| {
                orc.prepare_session(problem);
                let mut models = Vec::new();
                // Project on all Boolean variables so distinct Boolean
                // models are enumerated (theory atoms and skeleton alike).
                let all_vars: Vec<Var> = (0..problem.cnf().num_vars())
                    .map(|i| Var::new(i as u32))
                    .collect();
                let mut end = Outcome::Unknown;
                // Set once blocking a model leaves no Boolean model: from
                // then on only the saved models can still yield one.
                let mut exhausted = false;
                while models.len() < max_models {
                    end = if exhausted {
                        let env = orc.check_env(problem, started);
                        orc.settle_saved(problem, &env)
                    } else {
                        orc.run_loop(problem, started)?
                    };
                    let Outcome::Sat(model) = &end else {
                        break;
                    };
                    let blocking: Vec<Lit> = all_vars
                        .iter()
                        .filter_map(|&v| match model.boolean.value(v) {
                            Tri::True => Some(v.negative()),
                            Tri::False => Some(v.positive()),
                            Tri::Unknown => None,
                        })
                        .collect();
                    models.push((**model).clone());
                    if blocking.is_empty() || !orc.boolean.add_clause(&blocking) {
                        exhausted = true;
                    }
                }
                if exhausted && end.is_sat() && orc.undecided.saved.is_empty() {
                    // The cap and the last model coincide, and no saved
                    // model is left to try: the enumeration is over.
                    let env = orc.check_env(problem, started);
                    end = orc.settle_saved(problem, &env);
                }
                Ok((models, end))
            },
            |result, e| {
                e.field("outcome", "solve_all").field_u64(
                    "models",
                    result.as_ref().map_or(0, |(models, _)| models.len()) as u64,
                )
            },
        )
    }

    /// The wall-clock deadline of a call that started at `started`: the
    /// earlier of the per-call `time_limit` and any installed absolute
    /// deadline.
    fn effective_deadline(&self, started: Instant) -> Option<Instant> {
        earliest(
            self.options.time_limit.map(|limit| started + limit),
            self.deadline,
        )
    }

    /// True once the cancellation token has been set by another party.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|token| token.load(Ordering::Relaxed))
    }

    /// What the theory checks of a call that started at `started` share.
    fn check_env(&self, problem: &AbProblem, started: Instant) -> CheckEnv {
        CheckEnv {
            kinds: problem.arith_vars().iter().map(|v| v.kind).collect(),
            ranges: problem.arith_vars().iter().map(|v| v.range).collect(),
            deadline: self.effective_deadline(started),
        }
    }

    fn run_loop(&mut self, problem: &AbProblem, started: Instant) -> Result<Outcome, SolveError> {
        let env = self.check_env(problem, started);
        // Let the nonlinear engines poll the token/deadline mid-search —
        // a 10-million-box branch-and-prune must not outlive the wall clock.
        for backend in self.nonlinear.iter_mut() {
            backend.set_interrupt(self.cancel.clone(), env.deadline);
        }

        // Every exit below that finds the Boolean side out of models
        // settles the saved models first (`settle_saved`).
        loop {
            if self.stats.boolean_iterations >= self.options.max_iterations {
                return Err(SolveError::IterationLimit(self.options.max_iterations));
            }
            if self.is_cancelled() {
                self.stats.cancelled = true;
                return Ok(Outcome::Unknown);
            }
            if let Some(deadline) = env.deadline {
                if Instant::now() >= deadline {
                    self.stats.timed_out = true;
                    return Ok(Outcome::Unknown);
                }
            }
            let bool_started = Instant::now();
            let model = self.boolean.next_model();
            self.stats.boolean_time += bool_started.elapsed();
            let Some(model) = model else {
                return Ok(self.settle_saved(problem, &env));
            };
            self.stats.boolean_iterations += 1;
            self.trace(|| {
                TraceEvent::new("boolean.model")
                    .field_u64("iteration", self.stats.boolean_iterations)
                    .duration(bool_started.elapsed())
            });

            let obligations = self.obligations(&model);
            let (verdict, escalable) = self.theory_check(problem, &obligations, &env, false);
            match verdict {
                TheoryVerdict::Sat(arith) => {
                    return Ok(Outcome::Sat(Box::new(AbModel {
                        boolean: model,
                        arith,
                    })));
                }
                TheoryVerdict::Unsat(tags) => {
                    // Blocking clause: ¬(conjunction of conflicting literals).
                    let clause: Vec<Lit> = tags.iter().map(|&t| !obligations.involved[t]).collect();
                    self.stats.conflicts_fed_back += 1;
                    self.stats.conflict_literals += clause.len() as u64;
                    self.trace(|| {
                        TraceEvent::new("conflict").field_u64("literals", clause.len() as u64)
                    });
                    if let Some(log) = &mut self.session_lemmas {
                        log.push(clause.clone());
                    }
                    if !self.boolean.add_clause(&clause) {
                        return Ok(self.settle_saved(problem, &env));
                    }
                }
                TheoryVerdict::Unknown => {
                    self.stats.unknown_checks += 1;
                    // An Unknown caused by interruption is not a solver
                    // limitation: stop here and attribute it, rather than
                    // blocking the model and looping on a dead clock.
                    if self.is_cancelled() {
                        self.stats.cancelled = true;
                        return Ok(Outcome::Unknown);
                    }
                    if env.deadline.is_some_and(|d| Instant::now() >= d) {
                        self.stats.timed_out = true;
                        return Ok(Outcome::Unknown);
                    }
                    // Cannot decide this Boolean model now: block its full
                    // theory projection and move on. The model is saved for
                    // the second pass when one exists; otherwise the final
                    // verdict can be at best Unknown.
                    let clause: Vec<Lit> = obligations.involved.iter().map(|&l| !l).collect();
                    if escalable {
                        self.undecided.saved.push_back((model, obligations));
                    } else {
                        self.undecided.open = true;
                    }
                    if clause.is_empty() || !self.boolean.add_clause(&clause) {
                        return Ok(self.settle_saved(problem, &env));
                    }
                }
            }
        }
    }

    /// The theory obligations a Boolean model induces, out of the interned
    /// pool (`Arc` bumps, no expression clones).
    fn obligations(&self, model: &Assignment) -> Obligations {
        let mut ob = Obligations {
            fixed: Vec::new(),
            choices: Vec::new(),
            involved: Vec::new(),
        };
        for (var, constraints) in &self.interned {
            match model.value(*var) {
                Tri::True => {
                    ob.involved.push(var.positive());
                    let tag = ob.involved.len() - 1;
                    for c in constraints {
                        ob.fixed.push(TheoryItem {
                            tag,
                            constraint: Arc::clone(c),
                            positive: true,
                        });
                    }
                }
                Tri::False => {
                    ob.involved.push(var.negative());
                    let tag = ob.involved.len() - 1;
                    if constraints.len() == 1 {
                        ob.fixed.push(TheoryItem {
                            tag,
                            constraint: Arc::clone(&constraints[0]),
                            positive: false,
                        });
                    } else {
                        // ¬(c₁ ∧ … ∧ cₖ): at least one must fail.
                        ob.choices.push((var.negative(), constraints.clone()));
                    }
                }
                Tri::Unknown => {}
            }
        }
        ob
    }

    /// One theory check of a Boolean model — the first pass, or with
    /// `escalate` the second. Emits `theory.check`. Returns the verdict
    /// and whether a second pass may settle it if it is `Unknown`.
    fn theory_check(
        &mut self,
        problem: &AbProblem,
        ob: &Obligations,
        env: &CheckEnv,
        escalate: bool,
    ) -> (TheoryVerdict, bool) {
        let started = Instant::now();
        let (verdict, escalable) = self.check_with_choices(problem, ob, env, escalate);
        self.trace(|| {
            let label = match &verdict {
                TheoryVerdict::Sat(_) => "sat",
                TheoryVerdict::Unsat(_) => "unsat",
                TheoryVerdict::Unknown => "unknown",
            };
            TraceEvent::new("theory.check")
                .field("verdict", label)
                .field_u64("obligations", ob.fixed.len() as u64)
                .field("pass", if escalate { "refute" } else { "probe" })
                .duration(started.elapsed())
        });
        (verdict, escalable)
    }

    /// The Boolean side has no more models. Gives the models saved for
    /// the second pass that pass, in the order they were blocked, with
    /// the deadline and the cancellation token checked between checks,
    /// and answers: the first model that turns out `sat`; otherwise
    /// `unknown` if some model is still undecided, else `unsat`.
    fn settle_saved(&mut self, problem: &AbProblem, env: &CheckEnv) -> Outcome {
        while let Some((model, ob)) = self.undecided.saved.pop_front() {
            if self.is_cancelled() {
                self.stats.cancelled = true;
                return Outcome::Unknown;
            }
            if env.deadline.is_some_and(|d| Instant::now() >= d) {
                self.stats.timed_out = true;
                return Outcome::Unknown;
            }
            self.stats.escalated_checks += 1;
            match self.theory_check(problem, &ob, env, true).0 {
                TheoryVerdict::Sat(arith) => {
                    // The first pass blocked this model's whole theory
                    // projection, so Boolean models that share it but
                    // differ elsewhere were never visited: an enumeration
                    // that goes on past this model is incomplete.
                    if ob.involved.len() < problem.cnf().num_vars() {
                        self.undecided.open = true;
                    }
                    return Outcome::Sat(Box::new(AbModel {
                        boolean: model,
                        arith,
                    }));
                }
                TheoryVerdict::Unsat(_) => {}
                TheoryVerdict::Unknown => {
                    self.stats.unknown_checks += 1;
                    self.undecided.open = true;
                }
            }
        }
        if self.undecided.open {
            Outcome::Unknown
        } else {
            Outcome::Unsat
        }
    }

    /// Checks the theory obligations, exploring the disjunctive choices
    /// from false multi-constraint definitions. Returns the verdict and
    /// whether a second pass may settle it if it is `Unknown`.
    fn check_with_choices(
        &mut self,
        problem: &AbProblem,
        ob: &Obligations,
        env: &CheckEnv,
        escalate: bool,
    ) -> (TheoryVerdict, bool) {
        // Branch count = Π |choiceᵢ|; refuse pathological blow-ups.
        let mut combos: usize = 1;
        for (_, alts) in &ob.choices {
            combos = combos.saturating_mul(alts.len());
            if combos > self.options.max_def_branches {
                return (TheoryVerdict::Unknown, false);
            }
        }

        let mut conflict_union: Vec<usize> = Vec::new();
        let mut any_unknown = false;
        let mut escalable = false;
        for combo in 0..combos.max(1) {
            // Only a choice adds items: without one, check the fixed list.
            let items: Cow<'_, [TheoryItem]> = if ob.choices.is_empty() {
                Cow::Borrowed(&ob.fixed)
            } else {
                let mut items = ob.fixed.clone();
                let mut rest = combo;
                for (lit, alts) in &ob.choices {
                    let pick = rest % alts.len();
                    rest /= alts.len();
                    let tag = ob
                        .involved
                        .iter()
                        .position(|l| l == lit)
                        .expect("choice literal is involved");
                    items.push(TheoryItem {
                        tag,
                        constraint: Arc::clone(&alts[pick]),
                        positive: false,
                    });
                }
                Cow::Owned(items)
            };
            self.stats.theory_checks += 1;
            let mut budget = self.options.theory.clone();
            budget.deadline = env.deadline;
            budget.cancel = self.cancel.clone();
            let sink: Option<&dyn TraceSink> = if self.sink.enabled() {
                Some(&*self.sink)
            } else {
                None
            };
            let mut ctx = TheoryContext {
                num_vars: problem.arith_vars().len(),
                kinds: &env.kinds,
                ranges: &env.ranges,
                linear: self
                    .linear
                    .as_deref_mut()
                    .map(|b| b as &mut dyn LinearBackend),
                nonlinear: &mut self.nonlinear,
                budget,
                effort: CheckEffort::default(),
                sink,
                incremental: self.incremental.as_mut(),
                escalate,
                escalable: false,
            };
            let verdict = check(&items, &mut ctx);
            escalable |= ctx.escalable;
            let effort = ctx.effort;
            self.stats.linear_time += effort.linear_time;
            self.stats.nonlinear_time += effort.nonlinear_time;
            self.stats.simplex_pivots += effort.pivots;
            self.stats.simplex_warm_starts += effort.warm_starts;
            self.stats.linear_rows_pushed += effort.pushed_rows;
            self.stats.hc4_contractions += effort.search.hc4_contractions;
            self.stats.bc3_contractions += effort.search.bc3_contractions;
            self.stats.newton_contractions += effort.search.newton_contractions;
            self.stats.local_search_steps += effort.search.local_search_steps;
            match verdict {
                TheoryVerdict::Sat(m) => return (TheoryVerdict::Sat(m), false),
                TheoryVerdict::Unknown => any_unknown = true,
                TheoryVerdict::Unsat(tags) => conflict_union.extend(tags),
            }
        }
        if any_unknown {
            (TheoryVerdict::Unknown, escalable)
        } else {
            conflict_union.sort_unstable();
            conflict_union.dedup();
            (TheoryVerdict::Unsat(conflict_union), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{PenaltyNonlinear, RestartingBoolean};
    use absolver_linear::CmpOp;
    use absolver_nonlinear::Expr;
    use absolver_num::Rational;

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    const PAPER_EXAMPLE: &str = "\
p cnf 4 3
1 0
-2 3 0
4 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
c range a -10 10
c range x -10 10
c range y -10 10
";

    #[test]
    fn solves_paper_example() {
        let problem: AbProblem = PAPER_EXAMPLE.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        let outcome = orc.solve(&problem).unwrap();
        let model = outcome.model().expect("satisfiable");
        assert!(model.satisfies(&problem, 1e-6), "model must check out");
        assert!(orc.stats().boolean_iterations >= 1);
    }

    #[test]
    fn pure_boolean_problem() {
        // No definitions: behaves exactly like a SAT solver.
        let problem: AbProblem = "p cnf 2 2\n1 2 0\n-1 -2 0\n".parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&problem).unwrap().is_sat());
        let unsat: AbProblem = "p cnf 1 2\n1 0\n-1 0\n".parse().unwrap();
        assert!(orc.solve(&unsat).unwrap().is_unsat());
    }

    #[test]
    fn theory_conflict_forces_unsat() {
        // Both atoms asserted, but x ≥ 5 ∧ x ≤ 3 is linearly impossible.
        let text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 5\nc def real 2 x <= 3\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&problem).unwrap().is_unsat());
        assert!(orc.stats().conflicts_fed_back >= 1);
    }

    #[test]
    fn boolean_escape_hatch() {
        // (a ∨ b) with a: x ≥ 5, b: x ≤ 3 — each alone is satisfiable; and
        // even a ∧ ¬b works (x = 7 > 3). The solver must find some
        // consistent combination.
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 5\nc def real 2 x <= 3\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        let outcome = orc.solve(&problem).unwrap();
        let model = outcome.model().expect("satisfiable");
        assert!(model.satisfies(&problem, 1e-6));
    }

    #[test]
    fn negated_equality_splits() {
        // Unit ¬a with a: x = 2, plus b: 1 ≤ x ≤ 3 forced true.
        let mut b = AbProblem::builder();
        let x = b.arith_var("x", VarKind::Real);
        let a = b.atom(Expr::var(x), CmpOp::Eq, q(2));
        let lo = b.atom(Expr::var(x), CmpOp::Ge, q(1));
        let hi = b.atom(Expr::var(x), CmpOp::Le, q(3));
        b.require(a.negative());
        b.require(lo.positive());
        b.require(hi.positive());
        let problem = b.build();
        let mut orc = Orchestrator::with_defaults();
        let outcome = orc.solve(&problem).unwrap();
        let model = outcome.model().expect("x ∈ [1,3] \\ {2} is nonempty");
        assert!(model.satisfies(&problem, 1e-9));
    }

    #[test]
    fn integer_vs_real_semantics() {
        // 1 < x < 2 has a real solution but no integer one.
        let real_text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x > 1\nc def real 2 x < 2\n";
        let int_text = "p cnf 2 2\n1 0\n2 0\nc def int 1 x > 1\nc def int 2 x < 2\n";
        let mut orc = Orchestrator::with_defaults();
        let real_problem: AbProblem = real_text.parse().unwrap();
        assert!(orc.solve(&real_problem).unwrap().is_sat());
        let int_problem: AbProblem = int_text.parse().unwrap();
        assert!(orc.solve(&int_problem).unwrap().is_unsat());
    }

    #[test]
    fn nonlinear_unsat_is_proved() {
        // x² ≤ -1 within a bounded range: interval engine proves UNSAT.
        let text = "p cnf 1 1\n1 0\nc def real 1 x^2 <= -1\nc range x -50 50\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&problem).unwrap().is_unsat());
    }

    #[test]
    fn false_conjunction_definition_branches() {
        // v ⇔ (x ≥ 0 ∧ x ≤ 10), ¬v forced, x = 20 consistent via x > 10.
        let mut b = AbProblem::builder();
        let x = b.arith_var("x", VarKind::Real);
        let v = b.atom(Expr::var(x), CmpOp::Ge, q(0));
        b.define(
            v,
            absolver_nonlinear::NlConstraint::new(Expr::var(x), CmpOp::Le, q(10)),
        );
        let pin = b.atom(Expr::var(x), CmpOp::Ge, q(15));
        b.require(v.negative());
        b.require(pin.positive());
        let problem = b.build();
        let mut orc = Orchestrator::with_defaults();
        let outcome = orc.solve(&problem).unwrap();
        let model = outcome.model().expect("x ≥ 15 falsifies the conjunction");
        assert!(model.satisfies(&problem, 1e-9));
    }

    #[test]
    fn false_conjunction_definition_unsat() {
        // v ⇔ (x ≥ 0 ∧ x ≤ 10), ¬v forced, but 3 ≤ x ≤ 4 forced too.
        let mut b = AbProblem::builder();
        let x = b.arith_var("x", VarKind::Real);
        let v = b.atom(Expr::var(x), CmpOp::Ge, q(0));
        b.define(
            v,
            absolver_nonlinear::NlConstraint::new(Expr::var(x), CmpOp::Le, q(10)),
        );
        let lo = b.atom(Expr::var(x), CmpOp::Ge, q(3));
        let hi = b.atom(Expr::var(x), CmpOp::Le, q(4));
        b.require(v.negative());
        b.require(lo.positive());
        b.require(hi.positive());
        let problem = b.build();
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&problem).unwrap().is_unsat());
    }

    #[test]
    fn solve_all_enumerates_boolean_models() {
        // Two free atoms over a generous range: x ≥ 0 and x ≤ 100 — of the
        // 4 Boolean combinations, (¬(x≥0) ∧ ¬(x≤100)) is theory-impossible.
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 0\nc def real 2 x <= 100\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        let (models, end) = orc.solve_all(&problem, usize::MAX).unwrap();
        assert_eq!(models.len(), 3);
        assert!(end.is_unsat(), "enumeration must end exhausted");
        for m in &models {
            assert!(m.satisfies(&problem, 1e-9));
        }
    }

    #[test]
    fn solve_all_blocks_on_all_boolean_vars() {
        // One defined atom plus one *free* skeleton variable under
        // (1 ∨ 2): enumeration is over full Boolean assignments (see the
        // doc), so the free variable contributes distinct models —
        // (T,T), (T,F), (F,T) — even though only two theory projections
        // exist.
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 0\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        let (models, _) = orc.solve_all(&problem, usize::MAX).unwrap();
        assert_eq!(models.len(), 3);
        for m in &models {
            assert!(m.satisfies(&problem, 1e-9));
        }
    }

    #[test]
    fn warm_starts_are_counted() {
        // 2x + 3y = 1 over integers in [0, 1]: branch-and-bound re-checks
        // the stack at every node (the multi-variable row keeps branch
        // bounds from conflicting at assert time), so every check after
        // the first warm-starts the session. The coefficients are coprime,
        // so strengthening the row leaves it as it is.
        let mut b = AbProblem::builder();
        let x = b.arith_var("x", VarKind::Int);
        let y = b.arith_var("y", VarKind::Int);
        let sum = b.atom(
            Expr::int(2) * Expr::var(x) + Expr::int(3) * Expr::var(y),
            CmpOp::Eq,
            q(1),
        );
        let atoms = [
            sum,
            b.atom(Expr::var(x), CmpOp::Ge, q(0)),
            b.atom(Expr::var(x), CmpOp::Le, q(1)),
            b.atom(Expr::var(y), CmpOp::Ge, q(0)),
            b.atom(Expr::var(y), CmpOp::Le, q(1)),
        ];
        for a in atoms {
            b.require(a.positive());
        }
        let problem = b.build();
        let mut orc = Orchestrator::with_defaults();
        assert!(orc.solve(&problem).unwrap().is_unsat());
        assert!(orc.stats().simplex_warm_starts >= 1);
    }

    #[test]
    fn solve_all_respects_cap() {
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 0\nc def real 2 x <= 100\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        let (models, end) = orc.solve_all(&problem, 2).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(
            end.model(),
            models.last(),
            "a capped run ends on its last model"
        );
    }

    #[test]
    fn restarting_backend_produces_same_verdicts() {
        let problem: AbProblem = PAPER_EXAMPLE.parse().unwrap();
        let mut orc =
            Orchestrator::with_defaults().with_boolean(Box::new(RestartingBoolean::new()));
        let outcome = orc.solve(&problem).unwrap();
        assert!(outcome.model().unwrap().satisfies(&problem, 1e-6));
    }

    #[test]
    fn penalty_only_cannot_prove_unsat() {
        // With only the numerical IPOPT stand-in, an UNSAT nonlinear core
        // yields Unknown, not Unsat — faithful to a local solver's limits.
        let text = "p cnf 1 1\n1 0\nc def real 1 x^2 <= -1\nc range x -50 50\n";
        let problem: AbProblem = text.parse().unwrap();
        let mut orc = Orchestrator::custom(Box::new(CdclBoolean::new()))
            .with_linear(Box::new(SimplexLinear::new()))
            .with_nonlinear(Box::new(PenaltyNonlinear::default()));
        assert_eq!(orc.solve(&problem).unwrap(), Outcome::Unknown);
    }

    #[test]
    fn iteration_limit_errors() {
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x >= 0\nc def real 2 x <= 100\n";
        let problem: AbProblem = text.parse().unwrap();
        let opts = OrchestratorOptions {
            max_iterations: 0,
            ..Default::default()
        };
        let mut orc = Orchestrator::with_defaults().with_options(opts);
        assert_eq!(orc.solve(&problem), Err(SolveError::IterationLimit(0)));
    }

    #[test]
    fn stats_display() {
        let problem: AbProblem = "p cnf 1 1\n1 0\n".parse().unwrap();
        let mut orc = Orchestrator::with_defaults();
        orc.solve(&problem).unwrap();
        let s = format!("{}", orc.stats());
        assert!(s.contains("iterations=1"));
    }
}

#[cfg(test)]
mod time_limit_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn zero_time_limit_returns_unknown() {
        let problem: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 0\n".parse().unwrap();
        let opts = OrchestratorOptions {
            time_limit: Some(Duration::ZERO),
            ..Default::default()
        };
        let mut orc = Orchestrator::with_defaults().with_options(opts);
        assert_eq!(orc.solve(&problem).unwrap(), Outcome::Unknown);
        assert!(orc.stats().timed_out);
    }

    #[test]
    fn generous_time_limit_does_not_interfere() {
        let problem: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 0\n".parse().unwrap();
        let opts = OrchestratorOptions {
            time_limit: Some(Duration::from_secs(3600)),
            ..Default::default()
        };
        let mut orc = Orchestrator::with_defaults().with_options(opts);
        assert!(orc.solve(&problem).unwrap().is_sat());
        assert!(!orc.stats().timed_out);
    }
}
