//! Nonlinear feasibility solving: interval branch-and-prune plus a
//! multistart local search.
//!
//! ABsolver delegates nonlinear conjunctions to IPOPT, a numerical
//! interior-point solver that either finds a feasible point or gives up.
//! This reproduction pairs two complementary engines behind one facade:
//!
//! * [`branch_and_prune`] — a rigorous interval method (HC4 propagation +
//!   bisection). It can *prove* infeasibility on a bounded box, which a
//!   numerical solver never can, and certifies satisfiability when a whole
//!   sub-box is feasible.
//! * [`local_search`] — multistart projected gradient descent on a penalty
//!   function, the IPOPT-like workhorse that quickly digs out a feasible
//!   point of satisfiable instances.
//!
//! They compose into two passes. [`NlProblem::probe`] is the cheap one: a
//! box search capped at [`PROBE_BOXES`] boxes, then the local search.
//! [`NlProblem::solve`] is the full one: the box search under the whole
//! budget, then the local search. The orchestrator probes every Boolean
//! model first and gives the full check only to the models still open once
//! the Boolean side has no more models.

use crate::cascade::{ActiveSet, Cascade, ContractorConfig};
use crate::constraint::{holds_robust, violation, IntervalVerdict, NlConstraint};
use crate::hc4::Contraction;
use crate::term::{self, TermId};
use absolver_linear::CmpOp;
use absolver_num::Interval;

/// Search-effort counters of one [`branch_and_prune_stats`] run, or of
/// one [`NlProblem::probe`] or [`NlProblem::solve_with_stats`] (box search
/// and local search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NlSearchStats {
    /// Boxes popped off the branch-and-prune stack.
    pub boxes_explored: u64,
    /// HC4 revise calls that actually narrowed (or emptied) a domain.
    pub hc4_contractions: u64,
    /// BC3 shaving passes that narrowed (or emptied) a domain.
    pub bc3_contractions: u64,
    /// Interval-Newton passes that narrowed (or emptied) a domain.
    pub newton_contractions: u64,
    /// Descent steps the [`local_search`] ran.
    pub local_search_steps: u64,
}

impl NlSearchStats {
    /// Adds `other`'s counts to these: a cascade engine's to its run's,
    /// or one backend call's to its theory check's.
    pub fn add(&mut self, other: &NlSearchStats) {
        self.boxes_explored += other.boxes_explored;
        self.hc4_contractions += other.hc4_contractions;
        self.bc3_contractions += other.bc3_contractions;
        self.newton_contractions += other.newton_contractions;
        self.local_search_steps += other.local_search_steps;
    }
}

/// Verdict of a nonlinear feasibility query.
#[derive(Debug, Clone, PartialEq)]
pub enum NlVerdict {
    /// A feasible point was found (satisfaction per [`NlConstraint::eval_with_tol`]).
    Sat(Vec<f64>),
    /// Proven infeasible over the given variable bounds (rigorous).
    Unsat,
    /// Neither a witness nor a proof within budget.
    Unknown,
}

impl NlVerdict {
    /// Returns `true` for [`NlVerdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, NlVerdict::Sat(_))
    }

    /// The witness, if SAT.
    pub fn witness(&self) -> Option<&[f64]> {
        match self {
            NlVerdict::Sat(w) => Some(w),
            _ => None,
        }
    }
}

/// Tuning knobs for the nonlinear engines.
#[derive(Debug, Clone)]
pub struct NlOptions {
    /// Maximum number of boxes the branch-and-prune search may explore.
    pub max_boxes: usize,
    /// Box-width threshold below which branch-and-prune stops splitting.
    pub min_width: f64,
    /// Number of multistart attempts of the local search.
    pub restarts: usize,
    /// Gradient-descent iterations per restart.
    pub iterations: usize,
    /// Satisfaction tolerance for witnesses (see [`NlConstraint::eval_with_tol`]).
    pub tolerance: f64,
    /// Interior margin used to steer strict inequalities off their boundary.
    pub strict_margin: f64,
    /// Seed for the deterministic multistart sampler.
    pub seed: u64,
    /// Cooperative cancellation token: once it reads `true`, the engines
    /// abandon the search at their next check point and report `Unknown`.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Wall-clock deadline: past it, the engines abandon the search at
    /// their next check point and report `Unknown`.
    pub deadline: Option<std::time::Instant>,
    /// Which contractors the cascade runs (HC4 is always on; BC3 and
    /// Newton default on).
    pub contractors: ContractorConfig,
    /// Read by nothing: the cascade has no contraction cache. Kept so
    /// code that sets it still compiles until the benchmark drops it.
    pub contraction_cache: bool,
    /// Worker threads for the box search. `1` (the default) keeps the
    /// deterministic sequential depth-first exploration.
    pub nl_jobs: usize,
}

impl NlOptions {
    /// Returns `true` when the cancel token is set or the deadline has
    /// passed. Polled periodically inside the engine loops so that a
    /// single large budget cannot block a caller past its wall clock.
    pub fn interrupted(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return true;
            }
        }
        false
    }
}

impl Default for NlOptions {
    fn default() -> Self {
        NlOptions {
            max_boxes: 20_000,
            min_width: 1e-6,
            restarts: 40,
            iterations: 400,
            tolerance: 1e-6,
            strict_margin: 1e-7,
            seed: 0x5EED_AB50,
            cancel: None,
            deadline: None,
            contractors: ContractorConfig::default(),
            contraction_cache: true,
            nl_jobs: 1,
        }
    }
}

/// A conjunction of nonlinear constraints over box-bounded variables.
#[derive(Debug, Clone, Default)]
pub struct NlProblem {
    /// The constraints (conjunction).
    pub constraints: Vec<NlConstraint>,
    /// Per-variable domains. Defaults to [`Interval::ENTIRE`] for variables
    /// not covered.
    pub bounds: Vec<Interval>,
}

impl NlProblem {
    /// Creates a problem over `num_vars` unbounded variables.
    pub fn new(num_vars: usize) -> NlProblem {
        NlProblem {
            constraints: Vec::new(),
            bounds: vec![Interval::ENTIRE; num_vars],
        }
    }

    /// Adds a constraint, growing the variable count as needed.
    pub fn add_constraint(&mut self, c: NlConstraint) {
        if let Some(max) = c.max_var() {
            while self.bounds.len() <= max {
                self.bounds.push(Interval::ENTIRE);
            }
        }
        self.constraints.push(c);
    }

    /// Restricts variable `v`'s domain (intersecting any existing bound).
    pub fn bound_var(&mut self, v: usize, bounds: Interval) {
        while self.bounds.len() <= v {
            self.bounds.push(Interval::ENTIRE);
        }
        self.bounds[v] = self.bounds[v].intersect(bounds);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.bounds.len()
    }

    /// Returns `true` if `point` satisfies every constraint: inequalities
    /// exactly (in `f64`), equalities within `eq_tol` (see
    /// [`NlConstraint::eval_robust`]).
    pub fn is_satisfied(&self, point: &[f64], eq_tol: f64) -> bool {
        self.constraints
            .iter()
            .all(|c| c.eval_robust(point, eq_tol))
    }

    /// Solves the feasibility problem with the default engine cascade:
    /// branch-and-prune under the full budget first (possibly proving
    /// UNSAT), then the local search for stubborn SAT instances.
    pub fn solve(&self) -> NlVerdict {
        self.solve_with(&NlOptions::default())
    }

    /// Solves with explicit options.
    pub fn solve_with(&self, opts: &NlOptions) -> NlVerdict {
        self.solve_with_stats(opts).0
    }

    /// Like [`NlProblem::solve_with`], but also reports the search-effort
    /// counters of the branch-and-prune stage.
    pub fn solve_with_stats(&self, opts: &NlOptions) -> (NlVerdict, NlSearchStats) {
        self.search_then_local(opts, opts.max_boxes)
    }

    /// The cheap witness pass: [`NlProblem::solve_with_stats`] with the
    /// box search capped at [`PROBE_BOXES`] boxes (or `opts.max_boxes`, if
    /// smaller). Decides the problems a short search proves or refutes and
    /// the satisfiable ones the local search digs out; everything else is
    /// left `Unknown` for the full check.
    pub fn probe(&self, opts: &NlOptions) -> (NlVerdict, NlSearchStats) {
        self.search_then_local(opts, opts.max_boxes.min(PROBE_BOXES))
    }

    /// The box search under `max_boxes` boxes, with the stagnation cutoff
    /// armed, then, if that search is inconclusive, the [`local_search`].
    fn search_then_local(&self, opts: &NlOptions, max_boxes: usize) -> (NlVerdict, NlSearchStats) {
        let (mut verdict, mut stats) = branch_and_prune_inner(self, opts, max_boxes, true);
        if verdict == NlVerdict::Unknown {
            let (witness, steps) = local_search(self, opts);
            stats.local_search_steps = steps;
            if let Some(point) = witness {
                verdict = NlVerdict::Sat(point);
            }
        }
        (verdict, stats)
    }
}

/// Box cap of the [`NlProblem::probe`] pass: a short box search settles
/// shallow refutations and wide feasible boxes, and leaves the rest to
/// the local search and the full check. Steering runs fastest at 64 of
/// the caps measured (64, 256, 1024), and across the test suite, Table 1
/// and the bench workloads no model is refuted between 65 and 256 boxes
/// (EXPERIMENTS.md).
pub const PROBE_BOXES: usize = 64;

/// Clamps a (possibly unbounded) domain to a finite sampling range.
fn sampling_interval(iv: Interval) -> (f64, f64) {
    const BIG: f64 = 1.0e4;
    let lo = if iv.lo().is_finite() { iv.lo() } else { -BIG };
    let hi = if iv.hi().is_finite() { iv.hi() } else { BIG };
    if lo <= hi {
        (lo, hi)
    } else {
        (hi, lo)
    }
}

/// Rigorous interval branch-and-prune.
///
/// Returns [`NlVerdict::Unsat`] only with a proof (every leaf box refuted
/// by interval arithmetic); [`NlVerdict::Sat`] when a point check or a
/// certainly-true box yields a witness; [`NlVerdict::Unknown`] when the
/// box budget or width threshold is hit first.
pub fn branch_and_prune(problem: &NlProblem, opts: &NlOptions) -> NlVerdict {
    branch_and_prune_stats(problem, opts).0
}

/// Outcome of examining one contracted box: a witness, a refutation, a
/// split, or a too-tiny inconclusive leaf.
enum BoxStep {
    Sat(Vec<f64>),
    Refuted,
    Tiny,
    Split(usize, Vec<Interval>, Vec<Interval>),
}

/// Shared per-box logic of the sequential and parallel searches: assumes
/// `bx` has already been contracted to a cascade fixpoint (and is
/// non-empty), then tries the midpoint and finally splits the widest
/// dimension.
///
/// Only constraints still in `active` are evaluated — the inactive ones
/// were proven certainly true on an ancestor box, which covers `bx` and
/// its midpoint. No per-constraint interval verdicts are recomputed here:
/// a constraint's verdict depends only on the projection of the box onto
/// its variables, and the cascade worklist re-revises a constraint
/// whenever that projection narrows — detecting `CertainlyFalse` as an
/// empty contraction and `CertainlyTrue` as entailment. At fixpoint every
/// active constraint is therefore exactly `Unknown`, and an empty active
/// set certifies the whole box. (Conjunctions too large for entailment
/// filtering fall back to explicit verdict checks.)
fn examine_box(
    problem: &NlProblem,
    opts: &NlOptions,
    bx: Vec<Interval>,
    active: &mut ActiveSet,
) -> BoxStep {
    let n = problem.num_vars();
    // Candidate point: the box midpoint. Interval entailment is over the
    // *defined* points of a box, so even a fully entailed box only yields
    // a witness after a pointwise re-check — the midpoint can sit exactly
    // on a singularity (e.g. `0/x ≤ ½` entailed on a zero-straddling box,
    // but undefined at `x = 0`). A failed re-check falls through to the
    // split, which moves the descendant midpoints off the singular point.
    let mid: Vec<f64> = bx.iter().map(Interval::midpoint).collect();
    let mid_sat = |mid: &[f64]| problem.is_satisfied(mid, opts.tolerance);
    if active.is_empty() {
        // Every constraint entailed: any defined point of the box is a
        // witness.
        if mid_sat(&mid) {
            return BoxStep::Sat(mid);
        }
    } else {
        if active.is_unfiltered() {
            // Entailment filtering is off: recompute the verdicts here.
            let verdicts: Vec<IntervalVerdict> = problem
                .constraints
                .iter()
                .map(|c| c.check_box(&bx))
                .collect();
            if verdicts.contains(&IntervalVerdict::CertainlyFalse) {
                return BoxStep::Refuted;
            }
            if verdicts
                .iter()
                .all(|v| *v == IntervalVerdict::CertainlyTrue)
                && mid_sat(&mid)
            {
                return BoxStep::Sat(mid);
            }
        }
        // Cheap active-only screen first, full pointwise check to certify.
        let mid_ok = problem
            .constraints
            .iter()
            .enumerate()
            .all(|(ci, c)| !active.contains(ci) || c.eval_robust(&mid, opts.tolerance));
        if mid_ok && mid_sat(&mid) {
            return BoxStep::Sat(mid);
        }
    }
    // Split the widest (finite) dimension.
    let split = (0..n)
        .filter(|&i| bx[i].width() > opts.min_width)
        .max_by(|&a, &b| {
            bx[a]
                .width()
                .partial_cmp(&bx[b].width())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    match split {
        None => BoxStep::Tiny, // neither verifiable nor refutable
        Some(dim) => {
            let m = bx[dim].midpoint();
            let mut left = bx.clone();
            let mut right = bx;
            left[dim] = Interval::checked(left[dim].lo(), m);
            right[dim] = Interval::checked(m, right[dim].hi());
            BoxStep::Split(dim, left, right)
        }
    }
}

/// Stagnation cutoff: a search that is still splitting after this many
/// boxes without ever having bottomed out at the width threshold is
/// grinding a wide refutation frontier whose completion, if it comes at
/// all, lies orders of magnitude past the window — a balanced refutation
/// tree over a 7-variable box has barely halved each domain by then. Such
/// a search gives up early with `Unknown` so the local search (and the
/// surrounding CDCL loop, which simply tries another assignment) get the
/// remaining time. Searches that *do* reach tiny leaves are heading
/// toward a witness or a tight refutation and are left alone, as are runs
/// whose box budget is below the window. The cutoff is sound: `Unknown`
/// is always a valid (if weak) verdict.
///
/// The signal is only meaningful on a *fully bounded* root box: a box with
/// an infinite dimension can never shrink below the width threshold along
/// it, so the absence of tiny leaves says nothing there, and the cutoff
/// stays disarmed. It is armed inside [`NlProblem::solve_with_stats`] and
/// [`NlProblem::probe`] (whose cap is below the window);
/// [`branch_and_prune_stats`] always runs its full budget.
const STAGNATION_WINDOW: usize = 2048;

/// Like [`branch_and_prune`], but also reports the search-effort counters
/// (boxes explored, per-contractor contractions) for the observability
/// layer.
///
/// Always runs the full `max_boxes` budget: unlike
/// [`NlProblem::solve_with_stats`], it never stops at the stagnation
/// cutoff.
pub fn branch_and_prune_stats(problem: &NlProblem, opts: &NlOptions) -> (NlVerdict, NlSearchStats) {
    branch_and_prune_inner(problem, opts, opts.max_boxes, false)
}

/// Search body shared by [`branch_and_prune_stats`] (`opts.max_boxes`,
/// cutoff disarmed), [`NlProblem::solve_with_stats`] (`opts.max_boxes`,
/// cutoff armed) and [`NlProblem::probe`] (at most [`PROBE_BOXES`]
/// boxes).
fn branch_and_prune_inner(
    problem: &NlProblem,
    opts: &NlOptions,
    max_boxes: usize,
    stagnation_cut: bool,
) -> (NlVerdict, NlSearchStats) {
    let mut stats = NlSearchStats::default();
    let n = problem.num_vars();
    if n == 0 {
        // Ground problem: constraints are constant comparisons.
        let verdict = if problem.is_satisfied(&[], 0.0) {
            NlVerdict::Sat(Vec::new())
        } else {
            NlVerdict::Unsat
        };
        return (verdict, stats);
    }
    // The no-tiny-leaf stagnation signal only means anything when every
    // dimension can actually reach the width threshold.
    let stagnation_cut = stagnation_cut
        && problem
            .bounds
            .iter()
            .all(|iv| iv.lo().is_finite() && iv.hi().is_finite());
    if opts.nl_jobs > 1 {
        return parallel_branch_and_prune(problem, opts, max_boxes, stagnation_cut);
    }
    let mut engine = Cascade::new(&problem.constraints, n, opts.contractors, opts.min_width);
    // Stack entries carry the split dimension that produced them (`None`
    // for the root), so the cascade can seed its worklist with just the
    // constraints watching that dimension, plus the set of constraints
    // still active on that subtree.
    let mut stack: Vec<(Vec<Interval>, Option<usize>, ActiveSet)> = vec![(
        problem.bounds.clone(),
        None,
        ActiveSet::all(problem.constraints.len()),
    )];
    let mut explored = 0usize;
    let mut inconclusive = false;
    let mut early: Option<NlVerdict> = None;

    while let Some((mut bx, dirty, mut active)) = stack.pop() {
        explored += 1;
        stats.boxes_explored += 1;
        if explored > max_boxes {
            early = Some(NlVerdict::Unknown);
            break;
        }
        if stagnation_cut
            && explored == STAGNATION_WINDOW
            && max_boxes > STAGNATION_WINDOW
            && !inconclusive
        {
            early = Some(NlVerdict::Unknown);
            break;
        }
        if explored.is_multiple_of(64) && opts.interrupted() {
            early = Some(NlVerdict::Unknown);
            break;
        }
        if engine.contract(&mut bx, dirty, &mut active) == Contraction::Empty {
            continue;
        }
        if bx.iter().any(|iv| iv.is_empty()) {
            continue;
        }
        match examine_box(problem, opts, bx, &mut active) {
            BoxStep::Sat(mid) => {
                early = Some(NlVerdict::Sat(mid));
                break;
            }
            BoxStep::Refuted => continue,
            BoxStep::Tiny => inconclusive = true,
            BoxStep::Split(dim, left, right) => {
                if !left[dim].is_empty() {
                    stack.push((left, Some(dim), active));
                }
                if !right[dim].is_empty() {
                    stack.push((right, Some(dim), active));
                }
            }
        }
    }
    stats.add(&engine.stats);
    let verdict = early.unwrap_or(if inconclusive {
        NlVerdict::Unknown
    } else {
        NlVerdict::Unsat
    });
    (verdict, stats)
}

/// Work-stealing parallel box search: `opts.nl_jobs` workers share a
/// queue of contracted-and-split boxes, each running its own cascade
/// engine. Verdicts keep the sequential semantics — `Sat` and `Unsat`
/// are proofs either way, so only the budget-limited `Unknown` frontier
/// can differ between job counts.
fn parallel_branch_and_prune(
    problem: &NlProblem,
    opts: &NlOptions,
    max_boxes: usize,
    stagnation_cut: bool,
) -> (NlVerdict, NlSearchStats) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = problem.num_vars();
    let jobs = opts.nl_jobs.min(64);
    type WorkItem = (Vec<Interval>, Option<usize>, ActiveSet);
    let queue: Mutex<Vec<WorkItem>> = Mutex::new(vec![(
        problem.bounds.clone(),
        None,
        ActiveSet::all(problem.constraints.len()),
    )]);
    // Boxes produced but not yet fully processed, anywhere. Children are
    // added *before* the parent is retired, so `pending == 0` really
    // means the whole tree is exhausted.
    let pending = AtomicUsize::new(1);
    let explored = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let out_of_budget = AtomicBool::new(false);
    let inconclusive = AtomicBool::new(false);
    let witness: Mutex<Option<Vec<f64>>> = Mutex::new(None);
    let totals: Mutex<NlSearchStats> = Mutex::new(NlSearchStats::default());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut engine =
                    Cascade::new(&problem.constraints, n, opts.contractors, opts.min_width);
                let mut local: Vec<WorkItem> = Vec::new();
                let mut idle_spins = 0u32;
                loop {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let item = local
                        .pop()
                        .or_else(|| queue.lock().expect("queue lock").pop());
                    let Some((mut bx, dirty, mut active)) = item else {
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        idle_spins += 1;
                        if idle_spins > 16 {
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        } else {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    idle_spins = 0;
                    let seen = explored.fetch_add(1, Ordering::Relaxed) + 1;
                    if seen > max_boxes || (seen.is_multiple_of(32) && opts.interrupted()) {
                        out_of_budget.store(true, Ordering::Relaxed);
                        done.store(true, Ordering::Relaxed);
                        pending.fetch_sub(1, Ordering::AcqRel);
                        break;
                    }
                    // Stagnation cutoff (see the sequential search):
                    // exactly one worker observes the window boundary.
                    if stagnation_cut
                        && seen == STAGNATION_WINDOW
                        && max_boxes > STAGNATION_WINDOW
                        && !inconclusive.load(Ordering::Relaxed)
                    {
                        out_of_budget.store(true, Ordering::Relaxed);
                        done.store(true, Ordering::Relaxed);
                        pending.fetch_sub(1, Ordering::AcqRel);
                        break;
                    }
                    let box_refuted = engine.contract(&mut bx, dirty, &mut active)
                        == Contraction::Empty
                        || bx.iter().any(|iv| iv.is_empty());
                    if !box_refuted {
                        match examine_box(problem, opts, bx, &mut active) {
                            BoxStep::Sat(mid) => {
                                let mut w = witness.lock().expect("witness lock");
                                if w.is_none() {
                                    *w = Some(mid);
                                }
                                done.store(true, Ordering::Release);
                            }
                            BoxStep::Refuted => {}
                            BoxStep::Tiny => {
                                inconclusive.store(true, Ordering::Relaxed);
                            }
                            BoxStep::Split(dim, left, right) => {
                                let mut children: Vec<WorkItem> = Vec::with_capacity(2);
                                if !left[dim].is_empty() {
                                    children.push((left, Some(dim), active));
                                }
                                if !right[dim].is_empty() {
                                    children.push((right, Some(dim), active));
                                }
                                if !children.is_empty() {
                                    pending.fetch_add(children.len(), Ordering::AcqRel);
                                    let mut shared = queue.lock().expect("queue lock");
                                    for child in children {
                                        // Donate to starving siblings, keep
                                        // the rest for depth-first locality.
                                        if shared.len() < jobs {
                                            shared.push(child);
                                        } else {
                                            local.push(child);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                let mut t = totals.lock().expect("totals lock");
                t.add(&engine.stats);
            });
        }
    });

    let mut stats = totals.into_inner().expect("totals");
    stats.boxes_explored = explored.into_inner() as u64;
    let witness = witness.into_inner().expect("witness");
    let verdict = match witness {
        Some(w) => NlVerdict::Sat(w),
        None if out_of_budget.into_inner() || inconclusive.into_inner() => NlVerdict::Unknown,
        None => NlVerdict::Unsat,
    };
    (verdict, stats)
}

/// Minimal deterministic xorshift64* generator for multistart sampling
/// (keeps this crate dependency-free).
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform sample in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Checkpoint spacing of the local search's restart cutoff, in steps:
/// every this many steps a restart must have cut its penalty by at least
/// [`RESTART_MIN_PROGRESS`] since the previous checkpoint, or it is
/// abandoned. Steering's probes stop descending after 25–50 steps of the
/// 400 a restart may run, and the witnesses of the test suite, Table 1 and
/// the bench workloads all come from restarts that never stall this long
/// (EXPERIMENTS.md, *Steering: cutting stalled local-search restarts*).
const RESTART_CHECKPOINT: usize = 25;

/// Least fraction by which a restart's penalty must fall from one
/// [`RESTART_CHECKPOINT`] to the next for the restart to go on.
const RESTART_MIN_PROGRESS: f64 = 0.05;

/// Multistart projected gradient descent on the quadratic penalty
/// `P(x) = Σ violation(cᵢ, x)²` — the IPOPT-role numerical engine.
///
/// The search runs on one [`term::DagProgram`] compiled from the term
/// arena over the constraint left-hand sides, then the partials `∂cᵢ/∂v`
/// for the variables `v` that `cᵢ` mentions (every other partial is
/// exactly zero). Each trial point evaluates only the left-hand sides'
/// instructions, the program's prefix (satisfaction, violations and the
/// penalty all derive from those values, computed together); once a point
/// is accepted, the rest of the program adds the partials into the same
/// slots, reusing the subterms the two share. Shared subterms are computed
/// once per point, a rejected step keeps the gradient of the point it did
/// not leave, and the steps allocate nothing.
///
/// A restart that stalls, whose penalty falls by less than
/// [`RESTART_MIN_PROGRESS`] over [`RESTART_CHECKPOINT`] steps, is
/// abandoned. Start points are drawn only when a restart begins, so every
/// restart starts where it would without the cutoff, and one that is not
/// abandoned follows the same path.
///
/// Returns a feasible point (within `opts.tolerance`) or `None`, and the
/// number of descent steps run.
pub fn local_search(problem: &NlProblem, opts: &NlOptions) -> (Option<Vec<f64>>, u64) {
    let n = problem.num_vars();
    if n == 0 {
        return (problem.is_satisfied(&[], 0.0).then(Vec::new), 0);
    }
    let cs = &problem.constraints;
    let terms: Vec<TermId> = cs.iter().map(NlConstraint::term).collect();
    // The partials, grouped by constraint in ascending variable order:
    // constraint `ci` owns `partials[spans[ci]..spans[ci + 1]]`, root
    // `cs.len() + k` of the program is partial `k`.
    let mut partials: Vec<(usize, TermId)> = Vec::new();
    let mut spans = vec![0];
    for c in cs {
        for &v in c.variables().iter().filter(|&&v| v < n) {
            partials.push((v, term::derivative(c.term(), v)));
        }
        spans.push(partials.len());
    }
    let grad_terms: Vec<TermId> = partials.iter().map(|&(_, d)| d).collect();
    let prog = term::compile_with_prefix(&terms, &grad_terms);
    let rhs: Vec<f64> = cs.iter().map(|c| c.rhs.to_f64()).collect();
    let ranges: Vec<(f64, f64)> = problem
        .bounds
        .iter()
        .map(|&b| sampling_interval(b))
        .collect();

    // Fills `viol` with each constraint's violation at the point whose
    // program slots are `at`; returns the penalty and whether every
    // constraint holds there.
    let assess = |at: &[f64], viol: &mut [f64]| -> (f64, bool) {
        let mut holds = true;
        for (ci, c) in cs.iter().enumerate() {
            let value = prog.root(at, ci);
            viol[ci] = violation(c.op, value, rhs[ci], opts.strict_margin);
            holds &= holds_robust(c.op, value, rhs[ci], opts.tolerance);
        }
        (viol.iter().map(|v| v * v).sum(), holds)
    };

    let mut rng = XorShift::new(opts.seed);
    let mut steps = 0u64;
    let mut x = vec![0.0f64; n];
    let mut trial = vec![0.0f64; n];
    let mut grad = vec![0.0f64; n];
    let mut norm = 0.0;
    let mut viol_x = vec![0.0f64; cs.len()];
    let mut viol_trial = vec![0.0f64; cs.len()];
    // Program slots at `x` (the partials' too once `moved` is false) and
    // at `trial` (the prefix only).
    let mut at_x = Vec::new();
    let mut at_trial = Vec::new();
    for _ in 0..opts.restarts {
        if opts.interrupted() {
            return (None, steps);
        }
        for (xi, &(lo, hi)) in x.iter_mut().zip(&ranges) {
            *xi = lo + rng.next_f64() * (hi - lo);
        }
        let mut lr = 0.1;
        prog.eval_prefix(&x, &mut at_x);
        let (mut p, mut holds) = assess(&at_x, &mut viol_x);
        let mut checkpoint = p;
        // Whether `grad` and `norm` belong to an earlier `x`.
        let mut moved = true;
        for step in 0..opts.iterations {
            if holds {
                return (Some(x), steps);
            }
            if step % 64 == 63 && opts.interrupted() {
                return (None, steps);
            }
            if !p.is_finite() {
                break; // restart from elsewhere
            }
            if step > 0 && step % RESTART_CHECKPOINT == 0 {
                if p > (1.0 - RESTART_MIN_PROGRESS) * checkpoint {
                    break; // stalled: restart from elsewhere
                }
                checkpoint = p;
            }
            steps += 1;
            if moved {
                // ∇P = Σ 2·violation·(±∇lhs) over active constraints.
                grad.fill(0.0);
                prog.eval_suffix(&x, &mut at_x);
                for (ci, c) in cs.iter().enumerate() {
                    let viol = viol_x[ci];
                    if viol == 0.0 {
                        continue;
                    }
                    // Direction of increasing violation w.r.t. lhs.
                    let sign = match c.op {
                        CmpOp::Lt | CmpOp::Le => 1.0,
                        CmpOp::Gt | CmpOp::Ge => -1.0,
                        CmpOp::Eq => {
                            if prog.root(&at_x, ci) >= rhs[ci] {
                                1.0
                            } else {
                                -1.0
                            }
                        }
                    };
                    for k in spans[ci]..spans[ci + 1] {
                        let d = prog.root(&at_x, cs.len() + k);
                        if d.is_finite() {
                            grad[partials[k].0] += 2.0 * viol * sign * d;
                        }
                    }
                }
                norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
                moved = false;
            }
            if norm < 1e-14 {
                break; // flat (likely a non-feasible local minimum)
            }
            // Tentative step with simple backtracking.
            for (((t, &xi), &gi), &(lo, hi)) in trial.iter_mut().zip(&x).zip(&grad).zip(&ranges) {
                *t = (xi - lr * gi / norm).clamp(lo, hi);
            }
            prog.eval_prefix(&trial, &mut at_trial);
            let (p_trial, holds_trial) = assess(&at_trial, &mut viol_trial);
            if p_trial < p {
                std::mem::swap(&mut x, &mut trial);
                std::mem::swap(&mut at_x, &mut at_trial);
                std::mem::swap(&mut viol_x, &mut viol_trial);
                p = p_trial;
                holds = holds_trial;
                moved = true;
                lr = (lr * 1.3).min(1.0e3);
            } else {
                lr *= 0.5;
                if lr < 1e-15 {
                    break;
                }
            }
        }
        if holds {
            return (Some(x), steps);
        }
    }
    (None, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use absolver_linear::CmpOp;
    use absolver_num::Rational;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn qd(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn trivially_sat_circle() {
        // x² + y² ≤ 1.
        let mut p = NlProblem::new(2);
        p.add_constraint(NlConstraint::new(x().pow(2) + y().pow(2), CmpOp::Le, q(1)));
        p.bound_var(0, Interval::new(-2.0, 2.0));
        p.bound_var(1, Interval::new(-2.0, 2.0));
        match p.solve() {
            NlVerdict::Sat(w) => assert!(w[0] * w[0] + w[1] * w[1] <= 1.0 + 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn proven_unsat_circle_vs_halfplane() {
        // x² + y² ≤ 1 ∧ x ≥ 3 over a bounded box: rigorous UNSAT.
        let mut p = NlProblem::new(2);
        p.add_constraint(NlConstraint::new(x().pow(2) + y().pow(2), CmpOp::Le, q(1)));
        p.add_constraint(NlConstraint::new(x(), CmpOp::Ge, q(3)));
        p.bound_var(0, Interval::new(-10.0, 10.0));
        p.bound_var(1, Interval::new(-10.0, 10.0));
        assert_eq!(p.solve(), NlVerdict::Unsat);
    }

    #[test]
    fn paper_nonlinear_unsat_style() {
        // Mirror of the paper's `nonlinear_unsat` flavour:
        // x² ≥ 1 ∧ x² ≤ 1/4 on a box.
        let mut p = NlProblem::new(1);
        p.add_constraint(NlConstraint::new(x().pow(2), CmpOp::Ge, q(1)));
        p.add_constraint(NlConstraint::new(x().pow(2), CmpOp::Le, qd("0.25")));
        p.bound_var(0, Interval::new(-100.0, 100.0));
        assert_eq!(p.solve(), NlVerdict::Unsat);
    }

    #[test]
    fn division_constraint() {
        // The paper's running example constraint:
        // a·x + 3.5/(4 − y) + 2y ≥ 7.1 (vars: 0 = a, 1 = x, 2 = y).
        let a = Expr::var(0);
        let xx = Expr::var(1);
        let yy = Expr::var(2);
        let lhs =
            a * xx + Expr::constant(qd("3.5")) / (Expr::int(4) - yy.clone()) + Expr::int(2) * yy;
        let mut p = NlProblem::new(3);
        p.add_constraint(NlConstraint::new(lhs, CmpOp::Ge, qd("7.1")));
        for v in 0..3 {
            p.bound_var(v, Interval::new(-20.0, 20.0));
        }
        match p.solve() {
            NlVerdict::Sat(w) => {
                let val = w[0] * w[1] + 3.5 / (4.0 - w[2]) + 2.0 * w[2];
                assert!(val >= 7.1 - 1e-5, "witness value {val}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_on_parabola() {
        // y = x² ∧ y = x + 1 has solutions (golden-ratio-ish x).
        let mut p = NlProblem::new(2);
        p.add_constraint(NlConstraint::new(y() - x().pow(2), CmpOp::Eq, q(0)));
        p.add_constraint(NlConstraint::new(y() - x() - Expr::int(1), CmpOp::Eq, q(0)));
        p.bound_var(0, Interval::new(-10.0, 10.0));
        p.bound_var(1, Interval::new(-10.0, 10.0));
        match p.solve() {
            NlVerdict::Sat(w) => {
                assert!((w[1] - w[0] * w[0]).abs() < 1e-4);
                assert!((w[1] - w[0] - 1.0).abs() < 1e-4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transcendental_sat() {
        // sin(x) ≥ 1/2 over [0, π].
        let mut p = NlProblem::new(1);
        p.add_constraint(NlConstraint::new(x().sin(), CmpOp::Ge, qd("0.5")));
        p.bound_var(0, Interval::new(0.0, std::f64::consts::PI));
        match p.solve() {
            NlVerdict::Sat(w) => assert!(w[0].sin() >= 0.5 - 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transcendental_unsat() {
        // exp(x) ≤ 0 is impossible.
        let mut p = NlProblem::new(1);
        p.add_constraint(NlConstraint::new(x().exp(), CmpOp::Le, q(0)));
        p.bound_var(0, Interval::new(-50.0, 50.0));
        assert_eq!(p.solve(), NlVerdict::Unsat);
    }

    #[test]
    fn strict_inequalities_get_interior_points() {
        // x·y > 1 ∧ x < 0 → y < 0 region; witness must be strictly inside.
        let mut p = NlProblem::new(2);
        p.add_constraint(NlConstraint::new(x() * y(), CmpOp::Gt, q(1)));
        p.add_constraint(NlConstraint::new(x(), CmpOp::Lt, q(0)));
        p.bound_var(0, Interval::new(-10.0, 10.0));
        p.bound_var(1, Interval::new(-10.0, 10.0));
        match p.solve() {
            NlVerdict::Sat(w) => {
                assert!(w[0] * w[1] > 1.0);
                assert!(w[0] < 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn local_search_only_handles_unbounded() {
        // x³ = 27 with unbounded domain (branch-and-prune gets ENTIRE box;
        // the cascade must still find x = 3).
        let mut p = NlProblem::new(1);
        p.add_constraint(NlConstraint::new(x().pow(3), CmpOp::Eq, q(27)));
        let opts = NlOptions {
            max_boxes: 500,
            ..NlOptions::default()
        };
        match p.solve_with(&opts) {
            NlVerdict::Sat(w) => assert!((w[0] - 3.0).abs() < 1e-3),
            NlVerdict::Unknown => panic!("should find x=3"),
            NlVerdict::Unsat => panic!("x^3=27 is satisfiable"),
        }
    }

    #[test]
    fn stalled_restarts_are_cut_and_the_witness_is_kept() {
        // x⁴ − 4x² + x ≤ −5 holds only in the left well (x in about
        // [−1.75, −1.15]); the right well bottoms out near x = 1.35 at
        // about −2.6, a local minimum of the penalty that is not feasible.
        // Over [−2, 40] the first five restarts descend into the right
        // well and stall there; the sixth reaches the left one at step 22.
        let f = x().pow(4) - Expr::int(4) * x().pow(2) + x();
        let mut p = NlProblem::new(1);
        p.add_constraint(NlConstraint::new(f, CmpOp::Le, q(-5)));
        p.bound_var(0, Interval::new(-2.0, 40.0));
        let opts = NlOptions::default();
        let (witness, steps) = local_search(&p, &opts);
        // The witness the search found when every restart ran until it
        // converged or gave up: cutting the stalled ones moves no start
        // point and no step of the restart that succeeds.
        assert_eq!(witness.map(|w| w[0].to_bits()), Some(0xbff7_a2f8_fa82_40f4));
        // Uncut, the six restarts take 449 steps; the stalled ones are now
        // abandoned at step 75, 50, 50, 50 and 50.
        assert_eq!(steps, 297);
        assert!(steps < (opts.restarts * opts.iterations) as u64);
    }

    #[test]
    fn ground_problems() {
        let mut sat = NlProblem::new(0);
        sat.add_constraint(NlConstraint::new(Expr::int(1), CmpOp::Le, q(2)));
        assert!(sat.solve().is_sat());
        let mut unsat = NlProblem::new(0);
        unsat.add_constraint(NlConstraint::new(Expr::int(3), CmpOp::Le, q(2)));
        assert_eq!(unsat.solve(), NlVerdict::Unsat);
    }

    #[test]
    fn verdict_accessors() {
        let v = NlVerdict::Sat(vec![1.0]);
        assert!(v.is_sat());
        assert_eq!(v.witness(), Some(&[1.0][..]));
        assert!(!NlVerdict::Unsat.is_sat());
        assert_eq!(NlVerdict::Unknown.witness(), None);
    }
}
