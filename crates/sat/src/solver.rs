//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the reproduction's stand-in for zChaff: the same algorithm family
//! (two-watched-literal propagation, first-UIP clause learning, VSIDS-style
//! activity decision heuristic, phase saving, Luby restarts, and learnt
//! clause database reduction), implemented from scratch.
//!
//! The solver also exposes a small DPLL(T)-style [`TheoryHook`] so that the
//! *tightly integrated* baseline solvers in `absolver-baselines` can attach
//! a theory checker to the Boolean search, which is the architectural
//! contrast the paper draws between ABsolver and MathSAT/CVC Lite.

use crate::theory::{TheoryHook, TheoryResponse};
use absolver_logic::{Assignment, Clause, Cnf, Lit, Tri, Var};
use std::fmt;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying total assignment was found.
    Sat(Assignment),
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Returns `true` for [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// The model, if SAT.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Search statistics, reset by [`Solver::reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted: u64,
    /// Number of theory conflict clauses injected by a [`TheoryHook`].
    pub theory_conflicts: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnt={} deleted={} theory_conflicts={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt,
            self.deleted,
            self.theory_conflicts
        )
    }
}

const CLAUSE_NONE: u32 = u32::MAX;

#[derive(Debug)]
struct ClauseData {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct VarState {
    value: Tri,
    level: u32,
    reason: u32,
}

/// A CDCL SAT solver with incremental clause addition.
///
/// ```
/// use absolver_logic::Var;
/// use absolver_sat::Solver;
///
/// let mut solver = Solver::new();
/// solver.add_dimacs_clause(&[1, 2]);
/// solver.add_dimacs_clause(&[-1, 2]);
/// solver.add_dimacs_clause(&[-2, 3]);
/// let result = solver.solve();
/// let model = result.model().expect("satisfiable");
/// assert!(model.value(Var::new(1)).is_true()); // x2 forced
/// assert!(model.value(Var::new(2)).is_true()); // x3 forced
/// ```
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<ClauseData>,
    /// Watch lists indexed by literal code; clause indices watching that literal.
    watches: Vec<Vec<u32>>,
    vars: Vec<VarState>,
    /// Saved phases for phase-saving.
    phase: Vec<bool>,
    /// VSIDS activities.
    activity: Vec<f64>,
    /// Binary max-heap of variables ordered by activity.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `u32::MAX` if absent.
    heap_pos: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    var_inc: f64,
    cla_inc: f64,
    /// Set if a top-level conflict has been derived; the instance is UNSAT forever.
    unsat: bool,
    /// Conflict budget for [`Solver::solve`]; `u64::MAX` means unlimited.
    conflict_budget: u64,
    stats: SolverStats,
    /// Assumption literals of the active `solve_under` call.
    assumptions: Vec<Lit>,
    /// Failed-assumption subset of the last UNSAT `solve_under`.
    failed_assumptions: Vec<Lit>,
    // scratch buffers for conflict analysis
    seen: Vec<bool>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            vars: Vec::new(),
            phase: Vec::new(),
            activity: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            var_inc: 1.0,
            cla_inc: 1.0,
            unsat: false,
            conflict_budget: u64::MAX,
            stats: SolverStats::default(),
            assumptions: Vec::new(),
            failed_assumptions: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Creates a solver preloaded with a CNF formula.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause(c.lits());
        }
        s
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
    }

    /// Limits the number of conflicts a single [`Solver::solve`] call may
    /// spend before returning [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.conflict_budget = budget;
    }

    /// Deterministically reseeds the saved decision phases (SplitMix64 on
    /// `seed` and the variable index). Portfolio solving uses this to
    /// diversify otherwise-identical CDCL instances: different initial
    /// phases explore the search space in a different order without
    /// affecting soundness or completeness.
    pub fn scramble_phases(&mut self, seed: u64) {
        for (i, p) in self.phase.iter_mut().enumerate() {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *p = (z ^ (z >> 31)) & 1 == 1;
        }
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.vars.len() < n {
            let idx = self.vars.len() as u32;
            self.vars.push(VarState {
                value: Tri::Unknown,
                level: 0,
                reason: CLAUSE_NONE,
            });
            self.phase.push(false);
            self.activity.push(0.0);
            self.heap_pos.push(u32::MAX);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.seen.push(false);
            self.heap_insert(idx);
        }
    }

    /// Adds a clause; returns `false` if the clause (together with earlier
    /// ones) makes the instance trivially unsatisfiable.
    ///
    /// May be called between `solve` calls (incremental interface); the
    /// solver backtracks to the root level first.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if self.unsat {
            return false;
        }
        let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        self.reserve_vars(max_var);

        // Simplify: drop duplicate and root-false literals, detect tautology
        // and root-satisfied clauses.
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                Tri::True => return true, // already satisfied at root
                Tri::False => continue,
                Tri::Unknown => {
                    if simplified.contains(&!l) {
                        return true; // tautology
                    }
                    if !simplified.contains(&l) {
                        simplified.push(l);
                    }
                }
            }
        }
        match simplified.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(simplified[0], CLAUSE_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(simplified, false);
                true
            }
        }
    }

    /// Adds a clause given in DIMACS signed-integer notation.
    pub fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool {
        let lits: Vec<Lit> = lits.iter().map(|&v| Lit::from_dimacs(v)).collect();
        self.add_clause(&lits)
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let id = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(id);
        self.watches[lits[1].code()].push(id);
        self.clauses.push(ClauseData {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        id
    }

    /// Current value of a literal.
    fn lit_value(&self, l: Lit) -> Tri {
        let v = self.vars[l.var().index()].value;
        if l.is_negated() {
            !v
        } else {
            v
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.lit_value(l).is_unknown());
        let vi = l.var().index();
        self.vars[vi] = VarState {
            value: Tri::from(l.is_positive()),
            level: self.decision_level(),
            reason,
        };
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'watchers: while i < watchers.len() {
                let ci = watchers[i];
                if self.clauses[ci as usize].deleted {
                    watchers.swap_remove(i);
                    continue;
                }
                // Normalise: the falsified literal goes to slot 1.
                {
                    let lits = &mut self.clauses[ci as usize].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.lit_value(first).is_true() {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if !self.lit_value(lk).is_false() {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[lk.code()].push(ci);
                        watchers.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.lit_value(first).is_false() {
                    self.watches[false_lit.code()] = watchers;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[false_lit.code()] = watchers;
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for idx in (target..self.trail.len()).rev() {
            let l = self.trail[idx];
            let vi = l.var().index();
            self.phase[vi] = l.is_positive();
            self.vars[vi].value = Tri::Unknown;
            self.vars[vi].reason = CLAUSE_NONE;
            self.heap_insert(vi as u32);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // ---- VSIDS heap -----------------------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != u32::MAX {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as u32;
        self.heap_pos[self.heap[b] as usize] = b as u32;
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = u32::MAX;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v];
        if pos != u32::MAX {
            self.heap_sift_up(pos as usize);
        }
    }

    fn bump_clause(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    // ---- conflict analysis ----------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let level = self.decision_level();

        loop {
            self.bump_clause(confl);
            let start = if p.is_some() { 1 } else { 0 };
            // Clone literals cheaply to appease the borrow checker.
            let lits: Vec<Lit> = self.clauses[confl as usize].lits[start..].to_vec();
            for q in lits {
                let vi = q.var().index();
                if !self.seen[vi] && self.vars[vi].level > 0 {
                    self.seen[vi] = true;
                    self.bump_var(vi);
                    if self.vars[vi].level >= level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let vi = lit.var().index();
            self.seen[vi] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            confl = self.vars[vi].reason;
            debug_assert!(confl != CLAUSE_NONE);
        }

        // Local clause minimisation: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        for &q in &learnt[1..] {
            let reason = self.vars[q.var().index()].reason;
            let redundant = reason != CLAUSE_NONE
                && self.clauses[reason as usize].lits[1..].iter().all(|&r| {
                    let ri = r.var().index();
                    self.seen[ri] || self.vars[ri].level == 0
                });
            if !redundant {
                minimized.push(q);
            }
        }

        // Compute backjump level and clear seen flags.
        for &q in &learnt[1..] {
            self.seen[q.var().index()] = false;
        }
        let mut back_level = 0;
        if minimized.len() > 1 {
            // Move the highest-level non-UIP literal to slot 1.
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.vars[minimized[i].var().index()].level
                    > self.vars[minimized[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            back_level = self.vars[minimized[1].var().index()].level;
        }
        (minimized, back_level)
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learnt += 1;
        match learnt.len() {
            0 => self.unsat = true,
            1 => {
                debug_assert_eq!(self.decision_level(), 0);
                if self.lit_value(learnt[0]).is_false() {
                    self.unsat = true;
                } else if self.lit_value(learnt[0]).is_unknown() {
                    self.enqueue(learnt[0], CLAUSE_NONE);
                }
            }
            _ => {
                let ci = self.attach_clause(learnt, true);
                self.bump_clause(ci);
                let first = self.clauses[ci as usize].lits[0];
                self.enqueue(first, ci);
            }
        }
    }

    /// Deletes the least active half of the learnt clauses (reason clauses
    /// and binary clauses are kept).
    fn reduce_db(&mut self) {
        let mut learnt_ids: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.lits.len() > 2 && !self.is_locked(i)
            })
            .collect();
        learnt_ids.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let remove = learnt_ids.len() / 2;
        for &ci in &learnt_ids[..remove] {
            self.clauses[ci as usize].deleted = true;
            self.stats.deleted += 1;
        }
    }

    fn is_locked(&self, ci: u32) -> bool {
        let first = self.clauses[ci as usize].lits[0];
        self.lit_value(first).is_true() && self.vars[first.var().index()].reason == ci
    }

    fn num_learnt(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .count()
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.vars[v as usize].value.is_unknown() {
                let phase = self.phase[v as usize];
                return Some(Lit::new(Var::new(v), !phase));
            }
        }
        None
    }

    fn extract_model(&self) -> Assignment {
        let mut a = Assignment::new(self.vars.len());
        for (i, vs) in self.vars.iter().enumerate() {
            a.set(Var::new(i as u32), vs.value);
        }
        a
    }

    /// Luby restart sequence (1,1,2,1,1,2,4,...).
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_theory(&mut ())
    }

    /// Solves under the given assumption literals (MiniSat-style
    /// incremental interface): the formula is checked together with the
    /// assumptions, without adding them as clauses. On UNSAT,
    /// [`Solver::failed_assumptions`] holds a subset of the assumptions
    /// whose conjunction is already contradictory (empty when the formula
    /// is unsatisfiable on its own).
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.assumptions = assumptions.to_vec();
        let result = self.solve_with_theory(&mut ());
        self.assumptions.clear();
        self.cancel_until(0);
        result
    }

    /// The failed-assumption subset of the most recent
    /// [`Solver::solve_under`] call that returned UNSAT.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Computes the subset of assumption literals that (together with
    /// `failed`) is already contradictory — MiniSat's `analyzeFinal`.
    /// `failed` is the assumption found false on the current trail.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut out = vec![failed];
        if self.decision_level() == 0 {
            return out;
        }
        self.seen[failed.var().index()] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[idx];
            let vi = l.var().index();
            if !self.seen[vi] {
                continue;
            }
            let reason = self.vars[vi].reason;
            if reason == CLAUSE_NONE {
                // A decision: under assumption levels this is an earlier
                // assumption literal (true on the trail).
                out.push(l);
            } else {
                for &q in &self.clauses[reason as usize].lits[1..] {
                    if self.vars[q.var().index()].level > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[vi] = false;
        }
        self.seen[failed.var().index()] = false;
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Solves the current formula, consulting a DPLL(T)-style theory hook.
    ///
    /// The hook is invoked at every unit-propagation fixpoint and once more
    /// on each total Boolean model. When the hook reports a conflict clause,
    /// the solver backtracks to the root level, adds the clause, and resumes
    /// the search — the "tight integration" loop used by the baseline
    /// solvers in `absolver-baselines`.
    pub fn solve_with_theory<T: TheoryHook + ?Sized>(&mut self, theory: &mut T) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart_round = 0u64;
        let mut conflicts_left = Self::luby(restart_round) * 128;
        let mut max_learnt = (self.clauses.len().max(64) / 3).max(256);

        loop {
            if let Some(confl) = self.propagate() {
                // Boolean conflict.
                self.stats.conflicts += 1;
                conflicts_left = conflicts_left.saturating_sub(1);
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                let (learnt, back_level) = self.analyze(confl);
                self.cancel_until(back_level);
                self.record_learnt(learnt);
                if self.unsat {
                    return SolveResult::Unsat;
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.conflicts - start_conflicts >= self.conflict_budget {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                continue;
            }

            // Propagation fixpoint: give the theory a chance to object.
            if theory.wants_fixpoint_checks() {
                match theory.on_fixpoint(&self.extract_model()) {
                    TheoryResponse::Ok => {}
                    TheoryResponse::Conflict(clause) => {
                        self.stats.theory_conflicts += 1;
                        self.cancel_until(0);
                        if !self.add_clause(&clause) {
                            return SolveResult::Unsat;
                        }
                        continue;
                    }
                }
            }

            if conflicts_left == 0 {
                // Restart.
                self.stats.restarts += 1;
                restart_round += 1;
                conflicts_left = Self::luby(restart_round) * 128;
                self.cancel_until(0);
            }

            if self.num_learnt() > max_learnt {
                self.reduce_db();
                max_learnt += max_learnt / 10;
            }

            // Apply pending assumptions as pseudo-decisions before any
            // free decision (MiniSat-style incremental interface).
            if (self.decision_level() as usize) < self.assumptions.len() {
                let a = self.assumptions[self.decision_level() as usize];
                self.reserve_vars(a.var().index() + 1);
                match self.lit_value(a) {
                    Tri::True => {
                        // Already satisfied: open a dummy level to keep
                        // level indexing aligned with assumption ranks.
                        self.trail_lim.push(self.trail.len());
                    }
                    Tri::False => {
                        self.failed_assumptions = self.analyze_final(a);
                        self.cancel_until(0);
                        return SolveResult::Unsat;
                    }
                    Tri::Unknown => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, CLAUSE_NONE);
                    }
                }
                continue;
            }

            match self.pick_branch() {
                None => {
                    // Total Boolean model; final theory check.
                    let model = self.extract_model();
                    match theory.on_model(&model) {
                        TheoryResponse::Ok => {
                            self.cancel_until(0);
                            return SolveResult::Sat(model);
                        }
                        TheoryResponse::Conflict(clause) => {
                            self.stats.theory_conflicts += 1;
                            self.cancel_until(0);
                            if !self.add_clause(&clause) {
                                return SolveResult::Unsat;
                            }
                        }
                    }
                }
                Some(decision) => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(decision, CLAUSE_NONE);
                }
            }
        }
    }

    /// Adds a clause forbidding the given total assignment restricted to
    /// `vars` (a *blocking clause*), enabling all-models enumeration.
    ///
    /// Returns `false` if this makes the formula unsatisfiable.
    pub fn block_assignment(&mut self, model: &Assignment, vars: &[Var]) -> bool {
        let clause: Vec<Lit> = vars
            .iter()
            .filter_map(|&v| match model.value(v) {
                Tri::True => Some(v.negative()),
                Tri::False => Some(v.positive()),
                Tri::Unknown => None,
            })
            .collect();
        self.add_clause(&clause)
    }
}

/// Converts the solver's clause database back into a [`Cnf`] (original,
/// non-deleted clauses only). Mainly useful in tests and diagnostics.
impl From<&Solver> for Cnf {
    fn from(s: &Solver) -> Cnf {
        let mut cnf = Cnf::new(s.num_vars());
        for c in s.clauses.iter().filter(|c| !c.learnt && !c.deleted) {
            cnf.add_clause(Clause::new(c.lits.clone()));
        }
        cnf
    }
}
