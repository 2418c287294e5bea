//! The solver interface layer (paper Sec. 4, Fig. 4).
//!
//! ABsolver's design goal is that "the most appropriate solver for a given
//! task can be integrated and used": the orchestrator talks to *trait
//! objects* — one Boolean and one linear backend, and a list of nonlinear
//! ones tried in order when the preceding ones "failed to provide a
//! decent result". This module defines
//! the three domain interfaces and the built-in implementations standing
//! in for the paper's external tools:
//!
//! | paper        | here                                                   |
//! |--------------|--------------------------------------------------------|
//! | zChaff       | [`CdclBoolean`] (incremental CDCL)                     |
//! | LSAT         | [`CdclBoolean`] — same engine, enumeration is native   |
//! | external restarts | [`RestartingBoolean`] (rebuilds the solver per model) |
//! | COIN LP      | [`SimplexLinear`] (exact-rational simplex)             |
//! | IPOPT        | [`PenaltyNonlinear`] (multistart penalty search)       |
//! | —            | [`IntervalNonlinear`] (rigorous branch-and-prune)      |
//! | —            | [`CascadeNonlinear`] (probe pass, then refute pass)     |
//!
//! A linear or nonlinear call returns its effort (pivots; boxes,
//! contractions and local-search steps) with its answer, and no backend
//! keeps counters of its own.

use absolver_linear::{check_conjunction_counted, AssertionStack, Feasibility, LinearConstraint};
use absolver_logic::{Assignment, Cnf, Lit};
use absolver_nonlinear::{
    branch_and_prune_stats, local_search, Interrupt, NlOptions, NlProblem, NlSearchStats, NlVerdict,
};
use absolver_sat::{SolveResult, Solver};
use std::fmt;

// ---------------------------------------------------------------------------
// Boolean domain
// ---------------------------------------------------------------------------

/// A Boolean solver usable by the orchestrating control loop.
///
/// `Send` is a supertrait so solver state (and everything holding it,
/// up to a whole [`crate::Session`]) can move between threads.
pub trait BooleanSolver: Send {
    /// Human-readable backend name (for statistics and logs).
    fn name(&self) -> &str;

    /// Replaces the loaded formula.
    fn load(&mut self, cnf: &Cnf);

    /// Adds a clause (e.g. a theory conflict); returns `false` if the
    /// formula became trivially unsatisfiable.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Produces a (total) model of the current formula, or `None` if
    /// unsatisfiable. Called repeatedly; blocking clauses added between
    /// calls steer the enumeration.
    fn next_model(&mut self) -> Option<Assignment>;

    /// Ensures the backend knows variables `0..n` even before any clause
    /// mentions them. Incremental sessions call this when the problem
    /// grows between checks, so freshly declared (but not yet
    /// clause-constrained) atoms are still decided by the next model —
    /// matching what a from-scratch [`BooleanSolver::load`] would do.
    /// Backends that rebuild per query may ignore it.
    fn reserve_vars(&mut self, n: usize) {
        let _ = n;
    }
}

impl fmt::Debug for dyn BooleanSolver + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BooleanSolver({})", self.name())
    }
}

/// The default Boolean backend: an incremental CDCL solver (zChaff role).
/// Because the clause database survives between `next_model` calls, it also
/// covers the LSAT role (cheap all-models enumeration).
#[derive(Debug, Default)]
pub struct CdclBoolean {
    solver: Solver,
    phase_seed: Option<u64>,
}

impl CdclBoolean {
    /// Creates an empty backend.
    pub fn new() -> CdclBoolean {
        CdclBoolean::default()
    }

    /// Creates a backend whose decision phases are scrambled from `seed`
    /// on every `load` — the portfolio diversification knob.
    pub fn with_phase_seed(seed: u64) -> CdclBoolean {
        CdclBoolean {
            phase_seed: Some(seed),
            ..CdclBoolean::default()
        }
    }
}

impl BooleanSolver for CdclBoolean {
    fn name(&self) -> &str {
        "cdcl"
    }

    fn load(&mut self, cnf: &Cnf) {
        self.solver = Solver::from_cnf(cnf);
        if let Some(seed) = self.phase_seed {
            self.solver.scramble_phases(seed);
        }
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }

    fn next_model(&mut self) -> Option<Assignment> {
        match self.solver.solve() {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    fn reserve_vars(&mut self, n: usize) {
        self.solver.reserve_vars(n);
    }
}

/// The external-restart Boolean backend: rebuilds a fresh solver for every
/// query, as ABsolver must when the plugged-in SAT solver cannot continue
/// incrementally — "at the expense of the time required for restarting the
/// entire solving process externally" (Sec. 4). Used by the ablation bench.
#[derive(Debug, Default)]
pub struct RestartingBoolean {
    cnf: Cnf,
    extra: Vec<Vec<Lit>>,
}

impl RestartingBoolean {
    /// Creates an empty backend.
    pub fn new() -> RestartingBoolean {
        RestartingBoolean::default()
    }
}

impl BooleanSolver for RestartingBoolean {
    fn name(&self) -> &str {
        "restarting"
    }

    fn load(&mut self, cnf: &Cnf) {
        self.cnf = cnf.clone();
        self.extra.clear();
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.extra.push(lits.to_vec());
        true
    }

    fn next_model(&mut self) -> Option<Assignment> {
        // The entire solving process restarts: fresh solver, re-add all.
        let mut solver = Solver::from_cnf(&self.cnf);
        for clause in &self.extra {
            if !solver.add_clause(clause) {
                return None;
            }
        }
        match solver.solve() {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Linear domain
// ---------------------------------------------------------------------------

/// A linear-arithmetic solver usable by the theory layer (COIN role).
pub trait LinearBackend: Send {
    /// Human-readable backend name.
    fn name(&self) -> &str;

    /// Decides feasibility of a conjunction, returning a witness or a
    /// conflicting subset (indices into the input), with the simplex
    /// pivots the check took (0 from a backend that counts none).
    fn check(&mut self, constraints: &[LinearConstraint]) -> (Feasibility, u64);

    /// Opens a persistent assertion-stack session over `num_vars`
    /// problem variables for incremental checking (delta assertion,
    /// warm-started re-checks, push/pop branch-and-bound). Backends that
    /// only support one-shot [`LinearBackend::check`] return `None` (the
    /// default); the theory layer then falls back to building a fresh
    /// tableau per check.
    fn make_stack(&self, num_vars: usize) -> Option<AssertionStack> {
        let _ = num_vars;
        None
    }
}

impl fmt::Debug for dyn LinearBackend + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LinearBackend({})", self.name())
    }
}

/// Exact-rational simplex backend. A conflict is the simplex's row
/// certificate, returned as is.
#[derive(Debug, Clone, Default)]
pub struct SimplexLinear;

impl SimplexLinear {
    /// Creates the backend.
    pub fn new() -> SimplexLinear {
        SimplexLinear
    }
}

impl LinearBackend for SimplexLinear {
    fn name(&self) -> &str {
        "simplex"
    }

    fn check(&mut self, constraints: &[LinearConstraint]) -> (Feasibility, u64) {
        check_conjunction_counted(constraints)
    }

    fn make_stack(&self, num_vars: usize) -> Option<AssertionStack> {
        Some(AssertionStack::new(num_vars))
    }
}

// ---------------------------------------------------------------------------
// Nonlinear domain
// ---------------------------------------------------------------------------

/// A nonlinear solver usable by the theory layer (IPOPT role). Each call
/// receives the theory check's [`Interrupt`], which the engines poll
/// mid-search, and returns its verdict with the search effort it took; a
/// backend keeps no counters of its own.
pub trait NonlinearBackend: Send {
    /// Human-readable backend name.
    fn name(&self) -> &str;

    /// Attempts to decide feasibility of the problem. For a two-pass
    /// backend this is the cheap first pass; see
    /// [`NonlinearBackend::escalate`].
    fn solve(&mut self, problem: &NlProblem, interrupt: &Interrupt) -> (NlVerdict, NlSearchStats);

    /// Whether [`NonlinearBackend::escalate`] is stronger than `solve`.
    /// The orchestrator saves a Boolean model whose check ended `Unknown`
    /// for a second pass only when some backend's is.
    fn escalates(&self) -> bool {
        false
    }

    /// The backend's full one-shot check, which the second pass runs at
    /// every level of a check (disequality branches included). The
    /// orchestrator runs that pass only once the Boolean side has no more
    /// models. The default is `solve` itself: a backend whose
    /// [`NonlinearBackend::escalates`] is false has nothing stronger.
    fn escalate(
        &mut self,
        problem: &NlProblem,
        interrupt: &Interrupt,
    ) -> (NlVerdict, NlSearchStats) {
        self.solve(problem, interrupt)
    }
}

/// `options` under a call's `interrupt`.
fn interrupted_by(options: &NlOptions, interrupt: &Interrupt) -> NlOptions {
    NlOptions {
        interrupt: interrupt.clone(),
        ..options.clone()
    }
}

impl fmt::Debug for dyn NonlinearBackend + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NonlinearBackend({})", self.name())
    }
}

/// Rigorous interval branch-and-prune backend (can prove UNSAT).
#[derive(Debug, Clone, Default)]
pub struct IntervalNonlinear {
    /// Engine options.
    pub options: NlOptions,
}

impl IntervalNonlinear {
    /// A backend with explicit engine options.
    pub fn with_options(options: NlOptions) -> IntervalNonlinear {
        IntervalNonlinear { options }
    }
}

impl NonlinearBackend for IntervalNonlinear {
    fn name(&self) -> &str {
        "interval"
    }

    fn solve(&mut self, problem: &NlProblem, interrupt: &Interrupt) -> (NlVerdict, NlSearchStats) {
        branch_and_prune_stats(problem, &interrupted_by(&self.options, interrupt))
    }
}

/// Multistart penalty local search backend — the IPOPT stand-in. Never
/// returns UNSAT (a numerical solver cannot prove absence of solutions).
#[derive(Debug, Clone, Default)]
pub struct PenaltyNonlinear {
    /// Engine options.
    pub options: NlOptions,
}

impl PenaltyNonlinear {
    /// A backend with explicit engine options.
    pub fn with_options(options: NlOptions) -> PenaltyNonlinear {
        PenaltyNonlinear { options }
    }
}

impl NonlinearBackend for PenaltyNonlinear {
    fn name(&self) -> &str {
        "penalty"
    }

    fn solve(&mut self, problem: &NlProblem, interrupt: &Interrupt) -> (NlVerdict, NlSearchStats) {
        let (witness, steps) = local_search(problem, &interrupted_by(&self.options, interrupt));
        let verdict = match witness {
            Some(witness) => NlVerdict::Sat(witness),
            None => NlVerdict::Unknown,
        };
        let effort = NlSearchStats {
            local_search_steps: steps,
            ..NlSearchStats::default()
        };
        (verdict, effort)
    }
}

/// The default nonlinear backend, in two passes: `solve` is the cheap
/// [`NlProblem::probe`] (a short box search, then the penalty search),
/// `escalate` the one-shot [`NlProblem::solve_with_stats`] (the box
/// search under the whole budget, then the penalty search).
#[derive(Debug, Clone, Default)]
pub struct CascadeNonlinear {
    /// Engine options.
    pub options: NlOptions,
}

impl CascadeNonlinear {
    /// A backend with explicit engine options.
    pub fn with_options(options: NlOptions) -> CascadeNonlinear {
        CascadeNonlinear { options }
    }
}

impl NonlinearBackend for CascadeNonlinear {
    fn name(&self) -> &str {
        "interval+penalty"
    }

    fn solve(&mut self, problem: &NlProblem, interrupt: &Interrupt) -> (NlVerdict, NlSearchStats) {
        problem.probe(&interrupted_by(&self.options, interrupt))
    }

    fn escalates(&self) -> bool {
        true
    }

    fn escalate(
        &mut self,
        problem: &NlProblem,
        interrupt: &Interrupt,
    ) -> (NlVerdict, NlSearchStats) {
        problem.solve_with_stats(&interrupted_by(&self.options, interrupt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_linear::CmpOp;
    use absolver_nonlinear::{Expr, NlConstraint};
    use absolver_num::{Interval, Rational};

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn cdcl_backend_enumerates_with_blocking() {
        let mut b = CdclBoolean::new();
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause(&[1, 2]);
        b.load(&cnf);
        let mut count = 0;
        while let Some(m) = b.next_model() {
            count += 1;
            let blocking: Vec<Lit> = m
                .iter()
                .filter_map(|(v, t)| {
                    t.to_bool()
                        .map(|bit| if bit { v.negative() } else { v.positive() })
                })
                .collect();
            if !b.add_clause(&blocking) {
                break;
            }
            assert!(count <= 3, "more models than exist");
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn restarting_backend_agrees_with_cdcl() {
        let mut cnf = Cnf::new(3);
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[-2, 3]);
        let run = |b: &mut dyn BooleanSolver| {
            b.load(&cnf);
            let mut n = 0;
            while let Some(m) = b.next_model() {
                n += 1;
                let blocking: Vec<Lit> = m
                    .iter()
                    .filter_map(|(v, t)| {
                        t.to_bool()
                            .map(|bit| if bit { v.negative() } else { v.positive() })
                    })
                    .collect();
                if blocking.is_empty() || !b.add_clause(&blocking) {
                    break;
                }
                assert!(n < 20);
            }
            n
        };
        let a = run(&mut CdclBoolean::new());
        let b = run(&mut RestartingBoolean::new());
        assert_eq!(a, b);
    }

    #[test]
    fn nonlinear_backends_division_of_labour() {
        let none = Interrupt::default();
        // Feasible circle: both find it.
        let mut feasible = NlProblem::new(1);
        feasible.add_constraint(NlConstraint::new(Expr::var(0).pow(2), CmpOp::Le, q(4)));
        feasible.bound_var(0, Interval::new(-10.0, 10.0));
        assert!(IntervalNonlinear::default()
            .solve(&feasible, &none)
            .0
            .is_sat());
        assert!(PenaltyNonlinear::default()
            .solve(&feasible, &none)
            .0
            .is_sat());
        // Infeasible: only the interval engine can *prove* it.
        let mut infeasible = NlProblem::new(1);
        infeasible.add_constraint(NlConstraint::new(Expr::var(0).pow(2), CmpOp::Le, q(-1)));
        infeasible.bound_var(0, Interval::new(-10.0, 10.0));
        assert_eq!(
            IntervalNonlinear::default().solve(&infeasible, &none).0,
            NlVerdict::Unsat
        );
        assert_eq!(
            PenaltyNonlinear::default().solve(&infeasible, &none).0,
            NlVerdict::Unknown
        );
        assert_eq!(
            CascadeNonlinear::default().solve(&infeasible, &none).0,
            NlVerdict::Unsat
        );
        // Single-pass backends have nothing stronger to escalate to.
        assert!(!IntervalNonlinear::default().escalates());
        assert!(!PenaltyNonlinear::default().escalates());
    }

    #[test]
    fn cascade_defers_deep_refutations_to_its_second_pass() {
        let none = Interrupt::default();
        // (x − y)² < −4 over [−10, 10]²: the refutation needs more boxes
        // than the probe may explore, so only the second pass proves it.
        let (x, y) = (Expr::var(0), Expr::var(1));
        let mut problem = NlProblem::new(2);
        problem.add_constraint(NlConstraint::new(
            x.clone() * x.clone() - Expr::int(2) * x.clone() * y.clone() + y.clone() * y,
            CmpOp::Lt,
            q(-4),
        ));
        problem.bound_var(0, Interval::new(-10.0, 10.0));
        problem.bound_var(1, Interval::new(-10.0, 10.0));
        let mut cascade = CascadeNonlinear::default();
        assert!(cascade.escalates());
        let (probed, probe) = cascade.solve(&problem, &none);
        assert_eq!(probed, NlVerdict::Unknown);
        assert!(probe.boxes_explored <= absolver_nonlinear::PROBE_BOXES as u64 + 1);
        let (escalated, full) = cascade.escalate(&problem, &none);
        assert_eq!(escalated, NlVerdict::Unsat);
        assert!(full.boxes_explored > 2 * absolver_nonlinear::PROBE_BOXES as u64);
    }

    #[test]
    fn cascade_second_pass_finds_the_witness_only_the_local_search_finds() {
        let none = Interrupt::default();
        // x² ≥ 100 ∧ y² − 20y + 100 + 10 − x ≤ 0 over [−10, 10]²: the only
        // solution is the corner (10, 10). No box midpoint reaches it, but
        // the local search does, by clamping to the bounds. The second
        // pass must find it again: a negated equality that this witness
        // violates is split on it, and the branches get their full check
        // only if the split happens.
        let (x, y) = (Expr::var(0), Expr::var(1));
        let mut problem = NlProblem::new(2);
        problem.add_constraint(NlConstraint::new(x.clone() * x.clone(), CmpOp::Ge, q(100)));
        problem.add_constraint(NlConstraint::new(
            y.clone() * y.clone() - Expr::int(20) * y + Expr::int(100) + Expr::int(10) - x,
            CmpOp::Le,
            q(0),
        ));
        problem.bound_var(0, Interval::new(-10.0, 10.0));
        problem.bound_var(1, Interval::new(-10.0, 10.0));
        let options = absolver_nonlinear::NlOptions::default();
        let boxes_only = absolver_nonlinear::branch_and_prune_stats(&problem, &options);
        assert_eq!(boxes_only.0, NlVerdict::Unknown);
        let mut cascade = CascadeNonlinear::default();
        assert_eq!(
            cascade.escalate(&problem, &none).0,
            NlVerdict::Sat(vec![10.0, 10.0])
        );
    }
}
