//! Persistent solve sessions: `push`/`pop`/`assert`/`check` across solves.
//!
//! A [`Session`] is the SMT-solver-style incremental front end the ROADMAP
//! calls for: one long-lived handle owning the Boolean engine, the simplex
//! assertion stack, the theory-verdict cache, and the interned definition
//! pool, so that successive `check()` calls reuse each other's work instead
//! of re-solving from scratch. Assertions are grouped into *frames* opened
//! by [`Session::push`] and discarded by [`Session::pop`].
//!
//! # Frame contract
//!
//! Everything a session asserts is **append-only** inside a frame: Boolean
//! variables, clauses, arithmetic variables, definitions, and range
//! tightenings only ever grow or narrow the problem. A frame therefore
//! snapshots just a handful of counters (variable/clause counts, lemma and
//! cache sequence watermarks) plus restore lists for the two non-monotone
//! mutations (extending an *existing* definition, tightening an *existing*
//! variable's range). `pop` is an undo, not a rebuild: it truncates the
//! append-only state back to the snapshot and replays the restore lists.
//!
//! # Soundness of retained lemmas
//!
//! Theory-conflict clauses ("lemmas") learned during `check()` are kept
//! across checks and replayed when the Boolean solver has to be reloaded.
//! A lemma is implied by the *definitions* of the Boolean variables it
//! mentions (and, when the problem has nonlinear constraints, by the
//! variable *ranges* in force when it was learned). It is discarded as
//! soon as any of those premises can change:
//!
//! * **popped variables** — a lemma mentioning a Boolean variable at an
//!   index at or above the popped frame's watermark dies with the frame
//!   (the index may be reallocated to an unrelated atom later);
//! * **definition changes** — extending the definition of an existing
//!   variable drops every lemma mentioning it (a *false* atom projects the
//!   negated definition, which extension *weakens*, so conflicts involving
//!   the negative literal are no longer implied — dropping both polarities
//!   is conservative but simple);
//! * **range widening** — popping a frame that tightened ranges drops, in
//!   range-sensitive (nonlinear) sessions, every lemma learned inside that
//!   frame. Tightening itself never invalidates a lemma: an infeasibility
//!   proof over a wider box covers every narrower box.
//!
//! The same discipline governs the theory-verdict cache, with one
//! refinement: cached **Sat** entries survive range *widening* (a witness
//! in a narrow box lies in every wider box) but are dropped on range
//! *tightening*, symmetrically to Unsat facts.
//!
//! The Boolean solver itself stays warm between checks whenever its clause
//! database is a sound image of the current frame: a pop, a definition
//! change, a reset, or a previous check that blocked undecidable
//! projections (`unknown_checks > 0` — those blocking clauses are *not*
//! implied) forces a reload from the problem CNF plus the surviving
//! lemmas.
//!
//! # Example
//!
//! ```
//! use absolver_core::{Session, VarKind};
//! use absolver_linear::CmpOp;
//! use absolver_nonlinear::Expr;
//! use absolver_num::Rational;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut s = Session::new();
//! let x = s.arith_var("x", VarKind::Real)?;
//! let ge = s.atom(Expr::var(x), CmpOp::Ge, Rational::from_int(0))?;
//! s.require(ge.positive());
//! assert!(s.check()?.is_sat());
//!
//! s.push();
//! let lt = s.atom(Expr::var(x), CmpOp::Lt, Rational::from_int(0))?;
//! s.require(lt.positive());
//! assert!(s.check()?.is_unsat());
//!
//! s.pop();
//! assert!(s.check()?.is_sat()); // the frame-2 contradiction is gone
//! # Ok(())
//! # }
//! ```

use crate::orchestrator::{Orchestrator, OrchestratorStats, Outcome, SessionSolveArgs, SolveError};
use crate::problem::{AbModel, AbProblem, ArithVar, VarKind};
use absolver_logic::{Clause, Lit, Var};
use absolver_nonlinear::{NlConstraint, VarId};
use absolver_num::{Interval, Rational};
use absolver_trace::TraceEvent;
use std::collections::HashSet;
use std::fmt;

/// Errors raised by [`Session`] mutations (the solve itself reports
/// through [`SolveError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `pop` was called with no open frame.
    NoFrame,
    /// An arithmetic variable was redeclared with a different kind.
    KindMismatch {
        /// The variable's name.
        name: String,
        /// The kind it was first declared with.
        declared: VarKind,
        /// The kind of the conflicting redeclaration.
        requested: VarKind,
    },
    /// A constraint mentions an arithmetic variable id that was never
    /// declared in this session.
    UndeclaredArithVar(VarId),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoFrame => f.write_str("pop without a matching push"),
            SessionError::KindMismatch {
                name,
                declared,
                requested,
            } => write!(
                f,
                "variable `{name}` declared {declared} but redeclared {requested}"
            ),
            SessionError::UndeclaredArithVar(id) => {
                write!(f, "constraint mentions undeclared arithmetic variable {id}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// One open `push` frame: the append-only counters at open time plus the
/// restore lists for in-place mutations of pre-frame state.
#[derive(Debug, Default)]
struct Frame {
    /// `cnf.num_vars()` at push.
    bool_vars: usize,
    /// `arith_vars().len()` at push.
    arith_vars: usize,
    /// `cnf.len()` at push.
    clauses: usize,
    /// Orchestrator cache sequence at push — cache entries stamped later
    /// were created inside this frame.
    cache_seq: u64,
    /// Session event sequence at push — lemmas stamped later were learned
    /// inside this frame.
    session_seq: u64,
    /// Pre-frame definitions extended inside this frame:
    /// `(bool var index, constraint count to truncate back to)`.
    /// A count of 0 removes the definition entirely.
    def_restores: Vec<(u32, usize)>,
    /// Pre-frame variables whose range was tightened inside this frame:
    /// `(arith var id, range to restore)`.
    range_restores: Vec<(usize, Interval)>,
}

/// A retained theory lemma with the metadata its invalidation rules need.
#[derive(Debug)]
struct Lemma {
    clause: Vec<Lit>,
    /// Largest Boolean variable index mentioned.
    max_var: usize,
    /// Session sequence at learn time (frame attribution).
    seq: u64,
}

/// A persistent incremental solving session. See the [module docs]
/// (self) for the frame and soundness contract.
#[derive(Debug)]
pub struct Session {
    orc: Orchestrator,
    problem: AbProblem,
    frames: Vec<Frame>,
    lemmas: Vec<Lemma>,
    /// Monotone event counter ordering pushes, mutations, and lemma
    /// batches for the frame-attribution rules.
    seq: u64,
    /// The Boolean solver's clause database can no longer be trusted and
    /// must be reloaded (CNF + surviving lemmas) at the next check.
    boolean_dirty: bool,
    /// The orchestrator's interned definition pool is stale.
    defs_dirty: bool,
    /// Problem clauses already in the warm Boolean solver.
    synced_clauses: usize,
    checks: u64,
    cumulative: OrchestratorStats,
    last: Option<Outcome>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// Creates an empty session over [`Orchestrator::with_defaults`].
    pub fn new() -> Session {
        Session::with_orchestrator(Orchestrator::with_defaults())
    }

    /// Creates an empty session over a custom orchestrator (backend or
    /// option overrides). Note that preprocessing is *not* applied in
    /// session mode — checks run on the asserted problem as-is.
    pub fn with_orchestrator(orc: Orchestrator) -> Session {
        Session {
            orc,
            problem: AbProblem::default(),
            frames: Vec::new(),
            lemmas: Vec::new(),
            seq: 0,
            boolean_dirty: true,
            defs_dirty: true,
            synced_clauses: 0,
            checks: 0,
            cumulative: OrchestratorStats::default(),
            last: None,
        }
    }

    /// The current problem (frame 0 assertions plus every open frame).
    pub fn problem(&self) -> &AbProblem {
        &self.problem
    }

    /// Number of open frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of `check()` calls so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of theory lemmas currently retained across checks.
    pub fn lemmas_retained(&self) -> usize {
        self.lemmas.len()
    }

    /// Statistics of the most recent `check()` alone.
    pub fn check_stats(&self) -> OrchestratorStats {
        self.orc.stats()
    }

    /// Statistics accumulated over every `check()` of this session.
    pub fn cumulative_stats(&self) -> OrchestratorStats {
        self.cumulative
    }

    /// The outcome of the most recent `check()`, or `None` if the session
    /// was mutated since (a stored model no longer describes the current
    /// frame).
    pub fn last_outcome(&self) -> Option<&Outcome> {
        self.last.as_ref()
    }

    /// The model of the most recent `check()`, if it was satisfiable and
    /// nothing was asserted or popped since.
    pub fn model(&self) -> Option<&AbModel> {
        self.last.as_ref().and_then(|o| o.model())
    }

    /// Sets (or clears) an absolute wall-clock deadline shared by every
    /// subsequent `check()`. Unlike the per-call
    /// [`crate::OrchestratorOptions::time_limit`], the deadline does not
    /// restart between checks, which makes it the right budget for a whole
    /// session script: once it passes, every further check returns
    /// [`Outcome::Unknown`] with [`OrchestratorStats::timed_out`] set.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.orc.set_deadline(deadline);
    }

    /// Whether lemma/cache validity depends on variable ranges — true as
    /// soon as any definition carries a non-affine constraint (the linear
    /// theory path never reads ranges).
    fn range_sensitive(&self) -> bool {
        self.problem.num_nonlinear() > 0
    }

    fn invalidated(&mut self) {
        self.last = None;
    }

    fn trace(&self, build: impl FnOnce() -> TraceEvent) {
        let sink = self.orc.trace_sink();
        if sink.enabled() {
            sink.emit(&build());
        }
    }

    // ------------------------------------------------------------------
    // Assertions
    // ------------------------------------------------------------------

    /// Declares (or finds) an arithmetic variable. Unlike
    /// [`crate::AbProblemBuilder::arith_var`] this reports kind clashes as
    /// an error instead of panicking.
    pub fn arith_var(&mut self, name: &str, kind: VarKind) -> Result<VarId, SessionError> {
        if let Some(&id) = self.problem.by_name.get(name) {
            let declared = self.problem.vars[id].kind;
            if declared != kind {
                return Err(SessionError::KindMismatch {
                    name: name.to_string(),
                    declared,
                    requested: kind,
                });
            }
            return Ok(id);
        }
        let id = self.problem.vars.len();
        self.problem.vars.push(ArithVar {
            name: name.to_string(),
            kind,
            range: Interval::ENTIRE,
        });
        self.problem.by_name.insert(name.to_string(), id);
        self.invalidated();
        Ok(id)
    }

    /// Tightens the search range of an arithmetic variable (intersection
    /// with the current range, exactly like repeated `c range` lines).
    pub fn assert_range(&mut self, var: VarId, range: Interval) -> Result<(), SessionError> {
        if var >= self.problem.vars.len() {
            return Err(SessionError::UndeclaredArithVar(var));
        }
        let old = self.problem.vars[var].range;
        let new = old.intersect(range);
        if new == old {
            return Ok(());
        }
        if let Some(f) = self.frames.last_mut() {
            if var < f.arith_vars && !f.range_restores.iter().any(|&(v, _)| v == var) {
                f.range_restores.push((var, old));
            }
        }
        self.problem.vars[var].range = new;
        if self.range_sensitive() {
            // Tightening preserves infeasibility proofs (lemmas, Unsat
            // entries) but a cached witness may fall outside the new box.
            self.orc.cache_retain(|_, _, is_sat| !is_sat);
        }
        self.seq += 1;
        self.invalidated();
        Ok(())
    }

    /// Allocates a fresh plain Boolean variable (no definition).
    pub fn bool_var(&mut self) -> Var {
        self.invalidated();
        self.problem.cnf.fresh_var()
    }

    /// Allocates a Boolean variable defined as `expr ⋈ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UndeclaredArithVar`] when `expr` mentions an
    /// arithmetic variable id that was never declared in this session. (A
    /// fresh Boolean variable can never clash with an existing definition,
    /// so that is the only failure mode — and it must be an error, not a
    /// panic: a resident service feeds request-derived expressions here.)
    pub fn atom(
        &mut self,
        expr: absolver_nonlinear::Expr,
        op: absolver_linear::CmpOp,
        rhs: Rational,
    ) -> Result<Var, SessionError> {
        let constraint = NlConstraint::new(expr, op, rhs);
        // Validate before allocating so a rejected atom does not leak a
        // fresh Boolean variable into the problem.
        if let Some(max) = constraint.max_var() {
            if max >= self.problem.vars.len() {
                return Err(SessionError::UndeclaredArithVar(max));
            }
        }
        let var = self.problem.cnf.fresh_var();
        self.define(var, constraint)?;
        Ok(var)
    }

    /// Attaches a constraint to a Boolean variable. Repeated calls on the
    /// same variable build a *conjunction*; extending a variable that
    /// already carries a definition invalidates the lemmas and cache
    /// entries that mention it (see the module docs) and forces a Boolean
    /// reload at the next check.
    pub fn define(&mut self, var: Var, constraint: NlConstraint) -> Result<(), SessionError> {
        if let Some(max) = constraint.max_var() {
            if max >= self.problem.vars.len() {
                return Err(SessionError::UndeclaredArithVar(max));
            }
        }
        while self.problem.cnf.num_vars() <= var.index() {
            self.problem.cnf.fresh_var();
        }
        let key = var.index() as u32;
        let extending = self.problem.defs.contains_key(&key);
        if extending {
            let old_len = self.problem.defs[&key].constraints.len();
            if let Some(f) = self.frames.last_mut() {
                if var.index() < f.bool_vars && !f.def_restores.iter().any(|&(v, _)| v == key) {
                    f.def_restores.push((key, old_len));
                }
            }
            // Lemmas and cache entries involving this atom were derived
            // from the old definition; the negative projection is *weaker*
            // under the extension, so they are no longer implied.
            self.lemmas
                .retain(|l| !l.clause.iter().any(|lit| lit.var() == var));
            self.orc
                .cache_retain(|k, _, _| !k.iter().any(|lit| lit.var() == var));
            self.boolean_dirty = true;
        }
        self.problem
            .defs
            .entry(key)
            .or_default()
            .constraints
            .push(constraint);
        self.defs_dirty = true;
        self.seq += 1;
        self.invalidated();
        Ok(())
    }

    /// Adds a clause of literals.
    pub fn assert_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.problem
            .cnf
            .add_clause(lits.into_iter().collect::<Clause>());
        self.invalidated();
    }

    /// Adds a unit clause asserting `lit`.
    pub fn require(&mut self, lit: Lit) {
        self.assert_clause([lit]);
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        self.seq += 1;
        self.frames.push(Frame {
            bool_vars: self.problem.cnf.num_vars(),
            arith_vars: self.problem.vars.len(),
            clauses: self.problem.cnf.len(),
            cache_seq: self.orc.cache_seq(),
            session_seq: self.seq,
            def_restores: Vec::new(),
            range_restores: Vec::new(),
        });
        self.trace(|| TraceEvent::new("session.push").field_u64("depth", self.frames.len() as u64));
    }

    /// Discards the most recent frame, undoing every assertion made since
    /// the matching [`Session::push`]. Lemmas and cache entries that
    /// depended on the popped state are discarded; frame-independent ones
    /// survive.
    pub fn pop(&mut self) -> Result<(), SessionError> {
        let f = self.frames.pop().ok_or(SessionError::NoFrame)?;
        self.problem.cnf.truncate(f.clauses, f.bool_vars);
        // Definitions added inside the frame sit at indices >= the
        // watermark; pre-frame definitions extended inside it are listed
        // in the restore list.
        self.problem.defs.retain(|&v, _| (v as usize) < f.bool_vars);
        for &(var, old_len) in &f.def_restores {
            if old_len == 0 {
                self.problem.defs.remove(&var);
            } else if let Some(def) = self.problem.defs.get_mut(&var) {
                def.constraints.truncate(old_len);
            }
        }
        for v in &self.problem.vars[f.arith_vars..] {
            self.problem.by_name.remove(&v.name);
        }
        self.problem.vars.truncate(f.arith_vars);
        for &(var, range) in &f.range_restores {
            self.problem.vars[var].range = range;
        }
        // Lemma retention (see the module docs): survive the pop iff every
        // premise survives it.
        let watermark = f.bool_vars;
        let restored: HashSet<u32> = f.def_restores.iter().map(|&(v, _)| v).collect();
        let widened = !f.range_restores.is_empty() && self.range_sensitive();
        let before = self.lemmas.len();
        self.lemmas.retain(|l| {
            l.max_var < watermark
                && !l
                    .clause
                    .iter()
                    .any(|lit| restored.contains(&(lit.var().index() as u32)))
                && !(widened && l.seq > f.session_seq)
        });
        let dropped = before - self.lemmas.len();
        self.orc.cache_retain(|key, seq, is_sat| {
            key.iter().all(|l| l.var().index() < watermark)
                && !key
                    .iter()
                    .any(|lit| restored.contains(&(lit.var().index() as u32)))
                // Widening back invalidates Unsat facts proved inside the
                // frame's tighter box; Sat witnesses still fit.
                && !(widened && !is_sat && seq > f.cache_seq)
        });
        self.boolean_dirty = true;
        self.defs_dirty = true;
        self.seq += 1;
        self.invalidated();
        self.trace(|| {
            TraceEvent::new("session.pop")
                .field_u64("depth", self.frames.len() as u64)
                .field_u64("lemmas_dropped", dropped as u64)
                .field_u64("lemmas_retained", self.lemmas.len() as u64)
        });
        Ok(())
    }

    /// Clears every assertion, frame, lemma, and cache entry. Cumulative
    /// statistics and the check counter survive.
    pub fn reset(&mut self) {
        self.problem = AbProblem::default();
        self.frames.clear();
        self.lemmas.clear();
        self.orc.cache_clear();
        self.boolean_dirty = true;
        self.defs_dirty = true;
        self.synced_clauses = 0;
        self.seq += 1;
        self.invalidated();
        self.trace(|| TraceEvent::new("session.reset"));
    }

    // ------------------------------------------------------------------
    // Checking
    // ------------------------------------------------------------------

    /// Decides the conjunction of every assertion currently in force.
    ///
    /// Per-check statistics are available from
    /// [`Session::check_stats`] afterwards; [`Session::cumulative_stats`]
    /// keeps the session-wide running totals.
    pub fn check(&mut self) -> Result<Outcome, SolveError> {
        let reload = self.boolean_dirty;
        let rebuild_defs = self.defs_dirty;
        let lemma_clauses: Vec<Vec<Lit>> = if reload {
            self.lemmas.iter().map(|l| l.clause.clone()).collect()
        } else {
            Vec::new()
        };
        let new_clauses: Vec<Clause> = if reload {
            Vec::new()
        } else {
            self.problem.cnf.clauses()[self.synced_clauses..].to_vec()
        };
        self.trace(|| {
            TraceEvent::new("session.check.start")
                .field_u64("check", self.checks + 1)
                .field_u64("depth", self.frames.len() as u64)
                .field("reload", if reload { "true" } else { "false" })
                .field_u64("lemmas_replayed", lemma_clauses.len() as u64)
        });
        let result = self.orc.session_solve(
            &self.problem,
            SessionSolveArgs {
                reload,
                rebuild_defs,
                lemmas: &lemma_clauses,
                new_clauses: &new_clauses,
            },
        );
        // Theory conflicts learned during the check are sound lemmas
        // regardless of how the check itself ended.
        self.seq += 1;
        for clause in self.orc.take_session_lemmas() {
            let max_var = clause.iter().map(|l| l.var().index()).max().unwrap_or(0);
            self.lemmas.push(Lemma {
                clause,
                max_var,
                seq: self.seq,
            });
        }
        let stats = self.orc.stats();
        self.cumulative.accumulate(&stats);
        self.checks += 1;
        self.defs_dirty = false;
        self.synced_clauses = self.problem.cnf.len();
        // Blocking clauses for *undecidable* projections are not implied
        // by anything — a check that produced any taints the warm clause
        // database. The same goes for a check that errored out mid-loop.
        self.boolean_dirty = stats.unknown_checks > 0 || result.is_err();
        self.trace(|| {
            TraceEvent::new("session.check.end")
                .field_u64("check", self.checks)
                .field(
                    "verdict",
                    match &result {
                        Ok(Outcome::Sat(_)) => "sat",
                        Ok(Outcome::Unsat) => "unsat",
                        Ok(Outcome::Unknown) => "unknown",
                        Err(_) => "error",
                    },
                )
                .field_u64("lemmas_retained", self.lemmas.len() as u64)
                .duration(stats.elapsed)
        });
        self.last = result.as_ref().ok().cloned();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_linear::CmpOp;
    use absolver_nonlinear::Expr;

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn push_pop_restores_verdict() {
        let mut s = Session::new();
        let x = s.arith_var("x", VarKind::Int).unwrap();
        s.assert_range(x, Interval::new(-10.0, 10.0)).unwrap();
        let ge = s.atom(Expr::var(x), CmpOp::Ge, q(1)).unwrap();
        s.require(ge.positive());
        assert!(s.check().unwrap().is_sat());
        assert_eq!(s.depth(), 0);

        s.push();
        let le = s.atom(Expr::var(x), CmpOp::Le, q(0)).unwrap();
        s.require(le.positive());
        assert!(s.check().unwrap().is_unsat());

        s.pop().unwrap();
        assert!(s.check().unwrap().is_sat());
        assert_eq!(s.checks(), 3);
    }

    #[test]
    fn pop_without_push_errors() {
        let mut s = Session::new();
        assert_eq!(s.pop(), Err(SessionError::NoFrame));
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let mut s = Session::new();
        s.arith_var("x", VarKind::Int).unwrap();
        assert!(matches!(
            s.arith_var("x", VarKind::Real),
            Err(SessionError::KindMismatch { .. })
        ));
    }

    #[test]
    fn model_cleared_by_mutation() {
        let mut s = Session::new();
        let x = s.arith_var("x", VarKind::Real).unwrap();
        let ge = s.atom(Expr::var(x), CmpOp::Ge, q(2)).unwrap();
        s.require(ge.positive());
        assert!(s.check().unwrap().is_sat());
        assert!(s.model().is_some());
        s.push();
        // A bare push changes nothing, so the model stays valid…
        assert!(s.model().is_some());
        // …but any assertion invalidates it.
        let lt = s.atom(Expr::var(x), CmpOp::Lt, q(0)).unwrap();
        s.require(lt.positive());
        assert!(s.model().is_none());
    }

    #[test]
    fn warm_check_reuses_boolean_state() {
        let mut s = Session::new();
        let x = s.arith_var("x", VarKind::Real).unwrap();
        let a = s.atom(Expr::var(x), CmpOp::Ge, q(0)).unwrap();
        s.require(a.positive());
        assert!(s.check().unwrap().is_sat());
        // Re-checking the unchanged problem should hit the verdict cache.
        assert!(s.check().unwrap().is_sat());
        assert!(s.cumulative_stats().theory_cache_hits > 0);
    }

    #[test]
    fn def_extension_invalidates_dependent_lemmas() {
        let mut s = Session::new();
        let x = s.arith_var("x", VarKind::Real).unwrap();
        let a = s.atom(Expr::var(x), CmpOp::Ge, q(5)).unwrap();
        let b = s.atom(Expr::var(x), CmpOp::Le, q(3)).unwrap();
        s.assert_clause([a.positive()]);
        s.assert_clause([b.positive()]);
        assert!(s.check().unwrap().is_unsat());
        let before = s.lemmas_retained();
        // Extending `a`'s definition must drop lemmas mentioning it.
        s.define(a, NlConstraint::new(Expr::var(x), CmpOp::Ge, q(6)))
            .unwrap();
        assert!(s.lemmas_retained() <= before);
        assert!(s.check().unwrap().is_unsat());
    }

    #[test]
    fn reset_clears_assertions() {
        let mut s = Session::new();
        let x = s.arith_var("x", VarKind::Real).unwrap();
        let a = s.atom(Expr::var(x), CmpOp::Ge, q(1)).unwrap();
        let b = s.atom(Expr::var(x), CmpOp::Le, q(0)).unwrap();
        s.require(a.positive());
        s.require(b.positive());
        assert!(s.check().unwrap().is_unsat());
        s.reset();
        assert!(s.check().unwrap().is_sat()); // empty problem
        assert_eq!(s.checks(), 2);
    }
}
