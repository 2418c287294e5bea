//! The tightly-integrated Boolean-linear baseline (the MathSAT 3 role).
//!
//! MathSAT "integrates both a Boolean as well as a linear solver and
//! benefits from a tight integration of its constituents" (paper
//! Sec. 1.2), which is why it beats ABsolver's loose coupling on the
//! simple SMT-LIB problems (Table 2) — and why it "rejected the problems
//! due to the nonlinear arithmetic" in Table 1.
//!
//! [`MathSatLike`] reproduces that architecture: a DPLL(T) loop in which
//! an *incremental* simplex (`push`/`pop` against the CDCL trail) checks
//! every unit-propagation fixpoint, feeding conflict clauses straight back
//! into the running search — no solver restarts, no re-asserting of
//! constraints, in contrast to ABsolver's two separate entities.

use crate::common::{BaselineRun, BaselineVerdict};
use absolver_core::theory::{
    check, prepare_defs, PreparedConstraint, TheoryBudget, TheoryContext, TheoryItem, TheoryVerdict,
};
use absolver_core::{AbModel, AbProblem, NonlinearBackend, SimplexLinear, VarKind};
use absolver_linear::{CheckResult, LinearConstraint, Simplex};
use absolver_logic::{Assignment, Lit, Tri, Var};
use absolver_num::Interval;
use absolver_sat::{SolveResult, Solver, TheoryHook, TheoryResponse};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the tight baseline.
#[derive(Debug, Clone)]
pub struct MathSatLikeOptions {
    /// Wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Whether to run the incremental theory check at every propagation
    /// fixpoint (early pruning) or only on total models.
    pub eager_fixpoint_checks: bool,
}

impl Default for MathSatLikeOptions {
    fn default() -> Self {
        MathSatLikeOptions {
            time_limit: None,
            eager_fixpoint_checks: true,
        }
    }
}

/// A tightly-integrated DPLL(T) solver for Boolean + linear AB-problems.
#[derive(Debug, Default)]
pub struct MathSatLike {
    /// Options.
    pub options: MathSatLikeOptions,
}

impl MathSatLike {
    /// Creates the baseline with default options.
    pub fn new() -> MathSatLike {
        MathSatLike::default()
    }

    /// Solves an AB-problem (Boolean + linear only).
    pub fn solve(&mut self, problem: &AbProblem) -> BaselineRun {
        let started = Instant::now();
        if problem.num_nonlinear() > 0 {
            // Faithful to Sec. 5.1: nonlinear input is rejected outright.
            return BaselineRun {
                verdict: BaselineVerdict::Rejected(
                    "nonlinear arithmetic is not supported".to_string(),
                ),
                elapsed: started.elapsed(),
                theory_conflicts: 0,
                eager_bytes: 0,
            };
        }

        let mut solver = Solver::from_cnf(problem.cnf());
        let mut hook = TightHook::new(problem, &self.options, started);
        let result = solver.solve_with_theory(&mut hook);
        let verdict = if hook.timed_out {
            BaselineVerdict::Timeout
        } else {
            match result {
                SolveResult::Sat(boolean) => match hook.last_model.take() {
                    Some(arith) => BaselineVerdict::Sat(Box::new(AbModel { boolean, arith })),
                    None => BaselineVerdict::Unknown,
                },
                SolveResult::Unsat => {
                    if hook.had_unknown {
                        BaselineVerdict::Unknown
                    } else {
                        BaselineVerdict::Unsat
                    }
                }
                SolveResult::Unknown => BaselineVerdict::Unknown,
            }
        };
        BaselineRun {
            verdict,
            elapsed: started.elapsed(),
            theory_conflicts: solver.stats().theory_conflicts,
            eager_bytes: 0,
        }
    }
}

/// The DPLL(T) attachment: keeps an incremental simplex synchronised with
/// the CDCL assignment via a literal stack of `push`/`pop` scopes.
struct TightHook<'a> {
    problem: &'a AbProblem,
    /// Each definition's constraints, prepared for the final check.
    prepared: Vec<(Var, Vec<Arc<PreparedConstraint>>)>,
    simplex: Simplex,
    /// Theory literals currently asserted, in scope order; one simplex
    /// scope per entry.
    stack: Vec<Lit>,
    options: &'a MathSatLikeOptions,
    started: Instant,
    deadline: Option<Duration>,
    timed_out: bool,
    had_unknown: bool,
    last_model: Option<absolver_core::ArithModel>,
    /// The literal that asserted each constraint id. A pop frees ids for
    /// reuse, and each assertion overwrites its id's entry.
    cid_lit: Vec<Option<Lit>>,
}

impl<'a> TightHook<'a> {
    fn new(
        problem: &'a AbProblem,
        options: &'a MathSatLikeOptions,
        started: Instant,
    ) -> TightHook<'a> {
        TightHook {
            problem,
            prepared: prepare_defs(problem),
            simplex: Simplex::with_vars(problem.arith_vars().len()),
            stack: Vec::new(),
            options,
            started,
            deadline: options.time_limit,
            timed_out: false,
            had_unknown: false,
            last_model: None,
            cid_lit: Vec::new(),
        }
    }

    fn check_deadline(&mut self) -> bool {
        if let Some(limit) = self.deadline {
            if self.started.elapsed() >= limit {
                self.timed_out = true;
                return true;
            }
        }
        false
    }

    /// The single-constraint implications of a theory literal, if they can
    /// be asserted incrementally (negated equalities and negated
    /// conjunctions cannot; they are left for the final model check).
    fn implications(&self, lit: Lit) -> Option<Vec<LinearConstraint>> {
        let def = self.problem.def(lit.var())?;
        if lit.is_positive() {
            let mut out = Vec::new();
            for c in &def.constraints {
                let (lin, k) = c.to_affine()?;
                out.push(LinearConstraint::new(lin.clone(), c.op, &c.rhs - k));
            }
            Some(out)
        } else if def.constraints.len() == 1 {
            let c = &def.constraints[0];
            let op = c.op.negate()?;
            let (lin, k) = c.to_affine()?;
            Some(vec![LinearConstraint::new(lin.clone(), op, &c.rhs - k)])
        } else {
            None
        }
    }

    /// Synchronises the simplex scopes with the current assignment and
    /// returns a conflict clause if an assertion or check fails.
    fn sync(&mut self, assignment: &Assignment) -> Option<Vec<Lit>> {
        // Literals determined by the current assignment.
        let determined = |lit: Lit| assignment.lit_value(lit) == Tri::True;

        // Pop scopes whose literal is no longer asserted; a stale literal
        // in the middle forces popping everything above it too.
        let keep = self.stack.iter().take_while(|&&l| determined(l)).count();
        while self.stack.len() > keep {
            self.stack.pop();
            self.simplex.pop();
        }

        // Push newly determined theory literals.
        for (var, _) in self.problem.defs() {
            let lit = match assignment.value(var) {
                Tri::True => var.positive(),
                Tri::False => var.negative(),
                Tri::Unknown => continue,
            };
            if self.stack.contains(&lit) {
                continue;
            }
            let Some(constraints) = self.implications(lit) else {
                continue; // handled by the final model check
            };
            self.simplex.push();
            self.stack.push(lit);
            for c in &constraints {
                match self.simplex.assert_constraint(c) {
                    Ok(cid) => {
                        if self.cid_lit.len() <= cid {
                            self.cid_lit.resize(cid + 1, None);
                        }
                        self.cid_lit[cid] = Some(lit);
                    }
                    Err(conflict) => {
                        // Immediate bound conflict. The rejected constraint
                        // gets no id; its literal joins the clause.
                        let mut clause = self.conflict_clause(&conflict, lit);
                        clause.push(!lit);
                        clause.sort_unstable();
                        clause.dedup();
                        return Some(clause);
                    }
                }
            }
        }

        match self.simplex.check() {
            CheckResult::Sat => None,
            CheckResult::Unsat(core) => Some(self.conflict_clause(&core, self.stack[0])),
        }
    }

    /// Builds a blocking clause from simplex constraint ids.
    fn conflict_clause(&self, core: &[usize], fallback: Lit) -> Vec<Lit> {
        let mut lits: Vec<Lit> = core
            .iter()
            .map(|&cid| !self.cid_lit.get(cid).copied().flatten().unwrap_or(fallback))
            .collect();
        lits.sort_unstable();
        lits.dedup();
        lits
    }

    /// Complete precise check on a total Boolean model (covers integer
    /// variables and negated equalities the incremental path skipped).
    fn final_check(&mut self, assignment: &Assignment) -> TheoryResponse {
        let mut items = Vec::new();
        let mut involved = Vec::new();
        for (var, prepared) in &self.prepared {
            let (lit, positive) = match assignment.value(*var) {
                Tri::True => (var.positive(), true),
                Tri::False => (var.negative(), false),
                Tri::Unknown => continue,
            };
            involved.push(lit);
            let tag = involved.len() - 1;
            if positive {
                for c in prepared {
                    items.push(TheoryItem {
                        tag,
                        constraint: Arc::clone(c),
                        positive: true,
                    });
                }
            } else if prepared.len() == 1 {
                items.push(TheoryItem {
                    tag,
                    constraint: Arc::clone(&prepared[0]),
                    positive: false,
                });
            } else {
                // Negated conjunction: cannot express in one item list;
                // treat as unknown (the harness never produces these for
                // the baseline workloads).
                self.had_unknown = true;
                return TheoryResponse::Conflict(involved.iter().map(|&l| !l).collect());
            }
        }
        let kinds: Vec<VarKind> = self.problem.arith_vars().iter().map(|v| v.kind).collect();
        let ranges: Vec<Interval> = self.problem.arith_vars().iter().map(|v| v.range).collect();
        let mut linear = SimplexLinear::new();
        let mut nonlinear: Vec<Box<dyn NonlinearBackend>> = Vec::new();
        let mut ctx = TheoryContext {
            num_vars: kinds.len(),
            kinds: &kinds,
            ranges: &ranges,
            linear: Some(&mut linear),
            nonlinear: &mut nonlinear,
            budget: TheoryBudget::default(),
            effort: Default::default(),
            sink: None,
            incremental: None,
            escalate: false,
            escalable: false,
        };
        match check(&items, &mut ctx) {
            TheoryVerdict::Sat(model) => {
                self.last_model = Some(model);
                TheoryResponse::Ok
            }
            TheoryVerdict::Unsat(tags) => {
                TheoryResponse::Conflict(tags.iter().map(|&t| !involved[t]).collect())
            }
            TheoryVerdict::Unknown => {
                self.had_unknown = true;
                TheoryResponse::Conflict(involved.iter().map(|&l| !l).collect())
            }
        }
    }
}

impl TheoryHook for TightHook<'_> {
    fn wants_fixpoint_checks(&self) -> bool {
        self.options.eager_fixpoint_checks
    }

    fn on_fixpoint(&mut self, assignment: &Assignment) -> TheoryResponse {
        if self.check_deadline() {
            // Force the search to stop; the wrapper reports Timeout.
            return TheoryResponse::Conflict(Vec::new());
        }
        match self.sync(assignment) {
            Some(clause) => TheoryResponse::Conflict(clause),
            None => TheoryResponse::Ok,
        }
    }

    fn on_model(&mut self, assignment: &Assignment) -> TheoryResponse {
        if self.check_deadline() {
            return TheoryResponse::Conflict(Vec::new());
        }
        self.final_check(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_core::VarKind;
    use absolver_linear::CmpOp;
    use absolver_logic::Var;
    use absolver_nonlinear::Expr;
    use absolver_num::Rational;

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn rejects_nonlinear() {
        let text = "p cnf 1 1\n1 0\nc def real 1 x * y >= 1\n";
        let p: AbProblem = text.parse().unwrap();
        let run = MathSatLike::new().solve(&p);
        assert!(matches!(run.verdict, BaselineVerdict::Rejected(_)));
    }

    #[test]
    fn solves_linear_sat() {
        let text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x + y <= 10\nc def real 2 x - y >= 2\n";
        let p: AbProblem = text.parse().unwrap();
        let run = MathSatLike::new().solve(&p);
        match run.verdict {
            BaselineVerdict::Sat(m) => assert!(m.satisfies(&p, 1e-9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn solves_linear_unsat() {
        let text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 5\nc def real 2 x <= 3\n";
        let p: AbProblem = text.parse().unwrap();
        let run = MathSatLike::new().solve(&p);
        assert_eq!(run.verdict, BaselineVerdict::Unsat);
        assert!(run.theory_conflicts >= 1);
    }

    #[test]
    fn boolean_structure_with_theory_pruning() {
        // (a ∨ b) ∧ (¬a ∨ c): theory eliminates some combinations.
        let text = "p cnf 3 2\n1 2 0\n-1 3 0\nc def real 1 x >= 5\nc def real 2 x <= 3\nc def real 3 x <= 100\n";
        let p: AbProblem = text.parse().unwrap();
        let run = MathSatLike::new().solve(&p);
        match run.verdict {
            BaselineVerdict::Sat(m) => assert!(m.satisfies(&p, 1e-9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn agrees_with_orchestrator_on_random_linear_problems() {
        use absolver_testkit::{Rng, TestRng};
        let mut rng = TestRng::seed_from_u64(0x7167_B00C);
        for round in 0..30 {
            let mut b = AbProblem::builder();
            let n_vars = rng.gen_range(1..3usize);
            let vars: Vec<usize> = (0..n_vars)
                .map(|i| b.arith_var(&format!("v{i}"), VarKind::Real))
                .collect();
            let n_atoms = rng.gen_range(1..5usize);
            let atoms: Vec<Var> = (0..n_atoms)
                .map(|_| {
                    let v = vars[rng.gen_range(0..vars.len())];
                    let k = rng.gen_range(-3i64..=3);
                    let rhs = rng.gen_range(-5i64..=5);
                    let op = match rng.gen_range(0..5) {
                        0 => CmpOp::Lt,
                        1 => CmpOp::Le,
                        2 => CmpOp::Gt,
                        3 => CmpOp::Ge,
                        _ => CmpOp::Eq,
                    };
                    b.atom(Expr::int(k) * Expr::var(v), op, q(rhs))
                })
                .collect();
            for _ in 0..rng.gen_range(1..4usize) {
                let len = rng.gen_range(1..=2usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let a = atoms[rng.gen_range(0..atoms.len())];
                        if rng.gen_bool(0.5) {
                            a.positive()
                        } else {
                            a.negative()
                        }
                    })
                    .collect();
                b.add_clause(lits);
            }
            let p = b.build();
            let tight = MathSatLike::new().solve(&p);
            let loose = absolver_core::Orchestrator::with_defaults()
                .solve(&p)
                .unwrap();
            match (&tight.verdict, &loose) {
                (BaselineVerdict::Sat(m), o) => {
                    assert!(o.is_sat(), "round {round}: tight sat, loose {o:?}");
                    assert!(m.satisfies(&p, 1e-9), "round {round}");
                }
                (BaselineVerdict::Unsat, o) => {
                    assert!(o.is_unsat(), "round {round}: tight unsat, loose {o:?}")
                }
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn timeout_fires() {
        // A pigeonhole-flavoured hard instance with a zero deadline.
        let text = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 5\nc def real 2 x <= 3\n";
        let p: AbProblem = text.parse().unwrap();
        let mut solver = MathSatLike {
            options: MathSatLikeOptions {
                time_limit: Some(Duration::ZERO),
                ..MathSatLikeOptions::default()
            },
        };
        assert_eq!(solver.solve(&p).verdict, BaselineVerdict::Timeout);
    }

    #[test]
    fn lazy_mode_matches_eager_mode() {
        let text = "p cnf 3 3\n1 2 0\n-1 3 0\n2 3 0\nc def real 1 x >= 5\nc def real 2 x <= 3\nc def real 3 x <= 100\n";
        let p: AbProblem = text.parse().unwrap();
        let eager = MathSatLike::new().solve(&p);
        let mut lazy = MathSatLike {
            options: MathSatLikeOptions {
                eager_fixpoint_checks: false,
                ..Default::default()
            },
        };
        let lazy_run = lazy.solve(&p);
        assert_eq!(eager.verdict.is_sat(), lazy_run.verdict.is_sat());
    }
}
