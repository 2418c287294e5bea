//! The equisatisfiable simplifier (the preprocessing half of the
//! analyzer).
//!
//! Four passes, all justified by the 3-valued reading of an AB-problem:
//!
//! 1. **Static atom elimination** — every definition constraint is
//!    checked over the *entire* box with rigorous interval arithmetic
//!    ([`NlConstraint::check_box`]). A constraint certainly true at every
//!    point of ℝⁿ is dropped from its conjunction; a definition with a
//!    certainly-false constraint forces its Boolean variable to `ff`, one
//!    whose constraints all vanish forces it to `tt`. The entire box is
//!    deliberate: declared `range` directives only seed the nonlinear
//!    engine's initial search box, they do not bind the linear engine, so
//!    only entire-box certainty is sound for rewriting.
//!
//! 1b. **Subsumption and dominance pruning** — inside each surviving
//!    conjunction, duplicate conjuncts (same interned id) and
//!    affine-dominated conjuncts (`a·x ≤ b` makes `a·x ≤ b'` redundant
//!    for `b ≤ b'`) are dropped — both equivalence-preserving on the
//!    conjunction — and a contradictory affine pair (`row ≥ l ∧ row ≤ u`,
//!    `l > u`) forces the defined variable to `ff` exactly like a
//!    certainly-false conjunct. Clauses subsumed by a strictly shorter
//!    clause are dropped from the CNF (the classic subsumption rule,
//!    model-set preserving).
//! 2. **Unit propagation and redundant-clause removal** — unit clauses
//!    propagate to a fixpoint; satisfied clauses, tautologies, and
//!    duplicate clauses are dropped; falsified literals are stripped. An
//!    empty clause proves the problem unsatisfiable outright. Units on
//!    *defined* variables are re-emitted (the solver must still discharge
//!    their theory obligation); units on plain Boolean variables are
//!    eliminated and recorded in the [`Reconstruction`].
//! 3. **Pure-literal elimination** — restricted to *undefined* variables:
//!    flipping a defined variable is observable by the theory, so the
//!    classic pure-literal argument only applies to the pure Boolean
//!    skeleton.
//! 4. **Range tightening** — the constraints forced `tt` by the unit
//!    fixpoint (and single-constraint negations of forced-`ff` atoms)
//!    hold in every model, so an HC4 propagation from the entire box
//!    yields a sound hull; intersecting it into the declared ranges
//!    shrinks the nonlinear engine's initial boxes without excluding any
//!    model. An empty hull is a rigorous unsatisfiability proof.
//!
//! Variable numbering is never changed, so model reconstruction is just
//! re-asserting the recorded polarities ([`Reconstruction::lift`]).

use crate::structure::{prune_conjunction, subsumed_clauses};
use absolver_core::preprocess::{
    PreprocessSummary, Preprocessed, ProblemPreprocessor, Reconstruction,
};
use absolver_core::AbProblem;
use absolver_logic::{Lit, Var};
use absolver_nonlinear::hc4;
use absolver_nonlinear::hc4::Contraction;
use absolver_nonlinear::{IntervalVerdict, NlConstraint};
use absolver_num::Interval;
use std::collections::{BTreeMap, HashSet};

/// The analyzer's preprocessing pass. Attach to an orchestrator with
/// [`absolver_core::Orchestrator::with_preprocessor`]. Neither the CLI
/// nor the daemon does: the pass slowed every input measured. It is kept
/// because the benchmark harness (`perfbench`) still installs it.
///
/// ```
/// use absolver_analyze::Simplifier;
/// use absolver_core::{AbProblem, Orchestrator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem: AbProblem =
///     "p cnf 2 2\n1 0\n1 2 0\nc def real 1 x ^ 2 >= 0\n".parse()?;
/// let mut solver = Orchestrator::with_defaults()
///     .with_preprocessor(Box::new(Simplifier::new()));
/// let outcome = solver.solve(&problem)?;
/// assert!(outcome.model().unwrap().satisfies(&problem, 1e-9));
/// assert_eq!(solver.stats().pre_atoms_eliminated, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simplifier {
    /// Fixpoint sweep bound of the HC4 range-tightening pass.
    pub max_hc4_rounds: usize,
}

impl Default for Simplifier {
    fn default() -> Simplifier {
        Simplifier { max_hc4_rounds: 16 }
    }
}

impl Simplifier {
    /// Creates a simplifier with default budgets.
    pub fn new() -> Simplifier {
        Simplifier::default()
    }

    /// Runs all passes over `problem`.
    pub fn simplify(&self, problem: &AbProblem) -> Preprocessed {
        let num_bool = problem.cnf().num_vars();
        let num_arith = problem.arith_vars().len();
        let mut summary = PreprocessSummary::default();

        // Pass 1: static atom elimination over the entire box.
        let entire = vec![Interval::ENTIRE; num_arith];
        let mut defs: BTreeMap<u32, Vec<NlConstraint>> = BTreeMap::new();
        let mut static_units: Vec<Lit> = Vec::new();
        for (var, def) in problem.defs() {
            if def
                .constraints
                .iter()
                .any(|c| c.check_box(&entire) == IntervalVerdict::CertainlyFalse)
            {
                // Some conjunct fails at every point: the atom can never
                // be asserted, and its negation holds at every point.
                summary.atoms_eliminated += def.constraints.len() as u64;
                static_units.push(var.negative());
                continue;
            }
            let kept: Vec<NlConstraint> = def
                .constraints
                .iter()
                .filter(|c| c.check_box(&entire) != IntervalVerdict::CertainlyTrue)
                .cloned()
                .collect();
            summary.atoms_eliminated += (def.constraints.len() - kept.len()) as u64;
            if kept.is_empty() {
                // Every conjunct holds at every point: the atom is `tt`.
                static_units.push(var.positive());
            } else {
                defs.insert(var.index() as u32, kept);
            }
        }

        // Pass 1b: subsumption/dominance pruning inside each surviving
        // conjunction. Dropping a duplicate or dominated conjunct leaves
        // the conjunction equivalent; a contradictory affine pair means
        // the atom can never hold, which forces its variable to `ff`
        // exactly like a certainly-false conjunct.
        let mut contradicted: Vec<u32> = Vec::new();
        for (&v, constraints) in defs.iter_mut() {
            let pruning = prune_conjunction(constraints);
            if pruning.contradiction.is_some() {
                contradicted.push(v);
                continue;
            }
            if pruning.dropped() > 0 {
                summary.constraints_subsumed += pruning.dropped() as u64;
                let kept: Vec<NlConstraint> = pruning
                    .kept
                    .iter()
                    .map(|&i| constraints[i].clone())
                    .collect();
                *constraints = kept;
            }
        }
        for v in contradicted {
            let removed = defs.remove(&v).expect("contradicted def exists");
            summary.atoms_eliminated += removed.len() as u64;
            static_units.push(Var::new(v).negative());
        }

        // Pass 2/3: unit propagation, clause cleanup, pure literals.
        let mut fixed: Vec<Option<bool>> = vec![None; num_bool];
        let mut clauses: Vec<Option<Vec<Lit>>> = Vec::with_capacity(problem.cnf().len());
        let mut seen: HashSet<Vec<Lit>> = HashSet::new();
        for clause in problem.cnf().clauses() {
            let mut lits: Vec<Lit> = clause.lits().to_vec();
            lits.sort_by_key(|l| l.code());
            lits.dedup();
            let tautology = lits
                .windows(2)
                .any(|w| w[0].var() == w[1].var() && w[0] != w[1]);
            // Boolean models are total (`BooleanSolver::next_model`), so a
            // dropped tautology stays satisfied after lifting regardless
            // of how its variables end up assigned.
            if tautology || !seen.insert(lits.clone()) {
                clauses.push(None);
            } else {
                clauses.push(Some(lits));
            }
        }
        // Clause subsumption: a clause containing every literal of a
        // strictly shorter clause is implied by it, so dropping it
        // preserves the model set exactly.
        let entries: Vec<(usize, Vec<Lit>)> = clauses
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|lits| (i, lits.clone())))
            .collect();
        for (sub, _) in subsumed_clauses(&entries) {
            clauses[sub] = None;
            summary.constraints_subsumed += 1;
        }
        let fix = |fixed: &mut Vec<Option<bool>>, lit: Lit| -> Result<bool, ()> {
            let value = lit.is_positive();
            match fixed[lit.var().index()] {
                Some(v) if v == value => Ok(false),
                Some(_) => Err(()), // complementary units: unsatisfiable
                None => {
                    fixed[lit.var().index()] = Some(value);
                    Ok(true)
                }
            }
        };
        for &lit in &static_units {
            if fix(&mut fixed, lit).is_err() {
                return Preprocessed::TriviallyUnsat { summary };
            }
        }
        loop {
            let mut changed = false;
            // Apply the fixed values to every live clause.
            for slot in clauses.iter_mut() {
                let Some(lits) = slot else { continue };
                if lits
                    .iter()
                    .any(|l| fixed[l.var().index()] == Some(l.is_positive()))
                {
                    *slot = None; // satisfied in every remaining model
                    changed = true;
                    continue;
                }
                let before = lits.len();
                lits.retain(|l| fixed[l.var().index()].is_none());
                if lits.is_empty() {
                    return Preprocessed::TriviallyUnsat { summary };
                }
                changed |= lits.len() != before;
            }
            // Unit clauses fix their literal.
            for slot in clauses.iter_mut() {
                let Some(lits) = slot else { continue };
                if lits.len() == 1 {
                    match fix(&mut fixed, lits[0]) {
                        Ok(c) => changed |= c,
                        Err(()) => return Preprocessed::TriviallyUnsat { summary },
                    }
                }
            }
            // Pure literals, undefined variables only: the theory observes
            // a defined variable's polarity, so flipping is only free for
            // the pure Boolean skeleton.
            let mut polarity: Vec<(bool, bool)> = vec![(false, false); num_bool];
            for lits in clauses.iter().flatten() {
                for l in lits {
                    let p = &mut polarity[l.var().index()];
                    if l.is_positive() {
                        p.0 = true;
                    } else {
                        p.1 = true;
                    }
                }
            }
            for (v, &(pos, neg)) in polarity.iter().enumerate() {
                if fixed[v].is_some() || defs.contains_key(&(v as u32)) || pos == neg {
                    continue;
                }
                // Occurs in exactly one polarity: fix it that way.
                fixed[v] = Some(pos);
                changed = true;
            }
            if !changed {
                break;
            }
        }

        // Fixed variables without a surviving definition leave the problem
        // entirely; reconstruction re-asserts them. Fixed *defined*
        // variables keep a unit clause so the control loop still
        // discharges their theory obligation.
        let mut forced: Vec<(Var, bool)> = Vec::new();
        let mut kept_units: Vec<Lit> = Vec::new();
        for (v, value) in fixed.iter().enumerate() {
            let Some(value) = *value else { continue };
            let var = Var::new(v as u32);
            if defs.contains_key(&(v as u32)) {
                kept_units.push(if value {
                    var.positive()
                } else {
                    var.negative()
                });
            } else {
                forced.push((var, value));
            }
        }
        summary.vars_eliminated = forced.len() as u64;

        // Pass 4: range tightening from the unit-forced constraints.
        let mut asserted: Vec<NlConstraint> = Vec::new();
        for (&v, constraints) in &defs {
            match fixed[v as usize] {
                Some(true) => asserted.extend(constraints.iter().cloned()),
                Some(false) if constraints.len() == 1 => {
                    // ¬(single constraint) is assertable only when the
                    // negation is again a single constraint (`=` splits
                    // into a disjunction, which HC4 cannot assert).
                    let negated = constraints[0].negate();
                    if let [only] = negated.as_slice() {
                        asserted.push(only.clone());
                    }
                }
                _ => {}
            }
        }
        let mut ranges: Vec<Interval> = problem.arith_vars().iter().map(|v| v.range).collect();
        if !asserted.is_empty() {
            let mut hull = vec![Interval::ENTIRE; num_arith];
            if hc4::propagate(&asserted, &mut hull, self.max_hc4_rounds) == Contraction::Empty {
                // No real point satisfies the forced conjunction, and the
                // hull started from the entire box: rigorous refutation.
                return Preprocessed::TriviallyUnsat { summary };
            }
            for (range, h) in ranges.iter_mut().zip(&hull) {
                let tightened = range.intersect(*h);
                // An empty intersection would only say "no model inside
                // the declared box", which the declared-box semantics do
                // not let us act on; keep the declared range then.
                if !tightened.is_empty() && tightened != *range {
                    *range = tightened;
                    summary.ranges_tightened += 1;
                }
            }
        }

        // Rebuild with identical numbering.
        let mut b = AbProblem::builder();
        for (v, range) in problem.arith_vars().iter().zip(&ranges) {
            let id = b.arith_var(&v.name, v.kind);
            b.set_range(id, *range);
        }
        while b.num_bool_vars() < num_bool {
            b.bool_var();
        }
        for (&v, constraints) in &defs {
            for c in constraints {
                b.define(Var::new(v), c.clone());
            }
        }
        let mut emitted = 0usize;
        for lits in clauses.into_iter().flatten() {
            emitted += 1;
            b.add_clause(lits);
        }
        for &unit in &kept_units {
            emitted += 1;
            b.add_clause([unit]);
        }
        summary.clauses_eliminated = (problem.cnf().len().saturating_sub(emitted)) as u64;
        Preprocessed::Shrunk {
            problem: b.build(),
            reconstruction: Reconstruction { forced },
            summary,
        }
    }
}

impl ProblemPreprocessor for Simplifier {
    fn name(&self) -> &str {
        "analyze-simplify"
    }

    fn preprocess(&self, problem: &AbProblem) -> Preprocessed {
        self.simplify(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_core::{Orchestrator, VarKind};
    use absolver_linear::CmpOp;
    use absolver_nonlinear::Expr;
    use absolver_num::Rational;

    fn shrunk(p: Preprocessed) -> (AbProblem, Reconstruction, PreprocessSummary) {
        match p {
            Preprocessed::Shrunk {
                problem,
                reconstruction,
                summary,
            } => (problem, reconstruction, summary),
            Preprocessed::TriviallyUnsat { .. } => panic!("unexpected trivial unsat"),
        }
    }

    #[test]
    fn statically_true_atom_is_eliminated() {
        // x² ≥ 0 holds at every real point.
        let problem: AbProblem = "p cnf 2 2\n1 0\n1 2 0\nc def real 1 x ^ 2 >= 0\n"
            .parse()
            .unwrap();
        let (small, rec, summary) = shrunk(Simplifier::new().simplify(&problem));
        assert_eq!(summary.atoms_eliminated, 1);
        assert_eq!(small.num_defs(), 0);
        // Variable 1 is forced true, both clauses die, variable 1 leaves.
        assert!(rec.forced.contains(&(Var::new(0), true)));
        assert_eq!(small.cnf().len(), 0);
    }

    #[test]
    fn statically_false_atom_forces_negation() {
        // x² < 0 fails at every real point, and the clause demands it.
        let problem: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x ^ 2 < 0\n".parse().unwrap();
        match Simplifier::new().simplify(&problem) {
            Preprocessed::TriviallyUnsat { summary } => {
                assert_eq!(summary.atoms_eliminated, 1);
            }
            other => panic!("expected trivial unsat, got {other:?}"),
        }
    }

    #[test]
    fn unit_propagation_eliminates_pure_boolean_structure() {
        // (1) (−1 ∨ 2) (2 ∨ 3): the unit fixes 1, propagation fixes 2,
        // and the pure-literal pass picks up 2 and 3 (positive-only).
        let problem: AbProblem = "p cnf 3 3\n1 0\n-1 2 0\n2 3 0\n".parse().unwrap();
        let (small, rec, summary) = shrunk(Simplifier::new().simplify(&problem));
        assert_eq!(small.cnf().len(), 0);
        assert_eq!(summary.clauses_eliminated, 3);
        assert_eq!(summary.vars_eliminated, 3);
        let mut model = absolver_core::AbModel {
            boolean: absolver_logic::Assignment::new(3),
            arith: absolver_core::ArithModel::Numeric(vec![]),
        };
        rec.lift(&mut model);
        assert!(model.satisfies(&problem, 1e-9));
    }

    #[test]
    fn complementary_units_are_trivially_unsat() {
        let problem: AbProblem = "p cnf 1 2\n1 0\n-1 0\n".parse().unwrap();
        assert!(matches!(
            Simplifier::new().simplify(&problem),
            Preprocessed::TriviallyUnsat { .. }
        ));
    }

    #[test]
    fn tautologies_and_duplicates_are_dropped() {
        let problem: AbProblem = "p cnf 2 3\n1 -1 0\n1 2 0\n2 1 0\n".parse().unwrap();
        let (small, _, summary) = shrunk(Simplifier::new().simplify(&problem));
        // The tautology and the duplicate go; the survivor is then pure.
        assert_eq!(small.cnf().len(), 0);
        assert!(summary.clauses_eliminated >= 2);
    }

    #[test]
    fn defined_units_keep_their_theory_obligation() {
        // Unit on a defined variable: the variable must stay in the
        // problem (as a unit) so the control loop checks x ≥ 2.
        let problem: AbProblem = "p cnf 2 2\n1 0\n1 2 0\nc def real 1 x >= 2\n"
            .parse()
            .unwrap();
        let (small, rec, _) = shrunk(Simplifier::new().simplify(&problem));
        assert_eq!(small.num_defs(), 1);
        assert_eq!(small.cnf().len(), 1);
        assert_eq!(small.cnf().clauses()[0].lits(), &[Var::new(0).positive()]);
        // Variable 1 is not in the reconstruction: the solver assigns it.
        assert!(rec.forced.iter().all(|&(v, _)| v != Var::new(0)));
    }

    #[test]
    fn ranges_tighten_from_forced_constraints() {
        let problem: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 2\nc range x -10 10\n"
            .parse()
            .unwrap();
        let (small, _, summary) = shrunk(Simplifier::new().simplify(&problem));
        assert_eq!(summary.ranges_tightened, 1);
        let x = small.arith_var("x").unwrap();
        let range = small.arith_vars()[x].range;
        assert!(range.lo() >= 2.0 && range.hi() <= 10.0, "got {range:?}");
    }

    #[test]
    fn forced_negation_tightens_too() {
        // ¬(x ≤ 0) ⇒ x > 0: the negation is a single constraint and may
        // be asserted for tightening.
        let problem: AbProblem = "p cnf 1 1\n-1 0\nc def real 1 x <= 0\nc range x -10 10\n"
            .parse()
            .unwrap();
        let (small, _, summary) = shrunk(Simplifier::new().simplify(&problem));
        assert_eq!(summary.ranges_tightened, 1);
        let x = small.arith_var("x").unwrap();
        assert!(small.arith_vars()[x].range.lo() >= 0.0);
    }

    #[test]
    fn hc4_refutation_is_trivially_unsat() {
        // x ≥ 1 ∧ x ≤ 0 forced by two units: the hull empties.
        let problem: AbProblem = "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 1\nc def real 2 x <= 0\n"
            .parse()
            .unwrap();
        assert!(matches!(
            Simplifier::new().simplify(&problem),
            Preprocessed::TriviallyUnsat { .. }
        ));
    }

    #[test]
    fn solver_verdicts_and_lifted_models_agree() {
        // End-to-end through the orchestrator on the paper's example.
        let text = "\
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
        let problem: AbProblem = text.parse().unwrap();
        let mut plain = Orchestrator::with_defaults();
        let baseline = plain.solve(&problem).unwrap();
        let mut pre = Orchestrator::with_defaults().with_preprocessor(Box::new(Simplifier::new()));
        let outcome = pre.solve(&problem).unwrap();
        assert_eq!(baseline.is_sat(), outcome.is_sat());
        let model = outcome.model().expect("paper example is satisfiable");
        assert!(model.satisfies(&problem, 1e-6));
    }

    #[test]
    fn builder_problems_survive_simplification() {
        let mut b = AbProblem::builder();
        let x = b.arith_var("x", VarKind::Int);
        let lo = b.atom(Expr::var(x), CmpOp::Ge, Rational::from_int(-3));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(x), CmpOp::Le, Rational::from_int(3));
        b.require(hi.positive());
        let mid = b.atom(Expr::var(x), CmpOp::Eq, Rational::from_int(1));
        let free = b.bool_var();
        b.add_clause([mid.positive(), free.positive()]);
        let problem = b.build();

        let mut pre = Orchestrator::with_defaults().with_preprocessor(Box::new(Simplifier::new()));
        let outcome = pre.solve(&problem).unwrap();
        assert!(outcome.is_sat());
        assert!(outcome.model().unwrap().satisfies(&problem, 1e-9));
    }
}
