//! Differential session-fuzz suite: a persistent [`Session`] driven
//! through randomized `push`/`pop`/`assert`/`check` interleavings must be
//! *invisible* next to a fresh solver — at every `check`, the session's
//! verdict must equal what a brand-new orchestrator says about the
//! problem as currently asserted, and every satisfiable model must
//! re-check against that problem.
//!
//! The corpus is restricted to the Boolean-linear fragment over small
//! boxed integers (the `solver_agreement` shape), where verdicts are
//! decisive: the only legitimate difference between a warm session and a
//! fresh solve is effort, never the answer.
//!
//! The pinned tape in `testkit-regressions/session_agreement.txt` locks
//! in the stale-learned-clause hazard shape — an UNSAT check inside a
//! pushed frame followed by checks after `pop` — alongside the explicit
//! deterministic regressions below.

use absolver::core::{Orchestrator, Outcome, Session, VarKind};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::{Interval, Rational};
use absolver_testkit::{gen, property, Gen};

/// One step of a session script. Atom/clause indices are resolved modulo
/// the number of atoms declared *so far*, so tapes stay meaningful under
/// shrinking.
#[derive(Clone, Debug)]
enum Op {
    /// Declare a fresh linear atom `k1·v1 + k2·v2 ⋈ rhs` (no clause yet).
    Atom {
        v1: usize,
        v2: usize,
        k1: i64,
        k2: i64,
        rhs: i64,
        cmp: usize,
    },
    /// Assert a clause over already-declared atoms.
    Clause {
        picks: Vec<(usize, bool)>,
    },
    Push,
    Pop,
    Check,
}

fn atom_gen() -> Gen<Op> {
    let var = gen::ints(0..=1usize);
    let coeff = gen::ints(-2i64..=2);
    let rhs = gen::ints(-4i64..=4);
    let cmp = gen::ints(0..=4usize);
    Gen::new(move |src| Op::Atom {
        v1: var.generate(src),
        v2: var.generate(src),
        k1: coeff.generate(src),
        k2: coeff.generate(src),
        rhs: rhs.generate(src),
        cmp: cmp.generate(src),
    })
}

fn clause_gen() -> Gen<Op> {
    let pick = {
        let idx = gen::ints(0..=7usize);
        let sign = gen::bool_any();
        Gen::new(move |src| (idx.generate(src), sign.generate(src)))
    };
    gen::vec_of(pick, 1..=3).map(|picks| Op::Clause { picks })
}

/// Weighted op mix: assertions dominate, with enough frame traffic and
/// checks to interleave them meaningfully.
fn op_gen() -> Gen<Op> {
    gen::one_of(vec![
        atom_gen(),
        atom_gen(),
        atom_gen(),
        clause_gen(),
        clause_gen(),
        clause_gen(),
        Gen::new(|_| Op::Push),
        Gen::new(|_| Op::Push),
        Gen::new(|_| Op::Pop),
        Gen::new(|_| Op::Pop),
        Gen::new(|_| Op::Check),
        Gen::new(|_| Op::Check),
        Gen::new(|_| Op::Check),
    ])
}

fn cmp_op(idx: usize) -> CmpOp {
    match idx % 5 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    }
}

fn verdict(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Sat(_) => "sat",
        Outcome::Unsat => "unsat",
        Outcome::Unknown => "unknown",
    }
}

/// Replays `ops` through one persistent session, checking every verdict
/// and model against a fresh solver on the identical problem. Returns the
/// number of checks run.
fn run_script(ops: &[Op]) -> usize {
    let mut session = Session::new();
    let vars: Vec<_> = (0..2)
        .map(|i| {
            session
                .arith_var(&format!("v{i}"), VarKind::Int)
                .expect("fresh names cannot clash")
        })
        .collect();
    for &v in &vars {
        session
            .assert_range(v, Interval::new(-3.0, 3.0))
            .expect("declared above");
        let lo = session
            .atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-3))
            .expect("declared");
        session.require(lo.positive());
        let hi = session
            .atom(Expr::var(v), CmpOp::Le, Rational::from_int(3))
            .expect("declared");
        session.require(hi.positive());
    }
    let mut atoms = Vec::new();
    let mut checks = 0usize;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Atom {
                v1,
                v2,
                k1,
                k2,
                rhs,
                cmp,
            } => {
                let expr =
                    Expr::int(*k1) * Expr::var(vars[*v1]) + Expr::int(*k2) * Expr::var(vars[*v2]);
                atoms.push(
                    session
                        .atom(expr, cmp_op(*cmp), Rational::from_int(*rhs))
                        .expect("declared"),
                );
            }
            Op::Clause { picks } => {
                if atoms.is_empty() {
                    continue;
                }
                let lits: Vec<_> = picks
                    .iter()
                    .map(|&(idx, positive)| {
                        let a = atoms[idx % atoms.len()];
                        if positive {
                            a.positive()
                        } else {
                            a.negative()
                        }
                    })
                    .collect();
                session.assert_clause(lits);
            }
            Op::Push => session.push(),
            Op::Pop => {
                // Popping the root is an error by contract; scripts just
                // skip it.
                let _ = session.pop();
            }
            Op::Check => {
                checks += 1;
                let got = session
                    .check()
                    .unwrap_or_else(|e| panic!("step {step}: session check failed: {e}"));
                let want = Orchestrator::with_defaults()
                    .solve(session.problem())
                    .unwrap_or_else(|e| panic!("step {step}: oracle failed: {e}"));
                assert_eq!(
                    verdict(&got),
                    verdict(&want),
                    "step {step} (check {checks}, depth {}): session says {} but a \
                     fresh solver says {}",
                    session.depth(),
                    verdict(&got),
                    verdict(&want),
                );
                if let Some(m) = got.model() {
                    assert!(
                        m.satisfies(session.problem(), 1e-9),
                        "step {step}: session model fails re-check"
                    );
                }
                if let Some(m) = want.model() {
                    assert!(
                        m.satisfies(session.problem(), 1e-9),
                        "step {step}: oracle model fails re-check"
                    );
                }
            }
        }
    }
    checks
}

property! {
    #![cases = 128]

    /// The tentpole differential property: randomized interleavings of
    /// `push`/`pop`/`assert`/`check`, verdict- and model-checked against
    /// a fresh-solver-per-check oracle.
    fn session_interleavings_agree_with_fresh_solver(
        ops in gen::vec_of(op_gen(), 4..=24),
    ) {
        run_script(&ops);
    }
}

// ----------------------------------------------------------------------
// Deterministic stale-learned-clause regressions
// ----------------------------------------------------------------------

/// The hazard the frame contract exists to prevent: atoms declared in
/// frame 2 die with the `pop`, and a later assertion re-uses their
/// variable indices with a *different* meaning. A lemma learned from the
/// frame-2 UNSAT conflict (`¬a ∨ ¬b` over the old atoms) would, if kept,
/// incorrectly constrain the recycled indices and flip a satisfiable
/// frame-1 check to UNSAT.
#[test]
fn popped_frame_lemmas_do_not_poison_recycled_variables() {
    let mut session = Session::new();
    let x = session.arith_var("x", VarKind::Int).unwrap();
    session.assert_range(x, Interval::new(-3.0, 3.0)).unwrap();
    let lo = session
        .atom(Expr::var(x), CmpOp::Ge, Rational::from_int(-3))
        .expect("declared");
    session.require(lo.positive());
    let hi = session
        .atom(Expr::var(x), CmpOp::Le, Rational::from_int(3))
        .expect("declared");
    session.require(hi.positive());
    assert!(session.check().unwrap().is_sat(), "frame 1 baseline");

    // Frame 2: two contradictory atoms, both asserted — the theory
    // conflict teaches the solver `¬(x ≥ 2) ∨ ¬(x ≤ 1)`.
    session.push();
    let ge2 = session
        .atom(Expr::var(x), CmpOp::Ge, Rational::from_int(2))
        .expect("declared");
    session.require(ge2.positive());
    let le1 = session
        .atom(Expr::var(x), CmpOp::Le, Rational::from_int(1))
        .expect("declared");
    session.require(le1.positive());
    assert!(
        session.check().unwrap().is_unsat(),
        "frame 2 is contradictory"
    );
    session.pop().unwrap();

    // Recycle the indices: the same Boolean slots now mean `x ≥ 2` and
    // `x ≤ 3`, which are jointly satisfiable — and we demand both. A
    // stale frame-2 lemma over these indices would force UNSAT.
    let ge2_again = session
        .atom(Expr::var(x), CmpOp::Ge, Rational::from_int(2))
        .expect("declared");
    session.require(ge2_again.positive());
    let le3 = session
        .atom(Expr::var(x), CmpOp::Le, Rational::from_int(3))
        .expect("declared");
    session.require(le3.positive());
    let outcome = session.check().unwrap();
    assert!(
        outcome.is_sat(),
        "stale frame-2 lemma flipped a satisfiable frame-1 check: {outcome:?}"
    );
    let model = outcome.model().expect("sat outcome carries a model");
    assert!(model.satisfies(session.problem(), 1e-9));
}

/// Range flavour of the same hazard: an UNSAT proof found under a
/// frame-local range tightening must not survive the `pop` that widens
/// the box back out (nonlinear path, where ranges are load-bearing).
#[test]
fn popped_range_tightening_does_not_pin_unsat() {
    let mut session = Session::new();
    let x = session.arith_var("x", VarKind::Real).unwrap();
    session.assert_range(x, Interval::new(-2.0, 2.0)).unwrap();
    // x² = 2 — satisfiable at ±√2 in the full box.
    let a = session
        .atom(Expr::var(x).pow(2), CmpOp::Eq, Rational::from_int(2))
        .expect("declared");
    session.require(a.positive());
    assert!(session.check().unwrap().is_sat(), "±√2 is in the box");

    session.push();
    session.assert_range(x, Interval::new(-1.0, 1.0)).unwrap();
    assert!(
        session.check().unwrap().is_unsat(),
        "x² = 2 has no root in [-1, 1]"
    );
    session.pop().unwrap();

    let outcome = session.check().unwrap();
    assert!(
        outcome.is_sat(),
        "frame-local tightening leaked: post-pop check is {outcome:?}"
    );
    let model = outcome.model().expect("sat outcome carries a model");
    assert!(model.satisfies(session.problem(), 1e-6));
}
