//! Property tests for the session frame contract (the guarantees stated
//! in `crates/core/src/session.rs`):
//!
//! * `pop` is a true undo — after a push/mutate/pop excursion the next
//!   `check` reproduces the exact pre-push verdict;
//! * an UNSAT verdict obtained *inside* a frame never leaks into later
//!   frames as an unconditional UNSAT (the classic incremental-SMT
//!   assumption-leak bug);
//! * cumulative session statistics are monotone: every check only adds
//!   to the session-lifetime counters.

use absolver::core::{Orchestrator, OrchestratorStats, Outcome, Session, VarKind};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::{Interval, Rational};
use absolver_testkit::{gen, property, Gen};

/// A random linear assertion `k1·v0 + k2·v1 ⋈ rhs`, immediately required.
#[derive(Clone, Debug)]
struct Assertion {
    k1: i64,
    k2: i64,
    rhs: i64,
    cmp: usize,
    positive: bool,
}

fn assertion_gen() -> Gen<Assertion> {
    let coeff = gen::ints(-2i64..=2);
    let rhs = gen::ints(-4i64..=4);
    let cmp = gen::ints(0..=4usize);
    let sign = gen::bool_any();
    Gen::new(move |src| Assertion {
        k1: coeff.generate(src),
        k2: coeff.generate(src),
        rhs: rhs.generate(src),
        cmp: cmp.generate(src),
        positive: sign.generate(src),
    })
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

/// Fresh session over two boxed integers; returns the session.
fn boxed_session() -> Session {
    let mut session = Session::new();
    for i in 0..2 {
        let v = session
            .arith_var(&format!("v{i}"), VarKind::Int)
            .expect("fresh names cannot clash");
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
    session
}

fn apply(session: &mut Session, a: &Assertion) {
    let expr = Expr::int(a.k1) * Expr::var(0) + Expr::int(a.k2) * Expr::var(1);
    let atom = session
        .atom(expr, cmp_op(a.cmp), Rational::from_int(a.rhs))
        .expect("declared");
    session.require(if a.positive {
        atom.positive()
    } else {
        atom.negative()
    });
}

/// The session-lifetime counters that must never decrease.
fn counters(stats: &OrchestratorStats) -> [u64; 8] {
    [
        stats.boolean_iterations,
        stats.theory_checks,
        stats.conflicts_fed_back,
        stats.conflict_literals,
        stats.unknown_checks,
        stats.simplex_pivots,
        stats.simplex_warm_starts,
        stats.hc4_contractions,
    ]
}

property! {
    #![cases = 64]

    /// `pop` restores the exact pre-push verdict, whatever happened in
    /// the frame (including nested pushes and an UNSAT check).
    fn pop_restores_the_pre_push_verdict(
        base in gen::vec_of(assertion_gen(), 0..=4),
        frame in gen::vec_of(assertion_gen(), 1..=4),
        nested in gen::bool_any(),
        check_inside in gen::bool_any(),
    ) {
        let mut session = boxed_session();
        for a in &base {
            apply(&mut session, a);
        }
        let before = session.check().expect("base check");

        session.push();
        for a in &frame {
            apply(&mut session, a);
        }
        if nested {
            session.push();
            apply(&mut session, &frame[0]);
        }
        if check_inside {
            let _ = session.check().expect("frame check");
        }
        if nested {
            session.pop().expect("nested frame");
        }
        session.pop().expect("outer frame");

        let after = session.check().expect("post-pop check");
        assert_eq!(
            verdict(&before),
            verdict(&after),
            "pop failed to restore the pre-push verdict",
        );
        if let Some(m) = after.model() {
            assert!(
                m.satisfies(session.problem(), 1e-9),
                "post-pop model fails re-check"
            );
        }
    }

    /// The assumption-leak property, stated directly: a session whose
    /// base assertions are satisfiable stays satisfiable after any
    /// push/assert-to-UNSAT/pop excursion — frame-local contradictions
    /// must never become unconditional.
    fn framed_unsat_never_leaks(
        frame in gen::vec_of(assertion_gen(), 0..=3),
    ) {
        let mut session = boxed_session();
        assert!(session.check().expect("base").is_sat(), "box alone is sat");

        session.push();
        for a in &frame {
            apply(&mut session, a);
        }
        // Guaranteed contradiction on top of whatever the frame added.
        let lt = session.atom(Expr::var(0), CmpOp::Lt, Rational::from_int(0)).expect("declared");
        session.require(lt.positive());
        let ge = session.atom(Expr::var(0), CmpOp::Ge, Rational::from_int(0)).expect("declared");
        session.require(ge.positive());
        assert!(
            session.check().expect("frame check").is_unsat(),
            "x < 0 and x >= 0 must contradict"
        );
        session.pop().expect("matching push");

        let after = session.check().expect("post-pop check");
        assert!(
            after.is_sat(),
            "frame-local UNSAT leaked into the base frame: {after:?}"
        );
    }

    /// Cumulative statistics only grow: after every check, each lifetime
    /// counter is at least its previous value, and checks/lemma counts
    /// behave likewise.
    fn cumulative_stats_are_monotone(
        rounds in gen::vec_of(assertion_gen(), 1..=6),
        with_frames in gen::bool_any(),
    ) {
        let mut session = Session::with_orchestrator(Orchestrator::with_defaults());
        let v = session.arith_var("x", VarKind::Int).expect("fresh");
        session.assert_range(v, Interval::new(-3.0, 3.0)).expect("declared");
        let lo = session.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-3)).expect("declared");
        session.require(lo.positive());
        let hi = session.atom(Expr::var(v), CmpOp::Le, Rational::from_int(3)).expect("declared");
        session.require(hi.positive());

        let mut prev = counters(&session.cumulative_stats());
        let mut prev_checks = session.checks();
        for (i, a) in rounds.iter().enumerate() {
            if with_frames && i % 2 == 0 {
                session.push();
            }
            let expr = Expr::int(a.k1) * Expr::var(0);
            let atom = session.atom(expr, cmp_op(a.cmp), Rational::from_int(a.rhs)).expect("declared");
            session.require(if a.positive { atom.positive() } else { atom.negative() });
            let _ = session.check().expect("round check");

            let now = counters(&session.cumulative_stats());
            for (slot, (new, old)) in now.iter().zip(prev.iter()).enumerate() {
                assert!(
                    new >= old,
                    "round {i}: cumulative counter #{slot} decreased ({old} -> {new})"
                );
            }
            assert!(
                session.checks() == prev_checks + 1,
                "round {i}: check counter must advance by exactly one"
            );
            prev = now;
            prev_checks = session.checks();

            if with_frames && i % 2 == 0 {
                session.pop().expect("matching push");
            }
        }
    }
}
