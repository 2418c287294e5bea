//! Property suite for the hash-consed term arena (`absolver_nonlinear::term`).
//!
//! The intern layer's contract is threefold, and each clause gets its own
//! differential property against the legacy tree representation:
//!
//! * **Round-trip** — `rebuild(intern(e))` is structurally identical to
//!   `e`: interning neither simplifies nor reorders.
//! * **Id equality is structural equality** — two expressions intern to
//!   the same `TermId` exactly when they are structurally equal. This is
//!   the soundness basis for every identity-keyed cache downstream (the
//!   service's problem keys).
//! * **Tape evaluation agrees with tree evaluation** — the flat postorder
//!   tape must reproduce the recursive evaluator bit for bit, on `f64`
//!   points and on interval boxes, and the memoised derivative tape must
//!   be exactly the legacy `derivative(v).simplify()`.

use absolver::nonlinear::{term, Expr};
use absolver::num::Interval;
use absolver_testkit::{domain, gen, property, Gen};

fn expr_gen() -> Gen<Expr> {
    domain::expr(2, 3, domain::ExprProfile::rich())
}

/// Bitwise f64 equality with NaN ≡ NaN (evaluation must agree even on
/// undefined points).
fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

property! {
    #![cases = 128]

    /// Interning then rebuilding returns the exact input tree.
    fn intern_rebuild_round_trip(e in expr_gen()) {
        let id = term::intern(&e);
        assert_eq!(term::rebuild(id), e, "rebuild(intern(e)) must be e");
    }

    /// `TermId` equality coincides with structural equality.
    fn id_equality_is_structural_equality(e1 in expr_gen(), e2 in expr_gen()) {
        let (i1, i2) = (term::intern(&e1), term::intern(&e2));
        assert_eq!(
            i1 == i2,
            e1 == e2,
            "ids {i1:?}/{i2:?} disagree with structure for {e1} vs {e2}"
        );
    }

    /// The flat tape reproduces the recursive `f64` evaluator bit for bit.
    fn tape_f64_matches_tree_eval(
        e in expr_gen(),
        tx in gen::f64_in(-4.0, 4.0),
        ty in gen::f64_in(-4.0, 4.0),
    ) {
        let (_, tape) = term::intern_with_tape(&e);
        let point = [tx, ty];
        let flat = tape.eval_f64(&point);
        let tree = e.eval_f64(&point);
        assert!(same_f64(flat, tree), "{e} at {point:?}: tape {flat} vs tree {tree}");
    }

    /// The flat tape reproduces the recursive interval evaluator exactly.
    fn tape_interval_matches_tree_eval(
        e in expr_gen(),
        lo in gen::f64_in(-3.0, 0.0),
        w1 in gen::f64_in(0.0, 4.0),
        w2 in gen::f64_in(0.0, 4.0),
    ) {
        let (_, tape) = term::intern_with_tape(&e);
        let boxes = [Interval::new(lo, lo + w1), Interval::new(-1.0, -1.0 + w2)];
        let flat = tape.eval_interval(&boxes);
        let tree = e.eval_interval(&boxes);
        assert_eq!(flat, tree, "{e} over {boxes:?}: tape {flat} vs tree {tree}");
    }

    /// The memoised derivative tape is exactly the legacy symbolic
    /// derivative (simplified), for both mentioned variables — so the
    /// Newton contractor sees identical partials arena- or tree-side.
    fn derivative_tape_matches_legacy(e in expr_gen(), v in gen::ints(0usize..2)) {
        let id = term::intern(&e);
        let (did, dtape) = term::derivative_tape(id, v);
        let legacy = e.derivative(v).simplify();
        assert_eq!(
            term::rebuild(did),
            legacy,
            "∂{e}/∂v{v}: arena derivative diverges from legacy"
        );
        // And the memo returns the identical id on a second request.
        let (did2, _) = term::derivative_tape(id, v);
        assert_eq!(did, did2, "derivative memo must be stable");
        // Spot-check the tape evaluates like the legacy tree.
        let p = [0.5, -0.25];
        assert!(
            same_f64(dtape.eval_f64(&p), legacy.eval_f64(&p)),
            "∂{e}/∂v{v}: tape/tree eval diverge at {p:?}"
        );
    }
}

#[test]
fn interning_twice_hits_the_dedup_counter() {
    // A fresh, unlikely-to-collide expression: first intern allocates,
    // the second is answered by the table.
    let e = (Expr::var(0) + Expr::int(987_654_321)).sin() * Expr::var(1);
    let (i0, d0) = term::local_counters();
    let a = term::intern(&e);
    let (i1, d1) = term::local_counters();
    assert!(i1 > i0 || d1 > d0, "interning must touch the counters");
    let b = term::intern(&e);
    let (_, d2) = term::local_counters();
    assert_eq!(a, b);
    assert!(d2 > d1, "re-interning a known term must count dedup hits");
}

#[test]
fn arena_stats_report_dedup() {
    let e = Expr::var(0) * Expr::var(0) + Expr::int(77_777);
    term::intern(&e);
    term::intern(&e);
    let stats = term::stats();
    assert!(stats.terms > 0);
    assert!(stats.dedup_hits > 0, "global dedup counter must move");
}
