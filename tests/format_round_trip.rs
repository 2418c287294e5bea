//! Property-based round-trip tests of the extended DIMACS format across
//! randomly generated AB-problems.

use absolver::core::{parser, AbProblem, VarKind};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use absolver_testkit::domain::{self, ExprProfile};
use absolver_testkit::{gen, property, Gen};

fn problem_gen() -> Gen<AbProblem> {
    let atoms = gen::vec_of(
        {
            let e = domain::expr(3, 3, ExprProfile::rich());
            let op = domain::cmp_op();
            let rhs = gen::ints(-20i64..=20);
            Gen::new(move |src| (e.generate(src), op.generate(src), rhs.generate(src)))
        },
        1..6,
    );
    let clauses = gen::vec_of(
        gen::vec_of(
            {
                let i = gen::ints(0usize..6);
                let neg = gen::bool_any();
                Gen::new(move |src| (i.generate(src), neg.generate(src)))
            },
            1..4,
        ),
        0..6,
    );
    let int_kind = gen::bool_any();
    Gen::new(move |src| {
        let (atoms, clauses, int_kind) = (
            atoms.generate(src),
            clauses.generate(src),
            int_kind.generate(src),
        );
        let mut b = AbProblem::builder();
        for v in 0..3 {
            b.arith_var(
                &format!("v{v}"),
                if int_kind {
                    VarKind::Int
                } else {
                    VarKind::Real
                },
            );
        }
        let vars: Vec<_> = atoms
            .into_iter()
            .map(|(e, op, rhs)| b.atom(e, op, Rational::from_int(rhs)))
            .collect();
        for clause in clauses {
            let lits: Vec<_> = clause
                .into_iter()
                .map(|(i, neg)| {
                    let v = vars[i % vars.len()];
                    if neg {
                        v.negative()
                    } else {
                        v.positive()
                    }
                })
                .collect();
            b.add_clause(lits);
        }
        b.build()
    })
}

/// write → parse must preserve structure and pointwise semantics.
fn check_round_trip(p1: &AbProblem) {
    let text = parser::write(p1);
    let p2: AbProblem = text.parse().expect("own output must parse");
    assert_eq!(p1.cnf(), p2.cnf());
    assert_eq!(p1.num_defs(), p2.num_defs());
    assert_eq!(p1.num_constraints(), p2.num_constraints());
    assert_eq!(p1.arith_vars().len(), p2.arith_vars().len());
    // Variable names and kinds survive.
    for (a, b) in p1.arith_vars().iter().zip(p2.arith_vars()) {
        assert_eq!(&a.name, &b.name);
        assert_eq!(a.kind, b.kind);
    }
    // Constraints evaluate identically on sample points.
    let samples = [
        vec![0.0, 0.0, 0.0],
        vec![1.0, -2.0, 3.0],
        vec![0.5, 0.25, -0.75],
        vec![10.0, 7.0, -9.0],
    ];
    for ((_, d1), (_, d2)) in p1.defs().zip(p2.defs()) {
        assert_eq!(d1.constraints.len(), d2.constraints.len());
        for (c1, c2) in d1.constraints.iter().zip(&d2.constraints) {
            for s in &samples {
                let r1 = c1.eval(s);
                let r2 = c2.eval(s);
                assert_eq!(r1, r2, "{} vs {}", c1, c2);
            }
        }
    }
}

/// A single-atom `e op rhs` problem over three real variables with no
/// clauses, the shape of the counterexamples below.
fn one_atom_problem(e: Expr, op: CmpOp, rhs: Rational) -> AbProblem {
    let mut b = AbProblem::builder();
    for v in 0..3 {
        b.arith_var(&format!("v{v}"), VarKind::Real);
    }
    b.atom(e, op, rhs);
    b.build()
}

/// Historical counterexample (from the proptest era): the writer used
/// to drop the parenthesisation of a negative base under `pow`, so
/// `0 + (-4)^2` re-parsed with different semantics.
#[test]
fn regression_negative_base_pow() {
    let p = one_atom_problem(
        Expr::int(0) + Expr::int(-4).pow(2),
        CmpOp::Lt,
        Rational::from_int(0),
    );
    check_round_trip(&p);
}

/// Counterexamples of negative zeros: a negated zero constant (the
/// pinned CI seed's) and a zero product with a negative factor are
/// −0.0, so dividing 1 by them gives −∞ and the atom holds. The parser
/// used to fold both to `0`, which turned the atom into `1 / 0 <= 0`,
/// +∞, false.
#[test]
fn regression_negative_zero_divisor() {
    for divisor in [-Expr::int(0), Expr::int(-3) * Expr::int(0) - Expr::int(0)] {
        let p = one_atom_problem(Expr::int(1) / divisor, CmpOp::Le, Rational::from_int(0));
        check_round_trip(&p);
    }
}

/// Historical counterexample (from the proptest era): a non-integer
/// rational constant (`1/6`) inside a nested division/power chain has
/// to survive the textual format exactly.
#[test]
fn regression_rational_constant_in_pow_chain() {
    let p = one_atom_problem(
        ((Expr::int(-1) * Expr::int(1)) / Expr::constant(Rational::new(1, 6))).pow(3),
        CmpOp::Lt,
        Rational::from_int(-1),
    );
    check_round_trip(&p);
}

property! {
    #![cases = 64]

    /// write → parse preserves structure and pointwise semantics.
    fn round_trip_preserves_semantics(p1 in problem_gen()) {
        check_round_trip(&p1);
    }

    /// The writer's output is always plain-DIMACS-compatible: a SAT solver
    /// ignoring comments can load the Boolean part.
    fn output_is_plain_dimacs_compatible(p in problem_gen()) {
        let text = parser::write(&p);
        let plain = absolver::logic::dimacs::parse(&text).expect("plain DIMACS layer");
        assert_eq!(plain.cnf.num_vars(), p.cnf().num_vars());
        assert_eq!(plain.cnf.len(), p.cnf().len());
    }
}
