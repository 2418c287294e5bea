//! Micro-benchmarks for the individual solver layers and for
//! end-to-end instances of each evaluation workload, timed with the
//! in-repo `absolver_testkit::bench` harness.
//!
//! Run with `cargo bench -p absolver-bench`. Set
//! `TESTKIT_BENCH_QUICK=1` for a fast smoke run.

use absolver_bench::{fischer, sudoku, table1};
use absolver_core::Orchestrator;
use absolver_linear::{check_conjunction, CmpOp, LinExpr, LinearConstraint};
use absolver_nonlinear::{hc4, Expr, NlConstraint, NlProblem};
use absolver_num::{BigInt, Interval, Rational};
use absolver_sat::Solver;
use absolver_testkit::bench::{black_box, Bench};

fn bench_num(b: &mut Bench) {
    b.group("num");
    let x: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
    let y: BigInt = "987654321098765432109876543210".parse().unwrap();
    b.bench("bigint_mul", || black_box(&x) * black_box(&y));
    b.bench("bigint_divrem", || black_box(&x).div_rem(black_box(&y)));
    let p = Rational::new(355, 113);
    let q = Rational::new(-22, 7);
    b.bench("rational_add_reduce", || black_box(&p) + black_box(&q));
    let m = Rational::from_int(355);
    let n = Rational::from_int(-22);
    b.bench("rational_add_int", || black_box(&m) + black_box(&n));
}

fn bench_sat(b: &mut Bench) {
    b.group("sat");
    // Pigeonhole 7→6: a genuinely hard UNSAT instance for CDCL. The
    // solver is mutated by solving, so each sample gets a fresh one.
    b.bench_with_setup(
        "pigeonhole_7_6",
        || {
            let mut s = Solver::new();
            let v = |i: i32, j: i32| i * 6 + j + 1;
            for i in 0..7 {
                let holes: Vec<i32> = (0..6).map(|j| v(i, j)).collect();
                s.add_dimacs_clause(&holes);
            }
            for j in 0..6 {
                for i1 in 0..7 {
                    for i2 in (i1 + 1)..7 {
                        s.add_dimacs_clause(&[-v(i1, j), -v(i2, j)]);
                    }
                }
            }
            s
        },
        |mut s| black_box(s.solve()),
    );
}

fn bench_linear(b: &mut Bench) {
    b.group("linear");
    // A chained equality system forcing pivots.
    let mut constraints = vec![LinearConstraint::new(
        LinExpr::var(0),
        CmpOp::Eq,
        Rational::one(),
    )];
    for i in 0..15 {
        constraints.push(LinearConstraint::new(
            LinExpr::from_terms([(i + 1, Rational::one()), (i, Rational::from_int(-2))]),
            CmpOp::Eq,
            Rational::from_int(1),
        ));
    }
    b.bench("simplex_chain_16", || {
        black_box(check_conjunction(black_box(&constraints)))
    });
}

fn bench_nonlinear(b: &mut Bench) {
    b.group("nonlinear");
    let circle = NlConstraint::new(
        Expr::var(0).pow(2) + Expr::var(1).pow(2),
        CmpOp::Le,
        Rational::from_int(25),
    );
    let line = NlConstraint::new(
        Expr::var(0) + Expr::var(1),
        CmpOp::Ge,
        Rational::from_int(6),
    );
    b.bench("hc4_propagate", || {
        let mut bx = vec![Interval::new(-100.0, 100.0), Interval::new(-100.0, 100.0)];
        black_box(hc4::propagate(&[circle.clone(), line.clone()], &mut bx, 20))
    });
    b.bench("branch_and_prune_circle", || {
        let mut p = NlProblem::new(2);
        p.add_constraint(circle.clone());
        p.add_constraint(line.clone());
        p.bound_var(0, Interval::new(-100.0, 100.0));
        p.bound_var(1, Interval::new(-100.0, 100.0));
        black_box(p.solve())
    });
}

fn bench_end_to_end(b: &mut Bench) {
    b.group("end_to_end");
    b.set_samples(10);
    let fischer6 = fischer::fischer(6);
    b.bench("fischer_6", || {
        let mut orc = Orchestrator::with_defaults();
        black_box(orc.solve(black_box(&fischer6)).unwrap())
    });
    let (puzzle, _) = sudoku::generate(1, sudoku::Difficulty::Hard);
    let mixed = sudoku::encode_mixed(&puzzle);
    b.bench("sudoku_mixed", || {
        let mut orc = Orchestrator::with_defaults();
        black_box(orc.solve(black_box(&mixed)).unwrap())
    });
    let esat = table1::esat_n11_m8_nonlinear();
    b.bench("esat_n11_m8_nonlinear", || {
        let mut orc = Orchestrator::with_defaults();
        black_box(orc.solve(black_box(&esat)).unwrap())
    });
}

fn main() {
    // `cargo test` runs bench targets with `--test`; there is nothing
    // to test here, so just exit.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut b = Bench::new();
    bench_num(&mut b);
    bench_sat(&mut b);
    bench_linear(&mut b);
    bench_nonlinear(&mut b);
    bench_end_to_end(&mut b);
    b.report();
}
