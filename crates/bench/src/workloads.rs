//! The named observability workloads behind the checked-in
//! `BENCH_<workload>.json` reports (and the `bench_json` binary).
//!
//! Four representative problems spanning the solver's phases:
//!
//! * **steering** — the paper's Sec. 5.1 hybrid-systems case study
//!   (nonlinear-heavy, exercises the HC4/penalty cascade);
//! * **threshold-reach** — a conflict-driven linear workload where the
//!   Boolean search pays for every step toward the feasible region with
//!   one theory conflict;
//! * **sudoku** — the Table 3 mixed encoding (Boolean-dominated with
//!   integer side constraints);
//! * **fischer** — the Table 2 mutual-exclusion family (linear real-time
//!   constraints).

use crate::fischer::fischer;
use crate::sudoku::{encode_mixed, generate, Difficulty};
use absolver_core::{AbProblem, VarKind};
use absolver_linear::CmpOp;
use absolver_model::steering_problem;
use absolver_nonlinear::Expr;
use absolver_num::Rational;

/// The threshold workload: `m` integer variables in `{-1, 0, 1}`, each
/// with a free atom `aᵢ ⇔ xᵢ ≥ 1`, and a required atom forcing
/// `Σ xᵢ ≥ ⌈0.55 m⌉`. Every Boolean model with too few true atoms is a
/// theory conflict refuted by branch-and-bound, so its core widens to
/// every definition and rules out only that one assignment: the distance
/// between the solver's starting phase and the threshold is paid in
/// full, one conflict at a time.
pub fn threshold_problem(m: usize) -> AbProblem {
    let mut b = AbProblem::builder();
    let vars: Vec<usize> = (0..m)
        .map(|i| b.arith_var(&format!("x{i}"), VarKind::Int))
        .collect();
    for &v in &vars {
        let a = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1));
        let _ = a; // free atom: the Boolean search decides its polarity
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
        b.require(hi.positive());
    }
    let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
    let target = (m * 55).div_ceil(100) as i64;
    let u = b.atom(sum, CmpOp::Ge, Rational::from_int(target));
    b.require(u.positive());
    b.build()
}

/// A deliberately decomposable workload: `instances` independent copies
/// of the threshold problem over pairwise-disjoint variables. No clause
/// or definition ever links two copies, so the variable–constraint
/// incidence graph has exactly `instances` connected components and the
/// structural partitioner can solve each copy in isolation (the
/// `components` bench binary measures exactly that).
pub fn decomposable_problem(instances: usize, m: usize) -> AbProblem {
    let mut b = AbProblem::builder();
    for inst in 0..instances {
        let vars: Vec<usize> = (0..m)
            .map(|i| b.arith_var(&format!("c{inst}x{i}"), VarKind::Int))
            .collect();
        for &v in &vars {
            let a = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1));
            let _ = a; // free atom: the Boolean search decides its polarity
            let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
            b.require(lo.positive());
            let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
            b.require(hi.positive());
        }
        let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
        let target = (m * 55).div_ceil(100) as i64;
        let u = b.atom(sum, CmpOp::Ge, Rational::from_int(target));
        b.require(u.positive());
    }
    b.build()
}

/// The four `BENCH_*.json` workloads, in report order. Each entry is
/// `(workload key, problem)`; the key is what `bench_json` embeds in the
/// file name.
pub fn bench_suite() -> Vec<(&'static str, AbProblem)> {
    vec![
        ("steering", steering_problem()),
        ("threshold-reach", threshold_problem(60)),
        ("sudoku", encode_mixed(&generate(3, Difficulty::Easy).0)),
        ("fischer", fischer(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_problem_shape() {
        let p = threshold_problem(10);
        // 10 free atoms + 20 required bounds + 1 threshold atom.
        assert_eq!(p.num_defs(), 31);
        assert_eq!(p.arith_vars().len(), 10);
    }

    #[test]
    fn bench_suite_names_are_unique_and_file_safe() {
        let suite = bench_suite();
        assert_eq!(suite.len(), 4);
        let mut names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
        }
    }
}
