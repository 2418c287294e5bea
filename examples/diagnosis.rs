//! Consistency-based diagnosis via all-models enumeration.
//!
//! The paper motivates the LSAT backend with exactly this application:
//! "the use of LSAT is desirable for applications such as
//! consistency-based diagnosis, where more than one Boolean solution may
//! be required to reason about the failure state of systems" (Sec. 4).
//!
//! The system under diagnosis: one physical quantity `x`, read through
//! three channels with different transfer functions —
//!
//! * sensor 1 (direct):      reads `x`
//! * sensor 2 (amplifier):   reads `2·x`
//! * sensor 3 (offset):      reads `x + 5`
//!
//! A *healthy* channel reports its transfer function exactly; a faulty one
//! may report anything. Given the observation `(10, 30, 15)` the three
//! channels disagree about `x`, so some component must be faulty.
//! Enumerating all consistent health assignments and keeping the
//! subset-minimal fault sets yields the diagnoses.
//!
//! Run with: `cargo run --release --example diagnosis`

use absolver::core::{AbProblem, Orchestrator, VarKind};
use absolver::linear::CmpOp;
use absolver::logic::Tri;
use absolver::nonlinear::Expr;
use absolver::num::Rational;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let observations = [10i64, 30, 15];
    println!(
        "observations: sensor1 = {}, sensor2 = {}, sensor3 = {}",
        observations[0], observations[1], observations[2]
    );

    // Build the diagnosis problem.
    let mut b = AbProblem::builder();
    let x = b.arith_var("x", VarKind::Real);
    // Health variables (plain Boolean — no definitions).
    let health: Vec<_> = (0..3).map(|_| b.bool_var()).collect();
    // Behaviour atoms: what a healthy channel's reading implies about x.
    let transfer: [Expr; 3] = [
        Expr::var(x),
        Expr::int(2) * Expr::var(x),
        Expr::var(x) + Expr::int(5),
    ];
    for (i, expr) in transfer.into_iter().enumerate() {
        let atom = b.atom(expr, CmpOp::Eq, Rational::from_int(observations[i]));
        // healthy_i → behaviour_i
        b.add_clause([health[i].negative(), atom.positive()]);
    }
    let problem = b.build();

    // Enumerate every consistent health assignment.
    let mut orc = Orchestrator::with_defaults();
    let (models, end) = orc.solve_all(&problem, 10_000)?;
    println!("{} consistent system states found", models.len());
    if !end.is_unsat() {
        println!("(the enumeration stopped early; more states may exist)");
    }

    // Project onto fault sets and keep the subset-minimal ones.
    let mut fault_sets: Vec<Vec<usize>> = models
        .iter()
        .map(|m| {
            (0..3)
                .filter(|&i| m.boolean.value(health[i]) != Tri::True)
                .collect()
        })
        .collect();
    fault_sets.sort();
    fault_sets.dedup();
    let minimal: Vec<&Vec<usize>> = fault_sets
        .iter()
        .filter(|fs| {
            !fault_sets
                .iter()
                .any(|other| other.len() < fs.len() && other.iter().all(|c| fs.contains(c)))
        })
        .collect();

    println!("\nminimal diagnoses:");
    for d in &minimal {
        if d.is_empty() {
            println!("  (no fault — all observations consistent)");
        } else {
            let names: Vec<String> = d.iter().map(|&i| format!("sensor{}", i + 1)).collect();
            println!("  {{ {} }}", names.join(", "));
        }
    }

    // Sensors 1 and 3 agree on x = 10; sensor 2 claims x = 15. The two
    // subset-minimal diagnoses are therefore {sensor2} (the outvoted
    // channel is broken) and {sensor1, sensor3} (the two agreeing channels
    // are both broken) — the single-fault diagnosis {sensor2} being the
    // most plausible.
    assert_eq!(minimal.len(), 2, "two subset-minimal diagnoses expected");
    assert_eq!(minimal[0].as_slice(), &[0, 2]);
    assert_eq!(minimal[1].as_slice(), &[1]);

    // Confirm the repaired interpretation: assume sensors 1 and 3 healthy.
    let repaired = problem
        .with_clause([health[0].positive()])
        .with_clause([health[2].positive()]);
    let outcome = orc.solve(&repaired)?;
    let model = outcome.model().expect("consistent with sensor 2 ignored");
    let estimate = model.arith.value_f64(x).unwrap();
    println!("\nestimated physical quantity with sensor 2 ignored: x = {estimate}");
    assert!((estimate - 10.0).abs() < 1e-6);
    Ok(())
}
