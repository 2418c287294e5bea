//! Sudoku as a mixed Boolean/integer AB-problem (paper Sec. 5.3).
//!
//! "Having a solver at hand which solves Boolean as well as linear
//! problems, the Sudoku puzzle can be tackled more efficiently as a mixed
//! problem and the encoding is more natural as it can make use of
//! integers." This example generates a puzzle, encodes it the mixed way,
//! solves it, prints the grid — and then uses the all-models bookkeeping
//! to confirm the puzzle has exactly one solution.
//!
//! Run with: `cargo run --release --example sudoku_solver`

use absolver::core::{Orchestrator, Outcome};
use absolver_bench::sudoku::{
    decode, encode_mixed, extends, generate, is_valid_solution, Difficulty,
};

fn print_grid(grid: &[[u8; 9]; 9]) {
    for (r, row) in grid.iter().enumerate() {
        if r % 3 == 0 {
            println!("+-------+-------+-------+");
        }
        for (c, &v) in row.iter().enumerate() {
            if c % 3 == 0 {
                print!("| ");
            }
            if v == 0 {
                print!(". ");
            } else {
                print!("{v} ");
            }
        }
        println!("|");
    }
    println!("+-------+-------+-------+");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (puzzle, _) = generate(20060523, Difficulty::Hard);
    println!(
        "puzzle ({} clues):",
        puzzle.iter().flatten().filter(|&&v| v != 0).count()
    );
    print_grid(&puzzle);

    let problem = encode_mixed(&puzzle);
    println!(
        "\nmixed encoding: {} clauses, {} integer-equality atoms over {} cells",
        problem.cnf().len(),
        problem.num_defs(),
        problem.arith_vars().len()
    );

    let mut orc = Orchestrator::with_defaults();
    let started = std::time::Instant::now();
    let outcome = orc.solve(&problem)?;
    let elapsed = started.elapsed();
    let Outcome::Sat(model) = outcome else {
        panic!("generated puzzles are always solvable");
    };
    let grid = decode(&problem, &model).expect("integral model");
    assert!(is_valid_solution(&grid), "solver must produce a valid grid");
    assert!(extends(&puzzle, &grid), "solution must respect the clues");
    println!("\nsolved in {elapsed:.2?}:");
    print_grid(&grid);

    // All-models bookkeeping (the LSAT role): enumerate up to 2 solutions.
    let (solutions, end) = orc.solve_all(&problem, 2)?;
    println!(
        "solution count (capped at 2): {} — the puzzle {}",
        solutions.len(),
        match (solutions.len(), end) {
            (1, Outcome::Unsat) => "is unique",
            (2, _) => "has multiple solutions",
            _ => "could not be decided",
        }
    );
    Ok(())
}
