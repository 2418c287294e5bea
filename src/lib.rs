//! # ABsolver — a multi-domain constraint-solving library
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *"Tool-support for the analysis of hybrid systems and models"*
//! (Bauer, Pister, Tautschnig — DATE 2007). ABsolver is an extensible
//! SMT-style solver for **AB-problems**: Boolean combinations of (possibly
//! nonlinear) arithmetic constraints, as they arise in the analysis of
//! hybrid and embedded control systems modelled with block diagrams.
//!
//! The facade simply re-exports the individual crates:
//!
//! * [`num`] — arbitrary-precision integers, exact rationals, intervals.
//! * [`logic`] — tri-valued logic, literals, clauses, CNF, DIMACS I/O.
//! * [`sat`] — a CDCL SAT solver with all-models (LSAT-style) enumeration.
//! * [`linear`] — exact-rational simplex solvers and conflict extraction.
//! * [`nonlinear`] — nonlinear expressions, interval branch-and-prune,
//!   multistart local search.
//! * [`core`] — AB-problems, the extended DIMACS format, the 3-valued
//!   circuit, solver interface traits, and the orchestrating control loop.
//! * [`model`] — Simulink-like block diagrams, a LUSTRE-like IR, and the
//!   conversion pipeline into AB-problems.
//! * [`baselines`] — tightly-integrated DPLL(T) and eager baselines used in
//!   the paper's comparative benchmarks.
//! * [`trace`] — the observability layer: trace events, sinks (null,
//!   collecting, JSONL file), and the hand-rolled JSON helpers.
//! * [`service`] — the `absolverd` daemon: request protocol, bounded
//!   worker pool, and cross-request caching over persistent sessions.
//! * [`analyze`] — the static analyzer: compiler-style diagnostics with
//!   stable `AB0xx` codes (`absolver check`) and an equisatisfiable
//!   preprocessor, which no default solve runs.
//!
//! # Quickstart
//!
//! Solve the running example of the paper (Fig. 1/2):
//!
//! ```
//! use absolver::core::{AbProblem, Orchestrator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "\
//! p cnf 4 3
//! 1 0
//! -2 3 0
//! 4 0
//! c def int 1 i >= 0
//! c def int 1 j >= 0
//! c def int 2 2*i + j < 10
//! c def int 3 i + j < 5
//! c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
//! c range a -10 10
//! c range x -10 10
//! c range y -10 10
//! ";
//! let problem: AbProblem = text.parse()?;
//! let outcome = Orchestrator::with_defaults().solve(&problem)?;
//! assert!(outcome.is_sat());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use absolver_analyze as analyze;
pub use absolver_baselines as baselines;
pub use absolver_core as core;
pub use absolver_linear as linear;
pub use absolver_logic as logic;
pub use absolver_model as model;
pub use absolver_nonlinear as nonlinear;
pub use absolver_num as num;
pub use absolver_sat as sat;
pub use absolver_service as service;
pub use absolver_trace as trace;
