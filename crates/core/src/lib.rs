//! ABsolver's core: AB-problems, the extended DIMACS format, the 3-valued
//! circuit, the solver interface layer, and the orchestrating control loop.
//!
//! This crate reproduces the primary contribution of *"Tool-support for
//! the analysis of hybrid systems and models"* (Bauer, Pister, Tautschnig,
//! DATE 2007): an extensible multi-domain constraint solver in which a
//! Boolean SAT solver, a linear solver, and a nonlinear solver cooperate
//! through a uniform interface to decide *AB-problems* — Boolean
//! combinations of (possibly nonlinear) arithmetic constraints.
//!
//! # Architecture (paper Fig. 4)
//!
//! * **Input layer** — [`parser`] reads the extended DIMACS format;
//!   [`AbProblem::builder`] is the programmatic equivalent of the C++ API.
//! * **Core** — [`Circuit`], gates over `{tt, ff, ?}` ([`absolver_logic::Tri`]),
//!   with Tseitin lowering to CNF; [`AbProblem`] holds the CNF skeleton
//!   plus the arithmetic definitions.
//! * **Solver interface layer** — [`BooleanSolver`], [`LinearBackend`],
//!   [`NonlinearBackend`] trait objects with built-in implementations
//!   standing in for zChaff/LSAT, COIN and IPOPT.
//! * **Control loop** — [`Orchestrator`]: lazy SMT with minimal-conflict
//!   feedback and all-models enumeration.
//!
//! # Quickstart (the paper's Fig. 1/2 example)
//!
//! ```
//! use absolver_core::{AbProblem, Orchestrator};
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
//! let model = outcome.model().expect("the example is satisfiable");
//! assert!(model.satisfies(&problem, 1e-6));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
mod circuit;
mod orchestrator;
pub mod parallel;
pub mod parser;
pub mod preprocess;
mod problem;
pub mod script;
mod session;
pub mod structure;
pub mod theory;

pub use backends::{
    BooleanSolver, CascadeNonlinear, CdclBoolean, IntervalNonlinear, LinearBackend,
    NonlinearBackend, PenaltyNonlinear, RestartingBoolean, SimplexLinear,
};
pub use circuit::{Circuit, Gate, NoOutputError, NodeId, TseitinCnf};
pub use orchestrator::{Orchestrator, OrchestratorOptions, OrchestratorStats, Outcome, SolveError};
pub use parallel::{ParallelOptions, ParallelStats};
pub use parser::{
    parse_session_constraint, parse_spanned, DefSite, ParseAbError, RangeSite, SourceMap, Span,
};
pub use preprocess::{PreprocessSummary, Preprocessed, ProblemPreprocessor, Reconstruction};
pub use problem::{AbModel, AbProblem, AbProblemBuilder, ArithModel, ArithVar, AtomDef, VarKind};
pub use session::{Session, SessionError};
pub use structure::{Component, Partition};
