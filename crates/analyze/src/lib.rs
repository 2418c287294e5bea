//! Static analyzer for AB-problems: compiler-style diagnostics and an
//! equisatisfiable preprocessor.
//!
//! The crate has two halves, mirroring a compiler front-end:
//!
//! * **Diagnostics** ([`check_source`] / [`check_problem`]): lint a
//!   `.dimacs` AB-problem and produce a [`Report`] of findings, each with
//!   a severity, a stable `AB0xx` code, and a source span. Rendered in a
//!   human `file:line:col:` form or as stable JSON by `absolver check`.
//! * **Preprocessing** ([`Simplifier`]): an equisatisfiable simplifier
//!   that can run before the solver (no default path installs it) —
//!   constant propagation, unit-clause and pure-literal elimination,
//!   statically-decided theory atoms, subsumption/dominance pruning, and
//!   HC4-based range tightening — with a model-reconstruction map so
//!   satisfying assignments lift back to the original problem.
//!
//! Both halves are fed by the semantic analyses of [`structure`]
//! (incidence-graph partitioning, subsumption, affine dominance) and
//! [`dataflow`] (an interval abstract-interpretation fixpoint with
//! provenance), which PR 9's hash-consed term arena makes cheap:
//! structural comparison is id comparison.
//!
//! # Diagnostic codes
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | AB001 | error    | input failed to parse |
//! | AB002 | warning  | duplicate constraint within one `def` |
//! | AB003 | warning  | defined variable occurs in no clause |
//! | AB004 | error    | contradictory `range` directives (empty box) |
//! | AB005 | warning  | two variables carry identical definitions |
//! | AB006 | warning  | tautological clause |
//! | AB007 | error    | empty clause or complementary unit clauses |
//! | AB008 | warning  | clause variable beyond the declared header count |
//! | AB009 | warning  | duplicate clause |
//! | AB010 | warning  | theory atom statically true in the declared box |
//! | AB011 | warning  | theory atom statically false in the declared box |
//! | AB012 | warning  | declared arithmetic variable used in no `def` |
//! | AB013 | warning  | constraint repeated verbatim across two `def`s |
//! | AB014 | warning  | affine-dominated (redundant) conjunct in one `def` |
//! | AB015 | warning  | contradictory affine conjuncts in one `def` |
//! | AB016 | warning  | clause subsumed by a strictly shorter clause |
//! | AB017 | error    | statically unsatisfiable (interval dataflow) |
//! | AB018 | warning  | declared range misses every derivable value |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod check;
pub mod circuit;
pub mod dataflow;
pub mod diag;
pub mod simplify;
pub mod structure;

pub use check::{check_problem, check_source};
pub use circuit::{fold, forced_values};
pub use dataflow::{dataflow, Dataflow, DataflowVerdict, ProvenanceStep};
pub use diag::{Code, Diagnostic, Report, Severity, StructureSummary};
pub use simplify::Simplifier;
pub use structure::{
    cross_def_duplicates, prune_conjunction, subsumed_clauses, ConjunctionPruning,
    CrossDefDuplicate,
};
