//! Preprocessor interface of the control loop.
//!
//! A [`ProblemPreprocessor`] rewrites an [`AbProblem`] into an
//! *equisatisfiable* one before the lazy-SMT loop starts — dropping
//! statically-decided theory atoms, eliminated Boolean variables, and
//! redundant clauses — together with a [`Reconstruction`] that lifts a
//! satisfying assignment of the shrunk problem back to one of the
//! original. The interface lives in `absolver-core` (the orchestrator
//! needs to call it) while the concrete simplifier lives in the
//! `absolver-analyze` crate, which depends on core; callers attach it
//! with [`crate::Orchestrator::with_preprocessor`].

use crate::problem::{AbModel, AbProblem};
use absolver_logic::{Tri, Var};
use std::fmt;

/// Aggregate effect of a preprocessing pass, reported through
/// `preprocess.end` trace events and the `pre_*` fields of
/// [`crate::OrchestratorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessSummary {
    /// Boolean variables eliminated (forced or made vacuous).
    pub vars_eliminated: u64,
    /// Clauses removed from the CNF skeleton.
    pub clauses_eliminated: u64,
    /// Theory atoms (definition constraints) statically decided and
    /// removed from the definition map.
    pub atoms_eliminated: u64,
    /// Arithmetic variables whose search range was tightened by the
    /// root interval pass.
    pub ranges_tightened: u64,
    /// Constraints and clauses removed by the subsumption/dominance pass:
    /// duplicate conjuncts (same interned id twice in one definition),
    /// affine-dominated conjuncts, and clauses subsumed by a strict
    /// sub-clause.
    pub constraints_subsumed: u64,
}

/// Lifts a model of the shrunk problem back to the original problem.
///
/// Preprocessing never renumbers variables, so lifting only has to
/// re-assert the polarities of the Boolean variables the pass decided
/// statically (eliminated unit literals, pure literals, statically
/// decided atoms); all surviving variables keep the solver's values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reconstruction {
    /// Variables fixed by the preprocessor, with their forced values.
    pub forced: Vec<(Var, bool)>,
}

impl Reconstruction {
    /// Writes the forced polarities into `model` so it satisfies the
    /// original (pre-preprocessing) problem.
    pub fn lift(&self, model: &mut AbModel) {
        for &(var, value) in &self.forced {
            model
                .boolean
                .set(var, if value { Tri::True } else { Tri::False });
        }
    }
}

/// Result of a preprocessing pass.
#[derive(Debug, Clone)]
pub enum Preprocessed {
    /// The problem was rewritten into an equisatisfiable one. A model of
    /// `problem` lifts back to the original via `reconstruction`; the
    /// original is unsatisfiable iff `problem` is.
    Shrunk {
        /// The equisatisfiable rewritten problem (same variable
        /// numbering as the original).
        problem: AbProblem,
        /// Lifts shrunk-problem models back to the original.
        reconstruction: Reconstruction,
        /// What the pass eliminated.
        summary: PreprocessSummary,
    },
    /// Preprocessing proved the problem unsatisfiable outright (an empty
    /// clause was derived, or the root interval pass emptied a forced
    /// constraint's box).
    TriviallyUnsat {
        /// What the pass had eliminated before deriving the refutation.
        summary: PreprocessSummary,
    },
}

/// An equisatisfiability-preserving problem rewriter, run by
/// [`crate::Orchestrator::solve`] before the partition when one is
/// installed. No default path installs one; the trait stays because the
/// benchmark harness (`perfbench`) installs the `analyze` simplifier.
///
/// Implementations must guarantee both directions: every model of the
/// shrunk problem lifts (via the returned [`Reconstruction`]) to a model
/// of the original, and unsatisfiability of the shrunk problem implies
/// unsatisfiability of the original. `TriviallyUnsat` must only be
/// returned with a sound refutation.
pub trait ProblemPreprocessor: fmt::Debug + Send {
    /// Short pass name, reported in `preprocess.*` trace events.
    fn name(&self) -> &str;

    /// Runs the pass over `problem`.
    fn preprocess(&self, problem: &AbProblem) -> Preprocessed;
}
