//! # abbd-core — block-level Bayesian diagnosis of analogue circuits
//!
//! The primary contribution of *Block-Level Bayesian Diagnosis of Analogue
//! Electronic Circuits* (DATE 2010), reimplemented as a library:
//!
//! 1. **Structure modelling** — [`CircuitModel`]: model variables with
//!    functional types and voltage state bands (from
//!    [`abbd_dlog2bbn::ModelSpec`]) plus the cause–effect dependency DAG.
//! 2. **Parameter modelling** — [`ModelBuilder`]: the product expert's CPT
//!    estimates ([`ExpertKnowledge`]) fine-tuned on ATE-derived cases with
//!    EM or conjugate gradient ([`LearnAlgorithm`]), yielding a
//!    [`DiagnosticModel`].
//! 3. **Diagnostic mode** — [`CompiledModel`]: compile the fitted model
//!    once, enter the controllable and observable block states of a
//!    failing device as an [`Observation`], read back posterior state
//!    probabilities for every block, and receive the ranked failing-block
//!    [`Candidate`]s produced by the automated §IV-B deduction
//!    ([`DeductionPolicy`]).
//!
//! Reports in the paper's Table VII layout come from [`render_state_table`]
//! and [`render_candidates`].
//!
//! The serving surface is the [`session`] module: compile once into a
//! [`CompiledModel`] (immutable, `Arc`-shareable, `Send + Sync`), then
//! open any number of concurrent [`DiagnosisSession`]s — each owning only
//! its evidence, workspaces and cost ledger. A session speaks one
//! [`Action`] vocabulary for specification tests *and* step-two physical
//! probes: [`DiagnosisSession::rank_actions`] scores the mixed candidate
//! set under a [`Strategy`] — raw information gain, gain per
//! [`CostModel`] tester-second, or the depth-bounded expectimax of
//! [`LookaheadPlanner`] — and [`DiagnosisSession::run`] closes the loop
//! against an [`ActionExecutor`], stopping once a [`StoppingPolicy`]
//! condition fires, all through one compiled junction tree and reusable
//! propagation workspaces. [`SessionRequest`] / [`SessionReport`] mirror
//! one decision round over serde for a service boundary.
//!
//! ## Hierarchical diagnosis
//!
//! For boards an order of magnitude bigger than one block, the
//! [`hierarchy`] module compiles an abstraction tree over a single fitted
//! [`DiagnosticModel`]: [`HierarchicalModel`] holds an abstract
//! board-level root (interface rails, one binary pseudo-latent per block,
//! the blocks' summary observables) plus one lazily compiled sub-model
//! per block, extracted with [`abbd_bbn::extract_submodel`] so block
//! posteriors given full interface evidence match the flat model exactly.
//! [`HierarchicalSession`] drives the two-phase loop through the same
//! [`Action`] vocabulary: isolate a suspect block on the root, descend
//! once its fault mass crosses [`DEFAULT_DESCEND_THRESHOLD`],
//! lift the board evidence down, and finish block-locally. The
//! [`hierarchy`] module docs spell out the extraction contract, the
//! interface semantics and the descent policy.
//!
//! ## Model lifecycle
//!
//! The [`fleet`] module closes the learning loop at serving time: a
//! [`TraceAggregator`] folds completed sessions into per-model
//! sufficient statistics, a background [`Refitter`] re-fits CPTs and
//! measurement prices from them, and a [`ModelLifecycle`] gates each
//! candidate on a [`conformance`] reference corpus plus a recent-trace
//! holdout before atomically hot-swapping the default version —
//! in-flight sessions keep their pinned compile, and any retained
//! version can be reactivated ([`ModelLifecycle::activate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
#[deny(missing_docs)]
pub mod conformance;
mod deduce;
mod diagnosis;
/// One-shot diagnosis through [`CompiledModel`].
#[cfg(test)]
mod engine {
    mod tests;
}
mod error;
mod explain;
#[doc(hidden)]
pub mod fixtures;
#[deny(missing_docs)]
pub mod fleet;
#[deny(missing_docs)]
pub mod hierarchy;
mod model;
mod planner;
/// Step-two probe ranking through [`DiagnosisSession`].
#[cfg(test)]
mod probe {
    mod tests;
}
mod report;
/// The closed test-and-probe loop through [`DiagnosisSession`].
#[cfg(test)]
mod sequential {
    mod tests;
}
#[deny(missing_docs)]
pub mod session;
mod voi;

pub use builder::{DiagnosticModel, ExpertKnowledge, LearnAlgorithm, LearnSummary, ModelBuilder};
pub use conformance::{GoldenCorpus, ReplayCase, ReplayMismatch, ReplayOutcome};
pub use deduce::{Candidate, DeductionPolicy, HealthClass};
pub use diagnosis::{Diagnosis, Observation};
pub use error::{Error, Result};
pub use explain::FindingImpact;
pub use fleet::{
    compile_candidate, AggregateSnapshot, GateRejection, ModelLifecycle, RefitPolicy, RefitReport,
    Refitter, TraceAggregator, VersionInfo,
};
pub use hierarchy::{
    BlockSpec, HierarchicalModel, HierarchicalSession, HierarchicalTrace, DEFAULT_DESCEND_THRESHOLD,
};
pub use model::CircuitModel;
pub use planner::{
    CostModel, LookaheadPlanner, Strategy, DEFAULT_LOOKAHEAD_DISCOUNT, MAX_LOOKAHEAD_DEPTH,
};
pub use report::{render_candidates, render_state_table};
pub use session::{
    Action, ActionExecutor, AppliedMeasurement, CompiledModel, DecisionTrace, DiagnosisSession,
    Outcome, Ranked, ScoredAction, SequentialOutcome, SessionReport, SessionRequest, StopReason,
    StoppingPolicy, TracedDecision, TracedScore,
};
