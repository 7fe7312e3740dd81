//! # abbd-bbn — Bayesian belief networks for analogue-circuit diagnosis
//!
//! A self-contained discrete Bayesian-network engine: structure building,
//! exact posterior propagation through a compiled junction tree, variable
//! elimination for joint marginals and as a test oracle, forward sampling
//! of synthetic cases, block sub-model extraction, and parameter learning
//! (complete-data counting, EM and conjugate gradient, all with Dirichlet
//! priors).
//!
//! The crate replaces the commercial Netica engine used by *Block-Level
//! Bayesian Diagnosis of Analogue Electronic Circuits* (DATE 2010): the
//! diagnosis core compiles a circuit model into a [`Network`], enters the
//! measured block states as [`Evidence`], and reads back posteriors from a
//! [`JunctionTree`].
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), abbd_bbn::Error> {
//! use abbd_bbn::{Evidence, JunctionTree, NetworkBuilder};
//!
//! // A two-block toy circuit: a bias block drives an output block.
//! let mut b = NetworkBuilder::new();
//! let bias = b.variable("bias", ["dead", "ok"])?;
//! let output = b.variable("output", ["fail", "pass"])?;
//! b.prior(bias, [0.1, 0.9])?;
//! b.cpt(output, [bias], [[0.95, 0.05], [0.2, 0.8]])?;
//! let net = b.build()?;
//!
//! // The tester saw the output failing — how is the bias block doing?
//! let mut seen = Evidence::new();
//! seen.observe(output, 0);
//! let jt = JunctionTree::compile(&net)?;
//! let mut ws = jt.make_workspace();
//! let posterior = jt.propagate_in(&mut ws, &seen)?.posterior(bias)?;
//! assert!(posterior[0] > 0.3); // the failure implicates the bias block
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod evidence;
mod factor;
mod graph;
mod infer;
pub mod learn;
mod network;
mod submodel;

pub use error::{Error, Result};
pub use evidence::Evidence;
pub use factor::Factor;
pub use infer::{
    enumerate_posteriors, forward_sample, forward_sample_cases, jointree_compile_count,
    jointree_work_counts, AbsorbedView, CalibratedTree, CalibratedView, JunctionTree, Posteriors,
    PropagationWorkspace, VariableElimination, WorkCounts,
};
pub use network::{Network, NetworkBuilder, VarId};
pub use submodel::{extract_submodel, Submodel};

/// The table kernels behind factor algebra and junction-tree messages,
/// exposed so the property tests can pin the message kernels bit for bit
/// to the stride kernels. Not part of the supported API.
#[doc(hidden)]
pub mod kernels {
    pub use crate::factor::strides::{
        aligned_strides, gather_copy_mul_kernel, gather_mul_kernel, index_map, marginalize_kernel,
        mul_broadcast_kernel, scatter_add_kernel,
    };
}
