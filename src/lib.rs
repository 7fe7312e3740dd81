//! # abbd — Analogue Block-level Bayesian Diagnosis
//!
//! A production-quality Rust reproduction of *Block-Level Bayesian
//! Diagnosis of Analogue Electronic Circuits* (Krishnan, Doornbos, Brand,
//! Kerkhoff — DATE 2010): given the no-stop-on-fail specification test
//! results of a failing analogue device, infer which functional block is
//! the most likely culprit.
//!
//! This facade crate re-exports the whole stack:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`bbn`] | `abbd-bbn` | Bayesian-network engine (inference + learning) |
//! | [`blocks`] | `abbd-blocks` | behavioural circuit simulator with fault injection |
//! | [`ate`] | `abbd-ate` | specification test programs and datalogs |
//! | [`dlog2bbn`] | `abbd-dlog2bbn` | the paper's case-generator tool |
//! | [`core`] | `abbd-core` | model builder, compiled diagnosis and sessions, candidate deduction |
//! | [`scenarios`] | `abbd-scenarios` | fault-mode library, stimulus families, noise-calibrated fits |
//! | [`designs`] | `abbd-designs` | the paper's two reference circuits, end to end |
//! | [`baselines`] | `abbd-baselines` | fault dictionary, naive Bayes, random floor |
//! | [`server`] | `abbd-server` | multi-threaded HTTP diagnosis service (registry + session store + batch fan-out) |
//!
//! ## The five-minute tour
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use abbd::designs::regulator;
//!
//! // 1. Fabricate 70 failing voltage regulators, test them on the virtual
//! //    ATE, convert the datalogs to cases, and fine-tune the product
//! //    expert's Bayesian model (the paper's full §IV flow).
//! let fitted = regulator::fit(70, 2010, regulator::default_algorithm())?;
//!
//! // 2. Diagnose the paper's case study d2: regulators 1 and 3 dead,
//! //    everything else fine.
//! let d2 = &regulator::cases::case_studies()[1];
//! let diagnosis = fitted.engine.diagnose(&d2.observation())?;
//!
//! // 3. The failing block candidate matches the paper's verdict.
//! assert_eq!(diagnosis.top_candidate(), Some("enb13"));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench/src/bin/`
//! for the binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]

pub use abbd_ate as ate;
pub use abbd_baselines as baselines;
pub use abbd_bbn as bbn;
pub use abbd_blocks as blocks;
pub use abbd_core as core;
pub use abbd_designs as designs;
pub use abbd_dlog2bbn as dlog2bbn;
pub use abbd_scenarios as scenarios;
pub use abbd_server as server;
