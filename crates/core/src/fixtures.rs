//! Shared test fixtures (hidden from the public API surface).
//!
//! The session unit tests and the workspace-level zero-allocation
//! harness (`tests/zero_alloc.rs` at the repo root) must exercise the
//! *same* model — two drifting copies of the fixture would let their
//! "which output is most informative" assertions silently disagree — so
//! the model lives here once.

use crate::builder::{ExpertKnowledge, ModelBuilder};
use crate::model::CircuitModel;
use crate::session::CompiledModel;
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use std::sync::Arc;

/// `pin` (control) → `bias` (latent) → `{out1, out2}`; `load` (latent) →
/// `out2`; `aux` (latent) → `out3`. `out1` mirrors `bias` almost
/// perfectly, `out2` is mushy, `out3` only reflects `aux` — three
/// latents, three candidate measurements, one clearly-best first test,
/// over a multi-clique junction tree. The session unit tests, doc examples
/// and the concurrency harness all serve off this shared compilation.
pub fn toy_compiled_model() -> Arc<CompiledModel> {
    let var = |name: &str, ftype| VariableSpec {
        name: name.into(),
        ftype,
        bands: vec![
            StateBand::new("0", 0.0, 1.0, "bad"),
            StateBand::new("1", 1.0, 2.0, "good"),
        ],
        ckt_ref: None,
    };
    let spec = ModelSpec::new([
        var("pin", FunctionalType::Control),
        var("bias", FunctionalType::Latent),
        var("load", FunctionalType::Latent),
        var("aux", FunctionalType::Latent),
        var("out1", FunctionalType::Observe),
        var("out2", FunctionalType::Observe),
        var("out3", FunctionalType::Observe),
    ])
    .expect("static fixture spec");
    let mut m = CircuitModel::new(spec);
    m.depends("pin", "bias").expect("static edges");
    m.depends("bias", "out1").expect("static edges");
    m.depends("bias", "out2").expect("static edges");
    m.depends("load", "out2").expect("static edges");
    m.depends("aux", "out3").expect("static edges");

    let mut e = ExpertKnowledge::new(10.0);
    e.cpt("pin", [[0.5, 0.5]]);
    e.cpt("bias", [[0.9, 0.1], [0.2, 0.8]]);
    e.cpt("load", [[0.15, 0.85]]);
    e.cpt("aux", [[0.2, 0.8]]);
    e.cpt("out1", [[0.99, 0.01], [0.01, 0.99]]);
    e.cpt(
        "out2",
        [[0.95, 0.05], [0.85, 0.15], [0.8, 0.2], [0.05, 0.95]],
    );
    e.cpt("out3", [[0.9, 0.1], [0.1, 0.9]]);
    let dm = ModelBuilder::new(m)
        .with_expert(e)
        .build_expert_only()
        .expect("static fixture CPTs");
    CompiledModel::compile(dm)
        .expect("fixture compiles")
        .shared()
}
