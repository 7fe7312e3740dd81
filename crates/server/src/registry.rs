//! The model registry: named [`CompiledModel`]s, compiled **once** at
//! startup and served as `Arc`s to every worker thread for the whole
//! process lifetime. Registration is the only moment a junction tree is
//! triangulated; after [`ModelRegistry::freeze`] the registry is
//! immutable and lock-free to read.
//!
//! Models come from two places:
//!
//! * in-process artifacts (the regulator fixture the launcher fits at
//!   startup, test fixtures) via [`ModelRegistry::insert`];
//! * [`ModelBundle`] JSON files passed on the `abbd-serve` CLI — a
//!   `dlog2bbn` [`ModelSpec`] (the paper's Table I/V variable sheet)
//!   plus the cause–effect edges and the product expert's CPT estimates,
//!   built with [`ModelBuilder::build_expert_only`] and compiled.

use crate::error::ApiError;
use abbd_core::fleet::{ModelLifecycle, RefitPolicy};
use abbd_core::{
    BlockSpec, CircuitModel, CompiledModel, DiagnosticModel, ExpertKnowledge, HierarchicalModel,
    ModelBuilder,
};
use abbd_dlog2bbn::ModelSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A self-contained, JSON-loadable model definition: everything needed
/// to compile a [`CompiledModel`] without code. The `spec` field is the
/// exact [`ModelSpec`] encoding `dlog2bbn` emits, so a spec file produced
/// by the case-generator tool drops in directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Model variables with functional types and voltage state bands.
    pub spec: ModelSpec,
    /// Cause–effect dependency edges, `(parent, child)`.
    pub edges: Vec<(String, String)>,
    /// The product expert's CPT estimates.
    pub expert: ExpertKnowledge,
    /// Per-variable fault-state overrides (defaults apply when absent).
    #[serde(default)]
    pub fault_states: Vec<(String, Vec<usize>)>,
    /// Optional hierarchy partition. When present, the bundle registers
    /// as a compiled abstraction tree instead of a flat model: the board
    /// answers under the registered name and every block under
    /// `{name}/{block}`, exactly like the in-process board fixture.
    #[serde(default)]
    pub partition: Option<BundlePartition>,
}

/// A bundle's block partition: the interface variables shared across
/// blocks, and the blocks themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundlePartition {
    /// Interface variables (shared rails): visible to every block, no
    /// block-internal ancestors.
    pub interface: Vec<String>,
    /// The blocks, in board order.
    pub blocks: Vec<BundleBlock>,
}

/// One block of a [`BundlePartition`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleBlock {
    /// Block name — the `{block}` segment of `{board}/{block}`.
    pub name: String,
    /// Member variables (every non-interface parent of a member must be
    /// a member too).
    pub members: Vec<String>,
    /// The members serving as board-level summary observables.
    pub summary: Vec<String>,
}

impl ModelBundle {
    /// Parses a bundle from JSON text, re-validating the spec (which
    /// also rebuilds its name index — the serde skip-field).
    ///
    /// # Errors
    ///
    /// Returns a `400`-shaped [`ApiError`] naming the parse or
    /// validation failure.
    pub fn from_json(text: &str) -> Result<Self, ApiError> {
        let mut bundle: ModelBundle = serde_json::from_str(text)
            .map_err(|e| ApiError::bad_request(format!("model bundle does not parse: {e}")))?;
        bundle.spec = ModelSpec::new(bundle.spec.variables().to_vec())
            .map_err(|e| ApiError::bad_request(format!("model bundle spec invalid: {e}")))?;
        Ok(bundle)
    }

    /// Builds the fitted (expert-only) flat model the bundle describes —
    /// the shared front half of both the flat and the partitioned
    /// compile paths.
    fn build(&self) -> Result<DiagnosticModel, ApiError> {
        let mut model = CircuitModel::new(self.spec.clone());
        for (parent, child) in &self.edges {
            model
                .depends(parent, child)
                .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))?;
        }
        for (variable, states) in &self.fault_states {
            model
                .set_fault_states(variable, states)
                .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))?;
        }
        ModelBuilder::new(model)
            .with_expert(self.expert.clone())
            .build_expert_only()
            .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))
    }

    /// Builds and compiles the bundle into the servable artifact (the
    /// expert-only CPT path — fine-tuning on case data happens offline,
    /// upstream of the server). Ignores any partition stanza; use
    /// [`ModelBundle::compile_hierarchy`] for the tree form.
    ///
    /// # Errors
    ///
    /// Returns a `422`-shaped [`ApiError`] for inconsistent bundles
    /// (unknown edge endpoints, CPT shape mismatches, cyclic structure).
    pub fn compile(&self) -> Result<Arc<CompiledModel>, ApiError> {
        let compiled = CompiledModel::compile(self.build()?)
            .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))?;
        Ok(compiled.shared())
    }

    /// Builds the bundle's partition stanza into a compiled abstraction
    /// tree. Returns `None` when the bundle has no partition.
    ///
    /// # Errors
    ///
    /// Returns a `422`-shaped [`ApiError`] for inconsistent bundles and
    /// for partitions violating the extraction contract (a member's
    /// parent outside block and interface, interface with block
    /// ancestors, unknown names).
    pub fn compile_hierarchy(&self) -> Result<Option<Arc<HierarchicalModel>>, ApiError> {
        let Some(partition) = &self.partition else {
            return Ok(None);
        };
        let blocks: Vec<BlockSpec> = partition
            .blocks
            .iter()
            .map(|b| BlockSpec::new(b.name.clone(), b.members.clone(), b.summary.clone()))
            .collect();
        let tree = HierarchicalModel::build(self.build()?, partition.interface.clone(), blocks)
            .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))?;
        Ok(Some(tree.shared()))
    }
}

/// One registry row as reported by `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name (the `{name}` path segment of the model endpoints).
    pub name: String,
    /// Total model variables.
    pub variables: usize,
    /// Latent blocks (probe targets).
    pub latents: usize,
    /// Observable variables (test targets).
    pub observables: usize,
    /// For a hierarchy child (`{board}/{block}`): the board it belongs
    /// to. `null` for flat models and hierarchy roots.
    #[serde(default)]
    pub parent: Option<String>,
    /// For a hierarchy root: its children's registry names, in block
    /// order. Empty for flat models and children.
    #[serde(default)]
    pub children: Vec<String>,
}

/// Named compiled models, immutable after [`ModelRegistry::freeze`].
///
/// Two kinds of entry coexist: lifecycle-managed flat models, and
/// compiled [`HierarchicalModel`] trees. A hierarchy contributes its
/// abstract root under the registered name plus one addressable child
/// per block under `{board}/{block}` — children are compiled lazily on
/// first use (the one deliberate exception to "serving never compiles",
/// counted by [`ModelRegistry::lazy_submodel_compiles`] and surfaced in
/// `/v1/stats`).
///
/// ## Model lifecycle
///
/// Every flat entry is a [`ModelLifecycle`] (see [`abbd_core::fleet`]):
/// the registry structure stays frozen after
/// [`ModelRegistry::freeze`] — no names appear or disappear — but each
/// lifecycle *internally* versions its compiled model. A bare name
/// resolves to the lifecycle's current default version (the atomic
/// hot-swap point); `name@vN` pins any retained version, so a client
/// can compare a refit against its predecessor or keep serving the old
/// parameters during a staged rollout.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ModelLifecycle>>,
    hierarchies: BTreeMap<String, Arc<HierarchicalModel>>,
    /// Decision rounds served per hierarchy (root and children pooled
    /// under the board name); flat models count inside their lifecycle.
    hierarchy_rounds: BTreeMap<String, AtomicU64>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a compiled model under `name` (builder style; replaces
    /// any previous entry with that name). The model is wrapped in a
    /// [`ModelLifecycle`] with no reference corpus and the default
    /// [`RefitPolicy`]; use [`ModelRegistry::insert_lifecycle`] to
    /// control gating.
    pub fn insert(self, name: impl Into<String>, model: Arc<CompiledModel>) -> Self {
        let name = name.into();
        let lifecycle =
            ModelLifecycle::new(name.clone(), model, Vec::new(), RefitPolicy::default()).shared();
        self.insert_lifecycle(name, lifecycle)
    }

    /// Registers a fully configured model lifecycle (reference corpus,
    /// refit policy) under `name`.
    pub fn insert_lifecycle(
        mut self,
        name: impl Into<String>,
        lifecycle: Arc<ModelLifecycle>,
    ) -> Self {
        self.models.insert(name.into(), lifecycle);
        self
    }

    /// Registers a [`ModelBundle`], compiling it now. A bundle with a
    /// partition stanza registers as a hierarchy — the board under
    /// `name`, each block under `{name}/{block}` — a flat bundle as a
    /// lifecycle-managed flat model.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelBundle::compile`] /
    /// [`ModelBundle::compile_hierarchy`] errors.
    pub fn insert_bundle(
        self,
        name: impl Into<String>,
        bundle: &ModelBundle,
    ) -> Result<Self, ApiError> {
        if let Some(tree) = bundle.compile_hierarchy()? {
            return Ok(self.insert_hierarchy(name, tree));
        }
        let compiled = bundle.compile()?;
        Ok(self.insert(name, compiled))
    }

    /// Registers a compiled hierarchy under `name`: the abstract root
    /// answers for `name` itself, and every block becomes addressable as
    /// `{name}/{block}` (builder style; replaces any previous hierarchy
    /// with that name).
    pub fn insert_hierarchy(
        mut self,
        name: impl Into<String>,
        hierarchy: Arc<HierarchicalModel>,
    ) -> Self {
        let name = name.into();
        self.hierarchy_rounds
            .insert(name.clone(), AtomicU64::new(0));
        self.hierarchies.insert(name, hierarchy);
        self
    }

    /// Freezes the registry for serving.
    pub fn freeze(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Looks a *flat* model up by name, returning its current default
    /// version (hierarchies resolve through [`ModelRegistry::resolve`]).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::unknown_model`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<CompiledModel>, ApiError> {
        self.models
            .get(name)
            .map(|lc| lc.active())
            .ok_or_else(|| ApiError::unknown_model(name))
    }

    /// Looks a flat model's lifecycle up by name (accepting a `@vN` pin,
    /// which addresses the same lifecycle).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::unknown_model`] when absent.
    pub fn lifecycle(&self, name: &str) -> Result<&Arc<ModelLifecycle>, ApiError> {
        let base = name.split_once('@').map_or(name, |(base, _)| base);
        self.models
            .get(base)
            .ok_or_else(|| ApiError::unknown_model(name))
    }

    /// Looks a hierarchy up by its board name.
    pub fn hierarchy(&self, name: &str) -> Option<&Arc<HierarchicalModel>> {
        self.hierarchies.get(name)
    }

    /// Iterates the lifecycle-managed flat models in name order.
    pub fn lifecycles(&self) -> impl Iterator<Item = (&str, &Arc<ModelLifecycle>)> {
        self.models.iter().map(|(n, lc)| (n.as_str(), lc))
    }

    /// Iterates `(board, rounds served)` for the registered hierarchies.
    pub fn hierarchy_round_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.hierarchy_rounds
            .iter()
            .map(|(n, c)| (n.as_str(), c.load(Ordering::Relaxed)))
    }

    /// Counts one served decision round against `name` (a flat model,
    /// possibly `@vN`-pinned, a hierarchy root, or a `{board}/{block}`
    /// child — children pool under their board).
    pub fn note_round(&self, name: &str) {
        let base = name.split_once('@').map_or(name, |(base, _)| base);
        if let Some(lifecycle) = self.models.get(base) {
            lifecycle.note_round();
            return;
        }
        let board = base.rsplit_once('/').map_or(base, |(board, _)| board);
        if let Some(counter) = self.hierarchy_rounds.get(board) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolves any registry name to a servable compiled model: a flat
    /// model's default version, a `name@vN` pinned version, a
    /// hierarchy's abstract root, or — for `{board}/{block}` — a block's
    /// sub-model, compiled lazily on first resolution.
    ///
    /// # Errors
    ///
    /// [`ApiError::unknown_model`] for names nothing answers to
    /// (including a pinned version that was never promoted); a
    /// `422`-shaped error if a lazy child compile fails.
    pub fn resolve(&self, name: &str) -> Result<Arc<CompiledModel>, ApiError> {
        if let Some(lifecycle) = self.models.get(name) {
            return Ok(lifecycle.active());
        }
        if let Some((base, pin)) = name.split_once('@') {
            if let Some(lifecycle) = self.models.get(base) {
                return pin
                    .strip_prefix('v')
                    .and_then(|v| v.parse::<u32>().ok())
                    .and_then(|v| lifecycle.version(v))
                    .ok_or_else(|| ApiError::unknown_model(name));
            }
        }
        if let Some(hierarchy) = self.hierarchies.get(name) {
            return Ok(Arc::clone(hierarchy.root()));
        }
        if let Some((board, block)) = name.rsplit_once('/') {
            if let Some(hierarchy) = self.hierarchies.get(board) {
                return hierarchy.child_by_name(block).map_err(|e| match e {
                    abbd_core::Error::Hierarchy(_) => ApiError::unknown_model(name),
                    other => ApiError::new(422, "invalid_request", other.to_string()),
                });
            }
        }
        Err(ApiError::unknown_model(name))
    }

    /// The registry rows, flat models in name order followed by each
    /// hierarchy's root and its children in block order.
    pub fn list(&self) -> Vec<ModelInfo> {
        let mut rows: Vec<ModelInfo> = self
            .models
            .iter()
            .map(|(name, lifecycle)| {
                let compiled = lifecycle.active();
                ModelInfo {
                    name: name.clone(),
                    variables: compiled.model().circuit_model().spec().len(),
                    latents: compiled.latent_names().count(),
                    observables: compiled.observable_names().count(),
                    parent: None,
                    children: Vec::new(),
                }
            })
            .collect();
        for (name, hierarchy) in &self.hierarchies {
            let root = hierarchy.root();
            rows.push(ModelInfo {
                name: name.clone(),
                variables: root.model().circuit_model().spec().len(),
                latents: root.latent_names().count(),
                observables: root.observable_names().count(),
                parent: None,
                children: hierarchy
                    .block_specs()
                    .map(|b| format!("{name}/{}", b.name))
                    .collect(),
            });
            // Child rows are derivable without forcing the lazy compile:
            // a child's variables are its block members plus the
            // interface.
            let cm = hierarchy.flat().circuit_model();
            let latents = cm.latents();
            let observables = cm.observables();
            for block in hierarchy.block_specs() {
                rows.push(ModelInfo {
                    name: format!("{name}/{}", block.name),
                    variables: hierarchy.interface().len() + block.members.len(),
                    latents: block
                        .members
                        .iter()
                        .filter(|m| latents.contains(&m.as_str()))
                        .count(),
                    observables: block
                        .members
                        .iter()
                        .filter(|m| observables.contains(&m.as_str()))
                        .count(),
                    parent: Some(name.clone()),
                    children: Vec::new(),
                });
            }
        }
        rows
    }

    /// Compiled models resident right now: flat models, hierarchy roots
    /// and every lazily compiled child (the `/v1/stats` gauge).
    pub fn compiled_models(&self) -> u64 {
        let children: usize = self
            .hierarchies
            .values()
            .map(|h| {
                (0..h.block_count())
                    .filter(|&k| h.child_compiled(k))
                    .count()
            })
            .sum();
        (self.models.len() + self.hierarchies.len() + children) as u64
    }

    /// Sub-models compiled lazily since startup, summed over every
    /// hierarchy (the `/v1/stats` gauge pinned to "at most once per
    /// block" by the integration suite).
    pub fn lazy_submodel_compiles(&self) -> u64 {
        self.hierarchies
            .values()
            .map(|h| h.submodel_compiles())
            .sum()
    }

    /// Number of registered models (each hierarchy counts once).
    pub fn len(&self) -> usize {
        self.models.len() + self.hierarchies.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty() && self.hierarchies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_core::fixtures::toy_compiled_model;
    use abbd_dlog2bbn::{FunctionalType, StateBand, VariableSpec};

    /// A two-variable bundle: `src` (latent) drives `out` (observable).
    fn tiny_bundle() -> ModelBundle {
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
            var("src", FunctionalType::Latent),
            var("out", FunctionalType::Observe),
        ])
        .unwrap();
        let mut expert = ExpertKnowledge::new(10.0);
        expert.cpt("src", [[0.2, 0.8]]);
        expert.cpt("out", [[0.9, 0.1], [0.1, 0.9]]);
        ModelBundle {
            spec,
            edges: vec![("src".into(), "out".into())],
            expert,
            fault_states: Vec::new(),
            partition: None,
        }
    }

    /// A two-block board bundle: a `vin` rail feeding two latent/observable
    /// pairs, partitioned one block per pair.
    fn board_bundle() -> ModelBundle {
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
            var("vin", FunctionalType::Control),
            var("lat_a", FunctionalType::Latent),
            var("obs_a", FunctionalType::Observe),
            var("lat_b", FunctionalType::Latent),
            var("obs_b", FunctionalType::Observe),
        ])
        .unwrap();
        let mut expert = ExpertKnowledge::new(10.0);
        for lat in ["lat_a", "lat_b"] {
            expert.cpt(lat, [[0.05, 0.95], [0.02, 0.98]]);
        }
        for obs in ["obs_a", "obs_b"] {
            expert.cpt(obs, [[0.95, 0.05], [0.1, 0.9]]);
        }
        ModelBundle {
            spec,
            edges: vec![
                ("vin".into(), "lat_a".into()),
                ("lat_a".into(), "obs_a".into()),
                ("vin".into(), "lat_b".into()),
                ("lat_b".into(), "obs_b".into()),
            ],
            expert,
            fault_states: Vec::new(),
            partition: Some(BundlePartition {
                interface: vec!["vin".into()],
                blocks: vec![
                    BundleBlock {
                        name: "blk_a".into(),
                        members: vec!["lat_a".into(), "obs_a".into()],
                        summary: vec!["obs_a".into()],
                    },
                    BundleBlock {
                        name: "blk_b".into(),
                        members: vec!["lat_b".into(), "obs_b".into()],
                        summary: vec!["obs_b".into()],
                    },
                ],
            }),
        }
    }

    #[test]
    fn bundles_round_trip_and_compile() {
        let bundle = tiny_bundle();
        let json = serde_json::to_string(&bundle).unwrap();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        let compiled = back.compile().unwrap();
        assert_eq!(compiled.latent_names().collect::<Vec<_>>(), ["src"]);
        assert!(ModelBundle::from_json("{ not json").is_err());
    }

    #[test]
    fn bad_bundles_are_422_not_panics() {
        let mut unknown_edge = tiny_bundle();
        unknown_edge.edges.push(("ghost".into(), "out".into()));
        let mut cycle = tiny_bundle();
        cycle.edges.push(("out".into(), "src".into()));
        cycle.expert.cpt("src", [[0.2, 0.8], [0.2, 0.8]]);
        let mut short_cpt = tiny_bundle();
        short_cpt.expert.cpt("out", [[0.9, 0.1]]);
        let mut negative = tiny_bundle();
        negative.expert.cpt("src", [[-0.2, 1.2]]);
        let mut unnormalised = tiny_bundle();
        unnormalised.expert.cpt("out", [[0.9, 0.1], [0.5, 0.6]]);
        for (case, bundle) in [
            ("unknown edge endpoint", unknown_edge),
            ("cycle", cycle),
            ("wrong CPT length", short_cpt),
            ("negative entry", negative),
            ("row not summing to one", unnormalised),
        ] {
            let err = bundle.compile().unwrap_err();
            assert_eq!(err.status, 422, "{case}: {err:?}");
        }

        // A NaN entry arrives as the JSON marker string and parses; the
        // loader must still refuse it.
        let json = serde_json::to_string(&tiny_bundle()).unwrap();
        let nan = json.replace("[0.2,0.8]", r#"["NaN",0.8]"#);
        assert_ne!(nan, json, "the src row is in the encoding");
        let err = ModelBundle::from_json(&nan)
            .and_then(|bundle| bundle.compile())
            .unwrap_err();
        assert_eq!(err.status, 422, "NaN entry: {err:?}");
    }

    #[test]
    fn registry_lists_and_looks_up() {
        let registry = ModelRegistry::new()
            .insert("toy", toy_compiled_model())
            .insert_bundle("tiny", &tiny_bundle())
            .unwrap()
            .freeze();
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        let rows = registry.list();
        assert_eq!(rows[0].name, "tiny");
        assert_eq!(rows[1].name, "toy");
        assert_eq!(rows[1].variables, 7);
        assert_eq!(rows[1].latents, 3);
        assert!(registry.get("toy").is_ok());
        assert_eq!(registry.get("ghost").unwrap_err().status, 404);
    }

    #[test]
    fn partitioned_bundles_register_as_hierarchies() {
        let bundle = board_bundle();
        let json = serde_json::to_string(&bundle).unwrap();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        let registry = ModelRegistry::new()
            .insert_bundle("board", &back)
            .unwrap()
            .freeze();
        assert_eq!(registry.len(), 1);
        assert!(registry.hierarchy("board").is_some());
        let rows = registry.list();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["board", "board/blk_a", "board/blk_b"]);
        assert_eq!(rows[0].children, ["board/blk_a", "board/blk_b"]);
        assert_eq!(rows[1].parent.as_deref(), Some("board"));
        // A flat bundle (no stanza) still lands in the lifecycle path.
        assert!(board_bundle().compile().is_ok());
    }

    #[test]
    fn bad_partitions_are_422_not_panics() {
        // Violates the extraction contract: lat_b's parent vin stays
        // interface, but obs_b's parent lat_b moves out of the block.
        let mut open_block = board_bundle();
        open_block.partition.as_mut().unwrap().blocks[1]
            .members
            .retain(|m| m != "lat_b");
        let mut named_like_a_variable = board_bundle();
        named_like_a_variable.partition.as_mut().unwrap().blocks[0].name = "obs_b".into();
        let mut shared_member = board_bundle();
        shared_member.partition.as_mut().unwrap().blocks[1]
            .members
            .push("obs_a".into());
        for (case, bundle) in [
            ("member's parent outside the block", open_block),
            ("block name collides with a variable", named_like_a_variable),
            ("member listed in two blocks", shared_member),
        ] {
            let err = ModelRegistry::new()
                .insert_bundle("board", &bundle)
                .unwrap_err();
            assert_eq!(err.status, 422, "{case}: {err:?}");
        }
    }
}
