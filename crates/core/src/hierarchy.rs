//! Hierarchical block-level diagnosis: a compiled abstraction tree over
//! one fitted board model, driven through the existing
//! [`DiagnosisSession`] / [`Action`] vocabulary.
//!
//! The paper diagnoses at *block* granularity; Srinivas's hierarchical
//! model-based diagnosis and Siddiqi & Huang's sequential diagnosis by
//! abstraction push that further: isolate a suspect region on a cheap
//! board-level abstraction first, then descend into a per-block compiled
//! sub-model and finish the diagnosis there — paying compile and
//! propagation cost only for the subtree under suspicion. On a board an
//! order of magnitude bigger than one block, a steady-state decision in
//! the descended session propagates a network of a dozen variables
//! instead of hundreds.
//!
//! ## The tree
//!
//! [`HierarchicalModel`] holds one **abstract root** (compiled eagerly at
//! build time) and one **child sub-model per block** (compiled lazily, at
//! most once, on first descent — the compile counter in
//! [`HierarchicalModel::submodel_compiles`] pins exactly that):
//!
//! * The root's variables are the shared **interface** nodes (supply and
//!   load rails every block hangs off), one binary pseudo-latent per
//!   block (state 0 = *some latent in the block is faulty*), and each
//!   block's designated **summary observables**. Its CPTs are derived
//!   from the fitted flat network by variable elimination, so the root's
//!   marginal over `interface ∪ {summary observable}` matches the flat
//!   model's exactly; only cross-observable correlations are compressed
//!   through the binary block variable (the documented abstraction).
//! * A child is [`abbd_bbn::extract_submodel`] applied to the block: the
//!   block's variables keep their fitted CPTs verbatim, and the interface
//!   carries a chain factorisation of the flat marginal `P(interface)`.
//!
//! ## Extraction contract
//!
//! A [`BlockSpec`] partition is valid when blocks are disjoint, every
//! non-interface variable belongs to exactly one block, every parent of a
//! block variable lies in the block or on the interface, and no interface
//! variable descends from a block (interfaces feed blocks, never the
//! reverse). Under the contract, child posteriors given full interface
//! evidence equal the flat model's **exactly** (`tests/hierarchy.rs`
//! pins the match to 1e-9): with the interface observed, the rest of the
//! board is d-separated from the block.
//!
//! ## Descent policy
//!
//! [`HierarchicalSession`] runs the two-phase loop: rank and apply
//! summary tests on the root until some block's posterior fault mass
//! reaches [`DEFAULT_DESCEND_THRESHOLD`] (or the root isolates
//! a block under its stopping policy), then descend — compile the child
//! if this is the block's first visit, open a child [`DiagnosisSession`],
//! **lift the board evidence down** (every observation naming a child
//! variable, interface and summary measurements included), and continue
//! with block-local tests and probes until isolation. Descent is one-way:
//! a session commits to the suspect block, as the paper's operator
//! commits a board to a repair bench.

use crate::builder::DiagnosticModel;
use crate::diagnosis::{Diagnosis, Observation};
use crate::error::{Error, Result};
use crate::model::CircuitModel;
use crate::session::{
    fault_mass_entries, Action, ActionExecutor, AppliedMeasurement, CompiledModel, DecisionTrace,
    DiagnosisSession, Outcome, Ranked, ScoredAction, SequentialOutcome, SessionReport,
    SessionRequest, StopReason, StoppingPolicy,
};
use abbd_bbn::{extract_submodel, Evidence, NetworkBuilder, VarId, VariableElimination};
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The block fault-mass threshold that triggers descent from the
/// abstract root into a block's compiled sub-model.
pub const DEFAULT_DESCEND_THRESHOLD: f64 = 0.5;

/// One block of the board partition: a named set of flat-model variables
/// plus the subset visible at board level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// The block's name — also the root model's pseudo-latent for the
    /// block and the `{board}/{block}` child suffix on a server. Must
    /// not collide with any flat variable name and must not contain `/`.
    pub name: String,
    /// Every flat variable inside the block (latents and observables).
    pub members: Vec<String>,
    /// The block's board-level observables (summary tests available
    /// before descent). Must be observable members.
    pub summary: Vec<String>,
}

impl BlockSpec {
    /// A block over `members` whose board-level tests are `summary`.
    pub fn new<N, M, S>(name: N, members: M, summary: S) -> Self
    where
        N: Into<String>,
        M: IntoIterator,
        M::Item: Into<String>,
        S: IntoIterator,
        S::Item: Into<String>,
    {
        BlockSpec {
            name: name.into(),
            members: members.into_iter().map(Into::into).collect(),
            summary: summary.into_iter().map(Into::into).collect(),
        }
    }
}

/// One block's slot in the tree: its spec, its resolved flat ids, and the
/// lazily compiled child.
#[derive(Debug)]
struct BlockEntry {
    spec: BlockSpec,
    /// Member ids in flat declaration order.
    member_ids: Vec<VarId>,
    /// Latent members `(name, flat id, fault states)`, in flat order.
    latents: Vec<(String, VarId, Vec<usize>)>,
    /// The compiled sub-model, absent until the first descent. The lock
    /// is held across the compile, so concurrent descents compile at
    /// most once per block.
    child: Mutex<Option<Arc<CompiledModel>>>,
}

impl BlockEntry {
    /// Locks the child slot, recovering it if a panic poisoned the lock.
    /// The slot is written only after a successful compile, so it always
    /// holds `None` or a valid model: a panicking compile leaves `None`
    /// and the next descent simply compiles again.
    fn child_slot(&self) -> MutexGuard<'_, Option<Arc<CompiledModel>>> {
        self.child.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A compiled abstraction tree over one fitted board model: the abstract
/// root (eager) plus one extracted sub-model per block (lazy, cached).
/// See the [module docs](self) for the abstraction and its contract.
///
/// The type is `Send + Sync`; share it with
/// [`HierarchicalModel::shared`] and open any number of concurrent
/// [`HierarchicalSession`]s — all sessions reuse the same compiled
/// artifacts, and the lazy child compiles are counted once per block no
/// matter how many sessions descend.
#[derive(Debug)]
pub struct HierarchicalModel {
    flat: DiagnosticModel,
    root: Arc<CompiledModel>,
    interface: Vec<String>,
    interface_ids: Vec<VarId>,
    blocks: Vec<BlockEntry>,
    submodel_compiles: AtomicU64,
}

impl HierarchicalModel {
    /// Builds the tree: validates the partition against the extraction
    /// contract, derives and compiles the abstract root, and prepares
    /// (but does not compile) one child slot per block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Hierarchy`] for malformed partitions and
    /// propagates inference/compilation errors from the root
    /// derivation.
    pub fn build<I>(flat: DiagnosticModel, interface: I, blocks: Vec<BlockSpec>) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let interface: Vec<String> = interface.into_iter().map(Into::into).collect();
        let entries = validate_partition(&flat, &interface, &blocks)?;
        let interface_ids: Vec<VarId> = interface
            .iter()
            .map(|n| flat.var(n))
            .collect::<Result<_>>()?;
        let root = build_root(&flat, &interface, &interface_ids, &entries)?;
        Ok(HierarchicalModel {
            flat,
            root: root.shared(),
            interface,
            interface_ids,
            blocks: entries,
            submodel_compiles: AtomicU64::new(0),
        })
    }

    /// Wraps the tree for concurrent sharing.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The fitted flat model the tree was derived from.
    pub fn flat(&self) -> &DiagnosticModel {
        &self.flat
    }

    /// The compiled abstract root (interface + block pseudo-latents +
    /// summary observables).
    pub fn root(&self) -> &Arc<CompiledModel> {
        &self.root
    }

    /// The shared interface variable names, in chain order.
    pub fn interface(&self) -> &[String] {
        &self.interface
    }

    /// The block partition, in declaration order.
    pub fn block_specs(&self) -> impl Iterator<Item = &BlockSpec> + '_ {
        self.blocks.iter().map(|b| &b.spec)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The index of the named block.
    pub fn block_index(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.spec.name == name)
    }

    /// How many child sub-models have been lazily compiled so far — the
    /// `/v1/stats` gauge, and the pin that block compiles happen at most
    /// once per block.
    pub fn submodel_compiles(&self) -> u64 {
        self.submodel_compiles.load(Ordering::Relaxed)
    }

    /// The block's compiled sub-model, extracting and compiling it on
    /// first use (at most once per block; later calls return the cached
    /// [`Arc`]).
    ///
    /// # Errors
    ///
    /// Propagates extraction and compilation errors.
    pub fn child(&self, block: usize) -> Result<Arc<CompiledModel>> {
        let entry = self
            .blocks
            .get(block)
            .ok_or_else(|| Error::Hierarchy(format!("block index {block} out of range")))?;
        let mut slot = entry.child_slot();
        if let Some(compiled) = slot.as_ref() {
            return Ok(Arc::clone(compiled));
        }
        let compiled = self.compile_child(entry)?.shared();
        self.submodel_compiles.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&compiled));
        Ok(compiled)
    }

    /// [`HierarchicalModel::child`] by block name.
    ///
    /// # Errors
    ///
    /// [`Error::Hierarchy`] for unknown names, plus whatever
    /// [`HierarchicalModel::child`] returns.
    pub fn child_by_name(&self, name: &str) -> Result<Arc<CompiledModel>> {
        let idx = self
            .block_index(name)
            .ok_or_else(|| Error::Hierarchy(format!("unknown block `{name}`")))?;
        self.child(idx)
    }

    /// Whether the named block's child has already been compiled.
    pub fn child_compiled(&self, block: usize) -> bool {
        self.blocks
            .get(block)
            .is_some_and(|b| b.child_slot().is_some())
    }

    /// Extracts and compiles one block's sub-model (the lock in
    /// [`HierarchicalModel::child`] serialises callers).
    fn compile_child(&self, entry: &BlockEntry) -> Result<CompiledModel> {
        let sub = extract_submodel(self.flat.network(), &entry.member_ids, &self.interface_ids)
            .map_err(Error::Bbn)?;
        let flat_cm = self.flat.circuit_model();
        let spec = flat_cm.spec();
        let mut vars: Vec<VariableSpec> = Vec::with_capacity(sub.flat_ids.len());
        for &flat_id in &sub.flat_ids {
            let name = self.flat.network().name(flat_id);
            vars.push(spec.require(name)?.clone());
        }
        let mut cm = CircuitModel::new(ModelSpec::new(vars)?);
        // Interface chain edges mirror the extracted network's structure.
        for (j, name) in self.interface.iter().enumerate() {
            for prev in &self.interface[..j] {
                cm.depends(prev.as_str(), name.as_str())?;
            }
        }
        // Block edges keep the flat parent order (the extraction copied
        // the CPTs in exactly that order).
        for member in &entry.spec.members {
            for parent in flat_cm.parents_of(member) {
                cm.depends(parent, member.as_str())?;
            }
        }
        for (name, _, states) in &entry.latents {
            cm.set_fault_states(name, states)?;
        }
        CompiledModel::compile(DiagnosticModel::from_parts(cm, sub.network))
    }
}

/// Validates the partition and resolves per-block ids. See the module
/// docs for the contract.
fn validate_partition(
    flat: &DiagnosticModel,
    interface: &[String],
    blocks: &[BlockSpec],
) -> Result<Vec<BlockEntry>> {
    if blocks.is_empty() {
        return Err(Error::Hierarchy(
            "a hierarchy needs at least one block".into(),
        ));
    }
    let cm = flat.circuit_model();
    let spec = cm.spec();
    let mut owner: BTreeMap<&str, &str> = BTreeMap::new();
    for name in interface {
        flat.var(name)?;
        if owner.insert(name.as_str(), "<interface>").is_some() {
            return Err(Error::Hierarchy(format!(
                "interface variable `{name}` listed twice"
            )));
        }
    }
    let mut seen_blocks: BTreeMap<&str, ()> = BTreeMap::new();
    for block in blocks {
        if block.name.is_empty() || block.name.contains('/') {
            return Err(Error::Hierarchy(format!(
                "block name `{}` is empty or contains `/`",
                block.name
            )));
        }
        if spec.find(&block.name).is_some() {
            return Err(Error::Hierarchy(format!(
                "block name `{}` collides with a model variable",
                block.name
            )));
        }
        if seen_blocks.insert(block.name.as_str(), ()).is_some() {
            return Err(Error::Hierarchy(format!(
                "block `{}` declared twice",
                block.name
            )));
        }
        if block.members.is_empty() {
            return Err(Error::Hierarchy(format!("block `{}` is empty", block.name)));
        }
        for member in &block.members {
            flat.var(member)?;
            if let Some(prev) = owner.insert(member.as_str(), block.name.as_str()) {
                return Err(Error::Hierarchy(format!(
                    "variable `{member}` belongs to both `{prev}` and `{}`",
                    block.name
                )));
            }
        }
        let observables = cm.observables();
        for s in &block.summary {
            if !block.members.iter().any(|m| m == s) {
                return Err(Error::Hierarchy(format!(
                    "summary `{s}` is not a member of block `{}`",
                    block.name
                )));
            }
            if !observables.contains(&s.as_str()) {
                return Err(Error::Hierarchy(format!(
                    "summary `{s}` of block `{}` is not an observable",
                    block.name
                )));
            }
        }
        if block.summary.is_empty() {
            return Err(Error::Hierarchy(format!(
                "block `{}` has no summary observable",
                block.name
            )));
        }
    }
    for v in spec.variables() {
        if !owner.contains_key(v.name.as_str()) {
            return Err(Error::Hierarchy(format!(
                "variable `{}` is neither interface nor in any block",
                v.name
            )));
        }
    }
    // Boundary contract: block parents stay inside block ∪ interface.
    // (The bbn extraction re-checks this per child, including the
    // descendant condition; checking here fails fast at build time.)
    for block in blocks {
        for member in &block.members {
            for parent in cm.parents_of(member) {
                let home = owner.get(parent).copied().unwrap_or("");
                if home != block.name && home != "<interface>" {
                    return Err(Error::Hierarchy(format!(
                        "`{member}` of block `{}` has parent `{parent}` outside \
                         the block and its interface",
                        block.name
                    )));
                }
            }
        }
        for name in interface {
            for parent in cm.parents_of(name) {
                if owner.get(parent).copied() != Some("<interface>") {
                    return Err(Error::Hierarchy(format!(
                        "interface variable `{name}` has non-interface parent `{parent}`"
                    )));
                }
            }
        }
    }
    let order: BTreeMap<&str, usize> = spec
        .variables()
        .iter()
        .enumerate()
        .map(|(i, v)| (v.name.as_str(), i))
        .collect();
    let latents = cm.latents();
    blocks
        .iter()
        .map(|block| {
            let mut members = block.members.clone();
            members.sort_by_key(|m| order[m.as_str()]);
            let member_ids = members.iter().map(|m| flat.var(m)).collect::<Result<_>>()?;
            let block_latents = members
                .iter()
                .filter(|m| latents.contains(&m.as_str()))
                .map(|m| Ok((m.clone(), flat.var(m)?, cm.fault_states(m))))
                .collect::<Result<Vec<_>>>()?;
            if block_latents.is_empty() {
                return Err(Error::Hierarchy(format!(
                    "block `{}` has no latent variable",
                    block.name
                )));
            }
            Ok(BlockEntry {
                spec: BlockSpec {
                    name: block.name.clone(),
                    members,
                    summary: block.summary.clone(),
                },
                member_ids,
                latents: block_latents,
                child: Mutex::new(None),
            })
        })
        .collect()
}

/// Row-major config count of `cards`.
fn config_count(cards: &[usize]) -> usize {
    cards.iter().product()
}

/// Classifies every latent-config index (row-major, last latent fastest)
/// of a block as faulty (some latent in a fault state) or healthy.
fn classify_configs(latent_cards: &[usize], fault_states: &[Vec<usize>]) -> Vec<bool> {
    let n = config_count(latent_cards);
    (0..n)
        .map(|mut idx| {
            let mut faulty = false;
            for pos in (0..latent_cards.len()).rev() {
                let state = idx % latent_cards[pos];
                idx /= latent_cards[pos];
                if fault_states[pos].contains(&state) {
                    faulty = true;
                }
            }
            faulty
        })
        .collect()
}

/// Derives and builds the abstract root model. See the module docs.
fn build_root(
    flat: &DiagnosticModel,
    interface: &[String],
    interface_ids: &[VarId],
    blocks: &[BlockEntry],
) -> Result<CompiledModel> {
    let net = flat.network();
    let spec = flat.circuit_model().spec();
    let ve = VariableElimination::new(net);
    let no_evidence = Evidence::new();
    let iface_cards: Vec<usize> = interface_ids.iter().map(|&v| net.card(v)).collect();
    let n_iface_cfg = config_count(&iface_cards);

    // Spec + structure of the root model.
    let mut vars: Vec<VariableSpec> = Vec::new();
    for name in interface {
        vars.push(spec.require(name)?.clone());
    }
    for block in blocks {
        vars.push(VariableSpec {
            name: block.spec.name.clone(),
            ftype: FunctionalType::Latent,
            bands: vec![
                StateBand::new("fault", 0.0, 1.0, "some latent in the block is faulty"),
                StateBand::new("ok", 1.0, 2.0, "every latent in the block is healthy"),
            ],
            ckt_ref: None,
        });
        for s in &block.spec.summary {
            vars.push(spec.require(s)?.clone());
        }
    }
    let mut cm = CircuitModel::new(ModelSpec::new(vars)?);
    for (j, name) in interface.iter().enumerate() {
        for prev in &interface[..j] {
            cm.depends(prev.as_str(), name.as_str())?;
        }
    }
    for block in blocks {
        for name in interface {
            cm.depends(name.as_str(), block.spec.name.as_str())?;
        }
        for s in &block.spec.summary {
            for name in interface {
                cm.depends(name.as_str(), s.as_str())?;
            }
            cm.depends(block.spec.name.as_str(), s.as_str())?;
        }
    }

    // Network: interface chain from P(I), per-block aggregation CPTs
    // from the flat joints.
    let mut b = NetworkBuilder::new();
    let mut root_id: BTreeMap<&str, VarId> = BTreeMap::new();
    for name in interface {
        let flat_id = net.require_var(name).map_err(Error::Bbn)?;
        let id = b
            .variable(name.clone(), net.states(flat_id).to_vec())
            .map_err(Error::Bbn)?;
        root_id.insert(name.as_str(), id);
    }
    let mut block_obs_ids: Vec<(VarId, Vec<VarId>)> = Vec::new();
    for block in blocks {
        let blk = b
            .variable(block.spec.name.clone(), ["fault", "ok"])
            .map_err(Error::Bbn)?;
        let mut obs_ids = Vec::new();
        for s in &block.spec.summary {
            let flat_id = net.require_var(s).map_err(Error::Bbn)?;
            let id = b
                .variable(s.clone(), net.states(flat_id).to_vec())
                .map_err(Error::Bbn)?;
            root_id.insert(s.as_str(), id);
            obs_ids.push(id);
        }
        block_obs_ids.push((blk, obs_ids));
    }

    // Interface chain CPTs.
    if !interface_ids.is_empty() {
        let joint = ve
            .joint_marginal(&no_evidence, interface_ids)
            .and_then(|f| f.reorder(interface_ids))
            .map_err(Error::Bbn)?;
        for (j, name) in interface.iter().enumerate() {
            let prefix = &interface_ids[..=j];
            let num = joint
                .marginalize_to(prefix)
                .and_then(|f| f.reorder(prefix))
                .map_err(Error::Bbn)?;
            let card = iface_cards[j];
            let rows = num.len() / card;
            let mut table = Vec::with_capacity(num.len());
            for row in 0..rows {
                let slice = &num.values()[row * card..(row + 1) * card];
                push_normalized(&mut table, slice, card);
            }
            let parents: Vec<VarId> = interface[..j].iter().map(|p| root_id[p.as_str()]).collect();
            b.cpt_flat(root_id[name.as_str()], parents, table)
                .map_err(Error::Bbn)?;
        }
    }

    for (block, (blk_id, obs_ids)) in blocks.iter().zip(&block_obs_ids) {
        let latent_ids: Vec<VarId> = block.latents.iter().map(|&(_, id, _)| id).collect();
        let latent_cards: Vec<usize> = latent_ids.iter().map(|&v| net.card(v)).collect();
        let fault_states: Vec<Vec<usize>> =
            block.latents.iter().map(|(_, _, s)| s.clone()).collect();
        let faulty = classify_configs(&latent_cards, &fault_states);
        let n_lat_cfg = faulty.len();

        // P(blk | interface): the chance some block latent is faulty.
        let mut targets: Vec<VarId> = interface_ids.to_vec();
        targets.extend(&latent_ids);
        let joint = ve
            .joint_marginal(&no_evidence, &targets)
            .and_then(|f| f.reorder(&targets))
            .map_err(Error::Bbn)?;
        let vals = joint.values();
        let mut blk_table = Vec::with_capacity(n_iface_cfg * 2);
        for i in 0..n_iface_cfg {
            let base = i * n_lat_cfg;
            let total: f64 = vals[base..base + n_lat_cfg].iter().sum();
            let fault: f64 = (0..n_lat_cfg)
                .filter(|&l| faulty[l])
                .map(|l| vals[base + l])
                .sum();
            if total > 0.0 {
                blk_table.push(fault / total);
                blk_table.push(1.0 - fault / total);
            } else {
                blk_table.extend([0.5, 0.5]);
            }
        }
        let parents: Vec<VarId> = interface.iter().map(|p| root_id[p.as_str()]).collect();
        b.cpt_flat(*blk_id, parents, blk_table)
            .map_err(Error::Bbn)?;

        // P(summary obs | interface, blk): the flat joint split by the
        // block's fault/healthy classification.
        for (s, &obs_id) in block.spec.summary.iter().zip(obs_ids) {
            let flat_obs = net.require_var(s).map_err(Error::Bbn)?;
            let card = net.card(flat_obs);
            let mut targets: Vec<VarId> = interface_ids.to_vec();
            targets.extend(&latent_ids);
            targets.push(flat_obs);
            let joint = ve
                .joint_marginal(&no_evidence, &targets)
                .and_then(|f| f.reorder(&targets))
                .map_err(Error::Bbn)?;
            let vals = joint.values();
            let mut table = Vec::with_capacity(n_iface_cfg * 2 * card);
            let mut num = vec![0.0f64; card];
            for i in 0..n_iface_cfg {
                for class_fault in [true, false] {
                    num.iter_mut().for_each(|n| *n = 0.0);
                    for (l, &is_faulty) in faulty.iter().enumerate() {
                        if is_faulty == class_fault {
                            let base = (i * n_lat_cfg + l) * card;
                            for (s_idx, n) in num.iter_mut().enumerate() {
                                *n += vals[base + s_idx];
                            }
                        }
                    }
                    push_normalized(&mut table, &num, card);
                }
            }
            let mut parents: Vec<VarId> = interface.iter().map(|p| root_id[p.as_str()]).collect();
            parents.push(*blk_id);
            b.cpt_flat(obs_id, parents, table).map_err(Error::Bbn)?;
        }
    }

    let network = b.build().map_err(Error::Bbn)?;
    CompiledModel::compile(DiagnosticModel::from_parts(cm, network))
}

/// Appends `slice` normalised to a distribution (uniform when the mass
/// is zero — the config is impossible, any conditional works).
fn push_normalized(table: &mut Vec<f64>, slice: &[f64], card: usize) {
    let total: f64 = slice.iter().sum();
    if total > 0.0 {
        table.extend(slice.iter().map(|v| v / total));
    } else {
        table.extend(std::iter::repeat_n(1.0 / card as f64, card));
    }
}

/// The decision record of one hierarchical closed loop: the root
/// isolation trace, the block descended into (if any), and the descended
/// block's trace — the golden-trace corpus serialises these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalTrace {
    /// The root (board-level) phase's decisions.
    pub root: DecisionTrace,
    /// The block the session descended into, if descent happened.
    pub descended: Option<String>,
    /// The descended block's decisions, when descent happened.
    pub child: Option<DecisionTrace>,
}

/// One device diagnosed through a [`HierarchicalModel`]: a root
/// [`DiagnosisSession`] plus, after descent, a child session on the
/// suspect block's sub-model — both speaking the ordinary
/// [`Action`]/[`Outcome`] vocabulary, so executors, golden traces and
/// the service wire format need no new concepts.
///
/// The session keeps a **board observation**: every measurement it has
/// seen, keyed by flat-model names. Before descent, the subset naming
/// root variables drives the root session; at descent the subset naming
/// child variables (interface + block members) is lifted down, so
/// evidence taken early is never lost.
#[derive(Debug)]
pub struct HierarchicalSession {
    model: Arc<HierarchicalModel>,
    policy: StoppingPolicy,
    root: DiagnosisSession,
    child: Option<(usize, DiagnosisSession)>,
    board: Observation,
}

impl HierarchicalSession {
    /// Opens a session at the abstract root.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStoppingPolicy`] for malformed policies.
    pub fn new(model: Arc<HierarchicalModel>, policy: StoppingPolicy) -> Result<Self> {
        let root = DiagnosisSession::new(Arc::clone(model.root()), policy)?;
        Ok(HierarchicalSession {
            model,
            policy,
            root,
            child: None,
            board: Observation::new(),
        })
    }

    /// The tree this session diagnoses through.
    pub fn model(&self) -> &Arc<HierarchicalModel> {
        &self.model
    }

    /// The root (board-level) session.
    pub fn root_session(&self) -> &DiagnosisSession {
        &self.root
    }

    /// The descended block's session, if descent has happened.
    pub fn child_session(&self) -> Option<&DiagnosisSession> {
        self.child.as_ref().map(|(_, s)| s)
    }

    /// The block descended into, if any.
    pub fn descended_block(&self) -> Option<&str> {
        self.child
            .as_ref()
            .map(|&(idx, _)| self.model.blocks[idx].spec.name.as_str())
    }

    /// Everything observed on the device so far, keyed by flat names.
    pub fn board_observation(&self) -> &Observation {
        &self.board
    }

    /// The active session: child when descended, root otherwise.
    fn active_mut(&mut self) -> &mut DiagnosisSession {
        match self.child.as_mut() {
            Some((_, s)) => s,
            None => &mut self.root,
        }
    }

    /// Whether `name` is a variable of the root model.
    fn root_has(&self, name: &str) -> bool {
        self.model.root().model().var(name).is_ok()
    }

    /// Records a measurement: `variable = state`, routed to every level
    /// that models the variable and remembered for later descent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for unknown variables or
    /// out-of-range states.
    pub fn observe(&mut self, variable: &str, state: usize) -> Result<()> {
        let flat_var = self.model.flat().var(variable).ok();
        if flat_var.is_none() && !self.root_has(variable) {
            return Err(Error::InvalidObservation {
                variable: variable.into(),
                reason: "not a model variable".into(),
            });
        }
        if let Some(var) = flat_var {
            let card = self.model.flat().network().card(var);
            if state >= card {
                return Err(Error::InvalidObservation {
                    variable: variable.into(),
                    reason: format!("state {state} out of range {card}"),
                });
            }
            self.board.set(variable, state);
        }
        if self.root_has(variable) {
            self.root.observe(variable, state)?;
        }
        if let Some((_, child)) = self.child.as_mut() {
            if child.compiled().model().var(variable).is_ok() {
                child.observe(variable, state)?;
            }
        }
        Ok(())
    }

    /// Flags an observed variable as limit-failing on every level that
    /// models it.
    pub fn mark_failing(&mut self, variable: &str) {
        if self.model.flat().var(variable).is_ok() {
            self.board.mark_failing(variable);
        }
        if self.root_has(variable) {
            self.root.mark_failing(variable);
        }
        if let Some((_, child)) = self.child.as_mut() {
            if child.compiled().model().var(variable).is_ok() {
                child.mark_failing(variable);
            }
        }
    }

    /// Records every entry (and failing mark) of `observation`.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalSession::observe`].
    pub fn observe_all(&mut self, observation: &Observation) -> Result<()> {
        for (name, state) in observation.iter() {
            self.observe(name, state)?;
        }
        for name in observation.failing() {
            self.mark_failing(name);
        }
        Ok(())
    }

    /// The active level's diagnosis: block pseudo-latent fault mass at
    /// the root, block-internal latent fault mass after descent.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors.
    pub fn diagnose(&mut self) -> Result<Diagnosis> {
        self.active_mut().diagnose()
    }

    /// Ranks the active level's candidate actions (board-level summary
    /// tests at the root; block tests and probes after descent).
    ///
    /// # Errors
    ///
    /// Propagates diagnosis and scoring errors.
    pub fn rank_actions(&mut self) -> Result<&[ScoredAction]> {
        self.active_mut().rank_actions()
    }

    /// Why the active level's stepping loop last declined to recommend.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self.child.as_ref() {
            Some((_, s)) => s.stop_reason(),
            None => self.root.stop_reason(),
        }
    }

    /// Descends into `block` if not already descended: compiles the
    /// child (first visit only), opens the block session under the
    /// current policy/strategy/costs, and lifts the board evidence down.
    ///
    /// # Errors
    ///
    /// Propagates compilation and observation errors.
    pub fn descend(&mut self, block: usize) -> Result<()> {
        if self.child.is_some() {
            return Ok(());
        }
        let compiled = self.model.child(block)?;
        let mut session = DiagnosisSession::new(Arc::clone(&compiled), self.policy)?;
        session.set_strategy(self.root.strategy())?;
        session.set_cost_model(self.root.cost_model().clone())?;
        session.set_deduction_policy(self.root.deduction_override())?;
        let child_model = compiled.model();
        for (name, state) in self.board.iter() {
            if child_model.var(name).is_ok() {
                session.observe(name, state)?;
            }
        }
        for name in self.board.failing() {
            if child_model.var(name).is_ok() {
                session.mark_failing(name);
            }
        }
        // Candidates: the block's unmeasured observables as tests, its
        // latents as probes.
        let cm = child_model.circuit_model();
        let mut actions: Vec<Action> = Vec::new();
        for o in cm.observables() {
            if self.board.state_of(o).is_none() {
                actions.push(Action::test(o));
            }
        }
        for l in cm.latents() {
            actions.push(Action::probe(l));
        }
        session.set_actions(actions)?;
        self.child = Some((block, session));
        Ok(())
    }

    /// [`HierarchicalSession::try_descend_at`] on a fresh root diagnosis:
    /// the stepping path, whose last diagnosis predates the applied
    /// measurement.
    ///
    /// # Errors
    ///
    /// Propagates diagnosis/compilation errors.
    fn try_descend(&mut self, force: bool) -> Result<bool> {
        if self.child.is_some() {
            return Ok(false);
        }
        let diagnosis = self.root.diagnose()?;
        self.try_descend_at(&fault_mass_entries(&diagnosis), force)
    }

    /// Checks the descent trigger against the root's per-block fault mass
    /// (`(block, mass)` entries from a diagnosis on the root's current
    /// evidence) and descends when a block's mass reaches the threshold
    /// (or, with `force`, into the top block regardless).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    fn try_descend_at(&mut self, fault_mass: &[(String, f64)], force: bool) -> Result<bool> {
        if self.child.is_some() {
            return Ok(false);
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, entry) in self.model.blocks.iter().enumerate() {
            let mass = fault_mass
                .iter()
                .find(|(name, _)| *name == entry.spec.name)
                .map_or(0.0, |&(_, mass)| mass);
            if best.is_none_or(|(_, m)| mass > m) {
                best = Some((idx, mass));
            }
        }
        let Some((idx, mass)) = best else {
            return Ok(false);
        };
        if force || mass >= DEFAULT_DESCEND_THRESHOLD {
            self.descend(idx)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// The next recommended action: the root's until a block crosses the
    /// descend threshold (or the root isolates a block), the descended
    /// block's afterwards. `None` once the descended session stops —
    /// [`HierarchicalSession::stop_reason`] says why.
    ///
    /// # Errors
    ///
    /// Propagates diagnosis/scoring/compilation errors.
    pub fn next_action(&mut self) -> Result<Option<Ranked<Action>>> {
        if self.child.is_none() {
            self.try_descend(false)?;
        }
        if self.child.is_none() {
            if let Some(ranked) = self.root.next_action()? {
                return Ok(Some(ranked));
            }
            // The root declined. Isolation at board level means a block
            // is the culprit: descend and keep going. Any other stop
            // (budget, gain floor, exhausted) ends the loop at the root.
            if self.root.stop_reason() == Some(StopReason::Isolated) {
                self.try_descend(true)?;
            }
            if self.child.is_none() {
                return Ok(None);
            }
        }
        let (_, child) = self.child.as_mut().expect("descended above");
        child.next_action()
    }

    /// Applies a measurement outcome to the active level (mirroring into
    /// the board record and the root, where applicable), then re-checks
    /// the descent trigger.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for unknown targets or
    /// out-of-range states.
    pub fn apply(&mut self, action: &Action, outcome: Outcome) -> Result<()> {
        let name = action.target();
        match self.child.as_mut() {
            Some((_, child)) => {
                child.apply(action, outcome)?;
                if self.model.flat().var(name).is_ok() {
                    self.board.set(name, outcome.state);
                    if outcome.failing {
                        self.board.mark_failing(name);
                    }
                }
            }
            None => {
                self.root.apply(action, outcome)?;
                if self.model.flat().var(name).is_ok() {
                    self.board.set(name, outcome.state);
                    if outcome.failing {
                        self.board.mark_failing(name);
                    }
                }
                self.try_descend(false)?;
            }
        }
        Ok(())
    }

    /// Runs the two-phase closed loop: board-level isolation at the
    /// root, then block-level isolation in the descended session. The
    /// outcome's ledger concatenates both phases' measurements; its
    /// diagnosis and stop reason come from the level that ended the
    /// loop.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::run`].
    pub fn run<E>(&mut self, mut executor: E) -> Result<SequentialOutcome>
    where
        E: ActionExecutor,
    {
        let root_start = self.root.applied().len();
        let child_start = self.child.as_ref().map_or(0, |(_, s)| s.applied().len());
        while let Some(next) = self.next_action()? {
            let outcome = executor.execute(&next.action)?;
            self.apply(&next.action, outcome)?;
        }
        let stop = self.stop_reason().unwrap_or(StopReason::Exhausted);
        let mut applied: Vec<AppliedMeasurement> = self.root.applied()[root_start..].to_vec();
        if let Some((_, child)) = self.child.as_ref() {
            applied.extend_from_slice(&child.applied()[child_start..]);
        }
        let diagnosis = self.diagnose()?;
        Ok(SequentialOutcome {
            diagnosis,
            applied,
            stop,
        })
    }

    /// [`HierarchicalSession::run`] capturing both phases' decision
    /// traces — the executable evidence the hierarchical golden-trace
    /// corpus replays.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalSession::run`].
    pub fn run_traced<E>(&mut self, executor: E) -> Result<(SequentialOutcome, HierarchicalTrace)>
    where
        E: ActionExecutor,
    {
        self.root.set_tracing(true);
        let descended_before = self.child.is_some();
        if let Some((_, child)) = self.child.as_mut() {
            child.set_tracing(true);
        }
        let outcome = self.run(executor)?;
        let mut root_trace = self
            .root
            .trace()
            .cloned()
            .expect("root tracing was enabled");
        root_trace.strategy = self.root.strategy();
        let root_diagnosis = self.root.diagnose()?;
        root_trace.final_fault_mass = root_diagnosis
            .fault_mass()
            .iter()
            .map(|(n, &m)| (n.clone(), m))
            .collect();
        root_trace.top_candidate = root_diagnosis.top_candidate().map(str::to_string);
        root_trace.stop = match self.child {
            // Descent is a root-level isolation even when triggered by
            // the threshold rather than the stopping policy.
            Some(_) => StopReason::Isolated,
            None => outcome.stop,
        };
        let child_trace = self.child.as_mut().map(|(_, child)| {
            let mut trace = child.trace().cloned().unwrap_or(DecisionTrace {
                strategy: child.strategy(),
                steps: Vec::new(),
                stop: outcome.stop,
                final_fault_mass: Vec::new(),
                top_candidate: None,
            });
            trace.strategy = child.strategy();
            trace.stop = outcome.stop;
            trace.final_fault_mass = outcome
                .diagnosis
                .fault_mass()
                .iter()
                .map(|(n, &m)| (n.clone(), m))
                .collect();
            trace.top_candidate = outcome.diagnosis.top_candidate().map(str::to_string);
            trace
        });
        // A session traced from the start descends during the traced
        // run; enable child tracing retroactively has no steps to lose
        // because descent creates the child inside `run`.
        debug_assert!(
            !descended_before || child_trace.is_some(),
            "a pre-descended session keeps its child trace"
        );
        let trace = HierarchicalTrace {
            root: root_trace,
            descended: self.descended_block().map(str::to_string),
            child: child_trace,
        };
        Ok((outcome, trace))
    }

    /// Serves one decision round at the service boundary, threading
    /// descent through: the request's observation is validated against
    /// the whole board, the active level absorbs its subset, and when
    /// the round pushes a block over the descend threshold the report
    /// switches to the freshly descended block session — so a wire
    /// client runs the same two-phase loop a local session does.
    ///
    /// # Errors
    ///
    /// Same as [`DiagnosisSession::serve_round`]; on error the session
    /// is unchanged.
    pub fn serve_round(&mut self, request: &SessionRequest) -> Result<SessionReport> {
        // Validate the whole observation up front (the level sessions
        // only see their subset, but a bad entry must fail the round).
        for (name, state) in request.observation.iter() {
            let known_flat = match self.model.flat().var(name) {
                Ok(var) => {
                    let card = self.model.flat().network().card(var);
                    if state >= card {
                        return Err(Error::InvalidObservation {
                            variable: name.into(),
                            reason: format!("state {state} out of range {card}"),
                        });
                    }
                    true
                }
                Err(_) => false,
            };
            if !known_flat && !self.root_has(name) {
                return Err(Error::InvalidObservation {
                    variable: name.into(),
                    reason: "not a model variable".into(),
                });
            }
        }
        let report = match self.child.as_mut() {
            Some((_, child)) => {
                let filtered = filter_request(request, child.compiled().model());
                child.serve_round(&filtered)?
            }
            None => {
                let filtered = filter_request(request, self.model.root().model());
                let report = self.root.serve_round(&filtered)?;
                self.policy = request.policy;
                // The report's fault mass is the root diagnosis on this
                // round's evidence: the trigger reads it, not a second
                // diagnosis.
                if self.try_descend_at(&report.fault_mass, false)?
                    || (report.stop == Some(StopReason::Isolated)
                        && self.try_descend_at(&report.fault_mass, true)?)
                {
                    // Descent within the round: answer from block level,
                    // so the client's next measurements target the block.
                    let (_, child) = self.child.as_mut().expect("just descended");
                    child.serve_round(&SessionRequest {
                        observation: Observation::new(),
                        actions: Vec::new(),
                        strategy: request.strategy,
                        policy: request.policy,
                        cost: request.cost.clone(),
                        deduction: request.deduction,
                        delta: true,
                        timings: Vec::new(),
                    })?
                } else {
                    report
                }
            }
        };
        // Commit the round's observations to the board record.
        for (name, state) in request.observation.iter() {
            if self.model.flat().var(name).is_ok() {
                self.board.set(name, state);
            }
        }
        for name in request.observation.failing() {
            if self.model.flat().var(name).is_ok() {
                self.board.mark_failing(name);
            }
        }
        Ok(report)
    }
}

/// Restricts a request to the variables (and action targets) `model`
/// knows; everything else belongs to other levels of the tree.
fn filter_request(request: &SessionRequest, model: &DiagnosticModel) -> SessionRequest {
    let mut observation = Observation::new();
    for (name, state) in request.observation.iter() {
        if model.var(name).is_ok() {
            observation.set(name, state);
        }
    }
    for name in request.observation.failing() {
        if model.var(name).is_ok() {
            observation.mark_failing(name);
        }
    }
    let actions: Vec<Action> = request
        .actions
        .iter()
        .filter(|a| model.var(a.target()).is_ok())
        .cloned()
        .collect();
    SessionRequest {
        observation,
        actions,
        strategy: request.strategy,
        policy: request.policy,
        cost: request.cost.clone(),
        deduction: request.deduction,
        delta: request.delta,
        timings: request.timings.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::toy_compiled_model;

    /// The toy fixture split at its control pin: `core` holds the bias
    /// and load chain, `side` the aux block.
    fn toy_hierarchy() -> HierarchicalModel {
        HierarchicalModel::build(
            toy_compiled_model().model().clone(),
            ["pin"],
            vec![
                BlockSpec::new("core", ["bias", "load", "out1", "out2"], ["out1"]),
                BlockSpec::new("side", ["aux", "out3"], ["out3"]),
            ],
        )
        .unwrap()
    }

    /// A panic while a child slot is locked poisons its mutex; the block
    /// must keep serving instead of panicking every later descent.
    #[test]
    fn a_poisoned_child_slot_keeps_serving() {
        let hierarchy = toy_hierarchy();
        let compiled = hierarchy.child(0).unwrap();
        std::thread::scope(|scope| {
            for entry in &hierarchy.blocks {
                let poisoner = scope.spawn(move || {
                    let _slot = entry.child.lock().unwrap();
                    panic!("compile panicked while holding the slot");
                });
                assert!(poisoner.join().is_err());
                assert!(entry.child.is_poisoned());
            }
        });
        assert!(Arc::ptr_eq(&hierarchy.child(0).unwrap(), &compiled));
        assert!(hierarchy.child_compiled(0));
        assert!(!hierarchy.child_compiled(1));
        hierarchy.child(1).unwrap();
        assert!(hierarchy.child_compiled(1));
        assert_eq!(hierarchy.submodel_compiles(), 2);
    }
}
