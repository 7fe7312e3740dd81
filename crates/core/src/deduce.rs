//! Automated candidate deduction — the paper's §IV-B backward iteration
//! ("with the knowledge of probability values for all non-observable
//! blocks, in combination with parent–child relationships, a common parent
//! block can be iteratively deduced…") formalised as a thresholded
//! root-cause walk with explaining-away.
//!
//! The procedure:
//!
//! 1. classify every latent block by its posterior fault-state mass:
//!    `FAULTY` above the faulty threshold, `HEALTHY` below the healthy
//!    threshold, `AMBIGUOUS` between;
//! 2. collect suspects: every `FAULTY` latent (seed) plus all non-healthy
//!    latent ancestors reachable from seeds through latent variables;
//! 3. *exonerate by explanation*: prune a suspect whenever the probability
//!    that **at least one of its latent ancestors is faulty** reaches the
//!    faulty threshold — its failure is then an expected consequence, and
//!    "the suspicion falls back to the parent" exactly as in the paper.
//!    The probability is exact: one collect pass through the round's
//!    compiled junction tree with every latent ancestor held to its
//!    healthy states gives `P(e, all healthy)`, and the round's own
//!    propagation gives `P(e)`. The answer depends only on the ancestor
//!    set, so it is memoised per ancestor set for the round;
//! 4. add a *self-candidate* for any observable block whose measurement
//!    failed but whose latent ancestry is likely healthy (the block itself
//!    is broken);
//! 5. rank the survivors by fault mass.
//!
//! With the default thresholds this reproduces the paper's candidate lists
//! for all five regulator case studies (d1 → `{warnvpst, hcbg}`, d2 →
//! `{enb13}`, d3 → `{warnvpst}`, d4 → `{lcbg}`, d5 → `{enbsw}`).

use crate::builder::DiagnosticModel;
use crate::error::{Error, Result};
use crate::session::CompiledModel;
use abbd_bbn::{Evidence, PropagationWorkspace, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Health classification of a latent block under a diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthClass {
    /// Fault mass at or above the faulty threshold.
    Faulty,
    /// Fault mass between the thresholds.
    Ambiguous,
    /// Fault mass at or below the healthy threshold.
    Healthy,
}

/// Thresholds of the deduction walk. The ancestor fault probability the
/// walk prunes by is not tunable: it is exact, through the compiled tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeductionPolicy {
    /// Fault-state posterior mass at or above which a block is FAULTY.
    pub faulty_threshold: f64,
    /// Fault-state posterior mass at or below which a block is HEALTHY.
    pub healthy_threshold: f64,
    /// When no latent reaches the faulty threshold, seed the walk with the
    /// highest-mass ambiguous latent instead of reporting nothing.
    pub seed_with_best_ambiguous: bool,
}

impl Default for DeductionPolicy {
    fn default() -> Self {
        DeductionPolicy {
            faulty_threshold: 0.55,
            healthy_threshold: 0.35,
            seed_with_best_ambiguous: true,
        }
    }
}

impl DeductionPolicy {
    /// Validates threshold consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPolicy`] when thresholds are out of `[0, 1]`
    /// or inverted.
    pub fn validate(&self) -> Result<()> {
        let ok_range = |x: f64| (0.0..=1.0).contains(&x);
        if !ok_range(self.faulty_threshold) || !ok_range(self.healthy_threshold) {
            return Err(Error::InvalidPolicy("thresholds must lie in [0, 1]".into()));
        }
        if self.healthy_threshold >= self.faulty_threshold {
            return Err(Error::InvalidPolicy(
                "healthy threshold must be below the faulty threshold".into(),
            ));
        }
        Ok(())
    }

    /// Classifies a fault-mass value.
    pub fn classify(&self, fault_mass: f64) -> HealthClass {
        if fault_mass >= self.faulty_threshold {
            HealthClass::Faulty
        } else if fault_mass <= self.healthy_threshold {
            HealthClass::Healthy
        } else {
            HealthClass::Ambiguous
        }
    }
}

/// One ranked fail candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Model-variable name of the suspected block.
    pub variable: String,
    /// For latent candidates: posterior mass on fault states. For
    /// observable self-candidates: confidence that no upstream block
    /// explains the failure.
    pub fault_mass: f64,
    /// Classification that put it on the list (`Faulty` for observable
    /// self-candidates).
    pub class: HealthClass,
    /// Probability that at least one latent ancestor is faulty — the
    /// explaining-away pressure this candidate survived.
    pub ancestor_fault_probability: f64,
    /// How strongly the block's fault state is already implied by its
    /// *inputs being what they are* (controls at their observed values,
    /// latent parents healthy) — condition pressure this candidate
    /// survived.
    pub conditional_fault_expectation: f64,
}

/// What deduction needs to know about one network variable, precomputed
/// once per model.
#[derive(Debug, Clone)]
struct VarFacts {
    latent: bool,
    /// The failing-state indices.
    faults: Vec<usize>,
    /// The 0/1 healthy-state mask: 0 on fault states, 1 elsewhere.
    healthy: Vec<f64>,
    /// The latent ancestors, in [`crate::CircuitModel::latent_ancestors`]
    /// order (the suspect walk's order).
    ancestors: Vec<VarId>,
    /// The interned id of the ancestor set: the memo key of its
    /// exoneration query.
    set: usize,
}

/// The deduction table [`CompiledModel::compile`] builds once per model:
/// every variable's fault states, healthy mask and latent ancestors as
/// [`VarId`]s, with each distinct ancestor set interned, so a round's
/// queries walk no names and build no masks.
#[derive(Debug, Clone)]
pub(crate) struct AncestryTable {
    /// Indexed by [`VarId::index`].
    vars: Vec<VarFacts>,
    /// Distinct ancestor sets, by id.
    sets: Vec<Vec<VarId>>,
}

impl AncestryTable {
    /// Builds the table for a fitted model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for an ancestor outside the
    /// network.
    pub(crate) fn new(model: &DiagnosticModel) -> Result<Self> {
        let circuit = model.circuit_model();
        let network = model.network();
        let latents = circuit.latents();
        let mut ids: BTreeMap<Vec<VarId>, usize> = BTreeMap::new();
        let mut sets: Vec<Vec<VarId>> = Vec::new();
        let mut vars = Vec::with_capacity(network.var_count());
        for var in network.variables() {
            let name = network.name(var);
            let faults = circuit.fault_states(name);
            let healthy = (0..network.card(var))
                .map(|s| if faults.contains(&s) { 0.0 } else { 1.0 })
                .collect();
            let ancestors = circuit
                .latent_ancestors(name)
                .iter()
                .map(|a| model.var(a))
                .collect::<Result<Vec<VarId>>>()?;
            let mut key = ancestors.clone();
            key.sort_unstable();
            let set = *ids.entry(key).or_insert_with(|| {
                sets.push(ancestors.clone());
                sets.len() - 1
            });
            vars.push(VarFacts {
                latent: latents.contains(&name),
                faults,
                healthy,
                ancestors,
                set,
            });
        }
        Ok(AncestryTable { vars, sets })
    }

    /// The latent ancestors of `var`, in the suspect walk's order.
    fn ancestors(&self, var: VarId) -> &[VarId] {
        &self.vars[var.index()].ancestors
    }
}

/// One round's exoneration answers, memoised by ancestor-set id, plus the
/// mask buffer the queries reuse.
pub(crate) struct Exoneration<'a> {
    answers: Vec<Option<f64>>,
    masks: Vec<(VarId, &'a [f64])>,
}

impl<'a> Exoneration<'a> {
    pub(crate) fn new(table: &'a AncestryTable) -> Self {
        let widest = table.sets.iter().map(Vec::len).max().unwrap_or(0);
        Exoneration {
            answers: vec![None; table.sets.len()],
            masks: Vec::with_capacity(widest),
        }
    }
}

/// What deduction reads from one diagnosis round: the compiled model the
/// round propagated through, its evidence, the posteriors it extracted
/// (spec order, as in [`crate::Diagnosis::posteriors`]) and its
/// `ln P(e)`.
pub(crate) struct Round<'a> {
    pub(crate) compiled: &'a CompiledModel,
    pub(crate) evidence: &'a Evidence,
    pub(crate) posteriors: &'a [(String, Vec<f64>)],
    pub(crate) log_evidence: f64,
}

/// CPT-level fault expectation of `var` given its parents' *benign*
/// configuration: control/observable parents take their observed (or most
/// probable) states, latent parents take their most probable **non-fault**
/// state. A high value means the block is expected to sit in a fault-band
/// state purely because of the test conditions — the paper's
/// "non-operational because the stimulus says so" situation (e.g. every
/// enable is off when the pins are grounded), which must not produce a
/// candidate.
///
/// # Errors
///
/// Propagates CPT-row lookup errors.
pub(crate) fn conditional_fault_expectation(round: &Round<'_>, var: VarId) -> Result<f64> {
    let network = round.compiled.model().network();
    let table = round.compiled.ancestry();
    let parents = network.parents(var);
    if parents.is_empty() {
        return Ok(0.0);
    }
    let mut parent_states = Vec::with_capacity(parents.len());
    for &p in parents {
        let state = match round.evidence.state_of(p) {
            Some(s) => s,
            None => {
                let posterior = &round.posteriors[round.compiled.spec_index(p)].1;
                let facts = &table.vars[p.index()];
                // Most probable state, or most probable non-fault state
                // for a latent parent.
                posterior
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !(facts.latent && facts.faults.contains(i)))
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map_or(0, |(i, _)| i)
            }
        };
        parent_states.push(state);
    }
    let row = network.cpt_row(var, &parent_states).map_err(Error::Bbn)?;
    Ok(table.vars[var.index()]
        .faults
        .iter()
        .filter_map(|&s| row.get(s))
        .sum())
}

/// Probability that at least one latent ancestor of `var` is in a fault
/// state, given the round's evidence — exactly, as
/// `1 − P(e, every latent ancestor healthy) / P(e)`. The numerator is one
/// collect-only [`abbd_bbn::JunctionTree::log_likelihood_in`] query
/// through `ws` with the precomputed 0/1 healthy mask on each unobserved
/// latent ancestor; an ancestor observed healthy is skipped, and so is
/// one whose soft finding already gives its fault states no weight. An
/// ancestor observed faulty, an ancestor with no healthy state left, or
/// a numerator of zero probability all give exactly 1.
///
/// The answer depends only on `var`'s ancestor set, so `memo` answers a
/// repeated set without a query.
///
/// # Errors
///
/// Propagates any inference error other than impossible evidence.
pub(crate) fn ancestor_fault_probability<'a>(
    round: &Round<'a>,
    ws: &mut PropagationWorkspace,
    memo: &mut Exoneration<'a>,
    var: VarId,
) -> Result<f64> {
    let table = round.compiled.ancestry();
    let set = table.vars[var.index()].set;
    if let Some(p) = memo.answers[set] {
        return Ok(p);
    }
    let p = any_faulty(round, ws, &mut memo.masks, &table.sets[set])?;
    memo.answers[set] = Some(p);
    Ok(p)
}

/// The uncached body of [`ancestor_fault_probability`] over one ancestor
/// set, collecting the masks it applies in `masks`.
fn any_faulty<'a>(
    round: &Round<'a>,
    ws: &mut PropagationWorkspace,
    masks: &mut Vec<(VarId, &'a [f64])>,
    ancestors: &[VarId],
) -> Result<f64> {
    let table = round.compiled.ancestry();
    masks.clear();
    for &ancestor in ancestors {
        let facts = &table.vars[ancestor.index()];
        if let Some(state) = round.evidence.state_of(ancestor) {
            if facts.faults.contains(&state) {
                return Ok(1.0);
            }
            continue;
        }
        let likelihood = round.evidence.likelihood_of(ancestor);
        let weight = |s: usize| likelihood.map_or(1.0, |l| l[s]);
        if facts
            .healthy
            .iter()
            .enumerate()
            .all(|(s, &h)| h * weight(s) == 0.0)
        {
            return Ok(1.0);
        }
        if likelihood.is_some() && facts.faults.iter().all(|&s| weight(s) == 0.0) {
            // The mask would zero nothing the finding has not zeroed.
            continue;
        }
        masks.push((ancestor, &facts.healthy));
    }
    if masks.is_empty() {
        // Every latent ancestor is already known healthy.
        return Ok(0.0);
    }
    match round
        .compiled
        .jt()
        .log_likelihood_in(ws, round.evidence, masks)
    {
        Ok(log_healthy) => Ok((-(log_healthy - round.log_evidence).exp_m1()).clamp(0.0, 1.0)),
        Err(abbd_bbn::Error::ImpossibleEvidence) => Ok(1.0),
        Err(e) => Err(Error::Bbn(e)),
    }
}

/// Runs the deduction over per-latent fault masses.
///
/// * `fault_mass` maps every latent variable to its posterior fault-state
///   mass (computed by the diagnosis kernel), and `classes` maps it to
///   its [`DeductionPolicy::classify`] class.
/// * `failing_observables` lists observable variables whose source
///   measurement failed its ATE limits — candidates of last resort.
///
/// Every latent key of `fault_mass` must be one of the compiled model's
/// latents: suspects are tracked by [`VarId`], and a seed's id is found
/// among them.
///
/// The exoneration queries collect through `ws`, which is left
/// uncalibrated when any query runs.
///
/// # Errors
///
/// Returns [`Error::InvalidPolicy`] for malformed thresholds and
/// propagates inference errors from the exoneration queries.
pub(crate) fn deduce_candidates(
    round: &Round<'_>,
    ws: &mut PropagationWorkspace,
    fault_mass: &BTreeMap<String, f64>,
    classes: &BTreeMap<String, HealthClass>,
    failing_observables: &[VarId],
    policy: &DeductionPolicy,
) -> Result<Vec<Candidate>> {
    policy.validate()?;

    let class_of = |name: &str| classes.get(name).copied().unwrap_or(HealthClass::Healthy);

    // Seeds: faulty latents; fallback to the single worst ambiguous latent.
    let mut seeds: Vec<&str> = fault_mass
        .iter()
        .filter(|(name, _)| class_of(name) == HealthClass::Faulty)
        .map(|(name, _)| name.as_str())
        .collect();
    if seeds.is_empty() && policy.seed_with_best_ambiguous {
        if let Some((best, _)) = fault_mass
            .iter()
            .filter(|(name, _)| class_of(name) == HealthClass::Ambiguous)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("fault mass has no NaN"))
        {
            seeds.push(best.as_str());
        }
    }

    // Walk upwards through non-healthy latent ancestors, by id.
    let network = round.compiled.model().network();
    let table = round.compiled.ancestry();
    let latent_id = |name: &str| {
        round
            .compiled
            .latent_vars()
            .iter()
            .find(|(latent, _)| latent == name)
            .map(|&(_, id)| id)
            .ok_or_else(|| Error::UnknownVariable(name.into()))
    };
    let mut suspects: Vec<(&str, VarId)> = Vec::new();
    let mut stack: Vec<(&str, VarId)> = seeds
        .iter()
        .map(|&name| Ok((name, latent_id(name)?)))
        .collect::<Result<_>>()?;
    while let Some((v, id)) = stack.pop() {
        if !suspects.iter().any(|&(_, s)| s == id) {
            suspects.push((v, id));
            for &anc in table.ancestors(id) {
                if let Some((key, _)) = fault_mass.get_key_value(network.name(anc)) {
                    if class_of(key) != HealthClass::Healthy
                        && !suspects.iter().any(|&(_, s)| s == anc)
                    {
                        stack.push((key.as_str(), anc));
                    }
                }
            }
        }
    }

    // Exonerate suspects explained by their ancestry or by the test
    // conditions themselves.
    let mut memo = Exoneration::new(table);
    let mut survives = |var: VarId| -> Result<Option<(f64, f64)>> {
        let p_anc = ancestor_fault_probability(round, ws, &mut memo, var)?;
        let p_cond = conditional_fault_expectation(round, var)?;
        let kept = p_anc < policy.faulty_threshold && p_cond < policy.faulty_threshold;
        Ok(kept.then_some((p_anc, p_cond)))
    };
    let by_mass = |a: &Candidate, b: &Candidate| {
        b.fault_mass
            .partial_cmp(&a.fault_mass)
            .expect("fault mass has no NaN")
    };
    let mut candidates: Vec<Candidate> = Vec::new();
    for &(v, id) in &suspects {
        if let Some((p_anc, p_cond)) = survives(id)? {
            candidates.push(Candidate {
                variable: v.to_string(),
                fault_mass: fault_mass[v],
                class: class_of(v),
                ancestor_fault_probability: p_anc,
                conditional_fault_expectation: p_cond,
            });
        }
    }
    candidates.sort_by(by_mass);

    // Self-candidates: failing observables with healthy-looking ancestry
    // whose failure is not the expected outcome of the conditions.
    let mut self_candidates: Vec<Candidate> = Vec::new();
    for &var in failing_observables {
        if let Some((p_anc, p_cond)) = survives(var)? {
            self_candidates.push(Candidate {
                variable: network.name(var).into(),
                fault_mass: 1.0 - p_anc,
                class: HealthClass::Faulty,
                ancestor_fault_probability: p_anc,
                conditional_fault_expectation: p_cond,
            });
        }
    }
    self_candidates.sort_by(by_mass);
    candidates.extend(self_candidates);
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExpertKnowledge, ModelBuilder};
    use crate::model::CircuitModel;
    use abbd_bbn::VariableElimination;
    use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};

    /// A miniature of the regulator's latent chain:
    /// root -> mid -> {leaf_a, leaf_b} (all latent), leaves drive one
    /// observable each, plus `obs_c` driven directly by `root`.
    fn model() -> CircuitModel {
        let var = |name: &str, ftype| VariableSpec {
            name: name.into(),
            ftype,
            bands: vec![
                StateBand::new("0", 0.0, 1.0, "non-operational"),
                StateBand::new("1", 1.0, 2.0, "operational"),
            ],
            ckt_ref: None,
        };
        let spec = ModelSpec::new([
            var("root", FunctionalType::Latent),
            var("mid", FunctionalType::Latent),
            var("leaf_a", FunctionalType::Latent),
            var("leaf_b", FunctionalType::Latent),
            var("obs_a", FunctionalType::Observe),
            var("obs_b", FunctionalType::Observe),
            var("obs_c", FunctionalType::Observe),
        ])
        .unwrap();
        let mut m = CircuitModel::new(spec);
        m.depends("root", "mid").unwrap();
        m.depends("mid", "leaf_a").unwrap();
        m.depends("mid", "leaf_b").unwrap();
        m.depends("leaf_a", "obs_a").unwrap();
        m.depends("leaf_b", "obs_b").unwrap();
        m.depends("root", "obs_c").unwrap();
        m
    }

    fn expert() -> ExpertKnowledge {
        let mut e = ExpertKnowledge::new(10.0);
        e.cpt("root", [[0.05, 0.95]]);
        e.cpt("mid", [[0.97, 0.03], [0.05, 0.95]]);
        e.cpt("leaf_a", [[0.95, 0.05], [0.05, 0.95]]);
        e.cpt("leaf_b", [[0.95, 0.05], [0.05, 0.95]]);
        e.cpt("obs_a", [[0.97, 0.03], [0.03, 0.97]]);
        e.cpt("obs_b", [[0.97, 0.03], [0.03, 0.97]]);
        e.cpt("obs_c", [[0.97, 0.03], [0.03, 0.97]]);
        e
    }

    fn compiled(m: &CircuitModel, e: ExpertKnowledge) -> CompiledModel {
        let model = ModelBuilder::new(m.clone())
            .with_expert(e)
            .build_expert_only()
            .unwrap();
        CompiledModel::compile(model).unwrap()
    }

    fn masses(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(n, m)| (n.to_string(), *m)).collect()
    }

    fn evidence_for(c: &CompiledModel, pairs: &[(&str, usize)]) -> Evidence {
        let mut e = Evidence::new();
        for (n, s) in pairs {
            e.observe(c.model().var(n).unwrap(), *s);
        }
        e
    }

    /// Calibrates `c` on `ev` and hands `f` the round the diagnosis
    /// kernel would hand deduction, plus the workspace it propagated in.
    fn with_round<T>(
        c: &CompiledModel,
        ev: &Evidence,
        f: impl FnOnce(&Round<'_>, &mut PropagationWorkspace) -> T,
    ) -> T {
        let mut ws = c.make_workspace();
        let cal = c.jt().propagate_in(&mut ws, ev).unwrap();
        let log_evidence = cal.log_likelihood();
        let posteriors: Vec<(String, Vec<f64>)> = c
            .model()
            .circuit_model()
            .spec()
            .variables()
            .iter()
            .map(|v| {
                let id = c.model().var(&v.name).unwrap();
                (v.name.clone(), cal.posterior(id).unwrap())
            })
            .collect();
        let round = Round {
            compiled: c,
            evidence: ev,
            posteriors: &posteriors,
            log_evidence,
        };
        f(&round, &mut ws)
    }

    fn deduce(
        c: &CompiledModel,
        ev: &Evidence,
        fm: &BTreeMap<String, f64>,
        failing: &[String],
        policy: &DeductionPolicy,
    ) -> Vec<Candidate> {
        let classes = fm
            .iter()
            .map(|(name, &mass)| (name.clone(), policy.classify(mass)))
            .collect();
        let failing: Vec<VarId> = failing
            .iter()
            .map(|name| c.model().var(name).unwrap())
            .collect();
        with_round(c, ev, |round, ws| {
            deduce_candidates(round, ws, fm, &classes, &failing, policy).unwrap()
        })
    }

    /// The variable-elimination oracle for both exoneration queries:
    /// `(ancestor fault probability, conditional fault expectation)` from
    /// a joint-marginal enumeration over the latent ancestors and
    /// per-parent VE posterior argmaxes.
    fn oracle(c: &CompiledModel, ev: &Evidence, variable: &str) -> (f64, f64) {
        let m = c.model().circuit_model();
        let net = c.model().network();
        let ve = VariableElimination::new(net);
        let ancestors = m.latent_ancestors(variable);
        let p_anc = if ancestors.is_empty() {
            0.0
        } else {
            let ids: Vec<VarId> = ancestors.iter().map(|a| net.var(a).unwrap()).collect();
            let joint = ve.joint_marginal(ev, &ids).unwrap();
            let healthy: f64 = joint
                .values()
                .iter()
                .enumerate()
                .filter(|&(idx, _)| {
                    // Decode the cell index, last ancestor fastest.
                    let mut rest = idx;
                    joint
                        .cards()
                        .iter()
                        .zip(&ancestors)
                        .rev()
                        .all(|(&card, a)| {
                            let state = rest % card;
                            rest /= card;
                            !m.fault_states(a).contains(&state)
                        })
                })
                .map(|(_, p)| p)
                .sum();
            (1.0 - healthy).clamp(0.0, 1.0)
        };
        let var = net.var(variable).unwrap();
        let parents = net.parents(var);
        let p_cond = if parents.is_empty() {
            0.0
        } else {
            let states: Vec<usize> = parents
                .iter()
                .map(|&p| {
                    ev.state_of(p).unwrap_or_else(|| {
                        let name = net.name(p);
                        let faults = if m.latents().contains(&name) {
                            m.fault_states(name)
                        } else {
                            Vec::new()
                        };
                        let post = ve.posterior(ev, p).unwrap();
                        (0..post.len())
                            .filter(|i| !faults.contains(i))
                            .max_by(|&a, &b| post[a].partial_cmp(&post[b]).unwrap())
                            .unwrap_or(0)
                    })
                })
                .collect();
            let row = net.cpt_row(var, &states).unwrap();
            m.fault_states(variable).iter().map(|&s| row[s]).sum()
        };
        (p_anc, p_cond)
    }

    /// The full-propagation exoneration query the collect-only kernel
    /// replaced, kept as its bitwise oracle: fold a 0/1 healthy-states
    /// likelihood into the evidence for every unobserved latent ancestor,
    /// run a whole Hugin propagation, and compare its `ln P` with the
    /// round's.
    fn propagated_ancestor_fault_probability(
        round: &Round<'_>,
        ws: &mut PropagationWorkspace,
        variable: &str,
    ) -> f64 {
        let model = round.compiled.model();
        let mut query = round.evidence.clone();
        for ancestor in model.circuit_model().latent_ancestors(variable) {
            let id = model.var(&ancestor).unwrap();
            let faults = model.circuit_model().fault_states(&ancestor);
            if let Some(state) = round.evidence.state_of(id) {
                if faults.contains(&state) {
                    return 1.0;
                }
                continue;
            }
            let mut healthy: Vec<f64> = (0..model.network().card(id))
                .map(|s| if faults.contains(&s) { 0.0 } else { 1.0 })
                .collect();
            if let Some(likelihood) = round.evidence.likelihood_of(id) {
                for (h, w) in healthy.iter_mut().zip(likelihood) {
                    *h *= w;
                }
            }
            if healthy.iter().all(|&h| h == 0.0) {
                return 1.0;
            }
            query.observe_likelihood(id, healthy);
        }
        if query == *round.evidence {
            return 0.0;
        }
        match round.compiled.jt().propagate_in(ws, &query) {
            Ok(view) => (-(view.log_likelihood() - round.log_evidence).exp_m1()).clamp(0.0, 1.0),
            Err(abbd_bbn::Error::ImpossibleEvidence) => 1.0,
            Err(e) => panic!("oracle propagation failed: {e}"),
        }
    }

    /// The evidence cases both exoneration oracles run: every
    /// unobserved / passing / failing assignment of the three observables,
    /// plus the edge cases of the query. Returns the cases and the three
    /// models they use (`base`, `all_fault`, `deterministic`).
    fn oracle_cases() -> (Vec<(usize, Evidence)>, [CompiledModel; 3]) {
        let m = model();
        let base = compiled(&m, expert());
        let mut inputs: Vec<(usize, Evidence)> = Vec::new();
        for code in 0..27 {
            let pairs: Vec<(&str, usize)> = ["obs_a", "obs_b", "obs_c"]
                .iter()
                .enumerate()
                .filter_map(|(i, &name)| match code / 3usize.pow(i as u32) % 3 {
                    0 => None,
                    s => Some((name, s - 1)),
                })
                .collect();
            inputs.push((0, evidence_for(&base, &pairs)));
        }
        // An ancestor observed healthy is skipped; one observed faulty
        // settles the disjunction at 1.
        inputs.push((0, evidence_for(&base, &[("root", 1), ("obs_a", 0)])));
        inputs.push((0, evidence_for(&base, &[("root", 0), ("obs_a", 0)])));
        // A soft finding on an ancestor is kept under the healthy mask.
        let mut soft = evidence_for(&base, &[("obs_a", 0), ("obs_b", 0)]);
        soft.observe_likelihood(base.model().var("mid").unwrap(), vec![0.3, 0.7]);
        inputs.push((0, soft));
        // A soft finding that already gives an ancestor's fault state no
        // weight, and one that leaves it no healthy weight.
        let mut healthy_soft = evidence_for(&base, &[("obs_a", 0)]);
        healthy_soft.observe_likelihood(base.model().var("mid").unwrap(), vec![0.0, 0.7]);
        inputs.push((0, healthy_soft));
        let mut healthy_root = evidence_for(&base, &[("obs_c", 0)]);
        healthy_root.observe_likelihood(base.model().var("root").unwrap(), vec![0.0, 0.7]);
        inputs.push((0, healthy_root));
        let mut faulty_soft = evidence_for(&base, &[("obs_a", 0)]);
        faulty_soft.observe_likelihood(base.model().var("root").unwrap(), vec![0.4, 0.0]);
        inputs.push((0, faulty_soft));
        // An ancestor with no healthy state.
        let mut all_fault = model();
        all_fault.set_fault_states("root", &[0, 1]).unwrap();
        let all_fault = compiled(&all_fault, expert());
        inputs.push((1, evidence_for(&all_fault, &[("obs_a", 0)])));
        // A failing obs_c that a healthy root cannot produce: holding the
        // ancestors healthy is impossible evidence.
        let mut e = expert();
        e.cpt("obs_c", [[1.0, 0.0], [0.0, 1.0]]);
        let deterministic = compiled(&m, e);
        inputs.push((2, evidence_for(&deterministic, &[("obs_c", 0)])));
        (inputs, [base, all_fault, deterministic])
    }

    fn var_names() -> Vec<String> {
        model()
            .spec()
            .variables()
            .iter()
            .map(|v| v.name.clone())
            .collect()
    }

    #[test]
    fn policy_validation() {
        assert!(DeductionPolicy::default().validate().is_ok());
        let bad = DeductionPolicy {
            faulty_threshold: 0.3,
            healthy_threshold: 0.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let oob = DeductionPolicy {
            faulty_threshold: 1.5,
            ..Default::default()
        };
        assert!(oob.validate().is_err());
        let p = DeductionPolicy::default();
        assert_eq!(p.classify(0.9), HealthClass::Faulty);
        assert_eq!(p.classify(0.45), HealthClass::Ambiguous);
        assert_eq!(p.classify(0.1), HealthClass::Healthy);
    }

    #[test]
    fn single_faulty_leaf_with_healthy_parents_is_the_candidate() {
        // Mirrors paper cases d2/d5: obs_a fails, obs_b and obs_c fine.
        let c = compiled(&model(), expert());
        let ev = evidence_for(&c, &[("obs_a", 0), ("obs_b", 1), ("obs_c", 1)]);
        let fm = masses(&[
            ("root", 0.02),
            ("mid", 0.05),
            ("leaf_a", 0.95),
            ("leaf_b", 0.03),
        ]);
        let c = deduce(&c, &ev, &fm, &["obs_a".into()], &DeductionPolicy::default());
        assert_eq!(c[0].variable, "leaf_a");
        assert_eq!(c[0].class, HealthClass::Faulty);
        // obs_a is explained by leaf_a, so no self-candidate for it.
        assert!(!c.iter().any(|x| x.variable == "obs_a"), "{c:?}");
    }

    #[test]
    fn faulty_siblings_fall_back_to_ambiguous_parent_chain() {
        // Mirrors paper case d1: both leaves look faulty, mid and root are
        // ambiguous -> the ambiguous ancestors are reported, leaves pruned
        // because their ancestor disjunction is high.
        let c = compiled(&model(), expert());
        let ev = evidence_for(&c, &[("obs_a", 0), ("obs_b", 0)]);
        let fm = masses(&[
            ("root", 0.45),
            ("mid", 0.48),
            ("leaf_a", 0.9),
            ("leaf_b", 0.88),
        ]);
        let c = deduce(&c, &ev, &fm, &[], &DeductionPolicy::default());
        let names: Vec<&str> = c.iter().map(|c| c.variable.as_str()).collect();
        // Under this evidence, P(root bad or mid bad) is high (both failing
        // leaves), so the leaves are pruned; mid survives only if its own
        // ancestor disjunction (root alone) stays below threshold.
        assert!(!names.contains(&"leaf_a"), "{names:?}");
        assert!(!names.contains(&"leaf_b"), "{names:?}");
        assert!(
            names.contains(&"mid") || names.contains(&"root"),
            "{names:?}"
        );
    }

    #[test]
    fn clearly_faulty_root_explains_everything() {
        // Mirrors paper case d4: root is implicated by obs_c too.
        let c = compiled(&model(), expert());
        let ev = evidence_for(&c, &[("obs_a", 0), ("obs_b", 0), ("obs_c", 0)]);
        let fm = masses(&[
            ("root", 0.9),
            ("mid", 0.92),
            ("leaf_a", 0.95),
            ("leaf_b", 0.93),
        ]);
        let c = deduce(&c, &ev, &fm, &[], &DeductionPolicy::default());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].variable, "root");
        assert_eq!(c[0].ancestor_fault_probability, 0.0);
    }

    #[test]
    fn lone_observable_failure_becomes_self_candidate() {
        let c = compiled(&model(), expert());
        // Everything healthy upstream; obs_a failed its limits anyway.
        let ev = evidence_for(&c, &[("obs_a", 1), ("obs_b", 1), ("obs_c", 1)]);
        let fm = masses(&[
            ("root", 0.02),
            ("mid", 0.03),
            ("leaf_a", 0.04),
            ("leaf_b", 0.03),
        ]);
        let c = deduce(&c, &ev, &fm, &["obs_a".into()], &DeductionPolicy::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].variable, "obs_a");
        assert!(c[0].fault_mass > 0.8);
    }

    #[test]
    fn all_healthy_yields_no_candidates() {
        let c = compiled(&model(), expert());
        let ev = evidence_for(&c, &[("obs_a", 1), ("obs_b", 1), ("obs_c", 1)]);
        let fm = masses(&[
            ("root", 0.05),
            ("mid", 0.04),
            ("leaf_a", 0.03),
            ("leaf_b", 0.02),
        ]);
        let c = deduce(&c, &ev, &fm, &[], &DeductionPolicy::default());
        assert!(c.is_empty());
    }

    #[test]
    fn ambiguous_fallback_seed() {
        let c = compiled(&model(), expert());
        // obs_b and obs_c pass, which exonerates mid and root; obs_a's
        // failure leaves leaf_a merely ambiguous.
        let ev = evidence_for(&c, &[("obs_a", 0), ("obs_b", 1), ("obs_c", 1)]);
        let fm = masses(&[
            ("root", 0.1),
            ("mid", 0.2),
            ("leaf_a", 0.5),
            ("leaf_b", 0.1),
        ]);
        let with = deduce(&c, &ev, &fm, &[], &DeductionPolicy::default());
        assert_eq!(with.len(), 1);
        assert_eq!(with[0].variable, "leaf_a");
        assert_eq!(with[0].class, HealthClass::Ambiguous);

        let without = deduce(
            &c,
            &ev,
            &fm,
            &[],
            &DeductionPolicy {
                seed_with_best_ambiguous: false,
                ..Default::default()
            },
        );
        assert!(without.is_empty());
    }

    #[test]
    fn tree_disjunction_matches_the_ve_oracle() {
        let (inputs, models) = oracle_cases();
        let [base, all_fault, deterministic] = &models;
        let names = var_names();
        let mut queries = 0;
        for (m, ev) in &inputs {
            let c = &models[*m];
            with_round(c, ev, |round, ws| {
                let mut memo = Exoneration::new(c.ancestry());
                for name in &names {
                    let var = c.model().var(name).unwrap();
                    let tree = (
                        ancestor_fault_probability(round, ws, &mut memo, var).unwrap(),
                        conditional_fault_expectation(round, var).unwrap(),
                    );
                    let want = oracle(c, ev, name);
                    assert!(
                        (tree.0 - want.0).abs() <= 1e-12 && (tree.1 - want.1).abs() <= 1e-12,
                        "{name} under {ev:?}: tree {tree:?} vs VE {want:?}"
                    );
                    queries += 1;
                }
            });
        }
        assert_eq!(queries, inputs.len() * names.len());

        // The three edge cases give exactly 1 with no error.
        let leaf_a = |c: &CompiledModel| c.model().var("leaf_a").unwrap();
        for (c, pairs, var) in [
            (base, [("root", 0), ("obs_a", 0)].as_slice(), leaf_a(base)),
            (all_fault, [("obs_a", 0)].as_slice(), leaf_a(all_fault)),
            (
                deterministic,
                [("obs_c", 0)].as_slice(),
                deterministic.model().var("obs_c").unwrap(),
            ),
        ] {
            let ev = evidence_for(c, pairs);
            let p = with_round(c, &ev, |round, ws| {
                ancestor_fault_probability(round, ws, &mut Exoneration::new(c.ancestry()), var)
            });
            assert_eq!(p.unwrap(), 1.0, "{var} under {pairs:?}");
        }

        // No latent ancestors -> zero.
        let ev = evidence_for(base, &[("obs_a", 0), ("obs_b", 0)]);
        let root = base.model().var("root").unwrap();
        let p = with_round(base, &ev, |round, ws| {
            ancestor_fault_probability(round, ws, &mut Exoneration::new(base.ancestry()), root)
                .unwrap()
        });
        assert_eq!(p.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn collect_only_exoneration_is_bitwise_the_full_propagation() {
        let (inputs, models) = oracle_cases();
        let names = var_names();
        for (m, ev) in &inputs {
            let c = &models[*m];
            with_round(c, ev, |round, ws| {
                let mut memo = Exoneration::new(c.ancestry());
                let mut oracle_ws = c.make_workspace();
                // Twice over the names: the second pass answers from the
                // memo and must not drift either.
                for name in names.iter().chain(&names) {
                    let var = c.model().var(name).unwrap();
                    let got = ancestor_fault_probability(round, ws, &mut memo, var).unwrap();
                    let want = propagated_ancestor_fault_probability(round, &mut oracle_ws, name);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} under {ev:?}: collect-only {got} vs full propagation {want}"
                    );
                }
            });
        }
    }
}
