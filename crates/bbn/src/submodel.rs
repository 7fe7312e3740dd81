//! Sub-model extraction: project a fitted network onto a block plus its
//! boundary interface, producing a standalone [`Network`] whose interface
//! CPTs summarise the rest of the board.
//!
//! This is the bbn-layer kernel behind hierarchical block-level diagnosis
//! (Srinivas's probabilistic hierarchical model-based diagnosis; Siddiqi &
//! Huang's sequential diagnosis by abstraction): a board-level abstraction
//! isolates a suspect block, then diagnosis descends into that block's
//! extracted sub-model — paying propagation cost only for the handful of
//! variables under suspicion instead of the whole board.
//!
//! ## Extraction contract
//!
//! Let `B` be the block variables and `I` the interface. The extraction is
//! valid when:
//!
//! 1. `B` and `I` are disjoint and `B` is non-empty;
//! 2. every parent of a `B`-variable lies in `B ∪ I` (the interface really
//!    is the block's whole Markov boundary on the parent side);
//! 3. no `I`-variable is a descendant of a `B`-variable (the interface
//!    feeds the block, never the reverse).
//!
//! Under the contract the sub-model's joint is *exactly* the flat model's
//! marginal over `B ∪ I`: interface variables carry a chain factorisation
//! of the flat marginal `P(I)` (computed once by variable elimination),
//! and block variables keep their original CPTs verbatim. Consequently any
//! evidence restricted to `B ∪ I` yields posteriors over `B ∪ I` that are
//! bit-for-bit the flat model's answers — and with *hard evidence on all
//! of `I`*, external evidence elsewhere on the board cannot reach `B`
//! except through `I` (condition 3 rules out observed-collider paths), so
//! the sub-model's block posteriors match the flat model's exactly.

use crate::error::{Error, Result};
use crate::evidence::Evidence;
use crate::infer::VariableElimination;
use crate::network::{Network, NetworkBuilder, VarId};
use std::collections::BTreeSet;

/// The result of [`extract_submodel`]: the standalone network plus the
/// variable correspondence back to the flat model.
#[derive(Debug, Clone)]
pub struct Submodel {
    /// The extracted network over `interface ∪ block` (interface first,
    /// in the given order; block next, in flat declaration order).
    pub network: Network,
    /// For each sub-model variable (by index), the flat-model [`VarId`]
    /// it projects.
    pub flat_ids: Vec<VarId>,
    /// How many leading sub-model variables form the interface chain.
    pub interface_len: usize,
}

impl Submodel {
    /// The sub-model [`VarId`] of a flat-model variable, if retained.
    pub fn project(&self, flat: VarId) -> Option<VarId> {
        self.flat_ids
            .iter()
            .position(|&f| f == flat)
            .map(VarId::from_index)
    }

    /// Whether the sub-model variable at `sub` belongs to the interface.
    pub fn is_interface(&self, sub: VarId) -> bool {
        sub.index() < self.interface_len
    }
}

/// Every descendant of `roots` in `net` (excluding the roots themselves
/// unless reachable again through a child).
fn descendants(net: &Network, roots: &[VarId]) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<VarId> = roots.to_vec();
    while let Some(v) = stack.pop() {
        for &c in net.children(v) {
            if seen.insert(c.index()) {
                stack.push(c);
            }
        }
    }
    seen
}

/// Validates the extraction contract (see the module docs) and returns the
/// block in flat declaration order.
fn validate(net: &Network, block: &[VarId], interface: &[VarId]) -> Result<Vec<VarId>> {
    if block.is_empty() {
        return Err(Error::InvalidCpt {
            variable: "<submodel>".into(),
            reason: "block must retain at least one variable".into(),
        });
    }
    let block_set: BTreeSet<usize> = block.iter().map(|v| v.index()).collect();
    let iface_set: BTreeSet<usize> = interface.iter().map(|v| v.index()).collect();
    if block_set.len() != block.len() || iface_set.len() != interface.len() {
        return Err(Error::DuplicateInScope("<submodel>".into()));
    }
    if let Some(both) = block_set.intersection(&iface_set).next() {
        return Err(Error::DuplicateInScope(
            net.name(VarId::from_index(*both)).to_string(),
        ));
    }
    for &b in block {
        for &p in net.parents(b) {
            if !block_set.contains(&p.index()) && !iface_set.contains(&p.index()) {
                return Err(Error::InvalidCpt {
                    variable: net.name(b).to_string(),
                    reason: format!(
                        "parent `{}` is outside the block and its interface",
                        net.name(p)
                    ),
                });
            }
        }
    }
    let downstream = descendants(net, block);
    for &i in interface {
        if downstream.contains(&i.index()) {
            return Err(Error::InvalidCpt {
                variable: net.name(i).to_string(),
                reason: "interface variable is a descendant of the block".into(),
            });
        }
    }
    let mut ordered: Vec<VarId> = block.to_vec();
    ordered.sort_by_key(|v| v.index());
    Ok(ordered)
}

/// Projects `net` onto `block ∪ interface`, returning a standalone
/// sub-model (see the module docs for the contract and the exactness
/// guarantee). The interface chain keeps the order of `interface`; block
/// variables follow in flat declaration order.
///
/// The flat marginal `P(interface)` is computed once by
/// [`VariableElimination::joint_marginal`]; extraction is therefore a
/// build-time operation, not a per-decision one.
///
/// # Errors
///
/// Returns [`Error::InvalidCpt`] / [`Error::DuplicateInScope`] when the
/// contract is violated, and propagates inference errors from the
/// marginalisation.
pub fn extract_submodel(net: &Network, block: &[VarId], interface: &[VarId]) -> Result<Submodel> {
    let block = validate(net, block, interface)?;
    let mut b = NetworkBuilder::new();
    let mut flat_ids: Vec<VarId> = Vec::with_capacity(interface.len() + block.len());
    let mut sub_of = vec![None::<VarId>; net.var_count()];
    for &flat in interface.iter().chain(block.iter()) {
        let states: Vec<String> = net.states(flat).to_vec();
        let sub = b.variable(net.name(flat).to_string(), states)?;
        sub_of[flat.index()] = Some(sub);
        flat_ids.push(flat);
    }

    // Interface chain: P(i_j | i_1..i_{j-1}) from the flat joint P(I).
    if !interface.is_empty() {
        let joint = VariableElimination::new(net)
            .joint_marginal(&Evidence::new(), interface)?
            .reorder(interface)?;
        for (j, &flat) in interface.iter().enumerate() {
            let prefix = &interface[..=j];
            let num = joint.marginalize_to(prefix)?.reorder(prefix)?;
            let card = net.card(flat);
            let rows = num.len() / card;
            let mut table = Vec::with_capacity(num.len());
            for row in 0..rows {
                let slice = &num.values()[row * card..(row + 1) * card];
                let denom: f64 = slice.iter().sum();
                if denom > 0.0 {
                    table.extend(slice.iter().map(|v| v / denom));
                } else {
                    // Impossible interface prefix: any conditional works;
                    // uniform keeps the CPT well-formed.
                    table.extend(std::iter::repeat_n(1.0 / card as f64, card));
                }
            }
            let parents: Vec<VarId> = interface[..j]
                .iter()
                .map(|p| sub_of[p.index()].expect("interface declared above"))
                .collect();
            b.cpt_flat(sub_of[flat.index()].expect("declared"), parents, table)?;
        }
    }

    // Block variables keep their flat CPTs verbatim (parents remapped).
    for &flat in &block {
        let parents: Vec<VarId> = net
            .parents(flat)
            .iter()
            .map(|p| sub_of[p.index()].expect("contract: parent retained"))
            .collect();
        b.cpt_flat(
            sub_of[flat.index()].expect("declared"),
            parents,
            net.cpt(flat).to_vec(),
        )?;
    }

    Ok(Submodel {
        network: b.build()?,
        flat_ids,
        interface_len: interface.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::JunctionTree;

    /// vin → bias → out, plus a sibling branch vin → other that the
    /// sub-model must summarise away.
    fn chain_net() -> (Network, VarId, VarId, VarId, VarId) {
        let mut b = NetworkBuilder::new();
        let vin = b.variable("vin", ["low", "nom"]).unwrap();
        let bias = b.variable("bias", ["dead", "ok"]).unwrap();
        let out = b.variable("out", ["fail", "pass"]).unwrap();
        let other = b.variable("other", ["fail", "pass"]).unwrap();
        b.prior(vin, [0.3, 0.7]).unwrap();
        b.cpt(bias, [vin], [[0.4, 0.6], [0.05, 0.95]]).unwrap();
        b.cpt(out, [bias], [[0.9, 0.1], [0.1, 0.9]]).unwrap();
        b.cpt(other, [vin], [[0.8, 0.2], [0.15, 0.85]]).unwrap();
        let net = b.build().unwrap();
        (net, vin, bias, out, other)
    }

    #[test]
    fn submodel_matches_flat_marginals() {
        let (net, vin, bias, out, _) = chain_net();
        let sub = extract_submodel(&net, &[bias, out], &[vin]).unwrap();
        assert_eq!(sub.network.var_count(), 3);
        assert_eq!(sub.interface_len, 1);
        // With evidence inside B ∪ I, posteriors must match the flat net.
        let s_vin = sub.project(vin).unwrap();
        let s_bias = sub.project(bias).unwrap();
        let s_out = sub.project(out).unwrap();
        assert!(sub.is_interface(s_vin));
        assert!(!sub.is_interface(s_bias));
        let mut flat_ev = Evidence::new();
        flat_ev.observe(vin, 0);
        flat_ev.observe(out, 0);
        let mut sub_ev = Evidence::new();
        sub_ev.observe(s_vin, 0);
        sub_ev.observe(s_out, 0);
        let flat_jt = JunctionTree::compile(&net).unwrap();
        let mut flat_ws = flat_jt.make_workspace();
        let flat_post = flat_jt
            .propagate_in(&mut flat_ws, &flat_ev)
            .unwrap()
            .posterior(bias)
            .unwrap();
        let sub_jt = JunctionTree::compile(&sub.network).unwrap();
        let mut sub_ws = sub_jt.make_workspace();
        let sub_post = sub_jt
            .propagate_in(&mut sub_ws, &sub_ev)
            .unwrap()
            .posterior(s_bias)
            .unwrap();
        for (a, b) in flat_post.iter().zip(&sub_post) {
            assert!((a - b).abs() < 1e-12, "flat {a} vs sub {b}");
        }
    }

    #[test]
    fn interface_chain_reproduces_flat_joint() {
        let (net, vin, bias, out, other) = chain_net();
        // Two-variable interface exercises the chain factorisation.
        let sub = extract_submodel(&net, &[bias, out], &[vin, other]).unwrap();
        let flat = VariableElimination::new(&net)
            .joint_marginal(&Evidence::new(), &[vin, other])
            .unwrap()
            .reorder(&[vin, other])
            .unwrap();
        let s_vin = sub.project(vin).unwrap();
        let s_other = sub.project(other).unwrap();
        let got = VariableElimination::new(&sub.network)
            .joint_marginal(&Evidence::new(), &[s_vin, s_other])
            .unwrap()
            .reorder(&[s_vin, s_other])
            .unwrap();
        for (a, b) in flat.values().iter().zip(got.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn contract_violations_are_rejected() {
        let (net, vin, bias, out, other) = chain_net();
        // Missing parent: `out` kept without `bias` or an interface entry.
        assert!(extract_submodel(&net, &[out], &[vin]).is_err());
        // Interface var descends from the block.
        assert!(extract_submodel(&net, &[vin, bias], &[other, out]).is_err());
        // Overlap between block and interface.
        assert!(extract_submodel(&net, &[bias, out], &[vin, bias]).is_err());
        // Empty block.
        assert!(extract_submodel(&net, &[], &[vin]).is_err());
    }
}
