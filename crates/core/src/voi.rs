//! The value-of-information kernel behind
//! [`crate::DiagnosisSession::rank_actions`], which scores specification
//! tests and physical probes in one candidate set.
//!
//! # The quantity
//!
//! Diagnostic uncertainty is scored as the summed posterior entropy of the
//! latent blocks, `U(e) = Σ_v H(v | e)` (Zheng & Rish's entropy
//! approximation: marginal entropies instead of the joint, which keeps the
//! score computable from single-variable posteriors). Measuring a
//! candidate variable `m` is worth its **expected entropy reduction**
//!
//! ```text
//! gain(m) = U(e) − Σ_s P(m = s | e) · U(e, m = s)
//! ```
//!
//! where the hypothetical terms re-propagate the junction tree with one
//! extra finding. When `m` is itself one of the scored latents (a physical
//! probe), its own entropy is excluded from both sides — observing a block
//! trivially zeroes its own entropy, and counting that would make every
//! uncertain block look informative regardless of what it reveals about
//! the *others*.
//!
//! # The cost model
//!
//! Raw gain is only half of a test-selection decision: measurements have
//! wildly different prices. [`crate::CostModel`] turns the gain into
//! *gain per tester-second* — a default per-test cost with per-variable
//! overrides, a per-probe FIB/SEM cost for latent candidates, and a
//! suite-switch penalty charged whenever the candidate's stimulus suite
//! differs from the currently applied one (the quantity
//! `DeviceSession::stimulus_switches` counts on the bench).
//! [`crate::DiagnosisSession`] applies it under
//! [`crate::Strategy::CostWeighted`], and
//! [`crate::Strategy::Lookahead`] feeds the same normalisation with the
//! bounded-depth expectimax value of [`crate::LookaheadPlanner`] instead
//! of the one-step gain.
//!
//! Because the cost lands in the *denominator*, gains are clamped at
//! zero **before** any cost normalisation: the marginal-entropy
//! approximation can go fractionally negative through rounding
//! (≈ −1e-16 on a useless candidate), and a negative numerator would
//! flip sign when divided by a cost — making the most *expensive*
//! useless candidate outrank genuinely neutral ones. The clamp lives in
//! [`expected_gain`] (and its lookahead counterpart in
//! [`crate::planner`]) so no caller can forget it.
//!
//! # Steady-state mechanics
//!
//! One gain evaluation issues up to `card(m)` hypothetical propagations;
//! ranking dozens of candidates per decision multiplies that out to the
//! workload PR 1's compiled-schedule machinery was built for. The kernel
//! therefore never compiles a tree and never allocates per query: the
//! caller supplies a reusable [`PropagationWorkspace`], hypotheses ride
//! through [`JunctionTree::propagate_hypothetical_in`] (no evidence
//! mutation), and entropies come from the restricted
//! [`abbd_bbn::CalibratedView::posterior_entropy`] helper.

use crate::error::{Error, Result};
use crate::session::CompiledModel;
use abbd_bbn::{Evidence, JunctionTree, PropagationWorkspace, VarId};

/// Probability floor below which a hypothetical state is skipped: states
/// the current posterior rules out contribute nothing to the expectation
/// and may be impossible under the model (propagation would error).
pub(crate) const PROB_FLOOR: f64 = 1e-12;

/// Reusable scoring buffers: one propagation workspace for hypothetical
/// queries plus a distribution buffer sized for the widest variable.
/// Create once per decision loop (or thread); every scoring pass through
/// it is allocation-free.
#[derive(Debug, Clone)]
pub(crate) struct VoiScratch {
    /// Workspace for hypothetical propagations.
    pub(crate) ws: PropagationWorkspace,
    /// Scratch distribution, sized for the widest model variable.
    pub(crate) dist: Vec<f64>,
}

impl VoiScratch {
    pub(crate) fn new(compiled: &CompiledModel) -> Self {
        let net = compiled.model().network();
        let max_card = net.variables().map(|v| net.card(v)).max().unwrap_or(1);
        VoiScratch {
            ws: compiled.make_workspace(),
            dist: vec![0.0; max_card],
        }
    }
}

/// Expected reduction of `Σ_{v ∈ score_vars, v ≠ hypothesis} H(v | e)`
/// when `hypothesis` is measured.
///
/// `hyp_dist` is the current posterior `P(hypothesis | e)` (read from a
/// base propagation the caller already performed) and `baseline_entropy`
/// the current restricted entropy sum, with `hypothesis` itself already
/// excluded. Clamped at zero: the marginal-entropy approximation can go
/// fractionally negative through rounding, and a measurement is never
/// *worse* than not measuring.
pub(crate) fn expected_gain(
    jt: &JunctionTree,
    hyp_ws: &mut PropagationWorkspace,
    evidence: &Evidence,
    hypothesis: VarId,
    hyp_dist: &[f64],
    score_vars: &[VarId],
    baseline_entropy: f64,
) -> Result<f64> {
    let mut expected_after = 0.0;
    for (state, &p_state) in hyp_dist.iter().enumerate() {
        if p_state <= PROB_FLOOR {
            continue;
        }
        let view = jt
            .propagate_hypothetical_in(hyp_ws, evidence, hypothesis, state)
            .map_err(Error::Bbn)?;
        let mut h = 0.0;
        for &v in score_vars {
            if v != hypothesis {
                h += view.posterior_entropy(v).map_err(Error::Bbn)?;
            }
        }
        expected_after += p_state * h;
    }
    Ok((baseline_entropy - expected_after).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExpertKnowledge, ModelBuilder};
    use crate::model::CircuitModel;
    use crate::session::{Action, DiagnosisSession, StoppingPolicy};
    use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
    use std::sync::Arc;

    /// One latent `h` read by an informative (`tight`) and a nearly
    /// useless (`loose`) observable.
    fn compiled() -> Arc<CompiledModel> {
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
            var("h", FunctionalType::Latent),
            var("tight", FunctionalType::Observe),
            var("loose", FunctionalType::Observe),
        ])
        .unwrap();
        let mut m = CircuitModel::new(spec);
        m.depends("h", "tight").unwrap();
        m.depends("h", "loose").unwrap();
        let mut e = ExpertKnowledge::new(10.0);
        e.cpt("h", [[0.3, 0.7]]);
        // `tight` mirrors the latent almost perfectly; `loose` barely.
        e.cpt("tight", [[0.99, 0.01], [0.01, 0.99]]);
        e.cpt("loose", [[0.55, 0.45], [0.45, 0.55]]);
        let dm = ModelBuilder::new(m)
            .with_expert(e)
            .build_expert_only()
            .unwrap();
        CompiledModel::compile(dm).unwrap().shared()
    }

    #[test]
    fn informative_observables_score_higher() {
        let mut session = DiagnosisSession::new(compiled(), StoppingPolicy::default()).unwrap();
        let ranked = session.rank_actions().unwrap();
        let gain = |name: &str| {
            ranked
                .iter()
                .find(|c| c.name() == name)
                .unwrap()
                .expected_information_gain()
        };
        let (tight, loose) = (gain("tight"), gain("loose"));
        assert!(
            tight > loose * 5.0,
            "tight={tight} must dominate loose={loose}"
        );
        assert!(loose >= 0.0);
    }

    #[test]
    fn probing_the_latent_itself_scores_zero_with_no_other_latents() {
        let mut session = DiagnosisSession::new(compiled(), StoppingPolicy::default()).unwrap();
        // `h` is the only latent; with it excluded from its own scoring
        // there is nothing left to gain information about.
        session.set_actions([Action::probe("h")]).unwrap();
        let ranked = session.rank_actions().unwrap();
        assert_eq!(ranked[0].expected_information_gain(), 0.0);
    }

    /// The clamp-before-cost-normalising regression: when rounding noise
    /// pushes the expected gain a hair negative, the kernel must return
    /// exactly zero, so dividing by any cost keeps a useless candidate at
    /// score 0 instead of flipping it negative (where an *expensive*
    /// useless candidate would paradoxically outrank a cheap one).
    #[test]
    fn fractionally_negative_gains_clamp_to_zero_before_cost_normalising() {
        let compiled = compiled();
        let evidence = Evidence::new();
        // Probing the only latent itself: its entropy is excluded from
        // both sides, so the true gain is exactly zero and the expected
        // post-measurement entropy is 0. A baseline perturbed 1e-16 low
        // (the rounding noise this guards against) makes the raw
        // difference negative.
        let var = compiled.model().var("h").unwrap();
        let latents = vec![var];
        let mut scratch = VoiScratch::new(&compiled);
        let mut base_ws = compiled.make_workspace();
        let view = compiled.jt().propagate_in(&mut base_ws, &evidence).unwrap();
        view.posterior_into(var, &mut scratch.dist[..2]).unwrap();
        let dist = scratch.dist[..2].to_vec();
        let noisy_baseline = -1e-16;
        let gain = expected_gain(
            compiled.jt(),
            &mut scratch.ws,
            &evidence,
            var,
            &dist,
            &latents,
            noisy_baseline,
        )
        .unwrap();
        // The clamp must land exactly on zero — which stays zero (not
        // negative) under any cost division. Without it the raw −1e-16
        // would divide into a negative score that *grows* with cost.
        assert_eq!(gain, 0.0);
        assert_eq!(gain / 3.5, 0.0);
        assert!(noisy_baseline / 3.5 < 0.0, "unclamped noise flips sign");
    }
}
