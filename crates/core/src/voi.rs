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
//! where each hypothetical term conditions the junction tree on one
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
//! The session already holds a junction tree calibrated on the round's
//! evidence `e` (its diagnosis left it there). Each hypothetical
//! `m = s` is scored by [`JunctionTree::absorb_in`] from that tree: copy
//! the cliques on `m`'s plan, retain `s` in `m`'s home clique and pass
//! one Hugin update per plan edge. No collect, no distribute over the
//! whole tree, no normalisation (posterior reads normalise). A plan is
//! the subtree joining `m`'s home clique to the home cliques of the
//! scored latents, because the score reads nothing else; the plans are
//! computed once per model by [`VoiPlans::new`] at
//! [`CompiledModel::compile`] and stored flat.
//!
//! Scoring therefore never compiles a tree and never allocates: the
//! session supplies the calibrated base and one reusable
//! [`PropagationWorkspace`] for the absorbed copies, and entropies come
//! from [`abbd_bbn::AbsorbedView::posterior_entropy`]. The lookahead
//! planner still conditions on stacks of hypotheticals through
//! [`JunctionTree::propagate_hypotheticals_in`].

use crate::error::{Error, Result};
use crate::session::CompiledModel;
use abbd_bbn::{JunctionTree, PropagationWorkspace, VarId};

/// Probability floor below which a hypothetical state is skipped: states
/// the current posterior rules out contribute nothing to the expectation
/// and may be impossible under the model (propagation would error).
pub(crate) const PROB_FLOOR: f64 = 1e-12;

/// Every variable's outward absorption plan towards the latent blocks
/// ([`JunctionTree::outward_plan`]), stored as one flat run of
/// `[from, to, edge]` steps plus per-variable offsets.
#[derive(Debug, Clone)]
pub(crate) struct VoiPlans {
    steps: Vec<[u32; 3]>,
    /// `offsets[v]..offsets[v + 1]` is variable `v`'s plan.
    offsets: Vec<usize>,
}

impl VoiPlans {
    /// One plan per network variable, each targeting `latents`.
    pub(crate) fn new(jt: &JunctionTree, latents: &[VarId]) -> Result<Self> {
        let mut steps = Vec::new();
        let mut offsets = vec![0];
        for var in jt.network().variables() {
            steps.extend(jt.outward_plan(var, latents).map_err(Error::Bbn)?);
            offsets.push(steps.len());
        }
        Ok(VoiPlans { steps, offsets })
    }

    /// The plan for a hypothetical finding on `var`.
    pub(crate) fn plan(&self, var: VarId) -> &[[u32; 3]] {
        &self.steps[self.offsets[var.index()]..self.offsets[var.index() + 1]]
    }
}

/// Reusable scoring buffers: one propagation workspace for hypothetical
/// queries plus a distribution buffer sized for the widest variable.
/// Create once per decision loop (or thread); every scoring pass through
/// it is allocation-free.
#[derive(Debug, Clone)]
pub(crate) struct VoiScratch {
    /// Workspace for absorbed hypotheticals (and deduction's queries).
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
/// when `hypothesis` is measured, with each outcome absorbed from `base`
/// (calibrated on `e`) along the hypothesis's plan into `hyp_ws`.
///
/// `hyp_dist` is the current posterior `P(hypothesis | e)` (read from
/// `base`) and `baseline_entropy` the current restricted entropy sum,
/// with `hypothesis` itself already excluded. Clamped at zero: the
/// marginal-entropy approximation can go fractionally negative through
/// rounding, and a measurement is never *worse* than not measuring.
pub(crate) fn expected_gain(
    compiled: &CompiledModel,
    base: &PropagationWorkspace,
    hyp_ws: &mut PropagationWorkspace,
    hypothesis: VarId,
    hyp_dist: &[f64],
    score_vars: &[VarId],
    baseline_entropy: f64,
) -> Result<f64> {
    let plan = compiled.voi_plan(hypothesis);
    let mut expected_after = 0.0;
    for (state, &p_state) in hyp_dist.iter().enumerate() {
        if p_state <= PROB_FLOOR {
            continue;
        }
        let view = compiled
            .jt()
            .absorb_in(base, hyp_ws, plan, (hypothesis, state))
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
    use crate::diagnosis::Observation;
    use crate::model::CircuitModel;
    use crate::session::{Action, DiagnosisSession, SessionRequest, StoppingPolicy};
    use abbd_bbn::Evidence;
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

    /// Latents `h` and `g`; `a` and `b` both copy `h` exactly, so
    /// observing them in different states is impossible evidence; `c`
    /// reads `g`.
    fn deterministic() -> Arc<CompiledModel> {
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
            var("g", FunctionalType::Latent),
            var("a", FunctionalType::Observe),
            var("b", FunctionalType::Observe),
            var("c", FunctionalType::Observe),
        ])
        .unwrap();
        let mut m = CircuitModel::new(spec);
        for (from, to) in [("h", "a"), ("h", "b"), ("h", "c"), ("g", "c")] {
            m.depends(from, to).unwrap();
        }
        let mut e = ExpertKnowledge::new(10.0);
        e.cpt("h", [[0.3, 0.7]]);
        e.cpt("g", [[0.2, 0.8]]);
        e.cpt("a", [[1.0, 0.0], [0.0, 1.0]]);
        e.cpt("b", [[1.0, 0.0], [0.0, 1.0]]);
        e.cpt("c", [[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.05, 0.95]]);
        let dm = ModelBuilder::new(m)
            .with_expert(e)
            .build_expert_only()
            .unwrap();
        CompiledModel::compile(dm).unwrap().shared()
    }

    /// A session's scratch workspace serves deduction's queries and every
    /// absorption; a round that fails after its diagnosis began must not
    /// leave anything the next ranking reads. Gains must equal a fresh
    /// session's to the bit.
    #[test]
    fn a_round_failing_in_its_report_leaves_no_trace_in_the_ranking() {
        let compiled = deterministic();
        let gains = |s: &mut DiagnosisSession| {
            let mut out: Vec<(String, u64)> = s
                .rank_actions()
                .unwrap()
                .iter()
                .map(|c| {
                    (
                        c.name().to_string(),
                        c.expected_information_gain().to_bits(),
                    )
                })
                .collect();
            out.sort();
            out
        };
        let fresh = |s: &DiagnosisSession| {
            let mut f =
                DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
            f.observe_all(s.observation()).unwrap();
            let actions: Vec<Action> = s.actions().iter().map(|c| c.action().clone()).collect();
            f.set_actions(actions).unwrap();
            gains(&mut f)
        };
        let mut s =
            DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default()).unwrap();
        let mut first = Observation::new();
        first.set("a", 0);
        s.serve_round(&SessionRequest::new(first)).unwrap();
        let before = gains(&mut s);
        assert_eq!(before, fresh(&s));

        // `b = 1` contradicts `a = 0` only once propagated: the absorb
        // succeeds and the report's diagnosis fails.
        let mut contradiction = Observation::new();
        contradiction.set("b", 1);
        let err = s
            .serve_round(&SessionRequest::new(contradiction).into_delta())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Bbn(abbd_bbn::Error::ImpossibleEvidence)
        ));
        assert_eq!(gains(&mut s), before, "the rollback restores the ranking");
        assert_eq!(gains(&mut s), fresh(&s));

        // A different menu (probes included) through the same scratch.
        s.set_actions([Action::probe("g"), Action::probe("h"), Action::test("c")])
            .unwrap();
        s.diagnose().unwrap();
        assert_eq!(gains(&mut s), fresh(&s));
        s.set_actions([Action::test("b")]).unwrap();
        assert_eq!(gains(&mut s), fresh(&s));
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
            &compiled,
            &base_ws,
            &mut scratch.ws,
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
