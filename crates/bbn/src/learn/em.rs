//! Expectation–maximisation for CPT learning with hidden variables.
//!
//! The paper's cases observe only controllable and observable blocks; the
//! internal block states are never seen, so maximum-likelihood counting is
//! not available. EM alternates junction-tree inference (expected family
//! counts) with posterior-mean re-estimation, starting from the product
//! expert's CPTs.

use crate::error::{Error, Result};
use crate::infer::JunctionTree;
use crate::learn::counts::{Case, DirichletPrior, SuffStats};
use crate::network::Network;

/// Knobs for [`fit_em`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Relative tolerance on the MAP objective for convergence.
    pub tolerance: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iterations: 100,
            tolerance: 1e-5,
        }
    }
}

/// The result of an EM run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmOutcome {
    /// Network with the fitted CPTs (structure unchanged).
    pub network: Network,
    /// Observed-data log-likelihood after each iteration.
    pub log_likelihood_trace: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// `true` when the objective change fell below tolerance.
    pub converged: bool,
    /// Cases skipped because they had zero probability under the model.
    pub skipped_cases: usize,
}

/// One E-step: expected sufficient statistics and the observed-data
/// log-likelihood of `cases` under the network held by `jt`.
///
/// Cases that are impossible under the current parameters are skipped and
/// counted, mirroring how an industrial flow must tolerate datalog rows
/// that disagree with a coarse model.
///
/// # Errors
///
/// Propagates propagation and shape errors other than
/// [`Error::ImpossibleEvidence`], which is converted into a skip.
pub fn expected_statistics(jt: &JunctionTree, cases: &[Case]) -> Result<(SuffStats, f64, usize)> {
    let net = jt.network();
    let mut stats = SuffStats::new(net);
    let mut log_likelihood = 0.0;
    let mut skipped = 0usize;
    // One workspace reused across every case: the per-case cost is pure
    // table arithmetic over the compiled schedule, no allocation.
    let mut ws = jt.make_workspace();
    for case in cases {
        let evidence = case.to_evidence();
        let calibrated = match jt.propagate_in(&mut ws, &evidence) {
            Ok(c) => c,
            Err(Error::ImpossibleEvidence) => {
                skipped += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        log_likelihood += case.weight() * calibrated.log_likelihood();
        for var in net.variables() {
            let fam = calibrated.family_marginal(var)?;
            stats.add_family_marginal(var, &fam, case.weight())?;
        }
    }
    Ok((stats, log_likelihood, skipped))
}

/// Fits CPTs by MAP expectation–maximisation.
///
/// `net` provides both the structure and the starting point (typically the
/// expert estimate); `prior` regularises every M-step. The observed-data
/// log-likelihood plus the log-prior is non-decreasing across iterations up
/// to numerical noise — the property tests rely on this.
///
/// # Errors
///
/// Returns [`Error::NoCases`] for an empty case list and
/// [`Error::UnusableCases`] when a case carries a non-finite or negative
/// weight or when every case is impossible under the starting model (a fit
/// from such a datalog would silently return the prior, or worse, NaN
/// rows), plus shape errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), abbd_bbn::Error> {
/// use abbd_bbn::learn::{fit_em, Case, DirichletPrior, EmConfig};
/// use abbd_bbn::NetworkBuilder;
///
/// let mut b = NetworkBuilder::new();
/// let hidden = b.variable("hidden", ["ok", "bad"])?;
/// let seen = b.variable("seen", ["pass", "fail"])?;
/// b.prior(hidden, [0.7, 0.3])?;
/// b.cpt(seen, [hidden], [[0.9, 0.1], [0.2, 0.8]])?;
/// let net = b.build()?;
///
/// // Observe only `seen`; EM re-estimates all CPTs.
/// let cases: Vec<Case> = (0..10)
///     .map(|i| Case::from_pairs([(seen, (i % 3 == 0) as usize)]))
///     .collect();
/// let out = fit_em(&net, &cases, &DirichletPrior::uniform(&net, 0.5), &EmConfig::default())?;
/// assert!(out.iterations >= 1);
/// # Ok(())
/// # }
/// ```
pub fn fit_em(
    net: &Network,
    cases: &[Case],
    prior: &DirichletPrior,
    config: &EmConfig,
) -> Result<EmOutcome> {
    if cases.is_empty() {
        return Err(Error::NoCases);
    }
    for (i, case) in cases.iter().enumerate() {
        let w = case.weight();
        if !w.is_finite() || w < 0.0 {
            return Err(Error::UnusableCases {
                reason: format!("case {i} has weight {w}; weights must be finite and >= 0"),
            });
        }
    }
    prior.validate(net)?;
    let mut current = net.clone();
    let mut jt = JunctionTree::compile(&current)?;
    let mut trace = Vec::new();
    let mut prev_objective = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0usize;
    let mut skipped_total = 0usize;

    for _ in 0..config.max_iterations {
        iterations += 1;
        let (stats, log_likelihood, skipped) = expected_statistics(&jt, cases)?;
        if skipped == cases.len() {
            // Without this check the M-step would quietly return the prior
            // (or NaN rows under a zero prior) as if it were a fit.
            return Err(Error::UnusableCases {
                reason: format!(
                    "all {} cases are impossible under the starting model",
                    cases.len()
                ),
            });
        }
        skipped_total = skipped;
        trace.push(log_likelihood);

        // M-step: posterior-mean update.
        let new_cpts = stats.to_cpts(prior);
        for (i, cpt) in new_cpts.into_iter().enumerate() {
            current.set_cpt_values(crate::network::VarId::from_index(i), cpt)?;
        }
        jt.update_parameters(&current)?;

        let objective = log_likelihood + prior.log_density(&current);
        if (objective - prev_objective).abs() <= config.tolerance * (1.0 + objective.abs()) {
            converged = true;
            break;
        }
        prev_objective = objective;
    }

    Ok(EmOutcome {
        network: current,
        log_likelihood_trace: trace,
        iterations,
        converged,
        skipped_cases: skipped_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{forward_sample_cases, JunctionTree};
    use crate::network::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hidden_chain() -> Network {
        // hidden -> obs1, hidden -> obs2
        let mut b = NetworkBuilder::new();
        let hidden = b.variable("hidden", ["0", "1"]).unwrap();
        let obs1 = b.variable("obs1", ["0", "1"]).unwrap();
        let obs2 = b.variable("obs2", ["0", "1"]).unwrap();
        b.prior(hidden, [0.6, 0.4]).unwrap();
        b.cpt(obs1, [hidden], [[0.9, 0.1], [0.2, 0.8]]).unwrap();
        b.cpt(obs2, [hidden], [[0.8, 0.2], [0.3, 0.7]]).unwrap();
        b.build().unwrap()
    }

    /// Mildly perturbed starting parameters.
    fn perturbed(net: &Network) -> Network {
        let mut start = net.clone();
        for v in net.variables() {
            let card = net.card(v);
            let cpt: Vec<f64> = net
                .cpt(v)
                .chunks(card)
                .flat_map(|row| {
                    let mixed: Vec<f64> = row.iter().map(|p| 0.5 * p + 0.5 / card as f64).collect();
                    mixed
                })
                .collect();
            start.set_cpt_values(v, cpt).unwrap();
        }
        start
    }

    #[test]
    fn em_increases_likelihood_monotonically() {
        let truth = hidden_chain();
        let mut rng = StdRng::seed_from_u64(21);
        let samples = forward_sample_cases(&truth, 400, &mut rng);
        let hidden = truth.var("hidden").unwrap();
        // Hide the `hidden` column.
        let cases: Vec<Case> = samples
            .iter()
            .map(|s| {
                Case::from_pairs(
                    truth
                        .variables()
                        .filter(|v| *v != hidden)
                        .map(|v| (v, s[v.index()])),
                )
            })
            .collect();
        let start = perturbed(&truth);
        let out = fit_em(
            &start,
            &cases,
            &DirichletPrior::zero(&start),
            &EmConfig {
                max_iterations: 40,
                tolerance: 1e-9,
            },
        )
        .unwrap();
        for pair in out.log_likelihood_trace.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-7,
                "ML-EM log-likelihood decreased: {} -> {}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(out.skipped_cases, 0);
    }

    #[test]
    fn em_with_complete_data_matches_counting() {
        let truth = hidden_chain();
        let mut rng = StdRng::seed_from_u64(33);
        let samples = forward_sample_cases(&truth, 300, &mut rng);
        let cases: Vec<Case> = samples.iter().map(|s| Case::from_complete(s)).collect();
        let prior = DirichletPrior::uniform(&truth, 1.0);
        let em = fit_em(
            &truth,
            &cases,
            &prior,
            &EmConfig {
                max_iterations: 3,
                tolerance: 1e-12,
            },
        )
        .unwrap();
        let counted = crate::learn::fit_complete(&truth, &samples, &prior).unwrap();
        for v in truth.variables() {
            for (a, b) in em.network.cpt(v).iter().zip(counted.cpt(v)) {
                assert!((a - b).abs() < 1e-9, "var {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn em_recovers_observable_margins() {
        // Even if hidden-state semantics are unidentifiable, the fitted
        // model must reproduce the observable joint distribution.
        let truth = hidden_chain();
        let mut rng = StdRng::seed_from_u64(55);
        let samples = forward_sample_cases(&truth, 4000, &mut rng);
        let obs1 = truth.var("obs1").unwrap();
        let obs2 = truth.var("obs2").unwrap();
        let cases: Vec<Case> = samples
            .iter()
            .map(|s| Case::from_pairs([(obs1, s[obs1.index()]), (obs2, s[obs2.index()])]))
            .collect();
        let start = perturbed(&truth);
        let out = fit_em(
            &start,
            &cases,
            &DirichletPrior::uniform(&start, 0.1),
            &EmConfig {
                max_iterations: 200,
                tolerance: 1e-10,
            },
        )
        .unwrap();
        // Compare fitted P(obs1, obs2) with the empirical joint.
        let ve = crate::VariableElimination::new(&out.network);
        let joint = ve
            .joint_marginal(&crate::Evidence::new(), &[obs1, obs2])
            .unwrap();
        // The compiled tree reads the same observable margin.
        let jt = JunctionTree::compile(&out.network).unwrap();
        let mut ws = jt.make_workspace();
        let view = jt.propagate_in(&mut ws, &crate::Evidence::new()).unwrap();
        let p_obs1 = view.posterior(obs1).unwrap();
        for (i, p) in p_obs1.iter().enumerate() {
            let from_joint = joint.values()[2 * i] + joint.values()[2 * i + 1];
            assert!(
                (p - from_joint).abs() < 1e-12,
                "P(obs1={i}): {p} vs {from_joint}"
            );
        }
        let mut empirical = [[0.0f64; 2]; 2];
        for s in &samples {
            empirical[s[obs1.index()]][s[obs2.index()]] += 1.0 / samples.len() as f64;
        }
        for (i, row) in empirical.iter().enumerate() {
            for (j, expect) in row.iter().enumerate() {
                // Both binary, scope `[obs1, obs2]` with obs2 fastest.
                let fitted = joint.values()[2 * i + j];
                assert!(
                    (fitted - expect).abs() < 0.02,
                    "P(obs1={i}, obs2={j}): fitted {fitted} vs empirical {expect}"
                );
            }
        }
    }

    #[test]
    fn em_rejects_empty_cases() {
        let net = hidden_chain();
        assert!(matches!(
            fit_em(&net, &[], &DirichletPrior::zero(&net), &EmConfig::default()),
            Err(Error::NoCases)
        ));
    }

    #[test]
    fn em_skips_impossible_cases() {
        // Deterministic CPT makes obs1=1 impossible when hidden=0 is forced
        // by another deterministic observation path.
        let mut b = NetworkBuilder::new();
        let h = b.variable("h", ["0", "1"]).unwrap();
        let o = b.variable("o", ["0", "1"]).unwrap();
        b.prior(h, [1.0, 0.0]).unwrap();
        b.cpt(o, [h], [[1.0, 0.0], [0.0, 1.0]]).unwrap();
        let net = b.build().unwrap();
        let cases = vec![
            Case::from_pairs([(o, 0)]),
            Case::from_pairs([(o, 1)]), // impossible: P(o=1) = 0
        ];
        let out = fit_em(
            &net,
            &cases,
            &DirichletPrior::zero(&net),
            &EmConfig {
                max_iterations: 2,
                tolerance: 1e-9,
            },
        )
        .unwrap();
        assert_eq!(out.skipped_cases, 1);
    }

    #[test]
    fn em_rejects_nonfinite_and_negative_weights() {
        let net = hidden_chain();
        let o1 = net.var("obs1").unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut case = Case::from_pairs([(o1, 0)]);
            case.set_weight(bad);
            let cases = vec![case];
            let err = fit_em(
                &net,
                &cases,
                &DirichletPrior::zero(&net),
                &EmConfig::default(),
            )
            .unwrap_err();
            assert!(
                matches!(err, Error::UnusableCases { .. }),
                "weight {bad}: expected UnusableCases, got {err:?}"
            );
        }
    }

    #[test]
    fn em_rejects_all_impossible_datalog() {
        // Same deterministic net as `em_skips_impossible_cases`, but every
        // case contradicts the model; the fit must fail structurally
        // instead of returning the prior as if it were learned.
        let mut b = NetworkBuilder::new();
        let h = b.variable("h", ["0", "1"]).unwrap();
        let o = b.variable("o", ["0", "1"]).unwrap();
        b.prior(h, [1.0, 0.0]).unwrap();
        b.cpt(o, [h], [[1.0, 0.0], [0.0, 1.0]]).unwrap();
        let net = b.build().unwrap();
        let cases = vec![Case::from_pairs([(o, 1)]), Case::from_pairs([(o, 1)])];
        let err = fit_em(
            &net,
            &cases,
            &DirichletPrior::zero(&net),
            &EmConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::UnusableCases { .. }), "got {err:?}");
    }

    #[test]
    fn em_single_outcome_datalog_yields_finite_rows() {
        // A datalog where every row reports the same single outcome must
        // still produce normalised, finite CPTs (prior fallback on unseen
        // rows), never NaN.
        let net = hidden_chain();
        let o1 = net.var("obs1").unwrap();
        let o2 = net.var("obs2").unwrap();
        let cases: Vec<Case> = (0..20)
            .map(|_| Case::from_pairs([(o1, 0), (o2, 0)]))
            .collect();
        let out = fit_em(
            &net,
            &cases,
            &DirichletPrior::uniform(&net, 0.5),
            &EmConfig {
                max_iterations: 10,
                tolerance: 1e-8,
            },
        )
        .unwrap();
        for v in out.network.variables() {
            let card = out.network.card(v);
            for row in out.network.cpt(v).chunks(card) {
                let total: f64 = row.iter().sum();
                assert!(
                    row.iter().all(|p| p.is_finite() && *p >= 0.0),
                    "var {v}: non-finite CPT row {row:?}"
                );
                assert!((total - 1.0).abs() < 1e-9, "var {v}: row sums to {total}");
            }
        }
    }
}
