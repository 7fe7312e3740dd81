//! Cross-crate integration tests: the full paper pipeline from behavioural
//! simulation through ATE datalogs, case generation, learning and
//! diagnosis.

use abbd::ate::{parse_datalog, write_datalog};
use abbd::baselines::{accuracy_at_k, group_by_device, FaultDictionary, RandomGuess};
use abbd::bbn::{Evidence, JunctionTree, PropagationWorkspace, VarId, VariableElimination};
use abbd::core::{CompiledModel, DeductionPolicy, LearnAlgorithm, ModelBuilder, Observation};
use abbd::designs::{board, hypothetical, regulator};
use abbd::dlog2bbn::generate_cases;
use abbd::scenarios::sample_model_population;

/// The headline reproduction: after the full §IV flow (70 simulated
/// customer returns), the diagnostic engine reproduces the paper's
/// candidate sets for all five Table VI case studies.
#[test]
fn regulator_reproduces_all_five_paper_case_studies() {
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    for case in regulator::cases::case_studies() {
        let diagnosis = fitted
            .engine
            .diagnose(&case.observation())
            .expect("diagnosis");
        let mut got: Vec<&str> = diagnosis
            .candidates()
            .iter()
            .map(|c| c.variable.as_str())
            .collect();
        got.sort_unstable();
        let mut want = case.expected_candidates.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "case {}", case.id);
    }
}

/// The learned model's qualitative posteriors track the paper: in d1 the
/// high-current bandgap stays ambiguous while the supply monitor is
/// implicated; in d3 the intermediate supply exonerates the bandgap.
#[test]
fn regulator_posteriors_track_paper_shape() {
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let studies = regulator::cases::case_studies();
    let d1 = fitted
        .engine
        .diagnose(&studies[0].observation())
        .expect("d1");
    let d3 = fitted
        .engine
        .diagnose(&studies[2].observation())
        .expect("d3");
    let policy = fitted.engine.policy();

    // d1: hcbg ambiguous (paper 42.4%), warnvpst implicated.
    let d1_hcbg = d1.fault_mass()["hcbg"];
    assert_eq!(
        policy.classify(d1_hcbg),
        abbd::core::HealthClass::Ambiguous,
        "d1 hcbg mass {d1_hcbg}"
    );
    // d3: hcbg healthy (paper 29.1%), strictly less suspicious than in d1.
    let d3_hcbg = d3.fault_mass()["hcbg"];
    assert!(
        d3_hcbg < d1_hcbg,
        "supply asymmetry lost: {d3_hcbg} vs {d1_hcbg}"
    );
    assert_eq!(policy.classify(d3_hcbg), abbd::core::HealthClass::Healthy);
    // Both cases implicate warnvpst heavily.
    assert!(d1.fault_mass()["warnvpst"] > 0.8);
    assert!(d3.fault_mass()["warnvpst"] > 0.8);
    // lcbg is exonerated in both (reg2 keeps working).
    assert!(d1.fault_mass()["lcbg"] < 0.1);
}

/// Datalogs survive a disk round-trip and regenerate identical cases.
#[test]
fn datalog_roundtrip_preserves_cases() {
    let population = regulator::synthesize(12, 99, 0).expect("population");
    let rig = regulator::rig();
    let text = write_datalog(&population.logs);
    let parsed = parse_datalog(&text).expect("parse back");
    let (cases, stats) = generate_cases(rig.model.spec(), &rig.mapping, &parsed).expect("cases");
    assert_eq!(stats.cases, population.stats.cases);
    assert_eq!(cases, population.cases);
}

/// The Bayesian diagnosis clearly beats the random floor on held-out
/// devices, and the labelled fault dictionary (which needs ground-truth
/// labels the BBN never sees) remains an upper reference.
#[test]
fn bbn_beats_random_floor() {
    let fitted = regulator::fit(40, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let test = regulator::synthesize(60, 777, 1_000_000).expect("test population");
    let sigs = group_by_device(&test.cases);

    let bbn = abbd_bench_adapter::BbnAdapter(&fitted.engine);
    let random = RandomGuess::new(regulator::model::VARIABLES.iter().copied(), 5);
    let bbn_acc = accuracy_at_k(&bbn, &sigs, 2);
    let random_acc = accuracy_at_k(&random, &sigs, 2);
    assert!(
        bbn_acc > random_acc + 0.3,
        "bbn@2 {bbn_acc} vs random@2 {random_acc}"
    );

    let train_sigs = group_by_device(&fitted.cases);
    let dictionary = FaultDictionary::train(&train_sigs);
    let dict_acc = accuracy_at_k(&dictionary, &sigs, 2);
    assert!(dict_acc > random_acc, "dictionary@2 {dict_acc}");
}

/// A miniature re-implementation of the bench crate's device adapter so
/// the root tests do not depend on the bench crate.
mod abbd_bench_adapter {
    use abbd::baselines::{DeviceSignature, Diagnoser, Ranking};
    use abbd::core::{CompiledModel, Observation};
    use abbd::designs::regulator::program::{suite_plans, OBSERVED_VARS};

    pub struct BbnAdapter<'a>(pub &'a CompiledModel);

    impl Diagnoser for BbnAdapter<'_> {
        fn name(&self) -> &str {
            "bbn"
        }
        fn diagnose(&self, sig: &DeviceSignature) -> Ranking {
            let mut scores: Vec<(String, f64)> = Vec::new();
            for plan in suite_plans() {
                let mut obs = Observation::new();
                let mut failing = false;
                for ((suite, var), &state) in &sig.features {
                    if suite == plan.name {
                        obs.set(var.clone(), state);
                        if let Some(oi) = OBSERVED_VARS.iter().position(|o| o == var) {
                            if state != plan.healthy_states[oi] {
                                obs.mark_failing(var.clone());
                                failing = true;
                            }
                        }
                    }
                }
                if !failing {
                    continue;
                }
                let Ok(d) = self.0.diagnose(&obs) else {
                    continue;
                };
                for c in d.candidates() {
                    match scores.iter_mut().find(|(n, _)| *n == c.variable) {
                        Some(slot) => slot.1 = slot.1.max(c.fault_mass),
                        None => scores.push((c.variable.clone(), c.fault_mass)),
                    }
                }
            }
            scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            scores
        }
    }
}

/// The hypothetical circuit's pipeline diagnoses a latent bandgap failure.
#[test]
fn hypothetical_pipeline_end_to_end() {
    let fitted = hypothetical::fit(
        30,
        7,
        LearnAlgorithm::Em(abbd::bbn::learn::EmConfig {
            max_iterations: 10,
            tolerance: 1e-5,
        }),
    )
    .expect("pipeline runs");
    let mut obs = abbd::core::Observation::new();
    obs.set("block1", 2).set("block2", 1).set("block4", 0);
    obs.mark_failing("block4");
    let diagnosis = fitted.engine.diagnose(&obs).expect("diagnosis");
    assert_eq!(diagnosis.top_candidate(), Some("block3"));
}

/// Every fitted CPT stays a valid distribution after the full pipeline.
#[test]
fn fitted_networks_remain_normalised() {
    let fitted = regulator::fit(30, 11, regulator::default_algorithm()).expect("pipeline runs");
    let net = fitted.engine.model().network();
    for v in net.variables() {
        let card = net.card(v);
        for (r, row) in net.cpt(v).chunks(card).enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{} row {r} sums to {sum}",
                net.name(v)
            );
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

/// Probe planning resolves d1's two-candidate ambiguity: the most
/// informative blocks to open are exactly the competing candidates
/// (ranked through the unified session's probe-action candidates).
#[test]
fn probe_ranking_targets_the_ambiguous_pair() {
    use abbd::core::{Action, DiagnosisSession, StoppingPolicy};
    use std::sync::Arc;

    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let d1 = &regulator::cases::case_studies()[0];
    let mut session = DiagnosisSession::new(Arc::clone(&fitted.engine), StoppingPolicy::default())
        .expect("session opens");
    session.observe_all(&d1.observation()).expect("seeds");
    let latents: Vec<Action> = session
        .compiled()
        .latent_names()
        .map(Action::probe)
        .collect();
    session.set_actions(latents).expect("probe menu");
    let probes: Vec<(String, f64)> = session
        .rank_actions()
        .expect("probe ranking")
        .iter()
        .map(|c| (c.name().to_string(), c.expected_information_gain()))
        .collect();
    let top2: Vec<&str> = probes.iter().take(2).map(|(n, _)| n.as_str()).collect();
    assert!(
        top2.contains(&"hcbg") || top2.contains(&"warnvpst"),
        "top probes {top2:?} must include one of the competing candidates"
    );
    // Clearly exonerated blocks carry little information.
    let lcbg_gain = probes
        .iter()
        .find(|(n, _)| n == "lcbg")
        .map(|&(_, g)| g)
        .unwrap_or(0.0);
    assert!(probes[0].1 > lcbg_gain * 2.0, "{probes:?}");
}

/// Finding-impact explanation: in case d4 the always-on regulator's
/// failure (reg2 = 0) is what separates lcbg from every other hypothesis,
/// so it must be the most influential finding for the lcbg verdict.
#[test]
fn explanation_credits_the_discriminating_finding() {
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let d4 = &regulator::cases::case_studies()[3];
    let impacts = fitted
        .engine
        .explain(&d4.observation(), "lcbg")
        .expect("explain");
    assert_eq!(
        impacts[0].variable,
        "reg2",
        "impacts: {:?}",
        impacts
            .iter()
            .map(|i| (&i.variable, i.impact))
            .collect::<Vec<_>>()
    );
    assert!(impacts[0].impact > 0.3);
}

/// The diagnostic engine is deterministic: same pipeline, same verdicts.
#[test]
fn diagnosis_is_reproducible() {
    let a = regulator::fit(20, 3, regulator::default_algorithm()).expect("run a");
    let b = regulator::fit(20, 3, regulator::default_algorithm()).expect("run b");
    let case = &regulator::cases::case_studies()[1];
    let da = a.engine.diagnose(&case.observation()).expect("diagnosis a");
    let db = b.engine.diagnose(&case.observation()).expect("diagnosis b");
    assert_eq!(da.candidates(), db.candidates());
    assert_eq!(da.posteriors(), db.posteriors());
}

/// Variable-elimination oracle for a candidate's two exoneration values,
/// `(ancestor fault probability, conditional fault expectation)`: the
/// joint marginal over the latent ancestors, enumerated for the mass with
/// every ancestor healthy, and the CPT row at the parents' VE posterior
/// argmax (non-fault argmax for latent parents).
fn deduction_oracle(
    compiled: &CompiledModel,
    evidence: &abbd::bbn::Evidence,
    variable: &str,
) -> (f64, f64) {
    let m = compiled.model().circuit_model();
    let net = compiled.model().network();
    let ve = VariableElimination::new(net);
    let ancestors = m.latent_ancestors(variable);
    let p_anc = if ancestors.is_empty() {
        0.0
    } else {
        let ids: Vec<VarId> = ancestors.iter().map(|a| net.var(a).unwrap()).collect();
        let joint = ve.joint_marginal(evidence, &ids).expect("joint marginal");
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
                evidence.state_of(p).unwrap_or_else(|| {
                    let name = net.name(p);
                    let faults = if m.latents().contains(&name) {
                        m.fault_states(name)
                    } else {
                        Vec::new()
                    };
                    let post = ve.posterior(evidence, p).expect("posterior");
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

/// Checks every candidate deduction reports for `observations` against
/// the VE oracle, under the compiled policy and under a permissive one
/// (no exoneration short of certainty, every observed observable marked
/// failing) that surfaces each suspect's and self-candidate's values.
/// Returns the number of values compared and the largest difference.
fn check_deduction_against_oracle(
    compiled: &CompiledModel,
    observations: &[Observation],
) -> (usize, f64) {
    let permissive = DeductionPolicy {
        faulty_threshold: 1.0,
        healthy_threshold: 0.0,
        seed_with_best_ambiguous: true,
    };
    let observables: Vec<&str> = compiled.observable_names().collect();
    let mut ws = compiled.make_workspace();
    let mut compared = 0;
    let mut worst = 0.0f64;
    for observation in observations {
        let mut all_failing = observation.clone();
        for (name, _) in observation.iter() {
            if observables.contains(&name) {
                all_failing.mark_failing(name);
            }
        }
        let evidence = compiled.evidence_from(observation).expect("evidence");
        for (obs, policy) in [
            (observation, compiled.policy()),
            (&all_failing, &permissive),
        ] {
            let diagnosis = match compiled.diagnose_with_policy_in(&mut ws, obs, &evidence, policy)
            {
                Ok(d) => d,
                Err(abbd::core::Error::Bbn(abbd::bbn::Error::ImpossibleEvidence)) => continue,
                Err(e) => panic!("diagnosis failed: {e}"),
            };
            for c in diagnosis.candidates() {
                let (p_anc, p_cond) = deduction_oracle(compiled, &evidence, &c.variable);
                assert!(
                    (c.ancestor_fault_probability - p_anc).abs() <= 1e-12,
                    "{}: tree {} vs VE {p_anc}",
                    c.variable,
                    c.ancestor_fault_probability
                );
                assert!(
                    (c.conditional_fault_expectation - p_cond).abs() <= 1e-12,
                    "{}: tree {} vs VE {p_cond}",
                    c.variable,
                    c.conditional_fault_expectation
                );
                compared += 2;
                worst = worst
                    .max((c.ancestor_fault_probability - p_anc).abs())
                    .max((c.conditional_fault_expectation - p_cond).abs());
            }
        }
    }
    (compared, worst)
}

/// Deduction answers its exoneration queries from the round's calibrated
/// junction tree; on the fitted regulator (case studies d1–d5 plus the
/// 70-device learning cases) and the flat 100-variable board (a dead
/// driver in each of blocks 0–3) every reported value matches the VE
/// oracle to 1e-12.
#[test]
fn deduction_matches_the_variable_elimination_oracle() {
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let mut observations: Vec<Observation> = regulator::cases::case_studies()
        .iter()
        .map(|case| case.observation())
        .collect();
    observations.extend(fitted.cases.iter().map(Observation::from));
    let (compared, worst) = check_deduction_against_oracle(&fitted.engine, &observations);
    println!("regulator: {compared} values, worst difference {worst:e}");
    assert!(
        compared >= 2 * observations.len(),
        "{compared} values compared"
    );

    let config = board::BoardConfig::default();
    let flat = CompiledModel::compile(board::flat_model(&config).expect("board builds"))
        .expect("board compiles");
    let controls = flat.model().circuit_model().controls();
    let observables: Vec<&str> = flat.observable_names().collect();
    let observations: Vec<Observation> = (0..4)
        .map(|block| {
            let scenario = board::d1_scenario(&config, block);
            let mut observation = Observation::new();
            for (name, &state) in &scenario.truth {
                if controls.contains(&name.as_str()) || observables.contains(&name.as_str()) {
                    observation.set(name.as_str(), state);
                    if state == 0 && observables.contains(&name.as_str()) {
                        observation.mark_failing(name.as_str());
                    }
                }
            }
            observation
        })
        .collect();
    let (compared, worst) = check_deduction_against_oracle(&flat, &observations);
    println!("board: {compared} values, worst difference {worst:e}");
    assert!(
        compared >= 2 * observations.len(),
        "{compared} values compared"
    );
}

/// The full-propagation exoneration query deduction answered with before
/// its collect-only kernel (the `abbd-core` unit tests keep the same
/// oracle): fold a 0/1 healthy-states likelihood into the evidence for
/// every unobserved latent ancestor, run a whole propagation, and compare
/// its `ln P` with the round's `log_evidence`.
fn propagated_ancestor_fault_probability(
    compiled: &CompiledModel,
    jt: &JunctionTree,
    ws: &mut PropagationWorkspace,
    evidence: &Evidence,
    log_evidence: f64,
    variable: &str,
) -> f64 {
    let model = compiled.model();
    let mut query = evidence.clone();
    for ancestor in model.circuit_model().latent_ancestors(variable) {
        let id = model.var(&ancestor).unwrap();
        let faults = model.circuit_model().fault_states(&ancestor);
        if let Some(state) = evidence.state_of(id) {
            if faults.contains(&state) {
                return 1.0;
            }
            continue;
        }
        let mut healthy: Vec<f64> = (0..model.network().card(id))
            .map(|s| if faults.contains(&s) { 0.0 } else { 1.0 })
            .collect();
        if let Some(likelihood) = evidence.likelihood_of(id) {
            for (h, w) in healthy.iter_mut().zip(likelihood) {
                *h *= w;
            }
        }
        if healthy.iter().all(|&h| h == 0.0) {
            return 1.0;
        }
        query.observe_likelihood(id, healthy);
    }
    if query == *evidence {
        return 0.0;
    }
    match jt.propagate_in(ws, &query) {
        Ok(view) => (-(view.log_likelihood() - log_evidence).exp_m1()).clamp(0.0, 1.0),
        Err(abbd::bbn::Error::ImpossibleEvidence) => 1.0,
        Err(e) => panic!("oracle propagation failed: {e}"),
    }
}

/// Deduction's collect-only, memoised exoneration query reports exactly
/// the bits the full-propagation query did, on the fitted regulator over
/// case studies d1–d5 and 256 sampled fleet rows (seed 1, the d1
/// stimulus). The permissive policy with every observed observable marked
/// failing surfaces each suspect's and self-candidate's value.
#[test]
fn exoneration_is_bitwise_the_full_propagation_query() {
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let compiled = &fitted.engine;
    let cases = regulator::cases::case_studies();
    let mut observations: Vec<Observation> = cases.iter().map(|c| c.observation()).collect();
    let rig = regulator::rig();
    let expert_model = ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .expect("expert-only model builds");
    let controls: Vec<(String, usize)> = cases[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let fleet = sample_model_population(
        &expert_model,
        &regulator::faults::fault_library(),
        &controls,
        256,
        1,
    )
    .expect("fleet samples");
    observations.extend(
        fleet
            .iter()
            .map(|s| s.observation(expert_model.circuit_model())),
    );

    let permissive = DeductionPolicy {
        faulty_threshold: 1.0,
        healthy_threshold: 0.0,
        seed_with_best_ambiguous: true,
    };
    let observables: Vec<&str> = compiled.observable_names().collect();
    let jt = JunctionTree::compile(compiled.model().network()).expect("tree compiles");
    let mut ws = compiled.make_workspace();
    let mut oracle_ws = jt.make_workspace();
    let mut compared = 0;
    for observation in &observations {
        let mut all_failing = observation.clone();
        for (name, _) in observation.iter() {
            if observables.contains(&name) {
                all_failing.mark_failing(name);
            }
        }
        let evidence = compiled.evidence_from(observation).expect("evidence");
        let Ok(base) = jt.propagate_in(&mut oracle_ws, &evidence) else {
            continue;
        };
        let log_evidence = base.log_likelihood();
        for (obs, policy) in [
            (observation, compiled.policy()),
            (&all_failing, &permissive),
        ] {
            let diagnosis = compiled
                .diagnose_with_policy_in(&mut ws, obs, &evidence, policy)
                .expect("diagnosis");
            assert_eq!(diagnosis.log_likelihood().to_bits(), log_evidence.to_bits());
            for c in diagnosis.candidates() {
                let want = propagated_ancestor_fault_probability(
                    compiled,
                    &jt,
                    &mut oracle_ws,
                    &evidence,
                    log_evidence,
                    &c.variable,
                );
                assert_eq!(
                    c.ancestor_fault_probability.to_bits(),
                    want.to_bits(),
                    "{}: collect-only {} vs full propagation {want}",
                    c.variable,
                    c.ancestor_fault_probability
                );
                compared += 1;
            }
        }
    }
    println!("{compared} exoneration values compared bitwise");
    assert!(compared >= observations.len(), "{compared} values compared");
}
