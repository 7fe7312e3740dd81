//! Closed-loop adaptive diagnosis on the regulator: the sequential
//! diagnoser picks the next output to measure inside a failing stimulus
//! suite, the on-demand virtual ATE answers it, and the loop stops when a
//! block is isolated — compared head-to-head against the fixed program
//! order on the paper's case studies and on sampled fault populations.

use crate::adaptive::{run_cross_suite, ClosedLoopReport, CrossSuiteOutcome, PopulationRun};
use crate::error::{Error, Result};
use crate::regulator::cases::CaseStudy;
use crate::regulator::program::{suite_plans, test_number, SuitePlan, CONTROL_VARS, OBSERVED_VARS};
use crate::regulator::{rig, synthesize};
use abbd_ate::{DeviceSession, NoiseModel, OnDemandTester};
use abbd_core::{
    Action, CompiledModel, CostModel, DecisionTrace, DiagnosisSession, Outcome, SequentialOutcome,
    StoppingPolicy, Strategy,
};
use abbd_dlog2bbn::ModelSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Opens a session on the shared compilation, seeded with a
/// suite's control states, candidates restricted to the suite's five
/// outputs.
fn seeded_session(
    compiled: &Arc<CompiledModel>,
    controls: impl IntoIterator<Item = (&'static str, usize)>,
    policy: StoppingPolicy,
) -> Result<DiagnosisSession> {
    let mut d = DiagnosisSession::new(Arc::clone(compiled), policy).map_err(Error::Core)?;
    for (name, state) in controls {
        d.observe(name, state).map_err(Error::Core)?;
    }
    d.set_candidates(OBSERVED_VARS).map_err(Error::Core)?;
    Ok(d)
}

/// A measurement oracle answering from paper Table VI: the case study's
/// recorded observable states, with deviations from the suite's healthy
/// states marked failing.
fn table_vi_oracle<'c>(
    case: &'c CaseStudy,
    plan: &'c SuitePlan,
) -> impl FnMut(&Action) -> abbd_core::Result<Outcome> + 'c {
    move |action: &Action| {
        let name = action.target();
        let oi = OBSERVED_VARS
            .iter()
            .position(|v| *v == name)
            .ok_or_else(|| abbd_core::Error::Oracle {
                variable: name.into(),
                reason: "not one of the suite's outputs".into(),
            })?;
        let (_, state) = case.observables[oi];
        Ok(Outcome {
            state,
            failing: state != plan.healthy_states[oi],
        })
    }
}

/// The regulator's live-bench oracle: [`crate::adaptive::bench_oracle`]
/// over this suite's five outputs and test numbering.
fn bench_oracle<'s, 'd, 'a>(
    session: &'s mut DeviceSession<'d, 'a>,
    spec: &'s ModelSpec,
    suite_index: usize,
) -> impl FnMut(&Action) -> abbd_core::Result<Outcome> + use<'s, 'd, 'a> {
    crate::adaptive::bench_oracle(session, spec, &OBSERVED_VARS, move |oi| {
        test_number(suite_index, oi)
    })
}

fn plan_for(suite: &str) -> Result<(usize, SuitePlan)> {
    suite_plans()
        .into_iter()
        .enumerate()
        .find(|(_, p)| p.name == suite)
        .ok_or_else(|| Error::Pipeline(format!("unknown suite `{suite}`")))
}

/// Runs one Table VI case study adaptively: controls seeded, outputs
/// measured most-informative-first, stopping per `policy`.
///
/// # Errors
///
/// Propagates diagnosis errors.
pub fn adaptive_case_study(
    compiled: &Arc<CompiledModel>,
    case: &CaseStudy,
    policy: StoppingPolicy,
) -> Result<SequentialOutcome> {
    let (_, plan) = plan_for(case.suite)?;
    let mut d = seeded_session(compiled, case.controls, policy)?;
    d.run(table_vi_oracle(case, &plan)).map_err(Error::Core)
}

/// The fixed-order baseline for [`adaptive_case_study`]: same seeding,
/// same stopping policy, outputs measured in ATE program order.
///
/// # Errors
///
/// Propagates diagnosis errors.
pub fn fixed_case_study(
    compiled: &Arc<CompiledModel>,
    case: &CaseStudy,
    policy: StoppingPolicy,
) -> Result<SequentialOutcome> {
    let (_, plan) = plan_for(case.suite)?;
    let mut d = seeded_session(compiled, case.controls, policy)?;
    d.run_scripted(&OBSERVED_VARS, table_vi_oracle(case, &plan))
        .map_err(Error::Core)
}

/// The regulator's reference measurement prices, tester-seconds: the
/// four regulator outputs are quick DC reads with slightly different
/// settling (the switched output `sw` drives a power FET and settles
/// slowest), swapping stimulus suites costs a reconfiguration, and
/// physically probing an internal block in step two costs FIB/SEM time
/// three orders of magnitude above any electrical test.
pub fn reference_cost_model() -> CostModel {
    let mut cost = CostModel::new(1.0, 4.0, 900.0).expect("static prices are valid");
    cost.set_cost("reg1", 1.0).expect("static price");
    cost.set_cost("reg2", 1.2).expect("static price");
    cost.set_cost("reg3", 1.2).expect("static price");
    cost.set_cost("reg4", 1.5).expect("static price");
    cost.set_cost("sw", 2.0).expect("static price");
    cost
}

/// [`adaptive_case_study`] under an explicit [`Strategy`] and
/// [`CostModel`], returning the full [`DecisionTrace`] alongside the
/// outcome — the generator behind the golden-trace conformance corpus.
///
/// # Errors
///
/// Propagates strategy/diagnosis errors.
pub fn traced_case_study(
    compiled: &Arc<CompiledModel>,
    case: &CaseStudy,
    policy: StoppingPolicy,
    strategy: Strategy,
    cost: CostModel,
) -> Result<(SequentialOutcome, DecisionTrace)> {
    let (_, plan) = plan_for(case.suite)?;
    let mut d = seeded_session(compiled, case.controls, policy)?;
    d.set_strategy(strategy).map_err(Error::Core)?;
    d.set_cost_model(cost).map_err(Error::Core)?;
    d.run_traced(table_vi_oracle(case, &plan))
        .map_err(Error::Core)
}

/// The latent blocks a step-two probe can land on, with their bench
/// nets: every regulator latent drives a `<name>_out` net in the
/// behavioural circuit, so "physically probe `hcbg`" means reading
/// `hcbg_out` under the applied stimulus.
fn probe_net_of(circuit: &abbd_blocks::Circuit, latent: &str) -> Result<abbd_blocks::NetId> {
    let net = format!("{}_out", latent.to_lowercase());
    circuit
        .find_net(&net)
        .ok_or_else(|| Error::Pipeline(format!("latent `{latent}` has no bench net `{net}`")))
}

/// The mixed-candidate measurement prices: the usual per-test
/// tester-seconds and suite-switch penalty of
/// [`reference_cost_model`], but probes priced as bench-needle
/// touchdowns on exposed pads (a few times a regulator read) rather
/// than FIB/SEM time — the regime where interleaving a probe into the
/// electrical test plan is economically on the table at all.
pub fn mixed_cost_model() -> CostModel {
    let mut cost = CostModel::new(1.0, 4.0, 3.0).expect("static prices are valid");
    cost.set_cost("reg1", 1.0).expect("static price");
    cost.set_cost("reg2", 1.2).expect("static price");
    cost.set_cost("reg3", 1.2).expect("static price");
    cost.set_cost("reg4", 1.5).expect("static price");
    cost.set_cost("sw", 2.0).expect("static price");
    cost
}

/// Runs one Table VI case study over the *mixed* candidate set: the
/// suite's five electrical tests **and** a bench-needle probe of every
/// latent block, ranked together in one loop. Tests and probes are both
/// answered by the virtual bench, which carries the case's injected
/// fault — the unified-session scenario the legacy two-phase flow
/// ([`two_phase_case_study`]) is compared against.
///
/// The loop interleaves on its own: while the remaining tests carry
/// information the cheap tests win, and the moment they stop paying
/// their way the decisive probe outranks them — *before* the test
/// program is exhausted, which a tests-then-probes flow structurally
/// cannot do.
///
/// # Errors
///
/// Propagates fabrication, strategy and diagnosis errors.
pub fn mixed_case_study(
    compiled: &Arc<CompiledModel>,
    case: &CaseStudy,
    policy: StoppingPolicy,
    strategy: Strategy,
    cost: CostModel,
) -> Result<(SequentialOutcome, DecisionTrace)> {
    let rig = rig();
    let tester = OnDemandTester::new(&rig.circuit, &rig.program).map_err(Error::Ate)?;
    let (si, _) = plan_for(case.suite)?;
    let device = injected_device(&rig.circuit, case)?;
    let mut bench = tester.session(&device, NoiseModel::none(), 7);
    let spec = rig.model.spec();

    let mut session = seeded_session(compiled, case.controls, policy)?;
    session.set_strategy(strategy).map_err(Error::Core)?;
    session.set_cost_model(cost).map_err(Error::Core)?;
    let mut actions: Vec<Action> = OBSERVED_VARS.iter().map(|n| Action::test(*n)).collect();
    actions.extend(
        crate::regulator::model::LATENTS
            .iter()
            .map(|n| Action::probe(*n)),
    );
    session.set_actions(actions).map_err(Error::Core)?;

    let mut executor = crate::adaptive::BenchExecutor::new(&mut bench, spec);
    for (oi, name) in OBSERVED_VARS.iter().enumerate() {
        executor = executor.map_test(*name, test_number(si, oi));
    }
    for latent in crate::regulator::model::LATENTS {
        executor = executor.map_probe(latent, probe_net_of(&rig.circuit, latent)?);
    }
    session.run_traced(executor).map_err(Error::Core)
}

/// The legacy step-one/step-two flow over the same bench, same fault,
/// same prices: run the suite's electrical tests to completion first
/// (probes are not in the menu), then — only once the test program has
/// nothing left — open the probe phase on the same evidence. Returns
/// `(step one, step two)`.
///
/// # Errors
///
/// Same as [`mixed_case_study`].
pub fn two_phase_case_study(
    compiled: &Arc<CompiledModel>,
    case: &CaseStudy,
    policy: StoppingPolicy,
    strategy: Strategy,
    cost: CostModel,
) -> Result<(SequentialOutcome, SequentialOutcome)> {
    let rig = rig();
    let tester = OnDemandTester::new(&rig.circuit, &rig.program).map_err(Error::Ate)?;
    let (si, _) = plan_for(case.suite)?;
    let device = injected_device(&rig.circuit, case)?;
    let mut bench = tester.session(&device, NoiseModel::none(), 7);
    let spec = rig.model.spec();

    let mut session = seeded_session(compiled, case.controls, policy)?;
    session.set_strategy(strategy).map_err(Error::Core)?;
    session.set_cost_model(cost).map_err(Error::Core)?;

    // Step one: electrical tests only.
    let mut executor = crate::adaptive::BenchExecutor::new(&mut bench, spec);
    for (oi, name) in OBSERVED_VARS.iter().enumerate() {
        executor = executor.map_test(*name, test_number(si, oi));
    }
    let step_one = session.run(executor).map_err(Error::Core)?;

    // Step two: the probe menu opens only now, on the same evidence.
    let remaining: Vec<Action> = crate::regulator::model::LATENTS
        .iter()
        .filter(|latent| session.observation().state_of(latent).is_none())
        .map(|n| Action::probe(*n))
        .collect();
    session.set_actions(remaining).map_err(Error::Core)?;
    let mut executor = crate::adaptive::BenchExecutor::new(&mut bench, spec);
    for latent in crate::regulator::model::LATENTS {
        executor = executor.map_probe(latent, probe_net_of(&rig.circuit, latent)?);
    }
    let step_two = session.run(executor).map_err(Error::Core)?;
    Ok((step_one, step_two))
}

/// A golden device carrying exactly the case study's injected fault.
fn injected_device(
    circuit: &abbd_blocks::Circuit,
    case: &CaseStudy,
) -> Result<abbd_blocks::Device> {
    let (block, mode) = &case.injected;
    let block = circuit
        .require_block(block)
        .map_err(|e| Error::Pipeline(e.to_string()))?;
    let mut device = abbd_blocks::Device::golden(circuit);
    device.id = 990;
    device.faults = abbd_blocks::DeviceFaults::single(abbd_blocks::Fault::new(block, *mode));
    Ok(device)
}

/// One device of the cross-suite population scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossSuiteReport {
    /// Device serial number.
    pub device_id: u64,
    /// Ground-truth `block:mode` fault tags (scoring only).
    pub truth: Vec<String>,
    /// The failing suites the loop could measure under, in the order
    /// the full-program log first showed them failing.
    pub suites: Vec<String>,
    /// The cross-suite closed-loop result.
    pub outcome: CrossSuiteOutcome,
    /// Distinct operating points the bench solved
    /// ([`DeviceSession::suites_touched`]).
    pub suites_touched: usize,
    /// Stimulus swaps the bench actually performed
    /// ([`DeviceSession::stimulus_switches`]) — equals the driver's
    /// count, asserted by the scenario tests.
    pub bench_switches: usize,
}

impl CrossSuiteReport {
    /// `true` when the loop's top candidate names a block that is
    /// actually faulty on the device.
    pub fn hit(&self) -> bool {
        self.outcome.top_candidate.as_deref().is_some_and(|top| {
            self.truth
                .iter()
                .any(|tag| tag.split(':').next() == Some(top))
        })
    }
}

/// Population totals of a cross-suite scenario under one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossSuiteSummary {
    /// The strategy the scenario ran under.
    pub strategy: Strategy,
    /// Number of devices.
    pub devices: usize,
    /// Total measurements spent.
    pub tests: usize,
    /// Total stimulus-suite switches across the population.
    pub stimulus_switches: usize,
    /// Total distinct operating points solved.
    pub suites_touched: usize,
    /// Runs that ended with an isolated fault.
    pub isolated: usize,
    /// Runs whose top candidate matched an injected fault.
    pub hits: usize,
    /// Total measurement cost, tester-seconds.
    pub tester_seconds: f64,
}

/// Aggregates one strategy's cross-suite reports.
pub fn summarize_cross_suite(
    strategy: Strategy,
    reports: &[CrossSuiteReport],
) -> CrossSuiteSummary {
    CrossSuiteSummary {
        strategy,
        devices: reports.len(),
        tests: reports.iter().map(|r| r.outcome.tests_used()).sum(),
        stimulus_switches: reports.iter().map(|r| r.outcome.stimulus_switches).sum(),
        suites_touched: reports.iter().map(|r| r.suites_touched).sum(),
        isolated: reports.iter().filter(|r| r.outcome.isolated).count(),
        hits: reports.iter().filter(|r| r.hit()).count(),
        tester_seconds: reports.iter().map(|r| r.outcome.tester_seconds).sum(),
    }
}

/// Cross-suite closed-loop scenario over a sampled fault population: for
/// each fabricated failing regulator, every suite its full-program log
/// fails under becomes a seeded diagnosis context, and the
/// [`run_cross_suite`] driver arbitrates which `(suite, output)` to
/// measure next under `strategy`, executing through one shared on-demand
/// bench session per device (so suite switches are physically counted by
/// the session too). Deterministic for a fixed `seed`.
///
/// This is the scenario where measurement *economics* show: a cost-blind
/// myopic loop ping-pongs between near-tied twin tests of different
/// suites, while [`Strategy::CostWeighted`] finishes a suite before
/// paying the reconfiguration penalty for the next.
///
/// Devices whose bench session produces a reading the model spec cannot
/// bin (e.g. NaN from a non-converged operating point) are skipped — the
/// sequential counterpart of the case generator counting such readings
/// as unbinnable — so the report vector can be shorter than `n_failing`.
///
/// # Errors
///
/// Propagates fabrication, simulation and diagnosis errors.
pub fn cross_suite_population(
    compiled: &Arc<CompiledModel>,
    n_failing: usize,
    seed: u64,
    policy: StoppingPolicy,
    strategy: Strategy,
    cost: &CostModel,
) -> Result<PopulationRun<CrossSuiteReport>> {
    let rig = rig();
    let tester = OnDemandTester::new(&rig.circuit, &rig.program).map_err(Error::Ate)?;
    let population = synthesize(n_failing, seed, 0)?;
    let spec = rig.model.spec();
    let plans = suite_plans();
    let mut reports = Vec::with_capacity(population.devices.len());
    let mut skipped = Vec::new();
    for (device, log) in population.devices.iter().zip(&population.logs) {
        // Every suite the full program flags, ordered by first failure.
        let mut failing_suites: Vec<String> = Vec::new();
        for record in log.records.iter().filter(|r| !r.passed) {
            if !failing_suites.contains(&record.suite) {
                failing_suites.push(record.suite.clone());
            }
        }
        if failing_suites.is_empty() {
            return Err(Error::Pipeline("synthesized device never fails".into()));
        }

        let mut contexts: Vec<(String, DiagnosisSession)> = Vec::new();
        let mut suite_indices: Vec<usize> = Vec::new();
        for suite in &failing_suites {
            let (si, _) = plan_for(suite)?;
            let plan = &plans[si];
            let controls = CONTROL_VARS.iter().copied().zip(plan.control_states);
            contexts.push((suite.clone(), seeded_session(compiled, controls, policy)?));
            suite_indices.push(si);
        }

        let mut session = tester.session(device, NoiseModel::production(), seed);
        let mut device_cost = cost.clone();
        device_cost.set_current_suite(None);
        let outcome = {
            let session = &mut session;
            let spec = &spec;
            let suite_indices = &suite_indices;
            run_cross_suite(
                &mut contexts,
                &mut device_cost,
                strategy,
                policy,
                move |context, name| {
                    let oi = OBSERVED_VARS
                        .iter()
                        .position(|v| *v == name)
                        .ok_or_else(|| abbd_core::Error::Oracle {
                            variable: name.into(),
                            reason: "not one of the suite's outputs".into(),
                        })?;
                    crate::adaptive::measure_on_bench(
                        session,
                        spec,
                        name,
                        test_number(suite_indices[context], oi),
                    )
                },
            )
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            // An unbinnable reading (NaN operating point) means this
            // device cannot be diagnosed on this bench; skip it rather
            // than abort the whole population — and say so in the run.
            Err(abbd_core::Error::Oracle { .. }) => {
                skipped.push(device.id);
                continue;
            }
            Err(e) => return Err(Error::Core(e)),
        };
        reports.push(CrossSuiteReport {
            device_id: device.id,
            truth: log.truth.clone(),
            suites: failing_suites,
            suites_touched: session.suites_touched(),
            bench_switches: session.stimulus_switches(),
            outcome,
        });
    }
    Ok(PopulationRun { reports, skipped })
}

/// Closed-loop scenario over a sampled fault population: fabricates
/// `n_failing` defective regulators, and for each one runs the sequential
/// diagnoser inside its first failing suite twice — adaptively and in
/// fixed program order — against the live on-demand ATE. Deterministic
/// for a fixed `seed`.
///
/// The returned reports compare tests-to-isolation per device; aggregate
/// with [`crate::adaptive::summarize`]. Devices whose bench session
/// produces a reading the model spec cannot bin are skipped and reported
/// in [`PopulationRun::skipped`], so the report vector can be shorter
/// than `n_failing`.
///
/// # Errors
///
/// Propagates fabrication, simulation and diagnosis errors.
pub fn closed_loop_population(
    compiled: &Arc<CompiledModel>,
    n_failing: usize,
    seed: u64,
    policy: StoppingPolicy,
) -> Result<PopulationRun<ClosedLoopReport>> {
    closed_loop_population_with_noise(compiled, n_failing, seed, policy, NoiseModel::production())
}

/// [`closed_loop_population`] under an explicit measurement-noise model.
///
/// The production voltmeter (2 mV sigma) never pushes a reading outside
/// the model's state bands, but a degraded bench can: readings the spec
/// cannot bin make their device undiagnosable, and this driver skips it
/// *and reports it* in [`PopulationRun::skipped`] — the regression the
/// skip-accounting test pins with a deliberately noisy voltmeter.
///
/// # Errors
///
/// Same as [`closed_loop_population`].
pub fn closed_loop_population_with_noise(
    compiled: &Arc<CompiledModel>,
    n_failing: usize,
    seed: u64,
    policy: StoppingPolicy,
    noise: NoiseModel,
) -> Result<PopulationRun<ClosedLoopReport>> {
    let rig = rig();
    let tester = OnDemandTester::new(&rig.circuit, &rig.program).map_err(Error::Ate)?;
    let population = synthesize(n_failing, seed, 0)?;
    let spec = rig.model.spec();
    let mut reports = Vec::with_capacity(population.devices.len());
    let mut skipped = Vec::new();
    for (device, log) in population.devices.iter().zip(&population.logs) {
        let failing_suite = log
            .records
            .iter()
            .find(|r| !r.passed)
            .map(|r| r.suite.clone())
            .ok_or_else(|| Error::Pipeline("synthesized device never fails".into()))?;
        let (si, plan) = plan_for(&failing_suite)?;
        let controls = CONTROL_VARS.iter().copied().zip(plan.control_states);

        let mut adaptive_d = seeded_session(compiled, controls.clone(), policy)?;
        let mut session = tester.session(device, noise.clone(), seed);
        let adaptive = match adaptive_d.run(bench_oracle(&mut session, spec, si)) {
            Ok(outcome) => outcome,
            // An unbinnable reading means this device cannot be diagnosed
            // on this bench; skip it (reported) rather than abort.
            Err(abbd_core::Error::Oracle { .. }) => {
                skipped.push(device.id);
                continue;
            }
            Err(e) => return Err(Error::Core(e)),
        };

        let mut fixed_d = seeded_session(compiled, controls, policy)?;
        let mut session = tester.session(device, noise.clone(), seed);
        let fixed = match fixed_d.run_scripted(&OBSERVED_VARS, bench_oracle(&mut session, spec, si))
        {
            Ok(outcome) => outcome,
            Err(abbd_core::Error::Oracle { .. }) => {
                skipped.push(device.id);
                continue;
            }
            Err(e) => return Err(Error::Core(e)),
        };

        reports.push(ClosedLoopReport {
            device_id: device.id,
            truth: log.truth.clone(),
            suite: failing_suite,
            adaptive,
            fixed,
        });
    }
    Ok(PopulationRun { reports, skipped })
}

#[cfg(test)]
mod tests {
    /// The skip-accounting regression: devices the bench cannot bin are
    /// skipped *and reported by serial number* — the population total
    /// always adds up instead of quietly shrinking.
    #[test]
    fn skipped_devices_are_reported_not_dropped() {
        let compiled = quick_model();
        // The production voltmeter (2 mV) never leaves the state bands:
        // nothing skipped, every device reported.
        let clean = closed_loop_population(&compiled, 6, 2, StoppingPolicy::default()).unwrap();
        assert!(clean.skipped.is_empty());
        assert_eq!(clean.devices_attempted(), 6);
        // A degraded voltmeter (250 mV sigma) pushes off-state readings
        // below the model's lowest band; those devices are undiagnosable
        // on this bench and must be named, not dropped.
        let noisy = closed_loop_population_with_noise(
            &compiled,
            6,
            2,
            StoppingPolicy::default(),
            NoiseModel::uniform(0.25),
        )
        .unwrap();
        assert_eq!(
            noisy.skipped,
            vec![4, 5],
            "deterministic for the fixed seed"
        );
        assert_eq!(noisy.reports.len(), 4);
        assert_eq!(
            noisy.devices_attempted(),
            6,
            "reports + skipped must account for every synthesized device"
        );
        for report in &noisy.reports {
            assert!(
                !noisy.skipped.contains(&report.device_id),
                "a device cannot be both reported and skipped"
            );
        }
    }

    use super::*;
    use crate::adaptive::summarize;
    use crate::regulator::cases::case_studies;
    use crate::regulator::fit;
    use abbd_bbn::learn::EmConfig;
    use abbd_core::LearnAlgorithm;

    fn quick_model() -> Arc<CompiledModel> {
        fit(
            24,
            42,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 8,
                tolerance: 1e-4,
            }),
        )
        .unwrap()
        .engine
    }

    /// The case-study acceptance check: on every Table VI case the
    /// adaptive order isolates the fault in no more measurements than the
    /// ATE program order, and on d1 it reproduces the paper's candidate
    /// ambiguity.
    #[test]
    fn adaptive_never_uses_more_tests_than_fixed_on_case_studies() {
        let compiled = quick_model();
        let policy = StoppingPolicy::default();
        for case in case_studies() {
            let adaptive = adaptive_case_study(&compiled, &case, policy).unwrap();
            let fixed = fixed_case_study(&compiled, &case, policy).unwrap();
            assert!(
                adaptive.tests_used() <= fixed.tests_used(),
                "case {}: adaptive {} > fixed {}",
                case.id,
                adaptive.tests_used(),
                fixed.tests_used()
            );
            // Both orders end at the same place when both exhaust.
            if adaptive.tests_used() == 5 && fixed.tests_used() == 5 {
                assert_eq!(
                    adaptive.diagnosis.fault_mass(),
                    fixed.diagnosis.fault_mass(),
                    "case {}: full-program runs must agree",
                    case.id
                );
            }
        }
    }

    #[test]
    fn d1_adaptive_top_candidate_matches_the_paper() {
        let compiled = quick_model();
        let d1 = &case_studies()[0];
        let outcome = adaptive_case_study(&compiled, d1, StoppingPolicy::default()).unwrap();
        let top = outcome
            .diagnosis
            .top_candidate()
            .expect("d1 has candidates");
        assert!(
            d1.expected_candidates.contains(&top),
            "top candidate {top} not in {:?}",
            d1.expected_candidates
        );
    }

    /// The lookahead acceptance check: on every Table VI case study,
    /// depth-2 expectimax planning isolates the fault in no more
    /// measurements than the myopic loop (d1 and d3 are the cases the
    /// golden corpus pins).
    #[test]
    fn lookahead_depth2_needs_no_more_tests_than_myopic_on_case_studies() {
        let compiled = quick_model();
        let policy = StoppingPolicy::default();
        for case in case_studies() {
            let (myopic, _) = traced_case_study(
                &compiled,
                &case,
                policy,
                Strategy::Myopic,
                CostModel::unit(),
            )
            .unwrap();
            let (lookahead, _) = traced_case_study(
                &compiled,
                &case,
                policy,
                Strategy::Lookahead { depth: 2 },
                CostModel::unit(),
            )
            .unwrap();
            assert!(
                lookahead.tests_used() <= myopic.tests_used(),
                "case {}: lookahead {} > myopic {}",
                case.id,
                lookahead.tests_used(),
                myopic.tests_used()
            );
            assert_eq!(
                lookahead.diagnosis.top_candidate(),
                myopic.diagnosis.top_candidate(),
                "case {}: strategies disagree on the culprit",
                case.id
            );
        }
    }

    /// Traces replay the run they came from: chosen sequence matches the
    /// applied measurements, rankings are sorted by score, posteriors are
    /// recorded per step.
    #[test]
    fn traced_case_study_records_the_whole_decision_path() {
        let compiled = quick_model();
        let d1 = &case_studies()[0];
        let (outcome, trace) = traced_case_study(
            &compiled,
            d1,
            StoppingPolicy::default(),
            Strategy::CostWeighted,
            reference_cost_model(),
        )
        .unwrap();
        assert_eq!(trace.strategy, Strategy::CostWeighted);
        assert_eq!(trace.stop, outcome.stop);
        assert_eq!(trace.steps.len(), outcome.tests_used());
        for (step, applied) in trace.steps.iter().zip(&outcome.applied) {
            assert_eq!(step.chosen, applied.variable);
            assert_eq!(step.state, applied.state);
            assert_eq!(step.failing, applied.failing);
            assert_eq!(step.scores[0].variable, step.chosen, "best score wins");
            for w in step.scores.windows(2) {
                assert!(w[0].score >= w[1].score, "ranking must be sorted");
            }
            assert!(!step.fault_mass.is_empty());
            assert!(step.scores.iter().all(|s| s.cost > 0.0));
        }
        assert_eq!(
            trace.top_candidate.as_deref(),
            outcome.diagnosis.top_candidate()
        );
        assert!(!trace.final_fault_mass.is_empty());
    }

    /// The cost-aware acceptance check on the 16-device population:
    /// cost-weighted arbitration *strictly* reduces stimulus-suite
    /// switches versus the cost-blind myopic loop, the driver's switch
    /// count agrees with what the bench session physically performed, and
    /// isolation quality does not regress.
    #[test]
    fn cost_weighted_strictly_reduces_stimulus_switches_on_the_population() {
        let compiled = quick_model();
        let policy = StoppingPolicy::default();
        let cost = reference_cost_model();
        let run = |strategy| {
            let run = cross_suite_population(&compiled, 16, 2024, policy, strategy, &cost).unwrap();
            assert!(run.skipped.is_empty(), "seed 2024 diagnoses every device");
            assert_eq!(run.devices_attempted(), 16);
            let reports = run.reports;
            assert_eq!(reports.len(), 16);
            for r in &reports {
                assert_eq!(
                    r.outcome.stimulus_switches, r.bench_switches,
                    "device {}: driver switch accounting must match the bench",
                    r.device_id
                );
                assert!(!r.suites.is_empty());
                assert!(r.suites_touched <= r.suites.len());
            }
            summarize_cross_suite(strategy, &reports)
        };
        let myopic = run(Strategy::Myopic);
        let weighted = run(Strategy::CostWeighted);
        assert!(
            weighted.stimulus_switches < myopic.stimulus_switches,
            "cost-weighted {} switches must be strictly below myopic {}",
            weighted.stimulus_switches,
            myopic.stimulus_switches
        );
        assert!(
            weighted.tester_seconds < myopic.tester_seconds,
            "cost-weighted {} s must undercut myopic {} s",
            weighted.tester_seconds,
            myopic.tester_seconds
        );
        assert!(weighted.isolated >= myopic.isolated);
        assert!(weighted.hits >= myopic.hits);
    }

    /// The mixed-candidate regression (ROADMAP open item): on d1 —
    /// whose electrical evidence leaves warnvpst and hcbg ambiguous —
    /// the unified ranking reaches for a bench probe *while an
    /// electrical test is still on the menu*, isolates the fault
    /// without ever running that test, and beats the legacy
    /// tests-then-probes flow on both measurements and tester-seconds.
    /// The two-phase flow cannot make that trade by construction: its
    /// step one has no probes in the menu, so it must play the test
    /// program out first.
    #[test]
    fn unified_session_interleaves_the_decisive_probe_on_d1() {
        let compiled = quick_model();
        let d1 = &case_studies()[0];
        // Tests alone top out below 0.99 fault mass on this fit (the
        // ambiguity: warnvpst ~0.99, hcbg ~0.41 after the full
        // program), so 0.995 is exactly "electrical evidence cannot
        // convict". No gain floor: step one of the legacy flow must
        // play the test program out, which is its structural handicap.
        let policy = StoppingPolicy {
            fault_mass_threshold: 0.995,
            max_steps: 32,
            min_gain: 0.0,
        };
        let (unified, trace) = mixed_case_study(
            &compiled,
            d1,
            policy,
            Strategy::CostWeighted,
            mixed_cost_model(),
        )
        .unwrap();
        let (step_one, step_two) = two_phase_case_study(
            &compiled,
            d1,
            policy,
            Strategy::CostWeighted,
            mixed_cost_model(),
        )
        .unwrap();

        let is_probe = |name: &str| crate::regulator::model::LATENTS.contains(&name);
        // The unified loop isolates a paper-sanctioned culprit.
        assert_eq!(unified.stop, abbd_core::StopReason::Isolated);
        let top = unified.diagnosis.top_candidate().expect("isolated");
        assert!(
            d1.expected_candidates.contains(&top),
            "top candidate {top} not in {:?}",
            d1.expected_candidates
        );
        // The decisive step: the ranking chose a probe while at least
        // one electrical test was still a live candidate — the mixed
        // candidate set made "probe now or test more?" one decision.
        let probe_step = trace
            .steps
            .iter()
            .find(|step| is_probe(&step.chosen))
            .expect("the unified plan must reach for a probe");
        assert!(
            probe_step
                .scores
                .iter()
                .any(|sc| OBSERVED_VARS.contains(&sc.variable.as_str())),
            "the chosen probe must have outranked a pending test"
        );
        // ... and that pending test never needed to run at all.
        let tests_taken = unified
            .applied
            .iter()
            .filter(|a| !is_probe(&a.variable))
            .count();
        assert!(
            tests_taken < OBSERVED_VARS.len(),
            "unified plan must not need the whole test program"
        );
        // The legacy flow would not (and cannot) pick the probe early:
        // step one exhausts every electrical test without isolating,
        // only then does step two probe its way to the same verdict.
        assert!(step_one.applied.iter().all(|a| !is_probe(&a.variable)));
        assert_eq!(step_one.applied.len(), OBSERVED_VARS.len());
        assert_ne!(step_one.stop, abbd_core::StopReason::Isolated);
        assert_eq!(step_two.stop, abbd_core::StopReason::Isolated);
        assert_eq!(step_two.diagnosis.top_candidate(), Some(top));
        // Head to head: strictly fewer measurements and tester-seconds.
        let two_phase_tests = step_one.tests_used() + step_two.tests_used();
        let two_phase_seconds = step_one.tester_seconds() + step_two.tester_seconds();
        assert!(
            unified.tests_used() < two_phase_tests,
            "unified {} measurements must beat two-phase {}",
            unified.tests_used(),
            two_phase_tests
        );
        assert!(
            unified.tester_seconds() < two_phase_seconds,
            "unified {:.1}s must beat two-phase {:.1}s",
            unified.tester_seconds(),
            two_phase_seconds
        );
    }

    #[test]
    fn closed_loop_population_reports_and_aggregates() {
        let compiled = quick_model();
        let run = closed_loop_population(&compiled, 8, 2024, StoppingPolicy::default()).unwrap();
        assert!(run.skipped.is_empty(), "seed 2024 diagnoses every device");
        let reports = run.reports;
        assert_eq!(reports.len(), 8);
        for r in &reports {
            assert!(r.adaptive.tests_used() <= 5);
            assert!(r.fixed.tests_used() <= 5);
            assert!(!r.truth.is_empty());
        }
        let summary = summarize(&reports);
        assert_eq!(summary.devices, 8);
        assert!(
            summary.adaptive_tests <= summary.fixed_tests,
            "adaptive {} > fixed {} across the population",
            summary.adaptive_tests,
            summary.fixed_tests
        );
    }
}
