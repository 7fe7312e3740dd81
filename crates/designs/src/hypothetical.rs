//! The hypothetical four-block analogue circuit of paper Fig. 1 and
//! Tables I–IV: the worked example the paper uses to introduce BBN
//! structure and parameter modelling.
//!
//! Topology (Fig. 1a): two external inputs drive Block-1 and Block-2;
//! Block-1's output feeds Block-2 and Block-3; Block-3 feeds Block-4; the
//! circuit output is Block-4's output (with Block-2's output also
//! measurable, making Block-2 CONTROL/OBSERVE).
//!
//! BBN structure (Fig. 1b): `block1 → block2`, `block1 → block3`,
//! `block3 → block4`.

use crate::adaptive::ClosedLoopReport;
use crate::error::{Error, Result};
use abbd_ate::{
    test_population, DeviceLog, Limits, NoiseModel, OnDemandTester, TestDef, TestProgram, TestSuite,
};
use abbd_blocks::{
    sample_defective_devices, Behavior, Circuit, CircuitBuilder, Device, Fault, FaultMode,
    FaultUniverse, Stimulus, Window,
};
use abbd_core::{
    CircuitModel, CompiledModel, DiagnosisSession, ExpertKnowledge, LearnAlgorithm, ModelBuilder,
    StoppingPolicy, Strategy,
};
use abbd_dlog2bbn::{
    generate_cases, CaseMapping, FunctionalType, GenerationStats, ModelSpec, NamedCase, StateBand,
    VariableSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the behavioural circuit of Fig. 1a.
pub fn circuit() -> Circuit {
    let mut cb = CircuitBuilder::new();
    let in1 = cb.net("in1").expect("fresh builder");
    let in2 = cb.net("in2").expect("fresh builder");
    let n1 = cb.net("n1").expect("fresh builder");
    let n3 = cb.net("n3").expect("fresh builder");
    let out2 = cb.net("out2").expect("fresh builder");
    let out4 = cb.net("out4").expect("fresh builder");
    cb.block(
        "block1",
        Behavior::LevelShift {
            gain: 1.0,
            offset: 0.0,
            rail: 10.0,
        },
        [in1],
        n1,
    )
    .expect("static netlist");
    // Block-2: a 4 V regulator supplied by in2, referenced from Block-1.
    cb.block(
        "block2",
        Behavior::Regulator {
            nominal: 4.0,
            dropout: 1.0,
            enable_threshold: 2.0,
            reference: Window::new(1.5, 10.0),
        },
        [in2, in2, n1],
        out2,
    )
    .expect("static netlist");
    // Block-3: a bandgap fed from Block-1's output.
    cb.block(
        "block3",
        Behavior::Reference {
            nominal: 1.2,
            min_supply: 4.0,
        },
        [n1],
        n3,
    )
    .expect("static netlist");
    // Block-4: an output amplifier of Block-3's reference.
    cb.block(
        "block4",
        Behavior::LevelShift {
            gain: 2.5,
            offset: 0.0,
            rail: 6.0,
        },
        [n3],
        out4,
    )
    .expect("static netlist");
    cb.build().expect("static netlist always validates")
}

/// The model variables of Tables I and II.
pub fn model_spec() -> ModelSpec {
    ModelSpec::new([
        VariableSpec {
            name: "block1".into(),
            ftype: FunctionalType::Control,
            bands: vec![
                StateBand::new("0", 0.0, 2.0, "Non-Operational"),
                StateBand::new("1", 2.0, 5.0, "Operational-I"),
                StateBand::new("2", 5.0, 10.0, "Operational-II"),
            ],
            ckt_ref: Some("Block-1".into()),
        },
        VariableSpec {
            name: "block2".into(),
            ftype: FunctionalType::ControlObserve,
            bands: vec![
                StateBand::new("0", -0.05, 3.5, "Non-Operational"),
                StateBand::new("1", 3.5, 4.5, "Operational"),
            ],
            ckt_ref: Some("Block-2".into()),
        },
        VariableSpec {
            name: "block3".into(),
            ftype: FunctionalType::Latent,
            bands: vec![
                StateBand::new("0", 0.0, 1.1, "Non-Operational"),
                StateBand::new("1", 1.1, 1.4, "Operational"),
            ],
            ckt_ref: Some("Block-3".into()),
        },
        VariableSpec {
            name: "block4".into(),
            ftype: FunctionalType::Observe,
            bands: vec![
                StateBand::new("0", -0.05, 2.75, "Non-Operational"),
                StateBand::new("1", 2.75, 3.25, "Operational"),
            ],
            ckt_ref: Some("Block-4".into()),
        },
    ])
    .expect("static spec always validates")
}

/// The BBN structure of Fig. 1b.
pub fn circuit_model() -> CircuitModel {
    let mut m = CircuitModel::new(model_spec());
    m.depends("block1", "block2").expect("static edges");
    m.depends("block1", "block3").expect("static edges");
    m.depends("block3", "block4").expect("static edges");
    m
}

/// The expert estimate behind Tables III and IV (the `P_blk21_0x`,
/// `P_blk31_0x` and `P_blk43_0x` entries).
pub fn expert_knowledge(equivalent_sample_size: f64) -> ExpertKnowledge {
    let mut e = ExpertKnowledge::new(equivalent_sample_size);
    e.cpt("block1", [[0.2, 0.4, 0.4]]);
    // Table III, left half: P(block2 | block1).
    e.cpt("block2", [[0.90, 0.10], [0.15, 0.85], [0.10, 0.90]]);
    // Table III, right half: P(block3 | block1).
    e.cpt("block3", [[0.95, 0.05], [0.30, 0.70], [0.10, 0.90]]);
    // Table IV: P(block4 | block3). The designer regards the output
    // amplifier as far more reliable than the bandgap feeding it, which is
    // what lets diagnosis blame block3 on the ambiguous block3→block4
    // chain.
    e.cpt("block4", [[0.93, 0.07], [0.025, 0.975]]);
    e
}

/// The suite names in program order. Suite index doubles as the block1
/// state the suite declares. The single source of the names —
/// [`test_program`] and [`closed_loop_population`] both consume it.
pub const SUITES: [&str; 3] = ["b1_off", "b1_op1", "b1_op2"];

/// The `in1` drive level of each suite, aligned with [`SUITES`].
const SUITE_LEVELS: [f64; 3] = [1.0, 3.0, 6.0];

/// The measurable outputs (model variables) in test order within each
/// suite, aligned with the numbering of [`test_number`].
pub const MEASURABLES: [&str; 2] = ["block2", "block4"];

/// The ATE test number of `(suite index, output index)` in the
/// hypothetical program: `out2` then `out4` under each suite. The single
/// source of the numbering scheme — [`test_program`] and the closed-loop
/// oracle both derive from it.
pub fn test_number(suite_index: usize, output_index: usize) -> u32 {
    (100 * (suite_index + 1) + output_index) as u32
}

/// The three stimulus suites: one per usable state of Block-1.
pub fn test_program(circuit: &Circuit) -> (TestProgram, CaseMapping) {
    let in1 = circuit.require_net("in1").expect("static nets");
    let in2 = circuit.require_net("in2").expect("static nets");
    let out2 = circuit.require_net("out2").expect("static nets");
    let out4 = circuit.require_net("out4").expect("static nets");
    let mut mapping = CaseMapping::new();
    let mut program = TestProgram::new();
    for (si, (name, in1_level)) in SUITES.into_iter().zip(SUITE_LEVELS).enumerate() {
        // Suite index == the block1 state the suite declares.
        let block1_state = si;
        let mut stimulus = Stimulus::new();
        stimulus.force(in1, in1_level);
        stimulus.force(in2, 6.0);
        let t_out2 = test_number(si, 0);
        let t_out4 = test_number(si, 1);
        mapping.map_test(t_out2, MEASURABLES[0]);
        mapping.map_test(t_out4, MEASURABLES[1]);
        mapping.declare_suite(name, [("block1", block1_state)]);
        let expected_out2 = if block1_state == 0 {
            (-0.1, 0.2)
        } else {
            (3.5, 4.5)
        };
        let expected_out4 = if block1_state == 2 {
            (2.75, 3.25)
        } else {
            (-0.1, 2.75)
        };
        program.push_suite(TestSuite {
            name: name.into(),
            stimulus: stimulus.clone(),
            tests: vec![
                TestDef {
                    number: t_out2,
                    name: format!("{name}_out2"),
                    measured: out2,
                    limits: Limits::new(expected_out2.0, expected_out2.1),
                },
                TestDef {
                    number: t_out4,
                    name: format!("{name}_out4"),
                    measured: out4,
                    limits: Limits::new(expected_out4.0, expected_out4.1),
                },
            ],
        });
    }
    (program, mapping)
}

/// The hypothetical circuit's fault universe.
pub fn fault_universe(circuit: &Circuit) -> FaultUniverse {
    [
        ("block1", FaultMode::Dead, 1.0),
        ("block2", FaultMode::Dead, 2.0),
        ("block2", FaultMode::GainDrift(0.5), 1.0),
        ("block3", FaultMode::Dead, 2.5),
        ("block3", FaultMode::GainDrift(0.7), 1.0),
        ("block4", FaultMode::Dead, 1.0),
    ]
    .into_iter()
    .map(|(b, m, w)| {
        (
            Fault::new(circuit.require_block(b).expect("static blocks"), m),
            w,
        )
    })
    .collect()
}

/// The fitted outcome of the hypothetical-circuit pipeline.
#[derive(Debug)]
pub struct FittedHypothetical {
    /// The fine-tuned model, compiled and shared: diagnose on it directly
    /// or hand clones of the [`Arc`] to concurrent sessions.
    pub engine: Arc<CompiledModel>,
    /// The failing-device datalogs used for fine-tuning.
    pub logs: Vec<DeviceLog>,
    /// The generated cases.
    pub cases: Vec<NamedCase>,
    /// Case-generation statistics.
    pub stats: GenerationStats,
}

/// Runs the full flow on the hypothetical circuit: fabricate failing
/// devices, test, generate cases, fine-tune, compile.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn fit(n_failing: usize, seed: u64, algorithm: LearnAlgorithm) -> Result<FittedHypothetical> {
    let circuit = circuit();
    let (program, mapping) = test_program(&circuit);
    let universe = fault_universe(&circuit);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut logs: Vec<DeviceLog> = Vec::new();
    let mut next_id = 0u64;
    while logs.len() < n_failing {
        let devices = sample_defective_devices(&circuit, &universe, 1, next_id, &mut rng);
        next_id += 1;
        let device: Device = devices.into_iter().next().expect("non-empty universe");
        let mut batch = test_population(
            &circuit,
            &program,
            std::slice::from_ref(&device),
            &NoiseModel::production(),
            &mut rng,
        )?;
        let log = batch.pop().expect("one log per device");
        if !log.all_passed() {
            logs.push(log);
        }
    }
    let (cases, stats) = generate_cases(&model_spec(), &mapping, &logs)?;
    // The expert estimate is deliberately strong (the designer's belief
    // resists a few dozen noisy devices): with a weak prior, EM drifts the
    // block4 self-fault leak upwards on the observationally ambiguous
    // block3→block4 chain.
    let fitted = ModelBuilder::new(circuit_model())
        .with_expert(expert_knowledge(40.0))
        .learn(&cases, algorithm)?;
    Ok(FittedHypothetical {
        engine: CompiledModel::compile(fitted)?.shared(),
        logs,
        cases,
        stats,
    })
}

/// Closed-loop scenario on the hypothetical circuit over a sampled fault
/// population: for each fabricated failing device, the sequential
/// diagnoser orders the failing suite's two measurements adaptively and
/// in fixed program order against the live on-demand ATE, both under the
/// same stopping policy. Deterministic for a fixed `seed`.
///
/// With only two outputs the comparison is small, but it exercises the
/// same closed loop the regulator runs at scale — and on the worked
/// example it is easy to see *why* the adaptive order measures `block4`
/// first (block3, the only latent, barely shows through `block2`).
///
/// # Errors
///
/// Propagates fabrication, simulation and diagnosis errors.
pub fn closed_loop_population(
    compiled: &Arc<CompiledModel>,
    n_failing: usize,
    seed: u64,
    policy: StoppingPolicy,
) -> Result<Vec<ClosedLoopReport>> {
    closed_loop_population_with(compiled, n_failing, seed, policy, Strategy::Myopic)
}

/// [`closed_loop_population`] with the adaptive arm selecting
/// measurements under an explicit [`Strategy`] (the fixed-order arm is
/// unaffected — program order never scores).
///
/// # Errors
///
/// Same as [`closed_loop_population`].
pub fn closed_loop_population_with(
    compiled: &Arc<CompiledModel>,
    n_failing: usize,
    seed: u64,
    policy: StoppingPolicy,
    strategy: Strategy,
) -> Result<Vec<ClosedLoopReport>> {
    let circuit = circuit();
    let (program, _) = test_program(&circuit);
    let universe = fault_universe(&circuit);
    let tester = OnDemandTester::new(&circuit, &program).map_err(Error::Ate)?;
    let spec = model_spec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reports = Vec::with_capacity(n_failing);
    let mut next_id = 0u64;
    let mut guard = 0usize;
    while reports.len() < n_failing {
        guard += 1;
        if guard > n_failing * 20 + 100 {
            return Err(Error::Pipeline(
                "fault universe cannot produce enough program-visible failures".into(),
            ));
        }
        let device: Device = sample_defective_devices(&circuit, &universe, 1, next_id, &mut rng)
            .into_iter()
            .next()
            .ok_or_else(|| Error::Pipeline("empty fault universe".into()))?;
        next_id += 1;
        let log = test_population(
            &circuit,
            &program,
            std::slice::from_ref(&device),
            &NoiseModel::production(),
            &mut rng,
        )?
        .pop()
        .expect("one device in, one log out");
        let Some(failing) = log.records.iter().find(|r| !r.passed) else {
            continue; // this defect is invisible to the program; resample
        };
        let suite = failing.suite.clone();
        let si = SUITES
            .iter()
            .position(|s| *s == suite)
            .ok_or_else(|| Error::Pipeline(format!("unknown suite `{suite}`")))?;

        let run = |scripted: bool| -> Result<abbd_core::SequentialOutcome> {
            let mut d = DiagnosisSession::new(Arc::clone(compiled), policy).map_err(Error::Core)?;
            d.set_strategy(strategy).map_err(Error::Core)?;
            d.observe("block1", si).map_err(Error::Core)?;
            d.set_candidates(MEASURABLES).map_err(Error::Core)?;
            let mut session = tester.session(&device, NoiseModel::production(), seed);
            let oracle =
                crate::adaptive::bench_oracle(&mut session, &spec, &MEASURABLES, move |oi| {
                    test_number(si, oi)
                });
            if scripted {
                d.run_scripted(&MEASURABLES, oracle).map_err(Error::Core)
            } else {
                d.run(oracle).map_err(Error::Core)
            }
        };

        let adaptive = match run(false) {
            Ok(outcome) => outcome,
            // An unbinnable reading (NaN operating point) means this
            // device cannot be diagnosed on this bench; resample instead
            // of aborting the population, like invisible defects above.
            Err(Error::Core(abbd_core::Error::Oracle { .. })) => continue,
            Err(e) => return Err(e),
        };
        let fixed = match run(true) {
            Ok(outcome) => outcome,
            Err(Error::Core(abbd_core::Error::Oracle { .. })) => continue,
            Err(e) => return Err(e),
        };
        reports.push(ClosedLoopReport {
            device_id: device.id,
            truth: log.truth.clone(),
            suite,
            adaptive,
            fixed,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_bbn::learn::EmConfig;
    use abbd_blocks::{DeviceFaults, SimConfig, Simulator};
    use abbd_core::Observation;

    #[test]
    fn healthy_operating_points() {
        let c = circuit();
        let sim = Simulator::new(&c, SimConfig::default());
        let mut stim = Stimulus::new();
        stim.force(c.find_net("in1").unwrap(), 6.0);
        stim.force(c.find_net("in2").unwrap(), 6.0);
        let op = sim.solve(&Device::golden(&c), &stim).unwrap();
        let v = |n: &str| op.voltage(c.find_net(n).unwrap());
        assert!((v("out2") - 4.0).abs() < 1e-9);
        assert!((v("n3") - 1.2).abs() < 1e-9);
        assert!((v("out4") - 3.0).abs() < 1e-9);
        // Operational-I: block3 degrades, block4 follows.
        stim.force(c.find_net("in1").unwrap(), 3.0);
        let op = sim.solve(&Device::golden(&c), &stim).unwrap();
        assert!(op.voltage(c.find_net("n3").unwrap()) < 1.1);
    }

    #[test]
    fn program_and_mapping_validate() {
        let c = circuit();
        let (program, mapping) = test_program(&c);
        program.validate(&c).unwrap();
        mapping.validate(&model_spec()).unwrap();
        assert_eq!(program.suite_count(), 3);
        assert_eq!(program.test_count(), 6);
    }

    #[test]
    fn pipeline_diagnoses_block3_failures() {
        let fitted = fit(
            30,
            7,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 10,
                tolerance: 1e-5,
            }),
        )
        .unwrap();
        // A device whose block3 died, observed at Operational-II: block2
        // fine, block4 dead.
        let mut obs = Observation::new();
        obs.set("block1", 2).set("block2", 1).set("block4", 0);
        obs.mark_failing("block4");
        let d = fitted.engine.diagnose(&obs).unwrap();
        assert_eq!(d.top_candidate(), Some("block3"), "{:?}", d.candidates());
    }

    #[test]
    fn healthy_observation_yields_nothing() {
        let fitted = fit(
            30,
            7,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 10,
                tolerance: 1e-5,
            }),
        )
        .unwrap();
        let mut obs = Observation::new();
        obs.set("block1", 2).set("block2", 1).set("block4", 1);
        let d = fitted.engine.diagnose(&obs).unwrap();
        assert!(d.candidates().is_empty(), "{:?}", d.candidates());
    }

    #[test]
    fn closed_loop_population_compares_adaptive_and_fixed() {
        let fitted = fit(
            30,
            7,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 10,
                tolerance: 1e-5,
            }),
        )
        .unwrap();
        let reports =
            closed_loop_population(&fitted.engine, 6, 13, StoppingPolicy::default()).unwrap();
        assert_eq!(reports.len(), 6);
        let summary = crate::adaptive::summarize(&reports);
        assert_eq!(summary.devices, 6);
        assert!(
            summary.adaptive_tests <= summary.fixed_tests,
            "adaptive {} > fixed {}",
            summary.adaptive_tests,
            summary.fixed_tests
        );
        for r in &reports {
            assert!(r.adaptive.tests_used() <= 2);
            assert!(SUITES.contains(&r.suite.as_str()));
        }
    }

    #[test]
    fn lookahead_closed_loop_matches_myopic_on_the_two_test_program() {
        let fitted = fit(
            30,
            7,
            LearnAlgorithm::Em(EmConfig {
                max_iterations: 10,
                tolerance: 1e-5,
            }),
        )
        .unwrap();
        // With only two candidate measurements, a depth-2 plan covers the
        // whole program: the lookahead loop must not spend more than the
        // myopic one.
        let myopic =
            closed_loop_population(&fitted.engine, 4, 13, StoppingPolicy::default()).unwrap();
        let lookahead = closed_loop_population_with(
            &fitted.engine,
            4,
            13,
            StoppingPolicy::default(),
            Strategy::Lookahead { depth: 2 },
        )
        .unwrap();
        let m: usize = myopic.iter().map(|r| r.adaptive.tests_used()).sum();
        let l: usize = lookahead.iter().map(|r| r.adaptive.tests_used()).sum();
        assert!(l <= m, "lookahead {l} > myopic {m}");
        for (a, b) in myopic.iter().zip(&lookahead) {
            assert_eq!(a.device_id, b.device_id);
            assert_eq!(a.fixed.tests_used(), b.fixed.tests_used());
        }
    }

    #[test]
    fn dead_block1_breaks_everything_downstream() {
        let c = circuit();
        let sim = Simulator::new(&c, SimConfig::default());
        let b1 = c.require_block("block1").unwrap();
        let mut dut = Device::golden(&c);
        dut.faults = DeviceFaults::single(Fault::new(b1, FaultMode::Dead));
        let mut stim = Stimulus::new();
        stim.force(c.find_net("in1").unwrap(), 6.0);
        stim.force(c.find_net("in2").unwrap(), 6.0);
        let op = sim.solve(&dut, &stim).unwrap();
        assert!(op.voltage(c.find_net("out2").unwrap()) < 0.2);
        assert!(op.voltage(c.find_net("out4").unwrap()) < 0.2);
    }
}
