//! On-demand test execution: run *individual* tests out of program order.
//!
//! The batch harness ([`crate::test_device`]) sweeps a whole program in
//! declaration order — the paper's no-stop-on-fail case-generation flow.
//! Closed-loop sequential diagnosis inverts the control: the diagnoser
//! decides which test to run next, and the tester must answer exactly
//! that one measurement. [`OnDemandTester`] validates a program once and
//! hands out per-device [`DeviceSession`]s; a session solves each suite's
//! operating point lazily and caches it, so re-measuring under the same
//! stimulus costs one voltage read plus a noise draw — the way a real ATE
//! keeps the stimulus applied while the host decides what to measure.

use crate::error::{Error, Result};
use crate::program::{TestDef, TestProgram, TestSuite};
use crate::tester::{NoiseModel, Record};
use abbd_blocks::{standard_normal, Circuit, Device, OperatingPoint, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A validated program bound to a circuit, ready to execute single tests.
#[derive(Debug)]
pub struct OnDemandTester<'a> {
    circuit: &'a Circuit,
    program: &'a TestProgram,
    sim: Simulator<'a>,
}

impl<'a> OnDemandTester<'a> {
    /// Validates `program` against `circuit` and builds the tester.
    ///
    /// # Errors
    ///
    /// Returns program-validation errors.
    pub fn new(circuit: &'a Circuit, program: &'a TestProgram) -> Result<Self> {
        program.validate(circuit)?;
        Ok(OnDemandTester {
            circuit,
            program,
            sim: Simulator::new(circuit, SimConfig::default()),
        })
    }

    /// The program this tester executes from.
    pub fn program(&self) -> &TestProgram {
        self.program
    }

    /// Opens a measurement session on one device. Each device gets its own
    /// noise stream, seeded from `seed ^ (device id × 0x9e37_79b9_7f4a_7c15)`
    /// so device streams never collide: a re-run with the same `seed`
    /// reproduces the same readings regardless of the order in which
    /// devices are measured.
    pub fn session<'d>(
        &'d self,
        device: &'d Device,
        noise: NoiseModel,
        seed: u64,
    ) -> DeviceSession<'d, 'a> {
        DeviceSession {
            tester: self,
            device,
            noise,
            rng: StdRng::seed_from_u64(seed ^ device.id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ops: vec![None; self.program.suite_count()],
            records: Vec::new(),
            active_suite: None,
            stimulus_switches: 0,
        }
    }

    /// The index of the stimulus suite containing a test — the cost hook
    /// adaptive planners use to price suite switches before choosing
    /// (e.g. feeding `abbd_core::CostModel::assign_suite`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTest`] for a number the program does not
    /// contain.
    pub fn suite_index_of(&self, number: u32) -> Result<usize> {
        self.locate(number).map(|(si, _, _)| si)
    }

    /// Suite index, suite and test definition for a test number.
    fn locate(&self, number: u32) -> Result<(usize, &TestSuite, &TestDef)> {
        self.program
            .suites()
            .iter()
            .enumerate()
            .find_map(|(si, suite)| {
                suite
                    .tests
                    .iter()
                    .find(|t| t.number == number)
                    .map(|t| (si, suite, t))
            })
            .ok_or(Error::UnknownTest(number))
    }
}

/// One device on the bench: executes chosen tests, caching each suite's
/// solved operating point so stimulus changes are only paid when the
/// chosen test actually needs a different configuration.
#[derive(Debug)]
pub struct DeviceSession<'d, 'a> {
    tester: &'d OnDemandTester<'a>,
    device: &'d Device,
    noise: NoiseModel,
    rng: StdRng,
    /// Per-suite cache: `None` = not solved yet, `Some(None)` = the
    /// operating point did not converge (tests under it read NaN/fail,
    /// mirroring [`crate::test_device`]).
    ops: Vec<Option<Option<OperatingPoint>>>,
    records: Vec<Record>,
    /// The suite of the most recently executed test (the stimulus
    /// currently applied on the bench).
    active_suite: Option<usize>,
    /// Times the active stimulus changed between consecutive executions.
    stimulus_switches: usize,
}

impl DeviceSession<'_, '_> {
    /// Executes one test by ATE number — in any order, any number of
    /// times (each execution draws fresh measurement noise).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTest`] for a number the program does not
    /// contain. Non-convergence is *not* an error: the record carries
    /// NaN and a fail verdict, like the batch harness.
    pub fn execute(&mut self, number: u32) -> Result<Record> {
        let (si, suite, test) = self.tester.locate(number)?;
        if self.active_suite.is_some_and(|cur| cur != si) {
            self.stimulus_switches += 1;
        }
        self.active_suite = Some(si);
        if self.ops[si].is_none() {
            self.ops[si] = Some(self.tester.sim.solve(self.device, &suite.stimulus).ok());
        }
        let (value, passed) = match self.ops[si].as_ref().expect("just solved") {
            Some(op) => {
                let raw = op.voltage(test.measured);
                let sigma = self
                    .noise
                    .sigma_for(self.tester.circuit.net_name(test.measured));
                let noisy = if sigma > 0.0 {
                    raw + sigma * standard_normal(&mut self.rng)
                } else {
                    raw
                };
                (noisy, test.limits.passes(noisy))
            }
            None => (f64::NAN, false),
        };
        let record = Record {
            suite: suite.name.clone(),
            test_number: test.number,
            test_name: test.name.clone(),
            net: self.tester.circuit.net_name(test.measured).into(),
            lo: test.limits.lo,
            hi: test.limits.hi,
            value,
            passed,
        };
        self.records.push(record.clone());
        Ok(record)
    }

    /// Reads the voltage of an arbitrary circuit net under the currently
    /// applied stimulus — the paper's *step two* physical probe, answered
    /// by the virtual bench. Unlike [`DeviceSession::execute`] this is
    /// not a specification test: there is no test number, no limits and
    /// no datalog record, just the node voltage an FIB/SEM probe (or a
    /// bench needle) would see. The caller bins and prices it.
    ///
    /// Probing rides the applied stimulus: if no suite has been applied
    /// yet, the first suite's operating point is solved (a probe needs a
    /// powered device), and that suite becomes the active one. Probing
    /// never counts as a stimulus switch. A non-converged operating point
    /// reads `NaN`, mirroring how failed tests read.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNet`] for a net outside the circuit.
    pub fn probe_net(&mut self, net: abbd_blocks::NetId) -> Result<f64> {
        if net.index() >= self.tester.circuit.net_count() {
            return Err(Error::UnknownNet(format!("{net}")));
        }
        let si = self.active_suite.unwrap_or(0);
        self.active_suite = Some(si);
        if self.ops[si].is_none() {
            let suite = &self.tester.program.suites()[si];
            self.ops[si] = Some(self.tester.sim.solve(self.device, &suite.stimulus).ok());
        }
        Ok(match self.ops[si].as_ref().expect("just solved") {
            Some(op) => op.voltage(net),
            None => f64::NAN,
        })
    }

    /// Every record taken in this session, in execution order (the
    /// out-of-order datalog of an adaptive run).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of distinct stimulus configurations solved so far — the
    /// expensive part of out-of-order execution an adaptive loop tries to
    /// minimise alongside test count.
    pub fn suites_touched(&self) -> usize {
        self.ops.iter().filter(|o| o.is_some()).count()
    }

    /// The suite of the most recently executed test — the stimulus
    /// currently applied on the bench, `None` before the first execution.
    /// Seed `abbd_core::CostModel::set_current_suite` from this so
    /// planner-side switch accounting matches the bench.
    pub fn active_suite(&self) -> Option<usize> {
        self.active_suite
    }

    /// How many times the applied stimulus changed between consecutive
    /// executions. Unlike [`DeviceSession::suites_touched`] this charges
    /// *returning* to an already-solved suite too: the operating point is
    /// cached, but a real ATE still pays the reconfiguration and settling
    /// time every time the stimulus swaps — which is exactly what a
    /// cost-aware test plan minimises.
    pub fn stimulus_switches(&self) -> usize {
        self.stimulus_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Limits, TestDef, TestSuite};
    use crate::tester::test_device;
    use abbd_blocks::{Behavior, CircuitBuilder, DeviceFaults, Fault, FaultMode, Stimulus, Window};

    fn rig() -> (Circuit, TestProgram) {
        let mut cb = CircuitBuilder::new();
        let vbat = cb.net("vbat").unwrap();
        let en = cb.net("en").unwrap();
        let vref = cb.net("vref").unwrap();
        let vout = cb.net("vout").unwrap();
        cb.block(
            "bandgap",
            Behavior::Reference {
                nominal: 1.2,
                min_supply: 4.0,
            },
            [vbat],
            vref,
        )
        .unwrap();
        cb.block(
            "reg",
            Behavior::Regulator {
                nominal: 5.0,
                dropout: 0.5,
                enable_threshold: 2.0,
                reference: Window::new(1.1, 1.3),
            },
            [vbat, en, vref],
            vout,
        )
        .unwrap();
        let circuit = cb.build().unwrap();

        let mut on = Stimulus::new();
        on.force(vbat, 12.0);
        on.force(en, 3.3);
        let mut off = Stimulus::new();
        off.force(vbat, 12.0);
        off.force(en, 0.0);
        let program: TestProgram = [
            TestSuite {
                name: "enabled".into(),
                stimulus: on,
                tests: vec![
                    TestDef {
                        number: 100,
                        name: "vout_reg".into(),
                        measured: vout,
                        limits: Limits::new(4.75, 5.25),
                    },
                    TestDef {
                        number: 110,
                        name: "vref_nom".into(),
                        measured: vref,
                        limits: Limits::new(1.1, 1.3),
                    },
                ],
            },
            TestSuite {
                name: "disabled".into(),
                stimulus: off,
                tests: vec![TestDef {
                    number: 200,
                    name: "vout_off".into(),
                    measured: vout,
                    limits: Limits::new(-0.1, 0.1),
                }],
            },
        ]
        .into_iter()
        .collect();
        (circuit, program)
    }

    #[test]
    fn out_of_order_execution_matches_program_order_values() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let golden = Device::golden(&circuit);
        let mut session = tester.session(&golden, NoiseModel::none(), 5);
        // Reverse program order, crossing a suite boundary both ways.
        for number in [200, 110, 100] {
            let r = session.execute(number).unwrap();
            assert!(r.passed, "golden device fails test {number}: {r:?}");
        }
        assert_eq!(session.records().len(), 3);
        assert_eq!(session.suites_touched(), 2);

        // Noiseless on-demand values equal the batch harness's.
        let mut rng = StdRng::seed_from_u64(9);
        let log = test_device(&circuit, &program, &golden, &NoiseModel::none(), &mut rng).unwrap();
        for record in session.records() {
            let batch = log
                .records
                .iter()
                .find(|r| r.test_number == record.test_number)
                .unwrap();
            assert_eq!(record.value, batch.value);
            assert_eq!(record.suite, batch.suite);
        }
    }

    #[test]
    fn operating_points_are_cached_per_suite() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let golden = Device::golden(&circuit);
        let mut session = tester.session(&golden, NoiseModel::none(), 5);
        session.execute(100).unwrap();
        assert_eq!(session.suites_touched(), 1);
        session.execute(110).unwrap();
        assert_eq!(session.suites_touched(), 1, "same suite, cached op");
        session.execute(200).unwrap();
        assert_eq!(session.suites_touched(), 2);
    }

    #[test]
    fn faulty_device_fails_on_demand_too() {
        let (circuit, program) = rig();
        let bandgap = circuit.find_block("bandgap").unwrap();
        let mut dut = Device::golden(&circuit);
        dut.id = 3;
        dut.faults = DeviceFaults::single(Fault::new(bandgap, FaultMode::Dead));
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let mut session = tester.session(&dut, NoiseModel::none(), 5);
        assert!(!session.execute(110).unwrap().passed, "vref is dead");
        assert!(session.execute(200).unwrap().passed, "off state still 0 V");
    }

    #[test]
    fn suite_hooks_track_switches_and_active_suite() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        assert_eq!(tester.suite_index_of(100).unwrap(), 0);
        assert_eq!(tester.suite_index_of(200).unwrap(), 1);
        assert!(matches!(
            tester.suite_index_of(999),
            Err(Error::UnknownTest(999))
        ));

        let golden = Device::golden(&circuit);
        let mut session = tester.session(&golden, NoiseModel::none(), 5);
        assert_eq!(session.active_suite(), None);
        assert_eq!(session.stimulus_switches(), 0);
        session.execute(100).unwrap();
        assert_eq!(session.active_suite(), Some(0));
        assert_eq!(session.stimulus_switches(), 0, "first stimulus is setup");
        session.execute(110).unwrap();
        assert_eq!(session.stimulus_switches(), 0, "same suite");
        session.execute(200).unwrap();
        assert_eq!(session.active_suite(), Some(1));
        assert_eq!(session.stimulus_switches(), 1);
        // Returning to a cached suite still swaps the stimulus.
        session.execute(100).unwrap();
        assert_eq!(session.stimulus_switches(), 2);
        assert_eq!(session.suites_touched(), 2, "ops stay cached");
    }

    #[test]
    fn probe_net_reads_internal_nodes_without_datalog_records() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let golden = Device::golden(&circuit);
        let vref = circuit.find_net("vref").unwrap();
        let mut session = tester.session(&golden, NoiseModel::none(), 5);
        // Probing before any test powers the first suite and reads the
        // true node voltage, noise-free and record-free.
        let v = session.probe_net(vref).unwrap();
        assert!((v - 1.2).abs() < 1e-9, "bandgap reads {v}");
        assert_eq!(session.active_suite(), Some(0));
        assert!(session.records().is_empty(), "probes leave no datalog");
        assert_eq!(session.stimulus_switches(), 0, "probes ride the stimulus");
        // After switching suites, the probe sees the new stimulus.
        session.execute(200).unwrap();
        let v_off = session.probe_net(vref).unwrap();
        assert!(v_off < 1.3, "vref under the disabled suite reads {v_off}");
        assert_eq!(session.stimulus_switches(), 1, "only the test switched");
        // Nets outside the circuit are rejected.
        let bogus = abbd_blocks::NetId::from_index(circuit.net_count());
        assert!(matches!(
            session.probe_net(bogus),
            Err(Error::UnknownNet(_))
        ));
    }

    #[test]
    fn unknown_test_numbers_are_rejected() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let golden = Device::golden(&circuit);
        let mut session = tester.session(&golden, NoiseModel::none(), 5);
        assert!(matches!(session.execute(999), Err(Error::UnknownTest(999))));
    }

    #[test]
    fn repeated_execution_redraws_noise_deterministically() {
        let (circuit, program) = rig();
        let tester = OnDemandTester::new(&circuit, &program).unwrap();
        let golden = Device::golden(&circuit);
        let run = |seed| {
            let mut s = tester.session(&golden, NoiseModel::production(), seed);
            (s.execute(100).unwrap().value, s.execute(100).unwrap().value)
        };
        let (a1, a2) = run(7);
        let (b1, b2) = run(7);
        assert_ne!(a1, a2, "each execution draws fresh noise");
        assert_eq!((a1, a2), (b1, b2), "sessions are seed-deterministic");
    }
}
