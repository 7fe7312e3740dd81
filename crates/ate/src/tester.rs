//! The tester harness: runs a program on a device, no-stop-on-fail, and
//! produces a self-contained datalog.

use crate::error::Result;
use crate::program::TestProgram;
use abbd_blocks::{standard_normal, Circuit, Device, SimConfig, Simulator};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Additive measurement noise applied to every voltage reading.
///
/// The base `sigma` models the rack's default voltmeter; per-instrument
/// overrides (keyed by measured net name) model the fact that a real ATE
/// routes different nets through different meters, relays and contactor
/// pins — and that any one of those paths can degrade independently. The
/// scenario engine's degraded-instrument fault mode is expressed here:
/// same device, same limits, one noisy measurement path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// 1-sigma measurement noise in volts for every net without an
    /// override.
    pub sigma: f64,
    /// Per-net sigma overrides `(net name, sigma)`; the last entry for a
    /// net wins.
    #[serde(default)]
    pub overrides: Vec<(String, f64)>,
}

impl NoiseModel {
    /// A noiseless meter.
    pub fn none() -> Self {
        NoiseModel {
            sigma: 0.0,
            overrides: Vec::new(),
        }
    }

    /// A typical production voltmeter (2 mV sigma).
    pub fn production() -> Self {
        NoiseModel {
            sigma: 0.002,
            overrides: Vec::new(),
        }
    }

    /// A uniform meter with the given sigma on every net.
    pub fn uniform(sigma: f64) -> Self {
        NoiseModel {
            sigma,
            overrides: Vec::new(),
        }
    }

    /// Overrides the instrument on `net` with an absolute sigma
    /// (builder style).
    pub fn with_instrument(mut self, net: impl Into<String>, sigma: f64) -> Self {
        self.overrides.push((net.into(), sigma));
        self
    }

    /// A degraded instrument on `net`: the base sigma scaled by `factor`
    /// (builder style). `factor` 1.0 is a healthy path.
    pub fn degraded(self, net: impl Into<String>, factor: f64) -> Self {
        let sigma = self.sigma * factor;
        self.with_instrument(net, sigma)
    }

    /// The effective 1-sigma noise of the instrument measuring `net`.
    pub fn sigma_for(&self, net: &str) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|(n, _)| n == net)
            .map(|&(_, s)| s)
            .unwrap_or(self.sigma)
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::production()
    }
}

/// One datalog row: everything needed to re-evaluate the measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The suite this test ran under.
    pub suite: String,
    /// ATE test number.
    pub test_number: u32,
    /// Test name.
    pub test_name: String,
    /// Measured net name.
    pub net: String,
    /// Lower limit.
    pub lo: f64,
    /// Upper limit.
    pub hi: f64,
    /// Measured value (NaN when the solver failed to converge).
    pub value: f64,
    /// Pass/fail verdict.
    pub passed: bool,
}

/// The full no-stop-on-fail log of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceLog {
    /// Device serial number.
    pub device_id: u64,
    /// Ground-truth fault annotation for synthetic populations
    /// (`block:mode` tags). Diagnosis must never read this; scoring does.
    pub truth: Vec<String>,
    /// Measurement records in program order.
    pub records: Vec<Record>,
}

impl DeviceLog {
    /// `true` when every record passed.
    pub fn all_passed(&self) -> bool {
        self.records.iter().all(|r| r.passed)
    }

    /// Number of failing records.
    pub fn fail_count(&self) -> usize {
        self.records.iter().filter(|r| !r.passed).count()
    }

    /// The records of one suite.
    pub fn suite_records<'a>(&'a self, suite: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.suite == suite)
    }
}

/// Runs `program` on `device`, measuring every test in every suite
/// (no-stop-on-fail, as the paper's flow requires for case generation).
///
/// A suite whose operating point does not converge logs NaN/fail rows for
/// all its tests rather than aborting the device — mirroring how an ATE
/// keeps testing after a dead measurement.
///
/// # Errors
///
/// Returns program-validation errors; simulation non-convergence is
/// captured in the log, not returned.
pub fn test_device<R: Rng + ?Sized>(
    circuit: &Circuit,
    program: &TestProgram,
    device: &Device,
    noise: &NoiseModel,
    rng: &mut R,
) -> Result<DeviceLog> {
    program.validate(circuit)?;
    let sim = Simulator::new(circuit, SimConfig::default());
    let mut records = Vec::with_capacity(program.test_count());
    for suite in program.suites() {
        let op = sim.solve(device, &suite.stimulus);
        for test in &suite.tests {
            let (value, passed) = match &op {
                Ok(op) => {
                    let raw = op.voltage(test.measured);
                    let sigma = noise.sigma_for(circuit.net_name(test.measured));
                    let noisy = if sigma > 0.0 {
                        raw + sigma * standard_normal(rng)
                    } else {
                        raw
                    };
                    (noisy, test.limits.passes(noisy))
                }
                Err(_) => (f64::NAN, false),
            };
            records.push(Record {
                suite: suite.name.clone(),
                test_number: test.number,
                test_name: test.name.clone(),
                net: circuit.net_name(test.measured).into(),
                lo: test.limits.lo,
                hi: test.limits.hi,
                value,
                passed,
            });
        }
    }
    Ok(DeviceLog {
        device_id: device.id,
        truth: device
            .faults
            .iter()
            .map(|f| format!("{}:{}", circuit.block(f.block).name, f.mode.tag()))
            .collect(),
        records,
    })
}

/// Tests a whole population, returning one log per device.
///
/// # Errors
///
/// Propagates [`test_device`] errors.
pub fn test_population<R: Rng + ?Sized>(
    circuit: &Circuit,
    program: &TestProgram,
    devices: &[Device],
    noise: &NoiseModel,
    rng: &mut R,
) -> Result<Vec<DeviceLog>> {
    devices
        .iter()
        .map(|d| test_device(circuit, program, d, noise, rng))
        .collect()
}

/// Convenience: the subset of logs with at least one failing record — the
/// paper's "fail information from defective samples".
pub fn failing_logs(logs: &[DeviceLog]) -> Vec<&DeviceLog> {
    logs.iter().filter(|l| !l.all_passed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Limits, TestDef, TestSuite};
    use abbd_blocks::{Behavior, CircuitBuilder, DeviceFaults, Fault, FaultMode, Stimulus, Window};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn golden_device_passes_everything() {
        let (circuit, program) = rig();
        let mut rng = StdRng::seed_from_u64(2);
        let log = test_device(
            &circuit,
            &program,
            &Device::golden(&circuit),
            &NoiseModel::none(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(log.records.len(), 3);
        assert!(log.all_passed());
        assert_eq!(log.fail_count(), 0);
        assert!(log.truth.is_empty());
        assert_eq!(log.suite_records("enabled").count(), 2);
    }

    #[test]
    fn dead_bandgap_fails_but_testing_continues() {
        let (circuit, program) = rig();
        let bandgap = circuit.find_block("bandgap").unwrap();
        let mut dut = Device::golden(&circuit);
        dut.id = 7;
        dut.faults = DeviceFaults::single(Fault::new(bandgap, FaultMode::Dead));
        let mut rng = StdRng::seed_from_u64(2);
        let log = test_device(&circuit, &program, &dut, &NoiseModel::none(), &mut rng).unwrap();
        assert_eq!(log.device_id, 7);
        assert_eq!(log.records.len(), 3, "no-stop-on-fail keeps all records");
        // vout_reg and vref_nom fail; vout_off still passes (0 V expected).
        assert_eq!(log.fail_count(), 2);
        assert_eq!(log.truth, vec!["bandgap:dead".to_string()]);
    }

    #[test]
    fn per_instrument_override_targets_one_net() {
        let (circuit, program) = rig();
        // A noiseless rack with one badly degraded instrument: only the
        // overridden net's readings move, every other net stays exact.
        let noise = NoiseModel::none().with_instrument("vout", 0.05);
        assert_eq!(noise.sigma_for("vout"), 0.05);
        assert_eq!(noise.sigma_for("vmid"), 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let clean = test_device(
            &circuit,
            &program,
            &Device::golden(&circuit),
            &NoiseModel::none(),
            &mut rng,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let degraded = test_device(
            &circuit,
            &program,
            &Device::golden(&circuit),
            &noise,
            &mut rng,
        )
        .unwrap();
        for (a, b) in clean.records.iter().zip(&degraded.records) {
            if a.net == "vout" {
                assert!((a.value - b.value).abs() > 1e-9, "vout must be perturbed");
            } else {
                assert_eq!(a.value, b.value, "net {} must stay exact", a.net);
            }
        }
        // `degraded` scales the base sigma instead of replacing it.
        let scaled = NoiseModel::production().degraded("vout", 10.0);
        assert!((scaled.sigma_for("vout") - 0.02).abs() < 1e-12);
        assert!((scaled.sigma_for("vmid") - 0.002).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs_measurements() {
        let (circuit, program) = rig();
        let mut rng = StdRng::seed_from_u64(3);
        let clean = test_device(
            &circuit,
            &program,
            &Device::golden(&circuit),
            &NoiseModel::none(),
            &mut rng,
        )
        .unwrap();
        let noisy = test_device(
            &circuit,
            &program,
            &Device::golden(&circuit),
            &NoiseModel::uniform(0.01),
            &mut rng,
        )
        .unwrap();
        let moved = clean
            .records
            .iter()
            .zip(&noisy.records)
            .any(|(a, b)| (a.value - b.value).abs() > 1e-6);
        assert!(moved, "noise must perturb at least one reading");
    }

    #[test]
    fn population_and_failing_filter() {
        let (circuit, program) = rig();
        let bandgap = circuit.find_block("bandgap").unwrap();
        let good = Device::golden(&circuit);
        let mut bad = Device::golden(&circuit);
        bad.id = 1;
        bad.faults = DeviceFaults::single(Fault::new(bandgap, FaultMode::Dead));
        let mut rng = StdRng::seed_from_u64(4);
        let logs = test_population(
            &circuit,
            &program,
            &[good, bad],
            &NoiseModel::none(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(logs.len(), 2);
        let failing = failing_logs(&logs);
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].device_id, 1);
    }
}
