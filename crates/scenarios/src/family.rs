//! Stimulus-parameterised test families: sweep a stimulus grid, get a
//! test program, model variables, and a candidate menu.
//!
//! The paper's programs pick a handful of hand-chosen stimulus corners;
//! a [`TestFamily`] instead declares *axes* (supply from 6 V to 20 V in
//! six steps, enable low/high, …) and [`TestFamily::discretize`] expands
//! the grid: one [`abbd_ate::TestSuite`] per grid point, one
//! limit-checked test per measured output, one 3-band `Observe` model
//! variable and one `Action::Test` candidate per test. A 6 × 2 grid over
//! five outputs hands `rank_actions` a 60-candidate menu — the regime
//! where value-of-information planning, suite-switch pricing and the
//! zero-allocation decision loop actually get exercised.
//!
//! Limits and bands are derived from the *golden device*: the family
//! solves the healthy circuit at every grid point and brackets each
//! measurement with `±tolerance` (pass band) inside `±span` (low/high
//! fault bands), so families transfer across designs without hand-tuned
//! limit tables.

use crate::error::{Error, Result};
use abbd_ate::{DeviceSession, Limits, OnDemandTester, TestDef, TestProgram, TestSuite};
use abbd_blocks::{Circuit, Device, SimConfig, Simulator, Stimulus};
use abbd_core::{Action, CostModel, Outcome};
use abbd_dlog2bbn::{FunctionalType, ModelSpec, StateBand, VariableSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One swept stimulus dimension: an input net and the values it takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StimulusAxis {
    /// The forced input net.
    pub net: String,
    /// The grid values, in sweep order.
    pub values: Vec<f64>,
}

impl StimulusAxis {
    /// Convenience constructor.
    pub fn new(net: impl Into<String>, values: impl Into<Vec<f64>>) -> Self {
        StimulusAxis {
            net: net.into(),
            values: values.into(),
        }
    }
}

/// One measured output: the net, the pass tolerance around the golden
/// reading, and the outer span bounding the low/high fault bands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyMeasure {
    /// The measured net.
    pub net: String,
    /// Half-width of the pass band around the golden voltage.
    pub tolerance: f64,
    /// Half-width of the full banded range (must exceed `tolerance`).
    pub span: f64,
}

impl FamilyMeasure {
    /// Convenience constructor.
    pub fn new(net: impl Into<String>, tolerance: f64, span: f64) -> Self {
        FamilyMeasure {
            net: net.into(),
            tolerance,
            span,
        }
    }
}

/// A stimulus-parameterised family of specification tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestFamily {
    /// Family name — prefixes suite and variable names.
    pub name: String,
    /// Fixed stimulus applied at every grid point.
    pub base: Vec<(String, f64)>,
    /// Swept axes; the grid is their cartesian product (last axis
    /// fastest).
    pub axes: Vec<StimulusAxis>,
    /// Outputs measured at every grid point.
    pub measures: Vec<FamilyMeasure>,
    /// ATE number of the first generated test; the rest are consecutive.
    pub first_test_number: u32,
    /// Seconds one in-suite test execution costs.
    pub test_seconds: f64,
    /// Seconds one stimulus (suite) switch costs.
    pub suite_switch_seconds: f64,
}

impl TestFamily {
    /// A family with no axes yet (builder style).
    pub fn new(name: impl Into<String>) -> Self {
        TestFamily {
            name: name.into(),
            base: Vec::new(),
            axes: Vec::new(),
            measures: Vec::new(),
            first_test_number: 1000,
            test_seconds: 1.0,
            suite_switch_seconds: 5.0,
        }
    }

    /// Fixes an input net at every grid point.
    pub fn hold(mut self, net: impl Into<String>, volts: f64) -> Self {
        self.base.push((net.into(), volts));
        self
    }

    /// Adds a swept axis.
    pub fn sweep(mut self, axis: StimulusAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Adds a measured output.
    pub fn measure(mut self, measure: FamilyMeasure) -> Self {
        self.measures.push(measure);
        self
    }

    /// Sets the family's ATE timing (test, suite-switch seconds).
    pub fn timing(mut self, test_seconds: f64, suite_switch_seconds: f64) -> Self {
        self.test_seconds = test_seconds;
        self.suite_switch_seconds = suite_switch_seconds;
        self
    }

    /// Number of grid points (product of axis lengths).
    pub fn grid_size(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Number of generated candidates (`grid_size × measures`).
    pub fn candidate_count(&self) -> usize {
        self.grid_size() * self.measures.len()
    }

    /// The stimulus values of grid point `p`, one per axis, with the
    /// last axis varying fastest.
    fn point(&self, p: usize) -> Vec<f64> {
        let mut values = vec![0.0; self.axes.len()];
        let mut rest = p;
        for (i, axis) in self.axes.iter().enumerate().rev() {
            let n = axis.values.len();
            values[i] = axis.values[rest % n];
            rest /= n;
        }
        values
    }

    /// Expands the grid against a circuit: solves the golden device at
    /// every point, derives limits and bands from the golden readings,
    /// and emits the suite-per-point test program plus the matching
    /// model variables and candidate actions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Blocks`] for unknown nets, and
    /// [`Error::Scenario`] when the family is degenerate (no axes, no
    /// measures, a tolerance not below its span) or the golden device
    /// does not converge at a grid point — a family whose healthy
    /// reference is undefined cannot set limits.
    pub fn discretize(&self, circuit: &Circuit) -> Result<FamilyProgram> {
        if self.grid_size() == 0 {
            return Err(Error::Scenario(format!(
                "family `{}` has an empty stimulus grid",
                self.name
            )));
        }
        if self.measures.is_empty() {
            return Err(Error::Scenario(format!(
                "family `{}` measures nothing",
                self.name
            )));
        }
        for m in &self.measures {
            if !(m.tolerance > 0.0 && m.span > m.tolerance) {
                return Err(Error::Scenario(format!(
                    "family `{}`: measure `{}` needs 0 < tolerance < span",
                    self.name, m.net
                )));
            }
        }
        let golden = Device::golden(circuit);
        let sim = Simulator::new(circuit, SimConfig::default());
        let mut suites = Vec::with_capacity(self.grid_size());
        let mut variables = Vec::with_capacity(self.candidate_count());
        let mut var_test = Vec::with_capacity(self.candidate_count());
        for p in 0..self.grid_size() {
            let values = self.point(p);
            let mut stimulus = Stimulus::new();
            for (net, volts) in &self.base {
                stimulus.force(circuit.require_net(net)?, *volts);
            }
            for (axis, volts) in self.axes.iter().zip(&values) {
                stimulus.force(circuit.require_net(&axis.net)?, *volts);
            }
            let op = sim.solve(&golden, &stimulus).map_err(|e| {
                Error::Scenario(format!(
                    "family `{}`: golden device does not converge at grid point {p}: {e}",
                    self.name
                ))
            })?;
            let suite_name = format!("{}#{p:02}", self.name);
            let mut tests = Vec::with_capacity(self.measures.len());
            for (mi, m) in self.measures.iter().enumerate() {
                let net = circuit.require_net(&m.net)?;
                let g = op.voltage(net);
                if !g.is_finite() {
                    return Err(Error::Scenario(format!(
                        "family `{}`: golden reading on `{}` is not finite at grid point {p}",
                        self.name, m.net
                    )));
                }
                let number = self.first_test_number + (p * self.measures.len() + mi) as u32;
                let var_name = format!("{}{p:02}_{}", self.name, m.net);
                tests.push(TestDef {
                    number,
                    name: var_name.clone(),
                    measured: net,
                    limits: Limits::new(g - m.tolerance, g + m.tolerance),
                });
                // Non-overlapping bands: the pass band owns its
                // boundaries, so low/high stop a hair outside them.
                let eps = 1e-9_f64.max(m.tolerance * 1e-9);
                variables.push(VariableSpec {
                    name: var_name.clone(),
                    ftype: FunctionalType::Observe,
                    bands: vec![
                        StateBand::new("0", g - m.span, g - m.tolerance - eps, "fail low"),
                        StateBand::new("1", g - m.tolerance, g + m.tolerance, "pass"),
                        StateBand::new("2", g + m.tolerance + eps, g + m.span, "fail high"),
                    ],
                    ckt_ref: None,
                });
                var_test.push((var_name, number, p));
            }
            suites.push(TestSuite {
                name: suite_name,
                stimulus,
                tests,
            });
        }
        let program: TestProgram = suites.into_iter().collect();
        program.validate(circuit)?;
        Ok(FamilyProgram {
            family: self.name.clone(),
            test_seconds: self.test_seconds,
            suite_switch_seconds: self.suite_switch_seconds,
            program,
            variables,
            var_test,
        })
    }
}

/// A discretised family: the executable program, the model variables it
/// observes, and the candidate menu it offers the planner.
#[derive(Debug, Clone)]
pub struct FamilyProgram {
    /// The generating family's name.
    pub family: String,
    /// Seconds one in-suite test execution costs.
    pub test_seconds: f64,
    /// Seconds one stimulus (suite) switch costs.
    pub suite_switch_seconds: f64,
    /// One suite per grid point, validated against the circuit.
    pub program: TestProgram,
    /// One 3-band `Observe` variable per generated test (fault states
    /// `0` = fail low, `2` = fail high; `1` passes).
    pub variables: Vec<VariableSpec>,
    /// `(variable, ATE test number, grid-point / suite index)` triples
    /// in generation order.
    pub var_test: Vec<(String, u32, usize)>,
}

impl FamilyProgram {
    /// The candidate menu: one `Action::Test` per generated variable, in
    /// generation order — feed straight to
    /// `DiagnosisSession::set_actions`.
    pub fn actions(&self) -> Vec<Action> {
        self.var_test
            .iter()
            .map(|(var, _, _)| Action::test(var.clone()))
            .collect()
    }

    /// The per-family cost model: every candidate priced at the family's
    /// test time, suite switches at the family's switch time, and each
    /// variable assigned to its grid point's suite so `rank_actions`
    /// discounts staying under the applied stimulus.
    ///
    /// # Errors
    ///
    /// Propagates cost-model validation errors.
    pub fn cost_model(&self, probe_seconds: f64) -> Result<CostModel> {
        let mut cost = CostModel::new(self.test_seconds, self.suite_switch_seconds, probe_seconds)?;
        for (var, _, suite) in &self.var_test {
            cost.assign_suite(var.clone(), *suite);
        }
        Ok(cost)
    }

    /// A measurement executor answering the family's candidates from a
    /// live [`DeviceSession`]: executes the mapped ATE test, bins the
    /// reading with the spec's bands (out-of-band readings clamp to the
    /// nearer fail state; non-converged readings fail low), and reports
    /// the ATE pass/fail verdict as the failing flag.
    pub fn executor<'s>(
        &self,
        spec: &'s ModelSpec,
        mut session: DeviceSession<'s, 's>,
    ) -> impl FnMut(&Action) -> abbd_core::Result<Outcome> + 's {
        let by_var: HashMap<String, u32> = self
            .var_test
            .iter()
            .map(|(var, number, _)| (var.clone(), *number))
            .collect();
        move |action: &Action| {
            let target = action.target();
            let Some(&number) = by_var.get(target) else {
                return Err(abbd_core::Error::Oracle {
                    variable: target.to_string(),
                    reason: "not a candidate of this test family".into(),
                });
            };
            let record = session
                .execute(number)
                .map_err(|e| abbd_core::Error::Oracle {
                    variable: target.to_string(),
                    reason: e.to_string(),
                })?;
            let var = spec.require(target).map_err(|e| abbd_core::Error::Oracle {
                variable: target.to_string(),
                reason: e.to_string(),
            })?;
            let state = match var.bin(record.value) {
                Some(s) => s,
                None if record.value.is_finite() && record.value > var.bands[1].hi => 2,
                None => 0,
            };
            Ok(Outcome {
                state,
                failing: !record.passed,
            })
        }
    }

    /// The tester the executor runs on (validates the program once).
    ///
    /// # Errors
    ///
    /// Propagates program-validation errors.
    pub fn tester<'a>(&'a self, circuit: &'a Circuit) -> Result<OnDemandTester<'a>> {
        Ok(OnDemandTester::new(circuit, &self.program)?)
    }
}
