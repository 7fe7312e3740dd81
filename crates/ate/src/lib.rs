//! # abbd-ate — automatic test equipment substrate
//!
//! Specification [`TestProgram`]s (stimulus suites with limit-checked
//! measurements), a no-stop-on-fail tester harness producing per-device
//! [`DeviceLog`]s, and a self-contained ASCII datalog format.
//!
//! The paper's block-level diagnosis consumes "no-stop on fail functional
//! (specification) test data from a sufficiently large number of defective
//! samples"; this crate generates exactly that data from the behavioural
//! simulator in [`abbd_blocks`].
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), abbd_ate::Error> {
//! use abbd_ate::{test_device, Limits, NoiseModel, TestDef, TestProgram, TestSuite};
//! use abbd_blocks::{Behavior, CircuitBuilder, Device, Stimulus};
//! use rand::SeedableRng;
//!
//! let mut cb = CircuitBuilder::new();
//! let vin = cb.net("vin")?;
//! let vout = cb.net("vout")?;
//! cb.block("buf", Behavior::LevelShift { gain: 1.0, offset: 0.0, rail: 5.0 }, [vin], vout)?;
//! let circuit = cb.build()?;
//!
//! let mut stim = Stimulus::new();
//! stim.force(vin, 2.0);
//! let program: TestProgram = [TestSuite {
//!     name: "dc".into(),
//!     stimulus: stim,
//!     tests: vec![TestDef {
//!         number: 100,
//!         name: "vout_dc".into(),
//!         measured: vout,
//!         limits: Limits::new(1.9, 2.1),
//!     }],
//! }]
//! .into_iter()
//! .collect();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let log = test_device(&circuit, &program, &Device::golden(&circuit), &NoiseModel::none(), &mut rng)?;
//! assert!(log.all_passed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datalog;
mod error;
mod ondemand;
mod program;
mod tester;

pub use datalog::{parse_datalog, write_datalog};
pub use error::{Error, Result};
pub use ondemand::{DeviceSession, OnDemandTester};
pub use program::{Limits, TestDef, TestProgram, TestSuite};
pub use tester::{failing_logs, test_device, test_population, DeviceLog, NoiseModel, Record};
