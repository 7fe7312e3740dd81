//! The sequential test-and-probe loop on [`DiagnosisSession`]: stopping
//! conditions, candidate management and the adaptive-versus-scripted
//! comparison on the shared toy dead-bias device.

use crate::diagnosis::Observation;
use crate::error::{Error, Result};
use crate::fixtures::toy_compiled_model;
use crate::session::{Action, DiagnosisSession, Outcome, StopReason, StoppingPolicy};

/// A session on the shared pin/bias/load/aux fixture: out1 pins bias
/// tightly, out2 is mushy, out3 only reflects aux (see
/// [`crate::fixtures`]).
fn session(policy: StoppingPolicy) -> DiagnosisSession {
    DiagnosisSession::new(toy_compiled_model(), policy).unwrap()
}

/// A device where bias is dead: out1/out2 read 0, out3 reads 1.
fn dead_bias_oracle(action: &Action) -> Result<Outcome> {
    Ok(match action.target() {
        "out1" | "out2" => Outcome::failing(0),
        "out3" => Outcome::passing(1),
        other => {
            return Err(Error::Oracle {
                variable: other.into(),
                reason: "no such net on the bench".into(),
            })
        }
    })
}

#[test]
fn policy_validation() {
    assert!(StoppingPolicy::default().validate().is_ok());
    assert!(StoppingPolicy::exhaustive().validate().is_ok());
    let bad = StoppingPolicy {
        fault_mass_threshold: 0.0,
        ..Default::default()
    };
    assert!(matches!(
        bad.validate(),
        Err(Error::InvalidStoppingPolicy(_))
    ));
    let bad = StoppingPolicy {
        min_gain: -1.0,
        ..Default::default()
    };
    assert!(matches!(
        DiagnosisSession::new(toy_compiled_model(), bad),
        Err(Error::InvalidStoppingPolicy(_))
    ));
}

#[test]
fn adaptive_loop_isolates_dead_bias_via_the_informative_output() {
    let mut s = session(StoppingPolicy::default());
    s.observe("pin", 1).unwrap();
    let outcome = s.run(dead_bias_oracle).unwrap();
    assert_eq!(outcome.stop, StopReason::Isolated);
    assert_eq!(outcome.diagnosis.top_candidate(), Some("bias"));
    // out1 mirrors bias almost perfectly, so the loop asks for it
    // first and needs nothing else.
    assert_eq!(outcome.applied[0].variable, "out1");
    assert!(outcome.tests_used() < 3, "{:?}", outcome.applied);
    assert!(outcome.applied[0].expected_information_gain.unwrap() > 0.0);
}

#[test]
fn healthy_device_stops_on_gain_floor() {
    let mut s = session(StoppingPolicy {
        // Unreachable isolation: force the gain floor to fire.
        fault_mass_threshold: 1.0,
        max_steps: 32,
        min_gain: 0.3,
    });
    s.observe("pin", 1).unwrap();
    let outcome = s
        .run(|action: &Action| {
            Ok(match action.target() {
                "out1" | "out2" | "out3" => Outcome::passing(1),
                _ => unreachable!(),
            })
        })
        .unwrap();
    assert_eq!(outcome.stop, StopReason::GainBelowThreshold);
    assert!(outcome.diagnosis.candidates().is_empty());
    // Healthy outputs stop carrying information quickly.
    assert!(outcome.tests_used() < 3, "{:?}", outcome.applied);
}

#[test]
fn max_steps_bounds_the_loop() {
    let mut s = session(StoppingPolicy {
        fault_mass_threshold: 1.0,
        max_steps: 1,
        min_gain: 0.0,
    });
    s.observe("pin", 1).unwrap();
    let outcome = s.run(dead_bias_oracle).unwrap();
    assert_eq!(outcome.stop, StopReason::MaxSteps);
    assert_eq!(outcome.tests_used(), 1);
}

#[test]
fn scripted_run_follows_program_order() {
    let mut s = session(StoppingPolicy::exhaustive());
    s.observe("pin", 1).unwrap();
    let outcome = s
        .run_scripted(&["out3", "out2", "out1"], dead_bias_oracle)
        .unwrap();
    assert_eq!(outcome.stop, StopReason::Exhausted);
    let order: Vec<&str> = outcome
        .applied
        .iter()
        .map(|a| a.variable.as_str())
        .collect();
    assert_eq!(order, ["out3", "out2", "out1"]);
    assert!(outcome
        .applied
        .iter()
        .all(|a| a.expected_information_gain.is_none()));
}

#[test]
fn adaptive_uses_no_more_tests_than_scripted_on_this_case() {
    let policy = StoppingPolicy::default();
    let mut adaptive = session(policy);
    adaptive.observe("pin", 1).unwrap();
    let a = adaptive.run(dead_bias_oracle).unwrap();

    let mut fixed = session(policy);
    fixed.observe("pin", 1).unwrap();
    // Program order happens to lead with the least informative test.
    let f = fixed
        .run_scripted(&["out3", "out2", "out1"], dead_bias_oracle)
        .unwrap();
    assert!(
        a.tests_used() <= f.tests_used(),
        "adaptive {} > fixed {}",
        a.tests_used(),
        f.tests_used()
    );
}

#[test]
fn candidate_management_and_errors() {
    let mut s = session(StoppingPolicy::default());
    assert_eq!(s.actions().len(), 3);
    s.set_candidates(["out1", "aux"]).unwrap();
    assert_eq!(s.actions().len(), 2);
    assert!(!s.actions()[0].is_probe(), "out1 is an observable test");
    assert!(s.actions()[1].is_probe(), "aux is a latent probe");
    assert!(matches!(
        s.set_candidates(["ghost"]),
        Err(Error::InvalidAction { .. })
    ));
    assert!(
        matches!(
            s.set_candidates(["out1", "out1"]),
            Err(Error::InvalidAction { .. })
        ),
        "duplicate candidates must be rejected up front"
    );
    s.observe("out1", 1).unwrap();
    assert_eq!(s.actions().len(), 1, "observing a candidate consumes it");
    assert!(matches!(
        s.set_candidates(["out1"]),
        Err(Error::InvalidAction { .. })
    ));
    assert!(matches!(
        s.observe("out1", 9),
        Err(Error::InvalidObservation { .. })
    ));
    assert!(matches!(
        s.observe("ghost", 0),
        Err(Error::InvalidObservation { .. })
    ));
    // Latent candidates are allowed (step-two probe planning).
    let scored = s.rank_actions().unwrap();
    assert_eq!(scored.len(), 1);
    assert_eq!(scored[0].name(), "aux");
    assert!(scored[0].expected_information_gain() >= 0.0);
}

#[test]
fn oracle_failures_propagate() {
    let mut s = session(StoppingPolicy::default());
    s.observe("pin", 1).unwrap();
    let err = s.run(|action: &Action| {
        Err(Error::Oracle {
            variable: action.target().into(),
            reason: "bench on fire".into(),
        })
    });
    assert!(matches!(err, Err(Error::Oracle { .. })));
}

#[test]
fn seeding_from_observation_preserves_failing_marks() {
    let mut seed = Observation::new();
    seed.set("pin", 1).set("out1", 0);
    seed.mark_failing("out1");
    let mut s = session(StoppingPolicy::default());
    s.observe_all(&seed).unwrap();
    assert_eq!(s.observation().failing(), &["out1".to_string()]);
    assert_eq!(s.actions().len(), 2);
    let diag = s.diagnose().unwrap();
    assert_eq!(diag.top_candidate(), Some("bias"));
}
