//! The unified `DiagnosisSession` API end to end: compile the regulator
//! model once, share the `CompiledModel` across threads, and run one
//! mixed tests-plus-probes closed loop against the virtual bench —
//! finishing with the serde service boundary (`SessionRequest` /
//! `SessionReport`) a diagnosis server would speak.
//!
//! Run with: `cargo run --release --example diagnosis_session`

use abbd::core::{Action, DiagnosisSession, SessionRequest, StopReason, StoppingPolicy, Strategy};
use abbd::designs::regulator::{
    self,
    adaptive::{mixed_case_study, mixed_cost_model, two_phase_case_study},
};
use std::sync::Arc;
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fitting the regulator model on 30 failing devices...");
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm())?;
    // One compilation artifact, shared by everything below.
    let compiled = Arc::clone(&fitted.engine);

    // -- 1. Concurrent serving: one Arc, many sessions, zero recompiles.
    println!("\n== serving four devices concurrently off one compilation ==");
    let d2 = regulator::cases::case_studies().swap_remove(1);
    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let compiled = Arc::clone(&compiled);
            let observation = d2.observation();
            thread::spawn(move || {
                let mut session =
                    DiagnosisSession::new(compiled, StoppingPolicy::default()).unwrap();
                session.observe_all(&observation).unwrap();
                let verdict = session.diagnose().unwrap();
                (worker, verdict.top_candidate().map(str::to_string))
            })
        })
        .collect();
    for handle in handles {
        let (worker, top) = handle.join().expect("worker serves");
        println!("  worker {worker}: top candidate {top:?}");
    }

    // -- 2. The mixed candidate set: tests and probes, one ranking.
    println!("\n== case d1: electrical tests and bench probes in one loop ==");
    let d1 = &regulator::cases::case_studies()[0];
    let strict = StoppingPolicy {
        fault_mass_threshold: 0.995,
        max_steps: 32,
        min_gain: 0.0,
    };
    let (unified, _trace) = mixed_case_study(
        &fitted.engine,
        d1,
        strict,
        Strategy::CostWeighted,
        mixed_cost_model(),
    )?;
    for step in &unified.applied {
        println!(
            "  measured {:<9} state {} ({:.1} s)",
            step.variable,
            step.state,
            step.cost.unwrap_or(0.0)
        );
    }
    println!(
        "  unified: {} measurements, {:.1} tester-seconds, stop {:?}, verdict {:?}",
        unified.tests_used(),
        unified.tester_seconds(),
        unified.stop,
        unified.diagnosis.top_candidate(),
    );
    let (step_one, step_two) = two_phase_case_study(
        &fitted.engine,
        d1,
        strict,
        Strategy::CostWeighted,
        mixed_cost_model(),
    )?;
    println!(
        "  legacy two-phase: {} measurements, {:.1} tester-seconds to the same verdict",
        step_one.tests_used() + step_two.tests_used(),
        step_one.tester_seconds() + step_two.tester_seconds(),
    );

    // -- 3. The service boundary: one serde round trip per decision.
    println!("\n== one SessionRequest/SessionReport service round ==");
    let mut request = SessionRequest::new(d1.observation());
    request.actions = compiled.latent_names().map(Action::probe).collect();
    let report = compiled.serve(&request)?;
    println!(
        "  {} bytes of request, {} bytes of report",
        serde_json::to_string(&request)?.len(),
        serde_json::to_string(&report)?.len(),
    );
    println!(
        "  top candidate {:?}, next action {:?}, stop {:?}",
        report.top_candidate,
        report.ranked.first().map(|r| &r.action),
        report.stop.unwrap_or(StopReason::Exhausted),
    );
    Ok(())
}
