//! The paper's industrial case study end to end: fit the voltage-regulator
//! model on 70 simulated customer returns and replay the five diagnostic
//! case studies of Table VI, printing the Table VII-style report.
//!
//! Run: `cargo run --release --example regulator_diagnosis`

use abbd::core::{render_candidates, render_state_table, Diagnosis};
use abbd::core::{Action, DiagnosisSession, StoppingPolicy};
use abbd::designs::regulator::{self, cases::case_studies};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fitting the voltage-regulator model on 70 failing devices...");
    let fitted = regulator::fit(70, 2010, regulator::default_algorithm())?;
    let summary = fitted.engine.model().summary().expect("learning ran");
    println!(
        "  {} cases, {} EM iterations, final log-likelihood {:.1}",
        summary.case_count,
        summary.iterations,
        summary.objective_trace.last().copied().unwrap_or(f64::NAN)
    );

    let baseline = fitted.engine.baseline()?;
    let studies = case_studies();
    let mut diagnoses: Vec<(String, Diagnosis)> = Vec::new();
    for case in &studies {
        let diagnosis = fitted.engine.diagnose(&case.observation())?;
        diagnoses.push((case.id.to_string(), diagnosis));
    }
    let columns: Vec<(&str, &Diagnosis)> =
        diagnoses.iter().map(|(id, d)| (id.as_str(), d)).collect();

    println!(
        "\n{}",
        render_state_table(fitted.engine.model(), &baseline, &columns)
    );

    for (case, (_, diagnosis)) in studies.iter().zip(&diagnoses) {
        println!(
            "case {} (paper verdict: {}):",
            case.id,
            case.expected_candidates.join(", ")
        );
        print!("{}", render_candidates(diagnosis));
        println!();
    }

    // When two candidates remain (case d1), which block should the failure
    // analyst open first? Open a session on the shared compilation, put
    // every latent on the menu as a probe action, and rank.
    let d1 = &studies[0];
    let mut session = DiagnosisSession::new(
        std::sync::Arc::clone(&fitted.engine),
        StoppingPolicy::default(),
    )?;
    session.observe_all(&d1.observation())?;
    let menu: Vec<Action> = session
        .compiled()
        .latent_names()
        .map(Action::probe)
        .collect();
    session.set_actions(menu)?;
    println!(
        "step-two probe order for case {} (expected information gain):",
        d1.id
    );
    for p in session.rank_actions()?.iter().take(3) {
        println!(
            "  probe {:<10} gain {:.3} nats",
            p.name(),
            p.expected_information_gain()
        );
    }
    Ok(())
}
