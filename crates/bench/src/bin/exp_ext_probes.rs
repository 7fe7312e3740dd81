//! Extension experiment: probe planning for the paper's step two. For
//! each Table VI case, rank the internal blocks by the expected
//! information gained from physically probing them (FIB/SEM time is the
//! expensive resource the paper's flow tries to focus).
//!
//! Run: `cargo run --release -p abbd-bench --bin exp_ext_probes`

use abbd_core::{Action, DiagnosisSession, StoppingPolicy};
use abbd_designs::regulator::{self, cases::case_studies};
use std::sync::Arc;

fn main() {
    let fitted =
        regulator::fit(70, 2010, regulator::default_algorithm()).expect("regulator pipeline");
    println!("EXT-PROBES — expected information gain of probing each internal block\n");
    for case in case_studies() {
        let mut session =
            DiagnosisSession::new(Arc::clone(&fitted.engine), StoppingPolicy::default())
                .expect("session opens");
        session
            .observe_all(&case.observation())
            .expect("case seeds");
        let menu: Vec<Action> = session
            .compiled()
            .latent_names()
            .map(Action::probe)
            .collect();
        session.set_actions(menu).expect("probe menu");
        let shown: Vec<String> = session
            .rank_actions()
            .expect("probe ranking")
            .iter()
            .take(4)
            .map(|p| format!("{}({:.3})", p.name(), p.expected_information_gain()))
            .collect();
        println!(
            "{}: paper verdict [{}] -> probe order: {}",
            case.id,
            case.expected_candidates.join(", "),
            shown.join("  ")
        );
    }
    println!(
        "\nreading: in d1 the method cannot separate warnvpst from hcbg from \
         the ATE data alone; the probe ranking shows which block to open \
         first to resolve the ambiguity."
    );
}
