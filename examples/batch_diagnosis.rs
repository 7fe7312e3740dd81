//! Batch diagnosis: many boards, one compiled model.
//!
//! Fits the regulator model once, then diagnoses a whole synthetic return
//! floor through one `POST …/diagnose_batch` request to an in-process
//! server — the serving shape for heavy ATE traffic, fanned across the
//! server's worker pool. Compares wall time and verdict agreement against
//! a library loop of `CompiledModel::diagnose_with_policy_in` over one
//! reused workspace.
//!
//! Run with: `cargo run --release --example batch_diagnosis`

use abbd::core::Observation;
use abbd::designs::regulator;
use abbd::server::{BatchReply, BatchRequest, Client, ModelRegistry, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fitting the regulator model on 30 failing devices...");
    let fitted = regulator::fit(30, 2010, regulator::default_algorithm())?;
    let compiled = Arc::clone(&fitted.engine);

    // A return floor: every (device, suite) case with a failing output.
    let observations: Vec<Observation> = fitted
        .cases
        .iter()
        .filter(|c| !c.failing.is_empty())
        .map(Observation::from)
        .collect();
    println!(
        "{} failing-board observations to diagnose\n",
        observations.len()
    );

    // Each board's verdict is its top candidate, or `None` when the board
    // failed to diagnose.
    let t = Instant::now();
    let mut ws = compiled.make_workspace();
    let sequential: Vec<Option<Option<String>>> = observations
        .iter()
        .map(|o| {
            let evidence = compiled.evidence_from(o).ok()?;
            let diagnosis = compiled
                .diagnose_with_policy_in(&mut ws, o, &evidence, compiled.policy())
                .ok()?;
            Some(diagnosis.top_candidate().map(str::to_string))
        })
        .collect();
    let t_seq = t.elapsed();

    let registry = ModelRegistry::new()
        .insert("regulator", Arc::clone(&compiled))
        .freeze();
    let server = Server::start(registry, ServerConfig::default())?;
    let mut client = Client::connect(server.addr())?;
    let request = serde_json::to_string(&BatchRequest {
        observations: observations.clone(),
        deduction: None,
    })?;
    let t = Instant::now();
    let (status, body) = client.post("/v1/models/regulator/diagnose_batch", &request)?;
    let t_batch = t.elapsed();
    server.shutdown();
    if status != 200 {
        return Err(format!("diagnose_batch answered {status}: {body}").into());
    }
    let reply: BatchReply = serde_json::from_str(&body)?;
    let batch: Vec<Option<Option<String>>> = reply
        .reports
        .iter()
        .map(|entry| Some(entry.ok.as_ref()?.top_candidate.clone()))
        .collect();

    let agree = sequential
        .iter()
        .zip(&batch)
        .filter(|(s, b)| s == b)
        .count();
    println!(
        "library loop: {:>8.1?}   diagnose_batch: {:>8.1?}   verdict agreement: {agree}/{}",
        t_seq,
        t_batch,
        observations.len()
    );
    assert_eq!(batch, sequential, "every batch verdict must match the loop");

    // Tally the culprits the floor would see.
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for top in batch.iter().flatten().flatten() {
        *counts.entry(top).or_default() += 1;
    }
    println!("\ntop-candidate tally across the floor:");
    let mut ranked: Vec<_> = counts.into_iter().collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (block, n) in ranked {
        println!("  {block:<10} {n:>3} board(s)");
    }
    Ok(())
}
