//! `diagbench` — the diagnosis-floor benchmark's command line.
//!
//! ```text
//! diagbench --workload regulator_adaptive|regulator_batch|board_hier_adaptive|all
//!           --seed N --seconds N --trace 0|1
//!           [--heldout] [--clients N] [--server PATH] [--work-dir PATH]
//! ```
//!
//! `diagbench/run.sh` builds `abbd-serve` and this binary and passes
//! `--server` and `--work-dir`. The last line of standard output is the
//! result object; everything before it is the human report.

use diagbench::report::result_line;
use diagbench::workload::Workload;
use diagbench::{nproc, run, Settings};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: diagbench --workload NAME|all --seed N --seconds N --trace 0|1 \
                     [--heldout] [--clients N] [--server PATH] [--work-dir PATH]";

fn parse() -> Result<(Vec<Workload>, Settings), String> {
    let mut workloads = Vec::new();
    let mut settings = Settings {
        workload: Workload::RegulatorAdaptive,
        seed: 1,
        heldout: false,
        seconds: 10.0,
        trace: false,
        clients: nproc(),
        server: PathBuf::from("target/release/abbd-serve"),
        work_dir: PathBuf::from("target/diagbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
        let number = |text: String| -> Result<u64, String> {
            text.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => settings.seed = number(value()?)?,
            "--seconds" => {
                settings.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(settings.seconds > 0.0 && settings.seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--heldout" => settings.heldout = true,
            "--clients" => settings.clients = number(value()?)? as usize,
            "--server" => settings.server = PathBuf::from(value()?),
            "--work-dir" => settings.work_dir = PathBuf::from(value()?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if workloads.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok((workloads, settings))
}

/// Direction that counts as better, for the human report.
fn direction(name: &str) -> &'static str {
    match name {
        "devices_per_s" | "isolation_accuracy" => "higher is better",
        _ => "lower is better",
    }
}

fn main() -> ExitCode {
    let (workloads, settings) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("diagbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = String::new();
    for workload in &workloads {
        let settings = Settings {
            workload: *workload,
            ..settings.clone()
        };
        let outcome = match run(&settings) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("diagbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        for metric in &outcome.metrics {
            let note = if settings.trace {
                ""
            } else {
                direction(metric.name)
            };
            println!(
                "{:<36} {:>14.6} {:<6} {}",
                format!("{}.{}", workload.name(), metric.name),
                metric.value,
                metric.unit,
                note
            );
        }
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        last = result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
        );
        if workloads.len() > 1 {
            println!("{last}");
        }
    }
    if workloads.len() > 1 {
        // `all`: each workload's object is printed above; the last line
        // sums them up.
        last = result_line(correct, attempted, failed, &[]);
    }
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
