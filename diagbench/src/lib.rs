//! # diagbench — the diagnosis-floor benchmark
//!
//! Launches `abbd-serve` as its own process, drives one of three
//! workloads over loopback from a closed loop of clients, checks every
//! reply against an in-process oracle, and prints the end-to-end
//! metrics — or, with `--trace 1`, replays the same request stream in
//! process with spans around each layer and prints the per-layer split.
//! See `README.md` next to this crate for the workloads, the metrics and
//! the layer → metric table.

pub mod driver;
pub mod inproc;
pub mod phase;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

use crate::phase::{OracleCheck, WirePhase};
use crate::report::{LayerInputs, Metric};
use crate::server::ServerProcess;
use crate::workload::{Models, Workload, HELDOUT_SALT};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Windows of an untraced run: server launches (their median launch to
/// ready is `setup_s`), each serving one slice of the timed phase.
pub const WINDOWS: usize = 10;

/// Upper bound on `trace.unaccounted_share`: the composed round's own
/// time (glue between layer calls) must stay below 5% of the round.
pub const MAX_UNACCOUNTED_SHARE: f64 = 0.05;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed (fleet sampling).
    pub seed: u64,
    /// Draw the fleet from the held-out seed set instead.
    pub heldout: bool,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Closed-loop clients (at most `nproc`).
    pub clients: usize,
    /// The `abbd-serve` binary.
    pub server: PathBuf,
    /// Where the bundle file and the span dump go.
    pub work_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent in the timed phase.
    pub attempted: u64,
    /// Failed requests: non-2xx, transport errors, protocol breaks and
    /// oracle mismatches.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stamp every result carries.
pub fn stamp(settings: &Settings, fleet_seed: u64) -> String {
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    format!(
        "# stamp: workload={} seed={} seed_set={} fleet_seed={fleet_seed} nproc={} clients={} \
         seconds={} trace={} rustc=\"{}\" git={git}",
        settings.workload.name(),
        settings.seed,
        if settings.heldout { "heldout" } else { "dev" },
        nproc(),
        settings.clients,
        settings.seconds,
        u8::from(settings.trace),
        command_line("rustc", &["--version"]),
    )
}

/// Median lazy-compile time of one block on a freshly registered board.
fn first_visit_ms(bundle_json: &str) -> Result<f64, String> {
    let fresh = workload::compile_board(bundle_json)?;
    let mut times = Vec::with_capacity(fresh.block_count());
    for block in 0..fresh.block_count() {
        let start = Instant::now();
        fresh
            .child(block)
            .map_err(|e| format!("block compile: {e}"))?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&times))
}

/// Runs one workload end to end and prints the human report; the
/// caller prints the result line.
///
/// # Errors
///
/// Setup failures (fleet, launch, warm-up), as text.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let workload = settings.workload;
    if settings.clients == 0 || settings.clients > nproc() {
        return Err(format!(
            "--clients {} refused: the load generator runs at most nproc = {} client threads \
             (one connection each), or it measures its own contention",
            settings.clients,
            nproc()
        ));
    }
    let fleet_seed = if settings.heldout {
        settings.seed ^ HELDOUT_SALT
    } else {
        settings.seed
    };
    println!("{}", stamp(settings, fleet_seed));
    let fleet = workload::fleet(workload, workload::FLEET, fleet_seed)?;
    std::fs::create_dir_all(&settings.work_dir)
        .map_err(|e| format!("{}: {e}", settings.work_dir.display()))?;
    let bundle_json = workload::board_bundle_json();
    let bundle = settings
        .work_dir
        .join(format!("board-{}.json", std::process::id()));
    std::fs::write(&bundle, &bundle_json).map_err(|e| format!("{}: {e}", bundle.display()))?;

    // Windows: each launches a fresh server (launch to ready is one
    // `setup_s` sample), warms it up, and runs one slice of the timed
    // phase. Per-process effects (thread placement, memory layout) then
    // vary within a run, and the medians over windows absorb them. The
    // traced run needs the wire only for its p50 and the stats deltas.
    let windows = if settings.trace { 1 } else { WINDOWS };
    let wire_seconds = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let slice = Duration::from_secs_f64(wire_seconds / windows as f64);
    let warmup = Duration::from_secs_f64((slice.as_secs_f64() / 5.0).clamp(0.2, 1.0));
    let mut setups = Vec::with_capacity(windows);
    let mut rss = Vec::with_capacity(windows);
    let mut phases = Vec::with_capacity(windows);
    let mut problems = Vec::new();
    let mut deltas = [0u64; 4];
    let mut first = 0;
    for window in 0..windows {
        let (server, setup) = ServerProcess::launch(&settings.server, &bundle, nproc())?;
        setups.push(setup);
        // Warm-up: a short closed-loop run whose replies only need to
        // succeed.
        let warm = phase::drive(
            &server.addr,
            workload,
            &fleet,
            first,
            warmup,
            settings.clients,
        );
        let warm_failures =
            warm.status_failures() + warm.protocol_failures() + warm.transport_failures;
        if warm_failures > 0 {
            return Err(format!("{warm_failures} request(s) failed during warm-up"));
        }
        let before = server.stats()?;
        let wire = phase::drive(
            &server.addr,
            workload,
            &fleet,
            first,
            slice,
            settings.clients,
        );
        // The next window continues through the fleet.
        first += wire.devices.len() + wire.batches.len();
        let after = server.stats()?;
        rss.push(server.peak_rss_mb().unwrap_or(f64::NAN));
        server.stop();
        // `/v1/stats` reconciliation: the stats GET after the run counts
        // itself; 503s from a full queue never reach the handler.
        let window_deltas = [
            after.requests.saturating_sub(before.requests),
            after.errors.saturating_sub(before.errors),
            after.worker_compiles.saturating_sub(before.worker_compiles),
            after
                .queue_full_rejections
                .saturating_sub(before.queue_full_rejections),
        ];
        let [requests, errors, compiles, queue_full] = window_deltas;
        let (attempted, status_failures) = (wire.attempted(), wire.status_failures());
        if compiles != 0 {
            problems.push(format!(
                "window {window}: worker_compiles delta {compiles} (must be 0)"
            ));
        }
        if errors + queue_full != status_failures {
            problems.push(format!(
                "window {window}: server counted {errors} errors + {queue_full} queue-full 503s, \
                 the benchmark {status_failures} non-2xx replies"
            ));
        }
        if wire.transport_failures == 0 && requests != attempted + 1 {
            problems.push(format!(
                "window {window}: server routed {requests} requests, the benchmark sent \
                 {attempted} (+1 stats read)"
            ));
        }
        for (total, delta) in deltas.iter_mut().zip(window_deltas) {
            *total += delta;
        }
        let latencies = wire.latencies_us();
        println!(
            "# window {window}: ready in {setup:.4} s, {:.3} s timed, {} requests, p50 {:.4} ms, \
             p99 {:.4} ms",
            wire.elapsed_s,
            latencies.len(),
            stats::percentile(&latencies, 5000) / 1e3,
            stats::percentile(&latencies, 9900) / 1e3,
        );
        phases.push(wire);
    }
    let _ = std::fs::remove_file(&bundle);
    let setup_s = stats::median(&setups);
    let tail_per_window = phases
        .iter()
        .all(|phase| stats::beyond(phase.samples.len(), 9900) >= stats::MIN_BEYOND);
    let per_window: Vec<Vec<Metric>> = phases
        .iter()
        .zip(&rss)
        .map(|(phase, &rss)| report::end_to_end(workload, &fleet, phase, setup_s, rss))
        .collect();
    let wire = WirePhase::merge(phases);
    let [requests, errors, worker_compiles, queue_full] = deltas;
    if let Some(failure) = wire.failures().next() {
        println!("# first failure: {failure}");
    }
    let attempted = wire.attempted();
    let status_failures = wire.status_failures();
    let protocol_failures = wire.protocol_failures();
    let latencies = wire.latencies_us();
    println!(
        "# timed phase: {windows} window(s) of {:.3} s, {} closed-loop client(s), zero think \
         time, {} requests; highest supported percentile over all windows {}; p99 {}; setup \
         median {setup_s:.4} s",
        slice.as_secs_f64(),
        settings.clients,
        latencies.len(),
        stats::highest_supported(latencies.len()).map_or("none".to_string(), |bp| format!(
            "{} = {:.4} ms",
            stats::label(bp),
            stats::percentile(&latencies, bp) / 1e3
        )),
        if tail_per_window {
            "median over windows"
        } else {
            "pooled (a window has too few samples)"
        },
    );
    for (name, value) in report::properties(workload, &fleet, &wire) {
        println!("# property {name} = {value:.4}");
    }
    println!(
        "# stats deltas: requests={requests} errors={errors} worker_compiles={worker_compiles} \
         queue_full_rejections={queue_full}"
    );

    let models = Models::for_workload(workload, &bundle_json)?;
    let mut check = OracleCheck::default();
    let metrics = if settings.trace {
        let (traced, replay) = phase::traced_replay(
            workload,
            &models,
            &fleet,
            &wire,
            Duration::from_secs_f64(settings.seconds / 2.0),
        );
        check.replayed = replay.replayed;
        check.mismatched = replay.mismatched + traced.mismatches;
        let spans = settings
            .work_dir
            .join(format!("spans-{}.tsv", workload.name()));
        traced
            .traced
            .tracer
            .write_tsv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let inputs = LayerInputs {
            wire_p50_us: stats::percentile(&latencies, 5000),
            queue_full_rejections: queue_full,
            worker_compiles,
            first_visit_ms: if workload == Workload::BoardHierAdaptive {
                first_visit_ms(&bundle_json)?
            } else {
                0.0
            },
        };
        let metrics = report::per_layer(&traced, inputs);
        let unaccounted = report::unaccounted_share(&traced);
        if unaccounted > MAX_UNACCOUNTED_SHARE {
            problems.push(format!(
                "trace.unaccounted_share {unaccounted:.4} above {MAX_UNACCOUNTED_SHARE}"
            ));
        }
        println!(
            "# traced replay: {} {} replayed, {} spans written to {}",
            check.replayed,
            if workload.adaptive() {
                "devices"
            } else {
                "batch requests"
            },
            traced.traced.tracer.spans().len(),
            spans.display()
        );
        metrics
    } else {
        check = phase::oracle(workload, &models, &fleet, &wire, nproc());
        report::combine_windows(
            &per_window,
            report::end_to_end(workload, &fleet, &wire, setup_s, stats::median(&rss)),
            tail_per_window,
        )
    };
    for metric in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} could not be measured", metric.name));
    }
    println!(
        "# oracle: {} {} replayed in-process, {} mismatched request(s)",
        check.replayed,
        if workload.adaptive() {
            "devices"
        } else {
            "batch requests"
        },
        check.mismatched
    );
    let failed = status_failures + protocol_failures + wire.transport_failures + check.mismatched;
    println!(
        "failed_ratio {} ratio (lower is better; {failed} of {attempted} requests: {status_failures} \
         non-2xx, {} transport, {protocol_failures} protocol, {} oracle mismatches)",
        failed as f64 / attempted.max(1) as f64,
        wire.transport_failures,
        check.mismatched,
    );
    for problem in &problems {
        println!("# CHECK FAILED: {problem}");
    }
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}
