//! `abbd-serve` — launch the diagnosis service.
//!
//! Compiles the model registry once at startup — the paper's voltage
//! regulator (fitted end-to-end from a synthesized failing population)
//! plus any `ModelBundle` JSON files passed on the CLI — then serves
//! diagnosis sessions over HTTP until interrupted.
//!
//! ```text
//! abbd-serve [--addr 127.0.0.1:7171] [--workers 4]
//!            [--session-ttl-secs 900] [--session-capacity 1024]
//!            [--queue-depth 256] [--idle-timeout-secs 60]
//!            [--max-requests-per-conn 100000]
//!            [--devices 24] [--seed 42] [--full-fit] [--no-regulator]
//!            [--refit-interval-secs N] [--refit-min-rows 32]
//!            [--model NAME=BUNDLE.json]...
//! ```
//!
//! `--devices`/`--seed` control the regulator fit (quick 8-iteration EM
//! by default; `--full-fit` uses the library's reference algorithm).
//! Each `--model` registers one additional bundle (see
//! `abbd_server::ModelBundle` for the format).

use abbd::core::conformance::self_references;
use abbd::core::{LearnAlgorithm, Observation};
use abbd::designs::regulator;
use abbd::server::{ModelBundle, ModelLifecycle, ModelRegistry, RefitPolicy, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    config: ServerConfig,
    devices: usize,
    seed: u64,
    full_fit: bool,
    regulator: bool,
    refit_min_rows: Option<u64>,
    bundles: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            ..ServerConfig::default()
        },
        devices: 24,
        seed: 42,
        full_fit: false,
        regulator: true,
        refit_min_rows: None,
        bundles: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--session-ttl-secs" => {
                let secs: u64 = value("--session-ttl-secs")?
                    .parse()
                    .map_err(|e| format!("--session-ttl-secs: {e}"))?;
                args.config.session_ttl = Duration::from_secs(secs);
            }
            "--session-capacity" => {
                args.config.session_capacity = value("--session-capacity")?
                    .parse()
                    .map_err(|e| format!("--session-capacity: {e}"))?;
            }
            "--queue-depth" => {
                args.config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--idle-timeout-secs" => {
                let secs: u64 = value("--idle-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-secs: {e}"))?;
                args.config.idle_timeout = Duration::from_secs(secs);
            }
            "--max-requests-per-conn" => {
                args.config.max_requests_per_conn = value("--max-requests-per-conn")?
                    .parse()
                    .map_err(|e| format!("--max-requests-per-conn: {e}"))?;
            }
            "--devices" => {
                args.devices = value("--devices")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--refit-interval-secs" => {
                let secs: u64 = value("--refit-interval-secs")?
                    .parse()
                    .map_err(|e| format!("--refit-interval-secs: {e}"))?;
                args.config.refit_interval = Some(Duration::from_secs(secs.max(1)));
            }
            "--refit-min-rows" => {
                args.refit_min_rows = Some(
                    value("--refit-min-rows")?
                        .parse()
                        .map_err(|e| format!("--refit-min-rows: {e}"))?,
                );
            }
            "--full-fit" => args.full_fit = true,
            "--no-regulator" => args.regulator = false,
            "--model" => {
                let spec = value("--model")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model expects NAME=PATH, got `{spec}`"))?;
                args.bundles.push((name.to_string(), path.to_string()));
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !args.regulator && args.bundles.is_empty() {
        return Err("nothing to serve: --no-regulator without any --model".to_string());
    }
    Ok(args)
}

const HELP: &str = "abbd-serve: the block-level Bayesian diagnosis service

  --addr ADDR              bind address (default 127.0.0.1:7171)
  --workers N              worker threads (default 4)
  --session-ttl-secs N     idle session lifetime (default 900)
  --session-capacity N     max live sessions (default 1024)
  --queue-depth N          requests queued for workers before 503 (default 256)
  --idle-timeout-secs N    idle connection deadline (default 60)
  --max-requests-per-conn N  requests before a keep-alive connection is
                           recycled (default 100000)
  --devices N              regulator fit population (default 24)
  --seed N                 regulator fit seed (default 42)
  --full-fit               reference learning instead of quick EM
  --no-regulator           skip the built-in regulator model
  --refit-interval-secs N  poll interval of the background refitter
                           (default: background refits disabled; the
                           refit endpoint still works on demand)
  --refit-min-rows N       aggregated traces required before a refit
                           attempt (default 32)
  --model NAME=PATH        register a ModelBundle JSON file (repeatable);
                           a bundle with a `partition` stanza serves as a
                           hierarchy: NAME plus NAME/{block} children";

fn build_registry(args: &Args) -> Result<ModelRegistry, String> {
    let mut registry = ModelRegistry::new();
    if args.regulator {
        let algorithm = if args.full_fit {
            regulator::default_algorithm()
        } else {
            LearnAlgorithm::Em(abbd::bbn::learn::EmConfig {
                max_iterations: 8,
                tolerance: 1e-4,
            })
        };
        eprintln!(
            "fitting regulator model ({} devices, seed {})...",
            args.devices, args.seed
        );
        let fitted = regulator::fit(args.devices, args.seed, algorithm)
            .map_err(|e| format!("regulator fit failed: {e}"))?;
        let compiled = Arc::clone(&fitted.engine);
        // The five Table VI case studies become the refit conformance
        // corpus: a candidate must isolate whatever the startup fit
        // isolates on each of them before it may serve.
        let scenarios = regulator::cases::case_studies().into_iter().map(|case| {
            let mut observation = Observation::new();
            for &(name, state) in case.controls.iter().chain(case.observables.iter()) {
                observation.set(name, state);
            }
            (case.id.to_string(), observation)
        });
        let references = self_references(&compiled, scenarios)
            .map_err(|e| format!("regulator reference corpus failed: {e}"))?;
        let policy = RefitPolicy {
            min_rows: args
                .refit_min_rows
                .unwrap_or(RefitPolicy::default().min_rows),
            ..RefitPolicy::default()
        };
        let lifecycle = ModelLifecycle::new("regulator", compiled, references, policy).shared();
        registry = registry.insert_lifecycle("regulator", lifecycle);
    }
    for (name, path) in &args.bundles {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read bundle `{path}`: {e}"))?;
        let bundle =
            ModelBundle::from_json(&text).map_err(|e| format!("bundle `{path}`: {}", e.message))?;
        registry = registry
            .insert_bundle(name.clone(), &bundle)
            .map_err(|e| format!("bundle `{path}` does not compile: {}", e.message))?;
        eprintln!("registered model `{name}` from {path}");
    }
    Ok(registry)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abbd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = match build_registry(&args) {
        Ok(registry) => registry.freeze(),
        Err(e) => {
            eprintln!("abbd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<String> = registry.list().iter().map(|m| m.name.clone()).collect();
    let server = match Server::start(registry, args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("abbd-serve: cannot bind {}: {e}", args.config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving {} model(s) [{}] on http://{} with {} workers (ttl {:?}, {} session slots)",
        names.len(),
        names.join(", "),
        server.addr(),
        args.config.workers,
        args.config.session_ttl,
        args.config.session_capacity,
    );
    eprintln!("try: curl http://{}/healthz", server.addr());
    loop {
        std::thread::park();
    }
}
