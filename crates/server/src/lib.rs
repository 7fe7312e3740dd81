//! # abbd-server — the diagnosis service
//!
//! A multi-threaded HTTP/1.1 diagnosis server over the unified session
//! API of `abbd_core::session`: one process hosts a [`ModelRegistry`] of
//! named, compile-once [`abbd_core::CompiledModel`]s, a [`SessionStore`]
//! of live per-device [`abbd_core::DiagnosisSession`]s (TTL + LRU), and
//! a readiness-driven connection layer (`net`, epoll-based) feeding a
//! fixed pool of diagnosis workers. The build environment is offline, so
//! the HTTP layer is a small, strict in-tree implementation ([`http`])
//! in the spirit of the workspace's `shims/` — no tokio, no hyper.
//!
//! One event-loop thread owns every socket: it accepts, reads, parses
//! and writes without blocking, and hands only *complete* requests to
//! the workers through a bounded queue. An idle keep-alive connection
//! therefore costs a socket and a few buffers — not a worker thread.
//! The tests pin this: 64 idle connections stay live beside an active
//! one on a single worker, and the `scaling` integration test drives
//! 200 keep-alive clients through 4 workers. When the queue is full the
//! event loop answers `503` with a `retry-after` header itself: overload
//! is explicit backpressure, never unbounded memory.
//!
//! Serving never compiles: every junction tree is triangulated at
//! registration time, worker threads propagate through shared compiled
//! schedules, and `/v1/stats` exposes the worker-side compile counter so
//! the integration suite can pin it at zero. The one deliberate
//! exception is hierarchy children ([`ModelRegistry::insert_hierarchy`]):
//! a board registered as a compiled [`abbd_core::HierarchicalModel`]
//! serves its abstract root under the board name and each block
//! sub-model under `{board}/{block}`, compiled lazily on first use —
//! at most once per block, counted by the
//! `submodels_compiled_lazy` gauge in `/v1/stats` (and `models_compiled`
//! tracks every resident compiled artifact). A stored session opened on
//! a board name is *hierarchical*: its rounds serve from the abstract
//! root until some block's posterior fault mass crosses the tree's
//! descend threshold, then descend into the block sub-model server-side
//! and keep answering from there, lifting the session's accumulated
//! board evidence down. `GET /v1/models` lists the parent/child
//! relationships (`parent`, `children` fields).
//!
//! ## Model lifecycle
//!
//! Every flat registry entry is a versioned [`ModelLifecycle`] (see
//! [`abbd_core::fleet`]), which closes the paper's learning loop at
//! serving time. Completed traces feed the model's
//! [`abbd_core::fleet::TraceAggregator`]: a stored session's cumulative
//! observation is folded in once, on its first terminal round; a
//! stateless round that reaches a stop contributes itself; every
//! successfully diagnosed `diagnose_batch` row counts as one device
//! datalog. Per-measurement wall costs ride along in
//! [`SessionRequest`]'s optional `timings` field (`[variable, seconds]`
//! pairs) and become learned [`abbd_core::CostModel`] prices.
//!
//! A refit — triggered by `POST /v1/models/{name}/refit`, or by the
//! background refitter when [`ServerConfig::refit_interval`] is set and
//! enough rows accumulated — snapshots the aggregate, re-fits the CPTs
//! with the incumbent's parameters as prior, and runs the candidate
//! through the conformance gate (reference-scenario replay + recent-
//! trace holdout scoring). Promotion appends `name@vN` and atomically
//! repoints the bare name; in-flight sessions finish on the compile
//! they opened with, and `POST …/activate` rolls the default back to
//! any retained version. A bare model name always serves the active
//! version; `name@vN` pins one explicitly (sessions, serve, batch).
//! Rejections are structured ([`GateRejection`] inside the
//! [`RefitReport`]), and `/v1/stats` carries the loop's counters:
//! `traces_aggregated`, `refits_run`, `refits_rejected`, per-model
//! rounds and active versions. Refit compiles run on dedicated
//! threads, so the `worker_compiles` invariant (zero) survives the
//! whole loop.
//!
//! ## Endpoints
//!
//! | method & path | body → reply | semantics |
//! |---------------|--------------|-----------|
//! | `GET /healthz` | — → [`HealthReport`] | liveness plus model/session counts |
//! | `GET /v1/models` | — → [`ModelsReport`] | the registry rows |
//! | `GET /v1/stats` | — → [`StatsReport`] | serving + connection-layer counters |
//! | `POST /v1/models/{name}/sessions` | — → [`OpenSessionReply`] | open a stored session (`201`; body ignored — configuration travels per round) |
//! | `POST /v1/models/{name}/serve` | [`SessionRequest`] → [`SessionReport`] | one **stateless** decision round (fresh session per call) |
//! | `POST /v1/models/{name}/diagnose_batch` | [`BatchRequest`] → [`BatchReply`] | fan N evidence sets across the worker pool (diagnosis only) |
//! | `POST /v1/sessions/{id}/round` | [`SessionRequest`] → [`SessionReport`] | one **stateful** decision round on the stored session |
//! | `DELETE /v1/sessions/{id}` | — → [`CloseSessionReply`] | close a stored session |
//! | `POST /v1/models/{name}/refit` | — → [`RefitReport`] | snapshot the trace aggregate, re-fit, gate, and (on a pass) hot-swap the default version |
//! | `GET /v1/models/{name}/versions` | — → [`VersionsReport`] | every retained version with its provenance |
//! | `POST /v1/models/{name}/activate` | [`ActivateRequest`] → [`ActivateReply`] | repoint the default at a retained version (rollback / roll-forward) |
//!
//! [`SessionRequest`]: abbd_core::SessionRequest
//! [`SessionReport`]: abbd_core::SessionReport
//!
//! Errors are structured JSON (`{"error":{"status":…,"code":…,"message":…}}`,
//! see [`ApiError`]): `400` for bytes that are not HTTP, JSON or valid
//! binary frames, `404` for unknown models/sessions/routes, `405` for
//! wrong verbs, `409` for concurrent rounds on one session, `413` for
//! oversized bodies, `422` for well-formed requests the model rejects
//! (unknown variables, out-of-range states, impossible evidence,
//! malformed policies, delta rounds contradicting stored evidence),
//! `503` with `retry-after` when the request queue or session store is
//! full. Junk bytes on the socket never take the server down — the
//! connection is answered (when possible) and dropped.
//!
//! ## Wire protocol
//!
//! Every endpoint speaks two bodies over plain HTTP/1.1:
//!
//! * **JSON** (default): `content-type: application/json`. Human-
//!   readable, stable field names, what every example above shows.
//! * **Compact binary** ([`codec`]): `content-type:
//!   application/x-abbd-binary`. A versioned, length-prefixed frame —
//!   magic `aB`, version byte, `u32` little-endian payload length, then
//!   a tagged tree of null/bool/f64/string/array/object values with
//!   LEB128 length prefixes. Decoding either body yields the *same*
//!   in-memory request (the `codec` proptests pin byte-for-byte decode
//!   equality), so the formats are interchangeable per request.
//!
//! Negotiation is per message direction and per request:
//!
//! * Send a binary **body** by setting `content-type:
//!   application/x-abbd-binary` on the request.
//! * Ask for a binary **reply** by listing that type in `accept`.
//! * Anything else (or nothing) means JSON. Error responses are always
//!   JSON — a client that cannot parse its own failure is debugging
//!   blind.
//!
//! On `POST …/diagnose_batch` the binary request body streams row by
//! row: one header frame (`{"deduction": …}`) followed by one frame per
//! observation, concatenated. The server decodes rows without
//! materialising a giant JSON array, and a binary reply is the
//! concatenated per-row [`BatchEntry`] frames in input order.
//!
//! Wire limits and number/string conventions, identical in both codecs:
//!
//! * Bodies are capped at 2 MiB (`413` beyond that) and container
//!   nesting at [`codec::MAX_DEPTH`] (128) levels — a deeper payload is
//!   a structured `400`, never a stack overflow, no matter where in the
//!   document the nesting hides.
//! * JSON numbers are shortest-roundtrip doubles: whole values below
//!   `9e15` print as bare integer digits (every one exact — the
//!   threshold sits under 2⁵³), `-0.0` keeps its sign, and non-finite
//!   values cross as the marker strings `"NaN"`, `"inf"` and `"-inf"`
//!   (`null` also reads back as NaN, for datalog gaps).
//! * JSON strings are UTF-8; `\uXXXX` surrogate pairs decode to one
//!   scalar and lone surrogate halves are a parse error, so a decoded
//!   string is always valid UTF-8.
//!
//! Both directions serialize *directly* between DTOs and wire bytes
//! (the `serde` shim's streaming `write_json`/`write_binary`/`read_from`
//! paths); the `Value`-tree fallback remains for generic payloads and is
//! pinned byte-identical by the `codec` proptests.
//!
//! **Delta rounds** cut the upload side: a [`SessionRequest`] with
//! `"delta": true` sends only *new* observations for a stored session —
//! the session merges them into its accumulated evidence. Re-observing
//! a variable at its stored state is an idempotent no-op; contradicting
//! the stored state is refused with `422 inconsistent_delta` and the
//! session is untouched. Control fields (`actions`, `strategy`,
//! `policy`, `cost`, `deduction`) still apply per round; a delta round
//! can omit observations entirely and just re-plan.
//!
//! Connection behaviour: keep-alive by default (HTTP/1.1), per-
//! connection idle timeout ([`ServerConfig::idle_timeout`]) and request
//! budget ([`ServerConfig::max_requests_per_conn`]), one in-flight
//! request per connection (pipelined bytes wait server-side), `503` +
//! `retry-after` under queue pressure.
//!
//! ## Session lifecycle
//!
//! 1. `POST /v1/models/regulator/sessions` → `{"session_id":"s0000000a",…}`.
//!    The session allocates its propagation workspaces **once**.
//! 2. Repeat `POST /v1/sessions/s0000000a/round` with a
//!    [`SessionRequest`]: new observations accumulate, the reply carries
//!    posteriors, fail candidates and the ranked next actions. Because
//!    the workspaces are reused, a stored round costs the scoring
//!    kernels alone — the fresh-session setup the stateless endpoint
//!    re-pays every round is amortised away (the `server_throughput`
//!    bench group prices both paths), and the device gets exclusive,
//!    conflict-checked access to its own evidence. Send binary delta
//!    rounds to also amortise the wire: only new observations travel.
//! 3. Stop when the reply's `stop` field is non-null (isolated /
//!    exhausted / gain below threshold), then `DELETE` the session —
//!    or walk away: TTL expiry reaps it, and LRU eviction frees the
//!    oldest idle session under capacity pressure.
//!
//! A round request example (whitespace optional):
//!
//! ```json
//! {"observation": {"pairs": [["pin", 1], ["out1", 0]], "failing": ["out1"]},
//!  "actions": [], "strategy": "Myopic",
//!  "policy": {"fault_mass_threshold": 0.9, "max_steps": 32, "min_gain": 0.001},
//!  "cost": {"test_seconds": 1.0, "suite_switch_seconds": 0.0, "probe_seconds": 1.0,
//!           "overrides": [], "suite_of": [], "current_suite": null},
//!  "deduction": null, "delta": false}
//! ```
//!
//! and the reply mirrors [`abbd_core::SessionReport`] — `posteriors`,
//! `fault_mass`, `candidates`, `top_candidate`, `log_likelihood`,
//! `ranked` (best action first), `stop`.
//!
//! ## Example
//!
//! ```
//! use abbd_server::{Client, ModelRegistry, Server, ServerConfig};
//!
//! let registry = ModelRegistry::new()
//!     .insert("toy", abbd_core::fixtures::toy_compiled_model())
//!     .freeze();
//! let server = Server::start(registry, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let (status, body) = client.get("/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\""));
//! server.shutdown();
//! ```

#![deny(unsafe_code)] // `forbid` until PR 6; `net::sys` now scopes the epoll FFI
#![deny(missing_docs)]

pub mod client;
pub mod codec;
mod error;
pub mod http;
mod net;
mod registry;
mod service;
mod store;

pub use client::Client;
pub use error::{ApiError, ErrorBody};
pub use net::NetStats;
pub use registry::{BundleBlock, BundlePartition, ModelBundle, ModelInfo, ModelRegistry};
pub use service::{
    ActivateReply, ActivateRequest, BatchDiagnosis, BatchEntry, BatchReply, BatchRequest,
    CloseSessionReply, HealthReport, ModelStats, ModelsReport, OpenSessionReply, ServiceState,
    ServiceStats, StatsReport, VersionsReport,
};
pub use store::{ServedSession, SessionStore, StoreStats, StoredSession};

// The lifecycle DTOs that cross the wire on the refit/versions
// endpoints, re-exported from `abbd_core::fleet` so wire clients need
// only this crate.
pub use abbd_core::fleet::{GateRejection, ModelLifecycle, RefitPolicy, RefitReport, VersionInfo};

// The service boundary DTOs, re-exported so wire clients need only this
// crate.
pub use abbd_core::{SessionReport, SessionRequest};

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Diagnosis worker threads (also the batch fan-out width). Workers
    /// only ever see complete requests — connections, idle or flooding,
    /// are the event loop's problem — so size this to core count, not to
    /// the number of concurrent clients.
    pub workers: usize,
    /// Idle time after which a stored session is reaped.
    pub session_ttl: Duration,
    /// Maximum live sessions; beyond it the LRU idle session is evicted.
    pub session_capacity: usize,
    /// Complete requests waiting for a worker, beyond which further
    /// requests are answered `503` with `retry-after` (the connection
    /// survives) — overload gets a defined failure mode instead of
    /// unbounded queue build-up.
    pub queue_depth: usize,
    /// Per-connection idle deadline: a keep-alive connection with no
    /// request in flight and no traffic for this long is closed and
    /// counted in [`StatsReport::idle_timeouts`].
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server answers the
    /// last one with `connection: close` — bounds how long a single
    /// keep-alive connection can pin server-side state.
    pub max_requests_per_conn: u64,
    /// Poll interval of the background [`abbd_core::fleet::Refitter`]
    /// over the registry's model lifecycles; `None` (the default)
    /// disables background refits — `POST /v1/models/{name}/refit`
    /// still triggers them on demand.
    pub refit_interval: Option<Duration>,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, 15-minute TTL, 1024
    /// session slots, 256-request queue, 60-second idle timeout, 100k
    /// requests per connection.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            session_ttl: Duration::from_secs(15 * 60),
            session_capacity: 1024,
            queue_depth: 256,
            idle_timeout: Duration::from_secs(60),
            max_requests_per_conn: 100_000,
            refit_interval: None,
        }
    }
}

/// The running service. Construct with [`Server::start`]; the value is a
/// handle — dropping it (or calling [`Server::shutdown`]) stops the
/// event loop and joins every thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    stop: Arc<AtomicBool>,
    wake: Arc<net::WakeFd>,
    queue: Arc<net::JobQueue>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    refitter: Option<abbd_core::fleet::Refitter>,
}

impl Server {
    /// Binds the listener, builds the epoll set, spawns the event-loop
    /// thread and the diagnosis worker pool, and returns once the socket
    /// is live (its actual address is [`Server::addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket bind and epoll/eventfd setup errors.
    pub fn start(registry: Arc<ModelRegistry>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let state = Arc::new(ServiceState {
            registry,
            store: SessionStore::new(config.session_ttl, config.session_capacity),
            stats: ServiceStats::default(),
            net: NetStats::default(),
            workers,
            started: std::time::Instant::now(),
        });
        // The background refitter is its own thread: EM and junction-
        // tree compilation for candidate models never run on (or count
        // against) the serving workers.
        let refitter = config.refit_interval.map(|interval| {
            let lifecycles = state
                .registry
                .lifecycles()
                .map(|(_, lc)| Arc::clone(lc))
                .collect();
            abbd_core::fleet::Refitter::spawn(lifecycles, interval)
        });
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(net::WakeFd::new()?);
        let queue = Arc::new(net::JobQueue::new(config.queue_depth));
        let completions = Arc::new(net::CompletionQueue::new(Arc::clone(&wake)));
        let event_loop = net::EventLoop::new(
            listener,
            Arc::clone(&state),
            Arc::clone(&queue),
            Arc::clone(&completions),
            Arc::clone(&wake),
            Arc::clone(&stop),
            net::EventLoopConfig {
                idle_timeout: config.idle_timeout.max(Duration::from_millis(1)),
                max_requests_per_conn: config.max_requests_per_conn.max(1),
            },
        )?;
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let completions = Arc::clone(&completions);
                let state = Arc::clone(&state);
                std::thread::spawn(move || net::worker_loop(&queue, &completions, &state))
            })
            .collect();
        let event_loop = std::thread::spawn(move || event_loop.run());
        Ok(Server {
            addr,
            state,
            stop,
            wake,
            queue,
            event_loop: Some(event_loop),
            workers: worker_handles,
            refitter,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (registry, store, counters) — for
    /// in-process inspection by tests and benches.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Stops the event loop (closing the listener and every connection),
    /// drains queued requests through the workers and joins every
    /// thread. Responses already computed but not yet flushed when the
    /// loop stops are discarded with their connections.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop the refitter first: a refit in flight finishes (promotion
        // is atomic either way), but no new cycle starts while the
        // serving threads wind down.
        if let Some(mut refitter) = self.refitter.take() {
            refitter.stop();
        }
        // The waker pulls the event loop out of `epoll_wait`; it then
        // observes the flag and exits, dropping listener and sockets.
        self.wake.wake();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        // Closing the queue drains the workers (jobs already queued are
        // still computed; their connections are gone, so the completions
        // fall on the floor).
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

// Re-exported for the doc example above; `Response` is part of the
// public `http` module either way.
#[doc(hidden)]
pub use http::Request as HttpRequest;
#[doc(hidden)]
pub use http::Response as HttpResponse;

#[cfg(test)]
mod tests {
    use super::*;
    use abbd_core::fixtures::toy_compiled_model;

    #[test]
    fn server_starts_answers_and_shuts_down() {
        let registry = ModelRegistry::new()
            .insert("toy", toy_compiled_model())
            .freeze();
        let server = Server::start(registry, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        let health: HealthReport = serde_json::from_str(&body).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.models, 1);
        let addr = server.addr();
        server.shutdown();
        // The listener is gone after shutdown (a fresh connect can no
        // longer complete a request).
        let mut dead = None;
        for _ in 0..10 {
            match Client::connect(addr) {
                Ok(mut c) => {
                    if c.get("/healthz").is_err() {
                        dead = Some(true);
                        break;
                    }
                }
                Err(_) => {
                    dead = Some(true);
                    break;
                }
            }
        }
        assert_eq!(dead, Some(true), "server kept serving after shutdown");
    }

    #[test]
    fn many_idle_connections_coexist_with_a_tiny_worker_pool() {
        let registry = ModelRegistry::new()
            .insert("toy", toy_compiled_model())
            .freeze();
        let server = Server::start(
            registry,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Far more open connections than workers: under the old thread-
        // per-connection layer these would starve each other.
        let mut idle: Vec<Client> = (0..64)
            .map(|_| Client::connect(server.addr()).unwrap())
            .collect();
        let mut active = Client::connect(server.addr()).unwrap();
        let (status, body) = active.get("/v1/stats").unwrap();
        assert_eq!(status, 200);
        let stats: StatsReport = serde_json::from_str(&body).unwrap();
        assert!(
            stats.connections_open >= 65,
            "expected 65+ open connections, saw {}",
            stats.connections_open
        );
        // Every idle connection still works.
        for client in &mut idle {
            let (status, _) = client.get("/healthz").unwrap();
            assert_eq!(status, 200);
        }
        server.shutdown();
    }
}
