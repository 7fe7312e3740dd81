//! The request router and endpoint handlers — pure functions from a
//! parsed [`Request`] to a [`Response`], shared by every worker thread.
//!
//! See the crate docs for the endpoint table. All handlers speak the
//! serde DTOs of `abbd_core::session` ([`SessionRequest`] /
//! [`SessionReport`]) plus the thin wire envelopes defined here.

use crate::codec;
use crate::error::ApiError;
use crate::http::{Request, Response};
use crate::net::NetStats;
use crate::registry::{ModelInfo, ModelRegistry};
use crate::store::{ServedSession, SessionStore, StoreStats};
use abbd_core::fleet::VersionInfo;
use abbd_core::{
    Candidate, CompiledModel, DeductionPolicy, DiagnosisSession, HierarchicalSession, Observation,
    SessionRequest, StoppingPolicy,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Serving counters, all monotonic (reported by `GET /v1/stats`).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// HTTP requests routed (including errors).
    pub requests: AtomicU64,
    /// Stateful decision rounds served (`/v1/sessions/{id}/round`).
    pub rounds: AtomicU64,
    /// Stateless decision rounds served (`/v1/models/{name}/serve`).
    pub stateless_rounds: AtomicU64,
    /// Individual evidence sets diagnosed through the batch endpoint.
    pub batch_items: AtomicU64,
    /// Error responses (status ≥ 400) answered.
    pub errors: AtomicU64,
    /// Junction-tree compilations observed on worker threads — pinned at
    /// **zero** by the integration tests: serving must never compile.
    pub worker_compiles: AtomicU64,
}

/// Everything the handlers share: the frozen registry, the session
/// store, the counters and the batch fan-out width.
#[derive(Debug)]
pub struct ServiceState {
    /// Named compiled models (immutable after startup).
    pub registry: Arc<ModelRegistry>,
    /// Live sessions with TTL + LRU lifecycle.
    pub store: SessionStore,
    /// Serving counters.
    pub stats: ServiceStats,
    /// Connection-layer counters, maintained by the event loop.
    pub net: NetStats,
    /// Worker-pool width, which also caps batch fan-out.
    pub workers: usize,
    /// Server start time (feeds `uptime_secs` in `/v1/stats`).
    pub started: Instant,
}

/// `GET /healthz` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Always `"ok"` when the listener answers.
    pub status: String,
    /// Registered models.
    pub models: usize,
    /// Live sessions (idle + busy).
    pub sessions: usize,
}

/// `GET /v1/models` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsReport {
    /// Registry rows, in name order.
    pub models: Vec<ModelInfo>,
}

/// `POST /v1/models/{name}/sessions` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenSessionReply {
    /// The id all `/v1/sessions/{id}/...` endpoints address.
    pub session_id: String,
    /// The registry name of the model the session serves off.
    pub model: String,
}

/// `DELETE /v1/sessions/{id}` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloseSessionReply {
    /// `true` when the id referred to a live session.
    pub closed: bool,
}

/// `POST /v1/models/{name}/diagnose_batch` body: N independent evidence
/// sets to diagnose (no ranking — the batch path is the
/// posterior-plus-deduction kernel fanned across the worker pool).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// One observation per device under diagnosis.
    pub observations: Vec<Observation>,
    /// Deduction-policy override applied to every item (compiled default
    /// when absent).
    #[serde(default)]
    pub deduction: Option<DeductionPolicy>,
}

/// One device's diagnosis in a batch reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchDiagnosis {
    /// Posterior state distributions for every model variable.
    pub posteriors: Vec<(String, Vec<f64>)>,
    /// `(latent, posterior fault mass)`, in name order.
    pub fault_mass: Vec<(String, f64)>,
    /// Ranked fail candidates.
    pub candidates: Vec<Candidate>,
    /// The top fail candidate, if any.
    pub top_candidate: Option<String>,
    /// `ln P(observation)` under the model.
    pub log_likelihood: f64,
}

/// One slot of a batch reply: exactly one of `ok`/`error` is set, so a
/// bad evidence set fails alone instead of poisoning the whole batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchEntry {
    /// The diagnosis, when the item succeeded.
    #[serde(default)]
    pub ok: Option<BatchDiagnosis>,
    /// The per-item error, when it did not.
    #[serde(default)]
    pub error: Option<ApiError>,
}

/// `POST /v1/models/{name}/diagnose_batch` reply, item-aligned with the
/// request's `observations`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReply {
    /// One entry per requested observation, same order.
    pub reports: Vec<BatchEntry>,
}

/// `GET /v1/models/{name}/versions` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionsReport {
    /// The lifecycle's model name.
    pub model: String,
    /// The version new sessions currently open against.
    pub active_version: u32,
    /// Every retained version, oldest first.
    pub versions: Vec<VersionInfo>,
}

/// `POST /v1/models/{name}/activate` body: which retained version
/// becomes the default (rollback or roll-forward).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivateRequest {
    /// 1-based version number to activate.
    pub version: u32,
}

/// `POST /v1/models/{name}/activate` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivateReply {
    /// The lifecycle's model name.
    pub model: String,
    /// The default version after the switch.
    pub active_version: u32,
}

/// One model's serving and lifecycle counters in `/v1/stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Registry name (hierarchies report under their board name, with
    /// children's rounds pooled in).
    pub name: String,
    /// The lifecycle's current default version; `null` for hierarchies,
    /// which are not lifecycle-managed.
    #[serde(default)]
    pub active_version: Option<u32>,
    /// Decision rounds served against this model (stored + stateless,
    /// all versions).
    pub rounds: u64,
    /// Completed traces folded into the model's learning aggregate.
    pub traces_aggregated: u64,
    /// Refit attempts (background or endpoint-triggered).
    pub refits_run: u64,
    /// Refit attempts the conformance gate rejected.
    pub refits_rejected: u64,
}

/// `GET /v1/stats` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// HTTP requests routed.
    pub requests: u64,
    /// Stateful decision rounds served.
    pub rounds: u64,
    /// Stateless decision rounds served.
    pub stateless_rounds: u64,
    /// Evidence sets diagnosed via the batch endpoint.
    pub batch_items: u64,
    /// Error responses answered.
    pub errors: u64,
    /// Junction-tree compilations on worker threads (must stay 0).
    pub worker_compiles: u64,
    /// Live sessions.
    pub sessions_live: usize,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions reaped by TTL.
    pub sessions_expired: u64,
    /// Sessions evicted by LRU pressure.
    pub sessions_evicted: u64,
    /// Connections ever accepted.
    pub connections_accepted: u64,
    /// Currently open connections (gauge).
    pub connections_open: u64,
    /// Open connections with no request in flight right now (gauge).
    pub connections_idle: u64,
    /// Open connections with a request in flight right now (gauge).
    pub connections_active: u64,
    /// Requests waiting for a worker right now (gauge).
    pub queue_depth: u64,
    /// Requests answered `503` because the worker queue was full.
    pub queue_full_rejections: u64,
    /// Idle connections reaped by the per-connection timeout.
    pub idle_timeouts: u64,
    /// Compiled models resident: flat models, hierarchy roots, and
    /// lazily compiled hierarchy children (gauge).
    #[serde(default)]
    pub models_compiled: u64,
    /// Hierarchy sub-models compiled lazily since startup — bounded by
    /// the total block count, because each block compiles at most once
    /// (gauge).
    #[serde(default)]
    pub submodels_compiled_lazy: u64,
    /// Whole seconds since the server started.
    #[serde(default)]
    pub uptime_secs: u64,
    /// Completed traces folded into learning aggregates, summed over
    /// every lifecycle-managed model.
    #[serde(default)]
    pub traces_aggregated: u64,
    /// Refit attempts, summed over every lifecycle-managed model.
    #[serde(default)]
    pub refits_run: u64,
    /// Rejected refit attempts, summed over every lifecycle-managed
    /// model.
    #[serde(default)]
    pub refits_rejected: u64,
    /// Per-model round and lifecycle counters: lifecycle-managed flat
    /// models first (name order), then hierarchies (board name order).
    #[serde(default)]
    pub models: Vec<ModelStats>,
}

fn parse_json<T: Deserialize>(body: &[u8]) -> Result<T, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request(format!("body does not parse: {e}")))
}

fn json_response(status: u16, value: &impl Serialize) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => {
            ApiError::new(500, "internal", format!("response encoding failed: {e}")).into_response()
        }
    }
}

/// `true` when the request *body* is the compact binary codec
/// (`content-type: application/x-abbd-binary`, parameters ignored).
fn binary_body(request: &Request) -> bool {
    request.content_type.as_deref().is_some_and(|value| {
        let media = value.split(';').next().unwrap_or("").trim();
        media.eq_ignore_ascii_case(codec::CONTENT_TYPE)
    })
}

/// `true` when the client asked for a binary *reply* (`accept` lists the
/// codec's media type). Errors stay JSON regardless — a client that
/// cannot parse its own failure is debugging blind.
fn binary_reply(request: &Request) -> bool {
    request
        .accept
        .as_deref()
        .is_some_and(|value| value.to_ascii_lowercase().contains(codec::CONTENT_TYPE))
}

/// Decodes the request body in whichever format the headers declare.
fn parse_body<T: Deserialize>(request: &Request) -> Result<T, ApiError> {
    if binary_body(request) {
        codec::from_frame(&request.body)
            .map_err(|e| ApiError::bad_request(format!("body does not parse: {e}")))
    } else {
        parse_json(&request.body)
    }
}

/// Encodes a success reply in whichever format the request negotiated.
fn reply(request: &Request, status: u16, value: &impl Serialize) -> Response {
    if binary_reply(request) {
        Response::binary(status, codec::to_frame(value))
    } else {
        json_response(status, value)
    }
}

/// Routes one request. Never panics: every failure path is a structured
/// error response.
pub fn handle(state: &ServiceState, request: &Request) -> Response {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    let response = route(state, request).unwrap_or_else(ApiError::into_response);
    if response.status >= 400 {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    response
}

fn route(state: &ServiceState, request: &Request) -> Result<Response, ApiError> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(reply(
            request,
            200,
            &HealthReport {
                status: "ok".to_string(),
                models: state.registry.len(),
                sessions: state.store.stats().live,
            },
        )),
        ("GET", ["v1", "models"]) => Ok(reply(
            request,
            200,
            &ModelsReport {
                models: state.registry.list(),
            },
        )),
        ("GET", ["v1", "stats"]) => Ok(reply(request, 200, &stats_report(state))),
        ("POST", ["v1", "models", name, "sessions"]) => open_session(state, name, request),
        ("POST", ["v1", "models", name, "serve"]) => serve_stateless(state, name, request),
        ("POST", ["v1", "models", name, "diagnose_batch"]) => diagnose_batch(state, name, request),
        ("POST", ["v1", "models", name, "refit"]) => refit_model(state, name, request),
        ("GET", ["v1", "models", name, "versions"]) => model_versions(state, name, request),
        ("POST", ["v1", "models", name, "activate"]) => activate_model(state, name, request),
        // Hierarchy children live under `{board}/{block}` — one extra
        // path segment on every model endpoint.
        ("POST", ["v1", "models", board, block, "sessions"]) => {
            open_session(state, &format!("{board}/{block}"), request)
        }
        ("POST", ["v1", "models", board, block, "serve"]) => {
            serve_stateless(state, &format!("{board}/{block}"), request)
        }
        ("POST", ["v1", "models", board, block, "diagnose_batch"]) => {
            diagnose_batch(state, &format!("{board}/{block}"), request)
        }
        ("POST", ["v1", "sessions", id, "round"]) => session_round(state, id, request),
        ("DELETE", ["v1", "sessions", id]) => Ok(reply(
            request,
            200,
            &CloseSessionReply {
                closed: state.store.close(id),
            },
        )),
        // A known path shape with the wrong verb is 405, not 404.
        (_, ["healthz"] | ["v1", "models"] | ["v1", "stats"])
        | (
            _,
            ["v1", "models", _, "sessions" | "serve" | "diagnose_batch" | "refit" | "versions" | "activate"],
        )
        | (_, ["v1", "models", _, _, "sessions" | "serve" | "diagnose_batch"])
        | (_, ["v1", "sessions", _, "round"] | ["v1", "sessions", _]) => {
            Err(ApiError::method_not_allowed(method, &request.path))
        }
        _ => Err(ApiError::not_found(&request.path)),
    }
}

fn stats_report(state: &ServiceState) -> StatsReport {
    let StoreStats {
        live,
        opened,
        expired,
        evicted,
    } = state.store.stats();
    let open = state.net.open.load(Ordering::Relaxed);
    let active = state.net.active.load(Ordering::Relaxed);
    let mut traces_aggregated = 0;
    let mut refits_run = 0;
    let mut refits_rejected = 0;
    let mut models: Vec<ModelStats> = state
        .registry
        .lifecycles()
        .map(|(name, lifecycle)| {
            traces_aggregated += lifecycle.traces_aggregated();
            refits_run += lifecycle.refits_run();
            refits_rejected += lifecycle.refits_rejected();
            ModelStats {
                name: name.to_string(),
                active_version: Some(lifecycle.active_version()),
                rounds: lifecycle.rounds(),
                traces_aggregated: lifecycle.traces_aggregated(),
                refits_run: lifecycle.refits_run(),
                refits_rejected: lifecycle.refits_rejected(),
            }
        })
        .collect();
    models.extend(
        state
            .registry
            .hierarchy_round_counts()
            .map(|(name, rounds)| ModelStats {
                name: name.to_string(),
                active_version: None,
                rounds,
                traces_aggregated: 0,
                refits_run: 0,
                refits_rejected: 0,
            }),
    );
    StatsReport {
        requests: state.stats.requests.load(Ordering::Relaxed),
        rounds: state.stats.rounds.load(Ordering::Relaxed),
        stateless_rounds: state.stats.stateless_rounds.load(Ordering::Relaxed),
        batch_items: state.stats.batch_items.load(Ordering::Relaxed),
        errors: state.stats.errors.load(Ordering::Relaxed),
        worker_compiles: state.stats.worker_compiles.load(Ordering::Relaxed),
        sessions_live: live,
        sessions_opened: opened,
        sessions_expired: expired,
        sessions_evicted: evicted,
        connections_accepted: state.net.accepted.load(Ordering::Relaxed),
        connections_open: open,
        connections_idle: open.saturating_sub(active),
        connections_active: active,
        queue_depth: state.net.queue_depth.load(Ordering::Relaxed),
        queue_full_rejections: state.net.queue_full_rejections.load(Ordering::Relaxed),
        idle_timeouts: state.net.idle_timeouts.load(Ordering::Relaxed),
        models_compiled: state.registry.compiled_models(),
        submodels_compiled_lazy: state.registry.lazy_submodel_compiles(),
        uptime_secs: state.started.elapsed().as_secs(),
        traces_aggregated,
        refits_run,
        refits_rejected,
        models,
    }
}

/// Resolves `name` to its model lifecycle, turning hierarchy names into
/// a `422` — boards re-learn through their flat source model, not
/// through the compiled abstraction.
fn lifecycle_of<'a>(
    state: &'a ServiceState,
    name: &str,
) -> Result<&'a Arc<abbd_core::fleet::ModelLifecycle>, ApiError> {
    if state.registry.hierarchy(name).is_some() {
        return Err(ApiError::new(
            422,
            "invalid_request",
            format!(
                "model `{name}` is a compiled hierarchy; lifecycle endpoints address flat models"
            ),
        ));
    }
    state.registry.lifecycle(name)
}

fn refit_model(state: &ServiceState, name: &str, request: &Request) -> Result<Response, ApiError> {
    let lifecycle = Arc::clone(lifecycle_of(state, name)?);
    // EM and junction-tree compilation run on a dedicated thread, never
    // inline on the worker: the worker loop samples its *thread-local*
    // compile counter around every request, and a refit must not show up
    // there — the zero-compile serving invariant holds even while models
    // re-learn.
    let report = std::thread::scope(|scope| {
        scope
            .spawn(|| lifecycle.refit())
            .join()
            .map_err(|_| ApiError::new(500, "internal", "refit thread panicked"))
    })?;
    Ok(reply(request, 200, &report))
}

fn model_versions(
    state: &ServiceState,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let lifecycle = lifecycle_of(state, name)?;
    Ok(reply(
        request,
        200,
        &VersionsReport {
            model: lifecycle.name().to_string(),
            active_version: lifecycle.active_version(),
            versions: lifecycle.versions(),
        },
    ))
}

fn activate_model(
    state: &ServiceState,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let body: ActivateRequest = parse_body(request)?;
    let lifecycle = lifecycle_of(state, name)?;
    lifecycle
        .activate(body.version)
        .map_err(|e| ApiError::new(422, "invalid_request", e.to_string()))?;
    Ok(reply(
        request,
        200,
        &ActivateReply {
            model: lifecycle.name().to_string(),
            active_version: lifecycle.active_version(),
        },
    ))
}

// The open body is intentionally empty (send nothing or `{}`): every
// piece of round configuration — stopping policy, strategy, costs, the
// deduction-policy override — travels in each `SessionRequest`, exactly
// as it does on the stateless endpoint. That symmetry is what keeps a
// stored round byte-identical to `CompiledModel::serve`; open-time knobs
// would be silently superseded by the first round and are refused a
// place in the protocol rather than left as a trap.
fn open_session(state: &ServiceState, name: &str, request: &Request) -> Result<Response, ApiError> {
    // A board name opens a *hierarchical* session — the store round then
    // threads descent through: once a block's fault mass crosses the
    // tree's threshold, subsequent rounds answer from the block
    // sub-model. Flat models (and explicit `{board}/{block}` children)
    // get an ordinary session.
    let session: ServedSession = if let Some(hierarchy) = state.registry.hierarchy(name) {
        HierarchicalSession::new(Arc::clone(hierarchy), StoppingPolicy::default())
            .map_err(|e| ApiError::from_core(&e))?
            .into()
    } else {
        let compiled = state.registry.resolve(name)?;
        DiagnosisSession::new(compiled, StoppingPolicy::default())
            .map_err(|e| ApiError::from_core(&e))?
            .into()
    };
    let session_id = state.store.open(name, session)?;
    Ok(reply(
        request,
        201,
        &OpenSessionReply {
            session_id,
            model: name.to_string(),
        },
    ))
}

fn serve_stateless(
    state: &ServiceState,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let compiled = state.registry.resolve(name)?;
    let round: SessionRequest = parse_body(request)?;
    let report = compiled
        .serve(&round)
        .map_err(|e| ApiError::from_core(&e))?;
    state.stats.stateless_rounds.fetch_add(1, Ordering::Relaxed);
    state.registry.note_round(name);
    if let Ok(lifecycle) = state.registry.lifecycle(name) {
        // A stateless round is its own whole session: the observation is
        // a complete trace when the round reaches a stop, and a
        // cost-sample source either way.
        if report.stop.is_some() {
            lifecycle
                .aggregator()
                .record(&round.observation, &round.timings);
        } else {
            lifecycle.aggregator().record_timings(&round.timings);
        }
    }
    Ok(reply(request, 200, &report))
}

fn session_round(state: &ServiceState, id: &str, request: &Request) -> Result<Response, ApiError> {
    // Parse before checkout so malformed bodies never toggle the busy
    // marker.
    let round_request: SessionRequest = parse_body(request)?;
    let mut stored = state.store.checkout(id)?;
    // `serve_round` rolls the session back on any failure, so checking
    // it back in after an error hands the client a clean retry; a panic
    // in the kernels instead aborts the session outright — a possibly
    // half-mutated session must not serve again, and the busy marker
    // must not wedge the slot forever.
    let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stored.session.serve_round(&round_request)
    }));
    match round {
        Ok(result) => {
            let result = result.map_err(|e| ApiError::from_core(&e));
            if let Ok(report) = &result {
                stored.rounds += 1;
                state.stats.rounds.fetch_add(1, Ordering::Relaxed);
                state.registry.note_round(&stored.model);
                if let Ok(lifecycle) = state.registry.lifecycle(&stored.model) {
                    // Fold the session's cumulative observation into the
                    // model's learning aggregate exactly once, on the
                    // first terminal round; non-terminal rounds only
                    // contribute their measurement timings (an empty-
                    // slice no-op on the common hot path).
                    if report.stop.is_some() && !stored.trace_recorded {
                        stored.trace_recorded = lifecycle
                            .aggregator()
                            .record(stored.session.observation(), &round_request.timings);
                    } else {
                        lifecycle
                            .aggregator()
                            .record_timings(&round_request.timings);
                    }
                }
            }
            state.store.checkin(id, stored);
            Ok(reply(request, 200, &result?))
        }
        Err(_) => {
            drop(stored);
            state.store.abort(id);
            Err(ApiError::new(
                500,
                "internal",
                format!("panic during round; session `{id}` was discarded"),
            ))
        }
    }
}

fn diagnose_batch(
    state: &ServiceState,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let compiled = state.registry.resolve(name)?;
    let batch = if binary_body(request) {
        parse_batch_binary(&request.body)?
    } else {
        parse_json(&request.body)?
    };
    let policy = match batch.deduction {
        Some(p) => {
            p.validate().map_err(|e| ApiError::from_core(&e))?;
            p
        }
        None => *compiled.policy(),
    };
    let reports = fan_out(
        &compiled,
        &batch.observations,
        &policy,
        state.workers,
        &state.stats.worker_compiles,
    );
    state
        .stats
        .batch_items
        .fetch_add(batch.observations.len() as u64, Ordering::Relaxed);
    if let Ok(lifecycle) = state.registry.lifecycle(name) {
        // Each successfully diagnosed batch row is one complete device
        // datalog — exactly the learning shape the paper fits from.
        for (observation, entry) in batch.observations.iter().zip(&reports) {
            if entry.ok.is_some() {
                lifecycle.aggregator().record(observation, &[]);
            }
        }
    }
    if binary_reply(request) {
        // Row-oriented streaming reply: one frame per entry, in input
        // order, concatenated — a client can decode (and act on) each
        // device's diagnosis as it arrives.
        let mut body = Vec::new();
        for entry in &reports {
            codec::frame_into(entry, &mut body);
        }
        Ok(Response::binary(200, body))
    } else {
        Ok(json_response(200, &BatchReply { reports }))
    }
}

/// Header frame of a binary (streaming) batch request: the batch-wide
/// knobs, followed on the wire by one [`Observation`] frame per row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BatchHeader {
    /// Deduction-policy override applied to every row.
    #[serde(default)]
    deduction: Option<DeductionPolicy>,
}

/// Decodes a binary `diagnose_batch` body: one header frame, then one
/// observation frame per row. Rows decode frame by frame — no giant
/// intermediate array value.
fn parse_batch_binary(body: &[u8]) -> Result<BatchRequest, ApiError> {
    let mut pos = 0;
    let header: BatchHeader = codec::decode_frame(body, &mut pos)
        .map_err(|e| ApiError::bad_request(format!("batch header does not parse: {e}")))?;
    let mut observations = Vec::new();
    while pos < body.len() {
        let observation: Observation = codec::decode_frame(body, &mut pos).map_err(|e| {
            ApiError::bad_request(format!(
                "batch row {} does not parse: {e}",
                observations.len()
            ))
        })?;
        observations.push(observation);
    }
    Ok(BatchRequest {
        observations,
        deduction: header.deduction,
    })
}

/// Fans `observations` across up to `workers` scoped threads, one
/// preallocated propagation workspace per thread, and stitches the
/// per-item results back in request order. This is the only parallel
/// batch path; library callers loop
/// [`CompiledModel::diagnose_with_policy_in`] over one reused workspace
/// instead. Each scoped thread reports its (thread-local) junction-tree
/// compile delta into `compiles` —
/// the counter is per-thread, so the connection worker's own sampling
/// cannot see what happens here.
///
/// Identical rows are identical work: ATE fan-outs routinely carry many
/// devices whose discretised signatures coincide (the observation
/// alphabet is small), so rows are first grouped by their exact
/// encoding and each distinct evidence vector is diagnosed **once**;
/// the entry is then replicated per duplicate row. Duplicates share
/// the same bytes they would have computed independently — same input,
/// same kernel, same output — so the reply is indistinguishable from
/// the row-by-row run, at the cost of one diagnosis per *distinct*
/// signature instead of one per device.
fn fan_out(
    compiled: &Arc<CompiledModel>,
    observations: &[Observation],
    policy: &DeductionPolicy,
    workers: usize,
    compiles: &AtomicU64,
) -> Vec<BatchEntry> {
    if observations.is_empty() {
        return Vec::new();
    }
    // Group by the canonical JSON rendering — unambiguous, and
    // conservative: rows listing the same pairs in a different order
    // stay separate, so a grouped row replays the exact compute path
    // its own encoding would have taken.
    let mut slot_of_key: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<&Observation> = Vec::new();
    let mut slot_of_row: Vec<usize> = Vec::with_capacity(observations.len());
    for observation in observations {
        let key = serde_json::to_string(observation).expect("observation encodes");
        let next = unique.len();
        let slot = *slot_of_key.entry(key).or_insert(next);
        if slot == next {
            unique.push(observation);
        }
        slot_of_row.push(slot);
    }
    let threads = workers.clamp(1, unique.len());
    let chunk_len = unique.len().div_ceil(threads);
    let mut entries = Vec::with_capacity(unique.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = unique
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let before = abbd_bbn::jointree_compile_count();
                    let mut ws = compiled.make_workspace();
                    let entries = chunk
                        .iter()
                        .map(|obs| diagnose_one(compiled, &mut ws, obs, policy))
                        .collect::<Vec<_>>();
                    let delta = abbd_bbn::jointree_compile_count() - before;
                    if delta > 0 {
                        compiles.fetch_add(delta, Ordering::Relaxed);
                    }
                    entries
                })
            })
            .collect();
        for handle in handles {
            entries.extend(handle.join().expect("batch worker never panics"));
        }
    });
    slot_of_row
        .into_iter()
        .map(|slot| entries[slot].clone())
        .collect()
}

fn diagnose_one(
    compiled: &CompiledModel,
    ws: &mut abbd_bbn::PropagationWorkspace,
    observation: &Observation,
    policy: &DeductionPolicy,
) -> BatchEntry {
    let diagnosed = compiled
        .evidence_from(observation)
        .and_then(|evidence| compiled.diagnose_with_policy_in(ws, observation, &evidence, policy));
    match diagnosed {
        Ok(diagnosis) => BatchEntry {
            ok: Some(BatchDiagnosis {
                posteriors: diagnosis.posteriors().to_vec(),
                fault_mass: diagnosis
                    .fault_mass()
                    .iter()
                    .map(|(n, &m)| (n.clone(), m))
                    .collect(),
                candidates: diagnosis.candidates().to_vec(),
                top_candidate: diagnosis.top_candidate().map(str::to_string),
                log_likelihood: diagnosis.log_likelihood(),
            }),
            error: None,
        },
        Err(e) => BatchEntry {
            ok: None,
            error: Some(ApiError::from_core(&e)),
        },
    }
}
