//! The in-process replay: each request runs through the same public
//! layer functions `abbd-serve`'s handler calls — HTTP parse, body
//! decode, session store, session/hierarchy round, fleet aggregator,
//! reply encode, HTTP write — in the benchmark's own process.
//!
//! [`InProc`] is one such stack. Untraced it is the correctness oracle:
//! its reply bytes must equal the wire's. Traced, it records one span
//! per layer call, nested in one `request` span per request (the
//! *composed round*). Routing and registry lookups are not replayed;
//! they are part of the wire overhead.

use crate::driver::{batch_body, digest, Failure, Reply, Transport};
use crate::trace::{Open, Tracer};
use crate::workload::{Models, Workload};
use abbd_bbn::PropagationWorkspace;
use abbd_core::fleet::{ModelLifecycle, RefitPolicy};
use abbd_core::{
    CompiledModel, DiagnosisSession, HierarchicalSession, Observation, SessionReport,
    SessionRequest, StoppingPolicy,
};
use abbd_server::http::{parse_request, Request, Response};
use abbd_server::{
    codec, ApiError, BatchDiagnosis, BatchEntry, CloseSessionReply, OpenSessionReply,
    ServedSession, SessionStore,
};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `abbd-serve`'s session store defaults: 900 s TTL, 1024 slots.
const STORE_TTL: Duration = Duration::from_secs(900);
const STORE_CAPACITY: usize = 1024;

/// What the last session round did to a hierarchical session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundLevel {
    /// The session was already inside a block when the round began.
    pub was_descended: bool,
    /// The block the session is in after the round.
    pub block: Option<usize>,
}

/// One in-process serving stack.
#[derive(Debug)]
pub struct InProc {
    workload: Workload,
    models: Models,
    store: SessionStore,
    lifecycle: Option<Arc<ModelLifecycle>>,
    /// Span recorder (off for the oracle).
    pub tracer: Tracer,
    wire: Vec<u8>,
    out: Vec<u8>,
    requests: u32,
    /// Wall time of each composed request, µs.
    pub request_us: Vec<f64>,
    /// Request body bytes of each request.
    pub request_bytes: Vec<usize>,
    /// Reply body bytes of each request.
    pub reply_bytes: Vec<usize>,
    /// Aggregator records written.
    pub records: u64,
    /// Level bookkeeping of the last session round.
    pub last_level: RoundLevel,
}

impl InProc {
    /// A fresh stack over `models` (which must hold the workload's
    /// model), recording spans when `traced`.
    pub fn new(workload: Workload, models: Models, traced: bool) -> Self {
        let lifecycle = models.regulator.as_ref().map(|compiled| {
            ModelLifecycle::new(
                workload.model(),
                Arc::clone(compiled),
                Vec::new(),
                RefitPolicy::default(),
            )
            .shared()
        });
        InProc {
            workload,
            models,
            store: SessionStore::new(STORE_TTL, STORE_CAPACITY),
            lifecycle,
            tracer: Tracer::new(traced),
            wire: Vec::new(),
            out: Vec::new(),
            requests: 0,
            request_us: Vec::new(),
            request_bytes: Vec::new(),
            reply_bytes: Vec::new(),
            records: 0,
            last_level: RoundLevel::default(),
        }
    }

    /// The flat compiled model the workload serves (the regulator).
    fn regulator(&self) -> &Arc<CompiledModel> {
        self.models.regulator.as_ref().expect("regulator workload")
    }

    /// Lays out the request bytes exactly as `abbd_server::Client` sends
    /// them (client-side work, outside every span).
    fn encode_request(&mut self, method: &str, path: &str, binary: bool, body: &[u8]) {
        self.wire.clear();
        self.wire
            .extend_from_slice(format!("{method} {path} HTTP/1.1\r\nhost: abbd\r\n").as_bytes());
        if binary {
            for name in ["content-type", "accept"] {
                self.wire
                    .extend_from_slice(format!("{name}: {}\r\n", codec::CONTENT_TYPE).as_bytes());
            }
        }
        self.wire
            .extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        self.wire.extend_from_slice(body);
        self.request_bytes.push(body.len());
    }

    /// Opens the composed-request span and parses the request bytes.
    fn begin(&mut self) -> Result<(Instant, Open, Request), Failure> {
        self.requests += 1;
        self.tracer.set_request(self.requests);
        let start = Instant::now();
        let root = self.tracer.begin("request");
        let parse = self.tracer.begin("http.parse");
        let parsed = parse_request(&self.wire);
        self.tracer.end(parse);
        match parsed {
            Ok(Some((request, _))) => Ok((start, root, request)),
            Ok(None) => self.fail(Failure::Protocol("incomplete request".into()), start, root),
            Err(e) => self.fail(Failure::Protocol(format!("{e:?}")), start, root),
        }
    }

    /// Encodes a success reply in the request's negotiated codec.
    fn encode<T: Serialize>(&mut self, binary: bool, status: u16, value: &T) -> Response {
        let open = self.tracer.begin("codec.encode");
        let response = if binary {
            Response::binary(status, codec::to_frame(value))
        } else {
            Response::json(status, serde_json::to_string(value).expect("DTOs encode"))
        };
        self.tracer.end(open);
        response
    }

    /// Writes the response, closes the composed-request span and returns
    /// the reply body's digest.
    fn finish(&mut self, response: &Response, start: Instant, root: Open) -> u64 {
        let write = self.tracer.begin("http.write");
        self.out.clear();
        response.write_into(&mut self.out);
        self.tracer.end(write);
        self.tracer.end(root);
        self.request_us.push(start.elapsed().as_secs_f64() * 1e6);
        self.reply_bytes.push(response.body.len());
        digest(&response.body)
    }

    /// Closes a composed request that failed.
    fn fail<T>(&mut self, failure: Failure, start: Instant, root: Open) -> Result<T, Failure> {
        self.tracer.end(root);
        self.request_us.push(start.elapsed().as_secs_f64() * 1e6);
        self.reply_bytes.push(0);
        Err(failure)
    }
}

fn decode_round(request: &Request, binary: bool) -> Result<SessionRequest, Failure> {
    let decoded = if binary {
        codec::from_frame(&request.body).map_err(|e| e.to_string())
    } else {
        std::str::from_utf8(&request.body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    };
    decoded.map_err(|e| Failure::Protocol(format!("round body: {e}")))
}

fn decode_batch_body(body: &[u8]) -> Result<Vec<Observation>, Failure> {
    let mut pos = 0;
    let _header: serde::Value = codec::decode_frame(body, &mut pos)
        .map_err(|e| Failure::Protocol(format!("batch header: {e}")))?;
    let mut rows = Vec::new();
    while pos < body.len() {
        rows.push(
            codec::decode_frame(body, &mut pos)
                .map_err(|e| Failure::Protocol(format!("batch row: {e}")))?,
        );
    }
    Ok(rows)
}

/// One row's batch entry, as the server's batch worker builds it.
fn diagnose_row(
    compiled: &CompiledModel,
    ws: &mut PropagationWorkspace,
    observation: &Observation,
) -> BatchEntry {
    let policy = *compiled.policy();
    match compiled
        .evidence_from(observation)
        .and_then(|evidence| compiled.diagnose_with_policy_in(ws, observation, &evidence, &policy))
    {
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

/// Groups rows by canonical JSON as the server's fan-out does: the
/// distinct rows in first-seen order, and each row's distinct slot.
pub fn group_rows(rows: &[Observation]) -> (Vec<&Observation>, Vec<usize>) {
    let mut slot_of_key: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<&Observation> = Vec::new();
    let mut slot_of_row = Vec::with_capacity(rows.len());
    for row in rows {
        let key = serde_json::to_string(row).expect("observations encode");
        let next = unique.len();
        let slot = *slot_of_key.entry(key).or_insert(next);
        if slot == next {
            unique.push(row);
        }
        slot_of_row.push(slot);
    }
    (unique, slot_of_row)
}

impl Transport for InProc {
    fn open(&mut self, model: &str) -> Result<Reply<String>, Failure> {
        self.encode_request(
            "POST",
            &format!("/v1/models/{model}/sessions"),
            false,
            b"{}",
        );
        let (start, root, _request) = self.begin()?;
        let open = self.tracer.begin("session.open");
        let session: Result<ServedSession, _> = match &self.models.board {
            Some(board) => HierarchicalSession::new(Arc::clone(board), StoppingPolicy::default())
                .map(Into::into),
            None => DiagnosisSession::new(Arc::clone(self.regulator()), StoppingPolicy::default())
                .map(Into::into),
        };
        self.tracer.end(open);
        let session = match session {
            Ok(session) => session,
            Err(e) => return self.fail(Failure::Protocol(e.to_string()), start, root),
        };
        let store = self.tracer.begin("store.open");
        let id = self.store.open(model, session);
        self.tracer.end(store);
        let id = match id {
            Ok(id) => id,
            Err(e) => return self.fail(Failure::Status(e.status), start, root),
        };
        let response = self.encode(
            false,
            201,
            &OpenSessionReply {
                session_id: id.clone(),
                model: model.to_string(),
            },
        );
        self.finish(&response, start, root);
        Ok(Reply {
            digest: digest(model.as_bytes()),
            value: id,
        })
    }

    fn round(
        &mut self,
        id: &str,
        request: &SessionRequest,
    ) -> Result<Reply<SessionReport>, Failure> {
        let binary = self.workload.binary();
        let mut body = Vec::new();
        if binary {
            codec::frame_into(request, &mut body);
        } else {
            request.write_json(&mut body);
        }
        self.encode_request("POST", &format!("/v1/sessions/{id}/round"), binary, &body);
        let (start, root, parsed) = self.begin()?;
        let decode = self.tracer.begin("codec.decode");
        let decoded = decode_round(&parsed, binary);
        self.tracer.end(decode);
        let decoded = match decoded {
            Ok(decoded) => decoded,
            Err(failure) => return self.fail(failure, start, root),
        };
        let checkout = self.tracer.begin("store.checkout");
        let stored = self.store.checkout(id);
        self.tracer.end(checkout);
        let mut stored = match stored {
            Ok(stored) => stored,
            Err(e) => return self.fail(Failure::Status(e.status), start, root),
        };
        let was_descended = stored.session.descended_block().is_some();
        let layer = match (&stored.session, was_descended) {
            (ServedSession::Flat(_), _) => "session.serve_round",
            (ServedSession::Hierarchical(_), false) => "hierarchy.root_round",
            (ServedSession::Hierarchical(_), true) => "hierarchy.block_round",
        };
        let round = self.tracer.begin(layer);
        let result = stored.session.serve_round(&decoded);
        self.tracer.end(round);
        self.last_level = RoundLevel {
            was_descended,
            block: stored
                .session
                .descended_block()
                .and_then(|name| self.models.board.as_ref().and_then(|b| b.block_index(name))),
        };
        if let (Ok(report), Some(lifecycle)) = (&result, &self.lifecycle) {
            if report.stop.is_some() && !stored.trace_recorded {
                let record = self.tracer.begin("fleet.record");
                stored.trace_recorded = lifecycle
                    .aggregator()
                    .record(stored.session.observation(), &decoded.timings);
                self.tracer.end(record);
                self.records += u64::from(stored.trace_recorded);
            } else {
                lifecycle.aggregator().record_timings(&decoded.timings);
            }
        }
        let checkin = self.tracer.begin("store.checkin");
        self.store.checkin(id, stored);
        self.tracer.end(checkin);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                return self.fail(Failure::Status(ApiError::from_core(&e).status), start, root)
            }
        };
        let response = self.encode(binary, 200, &report);
        let digest = self.finish(&response, start, root);
        Ok(Reply {
            value: report,
            digest,
        })
    }

    fn close(&mut self, id: &str) -> Result<Reply<()>, Failure> {
        self.encode_request("DELETE", &format!("/v1/sessions/{id}"), false, b"");
        let (start, root, _request) = self.begin()?;
        let close = self.tracer.begin("store.close");
        let closed = self.store.close(id);
        self.tracer.end(close);
        let response = self.encode(false, 200, &CloseSessionReply { closed });
        let digest = self.finish(&response, start, root);
        Ok(Reply { value: (), digest })
    }

    fn batch(
        &mut self,
        model: &str,
        rows: &[Observation],
    ) -> Result<Reply<Vec<BatchEntry>>, Failure> {
        let body = batch_body(rows);
        self.encode_request(
            "POST",
            &format!("/v1/models/{model}/diagnose_batch"),
            true,
            &body,
        );
        let (start, root, parsed) = self.begin()?;
        let decode = self.tracer.begin("codec.decode");
        let decoded = decode_batch_body(&parsed.body);
        self.tracer.end(decode);
        let observations = match decoded {
            Ok(observations) => observations,
            Err(failure) => return self.fail(failure, start, root),
        };
        let compiled = Arc::clone(self.regulator());
        // The server's fan-out: identical rows are diagnosed once and
        // replicated. Here the distinct rows run on one thread, with the
        // one workspace per request a batch worker allocates.
        let fan_out = self.tracer.begin("batch.fan_out");
        let (unique, slot_of_row) = group_rows(&observations);
        let mut ws = compiled.make_workspace();
        let mut distinct = Vec::with_capacity(unique.len());
        for observation in unique {
            let row = self.tracer.begin("batch.row_diagnose");
            distinct.push(diagnose_row(&compiled, &mut ws, observation));
            self.tracer.end(row);
        }
        let entries: Vec<BatchEntry> = slot_of_row.iter().map(|&s| distinct[s].clone()).collect();
        self.tracer.end(fan_out);
        if let Some(lifecycle) = &self.lifecycle {
            for (observation, entry) in observations.iter().zip(&entries) {
                if entry.ok.is_some() {
                    let record = self.tracer.begin("fleet.record");
                    let recorded = lifecycle.aggregator().record(observation, &[]);
                    self.tracer.end(record);
                    self.records += u64::from(recorded);
                }
            }
        }
        let encode = self.tracer.begin("codec.encode");
        let mut reply = Vec::new();
        for entry in &entries {
            codec::frame_into(entry, &mut reply);
        }
        let response = Response::binary(200, reply);
        self.tracer.end(encode);
        let digest = self.finish(&response, start, root);
        Ok(Reply {
            value: entries,
            digest,
        })
    }
}
