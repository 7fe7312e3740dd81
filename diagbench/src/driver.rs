//! The closed-loop test-floor driver and the wire transport.
//!
//! A station diagnoses one device at a time: open a stored session, post
//! the device's controls, answer each top-ranked action from the
//! device's ground truth as a delta round, and delete the session at the
//! stop verdict. The same driver runs over the wire ([`Wire`]) and over
//! the in-process replay (`crate::inproc`), so the oracle replays exactly
//! the request sequence the wire run sent. Every reply's bytes are
//! digested, and the digests of the two runs must agree.

use crate::workload::{Fleet, Workload};
use abbd_core::{Action, Observation, SessionReport, SessionRequest, StopReason};
use abbd_server::{codec, BatchEntry, Client, OpenSessionReply};
use std::time::Instant;

/// Rounds after which a device without a stop verdict is a failure.
pub const MAX_ROUNDS: usize = 256;

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The server answered a non-2xx status.
    Status(u16),
    /// The connection failed.
    Transport(String),
    /// The reply could not be decoded or broke the protocol.
    Protocol(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Status(code) => write!(f, "status {code}"),
            Failure::Transport(e) => write!(f, "transport: {e}"),
            Failure::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

/// A decoded reply plus the digest of its body bytes.
#[derive(Debug, Clone)]
pub struct Reply<T> {
    /// The decoded body.
    pub value: T,
    /// [`digest`] of the reply body (open replies: of the model name,
    /// because session ids differ between runs).
    pub digest: u64,
}

/// One way to reach the service.
pub trait Transport {
    /// `POST /v1/models/{model}/sessions`; the reply value is the id.
    fn open(&mut self, model: &str) -> Result<Reply<String>, Failure>;
    /// `POST /v1/sessions/{id}/round`.
    fn round(
        &mut self,
        id: &str,
        request: &SessionRequest,
    ) -> Result<Reply<SessionReport>, Failure>;
    /// `DELETE /v1/sessions/{id}`.
    fn close(&mut self, id: &str) -> Result<Reply<()>, Failure>;
    /// `POST /v1/models/{model}/diagnose_batch` (binary rows).
    fn batch(
        &mut self,
        model: &str,
        rows: &[Observation],
    ) -> Result<Reply<Vec<BatchEntry>>, Failure>;
}

/// FNV-1a, 64 bit: a stable digest of reply bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How a finished device ended.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// The stop verdict.
    pub stop: StopReason,
    /// Measurements applied before the verdict (answered actions).
    pub measurements: usize,
    /// Decision rounds posted (controls round included).
    pub rounds: usize,
    /// The final top fail candidate.
    pub top: Option<String>,
    /// Whether the final report came from a descended block.
    pub descended: bool,
}

/// Everything one device run produced.
#[derive(Debug, Clone, Default)]
pub struct DeviceRun {
    /// The fleet index of the device.
    pub device: usize,
    /// Reply digests, one per request sent, in order.
    pub digests: Vec<u64>,
    /// Ranked candidates per decision round.
    pub ranked: Vec<usize>,
    /// Set once the device reached a verdict and its session closed.
    pub outcome: Option<DeviceOutcome>,
    /// The request that failed, if one did.
    pub failure: Option<Failure>,
}

/// What the closed loop does after a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Stop: the report carries (or implies) a verdict.
    Stop(StopReason),
    /// Measure the top-ranked action next.
    Measure(Action),
}

/// The driver's decision rule: obey a stop verdict; otherwise take the
/// top-ranked action; a report with neither is an exhausted candidate
/// set.
pub fn next_step(report: &SessionReport) -> Step {
    match (report.stop, report.ranked.first()) {
        (Some(reason), _) => Step::Stop(reason),
        (None, Some(top)) => Step::Measure(top.action.clone()),
        (None, None) => Step::Stop(StopReason::Exhausted),
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Drives device `index` through the closed loop. Stops early (leaving
/// the outcome unset) when `deadline` passes between requests.
pub fn run_device<T: Transport + ?Sized>(
    transport: &mut T,
    workload: Workload,
    fleet: &Fleet,
    index: usize,
    deadline: Option<Instant>,
) -> DeviceRun {
    let mut run = DeviceRun {
        device: index,
        ..DeviceRun::default()
    };
    let id = match transport.open(workload.model()) {
        Ok(reply) => {
            run.digests.push(reply.digest);
            reply.value
        }
        Err(failure) => {
            run.failure = Some(failure);
            return run;
        }
    };
    let mut request = SessionRequest::new(fleet.controls.clone()).into_delta();
    let mut measurements = 0usize;
    let outcome = loop {
        if expired(deadline) {
            return run;
        }
        if run.ranked.len() == MAX_ROUNDS {
            run.failure = Some(Failure::Protocol(format!(
                "no stop verdict after {MAX_ROUNDS} rounds"
            )));
            break None;
        }
        let report = match transport.round(&id, &request) {
            Ok(reply) => {
                run.digests.push(reply.digest);
                reply.value
            }
            Err(failure) => {
                run.failure = Some(failure);
                break None;
            }
        };
        run.ranked.push(report.ranked.len());
        match next_step(&report) {
            Step::Stop(stop) => {
                break Some(DeviceOutcome {
                    stop,
                    measurements,
                    rounds: run.ranked.len(),
                    top: report.top_candidate.clone(),
                    descended: !fleet.blocks.is_empty()
                        && !report
                            .fault_mass
                            .iter()
                            .any(|(name, _)| fleet.blocks.contains(name)),
                });
            }
            Step::Measure(action) => {
                let Some((state, failing)) = fleet.answer(index, action.target()) else {
                    run.failure = Some(Failure::Protocol(format!(
                        "`{}` is not on the device's bench",
                        action.target()
                    )));
                    break None;
                };
                let mut observation = Observation::new();
                observation.set(action.target(), state);
                if failing {
                    observation.mark_failing(action.target());
                }
                request = SessionRequest::new(observation).into_delta();
                measurements += 1;
            }
        }
    };
    if expired(deadline) {
        return run;
    }
    match transport.close(&id) {
        Ok(reply) => {
            run.digests.push(reply.digest);
            if run.failure.is_none() {
                run.outcome = outcome;
            }
        }
        Err(failure) => {
            run.failure.get_or_insert(failure);
        }
    }
    run
}

/// One batch request's result.
#[derive(Debug, Clone, Default)]
pub struct BatchRun {
    /// The batch request index (rows come from [`Fleet::batch_rows`]).
    pub request: usize,
    /// Reply digest, when the request completed.
    pub digest: Option<u64>,
    /// Per-row top candidates, when the request completed.
    pub tops: Vec<Option<String>>,
    /// The failure, if the request failed.
    pub failure: Option<Failure>,
}

/// Posts batch request `request` of the fleet.
pub fn run_batch<T: Transport + ?Sized>(
    transport: &mut T,
    workload: Workload,
    fleet: &Fleet,
    request: usize,
) -> BatchRun {
    let rows = fleet.batch_rows(request);
    match transport.batch(workload.model(), &rows) {
        Ok(reply) => BatchRun {
            request,
            digest: Some(reply.digest),
            tops: reply
                .value
                .iter()
                .map(|entry| entry.ok.as_ref().and_then(|d| d.top_candidate.clone()))
                .collect(),
            failure: None,
        },
        Err(failure) => BatchRun {
            request,
            failure: Some(failure),
            ..BatchRun::default()
        },
    }
}

/// The header frame of a binary batch body (`{"deduction": null}`).
pub struct BatchHead;

impl serde::Serialize for BatchHead {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![("deduction".to_string(), serde::Value::Null)])
    }
}

/// A binary `diagnose_batch` body: the header frame, then one frame per
/// row.
pub fn batch_body(rows: &[Observation]) -> Vec<u8> {
    let mut body = Vec::new();
    codec::frame_into(&BatchHead, &mut body);
    for row in rows {
        codec::frame_into(row, &mut body);
    }
    body
}

/// Decodes a binary batch reply: one [`BatchEntry`] frame per row.
///
/// # Errors
///
/// [`Failure::Protocol`] on malformed frames.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<BatchEntry>, Failure> {
    let mut pos = 0;
    let mut entries = Vec::new();
    while pos < bytes.len() {
        entries.push(
            codec::decode_frame(bytes, &mut pos)
                .map_err(|e| Failure::Protocol(format!("batch reply: {e}")))?,
        );
    }
    Ok(entries)
}

/// Latency and sizes of one request on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-side latency, µs (send to last reply byte).
    pub micros: f64,
    /// Request body bytes.
    pub request_bytes: usize,
    /// Reply body bytes.
    pub reply_bytes: usize,
}

/// The wire transport: one keep-alive connection, JSON or binary
/// bodies, a latency sample per request.
#[derive(Debug)]
pub struct Wire {
    client: Client,
    binary: bool,
    body: Vec<u8>,
    /// One sample per request sent, in order.
    pub samples: Vec<Sample>,
}

impl Wire {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str, binary: bool) -> Result<Self, Failure> {
        Ok(Wire {
            client: Client::connect(addr).map_err(|e| Failure::Transport(e.to_string()))?,
            binary,
            body: Vec::new(),
            samples: Vec::new(),
        })
    }

    /// Sends one request, timing it.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        binary: bool,
        ok: u16,
    ) -> Result<Vec<u8>, Failure> {
        let headers: &[(&str, &str)] = if binary {
            &[
                ("content-type", codec::CONTENT_TYPE),
                ("accept", codec::CONTENT_TYPE),
            ]
        } else {
            &[]
        };
        let start = Instant::now();
        let result = self.client.request_with(method, path, headers, &self.body);
        let micros = start.elapsed().as_secs_f64() * 1e6;
        let (status, bytes) = result.map_err(|e| Failure::Transport(e.to_string()))?;
        self.samples.push(Sample {
            micros,
            request_bytes: self.body.len(),
            reply_bytes: bytes.len(),
        });
        if status != ok {
            return Err(Failure::Status(status));
        }
        Ok(bytes)
    }
}

impl Transport for Wire {
    fn open(&mut self, model: &str) -> Result<Reply<String>, Failure> {
        self.body.clear();
        self.body.extend_from_slice(b"{}");
        let bytes = self.send("POST", &format!("/v1/models/{model}/sessions"), false, 201)?;
        let text = std::str::from_utf8(&bytes).map_err(|e| Failure::Protocol(e.to_string()))?;
        let reply: OpenSessionReply =
            serde_json::from_str(text).map_err(|e| Failure::Protocol(format!("open: {e}")))?;
        Ok(Reply {
            digest: digest(reply.model.as_bytes()),
            value: reply.session_id,
        })
    }

    fn round(
        &mut self,
        id: &str,
        request: &SessionRequest,
    ) -> Result<Reply<SessionReport>, Failure> {
        self.body.clear();
        if self.binary {
            codec::frame_into(request, &mut self.body);
        } else {
            serde::Serialize::write_json(request, &mut self.body);
        }
        let bytes = self.send(
            "POST",
            &format!("/v1/sessions/{id}/round"),
            self.binary,
            200,
        )?;
        let value = if self.binary {
            codec::from_frame(&bytes).map_err(|e| Failure::Protocol(format!("round: {e}")))?
        } else {
            let text = std::str::from_utf8(&bytes).map_err(|e| Failure::Protocol(e.to_string()))?;
            serde_json::from_str(text).map_err(|e| Failure::Protocol(format!("round: {e}")))?
        };
        Ok(Reply {
            digest: digest(&bytes),
            value,
        })
    }

    fn close(&mut self, id: &str) -> Result<Reply<()>, Failure> {
        self.body.clear();
        let bytes = self.send("DELETE", &format!("/v1/sessions/{id}"), false, 200)?;
        Ok(Reply {
            digest: digest(&bytes),
            value: (),
        })
    }

    fn batch(
        &mut self,
        model: &str,
        rows: &[Observation],
    ) -> Result<Reply<Vec<BatchEntry>>, Failure> {
        self.body = batch_body(rows);
        let bytes = self.send(
            "POST",
            &format!("/v1/models/{model}/diagnose_batch"),
            true,
            200,
        )?;
        Ok(Reply {
            digest: digest(&bytes),
            value: decode_batch(&bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{fleet, Workload};
    use abbd_core::Ranked;

    fn report(stop: Option<StopReason>, ranked: &[&str]) -> SessionReport {
        SessionReport {
            posteriors: Vec::new(),
            fault_mass: Vec::new(),
            candidates: Vec::new(),
            top_candidate: Some("vx".to_string()),
            log_likelihood: -1.0,
            ranked: ranked
                .iter()
                .map(|name| Ranked {
                    action: Action::test(*name),
                    gain: 0.5,
                    cost: 1.0,
                    score: 0.5,
                })
                .collect(),
            stop,
        }
    }

    /// Answers every round from a script: `rounds_before_stop` reports
    /// ranking the first unmeasured variable, then one carrying `stop`.
    struct Scripted {
        stop: Option<StopReason>,
        rounds_before_stop: usize,
        rounds: usize,
        closed: bool,
        variables: Vec<String>,
    }

    impl Transport for Scripted {
        fn open(&mut self, _model: &str) -> Result<Reply<String>, Failure> {
            Ok(Reply {
                value: "s1".to_string(),
                digest: 1,
            })
        }

        fn round(
            &mut self,
            id: &str,
            _request: &SessionRequest,
        ) -> Result<Reply<SessionReport>, Failure> {
            assert_eq!(id, "s1");
            self.rounds += 1;
            let value = if self.rounds > self.rounds_before_stop {
                report(self.stop, &[])
            } else {
                let next = self.variables[self.rounds - 1].as_str();
                report(None, &[next])
            };
            Ok(Reply {
                value,
                digest: self.rounds as u64,
            })
        }

        fn close(&mut self, id: &str) -> Result<Reply<()>, Failure> {
            assert_eq!(id, "s1");
            self.closed = true;
            Ok(Reply {
                value: (),
                digest: 0,
            })
        }

        fn batch(
            &mut self,
            _model: &str,
            _rows: &[Observation],
        ) -> Result<Reply<Vec<BatchEntry>>, Failure> {
            unreachable!("adaptive script")
        }
    }

    #[test]
    fn next_step_obeys_every_stop_reason() {
        for reason in [
            StopReason::Isolated,
            StopReason::MaxSteps,
            StopReason::GainBelowThreshold,
            StopReason::Exhausted,
        ] {
            assert_eq!(
                next_step(&report(Some(reason), &["out1"])),
                Step::Stop(reason)
            );
        }
        assert_eq!(
            next_step(&report(None, &[])),
            Step::Stop(StopReason::Exhausted)
        );
        assert_eq!(
            next_step(&report(None, &["out1", "out2"])),
            Step::Measure(Action::test("out1"))
        );
    }

    #[test]
    fn the_loop_closes_the_session_on_every_stop_reason() {
        let fleet = fleet(Workload::RegulatorAdaptive, 4, 1).expect("fleet samples");
        let measurable: Vec<String> = fleet.devices[0]
            .datalog
            .iter()
            .filter(|(name, _)| fleet.controls.state_of(name).is_none())
            .map(|(name, _)| name.to_string())
            .collect();
        for reason in [
            Some(StopReason::Isolated),
            Some(StopReason::MaxSteps),
            Some(StopReason::GainBelowThreshold),
            Some(StopReason::Exhausted),
            None,
        ] {
            let mut script = Scripted {
                stop: reason,
                rounds_before_stop: 2,
                rounds: 0,
                closed: false,
                variables: measurable.clone(),
            };
            let run = run_device(&mut script, Workload::RegulatorAdaptive, &fleet, 0, None);
            let outcome = run.outcome.expect("a verdict ends the device");
            assert_eq!(outcome.stop, reason.unwrap_or(StopReason::Exhausted));
            assert_eq!(outcome.measurements, 2);
            assert_eq!(outcome.rounds, 3);
            assert!(script.closed, "{reason:?}: session deleted at the verdict");
            assert_eq!(run.digests, vec![1, 1, 2, 3, 0]);
            assert!(run.failure.is_none());
        }
    }

    #[test]
    fn a_loop_without_a_verdict_fails_after_the_round_cap() {
        let fleet = fleet(Workload::RegulatorAdaptive, 1, 1).expect("fleet samples");
        let control = fleet
            .controls
            .iter()
            .next()
            .expect("controls")
            .0
            .to_string();
        let mut script = Scripted {
            stop: None,
            rounds_before_stop: usize::MAX,
            rounds: 0,
            closed: false,
            variables: vec![control; MAX_ROUNDS + 1],
        };
        let run = run_device(&mut script, Workload::RegulatorAdaptive, &fleet, 0, None);
        assert!(run.outcome.is_none());
        assert!(matches!(run.failure, Some(Failure::Protocol(_))));
        assert!(script.closed, "the session is still deleted");
    }

    #[test]
    fn digests_are_stable() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
