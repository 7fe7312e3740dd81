//! The error surface over the wire: malformed JSON, unknown names,
//! invalid evidence and wrong verbs all come back as structured JSON
//! error bodies with the right status code — and arbitrary byte junk on
//! the socket never takes the server down (the proptest at the bottom
//! holds it to that).

use abbd_core::fixtures::toy_compiled_model;
use abbd_server::{
    codec, Client, ErrorBody, HealthReport, ModelRegistry, OpenSessionReply, Server, ServerConfig,
    SessionRequest,
};
use proptest::prelude::*;
use std::sync::OnceLock;

// One server for the whole file: every test (and every proptest case)
// hammers the same process, which is itself part of the claim — a bad
// request must not poison the next one.
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let registry = ModelRegistry::new()
            .insert("toy", toy_compiled_model())
            .freeze();
        Server::start(registry, ServerConfig::default()).expect("server binds")
    })
}

fn client() -> Client {
    Client::connect(server().addr()).expect("client connects")
}

/// Decodes a structured error reply, asserting the envelope shape.
fn decode_error(status: u16, body: &str) -> (u16, String) {
    let parsed: ErrorBody = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("error body is structured JSON ({e}): {body}"));
    assert_eq!(parsed.error.status, status, "body status echoes the wire");
    assert!(!parsed.error.message.is_empty());
    (status, parsed.error.code)
}

#[test]
fn malformed_json_is_400() {
    let mut c = client();
    let (status, body) = c.post("/v1/models/toy/serve", "{ not json").unwrap();
    assert_eq!(decode_error(status, &body), (400, "bad_request".into()));
    // Valid JSON of the wrong shape is still a 400, with the field named.
    let (status, body) = c.post("/v1/models/toy/serve", "{\"nope\": 1}").unwrap();
    assert_eq!(decode_error(status, &body), (400, "bad_request".into()));
    // So is a state that is not a `usize`: it is refused, never cast
    // into a valid state (`["pin",-1]` must not be diagnosed as 0).
    let mut request = SessionRequest::new(Default::default());
    request.observation.set("pin", 1);
    let json = serde_json::to_string(&request).unwrap();
    let good = r#"["pin",1]"#;
    assert!(json.contains(good), "{json}");
    for bad in [
        r#"["pin",-1]"#,
        r#"["pin",1.5]"#,
        r#"["pin",18446744073709551616]"#,
    ] {
        let (status, body) = c
            .post("/v1/models/toy/serve", &json.replace(good, bad))
            .unwrap();
        assert_eq!(
            decode_error(status, &body),
            (400, "bad_request".into()),
            "{bad}"
        );
    }
}

#[test]
fn unknown_names_are_404() {
    let mut c = client();
    let request = serde_json::to_string(&SessionRequest::new(Default::default())).unwrap();
    let (status, body) = c.post("/v1/models/ghost/serve", &request).unwrap();
    assert_eq!(decode_error(status, &body), (404, "unknown_model".into()));
    let (status, body) = c.post("/v1/sessions/s00ghost/round", &request).unwrap();
    assert_eq!(decode_error(status, &body), (404, "unknown_session".into()));
    let (status, body) = c.get("/v1/nothing/here").unwrap();
    assert_eq!(decode_error(status, &body), (404, "not_found".into()));
}

#[test]
fn wrong_verbs_are_405() {
    let mut c = client();
    let (status, body) = c.post("/healthz", "{}").unwrap();
    assert_eq!(
        decode_error(status, &body),
        (405, "method_not_allowed".into())
    );
    let (status, body) = c.get("/v1/models/toy/serve").unwrap();
    assert_eq!(
        decode_error(status, &body),
        (405, "method_not_allowed".into())
    );
}

#[test]
fn invalid_evidence_is_422() {
    let mut c = client();
    // Unknown variable.
    let mut request = SessionRequest::new(Default::default());
    request.observation.set("ghost_pin", 1);
    let json = serde_json::to_string(&request).unwrap();
    let (status, body) = c.post("/v1/models/toy/serve", &json).unwrap();
    assert_eq!(decode_error(status, &body), (422, "invalid_request".into()));

    // Out-of-range state on a known variable.
    let mut request = SessionRequest::new(Default::default());
    request.observation.set("pin", 99);
    let json = serde_json::to_string(&request).unwrap();
    let (status, body) = c.post("/v1/models/toy/serve", &json).unwrap();
    assert_eq!(decode_error(status, &body), (422, "invalid_request".into()));

    // Malformed stopping policy.
    let mut request = SessionRequest::new(Default::default());
    request.policy.fault_mass_threshold = -1.0;
    let json = serde_json::to_string(&request).unwrap();
    let (status, body) = c.post("/v1/models/toy/serve", &json).unwrap();
    assert_eq!(decode_error(status, &body), (422, "invalid_request".into()));
}

/// A round whose request fails validation must leave the stored session
/// exactly as it was — no half-absorbed evidence contaminating later
/// rounds (the absorb is transactional in `abbd_core`).
#[test]
fn a_failed_round_leaves_the_stored_session_untouched() {
    let mut c = client();
    let (status, body) = c.post("/v1/models/toy/sessions", "{}").unwrap();
    assert_eq!(status, 201);
    let open: abbd_server::OpenSessionReply = serde_json::from_str(&body).unwrap();
    let round_path = format!("/v1/sessions/{}/round", open.session_id);

    // A request mixing a valid observation with an unknown variable is
    // rejected whole...
    let mut bad = SessionRequest::new(Default::default());
    bad.observation.set("pin", 1);
    bad.observation.set("ghost", 1);
    let (status, body) = c
        .post(&round_path, &serde_json::to_string(&bad).unwrap())
        .unwrap();
    assert_eq!(decode_error(status, &body), (422, "invalid_request".into()));

    // ... so a later valid round answers exactly what a fresh session
    // would: had `pin = 1` leaked in, these posteriors would differ.
    let mut good = SessionRequest::new(Default::default());
    good.observation.set("out1", 0);
    good.observation.mark_failing("out1");
    let (status, wire_body) = c
        .post(&round_path, &serde_json::to_string(&good).unwrap())
        .unwrap();
    assert_eq!(status, 200);
    let reference = toy_compiled_model().serve(&good).unwrap();
    assert_eq!(wire_body, serde_json::to_string(&reference).unwrap());
}

/// A 100k-deep `[[[[…` JSON body used to overflow the parser's stack
/// and abort the whole process; the streaming reader's depth cap turns
/// it into an ordinary 400 and the server keeps serving.
#[test]
fn hundred_thousand_deep_json_is_400_not_a_crash() {
    let mut c = client();
    // The whole body is the hostile array...
    let hostile = "[".repeat(100_000);
    let (status, body) = c.post("/v1/models/toy/serve", &hostile).unwrap();
    assert_eq!(decode_error(status, &body), (400, "bad_request".into()));
    // ... and smuggled under an unknown field, where decoding skips it
    // through the same depth-capped machinery.
    let smuggled = format!("{{\"zzz\":{hostile}");
    let (status, body) = c.post("/v1/models/toy/serve", &smuggled).unwrap();
    assert_eq!(decode_error(status, &body), (400, "bad_request".into()));
    assert!(healthy(), "server died on deep nesting");
}

#[test]
fn oversized_bodies_are_413() {
    let mut c = client();
    let huge = format!(
        "POST /v1/models/toy/serve HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        abbd_server::http::MAX_BODY + 1
    );
    let reply = c.send_raw(huge.as_bytes()).unwrap();
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 413 "), "got: {text}");
    assert!(text.contains("payload_too_large"));
}

#[test]
fn batch_isolates_per_item_failures() {
    let mut c = client();
    let body = r#"{"observations": [
        {"pairs": [["pin", 1]], "failing": []},
        {"pairs": [["ghost", 1]], "failing": []},
        {"pairs": [["pin", 0]], "failing": []}
    ]}"#;
    let (status, text) = c.post("/v1/models/toy/diagnose_batch", body).unwrap();
    assert_eq!(status, 200);
    let reply: abbd_server::BatchReply = serde_json::from_str(&text).unwrap();
    assert_eq!(reply.reports.len(), 3);
    assert!(reply.reports[0].ok.is_some() && reply.reports[0].error.is_none());
    let bad = reply.reports[1].error.as_ref().expect("ghost item fails");
    assert_eq!(bad.status, 422);
    assert!(reply.reports[2].ok.is_some(), "later items unaffected");
}

/// Opens a session, serves one full round pinning `pin = 1`, and
/// returns the round path + session id.
fn session_with_pin(c: &mut Client) -> (String, String) {
    let (status, body) = c.post("/v1/models/toy/sessions", "{}").unwrap();
    assert_eq!(status, 201, "open failed: {body}");
    let open: OpenSessionReply = serde_json::from_str(&body).unwrap();
    let path = format!("/v1/sessions/{}/round", open.session_id);
    let mut first = SessionRequest::new(Default::default());
    first.observation.set("pin", 1);
    let (status, body) = c
        .post(&path, &serde_json::to_string(&first).unwrap())
        .unwrap();
    assert_eq!(status, 200, "first round failed: {body}");
    (path, open.session_id)
}

/// What every round on a `pin = 1` session must answer: the report of a
/// fresh session given exactly that evidence.
fn pin_reference_json() -> String {
    let mut request = SessionRequest::new(Default::default());
    request.observation.set("pin", 1);
    let reference = toy_compiled_model().serve(&request).unwrap();
    serde_json::to_string(&reference).unwrap()
}

#[test]
fn inconsistent_deltas_are_422_and_leave_the_session_untouched() {
    let mut c = client();
    let (path, id) = session_with_pin(&mut c);

    // A delta that contradicts the stored evidence — and smuggles a new
    // variable alongside, which must not leak in either.
    let mut bad = SessionRequest::new(Default::default()).into_delta();
    bad.observation.set("pin", 0);
    bad.observation.set("out1", 1);
    let (status, body) = c
        .post(&path, &serde_json::to_string(&bad).unwrap())
        .unwrap();
    assert_eq!(
        decode_error(status, &body),
        (422, "inconsistent_delta".into())
    );

    // An empty delta replays the stored evidence: byte-identical to a
    // fresh session holding only `pin = 1`, so neither the contradiction
    // nor the smuggled `out1` took.
    let replay = SessionRequest::new(Default::default()).into_delta();
    let (status, wire) = c
        .post(&path, &serde_json::to_string(&replay).unwrap())
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(wire, pin_reference_json());
    let _ = c.delete(&format!("/v1/sessions/{id}"));
}

#[test]
fn binary_rounds_answer_the_same_report_as_json() {
    let mut c = client();
    let mut request = SessionRequest::new(Default::default());
    request.observation.set("pin", 1);
    let (status, bytes) = c
        .post_binary("/v1/models/toy/serve", &codec::to_frame(&request))
        .unwrap();
    assert_eq!(status, 200);
    let reference = toy_compiled_model().serve(&request).unwrap();
    // The reply frame is exactly the codec encoding of the reference
    // report, and it decodes to the same report the JSON path serves.
    assert_eq!(bytes, codec::to_frame(&reference));
    let decoded: abbd_server::SessionReport = codec::from_frame(&bytes).unwrap();
    assert_eq!(
        serde_json::to_string(&decoded).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
}

fn healthy() -> bool {
    let mut c = client();
    match c.get("/healthz") {
        Ok((200, body)) => {
            serde_json::from_str::<HealthReport>(&body).is_ok_and(|h| h.status == "ok")
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Arbitrary bytes down the socket — binary junk, truncated frames,
    /// pathological header shapes — never kill the server: each
    /// connection ends (with a 400 when the junk was parseable enough to
    /// answer) and the *next* health check still succeeds.
    #[test]
    fn byte_junk_never_kills_the_server(junk in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut c = client();
        let _ = c.send_raw(&junk);
        prop_assert!(healthy(), "server died after {junk:?}");
    }

    /// The same property for junk that *looks* like HTTP: a valid frame
    /// around a garbage body posted at a real endpoint.
    #[test]
    fn framed_junk_bodies_never_kill_the_server(body in proptest::collection::vec(0u8..=255, 0..256)) {
        let mut c = client();
        // A transport error here is acceptable (liveness is the claim);
        // an HTTP answer must be a client-error status.
        if let Ok((status, _)) = c.request("POST", "/v1/models/toy/serve", &body) {
            prop_assert!(status == 400 || status == 422, "status {status}");
        }
        prop_assert!(healthy(), "server died after framed {body:?}");
    }

    /// Garbage presented as the compact binary codec — wrong magic,
    /// truncated frames, lying length prefixes — is refused with a
    /// client error, never a crash.
    #[test]
    fn binary_junk_bodies_never_kill_the_server(body in proptest::collection::vec(0u8..=255, 0..256)) {
        let mut c = client();
        if let Ok((status, _)) = c.post_binary("/v1/models/toy/serve", &body) {
            prop_assert!(status == 400 || status == 422, "status {status}");
        }
        prop_assert!(healthy(), "server died after binary {body:?}");
    }

    /// A single corrupted byte inside an otherwise valid binary frame is
    /// either still decodable (some bytes are payload) or refused — and
    /// the server survives both.
    #[test]
    fn corrupted_binary_frames_never_kill_the_server(pos in 0usize..1024, byte in 0u8..=255) {
        let mut frame = codec::to_frame(&SessionRequest::new(Default::default()));
        let idx = pos % frame.len();
        frame[idx] = byte;
        let mut c = client();
        if let Ok((status, _)) = c.post_binary("/v1/models/toy/serve", &frame) {
            prop_assert!(status == 200 || status == 400 || status == 422, "status {status}");
        }
        prop_assert!(healthy(), "server died after flipping byte {idx} to {byte}");
    }

    /// Hostile delta rounds — contradictions, unknown variables,
    /// out-of-range states, in any mix — never corrupt the stored
    /// session: afterwards an empty delta still answers exactly what the
    /// untouched evidence dictates.
    #[test]
    fn malformed_deltas_never_corrupt_sessions(
        pairs in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..4),
    ) {
        let mut c = client();
        let (path, id) = session_with_pin(&mut c);
        // Every generated pair either re-observes `pin` (state 1 is the
        // idempotent no-op, anything else a contradiction or range
        // error) or names an unknown variable — so no case can
        // *legitimately* extend the evidence, and the session must stay
        // exactly `{pin: 1}` whatever the server answered.
        let mut hostile = SessionRequest::new(Default::default()).into_delta();
        for (ghost, state) in &pairs {
            if *ghost {
                hostile.observation.set("ghost_pin", *state);
            } else {
                hostile.observation.set("pin", *state);
            }
        }
        let (_, _) = c.post(&path, &serde_json::to_string(&hostile).unwrap()).unwrap();
        let replay = SessionRequest::new(Default::default()).into_delta();
        let (status, wire) = c.post(&path, &serde_json::to_string(&replay).unwrap()).unwrap();
        prop_assert_eq!(status, 200);
        prop_assert_eq!(wire, pin_reference_json(), "session drifted after {:?}", pairs);
        let _ = c.delete(&format!("/v1/sessions/{id}"));
        prop_assert!(healthy());
    }
}
