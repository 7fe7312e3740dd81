//! The two wire codecs are interchangeable: any `SessionRequest` or
//! `SessionReport` decodes to the same value from its JSON encoding and
//! its compact binary encoding. The proptests below pin that on
//! messy-but-finite floats (thirds, ten-thousandths — values whose
//! decimal rendering exercises the shortest-roundtrip printer) and on
//! real inference output, whose posteriors and log-likelihoods are
//! arbitrary doubles the kernels actually produced. They also pin that
//! a typed binary frame read back as a dynamic `serde::Value`
//! re-encodes to the typed bytes in both codecs — the tree that
//! `serde_json::to_string_pretty` prints is the one the wire carries.

use abbd_core::fixtures::toy_compiled_model;
use abbd_server::{codec, SessionReport, SessionRequest};
use proptest::prelude::*;

/// Reads `frame` back as a `serde::Value` and asserts the tree
/// re-encodes to `frame` and to `json`, the typed JSON bytes.
fn assert_value_read_back_matches(frame: &[u8], json: &str) -> Result<(), TestCaseError> {
    let tree: serde::Value = codec::from_frame(frame).unwrap();
    prop_assert_eq!(codec::to_frame(&tree), frame);
    prop_assert_eq!(json_of(&tree), json);
    Ok(())
}

/// Canonical comparison form: the JSON rendering. (The DTOs do not all
/// implement `Eq`, and float identity is exactly what the JSON printer's
/// shortest-roundtrip guarantee makes comparable.)
fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("encodes")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// A request decodes to the same value from both codecs, and both
    /// equal the original.
    #[test]
    fn requests_decode_equal_from_both_codecs(
        pin in 0usize..2,
        out1 in proptest::option::of(0usize..2),
        threshold_millis in 1u32..1000,
        min_gain_micros in 0u32..1_000_000,
        max_steps in 1usize..64,
        delta in proptest::bool::ANY,
    ) {
        let mut request = SessionRequest::new(Default::default());
        request.observation.set("pin", pin);
        if let Some(state) = out1 {
            request.observation.set("out1", state);
            if state == 0 {
                request.observation.mark_failing("out1");
            }
        }
        // Non-dyadic fractions: decimal values like 0.123 have no exact
        // binary representation, so a codec that rounds through a lossy
        // intermediate would drift here.
        request.policy.fault_mass_threshold = f64::from(threshold_millis) / 1000.0;
        request.policy.min_gain = f64::from(min_gain_micros) / 1_000_000.0;
        request.policy.max_steps = max_steps;
        if delta {
            request = request.into_delta();
        }

        let from_json: SessionRequest = serde_json::from_str(&json_of(&request)).unwrap();
        let from_binary: SessionRequest = codec::from_frame(&codec::to_frame(&request)).unwrap();
        prop_assert_eq!(json_of(&from_json), json_of(&from_binary));
        prop_assert_eq!(json_of(&from_binary), json_of(&request));
        prop_assert_eq!(from_binary.delta, delta);
    }

    /// Real inference output — posteriors, fault masses, ranked actions,
    /// log-likelihoods — survives both codecs equally. These doubles
    /// come out of the propagation kernels, not a generator, so they
    /// cover the full messiness of actual wire traffic.
    #[test]
    fn reports_decode_equal_from_both_codecs(
        pin in 0usize..2,
        fail_out1 in proptest::bool::ANY,
    ) {
        let mut request = SessionRequest::new(Default::default());
        request.observation.set("pin", pin);
        if fail_out1 {
            request.observation.set("out1", 0);
            request.observation.mark_failing("out1");
        }
        let report = toy_compiled_model().serve(&request).unwrap();

        let from_json: SessionReport = serde_json::from_str(&json_of(&report)).unwrap();
        let from_binary: SessionReport = codec::from_frame(&codec::to_frame(&report)).unwrap();
        prop_assert_eq!(json_of(&from_json), json_of(&from_binary));
        prop_assert_eq!(json_of(&from_binary), json_of(&report));
    }

    /// A request's binary frame, read back as a `Value`, re-encodes to
    /// the typed frame and the typed JSON byte for byte.
    #[test]
    fn streaming_requests_are_byte_identical_to_the_value_path(
        pin in 0usize..2,
        threshold_millis in 1u32..1000,
        max_steps in 1usize..64,
        delta in proptest::bool::ANY,
    ) {
        let mut request = SessionRequest::new(Default::default());
        request.observation.set("pin", pin);
        request.policy.fault_mass_threshold = f64::from(threshold_millis) / 1000.0;
        request.policy.max_steps = max_steps;
        if delta {
            request = request.into_delta();
        }
        assert_value_read_back_matches(&codec::to_frame(&request), &json_of(&request))?;
    }

    /// The same read-back on real inference output, whose doubles come
    /// out of the kernels: the `Value` keeps every bit.
    #[test]
    fn streaming_reports_are_byte_identical_to_the_value_path(
        pin in 0usize..2,
        fail_out1 in proptest::bool::ANY,
    ) {
        let mut request = SessionRequest::new(Default::default());
        request.observation.set("pin", pin);
        if fail_out1 {
            request.observation.set("out1", 0);
            request.observation.mark_failing("out1");
        }
        let report = toy_compiled_model().serve(&request).unwrap();
        assert_value_read_back_matches(&codec::to_frame(&report), &json_of(&report))?;
    }

    /// Frame-level sanity under concatenation: N encoded requests stream
    /// back out of one buffer in order, exactly as the batch reply path
    /// relies on.
    #[test]
    fn frames_stream_in_order(steps in proptest::collection::vec(1usize..64, 1..8)) {
        let mut wire = Vec::new();
        for &max_steps in &steps {
            let mut request = SessionRequest::new(Default::default());
            request.policy.max_steps = max_steps;
            codec::frame_into(&request, &mut wire);
        }
        let mut pos = 0;
        for &max_steps in &steps {
            let decoded: SessionRequest = codec::decode_frame(&wire, &mut pos).unwrap();
            prop_assert_eq!(decoded.policy.max_steps, max_steps);
        }
        prop_assert_eq!(pos, wire.len());
    }
}
