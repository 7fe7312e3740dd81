//! Property round-trip suite for the JSON shim itself: arbitrary
//! `Value` trees — control characters, astral-plane strings,
//! deep-but-legal nesting, ±0.0 and boundary integers — must survive
//! `parse(write(v)) == v` through both the compact and pretty writers.
//! Non-finite numbers are excluded from the tree property (they encode
//! as marker strings by design) and covered by dedicated typed tests.

use proptest::prelude::*;
use serde::Value;
use serde_json::{from_str, parse_value_str, to_string, to_string_pretty};

/// Splittable xorshift64* stream — the proptest shim's `Strategy` trait
/// cannot express recursive generators, so the cases draw one seed and
/// grow the tree here.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Strings mixing plain ASCII, characters that must be escaped, raw
/// control bytes and astral-plane scalars.
fn arb_string(state: &mut u64) -> String {
    let len = (next(state) % 9) as usize;
    (0..len)
        .map(|_| match next(state) % 6 {
            0 => char::from_u32(next(state) as u32 % 0x20).unwrap(),
            1 => '"',
            2 => '\\',
            3 => char::from_u32(0x1F300 + next(state) as u32 % 0x200).unwrap(),
            4 => char::from_u32(0xA0 + next(state) as u32 % 0x300).unwrap(),
            _ => char::from_u32(0x20 + next(state) as u32 % 0x5f).unwrap(),
        })
        .collect()
}

/// Finite numbers only (NaN breaks tree equality by definition, and
/// non-finite values encode as strings): signed zeros, whole numbers
/// around the 9e15 formatting boundary, random mantissas.
fn arb_num(state: &mut u64) -> f64 {
    match next(state) % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => (next(state) as i64 % 2_000_000) as f64,
        3 => 9e15 - (next(state) % 5) as f64,
        4 => {
            let bits = next(state);
            let n = f64::from_bits(bits);
            if n.is_finite() {
                n
            } else {
                1.5
            }
        }
        _ => (next(state) % 1_000_000) as f64 / 997.0,
    }
}

fn arb_value(state: &mut u64, depth: usize) -> Value {
    let pick = if depth == 0 {
        next(state) % 4
    } else {
        next(state) % 6
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(next(state).is_multiple_of(2)),
        2 => Value::Num(arb_num(state)),
        3 => Value::Str(arb_string(state)),
        4 => Value::Arr(
            (0..next(state) % 4)
                .map(|_| arb_value(state, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..next(state) % 4)
                .map(|i| {
                    (
                        format!("k{i}{}", arb_string(state)),
                        arb_value(state, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// `parse(write(v)) == v` for arbitrary trees, compact and pretty.
    #[test]
    fn arbitrary_values_roundtrip(seed in 1u64..u64::MAX, depth in 0usize..6) {
        let mut state = seed;
        let value = arb_value(&mut state, depth);
        let compact = to_string(&value).unwrap();
        prop_assert_eq!(&parse_value_str(&compact).unwrap(), &value, "compact: {}", compact);
        let pretty = to_string_pretty(&value).unwrap();
        prop_assert_eq!(&parse_value_str(&pretty).unwrap(), &value, "pretty: {}", pretty);
    }

    /// Typed decode agrees with the tree decode on the same text.
    #[test]
    fn typed_and_tree_decodes_agree(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let value = Value::Arr((0..next(&mut state) % 8).map(|_| Value::Num(arb_num(&mut state))).collect());
        let text = to_string(&value).unwrap();
        let typed: Vec<f64> = from_str(&text).unwrap();
        let tree = parse_value_str(&text).unwrap();
        prop_assert_eq!(tree, Value::Arr(typed.into_iter().map(Value::Num).collect()));
    }
}

#[test]
fn signed_zero_survives_a_roundtrip() {
    // `Value::PartialEq` cannot see the sign (-0.0 == 0.0), so check
    // the bit directly.
    let text = to_string(&Value::Num(-0.0)).unwrap();
    assert_eq!(text, "-0");
    let Value::Num(back) = parse_value_str(&text).unwrap() else {
        panic!("number expected");
    };
    assert!(back.is_sign_negative());
    assert_eq!(to_string(&Value::Num(0.0)).unwrap(), "0");
}

#[test]
fn non_finite_numbers_roundtrip_as_markers() {
    for (n, marker) in [
        (f64::NAN, "\"NaN\""),
        (f64::INFINITY, "\"inf\""),
        (f64::NEG_INFINITY, "\"-inf\""),
    ] {
        let text = to_string(&n).unwrap();
        assert_eq!(text, marker);
        let back: f64 = from_str(&text).unwrap();
        assert!(back.is_nan() == n.is_nan() && (n.is_nan() || back == n));
    }
    // The null leniency: datalog gaps decode as NaN.
    let gap: f64 = from_str("null").unwrap();
    assert!(gap.is_nan());
}

#[test]
fn deep_but_legal_nesting_roundtrips() {
    let mut value = Value::Num(1.0);
    // MAX_DEPTH containers exactly — the deepest legal tree.
    for _ in 0..serde::MAX_DEPTH {
        value = Value::Arr(vec![value]);
    }
    let text = to_string(&value).unwrap();
    assert_eq!(parse_value_str(&text).unwrap(), value);
    // One deeper is refused on decode.
    let over = format!("[{text}]");
    assert!(parse_value_str(&over).is_err());
}
