//! Adversarial-input property tests for the serve wire protocol: whatever
//! bytes a client sends, `parse_request` must return `Ok`/`Err` — never
//! panic, since a panic or a stack overflow on a connection thread takes
//! the daemon down — and every error reply must be exactly one JSON line
//! with `"ok":false`. Mirrors `proptest_sdf.rs` on the import side.
#![cfg(unix)]

use proptest::prelude::*;
use serde::Value;
use wavemin::serve::protocol::{err_response, parse_request};

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255u8, 0..512usize)
}

/// Valid request lines to corrupt: both payload-carrying commands, with
/// every optional field present in some of them.
const VALID: [&str; 4] = [
    r#"{"cmd":"load","session":"a","benchmark":"s15850","seed":7,"skew_bound_ps":25.5,"sample_count":16,"max_intervals":4,"threads":2,"edits":[{"node":12,"delay_trim_ps":2.0},{"node":3,"delay_trim_ps":-1}]}"#,
    r#"{"cmd":"load","session":"sdf","sdf":"tests/fixtures/tiny_tree.sdf","lib":"tests/fixtures/wavemin_cells.lib"}"#,
    r#"{"cmd":"solve","session":"a","priority":-3,"time_budget_ms":500,"progress":true}"#,
    r#"{"cmd":"solve","session":"a"}"#,
];

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in arb_bytes()) {
        let _ = parse_request(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parser_never_panics_on_corrupted_requests(
        which in 0usize..VALID.len(),
        cut in 0.0..1.0f64,
        pos in 0.0..1.0f64,
        byte in 0u8..=255u8,
    ) {
        // Truncate a valid line at an arbitrary point and overwrite one
        // byte, so the input stays close enough to a real request to
        // reach the field decoding and the cross-field rules.
        let mut bytes = VALID[which].as_bytes().to_vec();
        bytes.truncate((cut * bytes.len() as f64) as usize);
        if !bytes.is_empty() {
            let idx = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[idx] = byte;
        }
        let _ = parse_request(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn every_error_reply_is_one_json_line(
        bytes in arb_bytes(),
        codes in proptest::collection::vec(0u32..0x11_0000, 0..64usize),
    ) {
        // Any message — control characters, quotes, backslashes, any
        // scalar value — must render as one line that parses back.
        let mut msg = String::from_utf8_lossy(&bytes).into_owned();
        msg.extend(codes.into_iter().filter_map(char::from_u32));
        let reply = err_response(&msg);
        prop_assert!(!reply.contains('\n') && !reply.contains('\r'), "{reply}");
        let parsed = serde_json::from_str(&reply).expect("reply parses");
        let Value::Map(entries) = parsed else {
            panic!("reply is not an object: {reply}");
        };
        prop_assert_eq!(
            entries,
            vec![
                ("ok".to_string(), Value::Bool(false)),
                ("error".to_string(), Value::Str(msg)),
            ]
        );
    }
}

#[test]
fn every_valid_fixture_line_decodes() {
    for line in VALID {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}
