//! Totality of `obs::json::Json::parse`: every spec file, shard frame
//! and chunk-store document the workspace reads goes through it, so it
//! must return `Ok` or `Err` — never panic, never overflow the stack —
//! on arbitrary input. Inputs are random bytes, every truncation and
//! random byte flips of real machine and workload spec documents, and
//! nesting around `MAX_DEPTH`.

use obs::json::{Json, MAX_DEPTH};
use proptest::prelude::*;

/// Valid spec documents: the shipped machine spec files and a workload
/// spec of each template family's shape (see EXPERIMENTS.md).
const DOCS: [&str; 4] = [
    include_str!("../../../assets/machines/candidate-ib.json"),
    include_str!("../../../assets/machines/opteron-myrinet.json"),
    r#"{ "workload": "stencil", "params": { "px": 4, "py": 4, "nx": 500, "ny": 500,
         "iterations": 50, "flops_per_cell": 6.0 } }"#,
    r#"{ "workload": "allreduce", "params": { "procs": 64, "cells_per_pe": 1.25e5,
         "flops_per_cell": 2.5, "reduce_bytes": 8, "reductions_per_iteration": 2,
         "iterations": 10, "note": "esc \"q\" \\ é \ud83d \/ \b\f\n\r\t" } }"#,
];

/// Parse text made from arbitrary bytes (lossily, as a reader of an
/// untrusted file would after UTF-8 validation).
fn parse_bytes(bytes: &[u8]) -> Result<Json, String> {
    Json::parse(&String::from_utf8_lossy(bytes))
}

#[test]
fn spec_documents_parse() {
    for doc in DOCS {
        let v = Json::parse(doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(matches!(v, Json::Obj(_)));
    }
}

#[test]
fn every_truncation_is_total() {
    for doc in DOCS.map(str::trim_end) {
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            // A strict prefix of an object document is never complete.
            assert!(Json::parse(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }
}

#[test]
fn nesting_around_the_depth_limit_is_total() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2, 100_000] {
        let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}0{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        let mixed = format!("{}null{}", r#"[{"k":"#.repeat(depth / 2), "}]".repeat(depth / 2));
        for doc in [&arrays, &objects, &mixed] {
            let parsed = Json::parse(doc);
            // Depth counts enclosing containers: `depth` nested containers
            // parse exactly when depth <= MAX_DEPTH.
            let levels = if doc == &mixed { 2 * (depth / 2) } else { depth };
            assert_eq!(parsed.is_ok(), levels <= MAX_DEPTH, "{} levels", levels);
            // Truncated deep documents are unclosed: errors, at any depth.
            assert!(Json::parse(&doc[..doc.len() / 2]).is_err());
        }
        assert!(Json::parse(&"[".repeat(depth)).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup.
    #[test]
    fn parse_total_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = parse_bytes(&bytes);
    }

    /// Soup over JSON's own alphabet, which gets deeper into the parser
    /// than uniform bytes.
    #[test]
    fn parse_total_on_json_alphabet(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00", "\\ud83d",
                "\"k\"", "true", "tru", "false", "null", "nul", "0", "-", "+", ".", "e",
                "1e999", "-0", "1.5", "\u{e9}", " ", "\n",
            ]),
            0..80,
        )
    ) {
        let _ = Json::parse(&tokens.concat());
    }

    /// Random byte flips of valid spec documents, with a truncation.
    #[test]
    fn parse_total_on_flipped_spec_documents(
        which in 0usize..4,
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..6),
        keep in any::<u32>(),
    ) {
        let mut bytes = DOCS[which].as_bytes().to_vec();
        for (at, b) in flips {
            let i = at as usize % bytes.len();
            bytes[i] = b;
        }
        let _ = parse_bytes(&bytes);
        let keep = keep as usize % (bytes.len() + 1);
        let _ = parse_bytes(&bytes[..keep]);
    }
}
