//! Schema checks for the checked-in `results/timing_breakdown.json`.
//!
//! The vendored `serde_json` keeps objects as ordered `(key, value)` pairs
//! and will serialise duplicate keys without complaint, which is how the
//! breakdown once emitted two `median_1thr_ms` fields per phase on a
//! 1-thread host. This test parses every phase record of the committed
//! artifact and rejects duplicate keys anywhere in the document, so a
//! regression cannot land silently again.

use bba_bench::report::duplicate_key_path;
use serde_json::Value;

fn results_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/timing_breakdown.json")
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[test]
fn timing_breakdown_phases_have_unique_well_formed_keys() {
    let raw = std::fs::read_to_string(results_path())
        .expect("results/timing_breakdown.json is committed alongside the code");
    let doc: Value = serde_json::from_str(&raw).expect("artifact parses as JSON");

    assert_eq!(
        duplicate_key_path(&doc),
        None,
        "results/timing_breakdown.json binds a key twice — regenerate it with \
         `cargo run --release -p bba-bench --bin timing_breakdown`"
    );

    let Value::Map(root) = &doc else { panic!("root must be an object") };
    let Some(Value::Seq(phases)) = field(root, "phases") else {
        panic!("root must carry a `phases` array")
    };
    assert!(!phases.is_empty(), "at least one phase record expected");
    for (i, phase) in phases.iter().enumerate() {
        let Value::Map(entries) = phase else { panic!("phase {i} must be an object") };
        for key in ["label", "median_1thr_ms", "p90_1thr_ms"] {
            assert!(
                field(entries, key).is_some(),
                "phase {i} is missing `{key}` (found keys: {:?})",
                entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
            );
        }
        assert!(
            matches!(field(entries, "label"), Some(Value::Str(s)) if !s.is_empty()),
            "phase {i} label must be a non-empty string"
        );
    }
}
