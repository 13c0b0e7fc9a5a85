//! Golden tests for the NLTB binary exporter.
//!
//! * The **v2** encoding of the shared fixture report is pinned
//!   byte-for-byte in `tests/fixtures/golden_trace.nltb`. Any change to
//!   the wire format fails here and must both regenerate the fixture
//!   (`UPDATE_GOLDEN=1 cargo test -p noiselab-telemetry`) and bump
//!   [`noiselab_telemetry::binary::VERSION`].
//! * The fixture must decode back to the report it was encoded from.

mod common;

use noiselab_telemetry::binary::{decode, encode, MAGIC, SCHEMA, VERSION};

const FIXTURE: &str = "golden_trace.nltb";

fn golden() -> Vec<u8> {
    let bytes = encode(&common::fixture_report());
    let path = common::fixture_path(FIXTURE);
    if common::update_golden() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &bytes).expect("write fixture");
    }
    bytes
}

#[test]
fn binary_encoding_matches_golden_fixture() {
    let bytes = golden();
    let want = std::fs::read(common::fixture_path(FIXTURE))
        .expect("fixture missing — regenerate with UPDATE_GOLDEN=1 cargo test");
    assert_eq!(
        bytes, want,
        "NLTB encoding drifted from the golden fixture; a deliberate \
         format change must regenerate the fixture AND bump VERSION"
    );
    assert_eq!(&bytes[0..4], MAGIC);
    assert_eq!(bytes[4], VERSION);
}

#[test]
fn golden_fixture_decodes_back_to_the_report() {
    let report = common::fixture_report();
    let trace = decode(&golden()).expect("golden bytes decode");
    assert_eq!(trace.schema, SCHEMA);
    assert_eq!(trace.strings, report.strings);
    assert_eq!(trace.spans, report.spans);
    assert_eq!(trace.instants, report.instants);
    assert_eq!(trace.counters, report.counters);
    // Fixture coverage: both span flavours with and without a thread.
    assert!(trace.spans.iter().any(|s| s.thread.is_some()));
    assert!(trace.spans.iter().any(|s| s.thread.is_none()));
    assert_eq!(trace.instants.len(), 3);
    assert_eq!(trace.counters.len(), 1);
}
