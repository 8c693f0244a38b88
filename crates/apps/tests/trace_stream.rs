//! Asserts the trace-stream anchors (see `stream/mod.rs`).

mod stream;

#[test]
fn generators_reproduce_their_anchored_streams() {
    let drifted: Vec<String> = stream::report()
        .into_iter()
        .filter(|line| line.ends_with("DRIFT"))
        .collect();
    assert!(
        drifted.is_empty(),
        "trace streams drifted from their anchors:\n{}",
        drifted.join("\n")
    );
}
