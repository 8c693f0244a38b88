//! Prints the golden anchors `tests/determinism.rs` pins: the original
//! Adios + trace + spans capture and every row of the golden matrix
//! (`tests/golden/mod.rs`), each as `(len, fnv1a)` next to the constant
//! currently committed, then the trace-stream anchors of the six
//! request generators (`crates/apps/tests/stream/mod.rs`) as `(fnv1a,
//! trailing rng draw)`. Refresh a constant only when an intentional
//! format or model change lands.

use adios::prelude::*;

#[path = "../tests/golden/mod.rs"]
mod golden;
#[path = "../crates/apps/tests/stream/mod.rs"]
mod stream;

use golden::fnv1a;

fn main() {
    let mut p = golden::params();
    p.trace_capacity = Some(200_000);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    let mut w = ArrayIndexWorkload::new(16_384);
    let res = run_one(SystemConfig::adios(), &mut w, p);
    let json = adios::core_api::run_json(&res);
    let perfetto = adios::desim::span::perfetto_json(&res.spans.as_ref().unwrap().exemplars);
    println!(
        "run_json len={} fnv=0x{:016x}",
        json.len(),
        fnv1a(json.as_bytes())
    );
    println!(
        "perfetto len={} fnv=0x{:016x}",
        perfetto.len(),
        fnv1a(perfetto.as_bytes())
    );
    for case in golden::MATRIX {
        let out = (case.run)();
        let got = (out.len(), fnv1a(out.as_bytes()));
        println!(
            "{:<42} golden: ({}, 0x{:016x}),{}",
            case.name,
            got.0,
            got.1,
            if got == case.golden { "" } else { "  // DRIFT" }
        );
    }
    for line in stream::report() {
        println!("{line}");
    }
}
