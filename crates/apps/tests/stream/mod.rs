//! Trace-stream anchors: the first [`REQUESTS`] requests of every
//! request generator, at two seeds, pinned to an FNV-1a over exactly
//! what the simulator reads — `(class, steps, request_bytes,
//! reply_bytes)` — plus the rng's next draw after the last request.
//!
//! The golden matrix (`tests/golden/mod.rs`) pins whole simulated runs;
//! these pin the generators alone, so a host-side change to request
//! execution (borrowed views, scratch reuse, rounding) that moves one
//! recorded step or one rng draw fails here first, by generator name.
//! The constants were captured on the tree *before* request execution
//! went zero-copy. Shared by `tests/trace_stream.rs` (asserts the
//! table) and the root `examples/golden_capture.rs` (prints it —
//! refresh a row only when an intentional model change lands).

use apps::silo::tpcc::TpccScale;
use apps::{FaissWorkload, LlmServeWorkload, MemcachedWorkload, RocksDbWorkload, TpccWorkload};
use desim::Rng;
use paging::trace::Trace;
use runtime::{ArrayIndexWorkload, Workload};

/// Requests hashed per anchor.
pub const REQUESTS: usize = 2_000;

/// The two seeds every generator is anchored at.
pub const SEEDS: [u64; 2] = [3, 17];

/// One generator's anchors: `(fnv1a, trailing rng draw)` per seed.
pub struct Case {
    pub name: &'static str,
    pub build: fn() -> Box<dyn Workload>,
    pub golden: [(u64, u64); 2],
}

/// The six generators (the KVS twice: its SET path and its Zipf pick).
pub const CASES: &[Case] = &[
    Case {
        name: "array",
        build: || Box::new(ArrayIndexWorkload::new(16_384)),
        golden: [
            (0x167d_acc8_4bb2_a7ed, 0x3328_4218_dc94_eee7),
            (0xa452_63f5_27ce_788a, 0x2f24_2e31_6c8c_3f9b),
        ],
    },
    Case {
        name: "kvs 30% SET",
        build: || Box::new(MemcachedWorkload::new(4_000, 128).with_sets(0.3)),
        golden: [
            (0x13ac_1b44_3d0d_963c, 0x9925_0513_41d0_7dc6),
            (0x2cb6_39c1_8d5b_a803, 0x10b3_ecff_cbf5_7370),
        ],
    },
    Case {
        name: "kvs zipf(0.99) 1 KB",
        build: || Box::new(MemcachedWorkload::new(2_000, 1024).with_zipf(0.99)),
        golden: [
            (0x4a42_85e6_9eba_4b14, 0x3328_4218_dc94_eee7),
            (0x3575_56f5_c838_f020, 0x2f24_2e31_6c8c_3f9b),
        ],
    },
    Case {
        name: "rocksdb 20% SCAN(100)",
        build: || Box::new(RocksDbWorkload::new(5_000, 1024).with_mix(0.2, 100)),
        golden: [
            (0xfa5a_d4ea_6780_1666, 0x8248_d5ea_dfe7_71fd),
            (0xffa4_511a_430d_81c8, 0xc679_a7e2_a80b_23ea),
        ],
    },
    Case {
        name: "tpcc tiny",
        build: || Box::new(TpccWorkload::new(TpccScale::tiny(), 1)),
        golden: [
            (0x5ffb_6221_703f_927b, 0xf2a5_c5b9_dce7_4fb7),
            (0xf49f_2269_2f06_d4b2, 0x4f2b_803a_3baf_a33a),
        ],
    },
    Case {
        name: "faiss nprobe 4",
        build: || Box::new(FaissWorkload::new(3_000, 16, 4, 9)),
        golden: [
            (0x1a1c_b82b_b1ea_eaf4, 0xb573_c3eb_54d4_d8f3),
            (0xbf9e_04fd_1ff4_c613, 0x8bb4_939f_9ba4_cb5b),
        ],
    },
    Case {
        name: "llm 64x64",
        build: || Box::new(LlmServeWorkload::new(64, 64)),
        golden: [
            (0x8dc6_9f8d_3d2f_5460, 0x195f_2410_750f_0ab6),
            (0x4291_631f_7aee_65bc, 0xcd1a_b0de_687b_9af9),
        ],
    },
];

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drives a fresh generator for [`REQUESTS`] requests on one recycled
/// [`Trace`] (the path the simulator's trace pool takes) and returns
/// `(fnv1a over the stream, the rng's next draw)`.
pub fn anchor(case: &Case, seed: u64) -> (u64, u64) {
    let mut workload = (case.build)();
    let mut rng = Rng::new(seed);
    let mut buf = Trace::default();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..REQUESTS {
        workload.next_request_into(&mut rng, &mut buf);
        h.eat(buf.class as u64);
        h.eat(buf.steps.len() as u64);
        for s in &buf.steps {
            h.eat(s.compute_ns as u64);
            match s.access {
                Some(a) => h.eat(a.page << 2 | (a.write as u64) << 1 | 1),
                None => h.eat(0),
            }
        }
        h.eat(buf.request_bytes as u64);
        h.eat(buf.reply_bytes as u64);
    }
    (h.0, rng.next_u64())
}

/// One line per `(generator, seed)` in `golden_capture`'s format, with
/// the `DRIFT` flag where the stream left its constant.
pub fn report() -> Vec<String> {
    let mut lines = Vec::new();
    for case in CASES {
        for (i, &seed) in SEEDS.iter().enumerate() {
            let got = anchor(case, seed);
            lines.push(format!(
                "{:<42} golden: (0x{:016x}, 0x{:016x}),{}",
                format!("stream {} seed {seed}", case.name),
                got.0,
                got.1,
                if got == case.golden[i] {
                    ""
                } else {
                    "  // DRIFT"
                }
            ));
        }
    }
    lines
}
