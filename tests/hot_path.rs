//! The request path's leaf layer stays inlinable.
//!
//! Trace generation (`crates/apps`) and the step / fault / fetch loop
//! (`crates/runtime/src/sim`) cross a crate boundary on almost every
//! call, and rustc does not inline a non-generic `pub fn` across crates
//! unless it carries `#[inline]` (no LTO is configured, on purpose:
//! DESIGN.md §11). This test holds the rule "a leaf `pub fn` on the
//! request path carries `#[inline]`" by reading the sources: every
//! function in [`LEAVES`] must be directly preceded by the attribute.
//! DESIGN.md §11 carries the same table.

/// One source file of the leaf layer: its path under `crates/`, its
/// text, and its request-path functions as `(name, definitions)` —
/// `definitions` is how many `fn` items of that name the file's non-test
/// code holds (two types can share a method name), all of which must be
/// annotated. Where only one of two namesakes is on the path, the name
/// runs on into the signature.
type LeafFile = (&'static str, &'static str, &'static [(&'static str, usize)]);

macro_rules! leaves {
    ($path:literal: $($name:literal $(* $n:literal)?),+ $(,)?) => {
        (
            $path,
            include_str!(concat!("../crates/", $path)),
            &[$(($name, 1 $(* $n)?)),+],
        )
    };
}

const LEAVES: &[LeafFile] = &[
    // Per record: what the apps call while generating a trace.
    leaves!("paging/src/arena.rs": "read_u64", "write_u64", "read_u32", "write_u32",
        "read_bytes", "write_bytes", "peek_u64", "poke_u64", "peek_bytes", "poke_bytes"),
    leaves!("paging/src/trace.rs": "with_steps", "reusing", "compute_ns(&mut self", "touch",
        "touch_range", "flush_step", "finish", "finish_into"),
    leaves!("apps/src/hashidx.rs": "get"),
    leaves!("desim/src/rng.rs": "next_u64", "gen_range", "gen_f64", "gen_bool", "exp"),
    // Per step and per fetch: the page cache, the prefetch detectors,
    // placement, and what `RdmaNic::post` / `on_cqe` call.
    leaves!("paging/src/cache.rs": "lookup", "touch", "note_coalesced", "begin_fetch",
        "tag_fetch", "fetch_tag", "complete_fetch", "evict_one", "evict_one_stepping",
        "free_frames", "used_frames", "total_pages"),
    leaves!("paging/src/prefetch.rs": "on_fault" * 2),
    leaves!("fabric/src/shard.rs": "shard_of", "shard_of_general", "node_id"),
    leaves!("fabric/src/link.rs": "serialize_ns", "serialize_ns_memo", "transmit", "account",
        "next_free"),
    leaves!("fabric/src/memnode.rs": "id", "serve_read", "serve_write"),
    leaves!("fabric/src/nic.rs": "advance_occupancy", "degrade_extra", "on_cqe", "outstanding",
        "total_outstanding"),
    // The inert fault plane must cost a branch per question.
    leaves!("faults/src/lib.rs": "active", "active_at", "episode_active", "link_penalty",
        "packet_lost", "node_health", "cqe_error"),
    // Per request: arrival, wire, steering, completion.
    leaves!("loadgen/src/arrivals.rs": "gap_ns", "next_arrival" * 2, "steer"),
    leaves!("loadgen/src/record.rs": "complete"),
    leaves!("fabric/src/eth.rs": "deliver_request", "send_reply"),
];

/// The lines (1-based) of `src`'s non-test code that define a function
/// called `name`, each with whether `#[inline]` directly precedes it.
fn definitions(src: &str, name: &str) -> Vec<(usize, bool)> {
    let code = src.split("#[cfg(test)]\nmod tests").next().unwrap_or(src);
    let lines: Vec<&str> = code.lines().collect();
    let prefix = format!("fn {name}");
    lines
        .iter()
        .enumerate()
        .filter(|(_, line)| {
            let line = line.trim_start();
            let item = line
                .strip_prefix("pub(crate) ")
                .or_else(|| line.strip_prefix("pub "))
                .unwrap_or(line);
            // A whole name: `touch` must not match `touch_range`.
            item.strip_prefix(&prefix)
                .and_then(|rest| rest.chars().next())
                .is_some_and(|c| !c.is_alphanumeric() && c != '_')
        })
        .map(|(i, _)| (i + 1, i > 0 && lines[i - 1].trim() == "#[inline]"))
        .collect()
}

#[test]
fn request_path_leaves_carry_inline() {
    let mut missing = Vec::new();
    for &(file, src, names) in LEAVES {
        for &(name, expect) in names {
            let found = definitions(src, name);
            assert_eq!(
                found.len(),
                expect,
                "crates/{file}: `fn {name}` defined {} times, the table says {expect}",
                found.len()
            );
            for (line, inline) in found {
                if !inline {
                    missing.push(format!("crates/{file}:{line}: fn {name}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "request-path leaf functions without a directly preceding #[inline] \
         (DESIGN.md §11):\n  {}",
        missing.join("\n  ")
    );
}

/// The checker itself: it sees an unannotated definition, an attribute
/// separated from its function, and ignores test code.
#[test]
fn checker_flags_what_it_should() {
    let src = "impl A {\n    #[inline]\n    pub fn hit(&self) {}\n\n    pub fn miss(&self) {}\n\
               \n    #[inline]\n    /// doc in between\n    fn apart<T>(&self) {}\n}\n\
               #[cfg(test)]\nmod tests {\n    fn hit() {}\n}\n";
    assert_eq!(definitions(src, "hit"), [(3, true)]);
    assert_eq!(definitions(src, "miss"), [(5, false)]);
    assert_eq!(definitions(src, "apart"), [(9, false)]);
    assert!(definitions(src, "hi").is_empty(), "whole names only");
}
