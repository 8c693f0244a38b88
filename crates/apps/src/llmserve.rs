//! LLM KV-cache serving over disaggregated memory (the tenant plane's
//! fifth app).
//!
//! Prefill/decode-disaggregated LLM inference (Splitwise-style) is the
//! workload that stresses a remote-memory tier hardest: **prefill**
//! streams a prompt's KV-cache blocks into memory — long *sequential*
//! page writes — while **decode** generates one token at a time,
//! re-reading the session's recent KV pages and appending a little new
//! state. The two phases collide on the page cache: prefill floods it
//! with dirty sequential pages (writeback pressure, readahead-friendly
//! faults), decode wants the session's working window resident
//! (latency-critical, mostly reads).
//!
//! The model here is deliberately page-granular: one 4 KB page holds a
//! few tokens' worth of KV state across all layers, so a
//! few-hundred-token prompt is a few dozen pages of prefill and each
//! decode step walks the last `decode_window` pages of its session
//! (sliding-window attention over the recent context) before appending
//! to the tail page. All state lives in a [`PagedArena`] session table,
//! and every value written is checksummable — decode *verifies* the KV
//! bytes it reads, so the app is a real data structure, not a synthetic
//! touch pattern.

use desim::Rng;
use paging::trace::Trace;
use paging::{PagedArena, TraceRecorder, PAGE_SIZE};
use runtime::Workload;

/// Per-page KV fill value: deterministic in (session, page, epoch) so
/// decode can verify what prefill wrote.
fn kv_word(session: u64, page: u64, epoch: u64) -> u64 {
    (session
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(page)
        .wrapping_mul(0x2545_F491_4F6C_DD1D))
        ^ epoch
}

/// One serving session: a contiguous KV-cache region plus its fill
/// state.
#[derive(Debug, Clone)]
struct Session {
    /// Arena address of the session's KV region (page-aligned).
    kv_base: u64,
    /// Pages of KV state currently valid.
    filled: u32,
    /// Decode steps taken since the last appended page.
    tokens_in_page: u32,
    /// Bumped on every prefill, so stale KV values are detectable.
    epoch: u64,
}

/// The KV-cache store: a session table over arena memory.
pub struct LlmServe {
    arena: PagedArena,
    sessions: Vec<Session>,
    max_context_pages: u32,
    /// Decode steps that fit in one KV page before a new page is
    /// appended (a handful of tokens per 4 KB across all layers).
    tokens_per_page: u32,
}

impl LlmServe {
    /// Builds a store with `num_sessions` sessions of up to
    /// `max_context_pages` KV pages each. Sessions start empty; the
    /// first request against a session is necessarily a prefill.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn build(num_sessions: u32, max_context_pages: u32) -> LlmServe {
        assert!(num_sessions > 0 && max_context_pages > 0);
        let capacity = num_sessions as u64 * max_context_pages as u64 * PAGE_SIZE + (1 << 20);
        let mut arena = PagedArena::new(capacity);
        let sessions = (0..num_sessions)
            .map(|_| Session {
                kv_base: arena.alloc(max_context_pages as u64 * PAGE_SIZE, PAGE_SIZE),
                filled: 0,
                tokens_in_page: 0,
                epoch: 0,
            })
            .collect();
        LlmServe {
            arena,
            sessions,
            max_context_pages,
            tokens_per_page: 4,
        }
    }

    /// Number of sessions in the table.
    pub fn num_sessions(&self) -> u32 {
        self.sessions.len() as u32
    }

    /// Total pages of the working set.
    pub fn total_pages(&self) -> u64 {
        self.arena.total_pages()
    }

    /// KV pages currently valid for `session`.
    pub fn context_pages(&self, session: u32) -> u32 {
        self.sessions[session as usize].filled
    }

    /// Prefill: replace the session's context with a `prompt_pages`-page
    /// prompt — one long sequential run of KV page writes, the access
    /// shape that makes readahead prefetchers shine and floods the
    /// cache with dirty pages.
    ///
    /// # Panics
    ///
    /// Panics if the prompt exceeds the session's context capacity.
    pub fn prefill(&mut self, session: u32, prompt_pages: u32, rec: &mut TraceRecorder) {
        assert!(
            (1..=self.max_context_pages).contains(&prompt_pages),
            "prompt must fit the context window"
        );
        let s = &mut self.sessions[session as usize];
        s.epoch += 1;
        s.filled = prompt_pages;
        s.tokens_in_page = 0;
        let (base, epoch) = (s.kv_base, s.epoch);
        for p in 0..prompt_pages as u64 {
            // Chunked attention + MLP over the page's tokens, then the
            // KV block lands in (remote) memory.
            rec.compute_ns(500.0);
            self.arena
                .write_u64(base + p * PAGE_SIZE, kv_word(session as u64, p, epoch), rec);
        }
    }

    /// Decode one token: walk the last `window` KV pages of the session
    /// (verifying their fill words), then append this token's KV state
    /// to the tail page — growing the context by a page every
    /// `tokens_per_page` steps. Returns the number of KV pages read.
    ///
    /// # Panics
    ///
    /// Panics if the session has no context (prefill first) or a KV
    /// word fails verification (arena corruption).
    pub fn decode(&mut self, session: u32, window: u32, rec: &mut TraceRecorder) -> u32 {
        let s = &self.sessions[session as usize];
        assert!(s.filled > 0, "decode needs a prefilled session");
        let (base, filled, epoch) = (s.kv_base, s.filled as u64, s.epoch);
        let start = filled.saturating_sub(window as u64);
        // Sampled attention over the recent context window.
        for p in start..filled {
            let got = self.arena.read_u64(base + p * PAGE_SIZE, rec);
            assert_eq!(
                got,
                kv_word(session as u64, p, epoch),
                "KV page {p} of session {session} corrupted"
            );
            rec.compute_ns(90.0);
        }
        // Output projection + sampling for the generated token.
        rec.compute_ns(400.0);
        let s = &mut self.sessions[session as usize];
        s.tokens_in_page += 1;
        if s.tokens_in_page >= self.tokens_per_page && s.filled < self.max_context_pages {
            // The tail page is full: append a fresh KV page.
            s.tokens_in_page = 0;
            s.filled += 1;
            let p = s.filled as u64 - 1;
            self.arena
                .write_u64(base + p * PAGE_SIZE, kv_word(session as u64, p, epoch), rec);
        } else {
            // Append into the current tail page (dirties it).
            let p = s.filled as u64 - 1;
            let got = self.arena.read_u64(base + p * PAGE_SIZE, rec);
            self.arena.write_u64(base + p * PAGE_SIZE, got, rec);
        }
        (filled - start) as u32
    }
}

/// Class index of prefill requests.
pub const CLASS_PREFILL: u16 = 0;
/// Class index of decode requests.
pub const CLASS_DECODE: u16 = 1;

/// The serving workload: a stream of prefill and decode requests over a
/// session table, with a configurable prefill:decode mix and prompt
/// lengths.
///
/// Sessions whose context is empty (fresh) or full (at capacity) take a
/// prefill; otherwise the mix fraction decides. Decode dominates a
/// steady-state serving loop — the default 6 % prefill share matches a
/// few hundred generated tokens per prompt.
pub struct LlmServeWorkload {
    llm: LlmServe,
    prefill_fraction: f64,
    min_prompt_pages: u32,
    max_prompt_pages: u32,
    decode_window: u32,
}

impl LlmServeWorkload {
    /// Creates the workload: `num_sessions` sessions of up to
    /// `max_context_pages`, prompts drawn uniformly from
    /// `[max_context_pages / 4, max_context_pages / 2]`.
    pub fn new(num_sessions: u32, max_context_pages: u32) -> LlmServeWorkload {
        LlmServeWorkload {
            llm: LlmServe::build(num_sessions, max_context_pages),
            prefill_fraction: 0.06,
            min_prompt_pages: (max_context_pages / 4).max(1),
            max_prompt_pages: (max_context_pages / 2).max(1),
            decode_window: 8,
        }
    }

    /// Builder: the steady-state prefill share of the request mix.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn with_mix(mut self, prefill_fraction: f64) -> LlmServeWorkload {
        assert!((0.0..=1.0).contains(&prefill_fraction));
        self.prefill_fraction = prefill_fraction;
        self
    }

    /// Builder: prompt-length range in KV pages.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the context window.
    pub fn with_prompt_pages(mut self, min: u32, max: u32) -> LlmServeWorkload {
        assert!(min >= 1 && min <= max && max <= self.llm.max_context_pages);
        self.min_prompt_pages = min;
        self.max_prompt_pages = max;
        self
    }

    /// Builder: KV pages each decode step re-reads.
    pub fn with_decode_window(mut self, window: u32) -> LlmServeWorkload {
        assert!(window >= 1);
        self.decode_window = window;
        self
    }

    /// Access to the underlying store (for correctness tests).
    pub fn llm(&self) -> &LlmServe {
        &self.llm
    }
}

impl Workload for LlmServeWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["prefill", "decode"]
    }

    fn total_pages(&self) -> u64 {
        self.llm.total_pages()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        let session = rng.gen_range(self.llm.num_sessions() as u64) as u32;
        let filled = self.llm.context_pages(session);
        let full = filled >= self.llm.max_context_pages;
        // Fresh or exhausted sessions must prefill; otherwise the mix
        // decides. The bool is drawn unconditionally so the rng stream
        // does not depend on session state.
        let want_prefill = rng.gen_bool(self.prefill_fraction);
        let mut rec = TraceRecorder::reusing(buf);
        // Request parse + session-table lookup.
        rec.compute_ns(150.0);
        if filled == 0 || full || want_prefill {
            let span = (self.max_prompt_pages - self.min_prompt_pages + 1) as u64;
            let prompt = self.min_prompt_pages + rng.gen_range(span) as u32;
            self.llm.prefill(session, prompt, &mut rec);
            // The prompt tokens ride in on the request.
            let request = 64 + prompt * 256;
            rec.finish_into(buf, CLASS_PREFILL, request, 24);
        } else {
            self.llm.decode(session, self.decode_window, &mut rec);
            // One generated token out.
            rec.finish_into(buf, CLASS_DECODE, 48, 24);
        }
    }
}

#[cfg(test)]
mod tests {
    use paging::trace::CostModel;

    use super::*;

    #[test]
    fn prefill_writes_sequential_pages() {
        let mut llm = LlmServe::build(4, 64);
        let mut rec = TraceRecorder::new(CostModel::default());
        llm.prefill(2, 16, &mut rec);
        let t = rec.finish(CLASS_PREFILL, 0, 0);
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        assert_eq!(pages.len(), 16);
        assert!(
            pages.windows(2).all(|p| p[1] == p[0] + 1),
            "prefill must be sequential: {pages:?}"
        );
        assert!(
            t.steps
                .iter()
                .all(|s| s.access.map(|a| a.write).unwrap_or(true)),
            "prefill is write-only"
        );
        assert_eq!(llm.context_pages(2), 16);
    }

    #[test]
    fn decode_walks_the_recent_window_and_grows_context() {
        let mut llm = LlmServe::build(2, 64);
        let mut rec = TraceRecorder::new(CostModel::default());
        llm.prefill(0, 20, &mut rec);
        // Window smaller than context: reads the last 8 pages.
        let mut rec = TraceRecorder::new(CostModel::default());
        let read = llm.decode(0, 8, &mut rec);
        assert_eq!(read, 8);
        let t = rec.finish(CLASS_DECODE, 0, 0);
        assert!(t
            .steps
            .iter()
            .any(|s| matches!(s.access, Some(a) if a.write)));
        // tokens_per_page decodes append one page.
        let before = llm.context_pages(0);
        for _ in 0..4 {
            let mut rec = TraceRecorder::new(CostModel::default());
            llm.decode(0, 8, &mut rec);
        }
        assert_eq!(llm.context_pages(0), before + 1);
    }

    #[test]
    fn decode_verifies_what_prefill_wrote() {
        // The assert inside decode *is* the check; drive a long mixed
        // sequence and let it verify every read word.
        let mut llm = LlmServe::build(3, 32);
        for s in 0..3 {
            let mut rec = TraceRecorder::new(CostModel::default());
            llm.prefill(s, 10 + s, &mut rec);
        }
        for i in 0..200u32 {
            let s = i % 3;
            let mut rec = TraceRecorder::new(CostModel::default());
            if i % 37 == 0 {
                llm.prefill(s, 8, &mut rec);
            } else {
                llm.decode(s, 6, &mut rec);
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefilled")]
    fn decode_without_prefill_panics() {
        let mut llm = LlmServe::build(1, 8);
        let mut rec = TraceRecorder::new(CostModel::default());
        llm.decode(0, 4, &mut rec);
    }

    #[test]
    fn workload_mix_is_mostly_decode() {
        let mut w = LlmServeWorkload::new(64, 32).with_mix(0.05);
        let mut rng = Rng::new(17);
        let (mut prefills, mut decodes) = (0u32, 0u32);
        for _ in 0..4_000 {
            let t = w.next_request(&mut rng);
            match t.class {
                CLASS_PREFILL => {
                    prefills += 1;
                    assert!(t.request_bytes > 1_000, "prompt rides in the request");
                    assert!(t.accesses() >= w.min_prompt_pages as usize);
                }
                CLASS_DECODE => {
                    decodes += 1;
                    assert!(t.accesses() >= 2, "window reads + KV append");
                }
                other => panic!("unknown class {other}"),
            }
        }
        // Warmup prefills (64 fresh sessions) + ~5 % steady share +
        // capacity-forced resets.
        assert!(
            decodes > prefills * 4,
            "{prefills} prefills / {decodes} decodes"
        );
        assert!(prefills > 64, "every session needs its warmup prefill");
    }

    #[test]
    fn workload_is_deterministic() {
        let run = |seed: u64| {
            let mut w = LlmServeWorkload::new(16, 16);
            let mut rng = Rng::new(seed);
            (0..500)
                .map(|_| {
                    let t = w.next_request(&mut rng);
                    (t.class, t.accesses(), t.compute_ns())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
