//! The harness's own span recorder: one span around each call into a
//! layer (name, start, end, parent, track), kept in memory and
//! written as Chrome-trace JSON when the traced run ends. Spans live in
//! the benchmark's files only; spans inside the program are a later
//! change.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Track the span is drawn on (Chrome-trace `tid`).
    pub track: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    track: u32,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// Storage is reserved up front so recording a span does not
    /// allocate inside a measured region.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 15),
            open: Vec::with_capacity(16),
            track: 0,
        }
    }

    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result with the span's duration in ns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            track: self.track,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Clock read after the bookkeeping, so a growing span buffer is
        // never inside the interval it measures.
        let start_ns = self.now_ns();
        self.spans[id].start_ns = start_ns;
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total and self time per span name, in first-seen order:
    /// `(name, calls, total_ns, self_ns)`.
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.dur_ns(), own)),
            }
        }
        rows
    }

    /// Every child lies inside its parent and siblings' durations sum
    /// to no more than the parent's.
    pub fn well_formed(&self) -> bool {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return false;
                }
                child_sum[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .all(|(s, c)| s.end_ns >= s.start_ns && c <= s.dur_ns())
    }

    /// Chrome-trace ("Trace Event Format") document: one complete event
    /// per span, `tid` = the span's track; open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, own))| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.track as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", parent),
                            ("self_us", Json::Num(own as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut sp = Spans::new();
        sp.set_track(3);
        let ((), total) = sp.time("outer", |sp| {
            sp.time("inner", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
            sp.time("inner", |_| ());
        });
        let all = &sp.spans;
        assert_eq!(all.len(), 3);
        assert_eq!(
            (all[0].parent, all[1].parent, all[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(all.iter().all(|s| s.track == 3));
        assert_eq!(all[0].dur_ns(), total);
        assert!(sp.well_formed());
        let own = sp.self_ns();
        assert_eq!(own[0], total - all[1].dur_ns() - all[2].dur_ns());
        let rows = sp.by_name();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[1].0, rows[1].1), ("inner", 2));
        assert_eq!(rows[0].3, own[0]);
    }

    #[test]
    fn chrome_trace_is_parseable_and_complete() {
        let mut sp = Spans::new();
        sp.time("a", |sp| sp.time("b", |_| ()));
        let doc = Json::parse(&sp.chrome_trace().to_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("b"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
