//! The one JSON writer every export goes through.
//!
//! A [`Writer`] appends to one `String` and is the only code that
//! writes JSON punctuation: [`Writer::object`] and [`Writer::array`]
//! scopes place their own commas, [`Writer::key`] names the next value,
//! strings and keys are escaped (`"`, `\` and control characters), and
//! floats take the precision the call site passes — so every report
//! keeps its fixed-precision format and equal-seed runs serialise
//! byte-identically. Reports implement [`ToJson`].
//!
//! [`Perfetto`] is the Chrome trace event document (loadable at
//! <https://ui.perfetto.dev>) on the same writer: the header, one method
//! per event kind, and the µs timestamp format, written once. The span
//! layer's request processes and each plane's synthetic process
//! ([`PERFETTO_TELEMETRY_PID`], [`PERFETTO_PROFILE_PID`],
//! [`PERFETTO_MEMORY_PID`]) stream into one document.

use std::fmt::Write as _;

/// Perfetto pid of the telemetry counter tracks and SLO instants. The
/// three plane pids sit far above any request sequence number the span
/// exporter uses as a pid, so each plane gets its own process lane.
pub const PERFETTO_TELEMETRY_PID: u64 = 1_000_000;

/// Perfetto pid of the core profiler's per-core state tracks.
pub const PERFETTO_PROFILE_PID: u64 = 2_000_000;

/// Perfetto pid of the memory observatory's counter tracks.
pub const PERFETTO_MEMORY_PID: u64 = 3_000_000;

/// A value that serialises itself as one JSON value.
pub trait ToJson {
    /// Writes the value into `w`.
    fn write_json(&self, w: &mut Writer);

    /// The value as a standalone JSON document.
    fn to_json(&self) -> String {
        let mut w = Writer::default();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Appends JSON values to one `String`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next value follows a sibling and needs a comma.
    comma: bool,
}

impl Writer {
    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// An object whose members `body` writes as [`Writer::key`] /
    /// value pairs.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) {
        self.open('{');
        body(self);
        self.close('}');
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) {
        self.open('[');
        body(self);
        self.close(']');
    }

    /// Names the object member whose value is written next.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        self.digits(v);
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// `v` in decimal, without a formatter pass: the trace array is
    /// mostly unsigned integers.
    fn digits(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }

    /// A float with `precision` fractional digits (0 writes an
    /// integral value as a bare integer).
    pub fn f64(&mut self, v: f64, precision: usize) {
        self.sep();
        let _ = write!(self.out, "{v:.precision$}");
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// A string, quoted and escaped.
    pub fn string(&mut self, mut s: &str) {
        self.sep();
        self.out.push('"');
        // Every byte that needs escaping is ASCII, so it is a whole
        // character and the slices around it stay on char boundaries.
        while let Some(i) = s.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.out.push_str(&s[..i]);
            match s.as_bytes()[i] {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                b => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            s = &s[i + 1..];
        }
        self.out.push_str(s);
        self.out.push('"');
    }

    /// Reserves room for `bytes` more bytes of output.
    pub(crate) fn reserve(&mut self, bytes: usize) {
        self.out.reserve(bytes);
    }

    /// A value that writes itself.
    pub fn value(&mut self, v: &impl ToJson) {
        v.write_json(self);
    }
}

/// A Chrome trace event document: `{"displayTimeUnit":"ns",
/// "traceEvents":[…]}`. Instants and durations are passed in
/// nanoseconds and written in microseconds with three decimals.
#[derive(Debug)]
pub struct Perfetto {
    w: Writer,
}

impl Default for Perfetto {
    fn default() -> Perfetto {
        let mut w = Writer::default();
        w.open('{');
        w.key("displayTimeUnit").string("ns");
        w.key("traceEvents").open('[');
        Perfetto { w }
    }
}

impl Perfetto {
    /// The finished document.
    pub fn finish(mut self) -> String {
        self.w.close(']');
        self.w.close('}');
        self.w.finish()
    }

    fn us(w: &mut Writer, key: &str, ns: u64) {
        w.key(key).f64(ns as f64 / 1_000.0, 3);
    }

    fn args(w: &mut Writer, args: Option<(u64, u64)>) {
        if let Some((a, b)) = args {
            w.key("args").object(|w| {
                w.key("a").u64(a);
                w.key("b").u64(b);
            });
        }
    }

    fn metadata(&mut self, pid: u64, tid: Option<u64>, what: &str, name: &str) {
        self.w.object(|w| {
            w.key("ph").string("M");
            w.key("pid").u64(pid);
            if let Some(tid) = tid {
                w.key("tid").u64(tid);
            }
            w.key("name").string(what);
            w.key("args").object(|w| w.key("name").string(name));
        });
    }

    /// `M` event naming process `pid` (with a `tid` only where the
    /// process's tracks were named that way).
    pub fn process_name(&mut self, pid: u64, tid: Option<u64>, name: &str) {
        self.metadata(pid, tid, "process_name", name);
    }

    /// `M` event naming thread `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata(pid, Some(tid), "thread_name", name);
    }

    /// `X` (complete) event covering `[start_ns, start_ns + dur_ns]`,
    /// with an `{a, b}` payload when `args` is given.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
        name: &str,
        args: Option<(u64, u64)>,
    ) {
        self.w.object(|w| {
            w.key("ph").string("X");
            w.key("pid").u64(pid);
            w.key("tid").u64(tid);
            Self::us(w, "ts", start_ns);
            Self::us(w, "dur", dur_ns);
            w.key("name").string(name);
            Self::args(w, args);
        });
    }

    /// `i` (instant) event at `at_ns` with scope `scope` (`"t"` thread,
    /// `"p"` process).
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        at_ns: u64,
        name: &str,
        scope: &str,
        args: Option<(u64, u64)>,
    ) {
        self.w.object(|w| {
            w.key("ph").string("i");
            w.key("pid").u64(pid);
            w.key("tid").u64(tid);
            Self::us(w, "ts", at_ns);
            w.key("name").string(name);
            w.key("s").string(scope);
            Self::args(w, args);
        });
    }

    /// `C` (counter) sample of track `name` at `at_ns`, the value at
    /// `precision` fractional digits.
    pub fn counter(&mut self, pid: u64, name: &str, at_ns: u64, value: f64, precision: usize) {
        self.w.object(|w| {
            w.key("ph").string("C");
            w.key("pid").u64(pid);
            w.key("name").string(name);
            Self::us(w, "ts", at_ns);
            w.key("args")
                .object(|w| w.key("value").f64(value, precision));
        });
    }

    /// An async slice: a `b` event at `start_ns` carrying the `{a, b}`
    /// payload and its matching `e` event at `end_ns`, paired by
    /// `(cat, id)` so slices of one thread may overlap.
    #[allow(clippy::too_many_arguments)]
    pub fn async_slice(
        &mut self,
        cat: &str,
        id: u64,
        pid: u64,
        tid: u64,
        start_ns: u64,
        end_ns: u64,
        name: &str,
        args: (u64, u64),
    ) {
        for (ph, at_ns, args) in [("b", start_ns, Some(args)), ("e", end_ns, None)] {
            self.w.object(|w| {
                w.key("ph").string(ph);
                w.key("cat").string(cat);
                w.key("id").u64(id);
                w.key("pid").u64(pid);
                w.key("tid").u64(tid);
                Self::us(w, "ts", at_ns);
                w.key("name").string(name);
                Self::args(w, args);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(body: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::default();
        body(&mut w);
        w.finish()
    }

    #[test]
    fn scopes_place_their_own_commas() {
        let text = written(|w| {
            w.object(|w| {
                w.key("a").u64(1);
                w.key("b").array(|w| {
                    w.i64(-2);
                    w.object(|_| {});
                    w.array(|_| {});
                    w.null();
                });
                w.key("c").object(|w| w.key("d").bool(true));
                w.key("e").f64(0.5, 3);
                w.key("f").f64(7.0, 0);
            });
        });
        assert_eq!(
            text,
            r#"{"a":1,"b":[-2,{},[],null],"c":{"d":true},"e":0.500,"f":7}"#
        );
    }

    #[test]
    fn strings_and_keys_escape_quotes_backslashes_and_control_characters() {
        let nasty = "q\"uo\\te\n\r\t\u{1}\u{1f}é";
        let text = written(|w| w.object(|w| w.key(nasty).string(nasty)));
        let body = r#""q\"uo\\te\n\r\t\u0001\u001fé""#;
        assert_eq!(text, format!("{{{body}:{body}}}"));
    }

    #[test]
    fn perfetto_events_share_one_document() {
        let mut doc = Perfetto::default();
        doc.process_name(7, None, "p");
        doc.complete(7, 1, 1_500, 250, "x", None);
        doc.counter(9, "c", 2_000, 3.0, 0);
        let text = doc.finish();
        assert_eq!(
            text,
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
             {\"ph\":\"M\",\"pid\":7,\"name\":\"process_name\",\"args\":{\"name\":\"p\"}},\
             {\"ph\":\"X\",\"pid\":7,\"tid\":1,\"ts\":1.500,\"dur\":0.250,\"name\":\"x\"},\
             {\"ph\":\"C\",\"pid\":9,\"name\":\"c\",\"ts\":2.000,\"args\":{\"value\":3}}]}"
        );
        assert_eq!(
            Perfetto::default().finish(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }
}
