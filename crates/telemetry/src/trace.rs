//! Flight-recorder event tracing: a bounded, allocation-free ring of
//! timestamped structured events, carried by the same
//! [`crate::Registry`] handle as the counters.
//!
//! Where the [`crate::Registry`] answers *how much* (work totals), the
//! [`Tracer`] answers *how long, when and in what order*:
//! every instrumented layer — engine stages, cache cells, scheduler
//! passes, simulator block cache — pushes [`Event`]s carrying a static
//! category/name pair, two `u64` arguments, a monotonic timestamp, and
//! a global sequence number. Recording is bounded: events land in
//! per-thread-striped rings that overwrite their oldest entries, so a
//! tracer can stay attached to an arbitrarily long run and always hold
//! the most recent window — the flight-recorder property.
//!
//! # Clock semantics
//!
//! Timestamps are nanoseconds from the tracer's creation instant
//! (monotonic, per-process). Serialized traces carry the creation
//! time's Unix anchor (`epoch_ns`) and the recording process id.
//! Sequence numbers are allocated at event *start* from one
//! process-wide atomic, which makes per-thread sequence order and
//! per-thread timestamp order agree.
//!
//! # Overhead discipline
//!
//! A registry records trace events only when it was built with
//! [`crate::Registry::with_tracer`]; instrumented code reads the
//! tracer once per block, run, stage or cell, never per instruction.
//! The per-million-event paths (simulator block-cache *hits*) are
//! deliberately summarized as one event per run rather than traced
//! individually.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::fmt_ns;
use crate::json::Json;

/// The `schema` member every serialized trace carries.
pub const TRACE_SCHEMA: &str = "eel-trace";

/// The trace format version this crate reads and writes.
pub const TRACE_VERSION: u64 = 1;

/// Ring stripes: each thread records into `tid % STRIPES`, so one
/// thread's events stay in one ring and survive wraparound in order.
const STRIPES: usize = 8;

/// One recorded event. `dur_ns == 0` marks an instant; spans carry
/// their wall duration. `Copy` (strings are `&'static`) so rings are
/// pre-allocated flat arrays and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Process-wide allocation order (start order for spans).
    pub seq: u64,
    /// Recording thread (process-wide thread index, not an OS tid).
    pub tid: u32,
    /// Nanoseconds since the tracer's epoch (span start time).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
    /// Event category (`engine`, `cell`, `sched`, `sim`, ...).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// First argument (meaning is per-name; often a key or a count).
    pub a0: u64,
    /// Second argument.
    pub a1: u64,
}

/// A fixed-capacity overwrite-oldest ring of events.
#[derive(Debug)]
struct Ring {
    buf: Vec<Event>,
    /// Next write position; wraps at `buf.capacity()`.
    next: usize,
    /// Total events ever pushed (so `len = min(pushed, capacity)`).
    pushed: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity),
            next: 0,
            pushed: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
        }
        self.next = (self.next + 1) % self.buf.capacity().max(1);
        self.pushed += 1;
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The process-wide index of the calling thread (assigned on first
/// use, stable for the thread's lifetime).
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// A bounded flight recorder: striped overwrite-oldest rings of
/// [`Event`]s with a process-monotonic clock and a global sequence
/// counter. `Sync` — one tracer is shared by every worker thread of a
/// run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    epoch_unix_ns: u64,
    seq: AtomicU64,
    stripes: Vec<Mutex<Ring>>,
}

impl Tracer {
    /// A tracer holding at most `capacity` events (split across the
    /// internal stripes; at least one slot per stripe).
    pub fn new(capacity: usize) -> Tracer {
        let per = (capacity / STRIPES).max(1);
        Tracer {
            epoch: Instant::now(),
            epoch_unix_ns: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            seq: AtomicU64::new(0),
            stripes: (0..STRIPES).map(|_| Mutex::new(Ring::new(per))).collect(),
        }
    }

    /// Nanoseconds since this tracer's creation.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, e: Event) {
        let stripe = e.tid as usize % STRIPES;
        self.stripes[stripe]
            .lock()
            .expect("trace ring lock")
            .push(e);
    }

    /// Records an instant event.
    pub fn instant(&self, cat: &'static str, name: &'static str, a0: u64, a1: u64) {
        self.push(Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            tid: current_tid(),
            ts_ns: self.now_ns(),
            dur_ns: 0,
            cat,
            name,
            a0,
            a1,
        });
    }

    /// Opens a span: the event's sequence number and start timestamp
    /// are taken now, and the event is recorded (with its duration)
    /// when the returned guard drops.
    pub fn span(&self, cat: &'static str, name: &'static str, a0: u64, a1: u64) -> TraceGuard<'_> {
        TraceGuard {
            tracer: self,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            tid: current_tid(),
            ts_ns: self.now_ns(),
            cat,
            name,
            a0,
            a1,
        }
    }

    /// Events recorded so far (spans only once complete), oldest
    /// first by sequence number. Rings overwrite, so this is the most
    /// recent window, not necessarily everything ever pushed.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().expect("trace ring lock").buf.iter().copied());
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Total events pushed since creation (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("trace ring lock").pushed)
            .sum()
    }

    /// Snapshots the current window as an owned, serializable
    /// [`TraceFile`] with `meta` attached.
    pub fn trace_file(&self, meta: &[(&str, String)]) -> TraceFile {
        TraceFile {
            epoch_unix_ns: self.epoch_unix_ns,
            pid: u64::from(std::process::id()),
            meta: meta
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            events: self.events().iter().map(OwnedEvent::from).collect(),
        }
    }
}

/// RAII span guard from [`Tracer::span`]: records the completed event
/// on drop, with the duration measured against the tracer's clock.
#[derive(Debug)]
pub struct TraceGuard<'a> {
    tracer: &'a Tracer,
    seq: u64,
    tid: u32,
    ts_ns: u64,
    cat: &'static str,
    name: &'static str,
    a0: u64,
    a1: u64,
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        self.tracer.push(Event {
            seq: self.seq,
            tid: self.tid,
            ts_ns: self.ts_ns,
            dur_ns: self.tracer.now_ns().saturating_sub(self.ts_ns),
            cat: self.cat,
            name: self.name,
            a0: self.a0,
            a1: self.a1,
        });
    }
}

/// An owned event, as parsed back from a serialized trace (or built
/// from a live [`Event`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Sequence number.
    pub seq: u64,
    /// Thread index.
    pub tid: u64,
    /// Nanoseconds since the file's epoch.
    pub ts_ns: u64,
    /// Span duration; 0 for instants.
    pub dur_ns: u64,
    /// Event category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// First argument.
    pub a0: u64,
    /// Second argument.
    pub a1: u64,
}

impl From<&Event> for OwnedEvent {
    fn from(e: &Event) -> OwnedEvent {
        OwnedEvent {
            seq: e.seq,
            tid: u64::from(e.tid),
            ts_ns: e.ts_ns,
            dur_ns: e.dur_ns,
            cat: e.cat.to_string(),
            name: e.name.to_string(),
            a0: e.a0,
            a1: e.a1,
        }
    }
}

/// Why a serialized trace failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line was not valid JSON.
    Parse(String),
    /// The header is missing or is not an `eel-trace` document.
    Schema(String),
    /// The trace's version is not [`TRACE_VERSION`].
    Version(u64),
    /// A member has the wrong shape.
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse(e) => write!(f, "invalid trace JSON: {e}"),
            TraceError::Schema(found) => write!(
                f,
                "not a trace: expected schema `{TRACE_SCHEMA}`, found {found}"
            ),
            TraceError::Version(v) => write!(
                f,
                "unsupported trace version {v} (this build reads version {TRACE_VERSION})"
            ),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete serialized trace: one JSONL header line plus one line
/// per event. `u64` fields that can exceed 2^53 (the epoch anchor and
/// the event arguments — cell keys are full 64-bit hashes) are written
/// as decimal *strings* so the JSON layer round-trips them exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFile {
    /// Unix nanoseconds of the recording tracer's epoch.
    pub epoch_unix_ns: u64,
    /// Recording process id.
    pub pid: u64,
    /// Free-form string metadata (label, machine, ...).
    pub meta: BTreeMap<String, String>,
    /// Events, ordered by sequence number.
    pub events: Vec<OwnedEvent>,
}

impl TraceFile {
    /// Serializes as JSONL: a header object line, then one compact
    /// object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::Obj(vec![
            ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
            ("version".into(), Json::Num(TRACE_VERSION as f64)),
            ("epoch_ns".into(), Json::Str(self.epoch_unix_ns.to_string())),
            ("pid".into(), Json::Num(self.pid as f64)),
            (
                "meta".into(),
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&header.to_compact());
        out.push('\n');
        for e in &self.events {
            let line = Json::Obj(vec![
                ("seq".into(), Json::Num(e.seq as f64)),
                ("tid".into(), Json::Num(e.tid as f64)),
                ("ts".into(), Json::Num(e.ts_ns as f64)),
                ("dur".into(), Json::Num(e.dur_ns as f64)),
                ("cat".into(), Json::Str(e.cat.clone())),
                ("name".into(), Json::Str(e.name.clone())),
                ("a0".into(), Json::Str(e.a0.to_string())),
                ("a1".into(), Json::Str(e.a1.to_string())),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }

    /// Parses a trace previously written by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] for broken JSON lines, [`TraceError::Schema`]
    /// / [`TraceError::Version`] for foreign or future documents, and
    /// [`TraceError::Malformed`] for shape mismatches.
    pub fn parse(text: &str) -> Result<TraceFile, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| TraceError::Schema("an empty document".into()))?;
        let header = Json::parse(header_line).map_err(|e| TraceError::Parse(e.to_string()))?;
        match header.get("schema").and_then(Json::as_str) {
            Some(TRACE_SCHEMA) => {}
            Some(other) => return Err(TraceError::Schema(format!("`{other}`"))),
            None => return Err(TraceError::Schema("no schema member".into())),
        }
        let version = header
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| TraceError::Malformed("missing or non-integer `version`".into()))?;
        if version != TRACE_VERSION {
            return Err(TraceError::Version(version));
        }
        let str_u64 = |j: &Json, key: &str| -> Result<u64, TraceError> {
            match j.get(key) {
                Some(v) => match (v.as_str(), v.as_u64()) {
                    (Some(s), _) => s
                        .parse()
                        .map_err(|_| TraceError::Malformed(format!("bad `{key}`: `{s}`"))),
                    (None, Some(n)) => Ok(n),
                    _ => Err(TraceError::Malformed(format!("bad `{key}`"))),
                },
                None => Ok(0),
            }
        };
        let mut file = TraceFile {
            epoch_unix_ns: str_u64(&header, "epoch_ns")?,
            pid: header.get("pid").and_then(Json::as_u64).unwrap_or(0),
            ..TraceFile::default()
        };
        if let Some(members) = header.get("meta").and_then(Json::members) {
            for (k, v) in members {
                let s = v
                    .as_str()
                    .ok_or_else(|| TraceError::Malformed(format!("`meta.{k}` is not a string")))?;
                file.meta.insert(k.clone(), s.to_string());
            }
        }
        for (i, line) in lines.enumerate() {
            let j = Json::parse(line)
                .map_err(|e| TraceError::Parse(format!("event line {}: {e}", i + 1)))?;
            let num = |key: &str| -> Result<u64, TraceError> {
                j.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    TraceError::Malformed(format!("event line {}: bad `{key}`", i + 1))
                })
            };
            let s = |key: &str| -> Result<String, TraceError> {
                j.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        TraceError::Malformed(format!("event line {}: bad `{key}`", i + 1))
                    })
            };
            file.events.push(OwnedEvent {
                seq: num("seq")?,
                tid: num("tid")?,
                ts_ns: num("ts")?,
                dur_ns: num("dur")?,
                cat: s("cat")?,
                name: s("name")?,
                a0: str_u64(&j, "a0")?,
                a1: str_u64(&j, "a1")?,
            });
        }
        Ok(file)
    }

    /// Same-thread span nesting: the event indices in `(ts, seq)`
    /// order, and each event's innermost enclosing span and depth. A
    /// span encloses the later events of its thread that start before
    /// it ends.
    fn nesting(&self) -> (Vec<usize>, Vec<(Option<usize>, usize)>) {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].ts_ns, self.events[i].seq));
        let mut nesting = vec![(None, 0); self.events.len()];
        // Open spans per thread: (end_ts, event index).
        let mut stacks: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
        for &i in &order {
            let e = &self.events[i];
            let stack = stacks.entry(e.tid).or_default();
            while stack.last().is_some_and(|&(end, _)| end <= e.ts_ns) {
                stack.pop();
            }
            nesting[i] = (stack.last().map(|&(_, parent)| parent), stack.len());
            if e.dur_ns > 0 {
                stack.push((e.ts_ns + e.dur_ns, i));
            }
        }
        (order, nesting)
    }

    /// Per-category profile rows: `(category, events, total_ns,
    /// self_ns)`, sorted by self time descending. Self time is a
    /// span's duration minus its same-thread nested children's
    /// durations; instants contribute counts only. Sums saturate at
    /// `u64::MAX`: a parsed duration may be as large as 2^53, so a
    /// few thousand of them overflow.
    pub fn profile(&self) -> Vec<(String, u64, u64, u64)> {
        let mut self_ns: Vec<u64> = self.events.iter().map(|e| e.dur_ns).collect();
        let (_, nesting) = self.nesting();
        for (e, &(parent, _)) in self.events.iter().zip(&nesting) {
            if let Some(p) = parent {
                self_ns[p] = self_ns[p].saturating_sub(e.dur_ns);
            }
        }
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            let r = rows.entry(e.cat.as_str()).or_insert((0, 0, 0));
            r.0 += 1;
            r.1 = r.1.saturating_add(e.dur_ns);
            r.2 = r.2.saturating_add(self_ns[i]);
        }
        let mut out: Vec<(String, u64, u64, u64)> = rows
            .into_iter()
            .map(|(cat, (n, total, own))| (cat.to_string(), n, total, own))
            .collect();
        out.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Renders a human-readable summary: header facts, the first
    /// `limit` timeline lines (nesting shown by indentation), and the
    /// per-category self-time profile.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let threads: std::collections::BTreeSet<u64> = self.events.iter().map(|e| e.tid).collect();
        let span_ns = self
            .events
            .iter()
            .map(|e| e.ts_ns + e.dur_ns)
            .max()
            .unwrap_or(0)
            .saturating_sub(self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0));
        let _ = writeln!(
            out,
            "trace: {} events, {} threads, {}",
            self.events.len(),
            threads.len(),
            fmt_ns(span_ns)
        );
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k:<12} {v}");
        }
        let (order, nesting) = self.nesting();
        let _ = writeln!(out, "timeline (first {limit} of {}):", self.events.len());
        for &i in order.iter().take(limit) {
            let e = &self.events[i];
            let dur = if e.dur_ns > 0 {
                fmt_ns(e.dur_ns)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "  [{:>12}] t{:<3} {}{}/{} {} a0={} a1={}",
                fmt_ns(e.ts_ns),
                e.tid,
                "  ".repeat(nesting[i].1),
                e.cat,
                e.name,
                dur,
                e.a0,
                e.a1
            );
        }
        let _ = writeln!(out, "self time by category:");
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12} {:>12}",
            "category", "events", "total", "self"
        );
        for (cat, n, total, own) in self.profile() {
            let _ = writeln!(
                out,
                "  {cat:<10} {n:>8} {:>12} {:>12}",
                fmt_ns(total),
                fmt_ns(own)
            );
        }
        out
    }

    /// Exports as Chrome trace-event JSON (one named row per thread),
    /// through the same writer `eel explain --chrome` uses. Times are
    /// microseconds.
    pub fn to_chrome(&self) -> String {
        let threads: std::collections::BTreeSet<u64> = self.events.iter().map(|e| e.tid).collect();
        let named: Vec<(u64, String)> = threads
            .into_iter()
            .map(|t| (t, format!("thread {t}")))
            .collect();
        let events: Vec<ChromeEvent> = self
            .events
            .iter()
            .map(|e| ChromeEvent {
                name: format!("{}/{}", e.cat, e.name),
                cat: e.cat.clone(),
                ts: e.ts_ns / 1_000,
                dur: (e.dur_ns / 1_000).max(u64::from(e.dur_ns > 0)),
                tid: e.tid,
                args: vec![("a0".to_string(), e.a0), ("a1".to_string(), e.a1)],
            })
            .collect();
        chrome_trace_json(&named, &events)
    }
}

/// One complete (`"ph":"X"`) Chrome trace event for
/// [`chrome_trace_json`]. All events render under pid 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event label.
    pub name: String,
    /// Event category.
    pub cat: String,
    /// Start time in trace units (the caller picks the unit).
    pub ts: u64,
    /// Duration in trace units.
    pub dur: u64,
    /// Timeline row.
    pub tid: u64,
    /// `args` members in order; omitted entirely when empty.
    pub args: Vec<(String, u64)>,
}

/// Renders Chrome trace-event JSON (`chrome://tracing` / Perfetto):
/// one `thread_name` metadata record per entry of `threads`, then one
/// complete event per entry of `events` — the single writer shared by
/// `eel explain --chrome` (per-cycle pipeline traces) and the
/// whole-engine flight-recorder export.
pub fn chrome_trace_json(threads: &[(u64, String)], events: &[ChromeEvent]) -> String {
    let mut records: Vec<String> = Vec::with_capacity(threads.len() + events.len());
    for (tid, name) in threads {
        records.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }
    for e in events {
        let args = if e.args.is_empty() {
            String::new()
        } else {
            let members: Vec<String> = e
                .args
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                .collect();
            format!(",\"args\":{{{}}}", members.join(","))
        };
        records.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{}{args}}}",
            json_escape(&e.name),
            json_escape(&e.cat),
            e.ts,
            e.dur,
            e.tid
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        records.join(",\n")
    )
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seq: u64, tid: u64, ts: u64, dur: u64, cat: &str, name: &str, a0: u64) -> OwnedEvent {
        OwnedEvent {
            seq,
            tid,
            ts_ns: ts,
            dur_ns: dur,
            cat: cat.to_string(),
            name: name.to_string(),
            a0,
            a1: 0,
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_window_in_order() {
        // Capacity 8 and STRIPES 8 → one slot per stripe... use a
        // bigger tracer and overfill it from one thread so a single
        // stripe wraps.
        let t = Tracer::new(32);
        for i in 0..100u64 {
            t.instant("test", "e", i, 0);
        }
        let events = t.events();
        assert!(!events.is_empty());
        assert!(events.len() <= 32);
        // The window is the newest events, in allocation order.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain is seq-ordered");
        }
        let last = events.last().unwrap();
        assert_eq!(last.a0, 99, "newest event survives the overwrites");
        assert_eq!(t.pushed(), 100);
        // One thread records into one stripe, so the single-thread
        // window is contiguous: exactly the last k sequence numbers.
        let first = events.first().unwrap();
        assert_eq!(
            last.seq - first.seq + 1,
            events.len() as u64,
            "overwrite drops oldest-first with no gaps: {events:?}"
        );
    }

    #[test]
    fn sequence_numbers_are_monotonic_per_thread_across_threads() {
        let t = Tracer::new(4096);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..200u64 {
                        t.instant("test", "e", i, 0);
                    }
                });
            }
        });
        let events = t.events();
        assert_eq!(events.len(), 800);
        let mut seen = std::collections::BTreeSet::new();
        let mut per_tid: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for e in &events {
            assert!(seen.insert(e.seq), "sequence numbers are unique");
            per_tid.entry(e.tid).or_default().push(e);
        }
        assert!(per_tid.len() >= 2, "threads got distinct tids");
        for (tid, evs) in per_tid {
            for pair in evs.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "tid {tid} seq order");
                assert!(pair[0].ts_ns <= pair[1].ts_ns, "tid {tid} ts order");
                assert!(pair[0].a0 < pair[1].a0, "tid {tid} program order");
            }
        }
    }

    #[test]
    fn spans_record_start_time_and_duration() {
        let t = Tracer::new(64);
        {
            let _g = t.span("test", "outer", 7, 8);
            t.instant("test", "inner", 0, 0);
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        // The span took seq 0 (allocated at start), the instant seq 1.
        assert_eq!(events[0].name, "outer");
        assert_eq!((events[0].a0, events[0].a1), (7, 8));
        assert_eq!(events[1].name, "inner");
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert!(events[0].ts_ns + events[0].dur_ns >= events[1].ts_ns);
    }

    #[test]
    fn trace_file_round_trips_through_jsonl() {
        let t = Tracer::new(64);
        t.instant("cell", "computed", u64::MAX, 1 << 60);
        {
            let _g = t.span("engine", "build", 3, 4);
        }
        let file = t.trace_file(&[("label", "unit-test".to_string())]);
        let text = file.to_jsonl();
        let back = TraceFile::parse(&text).expect("parse back");
        assert_eq!(back, file);
        assert_eq!(back.to_jsonl(), text, "byte-identical re-serialization");
        assert_eq!(back.meta["label"], "unit-test");
        assert_eq!(back.events[0].a0, u64::MAX, "full u64 args survive");
    }

    #[test]
    fn foreign_and_future_traces_are_typed_errors() {
        assert!(matches!(
            TraceFile::parse("not json"),
            Err(TraceError::Parse(_))
        ));
        assert!(matches!(
            TraceFile::parse("{\"schema\":\"something\"}"),
            Err(TraceError::Schema(_))
        ));
        assert!(matches!(
            TraceFile::parse("{\"schema\":\"eel-trace\",\"version\":9}"),
            Err(TraceError::Version(9))
        ));
    }

    #[test]
    fn profile_subtracts_nested_children_from_self_time() {
        let file = TraceFile {
            events: vec![
                mk(0, 0, 0, 1000, "engine", "runs", 0),
                mk(1, 0, 100, 400, "sim", "run", 0),
                mk(2, 0, 150, 100, "sched", "block", 0),
                // A second thread's overlapping span must not be
                // treated as a child of thread 0's.
                mk(3, 1, 50, 300, "sim", "run", 1),
            ],
            ..TraceFile::default()
        };
        let profile = file.profile();
        let row = |cat: &str| profile.iter().find(|r| r.0 == cat).unwrap().clone();
        let (_, n, total, own) = row("engine");
        assert_eq!((n, total), (1, 1000));
        assert_eq!(own, 600, "engine self = 1000 - sim child 400");
        let (_, n, total, own) = row("sim");
        assert_eq!((n, total), (2, 700));
        assert_eq!(own, 600, "sim self = 400 - sched child 100, + 300");
        let (_, _, total, own) = row("sched");
        assert_eq!((total, own), (100, 100));
    }

    #[test]
    fn chrome_writer_matches_the_pinned_shape() {
        let threads = vec![(0u64, "issue".to_string()), (1, "stalls".to_string())];
        let events = vec![
            ChromeEvent {
                name: "add %o0".to_string(),
                cat: "issue".to_string(),
                ts: 0,
                dur: 1,
                tid: 0,
                args: vec![("index".to_string(), 0), ("stalls".to_string(), 2)],
            },
            ChromeEvent {
                name: "raw:%o1".to_string(),
                cat: "stall".to_string(),
                ts: 3,
                dur: 1,
                tid: 1,
                args: Vec::new(),
            },
        ];
        let json = chrome_trace_json(&threads, &events);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"issue\"}}"));
        assert!(json.contains(
            "{\"name\":\"add %o0\",\"cat\":\"issue\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\"args\":{\"index\":0,\"stalls\":2}}"
        ));
        // No args member when the event has none.
        assert!(json.contains("\"tid\":1}"), "{json}");
        // The export parses as JSON.
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn trace_file_chrome_export_parses_and_names_threads() {
        let t = Tracer::new(64);
        t.instant("engine", "fault", 1, 2);
        {
            let _g = t.span("sched", "block", 5, 0);
        }
        let chrome = t.trace_file(&[]).to_chrome();
        assert!(Json::parse(&chrome).is_ok(), "{chrome}");
        assert!(chrome.contains("thread_name"));
        assert!(chrome.contains("engine/fault"));
        assert!(chrome.contains("sched/block"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn jsonl_round_trips_arbitrary_events(
                // seq/tid/ts/dur/pid are JSON numbers: exact below
                // 2^53 (process-relative values never exceed that).
                // a0/a1/epoch are decimal strings: full u64 range.
                rows in prop::collection::vec(
                    (
                        (
                            0u64..(1 << 53), // seq
                            0u64..16,        // tid
                            0u64..(1 << 53), // ts
                            0u64..(1 << 53), // dur
                        ),
                        (
                            "[a-z]{1,8}",  // cat
                            "[ -~]{1,12}", // name: printable ASCII incl. quotes
                            any::<u64>(),  // a0
                            any::<u64>(),  // a1
                        ),
                    ),
                    0..32,
                ),
                epoch in any::<u64>(),
                pid in 0u64..(1 << 32),
            ) {
                let file = TraceFile {
                    epoch_unix_ns: epoch,
                    pid,
                    meta: [("label".to_string(), "prop".to_string())].into(),
                    events: rows
                        .into_iter()
                        .map(|((seq, tid, ts, dur), (cat, name, a0, a1))| OwnedEvent {
                            seq,
                            tid,
                            ts_ns: ts,
                            dur_ns: dur,
                            cat,
                            name,
                            a0,
                            a1,
                        })
                        .collect(),
                };
                let back = TraceFile::parse(&file.to_jsonl()).expect("round trip");
                prop_assert_eq!(&back, &file);
                prop_assert_eq!(back.to_jsonl(), file.to_jsonl());
            }

            /// `parse` never panics on trace-shaped lines or on a
            /// recorded trace with flipped bytes and a cut tail, and
            /// every trace it accepts renders, profiles and exports.
            #[test]
            fn traces_never_panic(
                header in prop_oneof![Just(header()), Just(header()), Just(header()), arb_line()],
                lines in prop::collection::vec(arb_line(), 0..10),
                flips in prop::collection::vec((any::<usize>(), arb_byte()), 0..8),
                cut in any::<usize>(),
            ) {
                let mut damaged = recorded().into_bytes();
                for (at, b) in flips {
                    let i = at % damaged.len();
                    damaged[i] = b;
                }
                damaged.truncate(cut % (2 * damaged.len()));
                let text = [vec![header], lines].concat().join("\n");
                for text in [text, String::from_utf8_lossy(&damaged).into_owned()] {
                    if let Ok(file) = TraceFile::parse(&text) {
                        file.render(64);
                        file.profile();
                        file.to_chrome();
                    }
                }
            }
        }

        fn header() -> String {
            format!(r#"{{"schema":"{TRACE_SCHEMA}","version":{TRACE_VERSION},"meta":{{"k":"v"}}}}"#)
        }

        /// An event line: well-formed four times in five, else an
        /// object of trace members with values of any kind, or noise.
        fn arb_line() -> impl Strategy<Value = String> {
            let damaged = prop_oneof![arb_object(), ".{0,40}"];
            prop_oneof![arb_event(), arb_event(), arb_event(), arb_event(), damaged]
        }

        /// A well-formed event line, with values anywhere in the ranges
        /// `parse` admits.
        fn arb_event() -> impl Strategy<Value = String> {
            let n = || prop_oneof![0u64..=1 << 53, Just(1u64 << 53), 0u64..64];
            let cat = prop::sample::select(vec!["engine", "sim", "sched", "cell"]);
            ((n(), 0u64..4, n(), n()), (cat, "[a-z_]{0,8}", any::<u64>(), any::<u64>())).prop_map(
                |((seq, tid, ts, dur), (cat, name, a0, a1))| {
                    format!(
                        r#"{{"seq":{seq},"tid":{tid},"ts":{ts},"dur":{dur},"cat":"{cat}","name":"{name}","a0":"{a0}","a1":"{a1}"}}"#
                    )
                },
            )
        }

        /// An object of trace members with values of any kind.
        fn arb_object() -> impl Strategy<Value = String> {
            let key =
                prop::sample::select(vec!["version", "meta", "seq", "ts", "dur", "cat", "a0"]);
            let odd = r#"9007199254740993 -1 1.5 1e308 "x" null [1,{}] {}"#.split(' ');
            let value = prop_oneof![
                any::<u64>().prop_map(|n| n.to_string()),
                (0u64..=1 << 53).prop_map(|n| n.to_string()),
                any::<u64>().prop_map(|n| format!("\"{n}\"")),
                prop::sample::select(odd.map(str::to_string).collect()),
            ];
            prop::collection::vec((key, value), 0..10).prop_map(|members| {
                let members: Vec<_> = members
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                format!("{{{}}}", members.join(","))
            })
        }

        /// A byte to write over a recorded trace: anything, or (half
        /// the time) a digit or JSON punctuation.
        fn arb_byte() -> impl Strategy<Value = u8> {
            prop_oneof![
                any::<u8>(),
                prop::sample::select(b"0123456789\"{}[]:,.-e".to_vec())
            ]
        }

        /// A small trace as the flight recorder writes it: nested
        /// spans, an instant with a full-width argument, metadata.
        fn recorded() -> String {
            let t = Tracer::new(64);
            {
                let _table = t.span("engine", "table", 1, 2);
                t.instant("cell", "computed", u64::MAX, 7);
                let _run = t.span("sim", "run", 3, 4);
            }
            t.trace_file(&[("label", "fuzz".to_string())]).to_jsonl()
        }
    }

    #[test]
    fn profile_saturates_on_huge_durations() {
        // `Json::as_u64` admits durations up to 2^53, so 2,049 spans of
        // that length, each on its own thread, overflow both sums.
        let events = (0..2049).map(|i| mk(i, i, 0, 1 << 53, "sim", "run", 0));
        let file = TraceFile {
            events: events.collect(),
            ..TraceFile::default()
        };
        let file = TraceFile::parse(&file.to_jsonl()).expect("durations of 2^53 parse");
        let sim = ("sim".to_string(), 2049, u64::MAX, u64::MAX);
        assert_eq!(file.profile(), vec![sim]);
        assert!(file.render(4).contains("18446744073.710s"));
    }

    #[test]
    fn render_shows_timeline_and_profile() {
        let t = Tracer::new(64);
        {
            let _g = t.span("engine", "build", 0, 0);
            t.instant("cell", "computed", 42, 0);
        }
        let text = t.trace_file(&[("label", "x".to_string())]).render(10);
        assert!(text.contains("trace: 2 events"), "{text}");
        assert!(text.contains("engine/build"), "{text}");
        assert!(text.contains("cell/computed"), "{text}");
        assert!(text.contains("self time by category"), "{text}");
        assert!(text.contains("label"), "{text}");
    }
}
