//! Structured tracing for the ABsolver control loop.
//!
//! The orchestrator, the theory layer, and the parallel shards emit
//! [`TraceEvent`]s through a [`TraceSink`] trait object. Three sinks are
//! built in:
//!
//! * [`NullSink`] — the default; reports itself disabled so emitters can
//!   skip building events entirely,
//! * [`CollectingSink`] — buffers events in memory for tests and
//!   differential comparisons,
//! * [`FileSink`] — appends one JSON object per event (JSONL) to a file.
//!
//! The crate is dependency-free: JSON is hand-rolled through
//! [`JsonObject`], which the stats layer reuses for `--stats json`.
//!
//! Event vocabulary used by the solver (the `kind` field). Span-shaped
//! events carry `duration_us`; every event emitted inside a parallel
//! shard also carries `shard`. `phase.linear`, `contract.*` and
//! `local_search.steps` report the theory check's own effort record, the
//! one the orchestrator's statistics fold, so over a solve their counts
//! sum to the matching `--stats` counters.
//!
//! | kind             | emitted by          | payload                        |
//! |------------------|---------------------|--------------------------------|
//! | `preprocess.start` | orchestrator      | `pass`, `num_vars`, `num_clauses`, `num_defs` |
//! | `preprocess.end` | orchestrator        | `result` (`shrunk`/`trivially-unsat`), `vars_eliminated`, `clauses_eliminated`, `atoms_eliminated`, `ranges_tightened`, `duration_us` |
//! | `analyze.static_unsat` | orchestrator  | `pass`, `duration_us`          |
//! | `analyze.partition` | orchestrator        | `components`, `sizes` (comma-separated) |
//! | `component.start` | shard driver       | `component`, `size`            |
//! | `component.end`  | shard driver        | `component`, `outcome`, `duration_us` |
//! | `solve.start`    | orchestrator        | `num_vars`, `num_defs`, `mode` (`solve`/`solve_all`/`session`) |
//! | `phase.setup`    | orchestrator        | `defs` (the problem's definitions), `duration_us` (definition preparation, CNF load, stack creation; sums to `setup_us`) |
//! | `solve.end`      | orchestrator        | `outcome`, `models` (`solve_all`), `iterations`, `duration_us` |
//! | `term.intern`    | orchestrator        | `interned`, `dedup_hits`, `arena_terms` |
//! | `boolean.model`  | orchestrator        | `iteration`, `duration_us`     |
//! | `theory.check`   | orchestrator        | `verdict`, `obligations`, `pass` (`probe` for a model's first check, `refute` for the second pass once the Boolean side runs out), `duration_us` |
//! | `phase.linear`   | theory layer        | `start` (`warm` when the stack already held rows of an earlier phase, else `cold`), `reused_rows` (rows of the previous check kept), `pushed_rows` (sums to `linear_rows_pushed`), `retracted_rows`, `duration_us` |
//! | `phase.nonlinear`| theory layer        | `duration_us`                  |
//! | `contract.hc4`   | theory layer        | `count` (HC4 revisions this check; sums to `hc4_contractions`) |
//! | `contract.bc3`   | theory layer        | `count` (BC3 bound shavings this check; sums to `bc3_contractions`) |
//! | `contract.newton`| theory layer        | `count` (interval-Newton steps this check; sums to `newton_contractions`) |
//! | `local_search.steps` | theory layer    | `count` (local-search descent steps this check; sums to `local_search_steps`) |
//! | `conflict`       | orchestrator        | `literals`                     |
//! | `shard.start`    | shard driver        | `strategy` (`portfolio`/`components`) |
//! | `shard.end`      | shard driver        | `items`, `iterations`, `duration_us` |
//! | `session.push`   | session             | `depth`                        |
//! | `session.pop`    | session             | `depth`, `lemmas_dropped`, `lemmas_retained` |
//! | `session.reset`  | session             | —                              |
//! | `session.check.start` | session        | `check`, `depth`, `reload`, `lemmas_replayed` |
//! | `session.check.end` | session          | `check`, `verdict`, `lemmas_retained`, `duration_us` |
//! | `request.received` | service           | `id`, `priority`, `bytes`      |
//! | `request.done`   | service             | `id`, `verdict`, `cache`, `wait_us`, `duration_us` |
//! | `request.failed` | service             | `id`, `code`                   |
//! | `queue.enqueue`  | service             | `id`, `depth`                  |
//! | `queue.reject`   | service             | `id`, `retry_after_ms`         |
//! | `queue.expired`  | service             | `id`, `wait_us`                |
//! | `cache.problem_hit` / `cache.problem_miss` | service | `id`          |
//! | `cache.analysis_hit` | service          | `id`                          |
//! | `cache.analysis_computed` | service     | `id`, `rounds`, `static_unsat` |
//! | `request.static_unsat` | service        | `id`                          |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dotted event kind, e.g. `theory.check` (see the crate docs for the
    /// vocabulary the solver uses).
    pub kind: String,
    /// Shard index, for events emitted inside a parallel run.
    pub shard: Option<usize>,
    /// Wall-clock duration in microseconds, for span-shaped events.
    pub duration_us: Option<u64>,
    /// Free-form `(key, value)` payload, serialised as flat JSON fields.
    pub data: Vec<(String, String)>,
}

impl TraceEvent {
    /// Creates an event of the given kind with an empty payload.
    pub fn new(kind: impl Into<String>) -> TraceEvent {
        TraceEvent {
            kind: kind.into(),
            shard: None,
            duration_us: None,
            data: Vec::new(),
        }
    }

    /// Sets the shard index.
    pub fn shard(mut self, shard: usize) -> TraceEvent {
        self.shard = Some(shard);
        self
    }

    /// Sets the span duration (microseconds).
    pub fn duration_us(mut self, us: u64) -> TraceEvent {
        self.duration_us = Some(us);
        self
    }

    /// Sets the span duration from a [`std::time::Duration`].
    pub fn duration(self, d: std::time::Duration) -> TraceEvent {
        self.duration_us(saturating_micros(d))
    }

    /// Appends a string payload field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<String>) -> TraceEvent {
        self.data.push((key.into(), value.into()));
        self
    }

    /// Appends an integer payload field.
    pub fn field_u64(self, key: impl Into<String>, value: u64) -> TraceEvent {
        self.field(key, value.to_string())
    }

    /// Looks up a payload field by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.data
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serialises the event as a single-line JSON object. String payload
    /// values that already look like JSON scalars (numbers, booleans) are
    /// emitted unquoted so `duration_us` and counters stay numeric.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("kind", &self.kind);
        if let Some(shard) = self.shard {
            obj.field_u64("shard", shard as u64);
        }
        if let Some(us) = self.duration_us {
            obj.field_u64("duration_us", us);
        }
        for (k, v) in &self.data {
            if is_json_scalar(v) {
                obj.field_raw(k, v);
            } else {
                obj.field_str(k, v);
            }
        }
        obj.finish()
    }
}

/// Converts a [`std::time::Duration`] to whole microseconds, saturating at
/// `u64::MAX` instead of silently truncating the 128-bit count. Long-running
/// services accumulate durations far past the point where an `as u64` cast
/// of `as_micros()` would wrap.
pub fn saturating_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Returns `true` when `s` can be embedded in JSON without quoting: an
/// integer, a decimal number, or a boolean literal.
fn is_json_scalar(s: &str) -> bool {
    if s == "true" || s == "false" {
        return true;
    }
    let rest = s.strip_prefix('-').unwrap_or(s);
    !rest.is_empty()
        && rest.chars().all(|c| c.is_ascii_digit() || c == '.')
        && rest.chars().filter(|&c| c == '.').count() <= 1
        && !rest.starts_with('.')
        && !rest.ends_with('.')
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receiver of trace events. Implementations must be thread-safe — the
/// parallel shards emit concurrently through one shared sink.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &TraceEvent);

    /// Whether emitting is worthwhile. Emitters consult this before
    /// building event payloads, so a disabled sink costs one virtual call
    /// per site and nothing else.
    fn enabled(&self) -> bool {
        true
    }
}

impl fmt::Debug for dyn TraceSink + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceSink(enabled={})", self.enabled())
    }
}

/// The default sink: discards everything and reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink for tests and differential span comparisons.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// A snapshot of all events collected so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("collecting sink poisoned")
            .clone()
    }

    /// The kinds of all collected events, in emission order.
    pub fn kinds(&self) -> Vec<String> {
        self.events().into_iter().map(|e| e.kind).collect()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collecting sink poisoned").len()
    }

    /// Returns `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all collected events.
    pub fn clear(&self) {
        self.events
            .lock()
            .expect("collecting sink poisoned")
            .clear();
    }
}

impl TraceSink for CollectingSink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("collecting sink poisoned")
            .push(event.clone());
    }
}

/// A sink that appends one JSON object per event to a file (JSONL).
/// Writes are buffered; the buffer is flushed when the sink is dropped.
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<FileSink> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flushes buffered events to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on failure.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("file sink poisoned").flush()
    }
}

impl TraceSink for FileSink {
    fn emit(&self, event: &TraceEvent) {
        let mut writer = self.writer.lock().expect("file sink poisoned");
        // A full disk mid-trace must not abort the solve; the trace is
        // best-effort diagnostics.
        let _ = writeln!(writer, "{}", event.to_json());
    }
}

/// An adapter that stamps every event with a shard index before
/// forwarding to the shared inner sink. Parallel shards wrap the caller's
/// sink in one of these so per-shard spans stay attributable.
pub struct ShardSink {
    inner: Arc<dyn TraceSink>,
    shard: usize,
}

impl ShardSink {
    /// Wraps `inner`, stamping events with `shard`.
    pub fn new(inner: Arc<dyn TraceSink>, shard: usize) -> ShardSink {
        ShardSink { inner, shard }
    }
}

impl TraceSink for ShardSink {
    fn emit(&self, event: &TraceEvent) {
        if event.shard.is_some() {
            self.inner.emit(event);
        } else {
            let mut stamped = event.clone();
            stamped.shard = Some(self.shard);
            self.inner.emit(&stamped);
        }
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON
// ---------------------------------------------------------------------------

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for a JSON object, used for both trace lines and
/// the machine-readable stats reports (`--stats json`, `BENCH_*.json`).
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape_json(key));
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped and quoted).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape_json(value));
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut JsonObject {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut JsonObject {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut JsonObject {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialised JSON value verbatim (nested objects/arrays).
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut JsonObject {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(&TraceEvent::new("solve.start")); // must not panic
    }

    #[test]
    fn collecting_sink_preserves_order() {
        let sink = CollectingSink::new();
        sink.emit(&TraceEvent::new("a"));
        sink.emit(&TraceEvent::new("b").field_u64("n", 3));
        assert_eq!(sink.kinds(), vec!["a", "b"]);
        assert_eq!(sink.events()[1].get("n"), Some("3"));
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn shard_sink_stamps_missing_shard_only() {
        let inner = Arc::new(CollectingSink::new());
        let shard: ShardSink = ShardSink::new(inner.clone(), 7);
        shard.emit(&TraceEvent::new("x"));
        shard.emit(&TraceEvent::new("y").shard(2));
        let events = inner.events();
        assert_eq!(events[0].shard, Some(7));
        assert_eq!(events[1].shard, Some(2));
    }

    #[test]
    fn event_json_is_wellformed() {
        let ev = TraceEvent::new("theory.check")
            .shard(1)
            .duration_us(42)
            .field("verdict", "unsat")
            .field_u64("items", 5)
            .field("note", "a \"quoted\"\nline");
        let json = ev.to_json();
        assert_eq!(
            json,
            "{\"kind\":\"theory.check\",\"shard\":1,\"duration_us\":42,\
             \"verdict\":\"unsat\",\"items\":5,\"note\":\"a \\\"quoted\\\"\\nline\"}"
        );
    }

    #[test]
    fn saturating_micros_clamps() {
        use std::time::Duration;
        assert_eq!(saturating_micros(Duration::from_micros(42)), 42);
        assert_eq!(saturating_micros(Duration::MAX), u64::MAX);
    }

    #[test]
    fn scalar_detection() {
        assert!(is_json_scalar("0"));
        assert!(is_json_scalar("-12"));
        assert!(is_json_scalar("3.25"));
        assert!(is_json_scalar("true"));
        assert!(!is_json_scalar("1.2.3"));
        assert!(!is_json_scalar(".5"));
        assert!(!is_json_scalar("5."));
        assert!(!is_json_scalar(""));
        assert!(!is_json_scalar("sat"));
    }

    #[test]
    fn json_object_builder() {
        let mut obj = JsonObject::new();
        obj.field_str("verdict", "sat")
            .field_u64("iterations", 9)
            .field_bool("timed_out", false)
            .field_f64("ratio", 0.5)
            .field_raw("phase", "{\"linear_us\":1}");
        assert_eq!(
            obj.finish(),
            "{\"verdict\":\"sat\",\"iterations\":9,\"timed_out\":false,\
             \"ratio\":0.5,\"phase\":{\"linear_us\":1}}"
        );
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path =
            std::env::temp_dir().join(format!("absolver-trace-test-{}.jsonl", std::process::id()));
        {
            let sink = FileSink::create(&path).unwrap();
            sink.emit(&TraceEvent::new("solve.start").field_u64("vars", 4));
            sink.emit(&TraceEvent::new("solve.end").duration_us(10));
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"solve.start\""));
        assert!(lines[1].contains("\"duration_us\":10"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink: Arc<dyn TraceSink> = Arc::new(CollectingSink::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let sink = Arc::new(ShardSink::new(sink.clone(), i));
                scope.spawn(move || {
                    sink.emit(&TraceEvent::new("shard.start"));
                });
            }
        });
    }
}
