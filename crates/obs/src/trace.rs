//! Structured trace export: stream span events to disk as they close, in
//! either of two formats.
//!
//! - **JSONL** (`repro --trace-json PATH`): one JSON object per line —
//!   `span` records as spans close, one `metric` record per registered
//!   metric when the session closes
//!   (`{"type":"metric","name":N,"metric":{…}}`, where `{…}` is that
//!   metric's `/metrics` object), and a final `summary` line. Line order is arrival order (wall clock), so the stream is
//!   *not* deterministic — it is a diagnostic artifact, never a gated one.
//! - **Chrome trace-event format** (`repro --trace-chrome PATH`): a JSON
//!   array of trace events loadable in Perfetto or `chrome://tracing`.
//!   Spans become `ph:"X"` complete events on their thread's track; a
//!   simulated network runs inside the spans of the thread that probes
//!   its IXP.
//!
//! Streams are opened and closed by the observability session
//! ([`crate::Session`]). Every emission site builds one `Event` and each
//! open stream encodes it in its own format.
//!
//! Tracing is wall-clock by nature and shares rp-obs' prime directive:
//! it only *reads* pipeline state. The `results/*` byte-diff matrix in
//! `tests/report_schema.rs` pins down that flipping `--trace-json` on
//! cannot change any gated artifact.
//!
//! ## Bounded output
//!
//! A runaway run could emit unbounded events, so streams cap at
//! [`MAX_EVENTS`]; past the cap events are counted but not written, and
//! the cap is reported explicitly — in the `summary` line, the Chrome
//! metadata, and a stderr warning — never silently.

use crate::metrics::MetricValue;
use serde_json::json;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap on written trace events per stream; the tail is counted and
/// reported as dropped.
pub const MAX_EVENTS: u64 = 1_000_000;

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Is a trace stream open? One relaxed load; gates every emission site
/// so an untraced run costs one branch.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Output format of an open stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    Jsonl,
    Chrome,
}

struct Stream {
    format: Format,
    path: PathBuf,
    out: BufWriter<File>,
    /// Chrome arrays need comma management.
    wrote_any: bool,
    written: u64,
    dropped: u64,
}

impl Stream {
    fn write(&mut self, record: &str) {
        if self.written >= MAX_EVENTS {
            self.dropped += 1;
            return;
        }
        let sep: &[u8] = match (self.format, self.wrote_any) {
            (Format::Jsonl, _) => b"",
            (Format::Chrome, false) => b"\n",
            (Format::Chrome, true) => b",\n",
        };
        let mut r = self
            .out
            .write_all(sep)
            .and_then(|_| self.out.write_all(record.as_bytes()));
        if self.format == Format::Jsonl {
            r = r.and_then(|_| self.out.write_all(b"\n"));
        }
        if r.is_ok() {
            self.wrote_any = true;
            self.written += 1;
        }
    }
}

fn streams() -> &'static Mutex<Vec<Stream>> {
    static STREAMS: OnceLock<Mutex<Vec<Stream>>> = OnceLock::new();
    STREAMS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Small dense id for the calling thread (Chrome `tid`, JSONL `tid`).
pub fn tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One streamed event. Timestamps are ns since the trace origin.
enum Event<'a> {
    /// A closed span, by its full path.
    Span {
        path: &'a [&'static str],
        start_ns: u64,
        end_ns: u64,
    },
}

fn json_escape(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_string()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

impl Event<'_> {
    /// The record `format` writes for this event.
    fn encode(&self, format: Format, thread: u32) -> String {
        match (format, self) {
            (Format::Jsonl, Event::Span { path, start_ns, end_ns }) => format!(
                "{{\"type\":\"span\",\"path\":{},\"start_ns\":{},\"dur_ns\":{},\"tid\":{}}}",
                json_escape(&path.join(";")),
                start_ns,
                end_ns.saturating_sub(*start_ns),
                thread,
            ),
            (Format::Chrome, Event::Span { path, start_ns, end_ns }) => format!(
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                json_escape(path.last().copied().unwrap_or("?")),
                thread,
                us(*start_ns),
                us(end_ns.saturating_sub(*start_ns)),
            ),
        }
    }
}

/// Hand `event` to every open stream, each in its own format.
fn emit(event: Event) {
    let thread = tid();
    let mut g = streams().lock().expect("trace stream lock");
    for s in g.iter_mut() {
        s.write(&event.encode(s.format, thread));
    }
}

/// Emit one closed span (called from [`crate::span::SpanGuard`]'s drop).
/// `path` is the full span path; timestamps are ns since the trace
/// origin.
pub fn span_event(path: &[&'static str], start_ns: u64, end_ns: u64) {
    if active() {
        emit(Event::Span {
            path,
            start_ns,
            end_ns,
        });
    }
}

/// `path`'s I/O error, naming the path.
pub(crate) fn at(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
}

/// Open a stream at `path` (parent directories are created). Streams
/// stack: a JSONL and a Chrome stream can record the same run.
pub(crate) fn open(path: &Path, format: Format) -> std::io::Result<()> {
    let create = || -> std::io::Result<BufWriter<File>> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        if format == Format::Chrome {
            out.write_all(b"[")?;
        }
        Ok(out)
    };
    let out = create().map_err(|e| at(path, e))?;
    streams().lock().expect("trace stream lock").push(Stream {
        format,
        path: path.to_path_buf(),
        out,
        wrote_any: false,
        written: 0,
        dropped: 0,
    });
    ACTIVE.store(true, Ordering::SeqCst);
    Ok(())
}

/// Close every open stream: JSONL gets one `metric` record per entry of
/// `metrics` and its `summary` line, Chrome its `trace_summary` metadata
/// event and closing bracket; then flush. Returns the events written and
/// dropped, summed over the streams, or `None` when no stream was open.
pub(crate) fn close(
    metrics: &[(&'static str, MetricValue)],
) -> std::io::Result<Option<(u64, u64)>> {
    ACTIVE.store(false, Ordering::SeqCst);
    let drained = std::mem::take(&mut *streams().lock().expect("trace stream lock"));
    if drained.is_empty() {
        return Ok(None);
    }
    let (mut written, mut dropped) = (0, 0);
    for mut s in drained {
        let totals = format!(
            "\"events\":{},\"dropped\":{},\"max_events\":{MAX_EVENTS}",
            s.written, s.dropped
        );
        let mut tail = String::new();
        match s.format {
            Format::Jsonl => {
                // Metric records bypass the event cap: they are bounded by
                // the registry size and the summary must stay trustworthy.
                for (name, v) in metrics {
                    let record = json!({
                        "type": "metric",
                        "name": name,
                        "metric": crate::report::metric_json(v),
                    });
                    // The vendored serializer only pretty-prints; JSON
                    // strings never hold a raw newline, so joining the
                    // trimmed lines gives the same document on one line.
                    tail.extend(record.to_string().lines().map(str::trim_start));
                    tail.push('\n');
                }
                tail.push_str(&format!("{{\"type\":\"summary\",{totals}}}\n"));
            }
            Format::Chrome => {
                tail.push_str(if s.wrote_any { ",\n" } else { "\n" });
                tail.push_str(&format!(
                    "{{\"name\":\"trace_summary\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{{totals}}}}}\n]\n"
                ));
            }
        }
        s.out
            .write_all(tail.as_bytes())
            .and_then(|_| s.out.flush())
            .map_err(|e| at(&s.path, e))?;
        if s.dropped > 0 {
            eprintln!(
                "trace: event cap {MAX_EVENTS} reached; {} events dropped (written {})",
                s.dropped, s.written
            );
        }
        written += s.written;
        dropped += s.dropped;
    }
    Ok(Some((written, dropped)))
}
