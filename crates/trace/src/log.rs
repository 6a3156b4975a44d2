//! Span exposition and diagnostics: the NDJSON trace-log writer and the
//! leveled stderr logger the CLI's `-v`/`-vv`/`GF_LOG` flags drive.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Scale;
use crate::{registered_rings, SpanRecord};

// ---------------------------------------------------------------------------
// NDJSON trace log
// ---------------------------------------------------------------------------

/// How often the log thread polls the rings for new spans. Bounded
/// buffering: spans older than one ring revolution when the disk stalls
/// are overwritten and simply never logged — writers never wait.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Renders one span as a single NDJSON line (no trailing newline).
/// Ids are fixed-width lowercase hex, matching the `x-request-id` header.
pub fn span_to_ndjson(span: &SpanRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"span\":\"{:016x}\",\"request\":\"{:016x}\",\
         \"start_ns\":{},\"duration_ns\":{},\"aux\":{},\"thread\":{}}}",
        span.name.as_str(),
        span.span_id,
        span.request_id,
        span.start_ns,
        span.duration_ns,
        span.aux,
        span.thread
    );
}

/// Handle to a running NDJSON trace-log thread. Stop it with
/// [`TraceLog::stop`]; dropping it also stops and joins.
pub struct TraceLog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Streams every span recorded after this call to `path` as NDJSON, one
/// span per line, from a dedicated writer thread. The thread tails each
/// ring with a cursor: a slow disk makes the *log* lossy (overwritten
/// spans are skipped), never the recording hot path slow.
///
/// # Errors
///
/// Fails if `path` cannot be created/truncated.
pub fn start_ndjson_log(path: &Path) -> std::io::Result<TraceLog> {
    let file = std::fs::File::create(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    // Snapshot the cursors before the thread starts: the log records
    // everything from this call onward, not stale history — and nothing
    // recorded after this call can be missed by a slow thread start.
    let mut cursors: Vec<u64> = Vec::new();
    for ring in registered_rings() {
        let (_, head) = ring.window();
        set_cursor(&mut cursors, ring.thread, head);
    }
    let thread = std::thread::Builder::new()
        .name("gf-trace-log".to_string())
        .spawn(move || {
            let mut writer = std::io::BufWriter::new(file);
            let mut line = String::new();
            loop {
                let stopping = stop_flag.load(Ordering::Relaxed);
                let scale = Scale::sample();
                for ring in registered_rings() {
                    let (oldest, head) = ring.window();
                    let cursor = cursor_of(&mut cursors, ring.thread);
                    // Spans the ring already overwrote are lost to the
                    // log by design (bounded buffering).
                    let mut next = (*cursor).max(oldest);
                    while next < head {
                        if let Some(span) = ring.read(next, scale) {
                            line.clear();
                            span_to_ndjson(&span, &mut line);
                            line.push('\n');
                            let _ = writer.write_all(line.as_bytes());
                        }
                        next += 1;
                    }
                    *cursor = next;
                }
                let _ = writer.flush();
                if stopping {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        })?;
    Ok(TraceLog {
        stop,
        thread: Some(thread),
    })
}

fn set_cursor(cursors: &mut Vec<u64>, thread: u64, value: u64) {
    let index = thread as usize;
    if cursors.len() <= index {
        cursors.resize(index + 1, 0);
    }
    cursors[index] = value;
}

fn cursor_of(cursors: &mut Vec<u64>, thread: u64) -> &mut u64 {
    let index = thread as usize;
    if cursors.len() <= index {
        cursors.resize(index + 1, 0);
    }
    &mut cursors[index]
}

impl TraceLog {
    /// Drains one final pass, flushes and joins the writer thread.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        let _ = thread.join();
    }
}

impl Drop for TraceLog {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// Leveled stderr diagnostics
// ---------------------------------------------------------------------------

/// Diagnostic verbosity, most to least severe. The CLI maps `-v` to
/// [`Level::Info`] and `-vv` to [`Level::Debug`]; `GF_LOG` names one
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Problems worth surfacing even in quiet runs (the default cutoff).
    Warn = 1,
    /// Phase timings and progress (`-v`).
    Info = 2,
    /// Per-span detail (`-vv`).
    Debug = 3,
}

impl Level {
    /// The `GF_LOG` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `GF_LOG` value.
    pub fn parse(name: &str) -> Option<Level> {
        match name {
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the stderr diagnostic cutoff (messages above it are dropped).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current cutoff.
pub fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        3 => Level::Debug,
        2 => Level::Info,
        _ => Level::Warn,
    }
}

/// Whether a message at `level` would be emitted — guard expensive
/// formatting behind this.
pub fn level_enabled(level: Level) -> bool {
    level <= max_level()
}

/// Emits one diagnostic line to stderr when `level` clears the cutoff.
pub fn log(level: Level, message: &str) {
    if level_enabled(level) {
        eprintln!("[gf {}] {message}", level.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_event, set_current_request, SpanName};

    #[test]
    fn ndjson_line_is_stable_and_parseable_shape() {
        let span = SpanRecord {
            name: SpanName::Execute,
            span_id: 0xABCD,
            request_id: 1,
            start_ns: 5,
            duration_ns: 17,
            aux: 3,
            thread: 2,
        };
        let mut line = String::new();
        span_to_ndjson(&span, &mut line);
        assert_eq!(
            line,
            "{\"name\":\"execute\",\"span\":\"000000000000abcd\",\
             \"request\":\"0000000000000001\",\"start_ns\":5,\
             \"duration_ns\":17,\"aux\":3,\"thread\":2}"
        );
    }

    #[test]
    fn ndjson_log_captures_spans_recorded_while_open() {
        let _guard = crate::recording_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gf-trace-test-{:016x}.ndjson", crate::next_id()));
        let log = start_ndjson_log(&path).unwrap();
        let marker = crate::next_id();
        set_current_request(marker);
        record_event(SpanName::EvalBatch, 64);
        set_current_request(0);
        log.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let needle = format!("\"request\":\"{marker:016x}\"");
        assert!(
            text.lines()
                .any(|l| l.contains(&needle) && l.contains("eval_batch")),
            "log should contain the recorded span, got:\n{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "NDJSON: {line}"
            );
        }
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Warn < Level::Info && Level::Info < Level::Debug);
        for level in [Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("trace"), None);
        set_max_level(Level::Info);
        assert!(level_enabled(Level::Warn) && level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));
        set_max_level(Level::Warn);
        assert!(!level_enabled(Level::Info));
    }
}
