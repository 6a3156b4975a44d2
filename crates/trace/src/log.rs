//! Span exposition and diagnostics: the NDJSON trace-log writer and the
//! leveled stderr logger the CLI's `-v`/`-vv`/`GF_LOG` flags drive.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Scale;
use crate::{registered_rings, SpanRecord, RING_CAPACITY};

// ---------------------------------------------------------------------------
// NDJSON trace log
// ---------------------------------------------------------------------------

/// How often the log thread polls the rings for new spans while they are
/// quiet. Bounded buffering: spans older than one ring revolution when the
/// disk stalls are overwritten and simply never logged — writers never
/// wait.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The shortest poll interval. A pass that finds a ring more than half a
/// ring behind, or already overwritten, polls again at once and halves the
/// interval down to this; a pass after a full sleep that finds every ring
/// under an eighth of a ring behind doubles it back up to
/// [`POLL_INTERVAL`]. The interval settles where one sleep fills between
/// an eighth and a half of the busiest ring: ~3 ms for a pool worker
/// pushing ~55k spans/s.
const MIN_POLL_INTERVAL: Duration = Duration::from_millis(1);

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
    thread: Option<std::thread::JoinHandle<u64>>,
}

/// Streams every span recorded after this call to `path` as NDJSON, one
/// span per line, from a dedicated writer thread. The thread tails each
/// ring with a cursor and polls faster while a ring fills up: a slow disk
/// or a burst past one ring per poll makes the *log* lossy (overwritten
/// spans are skipped and counted, the count printed to stderr on
/// [`TraceLog::stop`]), never the recording hot path slow.
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
        *cursor_of(&mut cursors, ring.thread) = head;
    }
    let thread = std::thread::Builder::new()
        .name("gf-trace-log".to_string())
        .spawn(move || {
            let mut writer = std::io::BufWriter::new(file);
            let mut line = String::new();
            let (mut interval, mut skipped, mut slept) = (POLL_INTERVAL, 0, false);
            loop {
                let stopping = stop_flag.load(Ordering::Relaxed);
                let scale = Scale::sample();
                let mut lag = 0;
                for ring in registered_rings() {
                    let (oldest, head) = ring.window();
                    let cursor = cursor_of(&mut cursors, ring.thread);
                    lag = lag.max(head - (*cursor).min(head));
                    let mut next = *cursor;
                    while next < head {
                        let span = ring.read(next, scale);
                        // Spans the ring overwrote before (or while) they
                        // were read are lost to the log by design.
                        let oldest = oldest.max(ring.window().0);
                        if next < oldest {
                            skipped += oldest - next;
                            next = oldest;
                            lag = u64::MAX;
                            continue;
                        }
                        match span {
                            Some(span) => {
                                line.clear();
                                span_to_ndjson(&span, &mut line);
                                line.push('\n');
                                let _ = writer.write_all(line.as_bytes());
                            }
                            None => skipped += 1,
                        }
                        next += 1;
                    }
                    *cursor = next;
                }
                let _ = writer.flush();
                if stopping {
                    return skipped;
                }
                if lag > RING_CAPACITY as u64 / 2 {
                    interval = (interval / 2).max(MIN_POLL_INTERVAL);
                    slept = false;
                    continue;
                }
                // Only a pass after a full sleep shows what one interval fills.
                if slept && lag < RING_CAPACITY as u64 / 8 {
                    interval = (interval * 2).min(POLL_INTERVAL);
                }
                std::thread::sleep(interval);
                slept = true;
            }
        })?;
    Ok(TraceLog {
        stop,
        thread: Some(thread),
    })
}

fn cursor_of(cursors: &mut Vec<u64>, thread: u64) -> &mut u64 {
    let index = thread as usize;
    if cursors.len() <= index {
        cursors.resize(index + 1, 0);
    }
    &mut cursors[index]
}

impl TraceLog {
    /// Drains one final pass, flushes and joins the writer thread, and
    /// prints to stderr — and returns — how many spans the log skipped.
    pub fn stop(mut self) -> u64 {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> u64 {
        let Some(thread) = self.thread.take() else {
            return 0;
        };
        self.stop.store(true, Ordering::Relaxed);
        let skipped = thread.join().unwrap_or(0);
        eprintln!(
            "[gf trace] trace log: {skipped} spans skipped (overwritten before they were written)"
        );
        skipped
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
    use crate::{event, set_current_request, SpanName};

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
        event(SpanName::EvalBatch, 64);
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
    fn ndjson_log_accounts_for_every_span_of_a_burst() {
        let _guard = crate::recording_lock();
        let path =
            std::env::temp_dir().join(format!("gf-trace-burst-{:016x}.ndjson", crate::next_id()));
        let log = start_ndjson_log(&path).unwrap();
        let marker = crate::next_id();
        set_current_request(marker);
        // Three rings' worth in one burst: the ring keeps the last one.
        let pushed = 3 * RING_CAPACITY as u64;
        for aux in 0..pushed {
            event(SpanName::EvalBatch, aux);
        }
        set_current_request(0);
        let skipped = log.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let needle = format!("\"request\":\"{marker:016x}\"");
        let logged = text.lines().filter(|l| l.contains(&needle)).count() as u64;
        assert!(logged >= RING_CAPACITY as u64, "the last ring is logged");
        assert_eq!(logged + skipped, pushed, "every span logged or counted");
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
