//! # gf-trace
//!
//! A zero-dependency structured-tracing subsystem: the flight recorder
//! behind the serving stack's `/v1/trace` endpoint, the `--trace-log`
//! NDJSON stream, the slow-request log and the CLI's leveled stderr
//! diagnostics.
//!
//! ## Design
//!
//! * **Per-thread lock-free span rings.** Every thread that records a
//!   span owns a fixed-capacity ring of slots; a write is a handful of
//!   relaxed atomic stores guarded by a per-slot seqlock (odd = write in
//!   progress), so the hot path never takes a lock and never allocates.
//!   Old spans are overwritten in place — the ring is a *recent history*,
//!   not a log.
//! * **A global collector.** Rings register themselves in a process-wide
//!   registry on first use; [`snapshot`] walks every ring and reads each
//!   slot's fields between two seq loads, discarding torn reads instead
//!   of stopping writers. Readers never block writers and writers never
//!   wait for readers.
//! * **Tick timestamps.** Spans are stamped in raw clock ticks (a TSC
//!   read on x86_64, roughly half the cost of an `Instant` read under
//!   virtualized clocks) and converted to nanoseconds only when
//!   collected, one calibration pair per snapshot.
//! * **One way to time a span, one read per boundary.** [`open`] reads
//!   the clock once (0 when tracing is off); [`close`] reads it once,
//!   records the span and returns its end stamp, which opens the next
//!   span; [`close_at`] ends a span at a stamp already read. A traced
//!   stamp is never 0, so 0 always means "untraced" and a chain of
//!   closes started at 0 records nothing. An [`event`] (zero duration)
//!   reads no clock when the thread's last recorded span belongs to the
//!   current request: it is dated at that span's end. Under request 0, or
//!   after another request's span, it takes one read.
//! * **SplitMix64 ids.** Span and request ids come from the in-tree
//!   [`gf_support::SplitMix64`] finalizer — unique (the finalizer is a
//!   bijection), well-spread, and cheap. Request ids draw from a global
//!   counter. A span id is derived when the span is read, from its ring
//!   id and push index, so the ring push stores none and never touches a
//!   contended cache line.
//! * **Runtime kill switch.** [`set_enabled`]`(false)` short-circuits
//!   recording to one relaxed load — not even a clock read — which
//!   is how the bench suite measures the `trace_overhead` ratio inside
//!   one binary.
//!
//! A request id set via [`set_current_request`] is sticky for the calling
//! thread, so engine- and pool-level spans correlate with the server
//! request that triggered them without threading ids through every API.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod log;

use clock::now_ticks;
pub use log::{
    level_enabled, log, max_level, set_max_level, span_to_ndjson, start_ndjson_log, Level, TraceLog,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gf_support::SplitMix64;

/// Spans each ring retains per thread. Power of two keeps the slot index
/// a mask, and ~1k spans per thread is minutes of history at serving
/// rates for the non-request span classes and seconds for request spans.
pub const RING_CAPACITY: usize = 1024;

/// The span taxonomy. Every span the workspace records is one of these —
/// a closed set, so names serialize as one `u64` and the exposition layer
/// cannot drift from the recording layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SpanName {
    /// HTTP request head+body parse (server; `aux` = body bytes). Opens
    /// when the loop turns to the request — for a pipelined follower,
    /// that is when the previous response was queued — so it includes
    /// any wait for the rest of the message to arrive.
    Parse = 0,
    /// Connection admission decision (server; `aux` = 1 when rejected).
    /// Connection-scoped: recorded before a request id exists.
    Admission = 1,
    /// Offloaded request's wait from the parse span's end to worker
    /// pickup (server); it ends at the pool's claim stamp, where
    /// [`SpanName::JobQueueWait`] ends.
    QueueWait = 2,
    /// Scenario compile on a cache miss (engine; `aux` = 0).
    Compile = 3,
    /// Query execution (server; `aux` = 0): the engine call, from the
    /// [`SpanName::Decode`] span's end until `Engine::run` (or the error)
    /// returns. On the health, metrics and trace routes, which decode
    /// nothing, it opens where decode would. The typed outcome is then
    /// written in the serialize span.
    Execute = 4,
    /// Response-body serialization (server; `aux` = body bytes): the one
    /// `JsonWriter` pass from the typed outcome (or error) to the body
    /// text. For a streamed grid it covers the head only; the rows are
    /// written as each block is evaluated.
    Serialize = 5,
    /// Response write: serialize-end to socket-drained (server;
    /// `aux` = bytes written) — covers HTTP encoding, output queueing,
    /// and every readiness round the flush takes.
    Write = 6,
    /// Scenario-cache hit (engine; `aux` = 0; zero duration).
    CacheHit = 7,
    /// Scenario-cache miss (engine; `aux` = 0; zero duration —
    /// the compile cost is the paired [`SpanName::Compile`] span).
    CacheMiss = 8,
    /// Pool job's queue wait from submit to claim (exec).
    JobQueueWait = 9,
    /// Pool job's run time on its worker (exec).
    JobRun = 10,
    /// One batch-kernel evaluation call (engine; `aux` = points).
    EvalBatch = 11,
    /// CLI phase timing: query build + scenario compile (`aux` = 0).
    CliCompile = 12,
    /// CLI phase timing: query evaluation (`aux` = 0). It ends before the
    /// outcome is rendered; a streamed grid writes its rows inside it.
    CliEval = 13,
    /// Catalog-id resolution to a concrete scenario spec (engine;
    /// `aux` = catalog entry index; zero duration).
    CatalogResolve = 14,
    /// One time-series carbon replay evaluation (engine; `aux` = steps).
    Replay = 15,
    /// One full optimizer solve (engine; `aux` = kernel evaluations).
    Optimize = 16,
    /// One optimizer refinement stage — golden-section or integer walk
    /// inside a coordinate-descent pass (engine; `aux` = kernel
    /// evaluations spent refining).
    OptimizeRefine = 17,
    /// Request-body decode (server; `aux` = body bytes): one lexer pass
    /// from the body text to a token tape and the typed query read from
    /// it, on a `/v1/<kind>` route. It shares its closing stamp with the
    /// [`SpanName::Execute`] span that follows, and ends on the decode
    /// error of a malformed body too.
    Decode = 18,
    /// One Monte-Carlo uncertainty study (engine; `aux` = samples).
    MonteCarlo = 19,
}

impl SpanName {
    /// Every name, in discriminant order (for exposition layers).
    pub const ALL: [SpanName; 20] = [
        SpanName::Parse,
        SpanName::Admission,
        SpanName::QueueWait,
        SpanName::Compile,
        SpanName::Execute,
        SpanName::Serialize,
        SpanName::Write,
        SpanName::CacheHit,
        SpanName::CacheMiss,
        SpanName::JobQueueWait,
        SpanName::JobRun,
        SpanName::EvalBatch,
        SpanName::CliCompile,
        SpanName::CliEval,
        SpanName::CatalogResolve,
        SpanName::Replay,
        SpanName::Optimize,
        SpanName::OptimizeRefine,
        SpanName::Decode,
        SpanName::MonteCarlo,
    ];

    /// The wire/display spelling (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Parse => "parse",
            SpanName::Admission => "admission",
            SpanName::QueueWait => "queue_wait",
            SpanName::Compile => "compile",
            SpanName::Execute => "execute",
            SpanName::Serialize => "serialize",
            SpanName::Write => "write",
            SpanName::CacheHit => "cache_hit",
            SpanName::CacheMiss => "cache_miss",
            SpanName::JobQueueWait => "job_queue_wait",
            SpanName::JobRun => "job_run",
            SpanName::EvalBatch => "eval_batch",
            SpanName::CliCompile => "cli_compile",
            SpanName::CliEval => "cli_eval",
            SpanName::CatalogResolve => "catalog_resolve",
            SpanName::Replay => "replay",
            SpanName::Optimize => "optimize",
            SpanName::OptimizeRefine => "optimize_refine",
            SpanName::Decode => "decode",
            SpanName::MonteCarlo => "montecarlo",
        }
    }

    /// The name for a stored discriminant; `None` for a torn/garbage read.
    pub fn from_u64(value: u64) -> Option<SpanName> {
        SpanName::ALL.get(value as usize).copied()
    }
}

/// One collected span, as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was measured.
    pub name: SpanName,
    /// Unique id of this span.
    pub span_id: u64,
    /// The request this span belongs to (`0` = not request-scoped).
    pub request_id: u64,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (`0` for instant events).
    pub duration_ns: u64,
    /// Span-class-specific detail (byte count, catalog index, ...).
    pub aux: u64,
    /// Small id of the recording thread's ring.
    pub thread: u64,
}

// ---------------------------------------------------------------------------
// Enable switch, ids
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether spans are being recorded. On by default.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Disabled tracing costs
/// one relaxed load per would-be span — no clock reads, no ring writes.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static ID_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A fresh unique id (request-scoped or ad hoc). SplitMix64's output
/// function is a bijection of its seed, so distinct counter values give
/// distinct ids while spreading them across the full 64-bit space.
/// Counter values stay below `SPAN_ID_INDEX_BITS` (40) bits in any
/// realistic process, so they never collide with the seeds span ids use.
pub fn next_id() -> u64 {
    let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    SplitMix64::new(n).next_u64()
}

/// Bits of a span-id seed that hold the span's push index in its ring;
/// the bits above hold the ring id + 1, so every seed is at least 2^40
/// and disjoint from [`next_id`]'s counter seeds.
const SPAN_ID_INDEX_BITS: u32 = 40;

/// The calling thread's trace state, one thread-local for the ring push
/// and the request context it reads.
struct Local {
    /// The thread's span ring, registered on its first span.
    ring: std::cell::OnceCell<Arc<Ring>>,
    /// The current request id (`0` when none).
    request: std::cell::Cell<u64>,
    /// `(request id, stamp)` of the last span end this thread recorded:
    /// the boundary an [`event`] under the same request is dated at.
    last_boundary: std::cell::Cell<(u64, u64)>,
}

std::thread_local! {
    static LOCAL: Local = const {
        Local {
            ring: std::cell::OnceCell::new(),
            request: std::cell::Cell::new(0),
            last_boundary: std::cell::Cell::new((0, 0)),
        }
    };
}

/// Sets the calling thread's current request id; spans recorded on this
/// thread carry it until it changes. `0` clears it.
pub fn set_current_request(id: u64) {
    LOCAL.with(|local| local.request.set(id));
}

/// The calling thread's current request id (`0` when none).
pub fn current_request() -> u64 {
    LOCAL.with(|local| local.request.get())
}

// ---------------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------------

/// One span slot. All fields are atomics so collector reads race-freely
/// with the owning writer; `seq` is a per-slot seqlock (odd while a write
/// is in flight) that lets the collector discard torn reads.
struct Slot {
    seq: AtomicU64,
    name: AtomicU64,
    request_id: AtomicU64,
    start_ticks: AtomicU64,
    duration_ticks: AtomicU64,
    aux: AtomicU64,
}

/// A single-writer span ring. The owning thread pushes; any thread reads.
pub(crate) struct Ring {
    thread: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(thread: u64) -> Ring {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                name: AtomicU64::new(0),
                request_id: AtomicU64::new(0),
                start_ticks: AtomicU64::new(0),
                duration_ticks: AtomicU64::new(0),
                aux: AtomicU64::new(0),
            })
            .collect();
        Ring {
            thread,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Records one span (timestamps in clock ticks). Single writer (the
    /// owning thread), lock-free.
    fn push(
        &self,
        name: SpanName,
        request_id: u64,
        start_ticks: u64,
        duration_ticks: u64,
        aux: u64,
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAPACITY - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release); // odd: write in flight
        slot.name.store(name as u64, Ordering::Relaxed);
        slot.request_id.store(request_id, Ordering::Relaxed);
        slot.start_ticks.store(start_ticks, Ordering::Relaxed);
        slot.duration_ticks.store(duration_ticks, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release); // even: published
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reads slot `index` (a global push index) if it holds a consistent,
    /// published span, converting its tick stamps to nanoseconds with
    /// `scale`; `None` for empty, in-flight or torn slots. The span id is
    /// derived here from the ring id and the push index, so a push stores
    /// none.
    fn read(&self, index: u64, scale: clock::Scale) -> Option<SpanRecord> {
        let slot = &self.slots[(index as usize) & (RING_CAPACITY - 1)];
        let seq_before = slot.seq.load(Ordering::Acquire);
        if seq_before == 0 || seq_before & 1 == 1 {
            return None;
        }
        let record = SpanRecord {
            name: SpanName::from_u64(slot.name.load(Ordering::Relaxed))?,
            span_id: SplitMix64::new((self.thread + 1) << SPAN_ID_INDEX_BITS | index).next_u64(),
            request_id: slot.request_id.load(Ordering::Relaxed),
            start_ns: scale.ticks_to_ns(slot.start_ticks.load(Ordering::Relaxed)),
            duration_ns: scale.ticks_to_ns(slot.duration_ticks.load(Ordering::Relaxed)),
            aux: slot.aux.load(Ordering::Relaxed),
            thread: self.thread,
        };
        if slot.seq.load(Ordering::Acquire) != seq_before {
            return None; // overwritten mid-read: a newer span owns the slot
        }
        Some(record)
    }

    /// The push-index window currently resident: `[start, head)`.
    fn window(&self) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        (head.saturating_sub(RING_CAPACITY as u64), head)
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn registered_rings() -> Vec<Arc<Ring>> {
    registry().lock().expect("trace registry poisoned").clone()
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Opens a span: one clock read, or 0 when tracing is off. Hand the stamp
/// to [`close`].
pub fn open() -> u64 {
    if enabled() {
        now_ticks()
    } else {
        0
    }
}

/// Closes the `name` span opened at `start` with one clock read, records
/// it under the thread's current request, and returns its end stamp, which
/// opens the next span. A no-op returning 0 when `start` is 0 (untraced).
pub fn close(name: SpanName, start: u64, aux: u64) -> u64 {
    if start == 0 || !enabled() {
        return 0;
    }
    record(name, start, now_ticks(), aux)
}

/// [`close`] at an `end` stamp that another span already closed at, for a
/// span whose start lived on another thread (a queue wait ends where the
/// pool claimed the job). Reads no clock; a no-op returning 0 when either
/// stamp is 0.
pub fn close_at(name: SpanName, start: u64, end: u64, aux: u64) -> u64 {
    if start == 0 || end == 0 || !enabled() {
        return 0;
    }
    record(name, start, end, aux)
}

/// Records a zero-duration event. It reads no clock when this thread's
/// last recorded span belongs to the current request (not 0): the event
/// is dated at that span's end, the boundary the request last crossed.
/// Otherwise (request 0, or another request's boundary) it takes one read.
pub fn event(name: SpanName, aux: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|local| {
        let request_id = local.request.get();
        let (last_request, last) = local.last_boundary.get();
        let at = if request_id != 0 && last_request == request_id {
            last
        } else {
            now_ticks()
        };
        push(local, name, request_id, at, at, aux);
    });
}

/// Records one span under the thread's current request.
fn record(name: SpanName, start: u64, end: u64, aux: u64) -> u64 {
    LOCAL.with(|local| push(local, name, local.request.get(), start, end, aux));
    end
}

/// Pushes one span onto the thread's ring, registering the ring on the
/// thread's first span, and makes `end` its last boundary.
fn push(local: &Local, name: SpanName, request_id: u64, start: u64, end: u64, aux: u64) {
    local.last_boundary.set((request_id, end));
    let ring = local.ring.get_or_init(|| {
        let mut rings = registry().lock().expect("trace registry poisoned");
        let ring = Arc::new(Ring::new(rings.len() as u64));
        rings.push(Arc::clone(&ring));
        ring
    });
    ring.push(name, request_id, start, end.saturating_sub(start), aux);
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Snapshots the most recent spans across every thread's ring, newest
/// first, without stopping writers. Torn or in-flight slots are skipped;
/// at most `max` spans are returned.
pub fn snapshot(max: usize) -> Vec<SpanRecord> {
    let scale = clock::Scale::sample();
    let mut spans = Vec::new();
    for ring in registered_rings() {
        let (start, head) = ring.window();
        for index in start..head {
            if let Some(record) = ring.read(index, scale) {
                spans.push(record);
            }
        }
    }
    spans.sort_by(|a, b| b.start_ns.cmp(&a.start_ns).then(b.span_id.cmp(&a.span_id)));
    spans.truncate(max);
    spans
}

/// Every resident span belonging to `request_id`, oldest first — the
/// slow-request log's breakdown. Scans all rings; intended for the rare
/// path, not the hot one.
pub fn spans_for_request(request_id: u64) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = snapshot(usize::MAX)
        .into_iter()
        .filter(|span| span.request_id == request_id)
        .collect();
    spans.reverse();
    spans
}

/// Serializes tests that record spans or toggle the global enable flag,
/// so the parallel test runner cannot interleave them.
#[cfg(test)]
pub(crate) fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_id()));
        }
    }

    #[test]
    fn span_names_round_trip_their_discriminants() {
        for name in SpanName::ALL {
            assert_eq!(SpanName::from_u64(name as u64), Some(name));
            assert!(!name.as_str().is_empty());
        }
        assert_eq!(SpanName::from_u64(u64::MAX), None);
        assert_eq!(SpanName::from_u64(SpanName::ALL.len() as u64), None);
    }

    #[test]
    fn recorded_spans_surface_in_snapshots() {
        let _guard = crate::recording_lock();
        let marker = next_id();
        set_current_request(marker);
        let start = open();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end = close(SpanName::Execute, start, 0);
        assert!(start != 0 && end > start, "traced stamps are never 0");
        event(SpanName::CacheHit, 3);
        set_current_request(0);
        let mine = spans_for_request(marker);
        assert_eq!(mine.len(), 2, "both spans carry the request id");
        assert_eq!(mine[0].name, SpanName::Execute);
        assert!(mine[0].duration_ns >= 500_000, "slept ~1ms");
        assert_eq!(mine[1].name, SpanName::CacheHit);
        assert_eq!(mine[1].duration_ns, 0);
        assert!(mine[1].start_ns >= mine[0].start_ns);
        assert_ne!(mine[0].span_id, mine[1].span_id);
    }

    /// The end of `span` in nanoseconds.
    fn end_ns(span: &SpanRecord) -> u64 {
        span.start_ns + span.duration_ns
    }

    /// Records an `execute` span under `request`, waits `pause_ms`, then
    /// switches to `event_request` and records a `cache_hit` event with
    /// `aux` = `marker`. Returns the span and the event as collected.
    fn span_then_event(
        request: u64,
        event_request: u64,
        pause_ms: u64,
    ) -> (SpanRecord, SpanRecord) {
        let marker = next_id();
        set_current_request(request);
        close(SpanName::Execute, open(), marker);
        std::thread::sleep(std::time::Duration::from_millis(pause_ms));
        set_current_request(event_request);
        event(SpanName::CacheHit, marker);
        set_current_request(0);
        // One snapshot, so both spans convert at the same scale.
        let spans = snapshot(usize::MAX);
        let find = |name: SpanName| {
            *spans
                .iter()
                .find(|span| span.name == name && span.aux == marker)
                .expect("span recorded")
        };
        (find(SpanName::Execute), find(SpanName::CacheHit))
    }

    #[test]
    fn an_event_is_dated_at_its_requests_last_boundary() {
        let _guard = crate::recording_lock();
        let request = next_id();
        let (span, event) = span_then_event(request, request, 2);
        assert_eq!(event.request_id, request);
        assert_eq!(event.duration_ns, 0);
        assert!(
            event.start_ns.abs_diff(end_ns(&span)) <= 1,
            "event {event:?} sits at the end of {span:?}, not 2ms later"
        );
    }

    #[test]
    fn an_event_under_request_zero_reads_the_clock() {
        let _guard = crate::recording_lock();
        let (span, event) = span_then_event(0, 0, 2);
        assert_eq!(event.request_id, 0);
        assert!(
            event.start_ns >= end_ns(&span) + 1_000_000,
            "event {event:?} took a fresh read ~2ms after {span:?}"
        );
    }

    #[test]
    fn an_event_after_another_requests_span_reads_the_clock() {
        let _guard = crate::recording_lock();
        let (earlier, later) = (next_id(), next_id());
        let (span, event) = span_then_event(earlier, later, 2);
        assert_eq!(event.request_id, later);
        assert!(
            event.start_ns >= end_ns(&span) + 1_000_000,
            "event {event:?} is not dated at {span:?}, another request's boundary"
        );
    }

    #[test]
    fn ring_wraparound_keeps_only_the_newest_capacity_spans() {
        let ring = Ring::new(777);
        let total = (RING_CAPACITY * 2 + 17) as u64;
        for i in 0..total {
            ring.push(SpanName::Parse, 42, i, 1, i);
        }
        let (start, head) = ring.window();
        assert_eq!(head, total);
        assert_eq!(start, total - RING_CAPACITY as u64);
        let scale = clock::Scale::sample();
        let resident: Vec<SpanRecord> = (start..head).filter_map(|i| ring.read(i, scale)).collect();
        assert_eq!(resident.len(), RING_CAPACITY);
        // The resident window is exactly the last RING_CAPACITY pushes,
        // in order, each slot overwritten by its final tenant.
        for (offset, record) in resident.iter().enumerate() {
            assert_eq!(record.aux, start + offset as u64);
            assert_eq!(record.thread, 777);
        }
    }

    #[test]
    fn cross_thread_spans_are_collected_with_their_threads() {
        let _guard = crate::recording_lock();
        let marker = next_id();
        let workers: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    set_current_request(marker);
                    event(SpanName::JobRun, i);
                    set_current_request(0);
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let mine = spans_for_request(marker);
        assert_eq!(mine.len(), 4, "one span per worker thread");
        let auxes: std::collections::HashSet<u64> = mine.iter().map(|s| s.aux).collect();
        assert_eq!(auxes, (0..4).collect());
        let threads: std::collections::HashSet<u64> = mine.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4, "each worker wrote its own ring");
        let span_ids: std::collections::HashSet<u64> = mine.iter().map(|s| s.span_id).collect();
        assert_eq!(
            span_ids.len(),
            4,
            "span ids derived from ring and push index stay unique across threads"
        );
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = crate::recording_lock();
        let marker = next_id();
        set_current_request(marker);
        let traced = open();
        set_enabled(false);
        assert_eq!(open(), 0, "no clock read while disabled");
        assert_eq!(close(SpanName::Execute, traced, 0), 0);
        assert_eq!(close_at(SpanName::QueueWait, traced, traced + 1, 0), 0);
        event(SpanName::CacheHit, 1);
        set_enabled(true);
        assert_eq!(
            close(SpanName::Execute, 0, 0),
            0,
            "a chain opened at 0 records nothing"
        );
        event(SpanName::CacheMiss, 2);
        set_current_request(0);
        let mine = spans_for_request(marker);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, SpanName::CacheMiss);
    }

    #[test]
    fn torn_reads_are_discarded() {
        let ring = Ring::new(0);
        let scale = clock::Scale::sample();
        ring.push(SpanName::Parse, 1, 2, 3, 4);
        // Simulate a write in flight on slot 0.
        ring.slots[0].seq.fetch_add(1, Ordering::Release);
        assert!(
            ring.read(0, scale).is_none(),
            "odd seq is an in-flight write"
        );
        ring.slots[0].seq.fetch_add(1, Ordering::Release);
        assert!(ring.read(0, scale).is_some());
        // A garbage name discriminant (torn slot) is rejected.
        ring.slots[0].name.store(u64::MAX, Ordering::Relaxed);
        assert!(ring.read(0, scale).is_none());
    }
}
