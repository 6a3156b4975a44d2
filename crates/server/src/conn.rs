//! Per-connection state for the event loop: the lifecycle machine, the
//! buffers that let I/O resume mid-message, and the token slab that maps
//! readiness reports back to connections.
//!
//! One connection walks `Read → Dispatched → (Write | Stream) →
//! (Read | Drain)`:
//!
//! * **Read** — bytes accumulate in `inbuf`; the [`RequestAssembler`]
//!   consumes them incrementally (head, then body), surviving any
//!   fragmentation the network produces.
//! * **Dispatched** — a complete request was handed to the worker pool;
//!   read interest is dropped so the socket cannot spin the loop while the
//!   engine works. The response comes back through the completion queue.
//! * **Stream** — a chunked response is in flight: the worker evaluates
//!   row-blocks and sends body fragments through a bounded channel; the
//!   loop chunk-encodes them into `outbuf` as the peer drains it, so the
//!   resident response is block-sized, never whole-result sized.
//! * **Write** — `outbuf[outpos..]` drains across however many
//!   writable-readiness rounds the peer's receive window allows.
//! * **Drain** — the response is flushed and the connection is closing:
//!   sending is shut down and already-received bytes are discarded until
//!   EOF (or a short deadline), so the kernel never answers our own
//!   buffered response with an RST.
//!
//! Tokens are `generation << 32 | slot`: a completion or timer that
//! outlives its connection can never touch the slot's next tenant, because
//! the generation no longer matches.

use std::net::TcpStream;
use std::time::Instant;

use crate::http::RequestAssembler;
use crate::poll::Interest;

/// Where a connection is in its request/response lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Accumulating request bytes.
    Read,
    /// A request is with the worker pool; awaiting its completion.
    Dispatched,
    /// A chunked response is streaming: a worker pumps body fragments
    /// through the connection's [`StreamState`] channel while the loop
    /// relays them to the socket, never buffering more than the
    /// backpressure bound.
    Stream,
    /// Draining `outbuf` to the peer.
    Write,
    /// Response flushed, send side shut; discarding until EOF.
    Drain,
}

/// The loop-side half of one in-flight streamed response.
pub(crate) struct StreamState {
    /// Body fragments arriving from the worker (bounded, so a peer that
    /// stops reading blocks the *worker*, not server memory).
    pub rx: std::sync::mpsc::Receiver<crate::StreamEvent>,
    /// Metrics-registry index of the streaming route.
    pub route: usize,
    /// When the request was parsed (for the latency histogram).
    pub started: Instant,
    /// Request body size (for the metrics byte counters).
    pub bytes_in: u64,
    /// Body payload bytes relayed so far (chunk framing excluded).
    pub bytes_out: u64,
}

/// One live connection.
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Lifecycle position.
    pub state: ConnState,
    /// Received-but-unparsed bytes (including pipelined followers).
    pub inbuf: Vec<u8>,
    /// Incremental parser state for the request in flight.
    pub assembler: RequestAssembler,
    /// Encoded response bytes awaiting the peer.
    pub outbuf: Vec<u8>,
    /// How much of `outbuf` has been written so far.
    pub outpos: usize,
    /// Close (via `Drain`) once `outbuf` empties.
    pub close_after_write: bool,
    /// The interest set currently registered with the driver.
    pub interest: Interest,
    /// When the current state gives up (`None` while dispatched: the
    /// engine owes a completion, the peer owes nothing).
    pub deadline: Option<Instant>,
    /// When the timer heap's standing entry for this connection fires, if
    /// one is queued. Lets the loop re-arm deadlines by just moving
    /// `deadline` — the standing heap entry re-pushes itself when it pops
    /// early — instead of pushing one entry per request, even across an
    /// offloaded dispatch that clears `deadline`.
    pub timer_at: Option<Instant>,
    /// Whether the per-request header deadline has been armed, so a
    /// byte-trickling peer cannot keep resetting its own clock.
    pub header_deadline_armed: bool,
    /// Whether this connection occupies an admission slot (rejected
    /// connections do not — they only live long enough to carry a `503`).
    pub counted_live: bool,
    /// The in-flight streamed response, while `state` is
    /// [`ConnState::Stream`].
    pub streaming: Option<StreamState>,
    /// Trace id of the request currently owning this connection; assigned
    /// when its first byte arrives, echoed in `x-request-id`, and reset
    /// when the next request begins.
    pub request_id: u64,
    /// Start stamp of the in-flight response write: the dispatcher's
    /// serialize-end boundary stamp (from `gf_trace::close`), so the
    /// `write` span covers encoding plus every readiness round the drain
    /// takes. Zero when no write span is open.
    pub write_started_ticks: u64,
    /// Request id the open write span belongs to — kept apart from
    /// `request_id`, which a pipelined follower may already have claimed
    /// by the time the coalesced flush completes.
    pub write_request_id: u64,
}

impl Conn {
    /// A freshly accepted connection, ready to read its first request.
    pub fn new(stream: TcpStream, deadline: Instant) -> Conn {
        Conn {
            stream,
            state: ConnState::Read,
            inbuf: Vec::new(),
            assembler: RequestAssembler::default(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_write: false,
            interest: Interest::READ,
            deadline: Some(deadline),
            timer_at: None,
            header_deadline_armed: false,
            counted_live: true,
            streaming: None,
            request_id: 0,
            write_started_ticks: 0,
            write_request_id: 0,
        }
    }

    /// The interest set this connection's state wants: readable while
    /// reading or draining, writable while response bytes are pending.
    pub fn desired_interest(&self) -> Interest {
        Interest {
            readable: matches!(self.state, ConnState::Read | ConnState::Drain),
            writable: self.outpos < self.outbuf.len(),
        }
    }

    /// True when unanswered request bytes are buffered, so a deadline now
    /// deserves a `408` rather than a silent idle close.
    pub fn mid_request(&self) -> bool {
        self.assembler.mid_request(&self.inbuf)
    }
}

/// Index-stable connection storage with generation-tagged tokens.
#[derive(Default)]
pub(crate) struct ConnSlab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    len: usize,
}

struct Slot {
    generation: u32,
    conn: Option<Conn>,
}

impl ConnSlab {
    /// Stores a connection and returns its token.
    pub fn insert(&mut self, conn: Conn) -> u64 {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index];
            slot.conn = Some(conn);
            token(index, slot.generation)
        } else {
            let index = self.slots.len();
            self.slots.push(Slot {
                generation: 0,
                conn: Some(conn),
            });
            token(index, 0)
        }
    }

    /// The connection for `token`, unless it was removed (or the slot was
    /// reused by a later generation).
    pub fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (index, generation) = split(token);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        slot.conn.as_mut()
    }

    /// Removes and returns the connection for `token`. The slot's
    /// generation advances so stale tokens die with it.
    pub fn remove(&mut self, token: u64) -> Option<Conn> {
        let (index, generation) = split(token);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        let conn = slot.conn.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        self.len -= 1;
        Some(conn)
    }

    /// Live connection count.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Counts connections per lifecycle state, in
    /// [`crate::metrics::CONN_STATES`] order — the event-loop census
    /// gauges. O(slots), so callers sample it on a time budget.
    pub fn census(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for slot in &self.slots {
            if let Some(conn) = &slot.conn {
                let index = match conn.state {
                    ConnState::Read => 0,
                    ConnState::Dispatched => 1,
                    ConnState::Stream => 2,
                    ConnState::Write => 3,
                    ConnState::Drain => 4,
                };
                counts[index] += 1;
            }
        }
        counts
    }

    /// Tokens of every live connection (for shutdown teardown).
    pub fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.conn.is_some())
            .map(|(index, slot)| token(index, slot.generation))
            .collect()
    }
}

fn token(index: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | index as u64
}

fn split(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn stream() -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        TcpStream::connect(listener.local_addr().unwrap()).unwrap()
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab = ConnSlab::default();
        let deadline = Instant::now() + Duration::from_secs(1);
        let a = slab.insert(Conn::new(stream(), deadline));
        let b = slab.insert(Conn::new(stream(), deadline));
        assert_eq!(slab.len(), 2);
        assert!(slab.get_mut(a).is_some());
        assert!(slab.remove(a).is_some());
        assert!(slab.get_mut(a).is_none(), "removed token is dead");
        assert!(slab.remove(a).is_none());
        let c = slab.insert(Conn::new(stream(), deadline));
        assert_ne!(a, c, "reused slot carries a new generation");
        assert_eq!(a & 0xFFFF_FFFF, c & 0xFFFF_FFFF, "same slot index");
        assert!(slab.get_mut(a).is_none(), "stale token misses the tenant");
        assert!(slab.get_mut(b).is_some() && slab.get_mut(c).is_some());
        assert_eq!(slab.tokens().len(), 2);
    }

    #[test]
    fn desired_interest_tracks_state_and_buffers() {
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut conn = Conn::new(stream(), deadline);
        assert!(conn.desired_interest().readable);
        assert!(!conn.desired_interest().writable);
        conn.outbuf = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        conn.state = ConnState::Write;
        assert!(conn.desired_interest().writable);
        assert!(!conn.desired_interest().readable);
        conn.outpos = conn.outbuf.len();
        assert!(!conn.desired_interest().writable, "flushed");
        conn.state = ConnState::Dispatched;
        assert!(
            !conn.desired_interest().readable,
            "no read interest while the engine owns the request"
        );
    }
}
