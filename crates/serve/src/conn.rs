//! Per-connection state: the inbound frame decoder, the outbound write
//! buffer, the session lifecycle, and the engine→socket output seam.
//!
//! A connection is a small state machine ([`ConnState`]): `Idle` until an
//! `OPEN` frame binds it to a runtime session, `Running` while `CHUNK`s
//! flow, then `Finishing`/`Aborting` until the runtime confirms with its
//! terminal event. Engine output crosses threads through a [`SharedOut`]
//! buffer: the session's [`FrameSink`] (executing on a runtime worker)
//! appends raw result bytes, and the server thread drains them into
//! `RESULT` frames on the connection's write buffer.
//!
//! Backpressure is structural, not buffered: when the socket stops
//! accepting writes and the outbound buffer crosses the server's high-water
//! mark — or the session stalls on the shared admission budget — the
//! connection's *read* interest is parked ([`Conn::wants_read`] turns
//! false). No further frames are decoded, no further chunks reach the
//! engine, so no further output is produced; TCP pushes the wait back to
//! the client. Bytes already in flight are bounded by what was read before
//! the mark was crossed.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flux::RuntimeId;
use flux_engine::RunStats;
use flux_xml::Sink;

use crate::metrics::{Dir, ServeMetrics};
use crate::poller::Interest;
use crate::protocol::{done_finished_payload, encode_frame, ErrorCode, FrameDecoder, FrameKind};

/// Where a connection is in the session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// No session: `OPEN` is the only acceptable next frame.
    Idle,
    /// One or more valid `OPEN`s received, no document bytes yet. Further
    /// `OPEN`s join the set ([`Conn::pending_opens`]); the first `CHUNK`
    /// or `FINISH` seals it into a session (single for one id, shared
    /// fan-out for several).
    Collecting,
    /// An `OPEN` was refused (unknown query id) but the connection lives
    /// on. A pipelining client may already have the doomed run's `CHUNK`s
    /// and `FINISH` in flight: they are absorbed silently (`FINISH` /
    /// `ABORT` return the state to `Idle`, and a fresh `OPEN` is accepted
    /// directly — the client moved on without ever chunking).
    Rejected,
    /// A session is live: `CHUNK` / `FINISH` / `ABORT` are acceptable.
    Running(RuntimeId),
    /// `FINISH` sent to the runtime; awaiting its `Finished` event.
    Finishing(RuntimeId),
    /// `ABORT` sent to the runtime; awaiting its `Aborted` event.
    Aborting(RuntimeId),
}

impl ConnState {
    /// The session to abort if this connection dies right now. Only
    /// `Running` qualifies: `Finishing`/`Aborting` ids are already dead to
    /// commands — their terminal event is in flight.
    pub(crate) fn abort_on_death(self) -> Option<RuntimeId> {
        match self {
            ConnState::Running(id) => Some(id),
            _ => None,
        }
    }
}

/// The engine→connection output buffer, shared between a session's
/// [`FrameSink`] (on a runtime worker thread) and the server thread.
#[derive(Debug, Default)]
pub(crate) struct SharedOut {
    buf: Mutex<Vec<u8>>,
    /// Mirror of `buf.len()`, so the server's per-tick scan costs one
    /// relaxed load per connection instead of a lock.
    len: AtomicUsize,
}

impl SharedOut {
    pub(crate) fn new() -> Arc<SharedOut> {
        Arc::new(SharedOut::default())
    }

    /// Bytes currently buffered (racy read; the drain locks).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn append(&self, bytes: &[u8]) {
        let mut buf = self.buf.lock().expect("session output buffer");
        buf.extend_from_slice(bytes);
        self.len.store(buf.len(), Ordering::Relaxed);
    }

    /// Take everything buffered so far (output order is append order).
    pub(crate) fn take(&self) -> Vec<u8> {
        let mut buf = self.buf.lock().expect("session output buffer");
        self.len.store(0, Ordering::Relaxed);
        std::mem::take(&mut buf)
    }
}

/// The [`Sink`] handed to the runtime for each server session: appends the
/// engine's output bytes to the connection's [`SharedOut`]. Framing into
/// `RESULT` frames happens on the server thread at drain time, so the
/// engine's write granularity never dictates frame sizes.
pub(crate) struct FrameSink(pub(crate) Arc<SharedOut>);

impl Sink for FrameSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.append(bytes);
        Ok(())
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one non-blocking read pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadPass {
    /// Bytes were fed to the decoder; there may be more to read.
    Progress,
    /// The socket has no more bytes right now.
    Drained,
    /// The peer closed (EOF or a hard error).
    PeerGone,
}

/// One client connection — see the [module docs](self).
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    /// Encoded outbound frames waiting for the socket.
    out: Vec<u8>,
    /// Consumed prefix of `out` (partial writes).
    out_pos: usize,
    pub(crate) state: ConnState,
    /// Query ids collected from `OPEN` frames, awaiting the seal
    /// (`Collecting` only).
    pub(crate) pending_opens: Vec<String>,
    /// Query ids of the sealed run, in subscriber order — what a
    /// `SNAPSHOT` records in the snapshot envelope so `RESUME` can
    /// recompile the same plan.
    pub(crate) run_ids: Vec<String>,
    /// The live session's output seams, one per subscriber in set order
    /// (present from the seal to the terminal runtime event). A single
    /// `OPEN` is a set of one whose frames stay untagged; with several,
    /// every frame carries its subscriber index.
    pub(crate) outs: Vec<Arc<SharedOut>>,
    /// The session is paused on the shared admission budget: reads are
    /// parked so the client's chunks queue in its own socket, not here.
    pub(crate) stalled: bool,
    /// A fatal frame was sent (`ERROR`): flush `out`, then close.
    pub(crate) close_after_flush: bool,
    /// The peer disconnected: reap this connection this tick.
    pub(crate) peer_gone: bool,
    /// Interest currently registered with the poller (to skip redundant
    /// reregistration).
    pub(crate) registered: Interest,
    /// When the current run's opens were sealed into a session — feeds the
    /// per-query `flux_serve_run_duration_us` histogram at `DONE` time.
    pub(crate) run_started: Option<std::time::Instant>,
    /// The server's instrument bundle, if metrics are configured; every
    /// frame and byte through this connection counts against it.
    pub(crate) metrics: Option<Arc<ServeMetrics>>,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        max_frame_payload: usize,
        metrics: Option<Arc<ServeMetrics>>,
    ) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_frame_payload),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Idle,
            pending_opens: Vec::new(),
            run_ids: Vec::new(),
            outs: Vec::new(),
            stalled: false,
            close_after_flush: false,
            peer_gone: false,
            registered: Interest::READ,
            run_started: None,
            metrics,
        }
    }

    /// Bytes queued for the socket.
    pub(crate) fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queue one frame for the client — the single outbound funnel, so
    /// every server→client frame counts once in the metrics.
    pub(crate) fn queue(&mut self, kind: FrameKind, payload: &[u8]) {
        if let Some(m) = &self.metrics {
            m.note_frame(Dir::Out, kind);
        }
        encode_frame(&mut self.out, kind, payload);
    }

    /// Queue a structured, connection-level (untagged) `ERROR` frame.
    pub(crate) fn queue_error(&mut self, code: ErrorCode, message: &str) {
        self.queue_error_sub(false, 0, code, message);
    }

    /// Queue one subscriber's frame: untagged for a run of one subscriber
    /// (byte-identical to the pre-fan-out protocol), or — `tagged`, in a
    /// run of several — with the payload prefixed by the 4-byte big-endian
    /// subscriber index.
    pub(crate) fn queue_sub(&mut self, tagged: bool, sub: usize, kind: FrameKind, payload: &[u8]) {
        if !tagged {
            self.queue(kind, payload);
            return;
        }
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(sub as u32).to_be_bytes());
        framed.extend_from_slice(payload);
        self.queue(kind, &framed);
    }

    /// Queue one subscriber's `DONE` frame for a completed run.
    pub(crate) fn queue_done_finished(&mut self, tagged: bool, sub: usize, stats: &RunStats) {
        let payload =
            done_finished_payload(stats.events, stats.output_bytes, stats.scan, stats.tape);
        self.queue_sub(tagged, sub, FrameKind::Done, &payload);
    }

    /// Queue one subscriber's structured `ERROR` frame.
    pub(crate) fn queue_error_sub(
        &mut self,
        tagged: bool,
        sub: usize,
        code: ErrorCode,
        message: &str,
    ) {
        let mut payload = Vec::with_capacity(1 + message.len());
        payload.push(code.byte());
        payload.extend_from_slice(message.as_bytes());
        self.queue_sub(tagged, sub, FrameKind::Error, &payload);
    }

    /// Queue the `DONE` frames acknowledging the abort of a run of `subs`
    /// subscribers.
    pub(crate) fn queue_done_aborted(&mut self, subs: usize) {
        for sub in 0..subs {
            self.queue_sub(subs > 1, sub, FrameKind::Done, &[1]);
        }
    }

    /// Drain the session's output into `RESULT` frames of at most
    /// `frame_max` payload bytes each, subscriber by subscriber — tagged
    /// when the run has several (the tag rides inside the payload, so the
    /// data slice shrinks by its 4 bytes to respect the cap).
    pub(crate) fn drain_results(&mut self, frame_max: usize) {
        let tagged = self.outs.len() > 1;
        let step = if tagged { frame_max.saturating_sub(4) } else { frame_max }.max(1);
        for sub in 0..self.outs.len() {
            if self.outs[sub].len() == 0 {
                continue;
            }
            let bytes = self.outs[sub].take();
            for chunk in bytes.chunks(step) {
                self.queue_sub(tagged, sub, FrameKind::Result, chunk);
            }
        }
    }

    /// Should the poller watch this connection for readability?
    pub(crate) fn wants_read(&self, high_water: usize) -> bool {
        !self.peer_gone && !self.close_after_flush && !self.stalled && self.out_len() <= high_water
    }

    /// One non-blocking read pass: pull at most one buffer of bytes into
    /// the decoder. The caller decodes frames between passes so state
    /// changes (errors, backpressure) take effect mid-stream.
    pub(crate) fn read_pass(&mut self, scratch: &mut [u8]) -> ReadPass {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ReadPass::PeerGone,
                Ok(n) => {
                    if let Some(m) = &self.metrics {
                        m.bytes_in.add(n as u64);
                    }
                    self.decoder.feed(&scratch[..n]);
                    return ReadPass::Progress;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadPass::Drained,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadPass::PeerGone,
            }
        }
    }

    /// Write as much of `out` as the socket accepts right now.
    pub(crate) fn flush_pass(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    if let Some(m) = &self.metrics {
                        m.bytes_out.add(n as u64);
                    }
                    self.out_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > (64 << 10) {
            // Reclaim the written prefix so slow readers do not pin the
            // whole history of their stream.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}
