//! Incremental, push-based query execution — sans IO, sans threads.
//!
//! The paper's engine is a *pull* loop: it recurses over scopes and blocks
//! on the parser for the next event. A network service sees the opposite
//! shape — bytes are *pushed* at it, chunk by chunk, with arbitrary
//! boundaries. [`Session`] inverts the control flow *inside the engine*:
//! the execution is a resumable state machine ([`flux_engine::Pump`]) fed
//! by an incremental parser, so [`Session::feed`] runs the plan inline on
//! the caller's thread until the fed bytes are exhausted, then returns.
//! There is no worker thread, no channel, no condition variable, and no
//! extra copy of the payload: the parser's zero-copy fast paths read
//! straight out of the fed window, and output streams to the session's
//! [`Sink`] as soon as the schedule allows — a fully-streaming plan emits
//! results while the document is still arriving.
//!
//! A session is a fan-out of one: a one-subscriber view over the single
//! session implementation, [`SharedSession`]. It owns no reader, tape or
//! gating code of its own — the shared drain loop skips unhandled
//! subtrees at the reader exactly when this one subscriber is parked — and
//! its type only pins the shape: exactly one sink in, one outcome out, and
//! [`FluxError::SessionAborted`] once that subscriber has failed.
//!
//! Chunk boundaries are invisible to the engine — the incremental reader
//! rolls back any construct that runs off the end of the fed bytes and
//! re-parses it when more arrive — so output bytes *and* every statistic
//! (`peak_buffer_bytes` in particular) are identical to a one-shot run over
//! the concatenation of the chunks. `tests/session_chunking.rs` asserts
//! this for every possible split position.
//!
//! Because a session is just a plain value (reader state + machine state),
//! serving N concurrent streams costs N small structs — not N OS threads —
//! and a single thread can multiplex thousands of live sessions: that is
//! the [`Shard`](crate::Shard) layer, and [`Runtime`](crate::Runtime)
//! spreads shards across cores. Memory per session is bounded by the
//! engine's buffer plan (plus the tail of one unparsed construct); the
//! per-session buffer-limit policy is
//! [`EngineBuilder::max_buffer_bytes`](crate::EngineBuilder::max_buffer_bytes),
//! and an [`AdmissionController`](crate::AdmissionController) additionally
//! bounds the *aggregate* across sessions — a session under admission
//! control reports [`FeedOutcome::Backpressure`] from
//! [`Session::feed_outcome`] when the shared budget runs tight.

use std::sync::Arc;

use flux_engine::{BudgetHook, FanoutPlan, RunStats};
use flux_xml::Sink;

use crate::error::FluxError;
use crate::runtime::{FeedOutcome, SharedSession};

/// What a finished session produced.
#[derive(Debug)]
pub struct Finished<S> {
    /// Run statistics — identical to a one-shot run over the same bytes.
    pub stats: RunStats,
    /// The sink handed to [`PreparedQuery::session`](crate::PreparedQuery::session),
    /// with all output written.
    pub sink: S,
}

/// One incremental execution of a [`PreparedQuery`](crate::PreparedQuery).
///
/// Feed chunks as they arrive, then [`finish`](Session::finish) to signal
/// end of input and collect the [`RunStats`] and the sink. Execution
/// happens *inside* `feed`, on the caller's thread; a session holds no
/// thread or other OS resource, so dropping one mid-stream is trivially
/// clean and thousands can be live at once (see [`Shard`](crate::Shard)).
pub struct Session<S: Sink> {
    inner: SharedSession<S>,
}

impl<S: Sink> Session<S> {
    pub(crate) fn new(
        plan: Arc<FanoutPlan>,
        sink: S,
        budget: Option<Arc<dyn BudgetHook>>,
    ) -> Session<S> {
        Session { inner: SharedSession::new(plan, vec![sink], budget, true) }
    }

    /// Push the next chunk of the document. Chunks may split the XML at any
    /// byte boundary, including inside tags and multi-byte characters.
    ///
    /// The engine runs inline: every event completed by this chunk is
    /// processed (and its output written) before `feed` returns, so a
    /// caller is naturally back-pressured by its own sink and the session
    /// never queues raw input beyond the tail of one unparsed construct.
    ///
    /// Returns [`FluxError::SessionAborted`] when the run has already
    /// failed on earlier input; call [`finish`](Session::finish) (or
    /// [`finish_parts`](Session::finish_parts)) to learn the cause.
    ///
    /// This method bypasses the admission gate: the chunk is absorbed and
    /// executed even while the shared budget is tight (every charge is
    /// still strictly enforced — see [`Session::feed_outcome`] for the
    /// flow-controlled variant). That makes it the right call for input
    /// the caller has already committed to deliver, e.g. to complete a
    /// document whose buffers are exactly what will free the pool.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), FluxError> {
        self.inner.feed(chunk)
    }

    /// [`Session::feed`] behind the admission gate. While the shared
    /// budget is tight *and* this session holds no buffers, the chunk is
    /// refused — nothing is absorbed, [`FeedOutcome::Backpressure`] is
    /// returned, and the caller re-feeds the same chunk once
    /// [`Session::resume`] reports [`FeedOutcome::Accepted`] (budget frees
    /// when other sessions release buffers: scope exits, finishes, aborts).
    ///
    /// A session that already holds buffers is always admitted: processing
    /// its input is what completes and releases those buffers, so gating it
    /// would trade memory pressure for livelock. The aggregate can still
    /// never exceed the budget — a charge the pool cannot grant fails the
    /// run with [`flux_engine::EngineError::BudgetDenied`].
    pub fn feed_outcome(&mut self, chunk: &[u8]) -> Result<FeedOutcome, FluxError> {
        self.inner.feed_outcome(chunk)
    }

    /// Re-check the admission gate after [`FeedOutcome::Backpressure`]:
    /// [`FeedOutcome::Accepted`] means feeds will be admitted again (the
    /// refused chunk was never absorbed — re-feed it). Cheap to call
    /// speculatively: one atomic read.
    pub fn resume(&mut self) -> Result<FeedOutcome, FluxError> {
        self.inner.resume()
    }

    /// Did the last [`Session::feed_outcome`] refuse its chunk (and no
    /// [`Session::resume`] has succeeded since)?
    pub fn is_paused(&self) -> bool {
        self.inner.is_paused()
    }

    /// Signal end of input and complete the run.
    ///
    /// On failure the sink is dropped with the session; use
    /// [`finish_parts`](Session::finish_parts) to recover it (partial
    /// streamed output, an open connection) alongside the error.
    pub fn finish(self) -> Result<Finished<S>, FluxError> {
        let (res, sink) = self.finish_parts();
        let stats = res?;
        Ok(Finished { stats, sink: sink.expect("sink present when the run succeeded") })
    }

    /// Signal end of input, complete the run, and return the outcome
    /// together with the sink — which is handed back on success *and* on
    /// failure. A failed run is abandoned, not finished: the recovered sink
    /// holds exactly what a one-shot run wrote before the same failure.
    ///
    /// Finishing ignores the admission gate: the remaining input drains to
    /// completion here, with the budget still strictly enforced — a charge
    /// the shared pool genuinely cannot grant fails the run with
    /// [`flux_engine::EngineError::BudgetDenied`].
    pub fn finish_parts(self) -> (Result<RunStats, FluxError>, Option<S>) {
        self.inner.finish_parts().pop().expect("a session has exactly one subscriber")
    }

    /// Serialize the complete resumable state of this session into a
    /// versioned `flux-state` envelope: the incremental reader's unconsumed
    /// window and open-element stack, the pump's scope stack, captures,
    /// observers and statistics, and the outstanding budget charges. The
    /// bytes restore via
    /// [`PreparedQuery::restore_session`](crate::PreparedQuery::restore_session)
    /// — in this process, in another process, or on another machine — and
    /// the resumed run's output and stats are byte-identical to never having
    /// snapshotted (`tests/snapshot_equivalence.rs` asserts this at every
    /// chunk boundary).
    ///
    /// Sessions are quiescent between `feed` calls, which is the only time a
    /// caller can invoke this, so the engine-level quiescence refusals are
    /// unreachable from safe use; a session that has already failed refuses
    /// (restoring a poisoned run is never meaningful).
    pub fn snapshot(&self) -> Result<Vec<u8>, FluxError> {
        self.inner.snapshot()
    }

    /// Rebuild a session from [`Session::snapshot`] bytes. The plan must
    /// fingerprint-match the one the snapshot was taken from; see
    /// [`SharedSession::restore`] for the budget re-grant.
    pub(crate) fn restore(
        plan: Arc<FanoutPlan>,
        sink: S,
        budget: Option<Arc<dyn BudgetHook>>,
        snapshot: &[u8],
        pre_granted: bool,
    ) -> Result<Session<S>, FluxError> {
        SharedSession::restore(plan, vec![Some(sink)], budget, snapshot, pre_granted, true)
            .map(|inner| Session { inner })
    }

    /// Bytes this session currently holds: runtime buffers and captures
    /// (the quantity bounded by
    /// [`EngineBuilder::max_buffer_bytes`](crate::EngineBuilder::max_buffer_bytes))
    /// plus the unparsed tail of the fed input.
    pub fn buffered_bytes(&self) -> usize {
        self.inner.buffered_bytes()
    }

    /// Has this session failed on earlier input? (The cause is reported by
    /// [`Session::finish_parts`].)
    pub fn is_aborted(&self) -> bool {
        self.inner.is_aborted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use flux_xml::StringSink;

    const DTD: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
    const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
        <result> {$b/title} {$b/author} </result> }</results>";
    const DOC: &str = "<bib><book><title>T</title><author>A</author>\
        <publisher>P</publisher><price>1</price></book></bib>";

    #[test]
    fn chunked_session_matches_one_shot() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();

        let mut s = q.session(StringSink::new());
        let (a, b) = DOC.as_bytes().split_at(17);
        s.feed(a).unwrap();
        s.feed(b).unwrap();
        let fin = s.finish().unwrap();
        assert_eq!(fin.sink.as_str(), reference.output);
        assert_eq!(fin.stats, reference.stats);
    }

    #[test]
    fn byte_at_a_time_feed() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();
        let mut s = q.session_string();
        for b in DOC.as_bytes() {
            s.feed(std::slice::from_ref(b)).unwrap();
        }
        let fin = s.finish().unwrap();
        assert_eq!(fin.sink.into_string(), reference.output);
        assert_eq!(fin.stats, reference.stats);
    }

    #[test]
    fn unbudgeted_feed_outcome_is_always_accepted() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        for chunk in DOC.as_bytes().chunks(7) {
            assert_eq!(s.feed_outcome(chunk).unwrap(), FeedOutcome::Accepted);
            assert!(!s.is_paused());
        }
        assert_eq!(s.resume().unwrap(), FeedOutcome::Accepted);
        s.finish().unwrap();
    }

    #[test]
    fn truncated_input_reports_xml_error() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        s.feed(b"<bib><book><title>T</title>").unwrap();
        let err = s.finish().unwrap_err();
        assert!(matches!(err, crate::FluxError::Engine(_)), "{err}");
    }

    #[test]
    fn finish_parts_recovers_the_sink_on_failure() {
        // Partial streamed output must survive a failed run.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session(StringSink::new());
        // One complete book streams through before the input breaks off.
        s.feed(
            b"<bib><book><title>T</title><author>A</author>\
              <publisher>P</publisher><price>1</price></book><book>",
        )
        .unwrap();
        let (res, sink) = s.finish_parts();
        assert!(res.is_err());
        let partial = sink.expect("sink recovered on failure").into_string();
        assert!(partial.contains("<title>T</title>"), "partial output kept: {partial}");
    }

    #[test]
    fn dropped_session_is_clean() {
        // No worker, no pipe: dropping mid-stream releases everything.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        s.feed(b"<bib><book><title>T").unwrap();
        drop(s);
    }

    #[test]
    fn feed_after_error_reports_aborted_and_finish_reports_the_cause() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        // An element the schema forbids at this position: the run fails
        // inline, during this very feed.
        s.feed(b"<bib><zzz>").unwrap();
        assert!(s.is_aborted());
        let err = s.feed(b"<book>").unwrap_err();
        assert!(matches!(err, FluxError::SessionAborted), "{err}");
        let (res, sink) = s.finish_parts();
        let cause = res.unwrap_err();
        assert!(cause.to_string().contains("zzz"), "{cause}");
        assert!(sink.is_some(), "sink recovered after feed-after-error");
    }

    #[test]
    fn failed_session_sink_matches_the_one_shot_partial() {
        // A failed run must not append the end-of-input epilogue (post
        // strings, end-deferred on-first output): the recovered sink has to
        // be byte-identical to the one-shot run's partial sink.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let doc = b"<bib><book><title>T</title><author>A</author>\
                    <publisher>P</publisher><price>1</price></book></bib>junk";
        let (one_shot_res, one_shot_sink) = q.compiled().run_sink(&doc[..], StringSink::new());
        assert!(one_shot_res.is_err());
        let mut s = q.session(StringSink::new());
        s.feed(doc).unwrap();
        let (res, sink) = s.finish_parts();
        assert!(res.is_err());
        assert_eq!(sink.unwrap().as_str(), one_shot_sink.as_str());
    }

    #[test]
    fn large_document_streams_in_constant_memory() {
        // A multi-megabyte document must flow through without the session
        // retaining it: the streaming plan buffers nothing, and the reader
        // keeps only the unparsed tail of the current construct.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let book = "<book><title>T</title><author>A</author>\
                    <publisher>P</publisher><price>1</price></book>";
        let books = (3 << 20) / book.len() + 1;
        let mut s = q.session_string();
        s.feed(b"<bib>").unwrap();
        for _ in 0..books {
            s.feed(book.as_bytes()).unwrap();
            assert!(s.buffered_bytes() < 128, "retained {}", s.buffered_bytes());
        }
        s.feed(b"</bib>").unwrap();
        let fin = s.finish().unwrap();
        assert_eq!(fin.stats.peak_buffer_bytes, 0);
        assert_eq!(fin.sink.as_str().matches("<result>").count(), books);
    }

    #[test]
    fn many_sessions_from_one_preparation() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();
        let sessions: Vec<_> = (0..8).map(|_| q.session_string()).collect();
        let mut outs = Vec::new();
        for mut s in sessions {
            s.feed(DOC.as_bytes()).unwrap();
            outs.push(s.finish().unwrap());
        }
        for fin in outs {
            assert_eq!(fin.sink.as_str(), reference.output);
            assert_eq!(fin.stats.peak_buffer_bytes, 0);
        }
    }
}
