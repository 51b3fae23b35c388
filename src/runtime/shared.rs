//! The one session implementation: one incremental parse driving 1..M
//! subscriptions.
//!
//! [`SharedSession`] is a plain resumable value — one incremental reader
//! plus an engine-level [`FanoutDriver`](flux_engine::FanoutDriver) — fed
//! chunk by chunk on the caller's thread. The document is tokenized
//! **once**; every event fans out to the subscriptions still interested
//! in the current subtree (the rest are parked, see `flux_engine::fanout`),
//! and each subscriber keeps its own sink, statistics and budget charges.
//! A [`SubscriptionSet`](crate::SubscriptionSet) opens one with M
//! subscribers; a [`Session`](crate::Session) is the same value with
//! exactly one.
//!
//! One drain loop serves every shape: fill the event tape, dispatch it,
//! repeat. While no subscriber is active — every live one parked inside a
//! subtree the schedule proved it does not need, or in the rest of a scope
//! the DTD proved dead — the loop does not even record events: it asks the
//! reader to skip structurally ([`Reader::skip_events`]) up to the end tag
//! that brings the stream back to the deepest parked subscriber's wake
//! depth or rest-group level. For one subscriber that is exactly the
//! paper's skip of an unhandled subtree, at the tokenizer.
//!
//! The per-subscriber semantics are deliberate and pinned by tests:
//!
//! * **A subscriber's failure detaches the subscriber, never the stream.**
//!   A validation error only one query cares about stops that query; the
//!   other M−1 keep streaming, and the error surfaces in that subscriber's
//!   entry of [`SharedSession::finish_parts`]. (A *parse* error is a
//!   property of the shared input itself, so it fails every subscriber —
//!   exactly as it would fail each independent run.)
//! * **Aborting a subscriber detaches it immediately**
//!   ([`SharedSession::abort_sub`]): its sink comes back with the output
//!   streamed so far, its buffers and shared-budget charges are released,
//!   and the parse continues for the rest.
//! * **Budget stalls are stream-level.** The admission gate
//!   ([`SharedSession::feed_outcome`]) pauses the *whole* shared parse
//!   while the pool is tight and no subscriber holds charges — a single
//!   parse cannot advance subscribers selectively, and a stalled
//!   subscriber that held the only charges would starve the rest anyway.
//!   This is the stall-the-stream choice; detaching slow subscribers to a
//!   catch-up replay is a policy the caller can build with
//!   [`SharedSession::abort_sub`].

use std::sync::Arc;

use flux_engine::{BudgetHook, EngineError, FanoutDriver, FanoutPlan, Pump, RunStats, SubTeardown};
use flux_state::{StateError, KIND_SESSION, KIND_SHARED};
use flux_xml::{EventTape, FeedSource, Reader, Sink, SkipPoll, TapeFill, TapeTelemetry, XmlError};

use crate::error::FluxError;
use crate::runtime::FeedOutcome;

/// One incremental execution over 1..M subscriptions. See the
/// [runtime docs](crate::runtime).
pub struct SharedSession<S: Sink> {
    reader: Reader<FeedSource>,
    driver: FanoutDriver<S>,
    /// A stream-level failure (XML parse error) — fatal for every
    /// subscriber, fanned out at finish. Per-subscriber engine errors
    /// never land here; they detach their subscriber inside the driver.
    error: Option<XmlError>,
    budget: Option<Arc<dyn BudgetHook>>,
    paused: bool,
    /// The compiled fan-out plan, kept so a snapshot can stamp the plan
    /// identity it must restore against and so runtime layers can
    /// re-associate spilled/migrated state with its plan.
    plan: Arc<FanoutPlan>,
    /// Opened for one prepared query ([`Session`](crate::Session)): it
    /// snapshots as a single-query envelope, not a fan-out one.
    single: bool,
    /// Reusable batch buffer; always drained (and cleared) before the
    /// next feed, never serialized.
    tape: EventTape,
    /// Stream-level tape telemetry, fanned out to every subscriber's
    /// [`RunStats`] at finish — one shared parse, one tape.
    tape_stats: TapeTelemetry,
}

impl<S: Sink> SharedSession<S> {
    pub(crate) fn new(
        plan: Arc<FanoutPlan>,
        sinks: Vec<S>,
        budget: Option<Arc<dyn BudgetHook>>,
        single: bool,
    ) -> SharedSession<S> {
        let driver = FanoutDriver::new(&plan, sinks, budget.clone());
        let reader =
            Reader::incremental_with_symbols(plan.options().reader, Arc::clone(plan.symbols()));
        SharedSession::assemble(reader, driver, budget, false, plan, single)
    }

    fn assemble(
        reader: Reader<FeedSource>,
        driver: FanoutDriver<S>,
        budget: Option<Arc<dyn BudgetHook>>,
        paused: bool,
        plan: Arc<FanoutPlan>,
        single: bool,
    ) -> SharedSession<S> {
        SharedSession {
            reader,
            driver,
            error: None,
            budget,
            paused,
            plan,
            single,
            tape: EventTape::new(),
            tape_stats: TapeTelemetry::default(),
        }
    }

    /// Push the next chunk of the shared document; every event it
    /// completes is dispatched to all interested subscribers before the
    /// call returns. Chunks may split the XML at any byte boundary.
    ///
    /// Returns [`FluxError::SessionAborted`] once the session has stopped
    /// ([`SharedSession::is_aborted`]): one subscriber's failure does
    /// *not* stop the others.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), FluxError> {
        if self.is_aborted() {
            return Err(FluxError::SessionAborted);
        }
        self.paused = false;
        self.reader.feed(chunk);
        self.drain();
        Ok(())
    }

    /// [`SharedSession::feed`] behind the admission gate: while the
    /// shared budget is tight and no subscriber holds charges, the chunk
    /// is refused ([`FeedOutcome::Backpressure`]) and nothing is absorbed
    /// — re-feed the same bytes once [`SharedSession::resume`] reports
    /// [`FeedOutcome::Accepted`]. A session whose subscribers hold charges
    /// is always admitted: its progress is what releases them. One
    /// stalled *stream* parks all its subscribers.
    pub fn feed_outcome(&mut self, chunk: &[u8]) -> Result<FeedOutcome, FluxError> {
        if self.is_aborted() {
            return Err(FluxError::SessionAborted);
        }
        if self.gated() {
            self.paused = true;
            return Ok(FeedOutcome::Backpressure);
        }
        self.feed(chunk)?;
        Ok(FeedOutcome::Accepted)
    }

    /// Re-check the admission gate after [`FeedOutcome::Backpressure`];
    /// [`FeedOutcome::Accepted`] means feeds are admitted again (the
    /// refused chunk was never absorbed — re-feed it). Cheap to call
    /// speculatively: one atomic read.
    pub fn resume(&mut self) -> Result<FeedOutcome, FluxError> {
        if self.is_aborted() {
            return Err(FluxError::SessionAborted);
        }
        if self.gated() {
            return Ok(FeedOutcome::Backpressure);
        }
        self.paused = false;
        Ok(FeedOutcome::Accepted)
    }

    /// Did the last [`SharedSession::feed_outcome`] refuse its chunk (and
    /// no [`SharedSession::resume`] has succeeded since)?
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Is the admission gate closed right now? Keyed on the outstanding
    /// shared-budget charges (not the local buffer count, which
    /// `Top::Simple` plans never touch): a session with charges must keep
    /// draining, because its progress is what releases them to the pool.
    fn gated(&self) -> bool {
        match &self.budget {
            Some(b) => b.should_pause() && self.driver.budget_charged() == 0,
            None => false,
        }
    }

    /// Run every subscriber over the fed bytes; a parse error is stored
    /// for [`SharedSession::finish_parts`], like a one-shot run would
    /// surface it.
    fn drain(&mut self) {
        if let Err(e) = self.drain_tape() {
            self.error = Some(e);
        }
        if self.single {
            // A single-query snapshot records a pump fed every event.
            self.driver.settle();
        } else {
            // A set saves rest-parked subscribers as the active ones they
            // are equivalent to.
            self.driver.settle_rested();
        }
    }

    /// The drain loop: while every subscriber is parked the reader skips
    /// structurally; otherwise it fills a tape batch that the driver
    /// dispatches. Events taped before a parse error are dispatched
    /// first, so subscribers see exactly the prefix a per-event pull
    /// would have delivered before the failure.
    fn drain_tape(&mut self) -> Result<(), XmlError> {
        loop {
            match self.driver.skip_parked(&mut self.reader, &mut self.tape)? {
                Some(SkipPoll::More { events, .. }) => {
                    self.tape_stats.events += events;
                    self.tape_stats.fast_forwarded += events;
                    return Ok(());
                }
                Some(SkipPoll::Closed { events }) => {
                    self.tape_stats.events += events;
                    self.tape_stats.fast_forwarded += events;
                    // The closing tag, when the reader already committed it.
                    self.dispatch();
                }
                None => {}
            }
            let fill = self.reader.fill_tape(&mut self.tape);
            self.dispatch();
            match fill? {
                TapeFill::Full => {}
                TapeFill::NeedMoreData | TapeFill::End => return Ok(()),
            }
        }
    }

    /// Hand the filled tape (if any) to the driver and clear it.
    fn dispatch(&mut self) {
        if self.tape.is_empty() {
            return;
        }
        self.tape_stats.batches += 1;
        self.tape_stats.events += self.tape.len() as u64;
        self.tape_stats.fast_forwarded += self.driver.feed_tape(&self.reader, &self.tape);
        self.tape.clear();
    }

    /// Number of subscriptions (in any state).
    pub fn len(&self) -> usize {
        self.driver.len()
    }

    /// Is the session empty? (Never true: sets are non-empty.)
    pub fn is_empty(&self) -> bool {
        self.driver.is_empty()
    }

    /// Subscribers still live: not failed, not aborted.
    pub fn live_subscribers(&self) -> usize {
        self.driver.live_subscribers()
    }

    /// Has the session stopped — the shared input failed to parse (fatal
    /// for all subscribers), or no subscriber is left live? The causes are
    /// reported by [`SharedSession::finish_parts`].
    pub fn is_aborted(&self) -> bool {
        self.error.is_some() || self.driver.live_subscribers() == 0
    }

    /// Has subscriber `i` failed on its own engine error?
    pub fn sub_failed(&self, i: usize) -> bool {
        self.driver.is_failed(i)
    }

    /// Abort one subscriber mid-stream: its sink comes back with the
    /// output streamed so far (no end-of-input epilogue), its buffers and
    /// budget charges are released, and the shared parse continues for
    /// everyone else. `None` if `i` was already aborted or is out of
    /// range.
    pub fn abort_sub(&mut self, i: usize) -> Option<S> {
        self.driver.abort_sub(i)
    }

    /// Bytes this session currently holds: every live subscriber's
    /// buffers and captures plus the unparsed tail of the fed input.
    pub fn buffered_bytes(&self) -> usize {
        self.driver.buffered_bytes() + self.reader.unconsumed_bytes()
    }

    /// Aggregate bytes currently charged to the shared budget hook.
    pub fn budget_charged(&self) -> usize {
        self.driver.budget_charged()
    }

    /// Serialize the complete resumable state — reader window plus **all
    /// M subscriber pumps** (active, parked, failed and detached alike;
    /// one parked in a scope's dead rest is saved as the active subscriber
    /// it is equivalent to) and the wake schedule — into a `flux-state`
    /// envelope. Restores via
    /// [`SubscriptionSet::restore_session`](crate::SubscriptionSet::restore_session)
    /// against a set with the same queries in the same order; resumed
    /// subscribers produce byte-identical output to never having
    /// snapshotted. A session opened for one prepared query writes the
    /// single-query envelope instead (see
    /// [`Session::snapshot`](crate::Session::snapshot)). Refuses once the
    /// shared input has failed to parse.
    pub fn snapshot(&self) -> Result<Vec<u8>, FluxError> {
        let pump = if self.single { self.driver.live_pump(0) } else { None };
        if self.error.is_some() || (self.single && pump.is_none()) {
            return Err(FluxError::Snapshot(StateError::NotQuiescent(if self.single {
                "session has failed; finish_parts() reports the cause"
            } else {
                "shared session has failed; finish_parts() reports the cause"
            })));
        }
        // Snapshots happen between feeds, and every feed drains its tape
        // batches to quiescence — the tape is transient and never
        // serialized, so its bytes must not (and cannot) reach the
        // envelope.
        debug_assert!(self.tape.is_empty(), "snapshot between feeds implies a drained tape");
        let mut state = flux_state::Enc::new();
        let (kind, fingerprint, section) = match pump {
            Some(pump) => {
                pump.state_save(&mut state).map_err(FluxError::Snapshot)?;
                (KIND_SESSION, pump.plan().state_fingerprint(), flux_state::section::PUMP)
            }
            None => {
                self.driver.state_save(&mut state).map_err(FluxError::Snapshot)?;
                (KIND_SHARED, self.plan.state_fingerprint(), flux_state::section::FANOUT)
            }
        };
        let mut env = flux_state::Envelope::new();

        let mut meta = flux_state::Enc::new();
        meta.put_u8(kind);
        meta.put_uint(fingerprint);
        meta.put_bool(self.paused);
        env.add(flux_state::section::META, meta);

        let mut reader = flux_state::Enc::new();
        self.reader.state_save(&mut reader).map_err(FluxError::Snapshot)?;
        env.add(flux_state::section::READER, reader);
        env.add(section, state);

        let mut budget = flux_state::Enc::new();
        budget.put_usize(self.driver.budget_charged());
        env.add(flux_state::section::BUDGET, budget);

        Ok(env.into_bytes())
    }

    /// Rebuild a session from [`SharedSession::snapshot`] bytes of the
    /// expected shape (`single`: a one-query envelope). `sinks` holds one
    /// fresh sink per subscription in set order; `None` is allowed exactly
    /// for subscribers the snapshot records as detached (their sinks were
    /// handed back before the snapshot). Recorded budget charges are
    /// re-granted through `budget` (refusal fails the restore with
    /// [`StateError::BudgetDenied`], charging nothing); with `pre_granted`
    /// the caller already reserved them (see
    /// [`flux_state::snapshot_charges`]) and the restore adopts the
    /// reservation instead of growing again.
    pub(crate) fn restore(
        plan: Arc<FanoutPlan>,
        mut sinks: Vec<Option<S>>,
        budget: Option<Arc<dyn BudgetHook>>,
        snapshot: &[u8],
        pre_granted: bool,
        single: bool,
    ) -> Result<SharedSession<S>, FluxError> {
        let sections = flux_state::Sections::parse(snapshot).map_err(FluxError::Snapshot)?;
        let mut meta = sections.require(flux_state::section::META).map_err(FluxError::Snapshot)?;
        let kind = meta.get_u8().map_err(FluxError::Snapshot)?;
        if kind != if single { KIND_SESSION } else { KIND_SHARED } {
            return Err(FluxError::Snapshot(StateError::Corrupt(if single {
                "snapshot holds a shared fan-out session, not a single-query one"
            } else {
                "snapshot holds a single-query session, not a shared fan-out one"
            })));
        }
        let found = meta.get_uint().map_err(FluxError::Snapshot)?;
        let expected =
            if single { plan.queries()[0].state_fingerprint() } else { plan.state_fingerprint() };
        if found != expected {
            return Err(FluxError::Snapshot(StateError::PlanMismatch { expected, found }));
        }
        let paused = meta.get_bool().map_err(FluxError::Snapshot)?;

        let mut rdec =
            sections.require(flux_state::section::READER).map_err(FluxError::Snapshot)?;
        let reader =
            Reader::state_restore(plan.options().reader, Arc::clone(plan.symbols()), &mut rdec)
                .map_err(FluxError::Snapshot)?;

        let driver = if single {
            let mut dec =
                sections.require(flux_state::section::PUMP).map_err(FluxError::Snapshot)?;
            let query = Arc::clone(&plan.queries()[0]);
            let sink = sinks.pop().flatten().expect("a single-query session has its sink");
            let pump = Pump::state_load(query, sink, budget.clone(), &mut dec, pre_granted)
                .map_err(FluxError::Snapshot)?;
            let depth = u32::try_from(reader.depth()).map_err(|_| {
                FluxError::Snapshot(StateError::Corrupt("element depth exceeds u32"))
            })?;
            FanoutDriver::resume_one(pump, depth).map_err(FluxError::Snapshot)?
        } else {
            let mut dec =
                sections.require(flux_state::section::FANOUT).map_err(FluxError::Snapshot)?;
            FanoutDriver::state_load(&plan, sinks, budget.clone(), &mut dec, pre_granted)
                .map_err(FluxError::Snapshot)?
        };
        Ok(SharedSession::assemble(reader, driver, budget, paused, plan, single))
    }

    /// The compiled fan-out plan this session executes.
    pub(crate) fn plan_arc(&self) -> Arc<FanoutPlan> {
        Arc::clone(&self.plan)
    }

    /// Was this session opened for one prepared query (a
    /// [`Session`](crate::Session))?
    pub(crate) fn is_single(&self) -> bool {
        self.single
    }

    /// Tear the session down and hand every subscriber's sink back without
    /// finishing: `None` for slots already detached via
    /// [`SharedSession::abort_sub`] (matching what
    /// [`SharedSession::restore`] expects), `Some` for the rest — failed
    /// subscribers included. Outstanding budget charges are released.
    pub(crate) fn into_sinks(self) -> Vec<Option<S>> {
        self.driver
            .abort_all()
            .into_iter()
            .map(|t| match t {
                SubTeardown::Detached => None,
                SubTeardown::Failed(_, sink) | SubTeardown::Aborted(sink) => Some(sink),
            })
            .collect()
    }

    /// Signal end of input and complete every subscription.
    ///
    /// One entry per subscriber, in subscription order: the outcome plus
    /// the sink (returned on success *and* on failure; `None` only for
    /// subscribers aborted earlier via [`SharedSession::abort_sub`], whose
    /// sinks were already handed back — their outcome reads
    /// [`FluxError::SessionAborted`]). A failed subscriber's sink holds
    /// exactly what a one-shot run wrote before the same failure — no
    /// end-of-input epilogue. Every completed subscriber's output and
    /// statistics are identical to an independent one-shot run over the
    /// same bytes.
    ///
    /// Finishing ignores the admission gate: the remaining input drains to
    /// completion here, with the budget still strictly enforced — a charge
    /// the shared pool genuinely cannot grant fails that subscriber with
    /// [`EngineError::BudgetDenied`].
    #[allow(clippy::type_complexity)]
    pub fn finish_parts(mut self) -> Vec<(Result<RunStats, FluxError>, Option<S>)> {
        if self.error.is_none() {
            self.reader.close();
            self.drain();
        }
        match self.error {
            // The shared input itself is broken: every subscriber fails
            // with the same cause, holding the output an independent run
            // would have streamed before the same failure.
            Some(xml) => self
                .driver
                .abort_all()
                .into_iter()
                .map(|t| match t {
                    SubTeardown::Detached => (Err(FluxError::SessionAborted), None),
                    SubTeardown::Failed(e, sink) => (Err(FluxError::Engine(e)), Some(sink)),
                    SubTeardown::Aborted(sink) => {
                        (Err(FluxError::Engine(EngineError::Xml(xml.clone()))), Some(sink))
                    }
                })
                .collect(),
            None => {
                // One shared parse serves every subscriber: the scanner
                // and tape telemetry of the single reader is the telemetry
                // of each subscription. Skip-pre-screen counters stay
                // per-subscriber — each pump screened its own subtrees.
                let scan = self.reader.scan_telemetry();
                let tape = self.tape_stats;
                let (quick_hits, quick_misses) = self.reader.quick_counters();
                self.driver
                    .finish()
                    .into_iter()
                    .map(|entry| match entry {
                        None => (Err(FluxError::SessionAborted), None),
                        Some((res, sink)) => (
                            res.map(|mut stats| {
                                stats.scan = scan;
                                stats.tape.batches = tape.batches;
                                stats.tape.events = tape.events;
                                stats.tape.fast_forwarded = tape.fast_forwarded;
                                stats.tape.quick_hits = quick_hits;
                                stats.tape.quick_misses = quick_misses;
                                stats
                            })
                            .map_err(Into::into),
                            Some(sink),
                        ),
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, QueryRegistry, SubscriptionSet};
    use flux_xml::StringSink;

    const DTD: &str = "<!ELEMENT bib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const Q_BOOKS: &str = "<books>{ for $b in $ROOT/bib/book return \
        <hit> {$b/title} </hit> }</books>";
    const Q_ARTICLES: &str = "<articles>{ for $a in $ROOT/bib/article return \
        <hit> {$a/headline} </hit> }</articles>";
    const DOC: &str = "<bib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        </bib>";

    fn set() -> SubscriptionSet {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        reg.register("articles", engine.prepare(Q_ARTICLES).unwrap());
        reg.register("books", engine.prepare(Q_BOOKS).unwrap());
        SubscriptionSet::compile(&reg).unwrap()
    }

    #[test]
    fn chunked_shared_run_matches_independent_sessions() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let set = set();
        for chunk in [1usize, 7, 64] {
            let mut s = set.session_strings();
            for c in DOC.as_bytes().chunks(chunk) {
                s.feed(c).unwrap();
            }
            let outs = s.finish_parts();
            for (id, (res, sink)) in set.ids().iter().zip(outs) {
                let q = match id.as_str() {
                    "articles" => Q_ARTICLES,
                    _ => Q_BOOKS,
                };
                let reference = engine.prepare(q).unwrap().run_str(DOC).unwrap();
                assert_eq!(sink.unwrap().as_str(), reference.output);
                assert_eq!(res.unwrap(), reference.stats);
            }
        }
    }

    #[test]
    fn parse_error_fans_out_to_every_subscriber() {
        let set = set();
        let mut s = set.session_strings();
        // A mismatched end tag is a well-formedness error of the shared
        // input itself.
        s.feed(b"<bib><book><title>T</zzz>").unwrap();
        assert!(s.is_aborted());
        assert!(matches!(s.feed(b"x"), Err(FluxError::SessionAborted)));
        let outs = s.finish_parts();
        assert_eq!(outs.len(), 2);
        for (res, sink) in outs {
            assert!(matches!(res, Err(FluxError::Engine(EngineError::Xml(_)))));
            assert!(sink.is_some(), "partial output recovered");
        }
    }

    #[test]
    fn abort_sub_detaches_one_and_finishes_the_rest() {
        let set = set();
        let mut s = set.session_strings();
        let (head, tail) = DOC.as_bytes().split_at(40);
        s.feed(head).unwrap();
        let sink = s.abort_sub(0).expect("first abort yields the sink");
        let _ = sink.into_string();
        assert_eq!(s.live_subscribers(), 1);
        s.feed(tail).unwrap();
        let outs = s.finish_parts();
        assert!(matches!(outs[0], (Err(FluxError::SessionAborted), None)));
        let (res, sink) = &outs[1];
        assert!(res.is_ok());
        assert!(sink.as_ref().unwrap().as_str().contains("<title>T1</title>"));
    }

    #[test]
    fn one_failing_subscriber_leaves_the_stream_running() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let set = set();
        let mut s = set.session_strings();
        // zzz violates article's content model: the articles subscription
        // fails; books never looks inside articles and streams on.
        let doc = "<bib>\
            <article><zzz/><headline>H</headline><author>B</author></article>\
            <book><title>T</title><author>A</author></book>\
            </bib>";
        for c in doc.as_bytes().chunks(9) {
            s.feed(c).unwrap();
        }
        assert!(!s.is_aborted(), "per-subscriber failure is not a stream failure");
        assert!(s.sub_failed(0));
        assert_eq!(s.live_subscribers(), 1);
        let outs = s.finish_parts();
        let (articles_res, articles_sink) = &outs[0];
        assert!(articles_res.is_err());
        assert!(articles_sink.is_some());
        let (books_res, books_sink) = &outs[1];
        let reference = engine.prepare(Q_BOOKS).unwrap().run_str(doc).unwrap();
        assert_eq!(books_sink.as_ref().unwrap().as_str(), reference.output);
        assert_eq!(*books_res.as_ref().unwrap(), reference.stats);
    }

    #[test]
    fn unbudgeted_gate_always_admits() {
        let set = set();
        let mut s = set.session_strings();
        for c in DOC.as_bytes().chunks(11) {
            assert_eq!(s.feed_outcome(c).unwrap(), FeedOutcome::Accepted);
            assert!(!s.is_paused());
        }
        assert_eq!(s.resume().unwrap(), FeedOutcome::Accepted);
        for (res, _) in s.finish_parts() {
            res.unwrap();
        }
    }

    #[test]
    fn dropped_shared_session_is_clean() {
        let set = set();
        let mut s = set.session_strings();
        s.feed(b"<bib><book><title>T").unwrap();
        drop(s);
    }

    #[test]
    fn truncated_input_fails_every_subscriber_like_independent_runs() {
        let set = set();
        let mut s = set.session(vec![StringSink::new(), StringSink::new()]);
        s.feed(b"<bib><book><title>T</title>").unwrap();
        let outs = s.finish_parts();
        for (res, sink) in outs {
            assert!(res.is_err());
            assert!(sink.is_some());
        }
    }
}
