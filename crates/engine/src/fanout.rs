//! Shared single-pass multi-query fan-out: one event stream drives M
//! subscriptions.
//!
//! Today N prepared queries over one document cost N full runs — N
//! tokenizations of the same bytes and N walks of the same event stream.
//! The production shape of a subscription service is the opposite: *one*
//! parse fans out to every registered query. This module is that engine
//! seam:
//!
//! * [`FanoutPlan`] — the compile-time artifact. It unifies the
//!   subscriptions' symbol tables into one *union* vocabulary over the
//!   shared DTD (ids the DTD assigned are preserved, so every dense
//!   Glushkov transition table stays valid), recompiles any plan whose
//!   table disagrees ([`CompiledQuery::compile_with_symbols`]). Each
//!   subscription keeps its own compiled schedule; what the subscriptions
//!   share is the one tokenization and the one event stream.
//! * [`FanoutDriver`] — the run-time fan-out. M resumable [`Pump`]s advance
//!   in lockstep over a single resolved-event stream; each keeps its own
//!   sink, its own validation state, its own buffers and its own
//!   [`BudgetHook`] charges. The driver withholds from each pump every
//!   event its compiled schedule provably cannot use
//!   ([`Pump::stream_interest`]), in two ways:
//!   - *Parked in a skipped subtree* ([`StreamInterest::SkipSubtree`]): a
//!     pump skipping an unhandled child whose observers are inert there —
//!     none at all, or condition flags that cannot match or collect below
//!     the child and recorders that skip it — is removed from the hot feed
//!     list and woken (its counters and inert observers reconciled via
//!     [`Pump::fast_forward_skip`]) exactly at the end tag that closes the
//!     skipped subtree.
//!   - *Parked in a dead scope rest* ([`StreamInterest::SkipRest`]): between
//!     two children of a scope whose compiled `rest_dead` table (from the
//!     DTD's `past` relation, the relation behind Appendix B's
//!     `PastTable`) shows that no handler, flag or buffer path can react to
//!     any child still allowed, a pump joins the *rest group* of that scope
//!     depth, production and DFA state. The driver validates the remaining
//!     children once for the whole group on the shared Glushkov automaton
//!     and wakes the group, reconciled via `Pump::fast_forward_rest`, at
//!     the scope's end tag — or right before a child or character data the
//!     content model rejects, or at end of input, so each pump reports its
//!     own validation error exactly as an independent run would.
//!
//!   While every subscriber is parked, the driver scans the tape for the
//!   wake depths and rest-group levels only, and the session layer skips
//!   at the reader below the deepest of them. On selective queries most
//!   subscribers are parked through most of the document, so the marginal
//!   cost of a subscription approaches an integer compare per *element
//!   close at its wake depth* (or per child at its rest-group level)
//!   instead of per event.
//!
//! Per-subscriber failure is isolated: a pump that errors is detached (its
//! error and sink are surfaced at [`FanoutDriver::finish`]) and every other
//! subscription streams on. A subscriber aborted mid-stream
//! ([`FanoutDriver::abort_sub`]) hands back its sink immediately and
//! releases everything it charged to the shared budget. The stream itself
//! is never blocked by one subscriber: stall semantics are a *stream-level*
//! decision made by the session layer above (see `SharedSession` in the
//! facade), pinned there by tests.
//!
//! Output equivalence is exact, not approximate: for every subscriber, the
//! bytes written to its sink and its final [`RunStats`] are identical to an
//! independent run of the same prepared query over the same document. The
//! facade's `tests/fanout_equivalence.rs` pins this for every paper-query
//! subset at several chunk sizes.

use std::sync::Arc;

use flux_core::FluxExpr;
use flux_dtd::Dtd;
use flux_xml::{
    EventTape, FeedSource, NameId, Reader, ResolvedEvent, Sink, SkipPoll, Symbols, TapeKind,
    XmlError,
};

use crate::budget::BudgetHook;
use crate::compile::{CompiledQuery, EngineError, EngineOptions};
use crate::exec::{is_whitespace_text, Pump, RestProgress, StreamInterest};
use crate::stats::RunStats;

/// One subscription handed to [`FanoutPlan::compile`]: the scheduled FluX
/// plan (needed in case the compiled form must be re-derived over the
/// union symbol table) plus its existing compilation.
#[derive(Clone)]
pub struct FanoutQuery {
    /// The scheduled FluX plan.
    pub plan: Arc<FluxExpr>,
    /// The plan compiled on its own (per-query) symbol table.
    pub compiled: Arc<CompiledQuery>,
}

/// The compiled fan-out artifact: M subscriptions over one union symbol
/// table. See the [module docs](self).
pub struct FanoutPlan {
    dtd: Arc<Dtd>,
    symbols: Arc<Symbols>,
    opts: EngineOptions,
    queries: Vec<Arc<CompiledQuery>>,
    reused: usize,
}

fn symbols_equal(a: &Symbols, b: &Symbols) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

impl FanoutPlan {
    /// Compile a set of subscriptions into one shared plan.
    ///
    /// All subscriptions must share one DTD (the same `Arc`, as queries
    /// prepared by one `Engine` do) and identical [`EngineOptions`] — the
    /// tokenization they will share is configured by those options. The
    /// set must be non-empty. Subscriptions whose symbol table already
    /// equals the union are reused as-is (the common case when every query
    /// mentions the same vocabulary); the rest are recompiled against the
    /// union, preserving every DTD-assigned id.
    pub fn compile(subs: &[FanoutQuery]) -> Result<FanoutPlan, EngineError> {
        let first = subs.first().ok_or_else(|| {
            EngineError::Unsupported("fan-out over an empty subscription set".into())
        })?;
        let dtd = first.compiled.dtd_arc();
        let opts = first.compiled.options();
        for s in subs {
            if !Arc::ptr_eq(&s.compiled.dtd_arc(), &dtd) {
                return Err(EngineError::Unsupported(
                    "fan-out subscriptions must share one DTD instance".into(),
                ));
            }
            if s.compiled.options() != opts {
                return Err(EngineError::Unsupported(
                    "fan-out subscriptions must share identical engine options".into(),
                ));
            }
        }
        // The union vocabulary: the DTD's table (ids preserved) extended
        // with every subscription's names, in subscription order — so the
        // result is deterministic for a given subscription sequence.
        let mut union = (**dtd.symbols()).clone();
        for s in subs {
            for (_, name) in s.compiled.symbols().iter() {
                union.intern(name);
            }
        }
        let union = Arc::new(union);
        let mut queries = Vec::with_capacity(subs.len());
        let mut reused = 0;
        for s in subs {
            if symbols_equal(s.compiled.symbols(), &union) {
                reused += 1;
                queries.push(Arc::clone(&s.compiled));
            } else {
                let c = CompiledQuery::compile_with_symbols(
                    &s.plan,
                    Arc::clone(&dtd),
                    opts,
                    (*union).clone(),
                )?;
                debug_assert!(
                    symbols_equal(c.symbols(), &union),
                    "recompilation over the union table introduces no new names"
                );
                queries.push(Arc::new(c));
            }
        }
        Ok(FanoutPlan { dtd, symbols: union, opts, queries, reused })
    }

    /// The one-subscription plan of a single compiled query: its own
    /// symbol table, nothing recompiled. This is what a single-query
    /// session runs — a fan-out of one.
    pub fn of_one(compiled: Arc<CompiledQuery>) -> FanoutPlan {
        FanoutPlan {
            dtd: compiled.dtd_arc(),
            symbols: Arc::clone(compiled.symbols()),
            opts: compiled.options(),
            queries: vec![compiled],
            reused: 1,
        }
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the set empty? (Never true for a compiled plan.)
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The shared DTD.
    pub fn dtd_arc(&self) -> Arc<Dtd> {
        Arc::clone(&self.dtd)
    }

    /// The union symbol table every subscription's ids agree with — hand
    /// this to the one reader that tokenizes the shared stream.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// The shared engine options.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// The per-subscription compiled plans (all over the union table).
    pub fn queries(&self) -> &[Arc<CompiledQuery>] {
        &self.queries
    }

    /// How many subscriptions were shared as-is (no recompilation).
    pub fn reused_plans(&self) -> usize {
        self.reused
    }

    /// Structural fingerprint of the whole fan-out plan, folding every
    /// subscription's [`CompiledQuery::state_fingerprint`] in order over the
    /// union symbol table. A snapshot taken from one plan only restores into
    /// a plan with the same fingerprint — same queries, same order, same
    /// vocabulary (scanner backend excluded, so snapshots migrate across
    /// hosts with different SIMD tiers).
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = flux_state::Fnv64::new();
        h.write_u64(self.symbols.fingerprint());
        h.write_u64(self.queries.len() as u64);
        for q in &self.queries {
            h.write_u64(q.state_fingerprint());
        }
        h.finish()
    }
}

/// Why a subscriber is not being fed right now.
enum SubState {
    /// In the hot feed list.
    Active,
    /// Provably indifferent to the current subtree
    /// ([`StreamInterest::SkipSubtree`]); woken at its recorded depth.
    Parked {
        /// The driver's event counter when parking began (the park event
        /// itself already counted by the pump).
        events_at_park: u64,
    },
    /// Between children of a scope whose rest is dead
    /// ([`StreamInterest::SkipRest`]): a member of a [`RestGroup`], woken
    /// at the scope's end tag or right before an event the scope's content
    /// model rejects.
    Rested {
        /// The driver's event counter when parking began or the pump was
        /// last settled.
        events_at_park: u64,
    },
    /// Failed on its own engine error; the poisoned pump is kept so
    /// [`FanoutDriver::finish`] can surface the error with the sink.
    Failed,
    /// Aborted via [`FanoutDriver::abort_sub`]; the sink is gone.
    Detached,
}

struct Sub<S: Sink> {
    pump: Option<Pump<S>>,
    state: SubState,
    error: Option<EngineError>,
}

/// Subscribers parked in the dead rest of one scope element, all in one
/// validating DFA state of one production: the driver validates each
/// remaining child once for the whole group, on the shared Glushkov
/// automaton, and remembers the last level events the members' current
/// event fields must reflect when they are reconciled.
struct RestGroup {
    /// The scope element is the `depth`-th open element; its children open
    /// at `depth + 1`.
    depth: u32,
    /// The scope element's production ([`Dtd::production_at`]).
    prod: usize,
    allows_text: bool,
    /// The validating DFA state after the children seen so far.
    state: u32,
    members: Vec<u32>,
    /// The last child tag at the group's level, `(id, is_end)`, and the
    /// driver's event counter when it passed (0: none yet).
    tag: (NameId, bool),
    tag_at: u64,
    /// The last character data at the group's level and the driver's event
    /// counter when it passed (0: none yet).
    text: String,
    text_at: u64,
}

impl RestGroup {
    /// What a member parked at `events_at_park` missed: `events` withheld
    /// events, ending `depth` levels inside the scope's current child.
    fn progress(&self, events_at_park: u64, events: u64, depth: u32) -> RestProgress<'_> {
        RestProgress {
            state: self.state,
            depth,
            events,
            tag: (self.tag_at > events_at_park).then_some(self.tag),
            text: (self.text_at > events_at_park).then_some(self.text.as_str()),
            text_last: self.text_at > self.tag_at,
        }
    }
}

/// Per-subscriber teardown of [`FanoutDriver::abort_all`].
pub enum SubTeardown<S> {
    /// Previously removed via [`FanoutDriver::abort_sub`]; nothing left.
    Detached,
    /// Failed mid-stream on its own engine error (before the teardown).
    Failed(EngineError, S),
    /// Healthy until the stream-level teardown; the sink holds exactly the
    /// output written so far, with no end-of-input epilogue.
    Aborted(S),
}

/// The run-time fan-out: M pumps over one resolved-event stream. See the
/// [module docs](self).
pub struct FanoutDriver<S: Sink> {
    subs: Vec<Sub<S>>,
    /// Indices of subs currently fed (order is irrelevant — pumps are
    /// independent).
    active: Vec<u32>,
    /// Parked subs by wake depth: `wake[d]` holds everyone to revive at the
    /// end tag that brings the open-element count back to `d`.
    wake: Vec<Vec<u32>>,
    /// Rest-parked subs, one group per (scope depth, production, DFA
    /// state).
    groups: Vec<RestGroup>,
    /// `levels[d]`: rest groups whose scope element is the `d`-th open
    /// element — the depths at which the driver must look at events while
    /// it withholds them.
    levels: Vec<u32>,
    /// Woken groups kept for reuse, so parking allocates nothing per scope
    /// instance.
    spare: Vec<RestGroup>,
    /// The shared DTD, whose productions validate the rest groups.
    dtd: Arc<Dtd>,
    /// Open elements in the shared stream.
    depth: u32,
    /// Events fed to the driver so far — equals every non-parked pump's
    /// event counter (parked pumps are reconciled on wake).
    events: u64,
}

impl<S: Sink> FanoutDriver<S> {
    /// A driver with one sink per subscription (same order as the plan).
    /// With a [`BudgetHook`] every subscriber charges it — each pump
    /// charges and releases independently, so an aborted or failed
    /// subscriber returns exactly its own bytes to the pool.
    pub fn new(
        plan: &FanoutPlan,
        sinks: Vec<S>,
        hook: Option<Arc<dyn BudgetHook>>,
    ) -> FanoutDriver<S> {
        assert_eq!(sinks.len(), plan.len(), "one sink per subscription");
        let subs: Vec<Sub<S>> = sinks
            .into_iter()
            .zip(&plan.queries)
            .map(|(sink, q)| {
                let pump = match &hook {
                    Some(h) => Pump::with_budget(Arc::clone(q), sink, Arc::clone(h)),
                    None => Pump::new(Arc::clone(q), sink),
                };
                Sub { pump: Some(pump), state: SubState::Active, error: None }
            })
            .collect();
        let active = (0..subs.len() as u32).collect();
        FanoutDriver::assemble(subs, active, Vec::new(), plan.dtd_arc(), 0, 0)
    }

    fn assemble(
        subs: Vec<Sub<S>>,
        active: Vec<u32>,
        wake: Vec<Vec<u32>>,
        dtd: Arc<Dtd>,
        depth: u32,
        events: u64,
    ) -> FanoutDriver<S> {
        FanoutDriver {
            subs,
            active,
            wake,
            groups: Vec::new(),
            levels: Vec::new(),
            spare: Vec::new(),
            dtd,
            depth,
            events,
        }
    }

    /// Advance every live subscription by one shared stream event.
    ///
    /// Infallible at the stream level: a subscriber whose pump errors is
    /// detached (error surfaced at [`FanoutDriver::finish`]) and the rest
    /// stream on.
    pub fn feed_event(&mut self, ev: ResolvedEvent<'_>) {
        self.events += 1;
        match ev {
            ResolvedEvent::End(id, _) => {
                // The element closing here sits at depth `new_depth + 1`;
                // everyone parked to wake at `new_depth` gets this tag.
                let new_depth = self.depth.saturating_sub(1);
                self.wake_at(new_depth);
                if !self.groups.is_empty() {
                    self.level_end(id, new_depth);
                }
                self.depth = new_depth;
                self.feed_active(ev);
                self.park_idle();
            }
            ResolvedEvent::Start(id, _) => {
                if !self.groups.is_empty() {
                    self.level_start(id);
                }
                self.feed_active(ev);
                self.depth += 1;
                self.park_idle();
            }
            ResolvedEvent::Text(t) => {
                if !self.groups.is_empty() {
                    self.level_text(t);
                }
                self.feed_active(ev);
            }
        }
    }

    /// Advance every live subscription by one drained tape batch (the
    /// batched sibling of [`FanoutDriver::feed_event`]; identical dispatch,
    /// identical counters). Returns the number of events the driver
    /// *scanned* instead of dispatching: while every subscriber is parked
    /// (or detached), only an end tag closing at a populated wake depth and
    /// the events at a rest group's level matter, so the driver walks the
    /// recorded kinds directly — the fan-out analogue of the single-pump
    /// in-tape skip scan.
    pub fn feed_tape(&mut self, reader: &Reader<FeedSource>, tape: &EventTape) -> u64 {
        let mut scanned = 0u64;
        let mut i = 0;
        while i < tape.len() {
            if self.active.is_empty() {
                while i < tape.len() {
                    match tape.kind(i) {
                        TapeKind::Start => {
                            if self.at_level(self.depth) {
                                break; // a rest group validates this child
                            }
                            self.depth += 1;
                        }
                        TapeKind::Text => {
                            if self.at_level(self.depth) {
                                break;
                            }
                        }
                        TapeKind::End => {
                            let new_depth = self.depth.saturating_sub(1);
                            if self.wake.get(new_depth as usize).is_some_and(|b| !b.is_empty())
                                || self.at_level(self.depth)
                                || self.at_level(new_depth)
                            {
                                // Someone wakes on this close, or a rest
                                // group sees it: feed it through the full
                                // path below.
                                break;
                            }
                            self.depth = new_depth;
                        }
                    }
                    // Same counter discipline as `feed_event`: every event,
                    // dispatched or withheld, counts once (parked pumps
                    // reconcile against it on wake).
                    self.events += 1;
                    scanned += 1;
                    i += 1;
                }
                if i >= tape.len() {
                    break;
                }
            }
            self.feed_event(reader.tape_event(tape, i));
            i += 1;
        }
        scanned
    }

    /// While no subscriber is active, fast-forward the reader itself past
    /// everything up to the end tag that brings the stream back to the
    /// deepest depth anyone must see: the deepest parked subscriber's wake
    /// depth or the deepest rest group's level ([`Reader::skip_events`]).
    /// No event is recorded, materialized or dispatched, only counted.
    /// `None` (the reader untouched) while some subscriber is active, none
    /// is parked, or the stream is at that depth already. On
    /// [`SkipPoll::Closed`] that end tag is next — on `tape` when the
    /// reader had already committed it — and the caller dispatches it
    /// with the next batch; on [`SkipPoll::More`] the fed bytes ran out
    /// inside the skipped subtree.
    pub fn skip_parked(
        &mut self,
        reader: &mut Reader<FeedSource>,
        tape: &mut EventTape,
    ) -> Result<Option<SkipPoll>, XmlError> {
        if !self.active.is_empty() {
            return Ok(None);
        }
        let wake = self.wake.iter().rposition(|b| !b.is_empty());
        let level = self.levels.iter().rposition(|&n| n > 0);
        let Some(target) = wake.max(level) else {
            return Ok(None);
        };
        let target = target as u32;
        if target >= self.depth {
            return Ok(None);
        }
        let poll = reader.skip_events(self.depth - target, tape)?;
        let (events, open) = match poll {
            SkipPoll::Closed { events } => (events, 1),
            SkipPoll::More { events, depth } => (events, depth),
        };
        self.events += events;
        self.depth = target + open;
        Ok(Some(poll))
    }

    /// Reconcile every parked and rest-parked pump with the events
    /// withheld from it so far, leaving it parked: its skip depth, event
    /// counter, observers and current event then read exactly as if it had
    /// been fed every event, so its saved state is the state of a pump
    /// that never parked.
    pub fn settle(&mut self) {
        for (wake, bucket) in self.wake.iter().enumerate() {
            for &i in bucket {
                let sub = &mut self.subs[i as usize];
                if let SubState::Parked { events_at_park } = &mut sub.state {
                    let pump = sub.pump.as_mut().expect("parked subscriber keeps its pump");
                    pump.fast_forward_skip_to(
                        self.depth - wake as u32,
                        self.events - *events_at_park,
                    );
                    *events_at_park = self.events;
                }
            }
        }
        self.settle_rested();
    }

    /// [`FanoutDriver::settle`] for the rest-parked pumps only — what
    /// [`FanoutDriver::state_save`] needs before it saves them as the
    /// equivalent active subscribers.
    pub fn settle_rested(&mut self) {
        for g in &self.groups {
            let depth = self.depth.saturating_sub(g.depth);
            for &i in &g.members {
                let sub = &mut self.subs[i as usize];
                if let SubState::Rested { events_at_park } = &mut sub.state {
                    if *events_at_park == self.events {
                        continue;
                    }
                    let p = g.progress(*events_at_park, self.events - *events_at_park, depth);
                    sub.pump
                        .as_mut()
                        .expect("rested subscriber keeps its pump")
                        .fast_forward_rest(&p);
                    *events_at_park = self.events;
                }
            }
        }
    }

    /// Revive every subscriber parked at `wake_depth`, reconciling its
    /// event counter for the events withheld while it was parked. Must run
    /// *before* the end tag is fed: the woken pump consumes that tag
    /// normally, popping its skip state and firing the enclosing scope's
    /// pending handlers exactly as an unwithheld run would.
    fn wake_at(&mut self, wake_depth: u32) {
        let Some(bucket) = self.wake.get_mut(wake_depth as usize) else { return };
        if bucket.is_empty() {
            return;
        }
        let mut woken = std::mem::take(bucket);
        for &i in &woken {
            let sub = &mut self.subs[i as usize];
            // Entries for since-aborted subscribers are stale; skip them.
            if let SubState::Parked { events_at_park } = sub.state {
                // Everything after the park event, excluding the end tag
                // about to be fed (already counted in self.events).
                let withheld = self.events - 1 - events_at_park;
                sub.pump
                    .as_mut()
                    .expect("parked subscriber keeps its pump")
                    .fast_forward_skip(withheld);
                sub.state = SubState::Active;
                self.active.push(i);
            }
        }
        woken.clear();
        self.wake[wake_depth as usize] = woken; // keep the allocation
    }

    /// Is some rest group's scope element the `depth`-th open element?
    #[inline]
    fn at_level(&self, depth: u32) -> bool {
        self.levels.get(depth as usize).is_some_and(|&n| n > 0)
    }

    /// A child opens at the level of the rest groups at the current depth:
    /// step each group's automaton, waking (before the event) every group
    /// whose content model rejects the child, so each member reports its
    /// own validation error.
    fn level_start(&mut self, id: NameId) {
        if !self.at_level(self.depth) {
            return;
        }
        let mut k = 0;
        while k < self.groups.len() {
            let g = &mut self.groups[k];
            if g.depth == self.depth {
                match self.dtd.production_at(g.prod).automaton().step_id(g.state, id) {
                    Some(next) => {
                        g.state = next;
                        g.tag = (id, false);
                        g.tag_at = self.events;
                    }
                    None => {
                        self.wake_group(k);
                        continue;
                    }
                }
            }
            k += 1;
        }
    }

    /// Character data at the level of the rest groups at the current
    /// depth: non-whitespace text a group's scope may not contain wakes the
    /// group before the event, with the pump's own whitespace rule.
    fn level_text(&mut self, t: &str) {
        if !self.at_level(self.depth) {
            return;
        }
        let ws = is_whitespace_text(t);
        let mut k = 0;
        while k < self.groups.len() {
            let g = &mut self.groups[k];
            if g.depth == self.depth {
                if !g.allows_text && !ws {
                    self.wake_group(k);
                    continue;
                }
                g.text.clear();
                g.text.push_str(t);
                g.text_at = self.events;
            }
            k += 1;
        }
    }

    /// An element at the current depth closes: groups scoped to it wake
    /// before their end tag; groups one level up see a child end.
    fn level_end(&mut self, id: NameId, new_depth: u32) {
        if !self.at_level(self.depth) && !self.at_level(new_depth) {
            return;
        }
        let mut k = 0;
        while k < self.groups.len() {
            let g = &mut self.groups[k];
            if g.depth == self.depth {
                self.wake_group(k);
                continue;
            }
            if g.depth == new_depth {
                g.tag = (id, true);
                g.tag_at = self.events;
            }
            k += 1;
        }
    }

    /// Revive every member of rest group `k` right before the current
    /// event (already counted), which the woken pumps are then fed.
    fn wake_group(&mut self, k: usize) {
        let mut g = self.groups.swap_remove(k);
        self.levels[g.depth as usize] -= 1;
        for &i in &g.members {
            let sub = &mut self.subs[i as usize];
            // Entries for since-aborted subscribers are stale; skip them.
            if let SubState::Rested { events_at_park } = sub.state {
                let p = g.progress(events_at_park, self.events - 1 - events_at_park, 0);
                sub.pump.as_mut().expect("rested subscriber keeps its pump").fast_forward_rest(&p);
                sub.state = SubState::Active;
                self.active.push(i);
            }
        }
        g.members.clear();
        self.spare.push(g);
    }

    fn feed_active(&mut self, ev: ResolvedEvent<'_>) {
        let mut j = 0;
        while j < self.active.len() {
            let i = self.active[j];
            let sub = &mut self.subs[i as usize];
            let pump = sub.pump.as_mut().expect("active subscriber keeps its pump");
            match pump.feed_event(ev) {
                Ok(()) => j += 1,
                Err(e) => {
                    // Isolate the failure: this subscriber is done (the
                    // cause surfaces at finish), everyone else streams on.
                    sub.error = Some(e);
                    sub.state = SubState::Failed;
                    self.active.swap_remove(j);
                }
            }
        }
    }

    /// Park every active pump that just became indifferent: in a skipped
    /// subtree (woken at its end tag) or in a scope's dead rest (joined to
    /// the rest group of its scope depth, production and DFA state). Only
    /// a start or end tag changes a pump's interest, so this runs after
    /// those; `self.depth` already reflects the event.
    fn park_idle(&mut self) {
        let mut j = 0;
        while j < self.active.len() {
            let i = self.active[j];
            let pump =
                self.subs[i as usize].pump.as_ref().expect("active subscriber keeps its pump");
            let events_at_park = self.events;
            self.subs[i as usize].state = match pump.stream_interest() {
                StreamInterest::All => {
                    j += 1;
                    continue;
                }
                StreamInterest::SkipSubtree { depth } => {
                    debug_assert!(depth <= self.depth, "skip depth within the open elements");
                    let wake_depth = self.depth - depth;
                    if self.wake.len() <= wake_depth as usize {
                        self.wake.resize_with(wake_depth as usize + 1, Vec::new);
                    }
                    self.wake[wake_depth as usize].push(i);
                    SubState::Parked { events_at_park }
                }
                StreamInterest::SkipRest { prod, state, allows_text } => {
                    self.join_rest(i, prod, state, allows_text);
                    SubState::Rested { events_at_park }
                }
            };
            self.active.swap_remove(j);
        }
    }

    /// Add subscriber `i` to the rest group of the current depth,
    /// production and DFA state, opening one if needed.
    fn join_rest(&mut self, i: u32, prod: usize, state: u32, allows_text: bool) {
        let depth = self.depth;
        if let Some(g) =
            self.groups.iter_mut().find(|g| g.depth == depth && g.prod == prod && g.state == state)
        {
            g.members.push(i);
            return;
        }
        if self.levels.len() <= depth as usize {
            self.levels.resize(depth as usize + 1, 0);
        }
        self.levels[depth as usize] += 1;
        let mut g = self.spare.pop().unwrap_or_else(|| RestGroup {
            depth,
            prod,
            allows_text,
            state,
            members: Vec::new(),
            tag: (NameId::UNKNOWN, false),
            tag_at: 0,
            text: String::new(),
            text_at: 0,
        });
        (g.depth, g.prod, g.allows_text, g.state) = (depth, prod, allows_text, state);
        (g.tag_at, g.text_at) = (0, 0);
        g.members.push(i);
        self.groups.push(g);
    }

    /// Number of subscriptions (in any state).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Is the driver empty? (Never true: plans are non-empty.)
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Subscribers currently fed every event (not parked, failed or
    /// detached).
    pub fn active_subscribers(&self) -> usize {
        self.active.len()
    }

    /// Subscribers still live (active or parked).
    pub fn live_subscribers(&self) -> usize {
        self.subs
            .iter()
            .filter(|s| {
                matches!(
                    s.state,
                    SubState::Active | SubState::Parked { .. } | SubState::Rested { .. }
                )
            })
            .count()
    }

    /// Bytes currently held across all live subscribers' buffers and
    /// captures.
    pub fn buffered_bytes(&self) -> usize {
        self.subs.iter().filter_map(|s| s.pump.as_ref()).map(Pump::buffered_bytes).sum()
    }

    /// Aggregate bytes currently charged to the shared budget hook.
    pub fn budget_charged(&self) -> usize {
        self.subs.iter().filter_map(|s| s.pump.as_ref()).map(Pump::budget_charged).sum()
    }

    /// Has subscriber `i` failed on its own engine error? (`false` for an
    /// index out of range.)
    pub fn is_failed(&self, i: usize) -> bool {
        self.subs.get(i).is_some_and(|s| matches!(s.state, SubState::Failed))
    }

    /// Subscriber `i`'s pump while it is live (active or parked).
    pub fn live_pump(&self, i: usize) -> Option<&Pump<S>> {
        let sub = self.subs.get(i)?;
        match sub.state {
            SubState::Active | SubState::Parked { .. } | SubState::Rested { .. } => {
                sub.pump.as_ref()
            }
            SubState::Failed | SubState::Detached => None,
        }
    }

    /// Abort one subscriber mid-stream, recovering its sink as-is (no
    /// end-of-input epilogue). Its buffers and budget charges are released;
    /// the shared parse and every other subscriber are untouched. Returns
    /// `None` if `i` was already aborted or is out of range.
    pub fn abort_sub(&mut self, i: usize) -> Option<S> {
        let sub = self.subs.get_mut(i)?;
        if matches!(sub.state, SubState::Detached) {
            return None;
        }
        if matches!(sub.state, SubState::Active) {
            self.active.retain(|&a| a as usize != i);
        }
        // A parked sub may sit in a wake bucket or a rest group; the stale
        // entry is skipped lazily on wake (state is no longer parked).
        sub.state = SubState::Detached;
        sub.error = None;
        Some(sub.pump.take().expect("first detach owns the pump").abort())
    }

    /// Signal end of input and complete every subscription.
    ///
    /// Per subscriber, in plan order: `Some((Ok(stats), sink))` for a
    /// completed run (identical to an independent run's outcome),
    /// `Some((Err(e), sink))` for one that failed (its own engine error, or
    /// end-of-input validation — the sink holds the pre-failure output, no
    /// epilogue), and `None` for one aborted earlier via
    /// [`FanoutDriver::abort_sub`].
    #[allow(clippy::type_complexity)]
    pub fn finish(mut self) -> Vec<Option<(Result<RunStats, EngineError>, S)>> {
        // Input ended: rest-parked pumps catch up (inside a child of their
        // scope or between two), then report what an independent run would.
        self.settle_rested();
        let events = self.events;
        self.subs
            .into_iter()
            .map(|sub| match sub.state {
                SubState::Detached => None,
                SubState::Failed => {
                    let pump = sub.pump.expect("failed subscriber keeps its pump");
                    let err = sub.error.expect("failed subscriber stores its error");
                    Some((Err(err), pump.abort()))
                }
                SubState::Active | SubState::Parked { .. } | SubState::Rested { .. } => {
                    let mut pump = sub.pump.expect("live subscriber keeps its pump");
                    if let SubState::Parked { events_at_park } = sub.state {
                        // Input ended inside the skipped subtree: reconcile
                        // the counter, then let finish report the same
                        // truncation error an independent run would.
                        pump.fast_forward_skip(events - events_at_park);
                    }
                    let (res, sink) = pump.finish();
                    Some((res, sink))
                }
            })
            .collect()
    }

    /// Rebuild a one-subscriber driver around a restored `pump`, `depth`
    /// elements deep in the stream: the pump counts every event so far,
    /// and one restored inside a subtree it skips, or in a scope's dead
    /// rest, is parked again. A pump skipping deeper than the stream is
    /// open is refused as corrupt.
    pub fn resume_one(
        pump: Pump<S>,
        depth: u32,
    ) -> Result<FanoutDriver<S>, flux_state::StateError> {
        if let StreamInterest::SkipSubtree { depth: skip } = pump.stream_interest() {
            if skip > depth {
                return Err(flux_state::StateError::Corrupt("skip deeper than the open elements"));
            }
        }
        let events = pump.stats_so_far().events;
        let dtd = pump.plan().dtd_arc();
        let sub = Sub { pump: Some(pump), state: SubState::Active, error: None };
        let mut driver = FanoutDriver::assemble(vec![sub], vec![0], Vec::new(), dtd, depth, events);
        driver.park_idle();
        Ok(driver)
    }

    /// Serialize the complete fan-out state — every live subscriber's pump,
    /// the parking/wake structure, and the shared counters — as the
    /// `flux_state` FANOUT section payload. Each live pump must be
    /// quiescent (between `feed_event` calls); failed subscribers save only
    /// their error text, detached ones only their tag. A rest-parked
    /// subscriber is saved as the active subscriber it is equivalent to
    /// (listed after the active ones), so it must have been settled
    /// ([`FanoutDriver::settle_rested`]) since the last event.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        enc.put_usize(self.subs.len());
        let mut rested = Vec::new();
        for (i, sub) in self.subs.iter().enumerate() {
            match &sub.state {
                SubState::Active => {
                    enc.put_u8(0);
                    sub.pump.as_ref().expect("active subscriber keeps its pump").state_save(enc)?;
                }
                SubState::Rested { events_at_park } => {
                    if *events_at_park != self.events {
                        return Err(flux_state::StateError::NotQuiescent(
                            "rest-parked subscriber not settled",
                        ));
                    }
                    enc.put_u8(0);
                    sub.pump.as_ref().expect("rested subscriber keeps its pump").state_save(enc)?;
                    rested.push(i as u32);
                }
                SubState::Parked { events_at_park } => {
                    enc.put_u8(1);
                    enc.put_uint(*events_at_park);
                    sub.pump.as_ref().expect("parked subscriber keeps its pump").state_save(enc)?;
                }
                SubState::Failed => {
                    enc.put_u8(2);
                    let msg = sub.error.as_ref().map_or_else(String::new, |e| e.to_string());
                    enc.put_str(&msg);
                }
                SubState::Detached => enc.put_u8(3),
            }
        }
        enc.put_usize(self.active.len() + rested.len());
        for &i in self.active.iter().chain(&rested) {
            enc.put_uint(u64::from(i));
        }
        enc.put_usize(self.wake.len());
        for bucket in &self.wake {
            enc.put_usize(bucket.len());
            for &i in bucket {
                enc.put_uint(u64::from(i));
            }
        }
        enc.put_uint(u64::from(self.depth));
        enc.put_uint(self.events);
        Ok(())
    }

    /// Rebuild a driver saved by [`FanoutDriver::state_save`] against the
    /// same plan, with one fresh sink per subscription slot. `sinks[i]` may
    /// be `None` only for a slot that was detached at save time (its sink
    /// was recovered then); failed slots still take a sink so
    /// [`FanoutDriver::finish`] can hand one back with the restored error.
    /// Budget re-grants happen per subscriber through `hook`; a denied
    /// re-grant fails the whole restore (already-granted subscribers
    /// release on drop, so the accounting stays balanced).
    ///
    /// With `pre_granted` the caller already reserved the snapshot's total
    /// recorded charges through `hook` (see [`Pump::state_load`]): every
    /// subscriber's budget adopts its share, so the restore cannot be
    /// refused.
    pub fn state_load(
        plan: &FanoutPlan,
        mut sinks: Vec<Option<S>>,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
        pre_granted: bool,
    ) -> Result<FanoutDriver<S>, flux_state::StateError> {
        use flux_state::StateError;
        let nsubs = dec.get_count()?;
        if nsubs != plan.len() || sinks.len() != plan.len() {
            return Err(StateError::Corrupt("subscription count does not match the plan"));
        }
        let mut subs = Vec::with_capacity(nsubs);
        for (i, q) in plan.queries.iter().enumerate() {
            let take_sink = |sinks: &mut Vec<Option<S>>| {
                sinks[i].take().ok_or(StateError::Corrupt("live subscriber without a sink"))
            };
            subs.push(match dec.get_u8()? {
                0 => {
                    let sink = take_sink(&mut sinks)?;
                    let pump =
                        Pump::state_load(Arc::clone(q), sink, hook.clone(), dec, pre_granted)?;
                    Sub { pump: Some(pump), state: SubState::Active, error: None }
                }
                1 => {
                    let events_at_park = dec.get_uint()?;
                    let sink = take_sink(&mut sinks)?;
                    let pump =
                        Pump::state_load(Arc::clone(q), sink, hook.clone(), dec, pre_granted)?;
                    Sub {
                        pump: Some(pump),
                        state: SubState::Parked { events_at_park },
                        error: None,
                    }
                }
                2 => {
                    // The poisoned pump itself is not serializable; a fresh
                    // never-fed pump stands in so the finish/abort paths can
                    // still hand the slot's sink back with the saved error.
                    let msg = dec.get_str()?.to_string();
                    let sink = take_sink(&mut sinks)?;
                    let pump = match &hook {
                        Some(h) => Pump::with_budget(Arc::clone(q), sink, Arc::clone(h)),
                        None => Pump::new(Arc::clone(q), sink),
                    };
                    Sub {
                        pump: Some(pump),
                        state: SubState::Failed,
                        error: Some(EngineError::Eval(flux_query::eval::EvalError::Io(msg))),
                    }
                }
                3 => Sub { pump: None, state: SubState::Detached, error: None },
                _ => return Err(StateError::Corrupt("unknown subscriber state")),
            });
        }
        let in_range = |v: u64| {
            u32::try_from(v)
                .ok()
                .filter(|&i| (i as usize) < nsubs)
                .ok_or(StateError::Corrupt("subscriber index out of range"))
        };
        let nactive = dec.get_count()?;
        let mut active = Vec::with_capacity(nactive);
        for _ in 0..nactive {
            active.push(in_range(dec.get_uint()?)?);
        }
        let nbuckets = dec.get_count()?;
        let mut wake = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            let blen = dec.get_count()?;
            let mut bucket = Vec::with_capacity(blen);
            for _ in 0..blen {
                bucket.push(in_range(dec.get_uint()?)?);
            }
            wake.push(bucket);
        }
        let depth = u32::try_from(dec.get_uint()?)
            .map_err(|_| StateError::Corrupt("stream depth exceeds u32"))?;
        // A subscriber wakes when the stream closes back to its bucket's
        // depth, so a populated bucket lies strictly inside the open
        // elements (the reader-level skip relies on it).
        if wake.iter().enumerate().any(|(w, b)| !b.is_empty() && w as u64 >= u64::from(depth)) {
            return Err(StateError::Corrupt("wake depth outside the open elements"));
        }
        // The schedule must agree with the states, or the next event would
        // feed a detached slot or strand a parked one: `active` lists the
        // active subscribers exactly once each, every parked subscriber
        // (skipping, as its contract says) sits in exactly one wake bucket,
        // and buckets otherwise hold only stale entries of detached ones.
        let mut seen = vec![0u32; nsubs];
        for &i in &active {
            seen[i as usize] += 1;
        }
        for (i, sub) in subs.iter().enumerate() {
            if matches!(sub.state, SubState::Active) != (seen[i] == 1) || seen[i] > 1 {
                return Err(StateError::Corrupt(
                    "active list does not match the subscriber states",
                ));
            }
        }
        seen.fill(0);
        for &i in wake.iter().flatten() {
            seen[i as usize] += 1;
        }
        for (i, sub) in subs.iter().enumerate() {
            let ok = match &sub.state {
                SubState::Parked { .. } => {
                    seen[i] == 1
                        && matches!(
                            sub.pump.as_ref().map(Pump::stream_interest),
                            Some(StreamInterest::SkipSubtree { .. })
                        )
                }
                SubState::Detached => true,
                _ => seen[i] == 0,
            };
            if !ok {
                return Err(StateError::Corrupt("wake buckets do not match the subscriber states"));
            }
        }
        let events = dec.get_uint()?;
        Ok(FanoutDriver::assemble(subs, active, wake, plan.dtd_arc(), depth, events))
    }

    /// Tear the whole run down without the end-of-input epilogue — the
    /// right teardown when the shared input failed upstream (e.g. an XML
    /// parse error): every sink holds exactly what an independent run wrote
    /// before the same failure.
    pub fn abort_all(self) -> Vec<SubTeardown<S>> {
        self.subs
            .into_iter()
            .map(|sub| match sub.state {
                SubState::Detached => SubTeardown::Detached,
                SubState::Failed => {
                    let pump = sub.pump.expect("failed subscriber keeps its pump");
                    let err = sub.error.expect("failed subscriber stores its error");
                    SubTeardown::Failed(err, pump.abort())
                }
                SubState::Active | SubState::Parked { .. } | SubState::Rested { .. } => {
                    SubTeardown::Aborted(sub.pump.expect("live sub keeps its pump").abort())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_xml::{Reader, StringSink};

    const DTD: &str = "<!ELEMENT lib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const Q_BOOKS: &str = "<books>{ for $b in $ROOT/lib/book return \
        <hit> {$b/title} </hit> }</books>";
    const Q_ARTICLES: &str = "<articles>{ for $a in $ROOT/lib/article return \
        <hit> {$a/headline} {$a/author} </hit> }</articles>";
    const DOC: &str = "<lib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        <article><headline>H2</headline><author>B2</author></article>\
        </lib>";

    fn prep(dtd: &Arc<Dtd>, q: &str) -> FanoutQuery {
        let parsed = flux_query::parse_xquery(q).unwrap();
        let flux = flux_core::rewrite_query(&parsed, dtd).unwrap();
        let compiled = Arc::new(
            CompiledQuery::compile_with(&flux, Arc::clone(dtd), EngineOptions::default()).unwrap(),
        );
        FanoutQuery { plan: Arc::new(flux), compiled }
    }

    fn drive(plan: &FanoutPlan, doc: &str) -> Vec<Option<(Result<RunStats, EngineError>, String)>> {
        let sinks = (0..plan.len()).map(|_| StringSink::new()).collect();
        let mut driver = FanoutDriver::new(plan, sinks, None);
        let mut reader =
            Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
        }
        driver
            .finish()
            .into_iter()
            .map(|e| e.map(|(res, sink)| (res, sink.into_string())))
            .collect()
    }

    #[test]
    fn shared_run_matches_independent_runs_exactly() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let outs = drive(&plan, DOC);
        for (s, out) in subs.iter().zip(outs) {
            let (res, text) = out.expect("no subscriber aborted");
            let (ref_res, ref_sink) = s.compiled.run_sink(DOC.as_bytes(), StringSink::new());
            assert_eq!(text, ref_sink.into_string());
            // Stats equality pins the parking reconciliation: the withheld
            // events must be counted exactly once.
            assert_eq!(res.unwrap(), ref_res.unwrap());
        }
    }

    #[test]
    fn subscribers_park_through_foreign_subtrees() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let sinks = vec![StringSink::new(), StringSink::new()];
        let mut driver = FanoutDriver::new(&plan, sinks, None);
        let mut reader =
            Reader::with_symbols(DOC.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        let mut saw_parked = false;
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
            saw_parked |= driver.active_subscribers() < driver.live_subscribers();
        }
        assert!(saw_parked, "each query must park through the other's subtrees");
        assert_eq!(driver.active_subscribers(), 2, "all woken by the root close");
        for out in driver.finish() {
            out.unwrap().0.unwrap();
        }
    }

    #[test]
    fn one_failing_subscriber_does_not_stop_the_rest() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        // The zzz element violates article's content model: the articles
        // subscription fails there; the books one skips the whole article
        // subtree and never notices.
        let doc = "<lib>\
            <book><title>T1</title><author>A1</author></book>\
            <article><zzz/><headline>H</headline><author>B</author></article>\
            <book><title>T2</title><author>A2</author></book>\
            </lib>";
        let outs = drive(&plan, doc);
        let (books_res, books_out) = outs[0].as_ref().unwrap();
        assert!(books_res.is_ok());
        assert_eq!(books_out.matches("<hit>").count(), 2);
        let (articles_res, _) = outs[1].as_ref().unwrap();
        let err = articles_res.as_ref().unwrap_err();
        assert!(err.to_string().contains("zzz"), "{err}");
        // And the failing run matches its independent twin bit-for-bit.
        let (ref_res, ref_sink) = subs[1].compiled.run_sink(doc.as_bytes(), StringSink::new());
        assert!(ref_res.is_err());
        assert_eq!(outs[1].as_ref().unwrap().1, ref_sink.into_string());
    }

    #[test]
    fn abort_sub_recovers_the_sink_and_spares_the_rest() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let mut driver = FanoutDriver::new(&plan, vec![StringSink::new(), StringSink::new()], None);
        let mut reader =
            Reader::with_symbols(DOC.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        let mut fed = 0;
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
            fed += 1;
            if fed == 8 {
                let sink = driver.abort_sub(0).expect("first abort returns the sink");
                assert!(sink.into_string().starts_with("<books>"));
                assert!(driver.abort_sub(0).is_none(), "second abort is a no-op");
            }
        }
        let outs = driver.finish();
        assert!(outs[0].is_none(), "aborted subscriber has no finish entry");
        let (res, sink) = outs.into_iter().nth(1).unwrap().unwrap();
        res.unwrap();
        let reference = subs[1].compiled.run_sink(DOC.as_bytes(), StringSink::new());
        assert_eq!(sink.into_string(), reference.1.into_string());
    }

    #[test]
    fn truncated_input_fails_parked_subscribers_like_independent_runs() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        // Events stop inside an article subtree: the books pump is parked
        // there and must report the same mid-element truncation an
        // independent run does.
        let doc = "<lib><article><headline>H</headline>";
        let mut driver = FanoutDriver::new(&plan, vec![StringSink::new()], None);
        let mut reader =
            Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        while let Ok(Some(ev)) = reader.next_resolved() {
            driver.feed_event(ev);
        }
        let outs = driver.finish();
        let (res, _) = outs.into_iter().next().unwrap().unwrap();
        let err = res.unwrap_err();
        assert!(err.to_string().contains("ended inside"), "{err}");
    }

    #[test]
    fn plans_with_equal_vocabulary_are_reused() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        // Same query twice: identical symbol tables, so compilation must
        // reuse both plans as-is.
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_BOOKS)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        assert_eq!(plan.reused_plans(), 2);
        assert!(Arc::ptr_eq(&plan.queries()[0], &subs[0].compiled));
        // Every declared element lives in the DTD's table, so per-query
        // tables normally equal the union and plans are always reused; the
        // recompile path is the safety net for seed tables that grew past
        // the DTD's. Exercise it directly: a strict-superset seed must
        // yield an equivalent plan …
        let mut grown = (**dtd.symbols()).clone();
        grown.intern("not-in-the-dtd");
        let re = CompiledQuery::compile_with_symbols(
            &subs[0].plan,
            Arc::clone(&dtd),
            EngineOptions::default(),
            grown.clone(),
        )
        .unwrap();
        let (res, sink) = re.run_sink(DOC.as_bytes(), StringSink::new());
        let reference = subs[0].compiled.run_sink(DOC.as_bytes(), StringSink::new());
        assert_eq!(sink.into_string(), reference.1.into_string());
        assert_eq!(res.unwrap(), reference.0.unwrap());
        // … and a seed whose ids disagree with the DTD's is refused.
        let mut moved = Symbols::new();
        moved.intern("stolen-id");
        for (_, name) in dtd.symbols().iter() {
            moved.intern(name);
        }
        let bad = CompiledQuery::compile_with_symbols(
            &subs[0].plan,
            Arc::clone(&dtd),
            EngineOptions::default(),
            moved,
        );
        assert!(bad.is_err(), "shifted DTD ids must be rejected");
    }

    #[test]
    fn mismatched_dtds_or_options_are_refused() {
        let dtd_a = Arc::new(Dtd::parse(DTD).unwrap());
        let dtd_b = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd_a, Q_BOOKS), prep(&dtd_b, Q_ARTICLES)];
        assert!(FanoutPlan::compile(&subs).is_err());
        assert!(FanoutPlan::compile(&[]).is_err());
    }
}
