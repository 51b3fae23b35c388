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
//!   table disagrees ([`CompiledQuery::compile_with_symbols`]), and merges
//!   the per-query scope structure into a [`SharedMatcher`] — a YFilter
//!   style trie over the shared [`NameId`] alphabet with per-query accept
//!   sets, the "product automaton with per-query accepts" of the merged
//!   matcher.
//! * [`FanoutDriver`] — the run-time fan-out. M resumable [`Pump`]s advance
//!   in lockstep over a single resolved-event stream; each keeps its own
//!   sink, its own validation state, its own buffers and its own
//!   [`BudgetHook`] charges. The driver exploits [`Pump::stream_interest`]:
//!   a pump that is skipping an unhandled subtree with no observers is
//!   *parked* — removed from the hot feed list and woken (with its event
//!   counter reconciled via [`Pump::fast_forward_skip`]) exactly at the end
//!   tag that closes the skipped subtree. On selective queries most
//!   subscribers are parked through most of the document, so the marginal
//!   cost of a subscription approaches an integer compare per *element
//!   close at its wake depth* instead of per event.
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
use crate::compile::{CBody, CHandler, CompiledQuery, EngineError, EngineOptions, Top};
use crate::exec::{Pump, StreamInterest};
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
/// table, plus the merged [`SharedMatcher`]. See the [module docs](self).
pub struct FanoutPlan {
    dtd: Arc<Dtd>,
    symbols: Arc<Symbols>,
    opts: EngineOptions,
    queries: Vec<Arc<CompiledQuery>>,
    matcher: SharedMatcher,
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
        let matcher = SharedMatcher::build(&queries);
        Ok(FanoutPlan { dtd, symbols: union, opts, queries, matcher, reused })
    }

    /// The one-subscription plan of a single compiled query: its own
    /// symbol table, nothing recompiled. This is what a single-query
    /// session runs — a fan-out of one.
    pub fn of_one(compiled: Arc<CompiledQuery>) -> FanoutPlan {
        let queries = vec![compiled];
        let matcher = SharedMatcher::build(&queries);
        let q = &queries[0];
        FanoutPlan {
            dtd: q.dtd_arc(),
            symbols: Arc::clone(q.symbols()),
            opts: q.options(),
            queries,
            matcher,
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

    /// The merged static matcher.
    pub fn matcher(&self) -> &SharedMatcher {
        &self.matcher
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

/// A node of the merged scope trie.
#[derive(Default)]
struct MatcherNode {
    /// Child scope edges, keyed by the (union-table) element id.
    children: Vec<(NameId, u32)>,
    /// Queries with a live scope at this path.
    accepts: Vec<u32>,
}

/// The merged static matcher: every subscription's scope chain overlaid on
/// one trie keyed by element [`NameId`]s, with per-query accept sets —
/// the YFilter-style NFA merge of the per-query automata. Shared path
/// prefixes collapse to shared nodes, so the structure also *measures* the
/// cross-query sharing the fan-out exploits.
pub struct SharedMatcher {
    nodes: Vec<MatcherNode>,
    /// Degenerate subscriptions with no scope structure (`Top::Simple`):
    /// interested everywhere.
    always: Vec<u32>,
}

impl SharedMatcher {
    fn build(queries: &[Arc<CompiledQuery>]) -> SharedMatcher {
        let mut m = SharedMatcher { nodes: vec![MatcherNode::default()], always: Vec::new() };
        for (qi, q) in queries.iter().enumerate() {
            match &q.top {
                Top::Simple(_) => m.always.push(qi as u32),
                Top::Scope { idx, .. } => m.add_scope(q, qi as u32, 0, *idx),
            }
        }
        m
    }

    fn add_scope(&mut self, q: &CompiledQuery, qi: u32, node: u32, sidx: usize) {
        let accepts = &mut self.nodes[node as usize].accepts;
        if accepts.last() != Some(&qi) {
            accepts.push(qi);
        }
        for h in &q.scopes[sidx].handlers {
            if let CHandler::On { label_id, body: CBody::Scope(child), .. } = h {
                let next = self.child(node, *label_id);
                self.add_scope(q, qi, next, *child);
            }
        }
    }

    fn child(&mut self, node: u32, label: NameId) -> u32 {
        if let Some(&(_, c)) = self.nodes[node as usize].children.iter().find(|(l, _)| *l == label)
        {
            return c;
        }
        let c = u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes");
        self.nodes.push(MatcherNode::default());
        self.nodes[node as usize].children.push((label, c));
        c
    }

    /// Trie size (root included) — shared prefixes make this grow slower
    /// than the sum of the per-query scope counts.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The accept set of the trie node reached by walking `path` exactly —
    /// the queries with a scope live *at* that node — or `None` if no
    /// subscription's scope chain covers the path.
    pub fn accepts_at(&self, path: &[NameId]) -> Option<&[u32]> {
        let mut node = 0u32;
        for id in path {
            let (_, c) = self.nodes[node as usize].children.iter().find(|(l, _)| l == id)?;
            node = *c;
        }
        Some(&self.nodes[node as usize].accepts)
    }

    /// Query indices with a scope live somewhere along `path` (element ids
    /// from the document root downwards, root element first) — i.e. the
    /// subscriptions that can do per-event work at this point of the
    /// document. Sorted, deduplicated; `Top::Simple` subscriptions are
    /// always included.
    pub fn subscribers_under(&self, path: &[NameId]) -> Vec<u32> {
        let mut out = self.always.clone();
        let mut node = 0u32;
        out.extend_from_slice(&self.nodes[0].accepts);
        for id in path {
            match self.nodes[node as usize].children.iter().find(|(l, _)| l == id) {
                Some(&(_, c)) => {
                    node = c;
                    out.extend_from_slice(&self.nodes[node as usize].accepts);
                }
                None => break,
            }
        }
        out.sort_unstable();
        out.dedup();
        out
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
        FanoutDriver { subs, active, wake: Vec::new(), depth: 0, events: 0 }
    }

    /// Advance every live subscription by one shared stream event.
    ///
    /// Infallible at the stream level: a subscriber whose pump errors is
    /// detached (error surfaced at [`FanoutDriver::finish`]) and the rest
    /// stream on.
    pub fn feed_event(&mut self, ev: ResolvedEvent<'_>) {
        self.events += 1;
        match ev {
            ResolvedEvent::End(..) => {
                // The element closing here sits at depth `new_depth + 1`;
                // everyone parked to wake at `new_depth` gets this tag.
                let new_depth = self.depth.saturating_sub(1);
                self.wake_at(new_depth);
                self.depth = new_depth;
                self.feed_active(ev);
            }
            ResolvedEvent::Start(..) => {
                self.feed_active(ev);
                self.depth += 1;
                self.park_indifferent();
            }
            ResolvedEvent::Text(_) => self.feed_active(ev),
        }
    }

    /// Advance every live subscription by one drained tape batch (the
    /// batched sibling of [`FanoutDriver::feed_event`]; identical dispatch,
    /// identical counters). Returns the number of events the driver
    /// *scanned* instead of dispatching: while every subscriber is parked
    /// (or detached), only an end tag closing at a populated wake depth
    /// matters, so the driver walks the recorded kinds directly — the
    /// fan-out analogue of the single-pump in-tape skip scan.
    pub fn feed_tape(&mut self, reader: &Reader<FeedSource>, tape: &EventTape) -> u64 {
        let mut scanned = 0u64;
        let mut i = 0;
        while i < tape.len() {
            if self.active.is_empty() {
                while i < tape.len() {
                    match tape.kind(i) {
                        TapeKind::Start => self.depth += 1,
                        TapeKind::Text => {}
                        TapeKind::End => {
                            let new_depth = self.depth.saturating_sub(1);
                            if self.wake.get(new_depth as usize).is_some_and(|b| !b.is_empty()) {
                                // Someone wakes on this close: feed it
                                // through the full path below.
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
    /// everything up to the end tag the deepest parked subscriber wakes
    /// on ([`Reader::skip_events`]): no event is recorded, materialized or
    /// dispatched, only counted. `None` (the reader untouched) while some
    /// subscriber is active or none is parked. On
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
        let Some(wake) = self.wake.iter().rposition(|b| !b.is_empty()) else {
            return Ok(None);
        };
        let wake = wake as u32;
        let poll = reader.skip_events(self.depth - wake, tape)?;
        let (events, open) = match poll {
            SkipPoll::Closed { events } => (events, 1),
            SkipPoll::More { events, depth } => (events, depth),
        };
        self.events += events;
        self.depth = wake + open;
        Ok(Some(poll))
    }

    /// Reconcile every parked pump with the events withheld from it so
    /// far, leaving it parked: its skip depth and event counter then read
    /// exactly as if it had been fed every event, so its saved state is
    /// the state of a pump that never parked.
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

    /// Park every active pump that just became indifferent. Only a start
    /// tag can put a pump into the skip state, so this runs after start
    /// events only; `self.depth` already counts the element just opened.
    fn park_indifferent(&mut self) {
        let mut j = 0;
        while j < self.active.len() {
            let i = self.active[j];
            let sub = &mut self.subs[i as usize];
            let pump = sub.pump.as_ref().expect("active subscriber keeps its pump");
            match pump.stream_interest() {
                StreamInterest::All => j += 1,
                StreamInterest::SkipSubtree { depth } => {
                    debug_assert!(depth <= self.depth, "skip depth within the open elements");
                    let wake_depth = self.depth - depth;
                    if self.wake.len() <= wake_depth as usize {
                        self.wake.resize_with(wake_depth as usize + 1, Vec::new);
                    }
                    self.wake[wake_depth as usize].push(i);
                    sub.state = SubState::Parked { events_at_park: self.events };
                    self.active.swap_remove(j);
                }
            }
        }
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
            .filter(|s| matches!(s.state, SubState::Active | SubState::Parked { .. }))
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
            SubState::Active | SubState::Parked { .. } => sub.pump.as_ref(),
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
        // A parked sub may sit in a wake bucket; the stale entry is skipped
        // lazily on wake (state is no longer `Parked`).
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
    pub fn finish(self) -> Vec<Option<(Result<RunStats, EngineError>, S)>> {
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
                SubState::Active | SubState::Parked { .. } => {
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
    /// and one restored inside a subtree it skips is parked again. A pump
    /// skipping deeper than the stream is open is refused as corrupt.
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
        let mut driver = FanoutDriver {
            subs: vec![Sub { pump: Some(pump), state: SubState::Active, error: None }],
            active: vec![0],
            wake: Vec::new(),
            depth,
            events,
        };
        driver.park_indifferent();
        Ok(driver)
    }

    /// Serialize the complete fan-out state — every live subscriber's pump,
    /// the parking/wake structure, and the shared counters — as the
    /// `flux_state` FANOUT section payload. Each live pump must be
    /// quiescent (between `feed_event` calls); failed subscribers save only
    /// their error text, detached ones only their tag.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        enc.put_usize(self.subs.len());
        for sub in &self.subs {
            match &sub.state {
                SubState::Active => {
                    enc.put_u8(0);
                    sub.pump.as_ref().expect("active subscriber keeps its pump").state_save(enc)?;
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
        enc.put_usize(self.active.len());
        for &i in &self.active {
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
        let events = dec.get_uint()?;
        Ok(FanoutDriver { subs, active, wake, depth, events })
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
                SubState::Active | SubState::Parked { .. } => {
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
    fn matcher_merges_scope_chains_with_accept_sets() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let m = plan.matcher();
        let sym = plan.symbols();
        let lib = sym.resolve("lib");
        let book = sym.resolve("book");
        let article = sym.resolve("article");
        // Both subscriptions are live at the root and under <lib> (their
        // document and lib scopes merge into shared trie nodes) …
        assert_eq!(m.subscribers_under(&[]), vec![0, 1]);
        assert_eq!(m.subscribers_under(&[lib]), vec![0, 1]);
        // … and only the matching one descends into each branch.
        assert_eq!(m.accepts_at(&[lib, book]), Some(&[0u32][..]));
        assert_eq!(m.accepts_at(&[lib, article]), Some(&[1u32][..]));
        assert_eq!(m.accepts_at(&[lib]), Some(&[0u32, 1][..]));
        assert!(m.node_count() >= 4, "root, merged lib, book, article");
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
