//! The layered execution runtime: session → [`Shard`] → [`Runtime`] →
//! [`AdmissionController`].
//!
//! The sans-IO core makes one execution a plain value: an incremental
//! parser plus the engine's resumable state machines
//! ([`flux_engine::Pump`]), executing inline on whatever thread feeds it.
//! This module stacks the layers that turn that property into a
//! multi-core, memory-governed service runtime. Every layer holds one
//! session shape:
//!
//! * **[`SharedSession`]** — the one session implementation: one
//!   incremental parse of one document dispatched to 1..M subscriptions
//!   (a [`SubscriptionSet`](crate::SubscriptionSet) compiles M; a
//!   [`PreparedQuery`](crate::PreparedQuery) is a set of one), each with
//!   its own sink, statistics, budget charges and failure isolation. One
//!   drain loop fills the event tape and dispatches it, and while every
//!   subscriber is parked inside a subtree it does not need, the reader
//!   skips that subtree structurally instead.
//! * **[`Session`]** — the one-subscriber view of a [`SharedSession`].
//!   Push chunks with [`Session::feed`], collect the result with
//!   [`Session::finish`]; under admission control its
//!   [`Session::feed_outcome`] additionally reports
//!   [`FeedOutcome::Backpressure`]. The view owns no reader, tape or
//!   gating code; its type pins exactly one sink.
//! * **[`Shard`]** — a single-threaded multiplexer of many live sessions:
//!   one slot store keyed by generation-checked [`SessionId`]s, slot
//!   reuse, aggregate buffer accounting. One shard comfortably drives tens
//!   of thousands of sessions, because a session costs no thread and
//!   idles at the size of its retained state.
//! * **[`Runtime`]** — N shards on N worker threads. New sessions are
//!   placed on the least-loaded shard, addressed by generation-checked
//!   global [`RuntimeId`]s, and driven through a poll-shaped API: commands
//!   ([`Runtime::feed`], [`Runtime::finish`]) enqueue and return
//!   immediately; completions, stalls and resumptions come back as
//!   [`RuntimeEvent`]s ([`Runtime::poll_events`] / [`Runtime::wait_event`]).
//!   A session opened with [`Runtime::open`] completes as
//!   [`RuntimeEvent::Finished`], one opened with [`Runtime::open_shared`]
//!   as [`RuntimeEvent::FinishedShared`]; that is the only difference.
//!   [`Runtime::drain`] shuts the fleet down gracefully. The API is
//!   deliberately poll-shaped so front-ends that must not block can sit
//!   directly on top — the `flux-serve` crate's TCP server drives one
//!   `Runtime` from a socket readiness loop, and a tokio feature gate can
//!   drop in the same way without reshaping the layers below.
//! * **[`AdmissionController`]** — a shared byte budget across every
//!   session plugged into it, on any shard. The engine reports each
//!   retained-byte delta through a pluggable
//!   [`BudgetHook`](flux_engine::BudgetHook), so the *aggregate* of the
//!   paper's per-run buffer bounds is enforced fleet-wide: feeding past
//!   the budget reports [`FeedOutcome::Backpressure`] instead of erroring,
//!   and the session resumes once other sessions release buffers (scope
//!   exits, finishes, aborts — a dropped session always returns everything
//!   it held). The gate only refuses *new* growth: sessions already
//!   holding buffers keep draining, because completing their scopes is
//!   precisely what frees the pool. Resumption is event-driven: workers
//!   sleeping on a tight pool subscribe a
//!   [`BudgetWaker`](flux_engine::BudgetWaker) and are fired on the exact
//!   release edge that restores headroom — there is no retry tick.
//!
//! Chunk boundaries are invisible at every layer: output bytes and all
//! statistics are identical to a one-shot run over the concatenation of
//! the chunks (`tests/session_chunking.rs` pins this at every split
//! offset; `tests/session_multiplex.rs` drives 1200 interleaved sessions;
//! `tests/admission.rs` pins the budget invariant with a counting hook).

mod admission;
mod rt;
mod session;
mod shard;
mod shared;

pub use admission::AdmissionController;
pub use rt::{Runtime, RuntimeBuilder, RuntimeEvent, RuntimeId, SuspendPolicy};
pub use session::{Finished, Session};
pub use shard::{SessionId, Shard};
pub use shared::SharedSession;

/// What [`Session::feed_outcome`] / [`Shard::feed`] did with a chunk.
///
/// Marked `#[must_use]`: on [`FeedOutcome::Backpressure`] the chunk was
/// *refused* — a caller that drops the outcome silently loses those bytes.
#[must_use = "on Backpressure the chunk was refused and must be re-fed after resume"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The chunk was absorbed and every event it completed was executed.
    Accepted,
    /// The shared buffer budget is tight and this session holds nothing
    /// yet: the chunk was refused (nothing absorbed). Re-feed the same
    /// bytes once [`Session::resume`] / [`Shard::resume`] reports
    /// [`FeedOutcome::Accepted`] — budget frees when other sessions
    /// release buffers. (The [`Runtime`] queues and retries refused chunks
    /// automatically, surfacing [`RuntimeEvent::Stalled`] /
    /// [`RuntimeEvent::Resumed`] for source-side flow control.)
    Backpressure,
}

impl FeedOutcome {
    /// Did the session stall on the shared budget?
    pub fn is_backpressure(self) -> bool {
        self == FeedOutcome::Backpressure
    }
}
