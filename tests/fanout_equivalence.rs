//! Fan-out equivalence: shared single-pass execution is observationally
//! identical to independent runs.
//!
//! The fan-out subsystem's contract is exact, not approximate: for every
//! subscriber of a [`SubscriptionSet`], the bytes its sink receives and
//! its final [`RunStats`] must be byte-for-byte identical to an
//! independent [`PreparedQuery`] run over the same document — whatever the
//! mix of co-subscribers and however the input is chunked. This suite pins
//! that property over the paper's own workload: **every non-empty subset**
//! of the five Appendix-A XMark queries, fed at chunk sizes {3, 257, 4096}
//! over a generated XMark document, extending the chunk-invariance harness
//! of `tests/session_chunking.rs` to the shared path.

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, Q1, XMARK_DTD};

/// Chunk sizes exercising the resumable-parse seams: sub-token feeds,
/// a prime stride, and a bulk stride.
const CHUNKS: &[usize] = &[3, 257, 4096];

struct Fixture {
    registry: QueryRegistry,
    doc: String,
    /// Reference output + stats per paper query, from independent runs.
    refs: Vec<(String, RunOutcome)>,
}

fn fixture(doc_bytes: usize) -> Fixture {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(doc_bytes));
    let mut registry = QueryRegistry::new();
    let mut refs = Vec::new();
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        let reference = prepared.run_str(&doc).unwrap();
        registry.register(q.name, prepared);
        refs.push((q.name.to_string(), reference));
    }
    Fixture { registry, doc, refs }
}

impl Fixture {
    fn reference(&self, name: &str) -> &RunOutcome {
        &self.refs.iter().find(|(n, _)| n == name).unwrap().1
    }

    /// Run `ids` as one shared fan-out at the given chunk size and compare
    /// every subscriber against its independent reference run.
    fn check_subset(&self, ids: &[&str], chunk: usize) {
        let set = SubscriptionSet::compile_subset(&self.registry, ids).unwrap();
        let mut session = set.session_strings();
        for c in self.doc.as_bytes().chunks(chunk) {
            session.feed(c).unwrap();
        }
        let outs = session.finish_parts();
        assert_eq!(outs.len(), ids.len());
        for (id, (res, sink)) in ids.iter().zip(outs) {
            let reference = self.reference(id);
            let stats = res.unwrap_or_else(|e| panic!("{id} in {ids:?} @{chunk}: {e}"));
            assert_eq!(
                sink.unwrap().as_str(),
                reference.output,
                "{id} output differs in subset {ids:?} at chunk size {chunk}"
            );
            assert_eq!(
                stats, reference.stats,
                "{id} stats differ in subset {ids:?} at chunk size {chunk}"
            );
        }
    }
}

/// Every non-empty subset of the five paper queries × every chunk size.
/// The joins (Q8, Q11) are quadratic, so the exhaustive sweep runs on a
/// compact document; the streaming trio gets a larger one below.
#[test]
fn every_paper_query_subset_is_byte_identical_at_every_chunk_size() {
    let fx = fixture(24 << 10);
    let names: Vec<&str> = PAPER_QUERIES.iter().map(|q| q.name).collect();
    for mask in 1u32..(1 << names.len()) {
        let ids: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        for &chunk in CHUNKS {
            fx.check_subset(&ids, chunk);
        }
    }
}

/// The streaming queries (the fan-out service's hot shape) on a larger
/// document, including duplicate subscriptions of the same query.
#[test]
fn streaming_queries_share_one_larger_parse() {
    let fx = fixture(192 << 10);
    for &chunk in CHUNKS {
        fx.check_subset(&["Q1", "Q13", "Q20"], chunk);
        fx.check_subset(&["Q13", "Q1", "Q13", "Q1"], chunk);
    }
}

/// The shared parse must also agree with the *session* path (not just the
/// one-shot pull run): chunk-fed independent sessions and one chunk-fed
/// shared session see identical bytes and stats.
#[test]
fn shared_run_matches_independent_sessions_too() {
    let fx = fixture(48 << 10);
    let ids = ["Q1", "Q13", "Q20"];
    let set = SubscriptionSet::compile_subset(&fx.registry, &ids).unwrap();
    let mut shared = set.session_strings();
    let mut singles: Vec<_> =
        ids.iter().map(|id| fx.registry.get(id).unwrap().session_string()).collect();
    for c in fx.doc.as_bytes().chunks(257) {
        shared.feed(c).unwrap();
        for s in &mut singles {
            s.feed(c).unwrap();
        }
    }
    let outs = shared.finish_parts();
    for (s, (res, sink)) in singles.into_iter().zip(outs) {
        let fin = s.finish().unwrap();
        assert_eq!(sink.unwrap().as_str(), fin.sink.as_str());
        assert_eq!(res.unwrap(), fin.stats);
    }
}

/// The same Q1 text registered twice under two names: two subscribers
/// that park and wake together.
fn duplicate_q1(engine: &Engine) -> (QueryRegistry, SubscriptionSet) {
    let mut registry = QueryRegistry::new();
    registry.register("Q1", engine.prepare(Q1).unwrap());
    registry.register("Q1-again", engine.prepare(Q1).unwrap());
    let set = SubscriptionSet::compile_subset(&registry, &["Q1", "Q1-again"]).unwrap();
    (registry, set)
}

/// The duplicate-Q1 pair at every two-chunk split of a small document:
/// both subscribers byte-identical to the one-shot run.
#[test]
fn duplicate_subscribers_are_byte_identical_at_every_split() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (registry, set) = duplicate_q1(&engine);
    let (doc, _) = generate_string(&XmarkConfig::new(2 << 10));
    let reference = registry.get("Q1").unwrap().run_str(&doc).unwrap();
    for at in 0..=doc.len() {
        let mut s = set.session_strings();
        s.feed(&doc.as_bytes()[..at]).unwrap();
        s.feed(&doc.as_bytes()[at..]).unwrap();
        for (i, (res, sink)) in s.finish_parts().into_iter().enumerate() {
            let stats = res.unwrap_or_else(|e| panic!("sub {i} at split {at}: {e}"));
            assert_eq!(sink.unwrap().as_str(), reference.output, "sub {i} at split {at}");
            assert_eq!(stats, reference.stats, "sub {i} stats at split {at}");
        }
    }
}

/// While every subscriber is parked the shared session skips at the
/// reader, exactly as a single-query session does: two Q1 subscribers
/// record no more tape batches than one Q1 through its own session.
#[test]
fn all_parked_subscribers_skip_at_the_reader() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (registry, set) = duplicate_q1(&engine);
    let (doc, _) = generate_string(&XmarkConfig::new(256 << 10));
    let q1 = registry.get("Q1").unwrap();
    let reference = q1.run_str(&doc).unwrap();

    let mut single = q1.session_string();
    let mut shared = set.session_strings();
    for c in doc.as_bytes().chunks(4096) {
        single.feed(c).unwrap();
        shared.feed(c).unwrap();
    }
    let single = single.finish().unwrap();
    assert_eq!(single.sink.as_str(), reference.output);
    assert!(single.stats.events > 4 * 1024, "the document fills several tape batches");
    assert!(single.stats.tape.fast_forwarded > 0, "Q1 skips subtrees at the reader");
    for (i, (res, sink)) in shared.finish_parts().into_iter().enumerate() {
        let stats = res.unwrap();
        assert_eq!(sink.unwrap().as_str(), reference.output, "sub {i} output");
        assert_eq!(stats, reference.stats, "sub {i} stats");
        assert_eq!(stats.tape.batches, single.stats.tape.batches, "sub {i} tape batches");
    }
}
