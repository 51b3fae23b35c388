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

mod common;

use common::{random_doc, random_query, TEST_DTD};
use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, Q1, Q13, Q20, XMARK_DTD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Q1 for 25 person ids, Q13 for each of the six regions, and Q20: the
/// mix in which subscribers park both ways — inside subtrees skipped with
/// inert observers (Q1's person-id flag) and in scopes whose rest the DTD
/// proves dead (Q1 after a person's name, Q13 after an item's
/// description) — next to a subscriber that records whole persons and
/// never parks there (Q20).
fn parking_sources() -> Vec<String> {
    let mut sources: Vec<String> =
        (0..25).map(|k| Q1.replace("'person0'", &format!("'person{k}'"))).collect();
    for region in ["africa", "asia", "australia", "europe", "namerica", "samerica"] {
        sources.push(Q13.replace("/australia/", &format!("/{region}/")));
    }
    sources.push(Q20.to_string());
    sources
}

/// [`parking_sources`] prepared, one subscription set over all of them.
fn parking_mix(engine: &Engine) -> (Vec<PreparedQuery>, SubscriptionSet) {
    let sources = parking_sources();
    let mut registry = QueryRegistry::new();
    let mut ids = Vec::new();
    let mut queries = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        let q = engine.prepare(src).unwrap();
        registry.register(format!("q{i}"), q.clone());
        ids.push(format!("q{i}"));
        queries.push(q);
    }
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    (queries, SubscriptionSet::compile_subset(&registry, &ids).unwrap())
}

/// The never-parking reference: one pump fed every event by the
/// engine's one-shot run.
fn run_reference(q: &PreparedQuery, doc: &str) -> (Result<RunStats, String>, String) {
    let (res, sink) = q.compiled().run_sink(doc.as_bytes(), StringSink::new());
    (res.map_err(|e| e.to_string()), sink.into_string())
}

fn engine_error(res: Result<RunStats, FluxError>) -> Result<RunStats, String> {
    res.map_err(|e| match e {
        FluxError::Engine(e) => e.to_string(),
        other => panic!("expected an engine error, got {other}"),
    })
}

/// Both parking kinds at every two-chunk split of a small document: every
/// subscriber's output and statistics equal the never-parking reference.
#[test]
fn both_parking_kinds_are_exact_at_every_split() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (queries, set) = parking_mix(&engine);
    let (doc, summary) = generate_string(&XmarkConfig::new(2 << 10));
    assert!(summary.persons >= 2, "the document holds persons to park in");
    let refs: Vec<_> = queries.iter().map(|q| run_reference(q, &doc)).collect();
    for at in 0..=doc.len() {
        let mut s = set.session_strings();
        s.feed(&doc.as_bytes()[..at]).unwrap();
        s.feed(&doc.as_bytes()[at..]).unwrap();
        for (i, ((res, sink), (ref_res, ref_out))) in
            s.finish_parts().into_iter().zip(&refs).enumerate()
        {
            let stats = res.unwrap_or_else(|e| panic!("sub {i} at split {at}: {e}"));
            assert_eq!(sink.unwrap().as_str(), ref_out, "sub {i} output at split {at}");
            assert_eq!(Ok(stats), *ref_res, "sub {i} stats at split {at}");
        }
    }
}

/// Events that end a dead rest early — a child the content model rejects,
/// character data it forbids, input that stops inside the scope — wake
/// the rest group before the event: every subscriber, in a set or in its
/// own session, reports the reference's error with the reference's sink
/// bytes.
#[test]
fn invalid_input_in_a_dead_rest_fails_like_the_reference() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (queries, set) = parking_mix(&engine);
    let (doc, _) = generate_string(&XmarkConfig::new(2 << 10));
    let person = doc.find("<person>").unwrap();
    let after_name = person + doc[person..].find("</name>").unwrap() + "</name>".len();
    let (head, tail) = doc.split_at(after_name);
    let child = tail.find('>').unwrap() + 1;
    let variants = [
        format!("{head}<bogus/>{tail}"),
        format!("{head}oops{tail}"),
        format!("{head}<name>again</name>{tail}"),
        head.to_string(),
        format!("{head}{}", &tail[..child]),
    ];
    for (v, bad) in variants.iter().enumerate() {
        let refs: Vec<_> = queries.iter().map(|q| run_reference(q, bad)).collect();
        assert!(refs[0].0.is_err(), "variant {v} breaks Q1 inside the person");
        for feed in [7, 4096, 1 << 20] {
            let mut s = set.session_strings();
            for c in bad.as_bytes().chunks(feed) {
                let _ = s.feed(c);
            }
            for (i, ((res, sink), (ref_res, ref_out))) in
                s.finish_parts().into_iter().zip(&refs).enumerate()
            {
                assert_eq!(engine_error(res), *ref_res, "variant {v} set sub {i} @{feed}");
                assert_eq!(sink.unwrap().as_str(), ref_out, "variant {v} set sub {i} sink @{feed}");
            }
            for (i, (q, (ref_res, ref_out))) in queries.iter().zip(&refs).enumerate() {
                let mut s = q.session_string();
                for c in bad.as_bytes().chunks(feed) {
                    let _ = s.feed(c);
                }
                let (res, sink) = s.finish_parts();
                assert_eq!(engine_error(res), *ref_res, "variant {v} session {i} @{feed}");
                assert_eq!(sink.unwrap().as_str(), ref_out, "variant {v} session {i} sink @{feed}");
            }
        }
    }
}

/// Withheld events are counted: each Q1 of the 25-person-id set is fed
/// less than half of the events inside `people` — after a person's name
/// the rest of the person is dead to it.
#[test]
fn q1_subscribers_withhold_most_of_people() {
    use flux::engine::{CompiledQuery, EngineOptions, FanoutDriver, FanoutPlan, FanoutQuery};
    use flux::xml::ResolvedEvent;
    use std::sync::Arc;
    let dtd = Arc::new(Dtd::parse(XMARK_DTD).unwrap());
    let (doc, _) = generate_string(&XmarkConfig::new(64 << 10));
    let subs: Vec<FanoutQuery> = parking_sources()
        .iter()
        .map(|src| {
            let flux = rewrite_query(&parse_xquery(src).unwrap(), &dtd).unwrap();
            let compiled =
                CompiledQuery::compile_with(&flux, Arc::clone(&dtd), EngineOptions::default());
            FanoutQuery { plan: Arc::new(flux), compiled: Arc::new(compiled.unwrap()) }
        })
        .collect();
    let plan = FanoutPlan::compile(&subs).unwrap();
    let mut driver =
        FanoutDriver::new(&plan, (0..plan.len()).map(|_| StringSink::new()).collect(), None);
    let mut reader =
        Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
    let withheld = |d: &mut FanoutDriver<StringSink>| -> Vec<u64> {
        d.settle();
        (0..25).map(|i| d.live_pump(i).unwrap().stats_so_far().tape.withheld).collect()
    };
    let (mut before, mut after, mut people_events, mut in_people) =
        (Vec::new(), Vec::new(), 0u64, false);
    while let Some(ev) = reader.next_resolved().unwrap() {
        if matches!(ev, ResolvedEvent::Start(_, "people")) {
            before = withheld(&mut driver);
            in_people = true;
        }
        people_events += u64::from(in_people);
        let closes_people = matches!(ev, ResolvedEvent::End(_, "people"));
        driver.feed_event(ev);
        if closes_people {
            after = withheld(&mut driver);
            in_people = false;
        }
    }
    assert!(people_events > 1000, "the people subtree spans several persons");
    for i in 0..25 {
        let held = after[i] - before[i];
        assert!(
            2 * held > people_events,
            "Q1 #{i} withheld {held} of the {people_events} events inside people"
        );
    }
    for out in driver.finish() {
        out.unwrap().0.unwrap();
    }
}

/// Random queries over random documents — valid ones and ones broken by an
/// inserted unknown, misplaced or extra element, inserted character data,
/// or truncation at a tag boundary — under a strongly ordered schema and a
/// variant whose `book` has mixed content: every subscriber of a set and
/// every single session, at a random feed size, ends with the
/// never-parking reference's outcome (statistics or error text) and sink
/// bytes, wherever its schedule parked.
#[test]
fn random_queries_park_exactly_on_valid_and_broken_documents() {
    const MIXED_DTD: &str = "<!ELEMENT lib (shelf*,meta?)>\
        <!ELEMENT shelf (label,(book|journal)*,loc)>\
        <!ELEMENT book (#PCDATA|title|author|price)*>\
        <!ELEMENT journal (title,issue)><!ELEMENT meta (owner,year)>\
        <!ELEMENT label (#PCDATA)><!ELEMENT loc (#PCDATA)><!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)><!ELEMENT price (#PCDATA)><!ELEMENT issue (#PCDATA)>\
        <!ELEMENT owner (#PCDATA)><!ELEMENT year (#PCDATA)>";
    for dtd_src in [TEST_DTD, MIXED_DTD] {
        let engine = Engine::builder().dtd_str(dtd_src).build().unwrap();
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = random_doc(engine.dtd(), seed).to_xml();
            let mut registry = QueryRegistry::new();
            let mut queries = Vec::new();
            for k in 0..4 {
                if let Ok(q) = engine.prepare_expr(&random_query(engine.dtd(), seed * 4 + k)) {
                    registry.register(format!("q{k}"), q.clone());
                    queries.push((format!("q{k}"), q));
                }
            }
            let ids: Vec<&str> = queries.iter().map(|(id, _)| id.as_str()).collect();
            let set = SubscriptionSet::compile_subset(&registry, &ids).unwrap();
            let tags: Vec<usize> = base.match_indices('>').map(|(i, _)| i + 1).collect();
            let at = tags[rng.random_range(0..tags.len())];
            let (head, tail) = base.split_at(at);
            let doc = match rng.random_range(0..6u32) {
                0 => base.clone(),
                1 => format!("{head}<bogus/>{tail}"),
                2 => format!("{head}junk{tail}"),
                3 => format!("{head}<title>t</title>{tail}"),
                4 => format!("{head}<price>9</price>{tail}"),
                _ => head.to_string(),
            };
            let feed = [1, 3, 7, 64, 4096][rng.random_range(0..5usize)];
            let refs: Vec<_> = queries.iter().map(|(_, q)| run_reference(q, &doc)).collect();
            let mut shared = set.session_strings();
            for c in doc.as_bytes().chunks(feed) {
                let _ = shared.feed(c);
            }
            for (i, ((res, sink), (ref_res, ref_out))) in
                shared.finish_parts().into_iter().zip(&refs).enumerate()
            {
                let at = format!("seed {seed}, set sub {i}, feed {feed}\ndoc {doc}");
                assert_eq!(engine_error(res), *ref_res, "{at}");
                assert_eq!(sink.unwrap().as_str(), ref_out, "{at}");
            }
            for (i, ((_, q), (ref_res, ref_out))) in queries.iter().zip(&refs).enumerate() {
                let mut s = q.session_string();
                for c in doc.as_bytes().chunks(feed) {
                    let _ = s.feed(c);
                }
                let (res, sink) = s.finish_parts();
                let at = format!("seed {seed}, session {i}, feed {feed}\ndoc {doc}");
                assert_eq!(engine_error(res), *ref_res, "{at}");
                assert_eq!(sink.unwrap().as_str(), ref_out, "{at}");
            }
        }
    }
}
