//! Delivery transparency: the batched event tape and the reader-level
//! subtree skip are perf machinery, never observable.
//!
//! The oracle is the engine's per-event reference run,
//! [`CompiledQuery::run_sink`](flux::engine::CompiledQuery::run_sink): it
//! pulls every event from a plain reader and feeds it to the machine —
//! no tape, no batching, no skipping at the reader. Every session-level
//! path must match it byte for byte, outputs and statistics: at every
//! two-chunk split offset, through the `run_to` BufRead path with a tiny
//! buffer, and for each subscriber of an M=3 shared fan-out. Snapshots
//! taken at every offset restore, re-snapshot to identical bytes, and
//! finish the reference. (The reader's own tape-vs-pull equivalence at
//! every offset and scanner backend lives in
//! `crates/xml/tests/tape_equivalence.rs`.)

use std::io::BufReader;

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

const STRONG_DTD: &str = "<!ELEMENT bib (book)*>\
    <!ELEMENT book (title,(author+|editor+),publisher,price)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
    <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const Q3: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";
const STRONG_DOC: &str = "<bib>\
    <book><title>Größenwahn &amp; Mäßigung</title><author>Köch</author><author>Señor</author>\
    <publisher>VLDB €</publisher><price>65</price></book>\
    <book><title>Web</title><editor>Abiteboul</editor><publisher>MK</publisher>\
    <price>39</price></book></bib>";
const WEAK_DOC: &str = "<bib><book><title>T1</title><author>A1</author><title>T1b</title>\
    <author>Ä2</author></book><book><author>B1</author></book></bib>";

fn prepare(dtd: &str, query: &str) -> PreparedQuery {
    Engine::builder().dtd_str(dtd).build().unwrap().prepare(query).unwrap()
}

/// The per-event reference run: output and stats.
fn reference(q: &PreparedQuery, doc: &str) -> (String, RunStats) {
    let (res, sink) = q.compiled().run_sink(doc.as_bytes(), StringSink::new());
    (sink.into_string(), res.unwrap())
}

/// Feed `doc` split at `at` into a session of `q` and return its outcome.
fn run_split(q: &PreparedQuery, doc: &[u8], at: usize) -> (RunStats, String) {
    let mut s = q.session_string();
    s.feed(&doc[..at]).expect("prefix feeds clean");
    s.feed(&doc[at..]).expect("suffix feeds clean");
    let fin = s.finish().unwrap_or_else(|e| panic!("finish at split {at}: {e}"));
    (fin.stats, fin.sink.into_string())
}

#[track_caller]
fn assert_matches_reference(dtd: &str, query: &str, doc: &str) {
    let q = prepare(dtd, query);
    let (ref_out, ref_stats) = reference(&q, doc);
    // One-shot: run_str drives a session over the tape.
    let got = q.run_str(doc).unwrap();
    assert_eq!(got.output, ref_out, "one-shot output differs");
    assert_eq!(got.stats, ref_stats, "one-shot stats differ");
    // Every two-chunk split.
    for at in 0..=doc.len() {
        let (stats, out) = run_split(&q, doc.as_bytes(), at);
        assert_eq!(out, ref_out, "output differs at split {at}");
        assert_eq!(stats, ref_stats, "stats differ at split {at}");
    }
}

#[test]
fn streaming_plan_is_delivery_invariant_at_every_split() {
    // Zero-buffer plan: pure event-loop path, skip fast-forwarding live.
    assert_matches_reference(STRONG_DTD, Q3, STRONG_DOC);
}

#[test]
fn buffering_plan_is_delivery_invariant_at_every_split() {
    // The weak schema forces author buffering: capture/replay under tape
    // batches must byte-match the per-event run, peak included.
    assert_matches_reference(WEAK_DTD, Q3, WEAK_DOC);
}

#[test]
fn all_five_paper_queries_are_delivery_invariant() {
    let (doc, _) = generate_string(&XmarkConfig::new(2 << 10));
    for q in PAPER_QUERIES {
        assert_matches_reference(XMARK_DTD, q.source, &doc);
    }
}

#[test]
fn run_to_buffered_reads_are_delivery_invariant() {
    // The BufRead path with a 7-byte buffer: the session sees dozens of
    // tiny feeds (every batch ends NeedMoreData). Output bytes and stats
    // must agree with the per-event reference.
    let q = prepare(STRONG_DTD, Q3);
    let (ref_out, ref_stats) = reference(&q, STRONG_DOC);
    let mut sink = StringSink::new();
    let reader = BufReader::with_capacity(7, STRONG_DOC.as_bytes());
    let stats = q.run_to(reader, &mut sink).unwrap();
    assert_eq!(sink.as_str(), ref_out);
    assert_eq!(stats, ref_stats);
}

#[test]
fn snapshots_restore_and_resnapshot_identically_at_every_offset() {
    // At every offset: snapshot the prefix, restore it, and re-snapshot
    // the restored session before it is fed — the FLXS v1 bytes must be
    // identical (the tape and any pending reader-level skip leave no
    // trace). Then finish the restored session against the reference.
    let q = prepare(STRONG_DTD, Q3);
    let doc = STRONG_DOC.as_bytes();
    let (ref_out, ref_stats) = reference(&q, STRONG_DOC);
    for at in 0..=doc.len() {
        let snap = {
            let mut s = q.session(flux_xml::writer::NullSink::default());
            s.feed(&doc[..at]).unwrap();
            s.snapshot().unwrap_or_else(|e| panic!("snapshot at {at}: {e}"))
        };
        let mut resumed = q
            .restore_session(StringSink::new(), &snap)
            .unwrap_or_else(|e| panic!("restore at {at}: {e}"));
        assert_eq!(resumed.snapshot().unwrap(), snap, "re-snapshot differs at offset {at}");
        resumed.feed(&doc[at..]).unwrap();
        let fin = resumed.finish().unwrap_or_else(|e| panic!("finish at {at}: {e}"));
        assert_eq!(fin.stats, ref_stats, "stats differ at {at}");
        assert!(
            ref_out.ends_with(fin.sink.as_str()),
            "suffix output at {at} does not complete the reference"
        );
    }
}

#[test]
fn shared_fanout_is_delivery_invariant_at_every_split() {
    const DTD: &str = "<!ELEMENT bib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const DOC: &str = "<bib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        </bib>";
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let mut reg = QueryRegistry::new();
    for (id, query) in [
        ("books", "<books>{ for $b in $ROOT/bib/book return <hit> {$b/title} </hit> }</books>"),
        (
            "articles",
            "<articles>{ for $a in $ROOT/bib/article return <hit> {$a/headline} </hit> }</articles>",
        ),
        ("authors", "<authors>{ for $b in $ROOT/bib/book return {$b/author} }</authors>"),
    ] {
        reg.register(id, engine.prepare(query).unwrap());
    }
    let set = SubscriptionSet::compile(&reg).unwrap();
    assert_eq!(set.len(), 3);

    // Independent per-event reference run for each subscriber.
    let references: Vec<(String, RunStats)> =
        set.ids().iter().map(|id| reference(reg.get(id).unwrap(), DOC)).collect();

    for at in 0..=DOC.len() {
        let mut s = set.session_strings();
        s.feed(&DOC.as_bytes()[..at]).unwrap();
        s.feed(&DOC.as_bytes()[at..]).unwrap();
        for (i, ((res, sink), (ref_out, ref_stats))) in
            s.finish_parts().into_iter().zip(&references).enumerate()
        {
            let stats = res.unwrap_or_else(|e| panic!("sub {i} at {at}: {e}"));
            assert_eq!(stats, *ref_stats, "sub {i} stats differ at split {at}");
            assert_eq!(sink.unwrap().as_str(), *ref_out, "sub {i} output differs at split {at}");
        }
    }
}

#[test]
fn tape_telemetry_reflects_the_active_mode() {
    // Not an equivalence property but the observability contract: session
    // runs report batches and account for every event on the tape (the
    // counters are excluded from stats equality and snapshots).
    let q = prepare(STRONG_DTD, Q3);
    let stats = q.run_str(STRONG_DOC).unwrap().stats;
    assert!(stats.tape.batches > 0, "tape run must count batches");
    assert_eq!(stats.tape.events, stats.events, "every event rides the tape");
}
