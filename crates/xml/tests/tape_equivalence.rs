//! Tape-vs-pull equivalence at the tokenizer layer: the batched event
//! tape is a delivery mechanism, never an observable one.
//!
//! Every test drives the same incremental [`Reader`] twice — once pulling
//! events one at a time through [`Reader::poll_resolved`], once draining
//! [`Reader::fill_tape`] batches — and asserts the materialized event
//! streams are identical: per classification backend the host can run,
//! with the input chunk-split at *every* byte offset, across batch
//! boundaries forced by both the event-count and arena-byte caps, and in
//! the presence of parse errors (the taped prefix must be delivered
//! before the error surfaces, exactly as the pull loop would).
//!
//! The structural skip ([`Reader::skip_events`]) is pinned the same way:
//! skipping a subtree must leave the reader exactly where pulling its
//! events one by one would — same count, same next event, same offset,
//! depth and error, and byte-identical saved state at every point the
//! fed bytes run out.

use flux_xml::scan::{Scanner, ScannerChoice};
use flux_xml::{
    AttributeMode, EventTape, OwnedEvent, Polled, Reader, ReaderOptions, SkipPoll, TapeFill,
    XmlError,
};

/// One forced choice per backend this host can actually run (forcing a
/// kernel the CPU lacks degrades, so dedup on the selected backend).
fn backends() -> Vec<ScannerChoice> {
    let mut out: Vec<(ScannerChoice, flux_xml::Backend)> = Vec::new();
    for choice in [ScannerChoice::ForceSwar, ScannerChoice::ForceSse2, ScannerChoice::ForceAvx2] {
        let b = Scanner::with_choice(choice).backend();
        if out.iter().all(|&(_, seen)| seen != b) {
            out.push((choice, b));
        }
    }
    out.into_iter().map(|(c, _)| c).collect()
}

fn opts(choice: ScannerChoice) -> ReaderOptions {
    ReaderOptions { scanner: choice, ..ReaderOptions::default() }
}

/// Events up to (not including) the first error, pulled one at a time,
/// with the document fed as two chunks split at `split`.
fn pull_split(
    choice: ScannerChoice,
    doc: &[u8],
    split: usize,
) -> (Vec<OwnedEvent>, Option<XmlError>) {
    let chunks = [&doc[..split], &doc[split..]];
    let mut r = Reader::incremental(opts(choice));
    let mut out = Vec::new();
    let mut next = 0usize;
    loop {
        match r.poll_resolved() {
            Ok(Polled::Event(ev)) => out.push(ev.to_event().to_owned()),
            Ok(Polled::NeedMoreData) => {
                if next < chunks.len() {
                    r.feed(chunks[next]);
                    next += 1;
                } else {
                    r.close();
                }
            }
            Ok(Polled::End) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

/// The same stream drained through the event tape. Also returns the
/// number of non-empty batches, so tests can assert a cap really forced
/// multiple fills.
fn tape_split(
    choice: ScannerChoice,
    doc: &[u8],
    split: usize,
) -> (Vec<OwnedEvent>, Option<XmlError>, u64) {
    let chunks = [&doc[..split], &doc[split..]];
    let mut r = Reader::incremental(opts(choice));
    let mut tape = EventTape::new();
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut batches = 0u64;
    loop {
        let fill = r.fill_tape(&mut tape);
        // Drain before inspecting the fill result: events taped ahead of
        // an error are part of the stream, exactly as in the pull loop.
        if !tape.is_empty() {
            batches += 1;
            for i in 0..tape.len() {
                out.push(r.tape_event(&tape, i).to_event().to_owned());
            }
            tape.clear();
        }
        match fill {
            Ok(TapeFill::Full) => {}
            Ok(TapeFill::NeedMoreData) => {
                if next < chunks.len() {
                    r.feed(chunks[next]);
                    next += 1;
                } else {
                    r.close();
                }
            }
            Ok(TapeFill::End) => return (out, None, batches),
            Err(e) => return (out, Some(e), batches),
        }
    }
}

#[track_caller]
fn assert_tape_matches_pull(doc: &str) -> u64 {
    let mut max_batches = 0;
    for choice in backends() {
        for split in 0..=doc.len() {
            let (pull, pull_err) = pull_split(choice, doc.as_bytes(), split);
            let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), split);
            assert_eq!(tape, pull, "{choice:?} split {split}: event streams diverge");
            assert_eq!(tape_err, pull_err, "{choice:?} split {split}: errors diverge");
            max_batches = max_batches.max(batches);
        }
    }
    max_batches
}

#[test]
fn tape_matches_pull_at_every_split_on_every_backend() {
    // The scan-equivalence stress document: attributes in both quote
    // kinds, entities, comments with `>`, CDATA, multi-byte text — every
    // construct a split can land inside.
    assert_tape_matches_pull(
        "<r a=\"1&gt;2\" b='&amp;'>pad<!-- x > y --><![CDATA[<&]]>é&lt;<e/>t</r>",
    );
}

#[test]
fn structural_bytes_at_every_simd_alignment_tape_identically() {
    // Slide entity-escaped text across a full 64-byte classification
    // window so tape batch anchoring sees a structural byte at every
    // alignment. Single split (whole doc) keeps this O(64) parses.
    for off in 0..64 {
        let pad = "a".repeat(off);
        let doc = format!("<r>{pad}&lt;&amp;&gt;z<e a=\"{pad}\"/></r>");
        for choice in backends() {
            let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len());
            let (tape, tape_err, _) = tape_split(choice, doc.as_bytes(), doc.len());
            assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?} offset {off}");
        }
    }
}

#[test]
fn event_count_cap_forces_multiple_batches_invisibly() {
    // ~1800 events (> the 1024-event batch cap): the stream must cross a
    // batch seam mid-document and still match the pull run byte for byte.
    let mut doc = String::from("<r>");
    for i in 0..600 {
        doc.push_str(&format!("<e i=\"{i}\">t{i}</e>"));
    }
    doc.push_str("</r>");
    for choice in backends() {
        let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len() / 2);
        let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), doc.len() / 2);
        assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?}");
        assert!(batches > 1, "{choice:?}: expected the event cap to split batches ({batches})");
    }
}

#[test]
fn arena_byte_cap_forces_multiple_batches_invisibly() {
    // Few events but entity-heavy kilobyte texts: every text unescapes
    // into the tape arena, overflowing its byte cap long before the event
    // cap. Batches must end early and the stream must not change.
    // ~600 B of *unescaped* arena bytes per element (the arena holds the
    // decoded text, so `&amp;` counts as one byte); 80 elements ≈ 47 KiB,
    // past the 32 KiB cap.
    let chunk = "x&amp;y".repeat(200);
    let mut doc = String::from("<r>");
    for _ in 0..80 {
        doc.push_str(&format!("<e>{chunk}</e>"));
    }
    doc.push_str("</r>");
    for choice in backends() {
        let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len());
        let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), doc.len());
        assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?}");
        assert!(batches > 1, "{choice:?}: expected the arena cap to split batches ({batches})");
    }
}

#[test]
fn errors_surface_after_the_taped_prefix_at_every_split() {
    // Malformed documents: the tape must deliver exactly the events the
    // pull loop would have delivered before the error, then the *same*
    // error. Prefix divergence here would make tape-mode session aborts
    // observable.
    for doc in [
        "<r><a>text</a>",      // truncated document
        "<r><a>x</a></s>",     // mismatched end tag
        "<r><e a=>x</e></r>",  // malformed attribute
        "<r>&bogus;</r>",      // unknown entity
        "<r><a>ok</a>tail</r", // truncated end tag
    ] {
        assert_tape_matches_pull(doc);
    }
}

/// What one run over a document observed around the subtree of its
/// `k`-th start event (0-based, counted over the delivered stream).
#[derive(Debug, PartialEq)]
struct SkipTrace {
    /// Events delivered up to and including the `k`-th start.
    before: Vec<OwnedEvent>,
    /// Interior events of the subtree (set once it closed).
    interior: Option<u64>,
    /// `depth()` once the subtree's interior is behind the reader.
    depth_at_close: Option<usize>,
    /// Events from the subtree's closing end tag on.
    after: Vec<OwnedEvent>,
    /// `(offset(), depth())` right after the closing end tag was delivered.
    after_close: Option<(u64, usize)>,
    /// `state_save` bytes at every point the fed bytes ran out.
    saves: Vec<Vec<u8>>,
    err: Option<XmlError>,
    /// `(offset(), depth())` when the run ended.
    end: (u64, usize),
}

/// Where a [`skip_trace`] run stands relative to the target subtree.
enum Phase {
    Before,
    /// Inside the subtree, `depth` unclosed levels deep.
    Inside {
        depth: u32,
    },
    After,
}

/// Drive `doc` (split into two chunks at `split`) through an incremental
/// reader, pulling every event with `poll_resolved` — except that after
/// the `k`-th start event, a `skip` run fast-forwards the subtree with
/// `skip_events(1)` where the reference run pulls and counts its interior
/// events. `None` when the document has no `k`-th start.
fn skip_trace(
    opts: ReaderOptions,
    doc: &[u8],
    split: usize,
    k: usize,
    skip: bool,
) -> Option<SkipTrace> {
    let chunks = [&doc[..split], &doc[split..]];
    let mut r = Reader::incremental(opts);
    let mut tape = EventTape::new();
    let mut t = SkipTrace {
        before: Vec::new(),
        interior: None,
        depth_at_close: None,
        after: Vec::new(),
        after_close: None,
        saves: Vec::new(),
        err: None,
        end: (0, 0),
    };
    let mut phase = Phase::Before;
    let mut starts = 0usize;
    let mut interior = 0u64;
    // Reference run: `depth()` after the latest event inside the subtree.
    let mut inner_depth = 0usize;
    // Skip run: `(interior, depth())` once the skip reported `Closed`,
    // committed to the trace when the closing end tag is delivered.
    let mut closing = None;
    let mut next = 0usize;
    let mut feed = |r: &mut Reader<flux_xml::FeedSource>, saves: &mut Vec<Vec<u8>>| {
        let mut enc = flux_state::Enc::new();
        r.state_save(&mut enc).expect("quiescent when out of bytes");
        saves.push(enc.into_bytes());
        if next < chunks.len() {
            r.feed(chunks[next]);
            next += 1;
        } else {
            r.close();
        }
    };
    loop {
        if let (Phase::Inside { depth }, true) = (&phase, skip) {
            match r.skip_events(*depth, &mut tape) {
                Ok(SkipPoll::More { events, depth }) => {
                    interior += events;
                    phase = Phase::Inside { depth };
                    feed(&mut r, &mut t.saves);
                }
                Ok(SkipPoll::Closed { events }) => {
                    closing = Some((interior + events, r.depth()));
                    phase = Phase::After;
                    if !tape.is_empty() {
                        assert_eq!(tape.len(), 1, "only the closing end tag rides the tape");
                        t.after.push(r.tape_event(&tape, 0).to_event().to_owned());
                        tape.clear();
                        t.after_close = Some((r.offset(), r.depth()));
                        (t.interior, t.depth_at_close) = (Some(interior + events), Some(r.depth()));
                    }
                }
                Err(e) => {
                    t.err = Some(e);
                    break;
                }
            }
            continue;
        }
        match r.poll_resolved() {
            Ok(Polled::Event(ev)) => {
                let is_start = matches!(ev, flux_xml::ResolvedEvent::Start(..));
                let is_end = matches!(ev, flux_xml::ResolvedEvent::End(..));
                let owned = ev.to_event().to_owned();
                match &mut phase {
                    Phase::Before => {
                        t.before.push(owned);
                        if is_start {
                            if starts == k {
                                phase = Phase::Inside { depth: 1 };
                                inner_depth = r.depth();
                            }
                            starts += 1;
                        }
                    }
                    Phase::Inside { depth } => {
                        if is_end && *depth == 1 {
                            t.interior = Some(interior);
                            t.depth_at_close = Some(inner_depth);
                            t.after.push(owned);
                            t.after_close = Some((r.offset(), r.depth()));
                            phase = Phase::After;
                        } else {
                            if is_start {
                                *depth += 1;
                            } else if is_end {
                                *depth -= 1;
                            }
                            interior += 1;
                            inner_depth = r.depth();
                        }
                    }
                    Phase::After => {
                        if t.after_close.is_none() {
                            // The skip left the closing end tag unconsumed:
                            // this is it, and only now is the subtree known
                            // to close (a mismatch surfaces here instead).
                            t.after_close = Some((r.offset(), r.depth()));
                            let (n, d) = closing.expect("a skip closed the subtree");
                            (t.interior, t.depth_at_close) = (Some(n), Some(d));
                        }
                        t.after.push(owned);
                    }
                }
            }
            Ok(Polled::NeedMoreData) => feed(&mut r, &mut t.saves),
            Ok(Polled::End) => break,
            Err(e) => {
                t.err = Some(e);
                break;
            }
        }
    }
    t.end = (r.offset(), r.depth());
    (starts > k).then_some(t)
}

#[track_caller]
fn assert_skip_matches_pull(doc: &str) {
    for choice in backends() {
        for attributes in [AttributeMode::ConvertToSubelements, AttributeMode::Drop] {
            for keep_whitespace in [false, true] {
                let opts = ReaderOptions { attributes, keep_whitespace, scanner: choice };
                for split in 0..=doc.len() {
                    for k in 0.. {
                        let Some(pull) = skip_trace(opts, doc.as_bytes(), split, k, false) else {
                            break;
                        };
                        let skip = skip_trace(opts, doc.as_bytes(), split, k, true)
                            .expect("same stream up to the k-th start");
                        assert_eq!(
                            skip, pull,
                            "{choice:?} {attributes:?} ws={keep_whitespace} split {split} \
                             start #{k}: skip diverges from pull"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn skip_matches_pull_at_every_split_start_and_backend() {
    // Attributes (converted or dropped, both quote kinds, an entity in a
    // value), self-closing tags with and without attributes, entities,
    // CDATA, a comment holding `>`, non-ASCII text and indentation that
    // only `keep_whitespace` reports.
    assert_skip_matches_pull(
        "<r>\n <p id=\"a&amp;b\" k='v'><q/> t&lt;x<!-- c > d --><![CDATA[<&]]>\u{e9}t\n  \
         <s>u</s> <w a=\"1\"/></p>\n <p><e/>z</p></r>",
    );
}

#[test]
fn skip_surfaces_a_mismatched_end_tag_like_pull() {
    // The mismatch sits inside every subtree that encloses it: lean, after
    // an attributed tag, and with a non-ASCII name the general path checks.
    for doc in [
        "<r><a x=\"1\"><b>t</b> </c></a></r>",
        "<r><a><b/>t</a\u{e9}></r>",
        "<r>\n <a>\n  <b>u</b>\n </b>\n</r>",
    ] {
        assert_skip_matches_pull(doc);
    }
}
