//! Seeded inputs and their oracle-checked references.
//!
//! Every document and every query constant (person ids, regions) derives
//! from the workload seed; the program under test only sees the generated
//! bytes and query texts. Before any timing, each (query, document) output
//! is compared byte for byte with a reference: the DOM baseline for the
//! in-process workloads, the one-shot `PreparedQuery::run_str` for fan-out
//! subscribers and the server. Timed ops are then checked by output length
//! and hash against that reference.

use std::sync::Arc;

use crate::spans::Spans;
use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, XmarkSummary, Q1, Q11, Q13, Q20, Q8, XMARK_DTD};

/// Feed size of every chunked session, in bytes.
pub const CHUNK: usize = 4 << 10;

/// The six XMark regions Q13 can select.
pub const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];

/// SplitMix64: a small, fixed generator for seed derivation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream `tag`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// What a correct output looks like: its length and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Output length in bytes.
    pub len: usize,
    /// FNV-1a of the output.
    pub hash: u64,
}

impl Expect {
    /// The expectation `bytes` meet.
    pub fn of(bytes: &[u8]) -> Expect {
        Expect { len: bytes.len(), hash: fnv1a(bytes) }
    }

    /// Check an op's output against the reference.
    pub fn check(&self, bytes: &[u8]) -> Result<(), String> {
        if bytes.len() != self.len {
            return Err(format!("output is {} bytes, reference {}", bytes.len(), self.len));
        }
        if fnv1a(bytes) != self.hash {
            return Err("output differs from the reference".to_string());
        }
        Ok(())
    }
}

/// An XMark document of about `target_bytes`, generated from `seed`.
pub fn xmark(target_bytes: usize, seed: u64) -> (String, XmarkSummary) {
    generate_string(&XmarkConfig { target_bytes, seed, ..XmarkConfig::new(target_bytes) })
}

/// The engine every workload prepares its queries on.
pub fn engine() -> Result<Engine, String> {
    Engine::builder().dtd_str(XMARK_DTD).build().map_err(|e| format!("XMark DTD: {e}"))
}

/// Q1 looking up `person{k}`.
pub fn q1_for(k: usize) -> String {
    Q1.replace("'person0'", &format!("'person{k}'"))
}

/// Q13 over the items of `region`.
pub fn q13_for(region: &str) -> String {
    Q13.replace("/australia/", &format!("/{region}/"))
}

/// One prepared query with its expected output on its workload's document.
#[derive(Clone)]
pub struct Case {
    /// Short label (`q1`, `q8`, …).
    pub name: String,
    /// The prepared query.
    pub query: PreparedQuery,
    /// Its reference output on the workload's document.
    pub expect: Expect,
    /// The reference run's statistics.
    pub stats: RunStats,
}

/// Prepare `src` and check its one-shot output on `doc` byte for byte
/// against the DOM baseline.
pub fn dom_checked(engine: &Engine, name: &str, src: &str, doc: &str) -> Result<Case, String> {
    let query = engine.prepare(src).map_err(|e| format!("{name}: prepare: {e}"))?;
    let run = query.run_str(doc).map_err(|e| format!("{name}: one-shot run: {e}"))?;
    let expr = parse_xquery(src).map_err(|e| format!("{name}: parse: {e}"))?;
    let dom = DomEngine::default()
        .prepare(&expr)
        .run(doc.as_bytes())
        .map_err(|e| format!("{name}: DOM baseline: {e}"))?;
    if run.output != dom.output {
        return Err(format!("{name}: FluX output differs from the DOM baseline"));
    }
    Ok(Case {
        name: name.to_string(),
        query,
        expect: Expect::of(dom.output.as_bytes()),
        stats: run.stats,
    })
}

/// The stream-lean inputs: Q1, Q13 and Q20 over one 16 MB document.
pub struct Lean {
    /// The document.
    pub doc: String,
    /// Q1 (seeded person id), Q13, Q20, checked against the DOM baseline.
    pub cases: Vec<Case>,
}

impl Lean {
    /// Generate and check the inputs for `seed`.
    pub fn build(engine: &Engine, seed: u64) -> Result<Lean, String> {
        let (doc, summary) = xmark(16 << 20, Rng::new(seed, 1).next_u64());
        let person = Rng::new(seed, 2).below(summary.persons.max(1));
        let cases = vec![
            dom_checked(engine, "q1", &q1_for(person), &doc)?,
            dom_checked(engine, "q13", Q13, &doc)?,
            dom_checked(engine, "q20", Q20, &doc)?,
        ];
        Ok(Lean { doc, cases })
    }
}

/// The buffer-join inputs: Q8 and Q11 over one 1 MB document.
pub struct Join {
    /// The document.
    pub doc: String,
    /// Q8 and Q11, checked against the DOM baseline.
    pub cases: Vec<Case>,
}

impl Join {
    /// Generate and check the inputs for `seed`.
    pub fn build(engine: &Engine, seed: u64) -> Result<Join, String> {
        let (doc, _) = xmark(1 << 20, Rng::new(seed, 3).next_u64());
        let cases =
            vec![dom_checked(engine, "q8", Q8, &doc)?, dom_checked(engine, "q11", Q11, &doc)?];
        Ok(Join { doc, cases })
    }
}

/// The fanout-32 inputs: one subscription set of 32 queries over a 4 MB
/// document.
pub struct Fanout {
    /// The document.
    pub doc: String,
    /// Q1 for 25 seeded person ids, Q13 for each region, and Q20, in
    /// subscription order; each reference is its one-shot run.
    pub subs: Vec<Case>,
    /// The compiled set, subscribers in `subs` order.
    pub set: SubscriptionSet,
}

impl Fanout {
    /// Generate and check the inputs for `seed`.
    pub fn build(engine: &Engine, seed: u64) -> Result<Fanout, String> {
        let (doc, summary) = xmark(4 << 20, Rng::new(seed, 4).next_u64());
        let mut rng = Rng::new(seed, 5);
        let persons = summary.persons.max(25);
        let mut ids: Vec<usize> = Vec::new();
        while ids.len() < 25 {
            let k = rng.below(persons);
            if !ids.contains(&k) {
                ids.push(k);
            }
        }
        let mut sources: Vec<(String, String)> =
            ids.iter().map(|&k| (format!("q1.person{k}"), q1_for(k))).collect();
        sources.extend(REGIONS.iter().map(|r| (format!("q13.{r}"), q13_for(r))));
        sources.push(("q20".to_string(), Q20.to_string()));
        let mut registry = QueryRegistry::new();
        let mut subs = Vec::with_capacity(sources.len());
        for (name, src) in &sources {
            let query = engine.prepare(src).map_err(|e| format!("{name}: prepare: {e}"))?;
            let run = query.run_str(&doc).map_err(|e| format!("{name}: one-shot run: {e}"))?;
            registry.register(name.clone(), query.clone());
            subs.push(Case {
                name: name.clone(),
                query,
                expect: Expect::of(run.output.as_bytes()),
                stats: run.stats,
            });
        }
        let set = SubscriptionSet::compile_subset(
            &registry,
            &sources.iter().map(|s| &s.0).collect::<Vec<_>>(),
        )
        .map_err(|e| format!("fan-out set: {e}"))?;
        // Check every subscriber of one shared pass against its one-shot run.
        let outputs = run_shared(&set, doc.as_bytes(), &mut Spans::off(), 0)?;
        for (case, (out, _)) in subs.iter().zip(&outputs) {
            case.expect
                .check(out.as_str().as_bytes())
                .map_err(|e| format!("{}: shared run: {e}", case.name))?;
        }
        Ok(Fanout { doc, subs, set })
    }
}

/// One shared pass of `set` over `doc` in `CHUNK`-byte feeds, recording
/// the feeds and the finish as spans of op `op`; each subscriber's sink
/// and statistics.
pub fn run_shared(
    set: &SubscriptionSet,
    doc: &[u8],
    spans: &mut Spans,
    op: u64,
) -> Result<Vec<(StringSink, RunStats)>, String> {
    let mut session = set.session(vec![StringSink::new(); set.len()]);
    for chunk in doc.chunks(CHUNK) {
        spans
            .span("engine.fanout.feed", op, |_| session.feed(chunk))
            .map_err(|e| format!("shared feed: {e}"))?;
    }
    spans
        .span("engine.fanout.finish_parts", op, |_| session.finish_parts())
        .into_iter()
        .map(|(res, sink)| match (res, sink) {
            (Ok(stats), Some(sink)) => Ok((sink, stats)),
            (Err(e), _) => Err(format!("shared subscriber: {e}")),
            (Ok(_), None) => Err("shared subscriber lost its sink".to_string()),
        })
        .collect()
}

/// How one serve-small document is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Open {
    /// A single-query OPEN of query `k` (Q1, Q13, Q20).
    Single(usize),
    /// One multi-OPEN of all three queries.
    All,
}

/// The opening of the `j`-th document a client sends: Q1, Q13, Q20 in
/// rotation, with every fourth a multi-OPEN of all three.
pub fn open_of(j: usize) -> Open {
    match j % 4 {
        3 => Open::All,
        k => Open::Single(k),
    }
}

/// Documents in the serve-small mix.
pub const SERVE_DOCS: usize = 16;

/// One serve-small document, pre-chunked, with its references.
pub struct ServeDoc {
    /// The document.
    pub bytes: Vec<u8>,
    /// The document in `CHUNK`-byte pieces, shareable across threads.
    pub chunks: Vec<Arc<[u8]>>,
    /// Reference output of Q1, Q13, Q20 (one-shot runs).
    pub expect: [Expect; 3],
    /// The one-shot runs' statistics.
    pub stats: [RunStats; 3],
}

/// The serve-small inputs: 16 documents of 16 KiB and the three queries.
pub struct ServeMix {
    /// The documents.
    pub docs: Vec<ServeDoc>,
    /// Registry ids of Q1, Q13, Q20.
    pub ids: [&'static str; 3],
    /// The queries, prepared.
    pub queries: [PreparedQuery; 3],
    /// The three queries as one subscription set (the multi-OPEN shape).
    pub set: SubscriptionSet,
    /// The registry a server serves.
    pub registry: QueryRegistry,
}

impl ServeMix {
    /// Generate and check the inputs for `seed`.
    pub fn build(engine: &Engine, seed: u64) -> Result<ServeMix, String> {
        let mut rng = Rng::new(seed, 6);
        let generated: Vec<(String, XmarkSummary)> =
            (0..SERVE_DOCS).map(|_| xmark(16 << 10, rng.next_u64())).collect();
        let persons = generated.iter().map(|(_, s)| s.persons).min().unwrap_or(1).max(1);
        let person = Rng::new(seed, 7).below(persons);
        let ids = ["q1", "q13", "q20"];
        let sources = [q1_for(person), Q13.to_string(), Q20.to_string()];
        let mut registry = QueryRegistry::new();
        let mut queries = Vec::new();
        for (id, src) in ids.iter().zip(&sources) {
            let q = engine.prepare(src).map_err(|e| format!("{id}: prepare: {e}"))?;
            registry.register(*id, q.clone());
            queries.push(q);
        }
        let queries: [PreparedQuery; 3] =
            queries.try_into().map_err(|_| "three serve queries".to_string())?;
        let set = SubscriptionSet::compile_subset(&registry, &ids)
            .map_err(|e| format!("serve set: {e}"))?;
        let mut docs = Vec::with_capacity(SERVE_DOCS);
        for (doc, _) in generated {
            let mut expect = [Expect { len: 0, hash: 0 }; 3];
            let mut stats = [RunStats::default(), RunStats::default(), RunStats::default()];
            for (k, q) in queries.iter().enumerate() {
                let run = q.run_str(&doc).map_err(|e| format!("{}: one-shot run: {e}", ids[k]))?;
                expect[k] = Expect::of(run.output.as_bytes());
                stats[k] = run.stats;
            }
            let bytes = doc.into_bytes();
            let chunks = bytes.chunks(CHUNK).map(Arc::from).collect();
            docs.push(ServeDoc { bytes, chunks, expect, stats });
        }
        Ok(ServeMix { docs, ids, queries, set, registry })
    }

    /// The largest peak buffer of any (document, query) run in the mix.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.docs
            .iter()
            .flat_map(|d| d.stats.iter().map(|s| s.peak_buffer_bytes))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_tag() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut b = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert!((0..100).all(|_| b.below(6) < 6));
    }

    #[test]
    fn expectations_catch_length_and_content() {
        let e = Expect::of(b"<r>x</r>");
        assert!(e.check(b"<r>x</r>").is_ok());
        assert!(e.check(b"<r>y</r>").is_err());
        assert!(e.check(b"<r></r>").is_err());
    }

    #[test]
    fn query_constants_are_substituted() {
        assert!(q1_for(42).contains("'person42'"));
        assert!(!q1_for(42).contains("'person0'"));
        assert!(q13_for("europe").contains("/site/regions/europe/item"));
    }

    #[test]
    fn opens_rotate_with_every_fourth_shared() {
        let opens: Vec<Open> = (0..8).map(open_of).collect();
        assert_eq!(opens[..4], [Open::Single(0), Open::Single(1), Open::Single(2), Open::All]);
        assert_eq!(opens[4..], opens[..4]);
    }

    #[test]
    fn serve_mix_matches_its_references() {
        let engine = engine().unwrap();
        let mix = ServeMix::build(&engine, 3).unwrap();
        assert_eq!(mix.docs.len(), SERVE_DOCS);
        let again = ServeMix::build(&engine, 3).unwrap();
        assert!(mix.docs.iter().zip(&again.docs).all(|(a, b)| a.bytes == b.bytes));
        let other = ServeMix::build(&engine, 4).unwrap();
        assert!(mix.docs[0].bytes != other.docs[0].bytes);
        let shared = run_shared(&mix.set, &mix.docs[0].bytes, &mut Spans::off(), 0).unwrap();
        for (k, (sink, _)) in shared.iter().enumerate() {
            mix.docs[0].expect[k].check(sink.as_str().as_bytes()).unwrap();
        }
    }
}
