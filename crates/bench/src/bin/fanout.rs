//! Shared single-pass fan-out vs M independent runs.
//!
//! The dissemination question behind the fan-out subsystem: with M
//! standing subscriptions over one document stream, how much does parsing
//! the document **once** (a [`SubscriptionSet`] compiled into one shared
//! plan) save over running M independent sessions? Sweeps M ∈ {1, 4, 16,
//! 64} subscribers cycling the paper's *streaming* queries Q1/Q13/Q20
//! (the joins Q8/Q11 are quadratic in document size — their compute would
//! swamp the parse share this benchmark isolates) over an XMark document,
//! and records both modes plus the speedup under the `"fanout"` key of
//! `BENCH_throughput.json` (shared marker protocol — the bench bins run in
//! any order).
//!
//! Both modes run the same facade path (incremental sessions fed in equal
//! chunks) and are verified against the one-shot reference stats, so the
//! ratio compares work, not harness shape. Each M also reports the
//! *withheld share*: of all the events the shared subscribers counted, the
//! fraction the driver never fed them because they were parked
//! (`RunStats.tape.withheld`).
//!
//! Honours `FLUX_BENCH_SAMPLES` and `FLUX_BENCH_FAST=1` (CI smoke run:
//! small document, M ∈ {1, 4, 16}).

use std::fmt::Write as _;
use std::time::Instant;

use flux::prelude::*;
use flux_bench::micro::samples;
use flux_bench::report::merge_section;
use flux_xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux_xml::writer::NullSink;

const CHUNK: usize = 4096;

/// The streaming trio the subscribers cycle through.
const STREAMING: &[&str] = &["Q1", "Q13", "Q20"];

struct Run {
    m: usize,
    shared_seconds: f64,
    independent_seconds: f64,
    speedup: f64,
    shared_mb_per_s: f64,
    withheld_share: f64,
}

fn main() {
    let fast = std::env::var_os("FLUX_BENCH_FAST").is_some();
    let doc_bytes: usize = if fast { 256 << 10 } else { 4 << 20 };
    let fleet: &[usize] = if fast { &[1, 4, 16] } else { &[1, 4, 16, 64] };

    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(doc_bytes));
    let mut registry = QueryRegistry::new();
    let mut references = Vec::new();
    for name in STREAMING {
        let q = PAPER_QUERIES.iter().find(|q| q.name == *name).expect("paper query");
        let prepared = engine.prepare(q.source).unwrap();
        references.push(prepared.run_str(&doc).unwrap().stats);
        registry.register(*name, prepared);
    }

    let n = samples().min(5);
    let bytes = doc.as_bytes();
    let mut runs = Vec::new();
    for &m in fleet {
        let ids: Vec<&str> = (0..m).map(|i| STREAMING[i % STREAMING.len()]).collect();
        let set = SubscriptionSet::compile_subset(&registry, &ids).unwrap();

        // ---- shared: one parse fanned out to all M subscribers ----
        let mut shared_best = f64::MAX;
        let (mut withheld, mut counted) = (0u64, 0u64);
        for _ in 0..n {
            let t = Instant::now();
            let mut session = set.session((0..m).map(|_| NullSink::default()).collect());
            for chunk in bytes.chunks(CHUNK) {
                session.feed(chunk).unwrap();
            }
            for (i, (res, _)) in session.finish_parts().into_iter().enumerate() {
                let stats = res.expect("shared run succeeds");
                assert_eq!(
                    stats,
                    references[i % STREAMING.len()],
                    "shared subscriber must match its one-shot run"
                );
                withheld += stats.tape.withheld;
                counted += stats.events;
            }
            shared_best = shared_best.min(t.elapsed().as_secs_f64());
        }

        // ---- independent: M sessions, each parsing the document itself ----
        let mut indep_best = f64::MAX;
        for _ in 0..n {
            let t = Instant::now();
            let mut sessions: Vec<_> = ids
                .iter()
                .map(|id| registry.get(id).unwrap().session(NullSink::default()))
                .collect();
            for chunk in bytes.chunks(CHUNK) {
                for s in &mut sessions {
                    s.feed(chunk).unwrap();
                }
            }
            for (i, s) in sessions.into_iter().enumerate() {
                let fin = s.finish().expect("independent run succeeds");
                assert_eq!(fin.stats, references[i % STREAMING.len()]);
            }
            indep_best = indep_best.min(t.elapsed().as_secs_f64());
        }

        let speedup = indep_best / shared_best;
        let shared_mb_per_s = bytes.len() as f64 / 1e6 / shared_best;
        let withheld_share = withheld as f64 / counted.max(1) as f64;
        println!(
            "fanout/M={m:<3} shared {shared_best:>8.4}s  independent {indep_best:>8.4}s  \
             speedup {speedup:>6.2}x  withheld {:>5.1}%  (doc {}B, min of {n} samples)",
            100.0 * withheld_share,
            bytes.len(),
        );
        runs.push(Run {
            m,
            shared_seconds: shared_best,
            independent_seconds: indep_best,
            speedup,
            shared_mb_per_s,
            withheld_share,
        });
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let section = render_section(doc.len(), n, &runs);
    let existing = std::fs::read_to_string(path).ok();
    std::fs::write(path, merge_section(existing.as_deref(), "fanout", &section))
        .expect("write BENCH_throughput.json");
    println!("wrote {path}");
}

/// The `"fanout"` section value (hand-rolled JSON — no serde in the
/// offline build).
fn render_section(doc_bytes: usize, samples: usize, runs: &[Run]) -> String {
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut out = format!(
        "{{\"bin\": \"fanout\", \"host_cpus\": {host_cpus}, \"doc_bytes\": {doc_bytes}, \
         \"chunk_bytes\": {CHUNK}, \"queries\": [\"Q1\", \"Q13\", \"Q20\"], \
         \"samples\": {samples}, \"runs\": ["
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"m\": {}, \"shared_seconds\": {:.6}, \"independent_seconds\": {:.6}, \
             \"speedup\": {:.2}, \"shared_mb_per_s\": {:.2}, \"withheld_share\": {:.4}}}",
            if i == 0 { "" } else { ", " },
            r.m,
            r.shared_seconds,
            r.independent_seconds,
            r.speedup,
            r.shared_mb_per_s,
            r.withheld_share,
        );
    }
    out.push_str("]}");
    out
}
