//! Streaming throughput: MB/s of the FluX engine over generated XMark.
//!
//! Seeds the repo's perf trajectory: runs the prepared FluX pipeline with a
//! [`NullSink`] over XMark documents at several sizes and writes the
//! measurements to `BENCH_throughput.json` at the repository root, so
//! successive PRs can compare event-loop speed on identical input.
//!
//! Every cell is measured as a **same-run A/B** with interleaved samples:
//! tape, pull, tape, pull… — the session's batched event-tape delivery
//! against the engine's per-event reference run
//! ([`CompiledQuery::run`](flux::engine::CompiledQuery::run), which pulls
//! and feeds every event and never skips at the reader). On shared
//! single-core hosts noise arrives in waves longer than one sample, so
//! back-to-back alternation (rather than all of one arm, then the other)
//! exposes both arms to the same machine weather and keeps the ratio
//! honest. Each arm reports min-of-N seconds, MB/s, ns/event and the
//! sample spread.
//!
//! Pass `--large` to extend the sweep to a 32 MB document — the paper's
//! Figure 4 measures up to 100 MB, and the large point keeps the MB/s
//! trajectory honest on inputs that dwarf every cache. CI keeps the small
//! smoke sizes.
//!
//! Honours the shared bench environment knobs (`FLUX_BENCH_SAMPLES`,
//! `FLUX_BENCH_FAST=1` for the CI smoke run, which also shrinks the
//! documents so the binary cannot bit-rot without burning CI minutes).

use std::fmt::Write as _;
use std::time::Instant;

use flux::{Engine, PreparedQuery};
use flux_bench::micro::samples;
use flux_bench::report::merge_throughput;
use flux_xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux_xml::writer::NullSink;

/// One delivery arm's measurement.
struct Arm {
    min_seconds: f64,
    mb_per_s: f64,
    events_per_s: f64,
    ns_per_event: f64,
    spread_pct: f64,
}

/// One measured (query, document size) cell: tape arm, pull arm, ratio.
struct Cell {
    query: &'static str,
    doc_bytes: usize,
    events: u64,
    tape: Arm,
    pull: Arm,
    /// `pull.min_seconds / tape.min_seconds` — the same-run A/B figure.
    tape_speedup: f64,
    samples: usize,
}

fn arm(doc: &str, events: u64, best: f64, worst: f64) -> Arm {
    Arm {
        min_seconds: best,
        mb_per_s: doc.len() as f64 / 1e6 / best,
        events_per_s: events as f64 / best,
        ns_per_event: best * 1e9 / events as f64,
        spread_pct: if best > 0.0 { (worst - best) / best * 100.0 } else { 0.0 },
    }
}

/// Measure both arms with **interleaved** samples: tape, pull, tape, pull…
/// On a shared host, noise arrives in waves lasting longer than one sample;
/// measuring one arm's N samples and then the other's lets a wave skew a
/// single arm and corrupt the ratio. Alternating exposes both arms to the
/// same weather, so min-of-N catches the same quiet windows for each.
fn measure_pair(q: &PreparedQuery, doc: &str, events: u64, n: usize) -> (Arm, Arm) {
    // Warmup passes (page the document in, size the reusable buffers).
    q.run_to(doc.as_bytes(), NullSink::default()).unwrap();
    q.compiled().run(doc.as_bytes(), NullSink::default()).unwrap();
    let (mut t_best, mut t_worst) = (f64::MAX, 0.0f64);
    let (mut p_best, mut p_worst) = (f64::MAX, 0.0f64);
    for _ in 0..n {
        let t = Instant::now();
        q.run_to(doc.as_bytes(), NullSink::default()).unwrap();
        let s = t.elapsed().as_secs_f64();
        t_best = t_best.min(s);
        t_worst = t_worst.max(s);
        let t = Instant::now();
        q.compiled().run(doc.as_bytes(), NullSink::default()).unwrap();
        let s = t.elapsed().as_secs_f64();
        p_best = p_best.min(s);
        p_worst = p_worst.max(s);
    }
    (arm(doc, events, t_best, t_worst), arm(doc, events, p_best, p_worst))
}

fn main() {
    let fast = std::env::var_os("FLUX_BENCH_FAST").is_some();
    let large = std::env::args().any(|a| a == "--large");
    let sizes: &[usize] = match (fast, large) {
        (true, _) => &[64 << 10],
        (false, false) => &[256 << 10, 1 << 20, 4 << 20],
        (false, true) => &[256 << 10, 1 << 20, 4 << 20, 32 << 20],
    };
    // Q1 streams with zero buffers (pure event-loop cost); Q20 exercises the
    // capture/buffer path on the same input.
    let queries: Vec<_> =
        PAPER_QUERIES.iter().filter(|q| q.name == "Q1" || q.name == "Q20").collect();

    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let n = samples();
    let mut cells = Vec::new();
    for &size in sizes {
        let (doc, _) = generate_string(&XmarkConfig::new(size));
        for q in &queries {
            let prepared = engine.prepare(q.source).unwrap();
            let events = prepared.run_to(doc.as_bytes(), NullSink::default()).unwrap().events;
            let (tape, pull) = measure_pair(&prepared, &doc, events, n);
            let cell = Cell {
                query: q.name,
                doc_bytes: doc.len(),
                events,
                tape_speedup: pull.min_seconds / tape.min_seconds,
                tape,
                pull,
                samples: n,
            };
            for (arm, name) in [(&cell.tape, "tape"), (&cell.pull, "pull")] {
                println!(
                    "throughput/{}/{}B/{name}  {:>8.1} MB/s  {:>7.1} ns/event  \
                     spread {:>5.1}%  (min of {} samples)",
                    cell.query, cell.doc_bytes, arm.mb_per_s, arm.ns_per_event, arm.spread_pct, n
                );
            }
            println!(
                "throughput/{}/{}B  tape speedup {:.2}x over per-event pull (same run)",
                cell.query, cell.doc_bytes, cell.tape_speedup
            );
            cells.push(cell);
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    // Preserve the `"concurrency"` section the `concurrency` bin merged
    // into the file, so the two bins can run in either order.
    let existing = std::fs::read_to_string(path).ok();
    let json = merge_throughput(existing.as_deref(), &render_json(&cells));
    std::fs::write(path, json).expect("write BENCH_throughput.json");
    println!("wrote {path}");
}

fn arm_json(a: &Arm) -> String {
    format!(
        "\"min_seconds\": {:.6}, \"mb_per_s\": {:.2}, \"events_per_s\": {:.0}, \
         \"ns_per_event\": {:.2}, \"spread_pct\": {:.1}",
        a.min_seconds, a.mb_per_s, a.events_per_s, a.ns_per_event, a.spread_pct
    )
}

/// Hand-rolled JSON (no serde in the offline build). The top-level
/// `min_seconds`/`mb_per_s`/… fields carry the default (tape) arm so the
/// perf trajectory across PRs stays one comparable series; the nested
/// `pull` object and `tape_speedup` carry the same-run A/B.
fn render_json(cells: &[Cell]) -> String {
    let mut out = String::from("{\n  \"bench\": \"throughput\",\n  \"engine\": \"flux\",\n");
    out.push_str("  \"sink\": \"NullSink\",\n  \"unit\": \"MB/s\",\n  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"doc_bytes\": {}, \"events\": {}, \
             \"delivery\": \"tape\", {}, \
             \"pull\": {{{}}}, \"tape_speedup\": {:.3}, \"samples\": {}}}{}",
            c.query,
            c.doc_bytes,
            c.events,
            arm_json(&c.tape),
            arm_json(&c.pull),
            c.tape_speedup,
            c.samples,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}
