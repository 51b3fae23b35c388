//! flux-state persistence costs: snapshot/restore latency and idle spill.
//!
//! Two questions the serializable-sessions subsystem must answer with
//! numbers, not adjectives:
//!
//! 1. **Per-session snapshot/restore latency and envelope size** — a
//!    fleet of idle XMark Q1 sessions parked mid-document under the
//!    weakened DTD is snapshotted and restored one by one; the bench
//!    records microseconds and bytes per session. (The idle XMark
//!    envelope is tiny — the paper's streaming discipline means a
//!    quiescent session carries scope stacks, not documents.)
//! 2. **Suspend-to-disk RSS delta** — a [`Runtime`] fleet whose sessions
//!    each hold a deliberately large capture buffer (the weak-bib
//!    "author parked until the book closes" scenario from the admission
//!    tests) is spilled with [`Runtime::suspend`]; resident-set size is
//!    sampled before and after (Linux `/proc/self/status`, 0 elsewhere)
//!    together with the total spilled bytes. The delta is reported as
//!    measured — allocator retention can keep it below the spilled total.
//!
//! Results land under the `"snapshot"` key of `BENCH_throughput.json`
//! (shared marker protocol — the bench bins run in any order). Honours
//! `FLUX_BENCH_FAST=1` (CI smoke run: smaller fleets, small document).

use std::sync::Arc;
use std::time::{Duration, Instant};

use flux::prelude::*;
use flux_bench::report::merge_section;
use flux_bench::XMARK_DTD_WEAK;
use flux_xmark::{generate_string, XmarkConfig, PAPER_QUERIES};
use flux_xml::writer::NullSink;

const CHUNK: usize = 4096;

/// The weak schema parks author text until the book closes — each idle
/// session in the suspend fleet holds `HELD_BYTES` of capture buffer.
const WEAK_BIB_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const BIB_QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0)
}

fn main() {
    // glibc's dynamic mmap threshold ratchets above the parked-buffer size
    // after the first few frees, after which released session state stays
    // on the brk heap and the RSS delta under-reports the spill. The
    // tunable is read once at malloc init, so pin it by re-exec'ing
    // ourselves with it set.
    if cfg!(target_os = "linux") && std::env::var_os("MALLOC_MMAP_THRESHOLD_").is_none() {
        let exe = std::env::current_exe().expect("own path");
        let status = std::process::Command::new(exe)
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .status()
            .expect("re-exec with a pinned mmap threshold");
        std::process::exit(status.code().unwrap_or(1));
    }

    let fast = std::env::var_os("FLUX_BENCH_FAST").is_some();
    let sessions: usize = if fast { 128 } else { 1000 };
    let doc_bytes: usize = if fast { 64 << 10 } else { 256 << 10 };
    let held_fleet: usize = if fast { 64 } else { 256 };
    let held_bytes: usize = 256 << 10;

    // ---- 1k idle XMark sessions: snapshot, then restore, one by one ----
    let engine = Engine::builder().dtd_str(XMARK_DTD_WEAK).build().unwrap();
    let q1 = PAPER_QUERIES.iter().find(|q| q.name == "Q1").expect("paper query");
    let prepared = engine.prepare(q1.source).unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(doc_bytes));
    let reference = prepared.run_str(&doc).unwrap();
    let prefix = &doc.as_bytes()[..doc.len() / 2];

    let mut fleet: Vec<_> = (0..sessions)
        .map(|_| {
            let mut s = prepared.session(NullSink::default());
            for chunk in prefix.chunks(CHUNK) {
                s.feed(chunk).unwrap();
            }
            s
        })
        .collect();

    let t = Instant::now();
    let snaps: Vec<Vec<u8>> =
        fleet.iter_mut().map(|s| s.snapshot().expect("quiescent session snapshots")).collect();
    let snapshot_s = t.elapsed().as_secs_f64();
    drop(fleet);
    let snap_bytes: usize = snaps.iter().map(Vec::len).sum();

    let t = Instant::now();
    let restored: Vec<_> = snaps
        .iter()
        .map(|snap| prepared.restore_session(NullSink::default(), snap).expect("restores"))
        .collect();
    let restore_s = t.elapsed().as_secs_f64();

    // Sanity: a restored session finishes with the uninterrupted stats.
    let mut one = restored.into_iter().next().unwrap();
    one.feed(&doc.as_bytes()[doc.len() / 2..]).unwrap();
    let fin = one.finish().expect("resumed run completes");
    assert_eq!(fin.stats, reference.stats, "restored run must match the one-shot stats");

    let snapshot_us = snapshot_s * 1e6 / sessions as f64;
    let restore_us = restore_s * 1e6 / sessions as f64;
    let bytes_per_session = snap_bytes / sessions;
    println!(
        "snapshot/fleet={sessions}  snapshot {snapshot_us:>7.1}µs/session  \
         restore {restore_us:>7.1}µs/session  envelope {bytes_per_session}B/session"
    );

    // ---- suspend-to-disk RSS delta over a fleet holding real buffers ----
    let bib = Engine::builder().dtd_str(WEAK_BIB_DTD).build().unwrap();
    let bib_q = bib.prepare(BIB_QUERY).unwrap();
    let hold: Arc<[u8]> =
        format!("<bib><book><author>{}</author>", "x".repeat(held_bytes)).into_bytes().into();

    let dir = std::env::temp_dir().join(format!("flux-bench-suspend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = SuspendPolicy { idle_after: Duration::from_secs(3600), dir: dir.clone() };
    let mut rt: Runtime<NullSink> = Runtime::builder(1).suspend(policy).build();
    let ids: Vec<RuntimeId> =
        (0..held_fleet).map(|_| rt.open(&bib_q, NullSink::default())).collect();
    for &id in &ids {
        rt.feed_shared(id, Arc::clone(&hold));
    }
    // Suspend commands queue FIFO behind the feeds on the worker channel.
    // Spill one session first and wait for its event: when it arrives the
    // single worker has absorbed every queued chunk, so the RSS sample
    // really measures the fully-fed idle fleet.
    rt.suspend(ids[0]);
    let mut spilled: u64 = match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Suspended { bytes, .. } => bytes as u64,
        other => panic!("expected only Suspended events, got {other:?}"),
    };
    let rss_before = rss_kb();
    let t = Instant::now();
    for &id in &ids[1..] {
        rt.suspend(id);
    }
    for _ in 1..held_fleet {
        match rt.wait_event().expect("worker alive") {
            RuntimeEvent::Suspended { bytes, .. } => spilled += bytes as u64,
            other => panic!("expected only Suspended events, got {other:?}"),
        }
    }
    let suspend_s = t.elapsed().as_secs_f64();
    let rss_after = rss_kb();
    let delta = rss_before as i64 - rss_after as i64;
    let suspend_us = suspend_s * 1e6 / (held_fleet - 1) as f64;
    println!(
        "suspend/fleet={held_fleet} holding {held_bytes}B each  {suspend_us:>7.1}µs/session  \
         spilled {spilled}B  rss {rss_before}kB -> {rss_after}kB (delta {delta}kB)"
    );

    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let section = format!(
        "{{\"bin\": \"snapshot\", \"host_cpus\": {host_cpus}, \"doc_bytes\": {doc_bytes}, \
         \"prefix_bytes\": {}, \"query\": \"Q1\", \"sessions\": {sessions}, \
         \"snapshot_us_per_session\": {snapshot_us:.1}, \
         \"restore_us_per_session\": {restore_us:.1}, \
         \"snapshot_bytes_per_session\": {bytes_per_session}, \
         \"suspend\": {{\"sessions\": {held_fleet}, \"held_bytes_per_session\": {held_bytes}, \
         \"suspend_us_per_session\": {suspend_us:.1}, \
         \"spilled_bytes_total\": {spilled}, \"rss_before_kb\": {rss_before}, \
         \"rss_after_kb\": {rss_after}, \"rss_delta_kb\": {delta}}}}}",
        prefix.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let existing = std::fs::read_to_string(path).ok();
    std::fs::write(path, merge_section(existing.as_deref(), "snapshot", &section))
        .expect("write BENCH_throughput.json");
    println!("wrote {path}");

    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}
