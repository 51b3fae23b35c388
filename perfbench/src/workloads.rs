//! The four workloads, run untraced: the end-to-end metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use flux::prelude::*;

use crate::inputs::{self, Case, Fanout, Join, Lean, ServeMix, CHUNK};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile, Summary};
use crate::{calib, host, serve, Report};

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1/Q13/Q20 over 16 MB through a chunked `Session`.
    StreamLean,
    /// The joins Q8 and Q11 over 1 MB, one-shot `run_to`.
    BufferJoin,
    /// 32 subscriptions over 4 MB through one `SharedSession`.
    Fanout32,
    /// 16 KiB documents through `flux-serve` on loopback, two clients.
    ServeSmall,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but serve-small.
    pub const ALL: [Workload; 4] =
        [Workload::StreamLean, Workload::BufferJoin, Workload::Fanout32, Workload::ServeSmall];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamLean => "stream-lean",
            Workload::BufferJoin => "buffer-join",
            Workload::Fanout32 => "fanout-32",
            Workload::ServeSmall => "serve-small",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;

/// Set-ups continue past the minimum until this much time went into them,
/// so a set-up of a few milliseconds still gives a steady median.
const SETUP_MIN_SECS: f64 = 1.0;

/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 200;

/// Run `build` repeatedly (see the constants above); the last product and
/// the median time.
pub fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECS && times.len() < SETUP_MAX_REPS)
    {
        // Drop the previous product first, so no two set-ups are alive
        // at once (a server shuts down before the next one binds).
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Samples of an in-process closed loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Input bytes of one op.
    pub bytes: usize,
    /// Per op kind: seconds per successful op.
    pub lat: Vec<Vec<f64>>,
    /// Calibration-kernel bytes per second, one per successful op.
    pub calib: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or gave a wrong output.
    pub failed: u64,
    /// Largest peak buffer of any op.
    pub peak_buffer_bytes: usize,
}

impl Samples {
    /// No samples yet, for `kinds` kinds of op over `bytes` of input each.
    pub fn new(kinds: usize, bytes: usize) -> Samples {
        Samples { bytes, lat: vec![Vec::new(); kinds], ..Samples::default() }
    }

    /// Run op `i` (of kind `i % kinds`) with `spans`, then the calibration
    /// kernel over `doc`, and record both.
    pub fn step(&mut self, doc: &[u8], i: usize, op: &mut Op<'_>, spans: &mut Spans) {
        self.attempted += 1;
        match op(i, spans) {
            Ok((t, peak)) => {
                let (cb, cs) = calib::timed(doc);
                let kinds = self.lat.len();
                self.lat[i % kinds].push(t);
                self.calib.push(cb as f64 / cs);
                self.peak_buffer_bytes = self.peak_buffer_bytes.max(peak);
            }
            Err(e) => self.fail("op", &e),
        }
    }

    /// Per op kind: input bytes per second of each successful op.
    pub fn rates(&self) -> Vec<Vec<f64>> {
        self.lat.iter().map(|l| l.iter().map(|t| self.bytes as f64 / t).collect()).collect()
    }

    /// See [`throughput_vs_calib`].
    pub fn throughput_vs_calib(&self) -> f64 {
        throughput_vs_calib(&self.rates(), &self.calib)
    }

    /// Record one failed op.
    pub fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("perfbench: {what} failed: {err}");
        }
    }
}

/// `throughput_vs_calib`: the geometric mean over op kinds of each kind's
/// median input rate, divided by the calibration kernel's median rate in
/// the same run. The ratio of medians, not the median of per-op ratios:
/// the host's noise over a few milliseconds is independent between an op
/// and the kernel run after it, and medians over the run smooth it out,
/// while drift slower than the run divides out.
pub fn throughput_vs_calib(rates: &[Vec<f64>], calib: &[f64]) -> f64 {
    let medians: Vec<f64> = rates.iter().filter(|r| !r.is_empty()).map(|r| median(r)).collect();
    if medians.is_empty() || calib.is_empty() {
        return 0.0;
    }
    geomean(&medians) / median(calib)
}

/// One op: given its index and a span recorder, run it and return
/// (seconds it took, peak buffer bytes), having checked its output.
pub type Op<'a> = dyn FnMut(usize, &mut Spans) -> Result<(f64, usize), String> + 'a;

/// Run `op` untraced in a closed loop on this thread for `secs` (and at
/// least once per kind), each op followed by the calibration kernel over
/// `doc`.
pub fn closed_loop(secs: f64, doc: &[u8], kinds: usize, op: &mut Op<'_>) -> Samples {
    let mut s = Samples::new(kinds, doc.len());
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut i = 0;
    while i < kinds || Instant::now() < deadline {
        s.step(doc, i, op, &mut Spans::off());
        i += 1;
    }
    s
}

/// Stream-lean op `i`: case `i % 3` fed in `CHUNK`-byte pieces to a
/// `Session` into a `StringSink`.
pub fn lean_op(
    cases: &[Case],
    doc: &[u8],
    i: usize,
    spans: &mut Spans,
) -> Result<(f64, usize), String> {
    let case = &cases[i % cases.len()];
    let op = i as u64;
    let t = Instant::now();
    let fin = spans
        .span("op", op, |s| {
            let mut session = case.query.session(StringSink::new());
            for chunk in doc.chunks(CHUNK) {
                s.span("runtime.session.feed", op, |_| session.feed(chunk))?;
            }
            s.span("runtime.session.finish", op, |_| session.finish())
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
    let secs = t.elapsed().as_secs_f64();
    case.expect.check(fin.sink.as_str().as_bytes()).map_err(|e| format!("{}: {e}", case.name))?;
    Ok((secs, fin.stats.peak_buffer_bytes))
}

/// Buffer-join op `i`: case `i % 2` one-shot through `run_to`.
pub fn join_op(
    cases: &[Case],
    doc: &[u8],
    i: usize,
    spans: &mut Spans,
) -> Result<(f64, usize), String> {
    let case = &cases[i % cases.len()];
    let mut sink = StringSink::new();
    let t = Instant::now();
    let stats = spans
        .span("op", i as u64, |s| {
            s.span("engine.run_to", i as u64, |_| case.query.run_to(doc, &mut sink))
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
    let secs = t.elapsed().as_secs_f64();
    case.expect.check(sink.as_str().as_bytes()).map_err(|e| format!("{}: {e}", case.name))?;
    Ok((secs, stats.peak_buffer_bytes))
}

/// Fan-out op `i`: one shared pass of the set; the peak is summed over
/// subscribers.
pub fn fanout_op(f: &Fanout, i: usize, spans: &mut Spans) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let outs = spans
        .span("op", i as u64, |s| inputs::run_shared(&f.set, f.doc.as_bytes(), s, i as u64))?;
    let secs = t.elapsed().as_secs_f64();
    let mut peak = 0;
    for (case, (sink, stats)) in f.subs.iter().zip(&outs) {
        case.expect.check(sink.as_str().as_bytes()).map_err(|e| format!("{}: {e}", case.name))?;
        peak += stats.peak_buffer_bytes;
    }
    Ok((secs, peak))
}

/// Run workload `w` untraced for `secs`: the end-to-end metrics.
pub fn run(w: Workload, seed: u64, secs: f64) -> Result<Report, String> {
    if w == Workload::ServeSmall {
        return serve_small(seed, secs);
    }
    // Each set-up parses the DTD afresh: it is part of the set-up cost.
    let (s, setup_s) = match w {
        Workload::StreamLean => {
            let (lean, setup_s) = setup(|| Lean::build(&inputs::engine()?, seed))?;
            let doc = lean.doc.as_bytes();
            (closed_loop(secs, doc, 3, &mut |i, s| lean_op(&lean.cases, doc, i, s)), setup_s)
        }
        Workload::BufferJoin => {
            let (join, setup_s) = setup(|| Join::build(&inputs::engine()?, seed))?;
            let doc = join.doc.as_bytes();
            (closed_loop(secs, doc, 2, &mut |i, s| join_op(&join.cases, doc, i, s)), setup_s)
        }
        Workload::Fanout32 => {
            let (f, setup_s) = setup(|| Fanout::build(&inputs::engine()?, seed))?;
            (closed_loop(secs, f.doc.as_bytes(), 1, &mut |i, s| fanout_op(&f, i, s)), setup_s)
        }
        Workload::ServeSmall => unreachable!("handled above"),
    };
    let mut r = Report::new(s.attempted, s.failed);
    r.metric("setup_s", setup_s, "s");
    r.metric("throughput_vs_calib", s.throughput_vs_calib(), "ratio");
    r.metric("peak_buffer_bytes", s.peak_buffer_bytes as f64, "B");
    r.metric("peak_rss_mb", host::peak_rss_mb()?, "MB");
    let per_kind = kind_medians(&s.lat);
    latency_notes(&mut r, &s.lat, per_kind.len() as f64 / per_kind.iter().sum::<f64>());
    r.note(format!(
        "host: calibration kernel {:.1} MB/s, ops {:.1} MB/s (medians)",
        median(&s.calib) / 1e6,
        median(&s.rates().concat()) / 1e6
    ));
    Ok(r)
}

/// Median seconds of each op kind that has samples.
fn kind_medians(lat: &[Vec<f64>]) -> Vec<f64> {
    lat.iter().filter(|l| !l.is_empty()).map(|l| median(l)).collect()
}

/// The wall-clock figures, printed but not gated (they drift with the
/// host): `docs_per_s`; `latency_p50_ms`, the median latency of each op
/// kind averaged over the kinds, so that mixing kinds of different cost
/// does not put the median on the edge between two of them; and the
/// pooled latencies' median, supported tail and p99 with the sample count.
fn latency_notes(r: &mut Report, lat: &[Vec<f64>], docs_per_s: f64) {
    let per_kind = kind_medians(lat);
    let ms: Vec<f64> = lat.iter().flatten().map(|s| s * 1e3).collect();
    if ms.is_empty() {
        return;
    }
    let mut sorted = ms.clone();
    sorted.sort_by(f64::total_cmp);
    r.note(format!(
        "wall clock (not gated): docs_per_s {docs_per_s:.3} 1/s, latency_p50_ms {:.4} ms; \
         pooled latency ms {}, p99 {:.4} over {} samples",
        per_kind.iter().sum::<f64>() / per_kind.len() as f64 * 1e3,
        Summary::of(&ms),
        percentile(&sorted, 99.0),
        ms.len()
    ));
}

/// Clients in the serve-small closed loop.
pub const CLIENTS: usize = 2;

/// Length of one serve-small measuring phase; the calibration kernel runs
/// between phases while the clients wait.
const PHASE: Duration = Duration::from_millis(500);

/// What one serve-small client measured.
#[derive(Default)]
struct ClientSamples {
    /// Per open shape (Q1, Q13, Q20, all three): (document bytes, seconds)
    /// of each document.
    docs: Vec<Vec<(usize, f64)>>,
    attempted: u64,
    failed: u64,
}

/// Serve-small: two clients in a closed loop against a 2-shard server,
/// measured in phases. Between phases the clients wait while this thread
/// times the calibration kernel over the document mix.
///
/// Its `docs_per_s` is the median over phases of documents completed per
/// second of the phase. A document's rate is its bytes over its latency;
/// `throughput_vs_calib` is computed from those rates per open shape, as
/// for the in-process workloads.
fn serve_small(seed: u64, secs: f64) -> Result<Report, String> {
    let ((mix, server), setup_s) = setup(|| {
        let mix = ServeMix::build(&inputs::engine()?, seed)?;
        let server = serve::spawn(&mix, None)?;
        Ok((mix, server))
    })?;
    let phases = ((secs / PHASE.as_secs_f64()).ceil() as usize).max(1);
    let addr = server.addr();
    let barrier = Barrier::new(CLIENTS + 1);
    let running = AtomicBool::new(true);
    let phase_docs = AtomicU64::new(0);
    let mix_bytes: Vec<u8> = mix.docs.iter().flat_map(|d| d.bytes.iter().copied()).collect();
    let (mut calib_rates, mut rates) = (Vec::with_capacity(phases), Vec::with_capacity(phases));
    // Connect before any thread waits on the barrier, so a refused
    // connection ends the run instead of leaving the others waiting.
    let conns = (0..CLIENTS).map(|_| serve::connect(addr)).collect::<Result<Vec<_>, _>>()?;
    let clients = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (mix, barrier, running, phase_docs) = (&mix, &barrier, &running, &phase_docs);
                sc.spawn(move || {
                    let mut mine =
                        ClientSamples { docs: vec![Vec::new(); 4], ..ClientSamples::default() };
                    let mut j = 0;
                    loop {
                        barrier.wait();
                        if !running.load(Ordering::SeqCst) {
                            return mine;
                        }
                        let end = Instant::now() + PHASE;
                        while Instant::now() < end {
                            mine.attempted += 1;
                            match serve::request(&mut client, mix, c, j, &mut Spans::off()) {
                                Ok(t) => {
                                    let kind = match inputs::open_of(j) {
                                        inputs::Open::Single(k) => k,
                                        inputs::Open::All => 3,
                                    };
                                    let bytes = mix.docs[serve::doc_of(c, j)].bytes.len();
                                    mine.docs[kind].push((bytes, t));
                                    phase_docs.fetch_add(1, Ordering::Relaxed);
                                }
                                // Later requests on a broken connection fail
                                // too, and count as failed.
                                Err(e) => {
                                    mine.failed += 1;
                                    if mine.failed <= 3 {
                                        eprintln!("perfbench: serve request failed: {e}");
                                    }
                                }
                            }
                            j += 1;
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for _ in 0..phases {
            phase_docs.store(0, Ordering::Relaxed);
            let t = Instant::now();
            barrier.wait();
            barrier.wait();
            rates.push(phase_docs.load(Ordering::Relaxed) as f64 / t.elapsed().as_secs_f64());
            let (cb, cs) = calib::timed(&mix_bytes);
            calib_rates.push(cb as f64 / cs);
        }
        running.store(false, Ordering::SeqCst);
        barrier.wait();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    let mut lat = vec![Vec::new(); 4];
    let mut rates_by_kind = vec![Vec::new(); 4];
    let (mut attempted, mut failed) = (0, 0);
    for c in clients {
        attempted += c.attempted;
        failed += c.failed;
        for (k, docs) in c.docs.into_iter().enumerate() {
            for (bytes, t) in docs {
                lat[k].push(t);
                rates_by_kind[k].push(bytes as f64 / t);
            }
        }
    }
    let mut r = Report::new(attempted, failed);
    r.metric("setup_s", setup_s, "s");
    r.metric("throughput_vs_calib", throughput_vs_calib(&rates_by_kind, &calib_rates), "ratio");
    r.metric("peak_buffer_bytes", mix.peak_buffer_bytes() as f64, "B");
    r.metric("peak_rss_mb", host::peak_rss_mb()?, "MB");
    latency_notes(&mut r, &lat, median(&rates));
    r.note(format!(
        "host: calibration kernel {:.1} MB/s (median over phases)",
        median(&calib_rates) / 1e6
    ));
    Ok(r)
}
