//! Traced runs: the per-layer metrics.
//!
//! Every traced run prints every per-layer metric, measured on the inputs
//! of all four workloads, derived from the run's seed exactly as the
//! untraced workloads derive them:
//!
//! 1. Tracing overhead: the workload's own ops, alternately untraced and
//!    with spans around each layer call (`trace.overhead_frac`).
//! 2. The rung ladder on the stream-lean document, per query (Q1, Q13,
//!    Q20): R0 calibration kernel, R1 stage-1 classify, R2 tape fill and
//!    walk, R3 `run_to` into a `NullSink`, R4 `run_to` into a
//!    `StringSink`, R5 a chunked `Session`. Each layer's cost is the delta
//!    from the rung below it, all rungs taken in the same window.
//! 3. Exact buffer counts from `RunStats`, the joins on the buffer-join
//!    document, fan-out on the fanout-32 document, and R5 (inline
//!    sessions), R6 (a 2-shard `Runtime`) and R7 (`flux-serve` over
//!    loopback) on the serve-small document mix, with the server's own
//!    metrics registry read at the end.

use std::sync::Arc;
use std::time::Instant;

use flux::obs::HistogramSnapshot;
use flux::prelude::*;
use flux::xml::scan::{Scanner, StructuralIndex, ANCHOR_BYTES};
use flux::xml::writer::NullSink;
use flux::xml::{EventTape, ReaderOptions, Symbols, TapeFill};

use crate::host::{self, Fingerprint};
use crate::inputs::{self, open_of, Case, Fanout, Join, Lean, Open, ServeMix};
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::workloads::{fanout_op, join_op, lean_op, Op, Samples, Workload};
use crate::{calib, serve, Report};

/// Repetitions of each rung; every reported rung time is their median.
const REPS: usize = 5;

/// Repetitions of the fan-out comparison (32 independent sessions each).
const FANOUT_REPS: usize = 3;

/// Documents each of R5, R6 and R7 runs on the serve-small mix.
const SERVE_LADDER_DOCS: usize = 400;

/// Share of `--seconds` the tracing-overhead comparison takes.
const OVERHEAD_SHARE: f64 = 0.4;

/// Run the traced measurement for workload `w`.
pub fn run(w: Workload, seed: u64, secs: f64, fp: &Fingerprint) -> Result<Report, String> {
    let engine = inputs::engine()?;
    let all = Inputs {
        lean: Lean::build(&engine, seed)?,
        join: Join::build(&engine, seed)?,
        fan: Fanout::build(&engine, seed)?,
        mix: ServeMix::build(&engine, seed)?,
    };
    let mut spans = Spans::new(Instant::now());
    let mut r = Report::new(0, 0);
    overhead(w, secs * OVERHEAD_SHARE, &all, &mut spans, &mut r)?;
    rungs(&engine, &all.lean, &mut spans, &mut r)?;
    buffers(w, &all, &mut r);
    joins(&engine, &all.join, &mut spans, &mut r)?;
    fanout(&all.fan, &all.lean, &mut spans, &mut r)?;
    serve_ladder(&all.mix, &mut spans, &mut r)?;
    for (name, (n, total, own)) in spans::totals_by_name(spans.spans()) {
        r.note(format!(
            "span {name:<34} n={n:<7} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        ));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let header =
        format!("{{\"host\": \"{fp}\", \"workload\": \"{}\", \"seed\": {seed}}}\n", w.name());
    std::fs::write(&path, header + &spans.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    r.note(format!("spans written to {}", path.display()));
    Ok(r)
}

/// The inputs of every workload, for one seed.
struct Inputs {
    lean: Lean,
    join: Join,
    fan: Fanout,
    mix: ServeMix,
}

/// Tracing overhead on the workload's own ops: untraced and traced ops
/// alternate; `trace.overhead_frac` is how much slower the traced arm's
/// primary metric is. Also reports the raw rates behind the ratio.
fn overhead(
    w: Workload,
    secs: f64,
    all: &Inputs,
    spans: &mut Spans,
    r: &mut Report,
) -> Result<(), String> {
    let (lean, join, fan) = (&all.lean, &all.join, &all.fan);
    let (doc, kinds, mut op): (&[u8], usize, Box<Op<'_>>) = match w {
        Workload::StreamLean => (
            lean.doc.as_bytes(),
            3,
            Box::new(|i, s: &mut Spans| lean_op(&lean.cases, lean.doc.as_bytes(), i, s)),
        ),
        Workload::BufferJoin => (
            join.doc.as_bytes(),
            2,
            Box::new(|i, s: &mut Spans| join_op(&join.cases, join.doc.as_bytes(), i, s)),
        ),
        Workload::Fanout32 => {
            (fan.doc.as_bytes(), 1, Box::new(|i, s: &mut Spans| fanout_op(fan, i, s)))
        }
        Workload::ServeSmall => return serve_overhead(secs, &all.mix, spans, r),
    };
    let (mut plain, mut traced) = (Samples::new(kinds, doc.len()), Samples::new(kinds, doc.len()));
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut i = 0;
    while i < 2 * kinds || Instant::now() < deadline {
        // Alternate which arm goes first, so drift lands on both.
        if (i / kinds) % 2 == 0 {
            plain.step(doc, i, &mut *op, &mut Spans::off());
            traced.step(doc, i, &mut *op, spans);
        } else {
            traced.step(doc, i, &mut *op, spans);
            plain.step(doc, i, &mut *op, &mut Spans::off());
        }
        i += 1;
    }
    r.attempted += plain.attempted + traced.attempted;
    r.failed += plain.failed + traced.failed;
    r.metric(
        "trace.overhead_frac",
        plain.throughput_vs_calib() / traced.throughput_vs_calib() - 1.0,
        "fraction",
    );
    r.metric("host.calib_mb_per_s", median(&plain.calib) / 1e6, "MB/s");
    r.metric("host.wall_mb_per_s", median(&plain.rates().concat()) / 1e6, "MB/s");
    Ok(())
}

/// Serve-small's tracing overhead: one client per server, alternating
/// documents between a plain server and one with a metrics registry and
/// spans; the primary metric is the median latency.
fn serve_overhead(
    secs: f64,
    mix: &ServeMix,
    spans: &mut Spans,
    r: &mut Report,
) -> Result<(), String> {
    let plain_server = serve::spawn(mix, None)?;
    let traced_server = serve::spawn(mix, Some(MetricsRegistry::new()))?;
    let mut plain = serve::connect(plain_server.addr())?;
    let mut traced = serve::connect(traced_server.addr())?;
    let (mut lat_plain, mut lat_traced) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut j = 0;
    while j < 8 || Instant::now() < deadline {
        r.attempted += 2;
        lat_plain.push(serve::request(&mut plain, mix, 0, j, &mut Spans::off())?);
        lat_traced.push(serve::request(&mut traced, mix, 0, j, spans)?);
        bytes += mix.docs[serve::doc_of(0, j)].bytes.len();
        j += 1;
    }
    drop((plain, traced));
    plain_server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    traced_server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    let mix_bytes: Vec<u8> = mix.docs.iter().flat_map(|d| d.bytes.iter().copied()).collect();
    let (cb, cs) = calib::timed(&mix_bytes);
    r.metric("trace.overhead_frac", median(&lat_traced) / median(&lat_plain) - 1.0, "fraction");
    r.metric("host.calib_mb_per_s", cb as f64 / cs / 1e6, "MB/s");
    r.metric("host.wall_mb_per_s", bytes as f64 / lat_plain.iter().sum::<f64>() / 1e6, "MB/s");
    Ok(())
}

/// Time `f`, inside a span named `name`.
fn timed<T>(spans: &mut Spans, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (f64, T) {
    spans.span(name, op, |_| {
        let t = Instant::now();
        let out = f();
        (t.elapsed().as_secs_f64(), out)
    })
}

/// R1: stage-1 classification of `doc` in anchor-sized windows.
fn classify(scanner: Scanner, doc: &[u8]) -> usize {
    let mut idx = StructuralIndex::new();
    let mut off = 0;
    let mut blocks = 0;
    while off < doc.len() {
        scanner.anchor(&mut idx, off as u64, &doc[off..]);
        blocks += idx.blocks().len();
        off += ANCHOR_BYTES.min(doc.len() - off);
    }
    std::hint::black_box(blocks)
}

/// R2: fill the event tape over `doc` and walk every event; the count.
fn tape_walk(symbols: &Arc<Symbols>, doc: &[u8]) -> Result<u64, String> {
    let mut reader =
        flux::xml::Reader::incremental_with_symbols(ReaderOptions::default(), Arc::clone(symbols));
    let mut tape = EventTape::new();
    reader.feed(doc);
    reader.close();
    let mut events = 0;
    loop {
        let fill = reader.fill_tape(&mut tape).map_err(|e| format!("tape fill: {e}"))?;
        for i in 0..tape.len() {
            std::hint::black_box(&reader.tape_event(&tape, i));
        }
        events += tape.len() as u64;
        tape.clear();
        if fill != TapeFill::Full {
            return Ok(events);
        }
    }
}

/// Rung names, R0 to R5, as span names.
const RUNGS: [&str; 6] =
    ["calib", "xml.scan", "xml.tape", "engine.pump", "xml.writer", "runtime.session"];

/// The R0–R5 ladder for Q1, Q13 and Q20 on the stream-lean document.
fn rungs(engine: &Engine, lean: &Lean, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let doc = lean.doc.as_bytes();
    let bytes = doc.len() as f64;
    let scanner = Scanner::detect();
    let symbols = engine.dtd().symbols();
    let mut per_query: Vec<RungMedians> = Vec::new();
    for (qi, case) in lean.cases.iter().enumerate() {
        let mut times: [Vec<f64>; 6] = Default::default();
        let (mut events, mut out_bytes) = (0u64, 0u64);
        for rep in 0..REPS {
            // Rotate the rung order between repetitions.
            for k in (0..6).map(|k| (k + rep) % 6) {
                let op = (qi * REPS + rep) as u64;
                r.attempted += 1;
                let t = match k {
                    0 => timed(spans, RUNGS[0], op, || calib::scan(doc)).0,
                    1 => timed(spans, RUNGS[1], op, || classify(scanner, doc)).0,
                    2 => {
                        let (t, n) = timed(spans, RUNGS[2], op, || tape_walk(symbols, doc));
                        events = n?;
                        t
                    }
                    3 => {
                        let (t, res) = timed(spans, RUNGS[3], op, || {
                            case.query.run_to(doc, NullSink::default())
                        });
                        res.map_err(|e| format!("{}: R3: {e}", case.name))?;
                        t
                    }
                    4 => {
                        let mut sink = StringSink::new();
                        let (t, res) =
                            timed(spans, RUNGS[4], op, || case.query.run_to(doc, &mut sink));
                        out_bytes =
                            res.map_err(|e| format!("{}: R4: {e}", case.name))?.output_bytes;
                        case.expect
                            .check(sink.as_str().as_bytes())
                            .map_err(|e| format!("{}: R4: {e}", case.name))?;
                        t
                    }
                    _ => {
                        spans
                            .span(RUNGS[5], op, |_| {
                                lean_op(&lean.cases, doc, qi, &mut Spans::off())
                            })?
                            .0
                    }
                };
                times[k].push(t);
            }
        }
        let med: [f64; 6] = std::array::from_fn(|k| median(&times[k]));
        let q = &case.name;
        for (k, m) in med.iter().enumerate() {
            r.metric(format!("ladder.r{k}.ns_per_byte.{q}"), m * 1e9 / bytes, "ns/B");
        }
        per_query.push(RungMedians {
            secs: med,
            events: events as f64,
            output_bytes: out_bytes as f64,
        });
    }
    // Layer costs: R1 on its own, the others as the delta from the rung
    // below; per query and over the three together.
    let layers = [
        ("xml.scan.ns_per_byte", "ns/B", Per::InputByte),
        ("xml.tape.ns_per_event", "ns/event", Per::Event),
        ("engine.pump.ns_per_event", "ns/event", Per::Event),
        ("xml.writer.ns_per_output_byte", "ns/B", Per::OutputByte),
        ("runtime.session.ns_per_byte", "ns/B", Per::InputByte),
    ];
    for (rung, (name, unit, per)) in (1..).zip(layers) {
        let (mut ns, mut denom) = (0.0, 0.0);
        for (case, m) in lean.cases.iter().zip(&per_query) {
            let (n, d) = m.layer(rung, per, bytes);
            r.metric(format!("{name}.{}", case.name), n / d, unit);
            ns += n;
            denom += d;
        }
        r.metric(name, ns / denom, unit);
    }
    r.note(format!(
        "ladder: {} queries x {REPS} repetitions on {} bytes",
        per_query.len(),
        doc.len()
    ));
    Ok(())
}

/// What a layer's cost is divided by.
#[derive(Clone, Copy)]
enum Per {
    InputByte,
    Event,
    OutputByte,
}

/// One query's median rung times, with the counts layers divide by.
struct RungMedians {
    secs: [f64; 6],
    events: f64,
    output_bytes: f64,
}

impl RungMedians {
    /// The cost of rung `rung`'s layer in ns — R1 on its own, higher rungs
    /// minus the rung below — and its denominator.
    fn layer(&self, rung: usize, per: Per, input_bytes: f64) -> (f64, f64) {
        let secs = if rung == 1 { self.secs[1] } else { self.secs[rung] - self.secs[rung - 1] };
        let denom = match per {
            Per::InputByte => input_bytes,
            Per::Event => self.events,
            Per::OutputByte => self.output_bytes,
        };
        (secs * 1e9, denom.max(1.0))
    }
}

/// Exact counts from `RunStats`: the workload's one-shot reference runs
/// summed over one cycle of its ops, plus the joins' peaks.
fn buffers(w: Workload, all: &Inputs, r: &mut Report) {
    let stats: Vec<&RunStats> = match w {
        Workload::StreamLean => all.lean.cases.iter().map(|c| &c.stats).collect(),
        Workload::BufferJoin => all.join.cases.iter().map(|c| &c.stats).collect(),
        Workload::Fanout32 => all.fan.subs.iter().map(|c| &c.stats).collect(),
        Workload::ServeSmall => all.mix.docs.iter().flat_map(|d| d.stats.iter()).collect(),
    };
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    for case in &all.join.cases {
        r.metric(
            format!("engine.buffer.peak_bytes.{}", case.name),
            case.stats.peak_buffer_bytes as f64,
            "B",
        );
    }
    r.metric("engine.buffer.buffers_created", sum(|s| s.buffers_created), "count");
    r.metric("engine.buffer.captures", sum(|s| s.captures), "count");
    r.metric("engine.on_firings", sum(|s| s.on_firings), "count");
}

/// Join cost on the buffer-join document: the ops minus their R2 rung.
fn joins(engine: &Engine, join: &Join, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let doc = join.doc.as_bytes();
    let symbols = engine.dtd().symbols();
    let mut tape = Vec::new();
    let mut ops: Vec<Vec<f64>> = vec![Vec::new(); join.cases.len()];
    for rep in 0..REPS {
        r.attempted += 1 + join.cases.len() as u64;
        tape.push(timed(spans, "xml.tape", rep as u64, || tape_walk(symbols, doc)).0);
        for (k, times) in ops.iter_mut().enumerate() {
            times.push(join_op(&join.cases, doc, k, spans)?.0);
        }
    }
    let op = ops.iter().map(|t| median(t)).sum::<f64>() / ops.len() as f64;
    r.metric("engine.join.ns_per_byte", (op - median(&tape)) * 1e9 / doc.len() as f64, "ns/B");
    Ok(())
}

/// One chunked `Session` run of `case` over `doc` inside one span,
/// checked; seconds.
fn session_once(case: &Case, doc: &[u8], spans: &mut Spans, op: u64) -> Result<f64, String> {
    spans
        .span("runtime.session", op, |_| {
            lean_op(std::slice::from_ref(case), doc, 0, &mut Spans::off())
        })
        .map(|(t, _)| t)
}

/// Fan-out cost: the shared pass against 32 independent sessions on the
/// fanout-32 document, and Q1 as a one-subscriber set against Q1 through
/// a `Session` on the stream-lean document.
fn fanout(fan: &Fanout, lean: &Lean, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let doc = fan.doc.as_bytes();
    let (mut shared, mut independent) = (Vec::new(), Vec::new());
    for rep in 0..FANOUT_REPS {
        r.attempted += 1 + fan.subs.len() as u64;
        shared.push(
            spans.span("engine.fanout", rep as u64, |_| fanout_op(fan, rep, &mut Spans::off()))?.0,
        );
        let mut total = 0.0;
        for case in &fan.subs {
            total += session_once(case, doc, spans, rep as u64)?;
        }
        independent.push(total);
    }
    let subs = fan.subs.len() as f64;
    r.metric(
        "engine.fanout.ns_per_byte_per_sub",
        median(&shared) * 1e9 / doc.len() as f64 / subs,
        "ns/B",
    );
    r.metric("engine.fanout.vs_independent", median(&shared) / median(&independent), "ratio");

    let q1 = &lean.cases[0];
    let mut registry = QueryRegistry::new();
    registry.register(q1.name.clone(), q1.query.clone());
    let one = SubscriptionSet::compile_subset(&registry, &[&q1.name])
        .map_err(|e| format!("one-subscriber set: {e}"))?;
    let doc = lean.doc.as_bytes();
    let (mut m1, mut session) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        r.attempted += 2;
        let t = Instant::now();
        let outs = spans.span("engine.fanout", rep as u64, |_| {
            inputs::run_shared(&one, doc, &mut Spans::off(), 0)
        })?;
        m1.push(t.elapsed().as_secs_f64());
        q1.expect
            .check(outs[0].0.as_str().as_bytes())
            .map_err(|e| format!("one-subscriber set: {e}"))?;
        session.push(session_once(q1, doc, spans, rep as u64)?);
    }
    r.metric("engine.fanout.m1_vs_session", median(&m1) / median(&session), "ratio");
    Ok(())
}

/// R6: one document through an in-process `Runtime`, from open to its
/// completion event; checked.
fn runtime_doc(rt: &mut Runtime<StringSink>, mix: &ServeMix, j: usize) -> Result<f64, String> {
    let doc = &mix.docs[serve::doc_of(0, j)];
    let t = Instant::now();
    let id = match open_of(j) {
        Open::Single(k) => rt.open(&mix.queries[k], StringSink::new()),
        Open::All => rt.open_shared(&mix.set, vec![StringSink::new(); mix.ids.len()]),
    };
    for chunk in &doc.chunks {
        rt.feed_shared(id, Arc::clone(chunk));
    }
    rt.finish(id);
    let outs: Vec<(Result<RunStats, FluxError>, Option<StringSink>)> = loop {
        match rt.wait_event() {
            Some(RuntimeEvent::Finished { id: done, result, sink }) if done == id => {
                break vec![(result, sink)]
            }
            Some(RuntimeEvent::FinishedShared { id: done, results }) if done == id => {
                break results
            }
            Some(_) => {}
            None => return Err("runtime stopped before the document finished".to_string()),
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let expects: Vec<_> = match open_of(j) {
        Open::Single(k) => vec![doc.expect[k]],
        Open::All => doc.expect.to_vec(),
    };
    for ((res, sink), expect) in outs.into_iter().zip(expects) {
        res.map_err(|e| format!("runtime run: {e}"))?;
        let sink = sink.ok_or("runtime run lost its sink")?;
        expect.check(sink.as_str().as_bytes())?;
    }
    Ok(secs)
}

/// R5: one document through inline sessions (the same open shape); checked.
fn inline_doc(mix: &ServeMix, j: usize, spans: &mut Spans) -> Result<f64, String> {
    let doc = &mix.docs[serve::doc_of(0, j)];
    match open_of(j) {
        Open::Single(k) => {
            let case = Case {
                name: mix.ids[k].to_string(),
                query: mix.queries[k].clone(),
                expect: doc.expect[k],
                stats: doc.stats[k],
            };
            session_once(&case, &doc.bytes, spans, j as u64)
        }
        Open::All => {
            let t = Instant::now();
            let outs = spans.span("engine.fanout", j as u64, |_| {
                inputs::run_shared(&mix.set, &doc.bytes, &mut Spans::off(), 0)
            })?;
            let secs = t.elapsed().as_secs_f64();
            for ((sink, _), expect) in outs.iter().zip(&doc.expect) {
                expect.check(sink.as_str().as_bytes())?;
            }
            Ok(secs)
        }
    }
}

/// R5 (inline sessions), R6 (a 2-shard `Runtime`) and R7 (`flux-serve`
/// over loopback, with a metrics registry) on the serve-small mix,
/// interleaved document by document.
fn serve_ladder(mix: &ServeMix, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let mut rt: Runtime<StringSink> = Runtime::new(serve::SHARDS);
    let metrics = MetricsRegistry::new();
    let server = serve::spawn(mix, Some(metrics.clone()))?;
    let mut client = serve::connect(server.addr())?;
    let (mut r5, mut r6, mut r7) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu = 0.0;
    let first = spans.spans().len();
    for j in 0..SERVE_LADDER_DOCS {
        r.attempted += 3;
        r5.push(inline_doc(mix, j, spans)?);
        r6.push(spans.span("runtime.rt.doc", j as u64, |_| runtime_doc(&mut rt, mix, j))?);
        let c = host::process_cpu_s();
        r7.push(serve::request(&mut client, mix, 0, j, spans)?);
        cpu += host::process_cpu_s() - c;
    }
    drop(client);
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    drop(rt);
    let docs = SERVE_LADDER_DOCS as f64;
    let (m5, m6, m7) = (median(&r5), median(&r6), median(&r7));
    r.metric("ladder.r5.us_per_doc", m5 * 1e6, "us");
    r.metric("ladder.r6.us_per_doc", m6 * 1e6, "us");
    r.metric("ladder.r7.us_per_doc", m7 * 1e6, "us");
    r.metric("runtime.rt.latency_p50_ms", m6 * 1e3, "ms");
    r.metric("runtime.rt.hop_us", (m6 - m5) * 1e6, "us");
    r.metric("serve.wire_us", (m7 - m6) * 1e6, "us");
    let ours = &spans.spans()[first..];
    r.metric("serve.send_us_p50", median(&spans::durations(ours, "serve.send")) * 1e6, "us");
    r.metric("serve.wait_us_p50", median(&spans::durations(ours, "serve.wait")) * 1e6, "us");
    r.metric("serve.cpu_us_per_doc", cpu * 1e6 / docs, "us");
    let snap = metrics.snapshot();
    let mut run_us = HistogramSnapshot::default();
    for (name, h) in &snap.histograms {
        if name.starts_with("flux_serve_run_duration_us") {
            run_us.merge(h);
        }
    }
    let frames_out: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("flux_serve_frames_total{dir=\"out\""))
        .map(|(_, v)| v)
        .sum();
    r.metric("serve.server_run_us_p50", run_us.quantile(0.5) as f64, "us");
    r.metric("serve.frames_out_per_doc", frames_out as f64 / docs, "count");
    r.metric(
        "serve.bytes_out_per_doc",
        snap.counter("flux_serve_bytes_total{dir=\"out\"}") as f64 / docs,
        "B",
    );
    r.metric("serve.write_parks", snap.counter("flux_serve_write_parks_total") as f64, "count");
    r.note(format!(
        "serve ladder: {SERVE_LADDER_DOCS} documents per rung; server run histogram count {}",
        run_us.count
    ));
    Ok(())
}
