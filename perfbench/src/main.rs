//! The FluX benchmark: four seeded workloads through the public API of
//! `flux` and `flux-serve`, every output checked against an oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics. A traced
//! run (`--trace 1`) measures the per-layer metrics: a ladder of rungs that
//! time calls into each layer on the same inputs, plus spans around each
//! call. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package for the workloads and metric definitions.

mod calib;
mod host;
mod inputs;
mod ladder;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <stream-lean|buffer-join|fanout-32|serve-small> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run measured: the ops, the metrics, and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// A report of `attempted` ops, `failed` of them failed.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report { attempted, failed, ..Report::default() }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Add a line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self, correct: bool) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every flag takes one value".to_string());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let v = pair[1].as_str();
        let bad = |what: &str| format!("bad {what}: {v:?}");
        match pair[0].as_str() {
            "--workload" => workload = Some(Workload::parse(v).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::detect();
    println!(
        "perfbench {} seed={} seconds={} trace={} host: {fingerprint}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        ladder::run(args.workload, args.seed, args.seconds, &fingerprint)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            // The program under test failed its oracle check or errored
            // outside a timed op: no metric is trustworthy.
            eprintln!("perfbench: {e}");
            println!("{}", Report::new(1, 1).json(false));
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    let bad: Vec<&str> =
        report.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.as_str()).collect();
    if !bad.is_empty() {
        eprintln!("perfbench: metrics without a finite value: {}", bad.join(", "));
        println!("{}", Report::new(report.attempted.max(1), report.failed.max(1)).json(false));
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {} ({} of {} ops failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.json(report.failed == 0));
    ExitCode::SUCCESS
}
