//! femcam's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <file>] [--commit <id>]
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, measures it for
//! `--seconds`, checks every answer, and prints a machine block, the
//! roofline line and, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run records spans around every call into a layer and reports
//! the per-layer metrics instead. `--out` also writes the full report
//! (machine block, both metric sets, checks and, when traced, the span
//! summary and the spans themselves) to the given file. The process
//! exits with code 1 when any check fails.
//!
//! The four workloads and the reason for each are defined in
//! `offline.rs`, `served.rs` and `fewshot.rs`.

mod fewshot;
mod gen;
mod machine;
mod offline;
mod served;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use machine::Machine;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
///
/// * `setup_s`: median cold start, from an empty memory until it has
///   answered one batch of 64 searches (the correctness references are
///   built outside it).
/// * `qps`: searches (few-shot: queries classified) per second the
///   timed phase sustained (see [`stats::sustained_rate`]).
/// * `p90_us`: 90th-percentile latency of the operation the client
///   issues: one batch of 64 offline, one request served, one episode
///   in few-shot. The median flips with the share of uncontended
///   bursts on a shared host, so it is a per-layer metric of the
///   traced run, with p99.
/// * `ok_rate`: operations that succeeded over those attempted.
/// * `exact_rate` / `recall_top1`: checked answers equal to the
///   workload's reference in row and `f64::to_bits` conductance / in
///   row alone.
/// * `accuracy`: labelled answers that are right: the stored row a
///   jittered query was drawn from, or the few-shot query's class.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p90_us", "us"),
    ("ok_rate", "ratio"),
    ("exact_rate", "ratio"),
    ("recall_top1", "ratio"),
    ("accuracy", "ratio"),
];

/// Per-layer metrics of a traced run. A layer that a workload does not
/// exercise did no work there and reports `0`.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.ingest_s", "s"),
    ("setup.router_build_s", "s"),
    ("setup.start_s", "s"),
    ("setup.warm_s", "s"),
    ("exec.cells_per_ns", "cells/ns"),
    ("exec.roofline_frac", "ratio"),
    ("exec.plan_bytes", "B"),
    ("par.threads_effective", "count"),
    ("banked.batch_us", "us"),
    ("banked.replay_us_per_query", "us"),
    ("banked.store_us", "us"),
    ("banked.recompile_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.exec_us_per_query", "us"),
    ("serve.exec_vs_offline", "ratio"),
    ("serve.unattributed_us", "us"),
    ("serve.store_us", "us"),
    ("serve.rejected", "count"),
    ("serve.restarts", "count"),
    ("shard.contacted_mean", "count"),
    ("shard.degraded", "count"),
    ("shard.quarantined", "count"),
    ("router.route_us", "us"),
    ("router.probed_banks_mean", "count"),
    ("router.offline_us_per_query", "us"),
    ("mann.build_index_us", "us"),
    ("engines.add_us", "us"),
    ("engines.query_batch_us", "us"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "offline_codes",
    "serve_codes",
    "serve_routed_rw",
    "fewshot_5w5s",
];

/// Worker threads the library's executor may use in every workload
/// (`FEMCAM_THREADS`).
const EXECUTOR_THREADS: &str = "1";

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Slice length of a traced run's alternating halves.
const TRACE_SLICE_S: f64 = 0.25;

impl RunConfig {
    /// The timed phase as `(seconds, traced)` slices: the whole run
    /// untraced, or in a traced run untraced and traced slices in
    /// turn, so drift in the machine's speed falls on both alike and
    /// their difference is the tracing overhead.
    pub fn slices(&self) -> Vec<(f64, bool)> {
        if !self.trace {
            return vec![(self.seconds, false)];
        }
        let n = ((self.seconds / TRACE_SLICE_S).round() as usize / 2).max(1) * 2;
        let each = self.seconds / n as f64;
        (0..n).map(|i| (each, i % 2 == 1)).collect()
    }
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Free-form lines for the text report (the roofline line).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push((name, passed, detail));
    }

    /// The four set-up layers from per-restart timings in seconds.
    pub fn setup_layers(&mut self, ingest: &[f64], router: &[f64], start: &[f64], warm: &[f64]) {
        self.layer("setup.ingest_s", stats::median(ingest));
        self.layer("setup.router_build_s", stats::median(router));
        self.layer("setup.start_s", stats::median(start));
        self.layer("setup.warm_s", stats::median(warm));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `catalog`, taking
/// values from `measured`; a name the workload did not report is `0`
/// when `zero_missing`, else an error.
fn metrics_json(
    catalog: &[(&str, &str)],
    measured: &[(&'static str, f64)],
    zero_missing: bool,
) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match measured.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => return Err(format!("metric {name} is not finite ({v})")),
            None if zero_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !catalog.iter().any(|(c, _)| c == n))
    {
        return Err(format!("metric {name} is not in the catalog"));
    }
    out.push('}');
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut out, mut commit) = (None, String::from("unrecorded"));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => out = Some(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One executor worker, on the one pinned CPU (see
    // `Machine::detect_and_pin`).
    std::env::set_var("FEMCAM_THREADS", EXECUTOR_THREADS);
    let machine = Machine::detect_and_pin();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "offline_codes" => offline::run(&cfg, &machine),
        "serve_codes" => served::run_codes(&cfg, &machine),
        "serve_routed_rw" => served::run_routed(&cfg, &machine),
        _ => fewshot::run(&cfg, &machine),
    };
    let e2e = metrics_json(END_TO_END, &outcome.e2e, false);
    let layers = metrics_json(PER_LAYER, &outcome.layers, true);
    let (e2e, layers) = match (e2e, layers) {
        (Ok(e), Ok(l)) => (e, l),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let machine_json = machine.json(args.seed, &args.commit);
    println!("machine: {machine_json}");
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, passed, detail) in &outcome.checks {
        println!(
            "check {name}: {} ({detail})",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    let correct = outcome.correct();
    if let Some(path) = &args.out {
        let mut report = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"machine\": {machine_json}, \"notes\": [{}], \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {}, \"end_to_end\": {e2e}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            outcome
                .notes
                .iter()
                .map(|n| format!("\"{}\"", n.escape_default()))
                .collect::<Vec<_>>()
                .join(", "),
            outcome.attempted,
            outcome.failed,
        );
        if args.trace {
            let _ = write!(
                report,
                ", \"per_layer\": {layers}, \"span_summary\": {}, \"spans\": {}",
                outcome.tracer.summary_json(),
                outcome.tracer.spans_json()
            );
        }
        report.push_str("}\n");
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        if args.trace { layers } else { e2e }
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
