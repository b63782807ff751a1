//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <serve_mixed|serve_ingest|leakage_audit>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs single-threaded (`set_thread_count(1)`), closed-loop, one
//! client. With `--trace 0` it reports the end-to-end metrics with all
//! telemetry off; with `--trace 1` it reports the per-layer metrics,
//! timed from outside the program (see `trace.rs`). The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every run checks the program's outputs; a failed check makes
//! `correct` false. Bad arguments or a broken build exit non-zero
//! without a result line.

mod audit;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("fixed_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for kind in trace::KINDS {
        out.push((format!("mech.{kind}.exec_us"), "us"));
        out.push((format!("mech.{kind}.calls"), "count"));
    }
    const REST: &[(&str, &str)] = &[
        ("engine.batch_us_per_req", "us"),
        ("engine.admit_us_per_req", "us"),
        ("engine.self_us_per_req", "us"),
        ("wal.appends_per_req", "count"),
        ("wal.bytes_per_req", "bytes"),
        ("wal.flushes_per_req", "count"),
        ("wal.storage_us_per_req", "us"),
        ("serve.recover_ms", "ms"),
        ("wal.replay_records_per_s", "1/s"),
        ("serve.report_ms", "ms"),
        ("serve.enqueue_us_per_req", "us"),
        ("serve.tick_self_us_per_req", "us"),
        ("dataset.append_us_per_record", "us"),
        ("serve.continual_release_us", "us"),
        ("serve.svt_us_per_call", "us"),
        ("core.learning_channel_ms", "ms"),
        ("core.neighbor_privacy_ms", "ms"),
        ("core.neighbor_pairs", "count"),
        ("infotheory.ba_ms", "ms"),
        ("infotheory.ba_iterations", "count"),
        ("infotheory.mi_ms", "ms"),
        ("infotheory.min_entropy_leakage_ms", "ms"),
        ("infotheory.flat_build_ms", "ms"),
        ("infotheory.flat_mi_ms", "ms"),
        ("infotheory.flat_leakage_ms", "ms"),
        ("infotheory.flat_cells", "bytes"),
        ("telemetry.recorder_overhead_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.layer_sum_ratio", "ratio"),
        ("drift_ratio", "ratio"),
    ];
    out.extend(REST.iter().map(|(name, unit)| (name.to_string(), *unit)));
    out
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run returns.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "serve_mixed" => serve::run(serve::Workload::Mixed, args.seed, args.seconds, args.trace),
        "serve_ingest" => serve::run(serve::Workload::Ingest, args.seed, args.seconds, args.trace),
        "leakage_audit" => audit::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Order the measured metrics as declared, fill layers the workload did
/// not exercise with 0, and flag anything undeclared or non-finite.
fn complete(result: &mut RunResult, trace: bool) {
    let declared: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for m in &result.metrics {
        if !declared.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
            result
                .failures
                .push(format!("undeclared metric {} ({})", m.name, m.unit));
        }
    }
    let mut ordered = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let measured = result.metrics.iter().find(|m| m.name == name);
        let value = measured.map_or(0.0, |m| m.value);
        if !value.is_finite() {
            result.failures.push(format!("{name} is not finite"));
        }
        ordered.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
    result.metrics = ordered;
    // The traced layers must account for the op time they split.
    if let Some(m) = result
        .metrics
        .iter()
        .find(|m| m.name == "trace.layer_sum_ratio")
    {
        if (m.value - 1.0).abs() > 0.05 {
            let msg = format!("layer times sum to {} of the op time", m.value);
            result.failures.push(msg);
        }
    }
}

fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failures.is_empty(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    dplearn::parallel::set_thread_count(1);
    let mut result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    complete(&mut result, args.trace);
    println!(
        "workload {} seed {} threads {} hardware_threads {}",
        args.workload,
        args.seed,
        dplearn::parallel::thread_count(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in &result.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut failures = result.failures.clone();
    failures.sort();
    failures.dedup();
    for f in failures.iter().take(20) {
        println!("CHECK FAILED: {f}");
    }
    if failures.len() > 20 {
        println!("CHECK FAILED: … and {} more", failures.len() - 20);
    }
    println!("{}", json_line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the program reports are exactly the
    /// ones `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        let all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &all {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(compact.matches("\"unit\":").count(), all.len());
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let ok: Vec<String> = [
            "--workload",
            "serve_mixed",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 3, 2, true)
        );
        for bad in [
            &["--seed", "x"][..],
            &["--trace", "2"],
            &["--bogus", "1"],
            &["--workload"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err());
        }
    }

    #[test]
    fn complete_fills_unexercised_layers_and_flags_undeclared() {
        let mut r = RunResult {
            metrics: vec![
                Metric::new("drift_ratio", 1.5, "ratio"),
                Metric::new("bogus", 1.0, "s"),
            ],
            ..RunResult::default()
        };
        complete(&mut r, true);
        assert_eq!(r.metrics.len(), per_layer().len());
        // `bogus` is undeclared, and the missing layer sum reads 0.
        assert_eq!(r.failures.len(), 2);
        let drift = r.metrics.iter().find(|m| m.name == "drift_ratio").unwrap();
        assert_eq!(drift.value, 1.5);
    }
}
