//! The repository benchmark: one command, three workloads, every metric by
//! name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_mix|medical_cached|tpch_live_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the unpaced `FederationRuntime` with two workers
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` runs a
//! fixed, seed-determined job set three ways — two workers untraced, one
//! worker untraced, and a traced one-worker replay of the pipeline from
//! outside the program (see `replay`) — and prints the per-layer metrics.
//!
//! Outputs are checked outside every timed interval (see `check`); on any
//! violation the command prints the violations to stderr and exits 1
//! without a result. The last stdout line is the result object; the line
//! before it records provenance (host CPUs, git revision, seed, job
//! counts).
//!
//! Every workload reports every end-to-end metric. `failed_frac` is not a
//! metric (it is 0 on a correct run); failures are the result's `failed`
//! out of `attempted`. A p99 is not reported: only `medical_cached` runs
//! enough jobs to have ten beyond it. Ingest latency exists only on
//! `tpch_live_ingest`, so it is a per-layer metric (`ingest.ms_p50`,
//! `ingest.ms_p90`).
//!
//! Noise. On the shared 2-CPU virtual machine the benchmark was defined on,
//! the hypervisor stole 5–10% of CPU time during TPC-H runs, and the level
//! drifted over minutes. Across ten 25-second runs with different seeds,
//! `tpch_mix` completed 27.1–32.4 jobs/s (quartile spread 0.10 of the
//! median) and `medical_cached` 1702–2031 jobs/s (0.09), while
//! `service_ms_p50` moved less (0.06 and 0.04). The open-loop
//! `service_ms_p50` of `tpch_live_ingest` is the least steady figure
//! (about 0.12): the median falls between the cheap Q13/Q14 and the
//! dearer Q17/Q12 jobs, where a few milliseconds of one class move it.

mod check;
mod drive;
mod layers;
mod replay;
mod stats;
mod trace;
mod workload;

use drive::{closed_loop, open_loop, Batch, Stop};
use midas::runtime::FederationRuntime;
use std::time::{Duration, Instant};
use workload::{Event, Inputs, Timed, Workload, LIVE_INGEST_RATE, LIVE_QUERY_RATE, WORKERS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one invocation measured.
pub struct Outcome {
    /// Operations submitted (jobs, plus ingest batches on the open loop).
    pub attempted: usize,
    /// Operations that failed or never ended.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Provenance entries, already JSON-encoded values.
    pub provenance: Vec<(&'static str, String)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(violations) => {
            for v in &violations {
                eprintln!("perfbench: VIOLATION: {v}");
            }
            eprintln!("perfbench: {} correctness violations", violations.len());
            std::process::exit(1);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut provenance = vec![
        ("workload", json_str(args.workload.name())),
        ("why", json_str(args.workload.why())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cpus", cpus.to_string()),
        ("git_revision", json_str(&stats::git_revision())),
    ];
    provenance.append(&mut outcome.provenance);
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"provenance\":{{{}}}}}", fields.join(","));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}

/// A JSON string literal (the benchmark's strings need no escapes beyond
/// quotes and backslashes).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The untimed priming pass (empty for workloads without one).
pub fn prime(rt: &FederationRuntime<'_>, inputs: &Inputs) -> Vec<Batch> {
    let rounds = inputs.workload.prime_rounds();
    if rounds == 0 {
        Vec::new()
    } else {
        closed_loop(rt, inputs, 0, rounds, Stop::Batches(1))
    }
}

/// The tape's delta batches that published, in version order.
pub fn publishes<'t>(
    tape: &'t [Timed],
    published: &[usize],
) -> Vec<&'t [(String, midas_engines::Table)]> {
    published
        .iter()
        .map(|&p| match &tape[p].event {
            Event::Ingest(deltas) => deltas.as_slice(),
            Event::Query(_) => unreachable!("only ingest positions are recorded as published"),
        })
        .collect()
}

/// `--trace 0`: set up [`SETUP_REPS`] times (the last set-up is kept),
/// measure for `seconds`, check every output, report.
fn end_to_end(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, Vec<String>> {
    let live = workload == Workload::TpchLiveIngest;
    let n_queries = (LIVE_QUERY_RATE * seconds.as_secs_f64()).round() as usize;
    let n_ingests = (LIVE_INGEST_RATE * seconds.as_secs_f64()).round() as usize;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let began = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        let tape = if live {
            inputs.live_tape(n_queries, n_ingests)
        } else {
            Vec::new()
        };
        let rt = inputs.runtime(WORKERS);
        let primed = prime(&rt, &inputs);
        setup_s.push(began.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let mut outcome = if live {
            measure_open(&inputs, &rt, &tape)?
        } else {
            measure_closed(&inputs, &rt, primed, seconds)?
        };
        outcome.metrics.push(Metric::new(
            "setup_s",
            stats::median(&setup_s).expect("set up at least once"),
            "s",
        ));
        return Ok(outcome);
    }
    unreachable!("SETUP_REPS >= 1 returns from the last repetition")
}

/// Percentile in milliseconds of a seconds sample (violation when empty).
fn pct_ms(samples: &[f64], p: f64) -> Result<f64, Vec<String>> {
    stats::percentile(samples, p)
        .map(|s| s * 1e3)
        .ok_or_else(|| vec!["no completed jobs to take percentiles over".to_string()])
}

/// Peak resident set of the process so far, read right after the
/// measured interval (before the correctness oracle allocates).
fn peak_rss_mb() -> Result<f64, Vec<String>> {
    stats::peak_rss_mb().ok_or_else(|| vec!["VmHWM unavailable".to_string()])
}

/// The end-to-end metrics shared by both loop shapes.
fn job_metrics(
    completed: usize,
    wall_s: f64,
    service_s: &[f64],
    latency_s: &[f64],
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, Vec<String>> {
    Ok(vec![
        Metric::new("jobs_per_s", completed as f64 / wall_s, "jobs/s"),
        Metric::new("service_ms_p50", pct_ms(service_s, 50.0)?, "ms"),
        Metric::new("service_ms_p90", pct_ms(service_s, 90.0)?, "ms"),
        Metric::new("latency_ms_p50", pct_ms(latency_s, 50.0)?, "ms"),
        Metric::new("latency_ms_p90", pct_ms(latency_s, 90.0)?, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ])
}

/// Closed loop: `run` batches for `seconds`. A job is due when its batch
/// is handed to `run`, so its latency is its queue wait plus its service.
fn measure_closed(
    inputs: &Inputs,
    rt: &FederationRuntime<'_>,
    primed: Vec<Batch>,
    seconds: Duration,
) -> Result<Outcome, Vec<String>> {
    let workload = inputs.workload;
    let first_round = workload.prime_rounds();
    let batches = closed_loop(
        rt,
        inputs,
        first_round,
        workload.rounds_per_batch(),
        Stop::After(seconds),
    );
    let peak_rss_mb = peak_rss_mb()?;

    let mut violations = Vec::new();
    let mut cases = Vec::new();
    for (i, batch) in primed.iter().chain(&batches).enumerate() {
        cases.extend(check::account(
            &format!("batch {i}"),
            &batch.jobs,
            &batch.report,
            &mut violations,
        ));
    }
    check::verify_results(&inputs.catalog, &[], &cases, &mut violations);
    if !violations.is_empty() {
        return Err(violations);
    }

    let attempted: usize = batches.iter().map(|b| b.jobs.len()).sum();
    let completed: Vec<_> = batches.iter().flat_map(|b| &b.report.completed).collect();
    let wall_s: f64 = batches.iter().map(|b| b.wall_s).sum();
    let service: Vec<f64> = completed.iter().map(|r| r.wall_latency_s).collect();
    let latency: Vec<f64> = completed
        .iter()
        .map(|r| r.queue_wait_s + r.wall_latency_s)
        .collect();
    Ok(Outcome {
        attempted,
        failed: attempted - completed.len(),
        metrics: job_metrics(completed.len(), wall_s, &service, &latency, peak_rss_mb)?,
        provenance: vec![
            ("jobs_submitted", attempted.to_string()),
            ("jobs_completed", completed.len().to_string()),
            ("batches", batches.len().to_string()),
            ("jobs_per_batch", batches[0].jobs.len().to_string()),
            (
                "priming_jobs",
                primed
                    .iter()
                    .map(|b| b.jobs.len())
                    .sum::<usize>()
                    .to_string(),
            ),
            ("workers", WORKERS.to_string()),
        ],
    })
}

/// Open loop: `serve` the tape at its due times. A job's latency runs from
/// its due time: generator lateness and admission, queue wait, service.
fn measure_open(
    inputs: &Inputs,
    rt: &FederationRuntime<'_>,
    tape: &[Timed],
) -> Result<Outcome, Vec<String>> {
    let run = open_loop(rt, tape, true);
    let peak_rss_mb = peak_rss_mb()?;

    let mut violations = Vec::new();
    let cases = check::account("serve", &run.jobs, &run.report, &mut violations);
    check::verify_results(
        &inputs.catalog,
        &publishes(tape, &run.published),
        &cases,
        &mut violations,
    );
    if !violations.is_empty() {
        return Err(violations);
    }

    let completed = &run.report.completed;
    let service: Vec<f64> = completed.iter().map(|r| r.wall_latency_s).collect();
    let latency: Vec<f64> = completed
        .iter()
        .map(|r| run.submit_delay_s[r.sequence] + r.queue_wait_s + r.wall_latency_s)
        .collect();
    let ingests = run.ingest_latency_s.len();
    let attempted = run.jobs.len() + ingests;
    Ok(Outcome {
        attempted,
        failed: run.jobs.len() - completed.len() + run.ingest_failures,
        metrics: job_metrics(completed.len(), run.wall_s, &service, &latency, peak_rss_mb)?,
        provenance: vec![
            ("jobs_submitted", run.jobs.len().to_string()),
            ("jobs_completed", completed.len().to_string()),
            ("ingest_batches", ingests.to_string()),
            ("query_rate_per_s", LIVE_QUERY_RATE.to_string()),
            ("ingest_rate_per_s", LIVE_INGEST_RATE.to_string()),
            ("workers", WORKERS.to_string()),
        ],
    })
}
