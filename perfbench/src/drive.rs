//! Untraced drives of the real `FederationRuntime`: closed-loop `run`
//! batches and an open-loop `serve` fed by one producer thread.
//!
//! Every wall time here is taken by the benchmark around the public call.
//! `RuntimeReport::wall_s` and `throughput_qps` are never read: `run`
//! starts that clock only after it has admitted and statically validated
//! the whole batch, so work moved into admission would vanish from them.

use crate::workload::{Event, Inputs, Timed};
use midas::runtime::{FederationRuntime, RuntimeJob, RuntimeReport};
use std::time::{Duration, Instant};

/// One `run` call: the jobs handed over, what came back, and how long the
/// call took.
pub struct Batch {
    /// The submitted jobs; a report's `sequence` indexes this list.
    pub jobs: Vec<RuntimeJob>,
    /// The runtime's report.
    pub report: RuntimeReport,
    /// Wall seconds of the `run` call, measured around it.
    pub wall_s: f64,
    /// Seconds fragments of this batch waited for site-admission slots.
    pub admission_wait_s: f64,
}

/// Total site-admission wait a runtime has accounted so far.
pub fn admission_wait_s(rt: &FederationRuntime<'_>) -> f64 {
    rt.admission_stats()
        .iter()
        .map(|(_, s)| s.total_wait_s)
        .sum()
}

/// When a closed loop stops submitting batches.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first batch that ends past this much measured time.
    After(Duration),
    /// After exactly this many batches.
    Batches(usize),
}

/// Closed loop: consecutive `run` batches of `rounds_per_batch` rounds,
/// starting at round `first_round`. The first batch runs on `rt`; later
/// ones run on `rt` too (caches and learned state carry over) unless the
/// workload asks for a fresh runtime per batch. Generating a batch and
/// building its runtime happen before the `run` call and are not part of
/// the measured time.
pub fn closed_loop<'a>(
    rt: &FederationRuntime<'a>,
    inputs: &'a Inputs,
    first_round: usize,
    rounds_per_batch: usize,
    stop: Stop,
) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut measured = Duration::ZERO;
    loop {
        let start = first_round + batches.len() * rounds_per_batch;
        let jobs = inputs.jobs(start..start + rounds_per_batch);
        let fresh;
        let rt = if batches.is_empty() || !inputs.workload.fresh_runtime_per_batch() {
            rt
        } else {
            fresh = inputs.runtime(rt.config().workers);
            &fresh
        };
        let waited = admission_wait_s(rt);
        let began = Instant::now();
        let report = rt.run(jobs.clone());
        let wall = began.elapsed();
        measured += wall;
        batches.push(Batch {
            jobs,
            report,
            wall_s: wall.as_secs_f64(),
            admission_wait_s: admission_wait_s(rt) - waited,
        });
        let done = match stop {
            Stop::After(limit) => measured >= limit,
            Stop::Batches(n) => batches.len() >= n,
        };
        if done {
            return batches;
        }
    }
}

/// One `serve` call driven from a tape.
pub struct OpenLoop {
    /// The submitted jobs in admission order; a report's `sequence`
    /// indexes this list.
    pub jobs: Vec<RuntimeJob>,
    /// Tape positions of the ingest batches that published, in order:
    /// the `k`-th of them published catalog version `k + 1`.
    pub published: Vec<usize>,
    /// The runtime's report.
    pub report: RuntimeReport,
    /// Wall seconds of the `serve` call, measured around it.
    pub wall_s: f64,
    /// Per job (by sequence): seconds from its due time until `submit`
    /// returned (generator lateness plus admission).
    pub submit_delay_s: Vec<f64>,
    /// Per event: seconds the generator started it after its due time.
    pub lag_s: Vec<f64>,
    /// Per ingest batch: seconds from its due time until `ingest_batch`
    /// returned.
    pub ingest_latency_s: Vec<f64>,
    /// Ingest batches the runtime refused.
    pub ingest_failures: usize,
}

/// Drives `serve` through `tape` from the calling thread.
///
/// `paced`: sleep until each event is due (the open loop). Unpaced, each
/// job is drained before the next event, so the runtime serves the tape
/// strictly in order — the sequence the traced replay follows. (Jobs
/// queued together would be served in tenant round-robin order, which
/// differs from admission order while tenants are still registering.)
pub fn open_loop(rt: &FederationRuntime<'_>, tape: &[Timed], paced: bool) -> OpenLoop {
    let mut jobs = Vec::new();
    let mut submit_delay_s = Vec::new();
    let mut lag_s = Vec::new();
    let mut ingest_latency_s = Vec::new();
    let mut published = Vec::new();
    let mut ingest_failures = 0;
    let began = Instant::now();
    let ((), report) = rt.serve(|ingress| {
        for (position, timed) in tape.iter().enumerate() {
            let due = Duration::from_secs_f64(timed.due_s);
            if paced {
                if let Some(wait) = due.checked_sub(began.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
            lag_s.push(began.elapsed().as_secs_f64() - timed.due_s);
            match &timed.event {
                Event::Query(job) => {
                    let sequence = ingress.submit((**job).clone());
                    assert_eq!(sequence, jobs.len(), "one producer admits in order");
                    submit_delay_s.push(began.elapsed().as_secs_f64() - timed.due_s);
                    jobs.push((**job).clone());
                    if !paced {
                        ingress.drain();
                    }
                }
                Event::Ingest(deltas) => {
                    match ingress.ingest_batch(deltas.clone()) {
                        Ok(_) => published.push(position),
                        Err(_) => ingest_failures += 1,
                    }
                    ingest_latency_s.push(began.elapsed().as_secs_f64() - timed.due_s);
                }
            }
        }
    });
    let wall_s = began.elapsed().as_secs_f64();
    OpenLoop {
        jobs,
        published,
        report,
        wall_s,
        submit_delay_s,
        lag_s,
        ingest_latency_s,
        ingest_failures,
    }
}
