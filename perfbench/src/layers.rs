//! `--trace 1`: the per-layer breakdown of one fixed, seed-determined job
//! set.
//!
//! The job set runs three ways on fresh state:
//!
//! 1. **two workers, untraced** — the end-to-end configuration; supplies
//!    the counters the runtime already reports (queue wait, site-admission
//!    wait) and, on the open loop, generator lag and ingest latency;
//! 2. **one worker, untraced** — the reference the replay must reproduce
//!    bit for bit, and the wall time the replay is compared with;
//! 3. **the traced replay** (see [`crate::replay`]) — a span around every
//!    public call, in admission order; the open loop's events follow the
//!    tape's order without pacing.
//!
//! Cache counters come from the replay's own caches: with two workers the
//! shared caches see racing lookups, so only the sequential counts repeat
//! exactly across runs with the same seed.

use crate::check;
use crate::drive::{admission_wait_s, closed_loop, open_loop, Batch, Stop};
use crate::replay::{ReplayRuntime, ReplayedJob};
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use crate::workload::{Event, Inputs, Timed, Workload, WORKERS};
use crate::{prime, publishes, Metric, Outcome};
use midas::runtime::{RuntimeJob, TenantReport};
use midas_engines::{CacheStats, Table};
use std::collections::BTreeMap;
use std::time::Instant;

/// Closed-loop batches in the traced job set (after any priming batch):
/// 256 `tpch_mix` jobs, 1600 `medical_cached` jobs.
const TRACE_BATCHES: usize = 2;

/// Queries and ingest batches on the traced open-loop tape (16 s of tape at
/// the workload's rates).
const TRACE_LIVE_QUERIES: usize = 80;
const TRACE_LIVE_INGESTS: usize = 16;

/// Plans `PlanCostModel::build` executes to profile a query (left prepare,
/// right prepare, combine).
const PLANS_PER_BUILD: usize = 3;

/// One step of the replay.
enum Step<'a> {
    /// A job and the one-worker runtime's report of it (`None` if the
    /// runtime did not complete it).
    Job(&'a RuntimeJob, Option<&'a TenantReport>),
    /// An ingest publish.
    Publish(&'a [(String, Table)]),
}

/// What the two untraced drives of the job set contribute.
struct Drives {
    /// Jobs of the priming pass, replayed untraced.
    prime_jobs: usize,
    /// Wall seconds of the one-worker measured part.
    reference_wall_s: f64,
    /// Per-job queue wait of the two-worker measured part.
    queue_wait_s: Vec<f64>,
    /// Site-admission wait of the two-worker measured part, seconds.
    admission_wait_s: f64,
    /// Jobs of the two-worker measured part.
    jobs: usize,
    /// Open loop only: generator lag per event and ingest latency per
    /// batch, seconds.
    lag_s: Vec<f64>,
    ingest_latency_s: Vec<f64>,
    /// Operations submitted to / failed in the two-worker measured part.
    attempted: usize,
    failed: usize,
}

/// A batch's jobs aligned with the runtime's reports of them.
fn aligned(batch: &Batch) -> Vec<Step<'_>> {
    batch
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| Step::Job(job, completed_at(&batch.report.completed, i)))
        .collect()
}

/// The report of admission `sequence` among `completed` (sorted by
/// sequence), if that job completed.
fn completed_at(completed: &[TenantReport], sequence: usize) -> Option<&TenantReport> {
    completed
        .binary_search_by_key(&sequence, |r| r.sequence)
        .ok()
        .map(|at| &completed[at])
}

/// Replay steps of an open-loop tape, jobs aligned with the one-worker
/// run's reports (admission order = tape order).
fn tape_steps<'a>(tape: &'a [Timed], completed: &'a [TenantReport]) -> Vec<Step<'a>> {
    let mut sequence = 0;
    tape.iter()
        .map(|timed| match &timed.event {
            Event::Query(job) => {
                sequence += 1;
                Step::Job(job, completed_at(completed, sequence - 1))
            }
            Event::Ingest(deltas) => Step::Publish(deltas),
        })
        .collect()
}

/// `--trace 1` (see the module docs).
pub fn traced(workload: Workload, seed: u64) -> Result<Outcome, Vec<String>> {
    let inputs = Inputs::generate(workload, seed);
    let mut violations = Vec::new();
    let mut replay = Replay::new(&inputs);

    let drives = if workload == Workload::TpchLiveIngest {
        let tape = inputs.live_tape(TRACE_LIVE_QUERIES, TRACE_LIVE_INGESTS);
        let rt2 = inputs.runtime(WORKERS);
        let paced = open_loop(&rt2, &tape, true);
        let rt1 = inputs.runtime(1);
        let reference = open_loop(&rt1, &tape, false);
        for (what, run) in [("2-worker serve", &paced), ("1-worker serve", &reference)] {
            let cases = check::account(what, &run.jobs, &run.report, &mut violations);
            check::verify_results(
                &inputs.catalog,
                &publishes(&tape, &run.published),
                &cases,
                &mut violations,
            );
        }
        replay.run(&tape_steps(&tape, &reference.report.completed));
        Drives {
            prime_jobs: 0,
            reference_wall_s: reference.wall_s,
            queue_wait_s: paced
                .report
                .completed
                .iter()
                .map(|r| r.queue_wait_s)
                .collect(),
            admission_wait_s: admission_wait_s(&rt2),
            jobs: paced.jobs.len(),
            lag_s: paced.lag_s.clone(),
            ingest_latency_s: paced.ingest_latency_s.clone(),
            attempted: paced.jobs.len() + paced.ingest_latency_s.len(),
            failed: paced.jobs.len() - paced.report.completed.len() + paced.ingest_failures,
        }
    } else {
        let rounds = workload.rounds_per_batch();
        let first_round = workload.prime_rounds();

        let rt2 = inputs.runtime(WORKERS);
        let primed2 = prime(&rt2, &inputs);
        let batches2 = closed_loop(
            &rt2,
            &inputs,
            first_round,
            rounds,
            Stop::Batches(TRACE_BATCHES),
        );

        let rt1 = inputs.runtime(1);
        let primed1 = prime(&rt1, &inputs);
        let batches1 = closed_loop(
            &rt1,
            &inputs,
            first_round,
            rounds,
            Stop::Batches(TRACE_BATCHES),
        );

        let mut cases = Vec::new();
        let all = primed2
            .iter()
            .chain(&batches2)
            .chain(&primed1)
            .chain(&batches1);
        for (i, batch) in all.enumerate() {
            cases.extend(check::account(
                &format!("batch {i}"),
                &batch.jobs,
                &batch.report,
                &mut violations,
            ));
        }
        check::verify_results(&inputs.catalog, &[], &cases, &mut violations);

        // The priming pass is replayed untraced, like the set-up it is.
        let prime_steps: Vec<Step> = primed1.iter().flat_map(aligned).collect();
        replay.run(&prime_steps);
        replay.discard_trace();
        for (i, batch) in batches1.iter().enumerate() {
            if i > 0 && workload.fresh_runtime_per_batch() {
                replay.restart();
            }
            replay.run(&aligned(batch));
        }

        let attempted: usize = batches2.iter().map(|b| b.jobs.len()).sum();
        let completed2: Vec<&TenantReport> =
            batches2.iter().flat_map(|b| &b.report.completed).collect();
        Drives {
            prime_jobs: prime_steps.len(),
            reference_wall_s: batches1.iter().map(|b| b.wall_s).sum(),
            queue_wait_s: completed2.iter().map(|r| r.queue_wait_s).collect(),
            admission_wait_s: batches2.iter().map(|b| b.admission_wait_s).sum(),
            jobs: attempted,
            lag_s: Vec::new(),
            ingest_latency_s: Vec::new(),
            attempted,
            failed: attempted - completed2.len(),
        }
    };

    if !violations.is_empty() {
        return Err(violations);
    }
    for e in &replay.tally.errors {
        eprintln!("perfbench: replay: {e}");
    }
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
    if let Err(e) = replay.tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let metrics = layer_metrics(&replay, &drives);
    Ok(Outcome {
        attempted: drives.attempted,
        failed: drives.failed,
        metrics,
        provenance: vec![
            ("jobs_traced", replay.tally.jobs.len().to_string()),
            ("jobs_replayed_untraced", drives.prime_jobs.to_string()),
            ("ingest_batches_traced", replay.tally.publishes.to_string()),
            ("jobs_per_untraced_run", drives.jobs.to_string()),
            ("spans", replay.tracer.spans().len().to_string()),
            ("span_file", crate::json_str(&path.display().to_string())),
        ],
    })
}

/// What the traced replay produced.
#[derive(Default)]
struct Tally {
    jobs: Vec<ReplayedJob>,
    publishes: usize,
    mismatches: usize,
    errors: Vec<String>,
    /// Compaction bytes per catalog version the replay pinned.
    compaction_bytes: BTreeMap<u64, u64>,
}

/// Whether two cost vectors are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether the replay reproduced the runtime's decision and outputs.
fn faithful(replayed: &ReplayedJob, reference: &TenantReport) -> bool {
    let r = &reference.report;
    replayed.pinned_version == reference.pinned_version
        && replayed.chosen == r.chosen
        && same_bits(&replayed.predicted, &r.predicted_costs)
        && same_bits(&replayed.actual, &r.actual_costs)
        && replayed.fingerprint == r.result_fingerprint
        && replayed.dream_window == r.dream_window
}

/// Adds cache counters of `b` to `a` (resident totals: the larger).
fn add_stats(a: &mut CacheStats, b: CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.evictions += b.evictions;
    a.invalidations += b.invalidations;
    a.resident_bytes = a.resident_bytes.max(b.resident_bytes);
}

/// The replay driver: the current replayed runtime state, the tracer,
/// and what the traced part of the replay produced.
struct Replay<'a> {
    inputs: &'a Inputs,
    runtime: ReplayRuntime<'a>,
    tracer: Tracer,
    tally: Tally,
    /// Wall seconds of the traced part.
    wall_s: f64,
    /// Cache counters of retired runtime states, minus those of the
    /// discarded priming pass.
    fragment: CacheStats,
    plan: CacheStats,
    /// Counters at the end of the priming pass, not reported.
    primed: (CacheStats, CacheStats),
}

impl<'a> Replay<'a> {
    fn fresh(inputs: &'a Inputs) -> ReplayRuntime<'a> {
        ReplayRuntime::new(
            inputs.midas.federation(),
            inputs.midas.placement(),
            inputs.catalog.clone(),
            inputs.workload.config(1),
        )
    }

    fn new(inputs: &'a Inputs) -> Self {
        Replay {
            inputs,
            runtime: Self::fresh(inputs),
            tracer: Tracer::new(),
            tally: Tally::default(),
            wall_s: 0.0,
            fragment: CacheStats::default(),
            plan: CacheStats::default(),
            primed: (CacheStats::default(), CacheStats::default()),
        }
    }

    /// Fragment and plan cache counters of the traced part.
    fn cache_stats(&self) -> (CacheStats, CacheStats) {
        let (mut fragment, mut plan) = (self.fragment, self.plan);
        let (f, p) = self.runtime.cache_stats();
        let (f0, p0) = self.primed;
        let since = |now: CacheStats, base: CacheStats| CacheStats {
            hits: now.hits - base.hits,
            misses: now.misses - base.misses,
            evictions: now.evictions - base.evictions,
            invalidations: now.invalidations - base.invalidations,
            ..now
        };
        add_stats(&mut fragment, since(f, f0));
        add_stats(&mut plan, since(p, p0));
        (fragment, plan)
    }

    /// Continues on the state of a fresh runtime (see
    /// `Workload::fresh_runtime_per_batch`).
    fn restart(&mut self) {
        (self.fragment, self.plan) = self.cache_stats();
        self.primed = (CacheStats::default(), CacheStats::default());
        self.runtime = Self::fresh(self.inputs);
    }

    /// Forgets what has been traced so far except mismatches and errors
    /// (after the untimed priming pass).
    fn discard_trace(&mut self) {
        self.tracer.clear();
        self.tally.jobs.clear();
        self.tally.publishes = 0;
        self.tally.compaction_bytes.clear();
        self.wall_s = 0.0;
        self.primed = self.runtime.cache_stats();
    }

    /// Replays `steps`, one root span per step (`job` or `ingest`).
    fn run(&mut self, steps: &[Step<'_>]) {
        let began = Instant::now();
        for step in steps {
            self.tracer
                .set_job(self.tally.jobs.len() + self.tally.publishes + self.tally.errors.len());
            match step {
                Step::Job(job, reference) => {
                    let root = self.tracer.enter("job");
                    let replayed = self.runtime.process(job, &mut self.tracer);
                    self.tracer.exit(root);
                    let (version, bytes) = self.runtime.current_compaction();
                    self.tally.compaction_bytes.insert(version, bytes);
                    match (replayed, reference) {
                        (Ok(replayed), reference) => {
                            if !reference.is_some_and(|r| faithful(&replayed, r)) {
                                self.tally.mismatches += 1;
                            }
                            self.tally.jobs.push(replayed);
                        }
                        (Err(e), reference) => {
                            self.tally.mismatches += usize::from(reference.is_some());
                            self.tally.errors.push(e);
                        }
                    }
                }
                Step::Publish(deltas) => {
                    let root = self.tracer.enter("ingest");
                    let published = self.runtime.publish(deltas.to_vec(), &mut self.tracer);
                    self.tracer.exit(root);
                    match published {
                        Ok(()) => self.tally.publishes += 1,
                        Err(e) => self.tally.errors.push(e),
                    }
                }
            }
        }
        self.wall_s += began.elapsed().as_secs_f64();
    }
}

/// Mean relative error of predictions against actuals on one cost axis.
fn mre(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let errors: Vec<f64> = pairs
        .filter(|&(_, actual)| actual != 0.0)
        .map(|(predicted, actual)| ((predicted - actual) / actual).abs())
        .collect();
    mean(&errors)
}

/// The per-layer metrics (see `BENCHMARK.json` for which end-to-end
/// metric each should move).
fn layer_metrics(replay: &Replay<'_>, drives: &Drives) -> Vec<Metric> {
    let (tally, tracer, replay_wall_s) = (&replay.tally, &replay.tracer, replay.wall_s);
    let (fragment, plan) = replay.cache_stats();
    let totals = tracer.totals();
    let jobs = &tally.jobs;
    let n = jobs.len().max(1) as f64;
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let per_job = |names: &[&str]| names.iter().map(|name| ms(name)).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&ReplayedJob) -> f64| jobs.iter().map(f).sum::<f64>();
    let ratio = |hits: u64, misses: u64| {
        let lookups = hits + misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    };

    let builds = jobs.iter().filter(|j| j.model_built).count();
    let executed = sum(&|j| (j.fragments - j.fragment_hits as usize) as f64);
    let estimated: Vec<(&ReplayedJob, &Vec<f64>)> = jobs
        .iter()
        .filter_map(|j| j.dream_estimate.as_ref().map(|e| (j, e)))
        .collect();
    let windows: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.dream_window.map(|w| w as f64))
        .collect();

    let leaf_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    let probe_s = ms("modelling.estimate") / 1e3;
    let pct = |xs: &[f64], p: f64| percentile(xs, p).map_or(0.0, |v| v * 1e3);

    vec![
        // ires.costmodel
        Metric::new(
            "costmodel.build_ms_per_job",
            per_job(&["costmodel.build"]),
            "ms",
        ),
        Metric::new("costmodel.builds", builds as f64, "count"),
        Metric::new(
            "costmodel.mre_time",
            mre(jobs.iter().map(|j| (j.predicted[0], j.actual[0]))),
            "ratio",
        ),
        Metric::new(
            "costmodel.clone_ms_per_job",
            per_job(&["costmodel.pressure_clone", "costmodel.model_clone"]),
            "ms",
        ),
        // engines.exec
        Metric::new("exec.ms_per_job", per_job(&["exec.run"]), "ms"),
        Metric::new("exec.fragments_executed", executed, "count"),
        Metric::new(
            "exec.fragment_cache_hits",
            sum(&|j| f64::from(j.fragment_hits)),
            "count",
        ),
        Metric::new(
            "exec.intermediate_mb",
            sum(&|j| j.intermediate_bytes as f64) / 1e6 / n,
            "MB/job",
        ),
        Metric::new(
            "exec.catalog_cloned_bytes",
            sum(&|j| j.cloned_bytes as f64),
            "bytes",
        ),
        Metric::new(
            "pipeline.fragment_executions_per_job",
            ((PLANS_PER_BUILD * builds) as f64 + executed) / n,
            "count/job",
        ),
        // ires.optimizer
        Metric::new("optimizer.ms_per_job", per_job(&["optimizer.select"]), "ms"),
        Metric::new(
            "optimizer.evaluations",
            sum(&|j| j.evaluations as f64),
            "count",
        ),
        Metric::new("plan.sim_time_s_mean", sum(&|j| j.actual[0]) / n, "s"),
        Metric::new("plan.money_mean", sum(&|j| j.actual[1]) / n, "USD"),
        // ires.enumerate
        Metric::new("enumerate.ms_per_job", per_job(&["enumerate"]), "ms"),
        Metric::new(
            "enumerate.space_size",
            sum(&|j| j.space_size as f64) / n,
            "count",
        ),
        Metric::new("assemble.ms_per_job", per_job(&["assemble"]), "ms"),
        // engines.cache
        Metric::new(
            "cache.plan_probe_ms_per_job",
            per_job(&["cache.plan_probe", "cache.plan_insert"]),
            "ms",
        ),
        Metric::new("cache.key_ms_per_job", per_job(&["cache.plan_key"]), "ms"),
        Metric::new(
            "cache.fragment_hit_ratio",
            ratio(fragment.hits, fragment.misses),
            "ratio",
        ),
        Metric::new(
            "cache.fragment_lookups",
            (fragment.hits + fragment.misses) as f64,
            "count",
        ),
        Metric::new(
            "cache.plan_hit_ratio",
            ratio(plan.hits, plan.misses),
            "ratio",
        ),
        Metric::new(
            "cache.plan_lookups",
            (plan.hits + plan.misses) as f64,
            "count",
        ),
        Metric::new(
            "cache.fragment_evictions",
            fragment.evictions as f64,
            "count",
        ),
        Metric::new(
            "cache.fragment_invalidations",
            fragment.invalidations as f64,
            "count",
        ),
        Metric::new(
            "cache.resident_mb",
            (fragment.resident_bytes + plan.resident_bytes) as f64 / 1e6,
            "MB",
        ),
        // engines.version
        Metric::new(
            "version.pin_ms_per_job",
            per_job(&["version.pin", "version.table_ids"]),
            "ms",
        ),
        Metric::new(
            "version.compaction_mb",
            tally.compaction_bytes.values().sum::<u64>() as f64 / 1e6,
            "MB",
        ),
        Metric::new(
            "version.append_ms_per_batch",
            ms("version.append") / tally.publishes.max(1) as f64,
            "ms",
        ),
        Metric::new("version.ingest_batches", tally.publishes as f64, "count"),
        Metric::new("ingest.ms_p50", pct(&drives.ingest_latency_s, 50.0), "ms"),
        Metric::new("ingest.ms_p90", pct(&drives.ingest_latency_s, 90.0), "ms"),
        // engines.data / engines.analyze
        Metric::new("fingerprint.ms_per_job", per_job(&["fingerprint"]), "ms"),
        Metric::new("analyze.ms_per_job", per_job(&["analyze"]), "ms"),
        // ires.modelling / dream
        Metric::new("features.ms_per_job", per_job(&["features"]), "ms"),
        Metric::new(
            "modelling.observe_ms_per_job",
            per_job(&["modelling.observe"]),
            "ms",
        ),
        Metric::new(
            "dream.mre_time",
            mre(estimated.iter().map(|(j, e)| (e[0], j.actual[0]))),
            "ratio",
        ),
        Metric::new(
            "dream.mre_money",
            mre(estimated.iter().map(|(j, e)| (e[1], j.actual[1]))),
            "ratio",
        ),
        Metric::new("dream.estimates", estimated.len() as f64, "count"),
        Metric::new("dream.window_mean", mean(&windows), "count"),
        // midas.runtime / engines.sim
        Metric::new(
            "runtime.orchestration_frac",
            1.0 - (replay_wall_s - probe_s) / drives.reference_wall_s,
            "ratio",
        ),
        Metric::new(
            "sim.admission_wait_ms_per_job",
            drives.admission_wait_s * 1e3 / drives.jobs.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "runtime.queue_wait_ms_p50",
            pct(&drives.queue_wait_s, 50.0),
            "ms",
        ),
        // trace health
        Metric::new("trace.attributed_frac", leaf_s / replay_wall_s, "ratio"),
        Metric::new("trace.replay_mismatches", tally.mismatches as f64, "count"),
        Metric::new("trace.jobs", jobs.len() as f64, "count"),
        Metric::new("trace.replay_wall_s", replay_wall_s, "s"),
        Metric::new("loadgen.lag_ms_p90", pct(&drives.lag_s, 90.0), "ms"),
    ]
}
