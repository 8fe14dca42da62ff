//! Multi-tenant cache benchmark: repeated medical queries across 16
//! hospital tenants, cold vs warm, recorded as `BENCH_cache_hit.json`.
//!
//! Protocol: two identically seeded runtimes — one with the fragment +
//! plan caches disabled, one with them on — serve the same workload. A
//! first pass aligns both runtimes' simulated clocks (and fills the caches
//! on the caching side); then [`PASSES`] measured passes alternate cold
//! and warm: the cold runtime recomputes every fragment, the warm runtime
//! serves them from the shared result cache.
//!
//! Gates (deterministic, so they hold on any host):
//! * every warm pass runs 0 fragment executions and builds 0 cost models,
//!   and every cold pass runs exactly 3 fragment executions and 1 build
//!   per job (planning profiles the fragments once and execution reuses
//!   the outputs);
//! * every warm pass is all fragment-cache hits;
//! * warm outcomes bit-identical to cold outcomes at 1 worker (including
//!   simulated cost vectors) and at 4 workers (plans, rows,
//!   fingerprints — racing workers reorder the drifting simulation, so
//!   simulated wall-clock is not comparable across runs there);
//! * a budget-bounded run stays within its byte budget while evicting.
//!
//! The warm/cold qps speedup is recorded per worker count as the median
//! over the measured pairs with its min and max, not gated: it is a
//! wall-clock ratio, and it moves with how cheap the cold path is.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport, WorkCounters};
use midas::{Midas, QueryPolicy};
use midas_bench::{print_table, write_json};
use midas_tpch::medical::{generate_medical, medical_query};

const TENANTS: usize = 16;
const ROUNDS: usize = 6;
const PATIENTS: usize = 10_000;
/// Measured cold/warm pass pairs per worker count.
const PASSES: usize = 5;

fn workload() -> Vec<RuntimeJob> {
    let modalities = ["CT", "MR", "US", "XR", "PET"];
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        for tenant in 0..TENANTS {
            jobs.push(RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(modalities[(tenant + round) % modalities.len()])),
                QueryPolicy::balanced(),
            ));
        }
    }
    jobs
}

/// Per-job outcomes canonicalized to the service-order-independent
/// fields; with `with_costs` the simulated cost vectors are pinned too
/// (valid only between equal-worker-count, equal-clock runs).
fn canonical_outcomes(report: &RuntimeReport, with_costs: bool) -> Vec<String> {
    let mut out: Vec<(usize, String)> = report
        .completed
        .iter()
        .map(|r| {
            let mut line = format!(
                "seq={} tenant={} label={} rows={} fingerprint={} pinned=v{} chosen={:?}",
                r.sequence,
                r.tenant,
                r.report.label,
                r.report.result_rows,
                r.report.result_fingerprint,
                r.pinned_version(),
                r.report.chosen,
            );
            if with_costs {
                line.push_str(&format!(
                    " predicted={:?} actual={:?}",
                    r.report.predicted_costs, r.report.actual_costs
                ));
            }
            (r.sequence, line)
        })
        .collect();
    out.sort_by_key(|(sequence, _)| *sequence);
    out.into_iter().map(|(_, line)| line).collect()
}

struct Measured {
    cold_qps: f64,
    warm_qps: f64,
    /// Per-pair warm/cold qps ratios, sorted.
    speedups: Vec<f64>,
    fragment_hit_rate: f64,
    plan_hit_rate: f64,
}

impl Measured {
    fn speedup(&self) -> f64 {
        median(&self.speedups)
    }
}

/// Median of a sorted, non-empty sample.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

fn main() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(PATIENTS, 0.5, 42);
    let jobs = workload();
    let n_jobs = jobs.len();

    let mut sweep = Vec::new();
    for workers in [1usize, 4] {
        let build = |cached: bool| {
            FederationRuntime::new(
                midas.federation(),
                midas.placement(),
                catalog.clone(),
                RuntimeConfig {
                    workers,
                    parallel_fragments: workers > 1,
                    max_vms: 2,
                    fragment_cache_bytes: if cached { 64 << 20 } else { 0 },
                    plan_cache_bytes: if cached { 8 << 20 } else { 0 },
                    ..RuntimeConfig::default()
                },
            )
        };
        let cold_rt = build(false);
        let warm_rt = build(true);

        // Pass 1 aligns the simulated clocks and fills the caches.
        let cold_prime = cold_rt.run(jobs.clone());
        let warm_prime = warm_rt.run(jobs.clone());
        for (label, report) in [("cold prime", &cold_prime), ("warm prime", &warm_prime)] {
            assert!(
                report.failed.is_empty(),
                "{workers}w {label}: failures {:?}",
                report.failed
            );
        }
        let mut cold_qps = Vec::with_capacity(PASSES);
        let mut warm_qps = Vec::with_capacity(PASSES);
        let mut speedups = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let ctx = format!("{workers} workers, pass {pass}");
            let primed = warm_rt.cache_stats();
            let cold = cold_rt.run(jobs.clone());
            let warm = warm_rt.run(jobs.clone());
            assert!(cold.failed.is_empty() && warm.failed.is_empty());

            // Gate: hit-path outcomes bit-identical to the cold path. At
            // one worker the two runtimes served identical sequences from
            // identical simulated clocks, so even the cost vectors must
            // match bit-for-bit.
            let with_costs = workers == 1;
            assert_eq!(
                canonical_outcomes(&warm, with_costs),
                canonical_outcomes(&cold, with_costs),
                "{ctx}: warm outcomes drifted from cold"
            );

            // Gate: the measured pass really was all hits (every fragment
            // and plan was primed; nothing invalidated in between).
            let stats = warm_rt.cache_stats();
            let pass_hits = stats.fragment.hits - primed.fragment.hits;
            let pass_misses = stats.fragment.misses - primed.fragment.misses;
            assert_eq!(
                pass_misses, 0,
                "{ctx}: measured pass missed {pass_misses} fragments"
            );
            assert_eq!(pass_hits, 3 * n_jobs as u64);

            // Gate: deterministic work. The warm pass executes nothing and
            // builds no cost model; the cold pass profiles each job's three
            // fragments once and executes them no second time.
            assert_eq!(
                warm.work,
                WorkCounters::default(),
                "{ctx}: warm pass did work"
            );
            assert_eq!(
                cold.work,
                WorkCounters {
                    fragment_executions: 3 * n_jobs as u64,
                    cost_model_builds: n_jobs as u64,
                },
                "{ctx}: cold pass work"
            );

            cold_qps.push(cold.throughput_qps);
            warm_qps.push(warm.throughput_qps);
            speedups.push(warm.throughput_qps / cold.throughput_qps);
        }
        let stats = warm_rt.cache_stats();
        let fragment_hit_rate =
            stats.fragment.hits as f64 / (stats.fragment.hits + stats.fragment.misses) as f64;
        let plan_hit_rate = stats.plan.hits as f64 / (stats.plan.hits + stats.plan.misses) as f64;

        sweep.push((
            workers,
            Measured {
                cold_qps: median(&sorted(cold_qps)),
                warm_qps: median(&sorted(warm_qps)),
                speedups: sorted(speedups),
                fragment_hit_rate,
                plan_hit_rate,
            },
        ));
    }

    // Budget-bounded run: a cache two orders smaller than the resident
    // set must keep evicting yet never exceed its byte budget, and the
    // workload must still complete correctly.
    let unbounded_resident = {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            catalog.clone(),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        );
        assert!(rt.run(jobs.clone()).failed.is_empty());
        rt.cache_stats().fragment.resident_bytes
    };
    let budget = (unbounded_resident / 2).max(1);
    let bounded_rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog.clone(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            fragment_cache_bytes: budget,
            ..RuntimeConfig::default()
        },
    );
    let bounded = bounded_rt.run(jobs.clone());
    assert!(bounded.failed.is_empty());
    let bounded_stats = bounded_rt.cache_stats().fragment;
    assert!(
        bounded_stats.resident_bytes <= budget,
        "cache exceeded its byte budget: {} > {budget}",
        bounded_stats.resident_bytes
    );
    assert!(
        bounded_stats.evictions > 0,
        "halved budget never evicted: {bounded_stats:?}"
    );

    print_table(
        &[
            "workers",
            "cold qps",
            "warm qps",
            "speedup (median)",
            "speedup min..max",
            "frag hit rate",
            "plan hit rate",
        ],
        &sweep
            .iter()
            .map(|(workers, m)| {
                vec![
                    workers.to_string(),
                    format!("{:.1}", m.cold_qps),
                    format!("{:.1}", m.warm_qps),
                    format!("{:.2}x", m.speedup()),
                    format!(
                        "{:.2}x..{:.2}x",
                        m.speedups[0],
                        m.speedups[m.speedups.len() - 1]
                    ),
                    format!("{:.1}%", m.fragment_hit_rate * 100.0),
                    format!("{:.1}%", m.plan_hit_rate * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let serial = &sweep[0].1;
    println!(
        "\ncache: {n_jobs} jobs x {PASSES} measured pass pairs over {TENANTS} tenants, warm \
         passes all-hits with 0 fragment executions and 0 cost-model builds, bit-identical \
         to cold; {:.2}x median serial speedup (recorded), bounded run respected {budget} \
         bytes with {} evictions",
        serial.speedup(),
        bounded_stats.evictions
    );

    write_json(
        "BENCH_cache_hit",
        &serde_json::json!({
            "jobs_per_pass": n_jobs,
            "tenants": TENANTS,
            "rounds": ROUNDS,
            "patients": PATIENTS,
            "measured_pass_pairs": PASSES,
            "scope": "federation-global",
            "sweep": sweep
                .iter()
                .map(|(workers, m)| {
                    serde_json::json!({
                        "workers": workers,
                        "cold_qps": m.cold_qps,
                        "warm_qps": m.warm_qps,
                        "speedup": m.speedup(),
                        "speedup_min": m.speedups[0],
                        "speedup_max": m.speedups[m.speedups.len() - 1],
                        "speedup_samples": m.speedups,
                        "fragment_hit_rate": m.fragment_hit_rate,
                        "plan_hit_rate": m.plan_hit_rate,
                    })
                })
                .collect::<Vec<_>>(),
            "bounded": serde_json::json!({
                "budget_bytes": budget,
                "resident_bytes": bounded_stats.resident_bytes,
                "evictions": bounded_stats.evictions,
                "budget_respected": true,
            }),
            "gates": serde_json::json!({
                "speedup": "recorded only (median with min/max over the measured pairs)",
                "warm_pass_work": serde_json::json!({
                    "fragment_executions": 0,
                    "cost_model_builds": 0,
                    "enforced": true,
                }),
                "cold_pass_work_per_job": serde_json::json!({
                    "fragment_executions": 3,
                    "cost_model_builds": 1,
                    "enforced": true,
                }),
                "bit_identical_outcomes": "1 worker incl. simulated costs; 4 workers plans/rows/fingerprints",
                "all_hits_measured_pass": true,
                "byte_budget": "enforced",
            }),
        }),
    );
    let root_copy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_cache_hit.json");
    if let Err(e) = std::fs::copy("target/repro/BENCH_cache_hit.json", &root_copy) {
        eprintln!("warning: could not copy BENCH_cache_hit.json to repo root: {e}");
    }
}
