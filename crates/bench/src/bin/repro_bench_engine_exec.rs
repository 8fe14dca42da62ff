//! Scalar-vs-vectorized executor timing on the paper's two-table queries,
//! recorded as `target/repro/BENCH_engine_exec.json` (and copied to the
//! repo root as `BENCH_engine_exec.json`) so the execution engine's perf
//! trajectory is tracked across PRs.
//!
//! Each query runs its full local pipeline (left prepare, right prepare,
//! combine) over a generated TPC-H instance; we report median wall-clock
//! per run and the scalar/vectorized speedup. Results are cross-checked
//! for equality before timing, so the numbers always describe two
//! executors computing the same answer.
//!
//! A second section sweeps the **partitioned parallel join/aggregation**
//! (`execute_with_partitions`) over the *combine* fragments — the
//! single-threaded join+aggregate stage that dominates once wave
//! parallelism overlaps the scans. Two gates:
//!
//! * **parity, always**: at every swept degree the combine's result table,
//!   `WorkProfile` and fingerprint must be bit-for-bit identical to the
//!   serial path;
//! * **speedup, on parallel hardware**: with ≥ 4 CPUs available, the
//!   Q13/Q17 combines at 4 partitions must run ≥ 1.4x faster than serial.
//!   On fewer cores (e.g. a 1-CPU CI container, where OS threads cannot
//!   physically overlap) the measured numbers are still recorded, and the
//!   gate is reported as skipped rather than lying about hardware.
//!
//! A third section times each query's three fragments (left prepare,
//! right prepare, combine) one by one through the fused executor — the
//! path the runtime runs — at partition degree 1 on SF 0.05, the
//! benchmark's TPC-H database. Samples interleave the fragments; median,
//! min and max are recorded, not gated. Before timing, every fragment's
//! fused output is gated bit for bit against `execute_scalar`: table,
//! `WorkProfile` and fingerprint.

use midas_bench::{print_table, write_json};
use midas_engines::ops::{execute, execute_scalar, execute_with_partitions};
use midas_engines::{execute_fused_with_partitions, Catalog, PhysicalPlan};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17, TwoTableQuery};
use std::time::Instant;

const SAMPLES: usize = 15;
/// Samples for the (heavier) partitioned-combine sweep.
const SWEEP_SAMPLES: usize = 9;
/// Scale factor of the sweep database — large enough that the combine's
/// hash join + grouped aggregation dominate thread-spawn overhead.
const SWEEP_SF: f64 = 0.05;
/// Swept partition degrees (1 = the serial baseline).
const DEGREES: [usize; 4] = [1, 2, 4, 8];
/// The gated speedup of the Q13/Q17 combines at 4 partitions.
const GATE_DEGREE: usize = 4;
const GATE_SPEEDUP: f64 = 1.4;
/// Cores needed before the wall-clock gate is meaningful.
const GATE_MIN_CPUS: usize = 4;
/// Interleaved samples of the per-fragment timing.
const FRAGMENT_SAMPLES: usize = 15;
/// Seed of the per-fragment database: the benchmark's TPC-H base tables.
const FRAGMENT_DATA_SEED: u64 = 42;

fn median_secs_n(samples: usize, mut run: impl FnMut()) -> f64 {
    run(); // warmup
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            // LINT: wall-clock — this bench measures real executor time.
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn median_secs(run: impl FnMut()) -> f64 {
    median_secs_n(SAMPLES, run)
}

/// The partitioned-combine sweep: prepares each query's two sides once,
/// then times (and parity-checks) the combine fragment alone at every
/// partition degree. Returns the JSON rows plus the measured
/// degree-`GATE_DEGREE` speedup per query.
fn partitioned_combine_sweep() -> (Vec<serde_json::Value>, Vec<(String, f64)>) {
    let db = TpchDb::generate(GenConfig::new(SWEEP_SF, 2));
    let queries: Vec<(&str, TwoTableQuery)> = vec![
        ("Q12", q12("MAIL", "SHIP", 1994)),
        ("Q13", q13("special", "requests")),
        ("Q14", q14(1995, 9)),
        ("Q17", q17("Brand#23", "MED BOX")),
    ];
    println!(
        "\nPartitioned combine-fragment sweep over TPC-H sf={SWEEP_SF} \
         ({} lineitem rows), median of {SWEEP_SAMPLES} runs:\n",
        db.table("lineitem").map_or(0, |t| t.n_rows()),
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    let mut gate_speedups: Vec<(String, f64)> = Vec::new();
    for (name, q) in &queries {
        // Stage the combine's inputs once: prepared sides as @frag0/@frag1.
        let mut cat: Catalog = db.catalog().clone();
        let (left, _) = execute(&q.left_prepare, &cat).expect("left prepare runs");
        let (right, _) = execute(&q.right_prepare, &cat).expect("right prepare runs");
        cat.insert("@frag0".to_string(), left);
        cat.insert("@frag1".to_string(), right);

        // Parity gate at every degree — table, profile and fingerprint.
        let (serial_out, serial_profile) = execute(&q.combine, &cat).expect("combine runs");
        for &degree in &DEGREES[1..] {
            let (out, profile) =
                execute_with_partitions(&q.combine, &cat, degree).expect("combine runs");
            assert_eq!(out, serial_out, "{name}: table drifted at degree {degree}");
            assert_eq!(
                profile, serial_profile,
                "{name}: work profile drifted at degree {degree}"
            );
            assert_eq!(out.fingerprint(), serial_out.fingerprint(), "{name}");
        }

        // Timing sweep.
        let mut medians = Vec::with_capacity(DEGREES.len());
        for &degree in &DEGREES {
            let s = median_secs_n(SWEEP_SAMPLES, || {
                execute_with_partitions(&q.combine, &cat, degree).expect("combine runs");
            });
            medians.push(s);
        }
        let gate_idx = DEGREES
            .iter()
            .position(|&d| d == GATE_DEGREE)
            .expect("gate degree is swept");
        let speedup = medians[0] / medians[gate_idx];
        gate_speedups.push((name.to_string(), speedup));
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", medians[0] * 1e3),
            format!("{:.3}", medians[1] * 1e3),
            format!("{:.3}", medians[gate_idx] * 1e3),
            format!("{:.3}", medians[3] * 1e3),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(serde_json::json!({
            "query": name,
            "degrees": DEGREES,
            "combine_median_s": medians,
            "speedup_at_gate_degree": speedup,
        }));
    }
    print_table(
        &["query", "p=1 (ms)", "p=2 (ms)", "p=4 (ms)", "p=8 (ms)", "p=4 speedup"],
        &rows,
    );
    (json_rows, gate_speedups)
}

/// Median, min and max of one fragment's samples, in seconds.
fn spread(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples[0], samples[samples.len() - 1])
}

/// Per-fragment fused timings at degree 1, each fragment first gated
/// bit for bit against the scalar oracle.
fn fragment_timings() -> Vec<serde_json::Value> {
    let db = TpchDb::generate(GenConfig::new(SWEEP_SF, FRAGMENT_DATA_SEED));
    let queries: Vec<(&str, TwoTableQuery)> = vec![
        ("Q12", q12("AIR", "MAIL", 1993)),
        ("Q13", q13("special", "requests")),
        ("Q14", q14(1996, 4)),
        ("Q17", q17("Brand#54", "SM CASE")),
    ];
    println!(
        "\nPer-fragment fused execution, degree 1, TPC-H sf={SWEEP_SF} \
         (data seed {FRAGMENT_DATA_SEED}), {FRAGMENT_SAMPLES} interleaved samples, ms \
         as median [min–max]:\n"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    for (name, q) in &queries {
        let mut cat: Catalog = db.catalog().clone();
        let fragments: [(&str, &PhysicalPlan); 3] = [
            ("left_prepare", &q.left_prepare),
            ("right_prepare", &q.right_prepare),
            ("combine", &q.combine),
        ];
        for (i, (frag, plan)) in fragments.iter().enumerate() {
            let (fused, fused_profile) =
                execute_fused_with_partitions(plan, &cat, 1).expect("fused fragment runs");
            let (scalar, scalar_profile) =
                execute_scalar(plan, &cat).expect("scalar fragment runs");
            assert_eq!(fused, scalar, "{name} {frag}: fused table differs from scalar");
            assert_eq!(
                fused_profile, scalar_profile,
                "{name} {frag}: fused work profile differs from scalar"
            );
            assert_eq!(
                fused.fingerprint(),
                scalar.fingerprint(),
                "{name} {frag}: fused fingerprint differs from scalar"
            );
            if i < 2 {
                cat.insert(format!("@frag{i}"), fused);
            }
        }
        let mut samples: [Vec<f64>; 3] = Default::default();
        // One warmup round, then the timed rounds.
        for _ in 0..=FRAGMENT_SAMPLES {
            for (i, (_, plan)) in fragments.iter().enumerate() {
                // LINT: wall-clock — this bench measures real executor time.
                let t0 = Instant::now();
                execute_fused_with_partitions(plan, &cat, 1).expect("fused fragment runs");
                samples[i].push(t0.elapsed().as_secs_f64());
            }
        }
        let mut row = vec![name.to_string()];
        let mut spreads = Vec::with_capacity(3);
        for fragment_samples in &mut samples {
            let (median, min, max) = spread(&mut fragment_samples[1..]); // [0] is the warmup
            row.push(format!("{:.2} [{:.2}–{:.2}]", median * 1e3, min * 1e3, max * 1e3));
            spreads.push(serde_json::json!({ "median_s": median, "min_s": min, "max_s": max }));
        }
        rows.push(row);
        json_rows.push(serde_json::json!({
            "query": name,
            "label": q.label,
            "left_prepare": spreads[0],
            "right_prepare": spreads[1],
            "combine": spreads[2],
        }));
    }
    print_table(&["query", "left_prepare", "right_prepare", "combine"], &rows);
    json_rows
}

fn main() {
    let sf = 0.01;
    let db = TpchDb::generate(GenConfig::new(sf, 2));
    let queries: Vec<(&str, TwoTableQuery)> = vec![
        ("Q12", q12("MAIL", "SHIP", 1994)),
        ("Q13", q13("special", "requests")),
        ("Q14", q14(1995, 9)),
        ("Q17", q17("Brand#23", "MED BOX")),
    ];

    println!(
        "Executor comparison over TPC-H sf={sf} ({} lineitem rows), median of {SAMPLES} runs:\n",
        db.table("lineitem").map_or(0, |t| t.n_rows()),
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    for (name, q) in &queries {
        let mut cat = db.catalog().clone();
        // Equality cross-check before timing.
        let (out_v, _) = q.execute_local(&mut cat, execute).expect("vectorized runs");
        let (out_s, _) = q
            .execute_local(&mut cat, execute_scalar)
            .expect("scalar runs");
        assert_eq!(out_v, out_s, "{name}: executors disagree");

        let scalar_s = median_secs(|| {
            q.execute_local(&mut cat, execute_scalar).expect("runs");
        });
        let vector_s = median_secs(|| {
            q.execute_local(&mut cat, execute).expect("runs");
        });
        let speedup = scalar_s / vector_s;
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", scalar_s * 1e3),
            format!("{:.3}", vector_s * 1e3),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(serde_json::json!({
            "query": name,
            "scalar_median_s": scalar_s,
            "vectorized_median_s": vector_s,
            "speedup": speedup,
        }));
    }
    print_table(
        &["query", "scalar (ms)", "vectorized (ms)", "speedup"],
        &rows,
    );

    // Partition-degree sweep over the combine fragments, parity-gated at
    // every degree; the wall-clock gate needs hardware that can actually
    // run 4 shards at once.
    let (sweep_rows, gate_speedups) = partitioned_combine_sweep();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_enforced = cpus >= GATE_MIN_CPUS;
    if gate_enforced {
        for (name, speedup) in &gate_speedups {
            if name == "Q13" || name == "Q17" {
                assert!(
                    *speedup >= GATE_SPEEDUP,
                    "{name} combine at {GATE_DEGREE} partitions regressed below \
                     the {GATE_SPEEDUP}x gate: {speedup:.2}x"
                );
            }
        }
        println!("\npartitioned-combine speedup gate: enforced ({cpus} CPUs) — OK");
    } else {
        println!(
            "\npartitioned-combine speedup gate: SKIPPED — {cpus} CPU(s) cannot \
             overlap shards (parity was still gated at every degree)"
        );
    }

    let fragments_json = serde_json::json!({
        "scale_factor": SWEEP_SF,
        "data_seed": FRAGMENT_DATA_SEED,
        "degree": 1,
        "executor": "fused",
        "samples": FRAGMENT_SAMPLES,
        "unit": "seconds per fragment (median, min, max of interleaved samples)",
        "parity": "fused == execute_scalar bit-for-bit per fragment (table, profile, fingerprint)",
        "gated": false,
        "rows": fragment_timings(),
    });

    let gate_json = serde_json::json!({
        "queries": ["Q13", "Q17"],
        "degree": GATE_DEGREE,
        "min_speedup": GATE_SPEEDUP,
        "enforced": gate_enforced,
        "cpus_available": cpus,
    });
    let partitioned_json = serde_json::json!({
        "scale_factor": SWEEP_SF,
        "samples": SWEEP_SAMPLES,
        "unit": "seconds (median per combine fragment)",
        "parity": "bit-for-bit at every degree (table, profile, fingerprint)",
        "gate": gate_json,
        "rows": sweep_rows,
    });
    write_json(
        "BENCH_engine_exec",
        &serde_json::json!({
            "scale_factor": sf,
            "samples": SAMPLES,
            "unit": "seconds (median per full local pipeline)",
            "rows": json_rows,
            "partitioned_combine": partitioned_json,
            "fragments": fragments_json,
        }),
    );
    // Keep a copy at the workspace root so the perf trajectory is visible
    // in the tree across PRs. Anchored to the manifest dir, not the CWD,
    // so running from inside crates/bench doesn't scatter copies.
    let root_copy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine_exec.json");
    if let Err(e) = std::fs::copy("target/repro/BENCH_engine_exec.json", &root_copy) {
        eprintln!("warning: could not copy BENCH_engine_exec.json to repo root: {e}");
    }
}
