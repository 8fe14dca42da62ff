//! The benchmark's workloads and the seeded inputs they are built from.
//!
//! Every input — query parameters, ingest batches, the medical registry —
//! is a pure function of the workload and the `--seed` argument; the TPC-H
//! base tables are the fixed database of their scale factor. The runtime
//! only ever receives the generated inputs; its own configuration
//! (including its simulation seed) is the default except where a workload
//! says otherwise below.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_engines::cache::CacheScope;
use midas_engines::sim::split_seed;
use midas_engines::{Catalog, Table};
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_query};
use midas_tpch::stream::{streaming_workload, StreamEvent, StreamSpec};
use std::ops::Range;

/// Worker threads of every untraced end-to-end run (the reference host has
/// two CPUs).
pub const WORKERS: usize = 2;

/// TPC-H scale factor of `tpch_mix` and `tpch_live_ingest`. SF 0.2 costs
/// about 0.4 s per job, which leaves too few jobs in a run.
const TPCH_SF: f64 = 0.05;
/// Seed of the TPC-H base tables. Like `dbgen` at a fixed scale factor,
/// the database is the same in every run; `--seed` picks the query
/// parameter streams and the ingest batches. With seeded base tables the
/// open-loop p90 service time spread by a tenth across ten seeds instead
/// of a twentieth.
const TPCH_DATA_SEED: u64 = 42;
/// Tenants of the TPC-H mix (each cycles Q12/Q13/Q14/Q17 with its own
/// split-seed parameter stream).
const TPCH_TENANTS: usize = 4;
/// Patients of the medical registry (Example 2.1).
const MEDICAL_PATIENTS: usize = 10_000;
/// Share of patients with shared general-info records.
const MEDICAL_COVERAGE: f64 = 0.5;
/// Hospitals querying the medical registry.
const MEDICAL_TENANTS: usize = 16;
/// Clinic filters the medical tenants rotate through.
const MODALITIES: [&str; 5] = ["CT", "MR", "US", "XR", "PET"];

/// Queries per second the open-loop generator submits on
/// `tpch_live_ingest` — well below what two workers complete (`tpch_mix`
/// runs about 29 jobs/s closed-loop on a 2-CPU host). At 9 queries/s the
/// two workers overlapped often enough that a slower host made jobs
/// overlap further, and the median service time spread by a quarter
/// across ten runs; at 5 queries/s, by about a tenth.
pub const LIVE_QUERY_RATE: f64 = 5.0;
/// Ingest batches per second on `tpch_live_ingest`, an independent
/// fixed-rate stream (hospital admissions do not wait for analysts). Each
/// publish makes the next job compact about 25 MB; at 3 batches/s that
/// churn alone nearly doubled the median service time and made it swing
/// by a quarter between runs on a shared 2-CPU host.
pub const LIVE_INGEST_RATE: f64 = 1.0;
/// New orders (plus their lineitems) per ingest batch.
const LIVE_ORDERS_PER_BATCH: usize = 60;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop TPC-H Q12/13/14/17 batches: the compute path.
    TpchMix,
    /// Closed-loop medical join batches with a warm per-tenant cache: the
    /// per-job pipeline overhead path.
    MedicalCached,
    /// Open-loop TPC-H queries beside an independent ingest stream: the
    /// read/write path.
    TpchLiveIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TpchMix,
        Workload::MedicalCached,
        Workload::TpchLiveIngest,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchMix => "tpch_mix",
            Workload::MedicalCached => "medical_cached",
            Workload::TpchLiveIngest => "tpch_live_ingest",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (the same text as its `why` in
    /// `BENCHMARK.json`).
    ///
    /// * `tpch_mix`: planning (`PlanCostModel::build` re-executes the
    ///   query's three plans) and relational execution are nearly all the
    ///   work. Each 128-job batch starts from cold caches, where about 40%
    ///   of fragment lookups and about 12% of plan lookups hit across
    ///   tenants. Faster planning or execution should show here first.
    /// * `medical_cached`: after a priming pass every fragment and plan
    ///   lookup hits (176 entries, about 11 MB, fit in the cache), so a job
    ///   costs about a millisecond of pipeline overhead — selection,
    ///   hit-path bookkeeping, the result fingerprint, the DREAM refit.
    ///   Faster planning or relational work should not move it; changes to
    ///   the fingerprint, orchestration or observability should.
    /// * `tpch_live_ingest`: writes beside reads. Every publish mints a
    ///   catalog version that the next job's `pin()` compacts, and
    ///   invalidates entries in both caches; open-loop latency also counts
    ///   the queueing a closed loop hides. A change that assumes a frozen
    ///   catalog or warm caches pays for it here.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TpchMix => {
                "closed-loop TPC-H SF0.05 Q12-Q17 batches of 128 jobs, 4 tenants, cold caches \
                 per batch: cost-model builds and relational execution are nearly all the work"
            }
            Workload::MedicalCached => {
                "closed-loop medical join, 16 tenants, per-tenant caches primed to all hits: \
                 measures per-job pipeline overhead (selection, bookkeeping, fingerprint, refit)"
            }
            Workload::TpchLiveIngest => {
                "open loop, 5 TPC-H queries/s beside 1 ingest batch/s: publishes mint catalog \
                 versions to compact and invalidate caches; latency counts queueing"
            }
        }
    }

    /// The runtime configuration: the default with [`WORKERS`] workers;
    /// the medical workload runs under the medical-privacy cache scope.
    pub fn config(self, workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            cache_scope: match self {
                Workload::MedicalCached => CacheScope::PerTenant,
                Workload::TpchMix | Workload::TpchLiveIngest => CacheScope::FederationGlobal,
            },
            ..RuntimeConfig::default()
        }
    }

    /// Rounds per closed-loop `run` batch: about three seconds of
    /// `tpch_mix` work and half a second of `medical_cached` work on a
    /// 2-CPU host.
    pub fn rounds_per_batch(self) -> usize {
        match self {
            Workload::TpchMix | Workload::TpchLiveIngest => 32,
            Workload::MedicalCached => 50,
        }
    }

    /// Whether each closed-loop batch runs on a fresh runtime (cold caches,
    /// no learned state). The TPC-H parameter domains are small at this
    /// scale (Q14 has 60 bindings), so one long-lived runtime would
    /// converge to serving every job from its caches and the measured work
    /// would depend on how many batches a run reached. A fresh runtime per
    /// batch keeps every batch on the compute path, with the cross-tenant
    /// hits a cold batch of this size has.
    pub fn fresh_runtime_per_batch(self) -> bool {
        self == Workload::TpchMix
    }

    /// Rounds of the untimed priming pass that fills the caches before a
    /// measurement (every tenant sees every modality once).
    pub fn prime_rounds(self) -> usize {
        match self {
            Workload::MedicalCached => MODALITIES.len(),
            Workload::TpchMix | Workload::TpchLiveIngest => 0,
        }
    }
}

/// One event of the open-loop tape, due `due_s` seconds after the start.
pub struct Timed {
    /// Scheduled submission time, seconds from the start of `serve`.
    pub due_s: f64,
    /// What is submitted.
    pub event: Event,
}

/// A query submission or an ingest publish.
pub enum Event {
    /// A tenant's job.
    Query(Box<RuntimeJob>),
    /// One atomic delta batch.
    Ingest(Vec<(String, Table)>),
}

/// The seeded inputs of one workload: the deployment and its base data.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    seed: u64,
    /// Federation and placement.
    pub midas: Midas,
    /// Base tables (catalog version 0).
    pub catalog: Catalog,
    /// The generated TPC-H database (for delta batches and the query tape).
    tpch: Option<TpchDb>,
}

impl Inputs {
    /// Generates the deployment and base data.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::TpchMix | Workload::TpchLiveIngest => {
                let db = TpchDb::generate(GenConfig::new(TPCH_SF, TPCH_DATA_SEED));
                let (midas, _, _) =
                    Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
                Inputs {
                    workload,
                    seed,
                    midas,
                    catalog: db.catalog().clone(),
                    tpch: Some(db),
                }
            }
            Workload::MedicalCached => {
                let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
                Inputs {
                    workload,
                    seed,
                    midas,
                    catalog: generate_medical(MEDICAL_PATIENTS, MEDICAL_COVERAGE, seed),
                    tpch: None,
                }
            }
        }
    }

    /// A fresh runtime over the inputs with `workers` workers.
    pub fn runtime(&self, workers: usize) -> FederationRuntime<'_> {
        FederationRuntime::new(
            self.midas.federation(),
            self.midas.placement(),
            self.catalog.clone(),
            self.workload.config(workers),
        )
    }

    /// The jobs of `rounds` (one job per tenant per round, tenants in a
    /// fixed rotation so one worker serves them in admission order).
    pub fn jobs(&self, rounds: Range<usize>) -> Vec<RuntimeJob> {
        match &self.tpch {
            Some(db) => tpch_jobs(db, self.seed, rounds),
            None => medical_jobs(self.seed, rounds),
        }
    }

    /// The open-loop tape: `n_queries` jobs at [`LIVE_QUERY_RATE`] merged
    /// by due time with `n_ingests` delta batches at [`LIVE_INGEST_RATE`].
    pub fn live_tape(&self, n_queries: usize, n_ingests: usize) -> Vec<Timed> {
        let db = self
            .tpch
            .as_ref()
            .expect("the live tape is built over TPC-H inputs");
        let rounds = n_queries.div_ceil(TPCH_TENANTS);
        let mut tape: Vec<Timed> = self
            .jobs(0..rounds)
            .into_iter()
            .take(n_queries)
            .enumerate()
            .map(|(i, job)| Timed {
                due_s: i as f64 / LIVE_QUERY_RATE,
                event: Event::Query(Box::new(job)),
            })
            .collect();
        let mut deltas = DeltaStream::new(db, split_seed(self.seed, 0xD417A));
        tape.extend((0..n_ingests).map(|j| Timed {
            // Offset by half a period so the two streams never tie.
            due_s: (j as f64 + 0.5) / LIVE_INGEST_RATE,
            event: Event::Ingest(deltas.next_batch(LIVE_ORDERS_PER_BATCH).into_batch()),
        }));
        tape.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
        tape
    }
}

/// The policies of the four TPC-H tenants (as in `repro_bench_runtime`).
fn tpch_policy(tenant: usize) -> QueryPolicy {
    match tenant % 4 {
        0 => QueryPolicy::balanced(),
        1 => QueryPolicy::fastest(),
        2 => QueryPolicy::cheapest(),
        _ => QueryPolicy::balanced().with_money_budget(100.0),
    }
}

/// The four-hospital Q12–Q17 mix of `streaming_workload` (without its
/// spliced ingest), rounds `rounds`.
fn tpch_jobs(db: &TpchDb, seed: u64, rounds: Range<usize>) -> Vec<RuntimeJob> {
    let spec = StreamSpec {
        ingest_every: 0,
        ..StreamSpec::hospitals(seed, rounds.end)
    };
    let tenants = spec.tenants.clone();
    streaming_workload(db, &spec)
        .into_iter()
        .skip(rounds.start * TPCH_TENANTS)
        .filter_map(|event| match event {
            StreamEvent::Query { tenant, query, .. } => {
                let t = tenants
                    .iter()
                    .position(|name| *name == tenant)
                    .expect("tape tenants come from the spec");
                Some(RuntimeJob::new(&tenant, *query, tpch_policy(t)))
            }
            StreamEvent::Ingest { .. } => None,
        })
        .collect()
}

/// Example 2.1's Patient ⋈ GeneralInfo join with a modality filter; each
/// hospital rotates through the modalities from a seeded offset.
fn medical_jobs(seed: u64, rounds: Range<usize>) -> Vec<RuntimeJob> {
    let offset = (seed % MODALITIES.len() as u64) as usize;
    let mut jobs = Vec::with_capacity(rounds.len() * MEDICAL_TENANTS);
    for round in rounds {
        for tenant in 0..MEDICAL_TENANTS {
            let modality = MODALITIES[(tenant + round + offset) % MODALITIES.len()];
            jobs.push(RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(modality)),
                QueryPolicy::balanced(),
            ));
        }
    }
    jobs
}
