//! Execute-once harness: planning runs each job's three fragments through
//! the fused executor and execution takes those outputs instead of
//! recomputing them.
//!
//! 1. **Counter** — a cold TPC-H batch with both caches off performs
//!    exactly 3 fragment executions and 1 cost-model build per job, and a
//!    warm re-run with both caches on performs none.
//! 2. **Parity** — a 1-worker runtime, caches on and off, matches a
//!    hand-written two-pass loop (`PlanCostModel::build`, then a
//!    `SharedExecutor` with no binding) bit for bit: chosen plan,
//!    predicted and actual costs, result fingerprint and DREAM window.
//! 3. **Fault order** — an outage on a scan site fails with
//!    `SiteUnavailable` before the prepared output is used, and a failed
//!    attempt hands the outputs it took back for the retry.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeError, RuntimeJob, WorkCounters};
use midas::{Midas, QueryPolicy};
use midas_cloud::SiteId;
use midas_engines::exec::{PreparedOutputs, SharedExecutor};
use midas_engines::sim::{DriftIntensity, FaultPlan, SimulationEnv, SiteAdmission};
use midas_engines::{Catalog, EngineError};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::{base_rows, features_from};
use midas_ires::{
    assemble, execute_fragments, CandidateConfig, EnumerationSpace, ModellingRegistry,
    PlanCostModel,
};
use midas_moo::WeightedSumModel;
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_query};
use midas_tpch::queries::{q12, q13, q14, q17};
use std::sync::Mutex;

/// Four tenants, one TPC-H query class each; `rounds` rounds with varying
/// parameters, so some rounds repeat a query shape (plan-cache hits).
fn tpch_jobs(rounds: usize) -> Vec<RuntimeJob> {
    let modes = [("MAIL", "SHIP"), ("AIR", "RAIL"), ("TRUCK", "FOB")];
    let mut jobs = Vec::new();
    for round in 0..rounds {
        let (m1, m2) = modes[round % modes.len()];
        jobs.push(RuntimeJob::new(
            "hospital-A",
            q12(m1, m2, 1993 + (round % 2) as i32),
            QueryPolicy::balanced(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-B",
            q13("special", "requests"),
            QueryPolicy::fastest(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-C",
            q14(1994, 1 + (round % 3) as u32),
            QueryPolicy::cheapest(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-D",
            q17("Brand#23", "MED BOX"),
            QueryPolicy::balanced().with_money_budget(50.0),
        ));
    }
    jobs
}

fn tpch_deployment() -> (Midas, TpchDb) {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    (midas, TpchDb::generate(GenConfig::new(0.002, 5)))
}

fn config(workers: usize, cached: bool) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        fragment_cache_bytes: if cached { 64 << 20 } else { 0 },
        plan_cache_bytes: if cached { 8 << 20 } else { 0 },
        ..RuntimeConfig::default()
    }
}

#[test]
fn cold_batch_with_caches_off_executes_three_fragments_per_job() {
    let (midas, db) = tpch_deployment();
    let jobs = tpch_jobs(3);
    let n = jobs.len() as u64;
    for workers in [1, 2] {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config(workers, false),
        );
        let report = rt.run(jobs.clone());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(
            report.work,
            WorkCounters {
                fragment_executions: 3 * n,
                cost_model_builds: n,
            },
            "{workers} workers"
        );
    }
}

#[test]
fn warm_rerun_with_caches_on_executes_nothing() {
    let (midas, db) = tpch_deployment();
    let jobs = tpch_jobs(3);
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        config(1, true),
    );
    let cold = rt.run(jobs.clone());
    assert!(cold.failed.is_empty(), "failures: {:?}", cold.failed);
    // The cold pass builds one model per distinct query shape and
    // executes nothing beyond what those builds prepared.
    let shapes = cold.cache.plan.misses;
    assert_eq!(
        cold.work,
        WorkCounters {
            fragment_executions: 3 * shapes,
            cost_model_builds: shapes,
        }
    );
    let warm = rt.run(jobs);
    assert!(warm.failed.is_empty(), "failures: {:?}", warm.failed);
    assert_eq!(warm.work, WorkCounters::default());
}

/// What the two-pass loop observed for one job.
#[derive(Debug, PartialEq)]
struct Observed {
    chosen: CandidateConfig,
    predicted: Vec<f64>,
    actual: Vec<f64>,
    fingerprint: u64,
    dream_window: Option<usize>,
}

/// The pre-execute-once pipeline of a 1-worker runtime, written out by
/// hand: profile with `PlanCostModel::build`, select, then execute every
/// fragment again through a `SharedExecutor` with no binding.
fn two_pass_loop(midas: &Midas, catalog: &Catalog, jobs: &[RuntimeJob]) -> Vec<Observed> {
    let federation = midas.federation();
    let defaults = RuntimeConfig::default();
    let mut env = SimulationEnv::new();
    for site in federation.site_ids() {
        env.register_site(site, defaults.seed, defaults.drift);
    }
    let env = Mutex::new(env);
    let admission = SiteAdmission::new(federation.admission_capacities());
    let registry = ModellingRegistry::dream_defaults(2);
    jobs.iter()
        .map(|job| {
            let query = &job.query;
            let space =
                EnumerationSpace::for_query(federation, midas.placement(), query, defaults.max_vms)
                    .unwrap();
            let model = PlanCostModel::build(midas.placement(), query, catalog).unwrap();
            let outcome = moqp_exhaustive(
                &space,
                &model,
                federation,
                &WeightedSumModel::new(&job.policy.weights),
                &job.policy.constraints,
            );
            let federated =
                assemble(federation, midas.placement(), query, &outcome.chosen).unwrap();
            let executed = SharedExecutor::new(federation, &env, &admission)
                .run(&federated, catalog)
                .unwrap();
            let features = features_from(
                base_rows(catalog, &query.left_table).unwrap(),
                base_rows(catalog, &query.right_table).unwrap(),
                &executed,
                1.0,
            );
            let actual = executed.cost_vector();
            let fit = registry.observe(query.class(), &features, &actual).unwrap();
            Observed {
                chosen: outcome.chosen,
                predicted: outcome.chosen_costs,
                actual,
                fingerprint: executed.result.fingerprint(),
                dream_window: fit.map(|report| report.window_used),
            }
        })
        .collect()
}

#[test]
fn one_worker_runtime_matches_the_two_pass_loop_bit_for_bit() {
    let (midas, db) = tpch_deployment();
    // Eight rounds: DREAM comes online (L + 2 = 6 runs per class) before
    // the end, so its windows are compared too.
    let jobs = tpch_jobs(8);
    let expected = two_pass_loop(&midas, db.catalog(), &jobs);
    assert!(expected.iter().any(|o| o.dream_window.is_some()));
    for cached in [false, true] {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config(1, cached),
        );
        let report = rt.run(jobs.clone());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        let observed: Vec<Observed> = report
            .completed
            .iter()
            .map(|r| Observed {
                chosen: r.report.chosen.clone(),
                predicted: r.report.predicted_costs.clone(),
                actual: r.report.actual_costs.clone(),
                fingerprint: r.report.result_fingerprint,
                dream_window: r.report.dream_window,
            })
            .collect();
        assert_eq!(
            observed,
            expected,
            "caches {}",
            if cached { "on" } else { "off" }
        );
    }
}

/// The medical deployment's sites: patient (cloud A) and generalinfo
/// (cloud B) are both scan sites.
fn medical() -> (Midas, SiteId, SiteId, Catalog) {
    let (midas, a, b) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    (midas, a, b, generate_medical(200, 0.5, 11))
}

#[test]
fn scan_site_outage_fails_before_the_prepared_output_is_used() {
    let (midas, patient_site, _, catalog) = medical();
    let federation = midas.federation();
    let query = medical_query(Some("CT"));
    let outputs = execute_fragments(&query, &catalog, 1).unwrap();
    let model = PlanCostModel::from_outputs(midas.placement(), &query, &outputs).unwrap();
    let space = EnumerationSpace::for_query(federation, midas.placement(), &query, 2).unwrap();
    let chosen = moqp_exhaustive(
        &space,
        &model,
        federation,
        &WeightedSumModel::new(&[0.5, 0.5]),
        &QueryPolicy::balanced().constraints,
    )
    .chosen;
    let federated = assemble(federation, midas.placement(), &query, &chosen).unwrap();
    let prepared = PreparedOutputs::new(outputs);

    let mut env = SimulationEnv::new();
    for site in federation.site_ids() {
        env.register_site(site, 42, DriftIntensity::Strong);
    }
    let env = Mutex::new(env);
    let admission = SiteAdmission::new(federation.admission_capacities());
    let faults = FaultPlan::none().outage(patient_site, 0, 1);
    let executor = SharedExecutor::new(federation, &env, &admission)
        .with_faults(&faults, 0)
        .with_prepared_outputs(&prepared);
    let err = executor.run(&federated, &catalog).unwrap_err();
    assert_eq!(err, EngineError::SiteUnavailable { site: patient_site });
    assert_eq!(prepared.remaining(), 3, "no prepared output was used");
    assert_eq!(executor.fragment_executions(), 0);

    // Past the outage the same binding serves the whole run.
    let healthy = SharedExecutor::new(federation, &env, &admission)
        .with_faults(&faults, 1)
        .with_prepared_outputs(&prepared);
    let outcome = healthy.run(&federated, &catalog).unwrap();
    assert_eq!(prepared.remaining(), 0, "every output was taken");
    assert_eq!(healthy.fragment_executions(), 0);
    assert!(outcome.result.n_rows() > 0);

    // Through the runtime: an outage covering every attempt fails typed,
    // after planning's three executions and none in execution.
    let rt = FederationRuntime::new(
        federation,
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            max_attempts: 2,
            ..config(1, false)
        },
    )
    .with_fault_plan(FaultPlan::none().outage(patient_site, 0, 2));
    let report = rt.run(vec![RuntimeJob::new(
        "clinic",
        query,
        QueryPolicy::balanced(),
    )]);
    assert_eq!(
        report.failed[0].error,
        RuntimeError::SiteUnavailable {
            tenant: "clinic".into(),
            site: patient_site,
            attempts: 2,
        }
    );
    assert_eq!(
        report.work,
        WorkCounters {
            fragment_executions: 3,
            cost_model_builds: 1,
        }
    );
}

#[test]
fn a_retry_reuses_the_outputs_a_failed_attempt_took() {
    let (midas, _, generalinfo_site, catalog) = medical();
    // The right scan fragment's site is down for attempt 0 only. Serially,
    // fragment 0 takes its prepared output before fragment 1 fails; the
    // failed run hands it back and the retry takes all three.
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog.clone(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..config(1, false)
        },
    )
    .with_fault_plan(FaultPlan::none().outage(generalinfo_site, 0, 1));
    let job = RuntimeJob::new("clinic", medical_query(Some("CT")), QueryPolicy::balanced());
    let report = rt.run(vec![job.clone()]);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed[0].attempts, 2);
    assert_eq!(
        report.work,
        WorkCounters {
            fragment_executions: 3,
            cost_model_builds: 1,
        }
    );

    // The retried job's result is the one a healthy run computes.
    let healthy = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        config(1, false),
    );
    let reference = healthy.run(vec![job]);
    assert_eq!(
        report.completed[0].report.result_fingerprint,
        reference.completed[0].report.result_fingerprint
    );
}
