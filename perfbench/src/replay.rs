//! The traced replay: `FederationRuntime::process` re-enacted from outside,
//! one public call at a time, with a span around each call.
//!
//! The replay owns the same state a fresh runtime builds in
//! `FederationRuntime::new` — a versioned catalog, the drifting simulation
//! environment seeded the same way, per-site admission gates, the DREAM
//! modelling registry and both cache tiers — and walks one job through
//! admission, pin, plan-cache probe, enumeration, cost-model build,
//! selection, assembly, execution, learning and fingerprinting in the
//! runtime's order. With one worker the runtime performs exactly this
//! sequence, so the replay's chosen plans, cost vectors and result
//! fingerprints must equal the one-worker runtime's bit for bit; the
//! caller counts every difference as a replay mismatch.
//!
//! The replay covers the configuration the benchmark runs: no fault plan
//! and no pressure feedback, so the runtime's retry and re-plan branches
//! never execute.

use crate::trace::Tracer;
use midas::runtime::RuntimeConfig;
use midas::runtime::RuntimeJob;
use midas_cloud::Federation;
use midas_engines::cache::{
    CacheKey, CacheScope, CacheStats, FragmentResultCache, PlanFingerprint, ScopedCache,
};
use midas_engines::exec::{ResultCacheBinding, SharedExecutor};
use midas_engines::sim::{SimulationEnv, SiteAdmission};
use midas_engines::version::VersionedCatalog;
use midas_engines::{analyze_fragment_plans, Catalog, Placement, SchemaCatalog, Table};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::{base_rows, features_from};
use midas_ires::{assemble, CandidateConfig, EnumerationSpace, ModellingRegistry, PlanCostModel};
use midas_moo::WeightedSumModel;
use std::sync::{Arc, Mutex};

/// A plan-cache entry, as the runtime caches it.
struct PlannedQuery {
    space: EnumerationSpace,
    model: PlanCostModel,
}

/// Everything the replay observed about one job.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Catalog version pinned at admission.
    pub pinned_version: u64,
    /// Selected configuration.
    pub chosen: CandidateConfig,
    /// Analytic `(time, money)` of the chosen plan.
    pub predicted: Vec<f64>,
    /// Simulated `(time, money)` after execution.
    pub actual: Vec<f64>,
    /// Result fingerprint.
    pub fingerprint: u64,
    /// DREAM window after learning, if the class could fit.
    pub dream_window: Option<usize>,
    /// DREAM's estimate for the job before it learned from it, if the
    /// class had a fit.
    pub dream_estimate: Option<Vec<f64>>,
    /// Whether `PlanCostModel::build` ran (a plan-cache miss).
    pub model_built: bool,
    /// Fragments of the federated query.
    pub fragments: usize,
    /// Fragments served by the result cache.
    pub fragment_hits: u32,
    /// Cost-model evaluations spent by selection.
    pub evaluations: usize,
    /// Size of the enumerated space.
    pub space_size: usize,
    /// Intermediate bytes produced across fragments.
    pub intermediate_bytes: u64,
    /// Catalog bytes deep-copied while seeding execution.
    pub cloned_bytes: u64,
}

/// The replayed runtime state (see the module docs).
pub struct ReplayRuntime<'a> {
    federation: &'a Federation,
    placement: &'a Placement,
    config: RuntimeConfig,
    catalog: VersionedCatalog,
    env: Mutex<SimulationEnv>,
    admission: SiteAdmission,
    registry: ModellingRegistry,
    fragment_cache: Option<FragmentResultCache>,
    plan_cache: Option<ScopedCache<CacheKey, Arc<PlannedQuery>>>,
}

impl<'a> ReplayRuntime<'a> {
    /// Builds the state `FederationRuntime::new` builds for `config`.
    pub fn new(
        federation: &'a Federation,
        placement: &'a Placement,
        catalog: Catalog,
        config: RuntimeConfig,
    ) -> Self {
        assert!(
            config.pressure_penalty == 0.0,
            "the replay covers the pressure-free planner only"
        );
        let mut env = SimulationEnv::new();
        for site in federation.site_ids() {
            env.register_site(site, config.seed, config.drift);
        }
        ReplayRuntime {
            federation,
            placement,
            config,
            catalog: VersionedCatalog::new(catalog),
            env: Mutex::new(env),
            admission: SiteAdmission::new(federation.admission_capacities()),
            registry: ModellingRegistry::dream_defaults(2),
            fragment_cache: (config.fragment_cache_bytes > 0)
                .then(|| FragmentResultCache::new(config.fragment_cache_bytes)),
            plan_cache: (config.plan_cache_bytes > 0)
                .then(|| ScopedCache::new(config.plan_cache_bytes)),
        }
    }

    /// Counters of the fragment and plan caches (zeros when a tier is off).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (
            self.fragment_cache
                .as_ref()
                .map(FragmentResultCache::stats)
                .unwrap_or_default(),
            self.plan_cache
                .as_ref()
                .map(ScopedCache::stats)
                .unwrap_or_default(),
        )
    }

    /// The current catalog version and the bytes compacting it has cost
    /// so far (paid by the first `pin` of the version).
    pub fn current_compaction(&self) -> (u64, u64) {
        let current = self.catalog.current();
        (current.version(), current.compaction_bytes())
    }

    /// `Ingress::ingest_batch`: publish one batch and invalidate the cache
    /// entries over the superseded table states.
    pub fn publish(&self, deltas: Vec<(String, Table)>, t: &mut Tracer) -> Result<(), String> {
        let (_, superseded) = t
            .leaf("version.append", || {
                self.catalog.append_batch_traced(deltas)
            })
            .map_err(|e| e.to_string())?;
        t.leaf("cache.invalidate", || {
            if let Some(cache) = &self.fragment_cache {
                cache.invalidate_tables(&superseded);
            }
            if let Some(cache) = &self.plan_cache {
                cache.invalidate_matching(|key| {
                    superseded
                        .iter()
                        .any(|(name, id)| key.reads_table(name, *id))
                });
            }
        });
        Ok(())
    }

    /// Admits and processes one job the way a one-worker runtime does.
    pub fn process(&self, job: &RuntimeJob, t: &mut Tracer) -> Result<ReplayedJob, String> {
        let query = &job.query;
        let engine = |e: midas_engines::EngineError| e.to_string();

        // Admission: pin the current version, then static validation.
        let pinned = self.catalog.current();
        let errors = t.leaf("analyze", || {
            let schemas = SchemaCatalog::from_version(&pinned);
            analyze_fragment_plans(
                &[&query.left_prepare, &query.right_prepare, &query.combine],
                &schemas,
            )
            .iter()
            .map(|a| a.errors().count())
            .sum::<usize>()
        });
        if errors > 0 {
            return Err(format!("{}: rejected by the plan analyzer", query.label));
        }

        let catalog = t.leaf("version.pin", || pinned.pin());
        let table_ids = (self.fragment_cache.is_some() || self.plan_cache.is_some())
            .then(|| t.leaf("version.table_ids", || pinned.table_ids()));

        let plan_key = t.leaf("cache.plan_key", || {
            let ids = table_ids.as_ref().filter(|_| self.plan_cache.is_some())?;
            let left_id = *ids.get(&query.left_table)?;
            let right_id = *ids.get(&query.right_table)?;
            let scope = match self.config.cache_scope {
                CacheScope::PerTenant => format!("tenant:{}", job.tenant),
                CacheScope::SiteLocal | CacheScope::FederationGlobal => String::new(),
            };
            let fingerprint = PlanFingerprint::of_plans([
                &query.left_prepare,
                &query.right_prepare,
                &query.combine,
            ]);
            Some(CacheKey::new(
                scope,
                fingerprint,
                vec![
                    (query.left_table.clone(), left_id),
                    (query.right_table.clone(), right_id),
                ],
            ))
        });
        let cached = t.leaf("cache.plan_probe", || match (&self.plan_cache, &plan_key) {
            (Some(cache), Some(key)) => cache.get(key),
            _ => None,
        });
        let model_built = cached.is_none();
        let planned = match cached {
            Some(hit) => hit,
            None => {
                let space = t
                    .leaf("enumerate", || {
                        EnumerationSpace::for_query(
                            self.federation,
                            self.placement,
                            query,
                            self.config.max_vms,
                        )
                    })
                    .map_err(engine)?;
                let model = t
                    .leaf("costmodel.build", || {
                        PlanCostModel::build(self.placement, query, &catalog)
                    })
                    .map_err(engine)?;
                let entry = Arc::new(PlannedQuery { space, model });
                if let (Some(cache), Some(key)) = (&self.plan_cache, &plan_key) {
                    t.leaf("cache.plan_insert", || {
                        // The runtime's nominal footprint of a plan entry.
                        let bytes = 512 + entry.space.len() as u64 * 64;
                        cache.insert(key.clone(), Arc::clone(&entry), bytes, &job.tenant)
                    });
                }
                entry
            }
        };

        let pressured = t
            .leaf("costmodel.pressure_clone", || {
                planned
                    .model
                    .clone()
                    .with_site_pressure(&[], self.config.pressure_penalty.max(0.0))
            })
            .map_err(|e| e.to_string())?;
        let weights = WeightedSumModel::new(&job.policy.weights);
        let left_rows = base_rows(&catalog, &query.left_table).map_err(|e| e.to_string())?;
        let right_rows = base_rows(&catalog, &query.right_table).map_err(|e| e.to_string())?;

        // The first (and, without faults, only) attempt.
        let model = t.leaf("costmodel.model_clone", || pressured.clone());
        let outcome = t.leaf("optimizer.select", || {
            moqp_exhaustive(
                &planned.space,
                &model,
                self.federation,
                &weights,
                &job.policy.constraints,
            )
        });
        let federated = t
            .leaf("assemble", || {
                assemble(self.federation, self.placement, query, &outcome.chosen)
            })
            .map_err(engine)?;
        let executed = t
            .leaf("exec.run", || {
                let mut executor = SharedExecutor::new(self.federation, &self.env, &self.admission)
                    .with_pacing(self.config.pacing)
                    .with_parallel_fragments(self.config.parallel_fragments)
                    .with_partition_degree(self.config.partition_degree);
                if let Some(binding) =
                    self.fragment_cache
                        .as_ref()
                        .zip(table_ids.as_ref())
                        .map(|(cache, ids)| ResultCacheBinding {
                            cache,
                            scope: self.config.cache_scope,
                            tenant: &job.tenant,
                            table_ids: ids,
                        })
                {
                    executor = executor.with_result_cache(binding);
                }
                executor.run_with_scale(&federated, &catalog, self.config.work_scale)
            })
            .map_err(engine)?;

        let features = t.leaf("features", || {
            features_from(left_rows, right_rows, &executed, self.config.work_scale)
        });
        let costs = executed.cost_vector();
        // Not a runtime step: DREAM's prediction for this job before it
        // learns from it, for the estimate-quality guards.
        let dream_estimate = t.leaf("modelling.estimate", || {
            let class = self.registry.get(query.class())?;
            let modelling = class.lock().expect("no replay thread panics holding it");
            modelling.last_fit()?;
            modelling.estimate(&features).ok()
        });
        let fit = t
            .leaf("modelling.observe", || {
                self.registry.observe(query.class(), &features, &costs)
            })
            .map_err(|e| e.to_string())?;
        let fingerprint = t.leaf("fingerprint", || executed.result.fingerprint());
        let fragments = executed.fragments.len();
        let (fragment_hits, intermediate_bytes, cloned_bytes) = (
            executed.cache_hits,
            executed.intermediate_bytes,
            executed.catalog_cloned_bytes,
        );
        // The runtime frees the result table, the assembled query and its
        // pinned catalog handle when `process` returns.
        t.leaf("exec.release", || drop((executed, federated, catalog)));

        Ok(ReplayedJob {
            pinned_version: pinned.version(),
            chosen: outcome.chosen,
            predicted: outcome.chosen_costs,
            actual: costs,
            fingerprint,
            dream_window: fit.map(|report| report.window_used),
            dream_estimate,
            model_built,
            fragments,
            fragment_hits,
            evaluations: outcome.evaluations,
            space_size: planned.space.len(),
            intermediate_bytes,
            cloned_bytes,
        })
    }
}
