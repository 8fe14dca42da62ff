//! Output correctness, checked outside every timed interval.
//!
//! A completed job's result must be bit-identical to running its query
//! alone (`TwoTableQuery::standalone_fingerprint`) on the catalog version
//! it pinned. Versions are rebuilt by replaying the published ingest
//! batches over the base catalog, one version at a time, and the oracle is
//! memoized per (label, version).

use midas::runtime::{RuntimeJob, RuntimeReport};
use midas_engines::version::VersionedCatalog;
use midas_engines::{Catalog, Table};
use midas_tpch::TwoTableQuery;
use std::collections::{BTreeMap, HashMap};

/// Threads the oracle runs on (the reference host has two CPUs).
const ORACLE_THREADS: usize = 2;

/// One completed job to verify.
pub struct Case<'a> {
    /// The query as submitted.
    pub query: &'a TwoTableQuery,
    /// The catalog version the job pinned.
    pub version: u64,
    /// The job's reported result fingerprint.
    pub fingerprint: u64,
}

/// Bookkeeping checks of one service call: every admitted job ended
/// exactly once (completed + failed = submitted, no sequence twice), and
/// no job deep-copied catalog bytes. Returns the violations, and the
/// completed jobs as oracle cases.
pub fn account<'a>(
    what: &str,
    jobs: &'a [RuntimeJob],
    report: &RuntimeReport,
    violations: &mut Vec<String>,
) -> Vec<Case<'a>> {
    let ended = report.completed.len() + report.failed.len();
    if ended != jobs.len() {
        violations.push(format!(
            "{what}: {} completed + {} failed != {} submitted",
            report.completed.len(),
            report.failed.len(),
            jobs.len()
        ));
    }
    let mut seen = vec![false; jobs.len()];
    let sequences = report
        .completed
        .iter()
        .map(|r| r.sequence)
        .chain(report.failed.iter().map(|f| f.sequence));
    for sequence in sequences {
        match seen.get_mut(sequence) {
            Some(flag) if !*flag => *flag = true,
            _ => violations.push(format!(
                "{what}: job {sequence} ended twice or was never admitted"
            )),
        }
    }
    let mut cases = Vec::with_capacity(report.completed.len());
    for r in &report.completed {
        if r.report.catalog_cloned_bytes != 0 {
            violations.push(format!(
                "{what}: job {} deep-copied {} catalog bytes",
                r.sequence, r.report.catalog_cloned_bytes
            ));
        }
        if let Some(job) = jobs.get(r.sequence) {
            if job.query.label != r.report.label || job.tenant != r.tenant {
                violations.push(format!("{what}: job {} reported another query", r.sequence));
            }
            cases.push(Case {
                query: &job.query,
                version: r.pinned_version,
                fingerprint: r.report.result_fingerprint,
            });
        }
    }
    cases
}

/// Compares every case with the standalone oracle on its pinned version.
/// `publishes[k]` is the delta batch that published version `k + 1`.
pub fn verify_results(
    base: &Catalog,
    publishes: &[&[(String, Table)]],
    cases: &[Case<'_>],
    violations: &mut Vec<String>,
) {
    let mut by_version: BTreeMap<u64, Vec<&Case<'_>>> = BTreeMap::new();
    for case in cases {
        by_version.entry(case.version).or_default().push(case);
    }
    let versioned = VersionedCatalog::new(base.clone());
    for (&version, cases) in &by_version {
        while versioned.version() < version {
            let next = versioned.version() as usize;
            let Some(deltas) = publishes.get(next) else {
                violations.push(format!("a job pinned unpublished version {version}"));
                return;
            };
            if let Err(e) = versioned.append_batch(deltas.to_vec()) {
                violations.push(format!(
                    "oracle could not publish version {}: {e}",
                    next + 1
                ));
                return;
            }
        }
        let pinned = versioned.current().pin();
        let mut unique: Vec<&TwoTableQuery> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for case in cases {
            index.entry(case.query.label.as_str()).or_insert_with(|| {
                unique.push(case.query);
                unique.len() - 1
            });
        }
        let expected = standalone(&unique, &pinned);
        for case in cases {
            match &expected[index[case.query.label.as_str()]] {
                Ok(fp) if *fp == case.fingerprint => {}
                Ok(fp) => violations.push(format!(
                    "{} on v{version}: fingerprint {} != standalone {fp}",
                    case.query.label, case.fingerprint
                )),
                Err(e) => violations.push(format!(
                    "{} on v{version}: standalone oracle failed: {e}",
                    case.query.label
                )),
            }
        }
    }
}

/// Standalone fingerprints of `queries` over `catalog`, split across
/// [`ORACLE_THREADS`] threads.
fn standalone(queries: &[&TwoTableQuery], catalog: &Catalog) -> Vec<Result<u64, String>> {
    let chunk = queries.len().div_ceil(ORACLE_THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|q| q.standalone_fingerprint(catalog).map_err(|e| e.to_string()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}
