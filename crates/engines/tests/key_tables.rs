//! Differential tests for the join and group-by key tables.
//!
//! A single `Int64` key with no NULL mask (on both sides, for a join) runs
//! through the direct-indexed integer key table when the key span is small,
//! at every partition degree. Every other key shape, and integer keys too
//! sparse for the table, runs through the generic hashed composite keys
//! (hash-partitioned at degree > 1). Both must be invisible in results: the vectorized and fused executors, at partition degrees 1
//! and 4, must reproduce `execute_scalar` bit for bit — result table,
//! fingerprint and `WorkProfile` — on inner and left-outer joins, grouped
//! aggregates and the fused `Aggregate ∘ Filter ∘ HashJoin` shape, over
//! plain and filtered (selection-vector) inputs.
//!
//! The key cases straddle every path decision: spans on both sides of
//! the direct-indexed threshold (the 64 Ki floor and the `4 · rows`
//! limit), `i64::MIN` with `i64::MAX` in one column (a span that overflows
//! `i64`), negative keys, duplicate build keys (match order), probe keys
//! just outside the span, empty sides, many sparse distinct keys (generic
//! fallback), NULL-masked and all-valid-masked keys,
//! `Int64` against `Float64` and `Date` keys (never equal) and multi-column
//! keys.

use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::expr::Expr;
use midas_engines::ops::{
    execute_scalar, execute_with_partitions, AggExpr, JoinType, PhysicalPlan,
};
use midas_engines::{execute_fused_with_partitions, Catalog};
use proptest::prelude::*;

/// The serial and the partitioned entry points (dense typed keys run
/// serially at both; other keys are hash-partitioned at degree 4).
const DEGREES: [usize; 2] = [1, 4];

fn int(name: &str, keys: &[i64]) -> Column {
    Column::new(name, ColumnData::Int64(keys.to_vec()))
}

fn masked(name: &str, keys: &[i64], valid: &[bool]) -> Column {
    Column::with_validity(name, ColumnData::Int64(keys.to_vec()), valid.to_vec())
}

/// A side table: the key columns, then `v` (a Float64 payload, distinct
/// per row, so match order and float summation order both show in the
/// results) and `id` (the row number).
fn side(name: &str, keys: Vec<Column>) -> Table {
    let n = keys.first().map_or(0, Column::len);
    let v: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 17) as f64 - 8.0 + i as f64 / 1024.0)
        .collect();
    let id: Vec<i64> = (0..n as i64).collect();
    let mut columns = keys;
    columns.push(Column::new("v", ColumnData::Float64(v)));
    columns.push(Column::new("id", ColumnData::Int64(id)));
    Table::new(name, columns).expect("aligned columns")
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.to_string(),
    })
}

/// Keeps about half the rows of a side, scattered: its inputs reach the
/// operators as selection vectors.
fn filtered(table: &str, kk: usize) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Filter {
        input: scan(table),
        predicate: Expr::col(kk).ge(Expr::float(0.0)),
    })
}

fn join(
    left: Box<PhysicalPlan>,
    right: Box<PhysicalPlan>,
    kk: usize,
    jt: JoinType,
) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left,
        right,
        left_keys: (0..kk).collect(),
        right_keys: (0..kk).collect(),
        join_type: jt,
    }
}

/// Every aggregate kind over a side's payload `v` (column `kk`).
fn side_aggs(kk: usize) -> Vec<(String, AggExpr)> {
    vec![
        ("n".to_string(), AggExpr::Count),
        ("sum".to_string(), AggExpr::Sum(Expr::col(kk))),
        ("avg".to_string(), AggExpr::Avg(Expr::col(kk))),
        ("min".to_string(), AggExpr::Min(Expr::col(kk))),
        ("max".to_string(), AggExpr::Max(Expr::col(kk))),
        (
            "pos".to_string(),
            AggExpr::CountIf(Expr::col(kk).ge(Expr::float(0.0))),
        ),
        (
            "late".to_string(),
            AggExpr::SumIf {
                value: Expr::col(kk),
                predicate: Expr::col(kk + 1).ge(Expr::int(3)),
            },
        ),
    ]
}

/// The plans every key case runs: joins of both types over plain and
/// filtered sides, grouped aggregates of each side, and
/// `Aggregate ∘ Filter ∘ HashJoin` grouped by the left key, the right key
/// (NULL-masked under a left-outer join) and globally.
fn plans(kk: usize) -> Vec<(String, PhysicalPlan)> {
    let width = kk + 2;
    let mut out = Vec::new();
    for jt in [JoinType::Inner, JoinType::LeftOuter] {
        out.push((format!("{jt:?} join"), join(scan("l"), scan("r"), kk, jt)));
        out.push((
            format!("{jt:?} join, filtered sides"),
            join(filtered("l", kk), filtered("r", kk), kk, jt),
        ));
        let groupings: [(&str, Vec<usize>); 3] = [
            ("left key", (0..kk).collect()),
            ("right key", (width..width + kk).collect()),
            ("global", Vec::new()),
        ];
        for (what, group_by) in groupings {
            for (inputs, l, r) in [
                ("plain", scan("l"), scan("r")),
                ("filtered", filtered("l", kk), filtered("r", kk)),
            ] {
                out.push((
                    format!("agg by {what} over filtered {jt:?} join of {inputs} sides"),
                    PhysicalPlan::Aggregate {
                        input: Box::new(PhysicalPlan::Filter {
                            input: Box::new(join(l, r, kk, jt)),
                            predicate: Expr::col(kk).ge(Expr::float(-6.0)),
                        }),
                        group_by: group_by.clone(),
                        aggs: vec![
                            ("n".to_string(), AggExpr::Count),
                            ("sum_r".to_string(), AggExpr::Sum(Expr::col(width + kk))),
                            ("avg_l".to_string(), AggExpr::Avg(Expr::col(kk))),
                            (
                                "hits".to_string(),
                                AggExpr::CountIf(Expr::col(width + kk).is_null().negate()),
                            ),
                        ],
                    },
                ));
            }
        }
    }
    for t in ["l", "r"] {
        out.push((
            format!("agg of {t} by key"),
            PhysicalPlan::Aggregate {
                input: scan(t),
                group_by: (0..kk).collect(),
                aggs: side_aggs(kk),
            },
        ));
        out.push((
            format!("agg of filtered {t} by key"),
            PhysicalPlan::Aggregate {
                input: filtered(t, kk),
                group_by: (0..kk).collect(),
                aggs: side_aggs(kk),
            },
        ));
    }
    out
}

/// Runs every plan through the scalar oracle and through the vectorized
/// and fused executors at every degree; results must agree bit for bit.
fn check_case(case: &str, l: Table, r: Table, kk: usize) {
    let mut cat = Catalog::new();
    cat.insert("l", l);
    cat.insert("r", r);
    for (what, plan) in plans(kk) {
        let oracle = execute_scalar(&plan, &cat);
        for degree in DEGREES {
            let runs = [
                ("vectorized", execute_with_partitions(&plan, &cat, degree)),
                ("fused", execute_fused_with_partitions(&plan, &cat, degree)),
            ];
            for (executor, got) in runs {
                let at = format!("{case}: {what}: {executor} at degree {degree}");
                match (&oracle, &got) {
                    (Ok((want, want_profile)), Ok((table, profile))) => {
                        assert_eq!(table, want, "{at}: table differs");
                        assert_eq!(table.fingerprint(), want.fingerprint(), "{at}: fingerprint");
                        assert_eq!(profile, want_profile, "{at}: work profile differs");
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("{at}: Ok/Err disagree: {got:?} vs scalar {oracle:?}"),
                }
            }
        }
    }
}

/// A single-column case with unmasked `Int64` keys on both sides.
fn int_case(case: &str, lkeys: &[i64], rkeys: &[i64]) {
    check_case(
        case,
        side("l", vec![int("k", lkeys)]),
        side("r", vec![int("k", rkeys)]),
        1,
    );
}

#[test]
fn dense_keys_with_duplicates_and_probes_outside_the_span() {
    let r: Vec<i64> = (0..40).map(|i| i % 13).collect();
    let l: Vec<i64> = (0..60).map(|i| (i * 7) % 20 - 3).collect();
    int_case("dense", &l, &r);
}

#[test]
fn duplicate_build_keys_match_in_build_order() {
    int_case("dups", &[5, 3, 5, 9, 3], &[5, 5, 3, 5, 3, 5, 7]);
}

#[test]
fn negative_keys() {
    let r: Vec<i64> = (0..30).map(|i| -100 - (i % 9)).collect();
    let l: Vec<i64> = (0..50).map(|i| -98 - (i % 12)).collect();
    int_case("negative", &l, &r);
}

#[test]
fn span_on_both_sides_of_the_64ki_floor() {
    // With few rows the limit is the 64 Ki floor: span 65536 is
    // direct-indexed, 65537 is not. Probes sit on and just past each end.
    for (case, hi) in [("span 65536", 65_535i64), ("span 65537", 65_536)] {
        let r = [0, hi, 5, 5, hi, 17, 0];
        let l = [-1, 0, hi - 1, hi, hi + 1, 5, 17, 18, i64::MIN, i64::MAX, 0];
        int_case(case, &l, &r);
    }
}

#[test]
fn span_on_both_sides_of_the_row_limit() {
    // 20 000 build rows: the limit is 4 · rows = 80 000 slots.
    for (case, last) in [("span 80000", 79_999i64), ("span 80001", 80_000)] {
        let mut r: Vec<i64> = (0..20_000).map(|i| i * 4).collect();
        r[19_999] = last;
        let l: Vec<i64> = (0..3_000)
            .map(|i| i * 27 - 5)
            .chain([last, last + 1, -1])
            .collect();
        int_case(case, &l, &r);
    }
}

#[test]
fn span_that_overflows_i64() {
    let r = [i64::MIN, i64::MAX, 0, i64::MIN, -1, i64::MAX];
    let l = [
        i64::MAX,
        i64::MIN,
        1,
        0,
        i64::MIN + 1,
        i64::MAX - 1,
        -1,
        i64::MIN,
    ];
    int_case("i64 extremes", &l, &r);
    // Adjacent keys on the generic fallback (one far key widens the span
    // past the limit), with probes on every neighbour.
    let r: Vec<i64> = (0..600).chain([i64::MAX, 300, 7]).collect();
    let l: Vec<i64> = (-50..700).chain([i64::MAX - 1, i64::MAX]).collect();
    int_case("adjacent keys, sparse span", &l, &r);
}

#[test]
fn many_sparse_distinct_keys_fall_back_to_generic_keys() {
    let r: Vec<i64> = (0..6_000i64).map(|i| (i % 2_500) * 1_000_003 - 7).collect();
    let l: Vec<i64> = (0..4_000i64)
        .map(|i| (i % 3_100) * 1_000_003 - 7 + (i % 5 == 0) as i64)
        .collect();
    int_case("sparse", &l, &r);
}

#[test]
fn empty_sides() {
    int_case("empty build", &[1, 2, 3, 2], &[]);
    int_case("empty probe", &[], &[1, 2, 2]);
    int_case("both empty", &[], &[]);
    int_case("single key", &[42, 41, 43, 42], &[42]);
}

#[test]
fn masked_int_keys_take_the_generic_path() {
    let lk: Vec<i64> = (0..40).map(|i| i % 11).collect();
    let rk: Vec<i64> = (0..30).map(|i| i % 7).collect();
    let lnull: Vec<bool> = (0..40).map(|i| i % 4 != 1).collect();
    let rnull: Vec<bool> = (0..30).map(|i| i % 5 != 2).collect();
    check_case(
        "NULL-masked",
        side("l", vec![masked("k", &lk, &lnull)]),
        side("r", vec![masked("k", &rk, &rnull)]),
        1,
    );
    check_case(
        "all-valid masks",
        side("l", vec![masked("k", &lk, &[true; 40])]),
        side("r", vec![masked("k", &rk, &[true; 30])]),
        1,
    );
    check_case(
        "masked probe, plain build",
        side("l", vec![masked("k", &lk, &lnull)]),
        side("r", vec![int("k", &rk)]),
        1,
    );
    check_case(
        "plain probe, masked build",
        side("l", vec![int("k", &lk)]),
        side("r", vec![masked("k", &rk, &rnull)]),
        1,
    );
}

#[test]
fn int_keys_never_match_float_or_date_keys() {
    let ints: Vec<i64> = (0..20).map(|i| i % 6).collect();
    let floats: Vec<f64> = ints.iter().map(|&k| k as f64).collect();
    let dates: Vec<i32> = ints.iter().map(|&k| k as i32).collect();
    let float_col = || Column::new("k", ColumnData::Float64(floats.clone()));
    let date_col = || Column::new("k", ColumnData::Date(dates.clone()));
    check_case(
        "Int64 vs Float64",
        side("l", vec![int("k", &ints)]),
        side("r", vec![float_col()]),
        1,
    );
    check_case(
        "Float64 vs Int64",
        side("l", vec![float_col()]),
        side("r", vec![int("k", &ints)]),
        1,
    );
    check_case(
        "Int64 vs Date",
        side("l", vec![int("k", &ints)]),
        side("r", vec![date_col()]),
        1,
    );
    check_case(
        "Date vs Int64",
        side("l", vec![date_col()]),
        side("r", vec![int("k", &ints)]),
        1,
    );
}

#[test]
fn multi_column_keys() {
    let l1: Vec<i64> = (0..50).map(|i| i % 5).collect();
    let l2: Vec<i64> = (0..50).map(|i| i % 3).collect();
    let r1: Vec<i64> = (0..30).map(|i| i % 4).collect();
    let r2: Vec<i64> = (0..30).map(|i| (i / 4) % 3).collect();
    check_case(
        "two Int64 columns",
        side("l", vec![int("a", &l1), int("b", &l2)]),
        side("r", vec![int("a", &r1), int("b", &r2)]),
        2,
    );
    let word = |k: &i64| ["x", "y", "z"][*k as usize].to_string();
    check_case(
        "Int64 and Utf8 columns",
        side(
            "l",
            vec![
                int("a", &l1),
                Column::new("b", ColumnData::Utf8(l2.iter().map(word).collect())),
            ],
        ),
        side(
            "r",
            vec![
                int("a", &r1),
                Column::new("b", ColumnData::Utf8(r2.iter().map(word).collect())),
            ],
        ),
        2,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random key sets at a random scale: small scales are direct-indexed,
    /// large ones fall back to generic keys, and the probe side overlaps the
    /// build side only in part.
    #[test]
    fn random_int_keys(
        lraw in proptest::collection::vec(-40i64..40, 0..120),
        rraw in proptest::collection::vec(-30i64..50, 0..90),
        scale_pow in 0u32..40,
        offset in -1_000i64..1_000,
    ) {
        let scale = 1i64 << scale_pow;
        let lk: Vec<i64> = lraw.iter().map(|&k| k * scale + offset).collect();
        let rk: Vec<i64> = rraw.iter().map(|&k| k * scale + offset).collect();
        int_case(&format!("scale 2^{scale_pow}, offset {offset}"), &lk, &rk);
    }
}
