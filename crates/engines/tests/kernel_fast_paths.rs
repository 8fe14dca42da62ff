//! Differential tests for the mask-free fast paths of the batch kernels.
//!
//! Every batch kernel has a typed loop for operands with no NULL mask and
//! a per-row fallback for everything else. These tests pin both against
//! the scalar reference [`Expr::eval`] on tables one row short of, equal
//! to and one row past a morsel ([`MORSEL_ROWS`]):
//!
//! * masked and mask-free columns, dense morsels and selection vectors;
//! * the tree walk ([`Expr::eval_batch`]), the compiled plan evaluated
//!   morsel by morsel ([`KernelPlan::eval`] / [`KernelPlan::eval_sel_into`])
//!   and the fused executor against the scalar executor;
//! * NaN in Float columns and Float literals (Ok/Err must agree), Int64
//!   values beyond 2^53 (the f64 widening must match), all six comparison
//!   operators, AND/OR/NOT, mixed-type IN lists, and string columns
//!   against literals on either side.

use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::error::EngineError;
use midas_engines::expr::{BatchVals, EvalScratch, Expr, KernelCols, NumTy, SelView};
use midas_engines::ops::{execute_scalar, PhysicalPlan};
use midas_engines::{execute_fused_with_partitions, Catalog, MORSEL_ROWS};

const WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", ""];

/// 2^53: the first Int64 magnitude the f64 widening cannot represent
/// exactly at every step.
const P53: i64 = 1 << 53;

/// One test table: its size, whether every column but `big` carries a
/// NULL mask, and whether the last Float value is NaN.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: usize,
    masked: bool,
    nan_last: bool,
}

/// Masked and mask-free tables one row short of, equal to and one row
/// past a morsel; past a morsel also with a NaN in its second morsel.
fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();
    for n in [MORSEL_ROWS - 1, MORSEL_ROWS, MORSEL_ROWS + 1] {
        for masked in [false, true] {
            for nan_last in [false, true] {
                if !nan_last || n == MORSEL_ROWS + 1 {
                    out.push(Shape {
                        n,
                        masked,
                        nan_last,
                    });
                }
            }
        }
    }
    out
}

/// Columns: 0 `i` Int64 (holds zeros), 1 `f` Float64 (holds zeros; NaN
/// under every NULL of the masked variant, and at the last row when
/// `nan_last`), 2 `d` Date (never zero), 3 `s` Utf8, 4 `c` Bool, 5 `big`
/// Int64 just above 2^53 (never masked).
fn table(shape: Shape) -> Table {
    let n = shape.n;
    let mask = |m: usize, hole: usize| -> Option<Vec<bool>> {
        shape
            .masked
            .then(|| (0..n).map(|r| r % m != hole).collect())
    };
    let f_valid = mask(5, 1);
    let mut f: Vec<f64> = (0..n).map(|r| ((r * 13) % 29) as f64 * 0.5 - 7.0).collect();
    if let Some(valid) = &f_valid {
        // NaN hidden under NULL: never compared, so never an error.
        for (x, ok) in f.iter_mut().zip(valid) {
            if !ok {
                *x = f64::NAN;
            }
        }
    }
    if shape.nan_last {
        f[n - 1] = f64::NAN;
    }
    let col = |name: &str, data: ColumnData, valid: Option<Vec<bool>>| match valid {
        Some(v) => Column::with_validity(name, data, v),
        None => Column::new(name, data),
    };
    Table::new(
        "t",
        vec![
            col(
                "i",
                ColumnData::Int64((0..n).map(|r| (r as i64 * 37) % 101 - 50).collect()),
                mask(7, 3),
            ),
            col("f", ColumnData::Float64(f), f_valid),
            col(
                "d",
                ColumnData::Date((0..n).map(|r| (r % 400) as i32 + 1).collect()),
                mask(11, 4),
            ),
            col(
                "s",
                ColumnData::Utf8((0..n).map(|r| WORDS[r % 5].to_string()).collect()),
                mask(4, 2),
            ),
            col(
                "c",
                ColumnData::Bool((0..n).map(|r| r % 3 == 0).collect()),
                mask(6, 5),
            ),
            Column::new(
                "big",
                ColumnData::Int64((0..n).map(|r| P53 + (r % 4) as i64).collect()),
            ),
        ],
    )
    .expect("aligned columns")
}

type CmpFn = fn(Expr, Expr) -> Expr;
const CMPS: [CmpFn; 6] = [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge];

/// Every comparison operator over every operand shape the kernels
/// distinguish: vector/vector, vector/constant, constant/vector and
/// constant/constant, in each type family.
fn comparisons(ops: &[CmpFn]) -> Vec<Expr> {
    let mut out = Vec::new();
    for cmp in ops {
        out.extend([
            cmp(Expr::col(0), Expr::col(1)),
            cmp(Expr::col(1), Expr::float(0.5)),
            cmp(Expr::float(-1.5), Expr::col(1)),
            cmp(Expr::col(2), Expr::date(200)),
            cmp(Expr::col(5), Expr::int(P53 + 1)),
            cmp(Expr::col(5), Expr::col(0).add(Expr::int(P53))),
            cmp(Expr::col(3), Expr::str("beta")),
            cmp(Expr::str("beta"), Expr::col(3)),
            cmp(Expr::col(3), Expr::col(3)),
            cmp(Expr::col(4), Expr::Lit(Value::Bool(true))),
            cmp(Expr::col(1), Expr::float(f64::NAN)),
            cmp(Expr::col(2), Expr::float(f64::NAN)),
            cmp(Expr::int(1), Expr::float(2.0)),
            cmp(Expr::col(1).div(Expr::col(2)), Expr::col(0)),
        ]);
    }
    out
}

/// Kleene logic, negation, IN lists and arithmetic results.
fn logic_and_lists() -> Vec<Expr> {
    let f_lt = || Expr::col(1).lt(Expr::float(0.5));
    let d_ge = || Expr::col(2).ge(Expr::date(150));
    let s_eq = || Expr::col(3).eq(Expr::str("gamma"));
    let c = || Expr::col(4);
    let mixed = vec![
        Value::Int64(-3),
        Value::Float64(4.0),
        Value::Date(7),
        Value::Utf8("alpha".to_string()),
        Value::Bool(true),
        Value::Null,
    ];
    vec![
        f_lt().and(d_ge()),
        f_lt().or(d_ge()),
        f_lt().and(d_ge()).or(s_eq()),
        f_lt().negate(),
        f_lt().and(d_ge()).negate(),
        c().and(d_ge()),
        c().or(f_lt()),
        c().negate(),
        Expr::Lit(Value::Bool(true)).and(d_ge()),
        Expr::Lit(Value::Bool(false)).or(d_ge()),
        d_ge().and(Expr::Lit(Value::Null)),
        Expr::col(0).in_list(mixed.clone()),
        Expr::col(1).in_list(mixed.clone()),
        Expr::col(2).in_list(mixed.clone()),
        Expr::col(3).in_list(mixed.clone()),
        Expr::col(4).in_list(mixed),
        Expr::col(3).in_list(vec![
            Value::Utf8("beta".to_string()),
            Value::Utf8(String::new()),
            Value::Int64(1),
        ]),
        Expr::col(1).in_list(vec![Value::Float64(f64::NAN), Value::Float64(0.5)]),
        Expr::col(5).in_list(vec![Value::Int64(P53 + 1), Value::Int64(P53 + 3)]),
        Expr::float(4.0).in_list(vec![Value::Int64(4)]),
        Expr::col(0)
            .in_list(vec![Value::Int64(1)])
            .and(s_eq().negate()),
        Expr::col(0).add(Expr::col(5)),
        Expr::col(0).mul(Expr::int(3)),
        Expr::col(1).sub(Expr::col(0)),
        Expr::col(1).div(Expr::col(2)),
        Expr::int(100).div(Expr::col(0)),
    ]
}

/// Bitwise value equality: NaN equals NaN, so float results compare too.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Table equality with Float64 columns compared bit for bit, so tables
/// carrying NaN compare equal to themselves.
fn tables_same(a: &Table, b: &Table) -> bool {
    a.n_rows() == b.n_rows()
        && a.columns().len() == b.columns().len()
        && a.columns().iter().zip(b.columns()).all(|(x, y)| {
            x.name == y.name
                && x.validity == y.validity
                && match (&x.data, &y.data) {
                    (ColumnData::Float64(p), ColumnData::Float64(q)) => {
                        p.len() == q.len()
                            && p.iter().zip(q).all(|(u, v)| u.to_bits() == v.to_bits())
                    }
                    (p, q) => p == q,
                }
        })
}

fn num_value(v: f64, ty: NumTy) -> Value {
    match ty {
        NumTy::Int => Value::Int64(v as i64),
        NumTy::Float => Value::Float64(v),
        NumTy::Date => Value::Date(v as i32),
    }
}

/// Reads slot `pos` (original row `row`) of a batch result as a value.
fn batch_value(bv: &BatchVals<'_>, pos: usize, row: usize) -> Value {
    let ok = |valid: &Option<Vec<bool>>| valid.as_ref().is_none_or(|v| v[pos]);
    match bv {
        BatchVals::Num { vals, valid, ty } if ok(valid) => num_value(vals[pos], *ty),
        BatchVals::Bools { vals, valid } if ok(valid) => Value::Bool(vals[pos]),
        BatchVals::Num { .. } | BatchVals::Bools { .. } | BatchVals::ConstNull => Value::Null,
        BatchVals::Str { vals, valid } => match valid {
            Some(v) if !v[row] => Value::Null,
            _ => Value::Utf8(vals[row].clone()),
        },
        BatchVals::ConstNum { val, ty } => num_value(*val, *ty),
        BatchVals::ConstBool(b) => Value::Bool(*b),
        BatchVals::ConstStr(s) => Value::Utf8(s.to_string()),
    }
}

/// The scalar verdict over `rows`: every row's value, or an error when
/// any row errs.
fn scalar_over(per_row: &[Result<Value, EngineError>], rows: &[u32]) -> Option<Vec<Value>> {
    rows.iter()
        .map(|&r| per_row[r as usize].as_ref().ok().cloned())
        .collect()
}

fn assert_values(what: &str, got: Option<Vec<Value>>, want: &Option<Vec<Value>>) {
    match (&got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.len(), w.len(), "{what}: length");
            for (pos, (a, b)) in g.iter().zip(w).enumerate() {
                assert!(same(a, b), "{what}: slot {pos}: {a:?} vs scalar {b:?}");
            }
        }
        _ => panic!(
            "{what}: Ok/Err disagreement (batch ok: {}, scalar ok: {})",
            got.is_some(),
            want.is_some()
        ),
    }
}

/// Batch and compiled evaluation of `e` against the scalar path, over
/// the whole table (dense morsels) and under a selection vector.
fn check_kernels(e: &Expr, t: &Table, shape: Shape) {
    let n = t.n_rows();
    let per_row: Vec<_> = (0..n).map(|r| e.eval(t, r)).collect();
    let all: Vec<u32> = (0..n as u32).collect();
    let every_third_out: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
    let kp = e.compile();
    let cols = KernelCols::Table(t);
    let mut scratch = EvalScratch::new();
    for (sel, rows) in [(None, &all), (Some(&every_third_out), &every_third_out)] {
        let what = format!("{e:?} on {shape:?}, selection {}", sel.is_some());
        let want = scalar_over(&per_row, rows);

        // Tree walk over the whole table at once.
        if sel.is_none() {
            let got = e
                .eval_batch(t, None)
                .ok()
                .map(|bv| (0..n).map(|pos| batch_value(&bv, pos, pos)).collect());
            assert_values(&format!("eval_batch: {what}"), got, &want);
        }

        // Compiled plan, morsel by morsel, as the fused executor runs it.
        let mut got = Some(Vec::new());
        let mut picked = Some(Vec::new());
        let mut out = Vec::new();
        for base in (0..rows.len()).step_by(MORSEL_ROWS) {
            let len = MORSEL_ROWS.min(rows.len() - base);
            let sv = match sel {
                None => SelView::range(base, len),
                Some(s) => SelView::over(len, Some(&s[base..base + len])),
            };
            match kp.eval(&cols, &sv, &mut scratch) {
                Ok(bv) => {
                    if let Some(g) = got.as_mut() {
                        g.extend(
                            (0..len).map(|pos| batch_value(&bv, pos, rows[base + pos] as usize)),
                        );
                    }
                    scratch.recycle(bv);
                }
                Err(_) => got = None,
            }
            match kp.eval_sel_into(&cols, &sv, &mut scratch, &mut out) {
                Ok(()) => {
                    if let Some(p) = picked.as_mut() {
                        p.extend_from_slice(&out);
                    }
                }
                Err(_) => picked = None,
            }
        }
        assert_values(&format!("compiled: {what}"), got, &want);

        // As a predicate: exactly the rows whose scalar value is TRUE, and
        // a non-boolean result is an error on both paths.
        let want_sel: Option<Vec<u32>> = want.as_ref().and_then(|vals| {
            vals.iter()
                .zip(rows.iter())
                .map(|(v, &r)| match v {
                    Value::Bool(true) => Some(Some(r)),
                    Value::Bool(false) | Value::Null => Some(None),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .map(|picked| picked.into_iter().flatten().collect())
        });
        assert_eq!(picked, want_sel, "eval_sel_into: {what}");
    }
}

/// Fused execution of filters and projections over `e` against the
/// scalar executor: tables and work profiles bit for bit, Ok/Err agreed.
fn check_fused(e: &Expr, t: &Table, shape: Shape) {
    let mut catalog = Catalog::new();
    catalog.insert("t".to_string(), t.clone());
    let scan = || {
        Box::new(PhysicalPlan::Scan {
            table: "t".to_string(),
        })
    };
    // A mask-free pre-filter, so the outer operator runs under selection
    // vectors.
    let pre = || {
        Box::new(PhysicalPlan::Filter {
            input: scan(),
            predicate: Expr::col(5).ne(Expr::int(P53 + 2)),
        })
    };
    let plans = [
        PhysicalPlan::Filter {
            input: scan(),
            predicate: e.clone(),
        },
        PhysicalPlan::Project {
            input: pre(),
            exprs: vec![
                ("v".to_string(), e.clone()),
                ("s".to_string(), Expr::col(3)),
            ],
        },
    ];
    for plan in &plans {
        let want = execute_scalar(plan, &catalog);
        {
            let got = execute_fused_with_partitions(plan, &catalog, 1);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert!(
                        tables_same(&g.0, &w.0),
                        "fused table differs on {shape:?} for {plan:?}: \
                         {} vs {} rows",
                        g.0.n_rows(),
                        w.0.n_rows()
                    );
                    assert_eq!(g.1, w.1, "fused profile: {plan:?} on {shape:?}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "fused Ok/Err disagreement on {shape:?} for {plan:?}: {:?} vs scalar {:?}",
                    got.as_ref().err(),
                    want.as_ref().err()
                ),
            }
        }
    }
}

/// All six operators where the typed loops run; on masked tables, which
/// take the shared per-row fallback, one ordered and one unordered
/// operator.
#[test]
fn comparisons_match_scalar_at_morsel_boundaries() {
    for shape in shapes() {
        let t = table(shape);
        let ops: &[CmpFn] = if shape.masked {
            &[Expr::lt, Expr::ne]
        } else {
            &CMPS
        };
        for e in comparisons(ops) {
            check_kernels(&e, &t, shape);
        }
    }
}

#[test]
fn logic_lists_and_arithmetic_match_scalar_at_morsel_boundaries() {
    for shape in shapes() {
        let t = table(shape);
        for e in logic_and_lists() {
            check_kernels(&e, &t, shape);
        }
    }
}

/// The fused executor shares the kernels, so two operators (one ordered,
/// one not) cover its dense-morsel filter and selection-vector
/// projection.
#[test]
fn fused_execution_matches_scalar_past_one_morsel() {
    for shape in shapes().into_iter().filter(|s| s.n == MORSEL_ROWS + 1) {
        let t = table(shape);
        for e in comparisons(&[Expr::lt, Expr::ne])
            .into_iter()
            .chain(logic_and_lists())
        {
            check_fused(&e, &t, shape);
        }
    }
}

/// The fixtures reach every case the fast paths must decide exactly: a
/// visible NaN makes a Float comparison fail on both paths, one hidden
/// under a NULL does not, and 2^53 + 1 widens onto 2^53.
#[test]
fn fixtures_exercise_nan_and_widening() {
    let cmp = Expr::col(1).lt(Expr::float(0.5));
    let visible = table(Shape {
        n: MORSEL_ROWS + 1,
        masked: false,
        nan_last: true,
    });
    assert!(cmp.eval_batch(&visible, None).is_err());
    assert!(cmp.eval(&visible, MORSEL_ROWS).is_err());
    // Only the last morsel holds the NaN.
    let kp = cmp.compile();
    let mut scratch = EvalScratch::new();
    let cols = KernelCols::Table(&visible);
    assert!(kp
        .eval(&cols, &SelView::range(0, MORSEL_ROWS), &mut scratch)
        .is_ok());
    assert!(kp
        .eval(&cols, &SelView::range(MORSEL_ROWS, 1), &mut scratch)
        .is_err());

    let hidden = table(Shape {
        n: MORSEL_ROWS,
        masked: true,
        nan_last: false,
    });
    assert!(cmp.eval_batch(&hidden, None).is_ok());
    assert!(Expr::col(1)
        .lt(Expr::float(f64::NAN))
        .eval_batch(&visible, Some(&[]))
        .is_ok());

    let widened = Expr::col(5).eq(Expr::int(P53 + 1));
    assert_eq!(widened.eval(&visible, 0), Ok(Value::Bool(true)));
    assert_eq!(widened.eval(&visible, 1), Ok(Value::Bool(true)));
    assert_eq!(widened.eval(&visible, 2), Ok(Value::Bool(false)));
    assert_eq!(
        widened.eval_sel(&visible, Some(&[0, 1, 2, 3])),
        Ok(vec![0, 1])
    );
}

/// Int-typed vectors can hold NaN too: integer products overflow the f64
/// widening to inf, and `inf - inf` is NaN. (The scalar path saturates
/// each Int result back to i64, so it is not the oracle here.) The typed
/// loop must fail exactly where the per-row fallback, forced by an
/// all-true mask, does.
#[test]
fn int_typed_nan_fails_like_the_per_row_fallback() {
    let mut power = Expr::col(0);
    for _ in 0..5 {
        power = power.clone().mul(power); // i64::MAX^32 overflows to inf
    }
    let pred = power.clone().sub(power).lt(Expr::int(0));
    let data = || ColumnData::Int64(vec![i64::MAX; 3]);
    for col in [
        Column::new("x", data()),
        Column::with_validity("x", data(), vec![true; 3]),
    ] {
        let t = Table::new("t", vec![col]).expect("one column");
        assert!(pred.eval_batch(&t, None).is_err());
        let kp = pred.compile();
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        let sv = SelView::range(0, 3);
        assert!(kp
            .eval_sel_into(&KernelCols::Table(&t), &sv, &mut scratch, &mut out)
            .is_err());
    }
}
