//! Property-based tests for the storage substrate: the LSM store is
//! checked against a model (HashMap), the time-series store against
//! direct slicing, and the columnar table against row-wise evaluation
//! (sums bit for bit, since the selection bitmap keeps row order).

use augur_store::{
    ColumnTable, ColumnType, Downsample, LsmParams, LsmStore, Predicate, Schema, TimeSeriesStore,
    Value,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

proptest! {
    #[test]
    fn lsm_matches_model_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut db = LsmStore::new(LsmParams {
            memtable_flush_entries: 16,
            compaction_trigger_runs: 3,
        });
        let mut model: std::collections::HashMap<u8, Option<u16>> = Default::default();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(vec![*k], v.to_be_bytes().to_vec());
                    model.insert(*k, Some(*v));
                }
                Op::Delete(k) => {
                    db.delete(vec![*k]);
                    model.insert(*k, None);
                }
                Op::Flush => db.flush(),
                Op::Compact => db.compact(),
            }
        }
        for (k, v) in &model {
            let got = db.get(&[*k]);
            match v {
                Some(v) => {
                    let want = v.to_be_bytes();
                    prop_assert_eq!(got.as_deref(), Some(want.as_ref()));
                }
                None => prop_assert_eq!(got, None),
            }
        }
        // Scan over the full key range agrees with the model's live set.
        let live = model.values().filter(|v| v.is_some()).count();
        prop_assert_eq!(db.scan(&[], &[0xFF, 0xFF]).len(), live);
    }

    #[test]
    fn timeseries_range_and_downsample_agree_with_slicing(
        values in prop::collection::vec(-1e3f64..1e3, 1..200),
        bucket_us in 1_000u64..50_000,
    ) {
        let mut ts = TimeSeriesStore::new();
        let id = ts.create_series("s");
        for (i, &v) in values.iter().enumerate() {
            ts.append(id, i as u64 * 500, v).unwrap();
        }
        let end = values.len() as u64 * 500;
        // Range query equals direct slice.
        let lo = end / 4;
        let hi = end / 2 + 1;
        let got = ts.range(id, lo, hi).unwrap();
        let want: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let t = *i as u64 * 500;
                t >= lo && t < hi
            })
            .map(|(_, v)| *v)
            .collect();
        prop_assert_eq!(got.len(), want.len());
        // Downsampled counts sum to the total sample count.
        let buckets = ts.downsample(id, 0, end, bucket_us, Downsample::Count).unwrap();
        let total: f64 = buckets.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total as usize, values.len());
        // Mean of each bucket lies within the bucket's min/max.
        let means = ts.downsample(id, 0, end, bucket_us, Downsample::Mean).unwrap();
        let mins = ts.downsample(id, 0, end, bucket_us, Downsample::Min).unwrap();
        let maxs = ts.downsample(id, 0, end, bucket_us, Downsample::Max).unwrap();
        for ((_, mean), ((_, lo), (_, hi))) in means.iter().zip(mins.iter().zip(maxs.iter())) {
            prop_assert!(*mean >= *lo - 1e-9 && *mean <= *hi + 1e-9);
        }
    }

    #[test]
    fn columnar_pushdown_equals_rowwise(
        rows in prop::collection::vec((-1e3f64..1e3, 0i64..100, 0usize..4), 1..200),
        lo in -500.0f64..0.0,
        hi in 0.0f64..500.0,
    ) {
        let cats = ["a", "b", "c", "d"];
        let schema = Schema::new(vec![
            ("price", ColumnType::F64),
            ("qty", ColumnType::I64),
            ("cat", ColumnType::Str),
        ]);
        let mut t = ColumnTable::new(schema);
        for &(p, q, c) in &rows {
            t.append(vec![Value::F64(p), Value::I64(q), cats[c].into()]).unwrap();
        }
        let preds = [
            Predicate::NumBetween { column: "price".into(), lo, hi },
            Predicate::StrEq { column: "cat".into(), value: "b".into() },
        ];
        let fast = t.sum("qty", &preds).unwrap();
        let slow = t.sum_rowwise("qty", &preds).unwrap();
        prop_assert!((fast - slow).abs() < 1e-9);
        let selected = t.select(&preds).unwrap();
        let manual = rows
            .iter()
            .filter(|(p, _, c)| *p >= lo && *p <= hi && cats[*c] == "b")
            .count();
        prop_assert_eq!(selected.len(), manual);
    }

    #[test]
    fn columnar_aggregates_equal_row_order_reference(
        pool in prop::collection::vec(cell_strategy(), 200..201),
        n in 0usize..=200,
        preds in prop::collection::vec(predicate_strategy(), 0..4),
    ) {
        // Word-boundary sizes run in every case, next to the random one.
        for rows in [n, 63, 64, 65, 128, 129] {
            let rows = &pool[..rows];
            let schema = Schema::new(vec![
                ("f", ColumnType::F64),
                ("i", ColumnType::I64),
                ("s", ColumnType::Str),
            ]);
            let mut t = ColumnTable::new(schema);
            for (f, i, s) in rows {
                t.append(vec![Value::F64(*f), Value::I64(*i), Value::Str((*s).into())]).unwrap();
            }
            let keep: Vec<bool> = rows.iter().map(|row| preds.iter().all(|p| row_matches(row, p))).collect();
            let want_rows: Vec<Vec<Value>> = rows
                .iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|((f, i, s), _)| vec![Value::F64(*f), Value::I64(*i), Value::Str((*s).into())])
                .collect();
            // Debug strings compare NaN cells as equal.
            prop_assert_eq!(format!("{:?}", t.select(&preds).unwrap()), format!("{want_rows:?}"));
            for column in ["f", "i"] {
                let (mut total, mut count) = (0.0, 0usize);
                for ((f, i, _), k) in rows.iter().zip(&keep) {
                    if *k {
                        total += if column == "f" { *f } else { *i as f64 };
                        count += 1;
                    }
                }
                let sum = t.sum(column, &preds).unwrap();
                prop_assert_eq!(sum.to_bits(), t.sum_rowwise(column, &preds).unwrap().to_bits());
                prop_assert_eq!(sum.to_bits(), total.to_bits());
                let want_mean = (count > 0).then(|| (total / count as f64).to_bits());
                prop_assert_eq!(t.mean(column, &preds).unwrap().map(f64::to_bits), want_mean);
            }
        }
    }
}

type Cell = (f64, i64, &'static str);

fn cell_strategy() -> impl Strategy<Value = Cell> {
    let f = prop_oneof![
        8 => -1e3f64..1e3,
        1 => Just(f64::NAN),
        1 => Just(-0.0),
    ];
    (f, -50i64..50, (0usize..3).prop_map(|c| ["a", "b", "c"][c]))
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let bound = || {
        prop_oneof![
            6 => -1.2e3f64..1.2e3,
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::INFINITY),
        ]
    };
    prop_oneof![
        (0usize..2, bound(), bound()).prop_map(|(c, a, b)| {
            Predicate::NumBetween {
                column: ["f", "i"][c].into(),
                lo: a.min(b),
                hi: a.max(b),
            }
        }),
        // "zz" is absent from the dictionary.
        (0usize..3).prop_map(|v| Predicate::StrEq {
            column: "s".into(),
            value: ["a", "b", "zz"][v].into(),
        }),
    ]
}

fn row_matches((f, i, s): &Cell, p: &Predicate) -> bool {
    match p {
        Predicate::NumBetween { column, lo, hi } => {
            let x = if column == "f" { *f } else { *i as f64 };
            x >= *lo && x <= *hi
        }
        Predicate::StrEq { value, .. } => s == value,
    }
}
