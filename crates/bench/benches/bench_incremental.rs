//! Criterion micro side of E2: incremental update vs batch recompute,
//! plus the columnar-vs-rowwise scan gap the batch side leans on.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_analytics::{BatchAggregator, IncrementalView};
use augur_store::{ColumnTable, ColumnType, Predicate, Schema, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn bench_columnar(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let schema = Schema::new(vec![
        ("price", ColumnType::F64),
        ("qty", ColumnType::I64),
        ("cat", ColumnType::Str),
    ]);
    let cats = ["food", "retail", "lodging", "health"];
    let mut table = ColumnTable::new(schema);
    for _ in 0..100_000 {
        table
            .append(vec![
                Value::F64(rng.gen_range(0.0..500.0)),
                Value::I64(rng.gen_range(0..50)),
                cats[rng.gen_range(0..cats.len())].into(),
            ])
            .expect("schema matches");
    }
    let preds = [
        Predicate::NumBetween {
            column: "price".into(),
            lo: 100.0,
            hi: 200.0,
        },
        Predicate::StrEq {
            column: "cat".into(),
            value: "food".into(),
        },
    ];
    c.bench_function("e2_columnar_pushdown_sum_100k", |b| {
        b.iter(|| std::hint::black_box(table.sum("qty", &preds).expect("valid query")))
    });
    c.bench_function("e2_rowwise_sum_100k", |b| {
        b.iter(|| std::hint::black_box(table.sum_rowwise("qty", &preds).expect("valid query")))
    });

    // The analyst-query shape: three independent range predicates that
    // each keep about 79% of the rows, about 50% together.
    let schema = Schema::new(vec![
        ("value", ColumnType::F64),
        ("score", ColumnType::F64),
        ("ts", ColumnType::I64),
    ]);
    let mut table = ColumnTable::new(schema);
    for ts in 0..100_000i64 {
        table
            .append(vec![
                Value::F64(rng.gen_range(0.0..1_000.0)),
                Value::F64(rng.gen_range(0.0..1.0)),
                Value::I64(ts),
            ])
            .expect("schema matches");
    }
    let keep = 0.5f64.cbrt();
    let preds = [
        Predicate::NumBetween {
            column: "value".into(),
            lo: 100.0,
            hi: 100.0 + 1_000.0 * keep,
        },
        Predicate::NumBetween {
            column: "score".into(),
            lo: 0.1,
            hi: 0.1 + keep,
        },
        Predicate::NumBetween {
            column: "ts".into(),
            lo: 10_000.0,
            hi: 10_000.0 + 100_000.0 * keep,
        },
    ];
    c.bench_function("e2_columnar_pushdown_mean_100k_3pred", |b| {
        b.iter(|| std::hint::black_box(table.mean("value", &preds).expect("valid query")))
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_incremental_vs_batch");
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut batch = BatchAggregator::new();
        let mut view = IncrementalView::new();
        for _ in 0..n {
            let g = rng.gen_range(0..50u64);
            let v = rng.gen_range(0.0..100.0);
            batch.ingest(g, v);
            view.update(g, v);
        }
        group.bench_with_input(BenchmarkId::new("batch_recompute", n), &batch, |b, agg| {
            b.iter(|| std::hint::black_box(agg.recompute()))
        });
        group.bench_with_input(BenchmarkId::new("incremental_update", n), &n, |b, _| {
            let mut local = view.clone();
            let mut i = 0u64;
            b.iter(move || {
                i += 1;
                local.update(i % 50, (i % 100) as f64);
                std::hint::black_box(local.get(7).copied())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench, bench_columnar);
criterion_main!(benches);
