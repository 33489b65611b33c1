//! Criterion micro side of E4: label layout strategies at 100 uniformly
//! spread labels, and greedy layout on a crowded horizon (240 labels
//! anchored in a 32-px band, the shape of an AR frame's heaviest views).
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_render::{force_layout, greedy_layout, naive_layout, LabelBox, Viewport};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn labels(n: usize) -> Vec<LabelBox> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    (0..n)
        .map(|i| LabelBox {
            id: i as u64,
            anchor_px: (rng.gen_range(100.0..1820.0), rng.gen_range(100.0..980.0)),
            width_px: 140.0,
            height_px: 32.0,
            priority: rng.gen_range(0.0..1.0),
        })
        .collect()
}

/// `n` 150×32 labels whose anchors sit in a 32-px horizontal band.
fn horizon_labels(n: usize) -> Vec<LabelBox> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    (0..n)
        .map(|i| LabelBox {
            id: i as u64,
            anchor_px: (rng.gen_range(0.0..1920.0), rng.gen_range(520.0..552.0)),
            width_px: 150.0,
            height_px: 32.0,
            priority: rng.gen_range(0.0..1.0),
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let ls = labels(100);
    let vp = Viewport::default();
    c.bench_function("e4_naive_layout_100", |b| {
        b.iter(|| std::hint::black_box(naive_layout(&ls, vp)))
    });
    c.bench_function("e4_greedy_layout_100", |b| {
        b.iter(|| std::hint::black_box(greedy_layout(&ls, vp)))
    });
    let horizon = horizon_labels(240);
    c.bench_function("e4_greedy_layout_horizon_240", |b| {
        b.iter(|| std::hint::black_box(greedy_layout(&horizon, vp)))
    });
    c.bench_function("e4_force_layout_100x50", |b| {
        b.iter(|| std::hint::black_box(force_layout(&ls, vp, 50)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
