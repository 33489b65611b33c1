//! Criterion micro side of E5: x-ray reveal decisions for one camera over
//! about 930 targets in a 40×40-block city, the candidate count of an AR
//! frame's heaviest views.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_geo::{CityModel, CityParams, Enu};
use augur_render::{xray_reveals, OcclusionIndex, ViewCamera, Viewport};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let city = CityModel::generate(
        &CityParams {
            blocks: 40,
            block_size_m: 120.0,
            street_width_m: 18.0,
            buildings_per_block_axis: 2,
            mean_height_m: 25.0,
            height_spread: 0.5,
        },
        &mut rng,
    );
    let index = OcclusionIndex::build(&city);
    let camera = ViewCamera::new(
        Enu::new(9.0, 9.0, 1.6),
        30.0,
        66.0,
        Viewport::default(),
        400.0,
    )
    .expect("valid camera");
    let targets: Vec<(u64, Enu)> = (0..930)
        .map(|i| {
            let (r, a) = (
                rng.gen_range(0.0..120.0f64).max(rng.gen_range(0.0..400.0)),
                rng.gen_range(0.0..std::f64::consts::TAU),
            );
            (i, Enu::new(9.0 + r * a.sin(), 9.0 + r * a.cos(), 4.0))
        })
        .collect();
    c.bench_function("e5_xray_reveals_930", |b| {
        b.iter(|| std::hint::black_box(xray_reveals(&camera, &targets, &index)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
