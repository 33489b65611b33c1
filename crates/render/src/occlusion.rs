//! Occlusion classification and "x-ray vision".
//!
//! The paper's signature interaction — "see through walls and shelves" —
//! requires knowing *that* a target is hidden and *what* hides it.
//! [`classify_visibility`] ray-tests targets against the city model;
//! [`OcclusionIndex`] accelerates this with an R-tree over building
//! footprints (experiment E5 measures naive vs indexed cost);
//! [`XRayReveal`] turns occluded targets into highlight directives.

use serde::{Deserialize, Serialize};

use augur_geo::{Building, CityModel, Enu, RTree, Rect};

use crate::view::{CameraBasis, ViewCamera};

/// Visibility classification of one target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OcclusionClass {
    /// In the frustum with clear line of sight.
    Visible,
    /// In the frustum but behind the building with the given id.
    Occluded {
        /// Id of the first obstructing building.
        by_building: u32,
    },
    /// Outside the view frustum entirely.
    OutOfView,
}

/// Classifies a target against the city with a linear scan over
/// buildings (the baseline the index is benchmarked against).
pub fn classify_visibility(camera: &ViewCamera, target: Enu, city: &CityModel) -> OcclusionClass {
    if !camera.in_frustum(target) {
        return OcclusionClass::OutOfView;
    }
    match city.first_obstruction(camera.position, target) {
        Some((b, _)) => OcclusionClass::Occluded { by_building: b.id },
        None => OcclusionClass::Visible,
    }
}

/// R-tree-accelerated occlusion queries: only buildings whose footprint
/// intersects the ray's bounding box are ray-tested.
#[derive(Debug, Clone)]
pub struct OcclusionIndex {
    tree: RTree<usize>,
    buildings: Vec<Building>,
}

impl OcclusionIndex {
    /// Builds the index from a city model.
    pub fn build(city: &CityModel) -> Self {
        let buildings: Vec<Building> = city.buildings().to_vec();
        let tree = RTree::bulk_load(
            buildings
                .iter()
                .enumerate()
                .map(|(i, b)| (b.footprint, i))
                .collect(),
        );
        OcclusionIndex { tree, buildings }
    }

    /// Number of indexed buildings.
    pub fn len(&self) -> usize {
        self.buildings.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.buildings.is_empty()
    }

    /// Indexed equivalent of [`classify_visibility`].
    pub fn classify(&self, camera: &ViewCamera, target: Enu) -> OcclusionClass {
        self.classify_in(&camera.basis(), target)
    }

    /// [`OcclusionIndex::classify`] through a camera whose trigonometry
    /// is already done. Buildings are visited in `RTree::range` order, so
    /// ties at equal `t` keep the first building that order meets.
    fn classify_in(&self, view: &CameraBasis<'_>, target: Enu) -> OcclusionClass {
        if view.project(target).is_none() {
            return OcclusionClass::OutOfView;
        }
        let a = view.camera.position;
        let query = Rect::spanning(a.east, a.north, target.east, target.north);
        let mut best: Option<(u32, f64)> = None;
        self.tree.visit_range(&query, |_, &i| {
            let b = &self.buildings[i];
            if let Some(t) = b.intersect_segment(a, target) {
                if t <= 1e-9 && b.contains(a) {
                    return;
                }
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((b.id, t)),
                }
            }
        });
        match best {
            Some((id, _)) => OcclusionClass::Occluded { by_building: id },
            None => OcclusionClass::Visible,
        }
    }
}

/// X-ray reveal decision for one target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XRayReveal {
    /// The target's scene id.
    pub target_id: u64,
    /// Whether to draw the see-through contour.
    pub reveal: bool,
    /// The obstructing building (when revealed).
    pub through_building: Option<u32>,
    /// Suggested contour opacity, attenuated with distance so deep
    /// targets read as deeper (simple depth cue).
    pub opacity: f64,
}

/// Computes x-ray reveals for a set of (id, position) targets: visible
/// targets need no reveal; occluded ones get a contour with
/// distance-attenuated opacity; out-of-view targets get nothing.
pub fn xray_reveals(
    camera: &ViewCamera,
    targets: &[(u64, Enu)],
    index: &OcclusionIndex,
) -> Vec<XRayReveal> {
    let view = camera.basis();
    let mut out = Vec::with_capacity(targets.len());
    for &(target_id, pos) in targets {
        let (reveal, through_building, opacity) = match index.classify_in(&view, pos) {
            OcclusionClass::OutOfView => continue,
            OcclusionClass::Visible => (false, None, 1.0),
            OcclusionClass::Occluded { by_building } => {
                let d = camera.distance(pos);
                (
                    true,
                    Some(by_building),
                    (1.0 - d / camera.far_m).clamp(0.15, 0.8),
                )
            }
        };
        out.push(XRayReveal {
            target_id,
            reveal,
            through_building,
            opacity,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Viewport;
    use augur_geo::CityParams;
    use rand::SeedableRng;

    fn city() -> CityModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        CityModel::generate(&CityParams::default(), &mut rng)
    }

    fn cam_at(position: Enu, heading: f64) -> ViewCamera {
        ViewCamera::new(position, heading, 66.0, Viewport::default(), 2000.0).unwrap()
    }

    #[test]
    fn target_behind_building_is_occluded() {
        let c = city();
        let b = &c.buildings()[0];
        let (cx, cy) = b.footprint.center();
        // Observer west of the building, target east of it, same height.
        let cam = cam_at(Enu::new(cx - 200.0, cy, 1.6), 90.0);
        let target = Enu::new(cx + 200.0, cy, 1.6);
        let class = classify_visibility(&cam, target, &c);
        assert!(
            matches!(class, OcclusionClass::Occluded { .. }),
            "{class:?}"
        );
    }

    #[test]
    fn elevated_target_is_visible() {
        let c = city();
        let cam = cam_at(Enu::new(-400.0, 0.0, 1.6), 90.0);
        let target = Enu::new(400.0, 50.0, 450.0);
        // 450 m is above every generated building (clamped at 400).
        if cam.in_frustum(target) {
            assert_eq!(
                classify_visibility(&cam, target, &c),
                OcclusionClass::Visible
            );
        }
    }

    #[test]
    fn behind_camera_is_out_of_view() {
        let c = city();
        let cam = cam_at(Enu::new(0.0, 0.0, 1.6), 0.0);
        assert_eq!(
            classify_visibility(&cam, Enu::new(0.0, -100.0, 1.6), &c),
            OcclusionClass::OutOfView
        );
    }

    #[test]
    fn index_agrees_with_linear_scan() {
        let c = city();
        let index = OcclusionIndex::build(&c);
        assert_eq!(index.len(), c.buildings().len());
        let cam = cam_at(Enu::new(-300.0, -120.0, 1.6), 45.0);
        let mut checked = 0;
        for i in 0..200 {
            let angle = i as f64 * 0.031;
            let target = Enu::new(
                -300.0 + 500.0 * angle.cos().abs(),
                -120.0 + 500.0 * angle.sin(),
                1.6 + (i % 40) as f64,
            );
            let naive = classify_visibility(&cam, target, &c);
            let fast = index.classify(&cam, target);
            // The *first* obstructing building may differ only if two
            // buildings intersect at identical t; compare the class kind
            // and, for occlusion, that both report a real obstruction.
            match (naive, fast) {
                (OcclusionClass::Visible, OcclusionClass::Visible)
                | (OcclusionClass::OutOfView, OcclusionClass::OutOfView)
                | (OcclusionClass::Occluded { .. }, OcclusionClass::Occluded { .. }) => {
                    checked += 1;
                }
                (a, b) => panic!("mismatch at {i}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(checked, 200);
    }

    #[test]
    fn xray_reveals_only_occluded() {
        let c = city();
        let index = OcclusionIndex::build(&c);
        let b = &c.buildings()[0];
        let (cx, cy) = b.footprint.center();
        let cam = cam_at(Enu::new(cx - 200.0, cy, 1.6), 90.0);
        let targets = vec![
            (1u64, Enu::new(cx + 200.0, cy, 1.6)), // occluded
            (2u64, Enu::new(cx - 150.0, cy, 1.6)), // visible, just ahead
            (3u64, Enu::new(cx - 400.0, cy, 1.6)), // behind camera
        ];
        let reveals = xray_reveals(&cam, &targets, &index);
        let ids: Vec<u64> = reveals.iter().map(|r| r.target_id).collect();
        assert!(ids.contains(&1) && ids.contains(&2) && !ids.contains(&3));
        let r1 = reveals.iter().find(|r| r.target_id == 1).unwrap();
        assert!(r1.reveal);
        assert!(r1.through_building.is_some());
        assert!((0.15..=0.8).contains(&r1.opacity));
        let r2 = reveals.iter().find(|r| r.target_id == 2).unwrap();
        assert!(!r2.reveal);
        assert_eq!(r2.opacity, 1.0);
    }

    /// `classify` as it was before the shared camera basis and the
    /// non-allocating walk, kept as an oracle: per-target frustum test
    /// and the `RTree::range` iterator.
    fn classify_range(index: &OcclusionIndex, camera: &ViewCamera, target: Enu) -> OcclusionClass {
        if !camera.in_frustum(target) {
            return OcclusionClass::OutOfView;
        }
        let a = camera.position;
        let query = Rect::spanning(a.east, a.north, target.east, target.north);
        let mut best: Option<(u32, f64)> = None;
        for (_, &i) in index.tree.range(&query) {
            let b = &index.buildings[i];
            if let Some(t) = b.intersect_segment(a, target) {
                if t <= 1e-9 && b.contains(a) {
                    continue;
                }
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((b.id, t)),
                }
            }
        }
        match best {
            Some((id, _)) => OcclusionClass::Occluded { by_building: id },
            None => OcclusionClass::Visible,
        }
    }

    proptest::proptest! {
        #[test]
        fn reveals_match_range_oracle(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let city = CityModel::generate(
                &CityParams {
                    blocks: rng.gen_range(0..12),
                    block_size_m: rng.gen_range(40.0..150.0),
                    street_width_m: rng.gen_range(0.0..25.0),
                    buildings_per_block_axis: rng.gen_range(1..4),
                    ..Default::default()
                },
                &mut rng,
            );
            let index = OcclusionIndex::build(&city);
            let half = city.buildings().iter().fold(100.0f64, |m, b| m.max(b.footprint.max_x()));
            let cam = ViewCamera::new(
                Enu::new(rng.gen_range(-half..half), rng.gen_range(-half..half), 1.6),
                rng.gen_range(-360.0..720.0),
                rng.gen_range(10.0..170.0),
                Viewport::default(),
                rng.gen_range(50.0..2000.0),
            )
            .unwrap();
            let targets: Vec<(u64, Enu)> = (0..rng.gen_range(0..930))
                .map(|i| {
                    let p = Enu::new(
                        cam.position.east + rng.gen_range(-400.0..400.0),
                        cam.position.north + rng.gen_range(-400.0..400.0),
                        rng.gen_range(0.0..60.0),
                    );
                    (i, p)
                })
                .collect();
            let reveals = xray_reveals(&cam, &targets, &index);
            let mut want = Vec::new();
            for &(id, pos) in &targets {
                let class = classify_range(&index, &cam, pos);
                proptest::prop_assert_eq!(index.classify(&cam, pos), class);
                let (reveal, through_building, opacity) = match class {
                    OcclusionClass::OutOfView => continue,
                    OcclusionClass::Visible => (false, None, 1.0f64),
                    OcclusionClass::Occluded { by_building } => (
                        true,
                        Some(by_building),
                        (1.0 - cam.distance(pos) / cam.far_m).clamp(0.15, 0.8),
                    ),
                };
                want.push((id, reveal, through_building, opacity.to_bits()));
            }
            let got: Vec<_> = reveals
                .iter()
                .map(|r| (r.target_id, r.reveal, r.through_building, r.opacity.to_bits()))
                .collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_city_never_occludes() {
        let empty = CityModel::generate(
            &CityParams {
                blocks: 0,
                ..Default::default()
            },
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let index = OcclusionIndex::build(&empty);
        assert!(index.is_empty());
        let cam = cam_at(Enu::new(0.0, 0.0, 1.6), 0.0);
        assert_eq!(
            index.classify(&cam, Enu::new(0.0, 100.0, 1.6)),
            OcclusionClass::Visible
        );
    }
}
