//! Screen-space label layout.
//!
//! Three strategies, in increasing quality and cost, measured by
//! experiment E4:
//!
//! - [`naive_layout`]: every label centred on its anchor — the "floating
//!   bubbles" the paper derides; labels overlap freely.
//! - [`greedy_layout`]: place in priority order, trying a ring of
//!   candidate offsets around the anchor and skipping labels that cannot
//!   avoid overlap.
//! - [`force_layout`]: start from the naive placement and iterate
//!   pairwise repulsion plus anchor springs, then drop residual
//!   overlappers by priority.
//!
//! [`LayoutMetrics`] reports overlap ratio, mean anchor displacement, and
//! drop rate — the quantities that distinguish "pointless bubbles" from a
//! readable overlay.

use serde::{Deserialize, Serialize};

use crate::view::Viewport;

/// A label to place: anchor pixel plus box extent and priority.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabelBox {
    /// Stable id (scene item id).
    pub id: u64,
    /// Anchor pixel (where the leader line points).
    pub anchor_px: (f64, f64),
    /// Box width, pixels.
    pub width_px: f64,
    /// Box height, pixels.
    pub height_px: f64,
    /// Display priority; higher wins contention.
    pub priority: f64,
}

/// A placed label.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedLabel {
    /// The input label id.
    pub id: u64,
    /// Centre of the placed box, pixels.
    pub center_px: (f64, f64),
    /// Anchor it refers to.
    pub anchor_px: (f64, f64),
}

impl PlacedLabel {
    fn rect(&self, label: &LabelBox) -> (f64, f64, f64, f64) {
        (
            self.center_px.0 - label.width_px / 2.0,
            self.center_px.1 - label.height_px / 2.0,
            self.center_px.0 + label.width_px / 2.0,
            self.center_px.1 + label.height_px / 2.0,
        )
    }

    /// Distance from the box centre to its anchor.
    pub fn displacement(&self) -> f64 {
        let dx = self.center_px.0 - self.anchor_px.0;
        let dy = self.center_px.1 - self.anchor_px.1;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A box as (min x, min y, max x, max y), pixels.
type Rect = (f64, f64, f64, f64);

#[inline]
fn rects_overlap(a: Rect, b: Rect) -> bool {
    a.0 < b.2 && a.2 > b.0 && a.1 < b.3 && a.3 > b.1
}

/// Quality metrics of a layout; see [`LayoutMetrics::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LayoutMetrics {
    /// Fraction of placed-label pairs that overlap.
    pub overlap_ratio: f64,
    /// Fraction of placed labels touching at least one other label —
    /// the user-visible clutter measure.
    pub overlapped_label_ratio: f64,
    /// Mean distance from box centre to anchor, pixels.
    pub mean_displacement_px: f64,
    /// Fraction of input labels that were dropped.
    pub drop_ratio: f64,
    /// Number of labels placed.
    pub placed: usize,
}

impl LayoutMetrics {
    /// Measures a layout against its inputs.
    pub fn measure(labels: &[LabelBox], placed: &[PlacedLabel]) -> Self {
        let by_id: std::collections::HashMap<u64, &LabelBox> =
            labels.iter().map(|l| (l.id, l)).collect();
        // Each placed box once; a placement whose id names no label has none.
        let rects: Vec<Option<Rect>> = placed
            .iter()
            .map(|p| by_id.get(&p.id).map(|l| p.rect(l)))
            .collect();
        let mut overlaps = 0usize;
        let pairs = placed.len() * placed.len().saturating_sub(1) / 2;
        let mut touched = vec![false; placed.len()];
        for (i, a) in rects.iter().enumerate() {
            let Some(a) = *a else {
                continue;
            };
            for (joff, b) in rects[i + 1..].iter().enumerate() {
                if b.is_some_and(|b| rects_overlap(a, b)) {
                    overlaps += 1;
                    touched[i] = true;
                    touched[i + 1 + joff] = true;
                }
            }
        }
        let overlapped_labels = touched.iter().filter(|t| **t).count();
        let mean_disp = if placed.is_empty() {
            0.0
        } else {
            placed.iter().map(|p| p.displacement()).sum::<f64>() / placed.len() as f64
        };
        LayoutMetrics {
            overlap_ratio: if pairs > 0 {
                overlaps as f64 / pairs as f64
            } else {
                0.0
            },
            overlapped_label_ratio: if placed.is_empty() {
                0.0
            } else {
                overlapped_labels as f64 / placed.len() as f64
            },
            mean_displacement_px: mean_disp,
            drop_ratio: 1.0 - placed.len() as f64 / labels.len().max(1) as f64,
            placed: placed.len(),
        }
    }
}

/// Naive placement: every box centred on its anchor.
pub fn naive_layout(labels: &[LabelBox], _viewport: Viewport) -> Vec<PlacedLabel> {
    labels
        .iter()
        .map(|l| PlacedLabel {
            id: l.id,
            center_px: l.anchor_px,
            anchor_px: l.anchor_px,
        })
        .collect()
}

/// The centres that keep a label's box inside a viewport.
struct Fit {
    x: (f64, f64),
    y: (f64, f64),
}

impl Fit {
    /// `None` when no centre fits: the label is wider or taller than the
    /// viewport, or has a NaN or infinite extent (bounds `f64::clamp`
    /// panics on).
    fn new(l: &LabelBox, vp: Viewport) -> Option<Self> {
        let x = (l.width_px / 2.0, vp.width_px as f64 - l.width_px / 2.0);
        let y = (l.height_px / 2.0, vp.height_px as f64 - l.height_px / 2.0);
        (x.0 <= x.1 && y.0 <= y.1).then_some(Fit { x, y })
    }

    #[inline]
    fn clamp(&self, center: (f64, f64)) -> (f64, f64) {
        (
            center.0.clamp(self.x.0, self.x.1),
            center.1.clamp(self.y.0, self.y.1),
        )
    }
}

/// Grid cells per viewport axis are capped, so labels with tiny extents
/// cannot make the grid cost more than the tests it saves.
const MAX_CELLS_PER_AXIS: usize = 64;
const NIL: usize = usize::MAX;

/// Placed boxes bucketed in a uniform grid over the viewport, the
/// view-management structure of Bell, Feiner & Höllerer (UIST 2001): a
/// candidate is tested only against boxes in the cells it touches. Each
/// cell heads a linked list threaded through one flat node array. A box
/// is entered in every cell its extent touches, and coordinates beyond
/// the viewport fall into the border cells, so every box a candidate
/// overlaps shares a cell with it. Cells are at least as large as the
/// largest label, so a box touches at most 2×2 cells.
struct Grid {
    cols: usize,
    x_scale: f64,
    y_scale: f64,
    last_col: f64,
    last_row: f64,
    head: Vec<usize>,
    /// Per node: the next node in its cell's list, and the box.
    next: Vec<usize>,
    rects: Vec<Rect>,
}

impl Grid {
    fn new(vp: Viewport, labels: &[LabelBox]) -> Self {
        let (max_w, max_h) = labels
            .iter()
            .filter(|l| Fit::new(l, vp).is_some())
            .fold((0.0f64, 0.0f64), |(w, h), l| {
                (w.max(l.width_px.abs()), h.max(l.height_px.abs()))
            });
        // `as usize` saturates, so a zero extent gives the cap and an
        // infinite one a single cell.
        let cells =
            |span: u32, cell: f64| ((span as f64 / cell) as usize).clamp(1, MAX_CELLS_PER_AXIS);
        let (cols, rows) = (cells(vp.width_px, max_w), cells(vp.height_px, max_h));
        Grid {
            cols,
            x_scale: cols as f64 / vp.width_px as f64,
            y_scale: rows as f64 / vp.height_px as f64,
            last_col: (cols - 1) as f64,
            last_row: (rows - 1) as f64,
            head: vec![NIL; cols * rows],
            next: Vec::with_capacity(4 * labels.len()),
            rects: Vec::with_capacity(4 * labels.len()),
        }
    }

    /// First and last cell the interval between `a` and `b` touches on
    /// one axis. Monotone in both ends (NaN maps to cell 0, out-of-range
    /// values to the border cells), so strictly overlapping intervals get
    /// intersecting cell ranges.
    #[inline]
    fn span(a: f64, b: f64, scale: f64, last: f64) -> (usize, usize) {
        let cell = |v: f64| (v * scale).max(0.0).min(last) as usize;
        (cell(a.min(b)), cell(a.max(b)))
    }

    #[inline]
    fn overlaps_any(&self, r: Rect) -> bool {
        let (c0, c1) = Self::span(r.0, r.2, self.x_scale, self.last_col);
        let (r0, r1) = Self::span(r.1, r.3, self.y_scale, self.last_row);
        for row in r0..r1 + 1 {
            for col in c0..c1 + 1 {
                let mut n = self.head[row * self.cols + col];
                while let (Some(&next), Some(&other)) = (self.next.get(n), self.rects.get(n)) {
                    if rects_overlap(r, other) {
                        return true;
                    }
                    n = next;
                }
            }
        }
        false
    }

    fn insert(&mut self, r: Rect) {
        let (c0, c1) = Self::span(r.0, r.2, self.x_scale, self.last_col);
        let (r0, r1) = Self::span(r.1, r.3, self.y_scale, self.last_row);
        for row in r0..r1 + 1 {
            for col in c0..c1 + 1 {
                let cell = row * self.cols + col;
                self.next.push(self.head[cell]);
                self.head[cell] = self.rects.len();
                self.rects.push(r);
            }
        }
    }
}

/// Greedy declutter: place in priority order, trying the anchor plus a
/// ring of offsets; labels that cannot be placed without overlap, or
/// that do not fit the viewport at all, are dropped.
pub fn greedy_layout(labels: &[LabelBox], viewport: Viewport) -> Vec<PlacedLabel> {
    let mut order: Vec<&LabelBox> = labels.iter().collect();
    order.sort_by(|a, b| {
        b.priority
            .partial_cmp(&a.priority)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    // The 8 ring directions, once per call. Offsets must keep the bits
    // of `cos`/`sin` of `TAU * k / 8`, which the test oracle computes per
    // candidate.
    let dirs: [(f64, f64); 8] = std::array::from_fn(|k| {
        let a = std::f64::consts::TAU * k as f64 / 8.0;
        (a.cos(), a.sin())
    });
    let mut grid = Grid::new(viewport, labels);
    let mut placed = Vec::with_capacity(labels.len());
    for l in order {
        let Some(fit) = Fit::new(l, viewport) else {
            continue;
        };
        // The anchor, then rings of 8 directions at growing radii.
        let (ax, ay) = l.anchor_px;
        let step = l.height_px.max(l.width_px / 2.0) + 4.0;
        let mut candidates = [l.anchor_px; 25];
        for ring in 1..=3 {
            let r = ring as f64 * step;
            for (k, (cos, sin)) in dirs.iter().enumerate() {
                candidates[(ring - 1) * 8 + k + 1] = (ax + r * cos, ay + r * sin);
            }
        }
        let (hw, hh) = (l.width_px / 2.0, l.height_px / 2.0);
        for c in candidates {
            let (x, y) = fit.clamp(c);
            let r = (x - hw, y - hh, x + hw, y + hh);
            if !grid.overlaps_any(r) {
                grid.insert(r);
                placed.push(PlacedLabel {
                    id: l.id,
                    center_px: (x, y),
                    anchor_px: l.anchor_px,
                });
                break;
            }
        }
    }
    placed
}

/// Force-directed refinement: anchor springs pull boxes home, pairwise
/// repulsion pushes overlapping boxes apart; after `iterations`, any
/// label still overlapping a higher-priority one is dropped. When there
/// are iterations, a label the viewport cannot fit is dropped up front and
/// exerts no force, so the others are placed as if it were absent.
pub fn force_layout(
    labels: &[LabelBox],
    viewport: Viewport,
    iterations: usize,
) -> Vec<PlacedLabel> {
    let mut centers: Vec<(f64, f64)> = labels.iter().map(|l| l.anchor_px).collect();
    let spring = 0.05;
    let repulse = 0.6;
    let fits: Vec<Option<Fit>> = labels.iter().map(|l| Fit::new(l, viewport)).collect();
    // With no iterations nothing is clamped, so every label takes part.
    let live: Vec<usize> = (0..labels.len())
        .filter(|&i| iterations == 0 || fits[i].is_some())
        .collect();
    for _ in 0..iterations {
        let mut forces = vec![(0.0f64, 0.0f64); labels.len()];
        for (n, &i) in live.iter().enumerate() {
            // Anchor spring.
            forces[i].0 += (labels[i].anchor_px.0 - centers[i].0) * spring;
            forces[i].1 += (labels[i].anchor_px.1 - centers[i].1) * spring;
            for &j in live.iter().skip(n + 1) {
                let ri = rect_at(centers[i], &labels[i]);
                let rj = rect_at(centers[j], &labels[j]);
                if rects_overlap(ri, rj) {
                    // Push apart along the centre line; resolve the
                    // degenerate same-centre case along x.
                    let mut dx = centers[i].0 - centers[j].0;
                    let mut dy = centers[i].1 - centers[j].1;
                    let norm = (dx * dx + dy * dy).sqrt();
                    if norm < 1e-6 {
                        dx = 1.0;
                        dy = 0.0;
                    } else {
                        dx /= norm;
                        dy /= norm;
                    }
                    let push = repulse
                        * ((labels[i].width_px + labels[j].width_px) / 2.0
                            + (labels[i].height_px + labels[j].height_px) / 2.0)
                        / 4.0;
                    forces[i].0 += dx * push;
                    forces[i].1 += dy * push;
                    forces[j].0 -= dx * push;
                    forces[j].1 -= dy * push;
                }
            }
        }
        for ((c, f), fit) in centers.iter_mut().zip(&forces).zip(&fits) {
            if let Some(fit) = fit {
                *c = fit.clamp((c.0 + f.0, c.1 + f.1));
            }
        }
    }
    // Drop residual overlappers, low priority first.
    let mut keep = live;
    keep.sort_by(|&a, &b| {
        labels[b]
            .priority
            .partial_cmp(&labels[a].priority)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut accepted: Vec<usize> = Vec::new();
    for idx in keep {
        let r = rect_at(centers[idx], &labels[idx]);
        if accepted
            .iter()
            .all(|&a| !rects_overlap(r, rect_at(centers[a], &labels[a])))
        {
            accepted.push(idx);
        }
    }
    accepted.sort_unstable();
    accepted
        .into_iter()
        .map(|i| PlacedLabel {
            id: labels[i].id,
            center_px: centers[i],
            anchor_px: labels[i].anchor_px,
        })
        .collect()
}

fn rect_at(center: (f64, f64), l: &LabelBox) -> (f64, f64, f64, f64) {
    (
        center.0 - l.width_px / 2.0,
        center.1 - l.height_px / 2.0,
        center.0 + l.width_px / 2.0,
        center.1 + l.height_px / 2.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn dense_labels(n: usize, seed: u64) -> Vec<LabelBox> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| LabelBox {
                id: i as u64,
                anchor_px: (rng.gen_range(200.0..600.0), rng.gen_range(200.0..500.0)),
                width_px: 120.0,
                height_px: 30.0,
                priority: rng.gen_range(0.0..1.0),
            })
            .collect()
    }

    fn vp() -> Viewport {
        Viewport::default()
    }

    #[test]
    fn naive_has_zero_displacement_but_overlaps() {
        let labels = dense_labels(40, 1);
        let placed = naive_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.mean_displacement_px, 0.0);
        assert_eq!(m.drop_ratio, 0.0);
        assert!(m.overlap_ratio > 0.05, "dense anchors must overlap");
    }

    #[test]
    fn greedy_eliminates_overlap() {
        let labels = dense_labels(40, 2);
        let placed = greedy_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.overlap_ratio, 0.0, "greedy guarantees no overlap");
        assert!(m.placed > 10, "should place a good fraction");
    }

    #[test]
    fn greedy_prefers_high_priority() {
        // Two identical anchors: only one can sit at the anchor.
        let labels = vec![
            LabelBox {
                id: 1,
                anchor_px: (500.0, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.1,
            },
            LabelBox {
                id: 2,
                anchor_px: (500.0, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.9,
            },
        ];
        let placed = greedy_layout(&labels, vp());
        let two = placed.iter().find(|p| p.id == 2).unwrap();
        assert_eq!(two.center_px, (500.0, 500.0), "high priority sits home");
        if let Some(one) = placed.iter().find(|p| p.id == 1) {
            assert!(one.displacement() > 0.0);
        }
    }

    #[test]
    fn force_layout_reduces_overlap_versus_naive() {
        let labels = dense_labels(50, 3);
        let naive = LayoutMetrics::measure(&labels, &naive_layout(&labels, vp()));
        let placed = force_layout(&labels, vp(), 60);
        let forced = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(forced.overlap_ratio, 0.0, "residual overlappers dropped");
        assert!(forced.placed >= naive.placed / 2);
        assert!(forced.mean_displacement_px > 0.0);
    }

    #[test]
    fn all_layouts_stay_in_viewport() {
        let labels = dense_labels(30, 4);
        for placed in [
            greedy_layout(&labels, vp()),
            force_layout(&labels, vp(), 40),
        ] {
            for p in &placed {
                let l = labels.iter().find(|l| l.id == p.id).unwrap();
                let r = p.rect(l);
                assert!(r.0 >= -1e-9 && r.1 >= -1e-9);
                assert!(r.2 <= 1920.0 + 1e-9 && r.3 <= 1080.0 + 1e-9);
            }
        }
    }

    #[test]
    fn sparse_labels_need_no_movement() {
        let labels: Vec<LabelBox> = (0..5)
            .map(|i| LabelBox {
                id: i,
                anchor_px: (200.0 + 300.0 * i as f64, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.5,
            })
            .collect();
        let placed = greedy_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.placed, 5);
        assert_eq!(m.mean_displacement_px, 0.0);
    }

    #[test]
    fn labels_that_cannot_fit_are_dropped_not_panicked_on() {
        let mut labels = dense_labels(12, 5);
        labels[3].width_px = 2000.0;
        labels[7].width_px = f64::NAN;
        labels[9].height_px = f64::INFINITY;
        let unfit = [labels[3].id, labels[7].id, labels[9].id];
        for placed in [
            greedy_layout(&labels, vp()),
            force_layout(&labels, vp(), 20),
        ] {
            assert!(!placed.is_empty());
            assert!(placed.iter().all(|p| !unfit.contains(&p.id)));
        }
        // The unfit labels exert no force: the others land exactly where
        // they would without them.
        let fitting: Vec<LabelBox> = labels
            .iter()
            .filter(|l| !unfit.contains(&l.id))
            .copied()
            .collect();
        assert_eq!(
            force_layout(&labels, vp(), 20),
            force_layout(&fitting, vp(), 20)
        );
        assert_eq!(greedy_layout(&labels, vp()), greedy_layout(&fitting, vp()));
        let lone = [labels[3]];
        assert!(greedy_layout(&lone, vp()).is_empty());
        assert!(force_layout(&lone, vp(), 5).is_empty());
        // With no iterations the force layout never clamps, so it keeps
        // the label, as it always has.
        assert_eq!(force_layout(&lone, vp(), 0).len(), 1);
    }

    /// The linear-scan `greedy_layout` the grid replaced, kept as an
    /// oracle: it recomputes the ring per label and tests every placed
    /// box. Labels with no position in the viewport are dropped.
    fn greedy_layout_scan(labels: &[LabelBox], viewport: Viewport) -> Vec<PlacedLabel> {
        let mut order: Vec<&LabelBox> = labels.iter().collect();
        order.sort_by(|a, b| {
            b.priority
                .partial_cmp(&a.priority)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let mut placed: Vec<(PlacedLabel, Rect)> = Vec::new();
        for l in order {
            let mut candidates = vec![l.anchor_px];
            for ring in 1..=3 {
                let r = ring as f64 * (l.height_px.max(l.width_px / 2.0) + 4.0);
                for k in 0..8 {
                    let a = std::f64::consts::TAU * k as f64 / 8.0;
                    candidates.push((l.anchor_px.0 + r * a.cos(), l.anchor_px.1 + r * a.sin()));
                }
            }
            let spot = candidates.into_iter().find_map(|c| {
                let p = PlacedLabel {
                    id: l.id,
                    center_px: Fit::new(l, viewport)?.clamp(c),
                    anchor_px: l.anchor_px,
                };
                let r = p.rect(l);
                placed
                    .iter()
                    .all(|(_, other)| !rects_overlap(r, *other))
                    .then_some((p, r))
            });
            if let Some((p, r)) = spot {
                placed.push((p, r));
            }
        }
        placed.into_iter().map(|(p, _)| p).collect()
    }

    fn bits(placed: &[PlacedLabel]) -> Vec<(u64, [u64; 4])> {
        placed
            .iter()
            .map(|p| {
                let (c, a) = (p.center_px, p.anchor_px);
                (p.id, [c.0, c.1, a.0, a.1].map(f64::to_bits))
            })
            .collect()
    }

    /// One random layout case. Extents, priorities, ids and the viewport
    /// are drawn from small pools so ties, duplicates, zero and negative
    /// extents, NaNs and labels larger than the viewport all recur.
    fn arb_case(seed: u64) -> (Vec<LabelBox>, Viewport) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vp = match rng.gen_range(0..4) {
            0 => Viewport {
                width_px: rng.gen_range(0..400),
                height_px: rng.gen_range(0..300),
            },
            _ => Viewport::default(),
        };
        let n = rng.gen_range(0..=400);
        let ids = if rng.gen_bool(0.3) {
            n / 3 + 1
        } else {
            usize::MAX
        };
        let extents = [
            150.0,
            32.0,
            0.0,
            -20.0,
            90.5,
            2500.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let priorities = [0.5, 1.0, 0.0, -0.0, 0.25, f64::NAN];
        let nan_share = if rng.gen_bool(0.2) { 0.05 } else { 0.0 };
        let labels = (0..n)
            .map(|i| LabelBox {
                id: (i % ids) as u64,
                anchor_px: (rng.gen_range(-200.0..2100.0), rng.gen_range(-200.0..1300.0)),
                width_px: if rng.gen_bool(0.8) {
                    150.0
                } else {
                    extents[rng.gen_range(0..extents.len())]
                },
                height_px: if rng.gen_bool(0.8) {
                    32.0
                } else {
                    extents[rng.gen_range(0..extents.len())]
                },
                priority: if rng.gen_bool(nan_share) {
                    f64::NAN
                } else if rng.gen_bool(0.5) {
                    priorities[rng.gen_range(0..priorities.len() - 1)]
                } else {
                    rng.gen_range(0.0..1.0)
                },
            })
            .collect();
        (labels, vp)
    }

    /// A crowded horizon frame: `n` 150×32 labels whose anchors sit in a
    /// 32-px band, Zipf-like priorities, some halved as for x-ray reveals.
    fn horizon_case(seed: u64, n: usize) -> Vec<LabelBox> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let band = rng.gen_range(0.0..1048.0);
        (0..n)
            .map(|i| {
                let popularity = 1.0 / rng.gen_range(1..200_000) as f64;
                LabelBox {
                    id: i as u64,
                    anchor_px: (rng.gen_range(0.0..1920.0), band + rng.gen_range(0.0..32.0)),
                    width_px: 150.0,
                    height_px: 32.0,
                    priority: if rng.gen_bool(0.4) {
                        popularity * 0.5
                    } else {
                        popularity
                    },
                }
            })
            .collect()
    }

    /// Runs both layouts; with NaN priorities the shared sort may reject
    /// its comparator, so both sides must then panic alike.
    fn assert_matches_scan(labels: &[LabelBox], vp: Viewport) {
        let grid = std::panic::catch_unwind(|| bits(&greedy_layout(labels, vp)));
        let scan = std::panic::catch_unwind(|| bits(&greedy_layout_scan(labels, vp)));
        match (grid, scan) {
            (Ok(g), Ok(s)) => assert_eq!(g, s, "{} labels, {vp:?}", labels.len()),
            (Err(_), Err(_)) => {}
            (g, s) => panic!(
                "one layout panicked: grid {:?}, scan {:?}",
                g.is_ok(),
                s.is_ok()
            ),
        }
    }

    proptest::proptest! {
        #[test]
        fn grid_layout_matches_linear_scan(seed in proptest::prelude::any::<u64>()) {
            let (labels, vp) = arb_case(seed);
            assert_matches_scan(&labels, vp);
            assert_matches_scan(&horizon_case(seed, 244), Viewport::default());
        }
    }

    /// `measure` before each placed box was resolved once, kept as an
    /// oracle: two label lookups per pair.
    fn measure_pairwise(labels: &[LabelBox], placed: &[PlacedLabel]) -> LayoutMetrics {
        let by_id: std::collections::HashMap<u64, &LabelBox> =
            labels.iter().map(|l| (l.id, l)).collect();
        let mut overlaps = 0usize;
        let mut pairs = 0usize;
        let mut touched = vec![false; placed.len()];
        for (i, a) in placed.iter().enumerate() {
            for (joff, b) in placed.iter().skip(i + 1).enumerate() {
                pairs += 1;
                let (Some(la), Some(lb)) = (by_id.get(&a.id), by_id.get(&b.id)) else {
                    continue;
                };
                if rects_overlap(a.rect(la), b.rect(lb)) {
                    overlaps += 1;
                    touched[i] = true;
                    touched[i + 1 + joff] = true;
                }
            }
        }
        let overlapped_labels = touched.iter().filter(|t| **t).count();
        let mean_disp = if placed.is_empty() {
            0.0
        } else {
            placed.iter().map(|p| p.displacement()).sum::<f64>() / placed.len() as f64
        };
        LayoutMetrics {
            overlap_ratio: if pairs > 0 {
                overlaps as f64 / pairs as f64
            } else {
                0.0
            },
            overlapped_label_ratio: if placed.is_empty() {
                0.0
            } else {
                overlapped_labels as f64 / placed.len() as f64
            },
            mean_displacement_px: mean_disp,
            drop_ratio: 1.0 - placed.len() as f64 / labels.len().max(1) as f64,
            placed: placed.len(),
        }
    }

    proptest::proptest! {
        #[test]
        fn measure_matches_pairwise_oracle(seed in proptest::prelude::any::<u64>()) {
            let (labels, _) = arb_case(seed);
            let placed = naive_layout(&labels, vp());
            // Some placements name no label: every third label goes.
            let fewer: Vec<LabelBox> = labels.iter().step_by(3).copied().collect();
            let horizon = horizon_case(seed, 244);
            let greedy = greedy_layout(&horizon, vp());
            for (labels, placed) in [
                (&labels, &placed),
                (&fewer, &placed),
                (&horizon, &naive_layout(&horizon, vp())),
                (&horizon, &greedy),
            ] {
                // Debug strings compare NaN ratios as equal.
                proptest::prop_assert_eq!(
                    format!("{:?}", LayoutMetrics::measure(labels, placed)),
                    format!("{:?}", measure_pairwise(labels, placed))
                );
            }
        }
    }

    #[test]
    fn metrics_on_empty_input() {
        let m = LayoutMetrics::measure(&[], &[]);
        assert_eq!(m.placed, 0);
        assert_eq!(m.overlap_ratio, 0.0);
    }
}
