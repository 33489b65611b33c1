//! Points of interest and a clustered synthetic generator.
//!
//! The paper's tourism and retail scenarios assume POI databases and
//! geocoded social feeds ("Junaio and Wikitude AR browsers overlay
//! geospatial-related data"). Those feeds are proprietary, so
//! [`PoiGenerator`] synthesises a database with the two properties the
//! experiments depend on: *clustered geography* (POIs concentrate around
//! hotspots the way venues concentrate downtown) and *Zipf-skewed
//! popularity* (a few venues draw most visits).

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bbox::Rect;
use crate::coord::{Enu, GeoPoint, LocalFrame};
use crate::error::GeoError;
use crate::rtree::RTree;

/// Opaque identifier for a point of interest.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PoiId(pub u64);

impl std::fmt::Display for PoiId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "poi:{}", self.0)
    }
}

/// Venue categories, mirroring the application domains of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoiCategory {
    /// Shops, malls, product displays (§3.1).
    Retail,
    /// Restaurants and cafes.
    Food,
    /// Landmarks, museums, historical sites (§3.2).
    Landmark,
    /// Hospitals, clinics, pharmacies (§3.3).
    Health,
    /// Transit stops, government offices, utilities (§3.4).
    PublicService,
    /// Hotels and rest sites.
    Lodging,
}

impl PoiCategory {
    /// All categories, for iteration in generators and reports.
    pub const ALL: [PoiCategory; 6] = [
        PoiCategory::Retail,
        PoiCategory::Food,
        PoiCategory::Landmark,
        PoiCategory::Health,
        PoiCategory::PublicService,
        PoiCategory::Lodging,
    ];
}

impl std::fmt::Display for PoiCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PoiCategory::Retail => "retail",
            PoiCategory::Food => "food",
            PoiCategory::Landmark => "landmark",
            PoiCategory::Health => "health",
            PoiCategory::PublicService => "public-service",
            PoiCategory::Lodging => "lodging",
        };
        f.write_str(s)
    }
}

/// A point of interest: location plus the descriptive payload AR overlays
/// draw from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Poi {
    /// Stable identifier.
    pub id: PoiId,
    /// Display name.
    pub name: String,
    /// Venue category.
    pub category: PoiCategory,
    /// Geodetic position.
    pub position: GeoPoint,
    /// Popularity weight in `[0, 1]`; Zipf-skewed in synthetic data.
    pub popularity: f64,
}

/// Parameters for [`PoiGenerator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoiGeneratorParams {
    /// Number of POIs to generate.
    pub count: usize,
    /// Number of spatial hotspots POIs cluster around.
    pub hotspots: usize,
    /// Standard deviation of the Gaussian cluster around each hotspot, m.
    pub cluster_sigma_m: f64,
    /// Half-width of the square generation area, metres from the origin.
    pub half_extent_m: f64,
    /// Zipf exponent for popularity (1.0 ≈ classic web/venue skew).
    pub zipf_exponent: f64,
}

impl Default for PoiGeneratorParams {
    fn default() -> Self {
        PoiGeneratorParams {
            count: 1000,
            hotspots: 8,
            cluster_sigma_m: 150.0,
            half_extent_m: 2000.0,
            zipf_exponent: 1.0,
        }
    }
}

/// Synthesises clustered, popularity-skewed POI sets around an origin.
#[derive(Debug, Clone)]
pub struct PoiGenerator {
    params: PoiGeneratorParams,
    frame: LocalFrame,
}

impl PoiGenerator {
    /// Creates a generator anchored at `origin`.
    pub fn new(origin: GeoPoint, params: PoiGeneratorParams) -> Self {
        PoiGenerator {
            params,
            frame: LocalFrame::new(origin),
        }
    }

    /// Generates the POI set using `rng`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Poi> {
        let p = &self.params;
        let hotspots: Vec<(f64, f64)> = (0..p.hotspots.max(1))
            .map(|_| {
                (
                    rng.gen_range(-p.half_extent_m..=p.half_extent_m),
                    rng.gen_range(-p.half_extent_m..=p.half_extent_m),
                )
            })
            .collect();
        (0..p.count)
            .map(|i| {
                let (hx, hy) = hotspots[rng.gen_range(0..hotspots.len())];
                let x = (hx + standard_normal(rng) * p.cluster_sigma_m)
                    .clamp(-p.half_extent_m, p.half_extent_m);
                let y = (hy + standard_normal(rng) * p.cluster_sigma_m)
                    .clamp(-p.half_extent_m, p.half_extent_m);
                let category = PoiCategory::ALL[rng.gen_range(0..PoiCategory::ALL.len())];
                // Zipf popularity by rank i+1.
                let popularity = 1.0 / ((i + 1) as f64).powf(p.zipf_exponent);
                Poi {
                    id: PoiId(i as u64),
                    name: format!("{category}-{i}"),
                    category,
                    position: self.frame.to_geodetic(Enu::new(x, y, 0.0)),
                    popularity,
                }
            })
            .collect()
    }
}

// Box-Muller standard normal without external deps beyond `rand`.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A queryable POI database backed by an R-tree in a local ENU frame.
///
/// # Example
///
/// ```
/// use augur_geo::{GeoPoint, Poi, PoiCategory, PoiDatabase, PoiId};
///
/// let origin = GeoPoint::new(22.3364, 114.2655)?;
/// let poi = Poi {
///     id: PoiId(1),
///     name: "Seafront Cafe".into(),
///     category: PoiCategory::Food,
///     position: origin.destination(90.0, 120.0),
///     popularity: 0.9,
/// };
/// let db = PoiDatabase::build(origin, vec![poi]);
/// let hits = db.within_radius(origin, 200.0);
/// assert_eq!(hits.len(), 1);
/// assert!(db.nearest(origin, 1, None)[0].name.contains("Cafe"));
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PoiDatabase {
    frame: LocalFrame,
    pois: Vec<Poi>,
    index: RTree<usize>,
}

impl PoiDatabase {
    /// Builds the database and its spatial index.
    pub fn build(origin: GeoPoint, pois: Vec<Poi>) -> Self {
        let frame = LocalFrame::new(origin);
        let items: Vec<(Rect, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, poi)| {
                let enu = frame.to_enu(poi.position);
                (Rect::point(enu.east, enu.north), i)
            })
            .collect();
        PoiDatabase {
            frame,
            pois,
            index: RTree::bulk_load(items),
        }
    }

    /// Number of POIs.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// The local frame queries are executed in.
    pub fn frame(&self) -> &LocalFrame {
        &self.frame
    }

    /// All POIs (index order).
    pub fn iter(&self) -> std::slice::Iter<'_, Poi> {
        self.pois.iter()
    }

    /// Looks up a POI by id (O(n); ids are generator-assigned ranks).
    pub fn get(&self, id: PoiId) -> Option<&Poi> {
        self.pois.iter().find(|p| p.id == id)
    }

    /// POIs within `radius_m` metres of `center`, unordered. A negative
    /// radius yields no results.
    pub fn within_radius(&self, center: GeoPoint, radius_m: f64) -> Vec<&Poi> {
        if radius_m < 0.0 {
            return Vec::new();
        }
        let c = self.frame.to_enu(center);
        let query = Rect::spanning(
            c.east - radius_m,
            c.north - radius_m,
            c.east + radius_m,
            c.north + radius_m,
        );
        let r2 = radius_m * radius_m;
        let mut hits = Vec::new();
        self.index.visit_range(&query, |rect, &i| {
            if rect.distance2_to_point(c.east, c.north) <= r2 {
                hits.push(&self.pois[i]);
            }
        });
        hits
    }

    /// The `k` nearest POIs to `center`, optionally restricted to one
    /// category, closest first.
    pub fn nearest(&self, center: GeoPoint, k: usize, category: Option<PoiCategory>) -> Vec<&Poi> {
        let c = self.frame.to_enu(center);
        match category {
            None => self
                .index
                .nearest(c.east, c.north, k)
                .into_iter()
                .map(|(_, &i)| &self.pois[i])
                .collect(),
            Some(cat) => {
                // Over-fetch and filter; categories are roughly uniform so
                // a small multiplier suffices, retrying with more if not.
                let mut fetch = k * PoiCategory::ALL.len();
                loop {
                    let hits = self.index.nearest(c.east, c.north, fetch);
                    let filtered: Vec<&Poi> = hits
                        .iter()
                        .map(|(_, &i)| &self.pois[i])
                        .filter(|p| p.category == cat)
                        .take(k)
                        .collect();
                    if filtered.len() == k || hits.len() == self.pois.len() {
                        return filtered;
                    }
                    fetch *= 2;
                }
            }
        }
    }

    /// The `k` nearest POIs (no category filter), plus the search cost as
    /// the number of distance evaluations the index performed — a
    /// deterministic latency proxy for simulations that must not read the
    /// wall clock (compare with [`PoiDatabase::within_radius_scan_counted`],
    /// whose cost is always the full database size).
    pub fn nearest_counted(&self, center: GeoPoint, k: usize) -> (Vec<&Poi>, usize) {
        let c = self.frame.to_enu(center);
        let (hits, work) = self.index.nearest_counted(c.east, c.north, k);
        (
            hits.into_iter().map(|(_, &i)| &self.pois[i]).collect(),
            work,
        )
    }

    /// Linear-scan radius query, for benchmarking against the index.
    pub fn within_radius_scan(&self, center: GeoPoint, radius_m: f64) -> Vec<&Poi> {
        self.within_radius_scan_counted(center, radius_m).0
    }

    /// Like [`PoiDatabase::within_radius_scan`], reporting the scan cost:
    /// one haversine evaluation per stored POI.
    pub fn within_radius_scan_counted(
        &self,
        center: GeoPoint,
        radius_m: f64,
    ) -> (Vec<&Poi>, usize) {
        let hits = self
            .pois
            .iter()
            .filter(|p| p.position.haversine_m(center) <= radius_m)
            .collect();
        (hits, self.pois.len())
    }
}

impl<'a> IntoIterator for &'a PoiDatabase {
    type Item = &'a Poi;
    type IntoIter = std::slice::Iter<'a, Poi>;
    fn into_iter(self) -> Self::IntoIter {
        self.pois.iter()
    }
}

/// Convenience: generate `count` POIs clustered around `origin` with
/// default parameters and build the database.
///
/// # Errors
///
/// Returns [`GeoError::InvalidQuery`] if `count` is zero.
pub fn synthetic_database<R: Rng + ?Sized>(
    origin: GeoPoint,
    count: usize,
    rng: &mut R,
) -> Result<PoiDatabase, GeoError> {
    if count == 0 {
        return Err(GeoError::InvalidQuery("poi count must be > 0"));
    }
    let params = PoiGeneratorParams {
        count,
        ..PoiGeneratorParams::default()
    };
    let pois = PoiGenerator::new(origin, params).generate(rng);
    Ok(PoiDatabase::build(origin, pois))
}

// Suppress unused import warning for Distribution (kept for doc clarity).
#[allow(unused)]
fn _assert_distribution_available<D: Distribution<f64>>(_d: D) {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn origin() -> GeoPoint {
        GeoPoint::new(22.3364, 114.2655).unwrap()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn generator_respects_count_and_extent() {
        let params = PoiGeneratorParams {
            count: 500,
            half_extent_m: 1000.0,
            ..Default::default()
        };
        let pois = PoiGenerator::new(origin(), params).generate(&mut rng());
        assert_eq!(pois.len(), 500);
        for p in &pois {
            let d = p.position.haversine_m(origin());
            assert!(d <= 1500.0 * 2.0_f64.sqrt(), "poi too far: {d}");
        }
    }

    #[test]
    fn popularity_is_zipf_monotone() {
        let pois = PoiGenerator::new(origin(), PoiGeneratorParams::default()).generate(&mut rng());
        for w in pois.windows(2) {
            assert!(w[0].popularity >= w[1].popularity);
        }
        assert!((pois[0].popularity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn index_and_scan_agree() {
        let db = synthetic_database(origin(), 2000, &mut rng()).unwrap();
        for radius in [50.0, 200.0, 800.0] {
            let mut a: Vec<PoiId> = db
                .within_radius(origin(), radius)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut b: Vec<PoiId> = db
                .within_radius_scan(origin(), radius)
                .iter()
                .map(|p| p.id)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            // ENU planar distance and haversine may disagree at the rim by
            // centimetres; allow a tiny count difference only at the rim.
            let diff = a.len().abs_diff(b.len());
            assert!(diff <= 2, "radius {radius}: {} vs {}", a.len(), b.len());
        }
    }

    #[test]
    fn nearest_is_sorted_and_category_filter_works() {
        let db = synthetic_database(origin(), 1000, &mut rng()).unwrap();
        let near = db.nearest(origin(), 10, None);
        assert_eq!(near.len(), 10);
        let mut prev = 0.0;
        for p in &near {
            let d = p.position.haversine_m(origin());
            assert!(d + 1e-6 >= prev);
            prev = d;
        }
        let food = db.nearest(origin(), 5, Some(PoiCategory::Food));
        assert!(food.iter().all(|p| p.category == PoiCategory::Food));
        assert_eq!(food.len(), 5);
    }

    #[test]
    fn category_filter_exhausts_gracefully() {
        // A database with no Health POIs returns fewer than k.
        let pois: Vec<Poi> = (0..10)
            .map(|i| Poi {
                id: PoiId(i),
                name: format!("shop-{i}"),
                category: PoiCategory::Retail,
                position: origin().destination(10.0 * i as f64, 50.0 + i as f64),
                popularity: 1.0,
            })
            .collect();
        let db = PoiDatabase::build(origin(), pois);
        assert!(db
            .nearest(origin(), 3, Some(PoiCategory::Health))
            .is_empty());
        assert_eq!(db.nearest(origin(), 3, Some(PoiCategory::Retail)).len(), 3);
    }

    #[test]
    fn get_by_id() {
        let db = synthetic_database(origin(), 50, &mut rng()).unwrap();
        assert!(db.get(PoiId(10)).is_some());
        assert!(db.get(PoiId(9999)).is_none());
    }

    #[test]
    fn synthetic_database_rejects_zero() {
        assert!(synthetic_database(origin(), 0, &mut rng()).is_err());
    }
}
