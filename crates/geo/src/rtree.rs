//! An R-tree over planar rectangles with incremental insertion
//! (quadratic split), STR bulk loading, range queries, and best-first
//! k-nearest-neighbour search.
//!
//! This is the index behind [`crate::poi::PoiDatabase`] and experiment E8
//! (POI retrieval at scale): the paper's tourism scenario assumes
//! sub-frame-budget lookup of nearby content among millions of entries,
//! which linear scans cannot deliver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bbox::Rect;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = MAX_ENTRIES / 4;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf {
        bounds: Rect,
        entries: Vec<(Rect, T)>,
    },
    Inner {
        bounds: Rect,
        children: Vec<Node<T>>,
    },
}

impl<T> Node<T> {
    fn bounds(&self) -> Rect {
        match self {
            Node::Leaf { bounds, .. } | Node::Inner { bounds, .. } => *bounds,
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Inner { children, .. } => children.len(),
        }
    }

    fn recompute_bounds(&mut self) {
        match self {
            Node::Leaf { bounds, entries } => {
                *bounds = entries
                    .iter()
                    .fold(Rect::empty(), |acc, (r, _)| acc.union(r));
            }
            Node::Inner { bounds, children } => {
                *bounds = children
                    .iter()
                    .fold(Rect::empty(), |acc, c| acc.union(&c.bounds()));
            }
        }
    }
}

/// An R-tree mapping planar rectangles to payloads of type `T`.
///
/// # Example
///
/// ```
/// use augur_geo::{RTree, Rect};
///
/// let mut tree = RTree::new();
/// for i in 0..100 {
///     let x = (i % 10) as f64 * 10.0;
///     let y = (i / 10) as f64 * 10.0;
///     tree.insert(Rect::point(x, y), i);
/// }
/// let query = Rect::new(0.0, 0.0, 25.0, 25.0)?;
/// assert_eq!(tree.range(&query).count(), 9);
/// let nearest = tree.nearest(1.0, 1.0, 1);
/// assert_eq!(*nearest[0].1, 0);
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf {
                bounds: Rect::empty(),
                entries: Vec::new(),
            },
            len: 0,
        }
    }

    /// Bulk-loads with the Sort-Tile-Recursive algorithm, producing a
    /// well-packed tree much faster than repeated insertion.
    pub fn bulk_load(mut items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // STR: sort by centre x, slice into vertical strips, sort each
        // strip by centre y, pack leaves of MAX_ENTRIES.
        items.sort_by(|a, b| {
            a.0.center()
                .0
                .partial_cmp(&b.0.center().0)
                .unwrap_or(Ordering::Equal)
        });
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let strips = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = len.div_ceil(strips);
        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        let mut rest = items;
        while !rest.is_empty() {
            let take = per_strip.min(rest.len());
            let mut strip: Vec<(Rect, T)> = rest.drain(..take).collect();
            strip.sort_by(|a, b| {
                a.0.center()
                    .1
                    .partial_cmp(&b.0.center().1)
                    .unwrap_or(Ordering::Equal)
            });
            while !strip.is_empty() {
                let take = MAX_ENTRIES.min(strip.len());
                let entries: Vec<(Rect, T)> = strip.drain(..take).collect();
                let mut leaf = Node::Leaf {
                    bounds: Rect::empty(),
                    entries,
                };
                leaf.recompute_bounds();
                leaves.push(leaf);
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node<T>> = iter.by_ref().take(MAX_ENTRIES).collect();
                let mut inner = Node::Inner {
                    bounds: Rect::empty(),
                    children,
                };
                inner.recompute_bounds();
                next.push(inner);
            }
            level = next;
        }
        // Non-empty input always leaves exactly one packed root; the
        // fallback keeps the impossible branch panic-free.
        let root = level.pop().unwrap_or(Node::Leaf {
            bounds: Rect::empty(),
            entries: Vec::new(),
        });
        RTree { root, len }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding rectangle of all entries ([`Rect::empty`] when empty).
    pub fn bounds(&self) -> Rect {
        self.root.bounds()
    }

    /// Inserts an entry keyed by its bounding rectangle.
    pub fn insert(&mut self, rect: Rect, value: T) {
        self.len += 1;
        if let Some((a, b)) = Self::insert_into(&mut self.root, rect, value) {
            // Root split: grow the tree by one level.
            self.root = {
                let mut inner = Node::Inner {
                    bounds: Rect::empty(),
                    children: vec![a, b],
                };
                inner.recompute_bounds();
                inner
            };
        }
    }

    fn insert_into(node: &mut Node<T>, rect: Rect, value: T) -> Option<(Node<T>, Node<T>)> {
        match node {
            Node::Leaf { bounds, entries } => {
                entries.push((rect, value));
                *bounds = bounds.union(&rect);
                if entries.len() > MAX_ENTRIES {
                    let split = Self::split_leaf(std::mem::take(entries));
                    return Some(split);
                }
                None
            }
            Node::Inner { bounds, children } => {
                *bounds = bounds.union(&rect);
                // Choose child needing least enlargement (ties: smaller area).
                let idx = children
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let ea = a.bounds().enlargement(&rect);
                        let eb = b.bounds().enlargement(&rect);
                        ea.partial_cmp(&eb)
                            .unwrap_or(Ordering::Equal)
                            .then_with(|| {
                                a.bounds()
                                    .area()
                                    .partial_cmp(&b.bounds().area())
                                    .unwrap_or(Ordering::Equal)
                            })
                    })
                    .map(|(i, _)| i)
                    // Inner nodes are never empty; 0 is a harmless
                    // stand-in for the impossible branch.
                    .unwrap_or(0);
                if let Some((a, b)) = Self::insert_into(&mut children[idx], rect, value) {
                    children.swap_remove(idx);
                    children.push(a);
                    children.push(b);
                    if children.len() > MAX_ENTRIES {
                        let split = Self::split_inner(std::mem::take(children));
                        return Some(split);
                    }
                }
                None
            }
        }
    }

    /// Quadratic split on seed pair with maximum dead space.
    fn pick_seeds(rects: &[Rect]) -> (usize, usize) {
        let mut best = (0, 1);
        let mut worst = f64::NEG_INFINITY;
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let dead = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
                if dead > worst {
                    worst = dead;
                    best = (i, j);
                }
            }
        }
        best
    }

    fn split_generic<U>(items: Vec<U>, rect_of: impl Fn(&U) -> Rect) -> (Vec<U>, Vec<U>) {
        let rects: Vec<Rect> = items.iter().map(&rect_of).collect();
        let (s1, s2) = Self::pick_seeds(&rects);
        let mut group_a: Vec<U> = Vec::new();
        let mut group_b: Vec<U> = Vec::new();
        let mut bounds_a = rects[s1];
        let mut bounds_b = rects[s2];
        for (i, item) in items.into_iter().enumerate() {
            if i == s1 {
                group_a.push(item);
                continue;
            }
            if i == s2 {
                group_b.push(item);
                continue;
            }
            let r = rects[i];
            let remaining = MIN_ENTRIES.saturating_sub(group_a.len());
            let remaining_b = MIN_ENTRIES.saturating_sub(group_b.len());
            // Force assignment if a group must absorb all the rest to
            // reach MIN_ENTRIES. (Conservative: checks counts only.)
            if remaining > 0 && group_b.len() + remaining >= MAX_ENTRIES {
                bounds_a = bounds_a.union(&r);
                group_a.push(item);
                continue;
            }
            if remaining_b > 0 && group_a.len() + remaining_b >= MAX_ENTRIES {
                bounds_b = bounds_b.union(&r);
                group_b.push(item);
                continue;
            }
            let ea = bounds_a.enlargement(&r);
            let eb = bounds_b.enlargement(&r);
            if ea < eb || (ea == eb && group_a.len() <= group_b.len()) {
                bounds_a = bounds_a.union(&r);
                group_a.push(item);
            } else {
                bounds_b = bounds_b.union(&r);
                group_b.push(item);
            }
        }
        (group_a, group_b)
    }

    fn split_leaf(entries: Vec<(Rect, T)>) -> (Node<T>, Node<T>) {
        let (a, b) = Self::split_generic(entries, |e| e.0);
        let mut na = Node::Leaf {
            bounds: Rect::empty(),
            entries: a,
        };
        let mut nb = Node::Leaf {
            bounds: Rect::empty(),
            entries: b,
        };
        na.recompute_bounds();
        nb.recompute_bounds();
        (na, nb)
    }

    fn split_inner(children: Vec<Node<T>>) -> (Node<T>, Node<T>) {
        let (a, b) = Self::split_generic(children, |c| c.bounds());
        let mut na = Node::Inner {
            bounds: Rect::empty(),
            children: a,
        };
        let mut nb = Node::Inner {
            bounds: Rect::empty(),
            children: b,
        };
        na.recompute_bounds();
        nb.recompute_bounds();
        (na, nb)
    }

    /// Iterates over entries whose rectangle intersects `query`.
    pub fn range<'a>(&'a self, query: &Rect) -> Range<'a, T> {
        let mut stack = Vec::new();
        if self.root.bounds().intersects(query) || self.root.len() > 0 {
            stack.push(&self.root);
        }
        Range {
            stack,
            leaf: None,
            query: *query,
        }
    }

    /// Calls `f` on every entry whose rectangle intersects `query`, in
    /// exactly the order [`RTree::range`] yields them, without
    /// allocating: the walk recurses instead of keeping a node stack.
    pub fn visit_range<'a>(&'a self, query: &Rect, mut f: impl FnMut(&'a Rect, &'a T)) {
        if self.root.bounds().intersects(query) {
            Self::visit(&self.root, query, &mut f);
        }
    }

    fn visit<'a, F: FnMut(&'a Rect, &'a T)>(node: &'a Node<T>, query: &Rect, f: &mut F) {
        match node {
            Node::Leaf { entries, .. } => {
                for (r, v) in entries {
                    if r.intersects(query) {
                        f(r, v);
                    }
                }
            }
            // `range` stacks the matching children and pops the last
            // first; visiting them in reverse keeps its order.
            Node::Inner { children, .. } => {
                for c in children.iter().rev() {
                    if c.bounds().intersects(query) {
                        Self::visit(c, query, f);
                    }
                }
            }
        }
    }

    /// The `k` entries nearest to `(x, y)` by rectangle distance, closest
    /// first. Returns fewer than `k` when the tree is smaller.
    pub fn nearest(&self, x: f64, y: f64, k: usize) -> Vec<(Rect, &T)> {
        self.nearest_counted(x, y, k).0
    }

    /// Like [`RTree::nearest`], but also reports the search cost as the
    /// number of rectangle-distance evaluations performed. The count is a
    /// deterministic proxy for query latency, usable by simulations that
    /// must not read the wall clock.
    pub fn nearest_counted(&self, x: f64, y: f64, k: usize) -> (Vec<(Rect, &T)>, usize) {
        if k == 0 || self.len == 0 {
            return (Vec::new(), 0);
        }
        // Best-first search over a min-heap of (distance², node-or-entry).
        enum Item<'a, T> {
            Node(&'a Node<T>),
            Entry(Rect, &'a T),
        }
        struct HeapEntry<'a, T> {
            dist2: f64,
            item: Item<'a, T>,
        }
        impl<T> PartialEq for HeapEntry<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist2 == other.dist2
            }
        }
        impl<T> Eq for HeapEntry<'_, T> {}
        impl<T> PartialOrd for HeapEntry<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for HeapEntry<'_, T> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap.
                other
                    .dist2
                    .partial_cmp(&self.dist2)
                    .unwrap_or(Ordering::Equal)
            }
        }
        let mut heap: BinaryHeap<HeapEntry<'_, T>> = BinaryHeap::new();
        let mut work = 1usize;
        heap.push(HeapEntry {
            dist2: self.root.bounds().distance2_to_point(x, y),
            item: Item::Node(&self.root),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(HeapEntry { item, .. }) = heap.pop() {
            match item {
                Item::Entry(r, v) => {
                    out.push((r, v));
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(Node::Leaf { entries, .. }) => {
                    work += entries.len();
                    for (r, v) in entries {
                        heap.push(HeapEntry {
                            dist2: r.distance2_to_point(x, y),
                            item: Item::Entry(*r, v),
                        });
                    }
                }
                Item::Node(Node::Inner { children, .. }) => {
                    work += children.len();
                    for c in children {
                        heap.push(HeapEntry {
                            dist2: c.bounds().distance2_to_point(x, y),
                            item: Item::Node(c),
                        });
                    }
                }
            }
        }
        (out, work)
    }

    /// Depth of the tree (1 for a single leaf). Exposed for tests and
    /// benchmarks that verify packing quality.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = &self.root;
        while let Node::Inner { children, .. } = node {
            d += 1;
            node = &children[0];
        }
        d
    }
}

impl<T> FromIterator<(Rect, T)> for RTree<T> {
    fn from_iter<I: IntoIterator<Item = (Rect, T)>>(iter: I) -> Self {
        RTree::bulk_load(iter.into_iter().collect())
    }
}

/// Iterator over range-query results; see [`RTree::range`].
#[derive(Debug)]
pub struct Range<'a, T> {
    stack: Vec<&'a Node<T>>,
    leaf: Option<std::slice::Iter<'a, (Rect, T)>>,
    query: Rect,
}

impl<'a, T> Iterator for Range<'a, T> {
    type Item = (&'a Rect, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(iter) = &mut self.leaf {
                for (r, v) in iter.by_ref() {
                    if r.intersects(&self.query) {
                        return Some((r, v));
                    }
                }
                self.leaf = None;
            }
            let node = self.stack.pop()?;
            if !node.bounds().intersects(&self.query) {
                continue;
            }
            match node {
                Node::Leaf { entries, .. } => self.leaf = Some(entries.iter()),
                Node::Inner { children, .. } => {
                    for c in children {
                        if c.bounds().intersects(&self.query) {
                            self.stack.push(c);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Rect, usize)> {
        (0..n * n)
            .map(|i| {
                let x = (i % n) as f64;
                let y = (i / n) as f64;
                (Rect::point(x, y), i)
            })
            .collect()
    }

    #[test]
    fn insert_and_range() {
        let mut t = RTree::new();
        for (r, v) in grid_points(20) {
            t.insert(r, v);
        }
        assert_eq!(t.len(), 400);
        let q = Rect::new(0.0, 0.0, 4.0, 4.0).unwrap();
        let hits: Vec<usize> = t.range(&q).map(|(_, v)| *v).collect();
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn bulk_load_matches_insert_results() {
        let items = grid_points(15);
        let bulk: RTree<usize> = items.clone().into_iter().collect();
        let mut incr = RTree::new();
        for (r, v) in items {
            incr.insert(r, v);
        }
        let q = Rect::new(3.0, 3.0, 7.5, 9.0).unwrap();
        let mut a: Vec<usize> = bulk.range(&q).map(|(_, v)| *v).collect();
        let mut b: Vec<usize> = incr.range(&q).map(|(_, v)| *v).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(bulk.len(), incr.len());
    }

    #[test]
    fn bulk_load_is_shallower_than_worst_case() {
        let t: RTree<usize> = grid_points(40).into_iter().collect(); // 1600 pts
        assert!(t.depth() <= 4, "depth {}", t.depth());
    }

    #[test]
    fn nearest_returns_sorted_by_distance() {
        let t: RTree<usize> = grid_points(10).into_iter().collect();
        let res = t.nearest(4.4, 4.4, 5);
        assert_eq!(res.len(), 5);
        assert_eq!(*res[0].1, 44); // (4,4)
        let mut prev = -1.0;
        for (r, _) in &res {
            let d = r.distance2_to_point(4.4, 4.4);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn nearest_edge_cases() {
        let t: RTree<usize> = RTree::new();
        assert!(t.nearest(0.0, 0.0, 3).is_empty());
        let t: RTree<usize> = grid_points(3).into_iter().collect();
        assert!(t.nearest(0.0, 0.0, 0).is_empty());
        assert_eq!(t.nearest(0.0, 0.0, 100).len(), 9);
    }

    #[test]
    fn empty_tree_range_is_empty() {
        let t: RTree<u8> = RTree::new();
        let q = Rect::new(-1.0, -1.0, 1.0, 1.0).unwrap();
        assert_eq!(t.range(&q).count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn rect_entries_supported() {
        let mut t = RTree::new();
        t.insert(Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(), "big");
        t.insert(Rect::new(20.0, 20.0, 21.0, 21.0).unwrap(), "small");
        let q = Rect::new(5.0, 5.0, 6.0, 6.0).unwrap();
        let hits: Vec<&&str> = t.range(&q).map(|(_, v)| v).collect();
        assert_eq!(hits, vec![&"big"]);
    }

    proptest::proptest! {
        #[test]
        fn visit_range_walks_range_order(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..3_000);
            let items: Vec<(Rect, usize)> = (0..n)
                .map(|i| {
                    let (x, y) = (rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                    let (w, h) = (rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));
                    (Rect::spanning(x, y, x + w, y + h), i)
                })
                .collect();
            let bulk: RTree<usize> = items.clone().into_iter().collect();
            let mut incr = RTree::new();
            for (r, v) in items {
                incr.insert(r, v);
            }
            for tree in [&bulk, &incr] {
                for _ in 0..8 {
                    let (x, y) = (rng.gen_range(-50.0..550.0), rng.gen_range(-50.0..550.0));
                    let side = rng.gen_range(0.0..300.0);
                    let q = Rect::spanning(x, y, x + side, y + side * rng.gen_range(0.0..2.0));
                    let want: Vec<(Rect, usize)> = tree.range(&q).map(|(r, v)| (*r, *v)).collect();
                    let mut got = Vec::new();
                    tree.visit_range(&q, |r, v| got.push((*r, *v)));
                    proptest::prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn range_brute_force_agreement_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let items: Vec<(Rect, usize)> = (0..500)
            .map(|i| {
                (
                    Rect::point(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    i,
                )
            })
            .collect();
        let mut tree = RTree::new();
        for (r, v) in items.clone() {
            tree.insert(r, v);
        }
        for _ in 0..20 {
            let x0 = rng.gen_range(0.0..90.0);
            let y0 = rng.gen_range(0.0..90.0);
            let q = Rect::new(x0, y0, x0 + 10.0, y0 + 10.0).unwrap();
            let mut got: Vec<usize> = tree.range(&q).map(|(_, v)| *v).collect();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
