//! From-scratch CART decision trees and a bagging random forest.
//!
//! The paper trains a random-forest classifier from TF-IDF query vectors to
//! (log-scaled, discretized) resource-cost classes; the averaged predicted
//! class distribution over a workload's queries is its meta-feature (§6.2).
//!
//! # The split search runs over weighted units
//!
//! Query corpora repeat themselves: the 2,000 queries
//! [`WorkloadCharacterizer::train_default`](crate::WorkloadCharacterizer::train_default)
//! trains on have 20 distinct TF-IDF rows. So a fit ranks the matrix once:
//! its distinct rows, and per feature the ascending distinct values with
//! each distinct row's rank among them. A tree then grows over *units*,
//! (distinct row, class) pairs that carry the integer number of samples
//! they stand for. A bootstrap still draws `n` sample indices, as a
//! per-sample resample does, but counts them into units instead of
//! copying rows. At a node, each drawn feature gets the class counts of
//! every value present at the node, in ascending order: a histogram over
//! ranks, or a sort of the node's units by rank when the feature has more
//! distinct values than the node has units. The Gini gain is evaluated
//! only between adjacent present values.
//!
//! This grows the trees that sorting every sample at every node grows,
//! node for node and bit for bit:
//!
//! - At a boundary between two distinct values, the left side holds every
//!   sample whose value is at most the lower one, whatever order ties
//!   take, so its class counts are the per-sample scan's.
//! - Every count is an integer-valued `f64` below 2^53, so sums of counts
//!   are exact in any grouping. Every gain, leaf probability and
//!   first-strictly-better choice (with the `1e-9` floor) is therefore the
//!   same.
//! - The threshold is the midpoint of the same two values, and units go
//!   left by the same `<=` test. `-0.0` and `+0.0` are one value to both
//!   searches, and either gives the same midpoint.
//! - The `k` feature draws happen at the same nodes, in the same
//!   depth-first order, so every tree consumes the same random stream.
//!
//! The test module keeps the per-sample search as `reference_fit` and
//! holds this one to it node for node.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// Why a tree or a forest cannot be fitted on the given data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// There are no training samples.
    Empty,
    /// The feature rows and the labels differ in number.
    LengthMismatch { rows: usize, labels: usize },
    /// A feature row is not as long as the first one.
    RaggedRow { row: usize, len: usize, expected: usize },
    /// A label is not below the number of classes.
    LabelOutOfRange { row: usize, label: usize, n_classes: usize },
    /// A feature value is NaN or infinite.
    NonFiniteFeature { row: usize, feature: usize },
    /// A forest of zero trees, whose averaged distribution would be 0/0.
    NoTrees,
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::Empty => write!(f, "cannot fit on an empty dataset"),
            ForestError::LengthMismatch { rows, labels } => {
                write!(f, "got {rows} feature rows but {labels} labels")
            }
            ForestError::RaggedRow { row, len, expected } => {
                write!(f, "row {row} has {len} features, expected {expected}")
            }
            ForestError::LabelOutOfRange { row, label, n_classes } => {
                write!(f, "row {row} has label {label}, not below {n_classes} classes")
            }
            ForestError::NonFiniteFeature { row, feature } => {
                write!(f, "row {row} has a non-finite value in feature {feature}")
            }
            ForestError::NoTrees => write!(f, "a forest needs at least one tree"),
        }
    }
}

impl std::error::Error for ForestError {}

/// A node of a binary CART tree, stored in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    /// Internal split: `x[feature] <= threshold` goes left.
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    /// Leaf with a class-probability distribution.
    Leaf { probs: Vec<f64> },
}

/// A single CART classification tree (Gini impurity).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

/// Tree-growing parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of candidate features per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_samples_split: 4, max_features: None }
    }
}

/// Checks that `(x, y)` is a non-empty, rectangular, finite dataset whose
/// labels are below `n_classes`.
fn check(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<(), ForestError> {
    if x.len() != y.len() {
        return Err(ForestError::LengthMismatch { rows: x.len(), labels: y.len() });
    }
    let Some(first) = x.first() else {
        return Err(ForestError::Empty);
    };
    for (row, (xi, &label)) in x.iter().zip(y).enumerate() {
        if xi.len() != first.len() {
            return Err(ForestError::RaggedRow { row, len: xi.len(), expected: first.len() });
        }
        if label >= n_classes {
            return Err(ForestError::LabelOutOfRange { row, label, n_classes });
        }
        if let Some(feature) = xi.iter().position(|v| !v.is_finite()) {
            return Err(ForestError::NonFiniteFeature { row, feature });
        }
    }
    Ok(())
}

/// A feature row compared and hashed by its bits, so that equal rows are
/// one distinct row. The hash sums a mix of every value with its position:
/// the terms are independent, so it costs a fraction of hashing the
/// row's bytes, and a collision only costs one more comparison.
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.iter().zip(other.0).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mix = |(i, v): (usize, &f64)| {
            (v.to_bits() ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        };
        state.write_u64(self.0.iter().enumerate().map(mix).fold(0, u64::wrapping_add));
    }
}

/// The training matrix as the split search reads it: each sample's
/// distinct row, and per feature the ascending distinct values with each
/// distinct row's rank among them.
struct RankedRows {
    /// Distinct row of each sample, numbered by first occurrence.
    row_of: Vec<usize>,
    /// Number of distinct rows (equal bit patterns).
    n_rows: usize,
    /// Per feature, its distinct values in ascending order (`-0.0` and
    /// `+0.0` are one value).
    values: Vec<Vec<f64>>,
    /// `ranks[f * n_rows + r]`: the index of distinct row `r`'s value in
    /// `values[f]`.
    ranks: Vec<usize>,
}

impl RankedRows {
    /// Ranks a checked (rectangular, finite) matrix.
    fn new(x: &[Vec<f64>]) -> Self {
        let d = x.first().map_or(0, Vec::len);
        let mut ids: HashMap<RowBits, usize> = HashMap::new();
        let mut firsts = Vec::new();
        let mut row_of = Vec::with_capacity(x.len());
        for (i, row) in x.iter().enumerate() {
            let next = firsts.len();
            let id = *ids.entry(RowBits(row)).or_insert(next);
            if id == next {
                firsts.push(i);
            }
            row_of.push(id);
        }
        let n_rows = firsts.len();
        // Each feature's column over the distinct rows, then its sorted
        // distinct values.
        let mut values = vec![Vec::with_capacity(n_rows); d];
        for &i in &firsts {
            for (column, &v) in values.iter_mut().zip(&x[i]) {
                column.push(v);
            }
        }
        let mut ranks = Vec::with_capacity(d * n_rows);
        for sorted in &mut values {
            let column = sorted.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            sorted.dedup_by(|a, b| a == b);
            ranks.extend(column.iter().map(|&v| sorted.partition_point(|&u| u < v)));
        }
        RankedRows { row_of, n_rows, values, ranks }
    }

    fn n_features(&self) -> usize {
        self.values.len()
    }

    fn rank(&self, feature: usize, row: usize) -> usize {
        self.ranks[feature * self.n_rows + row]
    }

    fn value(&self, feature: usize, row: usize) -> f64 {
        self.values[feature][self.rank(feature, row)]
    }

    /// The units of a multiset of samples: one per (distinct row, class)
    /// pair drawn, with the number of its draws.
    fn units(
        &self,
        samples: impl Iterator<Item = usize>,
        y: &[usize],
        n_classes: usize,
    ) -> Vec<Unit> {
        let mut counts = vec![0usize; self.n_rows * n_classes];
        for i in samples {
            counts[self.row_of[i] * n_classes + y[i]] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(k, &count)| Unit { row: k / n_classes, class: k % n_classes, count })
            .collect()
    }
}

/// A (distinct row, class) pair and the number of a node's samples it
/// stands for.
#[derive(Debug, Clone, Copy)]
struct Unit {
    row: usize,
    class: usize,
    count: usize,
}

/// Grows trees over one ranked matrix, with the scratch its split searches
/// reuse from node to node and tree to tree.
struct Grower<'a> {
    data: &'a RankedRows,
    config: &'a TreeConfig,
    n_classes: usize,
    nodes: Vec<Node>,
    /// Candidate features; a node's draw is the first `k`.
    feats: Vec<usize>,
    /// Class counts per rank of one feature at one node.
    hist: Vec<usize>,
    /// The node's `(rank, class, count)` triples, for the sort path.
    keyed: Vec<(usize, usize, usize)>,
    /// The ranks present at the node, ascending ...
    present: Vec<usize>,
    /// ... and their class counts, `n_classes` per rank.
    present_counts: Vec<usize>,
}

impl<'a> Grower<'a> {
    fn new(data: &'a RankedRows, config: &'a TreeConfig, n_classes: usize) -> Self {
        Grower {
            data,
            config,
            n_classes,
            nodes: Vec::new(),
            feats: Vec::new(),
            hist: Vec::new(),
            keyed: Vec::new(),
            present: Vec::new(),
            present_counts: Vec::new(),
        }
    }

    /// Grows one tree over `units` (the root is node 0).
    fn tree(&mut self, units: &mut [Unit], rng: &mut StdRng) -> DecisionTree {
        self.grow(units, 0, rng);
        DecisionTree { nodes: std::mem::take(&mut self.nodes), n_classes: self.n_classes }
    }

    fn leaf(&mut self, probs: Vec<f64>) -> usize {
        self.nodes.push(Node::Leaf { probs });
        self.nodes.len() - 1
    }

    /// Grows a subtree over `units`; returns the node id.
    fn grow(&mut self, units: &mut [Unit], depth: usize, rng: &mut StdRng) -> usize {
        let c = self.n_classes;
        let mut counts = vec![0.0; c];
        let mut n_samples = 0usize;
        for u in units.iter() {
            counts[u.class] += u.count as f64;
            n_samples += u.count;
        }
        let total = n_samples as f64;
        let probs: Vec<f64> = counts.iter().map(|k| k / total).collect();
        let pure = probs.iter().any(|p| *p > 0.999);
        if depth >= self.config.max_depth || n_samples < self.config.min_samples_split || pure {
            return self.leaf(probs);
        }

        let d = self.data.n_features();
        let k = self.config.max_features.unwrap_or(d).min(d);
        // Sample k distinct candidate features.
        self.feats.clear();
        self.feats.extend(0..d);
        for i in 0..k {
            let j = rng.random_range(i..d);
            self.feats.swap(i, j);
        }

        let parent_gini = gini(&counts, total);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let (mut left, mut right) = (vec![0.0; c], vec![0.0; c]);
        for fi in 0..k {
            let f = self.feats[fi];
            self.present_values(f, units);
            left.fill(0.0);
            right.copy_from_slice(&counts);
            let mut nl = 0usize;
            for (g, class_counts) in self.present_counts.chunks_exact(c).enumerate() {
                if g > 0 {
                    let nlf = nl as f64;
                    let nr = total - nlf;
                    let gain = parent_gini
                        - (nlf / total) * gini(&left, nlf)
                        - (nr / total) * gini(&right, nr);
                    if best.map(|(b, _, _)| gain > b).unwrap_or(gain > 1e-9) {
                        let values = &self.data.values[f];
                        let (xa, xb) = (values[self.present[g - 1]], values[self.present[g]]);
                        best = Some((gain, f, 0.5 * (xa + xb)));
                    }
                }
                for (class, &m) in class_counts.iter().enumerate() {
                    left[class] += m as f64;
                    right[class] -= m as f64;
                    nl += m;
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return self.leaf(probs);
        };
        let mut mid = 0;
        for i in 0..units.len() {
            if self.data.value(feature, units[i].row) <= threshold {
                units.swap(i, mid);
                mid += 1;
            }
        }
        if mid == 0 || mid == units.len() {
            return self.leaf(probs);
        }

        // Reserve the split node, then grow children.
        let my_id = self.nodes.len();
        self.nodes.push(Node::Leaf { probs: Vec::new() }); // placeholder
        let (left_units, right_units) = units.split_at_mut(mid);
        let left = self.grow(left_units, depth + 1, rng);
        let right = self.grow(right_units, depth + 1, rng);
        self.nodes[my_id] = Node::Split { feature, threshold, left, right };
        my_id
    }

    /// Fills `present` with the ranks of `feature` present among `units`,
    /// ascending, and `present_counts` with their class counts.
    fn present_values(&mut self, feature: usize, units: &[Unit]) {
        let (data, c) = (self.data, self.n_classes);
        let n_values = data.values[feature].len();
        self.present.clear();
        self.present_counts.clear();
        if n_values <= units.len() {
            self.hist.clear();
            self.hist.resize(n_values * c, 0);
            for u in units {
                self.hist[data.rank(feature, u.row) * c + u.class] += u.count;
            }
            for (rank, class_counts) in self.hist.chunks_exact(c).enumerate() {
                if class_counts.iter().any(|&m| m > 0) {
                    self.present.push(rank);
                    self.present_counts.extend_from_slice(class_counts);
                }
            }
        } else {
            self.keyed.clear();
            self.keyed.extend(units.iter().map(|u| (data.rank(feature, u.row), u.class, u.count)));
            self.keyed.sort_unstable();
            for &(rank, class, count) in &self.keyed {
                if self.present.last() != Some(&rank) {
                    self.present.push(rank);
                    self.present_counts.resize(self.present.len() * c, 0);
                }
                self.present_counts[(self.present.len() - 1) * c + class] += count;
            }
        }
    }
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total == 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
}

/// The index of the largest probability (the last of equal ones).
fn argmax(p: &[f64]) -> usize {
    p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

impl DecisionTree {
    /// Fits a tree on `(x, y)` with classes `0..n_classes`.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Result<Self, ForestError> {
        check(x, y, n_classes)?;
        let data = RankedRows::new(x);
        let mut units = data.units(0..x.len(), y, n_classes);
        Ok(Grower::new(&data, config, n_classes).tree(&mut units, rng))
    }

    /// The class-probability distribution of the leaf `x` falls into.
    fn leaf(&self, x: &[f64]) -> &[f64] {
        // Root is node 0 by construction (grow is called once per tree).
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { probs } => return probs,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predicted class-probability distribution for one sample.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.leaf(x).to_vec()
    }

    /// Predicted class (argmax of probabilities).
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(self.leaf(x))
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// The trees [`RandomForest::fit`] grows on `n_features` features.
fn forest_config(n_features: usize) -> TreeConfig {
    TreeConfig {
        max_depth: 10,
        min_samples_split: 4,
        max_features: Some(((n_features as f64).sqrt().ceil() as usize).max(2)),
    }
}

/// A bagging random forest of CART trees with feature subsampling.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fits `n_trees` trees on bootstrap resamples, each considering
    /// `sqrt(n_features)` candidate features per split.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        n_trees: usize,
        seed: u64,
    ) -> Result<Self, ForestError> {
        let config = forest_config(x.first().map_or(0, Vec::len));
        Self::fit_with(x, y, n_classes, n_trees, &config, seed)
    }

    /// [`RandomForest::fit`] with the trees grown under `config`.
    fn fit_with(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        n_trees: usize,
        config: &TreeConfig,
        seed: u64,
    ) -> Result<Self, ForestError> {
        check(x, y, n_classes)?;
        if n_trees == 0 {
            return Err(ForestError::NoTrees);
        }
        let data = RankedRows::new(x);
        let mut grower = Grower::new(&data, config, n_classes);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.len();
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            // Bootstrap resample, counted into units.
            let mut units = data.units((0..n).map(|_| rng.random_range(0..n)), y, n_classes);
            trees.push(grower.tree(&mut units, &mut rng));
        }
        Ok(RandomForest { trees, n_classes })
    }

    /// Average class-probability distribution across trees.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.leaf(x)) {
                *a += v;
            }
        }
        let nt = self.trees.len() as f64;
        for a in &mut acc {
            *a /= nt;
        }
        acc
    }

    /// Predicted class (argmax).
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A forest fitted the way it was before the weighted search: every
    /// tree on a copied bootstrap resample, every node sorting all of its
    /// samples by each drawn feature and evaluating a gain wherever two
    /// neighbours differ. The oracle the weighted search is held to, node
    /// for node.
    pub(crate) fn reference_fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        n_trees: usize,
        config: &TreeConfig,
        seed: u64,
    ) -> RandomForest {
        let n = x.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let idx: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            let bx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            trees.push(reference_tree(&bx, &by, n_classes, config, &mut rng));
        }
        RandomForest { trees, n_classes }
    }

    /// [`RandomForest::fit`] the per-sample way.
    pub(crate) fn reference_forest(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        n_trees: usize,
        seed: u64,
    ) -> RandomForest {
        reference_fit(x, y, n_classes, n_trees, &forest_config(x[0].len()), seed)
    }

    /// The averaged distribution the way it was computed before leaves
    /// were added in place: each tree's leaf cloned, then added.
    pub(crate) fn reference_predict_proba(forest: &RandomForest, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; forest.n_classes];
        for tree in &forest.trees {
            let p = tree.predict_proba(x);
            for (a, v) in acc.iter_mut().zip(&p) {
                *a += v;
            }
        }
        let nt = forest.trees.len() as f64;
        for a in &mut acc {
            *a /= nt;
        }
        acc
    }

    /// One tree grown by the per-sample search.
    fn reference_tree(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        let mut tree = DecisionTree { nodes: Vec::new(), n_classes };
        let indices: Vec<usize> = (0..x.len()).collect();
        reference_grow(&mut tree, x, y, &indices, 0, config, rng);
        tree
    }

    fn reference_leaf_probs(n_classes: usize, y: &[usize], indices: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; n_classes];
        for &i in indices {
            counts[y[i]] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    fn reference_grow(
        tree: &mut DecisionTree,
        x: &[Vec<f64>],
        y: &[usize],
        indices: &[usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let probs = reference_leaf_probs(tree.n_classes, y, indices);
        let pure = probs.iter().any(|p| *p > 0.999);
        if depth >= config.max_depth || indices.len() < config.min_samples_split || pure {
            tree.nodes.push(Node::Leaf { probs });
            return tree.nodes.len() - 1;
        }

        let n_features = x[0].len();
        let k = config.max_features.unwrap_or(n_features).min(n_features);
        let mut feats: Vec<usize> = (0..n_features).collect();
        for i in 0..k {
            let j = rng.random_range(i..n_features);
            feats.swap(i, j);
        }
        let feats = &feats[..k];

        let mut parent_counts = vec![0.0; tree.n_classes];
        for &i in indices {
            parent_counts[y[i]] += 1.0;
        }
        let total = indices.len() as f64;
        let parent_gini = gini(&parent_counts, total);

        let mut best: Option<(f64, usize, f64)> = None;
        let mut sorted = indices.to_vec();
        for &f in feats {
            sorted.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).unwrap());
            let mut left_counts = vec![0.0; tree.n_classes];
            let mut right_counts = parent_counts.clone();
            for w in 0..sorted.len() - 1 {
                let i = sorted[w];
                left_counts[y[i]] += 1.0;
                right_counts[y[i]] -= 1.0;
                let (xa, xb) = (x[sorted[w]][f], x[sorted[w + 1]][f]);
                if xa == xb {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = total - nl;
                let gain = parent_gini
                    - (nl / total) * gini(&left_counts, nl)
                    - (nr / total) * gini(&right_counts, nr);
                if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-9) {
                    best = Some((gain, f, 0.5 * (xa + xb)));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            tree.nodes.push(Node::Leaf { probs });
            return tree.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            tree.nodes.push(Node::Leaf { probs });
            return tree.nodes.len() - 1;
        }
        let my_id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { probs: Vec::new() });
        let left = reference_grow(tree, x, y, &left_idx, depth + 1, config, rng);
        let right = reference_grow(tree, x, y, &right_idx, depth + 1, config, rng);
        tree.nodes[my_id] = Node::Split { feature, threshold, left, right };
        my_id
    }

    /// A tree's nodes with every float as its bits, for exact comparison.
    #[derive(Debug, PartialEq)]
    enum NodeBits {
        Split { feature: usize, threshold: u64, left: usize, right: usize },
        Leaf(Vec<u64>),
    }

    fn node_bits(tree: &DecisionTree) -> Vec<NodeBits> {
        tree.nodes
            .iter()
            .map(|node| match node {
                Node::Split { feature, threshold, left, right } => NodeBits::Split {
                    feature: *feature,
                    threshold: threshold.to_bits(),
                    left: *left,
                    right: *right,
                },
                Node::Leaf { probs } => NodeBits::Leaf(probs.iter().map(|p| p.to_bits()).collect()),
            })
            .collect()
    }

    /// Whether two forests are the same node for node, to the bit.
    pub(crate) fn same_forest(a: &RandomForest, b: &RandomForest) -> Result<(), String> {
        if a.n_classes != b.n_classes || a.trees.len() != b.trees.len() {
            return Err(format!(
                "shape {}x{} vs {}x{}",
                a.trees.len(),
                a.n_classes,
                b.trees.len(),
                b.n_classes
            ));
        }
        for (t, (ta, tb)) in a.trees.iter().zip(&b.trees).enumerate() {
            let (na, nb) = (node_bits(ta), node_bits(tb));
            if na != nb {
                return Err(format!("tree {t} differs:\n  {na:?}\n  {nb:?}"));
            }
        }
        Ok(())
    }

    /// Two well-separated Gaussian-ish blobs in 2D.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { 0.2 } else { 0.8 };
            x.push(vec![
                center + 0.1 * (rng.random::<f64>() - 0.5),
                center + 0.1 * (rng.random::<f64>() - 0.5),
            ]);
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn tree_separates_blobs() {
        let (x, y) = blobs(200, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&x, &y, 2, &TreeConfig::default(), &mut rng).unwrap();
        let correct = x.iter().zip(&y).filter(|(xi, yi)| tree.predict(xi) == **yi).count();
        assert!(correct as f64 / x.len() as f64 > 0.97, "accuracy {correct}/{}", x.len());
    }

    #[test]
    fn forest_separates_blobs_and_outputs_distributions() {
        let (x, y) = blobs(200, 3);
        let forest = RandomForest::fit(&x, &y, 2, 15, 4).unwrap();
        assert_eq!(forest.n_trees(), 15);
        let p = forest.predict_proba(&[0.2, 0.2]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.8, "p(class 0 | blob 0) = {}", p[0]);
    }

    #[test]
    fn pure_leaf_predicts_its_class() {
        let x = vec![vec![0.0], vec![0.0], vec![1.0], vec![1.0]];
        let y = vec![0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(0);
        let tree = DecisionTree::fit(&x, &y, 2, &TreeConfig::default(), &mut rng).unwrap();
        assert_eq!(tree.predict(&[0.0]), 0);
        assert_eq!(tree.predict(&[1.0]), 1);
    }

    #[test]
    fn single_class_dataset_yields_constant_prediction() {
        let x = vec![vec![0.1], vec![0.7], vec![0.3]];
        let y = vec![1, 1, 1];
        let mut rng = StdRng::seed_from_u64(0);
        let tree = DecisionTree::fit(&x, &y, 3, &TreeConfig::default(), &mut rng).unwrap();
        let p = tree.predict_proba(&[0.5]);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let (x, y) = blobs(100, 5);
        let a = RandomForest::fit(&x, &y, 2, 5, 11).unwrap();
        let b = RandomForest::fit(&x, &y, 2, 5, 11).unwrap();
        assert_eq!(a.predict_proba(&[0.4, 0.6]), b.predict_proba(&[0.4, 0.6]));
    }

    #[test]
    fn depth_limit_is_respected_via_generalization() {
        // With depth 1 the tree can make at most one split; on XOR-like data
        // accuracy must stay near chance, proving the limit binds.
        let x = vec![
            vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0],
            vec![0.1, 0.1], vec![0.9, 0.9], vec![0.1, 0.9], vec![0.9, 0.1],
        ];
        let y = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(0);
        let config = TreeConfig { max_depth: 1, min_samples_split: 2, max_features: None };
        let tree = DecisionTree::fit(&x, &y, 2, &config, &mut rng).unwrap();
        let correct = x.iter().zip(&y).filter(|(xi, yi)| tree.predict(xi) == **yi).count();
        assert!(correct <= 6, "a depth-1 tree cannot solve XOR, got {correct}/8");
    }

    /// `RandomForest::fit` and `DecisionTree::fit` on a 2 × 1 dataset with
    /// one thing wrong.
    fn fit_both(x: &[Vec<f64>], y: &[usize], n_trees: usize) -> [Result<(), ForestError>; 2] {
        let mut rng = StdRng::seed_from_u64(0);
        [
            RandomForest::fit(x, y, 2, n_trees, 0).map(drop),
            DecisionTree::fit(x, y, 2, &TreeConfig::default(), &mut rng).map(drop),
        ]
    }

    #[test]
    fn empty_data_is_an_error() {
        for r in fit_both(&[], &[], 3) {
            assert_eq!(r, Err(ForestError::Empty));
        }
    }

    #[test]
    fn mismatched_lengths_are_an_error() {
        for r in fit_both(&[vec![0.0], vec![1.0]], &[0], 3) {
            assert_eq!(r, Err(ForestError::LengthMismatch { rows: 2, labels: 1 }));
        }
    }

    #[test]
    fn ragged_rows_are_an_error() {
        for r in fit_both(&[vec![0.0], vec![1.0, 2.0]], &[0, 1], 3) {
            assert_eq!(r, Err(ForestError::RaggedRow { row: 1, len: 2, expected: 1 }));
        }
    }

    #[test]
    fn labels_out_of_range_are_an_error() {
        for r in fit_both(&[vec![0.0], vec![1.0]], &[0, 2], 3) {
            assert_eq!(r, Err(ForestError::LabelOutOfRange { row: 1, label: 2, n_classes: 2 }));
        }
    }

    #[test]
    fn non_finite_features_are_an_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for r in fit_both(&[vec![0.0, 1.0], vec![1.0, bad]], &[0, 1], 3) {
                assert_eq!(r, Err(ForestError::NonFiniteFeature { row: 1, feature: 1 }));
            }
        }
    }

    #[test]
    fn a_forest_of_no_trees_is_an_error() {
        let [forest, tree] = fit_both(&[vec![0.0], vec![1.0]], &[0, 1], 0);
        assert_eq!(forest, Err(ForestError::NoTrees));
        assert_eq!(tree, Ok(()));
    }

    /// One feature column of a random dataset, drawn from one of six kinds.
    fn column(g: &mut propcheck::Gen, n: usize) -> Vec<f64> {
        match g.usize_in(0, 5) {
            // Continuous, negative values included.
            0 => g.vec_f64(n, -3.0, 3.0),
            // Few-valued.
            1 => {
                let n_levels = g.usize_in(1, 4);
                let levels = g.vec_f64(n_levels, -2.0, 2.0);
                (0..n).map(|_| levels[g.usize_in(0, levels.len() - 1)]).collect()
            }
            // A mix of -0.0, +0.0 and a few signed values.
            2 => {
                let levels = [-0.0, 0.0, 0.5, -0.5, 1.0];
                (0..n).map(|_| levels[g.usize_in(0, levels.len() - 1)]).collect()
            }
            // Constant.
            3 => vec![g.f64_in(-1.0, 1.0); n],
            // Neighbouring floats, subnormals included, whose midpoints
            // round onto one of the two values.
            4 => {
                let base = [1.0, -2.5, 0.0, f64::MIN_POSITIVE][g.usize_in(0, 3)];
                (0..n).map(|_| f64::from_bits(base.to_bits() + g.usize_in(0, 3) as u64)).collect()
            }
            // Sparse, like a TF-IDF column: mostly zeros.
            _ => (0..n).map(|_| if g.usize_in(0, 5) == 0 { g.unit() } else { 0.0 }).collect(),
        }
    }

    #[test]
    fn weighted_fit_matches_the_per_sample_reference_node_for_node() {
        let cfg = propcheck::Config::default().seed(0xF0_2E57).cases(256).max_size(25);
        propcheck::check("weighted_fit_matches_reference", cfg, |g| {
            let n = g.usize_in(1, 8 * g.size().max(1));
            let d = g.usize_in(1, 12);
            let n_classes = g.usize_in(2, 6);
            let columns: Vec<Vec<f64>> = (0..d).map(|_| column(g, n)).collect();
            let mut x: Vec<Vec<f64>> =
                (0..n).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
            // Duplicate rows, which then carry different labels.
            if g.flag() {
                let pool = g.usize_in(1, n);
                for i in pool..n {
                    x[i] = x[g.usize_in(0, pool - 1)].clone();
                }
            }
            let y: Vec<usize> = if g.usize_in(0, 5) == 0 {
                vec![g.usize_in(0, n_classes - 1); n]
            } else {
                (0..n).map(|_| g.usize_in(0, n_classes - 1)).collect()
            };
            let config = TreeConfig {
                max_depth: g.usize_in(0, 12),
                min_samples_split: g.usize_in(1, 8),
                max_features: if g.flag() { None } else { Some(g.usize_in(1, d)) },
            };
            let n_trees = g.usize_in(1, 5);
            let seed = g.rng().random::<u64>();

            let fast = RandomForest::fit_with(&x, &y, n_classes, n_trees, &config, seed)
                .map_err(|e| e.to_string())?;
            same_forest(&fast, &reference_fit(&x, &y, n_classes, n_trees, &config, seed))?;

            let rng = || StdRng::seed_from_u64(seed);
            let tree = DecisionTree::fit(&x, &y, n_classes, &config, &mut rng())
                .map_err(|e| e.to_string())?;
            let reference = reference_tree(&x, &y, n_classes, &config, &mut rng());
            propcheck::prop_assert!(
                node_bits(&tree) == node_bits(&reference),
                "single tree differs (n {n}, d {d}, {config:?})"
            );
            Ok(())
        });
    }
}
