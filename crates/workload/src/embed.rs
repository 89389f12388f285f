//! The workload-embedding pipeline: reserved words → TF-IDF → random forest
//! class probabilities → averaged distribution = meta-feature (§6.2).
//!
//! # One classification per distinct query
//!
//! A query stream repeats a handful of shapes: a 400-query stream has
//! 4–8 distinct reserved-word lists. [`WorkloadCharacterizer::embed_queries`]
//! therefore classifies each distinct list once per call and memoizes its
//! distribution. It still adds every query's distribution to the sum in
//! stream order, so the sum, and the embedding, are bit for bit the ones
//! that classifying every query gives.
//!
//! # No cross-call cache
//!
//! The memo lives for one call. Every [`WorkloadCharacterizer::train_default`]
//! call trains and every [`WorkloadCharacterizer::embed_workload`] call
//! embeds, so a characterizer stays a plain value: fleet workers share one
//! read-only behind an `Arc`, with no interior mutability to lock or to
//! make results depend on call order. The one place that skips an
//! embedding is the drift controller, and only for a spec equal to the
//! one it last embedded (DESIGN.md §16).

use std::collections::HashMap;

use crate::forest::{ForestError, RandomForest};
use crate::sql::{generate_queries, SqlQuery};
use crate::tfidf::TfIdfVectorizer;
use crate::tokenizer::reserved_word_ids;
use dbsim::WorkloadSpec;

/// A workload meta-feature: the averaged class-probability distribution of
/// its queries' resource-cost classes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEmbedding {
    /// Probability mass per resource-cost class (sums to 1).
    pub probs: Vec<f64>,
}

impl WorkloadEmbedding {
    /// Euclidean distance between two embeddings, the quantity Table 5
    /// reports as "Distance to Wt"; `f64::INFINITY` when their class counts
    /// differ.
    pub fn distance(&self, other: &WorkloadEmbedding) -> f64 {
        if self.probs.len() != other.probs.len() {
            return f64::INFINITY;
        }
        self.probs
            .iter()
            .zip(&other.probs)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Dimensionality (number of cost classes).
    pub fn dim(&self) -> usize {
        self.probs.len()
    }
}

/// The trained characterization pipeline: TF-IDF vectorizer + random forest.
///
/// Training labels are log-scaled, discretized query costs — the paper
/// applies a logarithmic transformation because raw costs are highly skewed
/// and then discretizes for classification.
#[derive(Debug, Clone)]
pub struct WorkloadCharacterizer {
    vectorizer: TfIdfVectorizer,
    forest: RandomForest,
    /// Log-cost bin edges (length = n_classes - 1).
    bin_edges: Vec<f64>,
}

/// Number of resource-cost classes.
pub const N_COST_CLASSES: usize = 5;

/// Queries sampled per workload when training and embedding.
const QUERIES_PER_WORKLOAD: usize = 400;

/// Trees in the forest [`WorkloadCharacterizer::train_default`] fits.
const DEFAULT_TREES: usize = 20;

/// The word ids of one query's reserved words.
fn word_ids(sql: &str) -> Vec<u8> {
    let mut ids = Vec::new();
    reserved_word_ids(sql, &mut ids);
    ids
}

/// The offline training corpus [`WorkloadCharacterizer::train_default`]
/// trains on: 400 queries of each evaluation workload.
fn default_corpus(seed: u64) -> Vec<SqlQuery> {
    let mut corpus = Vec::new();
    for (i, spec) in WorkloadSpec::evaluation_suite().iter().enumerate() {
        corpus.extend(generate_queries(spec, QUERIES_PER_WORKLOAD, seed + i as u64));
    }
    corpus
}

/// Log-transforms the skewed cost labels, then bins them into equal-width
/// classes over the observed range: the bin edges and each query's class.
fn cost_classes(queries: &[SqlQuery]) -> (Vec<f64>, Vec<usize>) {
    let logs: Vec<f64> = queries.iter().map(|q| (1.0 + q.cost).ln()).collect();
    let lo = logs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / N_COST_CLASSES as f64).max(1e-9);
    let bin_edges: Vec<f64> = (1..N_COST_CLASSES).map(|i| lo + width * i as f64).collect();
    let y = logs.iter().map(|&l| bin_edges.iter().take_while(|e| l > **e).count()).collect();
    (bin_edges, y)
}

/// What a forest is fitted on: the vectorizer fitted on `queries`, one
/// TF-IDF row and one cost class per query, and the classes' bin edges.
fn training_set(queries: &[SqlQuery]) -> (TfIdfVectorizer, Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
    let docs: Vec<Vec<u8>> = queries.iter().map(|q| word_ids(&q.text)).collect();
    let vectorizer = TfIdfVectorizer::fit(&docs);
    let x = docs.iter().map(|ids| vectorizer.transform(ids)).collect();
    let (bin_edges, y) = cost_classes(queries);
    (vectorizer, x, y, bin_edges)
}

impl WorkloadCharacterizer {
    /// Log-cost bin edges used to discretize query costs (length =
    /// [`N_COST_CLASSES`] − 1).
    pub fn bin_edges(&self) -> &[f64] {
        &self.bin_edges
    }

    /// Trains the pipeline on a corpus of labelled queries. An empty corpus
    /// is [`ForestError::Empty`]; `n_trees == 0` is [`ForestError::NoTrees`].
    pub fn train_on(queries: &[SqlQuery], n_trees: usize, seed: u64) -> Result<Self, ForestError> {
        let (vectorizer, x, y, bin_edges) = training_set(queries);
        let forest = RandomForest::fit(&x, &y, N_COST_CLASSES, n_trees, seed)?;
        Ok(WorkloadCharacterizer { vectorizer, forest, bin_edges })
    }

    /// The TF-IDF rows and cost classes [`Self::train_default`] fits its
    /// forest on.
    pub fn default_training_matrix(seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let (_, x, y, _) = training_set(&default_corpus(seed));
        (x, y)
    }

    /// Trains on queries generated from the standard workload families —
    /// the cloud provider's offline training corpus.
    pub fn train_default(seed: u64) -> Self {
        // The corpus cannot fail to train: it holds 2,000 queries, every
        // TF-IDF row is finite and `VOCAB` long, every label is a bin index
        // below `N_COST_CLASSES`, and the forest has 20 trees.
        Self::train_on(&default_corpus(seed), DEFAULT_TREES, seed)
            .expect("the generated corpus is a valid training set")
    }

    /// The cost-class distribution of one query's word ids.
    fn classify_ids(&self, ids: &[u8]) -> Vec<f64> {
        self.forest.predict_proba(&self.vectorizer.transform(ids))
    }

    /// Classifies one query into a cost-class distribution.
    pub fn classify(&self, sql: &str) -> Vec<f64> {
        self.classify_ids(&word_ids(sql))
    }

    /// Embeds a query stream: the averaged class distribution. Each
    /// distinct reserved-word list is classified once; each query's
    /// distribution is added in stream order.
    pub fn embed_queries<'a>(&self, sqls: impl IntoIterator<Item = &'a str>) -> WorkloadEmbedding {
        let mut slots: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut dists: Vec<Vec<f64>> = Vec::new();
        let mut ids = Vec::new();
        let mut acc = vec![0.0; N_COST_CLASSES];
        let mut n = 0usize;
        for sql in sqls {
            ids.clear();
            reserved_word_ids(sql, &mut ids);
            let slot = match slots.get(&ids) {
                Some(&slot) => slot,
                None => {
                    dists.push(self.classify_ids(&ids));
                    slots.insert(ids.clone(), dists.len() - 1);
                    dists.len() - 1
                }
            };
            for (a, v) in acc.iter_mut().zip(&dists[slot]) {
                *a += v;
            }
            n += 1;
        }
        if n > 0 {
            for a in &mut acc {
                *a /= n as f64;
            }
        }
        WorkloadEmbedding { probs: acc }
    }

    /// Embeds a workload spec by generating its query stream first.
    pub fn embed_workload(&self, spec: &WorkloadSpec, seed: u64) -> WorkloadEmbedding {
        let queries = generate_queries(spec, QUERIES_PER_WORKLOAD, seed);
        self.embed_queries(queries.iter().map(|q| q.text.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::tests::{reference_forest, reference_predict_proba, same_forest};
    use crate::tokenizer::tests::reference_extract_reserved_words;
    use crate::tokenizer::RESERVED_WORDS;

    fn characterizer() -> WorkloadCharacterizer {
        WorkloadCharacterizer::train_default(42)
    }

    /// The pipeline as it was before the weighted split search and the
    /// memo: the reference tokenizer, the per-sample forest, and one
    /// classification per query.
    struct Reference {
        vectorizer: TfIdfVectorizer,
        forest: RandomForest,
    }

    impl Reference {
        fn ids(sql: &str) -> Vec<u8> {
            reference_extract_reserved_words(sql)
                .iter()
                .map(|w| RESERVED_WORDS.iter().position(|r| r == w).unwrap() as u8)
                .collect()
        }

        fn train_default(seed: u64) -> Self {
            let corpus = default_corpus(seed);
            let docs: Vec<Vec<u8>> = corpus.iter().map(|q| Self::ids(&q.text)).collect();
            let vectorizer = TfIdfVectorizer::fit(&docs);
            let x: Vec<Vec<f64>> = docs.iter().map(|d| vectorizer.transform(d)).collect();
            let (_, y) = cost_classes(&corpus);
            let forest = reference_forest(&x, &y, N_COST_CLASSES, DEFAULT_TREES, seed);
            Reference { vectorizer, forest }
        }

        fn classify(&self, sql: &str) -> Vec<f64> {
            reference_predict_proba(&self.forest, &self.vectorizer.transform(&Self::ids(sql)))
        }

        fn embed_workload(&self, spec: &WorkloadSpec, seed: u64) -> Vec<f64> {
            let queries = generate_queries(spec, QUERIES_PER_WORKLOAD, seed);
            let mut acc = [0.0; N_COST_CLASSES];
            for q in &queries {
                for (a, v) in acc.iter_mut().zip(self.classify(&q.text)) {
                    *a += v;
                }
            }
            acc.iter().map(|a| a / queries.len() as f64).collect()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const PROBES: [&str; 6] = [
        "SELECT * FROM tweets WHERE id = 5",
        "SELECT region, SUM(amount) AS total FROM sales WHERE day BETWEEN 1 AND 30 GROUP BY region ORDER BY total DESC",
        "INSERT INTO t VALUES ('SELECT FROM WHERE')",
        "update sbtest3 set k = k + 1 where id = 7",
        "SELECT order_id, SELECTED FROM orders_table",
        "",
    ];

    #[test]
    fn default_characterizers_match_the_reference_pipeline_bitwise() {
        for seed in [1, 7, 9] {
            let fast = WorkloadCharacterizer::train_default(seed);
            let reference = Reference::train_default(seed);
            if let Err(e) = same_forest(&fast.forest, &reference.forest) {
                panic!("seed {seed}: {e}");
            }
            for sql in PROBES {
                assert_eq!(bits(&fast.classify(sql)), bits(&reference.classify(sql)), "{sql:?}");
            }
            let mut specs = WorkloadSpec::evaluation_suite();
            specs.push(WorkloadSpec::olap());
            for spec in &specs {
                assert_eq!(
                    bits(&fast.embed_workload(spec, seed).probs),
                    bits(&reference.embed_workload(spec, seed)),
                    "seed {seed}, {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn embed_queries_is_the_in_order_sum_of_per_query_classifications() {
        let c = characterizer();
        let repeats: Vec<String> =
            generate_queries(&WorkloadSpec::sales(), 300, 4).into_iter().map(|q| q.text).collect();
        let distinct: Vec<String> = (0..RESERVED_WORDS.len())
            .map(|i| RESERVED_WORDS[..=i].join(" "))
            .chain(PROBES.iter().map(|s| s.to_string()))
            .collect();
        for stream in [repeats, distinct, Vec::new()] {
            let mut acc = [0.0; N_COST_CLASSES];
            for sql in &stream {
                for (a, v) in acc.iter_mut().zip(c.classify(sql)) {
                    *a += v;
                }
            }
            if !stream.is_empty() {
                acc.iter_mut().for_each(|a| *a /= stream.len() as f64);
            }
            let e = c.embed_queries(stream.iter().map(String::as_str));
            assert_eq!(bits(&e.probs), bits(&acc), "{} queries", stream.len());
        }
    }

    #[test]
    fn training_errors_are_returned() {
        assert_eq!(WorkloadCharacterizer::train_on(&[], 3, 0).err(), Some(ForestError::Empty));
        let corpus = generate_queries(&WorkloadSpec::twitter(), 20, 1);
        let no_trees = WorkloadCharacterizer::train_on(&corpus, 0, 0);
        assert_eq!(no_trees.err(), Some(ForestError::NoTrees));
        assert!(WorkloadCharacterizer::train_on(&corpus, 2, 0).is_ok());
    }

    #[test]
    fn embedding_is_a_probability_distribution() {
        let c = characterizer();
        let e = c.embed_workload(&WorkloadSpec::sysbench(), 1);
        assert_eq!(e.dim(), N_COST_CLASSES);
        assert!((e.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(e.probs.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn same_workload_embeds_near_itself_across_windows() {
        let c = characterizer();
        let a = c.embed_workload(&WorkloadSpec::twitter(), 1);
        let b = c.embed_workload(&WorkloadSpec::twitter(), 2);
        assert!(a.distance(&b) < 0.05, "self-distance {}", a.distance(&b));
    }

    #[test]
    fn embeddings_of_different_dimensions_are_infinitely_far_apart() {
        let five = WorkloadEmbedding { probs: vec![0.2; 5] };
        let six = WorkloadEmbedding { probs: vec![1.0 / 6.0; 6] };
        let three = WorkloadEmbedding { probs: vec![0.2; 3] };
        assert_eq!(five.distance(&six), f64::INFINITY);
        assert_eq!(five.distance(&three), f64::INFINITY);
        assert_eq!(five.distance(&five), 0.0);
    }

    #[test]
    fn twitter_variations_order_by_insert_ratio() {
        // Table 5: W1 (closest R/W mix to the target) must be nearer than W5.
        let c = characterizer();
        let target = c.embed_workload(&WorkloadSpec::twitter(), 7);
        let vars = WorkloadSpec::twitter_variations();
        let d1 = target.distance(&c.embed_workload(&vars[0], 7));
        let d5 = target.distance(&c.embed_workload(&vars[4], 7));
        assert!(d1 < d5, "W1 distance {d1} should be < W5 distance {d5}");
    }

    #[test]
    fn different_families_are_farther_than_variations() {
        let c = characterizer();
        let twitter = c.embed_workload(&WorkloadSpec::twitter(), 3);
        let w1 = c.embed_workload(&WorkloadSpec::twitter_variations()[0], 3);
        let sales = c.embed_workload(&WorkloadSpec::sales(), 3);
        assert!(twitter.distance(&w1) < twitter.distance(&sales));
    }

    #[test]
    fn classify_outputs_distribution_per_query() {
        let c = characterizer();
        let p = c.classify("SELECT region, SUM(amount) FROM sales GROUP BY region");
        assert_eq!(p.len(), N_COST_CLASSES);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_aggregations_classify_costlier_than_point_reads() {
        let c = characterizer();
        let point = c.classify("SELECT * FROM tweets WHERE id = 5");
        let agg = c.classify(
            "SELECT region, SUM(amount) AS total FROM sales WHERE day BETWEEN 1 AND 30 GROUP BY region ORDER BY total DESC",
        );
        let ev = |p: &[f64]| p.iter().enumerate().map(|(i, v)| i as f64 * v).sum::<f64>();
        assert!(ev(&agg) > ev(&point), "agg {:?} point {:?}", agg, point);
    }
}
