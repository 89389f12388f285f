//! TF-IDF vectorization over the reserved-word vocabulary.
//!
//! Documents are the word ids [`reserved_word_ids`](crate::tokenizer::reserved_word_ids)
//! finds, so no word is looked up twice.

use crate::tokenizer::RESERVED_WORDS;

/// A fitted TF-IDF vectorizer over [`RESERVED_WORDS`].
///
/// The vocabulary is fixed and small, so vectors are dense. IDF uses the
/// smoothed formulation `ln((1 + N) / (1 + df)) + 1`, which never zeroes a
/// term out entirely.
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    idf: Vec<f64>,
    n_documents: usize,
}

impl TfIdfVectorizer {
    /// Vocabulary size.
    pub const VOCAB: usize = RESERVED_WORDS.len();

    /// Fits IDF weights on a corpus of documents, each the word ids of one
    /// query. Ids outside the vocabulary are ignored.
    pub fn fit(corpus: &[Vec<u8>]) -> Self {
        let n = corpus.len();
        let mut df = vec![0usize; Self::VOCAB];
        for doc in corpus {
            let mut seen = [false; Self::VOCAB];
            for &id in doc {
                if let Some(s) = seen.get_mut(usize::from(id)) {
                    *s = true;
                }
            }
            for (i, s) in seen.iter().enumerate() {
                if *s {
                    df[i] += 1;
                }
            }
        }
        let idf = df
            .iter()
            .map(|&d| ((1.0 + n as f64) / (1.0 + d as f64)).ln() + 1.0)
            .collect();
        TfIdfVectorizer { idf, n_documents: n }
    }

    /// Number of documents the vectorizer was fitted on.
    pub fn n_documents(&self) -> usize {
        self.n_documents
    }

    /// Transforms a document's word ids into an L2-normalized TF-IDF
    /// vector. Ids outside the vocabulary are ignored.
    pub fn transform(&self, ids: &[u8]) -> Vec<f64> {
        let mut tf = vec![0.0; Self::VOCAB];
        for &id in ids {
            if let Some(t) = tf.get_mut(usize::from(id)) {
                *t += 1.0;
            }
        }
        let total: f64 = tf.iter().sum();
        if total > 0.0 {
            for (v, idf) in tf.iter_mut().zip(&self.idf) {
                *v = (*v / total) * idf;
            }
        }
        let norm = tf.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in &mut tf {
                *v /= norm;
            }
        }
        tf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{reserved_word_ids, reserved_word_index};

    fn ids(sql: &str) -> Vec<u8> {
        let mut out = Vec::new();
        reserved_word_ids(sql, &mut out);
        out
    }

    fn id(word: &str) -> u8 {
        reserved_word_index(word).unwrap() as u8
    }

    fn corpus() -> Vec<Vec<u8>> {
        vec![
            ids("SELECT a FROM t WHERE x = 1"),
            ids("SELECT b FROM t WHERE y = 2 ORDER BY b"),
            ids("INSERT INTO t VALUES (1)"),
            ids("UPDATE t SET a = 1 WHERE x = 2"),
        ]
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = TfIdfVectorizer::fit(&corpus());
        let x = v.transform(&ids("SELECT a FROM t"));
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rare_terms_get_higher_weight_than_common_terms() {
        let v = TfIdfVectorizer::fit(&corpus());
        // SELECT appears in 2/4 docs, ORDER in 1/4: a doc containing both once
        // should weight ORDER higher.
        let x = v.transform(&[id("SELECT"), id("ORDER")]);
        assert!(x[usize::from(id("ORDER"))] > x[usize::from(id("SELECT"))]);
    }

    #[test]
    fn empty_document_transforms_to_zero_vector() {
        let v = TfIdfVectorizer::fit(&corpus());
        let x = v.transform(&[]);
        assert!(x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn unknown_tokens_are_ignored() {
        let v = TfIdfVectorizer::fit(&corpus());
        let a = v.transform(&[id("SELECT"), id("FROM")]);
        let b = v.transform(&[id("SELECT"), id("FROM"), TfIdfVectorizer::VOCAB as u8, u8::MAX]);
        assert_eq!(a, b);
        assert_eq!(v.transform(&ids("SELECT sbtest1 xyz FROM")), a);
    }

    #[test]
    fn dimension_is_vocab_size() {
        let v = TfIdfVectorizer::fit(&corpus());
        assert_eq!(v.transform(&[id("SELECT")]).len(), TfIdfVectorizer::VOCAB);
    }
}
