//! Workload characterization (§6.2 of the paper).
//!
//! ResTune's static weights need a *meta-feature* per workload that can be
//! computed from SQL text alone, before any tuning observations exist. The
//! paper's pipeline, reproduced here end to end:
//!
//! 1. **SQL generation** ([`sql`]) — each workload family (SYSBENCH, TPC-C,
//!    Twitter, Hotel, Sales) has realistic query templates; a seeded generator
//!    samples a query stream whose read/write mix follows the workload spec.
//!    (In production this is the captured workload window; here the generator
//!    plays that role.)
//! 2. **Reserved-word extraction** ([`tokenizer`]) — variable names and
//!    literals are unbounded and hurt generalization, so only SQL reserved
//!    words survive tokenization.
//! 3. **TF-IDF** ([`tfidf`]) — each query becomes a term-frequency /
//!    inverse-document-frequency vector over the small reserved-word
//!    vocabulary.
//! 4. **Random forest** ([`forest`]) — a from-scratch CART forest classifies
//!    each query into a (log-scaled, discretized) resource-cost class.
//! 5. **Embedding** ([`embed`]) — the workload meta-feature is the average of
//!    the predicted class-probability distributions over the whole stream.
//!
//! Similar workloads (e.g. the Twitter variations W1–W5 of Table 5) produce
//! nearby meta-features; the distances feed the Epanechnikov static weights in
//! `restune-core`.
//!
//! The pipeline runs at every set-up and on every drift re-embed, and most
//! of its work repeats: the 2,000-query training corpus has 20 distinct
//! TF-IDF rows, and a 400-query stream 4–8 distinct reserved-word lists. So
//! each distinct piece is done once, with every output bit kept:
//!
//! - The forest's split search runs over distinct rows weighted by their
//!   integer sample counts, and grows the trees a per-sample search grows,
//!   node for node ([`forest`] says why the bits hold).
//! - An embedding classifies each distinct reserved-word list once per call
//!   and adds every query's distribution in stream order ([`embed`]).
//! - The tokenizer scans bytes into word ids, which TF-IDF takes as they
//!   are ([`tokenizer`]).
//!
//! Nothing is cached across calls: a [`WorkloadCharacterizer`] is a plain
//! value, shared read-only across fleet workers.

pub mod embed;
pub mod forest;
pub mod sql;
pub mod tfidf;
pub mod tokenizer;

pub use embed::{WorkloadCharacterizer, WorkloadEmbedding};
pub use forest::{DecisionTree, ForestError, RandomForest};
pub use sql::{generate_queries, SqlQuery};
pub use tfidf::TfIdfVectorizer;
pub use tokenizer::{extract_reserved_words, reserved_word_ids};
