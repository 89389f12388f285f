//! Benchmarks of the workload-characterization pipeline (Table 3's
//! meta-data-processing column): tokenization, TF-IDF, the forest fit,
//! forest inference, and whole-workload embedding.

use dbsim::WorkloadSpec;
use restune_bench::microbench::{black_box, suite, Bencher};
use workload::{
    extract_reserved_words, generate_queries, reserved_word_ids, RandomForest, TfIdfVectorizer,
    WorkloadCharacterizer,
};

fn word_ids(sql: &str) -> Vec<u8> {
    let mut ids = Vec::new();
    reserved_word_ids(sql, &mut ids);
    ids
}

fn main() {
    let b = Bencher::from_env();
    suite("characterization");

    let queries = generate_queries(&WorkloadSpec::tpcc(), 400, 7);
    let sql = &queries[0].text;

    b.bench("tokenize_one_query", || {
        black_box(extract_reserved_words(black_box(sql)));
    });

    let mut ids = Vec::new();
    b.bench("tokenize_400_queries", || {
        for q in black_box(&queries) {
            ids.clear();
            reserved_word_ids(&q.text, &mut ids);
            black_box(&ids);
        }
    });

    let corpus: Vec<Vec<u8>> = queries.iter().map(|q| word_ids(&q.text)).collect();
    b.bench("tfidf_fit_400_queries", || {
        black_box(TfIdfVectorizer::fit(black_box(&corpus)));
    });

    let vectorizer = TfIdfVectorizer::fit(&corpus);
    b.bench("tfidf_transform", || {
        black_box(vectorizer.transform(black_box(&corpus[0])));
    });

    let (x, y) = WorkloadCharacterizer::default_training_matrix(9);
    b.bench("forest_fit_default_corpus", || {
        black_box(RandomForest::fit(black_box(&x), &y, 5, 20, 9).ok());
    });

    b.bench("train_characterizer", || {
        black_box(WorkloadCharacterizer::train_default(9));
    });

    let characterizer = WorkloadCharacterizer::train_default(9);
    b.bench("classify_one_query", || {
        black_box(characterizer.classify(black_box(sql)));
    });
    b.bench("embed_workload_400_queries", || {
        black_box(characterizer.embed_workload(&WorkloadSpec::hotel(), 3));
    });
    b.bench("embed_workload_olap_400_queries", || {
        black_box(characterizer.embed_workload(&WorkloadSpec::olap(), 3));
    });
}
