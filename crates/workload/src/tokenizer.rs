//! Reserved-word tokenization of SQL text.
//!
//! Variable names and literals are unbounded across schemas, which makes
//! generalization hard (§6.2); the paper therefore keeps only SQL reserved
//! words, giving a small, schema-independent vocabulary.
//!
//! After the per-distinct-query memo in [`crate::embed`], tokenizing is most
//! of an embedding, so the scan works on bytes and never builds a word: a
//! word is a run of ASCII letters and underscores (every byte of a
//! non-ASCII character ends one, as the character did), and it matches a
//! reserved word when its ASCII-uppercased bytes, packed into a `u64`,
//! equal that word's packed bytes. No reserved word is longer than eight
//! bytes, so a longer run never matches.

/// The reserved-word vocabulary, ordered; indices are stable across the
/// workspace (TF-IDF vectors use this order).
pub const RESERVED_WORDS: [&str; 40] = [
    "SELECT", "INSERT", "UPDATE", "DELETE", "REPLACE", "FROM", "WHERE", "AND", "OR", "NOT",
    "JOIN", "INNER", "LEFT", "OUTER", "ON", "GROUP", "ORDER", "BY", "HAVING", "LIMIT",
    "OFFSET", "DISTINCT", "COUNT", "SUM", "AVG", "MIN", "MAX", "BETWEEN", "IN", "LIKE",
    "VALUES", "SET", "INTO", "AS", "ASC", "DESC", "UNION", "EXISTS", "NULL", "FOR",
];

/// Longest reserved word, in bytes.
const MAX_WORD: usize = 8;

/// A word of at most [`MAX_WORD`] bytes, ASCII-uppercased and packed
/// little-endian into a `u64`.
const fn pack(word: &[u8]) -> u64 {
    let mut key = 0u64;
    let mut i = 0;
    while i < word.len() {
        key |= (word[i].to_ascii_uppercase() as u64) << (8 * i);
        i += 1;
    }
    key
}

/// [`RESERVED_WORDS`], packed.
const KEYS: [u64; RESERVED_WORDS.len()] = {
    let mut keys = [0u64; RESERVED_WORDS.len()];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = pack(RESERVED_WORDS[i].as_bytes());
        i += 1;
    }
    keys
};

/// The [`RESERVED_WORDS`] index of `word`, compared ASCII
/// case-insensitively.
fn word_id(word: &[u8]) -> Option<u8> {
    if word.len() > MAX_WORD {
        return None;
    }
    let key = pack(word);
    // Packing drops trailing NUL bytes, so the length is compared too.
    let i = KEYS.iter().position(|&k| k == key)?;
    (RESERVED_WORDS[i].len() == word.len()).then_some(i as u8)
}

/// Index of a reserved word in [`RESERVED_WORDS`], if present.
pub fn reserved_word_index(word: &str) -> Option<usize> {
    word_id(word.as_bytes()).map(usize::from)
}

/// Appends the [`RESERVED_WORDS`] index of each reserved word of `sql` to
/// `out`, in order of appearance (duplicates preserved — term frequency
/// matters).
///
/// Identifiers, literals, and punctuation are filtered out, exactly the
/// "filter out the specific variables" step of the paper's pipeline.
/// Single-quoted literals are skipped whole (an unterminated one runs to
/// the end).
pub fn reserved_word_ids(sql: &str, out: &mut Vec<u8>) {
    let bytes = sql.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphabetic() || b == b'_';
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            i += 1;
            while i < bytes.len() && bytes[i] != b'\'' {
                i += 1;
            }
            i += 1;
        } else if is_word(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_word(bytes[i]) {
                i += 1;
            }
            out.extend(word_id(&bytes[start..i]));
        } else {
            i += 1;
        }
    }
}

/// Extracts the reserved words of a SQL query, in order of appearance
/// (duplicates preserved): [`reserved_word_ids`] as words.
pub fn extract_reserved_words(sql: &str) -> Vec<&'static str> {
    let mut ids = Vec::new();
    reserved_word_ids(sql, &mut ids);
    ids.into_iter().map(|i| RESERVED_WORDS[usize::from(i)]).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The tokenizer as it was before the byte scan: a `String` per word,
    /// compared case-insensitively against every reserved word. The oracle
    /// the byte scan is held to.
    pub(crate) fn reference_extract_reserved_words(sql: &str) -> Vec<&'static str> {
        fn flush_word(word: &mut String, out: &mut Vec<&'static str>) {
            if !word.is_empty() {
                if let Some(w) = RESERVED_WORDS.iter().find(|w| w.eq_ignore_ascii_case(word)) {
                    out.push(w);
                }
                word.clear();
            }
        }
        let mut out = Vec::new();
        let mut word = String::new();
        let mut in_string = false;
        for ch in sql.chars() {
            if in_string {
                if ch == '\'' {
                    in_string = false;
                }
                continue;
            }
            if ch == '\'' {
                in_string = true;
                flush_word(&mut word, &mut out);
                continue;
            }
            if ch.is_ascii_alphabetic() || ch == '_' {
                word.push(ch);
            } else {
                flush_word(&mut word, &mut out);
            }
        }
        flush_word(&mut word, &mut out);
        out
    }

    #[test]
    fn extracts_keywords_and_drops_identifiers() {
        let sql = "SELECT c FROM sbtest1 WHERE id BETWEEN 42 AND 141";
        assert_eq!(
            extract_reserved_words(sql),
            vec!["SELECT", "FROM", "WHERE", "BETWEEN", "AND"]
        );
    }

    #[test]
    fn case_insensitive() {
        let sql = "select * from t where a like '%x%'";
        assert_eq!(extract_reserved_words(sql), vec!["SELECT", "FROM", "WHERE", "LIKE"]);
    }

    #[test]
    fn string_literals_are_ignored_even_with_keywords_inside() {
        let sql = "INSERT INTO t VALUES ('SELECT FROM WHERE')";
        assert_eq!(extract_reserved_words(sql), vec!["INSERT", "INTO", "VALUES"]);
    }

    #[test]
    fn duplicates_are_preserved_for_term_frequency() {
        let sql = "SELECT a FROM t WHERE x = 1 AND y = 2 AND z = 3";
        let toks = extract_reserved_words(sql);
        assert_eq!(toks.iter().filter(|t| **t == "AND").count(), 2);
    }

    #[test]
    fn identifiers_resembling_keywords_with_underscores_do_not_match() {
        let sql = "SELECT order_id FROM orders_table";
        // order_id / orders_table are single tokens (underscore keeps them
        // whole) and are not reserved words.
        assert_eq!(extract_reserved_words(sql), vec!["SELECT", "FROM"]);
    }

    #[test]
    fn vocabulary_has_no_duplicates() {
        let set: std::collections::HashSet<_> = RESERVED_WORDS.iter().collect();
        assert_eq!(set.len(), RESERVED_WORDS.len());
        assert!(RESERVED_WORDS.iter().all(|w| w.len() <= MAX_WORD));
    }

    #[test]
    fn empty_and_keywordless_inputs() {
        assert!(extract_reserved_words("").is_empty());
        assert!(extract_reserved_words("1 + 2, foo bar").is_empty());
    }

    #[test]
    fn word_index_compares_ascii_case_insensitively_and_whole() {
        for (i, w) in RESERVED_WORDS.iter().enumerate() {
            assert_eq!(reserved_word_index(w), Some(i));
            assert_eq!(reserved_word_index(&w.to_ascii_lowercase()), Some(i));
            for probe in [format!("{w}\0"), format!("{w}S"), format!("_{w}"), w[1..].to_string()] {
                let expected = RESERVED_WORDS.iter().position(|r| r.eq_ignore_ascii_case(&probe));
                assert_eq!(reserved_word_index(&probe), expected, "{probe:?}");
            }
        }
        assert_eq!(reserved_word_index(""), None);
        assert_eq!(reserved_word_index("DISTINCTS"), None);
        assert_eq!(reserved_word_index("SÉLECT"), None);
    }

    #[test]
    fn byte_scan_matches_the_reference_tokenizer_on_random_text() {
        const PIECES: [&str; 26] = [
            "SELECT", "selected", "Order", "order_id", "ORDER BY", "_from", "FROM_", "where",
            "AnD", "in", "INTO", "distinctly", "'", "''", "'it''s'", "_", "42", "3.5e7", " ",
            "\t\n", ",()*=<>", "é", "SÉLECT", "Straße", "日本", "x9y",
        ];
        let cfg = propcheck::Config::default().seed(0x70_4E12).cases(400).max_size(40);
        propcheck::check("byte_scan_matches_reference", cfg, |g| {
            let mut sql = String::new();
            for _ in 0..g.usize_in(0, g.size()) {
                let piece = PIECES[g.usize_in(0, PIECES.len() - 1)];
                sql.push_str(piece);
                if g.flag() {
                    sql.push(' ');
                }
            }
            // Random printable ASCII and the odd multi-byte character.
            for _ in 0..g.usize_in(0, 6) {
                let c = match g.usize_in(0, 9) {
                    0 => 'ß',
                    _ => char::from(g.usize_in(32, 126) as u8),
                };
                let at: Vec<usize> =
                    sql.char_indices().map(|(i, _)| i).chain([sql.len()]).collect();
                sql.insert(at[g.usize_in(0, at.len() - 1)], c);
            }
            propcheck::prop_assert!(
                extract_reserved_words(&sql) == reference_extract_reserved_words(&sql),
                "{sql:?}: {:?} vs {:?}",
                extract_reserved_words(&sql),
                reference_extract_reserved_words(&sql)
            );
            Ok(())
        });
    }
}
