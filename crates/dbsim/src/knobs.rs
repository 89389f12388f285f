//! Configuration-knob registry, typed knob definitions, and the normalized
//! `[0,1]^m` encoding the tuners operate in.
//!
//! The paper tunes pre-selected important knobs: **14 for CPU, 20 for I/O and
//! 6 for memory** (§7 "Setting"). This module defines a registry of real
//! MySQL/InnoDB knobs with realistic ranges and deliberately DBA-ish (i.e.
//! safe but resource-wasteful) defaults, and the three pre-selected
//! [`KnobSet`]s with exactly those sizes.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Value domain of a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// Integer-valued within `[min, max]`.
    Integer,
    /// Real-valued within `[min, max]`.
    Float,
    /// `0` or `1`.
    Boolean,
    /// One of `n` ordered levels `0..n` (e.g. `innodb_flush_log_at_trx_commit`).
    Enum(u32),
}

/// Definition of a single tunable knob.
#[derive(Debug, Clone)]
pub struct KnobDef {
    /// MySQL-style knob name (units folded into the name where relevant).
    pub name: &'static str,
    /// Lower bound (natural units).
    pub min: f64,
    /// Upper bound (natural units).
    pub max: f64,
    /// DBA default (natural units).
    pub default: f64,
    /// Value domain.
    pub kind: KnobKind,
    /// Whether the `[0,1]` encoding is logarithmic. Requires `min > 0`.
    pub log_scale: bool,
    /// Sentinel value with special semantics (e.g. `0` = "unlimited" for
    /// `innodb_thread_concurrency`, `0` = "OS-buffered" for `sync_binlog`).
    /// Hybrid-knob transforms (see `core::space`) bias-sample this value so
    /// the discontinuous mode stays reachable from a continuous search space.
    pub special: Option<f64>,
    /// One-line description of the knob's role.
    pub description: &'static str,
}

impl KnobDef {
    /// Maps a natural-unit value to `[0, 1]`.
    pub fn normalize(&self, value: f64) -> f64 {
        if let KnobKind::Enum(n) = self.kind {
            // Use bin centers so normalize/denormalize round-trips.
            return ((value + 0.5) / n as f64).clamp(0.0, 1.0);
        }
        let v = value.clamp(self.min, self.max);
        let u = if self.log_scale {
            (v.ln() - self.min.ln()) / (self.max.ln() - self.min.ln())
        } else {
            (v - self.min) / (self.max - self.min)
        };
        u.clamp(0.0, 1.0)
    }

    /// Maps a `[0, 1]` value back to natural units, respecting the domain
    /// (integers round, booleans threshold, enums bin).
    pub fn denormalize(&self, unit: f64) -> f64 {
        let u = unit.clamp(0.0, 1.0);
        let raw = if self.log_scale {
            (self.min.ln() + u * (self.max.ln() - self.min.ln())).exp()
        } else {
            self.min + u * (self.max - self.min)
        };
        match self.kind {
            // The log-scale round trip `exp(ln(max))` can overshoot `max` by
            // an ulp; clamp so denormalized floats always sit in `[min, max]`.
            KnobKind::Float => raw.clamp(self.min, self.max),
            KnobKind::Integer => raw.round().clamp(self.min, self.max),
            KnobKind::Boolean => {
                if u >= 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
            KnobKind::Enum(n) => {
                // Partition [0,1] into n bins and round to the nearest bin,
                // as the paper describes for discrete knobs (§3).
                ((u * n as f64).floor().min(n as f64 - 1.0)).max(0.0)
            }
        }
    }
}

/// The full knob registry: an ordered list of [`KnobDef`]s with name lookup.
#[derive(Debug)]
pub struct KnobRegistry {
    knobs: Vec<KnobDef>,
    index: HashMap<&'static str, usize>,
}

impl KnobRegistry {
    fn from_defs(knobs: Vec<KnobDef>) -> Self {
        let mut index = HashMap::with_capacity(knobs.len());
        for (i, k) in knobs.iter().enumerate() {
            let prev = index.insert(k.name, i);
            assert!(prev.is_none(), "duplicate knob {}", k.name);
        }
        KnobRegistry { knobs, index }
    }

    /// The global MySQL/InnoDB knob registry used throughout the workspace.
    pub fn mysql() -> &'static KnobRegistry {
        static REGISTRY: OnceLock<KnobRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| KnobRegistry::from_defs(mysql_knob_defs()))
    }

    /// Number of knobs.
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// Whether the registry is empty (never true for [`KnobRegistry::mysql`]).
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// Knob definition by position.
    pub fn knob(&self, idx: usize) -> &KnobDef {
        &self.knobs[idx]
    }

    /// Knob definition by name.
    pub fn get(&self, name: &str) -> Option<&KnobDef> {
        self.index.get(name).map(|&i| &self.knobs[i])
    }

    /// Position of a knob by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Iterates over all knob definitions in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &KnobDef> {
        self.knobs.iter()
    }

    /// The DBA-default configuration.
    pub fn default_configuration(&self) -> Configuration {
        Configuration { values: self.knobs.iter().map(|k| k.default).collect() }
    }
}

/// A full knob assignment in natural units, aligned with
/// [`KnobRegistry::mysql`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    values: Vec<f64>,
}

impl Configuration {
    /// The DBA-default configuration.
    pub fn dba_default() -> Self {
        KnobRegistry::mysql().default_configuration()
    }

    /// Value of a knob by name. Panics on unknown names (registry is static,
    /// so an unknown name is a programming error, not an input error).
    pub fn get(&self, name: &str) -> f64 {
        let idx = KnobRegistry::mysql()
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown knob {name}"));
        self.values[idx]
    }

    /// Sets a knob by name (clamped to the knob's range).
    pub fn set(&mut self, name: &str, value: f64) {
        let reg = KnobRegistry::mysql();
        let idx = reg.index_of(name).unwrap_or_else(|| panic!("unknown knob {name}"));
        self.values[idx] = value.clamp(reg.knob(idx).min, reg.knob(idx).max);
    }

    /// Builder-style [`Configuration::set`].
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Raw values in registry order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Default for Configuration {
    fn default() -> Self {
        Configuration::dba_default()
    }
}

/// An ordered subset of knobs forming a tuning search space `[0,1]^m`.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobSet {
    names: Vec<String>,
    indices: Vec<usize>,
}

impl KnobSet {
    /// Builds a knob set from names. Panics on unknown names.
    pub fn new(names: &[&str]) -> Self {
        let reg = KnobRegistry::mysql();
        let indices = names
            .iter()
            .map(|n| reg.index_of(n).unwrap_or_else(|| panic!("unknown knob {n}")))
            .collect();
        KnobSet { names: names.iter().map(|n| n.to_string()).collect(), indices }
    }

    /// The paper's 14-knob CPU tuning set.
    pub fn cpu() -> Self {
        KnobSet::new(&[
            "innodb_thread_concurrency",
            "innodb_spin_wait_delay",
            "innodb_sync_spin_loops",
            "table_open_cache",
            "innodb_lru_scan_depth",
            "innodb_page_cleaners",
            "innodb_purge_threads",
            "innodb_read_io_threads",
            "innodb_write_io_threads",
            "innodb_adaptive_hash_index",
            "innodb_buffer_pool_instances",
            "thread_cache_size",
            "innodb_concurrency_tickets",
            "innodb_sync_array_size",
        ])
    }

    /// The paper's 20-knob I/O tuning set.
    pub fn io() -> Self {
        KnobSet::new(&[
            "innodb_io_capacity",
            "innodb_io_capacity_max",
            "innodb_flush_log_at_trx_commit",
            "sync_binlog",
            "innodb_flush_neighbors",
            "innodb_log_file_size_mb",
            "innodb_log_buffer_size_mb",
            "innodb_max_dirty_pages_pct",
            "innodb_max_dirty_pages_pct_lwm",
            "innodb_adaptive_flushing",
            "innodb_adaptive_flushing_lwm",
            "innodb_doublewrite",
            "innodb_random_read_ahead",
            "innodb_read_ahead_threshold",
            "innodb_flushing_avg_loops",
            "innodb_change_buffering",
            "binlog_cache_size_kb",
            "innodb_old_blocks_pct",
            "innodb_lru_scan_depth",
            "innodb_page_cleaners",
        ])
    }

    /// The paper's 6-knob memory tuning set (buffer pool size is a knob here).
    pub fn memory() -> Self {
        KnobSet::new(&[
            "innodb_buffer_pool_frac",
            "sort_buffer_size_kb",
            "join_buffer_size_kb",
            "read_buffer_size_kb",
            "tmp_table_size_mb",
            "key_buffer_size_mb",
        ])
    }

    /// The 3-knob CPU case-study set of §7.3 (Twitter workload).
    pub fn case_study() -> Self {
        KnobSet::new(&[
            "innodb_thread_concurrency",
            "innodb_spin_wait_delay",
            "innodb_lru_scan_depth",
        ])
    }

    /// The Figure-1 motivation pair: `innodb_sync_spin_loops` × `table_open_cache`.
    pub fn figure1() -> Self {
        KnobSet::new(&["innodb_sync_spin_loops", "table_open_cache"])
    }

    /// Every knob in the 200-knob registry: the native space a search-space
    /// transformation (projection / quantization / hybrid handling) operates
    /// over. Tuning this directly with a dense GP is the anti-pattern the
    /// `core::space` layer exists to avoid.
    pub fn extended() -> Self {
        let reg = KnobRegistry::mysql();
        KnobSet {
            names: reg.iter().map(|d| d.name.to_string()).collect(),
            indices: (0..reg.len()).collect(),
        }
    }

    /// A 40-knob "expert pre-selection": the paper's 38 analytically modelled
    /// knobs plus the two heaviest micro-impact knobs from the extended
    /// catalogue. This is the full-space reference arm that projection
    /// benchmarks compare against.
    pub fn expert() -> Self {
        let reg = KnobRegistry::mysql();
        let mut names: Vec<String> = reg.iter().take(38).map(|d| d.name.to_string()).collect();
        names.push("innodb_purge_batch_size".to_string());
        names.push("innodb_old_blocks_time_ms".to_string());
        let indices = names
            .iter()
            .map(|n| reg.index_of(n).unwrap_or_else(|| panic!("unknown knob {n}")))
            .collect();
        KnobSet { names, indices }
    }

    /// Dimensionality of the search space.
    pub fn dim(&self) -> usize {
        self.indices.len()
    }

    /// Knob names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Knob definitions in order.
    pub fn defs(&self) -> Vec<&'static KnobDef> {
        let reg = KnobRegistry::mysql();
        self.indices.iter().map(|&i| reg.knob(i)).collect()
    }

    /// Encodes the knob-set slice of a configuration to `[0,1]^m`.
    pub fn normalize(&self, config: &Configuration) -> Vec<f64> {
        let reg = KnobRegistry::mysql();
        self.indices.iter().map(|&i| reg.knob(i).normalize(config.values[i])).collect()
    }

    /// Decodes a `[0,1]^m` point into a full configuration, leaving knobs
    /// outside this set at the values of `base`.
    ///
    /// This is the single seam where search-space coordinates become knob
    /// values, so it defends itself: coordinates outside `[0,1]` (points
    /// lifted from a projected subspace can overshoot the unit cube) are
    /// clamped, and a non-finite coordinate falls back to the knob's default
    /// rather than writing NaN into the configuration.
    pub fn to_configuration(&self, point: &[f64], base: &Configuration) -> Configuration {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        let reg = KnobRegistry::mysql();
        let mut config = base.clone();
        for (pos, &i) in self.indices.iter().enumerate() {
            let def = reg.knob(i);
            config.values[i] = if point[pos].is_finite() {
                def.denormalize(point[pos].clamp(0.0, 1.0))
            } else {
                def.default
            };
        }
        config
    }

    /// The default configuration's normalized coordinates in this set.
    pub fn default_point(&self) -> Vec<f64> {
        self.normalize(&Configuration::dba_default())
    }
}

/// The MySQL/InnoDB knob catalogue (200 knobs).
///
/// The first 38 are the paper's pre-selected high-impact knobs with full
/// analytic treatment in `model.rs`. The rest — [`extended_knob_defs`] — are
/// deliberately low-impact (a handful contribute a few percent through
/// [`micro_misconfig_score`]; most are inert for OLTP, as in a real MySQL or
/// PostgreSQL), so a search-space transformation layer has a realistic
/// 200-knob native space to prove itself on.
fn mysql_knob_defs() -> Vec<KnobDef> {
    use KnobKind::*;
    let k = |name, min: f64, max: f64, default: f64, kind, log_scale, description| KnobDef {
        name,
        min,
        max,
        default,
        kind,
        log_scale,
        special: None,
        description,
    };
    let mut defs = vec![
        // --- concurrency / CPU ------------------------------------------
        KnobDef {
            special: Some(0.0),
            ..k("innodb_thread_concurrency", 0.0, 128.0, 0.0, Integer, false,
                "InnoDB admission limit on concurrently running threads (0 = unlimited)")
        },
        k("innodb_spin_wait_delay", 0.0, 128.0, 6.0, Integer, false,
          "maximum delay between spinlock polls; busy polling burns CPU"),
        k("innodb_sync_spin_loops", 0.0, 100.0, 30.0, Integer, false,
          "times a thread spins on a mutex before suspending"),
        k("table_open_cache", 1.0, 10240.0, 2000.0, Integer, false,
          "number of cached open table handles"),
        k("innodb_lru_scan_depth", 100.0, 8192.0, 1024.0, Integer, true,
          "how far down the LRU list each page-cleaner scan goes"),
        k("innodb_page_cleaners", 1.0, 8.0, 4.0, Integer, false,
          "number of background page-cleaner threads"),
        k("innodb_purge_threads", 1.0, 8.0, 4.0, Integer, false,
          "number of background purge threads"),
        k("innodb_read_io_threads", 1.0, 16.0, 4.0, Integer, false,
          "background read I/O threads"),
        k("innodb_write_io_threads", 1.0, 16.0, 4.0, Integer, false,
          "background write I/O threads"),
        k("innodb_adaptive_hash_index", 0.0, 1.0, 1.0, Boolean, false,
          "adaptive hash index: speeds hot reads, costs maintenance + mutexes"),
        k("innodb_buffer_pool_instances", 1.0, 16.0, 8.0, Integer, false,
          "buffer pool partitions; too few contend under high concurrency"),
        k("thread_cache_size", 0.0, 512.0, 32.0, Integer, false,
          "server threads kept cached for connection reuse"),
        k("innodb_concurrency_tickets", 1.0, 10000.0, 5000.0, Integer, true,
          "tickets a thread gets per admission before re-queuing"),
        k("innodb_sync_array_size", 1.0, 64.0, 1.0, Integer, false,
          "sync wait array partitions"),
        // --- I/O ----------------------------------------------------------
        k("innodb_io_capacity", 100.0, 20000.0, 2000.0, Integer, true,
          "background flush IOPS budget; overshoot wastes I/O, undershoot stalls"),
        k("innodb_io_capacity_max", 200.0, 40000.0, 4000.0, Integer, true,
          "emergency flush IOPS ceiling"),
        k("innodb_flush_log_at_trx_commit", 0.0, 3.0, 1.0, Enum(3), false,
          "redo durability: 0 = lazy, 1 = fsync/commit, 2 = write/commit"),
        KnobDef {
            special: Some(0.0),
            ..k("sync_binlog", 0.0, 1000.0, 1.0, Integer, false,
                "binlog fsync period in commits (0 = OS-buffered)")
        },
        k("innodb_flush_neighbors", 0.0, 3.0, 1.0, Enum(3), false,
          "flush neighbor pages in the same extent (HDD-era write amplification)"),
        k("innodb_log_file_size_mb", 64.0, 4096.0, 512.0, Integer, true,
          "redo log file size; small logs force frequent checkpoints"),
        k("innodb_log_buffer_size_mb", 1.0, 256.0, 16.0, Integer, true,
          "redo log buffer size"),
        k("innodb_max_dirty_pages_pct", 5.0, 99.0, 75.0, Float, false,
          "dirty-page percentage that triggers aggressive flushing"),
        k("innodb_max_dirty_pages_pct_lwm", 0.0, 50.0, 10.0, Float, false,
          "dirty-page low-water mark enabling pre-flushing"),
        k("innodb_adaptive_flushing", 0.0, 1.0, 1.0, Boolean, false,
          "adapt flush rate to redo production instead of flushing at capacity"),
        k("innodb_adaptive_flushing_lwm", 0.0, 70.0, 10.0, Float, false,
          "redo-fill percentage that enables adaptive flushing"),
        k("innodb_doublewrite", 0.0, 1.0, 1.0, Boolean, false,
          "doublewrite buffer: torn-page protection at 2x page-write bytes"),
        k("innodb_random_read_ahead", 0.0, 1.0, 0.0, Boolean, false,
          "random read-ahead prefetching (wasteful for OLTP)"),
        k("innodb_read_ahead_threshold", 0.0, 64.0, 56.0, Integer, false,
          "sequential pages before linear read-ahead kicks in (low = eager)"),
        k("innodb_flushing_avg_loops", 1.0, 1000.0, 30.0, Integer, true,
          "iterations flush heuristics average over (low = twitchy)"),
        k("innodb_change_buffering", 0.0, 1.0, 1.0, Boolean, false,
          "buffer secondary-index changes to defer read-modify-write I/O"),
        k("binlog_cache_size_kb", 4.0, 16384.0, 32.0, Integer, true,
          "per-session binlog cache; spills to disk when exceeded"),
        k("innodb_old_blocks_pct", 5.0, 95.0, 37.0, Float, false,
          "LRU old-sublist share (scan resistance)"),
        // --- memory -------------------------------------------------------
        k("innodb_buffer_pool_frac", 0.10, 0.85, 0.50, Float, false,
          "buffer pool size as a fraction of instance RAM"),
        k("sort_buffer_size_kb", 32.0, 65536.0, 2048.0, Integer, true,
          "per-sort buffer; undersizing spills sorts to disk"),
        k("join_buffer_size_kb", 128.0, 65536.0, 4096.0, Integer, true,
          "per-join buffer for un-indexed joins"),
        k("read_buffer_size_kb", 8.0, 16384.0, 1024.0, Integer, true,
          "sequential scan read buffer per thread"),
        k("tmp_table_size_mb", 1.0, 512.0, 256.0, Integer, true,
          "in-memory temp table ceiling; exceeding it goes to disk"),
        k("key_buffer_size_mb", 8.0, 1024.0, 256.0, Integer, true,
          "MyISAM key cache (wasted for InnoDB-only workloads)"),
    ];
    defs.extend(extended_knob_defs());
    defs
}

/// The long tail of the catalogue: 162 further MySQL-style knobs with
/// realistic ranges and defaults. A designated two dozen
/// ([`MICRO_IMPACT`]) contribute a small misconfiguration penalty to the
/// simulator; the rest are inert for the simulated OLTP workloads — exactly
/// the "hundreds of knobs, few of which matter" regime that motivates
/// low-dimensional search-space projections.
fn extended_knob_defs() -> Vec<KnobDef> {
    use KnobKind::*;
    type Row = (&'static str, f64, f64, f64, KnobKind, bool, Option<f64>, &'static str);
    const ROWS: &[Row] = &[
        // --- connection / network ---------------------------------------
        ("max_connections", 10.0, 10000.0, 151.0, Integer, true, None, "client connection ceiling"),
        ("back_log", 1.0, 65535.0, 80.0, Integer, true, None, "pending-connection listen queue"),
        ("max_connect_errors", 1.0, 1e6, 100.0, Integer, true, None, "host block threshold on aborted connects"),
        ("connect_timeout_s", 2.0, 300.0, 10.0, Integer, false, None, "handshake timeout"),
        ("wait_timeout_s", 1.0, 86400.0, 28800.0, Integer, true, None, "idle non-interactive session timeout"),
        ("interactive_timeout_s", 1.0, 86400.0, 28800.0, Integer, true, None, "idle interactive session timeout"),
        ("net_read_timeout_s", 1.0, 300.0, 30.0, Integer, false, None, "per-read network timeout"),
        ("net_write_timeout_s", 1.0, 300.0, 60.0, Integer, false, None, "per-write network timeout"),
        ("net_retry_count", 1.0, 100.0, 10.0, Integer, false, None, "interrupted-read retry budget"),
        ("net_buffer_length_kb", 1.0, 1024.0, 16.0, Integer, true, None, "initial connection buffer"),
        ("max_allowed_packet_mb", 1.0, 1024.0, 64.0, Integer, true, None, "largest client packet"),
        ("thread_stack_kb", 128.0, 2048.0, 256.0, Integer, false, None, "per-thread stack size"),
        ("max_user_connections", 0.0, 10000.0, 0.0, Integer, false, Some(0.0), "per-user connection cap (0 = unlimited)"),
        ("host_cache_size", 0.0, 65536.0, 279.0, Integer, false, None, "host name cache entries"),
        ("max_prepared_stmt_count", 0.0, 1048576.0, 16382.0, Integer, false, None, "server-wide prepared statement cap"),
        ("max_error_count", 0.0, 65535.0, 1024.0, Integer, false, None, "diagnostics area message cap"),
        // --- table / file caches ----------------------------------------
        ("table_open_cache_instances", 1.0, 64.0, 16.0, Integer, false, None, "table cache partitions"),
        ("table_definition_cache", 400.0, 524288.0, 2000.0, Integer, true, None, "cached table definitions"),
        ("metadata_locks_cache_size", 256.0, 1048576.0, 1024.0, Integer, true, None, "MDL lock object cache"),
        ("open_files_limit", 1000.0, 1048576.0, 5000.0, Integer, true, None, "file descriptor budget"),
        ("innodb_open_files", 10.0, 65536.0, 4000.0, Integer, true, None, "InnoDB open tablespace cap"),
        ("innodb_file_per_table", 0.0, 1.0, 1.0, Boolean, false, None, "one tablespace per table"),
        ("innodb_autoextend_increment_mb", 1.0, 1000.0, 64.0, Integer, false, None, "tablespace growth step"),
        ("flush_time_s", 0.0, 3600.0, 0.0, Integer, false, Some(0.0), "periodic table flush (0 = off)"),
        // --- optimizer ---------------------------------------------------
        ("optimizer_search_depth", 0.0, 62.0, 62.0, Integer, false, Some(0.0), "join-order search depth (0 = auto)"),
        ("optimizer_prune_level", 0.0, 1.0, 1.0, Boolean, false, None, "heuristic join-plan pruning"),
        ("eq_range_index_dive_limit", 0.0, 10000.0, 200.0, Integer, false, None, "equality ranges before index dives stop"),
        ("range_optimizer_max_mem_size_mb", 1.0, 1024.0, 8.0, Integer, true, None, "range optimizer memory cap"),
        ("max_seeks_for_key", 1.0, 1e9, 1e9, Integer, true, None, "assumed max seeks for key lookups"),
        ("max_length_for_sort_data", 4.0, 8192.0, 4096.0, Integer, true, None, "row size bound for sort-by-row"),
        ("max_sort_length", 4.0, 8192.0, 1024.0, Integer, true, None, "bytes compared when sorting blobs"),
        ("group_concat_max_len_kb", 1.0, 1024.0, 1.0, Integer, true, None, "GROUP_CONCAT result cap"),
        ("range_alloc_block_size_kb", 4.0, 64.0, 4.0, Integer, false, None, "range optimization allocation block"),
        ("query_alloc_block_size_kb", 1.0, 64.0, 8.0, Integer, false, None, "statement parse/execute allocation block"),
        ("query_prealloc_size_kb", 8.0, 1024.0, 8.0, Integer, true, None, "persistent statement arena"),
        ("transaction_alloc_block_size_kb", 1.0, 128.0, 8.0, Integer, false, None, "transaction allocation block"),
        ("transaction_prealloc_size_kb", 1.0, 128.0, 4.0, Integer, false, None, "persistent transaction arena"),
        ("div_precision_increment", 0.0, 30.0, 4.0, Integer, false, None, "division result scale digits"),
        // --- per-session buffers / MyISAM --------------------------------
        ("preload_buffer_size_kb", 1.0, 1024.0, 32.0, Integer, true, None, "index preload buffer"),
        ("read_rnd_buffer_size_kb", 1.0, 16384.0, 256.0, Integer, true, None, "sorted-read row buffer"),
        ("bulk_insert_buffer_size_mb", 0.0, 64.0, 8.0, Integer, false, None, "bulk insert tree cache"),
        ("myisam_sort_buffer_size_mb", 4.0, 512.0, 8.0, Integer, true, None, "MyISAM index repair sort buffer"),
        ("max_heap_table_size_mb", 1.0, 1024.0, 16.0, Integer, true, None, "MEMORY table size cap"),
        ("big_tables", 0.0, 1.0, 0.0, Boolean, false, None, "force disk temp tables"),
        ("myisam_data_pointer_size", 2.0, 7.0, 6.0, Integer, false, None, "MyISAM row pointer bytes"),
        ("myisam_max_sort_file_size_gb", 0.0, 100.0, 9.0, Integer, false, None, "repair-by-sort temp file cap"),
        ("myisam_repair_threads", 1.0, 8.0, 1.0, Integer, false, None, "parallel index repair threads"),
        ("myisam_use_mmap", 0.0, 1.0, 0.0, Boolean, false, None, "mmap MyISAM data files"),
        // --- key cache ---------------------------------------------------
        ("key_cache_block_size_kb", 1.0, 16.0, 1.0, Integer, false, None, "key cache block size"),
        ("key_cache_division_limit_pct", 1.0, 100.0, 100.0, Integer, false, None, "warm sublist share"),
        ("key_cache_age_threshold", 100.0, 10000.0, 300.0, Integer, true, None, "hot sublist demotion age"),
        ("keep_files_on_create", 0.0, 1.0, 0.0, Boolean, false, None, "never overwrite existing files"),
        // --- binlog / replication ---------------------------------------
        ("binlog_stmt_cache_size_kb", 4.0, 1024.0, 32.0, Integer, true, None, "non-transactional binlog cache"),
        ("max_binlog_size_mb", 4.0, 1024.0, 1024.0, Integer, true, None, "binlog rotation size"),
        ("max_binlog_cache_size_mb", 4.0, 4096.0, 4096.0, Integer, true, None, "transaction binlog cache cap"),
        ("binlog_group_commit_sync_delay_us", 0.0, 1e6, 0.0, Integer, false, Some(0.0), "fsync delay to grow commit groups (0 = off)"),
        ("binlog_group_commit_sync_no_delay_count", 0.0, 100000.0, 0.0, Integer, false, None, "early group-commit release count"),
        ("binlog_order_commits", 0.0, 1.0, 1.0, Boolean, false, None, "commit in binlog order"),
        ("binlog_rows_query_log_events", 0.0, 1.0, 0.0, Boolean, false, None, "log original statement with rows"),
        ("binlog_row_image", 0.0, 3.0, 0.0, Enum(3), false, None, "row image: full/minimal/noblob"),
        ("binlog_expire_logs_seconds", 3600.0, 2592000.0, 2592000.0, Integer, true, None, "binlog retention"),
        ("binlog_transaction_dependency_history_size", 1.0, 1e6, 25000.0, Integer, true, None, "writeset dependency history rows"),
        ("replica_parallel_workers", 0.0, 64.0, 4.0, Integer, false, Some(0.0), "parallel applier threads (0 = single)"),
        ("replica_pending_jobs_size_max_mb", 1.0, 1024.0, 16.0, Integer, true, None, "queued applier event memory"),
        ("sync_relay_log", 0.0, 10000.0, 10000.0, Integer, false, Some(0.0), "relay log fsync period (0 = OS)"),
        ("relay_log_space_limit_mb", 0.0, 10240.0, 0.0, Integer, false, Some(0.0), "relay log disk cap (0 = unlimited)"),
        ("rpl_semi_sync_master_timeout_ms", 0.0, 100000.0, 10000.0, Integer, false, None, "semisync ack timeout"),
        ("rpl_semi_sync_master_wait_point", 0.0, 2.0, 0.0, Enum(2), false, None, "ack wait point: after-sync/after-commit"),
        ("gtid_executed_compression_period", 0.0, 100000.0, 1000.0, Integer, false, Some(0.0), "gtid table compression period (0 = off)"),
        ("slave_net_timeout_s", 1.0, 3600.0, 60.0, Integer, true, None, "replica read timeout"),
        // --- InnoDB transactions / locking ------------------------------
        ("innodb_autoinc_lock_mode", 0.0, 3.0, 2.0, Enum(3), false, None, "auto-inc locking: traditional/consecutive/interleaved"),
        ("innodb_table_locks", 0.0, 1.0, 1.0, Boolean, false, None, "honor LOCK TABLES inside InnoDB"),
        ("innodb_rollback_on_timeout", 0.0, 1.0, 0.0, Boolean, false, None, "roll back whole txn on lock timeout"),
        ("innodb_lock_wait_timeout_s", 1.0, 3600.0, 50.0, Integer, true, None, "row lock wait timeout"),
        ("innodb_print_all_deadlocks", 0.0, 1.0, 0.0, Boolean, false, None, "log every deadlock"),
        ("innodb_deadlock_detect", 0.0, 1.0, 1.0, Boolean, false, None, "active deadlock detection"),
        ("innodb_rollback_segments", 1.0, 128.0, 128.0, Integer, false, None, "undo rollback segments"),
        ("innodb_commit_concurrency", 0.0, 1000.0, 0.0, Integer, false, Some(0.0), "concurrent commit threads (0 = unlimited)"),
        ("innodb_api_bk_commit_interval_s", 1.0, 3600.0, 5.0, Integer, true, None, "memcached API background commit period"),
        ("innodb_flush_sync", 0.0, 1.0, 1.0, Boolean, false, None, "ignore io_capacity at checkpoints"),
        ("innodb_fast_shutdown", 0.0, 3.0, 1.0, Enum(3), false, None, "shutdown purge/merge behavior"),
        ("lock_wait_timeout_s", 1.0, 86400.0, 86400.0, Integer, true, None, "metadata lock wait timeout"),
        // --- InnoDB purge / MVCC ----------------------------------------
        ("innodb_purge_batch_size", 1.0, 5000.0, 300.0, Integer, true, None, "undo pages purged per batch"),
        ("innodb_purge_rseg_truncate_frequency", 1.0, 128.0, 128.0, Integer, false, None, "rollback segment truncate cadence"),
        ("innodb_max_purge_lag", 0.0, 1e6, 0.0, Integer, false, Some(0.0), "purge lag DML throttle (0 = off)"),
        ("innodb_max_purge_lag_delay_us", 0.0, 1e6, 0.0, Integer, false, None, "max DML delay under purge lag"),
        ("innodb_thread_sleep_delay_us", 0.0, 1e6, 10000.0, Integer, false, None, "sleep before joining InnoDB queue"),
        ("innodb_adaptive_max_sleep_delay_us", 0.0, 1e6, 150000.0, Integer, false, None, "auto-tuned sleep delay ceiling"),
        // --- InnoDB statistics ------------------------------------------
        ("innodb_stats_persistent", 0.0, 1.0, 1.0, Boolean, false, None, "persistent optimizer statistics"),
        ("innodb_stats_persistent_sample_pages", 1.0, 10000.0, 20.0, Integer, true, None, "index dive pages for persistent stats"),
        ("innodb_stats_transient_sample_pages", 1.0, 100.0, 8.0, Integer, false, None, "index dive pages for transient stats"),
        ("innodb_stats_auto_recalc", 0.0, 1.0, 1.0, Boolean, false, None, "recalc stats after 10% change"),
        ("innodb_stats_on_metadata", 0.0, 1.0, 0.0, Boolean, false, None, "refresh stats on metadata queries"),
        ("innodb_stats_method", 0.0, 3.0, 0.0, Enum(3), false, None, "NULL handling in index stats"),
        // --- InnoDB compression / full-text ------------------------------
        ("innodb_compression_level", 0.0, 9.0, 6.0, Integer, false, None, "zlib level for compressed tables"),
        ("innodb_compression_failure_threshold_pct", 0.0, 100.0, 5.0, Integer, false, None, "failure rate that adds page padding"),
        ("innodb_compression_pad_pct_max", 0.0, 75.0, 50.0, Integer, false, None, "max page padding reserve"),
        ("innodb_ft_cache_size_mb", 2.0, 80.0, 8.0, Integer, false, None, "per-table FTS index cache"),
        ("innodb_ft_total_cache_size_mb", 32.0, 1600.0, 640.0, Integer, false, None, "global FTS index cache"),
        ("innodb_ft_result_cache_limit_mb", 1.0, 4096.0, 2000.0, Integer, true, None, "FTS query result cache cap"),
        ("innodb_ft_min_token_size", 0.0, 16.0, 3.0, Integer, false, None, "shortest indexed FTS token"),
        ("innodb_ft_max_token_size", 10.0, 84.0, 84.0, Integer, false, None, "longest indexed FTS token"),
        ("innodb_ft_sort_pll_degree", 1.0, 16.0, 2.0, Integer, false, None, "parallel FTS index build threads"),
        ("innodb_sort_buffer_size_kb", 64.0, 65536.0, 1024.0, Integer, true, None, "index build sort buffer"),
        // --- InnoDB redo / I/O details ----------------------------------
        ("innodb_log_write_ahead_size_kb", 1.0, 16.0, 8.0, Integer, false, None, "redo write-ahead block size"),
        ("innodb_log_spin_cpu_abs_lwm", 0.0, 100000.0, 80000.0, Integer, false, None, "CPU floor for log-write spinning"),
        ("innodb_log_spin_cpu_pct_hwm", 0.0, 100.0, 50.0, Integer, false, None, "CPU ceiling for log-write spinning"),
        ("innodb_log_wait_for_flush_spin_hwm_us", 0.0, 10000.0, 400.0, Integer, false, None, "max spin while awaiting log flush"),
        ("innodb_checksum_algorithm", 0.0, 3.0, 1.0, Enum(3), false, None, "page checksum: crc32/innodb/none"),
        ("innodb_use_native_aio", 0.0, 1.0, 1.0, Boolean, false, None, "kernel async I/O"),
        ("innodb_idle_flush_pct", 0.0, 100.0, 100.0, Integer, false, None, "flush rate when idle"),
        ("innodb_fsync_threshold_mb", 0.0, 64.0, 0.0, Integer, false, Some(0.0), "bytes between incremental fsyncs (0 = at once)"),
        ("innodb_fill_factor_pct", 10.0, 100.0, 100.0, Integer, false, None, "index build page fill factor"),
        ("innodb_online_alter_log_max_size_mb", 64.0, 2048.0, 128.0, Integer, true, None, "online DDL change log cap"),
        ("innodb_old_blocks_time_ms", 0.0, 10000.0, 1000.0, Integer, false, None, "LRU young-promotion delay"),
        ("innodb_replication_delay_ms", 0.0, 10000.0, 0.0, Integer, false, Some(0.0), "replica DML throttle (0 = off)"),
        // --- buffer pool persistence ------------------------------------
        ("innodb_buffer_pool_dump_pct", 1.0, 100.0, 25.0, Integer, false, None, "hottest pages dumped at shutdown"),
        ("innodb_buffer_pool_dump_at_shutdown", 0.0, 1.0, 1.0, Boolean, false, None, "dump pool contents at shutdown"),
        ("innodb_buffer_pool_load_at_startup", 0.0, 1.0, 1.0, Boolean, false, None, "reload dumped pool at startup"),
        ("innodb_buffer_pool_chunk_size_mb", 1.0, 1024.0, 128.0, Integer, true, None, "pool resize granularity"),
        // --- performance schema / monitoring -----------------------------
        ("performance_schema", 0.0, 1.0, 1.0, Boolean, false, None, "instrumentation engine"),
        ("performance_schema_digests_size", 200.0, 10000.0, 5000.0, Integer, true, None, "statement digest rows"),
        ("performance_schema_max_table_instances", 1000.0, 100000.0, 12500.0, Integer, true, None, "instrumented table objects"),
        ("performance_schema_events_waits_history_size", 5.0, 100.0, 10.0, Integer, false, None, "wait history ring per thread"),
        ("performance_schema_events_statements_history_size", 5.0, 100.0, 10.0, Integer, false, None, "statement history ring per thread"),
        ("performance_schema_setup_actors_size", 100.0, 1000.0, 150.0, Integer, false, None, "actor filter rows"),
        ("max_digest_length", 0.0, 8192.0, 1024.0, Integer, false, None, "statement digest token bytes"),
        ("performance_schema_max_digest_sample_age_s", 0.0, 86400.0, 60.0, Integer, false, None, "query sample refresh age"),
        // --- logging -----------------------------------------------------
        ("slow_query_log", 0.0, 1.0, 0.0, Boolean, false, None, "log slow statements"),
        ("long_query_time_s", 0.0, 100.0, 10.0, Float, false, None, "slow statement threshold"),
        ("log_queries_not_using_indexes", 0.0, 1.0, 0.0, Boolean, false, None, "log index-less queries"),
        ("log_slow_admin_statements", 0.0, 1.0, 0.0, Boolean, false, None, "log slow DDL"),
        ("log_throttle_queries_not_using_indexes", 0.0, 1000.0, 0.0, Integer, false, Some(0.0), "index-less log rate cap (0 = unlimited)"),
        ("general_log", 0.0, 1.0, 0.0, Boolean, false, None, "log every statement"),
        ("log_error_verbosity", 0.0, 3.0, 2.0, Enum(3), false, None, "error log detail level"),
        ("log_bin_trust_function_creators", 0.0, 1.0, 0.0, Boolean, false, None, "allow non-deterministic routine creation"),
        // --- query cache (legacy) ----------------------------------------
        ("query_cache_type", 0.0, 3.0, 0.0, Enum(3), false, None, "query cache mode: off/on/demand"),
        ("query_cache_size_mb", 0.0, 256.0, 0.0, Integer, false, Some(0.0), "query cache memory (0 = off)"),
        ("query_cache_limit_mb", 0.0, 16.0, 1.0, Integer, false, None, "largest cacheable result"),
        ("query_cache_min_res_unit_kb", 1.0, 64.0, 4.0, Integer, false, None, "result block allocation unit"),
        ("query_cache_wlock_invalidate", 0.0, 1.0, 0.0, Boolean, false, None, "invalidate on write locks"),
        // --- thread pool -------------------------------------------------
        ("thread_pool_size", 1.0, 64.0, 16.0, Integer, false, None, "thread pool groups"),
        ("thread_pool_stall_limit_ms", 4.0, 600.0, 6.0, Integer, false, None, "stall detection interval"),
        ("thread_pool_oversubscribe", 1.0, 16.0, 3.0, Integer, false, None, "extra threads per group"),
        ("thread_pool_max_threads", 1.0, 65536.0, 65536.0, Integer, true, None, "pool thread ceiling"),
        ("slow_launch_time_s", 0.0, 300.0, 2.0, Integer, false, None, "slow thread-create threshold"),
        // --- session / SQL toggles ---------------------------------------
        ("session_track_schema", 0.0, 1.0, 1.0, Boolean, false, None, "report schema changes to clients"),
        ("explicit_defaults_for_timestamp", 0.0, 1.0, 1.0, Boolean, false, None, "standard TIMESTAMP defaults"),
        ("end_markers_in_json", 0.0, 1.0, 0.0, Boolean, false, None, "optimizer trace end markers"),
        ("automatic_sp_privileges", 0.0, 1.0, 1.0, Boolean, false, None, "auto-grant routine privileges"),
        ("autocommit", 0.0, 1.0, 1.0, Boolean, false, None, "implicit commit per statement"),
        ("local_infile", 0.0, 1.0, 0.0, Boolean, false, None, "allow client-side LOAD DATA"),
        ("low_priority_updates", 0.0, 1.0, 0.0, Boolean, false, None, "writes yield to reads"),
        ("old_alter_table", 0.0, 1.0, 0.0, Boolean, false, None, "copy-based ALTER TABLE"),
        ("updatable_views_with_limit", 0.0, 1.0, 1.0, Boolean, false, None, "warn on keyless view updates with LIMIT"),
        ("sql_auto_is_null", 0.0, 1.0, 0.0, Boolean, false, None, "IS NULL finds last insert id"),
        ("foreign_key_checks", 0.0, 1.0, 1.0, Boolean, false, None, "enforce foreign keys"),
        ("unique_checks", 0.0, 1.0, 1.0, Boolean, false, None, "enforce unique constraints"),
        ("sql_safe_updates", 0.0, 1.0, 0.0, Boolean, false, None, "reject keyless UPDATE/DELETE"),
        ("show_compatibility_56", 0.0, 1.0, 0.0, Boolean, false, None, "legacy status table compatibility"),
        ("max_sp_recursion_depth", 0.0, 255.0, 0.0, Integer, false, None, "stored procedure recursion cap"),
        ("max_write_lock_count", 1.0, 1e6, 1e6, Integer, true, None, "writes before read locks get through"),
    ];
    ROWS.iter()
        .map(|&(name, min, max, default, kind, log_scale, special, description)| KnobDef {
            name,
            min,
            max,
            default,
            kind,
            log_scale,
            special,
            description,
        })
        .collect()
}

/// The designated minor-impact knobs of the extended catalogue and their
/// penalty weights. Deviations from the default accumulate into
/// [`micro_misconfig_score`] — a few percent of CPU/latency at worst, enough
/// that a 200-knob tuner must *not* wreck the long tail, but far below the
/// first 38 knobs' effects.
const MICRO_IMPACT: &[(&str, f64)] = &[
    ("innodb_purge_batch_size", 0.10),
    ("innodb_thread_sleep_delay_us", 0.08),
    ("innodb_adaptive_max_sleep_delay_us", 0.05),
    ("innodb_checksum_algorithm", 0.06),
    ("innodb_log_write_ahead_size_kb", 0.06),
    ("innodb_use_native_aio", 0.10),
    ("performance_schema", 0.08),
    ("general_log", 0.12),
    ("slow_query_log", 0.05),
    ("query_cache_size_mb", 0.12),
    ("thread_pool_size", 0.08),
    ("table_definition_cache", 0.05),
    ("innodb_open_files", 0.05),
    ("innodb_stats_persistent_sample_pages", 0.05),
    ("max_connections", 0.06),
    ("back_log", 0.04),
    ("binlog_group_commit_sync_delay_us", 0.08),
    ("innodb_old_blocks_time_ms", 0.04),
    ("key_cache_age_threshold", 0.03),
    ("innodb_lock_wait_timeout_s", 0.03),
    ("eq_range_index_dive_limit", 0.04),
    ("optimizer_search_depth", 0.05),
    ("innodb_sort_buffer_size_kb", 0.04),
    ("innodb_compression_level", 0.05),
];

/// Weighted mean squared deviation (in normalized coordinates) of the
/// `MICRO_IMPACT` knobs from their defaults, in `[0, 1]`.
///
/// Exactly `0.0` — bit-for-bit — when every micro knob sits at its default,
/// so configurations that never touch the extended catalogue evaluate
/// identically to the pre-extension simulator.
pub fn micro_misconfig_score(config: &Configuration) -> f64 {
    /// `(knob index, weight, normalized default)` per micro knob, plus the
    /// total weight — resolved once against the registry.
    type MicroTerms = (Vec<(usize, f64, f64)>, f64);
    static TERMS: OnceLock<MicroTerms> = OnceLock::new();
    let (terms, total_weight) = TERMS.get_or_init(|| {
        let reg = KnobRegistry::mysql();
        let terms: Vec<(usize, f64, f64)> = MICRO_IMPACT
            .iter()
            .map(|&(name, w)| {
                let idx = reg.index_of(name).unwrap_or_else(|| panic!("unknown micro knob {name}"));
                let def = reg.knob(idx);
                (idx, w, def.normalize(def.default))
            })
            .collect();
        let total: f64 = MICRO_IMPACT.iter().map(|&(_, w)| w).sum();
        (terms, total)
    });
    let reg = KnobRegistry::mysql();
    let mut acc = 0.0;
    for &(idx, w, u_def) in terms {
        let u = reg.knob(idx).normalize(config.values[idx]);
        let d = u - u_def;
        acc += w * d * d;
    }
    acc / total_weight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_200_unique_knobs() {
        let reg = KnobRegistry::mysql();
        assert_eq!(reg.len(), 200);
        assert!(reg.get("innodb_io_capacity").is_some());
        assert!(reg.get("no_such_knob").is_none());
    }

    #[test]
    fn paper_knob_set_sizes() {
        assert_eq!(KnobSet::cpu().dim(), 14);
        assert_eq!(KnobSet::io().dim(), 20);
        assert_eq!(KnobSet::memory().dim(), 6);
        assert_eq!(KnobSet::case_study().dim(), 3);
        assert_eq!(KnobSet::figure1().dim(), 2);
        assert_eq!(KnobSet::extended().dim(), 200);
        assert_eq!(KnobSet::expert().dim(), 40);
    }

    #[test]
    fn to_configuration_clamps_out_of_range_and_rejects_non_finite() {
        // Projected candidates lifted from a low-dim space can overshoot the
        // unit cube; the seam must clamp rather than write out-of-range knob
        // values, and NaN/inf must fall back to the default instead of
        // poisoning the configuration.
        let set = KnobSet::case_study();
        let base = Configuration::dba_default();
        let config = set.to_configuration(&[-0.3, 1.7, f64::NAN], &base);
        let defs = set.defs();
        assert_eq!(config.get(defs[0].name), defs[0].denormalize(0.0));
        assert_eq!(config.get(defs[1].name), defs[1].denormalize(1.0));
        assert_eq!(config.get(defs[2].name), defs[2].default);
        for &v in config.values() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn float_denormalize_never_exceeds_range_at_the_boundary() {
        // Log-scale floats used to overshoot `max` by an ulp at u = 1.0
        // (`exp(ln(max))` is not exactly `max` in floating point).
        let reg = KnobRegistry::mysql();
        for def in reg.iter() {
            for u in [0.0, 1.0, 1.0 - 1e-16] {
                let v = def.denormalize(u);
                assert!(
                    v >= def.min && v <= def.max,
                    "{}: denormalize({u}) = {v} outside [{}, {}]",
                    def.name,
                    def.min,
                    def.max
                );
            }
        }
    }

    #[test]
    fn hybrid_knobs_declare_their_sentinels() {
        let reg = KnobRegistry::mysql();
        assert_eq!(reg.get("innodb_thread_concurrency").unwrap().special, Some(0.0));
        assert_eq!(reg.get("sync_binlog").unwrap().special, Some(0.0));
        let n_hybrid = reg.iter().filter(|d| d.special.is_some()).count();
        assert!(n_hybrid >= 10, "expected a meaningful hybrid population, got {n_hybrid}");
        for def in reg.iter() {
            if let Some(s) = def.special {
                assert!(s >= def.min && s <= def.max, "{}: sentinel outside range", def.name);
            }
        }
    }

    #[test]
    fn micro_score_is_exactly_zero_at_defaults_and_positive_off_them() {
        let default = Configuration::dba_default();
        assert_eq!(micro_misconfig_score(&default), 0.0);
        let bad = default.clone().with("general_log", 1.0).with("query_cache_size_mb", 256.0);
        let score = micro_misconfig_score(&bad);
        assert!(score > 0.0 && score <= 1.0, "score = {score}");
        // Expert/paper sets never touch micro knobs except the two expert
        // additions left at default — tuning them cannot add penalty.
        let expert_cfg = KnobSet::expert()
            .to_configuration(&KnobSet::expert().default_point(), &default);
        assert_eq!(micro_misconfig_score(&expert_cfg), 0.0);
    }

    #[test]
    fn normalize_denormalize_roundtrip_for_floats() {
        let reg = KnobRegistry::mysql();
        let knob = reg.get("innodb_max_dirty_pages_pct").unwrap();
        for v in [5.0, 37.5, 75.0, 99.0] {
            let u = knob.normalize(v);
            assert!((knob.denormalize(u) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn integer_knobs_round() {
        let reg = KnobRegistry::mysql();
        let knob = reg.get("innodb_page_cleaners").unwrap();
        let v = knob.denormalize(0.5);
        assert_eq!(v, v.round());
        assert!(v >= knob.min && v <= knob.max);
    }

    #[test]
    fn boolean_knobs_threshold() {
        let reg = KnobRegistry::mysql();
        let knob = reg.get("innodb_doublewrite").unwrap();
        assert_eq!(knob.denormalize(0.2), 0.0);
        assert_eq!(knob.denormalize(0.8), 1.0);
    }

    #[test]
    fn enum_knobs_bin() {
        let reg = KnobRegistry::mysql();
        let knob = reg.get("innodb_flush_log_at_trx_commit").unwrap();
        assert_eq!(knob.denormalize(0.1), 0.0);
        assert_eq!(knob.denormalize(0.5), 1.0);
        assert_eq!(knob.denormalize(0.95), 2.0);
    }

    #[test]
    fn log_scale_knobs_are_monotone() {
        let reg = KnobRegistry::mysql();
        let knob = reg.get("innodb_io_capacity").unwrap();
        assert!(knob.log_scale);
        let lo = knob.denormalize(0.1);
        let mid = knob.denormalize(0.5);
        let hi = knob.denormalize(0.9);
        assert!(lo < mid && mid < hi);
        assert!((knob.normalize(knob.denormalize(0.37)) - 0.37).abs() < 0.02);
    }

    #[test]
    fn configuration_get_set() {
        let mut c = Configuration::dba_default();
        assert_eq!(c.get("innodb_thread_concurrency"), 0.0);
        c.set("innodb_thread_concurrency", 13.0);
        assert_eq!(c.get("innodb_thread_concurrency"), 13.0);
        // Clamped to range.
        c.set("innodb_thread_concurrency", 1e9);
        assert_eq!(c.get("innodb_thread_concurrency"), 128.0);
    }

    #[test]
    fn knobset_roundtrip_preserves_outside_knobs() {
        let set = KnobSet::case_study();
        let base = Configuration::dba_default().with("innodb_io_capacity", 5000.0);
        let point = vec![0.25, 0.5, 0.75];
        let config = set.to_configuration(&point, &base);
        assert_eq!(config.get("innodb_io_capacity"), 5000.0);
        let back = set.normalize(&config);
        for (a, b) in back.iter().zip(&point) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn default_point_matches_defaults() {
        let set = KnobSet::cpu();
        let point = set.default_point();
        let config = set.to_configuration(&point, &Configuration::dba_default());
        for name in set.names() {
            let def = KnobRegistry::mysql().get(name).unwrap();
            assert!(
                (config.get(name) - def.default).abs() < 1e-6,
                "{name}: {} vs {}",
                config.get(name),
                def.default
            );
        }
    }
}
