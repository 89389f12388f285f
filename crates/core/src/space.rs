//! Search-space transformations between the native knob space and the space
//! proposers actually search (DESIGN.md §14).
//!
//! ResTune tunes a pre-selected ~40-knob subspace, but a real engine exposes
//! hundreds of knobs and a dense GP cannot operate there. LlamaTune showed
//! that three cheap, model-agnostic adapters recover near-full-space quality
//! from a handful of search dimensions:
//!
//! * **Random linear projection** — the proposer searches `[0,1]^d_low`;
//!   candidates are lifted to the native unit hypercube by a seeded sparse
//!   HeSBO counting-sketch map and denormalized through the existing
//!   [`KnobSet`].
//! * **Quantization** — wide continuous/integer knobs are bucketized onto bin
//!   centers (the same bin-center convention `knobs.rs` uses for enums), so
//!   the surrogate sees a drastically smaller effective value set.
//! * **Hybrid knobs** — numeric knobs with a special sentinel value (e.g.
//!   `innodb_thread_concurrency = 0` meaning *unlimited*) get the sentinel
//!   biased-sampled: a configurable share of the unit interval maps to the
//!   sentinel, the rest rescales over the numeric range (LlamaTune §4.1).
//!
//! Everything downstream of the [`crate::driver::Proposer`] seam is
//! transform-agnostic: the engine lifts points at its evaluate/render seams,
//! history and surrogates live entirely in the low-dimensional space, and the
//! transform's [`SpaceTransform::id`] string becomes part of the task
//! identity so meta-learning never mixes observations from different spaces.
//!
//! Determinism: a transform is fully determined by `(kind, d_low, seed)` plus
//! the knob set, both maps are pure, and the identity transform is a true
//! no-op — same-seed sessions with `space: None` and with
//! [`IdentityTransform`] are bit-identical.

use std::sync::Arc;

use dbsim::{KnobKind, KnobSet};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// A bidirectional map between the proposer-facing search space
/// `[0,1]^dim()` and the native knob space `[0,1]^native_dim()`.
///
/// `lift` must accept any finite input (projections overshoot; the engine
/// clamps at the [`KnobSet::to_configuration`] seam regardless) and must
/// return native coordinates in `[0,1]`. `restrict` is a pseudo-inverse used
/// to express externally known native points (the DBA default, warm-start
/// observations) in search coordinates; `lift(restrict(x))` is generally an
/// approximation of `x` except for the identity transform, where both maps
/// are exact no-ops.
pub trait SpaceTransform: std::fmt::Debug + Send + Sync {
    /// Search-space dimensionality (what proposers see).
    fn dim(&self) -> usize;

    /// Native knob-space dimensionality (what the `KnobSet` denormalizes).
    fn native_dim(&self) -> usize;

    /// Maps a search point to native unit-hypercube coordinates.
    fn lift(&self, low: &[f64]) -> Vec<f64>;

    /// Maps native unit-hypercube coordinates to a search point.
    fn restrict(&self, native: &[f64]) -> Vec<f64>;

    /// A stable identity string (`"native"`, `"hesbo:d16:s42|q64x109|hyb16b0.2"`, …).
    ///
    /// Task records persist this; meta-learning only transfers between tasks
    /// whose knob names *and* space id match, because a point's coordinates
    /// are meaningless under a different transform.
    fn id(&self) -> String;
}

/// The no-op transform: search space ≡ native space.
#[derive(Debug, Clone)]
pub struct IdentityTransform {
    dim: usize,
}

impl IdentityTransform {
    /// Identity over an `n`-dimensional space.
    pub fn new(dim: usize) -> Self {
        IdentityTransform { dim }
    }
}

impl SpaceTransform for IdentityTransform {
    fn dim(&self) -> usize {
        self.dim
    }

    fn native_dim(&self) -> usize {
        self.dim
    }

    fn lift(&self, low: &[f64]) -> Vec<f64> {
        assert_eq!(low.len(), self.dim, "identity lift dimension mismatch");
        low.to_vec()
    }

    fn restrict(&self, native: &[f64]) -> Vec<f64> {
        assert_eq!(native.len(), self.dim, "identity restrict dimension mismatch");
        native.to_vec()
    }

    fn id(&self) -> String {
        "native".to_string()
    }
}

/// Which random linear embedding to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Sparse counting-sketch embedding (HeSBO): every native dimension is a
    /// signed copy of one search dimension. Lifted points never leave the
    /// unit hypercube, so no clipping distortion.
    Hesbo,
}

impl Projection {
    fn tag(&self) -> &'static str {
        match self {
            Projection::Hesbo => "hesbo",
        }
    }
}

/// A seeded random linear projection `[0,1]^d_low ↔ [0,1]^native`.
#[derive(Debug, Clone)]
pub struct RandomProjection {
    kind: Projection,
    d_low: usize,
    native_dim: usize,
    seed: u64,
    /// `h[i]` = which search dimension native dim `i` copies.
    h: Vec<usize>,
    /// Sign per native dimension (+1.0 / -1.0).
    s: Vec<f64>,
}

impl RandomProjection {
    /// Builds the projection. Panics if `d_low` is zero or exceeds
    /// `native_dim` (projecting *up* is never what you want).
    pub fn new(kind: Projection, d_low: usize, native_dim: usize, seed: u64) -> Self {
        assert!(d_low > 0, "projection needs at least one search dimension");
        assert!(
            d_low <= native_dim,
            "d_low ({d_low}) must not exceed the native dimension ({native_dim})"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ACE_5ACE_5ACE_5ACE);
        let h: Vec<usize> = (0..native_dim).map(|_| rng.random_range(0..d_low)).collect();
        let s: Vec<f64> =
            (0..native_dim).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }).collect();
        RandomProjection { kind, d_low, native_dim, seed, h, s }
    }
}

impl SpaceTransform for RandomProjection {
    fn dim(&self) -> usize {
        self.d_low
    }

    fn native_dim(&self) -> usize {
        self.native_dim
    }

    fn lift(&self, low: &[f64]) -> Vec<f64> {
        assert_eq!(low.len(), self.d_low, "projection lift dimension mismatch");
        (0..self.native_dim)
            .map(|i| {
                let v = low[self.h[i]];
                let v = if self.s[i] > 0.0 { v } else { 1.0 - v };
                v.clamp(0.0, 1.0)
            })
            .collect()
    }

    fn restrict(&self, native: &[f64]) -> Vec<f64> {
        assert_eq!(native.len(), self.native_dim, "projection restrict dimension mismatch");
        // Group-average of the sign-adjusted native coordinates: the
        // least-squares solution for a counting-sketch embedding.
        let mut sum = vec![0.0; self.d_low];
        let mut count = vec![0usize; self.d_low];
        for i in 0..self.native_dim {
            let v = if self.s[i] > 0.0 { native[i] } else { 1.0 - native[i] };
            sum[self.h[i]] += v;
            count[self.h[i]] += 1;
        }
        (0..self.d_low)
            .map(|j| if count[j] == 0 { 0.5 } else { (sum[j] / count[j] as f64).clamp(0.0, 1.0) })
            .collect()
    }

    fn id(&self) -> String {
        format!("{}:d{}:s{}", self.kind.tag(), self.d_low, self.seed)
    }
}

/// Per-native-dimension value bucketization.
///
/// A quantized dimension snaps its unit coordinate onto one of `bins` bin
/// centers — `(⌊u·b⌋ ∧ b-1 + 0.5) / b` — exactly the convention
/// `KnobKind::Enum` already uses, so denormalization downstream sees a small
/// stable value set. Idempotent: quantizing a bin center returns it.
#[derive(Debug, Clone)]
pub struct Quantization {
    /// `Some(bins)` per native dimension to snap; `None` leaves it alone.
    bins: Vec<Option<usize>>,
}

impl Quantization {
    /// Bucketizes every `Float`/`Integer` knob in `set` whose value count
    /// exceeds `bins` onto `bins` bin centers. Booleans, enums, small integer
    /// ranges, and hybrid knobs (their sentinel slice must stay exact) are
    /// left untouched.
    pub fn for_knob_set(set: &KnobSet, bins: usize) -> Self {
        assert!(bins >= 2, "quantization needs at least two bins");
        let per_dim = set
            .defs()
            .iter()
            .map(|def| {
                if def.special.is_some() {
                    return None;
                }
                match def.kind {
                    KnobKind::Float => Some(bins),
                    KnobKind::Integer => {
                        let values = (def.max - def.min).abs() + 1.0;
                        if values > bins as f64 {
                            Some(bins)
                        } else {
                            None
                        }
                    }
                    KnobKind::Boolean | KnobKind::Enum(_) => None,
                }
            })
            .collect();
        Quantization { bins: per_dim }
    }

    fn apply(&self, native: &mut [f64]) {
        debug_assert_eq!(native.len(), self.bins.len());
        for (v, b) in native.iter_mut().zip(&self.bins) {
            if let Some(b) = b {
                let b = *b as f64;
                let bin = (*v * b).floor().min(b - 1.0).max(0.0);
                *v = (bin + 0.5) / b;
            }
        }
    }

    /// How many dimensions are quantized.
    pub fn n_quantized(&self) -> usize {
        self.bins.iter().filter(|b| b.is_some()).count()
    }
}

/// One hybrid knob: `(native dim, sentinel unit value, bias)`.
///
/// The search coordinate `u` of the dimension is reinterpreted: `u < bias`
/// selects the sentinel exactly; otherwise `(u - bias) / (1 - bias)` rescales
/// over the full numeric range. The restriction maps the sentinel to the
/// center of its slice and everything else into the numeric slice.
#[derive(Debug, Clone, Copy)]
struct HybridDim {
    dim: usize,
    special_unit: f64,
    bias: f64,
}

/// The composed transform the engine installs: optional projection, then
/// hybrid-knob reinterpretation, then quantization, in native space.
///
/// Order matters and is fixed: projection output is clipped to the unit cube,
/// hybrid dims consume their biased slice *before* quantization (a quantized
/// sentinel would drift off the exact special value), and quantization snaps
/// last so the evaluated configuration is exactly a bin-center configuration.
#[derive(Debug, Clone)]
pub struct SpacePipeline {
    native_dim: usize,
    projection: Option<RandomProjection>,
    hybrid: Vec<HybridDim>,
    quantization: Option<Quantization>,
}

impl SpacePipeline {
    /// Composes a pipeline over `set` from the given stages.
    ///
    /// * `projection` — search in `d_low` dimensions instead of `set.dim()`.
    /// * `quantize_bins` — snap wide numeric knobs onto this many bin centers.
    /// * `hybrid_bias` — `Some(p)` reserves a `p` share of each hybrid knob's
    ///   unit interval for its sentinel (`p = 0.2` is LlamaTune's default);
    ///   `None` disables hybrid handling.
    pub fn new(
        set: &KnobSet,
        projection: Option<RandomProjection>,
        quantize_bins: Option<usize>,
        hybrid_bias: Option<f64>,
    ) -> Self {
        if let Some(p) = &projection {
            assert_eq!(
                p.native_dim(),
                set.dim(),
                "projection native dimension must match the knob set"
            );
        }
        let hybrid = match hybrid_bias {
            Some(bias) => {
                assert!((0.0..1.0).contains(&bias), "hybrid bias must be in [0, 1)");
                set.defs()
                    .iter()
                    .enumerate()
                    .filter_map(|(dim, def)| {
                        def.special.map(|s| HybridDim {
                            dim,
                            special_unit: def.normalize(s),
                            bias,
                        })
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let quantization = quantize_bins.map(|b| Quantization::for_knob_set(set, b));
        SpacePipeline { native_dim: set.dim(), projection, hybrid, quantization }
    }
}

impl SpaceTransform for SpacePipeline {
    fn dim(&self) -> usize {
        self.projection.as_ref().map(|p| p.dim()).unwrap_or(self.native_dim)
    }

    fn native_dim(&self) -> usize {
        self.native_dim
    }

    fn lift(&self, low: &[f64]) -> Vec<f64> {
        let mut native = match &self.projection {
            Some(p) => p.lift(low),
            None => {
                assert_eq!(low.len(), self.native_dim, "pipeline lift dimension mismatch");
                low.iter().map(|v| v.clamp(0.0, 1.0)).collect()
            }
        };
        for h in &self.hybrid {
            let u = native[h.dim];
            native[h.dim] = if u < h.bias {
                h.special_unit
            } else if h.bias < 1.0 {
                ((u - h.bias) / (1.0 - h.bias)).clamp(0.0, 1.0)
            } else {
                h.special_unit
            };
        }
        if let Some(q) = &self.quantization {
            q.apply(&mut native);
        }
        native
    }

    fn restrict(&self, native: &[f64]) -> Vec<f64> {
        assert_eq!(native.len(), self.native_dim, "pipeline restrict dimension mismatch");
        let mut pre: Vec<f64> = native.to_vec();
        for h in &self.hybrid {
            let u = pre[h.dim];
            pre[h.dim] = if (u - h.special_unit).abs() < 1e-12 {
                // The sentinel maps to the middle of its reserved slice.
                h.bias / 2.0
            } else {
                (h.bias + u * (1.0 - h.bias)).clamp(0.0, 1.0)
            };
        }
        match &self.projection {
            Some(p) => p.restrict(&pre),
            None => pre,
        }
    }

    fn id(&self) -> String {
        let mut parts = Vec::new();
        match &self.projection {
            Some(p) => parts.push(p.id()),
            None => parts.push("native".to_string()),
        }
        if let Some(q) = &self.quantization {
            let bins = q.bins.iter().flatten().next().copied().unwrap_or(0);
            parts.push(format!("q{}x{}", bins, q.n_quantized()));
        }
        if !self.hybrid.is_empty() {
            parts.push(format!("hyb{}b{}", self.hybrid.len(), self.hybrid[0].bias));
        }
        parts.join("|")
    }
}

/// Convenience constructor for the common case: a HeSBO projection with
/// quantization and hybrid handling over `set`, as one shared transform.
pub fn projected_space(
    set: &KnobSet,
    kind: Projection,
    d_low: usize,
    seed: u64,
    quantize_bins: Option<usize>,
    hybrid_bias: Option<f64>,
) -> Arc<dyn SpaceTransform> {
    let projection = RandomProjection::new(kind, d_low, set.dim(), seed);
    Arc::new(SpacePipeline::new(set, Some(projection), quantize_bins, hybrid_bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::Configuration;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn identity_is_a_true_noop() {
        let t = IdentityTransform::new(3);
        let p = vec![0.1, 0.5, 0.9];
        assert_eq!(t.lift(&p), p);
        assert_eq!(t.restrict(&p), p);
        assert_eq!(t.id(), "native");
        assert_eq!(t.dim(), 3);
        assert_eq!(t.native_dim(), 3);
    }

    #[test]
    fn hesbo_lift_stays_in_the_unit_cube_and_is_seed_deterministic() {
        let set = KnobSet::extended();
        let a = RandomProjection::new(Projection::Hesbo, 16, set.dim(), 42);
        let b = RandomProjection::new(Projection::Hesbo, 16, set.dim(), 42);
        let c = RandomProjection::new(Projection::Hesbo, 16, set.dim(), 43);
        let low: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let la = a.lift(&low);
        assert_eq!(la.len(), set.dim());
        assert!(la.iter().all(|v| (0.0..=1.0).contains(v)));
        assert_eq!(la, b.lift(&low), "same seed must give the same embedding");
        assert_ne!(la, c.lift(&low), "different seeds must differ");
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn hesbo_restrict_inverts_lift_for_interior_points() {
        let set = KnobSet::extended();
        let t = RandomProjection::new(Projection::Hesbo, 12, set.dim(), 5);
        let low: Vec<f64> = (0..12).map(|i| 0.1 + 0.07 * i as f64).collect();
        let native = t.lift(&low);
        // Sign-adjusted group averages recover the exact coordinates (every
        // native copy of a search dim carries the same value).
        let back = t.restrict(&native);
        assert!(close(&back, &low, 1e-12), "{back:?} vs {low:?}");
    }

    #[test]
    fn quantization_snaps_to_bin_centers_and_is_idempotent() {
        let set = KnobSet::extended();
        let q = Quantization::for_knob_set(&set, 64);
        assert!(q.n_quantized() > 100, "most of 200 knobs are wide numerics");
        let mut v: Vec<f64> = (0..set.dim()).map(|i| (i as f64 * 0.37) % 1.0).collect();
        let orig = v.clone();
        q.apply(&mut v);
        let once = v.clone();
        q.apply(&mut v);
        assert_eq!(once, v, "quantization must be idempotent");
        for ((def, o), s) in set.defs().iter().zip(&orig).zip(&once) {
            match def.kind {
                KnobKind::Boolean | KnobKind::Enum(_) => assert_eq!(o, s),
                _ if def.special.is_some() => assert_eq!(o, s),
                _ => assert!((o - s).abs() <= 0.5 / 64.0 + 1e-12),
            }
        }
    }

    #[test]
    fn hybrid_dims_bias_sample_the_sentinel() {
        let set = KnobSet::extended();
        let t = SpacePipeline::new(&set, None, None, Some(0.2));
        let defs = set.defs();
        let itc = defs.iter().position(|d| d.name == "innodb_thread_concurrency").unwrap();
        // Below the bias: the sentinel, exactly.
        let mut low = vec![0.5; set.dim()];
        low[itc] = 0.1;
        let native = t.lift(&low);
        let sentinel_unit = defs[itc].normalize(defs[itc].special.unwrap());
        assert_eq!(native[itc], sentinel_unit);
        // Above the bias: rescaled over the numeric range.
        low[itc] = 0.6;
        let native = t.lift(&low);
        assert!((native[itc] - 0.5).abs() < 1e-12, "0.6 rescales to (0.6-0.2)/0.8 = 0.5");
        // The evaluated configuration honours the sentinel end to end.
        low[itc] = 0.0;
        let config = set.to_configuration(&t.lift(&low), &Configuration::dba_default());
        assert_eq!(config.get("innodb_thread_concurrency"), 0.0);
    }

    #[test]
    fn pipeline_restrict_expresses_the_default_in_search_coordinates() {
        let set = KnobSet::extended();
        let t = projected_space(&set, Projection::Hesbo, 16, 42, Some(64), Some(0.2));
        assert_eq!(t.dim(), 16);
        assert_eq!(t.native_dim(), 200);
        let default_native = set.default_point();
        let low = t.restrict(&default_native);
        assert_eq!(low.len(), 16);
        assert!(low.iter().all(|v| (0.0..=1.0).contains(v)));
        // Lifting the restriction lands near the default for most dims: the
        // projection is lossy, but the pipeline must stay in range and keep
        // hybrid sentinels representable.
        let lifted = t.lift(&low);
        assert_eq!(lifted.len(), 200);
        assert!(lifted.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn pipeline_id_captures_every_stage() {
        let set = KnobSet::extended();
        let full = projected_space(&set, Projection::Hesbo, 16, 42, Some(64), Some(0.2));
        let id = full.id();
        assert!(id.starts_with("hesbo:d16:s42|q64x"), "{id}");
        assert!(id.contains("hyb"), "{id}");
        let plain = SpacePipeline::new(&set, None, None, None);
        assert_eq!(plain.id(), "native");
        // Different seeds or dims give different identities.
        let other = projected_space(&set, Projection::Hesbo, 16, 43, Some(64), Some(0.2));
        assert_ne!(full.id(), other.id());
    }

    #[test]
    fn out_of_cube_lift_inputs_are_tolerated() {
        // Proposers are trusted to stay in [0,1], but acquisition local
        // refinement can step epsilon outside; lifting must not panic and
        // must still produce in-cube native points.
        let set = KnobSet::extended();
        let t = projected_space(&set, Projection::Hesbo, 8, 1, Some(32), Some(0.2));
        let low = vec![-0.1, 1.1, 0.5, 0.0, 1.0, 0.3, 0.7, 2.0];
        let native = t.lift(&low);
        assert!(native.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
