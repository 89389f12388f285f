//! Structured tracing + metrics for the tuning stack (DESIGN.md §10).
//!
//! Three primitives feed one global, thread-safe, in-memory collector:
//!
//! - **Spans** — nested wall-clock timers with slash-joined paths
//!   (`iteration/model_update/gp_fit`). Nesting is tracked per thread; a
//!   [`TraceContext`] carries the ambient path onto `std::thread::scope`
//!   workers so parallel stages aggregate under their logical parent.
//! - **Counters** — monotone `u64` tallies (`dbsim.evals`, `replay.retries`).
//! - **Histograms** — `{count, sum, min, max}` summaries of `f64` samples
//!   (`replay.sim_s`).
//! - **Events** — typed, timestamp-free records with named f64/int/string
//!   fields (`tuner.health`), tagged with the ambient task like spans so one
//!   collector slices into per-tenant streams.
//!
//! The collector is **disabled by default** and costs one relaxed atomic
//! load per call site when off. [`Span::finish_s`] always returns the
//! measured duration — callers such as `IterationTiming` consume the number
//! whether or not an event is recorded — so instrumentation replaces, rather
//! than duplicates, ad-hoc `Instant::now()` pairs.
//!
//! Tracing must never perturb tuning: it reads clocks, not RNG streams or
//! observations, so same-seed runs are bit-identical with tracing on or off
//! (`tests/determinism.rs` proves it).
//!
//! Snapshots serialize to JSONL (one event per line) via `minjson` and parse
//! back losslessly; `restune-bench`'s `trace_report` renders them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use minjson::Json;

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> MutexGuard<'static, Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    let lock = COLLECTOR.get_or_init(|| Mutex::new(Collector::default()));
    // A panic while holding the lock only poisons diagnostics; keep going.
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct Collector {
    spans: Vec<SpanEvent>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
    events: Vec<Event>,
}

/// Turns event recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns event recording off (buffered events are kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether events are currently recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables tracing when `RESTUNE_TRACE` is set to `1`, `true`, or `on`.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("RESTUNE_TRACE") {
        if matches!(v.as_str(), "1" | "true" | "on") {
            enable();
        }
    }
}

/// Clears all buffered events, counters, and histograms.
pub fn reset() {
    let mut c = collector();
    c.spans.clear();
    c.counters.clear();
    c.hists.clear();
    c.events.clear();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Per-thread span-nesting state. `generation` stamps the identity of the
/// stack currently installed: a [`Span`] pops its segment on close only if
/// the stamp (and depth) still match its creation, so a span that outlives
/// the context it was created in — held across a [`TraceContext::enter`]
/// guard, leaked by a panicking tenant, or simply forgotten — can never pop
/// a path segment it did not push. Without the guard, a pooled worker reused
/// across tasks would inherit the previous task's leftover parent path and
/// every later span would nest under it.
///
/// Fresh stamps are drawn from the monotonic `next_gen` counter;
/// [`ContextGuard`] *restores* the previous stamp on drop, so a balanced
/// same-thread `enter()`/drop pair is transparent to enclosing spans, while
/// distinct installs never share a stamp.
struct PathState {
    stack: Vec<&'static str>,
    generation: u64,
    next_gen: u64,
    task: Option<u64>,
}

impl PathState {
    /// Stamps the state with a fresh, never-reused generation.
    fn fresh_generation(&mut self) {
        self.next_gen += 1;
        self.generation = self.next_gen;
    }
}

thread_local! {
    static PATH: std::cell::RefCell<PathState> = const {
        std::cell::RefCell::new(PathState {
            stack: Vec::new(),
            generation: 0,
            next_gen: 0,
            task: None,
        })
    };
}

fn joined_path(stack: &[&'static str]) -> String {
    stack.join("/")
}

/// Field key under which a span records the task tag of the thread that
/// created it (see [`task_scope`]).
pub const TASK_FIELD: &str = "task";

/// One finished span occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Slash-joined nesting path, e.g. `iteration/model_update/gp_fit`.
    pub path: String,
    /// Measured monotonic wall-clock duration, seconds.
    pub dur_s: f64,
    /// Optional numeric annotations (`learner`, `iter`, …).
    pub fields: Vec<(String, f64)>,
}

/// A live span. Create with [`span!`]; close with [`Span::finish_s`] to get
/// the duration, or let it drop to record without reading the value.
pub struct Span {
    start: Instant,
    // `Some` iff tracing was enabled at creation (the path segment was pushed
    // onto this thread's stack and must be popped exactly once).
    rec: Option<SpanRec>,
}

struct SpanRec {
    path: String,
    fields: Vec<(String, f64)>,
    /// Path-stack generation at creation: the pop on close is skipped when a
    /// context switch or task boundary has since replaced the stack.
    generation: u64,
    /// Stack depth right after the push; the pop additionally requires the
    /// depth to still match, so out-of-order closes cannot pop a parent.
    depth: usize,
    /// Task tag of the creating thread (stamped into the event's fields).
    task: Option<u64>,
}

impl Span {
    /// Starts a span named `name` nested under this thread's current path.
    pub fn new(name: &'static str) -> Span {
        let rec = if enabled() {
            let (path, generation, depth, task) = PATH.with(|s| {
                let mut s = s.borrow_mut();
                s.stack.push(name);
                (joined_path(&s.stack), s.generation, s.stack.len(), s.task)
            });
            Some(SpanRec { path, fields: Vec::new(), generation, depth, task })
        } else {
            None
        };
        Span { start: Instant::now(), rec }
    }

    /// Attaches a numeric field (no-op when tracing is disabled).
    pub fn with_field(mut self, key: &'static str, value: f64) -> Span {
        if let Some(rec) = &mut self.rec {
            rec.fields.push((key.to_string(), value));
        }
        self
    }

    /// Stops the clock, records the event (when enabled at creation), and
    /// returns the elapsed seconds. Always measures, even when disabled.
    pub fn finish_s(mut self) -> f64 {
        let dur_s = self.start.elapsed().as_secs_f64();
        self.close(dur_s);
        dur_s
    }

    fn close(&mut self, dur_s: f64) {
        if let Some(rec) = self.rec.take() {
            PATH.with(|s| {
                let mut s = s.borrow_mut();
                // Only pop the segment this span pushed: if the stack has
                // been swapped (context/task switch) or deeper frames were
                // abandoned, the segment is already gone.
                if s.generation == rec.generation && s.stack.len() == rec.depth {
                    s.stack.pop();
                }
            });
            let mut fields = rec.fields;
            if let Some(task) = rec.task {
                fields.push((TASK_FIELD.to_string(), task as f64));
            }
            collector().spans.push(SpanEvent { path: rec.path, dur_s, fields });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_s = self.start.elapsed().as_secs_f64();
        self.close(dur_s);
    }
}

/// Starts a [`Span`]: `span!("gp_fit")` or `span!("gp_fit", learner = i)`.
/// Fields are evaluated and cast with `as f64`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::new($name)
    };
    ($name:literal $(, $key:ident = $val:expr)+ $(,)?) => {
        $crate::Span::new($name)$(.with_field(stringify!($key), ($val) as f64))+
    };
}

// ---------------------------------------------------------------------------
// Cross-thread context propagation
// ---------------------------------------------------------------------------

/// The ambient span path (and task tag) of the capturing thread, for
/// hand-off to `std::thread::scope` workers: capture with
/// [`current_context`] before spawning, call [`TraceContext::enter`] inside
/// the closure, and spans created by the worker nest under the capturing
/// thread's path — tagged with the capturing thread's task, if any.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    stack: Vec<&'static str>,
    task: Option<u64>,
}

/// Captures the current thread's span path (empty when tracing is disabled,
/// so disabled runs pay only the atomic load).
pub fn current_context() -> TraceContext {
    if !enabled() {
        return TraceContext::default();
    }
    PATH.with(|s| {
        let s = s.borrow();
        TraceContext { stack: s.stack.clone(), task: s.task }
    })
}

impl TraceContext {
    /// Installs this context on the current thread until the guard drops.
    /// The install gets a fresh stack generation (spans that straddle the
    /// boundary record correctly but cannot pop segments of a stack they did
    /// not push onto); the drop restores the *previous* generation along
    /// with the previous stack, so a balanced same-thread enter/exit is
    /// invisible to spans that enclose it.
    pub fn enter(&self) -> ContextGuard {
        let (prev_stack, prev_generation, prev_task) = PATH.with(|s| {
            let mut s = s.borrow_mut();
            let prev_generation = s.generation;
            s.fresh_generation();
            let prev_stack = std::mem::replace(&mut s.stack, self.stack.clone());
            let prev_task = std::mem::replace(&mut s.task, self.task);
            (prev_stack, prev_generation, prev_task)
        });
        ContextGuard { prev_stack, prev_generation, prev_task }
    }
}

/// Restores the previous thread-local path (and its generation stamp) on
/// drop.
pub struct ContextGuard {
    prev_stack: Vec<&'static str>,
    prev_generation: u64,
    prev_task: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev_stack = std::mem::take(&mut self.prev_stack);
        let prev_generation = self.prev_generation;
        let prev_task = self.prev_task;
        PATH.with(|s| {
            let mut s = s.borrow_mut();
            s.generation = prev_generation;
            s.stack = prev_stack;
            s.task = prev_task;
        });
    }
}

/// Marks a unit of pooled work on the current thread: installs `ctx` as the
/// ambient span path and tags every span created until the guard drops with
/// `task` (recorded as the [`TASK_FIELD`] field, so one shared collector can
/// be sliced back into complete per-task span trees).
///
/// Unlike [`TraceContext::enter`], dropping the guard resets the thread's
/// span state to **empty** rather than to whatever preceded the task:
/// persistent pool workers are reused across unrelated tasks, and any
/// residue — a leaked span from a panicked task, a parent path from the
/// previous tenant — must not prefix the next task's paths.
pub fn task_scope(ctx: &TraceContext, task: u64) -> TaskGuard {
    PATH.with(|s| {
        let mut s = s.borrow_mut();
        s.fresh_generation();
        s.stack = ctx.stack.clone();
        s.task = Some(task);
    });
    TaskGuard { _priv: () }
}

/// Resets the thread's span state to empty on drop (see [`task_scope`]).
pub struct TaskGuard {
    _priv: (),
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        PATH.with(|s| {
            let mut s = s.borrow_mut();
            s.fresh_generation();
            s.stack.clear();
            s.task = None;
        });
    }
}

// ---------------------------------------------------------------------------
// Counters + histograms
// ---------------------------------------------------------------------------

/// Adds `n` to counter `name`.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *collector().counters.entry(name).or_insert(0) += n;
}

/// Records sample `v` into histogram `name` (non-finite samples dropped so
/// JSONL export never fails).
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if !enabled() || !v.is_finite() {
        return;
    }
    collector().hists.entry(name).or_default().record(v);
}

/// A `{count, sum, min, max}` summary of observed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl Hist {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }

    /// Folds another summary into this one. Merging an empty summary is the
    /// identity (its `±inf` min/max sentinels lose every comparison), so
    /// per-task histograms can be combined without special-casing emptiness.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Typed events
// ---------------------------------------------------------------------------

/// A typed value on an [`Event`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A float (non-finite values are dropped at record time, like
    /// [`observe`], so JSONL export never fails).
    F64(f64),
    /// An integer. Round-trips exactly through JSONL for magnitudes up to
    /// 2^53 (JSON numbers are `f64`).
    Int(i64),
    /// A string.
    Str(String),
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(v as i64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Int(v as i64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured, **timestamp-free** record: a name plus named typed fields
/// in recording order. Unlike spans, events carry no clock reading at all —
/// two same-seed runs produce byte-identical event streams, so they can sit
/// in determinism fingerprints where span durations cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `tuner.health`.
    pub name: String,
    /// Task tag of the recording thread, if inside a [`task_scope`].
    pub task: Option<u64>,
    /// Named fields in recording order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// The value of field `key`, if present (first occurrence).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field `key` as a float (`Int` fields widen losslessly below 2^53).
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::Int(v) => Some(*v as f64),
            FieldValue::Str(_) => None,
        }
    }

    /// Field `key` as an integer.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.field(key)? {
            FieldValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Field `key` as a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            FieldValue::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

/// Records a typed event (no-op when tracing is disabled). The event is
/// tagged with the recording thread's ambient task, like spans. Hot paths
/// that build a large field list should check [`enabled`] first so the
/// allocation is skipped entirely when the sink is off.
pub fn event<K, V, I>(name: &str, fields: I)
where
    K: Into<String>,
    V: Into<FieldValue>,
    I: IntoIterator<Item = (K, V)>,
{
    if !enabled() {
        return;
    }
    let task = PATH.with(|s| s.borrow().task);
    let fields = fields
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .filter(|(_, v)| !matches!(v, FieldValue::F64(x) if !x.is_finite()))
        .collect();
    collector().events.push(Event { name: name.to_string(), task, fields });
}

// ---------------------------------------------------------------------------
// Snapshots + JSONL
// ---------------------------------------------------------------------------

/// Per-path aggregate over a snapshot's span events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanAgg {
    /// Occurrences.
    pub count: u64,
    /// Total seconds across occurrences.
    pub total_s: f64,
    /// Shortest occurrence.
    pub min_s: f64,
    /// Longest occurrence.
    pub max_s: f64,
}

/// An owned copy of the collector's state, decoupled from later recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Finished spans in completion order.
    pub spans: Vec<SpanEvent>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, Hist>,
    /// Typed events in recording order.
    pub events: Vec<Event>,
}

/// Copies the collector's current contents.
pub fn snapshot() -> TraceSnapshot {
    let c = collector();
    TraceSnapshot {
        spans: c.spans.clone(),
        counters: c.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        hists: c.hists.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        events: c.events.clone(),
    }
}

impl TraceSnapshot {
    /// Aggregates span events by path.
    pub fn span_agg(&self) -> BTreeMap<String, SpanAgg> {
        let mut out: BTreeMap<String, SpanAgg> = BTreeMap::new();
        for ev in &self.spans {
            let agg = out.entry(ev.path.clone()).or_insert(SpanAgg {
                count: 0,
                total_s: 0.0,
                min_s: f64::INFINITY,
                max_s: f64::NEG_INFINITY,
            });
            agg.count += 1;
            agg.total_s += ev.dur_s;
            agg.min_s = agg.min_s.min(ev.dur_s);
            agg.max_s = agg.max_s.max(ev.dur_s);
        }
        out
    }

    /// Total seconds across every span whose **last** path segment is `leaf`
    /// (sums the same logical phase across nesting contexts, e.g. the
    /// tuner's `iteration/replay` and a baseline's root-level `replay`).
    pub fn total_for(&self, leaf: &str) -> f64 {
        // fold, not sum(): an empty f64 `sum()` is -0.0, which would render
        // absent phases as "-0.000" in the breakdown tables.
        self.spans
            .iter()
            .filter(|ev| ev.path.rsplit('/').next() == Some(leaf))
            .map(|ev| ev.dur_s)
            .fold(0.0, |acc, d| acc + d)
    }

    /// The task tag carried by a span event, if any (see [`task_scope`]).
    pub fn task_of(ev: &SpanEvent) -> Option<u64> {
        ev.fields
            .iter()
            .find(|(k, _)| k == TASK_FIELD)
            .map(|(_, v)| *v as u64)
    }

    /// Every span event tagged with task `task`, in completion order — one
    /// task's complete span tree out of the shared collector.
    pub fn spans_for_task(&self, task: u64) -> Vec<&SpanEvent> {
        self.spans.iter().filter(|ev| Self::task_of(ev) == Some(task)).collect()
    }

    /// The distinct task tags present in the snapshot, ascending.
    pub fn tasks(&self) -> Vec<u64> {
        let mut tags: Vec<u64> = self.spans.iter().filter_map(Self::task_of).collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// A counter's total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram summary, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Every event named `name`, in recording order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Every event tagged with task `task`, in recording order.
    pub fn events_for_task(&self, task: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.task == Some(task)).collect()
    }

    /// The distinct task tags present among events, ascending.
    pub fn event_tasks(&self) -> Vec<u64> {
        let mut tags: Vec<u64> = self.events.iter().filter_map(|e| e.task).collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// Serializes to JSONL: one `span`, `counter`, or `hist` object per line.
    pub fn to_jsonl(&self) -> Result<String, minjson::JsonError> {
        let mut out = String::new();
        for ev in &self.spans {
            let mut obj = vec![
                ("type".to_string(), Json::Str("span".to_string())),
                ("path".to_string(), Json::Str(ev.path.clone())),
                ("dur_s".to_string(), Json::Num(ev.dur_s)),
            ];
            if !ev.fields.is_empty() {
                let fields =
                    ev.fields.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
                obj.push(("fields".to_string(), Json::Obj(fields)));
            }
            out.push_str(&Json::Obj(obj).render()?);
            out.push('\n');
        }
        for (name, value) in &self.counters {
            let obj = vec![
                ("type".to_string(), Json::Str("counter".to_string())),
                ("name".to_string(), Json::Str(name.clone())),
                ("value".to_string(), Json::Num(*value as f64)),
            ];
            out.push_str(&Json::Obj(obj).render()?);
            out.push('\n');
        }
        for (name, h) in &self.hists {
            let obj = vec![
                ("type".to_string(), Json::Str("hist".to_string())),
                ("name".to_string(), Json::Str(name.clone())),
                ("count".to_string(), Json::Num(h.count as f64)),
                ("sum".to_string(), Json::Num(h.sum)),
                ("min".to_string(), Json::Num(h.min)),
                ("max".to_string(), Json::Num(h.max)),
            ];
            out.push_str(&Json::Obj(obj).render()?);
            out.push('\n');
        }
        for ev in &self.events {
            // Fields render as ordered `[key, tag, value]` triples so typed
            // values round-trip losslessly (a flat object would collapse the
            // f64/int distinction and scramble recording order).
            let fields: Vec<Json> = ev
                .fields
                .iter()
                .map(|(k, v)| {
                    let (tag, val) = match v {
                        FieldValue::F64(x) => ("f", Json::Num(*x)),
                        FieldValue::Int(x) => ("i", Json::Num(*x as f64)),
                        FieldValue::Str(x) => ("s", Json::Str(x.clone())),
                    };
                    Json::Arr(vec![Json::Str(k.clone()), Json::Str(tag.to_string()), val])
                })
                .collect();
            let mut obj = vec![
                ("type".to_string(), Json::Str("event".to_string())),
                ("name".to_string(), Json::Str(ev.name.clone())),
            ];
            if let Some(task) = ev.task {
                obj.push(("task".to_string(), Json::Num(task as f64)));
            }
            obj.push(("fields".to_string(), Json::Arr(fields)));
            out.push_str(&Json::Obj(obj).render()?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses JSONL produced by [`TraceSnapshot::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<TraceSnapshot, minjson::JsonError> {
        let mut snap = TraceSnapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line)
                .map_err(|e| minjson::JsonError::new(format!("line {}: {e}", lineno + 1)))?;
            let kind = v.field("type")?.as_str().unwrap_or_default().to_string();
            match kind.as_str() {
                "span" => {
                    let path = v.field("path")?.as_str().unwrap_or_default().to_string();
                    let dur_s = v.field("dur_s")?.as_f64().unwrap_or(0.0);
                    let mut fields = Vec::new();
                    if let Some(Json::Obj(fs)) = v.get("fields") {
                        for (k, fv) in fs {
                            fields.push((k.clone(), fv.as_f64().unwrap_or(0.0)));
                        }
                    }
                    snap.spans.push(SpanEvent { path, dur_s, fields });
                }
                "counter" => {
                    let name = v.field("name")?.as_str().unwrap_or_default().to_string();
                    let value = v.field("value")?.as_f64().unwrap_or(0.0) as u64;
                    snap.counters.insert(name, value);
                }
                "hist" => {
                    let name = v.field("name")?.as_str().unwrap_or_default().to_string();
                    snap.hists.insert(
                        name,
                        Hist {
                            count: v.field("count")?.as_f64().unwrap_or(0.0) as u64,
                            sum: v.field("sum")?.as_f64().unwrap_or(0.0),
                            min: v.field("min")?.as_f64().unwrap_or(0.0),
                            max: v.field("max")?.as_f64().unwrap_or(0.0),
                        },
                    );
                }
                "event" => {
                    let name = v.field("name")?.as_str().unwrap_or_default().to_string();
                    let task = v.get("task").and_then(|t| t.as_f64()).map(|t| t as u64);
                    let mut fields = Vec::new();
                    if let Some(Json::Arr(fs)) = v.get("fields") {
                        for entry in fs {
                            let triple = entry.as_array().ok_or_else(|| {
                                minjson::JsonError::new(format!(
                                    "line {}: event field is not a [key, tag, value] triple",
                                    lineno + 1
                                ))
                            })?;
                            let (key, tag, val) = match triple {
                                [k, t, val] => (
                                    k.as_str().unwrap_or_default().to_string(),
                                    t.as_str().unwrap_or_default(),
                                    val,
                                ),
                                _ => {
                                    return Err(minjson::JsonError::new(format!(
                                        "line {}: event field is not a [key, tag, value] triple",
                                        lineno + 1
                                    )));
                                }
                            };
                            let value = match tag {
                                "f" => FieldValue::F64(val.as_f64().unwrap_or(0.0)),
                                "i" => FieldValue::Int(val.as_f64().unwrap_or(0.0) as i64),
                                "s" => FieldValue::Str(
                                    val.as_str().unwrap_or_default().to_string(),
                                ),
                                other => {
                                    return Err(minjson::JsonError::new(format!(
                                        "line {}: unknown event field tag `{other}`",
                                        lineno + 1
                                    )));
                                }
                            };
                            fields.push((key, value));
                        }
                    }
                    snap.events.push(Event { name, task, fields });
                }
                other => {
                    return Err(minjson::JsonError::new(format!(
                        "line {}: unknown event type `{other}`",
                        lineno + 1
                    )));
                }
            }
        }
        Ok(snap)
    }

    /// Writes the JSONL rendering to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = self
            .to_jsonl()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global and Rust runs tests on parallel
    // threads; serialize every test that records events.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing_but_still_measures() {
        let _g = lock();
        disable();
        reset();
        let sp = span!("quiet", x = 3);
        count("quiet.counter", 5);
        observe("quiet.hist", 1.0);
        assert!(sp.finish_s() >= 0.0);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _g = lock();
        enable();
        reset();
        {
            let outer = span!("outer");
            {
                let inner = span!("inner", k = 2);
                let _ = inner.finish_s();
            }
            let _ = outer.finish_s();
        }
        disable();
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|e| e.path.as_str()).collect();
        // Inner finishes first; both carry full nesting paths.
        assert_eq!(paths, vec!["outer/inner", "outer"]);
        assert_eq!(snap.spans[0].fields, vec![("k".to_string(), 2.0)]);
    }

    #[test]
    fn dropped_span_records_like_finish() {
        let _g = lock();
        enable();
        reset();
        {
            let _sp = span!("via_drop");
        }
        disable();
        assert_eq!(snapshot().span_agg()["via_drop"].count, 1);
    }

    #[test]
    fn context_propagates_paths_onto_scoped_threads() {
        let _g = lock();
        enable();
        reset();
        {
            let parent = span!("parent");
            let ctx = current_context();
            std::thread::scope(|scope| {
                for i in 0..3 {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _guard = ctx.enter();
                        let sp = span!("child", worker = i);
                        let _ = sp.finish_s();
                    });
                }
            });
            let _ = parent.finish_s();
        }
        disable();
        let agg = snapshot().span_agg();
        assert_eq!(agg["parent/child"].count, 3);
        assert_eq!(agg["parent"].count, 1);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let _g = lock();
        enable();
        reset();
        count("c.a", 2);
        count("c.a", 3);
        observe("h.x", 1.5);
        observe("h.x", 0.5);
        observe("h.x", f64::NAN); // dropped
        disable();
        let snap = snapshot();
        assert_eq!(snap.counter("c.a"), 5);
        let h = snap.hist("h.x").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 2.0, 0.5, 1.5));
        assert_eq!(h.mean(), 1.0);
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let _g = lock();
        enable();
        reset();
        {
            let outer = span!("a", iter = 7);
            let inner = span!("b");
            let _ = inner.finish_s();
            let _ = outer.finish_s();
        }
        count("evals", 11);
        observe("sim_s", 123.456);
        disable();
        let snap = snapshot();
        let text = snap.to_jsonl().unwrap();
        let back = TraceSnapshot::from_jsonl(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.span_agg(), snap.span_agg());
    }

    #[test]
    fn task_scope_tags_spans_and_resets_on_drop() {
        let _g = lock();
        enable();
        reset();
        let ctx = TraceContext { stack: vec!["fleet"], task: None };
        {
            let _t = task_scope(&ctx, 42);
            let sp = span!("tenant");
            let _ = sp.finish_s();
        }
        {
            // Worker reused for a different task: no residue from task 42.
            let _t = task_scope(&ctx, 43);
            let sp = span!("tenant");
            let _ = sp.finish_s();
        }
        // After the guard, the thread is back to a clean root.
        let sp = span!("untagged");
        let _ = sp.finish_s();
        disable();
        let snap = snapshot();
        let t42 = snap.spans_for_task(42);
        let t43 = snap.spans_for_task(43);
        assert_eq!(t42.len(), 1);
        assert_eq!(t42[0].path, "fleet/tenant");
        assert_eq!(t43.len(), 1);
        assert_eq!(t43[0].path, "fleet/tenant");
        assert_eq!(snap.tasks(), vec![42, 43]);
        let untagged = snap.spans.iter().find(|e| e.path == "untagged").unwrap();
        assert!(TraceSnapshot::task_of(untagged).is_none());
    }

    #[test]
    fn leaked_span_does_not_leak_parent_paths_into_the_next_task() {
        let _g = lock();
        enable();
        reset();
        let ctx = TraceContext { stack: vec!["fleet"], task: None };
        {
            let _t = task_scope(&ctx, 1);
            // A span the task never closes (e.g. held across a panic that the
            // pool's catch_unwind swallowed, or simply forgotten).
            std::mem::forget(span!("leaky"));
        }
        {
            let _t = task_scope(&ctx, 2);
            let sp = span!("clean");
            let _ = sp.finish_s();
        }
        disable();
        let snap = snapshot();
        let clean = snap.spans_for_task(2);
        assert_eq!(clean.len(), 1);
        assert_eq!(
            clean[0].path, "fleet/clean",
            "the next task's spans must not nest under the leaked `leaky` path"
        );
    }

    #[test]
    fn span_closed_after_its_context_cannot_pop_a_foreign_stack() {
        let _g = lock();
        enable();
        reset();
        let ctx = TraceContext { stack: vec!["root"], task: None };
        let straddler = {
            let _g2 = ctx.enter();
            span!("straddler")
        };
        // The guard has restored the (empty) previous stack; build fresh
        // nesting, then close the straddler: it must not pop `outer`.
        let outer = span!("outer");
        let _ = straddler.finish_s();
        {
            let inner = span!("inner");
            let _ = inner.finish_s();
        }
        let _ = outer.finish_s();
        disable();
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["root/straddler", "outer/inner", "outer"]);
    }

    #[test]
    fn empty_histogram_keeps_identity_sentinels() {
        // A never-recorded summary: count 0, mean 0, and ±inf min/max
        // sentinels that lose every comparison — both against a sample
        // (`record`) and against another summary (`merge`).
        let h = Hist::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min, f64::INFINITY);
        assert_eq!(h.max, f64::NEG_INFINITY);

        let mut empty = Hist::default();
        let full = Hist { count: 2, sum: 3.0, min: 1.0, max: 2.0 };
        empty.merge(&full);
        assert_eq!(empty, full, "merging into an empty summary must be the identity");
        let mut full2 = full.clone();
        full2.merge(&Hist::default());
        assert_eq!(full2, full, "merging an empty summary must be the identity");
    }

    #[test]
    fn single_sample_histogram_collapses_to_the_sample() {
        let _g = lock();
        enable();
        reset();
        observe("h.single", 4.25);
        disable();
        let snap = snapshot();
        let h = snap.hist("h.single").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (1, 4.25, 4.25, 4.25));
        assert_eq!(h.mean(), 4.25);
    }

    #[test]
    fn histograms_merge_across_task_slices() {
        // Merging per-task summaries reproduces the global summary: the
        // `{count, sum, min, max}` representation is a monoid.
        let a = Hist { count: 3, sum: 6.0, min: 1.0, max: 3.0 };
        let b = Hist { count: 2, sum: 9.0, min: 4.0, max: 5.0 };
        let mut merged = Hist::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!((merged.count, merged.sum, merged.min, merged.max), (5, 15.0, 1.0, 5.0));
    }

    #[test]
    fn disabled_events_record_nothing() {
        let _g = lock();
        disable();
        reset();
        event("quiet.event", [("x", FieldValue::F64(1.0))]);
        assert!(snapshot().events.is_empty());
    }

    #[test]
    fn events_carry_typed_fields_and_task_tags() {
        let _g = lock();
        enable();
        reset();
        event(
            "tuner.health",
            vec![
                ("iter", FieldValue::Int(7)),
                ("regret", FieldValue::F64(0.125)),
                ("path", FieldValue::Str("dense".to_string())),
                ("bad", FieldValue::F64(f64::NAN)), // dropped like observe()
            ],
        );
        let ctx = TraceContext { stack: vec![], task: None };
        {
            let _t = task_scope(&ctx, 9);
            event("tuner.health", [("iter", FieldValue::Int(0))]);
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.events.len(), 2);
        let ev = &snap.events[0];
        assert_eq!(ev.name, "tuner.health");
        assert_eq!(ev.task, None);
        assert_eq!(ev.int("iter"), Some(7));
        assert_eq!(ev.f64("iter"), Some(7.0), "Int widens to f64 on demand");
        assert_eq!(ev.f64("regret"), Some(0.125));
        assert_eq!(ev.str("path"), Some("dense"));
        assert_eq!(ev.field("bad"), None, "non-finite f64 fields are dropped");
        assert_eq!(snap.events[1].task, Some(9));
        assert_eq!(snap.events_named("tuner.health").len(), 2);
        assert_eq!(snap.events_for_task(9).len(), 1);
        assert_eq!(snap.event_tasks(), vec![9]);
    }

    #[test]
    fn event_jsonl_round_trip_preserves_types_and_order() {
        let _g = lock();
        enable();
        reset();
        event(
            "tuner.health",
            vec![
                ("z", FieldValue::F64(-1.5)),
                ("a", FieldValue::Int(-42)),
                ("s", FieldValue::Str("sparse|inc".to_string())),
            ],
        );
        let ctx = TraceContext { stack: vec![], task: None };
        {
            let _t = task_scope(&ctx, 3);
            event("fleet.note", [("w", FieldValue::F64(0.1))]);
        }
        count("evals", 2);
        observe("sim_s", 1.0);
        disable();
        let snap = snapshot();
        let text = snap.to_jsonl().unwrap();
        let back = TraceSnapshot::from_jsonl(&text).unwrap();
        assert_eq!(back, snap, "typed events must round-trip losslessly");
        // Field order (z before a) and the f64/int distinction survive.
        assert_eq!(back.events[0].fields[0].0, "z");
        assert!(matches!(back.events[0].fields[1].1, FieldValue::Int(-42)));
        assert_eq!(back.events[1].task, Some(3));
    }

    #[test]
    fn total_for_matches_leaf_segments_across_contexts() {
        let snap = TraceSnapshot {
            spans: vec![
                SpanEvent { path: "iteration/replay".into(), dur_s: 1.0, fields: vec![] },
                SpanEvent { path: "replay".into(), dur_s: 2.0, fields: vec![] },
                SpanEvent { path: "replay/inner".into(), dur_s: 4.0, fields: vec![] },
            ],
            ..Default::default()
        };
        assert_eq!(snap.total_for("replay"), 3.0);
    }
}
