//! efm-obs — tracing, metrics and trace export for the EFM suite.
//!
//! The paper's evaluation is built entirely on per-phase, per-node
//! measurement (Tables II–IV: wall time of the six cluster phases,
//! candidate and survivor counts, per-node memory). This crate is the
//! substrate those measurements flow through at run time:
//!
//! * **Spans** — RAII guards recording `Begin`/`End` pairs with
//!   monotonic microsecond timestamps into a per-thread buffer. A span
//!   per engine phase per iteration makes a run flamegraph-ready.
//! * **Instant events** — point-in-time markers (faults, aborts,
//!   restarts, checkpoints).
//! * **Counters / gauges** — typed named totals (candidates generated,
//!   dedup hits, rank-test calls, bytes per link) sampled into the
//!   trace each time they change and exported as final totals.
//! * **Exporters** — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>), a JSONL event
//!   log, and a plain-JSON metrics dump (see [`export`]).
//! * **Progress** — an optional human `--progress` line with a
//!   survivor-derived ETA (see [`progress`]).
//!
//! # Cost model
//!
//! Tracing is **globally disabled by default**. Every recording entry
//! point first loads one relaxed `AtomicBool`; on the disabled path no
//! allocation, no lock, no clock read and no formatting happens —
//! [`span`](fn@span) returns an inert guard and the counter helpers return
//! immediately. Callers that must build a dynamic name (for example a
//! per-link counter key) are expected to gate the `format!` behind
//! [`enabled`] themselves, which every call site in this workspace does.
//!
//! When enabled, each thread records into its own buffer behind an
//! uncontended mutex ("lock-light": the owning thread is the only
//! writer; the exporter only locks after worker threads have finished,
//! or briefly during a live snapshot). Buffers are registered in a
//! global registry so events survive scoped-thread exit — this is what
//! lets the simulated cluster's rank threads die and still contribute
//! their track to the merged trace, standing in for the rank-0
//! gather an MPI implementation would perform.
//!
//! # Tracks
//!
//! Every thread gets a track (Chrome `tid`). Cluster ranks claim
//! `tid == rank` via [`set_track`] so the merged trace shows one track
//! per rank; unnamed threads (rayon workers, the main thread) get
//! automatic tids starting at [`AUTO_TID_BASE`] to keep the rank range
//! clean.
//!
//! Buffers are bounded ([`TRACK_CAP`] events per track). When a track
//! fills up, new `Begin`/`Instant`/`Counter` events are dropped and
//! counted; `End` events are always recorded so span nesting stays
//! balanced (the overshoot is bounded by the live span depth). The
//! exporter surfaces the drop count rather than silently truncating.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod export;
pub mod hist;
pub mod json;
pub mod postmortem;
pub mod progress;

/// Automatic track ids start here; ids below are reserved for cluster
/// ranks (`tid == rank`) claimed through [`set_track`].
pub const AUTO_TID_BASE: u32 = 10_000;

/// Per-track event capacity. At ~48 bytes an event this bounds a track
/// at a few MiB; a traced yeast-scale run stays far below it.
pub const TRACK_CAP: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(AUTO_TID_BASE);
static REGISTRY: Mutex<Vec<SharedTrack>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static META: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

/// Is tracing globally enabled? One relaxed atomic load; this is the
/// whole disabled-path cost of every recording entry point.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable tracing. Also pins the monotonic epoch on
/// first use so timestamps from before/after an enable toggle share one
/// timeline.
pub fn set_enabled(on: bool) {
    clock_epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn clock_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide monotonic epoch. Safe to call
/// whether or not tracing is enabled; used by the supervisor to stamp
/// `RecoveryEvent`s so restarts correlate with the trace timeline.
pub fn now_us() -> u64 {
    clock_epoch().elapsed().as_micros() as u64
}

/// What a single trace event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened (matched by the next unbalanced `End` on the track).
    Begin,
    /// Span closed. Carries no name; pairing is positional per track.
    End,
    /// Point-in-time marker.
    Instant,
    /// Counter/gauge sample: the *running total* after the update.
    Counter(i64),
    /// Causal flow origin (Chrome `ph:"s"`): this track produced the
    /// message/release identified by the flow id; the matching
    /// [`EventKind::FlowEnd`] on another track closes the arrow.
    FlowStart(u64),
    /// Causal flow arrival (Chrome `ph:"f"`, intermediate arrivals of a
    /// multi-recipient flow become `ph:"t"` steps at export time).
    FlowEnd(u64),
}

/// One recorded event. `ts_us` is microseconds since [`now_us`]'s epoch
/// and is non-decreasing within a track (single writer, monotonic
/// clock).
#[derive(Debug, Clone)]
pub struct Event {
    pub ts_us: u64,
    pub kind: EventKind,
    pub name: Cow<'static, str>,
}

struct TrackBuf {
    tid: u32,
    name: String,
    events: Vec<Event>,
    dropped: u64,
}

type SharedTrack = Arc<Mutex<TrackBuf>>;

thread_local! {
    static LOCAL: RefCell<Option<SharedTrack>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut TrackBuf) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let track = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let t: SharedTrack = Arc::new(Mutex::new(TrackBuf {
                tid,
                name: format!("thread {tid}"),
                events: Vec::new(),
                dropped: 0,
            }));
            REGISTRY.lock().unwrap().push(Arc::clone(&t));
            t
        });
        let mut buf = track.lock().unwrap();
        f(&mut buf)
    })
}

/// Claim a track identity for the current thread. Cluster ranks call
/// `set_track(rank, "rank N")` so the merged trace has one track per
/// rank with a stable tid. No-op while tracing is disabled.
pub fn set_track(tid: u32, name: &str) {
    if !enabled() {
        return;
    }
    with_local(|t| {
        t.tid = tid;
        t.name = name.to_string();
    });
}

fn push(kind: EventKind, name: Cow<'static, str>) {
    let ts_us = now_us();
    with_local(|t| {
        // `End` must always land so span nesting stays balanced; the
        // overshoot past TRACK_CAP is bounded by the open span depth.
        if t.events.len() < TRACK_CAP || matches!(kind, EventKind::End) {
            t.events.push(Event { ts_us, kind, name });
        } else {
            t.dropped += 1;
        }
    });
}

/// RAII span guard: records `Begin` now and `End` when dropped. Inert
/// (and allocation-free) when tracing is disabled.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    live: bool,
}

impl Span {
    /// An inert span, never recorded. Useful as a placeholder.
    pub const fn off() -> Span {
        Span { live: false }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            push(EventKind::End, Cow::Borrowed(""));
        }
    }
}

/// Open a span with a static name.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::off();
    }
    push(EventKind::Begin, Cow::Borrowed(name));
    Span { live: true }
}

/// Open a span with a computed name. Callers should gate the name
/// construction behind [`enabled`] to keep the disabled path free.
pub fn span_dyn(name: String) -> Span {
    if !enabled() {
        return Span::off();
    }
    push(EventKind::Begin, Cow::Owned(name));
    Span { live: true }
}

/// Record a point-in-time event with a static name.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        push(EventKind::Instant, Cow::Borrowed(name));
    }
}

/// Record a point-in-time event with a computed name.
pub fn instant_dyn(name: String) {
    if enabled() {
        push(EventKind::Instant, Cow::Owned(name));
    }
}

static NEXT_FLOW: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique flow id for a causal edge. Id `0` is
/// reserved as "untraced" so frame headers can carry it for free when
/// tracing is disabled.
#[inline]
pub fn next_flow_id() -> u64 {
    NEXT_FLOW.fetch_add(1, Ordering::Relaxed)
}

/// Record the origin of a causal flow (message send, barrier release,
/// view change). The arrow closes at the track that records
/// [`flow_end`] with the same id; unmatched halves are dropped at
/// export time so a crashed run still yields a well-formed trace.
#[inline]
pub fn flow_start(name: &'static str, id: u64) {
    if enabled() && id != 0 {
        push(EventKind::FlowStart(id), Cow::Borrowed(name));
    }
}

/// [`flow_start`] with a computed name (`"msg 0->3"`). Gate the
/// `format!` behind [`enabled`].
pub fn flow_start_dyn(name: String, id: u64) {
    if enabled() && id != 0 {
        push(EventKind::FlowStart(id), Cow::Owned(name));
    }
}

/// Record the arrival of a causal flow on the current track.
#[inline]
pub fn flow_end(name: &'static str, id: u64) {
    if enabled() && id != 0 {
        push(EventKind::FlowEnd(id), Cow::Borrowed(name));
    }
}

/// [`flow_end`] with a computed name; must match the start's name so
/// Chrome/Perfetto bind the chain.
pub fn flow_end_dyn(name: String, id: u64) {
    if enabled() && id != 0 {
        push(EventKind::FlowEnd(id), Cow::Owned(name));
    }
}

/// Add to a named counter and sample the new total into the trace.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let total = bump(name.to_string(), delta);
    push(EventKind::Counter(total as i64), Cow::Borrowed(name));
}

/// [`counter_add`] with a computed name (per-link traffic keys such as
/// `"link 0->3 bytes"`). Gate the `format!` behind [`enabled`].
pub fn counter_add_dyn(name: String, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let total = bump(name.clone(), delta);
    push(EventKind::Counter(total as i64), Cow::Owned(name));
}

/// Raise a named gauge to `value` if it is higher than the current
/// reading (peak-style gauges: peak bytes, peak modes). Samples the new
/// peak into the trace only when it actually moved.
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut raised = false;
    {
        let mut c = COUNTERS.lock().unwrap();
        let e = c.entry(name.to_string()).or_insert(0);
        if value > *e {
            *e = value;
            raised = true;
        }
    }
    if raised {
        push(EventKind::Counter(value as i64), Cow::Borrowed(name));
    }
}

/// Set a named gauge to `value` unconditionally and sample it.
pub fn gauge_set(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    COUNTERS.lock().unwrap().insert(name.to_string(), value);
    push(EventKind::Counter(value as i64), Cow::Borrowed(name));
}

/// Record a run-level metadata string (kernel tier, block geometry,
/// backend name, …). Exported as the Chrome trace's `otherData` object
/// and in the metrics JSON, so flamegraphs are self-describing — a
/// scalar and a SIMD run are distinguishable from the trace file alone.
/// Last write per key wins. No-op while tracing is disabled.
pub fn meta_set(name: &str, value: &str) {
    if !enabled() {
        return;
    }
    META.lock().unwrap().insert(name.to_string(), value.to_string());
}

/// Current value of a metadata key; `None` if never set (or tracing is
/// disabled when it was written).
pub fn meta_value(name: &str) -> Option<String> {
    META.lock().unwrap().get(name).cloned()
}

fn bump(name: String, delta: u64) -> u64 {
    let mut c = COUNTERS.lock().unwrap();
    let e = c.entry(name).or_insert(0);
    *e += delta;
    *e
}

/// A drained copy of one thread's track.
#[derive(Debug, Clone)]
pub struct Track {
    pub tid: u32,
    pub name: String,
    pub events: Vec<Event>,
    pub dropped: u64,
}

/// Everything recorded so far: all tracks (including those of threads
/// that have already exited) plus the counter totals. This merged view
/// across ranks is the in-process equivalent of the rank-0 gather a
/// distributed deployment would need.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub tracks: Vec<Track>,
    pub counters: Vec<(String, u64)>,
    /// Run-level metadata strings recorded via [`meta_set`].
    pub meta: Vec<(String, String)>,
    /// Log-bucket latency histograms recorded via [`hist::record`].
    pub hists: Vec<(String, hist::Histogram)>,
}

impl Snapshot {
    /// Total across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Final total of a named counter, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Current total of a named counter; `0` if it was never touched (or
/// tracing is disabled). Convenience for tests asserting on counters
/// without taking a full [`snapshot`].
pub fn counter_value(name: &str) -> u64 {
    COUNTERS.lock().unwrap().get(name).copied().unwrap_or(0)
}

/// Copy out all recorded tracks and counter totals. Tracks are sorted
/// by tid so exports are deterministic.
pub fn snapshot() -> Snapshot {
    let mut tracks: Vec<Track> = REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|t| {
            let b = t.lock().unwrap();
            Track { tid: b.tid, name: b.name.clone(), events: b.events.clone(), dropped: b.dropped }
        })
        .collect();
    tracks.sort_by_key(|t| t.tid);
    let counters = COUNTERS.lock().unwrap().iter().map(|(k, v)| (k.clone(), *v)).collect();
    let meta = META.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let hists = hist::all();
    Snapshot { tracks, counters, meta, hists }
}

/// Clear all recorded events and counters in place. Thread-local
/// registrations survive (the buffers are emptied, not detached), so a
/// thread that recorded before a reset keeps recording after it.
pub fn reset() {
    for t in REGISTRY.lock().unwrap().iter() {
        let mut b = t.lock().unwrap();
        b.events.clear();
        b.dropped = 0;
    }
    COUNTERS.lock().unwrap().clear();
    META.lock().unwrap().clear();
    hist::reset_all();
}

/// `span!("name")` — open a span; bind the result to keep it alive:
/// `let _g = span!("gen cand");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// `event!("name")` — record an instant event.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::instant($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state: tests in this binary must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(true);
        g
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = isolated();
        set_enabled(false);
        {
            let _s = span("ignored");
            instant("ignored");
            counter_add("ignored", 5);
        }
        set_enabled(true);
        let snap = snapshot();
        let ours: usize =
            snap.tracks.iter().flat_map(|t| &t.events).filter(|e| e.name == "ignored").count();
        assert_eq!(ours, 0);
        assert_eq!(snap.counter("ignored"), None);
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = isolated();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            instant("mark");
        }
        let snap = snapshot();
        let track = snap
            .tracks
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "outer"))
            .expect("track with our events");
        let mut depth: i64 = 0;
        let mut last_ts = 0;
        for e in &track.events {
            assert!(e.ts_us >= last_ts, "timestamps must be non-decreasing");
            last_ts = e.ts_us;
            match e.kind {
                EventKind::Begin => depth += 1,
                EventKind::End => {
                    depth -= 1;
                    assert!(depth >= 0, "End without Begin");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced spans");
    }

    #[test]
    fn counters_accumulate() {
        let _g = isolated();
        counter_add("cands", 10);
        counter_add("cands", 5);
        gauge_max("peak", 7);
        gauge_max("peak", 3); // lower: must not regress the gauge
        let snap = snapshot();
        assert_eq!(snap.counter("cands"), Some(15));
        assert_eq!(snap.counter("peak"), Some(7));
    }

    #[test]
    fn meta_lands_in_snapshot_and_exports() {
        let _g = isolated();
        meta_set("kernel_tier", "avx2");
        meta_set("kernel_block_pairs", "1024");
        meta_set("kernel_tier", "scalar"); // last write wins
        assert_eq!(meta_value("kernel_tier").as_deref(), Some("scalar"));
        let snap = snapshot();
        assert_eq!(
            snap.meta,
            vec![
                ("kernel_block_pairs".to_string(), "1024".to_string()),
                ("kernel_tier".to_string(), "scalar".to_string()),
            ]
        );
        let trace = crate::export::chrome_trace(&snap);
        assert!(trace.contains("\"otherData\":{\"kernel_block_pairs\":\"1024\""), "{trace}");
        let metrics = crate::export::metrics_json(&snap);
        assert!(metrics.contains("\"meta\":{"), "{metrics}");
        reset();
        assert_eq!(meta_value("kernel_tier"), None, "reset must clear metadata");
    }

    #[test]
    fn meta_disabled_is_noop() {
        let _g = isolated();
        set_enabled(false);
        meta_set("kernel_tier", "avx2");
        set_enabled(true);
        assert_eq!(meta_value("kernel_tier"), None);
    }

    #[test]
    fn scoped_threads_survive_into_snapshot() {
        let _g = isolated();
        std::thread::scope(|s| {
            for rank in 0..3u32 {
                s.spawn(move || {
                    set_track(rank, &format!("rank {rank}"));
                    let _sp = span("phase");
                    counter_add("work", 1);
                });
            }
        });
        let snap = snapshot();
        for rank in 0..3u32 {
            assert!(
                snap.tracks.iter().any(|t| t.tid == rank && t.name == format!("rank {rank}")),
                "missing track for rank {rank}"
            );
        }
        assert_eq!(snap.counter("work"), Some(3));
    }
}
