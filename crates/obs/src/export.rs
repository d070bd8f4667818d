//! Exporters for a recorded [`Snapshot`].
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON ("JSON Array Format"
//!   wrapped in a `traceEvents` object). Open it in `chrome://tracing`
//!   or drag it into <https://ui.perfetto.dev> to get a per-rank
//!   flamegraph of the six engine phases, barrier waits and faults.
//! * [`jsonl`] — one JSON object per line, easy to grep/stream.
//! * [`metrics_json`] — final counter totals as a single JSON object,
//!   the `--metrics-out` payload.

use crate::json::escape;
use crate::{EventKind, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

/// All tracks share one Chrome "process".
const PID: u32 = 1;

/// Which flow ids have both halves recorded, and which arrival closes
/// each chain. A message sent into a run that aborted may never be
/// received; emitting its lone `ph:"s"` would leave a dangling flow, so
/// the exporter only emits chains that completed. A multi-recipient
/// flow (barrier release, view change) has several arrivals: all but
/// the last become `ph:"t"` steps, the last becomes the `ph:"f"`
/// finish, which is exactly the chain shape the format expects.
struct FlowPlan {
    /// flow id → ts of the final arrival (the `ph:"f"` event).
    finish_ts: BTreeMap<u64, u64>,
}

impl FlowPlan {
    fn build(snap: &Snapshot) -> FlowPlan {
        let mut starts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
        for t in &snap.tracks {
            for e in &t.events {
                match e.kind {
                    EventKind::FlowStart(id) => {
                        starts.entry(id).or_insert(e.ts_us);
                    }
                    EventKind::FlowEnd(id) => {
                        let slot = last_end.entry(id).or_insert(e.ts_us);
                        *slot = (*slot).max(e.ts_us);
                    }
                    _ => {}
                }
            }
        }
        let finish_ts = last_end.into_iter().filter(|(id, _)| starts.contains_key(id)).collect();
        FlowPlan { finish_ts }
    }

    /// `Some(ph)` if this event should be emitted, `None` to drop it.
    fn phase(&self, kind: &EventKind, ts_us: u64) -> Option<&'static str> {
        match kind {
            EventKind::FlowStart(id) => self.finish_ts.contains_key(id).then_some("s"),
            EventKind::FlowEnd(id) => {
                let last = *self.finish_ts.get(id)?;
                Some(if ts_us >= last { "f" } else { "t" })
            }
            _ => None,
        }
    }
}

/// Render the snapshot as Chrome `trace_event` JSON.
///
/// Span events use `ph:"B"`/`ph:"E"`, instants `ph:"i"` (thread scope),
/// counter samples `ph:"C"`. Per-track `thread_name` metadata labels
/// ranks, and `thread_sort_index` keeps rank order stable in the UI.
/// Timestamps are microseconds, as the format requires.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let flows = FlowPlan::build(snap);
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    emit(
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"efm-suite\"}}}}"
        ),
        &mut out,
    );
    for t in &snap.tracks {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                escape(&t.name)
            ),
            &mut out,
        );
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                t.tid, t.tid
            ),
            &mut out,
        );
    }
    for t in &snap.tracks {
        for e in &t.events {
            let line = match &e.kind {
                EventKind::Begin => format!(
                    "{{\"ph\":\"B\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                    t.tid,
                    e.ts_us,
                    escape(&e.name)
                ),
                EventKind::End => {
                    format!("{{\"ph\":\"E\",\"pid\":{PID},\"tid\":{},\"ts\":{}}}", t.tid, e.ts_us)
                }
                EventKind::Instant => format!(
                    "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                     \"s\":\"t\"}}",
                    t.tid,
                    e.ts_us,
                    escape(&e.name)
                ),
                EventKind::Counter(v) => format!(
                    "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                     \"args\":{{\"value\":{v}}}}}",
                    t.tid,
                    e.ts_us,
                    escape(&e.name)
                ),
                EventKind::FlowStart(id) | EventKind::FlowEnd(id) => {
                    let Some(ph) = flows.phase(&e.kind, e.ts_us) else { continue };
                    // `bp:"e"` binds the finish to its enclosing slice,
                    // which is how Perfetto anchors the arrow head.
                    let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
                    format!(
                        "{{\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{},\"ts\":{},\
                         \"name\":\"{}\",\"cat\":\"flow\",\"id\":{id}{bp}}}",
                        t.tid,
                        e.ts_us,
                        escape(&e.name)
                    )
                }
            };
            emit(line, &mut out);
        }
        if t.dropped > 0 {
            let ts = t.events.last().map_or(0, |e| e.ts_us);
            emit(
                format!(
                    "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"ts\":{ts},\
                     \"name\":\"{} events dropped (track full)\",\"s\":\"t\"}}",
                    t.tid, t.dropped
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n]");
    if !snap.meta.is_empty() {
        // `otherData` is the trace_event format's free-form metadata
        // object; chrome://tracing and Perfetto show it in the trace
        // info panel and ignore unknown keys.
        out.push_str(",\n\"otherData\":{");
        for (i, (name, value)) in snap.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(name), escape(value));
        }
        out.push('}');
    }
    out.push_str("}\n");
    out
}

/// Render the snapshot as JSONL: one event object per line, ordered by
/// track then record order. Fields: `ts_us`, `tid`, `track`, `ph`
/// (`B`/`E`/`I`/`C`, flow halves `s`/`f`), `name`, `value` for counter
/// samples and `flow` for flow events. Unlike [`chrome_trace`], flow
/// halves are emitted raw (no pairing pass) — JSONL is the grep
/// format, and a dangling send is precisely what one greps for.
pub fn jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for t in &snap.tracks {
        for e in &t.events {
            let (ph, value, flow) = match &e.kind {
                EventKind::Begin => ("B", None, None),
                EventKind::End => ("E", None, None),
                EventKind::Instant => ("I", None, None),
                EventKind::Counter(v) => ("C", Some(*v), None),
                EventKind::FlowStart(id) => ("s", None, Some(*id)),
                EventKind::FlowEnd(id) => ("f", None, Some(*id)),
            };
            let _ = write!(
                out,
                "{{\"ts_us\":{},\"tid\":{},\"track\":\"{}\",\"ph\":\"{}\",\"name\":\"{}\"",
                e.ts_us,
                t.tid,
                escape(&t.name),
                ph,
                escape(&e.name)
            );
            if let Some(v) = value {
                let _ = write!(out, ",\"value\":{v}");
            }
            if let Some(id) = flow {
                let _ = write!(out, ",\"flow\":{id}");
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Final counter/gauge totals as one JSON object:
/// `{"counters":{...},"meta":{...},"histograms":{...}}` (the `meta`
/// and `histograms` sections are omitted when empty). Each histogram
/// reports `count`, `sum`, `mean`, `p50`/`p95`/`p99`, `max`, and its
/// non-empty log buckets as `"log2_bucket": count` pairs, which keeps
/// the object mergeable downstream.
pub fn metrics_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  \"{}\": {}", escape(name), value);
    }
    out.push_str("\n}");
    if !snap.meta.is_empty() {
        out.push_str(",\"meta\":{");
        for (i, (name, value)) in snap.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  \"{}\": \"{}\"", escape(name), escape(value));
        }
        out.push_str("\n}");
    }
    if !snap.hists.is_empty() {
        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in snap.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  \"{}\": {{\"count\":{},\"sum\":{},\"mean\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"buckets\":{{",
                escape(name),
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            );
            let mut firstb = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    if !std::mem::take(&mut firstb) {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{b}\":{c}");
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n}");
    }
    out.push_str("}\n");
    out
}

/// Write [`chrome_trace`] output to `w`.
pub fn write_chrome_trace<W: Write>(snap: &Snapshot, w: &mut W) -> io::Result<()> {
    w.write_all(chrome_trace(snap).as_bytes())
}

/// Write [`jsonl`] output to `w`.
pub fn write_jsonl<W: Write>(snap: &Snapshot, w: &mut W) -> io::Result<()> {
    w.write_all(jsonl(snap).as_bytes())
}

/// Write [`metrics_json`] output to `w`.
pub fn write_metrics<W: Write>(snap: &Snapshot, w: &mut W) -> io::Result<()> {
    w.write_all(metrics_json(snap).as_bytes())
}
