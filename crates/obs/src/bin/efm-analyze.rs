//! efm-analyze — critical-path extraction and wall-clock attribution for
//! exported cluster traces.
//!
//! ```text
//! efm-analyze <trace.json> [--json <out.json>]
//! efm-analyze --check-bundle <dir>
//! ```
//!
//! The first form walks a merged Chrome trace (as written by `--trace`),
//! reconstructs the cross-rank happens-before graph from flow events
//! (`ph:"s"/"t"/"f"` bind a sender timestamp to every receiver timestamp),
//! and reports:
//!
//! * **Attribution** — every microsecond of every rank track is charged
//!   to a category by its *innermost* enclosing span: `compute` (engine
//!   phases, setup, iteration, finalize), `comm` (communicate /
//!   allgather / message spans), `barrier` (barrier waits), `straggler`
//!   (injected straggle sleeps), `checkpoint` (snapshot writes), or
//!   `recovery` (inter-attempt gaps bracketed by a supervisor action).
//!   Time covered by no span and no supervisor action is `other` — the
//!   honesty bucket; coverage is reported against it.
//! * **Critical path** — starting from the last event on the
//!   latest-finishing rank, the walk repeatedly jumps backward through
//!   the most recent flow arrival on the current track to the sender's
//!   timestamp, yielding the chain of segments that actually bounded the
//!   run. Each segment is attributed with the same category sweep, and
//!   the path records whether it crossed a `view change` edge (the
//!   failover handoff) — the signature of a run whose length was set by
//!   a rank death.
//! * **Per-subset totals** — wall time under `subset <id>: …` spans, for
//!   divide-and-conquer runs.
//!
//! Output is a JSON document (stdout, or `--json <path>`) plus a
//! human-readable table on stderr.
//!
//! The second form validates a postmortem bundle directory written by the
//! flight recorder: the manifest parses, every file it lists exists, and
//! the contained trace/metrics parse as JSON.

use efm_obs::json::{escape, parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

const CATEGORIES: [&str; 7] =
    ["compute", "comm", "barrier", "straggler", "checkpoint", "recovery", "other"];

/// Innermost-span name → attribution category.
fn category(name: &str) -> &'static str {
    let n = name;
    if n.starts_with("barrier wait") || n.starts_with("barrier release") {
        "barrier"
    } else if n == "straggle" {
        "straggler"
    } else if n.starts_with("allgather")
        || n.starts_with("communicate")
        || n.starts_with("allreduce")
        || n.starts_with("broadcast")
        || n.starts_with("gather")
        || n.starts_with("scatter")
        || n.starts_with("send")
        || n.starts_with("recv")
        || n.starts_with("msg ")
    {
        "comm"
    } else if n.starts_with("checkpoint") {
        "checkpoint"
    } else {
        "compute"
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Ph {
    Meta,
    Begin,
    End,
    Instant,
    Counter,
    FlowStart,
    FlowStep,
    FlowEnd,
}

struct Ev {
    ph: Ph,
    ts: f64,
    name: String,
}

struct Trace {
    /// Per-tid events in timestamp order (export order within a track).
    by_tid: BTreeMap<i64, Vec<Ev>>,
    track_names: BTreeMap<i64, String>,
    /// `supervisor: …` instants, any track, sorted by ts.
    supervisor_ts: Vec<f64>,
    /// flow id → (sender tid, sender ts, flow name).
    flow_src: BTreeMap<i64, (i64, f64, String)>,
    /// Per-tid flow arrivals (`t`/`f`): (ts, flow id), sorted by ts.
    arrivals: BTreeMap<i64, Vec<(f64, i64)>>,
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text)?;
    let events = doc.get("traceEvents").and_then(Value::as_arr).ok_or("no traceEvents array")?;
    let mut t = Trace {
        by_tid: BTreeMap::new(),
        track_names: BTreeMap::new(),
        supervisor_ts: Vec::new(),
        flow_src: BTreeMap::new(),
        arrivals: BTreeMap::new(),
    };
    for e in events {
        let ph = match e.get("ph").and_then(Value::as_str) {
            Some("M") => Ph::Meta,
            Some("B") => Ph::Begin,
            Some("E") => Ph::End,
            Some("i") | Some("I") => Ph::Instant,
            Some("C") => Ph::Counter,
            Some("s") => Ph::FlowStart,
            Some("t") => Ph::FlowStep,
            Some("f") => Ph::FlowEnd,
            _ => continue,
        };
        let tid = e.get("tid").and_then(Value::as_num).unwrap_or(0.0) as i64;
        let name = e.get("name").and_then(Value::as_str).unwrap_or("").to_string();
        if ph == Ph::Meta {
            if name == "thread_name" {
                if let Some(n) = e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str) {
                    t.track_names.insert(tid, n.to_string());
                }
            }
            continue;
        }
        let Some(ts) = e.get("ts").and_then(Value::as_num) else { continue };
        let id = e.get("id").and_then(Value::as_num).unwrap_or(-1.0) as i64;
        if ph == Ph::Instant && name.starts_with("supervisor:") {
            t.supervisor_ts.push(ts);
        }
        match ph {
            Ph::FlowStart => {
                t.flow_src.insert(id, (tid, ts, name.clone()));
            }
            Ph::FlowStep | Ph::FlowEnd => {
                t.arrivals.entry(tid).or_default().push((ts, id));
            }
            _ => {}
        }
        t.by_tid.entry(tid).or_default().push(Ev { ph, ts, name });
    }
    t.supervisor_ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for v in t.arrivals.values_mut() {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    Ok(t)
}

/// One track's attribution: per-category microseconds plus the uncovered
/// gaps (for recovery classification) and subset span totals.
#[derive(Default)]
struct Sweep {
    cats: BTreeMap<&'static str, f64>,
    gaps: Vec<(f64, f64)>,
    subsets: BTreeMap<u64, f64>,
    first_ts: f64,
    last_ts: f64,
}

/// Stack sweep over one track, optionally clipped to `[clip0, clip1]`.
/// Every elementary interval between consecutive events is charged to the
/// innermost open span's category; stack-empty intervals become gaps.
fn sweep(events: &[Ev], clip: Option<(f64, f64)>) -> Sweep {
    let mut s = Sweep::default();
    if events.is_empty() {
        return s;
    }
    s.first_ts = events[0].ts;
    s.last_ts = events[events.len() - 1].ts;
    let (c0, c1) = clip.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
    let mut stack: Vec<&str> = Vec::new();
    let mut subset_open: Vec<(u64, f64)> = Vec::new();
    let mut prev = events[0].ts;
    for e in events {
        let (a, b) = (prev.max(c0), e.ts.min(c1));
        if b > a {
            match stack.last() {
                Some(top) => *s.cats.entry(category(top)).or_insert(0.0) += b - a,
                None => s.gaps.push((a, b)),
            }
        }
        match e.ph {
            Ph::Begin => {
                if let Some(rest) = e.name.strip_prefix("subset ") {
                    let id: Option<u64> = rest
                        .split(|c: char| !c.is_ascii_digit())
                        .next()
                        .and_then(|d| d.parse().ok());
                    if let Some(id) = id {
                        subset_open.push((id, e.ts.max(c0)));
                    }
                }
                stack.push(&e.name);
            }
            Ph::End => {
                if let Some(top) = stack.pop() {
                    if top.starts_with("subset ") {
                        if let Some((id, t0)) = subset_open.pop() {
                            let t1 = e.ts.min(c1);
                            if t1 > t0 {
                                *s.subsets.entry(id).or_insert(0.0) += t1 - t0;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        prev = e.ts;
    }
    s
}

/// Reclassifies a track's gaps: a gap bracketing a supervisor action is
/// recovery (the rank was torn down and respawned); anything else stays
/// unattributed.
fn settle_gaps(s: &mut Sweep, supervisor_ts: &[f64]) {
    for (g0, g1) in std::mem::take(&mut s.gaps) {
        let recovery = supervisor_ts.iter().any(|ts| *ts >= g0 && *ts <= g1);
        let cat = if recovery { "recovery" } else { "other" };
        *s.cats.entry(cat).or_insert(0.0) += g1 - g0;
    }
}

struct CpSegment {
    tid: i64,
    t0: f64,
    t1: f64,
    via: Option<String>,
}

/// Backward happens-before walk: from `(tid, t)`, the most recent flow
/// arrival at or before `t` hands the path to the sender's timestamp;
/// with no arrival left, the path runs to the track's first event and
/// terminates. Each flow id is used at most once, so the walk always
/// terminates even on ties.
fn critical_path(trace: &Trace, start_tid: i64, start_ts: f64) -> (Vec<CpSegment>, bool) {
    let mut segs = Vec::new();
    let mut crossed = false;
    let mut used: BTreeSet<i64> = BTreeSet::new();
    let mut cur = (start_tid, start_ts);
    for _ in 0..100_000 {
        let (tid, t) = cur;
        let first_ts = trace.by_tid.get(&tid).and_then(|v| v.first()).map_or(t, |e| e.ts);
        let hop = trace.arrivals.get(&tid).and_then(|arr| {
            arr.iter()
                .rev()
                .find(|(ts, id)| *ts <= t && !used.contains(id) && trace.flow_src.contains_key(id))
        });
        match hop {
            Some(&(ats, id)) => {
                used.insert(id);
                let (stid, sts, ref name) = trace.flow_src[&id];
                segs.push(CpSegment { tid, t0: ats, t1: t, via: Some(name.clone()) });
                crossed |= name == "view change";
                cur = (stid, sts);
            }
            None => {
                segs.push(CpSegment { tid, t0: first_ts, t1: t, via: None });
                break;
            }
        }
    }
    (segs, crossed)
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.0}us")
    }
}

fn check_bundle(dir: &str) -> ExitCode {
    let dir = std::path::Path::new(dir);
    let manifest = dir.join("manifest.json");
    let text = match std::fs::read_to_string(&manifest) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {}: {e}", manifest.display())),
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("manifest is not valid JSON: {e}")),
    };
    for key in ["tag", "reason", "at_us", "files"] {
        if doc.get(key).is_none() {
            return fail(&format!("manifest missing {key:?}"));
        }
    }
    let files = doc.get("files").and_then(Value::as_arr).unwrap_or(&[]);
    for f in files {
        let Some(name) = f.as_str() else { continue };
        let path = dir.join(name);
        if !path.exists() {
            return fail(&format!("manifest lists {name} but it is missing"));
        }
        if name.ends_with(".json") {
            let body = match std::fs::read_to_string(&path) {
                Ok(b) => b,
                Err(e) => return fail(&format!("cannot read {name}: {e}")),
            };
            if let Err(e) = parse(&body) {
                return fail(&format!("{name} is not valid JSON: {e}"));
            }
        }
    }
    let trace = dir.join("trace.json");
    if trace.exists() {
        let body = std::fs::read_to_string(&trace).unwrap_or_default();
        match parse(&body) {
            Ok(d) if d.get("traceEvents").and_then(Value::as_arr).is_some() => {}
            _ => return fail("trace.json has no traceEvents array"),
        }
    }
    println!(
        "efm-analyze: bundle OK: tag={} files={}",
        doc.get("tag").and_then(Value::as_str).unwrap_or("?"),
        files.len()
    );
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("efm-analyze: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut path = None;
    let mut json_out = None;
    let mut bundle = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = it.next(),
            "--check-bundle" => bundle = it.next(),
            other if !other.starts_with('-') => path = Some(other.to_string()),
            _ => {
                eprintln!(
                    "usage: efm-analyze <trace.json> [--json out.json] | \
                     efm-analyze --check-bundle <dir>"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = bundle {
        return check_bundle(&dir);
    }
    let Some(path) = path else {
        return fail("no trace file given");
    };
    let trace = match load(&path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };

    // --- Per-track attribution. Coverage is judged on rank tracks only:
    // auxiliary tracks (supervisor, heartbeat detector) are mostly idle
    // by design and would poison the denominator.
    let mut per_track: BTreeMap<i64, Sweep> = BTreeMap::new();
    let mut subsets: BTreeMap<u64, f64> = BTreeMap::new();
    for (tid, events) in &trace.by_tid {
        let mut s = sweep(events, None);
        settle_gaps(&mut s, &trace.supervisor_ts);
        for (id, us) in &s.subsets {
            *subsets.entry(*id).or_insert(0.0) += us;
        }
        per_track.insert(*tid, s);
    }
    let is_rank = |tid: &i64| trace.track_names.get(tid).is_some_and(|n| n.starts_with("rank "));
    let rank_tids: Vec<i64> = trace.by_tid.keys().copied().filter(is_rank).collect();
    if rank_tids.is_empty() {
        return fail("no rank tracks in trace (was it recorded with --trace on a cluster run?)");
    }
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rank_wall = 0.0f64;
    for tid in &rank_tids {
        let s = &per_track[tid];
        rank_wall += s.last_ts - s.first_ts;
        for (c, us) in &s.cats {
            *totals.entry(c).or_insert(0.0) += us;
        }
    }
    let other = totals.get("other").copied().unwrap_or(0.0);
    let coverage_pct = if rank_wall > 0.0 { 100.0 * (1.0 - other / rank_wall) } else { 100.0 };

    // --- Critical path from the latest-finishing rank.
    let (&end_tid, end_sweep) = per_track
        .iter()
        .filter(|(tid, _)| is_rank(tid))
        .max_by(|a, b| a.1.last_ts.partial_cmp(&b.1.last_ts).unwrap())
        .expect("rank tracks are non-empty");
    let (segs, crosses_view_change) = critical_path(&trace, end_tid, end_sweep.last_ts);
    let mut cp_cats: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut cp_len = 0.0f64;
    for seg in &segs {
        cp_len += seg.t1 - seg.t0;
        if let Some(events) = trace.by_tid.get(&seg.tid) {
            let mut s = sweep(events, Some((seg.t0, seg.t1)));
            settle_gaps(&mut s, &trace.supervisor_ts);
            for (c, us) in &s.cats {
                *cp_cats.entry(c).or_insert(0.0) += us;
            }
        }
    }

    // --- JSON report.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"trace\": \"{}\",", escape(&path));
    let _ = writeln!(out, "  \"rank_wall_us\": {rank_wall:.0},");
    let _ = writeln!(out, "  \"coverage_pct\": {coverage_pct:.2},");
    out.push_str("  \"totals_us\": {");
    for (i, c) in CATEGORIES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{c}\": {:.0}", totals.get(c).copied().unwrap_or(0.0));
    }
    out.push_str("},\n  \"ranks\": [\n");
    for (i, tid) in rank_tids.iter().enumerate() {
        let s = &per_track[tid];
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"tid\": {tid}, \"name\": \"{}\", \"wall_us\": {:.0}, \"categories_us\": {{",
            escape(trace.track_names.get(tid).map_or("", |s| s)),
            s.last_ts - s.first_ts
        );
        for (j, c) in CATEGORIES.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{c}\": {:.0}", s.cats.get(c).copied().unwrap_or(0.0));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n  \"subsets\": [");
    for (i, (id, us)) in subsets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"id\": {id}, \"total_us\": {us:.0}}}");
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"critical_path\": {{\n    \"length_us\": {cp_len:.0},");
    let _ = writeln!(out, "    \"segments\": {},", segs.len());
    let _ = writeln!(out, "    \"crosses_view_change\": {crosses_view_change},");
    out.push_str("    \"categories_us\": {");
    for (i, c) in CATEGORIES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{c}\": {:.0}", cp_cats.get(c).copied().unwrap_or(0.0));
    }
    out.push_str("},\n    \"path\": [\n");
    for (i, seg) in segs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "      {{\"tid\": {}, \"track\": \"{}\", \"t0_us\": {:.0}, \"t1_us\": {:.0}{}}}",
            seg.tid,
            escape(trace.track_names.get(&seg.tid).map_or("", |s| s)),
            seg.t0,
            seg.t1,
            seg.via.as_ref().map(|v| format!(", \"via\": \"{}\"", escape(v))).unwrap_or_default()
        );
    }
    out.push_str("\n    ]\n  }\n}\n");
    match &json_out {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &out) {
                return fail(&format!("cannot write {p}: {e}"));
            }
        }
        None => print!("{out}"),
    }

    // --- Human table (stderr so the JSON on stdout stays pipeable).
    eprintln!(
        "efm-analyze: {} ({} tracks, {} rank tracks)",
        path,
        trace.by_tid.len(),
        rank_tids.len()
    );
    eprintln!("{:<12} {:>10} {:>8}", "category", "total", "share");
    for c in CATEGORIES {
        let us = totals.get(c).copied().unwrap_or(0.0);
        if us == 0.0 {
            continue;
        }
        eprintln!("{c:<12} {:>10} {:>7.1}%", fmt_us(us), 100.0 * us / rank_wall.max(1.0));
    }
    eprintln!("coverage: {coverage_pct:.1}% of {} rank wall-clock attributed", fmt_us(rank_wall));
    eprintln!(
        "critical path: {} across {} segment(s), crosses view change: {crosses_view_change}",
        fmt_us(cp_len),
        segs.len()
    );
    if !subsets.is_empty() {
        let top: Vec<String> =
            subsets.iter().map(|(id, us)| format!("subset {id}: {}", fmt_us(*us))).collect();
        eprintln!("subsets: {}", top.join(", "));
    }
    ExitCode::SUCCESS
}
