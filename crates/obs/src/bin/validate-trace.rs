//! validate-trace — schema validation for exported Chrome traces.
//!
//! ```text
//! validate-trace <trace.json> [--require-tracks N] [--require-names a,b,c]
//!                             [--require-flows N]
//! ```
//!
//! Checks, in order:
//! 1. the file is well-formed JSON with a `traceEvents` array;
//! 2. every event carries `ph`, `pid` and `tid`, and every `B`/`E`/
//!    `i`/`C` event carries a numeric `ts`; flow events (`s`/`t`/`f`)
//!    additionally carry a numeric `id`;
//! 3. per track (tid), timestamps are non-decreasing and `B`/`E`
//!    events balance without going negative (valid span nesting);
//! 4. flow pairing: every flow id has exactly one `s` (start) and
//!    exactly one `f` (finish), every `t`/`f` has a matching `s`, and
//!    the finish does not precede the start — the exporter is expected
//!    to drop dangling chains (e.g. a send whose receiver died), so any
//!    unpaired flow in the file is a bug;
//! 5. `--require-tracks N`: at least N named (thread_name) tracks with
//!    at least one span each — one per cluster rank;
//! 6. `--require-names a,b,...`: each name occurs somewhere as a span
//!    or instant event — used by CI to assert the six engine phases,
//!    barrier waits and injected faults all made it into the trace;
//! 7. `--require-flows N`: at least N distinct flow chains — used by CI
//!    to assert causal message arrows survived export.
//!
//! Exits 0 on success, 1 with a message on the first violation.

use efm_obs::json::{parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate-trace: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut path = None;
    let mut require_tracks = 0usize;
    let mut require_flows = 0usize;
    let mut require_names: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-tracks" => {
                require_tracks = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--require-tracks wants a number");
                    std::process::exit(2);
                })
            }
            "--require-flows" => {
                require_flows = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--require-flows wants a number");
                    std::process::exit(2);
                })
            }
            "--require-names" => {
                require_names = it
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
                    .unwrap_or_default()
            }
            other if !other.starts_with('-') => path = Some(other.to_string()),
            _ => {
                eprintln!(
                    "usage: validate-trace <trace.json> [--require-tracks N] \
                     [--require-names a,b,c] [--require-flows N]"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        return fail("no trace file given");
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("not valid JSON: {e}")),
    };
    let Some(events) = doc.get("traceEvents").and_then(Value::as_arr) else {
        return fail("no traceEvents array");
    };

    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut depth: BTreeMap<i64, i64> = BTreeMap::new();
    let mut track_names: BTreeMap<i64, String> = BTreeMap::new();
    let mut tracks_with_spans: BTreeSet<i64> = BTreeSet::new();
    let mut seen_names: BTreeSet<String> = BTreeSet::new();
    // Per flow id: (starts, steps, finishes, start ts, finish ts).
    let mut flows: BTreeMap<i64, (u32, u32, u32, f64, f64)> = BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        let ph = match e.get("ph").and_then(Value::as_str) {
            Some(p) => p,
            None => return fail(&format!("event {i} has no ph")),
        };
        let tid = match e.get("tid").and_then(Value::as_num) {
            Some(t) => t as i64,
            None => return fail(&format!("event {i} has no tid")),
        };
        if e.get("pid").and_then(Value::as_num).is_none() {
            return fail(&format!("event {i} has no pid"));
        }
        match ph {
            "M" => {
                if e.get("name").and_then(Value::as_str) == Some("thread_name") {
                    if let Some(n) =
                        e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str)
                    {
                        track_names.insert(tid, n.to_string());
                    }
                }
                continue;
            }
            "B" | "E" | "i" | "C" | "s" | "t" | "f" => {
                let Some(ts) = e.get("ts").and_then(Value::as_num) else {
                    return fail(&format!("event {i} (ph={ph}) has no ts"));
                };
                let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                if ts < *last {
                    return fail(&format!(
                        "event {i}: ts {ts} goes backwards on tid {tid} (last {last})"
                    ));
                }
                *last = ts;
                if matches!(ph, "s" | "t" | "f") {
                    let Some(id) = e.get("id").and_then(Value::as_num) else {
                        return fail(&format!("event {i} (ph={ph}) has no flow id"));
                    };
                    let entry =
                        flows.entry(id as i64).or_insert((0, 0, 0, f64::INFINITY, f64::INFINITY));
                    match ph {
                        "s" => {
                            entry.0 += 1;
                            entry.3 = ts;
                        }
                        "t" => entry.1 += 1,
                        _ => {
                            entry.2 += 1;
                            entry.4 = ts;
                        }
                    }
                }
            }
            other => return fail(&format!("event {i}: unknown ph {other:?}")),
        }
        if let Some(n) = e.get("name").and_then(Value::as_str) {
            seen_names.insert(n.to_string());
        }
        match ph {
            "B" => {
                *depth.entry(tid).or_insert(0) += 1;
                tracks_with_spans.insert(tid);
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return fail(&format!("event {i}: E without B on tid {tid}"));
                }
            }
            _ => {}
        }
    }
    for (tid, d) in &depth {
        if *d != 0 {
            return fail(&format!("tid {tid}: {d} unclosed span(s)"));
        }
    }
    for (id, (starts, steps, finishes, start_ts, finish_ts)) in &flows {
        if *starts != 1 {
            return fail(&format!("flow {id}: {starts} start(s), want exactly 1"));
        }
        if *finishes != 1 {
            return fail(&format!(
                "flow {id}: {finishes} finish(es) for {starts} start + {steps} step(s), \
                 want exactly 1"
            ));
        }
        if finish_ts < start_ts {
            return fail(&format!("flow {id}: finish ts {finish_ts} precedes start ts {start_ts}"));
        }
    }
    if flows.len() < require_flows {
        return fail(&format!("wanted {require_flows} flow chains, found {}", flows.len()));
    }
    let named_span_tracks =
        tracks_with_spans.iter().filter(|tid| track_names.contains_key(tid)).count();
    if named_span_tracks < require_tracks {
        return fail(&format!(
            "wanted {require_tracks} named tracks with spans, found {named_span_tracks} \
             ({:?})",
            track_names.values().collect::<Vec<_>>()
        ));
    }
    for want in &require_names {
        if !seen_names.iter().any(|n| n.contains(want.as_str())) {
            return fail(&format!("required event name {want:?} never appears"));
        }
    }
    println!(
        "validate-trace: OK: {} events, {} tracks ({} named), {} distinct names, {} flows",
        events.len(),
        tracks_with_spans.len().max(last_ts.len()),
        track_names.len(),
        seen_names.len(),
        flows.len()
    );
    ExitCode::SUCCESS
}
