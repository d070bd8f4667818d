//! Flight recorder: self-contained postmortem bundles.
//!
//! When a chaos run dies — a `ClusterError`, a rank panic, a
//! supervisor restart or failover — the evidence is spread across the
//! in-memory ring buffers, the counter registry, the histogram
//! registry and the supervisor's recovery log, all of which evaporate
//! with the process. [`write_bundle`] freezes that evidence to disk as
//! one directory per incident so the failure is diagnosable after the
//! fact:
//!
//! ```text
//! <postmortem-dir>/pm-003-failover/
//!   manifest.json   incident tag, reason, timestamp, run metadata,
//!                   file inventory
//!   trace.json      Chrome trace of everything still in the ring
//!                   buffers (the "trace tail"); opens in Perfetto,
//!                   passes validate-trace
//!   metrics.json    counters + latency histograms at time of death
//!   <extra files>   caller-supplied context: run_stats.json,
//!                   recovery.txt, checkpoint.fingerprint, …
//! ```
//!
//! The bundle is written best-effort from failure paths: errors are
//! returned but callers are expected to log-and-continue, never to let
//! postmortem I/O mask the original failure. Bundles are numbered by a
//! process-wide sequence so repeated incidents in one supervised run
//! (restart, restart, give-up) sort in causal order.

use crate::json::escape;
use crate::{export, now_us, snapshot};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// Dump a postmortem bundle under `dir` and return the bundle path.
///
/// `tag` names the incident kind (`"failover"`, `"restart"`,
/// `"give-up"`, `"error"`); `reason` is the human-readable cause
/// (typically the rendered error). `extra` is written verbatim as
/// additional files — callers pass serialized `RunStats`, the
/// `RecoveryLog`, a checkpoint fingerprint, whatever they hold that
/// the obs registries do not.
pub fn write_bundle(
    dir: &Path,
    tag: &str,
    reason: &str,
    extra: &[(&str, String)],
) -> io::Result<PathBuf> {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let bundle = dir.join(format!("pm-{seq:03}-{tag}"));
    fs::create_dir_all(&bundle)?;

    let snap = snapshot();
    fs::write(bundle.join("trace.json"), export::chrome_trace(&snap))?;
    fs::write(bundle.join("metrics.json"), export::metrics_json(&snap))?;
    for (name, contents) in extra {
        fs::write(bundle.join(name), contents)?;
    }

    let mut manifest = String::from("{\n");
    let _ = writeln!(manifest, "  \"tag\": \"{}\",", escape(tag));
    let _ = writeln!(manifest, "  \"reason\": \"{}\",", escape(reason));
    let _ = writeln!(manifest, "  \"at_us\": {},", now_us());
    let _ = writeln!(manifest, "  \"events_captured\": {},", snap.event_count());
    manifest.push_str("  \"meta\": {");
    for (i, (k, v)) in snap.meta.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        let _ = write!(manifest, "\n    \"{}\": \"{}\"", escape(k), escape(v));
    }
    manifest.push_str("\n  },\n  \"files\": [\"trace.json\", \"metrics.json\"");
    for (name, _) in extra {
        let _ = write!(manifest, ", \"{}\"", escape(name));
    }
    manifest.push_str("]\n}\n");
    fs::write(bundle.join("manifest.json"), manifest)?;
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bundle_is_self_contained_and_parses() {
        let dir = std::env::temp_dir().join(format!("efm-pm-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_bundle(
            &dir,
            "unit",
            "injected \"failure\" for test",
            &[("recovery.txt", "attempt 1: restarted\n".to_string())],
        )
        .expect("bundle write");
        for f in ["manifest.json", "trace.json", "metrics.json", "recovery.txt"] {
            assert!(path.join(f).is_file(), "missing {f}");
        }
        let manifest = fs::read_to_string(path.join("manifest.json")).unwrap();
        let v = json::parse(&manifest).expect("manifest parses");
        assert_eq!(v.get("tag").and_then(|t| t.as_str()), Some("unit"));
        assert!(v.get("reason").and_then(|r| r.as_str()).unwrap().contains("failure"));
        let trace = fs::read_to_string(path.join("trace.json")).unwrap();
        assert!(json::parse(&trace).is_ok(), "trace must be valid JSON");
        let _ = fs::remove_dir_all(&dir);
    }
}
