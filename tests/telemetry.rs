//! Telemetry round-trips: the Chrome-trace and JSONL exporters must emit
//! well-formed JSON with balanced, per-track monotonic span nesting, and
//! turning tracing on must not change what the engine computes.
//!
//! The telemetry sinks are process-wide globals, so every test here takes
//! `OBS_LOCK` and resets the registry before touching them (separate test
//! binaries are separate processes and cannot race these).

use efm_cluster::ClusterConfig;
use efm_core::{
    Backend, DncConfig, EfmError, EfmOptions, EfmOutcome, RecoveryAction, Run, SuperviseConfig,
    COUNTERS,
};
use efm_metnet::generator::{random_network, RandomNetworkParams};
use efm_metnet::{parse_network, MetabolicNetwork};
use efm_numeric::{DynInt, F64Tol};
use efm_obs::json::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn network_i_lite() -> MetabolicNetwork {
    let text: String = efm_metnet::yeast::NETWORK_I_TEXT
        .lines()
        .filter(|l| {
            let name = l.split(':').next().unwrap_or("").trim();
            name != "R15" && name != "R70"
        })
        .map(|l| format!("{l}\n"))
        .collect();
    parse_network(&text).unwrap()
}

/// Runs `f` with tracing enabled against a clean registry; returns the
/// snapshot taken after `f` and always disables tracing again.
fn traced<R>(f: impl FnOnce() -> R) -> (R, efm_obs::Snapshot) {
    efm_obs::reset();
    efm_obs::set_enabled(true);
    let r = f();
    efm_obs::set_enabled(false);
    (r, efm_obs::snapshot())
}

/// Per-tid structural checks on parsed Chrome trace events: timestamps
/// never go backwards, B/E depth never goes negative, and every span that
/// opens also closes.
fn check_track_structure(events: &[&BTreeMap<String, Value>]) {
    let mut last_ts = f64::NEG_INFINITY;
    let mut depth = 0i64;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("event has ph");
        if ph == "M" {
            continue; // metadata records carry no timestamp ordering
        }
        let ts = ev.get("ts").and_then(Value::as_num).expect("event has ts");
        assert!(ts >= last_ts, "timestamps must be monotonic per track: {ts} < {last_ts}");
        last_ts = ts;
        match ph {
            "B" => depth += 1,
            "E" => {
                depth -= 1;
                assert!(depth >= 0, "span end without matching begin");
            }
            "i" | "C" | "s" | "t" | "f" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(depth, 0, "every span must close by end of track");
}

#[test]
fn chrome_trace_roundtrips_and_nests() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(3));
    let (out, snap) = traced(|| {
        Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap()
    });
    assert!(!out.efms.is_empty());
    assert!(snap.event_count() > 0, "a traced cluster run must record events");

    let text = efm_obs::export::chrome_trace(&snap);
    let root = efm_obs::json::parse(&text).expect("exporter must emit valid JSON");
    let events =
        root.get("traceEvents").and_then(Value::as_arr).expect("top-level traceEvents array");
    assert!(!events.is_empty());

    // Group by tid and check structure per track.
    let mut by_tid: BTreeMap<i64, Vec<&BTreeMap<String, Value>>> = BTreeMap::new();
    for ev in events {
        let Value::Obj(obj) = ev else { panic!("every trace event is an object") };
        let tid = obj.get("tid").and_then(Value::as_num).expect("event has tid") as i64;
        by_tid.entry(tid).or_default().push(obj);
    }
    assert!(by_tid.len() >= 3, "expected one track per rank, got {}", by_tid.len());
    for track in by_tid.values() {
        check_track_structure(track);
    }

    // All six engine phases of Algorithm 2 appear somewhere in the trace.
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    for phase in ["gen cand", "sort/dedup", "tree filter", "rank test", "communicate", "merge"] {
        assert!(names.contains(&phase), "phase {phase:?} missing from trace");
    }
}

#[test]
fn jsonl_export_is_line_wise_valid() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let (_, snap) = traced(|| {
        Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap()
    });
    let text = efm_obs::export::jsonl(&snap);
    let mut lines = 0;
    let mut last_ts_per_tid: BTreeMap<i64, f64> = BTreeMap::new();
    for line in text.lines() {
        let v = efm_obs::json::parse(line).expect("every JSONL line parses");
        let ts = v.get("ts_us").and_then(Value::as_num).expect("line has ts_us");
        let tid = v.get("tid").and_then(Value::as_num).expect("line has tid") as i64;
        let ph = v.get("ph").and_then(Value::as_str).expect("line has ph");
        assert!(["B", "E", "I", "C", "s", "f"].contains(&ph), "unexpected ph {ph:?}");
        let name = v.get("name").and_then(Value::as_str).expect("line has name");
        assert!(ph == "E" || !name.is_empty(), "only End events may omit the name");
        let last = last_ts_per_tid.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *last, "JSONL timestamps must be monotonic per tid");
        *last = ts;
        lines += 1;
    }
    assert!(lines > 0);
    assert_eq!(lines, snap.event_count(), "one line per recorded event");
}

/// Every declared counter reads in the metrics JSON what `RunStats` holds
/// (an absent key reads 0) on every backend and on a divide-and-conquer
/// run. The cluster input guards against double counting: every rank
/// holds whole-cluster statistics, but each pair enters the telemetry
/// once.
#[test]
fn metrics_json_carries_engine_counters() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = network_i_lite();
    let (red, _) = efm_metnet::compress(&net);
    let on = |backend| Run { backend, ..Default::default() };
    let split = Run {
        partition: efm_bench::pick_partition(&net, &red, &["R89r", "R74r"], 2),
        ..Default::default()
    };
    let runs = [
        ("serial", on(Backend::Serial)),
        ("rayon", on(Backend::Rayon)),
        ("3-rank cluster", on(Backend::Cluster(ClusterConfig::new(3)))),
        ("two-reaction split", split),
    ];
    for (label, run) in runs {
        let (out, snap) = traced(|| run.enumerate::<F64Tol>(&net).unwrap());
        let text = efm_obs::export::metrics_json(&snap);
        let root = efm_obs::json::parse(&text).expect("metrics must be valid JSON");
        let counters = root.get("counters").expect("counters object");
        let read = |name: &str| counters.get(name).and_then(Value::as_num).unwrap_or(0.0) as u64;
        for c in COUNTERS {
            assert_eq!(read(c.name), (c.get)(&out.stats), "{label}: {}", c.name);
        }
        assert!(out.stats.candidates_generated > 0, "{label}");
        assert_eq!(read("lp solves"), out.compression.lp_solves as u64, "{label}");
    }
}

#[test]
fn tracing_is_inert_on_yeast_lite() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = network_i_lite();
    let opts = EfmOptions::default();
    efm_obs::set_enabled(false);
    let plain = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    let (traced_out, snap) = traced(|| {
        Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap()
    });
    assert_eq!(plain.efms, traced_out.efms, "tracing must not change the EFM set");
    assert_eq!(plain.stats.candidates_generated, traced_out.stats.candidates_generated);
    assert_eq!(plain.stats.rank_tests, traced_out.stats.rank_tests);
    assert_eq!(plain.stats.dedup_hits, traced_out.stats.dedup_hits);
    assert!(snap.event_count() > 0);
}

#[test]
fn chrome_trace_flow_events_pair_up() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(3));
    let (_, snap) = traced(|| {
        Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap();
        // A deliberately dangling flow: started, never finished. The
        // exporter must drop the whole chain, not emit an unpaired "s".
        let dangling = efm_obs::next_flow_id();
        efm_obs::flow_start("dangling", dangling);
    });
    let text = efm_obs::export::chrome_trace(&snap);
    let root = efm_obs::json::parse(&text).unwrap();
    let events = root.get("traceEvents").and_then(Value::as_arr).unwrap();
    // Per flow id: (starts, finishes).
    let mut flows: BTreeMap<i64, (u32, u32)> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        if !matches!(ph, "s" | "t" | "f") {
            continue;
        }
        assert_eq!(e.get("cat").and_then(Value::as_str), Some("flow"));
        let id = e.get("id").and_then(Value::as_num).expect("flow event has id") as i64;
        let entry = flows.entry(id).or_insert((0, 0));
        match ph {
            "s" => entry.0 += 1,
            "f" => entry.1 += 1,
            _ => {}
        }
    }
    assert!(!flows.is_empty(), "a cluster run must record message flows");
    for (id, (starts, finishes)) in &flows {
        assert_eq!(*starts, 1, "flow {id}: every chain has exactly one start");
        assert_eq!(*finishes, 1, "flow {id}: every chain has exactly one finish");
    }
    assert!(
        !events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("dangling")),
        "dangling flows must be dropped at export"
    );
}

/// Counts the spans named `name` opened on any track.
fn spans_named(snap: &efm_obs::Snapshot, name: &str) -> usize {
    snap.tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, efm_obs::EventKind::Begin) && e.name == name)
        .count()
}

fn is_memory(r: &Result<EfmOutcome, EfmError>) -> bool {
    matches!(r, Err(EfmError::Cluster(e)) if e.is_memory_exceeded())
}

/// The supervised memory-escalation case: the network is compressed once
/// for the whole session, and the unsplit enumeration runs once — the
/// supervisor's failed attempt is the ladder's unsplit rung, not replayed
/// by it. Every rank of every cluster run opens one `setup` span, so the
/// session's `setup` spans are the failed attempt's plus each rung's.
#[test]
fn supervised_escalation_compresses_once_and_runs_unsplit_once() {
    let _g = OBS_LOCK.lock().unwrap();
    let net = efm_metnet::examples::toy_network();
    let capped = |bytes| Backend::Cluster(ClusterConfig::new(2).with_memory_limit(bytes));
    let on = |backend| Run { backend, ..Default::default() };
    // The largest cap that still aborts the unsplit toy run: its subsets
    // then have the most room.
    let cap = [96u64, 128, 160, 192, 256, 320, 384, 512, 768, 1024]
        .into_iter()
        .filter(|&b| is_memory(&on(capped(b)).enumerate::<DynInt>(&net)))
        .max()
        .expect("some cap trips the unsplit toy run");
    let (direct, direct_snap) = traced(|| on(capped(cap)).enumerate::<DynInt>(&net));
    assert!(is_memory(&direct));
    assert_eq!(spans_named(&direct_snap, "setup"), 2, "one setup span per rank");

    let dir = std::env::temp_dir().join(format!("efm-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("escalate.efck");
    let _ = std::fs::remove_file(&path);
    let sup = SuperviseConfig::new(&path);
    let session = Run {
        backend: capped(cap),
        escalate: Some(2),
        supervise: Some(sup.clone()),
        ..Default::default()
    };
    let (result, snap) = traced(|| session.enumerate::<DynInt>(&net));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(spans_named(&snap, "compress"), 1, "one compression per session");

    // The rungs that ran, from the outcome or (when every rung failed)
    // from the same suggestions the ladder took.
    let rungs: Vec<Vec<String>> = match &result {
        Ok(out) => {
            assert_eq!(out.escalation.iter().filter(|a| a.qsub == 0).count(), 1);
            assert!(out.escalation[0].error.is_some(), "the unsplit rung is the failed attempt");
            assert!(out.escalation.last().unwrap().error.is_none());
            out.escalation.iter().skip(1).map(|a| a.partition.clone()).collect()
        }
        Err(EfmError::RestartsExhausted { log, .. }) => {
            let escalations =
                log.events.iter().filter(|e| e.action == RecoveryAction::Escalated).count();
            assert_eq!(escalations, 1, "{log}");
            let (red, _) = efm_metnet::compress(&net);
            (1..=2)
                .map(|q| (q, efm_core::suggest_partition(&net, &red, q)))
                .take_while(|(q, p)| p.len() >= *q)
                .map(|(_, p)| p)
                .collect()
        }
        Err(other) => panic!("unexpected {other:?}"),
    };
    let dnc = DncConfig { max_retries: sup.max_restarts, ..Default::default() };
    let rung_setups: usize = rungs
        .into_iter()
        .map(|partition| {
            let rung =
                Run { backend: capped(cap), partition, dnc: dnc.clone(), ..Default::default() };
            spans_named(&traced(|| rung.enumerate::<DynInt>(&net)).1, "setup")
        })
        .sum();
    assert_eq!(
        spans_named(&snap, "setup"),
        2 + rung_setups,
        "the unsplit attempt ran once; the ladder did not replay it"
    );
}

/// Builds a histogram over `values`.
fn hist_of(values: &[u64]) -> efm_obs::hist::Histogram {
    let mut h = efm_obs::hist::Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn histogram_rank0_aggregation_equals_global_recording() {
    // Merging per-rank histograms at rank 0 must equal recording every
    // observation into one histogram — the invariant that makes the
    // metrics export meaningful for multi-rank runs.
    let per_rank: Vec<Vec<u64>> =
        vec![vec![1, 5, 900, 17], vec![0, 2, 2, 1 << 40], vec![33, 33, 33]];
    let mut merged = efm_obs::hist::Histogram::default();
    for rank in &per_rank {
        merged.merge(&hist_of(rank));
    }
    let all: Vec<u64> = per_rank.concat();
    let global = hist_of(&all);
    assert_eq!(merged, global);
    assert_eq!(merged.count, all.len() as u64);
    assert_eq!(merged.max, 1 << 40);
}

#[test]
fn histogram_resume_unmerge_corrects_double_count() {
    // Resume replays the checkpointed prefix: the live histogram holds
    // prefix + prefix + suffix. Subtracting the checkpoint copy restores
    // prefix + suffix exactly (max stays the observed peak, mirroring the
    // peak-bytes convention in the engine's resume correction).
    let prefix = [4u64, 99, 2048, 7];
    let suffix = [1u64, 1_000_000];
    let ck = hist_of(&prefix);
    let mut live = efm_obs::hist::Histogram::default();
    for &v in prefix.iter().chain(&prefix).chain(&suffix) {
        live.record(v);
    }
    live.unmerge(&ck);
    let want = hist_of(&[&prefix[..], &suffix[..]].concat());
    assert_eq!(live.count, want.count);
    assert_eq!(live.sum, want.sum);
    assert_eq!(live.buckets, want.buckets);
    assert_eq!(live.max, 1_000_000, "max is a peak, not subtractable");
}

fn small_params() -> RandomNetworkParams {
    RandomNetworkParams {
        metabolites: 5,
        reactions: 9,
        reversible_prob: 0.35,
        mean_degree: 2.5,
        exchange_prob: 0.4,
        max_coeff: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Histogram merge is commutative: a ⊔ b == b ⊔ a.
    #[test]
    fn histogram_merge_commutes(
        a in proptest::collection::vec(0u64..u64::MAX / 2, 0..40),
        b in proptest::collection::vec(0u64..u64::MAX / 2, 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Histogram merge is associative: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), so
    /// rank-0 can aggregate partial merges in any tree shape.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..u64::MAX / 2, 0..30),
        b in proptest::collection::vec(0u64..u64::MAX / 2, 0..30),
        c in proptest::collection::vec(0u64..u64::MAX / 2, 0..30),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merge-then-unmerge round-trips counts, sums and buckets for any
    /// pair of histograms whose sums stay clear of saturation (max stays
    /// the peak by design).
    #[test]
    fn histogram_unmerge_inverts_merge(
        a in proptest::collection::vec(0u64..1 << 50, 0..40),
        b in proptest::collection::vec(0u64..1 << 50, 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut m = ha.clone();
        m.merge(&hb);
        m.unmerge(&hb);
        prop_assert_eq!(m.count, ha.count);
        prop_assert_eq!(m.sum, ha.sum);
        prop_assert_eq!(m.buckets, ha.buckets);
    }

    /// Tracing on vs. off is observationally inert across random networks
    /// and all three backends.
    #[test]
    fn tracing_on_off_is_inert(seed in 0u64..5000, backend_pick in 0usize..3) {
        let _g = OBS_LOCK.lock().unwrap();
        let net = random_network(&small_params(), seed);
        let opts = EfmOptions { max_modes: Some(20_000), ..Default::default() };
        let backend = match backend_pick {
            0 => Backend::Serial,
            1 => Backend::Rayon,
            _ => Backend::Cluster(efm_cluster::ClusterConfig::new(3)),
        };
        efm_obs::set_enabled(false);
        let run = Run { opts, backend, ..Default::default() };
        let plain = run.enumerate::<F64Tol>(&net).unwrap();
        let (traced_out, _) = traced(|| run.enumerate::<F64Tol>(&net).unwrap());
        prop_assert_eq!(&plain.efms, &traced_out.efms);
        prop_assert_eq!(plain.stats.candidates_generated, traced_out.stats.candidates_generated);
        prop_assert_eq!(plain.stats.tree_pruned, traced_out.stats.tree_pruned);
        prop_assert_eq!(plain.stats.dedup_hits, traced_out.stats.dedup_hits);
        prop_assert_eq!(plain.stats.rank_tests, traced_out.stats.rank_tests);
    }
}
