//! `efm-perfbench`: the compiled half of the EFM benchmark. `run.py`
//! drives it; README.md documents the workloads and metrics.
//!
//! ```text
//! efm-perfbench plan   --workload W --seed N --dir D [--toy]
//!     write the seeded network to D/network.txt and print the run plan
//! efm-perfbench digest FILE...
//!     print the EFM count and digest of each packed EFM file
//! efm-perfbench trace  --workload W --network FILE --dir D [--toy]
//!     run one operation in-process with layer spans; print layer metrics
//! efm-perfbench host
//!     print host metadata and the drift probes
//! efm-perfbench exec --log FILE -- PROGRAM ARGS...
//!     run PROGRAM (output to FILE); print its exit code, wall time, CPU
//!     time and peak RSS
//! ```
//!
//! Every command prints one JSON object per line on stdout and exits
//! non-zero on error.

mod host;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

fn json_str(s: &str) -> String {
    format!("\"{}\"", efm_obs::json::escape(s))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_obj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

struct Opts {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    dir: Option<PathBuf>,
    network: Option<PathBuf>,
    toy: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        workload: None,
        seed: 0,
        dir: None,
        network: None,
        toy: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = Some(val()?),
            "--seed" => o.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--dir" => o.dir = Some(val()?.into()),
            "--network" => o.network = Some(val()?.into()),
            "--toy" => o.toy = true,
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s => o.positional.push(s.to_string()),
        }
    }
    Ok(o)
}

fn workload(o: &Opts) -> Result<Workload, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    workload::find(name, o.toy).ok_or(format!("unknown workload {name}"))
}

fn dir(o: &Opts) -> Result<&Path, String> {
    o.dir.as_deref().ok_or_else(|| "--dir is required".to_string())
}

fn plan(o: &Opts) -> Result<(), String> {
    let w = workload(o)?;
    let dir = dir(o)?;
    let network = dir.join("network.txt");
    std::fs::write(&network, workload::network_text(w.net, o.seed))
        .map_err(|e| format!("cannot write {}: {e}", network.display()))?;
    let checkpoint = dir.join("op.efck");
    let list = |v: &[String]| {
        format!("[{}]", v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", "))
    };
    let setup: Vec<String> = ["--suggest-partition", "2", "--quiet"].map(String::from).to_vec();
    println!(
        "{}",
        json_obj(&[
            ("workload".into(), json_str(w.name)),
            ("network".into(), json_str(&network.to_string_lossy())),
            ("golden_count".into(), w.golden_count.to_string()),
            ("golden_digest".into(), json_str(&format!("{:016x}", w.golden_digest))),
            ("op_flags".into(), list(&w.op_flags(&checkpoint.to_string_lossy()))),
            ("setup_flags".into(), list(&setup)),
        ])
    );
    Ok(())
}

fn digest(o: &Opts) -> Result<(), String> {
    for path in &o.positional {
        let read = std::fs::File::open(path)
            .and_then(|f| efm_core::io::read_packed(std::io::BufReader::new(f)))
            .map_err(|e| e.to_string())
            .and_then(|set| Ok((set.len(), workload::digest(&set)?)));
        let fields = match read {
            Ok((count, d)) => vec![
                ("count".into(), count.to_string()),
                ("digest".into(), json_str(&format!("{d:016x}"))),
            ],
            Err(e) => vec![("error".into(), json_str(&e))],
        };
        let mut all = vec![("file".into(), json_str(path))];
        all.extend(fields);
        println!("{}", json_obj(&all));
    }
    Ok(())
}

fn trace(o: &Opts) -> Result<(), String> {
    use trace::{child_cover, total, total_self};
    let w = workload(o)?;
    let network = o.network.as_deref().ok_or("--network is required")?;
    // The program records its histograms only while telemetry is on.
    efm_obs::set_enabled(true);
    let t = trace::traced_operation(&w, network, dir(o)?)?;
    let spans = t.tracer.spans();
    let e = &t.engine;
    let st = &e.stats;
    let ph = &st.phases;
    let hist = |name: &str| efm_obs::hist::get(name).unwrap_or_default();
    let subset_times: Vec<f64> =
        spans.iter().filter(|s| s.name == "divide.subset").map(|s| s.end - s.start).collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let modes = t.efms.len() as f64;
    let root = spans[0].end - spans[0].start;
    let metrics: Vec<(&str, f64)> = vec![
        ("metnet.parse_s", total(spans, "metnet.parse")),
        ("metnet.compress_s", total(spans, "metnet.compress")),
        ("metnet.reduced_reactions", t.reduced_reactions as f64),
        ("problem.build_s", total(spans, "problem.build")),
        ("problem.kernel_width", e.kernel_width as f64),
        ("engine.run_s", total(spans, "engine.run")),
        ("engine.generate_s", ph.generate.as_secs_f64()),
        ("engine.dedup_s", ph.dedup.as_secs_f64()),
        ("engine.tree_filter_s", ph.tree_filter.as_secs_f64()),
        ("engine.rank_test_s", ph.rank_test.as_secs_f64()),
        ("engine.candidates", st.candidates_generated as f64),
        ("engine.tree_pruned", st.tree_pruned as f64),
        ("engine.dedup_hits", st.dedup_hits as f64),
        ("engine.rank_tests", st.rank_tests as f64),
        ("engine.accept_ratio", ratio(e.accepted as f64, st.rank_tests as f64)),
        ("engine.peak_modes", st.peak_modes as f64),
        ("engine.peak_bytes", st.peak_bytes as f64),
        ("kernel.blocks", st.kernel_blocks as f64),
        ("kernel.pruned", st.kernel_pruned as f64),
        ("kernel.prune_ratio", ratio(st.kernel_pruned as f64, st.candidates_generated as f64)),
        ("cluster.comm_s", ph.communicate.as_secs_f64()),
        ("cluster.barrier_wait_s", hist("barrier wait us").sum as f64 / 1e6),
        ("cluster.comm_msgs", st.comm_messages as f64),
        ("cluster.comm_bytes", st.comm_bytes as f64),
        ("checkpoint.writes", hist("checkpoint write us").count as f64),
        ("checkpoint.write_s", hist("checkpoint write us").sum as f64 / 1e6),
        ("checkpoint.bytes", t.checkpoint_bytes as f64),
        ("divide.subsets", e.subsets as f64),
        ("divide.subset_max_s", subset_times.iter().copied().fold(0.0, f64::max)),
        ("divide.subset_sum_s", subset_times.iter().sum()),
        ("stripes.spill_bytes", e.spill_bytes as f64),
        ("stripes.bytes_per_mode", ratio(e.spill_bytes as f64, modes)),
        ("stripes.write_s", total(spans, "stripes.put")),
        ("stripes.read_s", total(spans, "stripes.take")),
        ("io.assemble_s", total_self(spans, "io.assemble")),
        ("io.write_s", total(spans, "io.write")),
        ("io.bytes", t.output_bytes as f64),
        ("trace.coverage", ratio(child_cover(spans, 0), root)),
    ];
    let hists: Vec<(String, String)> = efm_obs::hist::all()
        .into_iter()
        .map(|(name, h)| {
            let f = [
                ("count".to_string(), h.count.to_string()),
                ("sum_us".to_string(), h.sum.to_string()),
                ("p50_us".to_string(), h.p50().to_string()),
                ("p95_us".to_string(), h.p95().to_string()),
                ("max_us".to_string(), h.max.to_string()),
            ];
            (name, json_obj(&f))
        })
        .collect();
    let span_list: Vec<String> = spans
        .iter()
        .map(|s| {
            json_obj(&[
                ("name".into(), json_str(s.name)),
                ("start_s".into(), json_num(s.start)),
                ("end_s".into(), json_num(s.end)),
                ("parent".into(), s.parent.map_or("null".into(), |p| p.to_string())),
            ])
        })
        .collect();
    let apportioned = w.backend == workload::BackendKind::Rayon;
    println!(
        "{}",
        json_obj(&[
            ("count".into(), t.efms.len().to_string()),
            ("digest".into(), json_str(&format!("{:016x}", workload::digest(&t.efms)?))),
            ("root_s".into(), json_num(root)),
            (
                "metrics".into(),
                json_obj(
                    &metrics.iter().map(|(k, v)| (k.to_string(), json_num(*v))).collect::<Vec<_>>()
                ),
            ),
            ("kernel_tier".into(), json_str(&st.kernel_tier)),
            ("engine_phases_apportioned".into(), apportioned.to_string()),
            ("program_histograms".into(), json_obj(&hists)),
            ("spans".into(), format!("[{}]", span_list.join(", "))),
        ])
    );
    Ok(())
}

fn host_info() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = host::caches()
        .into_iter()
        .map(|(level, kind, bytes)| {
            json_obj(&[
                ("level".into(), level.to_string()),
                ("kind".into(), json_str(kind)),
                ("bytes".into(), bytes.to_string()),
            ])
        })
        .collect();
    println!(
        "{}",
        json_obj(&[
            ("nproc".into(), nproc.to_string()),
            ("kernel_tier".into(), json_str(efm_bitset::detect_tier().name())),
            ("caches".into(), format!("[{}]", caches.join(", "))),
            ("compute_s".into(), json_num(host::compute_probe())),
            ("pair_s".into(), json_num(host::pair_probe())),
            ("chase_ns".into(), json_num(host::chase_probe())),
        ])
    );
    Ok(())
}

/// Runs one cold process. It is started from this small process rather
/// than from `run.py`: a child's peak RSS counts the image of the process
/// that forked it, and the Python interpreter's image is larger than
/// `efm-compute`'s whole peak.
fn exec(args: &[String]) -> Result<(), String> {
    let [flag, log, dashes, program, rest @ ..] = args else {
        return Err("usage: exec --log FILE -- PROGRAM ARGS...".into());
    };
    if flag != "--log" || dashes != "--" {
        return Err("usage: exec --log FILE -- PROGRAM ARGS...".into());
    }
    let out = std::fs::File::create(log).map_err(|e| format!("cannot create {log}: {e}"))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let t = std::time::Instant::now();
    let status = std::process::Command::new(program)
        .args(rest)
        .stdout(out)
        .stderr(err)
        .status()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let (cpu, maxrss_kib) = host::children_usage();
    println!(
        "{}",
        json_obj(&[
            ("code".into(), status.code().map_or("null".into(), |c| c.to_string())),
            ("wall_s".into(), json_num(wall)),
            ("cpu_s".into(), json_num(cpu)),
            ("maxrss_kib".into(), maxrss_kib.to_string()),
        ])
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: efm-perfbench plan|digest|trace|host|exec [OPTIONS]");
        return ExitCode::from(2);
    };
    if cmd == "exec" {
        return match exec(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let res = parse(rest).and_then(|o| match cmd.as_str() {
        "plan" => plan(&o),
        "digest" => digest(&o),
        "trace" => trace(&o),
        "host" => host_info(),
        other => Err(format!("unknown command {other}")),
    });
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
