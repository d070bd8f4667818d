//! `efm-compute` — command-line elementary flux mode computation.
//!
//! The role of the paper's released `elmocomp` tool: read a metabolic
//! network in the text format of the paper's reaction listings, enumerate
//! its elementary flux modes with a selectable algorithm, and print the
//! modes and per-phase statistics.
//!
//! ```text
//! efm-compute [OPTIONS] <NETWORK-FILE | --builtin NAME>
//!
//!   --builtin <toy|yeast1|yeast2>   use an embedded network
//!   --backend <serial|rayon|cluster> execution backend   [default: serial]
//!   --nodes <N>                     simulated cluster ranks [default: 4]
//!   --memory-limit <BYTES>          per-node memory cap (cluster backend)
//!   --partition <R1,R2,...>         divide-and-conquer partition reactions
//!   --dnc-schedule <serial|steal>   subset schedule      [default: serial]
//!   --dnc-workers <N>               subset worker threads (0 = one per core)
//!   --ordering <paper|nnz|asis|random> row ordering      [default: paper]
//!   --test <rank|adjacency>         elementarity test    [default: rank]
//!   --float                         f64 arithmetic instead of exact
//!   --spill-budget <BYTES>          compress finished divide-and-conquer subsets
//!                                   and spill them to disk beyond BYTES resident
//!   --max-modes <N>                 abort beyond N intermediate modes (every backend)
//!   --print-modes <N>               print up to N modes  [default: 20]
//!   --coefficients                  recover numeric coefficients
//!   --quiet                         summary only
//!   --stats                         print network statistics and exit
//!   --suggest-partition <K>         print K suggested partition reactions and exit
//!   --cut-sets <RXN>                minimal cut sets (size ≤ 3) for a target reaction
//!   --yields <SUBSTRATE,PRODUCT>    per-mode product/substrate yields
//!   --export-metatool <FILE>        write the network in Metatool .dat format
//!   --output <FILE>                 write the computed modes to FILE
//!   --output-format <text|packed>   mode file format        [default: text]
//!   --checkpoint <FILE>             snapshot engine state to FILE at iteration boundaries
//!                                   (encoded and written on a background thread)
//!   --checkpoint-every <N>          snapshot every N iterations [default: 1]
//!   --resume <FILE>                 resume an aborted run from a checkpoint FILE
//!   --auto-escalate <K>             on memory abort, retry as divide-and-conquer
//!                                   over suggested splits up to 2^K subsets
//!   --supervise                     run the cluster backend under the self-healing
//!                                   supervisor: restart from the newest checkpoint on
//!                                   transient failures, escalate on memory aborts
//!   --max-restarts <N>              supervisor restart budget [default: 3]
//!   --failover                      degrade instead of restarting when a non-zero
//!                                   rank dies: survivors re-stripe the dead rank's
//!                                   work and continue with N-1 ranks
//!   --heartbeat-ms <MS>             liveness heartbeat period [default: 10]
//!   --fault-plan <SPEC>             inject deterministic faults, e.g.
//!                                   "seed=42;crash@1:phase=communicate,iter=3"
//!   --trace-out <FILE>              write a Chrome trace_event JSON of the run
//!                                   (.jsonl extension switches to a JSONL event log)
//!   --metrics-out <FILE>            write final counters/gauges as JSON
//!   --progress                      live progress line with survivor-count ETA
//!
//! Network files may be in the reaction-per-line format of the paper's
//! figures or in Metatool `.dat` format (auto-detected by the leading
//! `-ENZREV`/`-ENZIRREV` section header).
//! ```

use efm_core::{
    Backend, CandidateTest, CheckpointConfig, DncCheckpoint, DncConfig, DncSchedule, EfmError,
    EfmOptions, EfmOutcome, EngineCheckpoint, EscalationAttempt, Phase, RowOrdering, Run,
    SuperviseConfig, COUNTERS,
};
use efm_metnet::{examples, parse_metatool, parse_network, to_metatool, yeast, MetabolicNetwork};
use efm_numeric::{DynInt, F64Tol};
use std::process::ExitCode;

struct Args {
    network: Option<String>,
    builtin: Option<String>,
    backend: String,
    nodes: usize,
    memory_limit: Option<u64>,
    partition: Vec<String>,
    dnc_schedule: String,
    dnc_workers: usize,
    ordering: String,
    test: String,
    kernel: String,
    float: bool,
    spill_budget: Option<u64>,
    max_modes: Option<usize>,
    print_modes: usize,
    coefficients: bool,
    quiet: bool,
    stats: bool,
    suggest_partition: Option<usize>,
    cut_sets: Option<String>,
    yields: Option<String>,
    export_metatool: Option<String>,
    output: Option<String>,
    output_format: String,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    resume: Option<String>,
    auto_escalate: Option<usize>,
    supervise: bool,
    max_restarts: u32,
    failover: bool,
    heartbeat_ms: Option<u64>,
    fault_plan: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    postmortem_dir: Option<String>,
    progress: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: efm-compute [--builtin toy|yeast1|yeast2] [--backend serial|rayon|cluster]\n\
         \x20                 [--nodes N] [--memory-limit BYTES] [--partition R1,R2,...]\n\
         \x20                 [--dnc-schedule serial|steal] [--dnc-workers N]\n\
         \x20                 [--ordering paper|nnz|asis|random] [--test rank|adjacency]\n\
         \x20                 [--kernel auto|scalar|simd]\n\
         \x20                 [--float] [--spill-budget BYTES]\n\
         \x20                 [--max-modes N] [--print-modes N] [--coefficients]\n\
         \x20                 [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n\
         \x20                 [--auto-escalate K] [--supervise] [--max-restarts N]\n\
         \x20                 [--failover] [--heartbeat-ms MS]\n\
         \x20                 [--fault-plan SPEC] [--trace-out FILE] [--metrics-out FILE]\n\
         \x20                 [--postmortem-dir DIR] [--progress] [--quiet] [NETWORK-FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        network: None,
        builtin: None,
        backend: "serial".into(),
        nodes: 4,
        memory_limit: None,
        partition: Vec::new(),
        dnc_schedule: "serial".into(),
        dnc_workers: 0,
        ordering: "paper".into(),
        test: "rank".into(),
        kernel: "auto".into(),
        float: false,
        spill_budget: None,
        max_modes: None,
        print_modes: 20,
        coefficients: false,
        quiet: false,
        stats: false,
        suggest_partition: None,
        cut_sets: None,
        yields: None,
        export_metatool: None,
        output: None,
        output_format: "text".into(),
        checkpoint: None,
        checkpoint_every: 1,
        resume: None,
        auto_escalate: None,
        supervise: false,
        max_restarts: 3,
        failover: false,
        heartbeat_ms: None,
        fault_plan: None,
        trace_out: None,
        metrics_out: None,
        postmortem_dir: None,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let val = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--builtin" => args.builtin = Some(val(&mut it)),
            "--backend" => args.backend = val(&mut it),
            "--nodes" => args.nodes = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--memory-limit" => {
                args.memory_limit = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--partition" => {
                args.partition = val(&mut it).split(',').map(|s| s.trim().to_string()).collect()
            }
            "--dnc-schedule" => args.dnc_schedule = val(&mut it),
            "--dnc-workers" => args.dnc_workers = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--ordering" => args.ordering = val(&mut it),
            "--test" => args.test = val(&mut it),
            "--kernel" => args.kernel = val(&mut it),
            "--float" => args.float = true,
            "--spill-budget" => {
                args.spill_budget = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--max-modes" => {
                args.max_modes = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--print-modes" => args.print_modes = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--coefficients" => args.coefficients = true,
            "--quiet" => args.quiet = true,
            "--stats" => args.stats = true,
            "--suggest-partition" => {
                args.suggest_partition = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--cut-sets" => args.cut_sets = Some(val(&mut it)),
            "--yields" => args.yields = Some(val(&mut it)),
            "--export-metatool" => args.export_metatool = Some(val(&mut it)),
            "--output" => args.output = Some(val(&mut it)),
            "--output-format" => args.output_format = val(&mut it),
            "--checkpoint" => args.checkpoint = Some(val(&mut it)),
            "--checkpoint-every" => {
                args.checkpoint_every = val(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--resume" => args.resume = Some(val(&mut it)),
            "--auto-escalate" => {
                args.auto_escalate = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--supervise" => args.supervise = true,
            "--max-restarts" => {
                args.max_restarts = val(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--failover" => args.failover = true,
            "--heartbeat-ms" => {
                args.heartbeat_ms = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--fault-plan" => args.fault_plan = Some(val(&mut it)),
            "--trace-out" => args.trace_out = Some(val(&mut it)),
            "--metrics-out" => args.metrics_out = Some(val(&mut it)),
            "--postmortem-dir" => args.postmortem_dir = Some(val(&mut it)),
            "--progress" => args.progress = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => args.network = Some(other.to_string()),
            _ => usage(),
        }
    }
    args
}

fn load_network(args: &Args) -> Result<MetabolicNetwork, String> {
    if let Some(b) = &args.builtin {
        return match b.as_str() {
            "toy" => Ok(examples::toy_network()),
            "yeast1" => Ok(yeast::network_i()),
            "yeast2" => Ok(yeast::network_ii()),
            other => Err(format!("unknown builtin network {other}")),
        };
    }
    let Some(path) = &args.network else {
        return Err("no network file and no --builtin given".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Auto-detect Metatool .dat files by their section headers.
    let is_metatool =
        text.lines().map(str::trim).find(|l| !l.is_empty() && !l.starts_with('#')).is_some_and(
            |l| l.eq_ignore_ascii_case("-enzrev") || l.eq_ignore_ascii_case("-enzirrev"),
        );
    if is_metatool {
        parse_metatool(&text).map_err(|e| format!("metatool parse error in {path}: {e}"))
    } else {
        parse_network(&text).map_err(|e| format!("parse error in {path}: {e}"))
    }
}

fn run<S: efm_core::EfmScalar>(
    net: &MetabolicNetwork,
    args: &Args,
) -> Result<EfmOutcome, efm_core::EfmError> {
    let ordering = match args.ordering.as_str() {
        "paper" => RowOrdering::Paper,
        "nnz" => RowOrdering::FewestNonzeros,
        "asis" => RowOrdering::AsIs,
        "random" => RowOrdering::Random(42),
        _ => usage(),
    };
    let test = match args.test.as_str() {
        "rank" => CandidateTest::Rank,
        "adjacency" => CandidateTest::Adjacency,
        _ => usage(),
    };
    let kernel = args.kernel.parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    let opts = EfmOptions {
        ordering,
        test,
        kernel,
        max_modes: args.max_modes,
        spill_budget: args.spill_budget,
        ..Default::default()
    };
    let dnc_schedule = DncSchedule::parse(&args.dnc_schedule).unwrap_or_else(|| {
        eprintln!("error: bad --dnc-schedule {} (want serial|steal)", args.dnc_schedule);
        usage();
    });
    let dnc = DncConfig {
        schedule: dnc_schedule,
        workers: args.dnc_workers,
        max_retries: args.max_restarts,
        ..Default::default()
    };
    let backend = match args.backend.as_str() {
        "serial" => Backend::Serial,
        "rayon" => Backend::Rayon,
        "cluster" => {
            let mut cfg = efm_cluster::ClusterConfig::new(args.nodes);
            if let Some(limit) = args.memory_limit {
                cfg = cfg.with_memory_limit(limit);
            }
            if args.failover {
                cfg = cfg.with_failover(true);
            }
            if let Some(ms) = args.heartbeat_ms {
                cfg = cfg.with_heartbeat(std::time::Duration::from_millis(ms.max(1)));
            }
            Backend::Cluster(cfg)
        }
        _ => usage(),
    };
    if args.fault_plan.is_some() && !args.supervise {
        eprintln!("error: --fault-plan requires --supervise");
        usage();
    }
    let mut run =
        Run { opts, backend, partition: args.partition.clone(), dnc, ..Default::default() };
    if args.partition.is_empty() {
        if let Some(path) = &args.resume {
            let ck = EngineCheckpoint::load(std::path::Path::new(path))?;
            if !args.quiet {
                println!(
                    "resuming from {path}: {} iterations already completed",
                    ck.iterations_completed()
                );
            }
            run.resume = Some(ck);
        }
    } else if let Some(path) = &args.resume {
        // Divide-and-conquer checkpointing is per-subset progress:
        // --checkpoint records each completed subset, --resume skips the
        // recorded ones.
        if args.checkpoint.as_ref().is_some_and(|c| c != path) {
            eprintln!(
                "error: --checkpoint and --resume must name the same file \
                 for divide-and-conquer runs"
            );
            usage();
        }
        run.dnc.checkpoint = Some(CheckpointConfig::new(path));
        run.dnc.resume = true;
        if !args.quiet {
            if let Ok(ck) = DncCheckpoint::load(std::path::Path::new(path)) {
                println!(
                    "resuming from {path}: {} of {} subsets already completed",
                    ck.done.len(),
                    1usize << ck.qsub
                );
            }
        }
    } else if let Some(path) = &args.checkpoint {
        run.dnc.checkpoint = Some(CheckpointConfig::new(path));
    }
    // Under --supervise, --checkpoint names the supervisor's snapshot file
    // (a temporary one by default) and escalation defaults to 2^4 subsets.
    let mut temp_checkpoint = None;
    if args.supervise {
        let ckpt_path = args.checkpoint.clone().unwrap_or_else(|| {
            let path = std::env::temp_dir()
                .join(format!("efm-supervise-{}.efck", std::process::id()))
                .to_string_lossy()
                .into_owned();
            temp_checkpoint = Some(path.clone());
            path
        });
        let mut sup = SuperviseConfig::new(&ckpt_path).max_restarts(args.max_restarts);
        sup.checkpoint = sup.checkpoint.every(args.checkpoint_every);
        if let Some(dir) = &args.postmortem_dir {
            sup = sup.with_postmortem_dir(dir);
        }
        if let Some(spec) = &args.fault_plan {
            let plan = efm_cluster::FaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("error: bad --fault-plan: {e}");
                usage();
            });
            sup = sup.with_fault_plan(plan);
        }
        run.supervise = Some(sup);
        run.escalate = Some(args.auto_escalate.unwrap_or(4));
    } else {
        run.escalate = args.auto_escalate;
        if args.partition.is_empty() {
            run.checkpoint = args
                .checkpoint
                .as_ref()
                .map(|p| CheckpointConfig::new(p).every(args.checkpoint_every));
        }
    }
    let out = match run.enumerate::<S>(net) {
        Err(e @ EfmError::InvalidRun(_)) => {
            eprintln!("error: {e}");
            usage();
        }
        // A failed ladder lists every split it tried, also when the
        // supervisor gave up on it.
        out => out.inspect_err(|e| {
            let ladder = match e {
                EfmError::RestartsExhausted { last, .. } => last,
                e => e,
            };
            if let EfmError::EscalationExhausted { attempts, .. } = ladder {
                for a in attempts {
                    eprintln!("{}", escalation_line(a));
                }
            }
        })?,
    };
    if let Some(path) = temp_checkpoint {
        // The supervisor owned a temporary checkpoint; clean it up.
        let _ = std::fs::remove_file(path);
    }
    if !args.quiet && args.supervise && !out.stats.recovery.is_empty() {
        println!("recovery log:\n{}", out.stats.recovery);
    }
    if !args.quiet && !args.supervise {
        for a in &out.escalation {
            println!("{}", escalation_line(a));
        }
    }
    Ok(out)
}

/// One line of the escalation report: what the attempt ran and how it
/// ended.
fn escalation_line(a: &EscalationAttempt) -> String {
    let what = if a.qsub == 0 {
        "direct".to_string()
    } else {
        format!("divide-and-conquer over {{{}}}", a.partition.join(","))
    };
    match &a.error {
        Some(e) => format!("escalation: {what} failed: {e}"),
        None => format!("escalation: {what} succeeded"),
    }
}

/// Writes `--trace-out` / `--metrics-out` files from the global telemetry
/// snapshot. A `.jsonl` trace path selects the line-oriented event log;
/// anything else gets Chrome `trace_event` JSON.
fn export_telemetry(args: &Args) -> Result<(), String> {
    if args.trace_out.is_none() && args.metrics_out.is_none() {
        return Ok(());
    }
    let snap = efm_obs::snapshot();
    if let Some(path) = &args.trace_out {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        let res = if path.ends_with(".jsonl") {
            efm_obs::export::write_jsonl(&snap, &mut f)
        } else {
            efm_obs::export::write_chrome_trace(&snap, &mut f)
        };
        res.map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote trace ({} events, {} tracks) to {path}",
            snap.event_count(),
            snap.tracks.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        efm_obs::export::write_metrics(&snap, &mut f)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics ({} counters) to {path}", snap.counters.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let net = match load_network(&args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.quiet {
        println!(
            "network: {} internal metabolites, {} reactions ({} reversible)",
            net.num_internal(),
            net.num_reactions(),
            net.reactions.iter().filter(|r| r.reversible).count()
        );
    }
    if let Some(path) = &args.export_metatool {
        if let Err(e) = std::fs::write(path, to_metatool(&net)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Metatool .dat to {path}");
    }
    if args.stats {
        let s = efm_metnet::stats::network_stats(&net);
        print!("{}", efm_metnet::stats::format_stats(&s));
        let comp = efm_metnet::stats::reaction_components(&net);
        let ncomp = comp.iter().copied().max().map_or(0, |m| m + 1);
        println!("connected components (reaction graph): {ncomp}");
        return ExitCode::SUCCESS;
    }
    if let Some(k) = args.suggest_partition {
        let (red, _) = efm_metnet::compress(&net);
        let suggestion = efm_core::suggest_partition(&net, &red, k);
        println!(
            "suggested divide-and-conquer partition ({} of {} requested): {}",
            suggestion.len(),
            k,
            suggestion.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    // --postmortem-dir implies recording: the flight recorder can only
    // dump a trace tail if the ring buffers were filling.
    if args.trace_out.is_some() || args.metrics_out.is_some() || args.postmortem_dir.is_some() {
        efm_obs::set_enabled(true);
    }
    if args.progress {
        efm_obs::progress::set_progress(true);
    }
    let outcome = if args.float { run::<F64Tol>(&net, &args) } else { run::<DynInt>(&net, &args) };
    // Export telemetry even on failure: an aborted run's trace is exactly
    // what you want when diagnosing the abort.
    if let Err(e) = export_telemetry(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            // Flight recorder: a terminal failure dumps everything a
            // postmortem needs, even when the run was not supervised.
            if let Some(dir) = &args.postmortem_dir {
                match efm_obs::postmortem::write_bundle(
                    std::path::Path::new(dir),
                    "cli-error",
                    &e.to_string(),
                    &[],
                ) {
                    Ok(p) => eprintln!("[postmortem] bundle written to {}", p.display()),
                    Err(we) => eprintln!("[postmortem] failed to write bundle: {we}"),
                }
            }
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        println!(
            "reduced network: {} x {} ({:?})",
            outcome.reduced.stoich.rows(),
            outcome.reduced.num_reduced(),
            outcome.compression
        );
    }
    println!("elementary flux modes: {}", outcome.efms.len());
    let stats = &outcome.stats;
    for row in COUNTERS.chunks(4) {
        let cells: Vec<String> =
            row.iter().map(|c| format!("{}: {} {}", c.name, (c.get)(stats), c.unit)).collect();
        println!("{}", cells.join("   "));
    }
    let phases: String = Phase::ALL
        .iter()
        .map(|&p| format!("{}={:.3}s ", p.label(), stats.phases[p].as_secs_f64()))
        .collect();
    println!("phase times: {phases}total={:.3}s", stats.total_time.as_secs_f64());
    if !outcome.subsets.is_empty() && !args.quiet {
        println!("divide-and-conquer subsets:");
        for s in &outcome.subsets {
            let note = if s.skipped_empty {
                "  (provably empty, skipped)".to_string()
            } else if s.retries > 0 {
                format!("  ({} restarts)", s.retries)
            } else {
                String::new()
            };
            println!(
                "  [{}] {:40} EFMs={:<10} candidates={:<14} time={:.3}s{}",
                s.id,
                s.pattern,
                s.efm_count,
                s.stats.candidates_generated,
                s.stats.total_time.as_secs_f64(),
                note
            );
        }
    }
    if let Some(path) = &args.output {
        let result = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            match args.output_format.as_str() {
                "packed" => efm_core::io::write_packed(&outcome.efms, &mut w),
                _ => efm_core::io::write_text(&outcome.efms, &mut w),
            }
        });
        match result {
            Ok(()) => {
                println!("wrote {} modes to {path} ({})", outcome.efms.len(), args.output_format)
            }
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(target_name) = &args.cut_sets {
        match net.reaction_index(target_name) {
            Some(target) => {
                let cuts = efm_core::minimal_cut_sets(&outcome.efms, target, 3);
                println!("minimal cut sets (size ≤ 3) for {target_name}:");
                for cut in cuts {
                    let names: Vec<&str> =
                        cut.iter().map(|&j| net.reactions[j].name.as_str()).collect();
                    println!("  {{{}}}", names.join(", "));
                }
            }
            None => eprintln!("warning: unknown reaction {target_name} for --cut-sets"),
        }
    }
    if let Some(spec) = &args.yields {
        let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
        match parts.as_slice() {
            [s, p] => match (net.reaction_index(s), net.reaction_index(p)) {
                (Some(substrate), Some(product)) => {
                    let ys = efm_core::mode_yields(
                        &net,
                        &outcome.reduced,
                        &outcome.efms,
                        substrate,
                        product,
                    );
                    println!("mode yields {p}/{s} (top 10 of {}):", ys.len());
                    for (mode, y) in ys.iter().take(10) {
                        println!("  mode {mode}: {y:.4}");
                    }
                }
                _ => eprintln!("warning: unknown reaction in --yields {spec}"),
            },
            _ => eprintln!("warning: --yields wants SUBSTRATE,PRODUCT"),
        }
    }
    let shown = args.print_modes.min(outcome.efms.len());
    if shown > 0 && !args.quiet {
        println!("first {shown} modes:");
        let rev = net.reversibilities();
        for i in 0..shown {
            let sup = outcome.efms.support(i);
            if args.coefficients {
                match efm_core::recover_flux(&outcome.reduced, &rev, &sup) {
                    Ok(flux) => {
                        let parts: Vec<String> = sup
                            .iter()
                            .map(|&j| format!("{}={}", net.reactions[j].name, flux[j]))
                            .collect();
                        println!("  [{}] {}", i, parts.join(" "));
                    }
                    Err(e) => println!("  [{}] <recovery failed: {e}>", i),
                }
            } else {
                let names: Vec<&str> =
                    sup.iter().map(|&j| net.reactions[j].name.as_str()).collect();
                println!("  [{}] {}", i, names.join(" "));
            }
        }
    }
    ExitCode::SUCCESS
}
