//! PR 5 acceptance benchmark: divide-and-conquer subset scheduling —
//! sequential subsets versus the adaptive work-stealing schedule.
//!
//! ```text
//! dnc_balance [--scale toy|lite|full] [--workers 4] [--qsub 4]
//!             [--out BENCH_pr5.json]
//! ```
//!
//! The `2^qsub` subsets of the paper's divide-and-conquer split are wildly
//! unequal (Table III: 274 919 vs 599 344 EFMs across the four subsets of
//! one 2-way split), so naive static assignment leaves workers idle. This
//! harness runs the same partition under `--dnc-schedule serial` and
//! `--dnc-schedule steal`, checks the EFM sets are identical, and records:
//!
//! * the **imbalance ratio** (max/mean per-subset time) that makes
//!   scheduling matter in the first place;
//! * the **measured** wall-clock speedup of the stealing schedule — honest
//!   but bounded by the host's physical cores (this container has one);
//! * the **modeled bulk-synchronous speedup**: the longest-processing-time
//!   makespan of the measured per-subset times over `workers` workers,
//!   i.e. the speedup the stealing schedule achieves when every worker is
//!   a real core (the convention of README "Known deviations": physical
//!   scaling beyond the host's core count is reported under the
//!   bulk-synchronous model).

use efm_bench::{flag, harness_options, network_i, parse_cli, pick_partition, Scale};
use efm_core::{Backend, DncConfig, DncSchedule, EfmOutcome, Run};
use efm_numeric::F64Tol;
use std::time::Instant;

/// Longest-processing-time list scheduling of `times` onto `workers`
/// identical machines; returns the makespan.
fn lpt_makespan(times: &[f64], workers: usize) -> f64 {
    let mut sorted: Vec<f64> = times.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut loads = vec![0.0f64; workers.max(1)];
    for t in sorted {
        let min = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        loads[min] += t;
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

fn run(
    net: &efm_metnet::MetabolicNetwork,
    names: &[&str],
    schedule: DncSchedule,
    workers: usize,
) -> (EfmOutcome, f64) {
    let dnc = DncConfig { schedule, workers, ..Default::default() };
    let start = Instant::now();
    let out = Run {
        opts: harness_options(),
        partition: names.iter().map(|s| s.to_string()).collect(),
        backend: Backend::Serial,
        dnc: dnc.clone(),
        ..Default::default()
    }
    .enumerate::<F64Tol>(net)
    .expect("divide-and-conquer run failed");
    (out, start.elapsed().as_secs_f64())
}

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let workers: usize = flag(&flags, "workers").unwrap_or("4").parse().expect("bad --workers");
    let qsub: usize = flag(&flags, "qsub").unwrap_or("4").parse().expect("bad --qsub");
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr5.json").to_string();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let net = network_i(scale);
    let (red, _) = efm_metnet::compress(&net);
    let partition = pick_partition(&net, &red, &["R89r", "R74r", "R90r", "R22r"], qsub);
    assert_eq!(partition.len(), qsub, "network has too few reversible reactions for --qsub {qsub}");
    let names: Vec<&str> = partition.iter().map(String::as_str).collect();
    println!(
        "dnc_balance — Network I ({scale:?}), partition {{{}}} ({} subsets), \
         {workers} workers, {host_cores} host core(s)",
        partition.join(","),
        1usize << qsub
    );

    let (serial_out, serial_wall) = run(&net, &names, DncSchedule::Serial, workers);
    let (steal_out, steal_wall) = run(&net, &names, DncSchedule::Steal, workers);
    assert_eq!(serial_out.efms, steal_out.efms, "schedules must agree on the EFM set");

    let times: Vec<f64> = serial_out
        .subsets
        .iter()
        .filter(|s| !s.skipped_empty)
        .map(|s| s.stats.total_time.as_secs_f64())
        .collect();
    let sequential: f64 = times.iter().sum();
    let mean = sequential / times.len().max(1) as f64;
    let max = times.iter().cloned().fold(0.0, f64::max);
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    let makespan = lpt_makespan(&times, workers);
    let modeled_speedup = if makespan > 0.0 { sequential / makespan } else { 1.0 };
    let measured_speedup = serial_wall / steal_wall.max(1e-9);

    println!("  {} EFMs, {} non-empty subsets", serial_out.efms.len(), times.len());
    println!("  per-subset times (s): {times:.3?}");
    println!("  imbalance ratio (max/mean subset time): {imbalance:.2}");
    println!("  sequential subsets: {serial_wall:.3}s   steal x{workers}: {steal_wall:.3}s");
    println!("  measured wall speedup ({host_cores} core host): {measured_speedup:.2}x");
    println!("  modeled bulk-synchronous speedup at {workers} workers: {modeled_speedup:.2}x");

    let times_json: Vec<String> = times.iter().map(|t| format!("{t:.6}")).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"dnc_balance\",\n  \"network\": \"yeast_network_i\",\n  \
         \"scale\": \"{scale:?}\",\n  \"backend\": \"serial-per-subset\",\n  \
         \"partition\": \"{part}\",\n  \"subsets\": {nsub},\n  \"workers\": {workers},\n  \
         \"host_cores\": {host_cores},\n  \"efms\": {efms},\n  \
         \"subset_times_s\": [{times}],\n  \"imbalance_ratio\": {imbalance:.4},\n  \
         \"sequential_wall_s\": {serial_wall:.6},\n  \"steal_wall_s\": {steal_wall:.6},\n  \
         \"measured_wall_speedup\": {measured_speedup:.4},\n  \
         \"modeled_bsp_speedup\": {modeled_speedup:.4},\n  \
         \"speedup_model\": \"LPT makespan of measured per-subset times over {workers} \
         workers; measured wall speedup is bounded by host_cores\"\n}}\n",
        part = partition.join(","),
        nsub = 1usize << qsub,
        efms = serial_out.efms.len(),
        times = times_json.join(", "),
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("  wrote {out_path}");
}
