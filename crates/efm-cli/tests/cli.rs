//! End-to-end tests of the `efm-compute` binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_efm-compute")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn toy_builtin_end_to_end() {
    for args in [&["--builtin", "toy"][..], &["--builtin", "toy", "--kernel", "scalar"]] {
        let (stdout, _, ok) = run(args);
        assert!(ok, "{args:?}");
        assert!(stdout.contains("elementary flux modes: 8"), "{args:?}: {stdout}");
    }
}

#[test]
fn divide_and_conquer_via_cli() {
    let (stdout, _, ok) = run(&[
        "--builtin",
        "toy",
        "--partition",
        "r6r,r8r",
        "--backend",
        "cluster",
        "--nodes",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("elementary flux modes: 8"), "{stdout}");
    assert!(stdout.contains("divide-and-conquer subsets:"), "{stdout}");
}

#[test]
fn stats_mode() {
    let (stdout, _, ok) = run(&["--builtin", "yeast1", "--stats"]);
    assert!(ok);
    assert!(stdout.contains("62 internal"), "{stdout}");
    // Network I's structural dead ends: cytosolic FAD/FADH (their only
    // producer R57 exists in Network II) and O2 (consumed by nothing).
    assert!(stdout.contains("dead-end metabolites:"), "{stdout}");
    assert!(stdout.contains("O2"), "{stdout}");
    assert!(stdout.contains("FADH"), "{stdout}");
}

#[test]
fn suggest_partition_mode() {
    let (stdout, _, ok) = run(&["--builtin", "toy", "--suggest-partition", "2"]);
    assert!(ok);
    assert!(stdout.contains("suggested divide-and-conquer partition"), "{stdout}");
    assert!(stdout.contains("r8r"), "{stdout}");
}

#[test]
fn reads_network_file_and_metatool() {
    let dir = std::env::temp_dir().join("efm_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("net.txt");
    std::fs::write(&plain, "in : Sext => A\nout : A => Pext\n").unwrap();
    let (stdout, _, ok) = run(&[plain.to_str().unwrap(), "--quiet"]);
    assert!(ok);
    assert!(stdout.contains("elementary flux modes: 1"), "{stdout}");

    let dat = dir.join("net.dat");
    std::fs::write(
        &dat,
        "-ENZREV\n\n-ENZIRREV\nin out\n\n-METINT\nA\n\n-METEXT\nSext Pext\n\n-CAT\nin : Sext = A .\nout : A = Pext .\n",
    )
    .unwrap();
    let (stdout, _, ok) = run(&[dat.to_str().unwrap(), "--quiet"]);
    assert!(ok);
    assert!(stdout.contains("elementary flux modes: 1"), "{stdout}");
}

#[test]
fn export_metatool_roundtrip() {
    let dir = std::env::temp_dir().join("efm_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("toy_export.dat");
    let (_, _, ok) =
        run(&["--builtin", "toy", "--quiet", "--export-metatool", out_path.to_str().unwrap()]);
    assert!(ok);
    let (stdout, _, ok) = run(&[out_path.to_str().unwrap(), "--quiet"]);
    assert!(ok);
    assert!(stdout.contains("elementary flux modes: 8"), "{stdout}");
}

#[test]
fn supervised_run_recovers_from_injected_crash() {
    let (stdout, _, ok) = run(&[
        "--builtin",
        "toy",
        "--backend",
        "cluster",
        "--nodes",
        "3",
        "--supervise",
        "--max-restarts",
        "2",
        "--fault-plan",
        "seed=7;crash@1:phase=communicate,iter=2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("elementary flux modes: 8"), "{stdout}");
    assert!(stdout.contains("recovery log:"), "{stdout}");
    assert!(stdout.contains("injected crash"), "{stdout}");
}

#[test]
fn supervised_run_exhausts_restart_budget() {
    // Crash rank 0 at every iteration: no restart budget can outrun it.
    let plan = "seed=1;crash@0:phase=iteration,iter=0;crash@0:phase=iteration,iter=1;\
                crash@0:phase=iteration,iter=2;crash@0:phase=iteration,iter=3;\
                crash@0:phase=iteration,iter=4;crash@0:phase=iteration,iter=5;\
                crash@0:phase=iteration,iter=6;crash@0:phase=iteration,iter=7";
    let (_, stderr, ok) = run(&[
        "--builtin",
        "toy",
        "--backend",
        "cluster",
        "--nodes",
        "2",
        "--supervise",
        "--max-restarts",
        "1",
        "--fault-plan",
        plan,
    ]);
    assert!(!ok);
    assert!(stderr.contains("exhausted"), "{stderr}");
}

#[test]
fn failed_escalation_reports_every_attempt() {
    // A cap no split of the toy network fits under: the direct run and
    // both rungs run out of memory, and each shows up before the error,
    // also when the supervisor gives up on the ladder (its error message
    // ends with a two-event recovery log).
    for (extra, error, line_count) in [
        (None, "error: escalation exhausted at qsub 2: ", 4),
        (
            Some("--supervise"),
            "error: supervisor exhausted 3 restarts; last error: escalation exhausted at qsub 2: ",
            6,
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_efm-compute"))
            .args([
                "--builtin",
                "toy",
                "--backend",
                "cluster",
                "--nodes",
                "2",
                "--memory-limit",
                "300",
                "--auto-escalate",
                "2",
            ])
            .args(extra)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), line_count, "{stderr}");
        assert!(lines[0].starts_with("escalation: direct failed: "), "{stderr}");
        for line in &lines[1..3] {
            assert!(line.starts_with("escalation: divide-and-conquer over {"), "{stderr}");
            assert!(line.contains("memory capacity exceeded"), "{stderr}");
        }
        assert!(lines[3].starts_with(error), "{stderr}");
        assert!(lines[3].contains("memory capacity exceeded"), "{stderr}");
    }
}

#[test]
fn fault_plan_requires_supervise() {
    let (_, stderr, ok) = run(&[
        "--builtin",
        "toy",
        "--backend",
        "cluster",
        "--fault-plan",
        "seed=1;crash@0:phase=iteration,iter=0",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--supervise"), "{stderr}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (_, stderr, ok) = run(&["--builtin", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("unknown builtin"), "{stderr}");
    let (_, stderr, ok) = run(&["/does/not/exist.txt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
    let (_, stderr, ok) = run(&["--builtin", "toy", "--kernel", "simd"]);
    assert!(!ok);
    assert!(stderr.contains("auto|scalar"), "{stderr}");
}

#[test]
fn efm_kernel_env_accepts_only_auto_and_scalar() {
    let with_env = |value: &str| {
        Command::new(env!("CARGO_BIN_EXE_efm-compute"))
            .args(["--builtin", "toy", "--quiet"])
            .env("EFM_KERNEL", value)
            .output()
            .expect("binary runs")
    };
    for good in ["", "auto", "scalar"] {
        assert!(with_env(good).status.success(), "EFM_KERNEL={good:?}");
    }
    for bad in ["simd", "Scalar", "avx2"] {
        let out = with_env(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "EFM_KERNEL={bad:?}: {stderr}");
        assert!(stderr.contains(bad) && stderr.contains("auto|scalar"), "{stderr}");
    }
}

#[test]
fn cut_sets_and_yields_flags() {
    let (stdout, _, ok) =
        run(&["--builtin", "toy", "--quiet", "--cut-sets", "r4", "--yields", "r1,r4"]);
    assert!(ok);
    assert!(stdout.contains("minimal cut sets"), "{stdout}");
    assert!(stdout.contains("mode yields"), "{stdout}");
}

#[test]
fn writes_mode_files() {
    let dir = std::env::temp_dir().join("efm_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("modes.txt");
    let packed = dir.join("modes.efms");
    let (_, _, ok) = run(&["--builtin", "toy", "--quiet", "--output", text.to_str().unwrap()]);
    assert!(ok);
    let contents = std::fs::read_to_string(&text).unwrap();
    assert_eq!(contents.lines().count(), 8);
    let (_, _, ok) = run(&[
        "--builtin",
        "toy",
        "--quiet",
        "--output",
        packed.to_str().unwrap(),
        "--output-format",
        "packed",
    ]);
    assert!(ok);
    let bytes = std::fs::read(&packed).unwrap();
    assert_eq!(&bytes[..4], b"EFMS");
}
