#!/usr/bin/env python3
"""Cold-process benchmark of the EFM suite (see README.md beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload net1-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload net1-serial --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

It builds `efm-compute` and the benchmark's own `efm-perfbench` from
source, generates the seeded input, and then runs a closed loop with one
client: each operation is one cold `efm-compute` process, started only
after the previous one has ended. Every operation's output is checked.
The last line of stdout is the JSON result; the line before it holds the
per-sample detail and the host metadata.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# BENCHMARK.json lists the last two; net1-serial is the serial baseline,
# run by hand (README "Noise" says why it is not listed).
WORKLOADS = ("net1-serial", "net1-cluster2-ckpt", "net2-noR56-dnc4-rayon")

# Set-up runs after each operation: at least MIN_SETUPS_PER_OP, and more
# until they have taken SETUP_SHARE of that operation's wall time. Most of
# a run goes to operations: a 45 s run gives about 30 operations and as many
# set-up runs on net1-cluster2-ckpt, about 10 and 25 on Network II.
MIN_SETUPS_PER_OP = 1
SETUP_SHARE = 0.25
# Fewest samples behind any reported median, however short --seconds is.
MIN_OPS = 3
MIN_TRACED = 3
OP_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml at the checkout root: nothing to build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "efm-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "efm-compute"), os.path.join(rel, "efm-perfbench")


def cold(perfbench, argv, env, log_path):
    """Runs one process to completion through `efm-perfbench exec`, which
    times it and reads its rusage; returns (exit code, or None on timeout
    or launch failure; wall s; user+sys CPU s; peak RSS MiB). Its stdout
    and stderr go to `log_path`."""
    p = subprocess.Popen([perfbench, "exec", "--log", log_path, "--"] + argv, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         start_new_session=True)
    # On timeout, kill the launcher and the program it started.
    timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
    timer.start()
    try:
        out, _ = p.communicate()
    finally:
        timer.cancel()
        if p.poll() is None:  # interrupted: stop the launcher and its child
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if p.returncode != 0:
        return None, 0.0, 0.0, 0.0
    r = json.loads(out)
    return r["code"], r["wall_s"], r["cpu_s"], r["maxrss_kib"] / 1024.0


def tool(perfbench, args, env):
    r = subprocess.run([perfbench] + args, env=env, capture_output=True, text=True,
                       timeout=OP_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"efm-perfbench {args[0]} failed: {r.stderr.strip()}")
    return [json.loads(line) for line in r.stdout.splitlines() if line.strip()]


class Session:
    """One workload on one seed: its inputs, work directory and tallies."""

    def __init__(self, workload, seed, toy, env, binaries, work):
        self.env, self.work = env, work
        self.compute, self.perfbench = binaries
        args = ["plan", "--workload", workload, "--seed", str(seed), "--dir", work]
        self.plan = tool(self.perfbench, args + (["--toy"] if toy else []), env)[0]
        self.workload, self.toy = workload, toy
        self.attempted = 0
        self.failed = 0
        self.ops = []      # [wall, cpu, rss, output file] of operations
        self.setups = []   # wall of set-up runs
        self.failures = []

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def op(self):
        """Runs one operation; returns its wall time, or None if it failed."""
        n = len(self.ops)
        out = os.path.join(self.work, f"out-{n}.efms")
        ckpt = os.path.join(self.work, "op.efck")
        if os.path.exists(ckpt):
            os.remove(ckpt)
        argv = [self.compute, self.plan["network"]] + self.plan["op_flags"] + ["--output", out]
        self.attempted += 1
        code, wall, cpu, rss = cold(self.perfbench, argv, self.env,
                                    os.path.join(self.work, "op.log"))
        if code != 0:
            self.fail(f"operation {n}: exit {code}")
            return None
        self.ops.append([wall, cpu, rss, out])
        return wall

    def setup(self):
        """Runs one set-up process; returns its wall time (0 if it failed)."""
        argv = [self.compute, self.plan["network"]] + self.plan["setup_flags"]
        log_path = os.path.join(self.work, "setup.log")
        self.attempted += 1
        code, wall, _, _ = cold(self.perfbench, argv, self.env, log_path)
        with open(log_path, errors="replace") as f:
            text = f.read()
        if code != 0 or "(2 of 2 requested)" not in text:
            self.fail(f"set-up: exit {code}: {text.strip()[:200]}")
            return 0.0
        self.setups.append(wall)
        return wall

    def traced(self):
        """Runs `efm-perfbench trace` as a cold process through the same
        launcher as the operations; returns its report with the process's
        wall time added as `wall_s`, or None if it failed."""
        argv = [self.perfbench, "trace", "--workload", self.workload,
                "--network", self.plan["network"], "--dir", self.work]
        log_path = os.path.join(self.work, "trace.log")
        self.attempted += 1
        code, wall, _, _ = cold(self.perfbench, argv + (["--toy"] if self.toy else []),
                                self.env, log_path)
        with open(log_path, errors="replace") as f:
            lines = f.read().splitlines()
        t = None
        # The report is the last line on stdout; stderr shares the log.
        for line in reversed(lines if code == 0 else []):
            if line.startswith('{"count"'):
                t = json.loads(line)
                break
        if t is None:
            self.fail(f"traced run: exit {code}: {' '.join(lines)[-200:]}")
            return None
        if not self.matches(t):
            self.fail(f"traced run: {t['count']} EFMs, digest {t['digest']}")
            return None
        t["wall_s"] = wall
        return t

    def matches(self, d):
        return (d.get("count") == self.plan["golden_count"]
                and d.get("digest") == self.plan["golden_digest"])

    def check_outputs(self):
        """Compares every operation's EFM file with the golden count and
        digest; a mismatch or an unreadable file fails the operation."""
        if not self.ops:
            return
        files = [o[3] for o in self.ops]
        digests = {d["file"]: d for d in tool(self.perfbench, ["digest"] + files, self.env)}
        kept = []
        for o in self.ops:
            d = digests.get(o[3], {})
            if self.matches(d):
                kept.append(o)
            else:
                self.fail(f"{os.path.basename(o[3])}: {d.get('count')} EFMs, "
                          f"digest {d.get('digest')} {d.get('error', '')}".strip())
        self.ops = kept


def median(xs):
    return statistics.median(xs) if xs else 0.0


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_units():
    s = spec()
    return ({m["name"]: m["unit"] for m in s["end_to_end"]},
            {m["name"]: m["unit"] for m in s["per_layer"]})


def measure(s, seconds):
    """The untraced closed loop: one operation, then its set-up runs, until
    `seconds` have passed and at least MIN_OPS rounds ran."""
    s.setup()  # warm the page cache; its time is not reported
    s.setups.clear()
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_OPS or time.perf_counter() - start < seconds:
        budget = SETUP_SHARE * (s.op() or 0.0)
        spent, n = 0.0, 0
        while n < MIN_SETUPS_PER_OP or spent < budget:
            wall = s.setup()
            if not wall:
                break
            spent += wall
            n += 1
        rounds += 1
    s.check_outputs()
    return {
        "wall_s": median([o[0] for o in s.ops]),
        "cpu_s": median([o[1] for o in s.ops]),
        "peak_rss_mb": median([o[2] for o in s.ops]),
        "setup_s": median(s.setups),
    }, {"ops": [o[:3] for o in s.ops], "setups": s.setups}


def measure_traced(s, seconds):
    """Alternates an untraced cold operation with a traced one (the
    in-process run of `efm-perfbench trace`, itself a cold process);
    layer metrics are lower medians over the traced ones."""
    s.setup()
    start = time.perf_counter()
    traced = []
    while True:
        s.op()
        t = s.traced()
        if t is not None:
            traced.append(t)
        if time.perf_counter() - start >= seconds and len(traced) >= MIN_TRACED:
            break
        if s.failed and time.perf_counter() - start >= seconds:
            break
    s.check_outputs()
    # The lower median is one measured pass, so counts stay whole numbers.
    names = traced[0]["metrics"].keys() if traced else []
    metrics = {k: statistics.median_low([t["metrics"][k] for t in traced]) for k in names}
    # Both walls are cold processes timed by the same launcher, so process
    # start-up and teardown cancel.
    wall = median([o[0] for o in s.ops])
    traced_wall = median([t["wall_s"] for t in traced])
    metrics["trace.overhead_pct"] = (traced_wall - wall) / wall * 100.0 if wall else 0.0
    detail = {
        "untraced_wall_s": [o[0] for o in s.ops],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "traced_root_s": [t["root_s"] for t in traced],
        "kernel_tier": traced[0]["kernel_tier"] if traced else "",
        "engine_phases_apportioned": traced[0]["engine_phases_apportioned"] if traced else False,
        "program_histograms": traced[0]["program_histograms"] if traced else {},
        "spans": traced[0]["spans"] if traced else [],
    }
    return metrics, detail


def work_dir(name):
    """A fresh run directory under .bench_work and the environment for
    everything run.py starts: the stripe store spills into TMPDIR, so
    that points inside the checkout too."""
    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    return work, dict(os.environ, TMPDIR=tmp, CARGO_TARGET_DIR=target_dir())


def remove(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run still uses it


def run(args):
    e2e_units, layer_units = declared_units()
    work, env = work_dir(f"{args.workload}-s{args.seed}")
    try:
        t0 = time.perf_counter()
        binaries = build(env)
        log(f"build checked in {time.perf_counter() - t0:.1f} s")
        s = Session(args.workload, args.seed, False, env, binaries, work)
        host_start = tool(s.perfbench, ["host"], env)[0]
        if args.trace:
            values, detail = measure_traced(s, args.seconds)
            units = layer_units
        else:
            values, detail = measure(s, args.seconds)
            units = e2e_units
        host_end = tool(s.perfbench, ["host"], env)[0]
    finally:
        remove(work)
    missing = set(units) - set(values)
    if missing and not s.failed:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  host_start=host_start, host_end=host_end, failures=s.failures)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))


def smoke():
    """Every workload's shape on the 8-EFM toy network, plus two tampered
    output files the checker must reject. Exits non-zero on any surprise."""
    work, env = work_dir("smoke")
    problems = []
    try:
        binaries = build(env)
        for w in WORKLOADS:
            wdir = os.path.join(work, w)
            os.makedirs(wdir)
            s = Session(w, 1, True, env, binaries, wdir)
            s.op()
            s.setup()
            s.traced()
            s.check_outputs()
            if s.failed or len(s.ops) != 1:
                problems.append(f"{w}: {s.failures}")
                continue
            out = s.ops[0][3]
            with open(out, "rb") as f:
                data = bytearray(f.read())
            flipped, truncated = out + ".flipped", out + ".truncated"
            with open(truncated, "wb") as f:
                f.write(data[:-3])
            # The last mode's last support word; its lowest bit is reaction 0.
            data[-8] ^= 0x01
            with open(flipped, "wb") as f:
                f.write(data)
            s.ops = [[0, 0, 0, flipped], [0, 0, 0, truncated]]
            s.check_outputs()
            if s.failed != 2 or s.ops:
                problems.append(f"{w}: tampered files passed the check")
            log(f"smoke {w}: ok ({s.failures})")
    finally:
        remove(work)
    for p in problems:
        log(f"smoke FAILED {p}")
    return 1 if problems else 0


def stop(signum, _frame):
    raise BenchError(f"stopped by signal {signum}")


def main():
    # Unwind on SIGTERM too, so the current child is killed and the run
    # directory removed.
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload's shape on the toy network and exit")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        run(args)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
