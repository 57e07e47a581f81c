#!/usr/bin/env python3
"""Benchmark runner for the CRK-HACC reproduction (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hydro-paper --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check --reps 5   # interleaved steadiness check
    python3 perfbench/run.py --record-goldens        # rewrite perfbench/goldens.json

It builds perfbench_driver from source into .bench_build/, runs each episode
of the workload in a fresh driver process on a 4-thread pool, checks every
output against a 1-thread reference, and prints the metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
failed check makes the exit code non-zero.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
GOLDENS = os.path.join(HERE, "goldens.json")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

# BENCHMARK.json's workloads.  hydro-sharded runs only by hand: its five
# episodes of 8-12 s each make a run too long for the benchmark's time limit.
WORKLOADS = ["hydro-paper", "gravity-pm", "cosmo-treepm"]
EXTRA_WORKLOADS = ["hydro-sharded"]
THREADS = 4
DEFAULT_SEED = 42  # SimConfig::seed's default
REL_TOL = 1e-4  # kRelTol of tests/run/test_thread_parity.cpp
# shard.count is physics-neutral, so a sharded workload's final state is
# checked against the unsharded run of the same physics.
PHYSICS_OF = {"hydro-sharded": "hydro-paper"}
DRIVER_TIMEOUT_S = 170
MIN_EPISODES = 5  # and so at least 5 set-up samples

# name, unit, bound (share of the parent's median it may worsen by).  Every
# bound is the widest allowed: on a shared VM, load from neighbours moves a
# whole 4-thread run by up to 2x from one minute to the next (README.md,
# "Noise").
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("time_to_solution_s", "s", 0.25),
    ("particle_steps_per_s", "1/s", 0.25),
    ("step_s_p50", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
]

PER_LAYER = [
    ("ic.zeldovich_s", "s"),
    ("mesh.cic_deposit_s", "s"),
    ("mesh.cic_interp_s", "s"),
    ("fft.r2c_s", "s"),
    ("fft.c2r_s", "s"),
    ("fft.points", "count"),
    ("pm.solve_s", "s"),
    ("pm.thread_speedup", "1"),
    ("pp.short_s", "s"),
    ("pp.interactions", "count"),
    ("pp.interactions_per_s", "1/s"),
    ("tree.build_s", "s"),
    ("tree.refresh_s", "s"),
    ("tree.thread_speedup", "1"),
    ("domain.update_s", "s"),
    ("domain.pairs", "count"),
    ("domain.pairs_per_s", "1/s"),
    ("domain.reuse_ratio", "1"),
    ("sph.geometry_s", "s"),
    ("sph.corrections_s", "s"),
    ("sph.extras_s", "s"),
    ("sph.acceleration_s", "s"),
    ("sph.energy_s", "s"),
    ("sph.interactions", "count"),
    ("sph.interactions_per_s", "1/s"),
    ("sph.thread_speedup", "1"),
    ("fmm.upward_s", "s"),
    ("fmm.lists_s", "s"),
    ("fmm.far_s", "s"),
    ("fmm.m2p_ops", "count"),
    ("sched.overlap_gain_s", "s"),
    ("shard.reshard_s", "s"),
    ("shard.exchange_s", "s"),
    ("shard.ghosts_per_resident", "1"),
    ("shard.messages", "count"),
    ("shard.bytes", "B"),
    ("ckpt.write_s", "s"),
    ("ckpt.validate_s", "s"),
    ("ckpt.bytes", "B"),
    ("ckpt.mb_per_s", "MB/s"),
    ("halo.fof_s", "s"),
    ("halo.n_halos", "count"),
    ("trace.overhead_frac", "1"),
    ("trace.coverage", "1"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no hacc sources beside perfbench/ (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", str(THREADS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


# ---- driver processes ----------------------------------------------------


def drive(workload, seed, threads, mode="measure", seconds=0.0, trace=None):
    scratch = os.path.join(BUILD_ROOT, "scratch", f"{workload}-{os.getpid()}")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--mode", mode,
           "--seconds", repr(float(seconds)), "--scratch", scratch]
    if trace:
        cmd += ["--trace", trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver timed out: {' '.join(cmd)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def save_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def compute_reference(workload, seed):
    """1-thread final state of the workload's physics plus its exact counts."""
    # Keyed by the code too, so an edited workload never meets a stale entry.
    cache = os.path.join(BUILD_ROOT, "refs", source_sha1()[:12])
    physics = PHYSICS_OF.get(workload, workload)
    final_path = os.path.join(cache, f"final-{physics}-seed{seed}.json")
    counts_path = os.path.join(cache, f"counts-{workload}-seed{seed}.json")
    if not os.path.isfile(final_path):
        out = drive(physics, seed, 1, mode="reference")
        ep = out["episodes"][0]
        if ep["failed"]:
            raise BenchError(f"1-thread reference failed: {ep['failures']}")
        save_json(final_path, ep["final"])
        save_json(os.path.join(cache, f"counts-{physics}-seed{seed}.json"),
                  out["counts"])
    if not os.path.isfile(counts_path):
        save_json(counts_path, drive(workload, seed, 1, mode="counts")["counts"])
    return {"final": load_json(final_path), "counts": load_json(counts_path)}


def reference(workload, seed):
    if seed == DEFAULT_SEED:
        return load_json(GOLDENS)["workloads"][workload]
    return compute_reference(workload, seed)


# ---- checks and metrics --------------------------------------------------


def check_episode(ep, ref):
    """Failures of one episode: the driver's own plus the final-state check."""
    bad = []
    for key, want in ref["final"].items():
        got = ep["final"].get(key)
        if got is None:
            bad.append(f"final {key} missing")
        elif key in ("kinetic_energy", "thermal_energy", "n_halos",
                     "largest_halo"):
            if abs(got - want) > REL_TOL * abs(want):
                bad.append(f"final {key} {got!r} vs reference {want!r}")
        elif got != want:  # steps, ckpt.bytes: exact
            bad.append(f"final {key} {got!r} vs reference {want!r}")
    for key, want in ref["counts"].items():
        if ep["counts"].get(key) != want:
            bad.append(f"count {key} {ep['counts'].get(key)!r} vs {want!r}")
    failed = ep["failed"] + (1 if bad else 0)
    return failed, ep["failures"] + bad


def checked(out, ref):
    attempted = failed = 0
    failures = []
    for ep in out["episodes"]:
        f, why = check_episode(ep, ref)
        attempted += ep["attempted"]
        failed += f
        failures += why
    return attempted, failed, failures


def measure(workload, seed, seconds):
    """Episodes, each in a fresh driver process, until the next one would end
    past `seconds`, and at least MIN_EPISODES of them.  One process per
    episode keeps peak RSS one episode's high-water mark: glibc's per-thread
    arenas grow differently from one episode to the next."""
    runs = []
    used = 0.0
    while True:
        start = time.monotonic()
        runs.append(drive(workload, seed, THREADS))
        wall = time.monotonic() - start
        used += wall
        if used + wall > seconds and len(runs) >= MIN_EPISODES:
            break
    out = dict(runs[0])
    out["episodes"] = [r["episodes"][0] for r in runs]
    out["setup_s"] = [r["setup_s"][0] for r in runs]
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    return out


def end_to_end(out):
    eps = out["episodes"]
    steps = [s for ep in eps for s in ep["step_s"]]
    return {
        "setup_s": statistics.median(out["setup_s"]),
        "time_to_solution_s": statistics.median(
            ep["time_to_solution_s"] for ep in eps),
        "particle_steps_per_s": out["particles"] * len(steps) / sum(steps),
        "step_s_p50": statistics.median(steps),
        "peak_rss_mb": out["peak_rss_mb"],
    }


@functools.lru_cache(maxsize=None)
def source_sha1():
    """Content hash of src/ and perfbench/: provenance without git."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"  # a plain checkout; source_sha1 identifies the code
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def next_run_index():
    path = os.path.join(BUILD_ROOT, "run_index")
    try:
        with open(path) as f:
            index = int(f.read().strip() or 0)
    except (OSError, ValueError):
        index = 0
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(path, "w") as f:
        f.write(str(index + 1))
    return index


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_frac(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def provenance(out, seed, run_index, steal):
    return {
        "host_cores": out["host_cores"], "pool_threads": out["threads"],
        "compiler": out["compiler"], "build_type": out["build_type"],
        "git_sha": git_sha(), "source_sha1": source_sha1(), "seed": seed,
        "run_index": run_index, "cpu_steal_frac": steal,
    }


# ---- one benchmark invocation --------------------------------------------


def run_workload(workload, seed, seconds, trace):
    run_index = next_run_index()
    ref = reference(workload, seed)
    before = cpu_ticks()
    out = measure(workload, seed, seconds)
    steal = steal_frac(before, cpu_ticks())
    attempted, failed, failures = checked(out, ref)
    e2e = end_to_end(out)
    prov = provenance(out, seed, run_index, steal)
    print("provenance " + json.dumps(prov, sort_keys=True))
    n_steps = sum(len(ep["step_s"]) for ep in out["episodes"])
    print(f"workload {workload}: {len(out['episodes'])} episodes, "
          f"{n_steps} steps, {len(out['setup_s'])} set-ups, "
          f"{out['particles']} particles")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<22} {e2e[name]:.6g} {unit}")
    print(f"  {'failed_frac':<22} {failed / attempted:.6g} 1"
          f"  ({failed} of {attempted} checked operations)")

    if trace:
        trace_path = os.path.join(
            BUILD_ROOT, "traces", f"{workload}-seed{seed}-run{run_index}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        traced = drive(workload, seed, THREADS, seconds=seconds, trace=trace_path)
        a, f, why = checked(traced, ref)
        attempted, failed, failures = attempted + a, failed + f, failures + why
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            end_to_end(traced)["step_s_p50"] / e2e["step_s_p50"] - 1.0)
        print(f"trace: {trace_path}")
        for name, unit in PER_LAYER:
            print(f"  {name:<26} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in END_TO_END}

    for why in failures:
        print(f"FAILED CHECK: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---- steadiness self-check -----------------------------------------------


def self_check(reps, seconds, seed0):
    """Interleaved runs (ABC ABC ...) of every gated workload, then per
    metric the median, quartiles and spreads; an end-to-end metric fails
    when its quartile spread exceeds its bound."""
    values = {w: {name: [] for name, _, _ in END_TO_END} for w in WORKLOADS}
    fails = {w: [0, 0] for w in WORKLOADS}
    steal = {w: [] for w in WORKLOADS}
    for rep in range(reps):
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(seed0 + rep), "--seconds", str(seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                fails[w][0] += 1
                fails[w][1] += 1
                log(f"{w} seed {seed0 + rep}: no result (exit {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            prov = json.loads(lines[0].split(" ", 1)[1])
            steal[w].append(prov["cpu_steal_frac"])
            fails[w][0] += result["failed"]
            fails[w][1] += result["attempted"]
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            log(f"{w} seed {seed0 + rep}: steal {steal[w][-1]} " + " ".join(
                f"{name} {values[w][name][-1]:.5g}" for name in values[w]))
    ok = True
    print(f"{'workload':<14} {'metric':<22} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for w in WORKLOADS:
        for name, unit, bound in END_TO_END:
            xs = values[w][name]
            if len(xs) < 2:
                ok = False
                continue
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            iqr = (q3 - q1) / med
            verdict = "ok" if iqr <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{w:<14} {name:<22} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{iqr:>8.4f} {(max(xs) - min(xs)) / med:>8.4f} "
                  f"{bound:>6} {unit} {verdict}")
        failed, attempted = fails[w]
        frac = failed / attempted if attempted else 1.0
        ok = ok and failed == 0
        print(f"{w:<14} {'failed_frac':<22} {frac:>11.5g} 1 "
              f"({failed} of {attempted} checked operations)")
        if steal[w] and None not in steal[w]:
            print(f"{w:<14} {'cpu_steal_frac':<22} "
                  f"{statistics.median(steal[w]):>11.5g} "
                  f"(max {max(steal[w]):.5g})")
    return 0 if ok else 1


def record_goldens():
    """Recompute the default-seed 1-thread references into goldens.json."""
    shutil.rmtree(os.path.join(BUILD_ROOT, "refs"), ignore_errors=True)
    entries = {}
    for w in WORKLOADS + EXTRA_WORKLOADS:
        entries[w] = compute_reference(w, DEFAULT_SEED)
        log(f"{w}: {entries[w]}")
    out = drive(WORKLOADS[0], DEFAULT_SEED, 1, mode="counts")
    save_json(GOLDENS, {
        "seed": DEFAULT_SEED, "threads": 1, "compiler": out["compiler"],
        "build_type": out["build_type"], "workloads": entries})
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.record_goldens:
            return record_goldens()
        if args.self_check:
            return self_check(args.reps, args.seconds, args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
