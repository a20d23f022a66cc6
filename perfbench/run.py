#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, check it, print
its metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One measurement. Builds perfbench_harness into .bench_build/ when
      needed, runs the workload on the input --seed selects, checks its
      outcomes against reference.json, and prints the provenance, a
      readable table, and as the last line one JSON object: correct,
      attempted, failed and the metrics (end-to-end with --trace 0,
      per-layer with --trace 1). Exits 1 when any operation failed.
      --held-out runs the held-out input instead of the one --seed selects.

  python3 perfbench/run.py --steadiness [--seconds S]
      Two independent sets of STEADINESS_RUNS untraced runs of every
      workload; prints, per workload and end-to-end metric, each set's
      median and quartiles and whether the sets agree within
      BENCHMARK.json's bounds.

  python3 perfbench/run.py --record-reference
      Re-derive reference.json from the current build (every workload and
      input, each episode and session checked for determinism first).

Run from the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

ROOT = benchlib.ROOT
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
RESULTS = BUILD / "results"
# A run must end within 180 s once the harness is built (the first run in a
# checkout also builds it, which may take longer).
RUN_LIMIT_S = 170.0
# Runs per set in --steadiness.
STEADINESS_RUNS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment for every child process: OpenMP capped at the CPUs this
    process may run on."""
    env = dict(os.environ)
    n = cpus()
    try:
        want = int(env.get("OMP_NUM_THREADS", n))
    except ValueError:
        want = n
    env["OMP_NUM_THREADS"] = str(max(1, min(want, n)))
    return env


def build():
    """Configure (once) and build the harness; exit 2 on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the simulator sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; run from a full checkout")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
                     + gen)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_harness", "-j", str(cpus())])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                log(f"run.py: build failed: {' '.join(cmd)} (see {build_log})")
                sys.exit(2)


def run_harness(workload, iseed, seconds, trace, deadline):
    """Run the harness once; its record, or None when it failed."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"record-{workload}-{iseed}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    cmd = [str(HARNESS), "--workload", workload, "--input-seed", str(iseed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in time")
        return None
    if proc.returncode != 0:
        log(f"run.py: harness exited with {proc.returncode}")
        return None
    return json.loads(out.read_text())


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file()
            and "__pycache__" not in p.parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(record, args, iseed):
    env = record["env"]
    sanitizers = env["sanitized"] or "-fsanitize" in env["cxx_flags"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "nproc": cpus(),
        "omp_num_threads": int(child_env()["OMP_NUM_THREADS"]),
        "build_type": env["build_type"],
        "cxx_flags": env["cxx_flags"].strip(),
        "optimized": env["optimized"],
        "sanitizers": sanitizers,
        "openmp": env["openmp"],
        "valid_for_comparison": env["optimized"] and not sanitizers,
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "input_seed": iseed,
        "trace": bool(args.trace),
    }


def measure(args):
    spec = benchlib.load_spec()
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    iseed = benchlib.input_seed(args.seed, args.held_out)
    record = run_harness(args.workload, iseed, args.seconds, args.trace,
                        deadline)
    if record is None:
        print(json.dumps(benchlib.failure_result()))
        return 1
    try:
        res, why = benchlib.result(record, benchlib.load_reference(), spec,
                                   args.trace)
    except (KeyError, TypeError, ValueError) as e:
        # A failed workload can leave a metric without its samples.
        for msg in record["failures"]:
            log(f"run.py: FAILED {msg}")
        log(f"run.py: no metrics from this record: {e!r}")
        print(json.dumps(benchlib.failure_result()))
        return 1
    prov = provenance(record, args, iseed)
    for msg in record["failures"] + why:
        log(f"run.py: FAILED {msg}")
    if not prov["valid_for_comparison"]:
        log("run.py: WARNING: non-optimised or sanitizer build; these "
            "numbers are not valid for comparison")
    print("provenance " + json.dumps(prov))
    if args.trace:
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    else:
        for name, (value, n, stat) in benchlib.end_to_end(record).items():
            print(f"  {name:20s} {value:>14.6g} "
                  f"{res['metrics'][name]['unit']:6s} ({stat} of {n})")
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed")
    (RESULTS / f"result-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps({"provenance": prov, "result": res}, indent=1))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def one_run(workload, seed, seconds):
    """One untraced measurement in a fresh process; its result object."""
    cmd = [sys.executable, str(benchlib.HERE / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env())
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else benchlib.failure_result()


def steadiness(args):
    """Two independent sets of runs; exit 0 when they agree everywhere."""
    spec = benchlib.load_spec()
    build()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sets = {w: [[], []] for w in workloads}
    for k in (0, 1):
        for w in workloads:
            for i in range(STEADINESS_RUNS):
                res = one_run(w, 1000 * k + i + 1, seconds)
                sets[w][k].append(res)
                log(f"set {k} {w} run {i}: correct={res['correct']}")
    ok = True
    summary = {}
    print(f"{'workload':12s} {'metric':16s} {'set':3s} {'q1':>11s} "
          f"{'median':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for k in (0, 1):
                runs = sets[w][k]
                if not all(r["correct"] for r in runs):
                    rows.append(None)
                    continue
                rows.append(benchlib.spread(
                    [r["metrics"][name]["value"] for r in runs]))
            if None in rows:
                ok = False
                print(f"{w:12s} {name:16s} failed operations")
                continue
            (_, med_a, _, _), (_, med_b, _, _) = rows
            agree, gap = benchlib.agreement(med_a, med_b, [r[3] for r in rows], bound)
            steady = all(r[3] < bound / 3 for r in rows)
            ok = ok and agree
            for k, (q1, med, q3, sp) in enumerate(rows):
                verdict = ("agree" if agree else "DISAGREE") + (
                    f" (gap {gap:.3f})") + (
                    ", steady" if steady else ", spread above bound/3")
                print(f"{w:12s} {name:16s} {k:3d} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {sp:7.3f} {bound:6.2f}  "
                      f"{verdict if k else ''}")
            summary.setdefault(w, {})[name] = {
                "sets": [dict(zip(("q1", "median", "q3", "spread"), r))
                         for r in rows],
                "median_gap": gap, "agree": agree, "steady": steady}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "steadiness.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def record_reference():
    build()
    deadline = time.monotonic() + 3600.0
    reference = {}
    for w in benchlib.WORKLOADS:
        reference[w] = {}
        for iseed in benchlib.TUNING_INPUT_SEEDS + (
                benchlib.HELD_OUT_INPUT_SEED,):
            record = run_harness(w, iseed, 1.0, False, deadline)
            if record is None or record["failed"]:
                log(f"run.py: {w} input {iseed} failed; reference unchanged")
                return 1
            entry = {}
            for check in record["checks"]:
                got = {"counts": check["counts"], "digest": check["digest"]}
                if entry.setdefault(check["key"], got) != got:
                    log(f"run.py: {w} input {iseed} {check['key']} is not "
                        "deterministic; reference unchanged")
                    return 1
            reference[w][str(iseed)] = entry
            log(f"recorded {w} input {iseed}")
    benchlib.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=benchlib.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchlib.load_spec()["run_seconds"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
