"""Statistics, reference checks and metric assembly for the benchmark.

run.py builds and runs the C++ harness (harness/) and hands the record it
writes to the functions here; test_benchlib.py exercises them without a
build.
"""

import bisect
import json
import math
import re
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("cocomac_256", "dense_pgas", "serve_loop")

# --seed N selects one of the tuning inputs. The held-out input is run only
# with --held-out, to confirm a claimed gain on an input no change was tuned
# on. reference.json stores the expected outcomes of all of them.
TUNING_INPUT_SEEDS = (1, 2, 3, 4, 5)
HELD_OUT_INPUT_SEED = 6

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def input_seed(seed, held_out=False):
    """The workload input a --seed (or --held-out) run builds."""
    if held_out:
        return HELD_OUT_INPUT_SEED
    return TUNING_INPUT_SEEDS[seed % len(TUNING_INPUT_SEEDS)]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def percentile(values, p):
    """Percentile p (0..100) of values, linearly interpolated."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile with at least MIN_TAIL_SAMPLES of n samples
    beyond it, or None when n is too small for even the median."""
    for p in _PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return p
    return None


def summarize(values, p):
    """(percentile p of values, sample count); refuses a percentile with
    fewer than MIN_TAIL_SAMPLES samples beyond it."""
    n = len(values)
    best = tail_percentile(n)
    if best is None or p > best:
        raise ValueError(
            f"p{p:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"have {n} samples")
    return percentile(values, p), n


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) of a set of runs' values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def agreement(med_a, med_b, spreads, bound):
    """(agree, gap): two sets of runs agree when their medians differ by at
    most `bound` of the smaller one, whichever set ran first, and every
    spread is within `bound`."""
    gap = abs(med_b - med_a) / min(med_a, med_b)
    return gap <= bound and all(sp <= bound for sp in spreads), gap


def check_against_reference(record, reference):
    """(failed operations, messages) from comparing the record's functional
    checks with the stored reference for its workload and input seed."""
    stored = reference.get(record["workload"], {}).get(
        str(record["input_seed"]), {})
    failed, why = 0, []
    for check in record["checks"]:
        got = {"counts": check["counts"], "digest": check["digest"]}
        want = stored.get(check["key"])
        if got != want:
            failed += check["weight"]
            why.append(f"{check['key']}: got {got}, reference {want}")
    return failed, why


# The host probe's time (harness/host_probe.h) on the baseline host of the
# README, in a fast phase. Normalized timings read as if every episode had
# run at that speed.
PROBE_REFERENCE_MS = 0.80


def normalized(record, name):
    """Each episode's samples of series `name`, each scaled by
    PROBE_REFERENCE_MS over the mean of the host probes timed just before
    and just after it. A shared host's CPU slows by up to 1.8x, in phases
    from a fraction of a second to minutes, and every timing slows with it.
    The probe, timed on the same CPU moments apart, slows by most of the
    same factor (1.3-1.4x against 1.5-1.8x for the workloads), so the
    scaled samples keep a fraction of the phase's effect instead of all of
    it."""
    probes = sorted(record["probes"])
    times = [t for t, _ in probes]

    def scale(at):
        i = bisect.bisect(times, at)
        near = [ms for _, ms in probes[max(0, i - 1):i + 1]]
        return PROBE_REFERENCE_MS / statistics.fmean(near)

    return [[v * scale(at) for v, at in zip(values, stamps)]
            for values, stamps in zip(record["series"][name],
                                      record["series_at"][name])]


def end_to_end(record):
    """name -> (value, samples per episode, statistic) for every end-to-end
    metric. Each is the mean over the run's episodes of one statistic of
    each episode's normalized samples. Normalization leaves a slow phase's
    episodes somewhat above the others; a mean moves with the share of such
    episodes in the run, where a median would jump between the two."""
    median, mean = statistics.median, statistics.fmean
    ticks = normalized(record, "tick_ms")
    snapshots = normalized(record, "snapshot_ms")
    setups = normalized(record, "setup_s")
    n = min(len(e) for e in ticks)
    of = f", mean of {len(ticks)} episodes"
    return {
        "ticks_per_s": (mean([1e3 * len(e) / sum(e) for e in ticks]), n,
                        "ticks / their wall" + of),
        "tick_ms_p50": (mean([summarize(e, 50)[0] for e in ticks]), n,
                        "p50" + of),
        "tick_ms_p95": (mean([summarize(e, 95)[0] for e in ticks]), n,
                        "p95" + of),
        "snapshot_ms_p50": (mean([median(e) for e in snapshots]),
                            min(len(e) for e in snapshots), "p50" + of),
        "peak_rss_mb": (record["values"]["peak_rss_mb"], 1, "peak"),
        "setup_s": (mean([median(e) for e in setups]),
                    min(len(e) for e in setups), "p50" + of),
    }


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_self_times(spans):
    """Seconds of self time per layer: each span's duration minus the part
    of it its child spans cover, summed by the layer prefix of its name."""
    children = defaultdict(list)
    for name, start, end, sid, parent, run in spans:
        children[parent].append((start, end))
    self_s = defaultdict(float)
    for name, start, end, sid, parent, run in spans:
        covered = _union_length(children.get(sid, ()), start, end)
        self_s[name.split(".", 1)[0]] += (end - start) - covered
    return dict(self_s)


# Per-layer metrics a workload does not exercise, by name prefix; they
# read 0. Every other declared name must come out of the traced run.
NOT_EXERCISED = {
    "cocomac_256": ("serve.", "span.serve.", "arch.model_build_s",
                   "span.arch."),
    "dense_pgas": ("serve.", "span.serve.", "cocomac.", "span.cocomac.",
                   "compiler.", "span.compiler."),
    "serve_loop": ("arch.model_build_s", "span.arch."),
}


def per_layer(record, names):
    """name -> value for every per-layer metric. A name the traced run did
    not produce reads 0 when NOT_EXERCISED lists it for the workload and
    raises KeyError otherwise, so a renamed or dropped sample cannot pass
    as 0."""
    s, layers = record["samples"], record["layers"]
    self_s = span_self_times(record["spans"])
    skip = NOT_EXERCISED[record["workload"]]
    plain_ticks = [t for e in record["series"].get("tick_ms", []) for t in e]
    out = {}
    for name in names:
        layer = (name[len("span."):-len(".self_s")]
                 if name.startswith("span.") and name.endswith(".self_s")
                 else None)
        if name in layers:
            out[name] = layers[name]
        elif s.get(name):
            out[name] = statistics.median(s[name])
        elif name.endswith("_p50") and s.get(name[:-4]):
            out[name] = statistics.median(s[name[:-4]])
        elif (name == "obs.trace_overhead_pct" and s.get("tick_ms_traced")
              and plain_ticks):
            out[name] = 100.0 * (statistics.median(s["tick_ms_traced"]) /
                                 statistics.median(plain_ticks) - 1.0)
        elif layer is not None and layer in self_s:
            out[name] = self_s[layer]
        elif name.startswith(skip):
            out[name] = 0.0
        else:
            raise KeyError(f"{record['workload']}: the traced run produced "
                           f"no {name}")
    return out


def result(record, reference, spec, trace):
    """The final result object and the reference-check messages."""
    ref_failed, why = check_against_reference(record, reference)
    attempted = max(1, record["attempted"])
    failed = min(attempted, record["failed"] + ref_failed)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(record, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v[0] for k, v in end_to_end(record).items()}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return ({"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}, why)


def failure_result():
    """The result of a run whose harness produced no record: nothing was
    measured, so no metric is reported."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
