"""Harness tests for the repository benchmark; they need no build.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import sys
import unittest

sys.dont_write_bytecode = True
import benchlib  # noqa: E402


def produced_layers(workload):
    """A value for every per-layer name the workload exercises, as a traced
    run writes them."""
    skip = benchlib.NOT_EXERCISED[workload]
    return {m["name"]: 1.0 for m in benchlib.load_spec()["per_layer"]
            if not m["name"].startswith(skip)}


def fake_record(workload, trace=False):
    """A harness record shaped like the real one, with fixed numbers."""
    ticks = [float(i % 50 + 1) for i in range(240)]
    record = {
        "workload": workload,
        "input_seed": 1,
        "trace": trace,
        "attempted": 3,
        "failed": 0,
        "failures": [],
        "checks": [{"key": "episode", "weight": 1, "digest": "00ff",
                    "counts": {"fired": 10, "routed": 10, "remote": 4,
                               "ticks": 100}}],
        "samples": {"tick_ms_traced": ticks,
                    "serve.inject_rpc_ms": [1.0, 2.0, 3.0]},
        "series": {"tick_ms": [ticks, [t + 1.0 for t in ticks]],
                   "setup_s": [[0.5, 0.6, 0.7], [0.6, 0.6, 0.6]],
                   "snapshot_ms": [[10.0], [11.0]]},
        "probes": [[0.0, 0.8], [100.0, 0.8]],
        "values": {"peak_rss_mb": 100.0},
        "layers": produced_layers(workload) if trace else {},
        "env": {},
        "spans": [["bench.episode", 0.0, 10.0, 0, -1, 0],
                  ["bench.setup", 0.0, 2.0, 1, 0, 0],
                  ["compiler.compile", 0.5, 1.5, 2, 1, 0],
                  ["runtime.step", 3.0, 4.0, 3, 0, 0],
                  ["runtime.step", 3.5, 5.0, 4, 0, 0]],
    }
    stamp(record)
    return record


def stamp(record):
    """Gives every series sample a time: sample i of episode e at e + i/1e4,
    so episode e lies between e and e + 1."""
    record["series_at"] = {
        name: [[e + i / 1e4 for i in range(len(values))]
               for e, values in enumerate(episodes)]
        for name, episodes in record["series"].items()}


def reference_for(record):
    return copy.deepcopy({record["workload"]: {"1": {
        c["key"]: {"counts": c["counts"], "digest": c["digest"]}
        for c in record["checks"]}}})


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(199), 90.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_summarize_reports_the_sample_count(self):
        values = list(range(1, 201))
        self.assertEqual(benchlib.summarize(values, 50), (100.5, 200))
        p95, n = benchlib.summarize(values, 95)
        self.assertEqual(n, 200)
        self.assertAlmostEqual(p95, 190.05)

    def test_summarize_refuses_a_thin_tail(self):
        with self.assertRaises(ValueError):
            benchlib.summarize(list(range(199)), 95)

    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(benchlib.percentile([7], 95), 7)


class NormalizedTest(unittest.TestCase):
    def test_each_sample_scales_by_the_probes_either_side(self):
        rec = fake_record("dense_pgas")
        rec["series"]["tick_ms"] = [[1.0, 2.0], [3.0]]
        stamp(rec)
        # Reference speed until t = 0.5, then a phase at half speed.
        rec["probes"] = [[-1.0, 0.8], [0.00005, 0.8], [0.5, 1.6], [2.0, 1.6]]
        got = benchlib.normalized(rec, "tick_ms")
        self.assertEqual([[round(v, 9) for v in e] for e in got],
                         [[1.0, round(4.0 / 3.0, 9)], [1.5]])

    def test_a_slow_phase_does_not_move_the_metrics(self):
        rec = fake_record("cocomac_256")
        rec["series"]["tick_ms"] = [[4.0] * 240, [6.0] * 200, [4.0] * 220]
        rec["series"]["setup_s"] = [[0.5], [0.75], [0.5]]
        rec["series"]["snapshot_ms"] = [[10.0], [15.0], [10.0]]
        stamp(rec)
        rec["probes"] = [[0.0, 0.8], [0.99, 0.8], [1.0, 1.2], [1.99, 1.2],
                         [2.0, 0.8], [3.0, 0.8]]
        e2e = benchlib.end_to_end(rec)
        self.assertAlmostEqual(e2e["tick_ms_p50"][0], 4.0)
        self.assertEqual(e2e["tick_ms_p50"][1], 200)
        self.assertAlmostEqual(e2e["ticks_per_s"][0], 250.0)
        self.assertAlmostEqual(e2e["setup_s"][0], 0.5)
        self.assertAlmostEqual(e2e["snapshot_ms_p50"][0], 10.0)

    def test_episodes_count_by_their_share_of_the_run(self):
        rec = fake_record("dense_pgas")
        rec["series"]["tick_ms"] = [[4.0] * 200, [10.0] * 200, [4.0] * 200]
        rec["series"]["setup_s"] = [[0.5], [0.5], [0.5]]
        rec["series"]["snapshot_ms"] = [[10.0], [10.0], [10.0]]
        stamp(rec)
        self.assertEqual(benchlib.end_to_end(rec)["tick_ms_p95"][0], 6.0)


class AgreementTest(unittest.TestCase):
    def test_the_verdict_does_not_depend_on_run_order(self):
        # 29.65 -> 21.57 is 37% above the smaller median, in either order.
        for a, b in ((29.65, 21.57), (21.57, 29.65)):
            agree, gap = benchlib.agreement(a, b, [0.1, 0.1], 0.25)
            self.assertFalse(agree)
            self.assertAlmostEqual(gap, 8.08 / 21.57)

    def test_a_wide_spread_disagrees(self):
        self.assertFalse(benchlib.agreement(1.0, 1.0, [0.1, 0.3], 0.25)[0])
        self.assertTrue(benchlib.agreement(1.0, 1.2, [0.1, 0.2], 0.25)[0])

    def test_spread_is_iqr_over_median(self):
        q1, med, q3, sp = benchlib.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertEqual(sp, 1.0)


class ReferenceTest(unittest.TestCase):
    def test_matching_outcomes_pass(self):
        rec = fake_record("cocomac_256")
        res, why = benchlib.result(rec, reference_for(rec),
                                   benchlib.load_spec(), False)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (3, 0))
        self.assertEqual(why, [])

    def test_digest_mismatch_is_a_failure(self):
        rec = fake_record("cocomac_256")
        ref = reference_for(rec)
        bad = copy.deepcopy(rec)
        bad["checks"][0]["digest"] = "00fe"
        res, why = benchlib.result(bad, ref, benchlib.load_spec(), False)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertEqual(len(why), 1)

    def test_count_mismatch_fails_the_checks_weight(self):
        rec = fake_record("serve_loop")
        rec["attempted"] = 2000
        rec["checks"][0]["weight"] = 512
        ref = reference_for(rec)
        rec["checks"][0]["counts"]["fired"] = 11
        res, _ = benchlib.result(rec, ref, benchlib.load_spec(), False)
        self.assertEqual(res["failed"], 512)

    def test_missing_reference_is_a_failure(self):
        rec = fake_record("dense_pgas")
        res, _ = benchlib.result(rec, {}, benchlib.load_spec(), False)
        self.assertFalse(res["correct"])

    def test_harness_failures_count(self):
        rec = fake_record("dense_pgas")
        rec["failed"] = 1
        res, _ = benchlib.result(rec, reference_for(rec),
                                 benchlib.load_spec(), False)
        self.assertEqual(res["failed"], 1)

    def test_reference_file_covers_every_input(self):
        ref = benchlib.load_reference()
        seeds = benchlib.TUNING_INPUT_SEEDS + (benchlib.HELD_OUT_INPUT_SEED,)
        for w in benchlib.WORKLOADS:
            for s in seeds:
                self.assertIn(str(s), ref[w], f"{w} input {s}")


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.spec = benchlib.load_spec()

    def test_every_printed_metric_is_declared_and_well_named(self):
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for w in benchlib.WORKLOADS:
                rec = fake_record(w, trace)
                res, _ = benchlib.result(rec, reference_for(rec), self.spec,
                                         trace)
                self.assertEqual(set(res["metrics"]), set(declared))
                for name, m in res["metrics"].items():
                    self.assertRegex(name, benchlib.NAME_RE)
                    self.assertEqual(m["unit"], declared[name])
                json.dumps(res)

    def test_a_missing_per_layer_name_is_an_error(self):
        rec = fake_record("cocomac_256", True)
        del rec["layers"]["comm.messages"]
        with self.assertRaises(KeyError):
            benchlib.result(rec, reference_for(rec), self.spec, True)

    def test_a_layer_the_workload_skips_reads_zero(self):
        rec = fake_record("dense_pgas", True)
        res, _ = benchlib.result(rec, reference_for(rec), self.spec, True)
        self.assertEqual(res["metrics"]["compiler.compile_s"]["value"], 0.0)
        self.assertEqual(res["metrics"]["serve.frames"]["value"], 0.0)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_layer_self_time_subtracts_children(self):
        rec = fake_record("cocomac_256", True)
        self_s = benchlib.span_self_times(rec["spans"])
        # Episode 10 s minus setup [0,2] and steps [3,5].
        self.assertAlmostEqual(self_s["bench"], 6.0 + 1.0)
        self.assertAlmostEqual(self_s["compiler"], 1.0)
        self.assertAlmostEqual(self_s["runtime"], 2.5)

    def test_input_seed_mapping(self):
        self.assertEqual(benchlib.input_seed(0), 1)
        self.assertEqual(benchlib.input_seed(7), 3)
        self.assertEqual(benchlib.input_seed(7, held_out=True),
                         benchlib.HELD_OUT_INPUT_SEED)
        self.assertNotIn(benchlib.HELD_OUT_INPUT_SEED,
                         benchlib.TUNING_INPUT_SEEDS)


if __name__ == "__main__":
    unittest.main()
