"""Self-test of the benchmark's own logic (not of the program).

    python3 perfbench/selftest.py

Covers the self-time arithmetic on nested and collapsed spans, that a
relabelled corpus keeps every group order, Frobenius count, hom count and
coset-check count, that one altered coefficient makes ``error_rate``
nonzero, that the poly goldens satisfy mixed(n, k+1) = |GL_n| * conj(n, k),
that the seed alone fixes the generated inputs, and the corrected clock:
its arithmetic, and that a sampled child is stopped, resumed, timed out
and reaped as it should be.
"""

from __future__ import annotations

import json
import random
import sys
import unittest

import checks
import hostclock
import spans
import workloads
from run import OUT, SRC, run_child
from workloads import Request

sys.path.insert(0, str(SRC))

from monodromy import groupdiv  # noqa: E402


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
        recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        self.assertEqual(spans.self_times(recorded), {"a": 6.0, "b": 3.0, "c": 1.0})

    def test_self_times_sum_to_root_duration(self):
        recorded = [["r", 0.0, 8.0, -1], ["x", 1.0, 7.0, 0], ["x", 2.0, 5.0, 1], ["y", 3.0, 4.0, 2]]
        self.assertAlmostEqual(sum(spans.self_times(recorded).values()), 8.0)

    def test_recursion_collapses_into_one_counted_span(self):
        tracer = spans.Tracer()

        def depth(n):
            tracer.count("calls")
            return 0 if n == 0 else 1 + tracer.call("rec", depth, (n - 1,), {}, collapse=True)

        self.assertEqual(tracer.call("rec", depth, (4,), {}, collapse=True), 4)
        self.assertEqual([s[0] for s in tracer.spans], ["rec"])
        self.assertEqual(tracer.counters["calls"], 5)

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer()
        with self.assertRaises(ZeroDivisionError):
            tracer.call("outer", lambda: tracer.call("inner", lambda: 1 / 0, (), {}), (), {})
        outer, inner = tracer.spans
        self.assertEqual(inner[3], 0)
        self.assertTrue(outer[1] <= inner[1] <= inner[2] <= outer[2])

    def test_layer_metrics_sum_counters_and_take_peak_ratios(self):
        dumps = [
            {"spans": [["engine.weight", 0.0, 2.0, -1], ["exactpoly.gcd", 0.5, 1.5, 0]],
             "counters": {"exactpoly.gcd_calls": 3, "fforacle.pairwise_budget_used": 0.1}},
            {"spans": [["engine.count", 0.0, 1.0, -1]],
             "counters": {"exactpoly.gcd_calls": 4, "fforacle.pairwise_budget_used": 0.3}},
        ]
        metrics = spans.layer_metrics(dumps)
        self.assertEqual(metrics["engine.weight_s"], 1.0)
        self.assertEqual(metrics["exactpoly.gcd_s"], 1.0)
        self.assertEqual(metrics["engine.certify_s"], 1.0)
        self.assertEqual(metrics["exactpoly.gcd_calls"], 7)
        self.assertEqual(metrics["fforacle.pairwise_budget_used"], 0.3)
        self.assertEqual(metrics["groupdiv.sweep_s"], 0.0)


class CorrectedClock(unittest.TestCase):
    REF = hostclock.REFERENCE_PROBE_S

    def timeline(self):
        # [0, 1] at the reference speed, stopped during (1, 2), [2, 3] where the
        # probe takes twice as long, so the program is taken to run 2 ** SENSITIVITY slower
        timeline = hostclock.Timeline()
        timeline.add(0.0, 1.0, self.REF, self.REF)
        timeline.add(2.0, 3.0, self.REF, 4 * self.REF)
        return timeline

    def test_stretches_scale_by_the_probe_ratio(self):
        timeline = self.timeline()
        self.assertAlmostEqual(timeline.raw_s, 2.0)
        self.assertAlmostEqual(timeline.corrected_s, 1.0 + 2 ** -hostclock.SENSITIVITY)

    def test_clock_skips_stopped_time(self):
        timeline = self.timeline()
        slow = 2 ** -hostclock.SENSITIVITY
        for t, expected in ((-1.0, 0.0), (0.5, 0.5), (1.5, 1.0), (2.5, 1.0 + slow / 2), (9.0, 1.0 + slow)):
            self.assertAlmostEqual(timeline.clock(t), expected, msg=t)

    def test_child_is_sampled_and_reaped(self):
        busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.35: pass\nraise SystemExit(3)"
        status, usage, timeline = hostclock.run_sampled([sys.executable, "-c", busy], 60)
        self.assertEqual(status, 3)
        self.assertGreaterEqual(len(timeline.segments), 3)
        self.assertGreater(timeline.raw_s, 0.35)
        self.assertGreater(usage.ru_utime, 0.0)

    def test_child_past_its_timeout_is_killed(self):
        status, _, _ = hostclock.run_sampled([sys.executable, "-c", "import time; time.sleep(30)"], 0.3)
        self.assertEqual(status, -9)


class RelabelledCorpus(unittest.TestCase):
    def invariants(self, table, sweep):
        orders = sorted(table.orders)
        frobenius = [groupdiv.frobenius_count(table, n) for n in (1, 2, 3, 4, 5, 6)]
        homs = [groupdiv.hom_count_profinite_abelian(table, k, s) for k in (1, 2) for s in ((), (2,), (3,))]
        checked = len(groupdiv.coset_lemma_sweep(table)) if sweep else None
        return len(table), orders, frobenius, homs, checked

    def test_relabelling_keeps_orders_and_counts(self):
        base = groupdiv.parse_corpus(workloads.corpus_text(None))
        for seed in (1, 2):
            text = workloads.corpus_text(random.Random(seed))
            self.assertNotEqual(text, workloads.corpus_text(None))
            relabelled = groupdiv.parse_corpus(text)
            self.assertEqual([t.name for t in relabelled], [t.name for t in base])
            for before, after in zip(base, relabelled):
                sweep = before.name == "D12"  # the S5 sweep alone takes seconds
                self.assertEqual(self.invariants(before, sweep), self.invariants(after, sweep), before.name)


class ErrorRate(unittest.TestCase):
    REQUEST = Request("poly", "2:2:ss", workloads.poly_argv(2, 2, "ss"))

    @classmethod
    def setUpClass(cls):
        OUT.mkdir(exist_ok=True)
        cls.goldens = checks.load_goldens()
        child = run_child([sys.executable, "-m", "monodromy.cli", *cls.REQUEST.argv])
        cls.status, cls.stdout = child.status, child.stdout

    def test_untouched_output_passes(self):
        self.assertIsNone(checks.check_output(self.REQUEST, self.status, self.stdout, self.goldens))

    def test_one_altered_coefficient_makes_error_rate_nonzero(self):
        doc = json.loads(self.stdout)
        doc["poly"]["coeffs"][2][0] += 1
        tampered = json.dumps(doc, sort_keys=True, indent=2)
        reasons = [
            checks.check_output(self.REQUEST, self.status, self.stdout, self.goldens),
            checks.check_output(self.REQUEST, self.status, tampered, self.goldens),
        ]
        self.assertIsNone(reasons[0])
        self.assertIsNotNone(reasons[1])
        self.assertEqual(checks.error_rate(reasons), 0.5)

    def test_nonzero_exit_and_reported_mismatch_fail(self):
        self.assertIsNotNone(checks.check_output(self.REQUEST, 1, self.stdout, self.goldens))
        verify = Request("verify", "3:2:ss:2")
        doc = dict(self.goldens["verify"][verify.key], allMatch=False)
        self.assertIsNotNone(checks.check_output(verify, 0, json.dumps(doc), self.goldens))


class Goldens(unittest.TestCase):
    def test_mixed_is_gl_order_times_conj(self):
        checked, bad = checks.identity_mismatches(checks.load_goldens()["poly"])
        self.assertEqual(bad, [])
        self.assertGreaterEqual(checked, 20)

    def test_identity_catches_an_altered_golden(self):
        poly = json.loads(json.dumps(checks.load_goldens()["poly"]))
        poly["3:2:conj"]["poly"]["coeffs"][0][0] += 1
        self.assertEqual(checks.identity_mismatches(poly)[1], ["3:2:conj"])

    def test_every_request_has_a_golden(self):
        goldens = checks.load_goldens()
        for workload in workloads.WORKLOADS:
            for req in workloads.build(workload, random.Random(0), OUT / "corpus-selftest.txt"):
                if req.kind in ("poly", "lib"):
                    self.assertIn(req.key, goldens["poly"])
                elif req.kind == "divisibility":
                    self.assertIn(req.key, goldens["corpus"])
                else:
                    self.assertIn(req.key, goldens[req.kind])


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        def inputs(seed):
            rng = random.Random(seed)
            reqs = workloads.build("group-lab", rng, OUT / "corpus-selftest.txt")
            rng.shuffle(reqs)
            return reqs, (OUT / "corpus-selftest.txt").read_text(encoding="utf-8")

        OUT.mkdir(exist_ok=True)
        self.assertEqual(inputs(5), inputs(5))
        self.assertNotEqual(inputs(5)[1], inputs(6)[1])


if __name__ == "__main__":
    unittest.main()
