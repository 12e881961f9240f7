"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def call(p, n, a=1, s=0, t=0.0, g=0.0):
    return {"p": p, "n": n, "a": a, "s": s, "t": t, "g": g}


class Percentile(unittest.TestCase):
    def test_single_value(self):
        self.assertEqual(run.percentile([7.0], 50), 7.0)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_endpoints_are_min_and_max(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(run.percentile(xs, 0), 1)
        self.assertEqual(run.percentile(xs, 100), 5)

    def test_median_matches_statistics(self):
        for xs in ([3, 1, 2], [4, 1, 3, 2], [0.5, 9.0, 2.5, 2.5, 7.0, 1.0]):
            self.assertAlmostEqual(run.percentile(xs, 50), statistics.median(xs))

    def test_interpolates_between_ranks(self):
        xs = list(range(1, 11))  # 1..10: rank of p90 is 8.1
        self.assertAlmostEqual(run.percentile(xs, 90), 9.1)
        self.assertAlmostEqual(run.percentile(xs, 25), 3.25)

    def test_order_does_not_matter(self):
        xs = [9, 3, 7, 1, 5, 8, 2]
        self.assertEqual(run.percentile(xs, 90), run.percentile(sorted(xs), 90))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class Roles(unittest.TestCase):
    def test_loop_invariant_obligations(self):
        self.assertEqual(
            run.role_of("List.remove: loop invariant preserved :: x ~= null"), "loopinv")
        self.assertEqual(
            run.role_of("Client.move: loop invariant initially :: content = {}"), "loopinv")

    def test_everything_else_is_vc(self):
        for name in ("List.add: postcondition of add",
                     "List.remove: invariant 2 of List preserved",
                     "houdini: goal",
                     "prove"):
            self.assertEqual(run.role_of(name), "vc")

    def test_houdini_names(self):
        self.assertTrue(run.is_houdini("houdini: goal"))
        self.assertTrue(run.is_houdini("houdini"))
        self.assertFalse(run.is_houdini("List.houdiniHelper: postcondition"))

    def test_prover_layers_split_by_role_and_shape(self):
        calls = [
            call("fol", "M.m: loop invariant preserved :: p", a=3, s=1, t=0.9, g=0.6),
            call("fol", "M.m: postcondition of m", a=1, s=1, t=0.1),
            call("smt", "houdini: goal", a=4, s=3, t=0.04, g=0.01),
            call("smt", "M.m: loop invariant initially :: p", a=2, s=2, t=0.02),
        ]
        m = run.prover_layers(calls)
        self.assertEqual(m["fol.loopinv.attempts"], 3)
        self.assertEqual(m["fol.loopinv.settled"], 1)
        self.assertAlmostEqual(m["fol.loopinv.giveup_s"], 0.6)
        self.assertEqual(m["fol.vc.attempts"], 1)
        self.assertEqual(m["smt.vc.attempts"], 4)
        self.assertEqual(m["smt.loopinv.attempts"], 2)
        self.assertEqual(m["shape.checks"], 4)
        self.assertEqual(m["shape.settled"], 3)
        self.assertAlmostEqual(m["shape.time_s"], 0.04)
        self.assertEqual(m["mona.vc.attempts"], 0)
        self.assertEqual(m["cooper.loopinv.time_s"], 0)

    def test_unknown_prover_is_an_error(self):
        with self.assertRaises(ValueError):
            run.prover_layers([call("z3", "M.m: goal")])

    def test_signature_counts_attempts_per_prover_and_role(self):
        methods = [{"name": "M.m", "total": 3, "valid": 3, "invalid": 0, "unknown": 0}]
        calls = [call("smt", "M.m: a", a=2), call("smt", "M.m: loop invariant x :: p", a=1),
                 call("smt", "M.m: b", a=1)]
        sig = run.signature(methods, calls, 1)
        self.assertEqual(sig["attempts"], {"smt.loopinv": 1, "smt.vc": 3})
        self.assertEqual(sig["obligations"], 3)
        self.assertEqual(sig["methods"], 1)
        self.assertEqual(sig["reverified"], 1)


class WindowedPercentile(unittest.TestCase):
    def test_median_of_window_percentiles(self):
        # windows [1,2,3], [10,20,30], [4,5,6]; their medians 2, 20, 5
        xs = [1, 2, 3, 10, 20, 30, 4, 5, 6]
        self.assertEqual(run.windowed_percentile(xs, 3, 50), 5)

    def test_burst_in_one_window_does_not_move_it(self):
        calm = [1.0] * 10
        burst = [9.0] * 10
        xs = calm + burst + calm
        self.assertEqual(run.windowed_percentile(xs, 10, 90), 1.0)
        self.assertEqual(run.percentile(xs, 90), 9.0)

    def test_partial_last_window_is_dropped(self):
        self.assertEqual(run.windowed_percentile([1, 1, 1, 1, 100], 2, 50), 1)

    def test_too_few_values_is_an_error(self):
        with self.assertRaises(ValueError):
            run.windowed_percentile([1, 2], 3, 50)


class PositionMedians(unittest.TestCase):
    def test_median_per_position(self):
        runs = [[1.0, 10.0, 5.0], [3.0, 12.0, 5.0], [2.0, 500.0, 4.0]]
        self.assertEqual(run.position_medians(runs), [2.0, 12.0, 5.0])

    def test_one_run_is_itself(self):
        self.assertEqual(run.position_medians([[4.0, 1.0]]), [4.0, 1.0])

    def test_unequal_lengths_are_an_error(self):
        with self.assertRaises(ValueError):
            run.position_medians([[1.0, 2.0], [1.0]])
        with self.assertRaises(ValueError):
            run.position_medians([])


class SpeedFactors(unittest.TestCase):
    def test_reference_speed_is_factor_one(self):
        ref = run.REFERENCE_PROBE_S
        self.assertEqual(run.speed_factors([ref, ref, ref]), [1.0, 1.0])

    def test_mean_of_the_two_probes_around_an_interval(self):
        ref = run.REFERENCE_PROBE_S
        # a host twice as slow before an interval and equal after it
        (f,) = run.speed_factors([2 * ref, ref])
        self.assertAlmostEqual(f, 2 / 3)

    def test_one_factor_per_interval(self):
        self.assertEqual(len(run.speed_factors([0.5, 0.6, 0.7, 0.8])), 3)

    def test_scaling_cancels_a_uniform_slowdown(self):
        # work of 4 s at reference speed, measured on a host 1.5x slower
        ref = run.REFERENCE_PROBE_S
        (f,) = run.speed_factors([1.5 * ref, 1.5 * ref])
        self.assertAlmostEqual(6.0 * f, 4.0)

    def test_needs_two_positive_probes(self):
        for probes in ([], [0.5], [0.5, 0.0]):
            with self.assertRaises(ValueError):
                run.speed_factors(probes)


class SelfTime(unittest.TestCase):
    def test_subtracts_children(self):
        self.assertAlmostEqual(run.self_time(10.0, [2.0, 3.0, 4.0]), 1.0)

    def test_no_children(self):
        self.assertEqual(run.self_time(2.5, []), 2.5)

    def test_never_negative(self):
        # children timed by a different clock read can overshoot slightly
        self.assertEqual(run.self_time(1.0, [0.6, 0.5]), 0.0)


class MetricNames(unittest.TestCase):
    def test_per_layer_covers_every_prover_and_role(self):
        for p in run.PROVERS:
            for r in run.ROLES:
                for k in ("attempts", "settled", "time_s", "giveup_s"):
                    self.assertIn(f"{p}.{r}.{k}", run.PER_LAYER)

    def test_prover_layers_keys_are_per_layer_metrics(self):
        self.assertLessEqual(set(run.prover_layers([])), set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
