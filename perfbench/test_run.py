"""Tests for the benchmark's own helpers (no build, no harness run).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import collections
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(100, 90.0), 90.0)
        self.assertEqual(run.tail_percentile(99, 90.0), 75.0)
        self.assertEqual(run.tail_percentile(40, 75.0), 75.0)
        self.assertEqual(run.tail_percentile(39, 75.0), 50.0)
        self.assertEqual(run.tail_percentile(20, 75.0), 50.0)
        self.assertIsNone(run.tail_percentile(19, 75.0))
        self.assertIsNone(run.tail_percentile(1, 99.0))

    def test_cap_limits_the_choice(self):
        self.assertEqual(run.tail_percentile(100000, 90.0), 90.0)
        self.assertEqual(run.tail_percentile(100000, 99.9), 99.9)
        self.assertEqual(run.tail_percentile(1000, 99.9), 99.0)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.percentile(values, 90.0), 90)
        self.assertEqual(run.percentile(values, 50.0), 50)
        self.assertEqual(run.percentile([7.0], 99.0), 7.0)
        # Never a one-sample max when ten samples lie beyond.
        p = run.tail_percentile(len(values), 99.0)
        beyond = [v for v in values if v > run.percentile(values, p)]
        self.assertGreaterEqual(len(beyond), 10)


class MedianQuartilesTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = run.quartiles(values)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        self.assertEqual(q2, run.median(values))


class AccountingTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(run.account({"attempted": 12, "failed": 0}),
                         (True, 12, 0))

    def test_failed_checks_make_the_run_incorrect(self):
        self.assertEqual(run.account({"attempted": 12, "failed": 2}),
                         (False, 12, 2))
        self.assertEqual(run.account({"attempted": 1, "failed": 1}),
                         (False, 1, 1))

    def test_attempted_is_at_least_one(self):
        self.assertEqual(run.account({"attempted": 0, "failed": 0}),
                         (True, 1, 0))


class LayerCoverageTest(unittest.TestCase):
    def test_share_of_the_coverable_time(self):
        raw = {"coverage_wall_s": 2.0, "covered_ms": 1900.0}
        self.assertAlmostEqual(run.layer_coverage(raw), 0.95)

    def test_no_coverable_time(self):
        self.assertEqual(
            run.layer_coverage({"coverage_wall_s": 0.0, "covered_ms": 0.0}), 0.0)


def directives(lines, key):
    return [line.split()[1:] for line in lines if line.split()[0] == key]


class WorkListTest(unittest.TestCase):
    WORKLOADS = ("train", "sweep", "serve")

    def test_same_seed_same_work_list(self):
        for wl in self.WORKLOADS:
            self.assertEqual(run.work_list(wl, 7, 20), run.work_list(wl, 7, 20))

    def test_other_seed_other_work_list(self):
        for wl in self.WORKLOADS:
            self.assertNotEqual(run.work_list(wl, 7, 20),
                                run.work_list(wl, 8, 20))

    def test_indices_stay_in_the_database(self):
        for wl in self.WORKLOADS:
            lines = run.work_list(wl, 3, 20)
            for key in ("setup", "heldout", "job", "warmup"):
                for args in directives(lines, key):
                    self.assertTrue(all(0 <= int(i) < run.DB_SIZE for i in args))

    def test_training_never_sees_held_out_points(self):
        lines = run.work_list("train", 5, 20)
        setup = set(directives(lines, "setup")[0])
        heldout = set(directives(lines, "heldout")[0])
        self.assertFalse(setup & heldout)
        for job in directives(lines, "job"):
            self.assertFalse(set(job) & heldout)
            self.assertEqual(len(set(job)), len(job))

    def test_every_train_job_has_the_same_kernel_mix(self):
        def kernel_of(i):
            return next(k for k, (start, n) in run.KERNEL_RANGES.items()
                        if start <= i < start + n)
        for seed in (1, 2):
            for job in directives(run.work_list("train", seed, 20), "job"):
                mix = collections.Counter(kernel_of(int(i)) for i in job)
                self.assertEqual(set(mix.values()), {run.TRAIN["per_kernel"]})
                self.assertEqual(len(mix), len(run.KERNEL_RANGES))

    def test_sweep_mix_is_the_same_for_every_seed(self):
        # The seed orders the requests and picks their search seeds; the
        # kernel mix and budgets, hence the work, stay fixed.
        def mix(seed):
            return collections.Counter(
                (a[0], a[2]) for a in directives(run.work_list("sweep", seed, 20),
                                                 "sweep"))
        self.assertEqual(mix(1), mix(2))
        self.assertEqual(sum(mix(1).values()), 42)

    def test_sweep_repeats_share_search_seeds(self):
        reqs = directives(run.work_list("sweep", 4, 20), "sweep")
        seeds = collections.defaultdict(set)
        for kernel, seed, _ in reqs:
            seeds[kernel].add(seed)
        self.assertTrue(all(len(s) == 1 for s in seeds.values()))

    def test_open_loop_schedule_is_increasing(self):
        dues = [int(a[1]) for a in directives(run.work_list("serve", 9, 20),
                                              "open")]
        self.assertEqual(dues, sorted(dues))
        rate = len(dues) / (dues[-1] / 1e6)
        self.assertAlmostEqual(rate, run.SERVE["open_rate"],
                               delta=0.1 * run.SERVE["open_rate"])


if __name__ == "__main__":
    unittest.main()
