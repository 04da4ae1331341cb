"""Tests of run.py's result-set handling: spreads, and refusing to compare
result sets measured on different builds. Run: python3 perfbench/test_run.py"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STAMP = {"build_type": "Release", "native": False, "isa": "sse2", "kernel_lanes": 4,
         "executors": 4, "nproc": 4, "compiler": "gcc 12.2.0"}


def result_set(values, **stamp_changes):
    stamp = dict(STAMP, **stamp_changes)
    return [{"record": {"workload": "resnet-batch", "seed": i, "trace": 0, "stamp": stamp},
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"img_per_s": {"value": v, "unit": "img/s"}}}}
            for i, v in enumerate(values)]


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)

    def test_median_and_quartiles_of_a_known_sample(self):
        # quantiles(n=4) on 1..9 ("exclusive"): 2.5, 5, 7.5
        self.assertAlmostEqual(run.spread(list(range(1, 10))), (7.5 - 2.5) / 5)


class StampRefusal(unittest.TestCase):
    def test_same_stamp_compares(self):
        rows = run.compare(result_set([10, 11, 12]), result_set([11, 12, 13]))
        (workload, name, before, _, after, _, change), = rows
        self.assertEqual((workload, name, before, after), ("resnet-batch", "img_per_s", 11, 12))
        self.assertAlmostEqual(change, 12 / 11 - 1)

    def test_each_differing_field_is_named(self):
        changed = {"build_type": "Debug", "native": True, "isa": "avx512f", "kernel_lanes": 1,
                   "executors": 2, "nproc": 8, "compiler": "clang 17"}
        for field, value in changed.items():
            with self.assertRaisesRegex(ValueError, f"'{field}'"):
                run.compare(result_set([10]), result_set([10], **{field: value}))

    def test_a_set_that_mixes_builds_is_refused(self):
        mixed = result_set([10]) + result_set([10], native=True)
        with self.assertRaisesRegex(ValueError, "'native'"):
            run.compare(mixed, result_set([10]))

    def test_compare_exits_nonzero_on_refusal(self):
        import json
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, rs in (("a", result_set([10])), ("b", result_set([10], isa="avx2"))):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    f.writelines(json.dumps(r) + "\n" for r in rs)
            self.assertEqual(run.main(["compare", *paths]), 2)


if __name__ == "__main__":
    unittest.main()
