"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Checks that a wrong answer is counted (one corrupted expectation per
workload gives exactly one failed op), that the tracer puts every original
back, computes self time as span minus children and merges a CLI child's
counters, that BENCHMARK.json names the workloads ``workloads.py`` defines,
and that the benchmark refuses to run without the library sources.
Inputs are cut down so the whole test takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import k3motive as km  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

warnings.simplefilter("ignore", km.GeometricRealizabilityWarning)


def small(name):
    """The workload with its pass cut down to a few small ops."""
    work = workloads.make(name, ROOT)
    if name == "sphere-verify":
        work.LADDER = (("octahedron", "refine_edge_split", 1),)
    elif name == "kummer-nerve":
        work.AREAS = (64, 144)
    elif name == "snf-dense":
        work.COUNT = 4
    else:
        work.DIR_SIZES = (6, 6)
    return work


def corrupt(name, op):
    if name == "sphere-verify":
        op.expect["faces"] += 2
    elif name == "kummer-nerve":
        op.expect["m2"] += 2
    elif name == "snf-dense":
        op.expect["a"][0][0] += 1
    else:
        op.expect["r"][0] += 1


class CorruptedExpectation(unittest.TestCase):
    def setUp(self):
        base = ROOT / ".perfbench"
        base.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(dir=base))

    def tearDown(self):
        shutil.rmtree(self.scratch)

    def test_each_workload_counts_one_failure(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                work = small(name)
                h = run.Harness(work, seed=3, tmp=self.scratch / name)
                ops = work.make_pass(3, 0, self.scratch / name).ops
                h.run_ops(ops, traced=False)
                self.assertEqual((h.attempted, h.failed), (len(ops), 0),
                                 h.problems)
                corrupt(name, ops[-1])
                h.run_ops(ops, traced=False)
                self.assertEqual((h.attempted, h.failed), (2 * len(ops), 1))
                self.assertTrue(h.problems[0].startswith(ops[-1].label))


class Tracer(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = (km.verify_fiber, km.integrals.verify_fiber,
                  km.deltaset.kernel_basis, km.IntMatrix.__init__,
                  km.MotiveClass.__add__)
        rec = tracer.Recorder()
        inst = tracer.install(rec)
        self.assertIsNot(km.deltaset.kernel_basis, before[2])
        rec.active = True
        km.kernel_basis(km.IntMatrix([[1, -1]]))
        rec.active = False
        self.assertEqual(rec.call_counts()["intlinalg.kernel"], 1)
        self.assertEqual(rec.counters["intlinalg.sparse.nnz_in"], 2)
        inst.uninstall()
        after = (km.verify_fiber, km.integrals.verify_fiber,
                 km.deltaset.kernel_basis, km.IntMatrix.__init__,
                 km.MotiveClass.__add__)
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_self_time_is_span_minus_children(self):
        rec = tracer.Recorder()
        root = rec.open("op")
        rec.add_span("a", 0.0, 4.0, root)
        rec.add_span("b", 1.0, 2.0, root + 1)
        rec.add_span("b", 2.5, 3.0, root + 1)
        rec.close(root)
        selfs = rec.self_times({root})
        self.assertAlmostEqual(selfs["a"], 2.5)
        self.assertAlmostEqual(selfs["b"], 1.5)
        self.assertEqual(rec.call_counts({root})["b"], 2)

    def test_child_counters_reach_the_parent(self):
        child = tracer.Recorder()
        child.active = True
        child.counters["intlinalg.snf.max_transform_bits"] = 7
        child.counters["intlinalg.matmul.mults"] = 5
        tracer._count_sparse(child, (km.IntMatrix([[1, 0], [2, 3]]),), None)
        parent = tracer.Recorder()
        parent.counters["intlinalg.snf.max_transform_bits"] = 9
        parent.counters["intlinalg.matmul.mults"] = 1
        op = parent.open("op")
        offset = time.time() - time.perf_counter()
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as d:
            path = Path(d) / "spans.pickle"
            t = time.perf_counter()
            child.dump(path, t0=t, dumped=t, offset=offset)
            parent.load_child(path, t, offset, time.perf_counter(), op)
        parent.close(op)
        c = parent.counters
        self.assertEqual(c["intlinalg.snf.max_transform_bits"], 9)
        self.assertEqual(c["intlinalg.matmul.mults"], 6)
        self.assertEqual(c["intlinalg.sparse.nnz_in"], 3)
        self.assertEqual((parent.sparse_calls, len(parent.sparse_inputs)),
                         (1, 1))
        # the child's dump is the tracer's own work: not covered time
        span = {name: (parent.ends[i] - parent.starts[i])
                for i, name in enumerate(parent.names)}
        self.assertGreater(span["trace.dump"], 0.0)
        self.assertAlmostEqual(parent.covered_share({op}),
                               (span["cli.spawn"] + span["cli.exit"])
                               / span["op"])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))

    def test_refuses_to_run_without_sources(self):
        base = ROOT / ".perfbench"
        base.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=base))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(bare / HERE.name / "run.py"),
                 "--workload", "snf-dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
