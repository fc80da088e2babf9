"""Self-tests of the benchmark's tracer.

    python3 -m pytest bench/tests -q        (or: python3 -m unittest discover bench/tests)
"""

from __future__ import annotations

import inspect
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import SRC_DIR  # noqa: E402

sys.path.insert(0, str(SRC_DIR))

import contactalg  # noqa: E402
import contactalg.cli  # noqa: E402
from run import materialize  # noqa: E402
from tracer import MODULES, NAME, JOB, Tracer, summarize  # noqa: E402
from worker import Clock, execute  # noqa: E402
import workloads  # noqa: E402


def bindings():
    """(owner, attribute, object) for every function the tracer may wrap."""
    mods = [contactalg] + [getattr(contactalg, m) for m in MODULES]
    out = []
    for mod in mods:
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("contactalg."):
                out.append((mod, attr, obj))
    return out


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.before = bindings()
        self.tracer = Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()
        shutil.rmtree(self.tmp)

    def run_jobs(self, specs):
        clock = Clock(self.tracer)
        for i, spec in enumerate(specs):
            clock.job = i
            text, code, error = execute(contactalg, materialize(spec, self.tmp), clock)
            self.assertIsNone(error)
            self.assertIn(code, (0, 1))

    def spans_per_job(self, name):
        counts = {}
        for rec in self.tracer.spans:
            if rec[NAME] == name:
                counts[rec[JOB]] = counts.get(rec[JOB], 0) + 1
        return counts

    def test_one_weight_span_per_weight_job_and_one_dim_a_span_per_dim_job(self):
        wl = workloads.axiom_sweep()
        weights = wl.streams["w5rs0"][:3] + [wl.streams["ext5small"][1]]
        dims = workloads.dim_scan().streams
        dim_specs = dims["plain5n1"][:3] + dims["scan4"][:1] + dims["subset5"][:2]
        self.run_jobs(weights + dim_specs)
        n_w = len(weights)
        self.assertEqual(self.spans_per_job("weight.algebra_weight"),
                         {i: 1 for i in range(n_w)})
        self.assertEqual(self.spans_per_job("dimension.dim_a"),
                         {i: 1 for i in range(n_w, n_w + len(dim_specs))})

    def test_every_binding_is_wrapped(self):
        for owner, attr, original in self.before:
            if original.__name__.startswith("_") or original.__module__.split(".")[-1] not in MODULES:
                continue
            current = getattr(owner, attr)
            self.assertIs(current.__wrapped__, original, f"{owner.__name__}.{attr}")

    def test_direct_binding_counts_the_same(self):
        alg = contactalg.powerset_algebra(3)
        ca = contactalg.ContactAlgebra(alg, contactalg.extremal_relation(alg, "smallest"))
        self.tracer.start_job(0)
        contactalg.weight.check_axiom(ca, "C3")
        contactalg.contact.check_axiom(ca, "C4")
        contactalg.check_axiom(ca, "C3")
        self.tracer.end_job()
        names = [rec[NAME] for rec in self.tracer.spans]
        self.assertEqual(names.count("contact.check_axiom"), 3)
        layers = summarize(self.tracer.spans, 1.0)
        self.assertEqual(layers["contact.check_axiom.calls"], 3)
        self.assertAlmostEqual(layers["contact.check_axiom.repeat_share"], 1 / 3)

    def test_nothing_is_recorded_outside_a_job(self):
        alg = contactalg.powerset_algebra(2)
        contactalg.is_connected(contactalg.ContactAlgebra(
            alg, contactalg.extremal_relation(alg, "largest")))
        self.assertEqual(self.tracer.spans, [])

    def test_generator_resumptions_are_one_call(self):
        self.tracer.start_job(0)
        spaces = list(contactalg.enumerate_topologies(3))
        self.tracer.end_job()
        self.assertEqual(len(spaces), 29)
        layers = summarize(self.tracer.spans, 1.0)
        self.assertEqual(layers["topology.calls"], 1 + 29)  # the generator, 29 FiniteSpace


class UntracedTest(unittest.TestCase):
    def test_uninstall_restores_every_original_object(self):
        before = bindings()
        tracer = Tracer()
        tracer.install()
        self.assertTrue(any(hasattr(getattr(o, a), "__wrapped__") for o, a, _ in before))
        tracer.uninstall()
        for owner, attr, original in before:
            self.assertIs(getattr(owner, attr), original, f"{owner.__name__}.{attr}")
        self.assertFalse(hasattr(contactalg.ContactStructure.closure_table, "__wrapped__"))
        self.assertFalse(hasattr(contactalg.FiniteSpace.__init__, "__wrapped__"))

    def test_untraced_program_has_no_wrappers(self):
        for owner, attr, obj in bindings():
            self.assertFalse(hasattr(obj, "__wrapped__"), f"{owner.__name__}.{attr}")


class SummaryTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["weight.algebra_weight", 0.0, 1.0, -1, 0, None],
            ["contact.check_axiom", 0.1, 0.5, 0, 0, (True, False)],
            ["contact.closure_table", 0.2, 0.3, 1, 0, None],
            ["lca.is_dv_dense", 0.6, 0.7, 0, 0, None],
        ]
        layers = summarize(spans, 2.0)
        self.assertAlmostEqual(layers["weight.self_ms"], 500.0)
        self.assertAlmostEqual(layers["contact.self_ms"], 400.0)
        self.assertAlmostEqual(layers["lca.self_ms"], 100.0)
        self.assertAlmostEqual(layers["weight.share"], 0.25)
        self.assertAlmostEqual(layers["contact.check_axiom.ms"], 400.0)
        self.assertAlmostEqual(layers["weight.algebra_weight.contact_share"], 0.4)


if __name__ == "__main__":
    unittest.main()
