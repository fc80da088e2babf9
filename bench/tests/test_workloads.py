"""Checks of the generated inputs, independent of the program under test."""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CAP_ATOMS = 8  # the CLI's default --cap-atoms
MAX_POINTS = 5  # contactalg.topology.DEFAULT_MAX_POINTS


def labelled_input(spec):
    """What makes one input: the files and arguments, or the library arguments."""
    if spec["kind"] == "cli":
        return (tuple(spec["args"]), tuple(sorted(spec["files"].items())))
    return tuple(sorted((k, str(v)) for k, v in spec.items() if k != "fact"))


def relation(text: str, close: bool):
    """(atoms, rows) of an algebra file, closed as the CLI would close it."""
    lines = text.splitlines()
    k = int(lines[0].split(":")[1])
    rows = [0] * k
    for line in lines[1:]:
        if line.startswith("contact:"):
            p, q = map(int, line.split(":")[1].split())
            rows[p] |= 1 << q
    return k, workloads.rs_close(k, rows) if close else tuple(rows)


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workloads = {name: build() for name, build in WORKLOADS.items()}

    def test_plans_are_seeded(self):
        for name, wl in self.workloads.items():
            a, b, c = wl.plan(1)[0], wl.plan(1)[0], wl.plan(2)[0]
            self.assertEqual(a, b, name)
            self.assertNotEqual([j["idx"] for j in a], [j["idx"] for j in c], name)

    def test_no_input_repeats_within_a_run(self):
        for name, wl in self.workloads.items():
            plan, _ = wl.plan(7)
            keys = [labelled_input(j["spec"]) for j in plan]
            self.assertEqual(len(keys), len(set(keys)), name)

    def test_no_relation_belongs_to_two_streams(self):
        for name in ("axiom-sweep", "dim-scan"):
            wl = self.workloads[name]
            owner = {}
            for stream, specs in wl.streams.items():
                for spec in specs:
                    for text in spec["files"].values():
                        rel = relation(text, "--close" in spec["args"])
                        self.assertEqual(owner.setdefault(rel, stream), stream, name)

    def test_sizes_stay_within_the_program_caps(self):
        for name, wl in self.workloads.items():
            for specs in wl.streams.values():
                for spec in specs:
                    if spec["kind"] == "cli":
                        for text in spec["files"].values():
                            atoms = int(text.split("\n", 1)[0].split(":")[1])
                            self.assertLessEqual(atoms, CAP_ATOMS)
                    elif spec["kind"] == "battery":
                        self.assertLessEqual(spec["n"], MAX_POINTS)
                    elif "k" in spec:
                        self.assertLessEqual(spec["k"], CAP_ATOMS)

    def test_blocks_have_a_constant_mix(self):
        for name, wl in self.workloads.items():
            plan, _ = wl.plan(3)
            ends = [i for i, j in enumerate(plan) if j["end"]]
            sizes = {b - a for a, b in zip(ends, ends[1:])}
            self.assertEqual(sizes, {len(wl.block)}, name)

    def test_every_seed_gets_the_same_blocks_and_groups(self):
        for name, wl in self.workloads.items():
            a, limit_a = wl.plan(4)
            b, limit_b = wl.plan(5)
            self.assertEqual(limit_a, limit_b, name)
            self.assertEqual([j["stream"] for j in a], [j["stream"] for j in b], name)
            self.assertEqual(sum(j["end"] for j in a) - bool(wl.prelude), wl.capacity(), name)
            for stream, groups in wl.groups.items():
                size = len(wl.streams[stream]) // groups
                idx = [j["idx"] for j in a[len(wl.prelude):] if j["stream"] == stream]
                self.assertEqual([i // size for i in idx],
                                 [n % groups for n in range(len(idx))], f"{name}/{stream}")

    def test_workloads_match_the_benchmark_file(self):
        with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json", encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        self.assertEqual(names, list(WORKLOADS))

    def test_topology_counts(self):
        # OEIS A000798: labelled topologies on n points.
        self.assertEqual([len(workloads.labelled_topologies(n)) for n in range(6)],
                         [1, 1, 4, 29, 355, 6942])

    def test_reflexive_symmetric_sweep_size(self):
        for k in range(1, 6):
            self.assertEqual(len(set(workloads._all_graphs(k))), 2 ** (k * (k - 1) // 2))

    def test_census_covers_every_relation_on_at_most_three_atoms(self):
        census = self.workloads["census"]
        got = {(s["k"], tuple(s["rows"])) for s in census.streams["upto3"]}
        want = {(k, rows) for k in range(4) for rows in itertools.product(range(1 << k), repeat=k)}
        self.assertEqual(got, want)
        self.assertEqual(len(got), 531)


if __name__ == "__main__":
    unittest.main()
