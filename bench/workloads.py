"""The four workloads: their input universes and their seeded run plans.

Every input is generated here, in the harness, with the standard library
only. A workload is a set of *streams*. A stream is a fixed, ordered list
of job specs (its universe), built from `POOL_SEED` and never from the
run seed, so the expected output of every spec can be recorded once
(`bench/record.py`) and checked on any run. The run seed then chooses
which specs a run uses and in which order (`plan`).

A plan is a prelude followed by blocks. The prelude runs inputs that
every run takes in full (every 4-atom graph, every relation on at most
3 atoms, each `search` variant). Each block has the same mix of
streams; the worker checks the deadline only at block ends, so every run
consists of whole blocks and the mix, and with it the latency
distribution, does not depend on where the time ran out.

A stream may be split into equal *groups*, for instance the labelled
copies of one template relation each. The n-th draw from a stream takes
an unused spec of group n mod (number of groups), so every run meets the
groups in the same order and the seed only picks the labelling. No spec
occurs twice in a plan. When a run uses up a stream before the deadline,
the run ends early and the harness says so; `capacity` gives the number
of blocks a workload can supply.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

POOL_SEED = 180512457
LABELLINGS = 40  # recorded labelled copies of each template relation

# OEIS A000088 (graphs) and A000798 (labelled topologies).
GRAPHS_UP_TO_ISO = (1, 1, 2, 4, 11, 34)
LABELLED_TOPOLOGIES = (1, 1, 4, 29, 355, 6942)


# -- relations on atoms, as row bitmasks --


def rs_close(k: int, rows) -> tuple[int, ...]:
    out = [rows[p] | 1 << p for p in range(k)]
    for p in range(k):
        for q in range(k):
            if out[p] >> q & 1:
                out[q] |= 1 << p
    return tuple(out)


def graph_rows(k: int, edges) -> tuple[int, ...]:
    rows = [1 << p for p in range(k)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def relabel(k: int, rows, perm) -> tuple[int, ...]:
    out = [0] * k
    for p in range(k):
        r = 0
        for q in range(k):
            if rows[p] >> q & 1:
                r |= 1 << perm[q]
        out[perm[p]] = r
    return tuple(out)


def canonical(k: int, rows) -> tuple[int, ...]:
    return min(relabel(k, rows, perm) for perm in itertools.permutations(range(k)))


def random_graph(rng: random.Random, k: int, p: float) -> tuple[int, ...]:
    edges = [e for e in itertools.combinations(range(k), 2) if rng.random() < p]
    return graph_rows(k, edges)


def random_precontact(rng: random.Random, k: int) -> tuple[int, ...]:
    """A relation that fails reflexivity or symmetry (or both)."""
    while True:
        rows = list(random_graph(rng, k, 0.4))
        if rng.random() < 0.5:
            p = rng.randrange(k)
            rows[p] &= ~(1 << p)
        else:
            p, q = rng.sample(range(k), 2)
            rows[p] |= 1 << q
            rows[q] &= ~(1 << p)
        rows = tuple(rows)
        if rows != rs_close(k, rows):
            return rows


def labellings(rng: random.Random, k: int, rows, count: int,
               used: set) -> list[tuple[int, ...]] | None:
    """count distinct labelled copies of rows that are not in used (None
    if it has too few). used holds (k, rows) pairs."""
    seen: dict[tuple[int, ...], None] = {}
    perms = list(itertools.permutations(range(k)))
    rng.shuffle(perms)
    for perm in perms:
        copy = relabel(k, rows, perm)
        if (k, copy) not in used:
            seen.setdefault(copy, None)
            if len(seen) == count:
                return list(seen)
    return None


def algebra_text(k: int, rows, closed: bool) -> str:
    """An algebra file. With closed=True only pairs p < q are listed and
    the job passes --close rs; otherwise every related pair is listed."""
    lines = [f"atoms: {k}"]
    for p in range(k):
        for q in range(k):
            if rows[p] >> q & 1 and (not closed or p < q):
                lines.append(f"contact: {p} {q}")
    return "\n".join(lines) + "\n"


def set_text(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


# -- finite topologies, as preorders --


def labelled_topologies(n: int) -> list[tuple[int, ...]]:
    """Every topology on n labelled points, as its sorted open masks.

    A finite topology is a preorder whose opens are the up-sets. Preorders
    on n points extend those on n - 1: the new point x gets an up-set U
    and a down-set D of the old order with every d in D below every u in U.
    """
    orders = [()]  # up[p] = mask of points q with p <= q
    for m in range(n):
        grown = []
        for up in orders:
            ups = _upsets(m, up)
            downs = _downsets(m, up)
            for u in ups:
                for d in downs:
                    if any(d >> p & 1 and u & ~up[p] for p in range(m)):
                        continue
                    new = [up[p] | (1 << m if d >> p & 1 else 0) | (u if d >> p & 1 else 0)
                           for p in range(m)]
                    new.append(u | 1 << m)
                    grown.append(tuple(new))
        orders = grown
    return sorted(tuple(_upsets(n, up)) for up in orders)


def _upsets(m: int, up) -> list[int]:
    return [s for s in range(1 << m) if all(up[p] & ~s == 0 for p in range(m) if s >> p & 1)]


def _downsets(m: int, up) -> list[int]:
    out = []
    for s in range(1 << m):
        if all(not (s >> q & 1) or all(s >> p & 1 for p in range(m) if up[p] >> q & 1)
               for q in range(m)):
            out.append(s)
    return out


# -- plans --


@dataclass
class Workload:
    name: str
    streams: dict[str, list[dict]] = field(default_factory=dict)
    groups: dict[str, int] = field(default_factory=dict)  # stream -> number of groups
    prelude: list[tuple[str, int]] = field(default_factory=list)
    block: list[str] = field(default_factory=list)  # stream per slot; repeats draw further specs
    alternate: dict[str, list[str]] = field(default_factory=dict)

    def add(self, name: str, specs: list[dict], groups: int = 1) -> None:
        if len(specs) % groups:
            raise AssertionError(f"{name}: {len(specs)} specs in {groups} groups")
        self.streams[name] = specs
        self.groups[name] = groups

    def plan(self, seed: int) -> tuple[list[dict], str]:
        """Jobs for one run, and the stream whose end closes the plan.

        Jobs are dicts with stream, idx, spec and end (deadline check after).
        """
        rng = random.Random(seed)
        orders = {}
        for name, specs in sorted(self.streams.items()):
            g = self.groups[name]
            size = len(specs) // g
            orders[name] = [rng.sample(range(i * size, (i + 1) * size), size) for i in range(g)]
        draws = {name: 0 for name in self.streams}
        jobs = [self._job(s, i) for s, i in self.prelude]
        if jobs:
            jobs[-1]["end"] = True
        for b in itertools.count():
            slots = []
            for slot in self.block:
                choices = self.alternate.get(slot)
                stream = choices[b % len(choices)] if choices else slot
                n, groups = draws[stream], orders[stream]
                group = groups[n % len(groups)]
                if n // len(groups) >= len(group):
                    return jobs, stream
                draws[stream] = n + 1
                slots.append(self._job(stream, group[n // len(groups)]))
            slots[-1]["end"] = True
            jobs.extend(slots)

    def capacity(self) -> int:
        """Blocks in a plan (the same for every seed)."""
        jobs, _ = self.plan(0)
        return sum(j["end"] for j in jobs) - bool(self.prelude)

    def _job(self, stream: str, idx: int) -> dict:
        return {"stream": stream, "idx": idx, "spec": self.streams[stream][idx], "end": False}


def _cli(args, files=None, fact=None) -> dict:
    spec = {"kind": "cli", "args": list(args), "files": dict(files or {})}
    if fact:
        spec["fact"] = fact
    return spec


def _grouped(rng, k: int, draw, groups: int, size: int, used: set) -> list[tuple[int, ...]]:
    """groups templates drawn with draw(rng), size labelled copies each.

    No labelled relation is in used or in two groups; a template with too
    few fresh copies is redrawn.
    """
    out = []
    for _ in range(groups):
        for _attempt in range(1000):
            copies = labellings(rng, k, draw(rng), size, used)
            if copies is not None:
                break
        else:
            raise AssertionError(f"no {k}-atom template with {size} fresh labellings")
        used.update((k, r) for r in copies)
        out += copies
    return out


def _orbit_chunks(rng, k: int, size: int) -> list[list[tuple[int, ...]]]:
    """Every labelled graph on k atoms, except the edgeless and complete
    ones, cut into chunks of size copies of one isomorphism class."""
    pending = {r for r in _all_graphs(k) if 0 < _edges(k, r) < k * (k - 1) // 2}
    perms = list(itertools.permutations(range(k)))
    chunks = []
    for rows in sorted(pending):
        if rows not in pending:
            continue
        orbit = sorted({relabel(k, rows, p) for p in perms})
        pending.difference_update(orbit)
        rng.shuffle(orbit)
        chunks += [orbit[i:i + size] for i in range(0, len(orbit) - size + 1, size)]
    rng.shuffle(chunks)
    return chunks


def _check(k, rows, closed=None):
    closed = rows == rs_close(k, rows) if closed is None else closed
    args = ["check", "@A"] + (["--close", "rs"] if closed else [])
    return _cli(args, {"A": algebra_text(k, rows, closed)})


def _weight(k, rows):
    return _cli(["weight", "@A", "--close", "rs"], {"A": algebra_text(k, rows, True)})


def _piweight(k, rows):
    return _cli(["piweight", "@A", "--close", "rs"], {"A": algebra_text(k, rows, True)})


AXIOM_GROUPS = 10  # templates per axiom-sweep stream
AXIOM_COPIES = 15  # labelled copies per template


def axiom_sweep() -> Workload:
    wl = Workload("axiom-sweep")
    rng = random.Random(POOL_SEED)
    used: set = set()
    # There are only 1024 labelled graphs on 5 atoms, so the 5-atom graph
    # streams share them out by isomorphism class.
    chunks = _orbit_chunks(rng, 5, AXIOM_COPIES)
    for name, build in (("c5rs0", _check), ("c5rs1", _check),
                        ("w5rs0", _weight), ("w5rs1", _weight)):
        rows = [r for _ in range(AXIOM_GROUPS) for r in chunks.pop()]
        used.update((5, r) for r in rows)
        wl.add(name, [build(5, r) for r in rows], AXIOM_GROUPS)

    g = lambda k, p: (lambda r: random_graph(r, k, p))  # noqa: E731
    pre = lambda k: (lambda r: random_precontact(r, k))  # noqa: E731
    templates = [
        ("c5pre0", 5, pre(5), _check), ("c5pre1", 5, pre(5), _check),
        ("c5pre2", 5, pre(5), _check), ("c5pre3", 5, pre(5), _check),
        ("c6rs0", 6, g(6, 0.4), _check), ("c6rs1", 6, g(6, 0.5), _check),
        ("c6rs2", 6, g(6, 0.3), _check),
        ("c6pre0", 6, pre(6), _check), ("c6pre1", 6, pre(6), _check),
        ("w6rs0", 6, g(6, 0.4), _weight), ("w6rs1", 6, g(6, 0.3), _weight),
        ("w6rs2", 6, g(6, 0.5), _weight),
        ("piw6", 6, g(6, 0.4), _piweight),
    ]
    for name, k, draw, build in templates:
        rows = _grouped(rng, k, draw, AXIOM_GROUPS, AXIOM_COPIES, used)
        wl.add(name, [build(k, r) for r in rows], AXIOM_GROUPS)
    # The 7-atom slot alternates between check and weight, so each needs
    # half as many specs.
    half = AXIOM_GROUPS * AXIOM_COPIES // 2
    for name, build in (("c7rs", _check), ("w7rs", _weight)):
        rows = _grouped(rng, 7, g(7, 0.35), half // 5, 5, used)
        wl.add(name, [build(7, r) for r in rows], half // 5)

    # Light jobs on small files: products and relative algebras.
    count = AXIOM_GROUPS * AXIOM_COPIES
    prod, rel = [], []
    pairs: set = set()
    for _ in range(count):
        while True:
            a = random_graph(rng, 4, 0.5)
            b = random_graph(rng, 3, 0.5)
            if (a, b) not in pairs:
                break
        pairs.add((a, b))
        prod.append(_cli(["product", "@A", "@B", "--close", "rs"],
                         {"A": algebra_text(4, a, True), "B": algebra_text(3, b, True)}))
        while True:
            r = random_graph(rng, 6, 0.4)
            if 0 < _edges(6, r) < 15 and (6, r) not in used:
                break
        used.add((6, r))
        at = rng.randrange(1, 1 << 6)
        rel.append(_cli(["relative", "@A", "--close", "rs", "--at", set_text(at)],
                        {"A": algebra_text(6, r, True)}))
    wl.add("product", prod)
    wl.add("relative", rel)

    # Both extremal relations, once per run: they have a single labelling.
    for k in (5, 6):
        for which, rows in _extremal(k):
            wl.add(f"ext{k}{which}", [_check(k, rows, False), _cli(
                ["weight", "@A"], {"A": algebra_text(k, rows, False)})])
            wl.prelude += [(f"ext{k}{which}", 0), (f"ext{k}{which}", 1)]

    wl.block = ["piw6", "c5rs0", "w5rs0", "c6rs0", "c5pre0", "product", "c5rs1",
                "w5rs1", "c6pre0", "c6rs1", "relative", "c5pre1", "w6rs0", "c5pre3",
                "c6rs2", "w6rs2", "c5pre2", "c6pre1", "w6rs1", "big7"]
    wl.alternate = {"big7": ["c7rs", "w7rs"]}
    return wl


def _all_graphs(k: int) -> list[tuple[int, ...]]:
    pairs = list(itertools.combinations(range(k), 2))
    return [graph_rows(k, [e for b, e in enumerate(pairs) if bits >> b & 1])
            for bits in range(1 << len(pairs))]


def _edges(k: int, rows) -> int:
    return (sum(bin(r).count("1") for r in rows) - k) // 2


def _extremal(k: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("small", tuple(1 << p for p in range(k))),
            ("large", tuple((1 << k) - 1 for _ in range(k)))]


def dim_scan() -> Workload:
    wl = Workload("dim-scan")
    rng = random.Random(POOL_SEED + 1)

    def dim(k, rows, *flags):
        return _cli(["dim", "@A", "--close", "rs", *flags], {"A": algebra_text(k, rows, True)})

    def subset(k, rows, size):
        pool = rng.sample(range(1, (1 << k) - 1), size)
        return dim(k, rows, "--max-n", "1", "--subset", ";".join(set_text(m) for m in pool))

    # Labelled graphs, split so that no labelled relation is in two streams.
    # Edge counts pick the scans whose every level must be proved. The
    # 4-atom graphs are few, so every run takes all of them in its prelude.
    g4 = [r for r in _all_graphs(4) if 0 < _edges(4, r) < 6]
    g5 = [r for r in _all_graphs(5) if 0 < _edges(5, r) < 10]
    rng.shuffle(g4)
    rng.shuffle(g5)
    s4 = [r for r in g4 if _edges(4, r) >= 4]
    p4 = [r for r in g4 if _edges(4, r) < 4]
    s5 = [r for r in g5 if _edges(5, r) >= 7]
    rest5 = [r for r in g5 if _edges(5, r) < 7]
    g6: dict[tuple[int, ...], None] = {}
    while len(g6) < 2250:
        r = random_graph(rng, 6, rng.choice((0.3, 0.4, 0.5)))
        if 0 < _edges(6, r) < 15:
            g6.setdefault(r, None)
    g6 = list(g6)

    wl.add("scan4", [dim(4, r, "--max-n", "2", "--scan") for r in s4])
    wl.add("plain4", [dim(4, r, "--max-n", "2") for r in p4])
    wl.add("scan5", [dim(5, r, "--max-n", "1", "--scan") for r in s5])
    wl.add("subset5", [subset(5, r, 10) for r in rest5[0:150]])
    wl.add("plain5n1", [dim(5, r, "--max-n", "1") for r in rest5[150:450]])
    wl.add("plain5n2", [dim(5, r, "--max-n", "2") for r in rest5[450:600]])
    wl.add("plain6n1", [dim(6, r, "--max-n", "1") for r in g6[0:1350]])
    wl.add("plain6n2", [dim(6, r, "--max-n", "2") for r in g6[1350:1800]])
    wl.add("subset6", [subset(6, r, 12) for r in g6[1800:2250]])

    for k in (4, 5, 6):
        for which, rows in _extremal(k):
            name = f"ext{k}{which}"
            wl.add(name, [_cli(["dim", "@A", "--max-n", "1"],
                               {"A": algebra_text(k, rows, False)}, fact="dim0")])
            wl.prelude.append((name, 0))
    wl.prelude += [("scan4", i) for i in range(len(s4))] + [("plain4", i) for i in range(len(p4))]

    wl.block = ["plain6n1", "subset5", "plain5n1", "plain6n1", "plain6n2", "scan5",
                "plain6n1", "subset6", "plain5n1", "plain6n1", "plain6n1", "plain6n2",
                "plain6n1", "plain5n2", "subset6", "plain6n1", "plain6n2", "plain6n1",
                "subset6", "plain6n1"]
    return wl


def census() -> Workload:
    wl = Workload("census")
    rng = random.Random(POOL_SEED + 2)

    def tab(k, rows):
        spec = {"kind": "census", "k": k, "rows": list(rows)}
        if k and rows in (tuple(1 << p for p in range(k)), tuple((1 << k) - 1 for _ in range(k))):
            spec["fact"] = "dim0"
        return spec

    # The relations on at most 3 atoms and the search variants are few, so
    # every run takes all of them in its prelude; blocks sample the rest.
    wl.add("upto3", [tab(k, rows) for k in range(4)
                     for rows in itertools.product(range(1 << k), repeat=k)])
    all4 = list(itertools.product(range(16), repeat=4))
    wl.add("all4", [tab(4, rows) for rows in sorted(rng.sample(all4, 8192))])
    wl.add("rs5", [tab(5, rows) for rows in _all_graphs(5)])

    searches = [["search", "--atoms", str(k)] for k in range(1, 6)]
    searches += [["search", "--atoms", str(k), "--contact-class", "all"] for k in range(1, 4)]
    wl.add("search", [
        _cli(argv, fact="search_rows" if "all" not in argv else None) for argv in searches])
    wl.add("rs_count", [
        {"kind": "rs_count", "k": k, "fact": f"count={2 ** (k * (k - 1) // 2)}"}
        for k in range(1, 6)])
    upto3 = rng.sample(range(len(wl.streams["upto3"])), len(wl.streams["upto3"]))
    wl.prelude = ([("search", i) for i in range(len(searches))]
                  + [("rs_count", i) for i in range(5)]
                  + [("upto3", i) for i in upto3])
    wl.block = ["all4", "all4", "all4", "all4", "rs5", "all4", "all4", "all4", "all4"]
    return wl


def space_oracle() -> Workload:
    wl = Workload("space-oracle")
    wl.add("enum", [{"kind": "enum", "n": n, "fact": f"count={LABELLED_TOPOLOGIES[n]}"}
                    for n in range(5)])
    spaces = []
    for n in (4, 5):
        tops = labelled_topologies(n)
        if len(tops) != LABELLED_TOPOLOGIES[n]:
            raise AssertionError(f"generated {len(tops)} topologies on {n} points")
        for opens in tops:
            spec = {"kind": "battery", "n": n, "opens": list(opens)}
            if len(opens) == 1 << n:
                spec["fact"] = "discrete"
            spaces.append(spec)
    wl.add("space", spaces)
    wl.prelude = [("enum", n) for n in range(5)]
    wl.block = ["space"]
    return wl


WORKLOADS = {
    "axiom-sweep": axiom_sweep,
    "dim-scan": dim_scan,
    "census": census,
    "space-oracle": space_oracle,
}
