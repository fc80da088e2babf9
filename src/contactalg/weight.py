"""Bases and the two cardinal invariants: weight and pi-weight.

A base for a bounded structure is a dV-dense set D inside the bounded
ideal, and the weight is the least cardinality of one. The search here
is exact: elements a with a << a are forced into every base (the only x
with a <= x <= a is a itself), and what remains is a minimum hitting-set
problem over the minimal well-inside intervals [a, R(a)] (R the reach
table) that no forced member meets, solved by depth-limited branching
on the most constrained interval with a greedy packing lower bound.
Pi-weight needs no relation at all: it is the atom count of the
carrier algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import Element, Subalgebra, _unions, is_dense_subset
from .contact import AxiomReport, ContactAlgebra, ContactStructure, check_axiom
from .errors import InternalInconsistencyError, ValidationError
from .lca import LocalContactAlgebra, _minimal_intervals, _submasks, is_dv_dense


def s_part(ca: ContactAlgebra) -> tuple[Element, ...]:
    """All elements way below themselves, ascending."""
    alg = ca.algebra
    full = alg.full_mask
    reach = ca.contact.closure_table()
    return tuple(
        Element(alg, a) for a in range(alg.size) if reach[a] & (full ^ a) == 0
    )


@dataclass(frozen=True)
class WeightResult:
    size: int
    base: tuple[Element, ...]


def algebra_weight(L: LocalContactAlgebra) -> WeightResult:
    """Minimum cardinality of a base, with a witness of that size.

    Requires the contact bundle on the underlying relation. The witness
    is deterministic: iterative deepening on the number of non-forced
    members, branching on the uncovered pair with the fewest interpolant
    candidates, candidates tried in ascending mask order.
    """
    if not L.ca.is_contact:
        raise ValidationError("weight needs a relation passing the contact bundle")
    masks = _minimum_base(L, _submasks(L.bounded_top.mask))
    return WeightResult(len(masks), tuple(Element(L.algebra, m) for m in masks))


def _minimum_base(L: LocalContactAlgebra, pool_masks) -> tuple[int, ...]:
    """Forced members plus a minimum completion drawn from pool_masks, as
    sorted masks.

    pool_masks must at least contain every forced element; ValidationError
    otherwise (a base within the pool then cannot exist). It is raised as
    well when some well-inside interval holds no element of the pool.

    The sets to hit are the minimal intervals [a, R(a)] (R the reach
    table), which by the lemma in lca._minimal_intervals are met by a set
    iff every well-inside pair a << c of the bounded part is. A forced f
    (R(f) <= f) inside [a, R(a)] has R(a) <= R(f) <= f, so f = R(a): a
    nonempty interval is met by a forced member iff its top is forced.

    The witness is the one the search over all bounded pairs a << c
    finds, with the pairs listed by a, then c, in _submasks order (0
    first, then decreasing masks) and the same pool. Every such pair P
    contains a minimal interval M(P) = [a0, c0], whose candidates are a
    subset of P's, and M(P) is unmet whenever P is. So at every node the
    least candidate count over the unmet pairs is reached by some unmet
    minimal interval, and a pool member in no minimal interval is never a
    candidate of the branch. On ties the first pair in the order wins;
    write P* = (a, c) for it. M(P*) ties with P*, so its candidates are
    the same set. If a0 != a, then a < a0 as masks. For a != 0 that puts
    a0, and so M(P*), first in the order, against the choice of P*. For
    a = 0 it makes M(P*) = [a0, R(0)] = [a0, 0] empty, so the interpolant
    check raised before any search. So a0 = a, and every pair between P*
    and M(P*) in the order has first member a0, while the only minimal
    interval with that first member is M(P*) itself. The first minimal
    interval of least count is therefore M(P*): both searches branch on
    the same candidates, in the same ascending order, and the lower
    bound and the failure memo only cut subtrees with no solution, so
    both return the same first minimum base.

    Setup costs what the intervals cost. The candidates of [a, c] are the
    pool members a | s with s <= c & ~a (none when a is not <= c). Pairs
    i and j share a candidate iff some candidate of i covers j, so the
    conflict row of i is the join of its candidates' cover rows. The
    packing bound depends only on the unmet set, so it is kept per set.
    """
    reach = L.ca.contact.closure_table()
    u = L.bounded_top.mask
    pool_set = set(pool_masks)

    forced = [a for a in _submasks(u) if reach[a] & ~a == 0]
    for a in forced:
        if a not in pool_set:
            raise ValidationError("pool misses a forced member; no base inside it")
    forced_set = set(forced)

    uncovered = [
        (a, c)
        for a, c in _minimal_intervals(L)
        if a & ~c or c not in forced_set
    ]
    if not uncovered:
        return tuple(sorted(forced))

    inside = [
        [d for s in _submasks(c & ~a) if (d := a | s) in pool_set and d not in forced_set]
        if a & ~c == 0 else []
        for a, c in uncovered
    ]
    if not all(inside):
        raise ValidationError("pool misses every interpolant of some pair")
    pool = sorted({d for ds in inside for d in ds})
    index = {d: j for j, d in enumerate(pool)}
    np_ = len(uncovered)
    cand = [0] * np_  # candidate pool-indices per pair, as bitmask
    cover = [0] * len(pool)  # pairs covered per pool element, as bitmask
    for i, ds in enumerate(inside):
        for d in ds:
            cand[i] |= 1 << index[d]
            cover[index[d]] |= 1 << i
    counts = [m.bit_count() for m in cand]

    conflict = [0] * np_  # pairs sharing at least one candidate
    for i, ds in enumerate(inside):
        for d in ds:
            conflict[i] |= cover[index[d]]

    bounds: dict[int, int] = {}

    def lower_bound(remaining: int) -> int:
        lb = bounds.get(remaining)
        if lb is None:
            lb = 0
            r = remaining
            while r:
                i = (r & -r).bit_length() - 1
                lb += 1
                r &= ~conflict[i]
            bounds[remaining] = lb
        return lb

    failed_at: dict[int, int] = {}
    chosen: list[int] = []

    def dfs(remaining: int, depth: int) -> bool:
        if remaining == 0:
            return True
        if depth == 0 or lower_bound(remaining) > depth:
            return False
        if failed_at.get(remaining, -1) >= depth:
            return False
        best = -1
        best_count = 1 << 62
        r = remaining
        while r:
            i = (r & -r).bit_length() - 1
            r &= r - 1
            count = counts[i]
            if count < best_count:
                best, best_count = i, count
        options = cand[best]
        while options:
            j = (options & -options).bit_length() - 1
            options &= options - 1
            chosen.append(pool[j])
            if dfs(remaining & ~cover[j], depth - 1):
                return True
            chosen.pop()
        failed_at[remaining] = depth
        return False

    all_pairs = (1 << np_) - 1
    depth = lower_bound(all_pairs)
    while True:
        chosen.clear()
        if dfs(all_pairs, depth):
            return tuple(sorted(forced + chosen))
        depth += 1


def pi_weight(algebra) -> int:
    """Least size of a dense subset: the atom count (0 for the degenerate
    algebra, where the empty set is dense). The only nonzero element
    below an atom is the atom itself, so every dense set holds each
    atom, and the atoms are dense, as each nonzero b lies above its own.
    """
    return algebra.atom_count


def zero_dim_criterion(L: LocalContactAlgebra) -> bool:
    """Is the bounded part of the self-way-below elements a base?

    Strict contract: rejects structures that fail the bounded-ideal
    axioms rather than computing on them.
    """
    if not L.is_valid():
        raise ValidationError("zero_dim_criterion requires a valid structure")
    members = [x for x in s_part(L.ca) if L.is_bounded(x)]
    return is_dv_dense(L, members)


_WAY_BELOW_AXIOMS = ("LL1", "LL2", "LL2'", "LL3", "LL4", "LL4'", "LL5", "LL6", "LL7")


@dataclass(frozen=True)
class SubalgebraContactResult:
    structure: ContactStructure
    way_below_reports: tuple[AxiomReport, ...]
    s_part_matches: bool
    is_minimum_base: bool
    weight: int

    @property
    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(r.axiom for r in self.way_below_reports if not r.ok)


def rho_from_subalgebra(parent, members: Subalgebra) -> SubalgebraContactResult:
    """Contact induced by a subalgebra: a is well inside b exactly when
    some subalgebra member sits between them.

    Since the member set is closed under joins and meets, the relation is
    additive and its atom rows are the blocks of the subalgebra's atom
    partition (the row of p is the smallest member above p). Diagnostics
    cover the well-inside axioms, whether the self-way-below elements are
    exactly the member set, and whether that set is a minimum base (with
    everything bounded). Two theorem-level facts are asserted outright:
    a dense member set forces the full normal-contact bundle, and a
    non-dense one must break the axiom giving nonzero b well inside each
    nonzero a. The base and weight searches run before s_part, so an
    algebra past the atom limit of the contact bundles is refused before
    s_part builds its 2^k table.
    """
    if members.parent is not parent:
        raise ValidationError("subalgebra belongs to a different algebra")
    rows = []
    member_masks = sorted(m.mask for m in members.members)
    for p in range(parent.atom_count):
        block = parent.full_mask
        for m in member_masks:
            if m >> p & 1:
                block &= m
        rows.append(block)
    structure = ContactStructure(parent, rows)
    ca = ContactAlgebra(parent, structure)

    reports = tuple(check_axiom(ca, name) for name in _WAY_BELOW_AXIOMS)
    L = LocalContactAlgebra(ca, parent.one)
    member_elements = sorted(members.members, key=lambda x: x.mask)
    base_ok = is_dv_dense(L, member_elements)
    w = algebra_weight(L)
    minimum = base_ok and w.size == len(member_masks)
    self_below = {x.mask for x in s_part(ca)}
    s_matches = self_below == set(member_masks)

    dense = is_dense_subset(parent, member_elements)
    if dense:
        if not (ca.is_normal and ca.is_extensional):
            raise InternalInconsistencyError(
                "dense member set failed the normal-contact bundle"
            )
    else:
        if check_axiom(ca, "LL6").ok:
            raise InternalInconsistencyError(
                "non-dense member set but every nonzero a has nonzero b well inside"
            )
    return SubalgebraContactResult(structure, reports, s_matches, minimum, w.size)


def minimal_base_within(L: LocalContactAlgebra, members) -> WeightResult:
    """A minimum-size base drawn from the join-closure of a given base.

    Rejects a non-base. The witness is not re-checked: _minimum_base meets
    every minimal interval by construction and draws only from the pool,
    the join closure (with the empty join 0 included). On the one valid
    finite structure, discrete with u = 1, every element is forced, so
    its size is the weight; tests/test_weight_oracle.py pins all three.
    """
    if not is_dv_dense(L, members):
        raise ValidationError("the given set is not a base")
    masks = _minimum_base(L, sorted(_unions(x.mask for x in members)))
    return WeightResult(len(masks), tuple(Element(L.algebra, m) for m in masks))
