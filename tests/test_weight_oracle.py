"""The minimum-base search on minimal intervals against the search over
every bounded pair.

Whole results are compared (size and every member of the witness), for
algebra_weight and for minimal_base_within given the weight's own base,
whose join closure is a restricted pool: every contact relation on at
most three atoms and every graph on four, under every bounded top, and
every labelled graph on five atoms under three tops, and seeded graphs
and rings on six to eight atoms, the sizes the benchmark runs. The
witness of minimal_base_within must also lie in that join closure and,
on valid structures, have the weight's size. The search itself is also
run on arbitrary pools, where both must raise the same ValidationError
or return the same base.
"""

import itertools

import pytest

from contactalg import (
    ContactAlgebra,
    ContactStructure,
    Element,
    LocalContactAlgebra,
    ValidationError,
    algebra_weight,
    all_contact_structures,
    cycle_algebra,
    minimal_base_within,
    powerset_algebra,
)
from contactalg.weight import _minimum_base

from conftest import sampled_contact_algebras
from naive import naive_minimum_base


def _join_closure(masks) -> list[int]:
    closure = {0}
    for m in masks:
        closure |= {c | m for c in closure}
    return sorted(closure)


def _compare(L: LocalContactAlgebra) -> None:
    expected = naive_minimum_base(L, L.bounded_masks())
    got = algebra_weight(L)
    assert got.size == len(expected)
    assert tuple(x.mask for x in got.base) == expected

    within = minimal_base_within(L, got.base)
    closure = _join_closure(expected)
    assert tuple(x.mask for x in within.base) == naive_minimum_base(L, closure)
    assert {x.mask for x in within.base} <= set(closure)
    if L.is_valid():
        assert within.size == got.size


def _compare_under_tops(structures, tops) -> int:
    compared = 0
    for s in structures:
        ca = ContactAlgebra(s.algebra, s)
        for u in tops:
            _compare(LocalContactAlgebra(ca, Element(s.algebra, u)))
            compared += 1
    return compared


@pytest.mark.parametrize("k, cases", [(0, 1), (1, 2), (2, 8), (3, 64), (4, 64 * 16)])
def test_weight_matches_pair_search_under_every_top(k, cases):
    alg = powerset_algebra(k)
    assert _compare_under_tops(all_contact_structures(alg), range(alg.size)) == cases


def test_weight_matches_pair_search_on_five_atom_graphs():
    alg = powerset_algebra(5)
    tops = (0b11111, 0b10110, 0b00111)
    assert _compare_under_tops(all_contact_structures(alg), tops) == 1024 * 3


def test_weight_matches_pair_search_on_six_to_eight_atoms():
    """20 seeded graphs each on 6 and 7 atoms and the rings on 6 to 8,
    under the top 1 and under 1 minus the first atom."""
    cas = [ca for k in (6, 7) for ca in sampled_contact_algebras(k, 20, seed=3)]
    cas += [cycle_algebra(k) for k in (6, 7, 8)]
    compared = 0
    for ca in cas:
        full = ca.algebra.full_mask
        compared += _compare_under_tops([ca.contact], (full, full & ~1))
    assert compared == 43 * 2


def _outcome(search, L, pool):
    try:
        return search(L, pool)
    except ValidationError as e:
        return str(e)


def test_search_on_arbitrary_pools_matches_pair_search():
    """Every relation on two atoms and every one on three under every top,
    with pools the bounded part minus at most two members: the same base,
    or the same refusal, including a pool that misses every interpolant
    of some pair."""
    refusals = set()
    for k in (2, 3):
        alg = powerset_algebra(k)
        for rows in itertools.product(range(alg.size), repeat=k):
            ca = ContactAlgebra(alg, ContactStructure(alg, rows))
            for u in range(alg.size):
                L = LocalContactAlgebra(ca, Element(alg, u))
                bounded = L.bounded_masks()
                for dropped in itertools.combinations(bounded, min(2, len(bounded))):
                    pool = [m for m in bounded if m not in dropped]
                    outcome = _outcome(_minimum_base, L, pool)
                    assert outcome == _outcome(naive_minimum_base, L, pool), (rows, u, dropped)
                    if isinstance(outcome, str):
                        refusals.add(outcome)
    assert refusals == {
        "pool misses a forced member; no base inside it",
        "pool misses every interpolant of some pair",
    }
