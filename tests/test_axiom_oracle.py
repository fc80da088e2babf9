"""The reach-table axiom checks against the definitional sweeps.

Whole reports are compared (verdict, axiom name and first witness), for
the contact axioms on each relation and for LC1-LC3 under every ideal
top: all relations on at most three atoms, all reflexive symmetric
relations on four, and a fixed sample of the other relations on four.
A seeded sample on five atoms checks the pair laws' witnesses where the
first failing atom is not atom 0. is_connected is compared with the
element sweep on every relation on at most three atoms and every graph
on four and five.
"""

import random

import pytest

from contactalg import (
    AXIOM_NAMES,
    LCA_AXIOM_NAMES,
    ContactAlgebra,
    ContactStructure,
    Element,
    LocalContactAlgebra,
    ValidationError,
    all_contact_structures,
    check_axiom,
    check_lca_axiom,
    is_connected,
    nca_as_lca,
    powerset_algebra,
)

from conftest import random_reflexive_symmetric, sample_not_reflexive_symmetric
from naive import naive_check_axiom, naive_check_lca_axiom, naive_is_connected


def _compare_all(k: int, reflexive_symmetric: bool) -> int:
    alg = powerset_algebra(k)
    return _compare(all_contact_structures(alg, reflexive_symmetric=reflexive_symmetric))


def _compare(structures) -> int:
    compared = 0
    for s in structures:
        alg = s.algebra
        for name in AXIOM_NAMES:
            assert check_axiom(s, name) == naive_check_axiom(s, name), (s.rows, name)
            compared += 1
        ca = ContactAlgebra(alg, s)
        for u in range(alg.size):
            L = LocalContactAlgebra(ca, Element(alg, u))
            for name in LCA_AXIOM_NAMES:
                assert check_lca_axiom(L, name) == naive_check_lca_axiom(L, name), (
                    s.rows, u, name,
                )
                compared += 1
    return compared


@pytest.mark.parametrize(
    "k, reflexive_symmetric, reports",
    [
        (0, False, 15 + 3),
        (1, False, 2 * 15 + 2 * 2 * 3),
        (2, False, 16 * 15 + 16 * 4 * 3),
        (3, False, 512 * 15 + 512 * 8 * 3),
        (4, True, 64 * 15 + 64 * 16 * 3),
    ],
)
def test_axiom_reports_match_naive_sweeps(k, reflexive_symmetric, reports):
    assert _compare_all(k, reflexive_symmetric) == reports


@pytest.mark.parametrize(
    "k, reflexive_symmetric, relations",
    [(0, False, 1), (1, False, 2), (2, False, 16), (3, False, 512), (4, True, 64), (5, True, 1024)],
)
def test_is_connected_matches_naive_sweep(k, reflexive_symmetric, relations):
    alg = powerset_algebra(k)
    verdicts = []
    for s in all_contact_structures(alg, reflexive_symmetric=reflexive_symmetric):
        ca = ContactAlgebra(alg, s)
        verdicts.append(is_connected(ca))
        assert verdicts[-1] == naive_is_connected(ca), s.rows
    assert len(verdicts) == relations
    assert set(verdicts) == ({True} if k < 2 else {True, False})


def test_unknown_lca_axiom_rejected(overlap3):
    with pytest.raises(ValidationError):
        check_lca_axiom(nca_as_lca(overlap3), "LC4")


def test_axiom_reports_match_naive_sweeps_off_reflexive_symmetric():
    sample = sample_not_reflexive_symmetric(200, seed=12)
    assert _compare(sample) == 200 * 15 + 200 * 16 * 3
    for name in ("C4", "LL1"):
        verdicts = {check_axiom(s, name).ok for s in sample}
        assert verdicts == {True, False}, name


PAIR_LAWS = ("C4", "C5", "LL1", "LL5", "LL7", "LC1", "LC2")
# The other seven contact axioms hold on every relation, and the tests
# above pin them on every relation up to four atoms.
DECIDED = ("C3", "C4", "C5", "C6", "LL1", "LL5", "LL6", "LL7")


def test_pair_law_witnesses_on_five_atoms():
    """100 seeded relations on five atoms, half of them reflexive
    symmetric, each under four ideal tops. Every pair law's first
    witness starts at an atom, and the sample holds a failure of each
    whose atom is not atom 0. It also holds a C6 failure whose witness
    is not an atom, and C3, LL6 and LC3 failures at an atom other than
    atom 0."""
    rng = random.Random(24)
    later_atom = set()
    single = set()
    for i in range(100):
        if i % 2:
            s = random_reflexive_symmetric(5, rng)
        else:
            s = ContactStructure(powerset_algebra(5), [rng.randrange(32) for _ in range(5)])
        alg = s.algebra
        reports = [check_axiom(s, name) for name in DECIDED]
        for report in reports:
            assert report == naive_check_axiom(s, report.axiom), (s.rows, report.axiom)
        ca = ContactAlgebra(alg, s)
        for u in [alg.full_mask] + [rng.randrange(alg.size) for _ in range(3)]:
            L = LocalContactAlgebra(ca, Element(alg, u))
            for name in LCA_AXIOM_NAMES:
                report = check_lca_axiom(L, name)
                assert report == naive_check_lca_axiom(L, name), (s.rows, u, name)
                reports.append(report)
        for report in reports:
            if not report.ok and report.axiom in PAIR_LAWS:
                a = report.witness[0].mask
                assert a & (a - 1) == 0 != a, (s.rows, report)
                if a > 1:
                    later_atom.add(report.axiom)
            if not report.ok and report.axiom in ("C3", "C6", "LL6", "LC3"):
                a = report.witness[0].mask
                single.add((report.axiom, "atom" if a & (a - 1) == 0 else "non-atom", a > 1))
    assert later_atom == set(PAIR_LAWS)
    assert {("C6", "non-atom", True), ("C3", "atom", True), ("LL6", "atom", True),
            ("LC3", "atom", True)} <= single
    # the one-element laws C3, LL6 and LC3 fail only at atoms
    assert {law for law, kind, _ in single if kind == "non-atom"} == {"C6"}
