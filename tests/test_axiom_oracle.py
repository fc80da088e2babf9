"""The reach-table axiom checks against the definitional sweeps.

Whole reports are compared (verdict, axiom name and first witness), for
the contact axioms on each relation and for LC1-LC3 under every ideal
top: all relations on at most three atoms, all reflexive symmetric
relations on four, and a fixed sample of the other relations on four.
"""

import pytest

from contactalg import (
    AXIOM_NAMES,
    LCA_AXIOM_NAMES,
    ContactAlgebra,
    Element,
    LocalContactAlgebra,
    ValidationError,
    all_contact_structures,
    check_axiom,
    check_lca_axiom,
    nca_as_lca,
    powerset_algebra,
)

from conftest import sample_not_reflexive_symmetric
from naive import naive_check_axiom, naive_check_lca_axiom


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


def test_unknown_lca_axiom_rejected(overlap3):
    with pytest.raises(ValidationError):
        check_lca_axiom(nca_as_lca(overlap3), "LC4")


def test_axiom_reports_match_naive_sweeps_off_reflexive_symmetric():
    sample = sample_not_reflexive_symmetric(200, seed=12)
    assert _compare(sample) == 200 * 15 + 200 * 16 * 3
    for name in ("C4", "LL1"):
        verdicts = {check_axiom(s, name).ok for s in sample}
        assert verdicts == {True, False}, name
