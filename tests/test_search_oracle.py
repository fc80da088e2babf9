"""The orbit-wise canonical forms of `search` against canonicalising each
relation on its own: the same classes, canonical strings and
representatives, in the same order."""

import random

import pytest

from contactalg import ContactStructure, all_contact_structures, powerset_algebra
from contactalg.cli import _orbit_classes

from naive import naive_orbit_classes


def _classes(structures, k):
    return [(canon, structure.rows) for canon, structure in _orbit_classes(structures, k)]


@pytest.mark.parametrize(
    "k, reflexive_symmetric",
    [(1, True), (2, True), (3, True), (4, True), (5, True), (1, False), (2, False), (3, False)],
)
def test_orbit_classes_match_the_relabelling_oracle(k, reflexive_symmetric):
    structures = list(all_contact_structures(powerset_algebra(k), reflexive_symmetric))
    assert _classes(structures, k) == naive_orbit_classes(structures, k)


def test_orbit_classes_match_the_oracle_on_a_sample_of_four_atom_relations():
    rng = random.Random(21)
    alg = powerset_algebra(4)
    structures = [ContactStructure(alg, [rng.randrange(16) for _ in range(4)]) for _ in range(2000)]
    classes = _classes(structures, 4)
    assert classes == naive_orbit_classes(structures, 4)
    assert len(classes) < len(structures)  # the sample repeats classes

