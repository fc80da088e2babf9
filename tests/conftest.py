import random

import pytest

from contactalg import (
    ContactAlgebra,
    ContactStructure,
    cycle_algebra,
    extremal_relation,
    nca_as_lca,
    powerset_algebra,
)


@pytest.fixture(scope="session")
def b3():
    return powerset_algebra(3)


@pytest.fixture(scope="session")
def overlap3(b3):
    return ContactAlgebra(b3, extremal_relation(b3, "smallest"))


@pytest.fixture(scope="session")
def everything3(b3):
    return ContactAlgebra(b3, extremal_relation(b3, "largest"))


@pytest.fixture(scope="session")
def c6():
    return cycle_algebra(6)


@pytest.fixture(scope="session")
def overlap3_lca(overlap3):
    return nca_as_lca(overlap3)


def random_reflexive_symmetric(atom_count: int, rng: random.Random) -> ContactStructure:
    alg = powerset_algebra(atom_count)
    rows = [1 << p for p in range(atom_count)]
    for p in range(atom_count):
        for q in range(p + 1, atom_count):
            if rng.random() < 0.5:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return ContactStructure(alg, rows)


def sampled_contact_algebras(atom_count: int, count: int, seed: int = 0):
    """A deterministic spread of reflexive-symmetric structures."""
    rng = random.Random(seed * 1000 + atom_count)
    out = []
    seen = set()
    for _ in range(count * 4):
        s = random_reflexive_symmetric(atom_count, rng)
        if s.rows in seen:
            continue
        seen.add(s.rows)
        out.append(ContactAlgebra(s.algebra, s))
        if len(out) == count:
            break
    return out


def sample_not_reflexive_symmetric(count: int, seed: int) -> list[ContactStructure]:
    """Relations on four atoms that are not reflexive symmetric, a third
    of them made reflexive and a third symmetric, so that C4 and LL1
    each both pass and fail."""
    rng = random.Random(seed)
    alg = powerset_algebra(4)
    seen = set()
    while len(seen) < count:
        rows = [rng.randrange(alg.size) for _ in range(4)]
        if len(seen) % 3 == 1:
            rows = [row | 1 << p for p, row in enumerate(rows)]
        elif len(seen) % 3 == 2:
            rows = [
                row | sum(1 << q for q in range(4) if rows[q] >> p & 1)
                for p, row in enumerate(rows)
            ]
        reflexive = all(row >> p & 1 for p, row in enumerate(rows))
        symmetric = all(rows[p] >> q & 1 == rows[q] >> p & 1 for p in range(4) for q in range(4))
        if not (reflexive and symmetric):
            seen.add(tuple(rows))
    return [ContactStructure(alg, rows) for rows in sorted(seen)]
