"""The minimal-neighbourhood topology engine against the definitional
sweeps over the open family in tests/naive.py.

Spaces come from the filtering enumerator where it is affordable (at
most four points) and from enumerate_topologies on five points, which
the first test ties to the filter.
"""

import random
from functools import cache
from itertools import combinations, product

import pytest

from contactalg import (
    ContinuousMap,
    Element,
    FiniteSpace,
    ValidationError,
    clopen_sets,
    closure,
    dim_cl,
    enumerate_topologies,
    generate_topology,
    interior,
    is_connected_space,
    is_pi_semiregular,
    is_semiregular,
    pi_weight_of_space,
    rc_algebra,
    ro_algebra,
    weight_of_space,
)
from contactalg.boolean import _unions
from naive import (
    naive_atoms,
    naive_clopen_sets,
    naive_closure,
    naive_continuity_failure,
    naive_generate_topology,
    naive_interior,
    naive_irredundant_dim_cl,
    naive_is_pi_semiregular,
    naive_is_semiregular,
    naive_pi_weight_of_space,
    naive_regular_closed,
    naive_regular_families,
    naive_regular_open,
    naive_topology_families,
)

families = cache(naive_topology_families)


def spaces(max_points):
    for n in range(max_points + 1):
        for fam in sorted(families(n), key=sorted):
            yield FiniteSpace(n, fam)


@pytest.mark.parametrize("n", range(5))
def test_enumeration_and_validation_match_the_filter(n):
    found = [frozenset(X.opens) for X in enumerate_topologies(n)]
    assert len(found) == len(set(found))
    assert set(found) == families(n)
    # FiniteSpace accepts exactly the families the filter keeps
    full = (1 << n) - 1
    inner = range(1, full)
    accepted = set()
    for bits in range(1 << len(inner)):
        fam = {0, full} | {m for i, m in enumerate(inner) if bits >> i & 1}
        try:
            FiniteSpace(n, fam)
        except ValidationError:
            continue
        accepted.add(frozenset(fam))
    assert accepted == families(n)


def test_neighborhood_constructor_matches_the_open_family():
    """from_neighborhoods against FiniteSpace on the unions of the U_p,
    on every labelled space of at most five points; on at most four, it
    accepts exactly the U_p of those spaces among all tuples of masks."""
    count = 0
    for n in range(6):
        found = set()
        for X in enumerate_topologies(n):
            Y = FiniteSpace.from_neighborhoods(X.neighborhoods)
            Z = FiniteSpace(n, _unions(X.neighborhoods))
            assert Y.neighborhoods == Z.neighborhoods == X.neighborhoods
            assert Y == Z and hash(Y) == hash(Z)
            assert Y.opens == Z.opens
            found.add(X.neighborhoods)
            count += 1
        if n <= 4:
            accepted = set()
            for ups in product(range(1 << n), repeat=n):
                try:
                    accepted.add(FiniteSpace.from_neighborhoods(ups).neighborhoods)
                except ValidationError:
                    pass
            assert accepted == found
    assert count == 7332


def test_clopens_match_the_opens_sweep():
    count = 0
    for n in range(6):
        for X in enumerate_topologies(n):
            clopens = naive_clopen_sets(X)
            assert clopen_sets(X) == clopens
            assert is_connected_space(X) == (len(clopens) <= 2)
            count += 1
    assert count == 7332


def test_closure_and_interior_match_the_opens_sweep():
    for X in spaces(4):
        for s in range(X.full_mask + 1):
            assert closure(X, s) == naive_closure(X, s)
            assert interior(X, s) == naive_interior(X, s)


def test_regular_families_match_the_subset_sweep():
    for X in spaces(4):
        rc, ro = naive_regular_closed(X), naive_regular_open(X)
        assert naive_regular_families(X) == (rc, ro)
        assert rc_algebra(X).regular_closed_sets() == rc
        assert ro_algebra(X).regular_open_sets() == ro


def _below(atoms, s) -> int:
    return sum(1 << i for i, a in enumerate(atoms) if a & ~s == 0)


def test_regular_algebras_match_the_opens_pass():
    """Atoms from the minimal neighbourhoods against the minimal members
    of the families found by the pass over the opens, on every labelled
    space of at most five points."""
    count = 0
    for n in range(6):
        for X in enumerate_topologies(n):
            rc_sets, ro_sets = naive_regular_families(X)
            rc_atoms, ro_atoms = naive_atoms(rc_sets), naive_atoms(ro_sets)
            rc, ro = rc_algebra(X), ro_algebra(X)
            assert rc.atom_sets == tuple(rc_atoms)
            assert ro.atom_sets == tuple(ro_atoms)
            assert rc.regular_closed_sets() == rc_sets
            assert ro.regular_open_sets() == ro_sets
            for s in rc_sets:
                assert rc.from_set(s).mask == _below(rc_atoms, s)
            for s in ro_sets:
                m = _below(ro_atoms, s)
                assert ro.from_set(s).mask == m
                nu = ro.nu(Element(ro.algebra, m)).mask
                assert nu == _below(rc_atoms, naive_closure(X, s))
            assert is_pi_semiregular(X) == naive_is_pi_semiregular(X)
            count += 1
    assert count == 7332


def test_space_invariants_match_the_opens_sweep():
    for X in spaces(4):
        assert is_semiregular(X) == naive_is_semiregular(X)
        assert is_pi_semiregular(X) == naive_is_pi_semiregular(X)
        assert pi_weight_of_space(X) == naive_pi_weight_of_space(X)
        ups = []
        for p in range(X.point_count):
            up = X.full_mask
            for u in X.opens:
                if u >> p & 1:
                    up &= u
            ups.append(up)
        assert X.neighborhoods == tuple(ups)
        assert weight_of_space(X) == len(set(ups))


def test_dim_cl_matches_the_irredundant_covers():
    count = 0
    for n in range(6):
        for X in enumerate_topologies(n):
            assert dim_cl(X, n_cap=4) == naive_irredundant_dim_cl(X, n_cap=4)
            count += 1
    assert count == 7332


def _continuity_message(X, Y, point_map):
    try:
        ContinuousMap(X, Y, point_map)
    except ValidationError as e:
        return str(e)
    return None


def _naive_continuity_message(X, Y, point_map):
    u = naive_continuity_failure(X, Y, point_map)
    if u is None:
        return None
    return f"not continuous: preimage of {sorted(Y.points(u))} is not open"


def test_continuity_matches_the_opens_sweep():
    """Verdict and message on every map between spaces of at most three
    points, and on seeded maps between spaces of four and five."""
    small = list(spaces(3))
    count = failing = 0
    for X, Y in product(small, repeat=2):
        for point_map in product(range(Y.point_count), repeat=X.point_count):
            message = _continuity_message(X, Y, point_map)
            assert message == _naive_continuity_message(X, Y, point_map)
            count += 1
            failing += message is not None
    assert (count, failing) == (24_907, 13_562)
    rng = random.Random(20)
    pools = {n: list(enumerate_topologies(n)) for n in (4, 5)}
    failing = 0
    for _ in range(3_000):
        X = rng.choice(pools[rng.choice((4, 5))])
        Y = rng.choice(pools[rng.choice((4, 5))])
        point_map = [rng.randrange(Y.point_count) for _ in range(X.point_count)]
        message = _continuity_message(X, Y, point_map)
        assert message == _naive_continuity_message(X, Y, point_map)
        failing += message is not None
    assert 0 < failing < 3_000


def test_generated_topology_matches_the_subbase_closure():
    """Every subbase on at most three points, every one of at most three
    members on four, and seeded ones of up to five members on five."""
    for n in range(5):
        masks = range(1 << n)
        for r in range(len(masks) + 1 if n < 4 else 4):
            for subbase in combinations(masks, r):
                assert generate_topology(n, subbase).opens == naive_generate_topology(n, subbase)
    rng = random.Random(20)
    for _ in range(500):
        subbase = [rng.randrange(32) for _ in range(rng.randrange(6))]
        assert generate_topology(5, subbase).opens == naive_generate_topology(5, subbase)


def test_discreteness_and_equality_follow_the_open_family():
    """is_discrete, == and hash against the open family itself, on every
    pair of spaces of at most three points and seeded pairs on four and
    five, half of them rebuilt from the same family."""
    small = [(fam, FiniteSpace(n, fam)) for n in range(4) for fam in families(n)]
    for fam, X in small:
        assert X.opens == fam
        assert X.is_discrete == (len(fam) == 1 << X.point_count)
    for (f, X), (g, Y) in product(small, repeat=2):
        assert (X == Y) == (f == g)
        if f == g:
            assert hash(X) == hash(Y)
    rng = random.Random(20)
    pools = {n: list(enumerate_topologies(n)) for n in (4, 5)}
    for _ in range(2_000):
        X = rng.choice(pools[rng.choice((4, 5))])
        Y = rng.choice(pools[X.point_count]) if rng.random() < 0.5 else FiniteSpace(X.point_count, X.opens)
        assert X.is_discrete == (len(X.opens) == 1 << X.point_count)
        assert (X == Y) == (X.opens == Y.opens)
        if X == Y:
            assert hash(X) == hash(Y)
