import random
import time
import warnings
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from contactalg import (
    ContactAlgebra,
    ContactStructure,
    DimensionQuery,
    InternalInconsistencyError,
    LocalContactAlgebra,
    MismatchError,
    ValidationError,
    all_contact_structures,
    check_dimension_invariance,
    check_relative_monotonicity,
    cycle_algebra,
    dim_a,
    dim_leq,
    extremal_relation,
    is_way_below_dense,
    lca_query,
    nca_as_lca,
    powerset_algebra,
    query,
)
from contactalg import cli, dimension

from conftest import sample_not_reflexive_symmetric, sampled_contact_algebras
from naive import (
    naive_component_verdict,
    naive_dim_leq,
    naive_first_counterexample,
    naive_graph_dim_leq,
    naive_is_way_below_dense,
    naive_partitions,
    naive_pool_first_counterexample,
)

# the structured sub-universe of the six-cycle: singletons, adjacent
# pairs, and the four-atom arcs, plus the required bounds
ARC_MASKS = (
    [0b000000, 0b111111]
    + [1 << i for i in range(6)]
    + [(1 << i | 1 << ((i + 1) % 6)) for i in range(6)]
    + [0b111111 ^ (1 << i | 1 << ((i + 1) % 6)) for i in range(6)]
)


def arc_query(c6, n_cap=1):
    members = tuple(c6.algebra.element(m) for m in sorted(set(ARC_MASKS)))
    return DimensionQuery(c6, members, n_cap)


def overlap(k):
    alg = powerset_algebra(k)
    return ContactAlgebra(alg, extremal_relation(alg, "smallest"))


def everything(k):
    alg = powerset_algebra(k)
    return ContactAlgebra(alg, extremal_relation(alg, "largest"))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_extremal_relations_are_zero_dimensional(k):
    assert dim_a(query(overlap(k), None, 1)).value == 0
    assert dim_a(query(everything(k), None, 1)).value == 0


def test_degenerate_dimension():
    alg = powerset_algebra(0)
    from contactalg import ContactStructure

    ca = ContactAlgebra(alg, ContactStructure(alg, []))
    result = dim_a(query(ca, None, 1))
    assert result.value == -1


def test_minus_one_only_for_degenerate(c6):
    assert not dim_leq(query(overlap(2)), -1)
    assert not dim_leq(query(c6), -1)


def test_query_validation(c6):
    alg = c6.algebra
    with pytest.raises(ValidationError):
        DimensionQuery(c6, (alg.zero,), 1)  # missing 1
    with pytest.raises(ValidationError):
        DimensionQuery(c6, (alg.one,), 1)  # missing 0
    other = powerset_algebra(6)
    with pytest.raises(MismatchError):
        DimensionQuery(c6, (alg.zero, alg.one, other.one), 1)
    with pytest.raises(ValidationError):
        dim_leq(query(c6), -2)
    with pytest.raises(ValidationError):
        DimensionQuery(c6, (), 1)  # an empty pool
    for cap in (-2, -7):
        with pytest.raises(ValidationError):
            query(c6, None, cap)
    assert dim_a(query(c6, None, -1)).display == ">-1"


def test_unsorted_pool_with_duplicates_matches_its_sorted_form(c6):
    ordered = arc_query(c6)
    shuffled = list(ordered.members) * 2
    random.Random(3).shuffle(shuffled)
    q = DimensionQuery(c6, tuple(shuffled), 1)
    assert q.members == ordered.members
    assert q.masks == ordered.masks
    for n in (-1, 0, 1):
        assert verdict_masks(dim_leq(q, n)) == verdict_masks(dim_leq(ordered, n))


def test_cycle_full_pool_fails_every_level(c6):
    q = query(c6, None, 1)
    for n in (-1, 0, 1):
        assert not dim_leq(q, n)
    assert dim_a(q).value is None
    assert dim_a(q).display == ">1"


def test_cycle_level_one_counterexample(c6):
    v = dim_leq(query(c6, None, 1), 1)
    assert not v
    # first failing family in enumeration order: a padding slot plus two
    # opposite three-arcs under their closed neighborhoods
    assert sorted(x.mask for x in v.b_tuple) == [0b000000, 0b000111, 0b111000]
    for b, a in zip(v.b_tuple, v.a_tuple):
        assert c6.way_below(b, a)


def test_arc_pool_is_zero_dimensional_at_zero(c6):
    q = arc_query(c6)
    assert dim_leq(q, 0)
    assert dim_a(q).value == 0


def test_arc_pool_fails_at_one(c6):
    # adding a slot makes the verdict flip back to false: the witness
    # pool has no room between the three covering pairs and their arcs
    q = arc_query(c6)
    assert not dim_leq(q, 1)
    result = dim_a(q, scan_to_cap=True)
    assert result.value == 0
    assert result.anomalies == ((0, 1),)


def test_early_stop_skips_anomaly(c6):
    result = dim_a(arc_query(c6))
    assert result.value == 0
    assert result.anomalies == ()
    assert result.verdicts == ((-1, False), (0, True))


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_optimized_matches_naive_on_arc_pool(c6, n):
    q = arc_query(c6)
    members = [c6.algebra.element(m) for m in q.masks]
    assert bool(dim_leq(q, n)) == naive_dim_leq(c6, members, n)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_optimized_matches_naive_on_samples(k, n):
    for ca in sampled_contact_algebras(k, 6):
        q = query(ca, None, 1)
        members = list(ca.algebra.elements())
        expected = naive_dim_leq(ca, members, n)
        assert bool(dim_leq(q, n)) == expected, ca.contact.rows
        if n >= 0:
            assert naive_graph_dim_leq(ca, n) == expected, ca.contact.rows


def test_verdict_reuse_is_consistent(c6):
    q = query(c6, None, 1)
    first = dim_leq(q, 1)
    second = dim_leq(q, 1)
    assert first.a_tuple == second.a_tuple
    assert second is first  # memoized per level on the query


def test_way_below_density():
    ca = overlap(3)
    alg = ca.algebra
    assert is_way_below_dense(ca, list(alg.elements()))
    thin = [alg.zero, alg.one] + list(alg.atoms())
    assert not is_way_below_dense(ca, thin)


def test_invariance_on_dense_pool():
    ca = overlap(3)
    assert check_dimension_invariance(ca, list(ca.algebra.elements()), n_cap=1)


def test_invariance_rejects_sparse_pool():
    ca = overlap(3)
    thin = [ca.algebra.zero, ca.algebra.one] + list(ca.algebra.atoms())
    with pytest.raises(ValidationError):
        check_dimension_invariance(ca, thin, n_cap=1)


def test_relative_monotonicity_overlap():
    L = nca_as_lca(overlap(3))
    report = check_relative_monotonicity(L, L.algebra.element(0b011), n_cap=1)
    assert report.holds
    assert report.ambient.value == 0 and report.relative.value == 0
    assert not report.vacuous


def test_relative_monotonicity_vacuous(c6):
    L = nca_as_lca(c6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = check_relative_monotonicity(L, c6.algebra.element(0b000111), n_cap=1)
    assert report.holds and report.vacuous
    assert any("cap" in str(w.message) for w in caught)


def test_relative_monotonicity_rejects_zero(c6):
    with pytest.raises(ValidationError):
        check_relative_monotonicity(nca_as_lca(c6), c6.algebra.zero)


def test_lca_query_pools(c6):
    # D is the whole carrier, not the bounded elements plus 1: the levels
    # fail as they do on the whole algebra, where the bounded pool holds
    L = LocalContactAlgebra(c6, c6.algebra.element(0b000111))
    plain = lca_query(L, 1)
    whole = query(c6, None, 1)
    bounded = DimensionQuery(c6, tuple(L.bounded_elements() + [c6.algebra.one]), 1)
    for n in (-1, 0, 1):
        assert verdict_masks(dim_leq(plain, n)) == verdict_masks(dim_leq(whole, n))
    assert dim_a(plain, scan_to_cap=True).verdicts == ((-1, False), (0, False), (1, False))
    assert dim_a(bounded, scan_to_cap=True).verdicts == ((-1, False), (0, True), (1, True))


def test_bounded_pool_holds_at_every_level():
    # D = the bounded elements plus 1, for u < 1: b's from D that join to
    # 1 include b_i = 1, and c_i = d_i = 1 with 0 elsewhere is a witness
    pairs = 0
    for ca in every_algebra(range(1, 4), False):
        for u in range(ca.algebra.full_mask):
            L = LocalContactAlgebra(ca, ca.algebra.element(u))
            q = DimensionQuery(ca, tuple(L.bounded_elements() + [ca.algebra.one]), 1)
            result = dim_a(q, scan_to_cap=True)
            assert result.verdicts == ((-1, False), (0, True), (1, True)), (ca.contact.rows, u)
            pairs += 1
    assert pairs == 3_634


def test_way_below_density_matches_oracle_on_every_small_relation():
    # every relation on at most 3 atoms; every pool on at most 2 atoms,
    # and every 7th pool on 3 atoms
    verdicts = set()
    for ca in every_algebra(range(4), False):
        elements = list(ca.algebra.elements())
        step = 7 if len(elements) == 8 else 1
        for bits in range(0, 1 << len(elements), step):
            pool = [x for x in elements if bits >> x.mask & 1]
            verdict = is_way_below_dense(ca, pool)
            assert verdict == naive_is_way_below_dense(ca, pool), (ca.contact.rows, bits)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_way_below_density_matches_oracle_on_seeded_pools():
    # random graphs, and equivalence relations, where a pool holding every
    # reach value is dense; pools keep each reach value with chance 0.9
    # and each other element with chance 0.3, so both verdicts occur
    rng = random.Random(16)
    verdicts = []
    for k in (4, 5):
        alg = powerset_algebra(k)
        cases = sampled_contact_algebras(k, 10, seed=16)
        for _ in range(10):
            label = [rng.randrange(3) for _ in range(k)]
            rows = [sum(1 << q for q in range(k) if label[q] == label[p]) for p in range(k)]
            cases.append(ContactAlgebra(alg, ContactStructure(alg, rows)))
        for ca in cases:
            reach = set(ca.contact.closure_table())
            elements = list(ca.algebra.elements())
            for _ in range(3):
                pool = [x for x in elements if rng.random() < (0.9 if x.mask in reach else 0.3)]
                verdict = is_way_below_dense(ca, pool)
                assert verdict == naive_is_way_below_dense(ca, pool), (ca.contact.rows, pool)
                verdicts.append(verdict)
    assert (verdicts.count(True), len(verdicts)) == (37, 120)


def verdict_masks(v):
    return v.holds, tuple(x.mask for x in v.a_tuple), tuple(x.mask for x in v.b_tuple)


def oracle_verdict(ca, n):
    bad = naive_first_counterexample(ca, n)
    return (True, (), ()) if bad is None else (False, *bad)


def every_algebra(atom_counts, reflexive_symmetric):
    for k in atom_counts:
        alg = powerset_algebra(k)
        for s in all_contact_structures(alg, reflexive_symmetric):
            yield ContactAlgebra(alg, s)


def test_verdicts_and_counterexamples_match_oracle_on_every_small_relation():
    # all 531 atom relations on at most 3 atoms, reflexive or not
    for ca in every_algebra(range(4), reflexive_symmetric=False):
        q = query(ca, None, 1)
        for n in (-1, 0, 1):
            assert verdict_masks(dim_leq(q, n)) == oracle_verdict(ca, n), (ca.contact.rows, n)


def test_verdicts_and_counterexamples_match_oracle_on_four_atom_graphs():
    for ca in every_algebra([4], reflexive_symmetric=True):
        q = query(ca, None, 2)
        for n in (0, 1, 2):
            expected = oracle_verdict(ca, n)
            assert verdict_masks(dim_leq(q, n)) == expected, (ca.contact.rows, n)
            assert naive_graph_dim_leq(ca, n) == expected[0], (ca.contact.rows, n)


def match_oracle(algebras, levels):
    """Compare whole verdicts at each level; return the verdicts seen."""
    seen = set()
    for ca in algebras:
        q = query(ca, None, max(levels))
        for n in levels:
            verdict = verdict_masks(dim_leq(q, n))
            assert verdict == oracle_verdict(ca, n), (ca.contact.rows, n)
            if ca.is_contact:
                assert naive_graph_dim_leq(ca, n) == verdict[0], (ca.contact.rows, n)
            seen.add(verdict[0])
    return seen


def test_verdicts_and_counterexamples_match_oracle_off_reflexive_symmetric():
    # the least failing partition is the first counterexample on any
    # relation, reflexive or not
    sample = sample_not_reflexive_symmetric(200, seed=13)
    algebras = (ContactAlgebra(s.algebra, s) for s in sample)
    assert match_oracle(algebras, (0, 1, 2)) == {True, False}


def test_verdicts_and_counterexamples_match_oracle_on_five_atom_graphs():
    every_seventh = list(every_algebra([5], reflexive_symmetric=True))[::7]
    assert match_oracle(every_seventh, (0, 1)) == {True, False}


def sample_pools(count, seed):
    """Reflexive relations on 3 and 4 atoms, every other one symmetric,
    each with a pool of 0, 1, one random element and most of the atoms,
    coatoms and their reaches, so that pools with no room between a b and
    its a occur."""
    rng = random.Random(seed)
    for i in range(count):
        k = 3 + i % 2
        alg = powerset_algebra(k)
        rows = [1 << p | (rng.randrange(alg.size) & rng.randrange(alg.size)) for p in range(k)]
        if i % 2:
            rows = [row | sum(1 << r for r in range(k) if rows[r] >> p & 1) for p, row in enumerate(rows)]
        s = ContactStructure(alg, rows)
        reach = s.closure_table()
        near = {y for p in range(k) for x in (1 << p, alg.full_mask ^ 1 << p) for y in (x, reach[x])}
        pool = {0, alg.full_mask, rng.randrange(alg.size)} | {x for x in near if rng.random() < 0.7}
        yield ContactAlgebra(alg, s), sorted(pool)


def graph_pools(count, k, members, seed, edge_chances=(0.15, 0.2, 0.25, 0.3)):
    """Random graphs on k atoms, each edge chance drawn from edge_chances,
    each with a pool of 0, 1 and members - 2 random other elements."""
    rng = random.Random(seed)
    alg = powerset_algebra(k)
    for _ in range(count):
        chance = rng.choice(edge_chances)
        rows = [1 << i for i in range(k)]
        for i, j in combinations(range(k), 2):
            if rng.random() < chance:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        pool = {0, alg.full_mask} | set(rng.sample(range(1, alg.full_mask), members - 2))
        yield ContactAlgebra(alg, ContactStructure(alg, rows)), sorted(pool)


def pool_oracle_levels(cases, levels):
    """Compare whole verdicts with the naive pool sweep; return the
    verdicts seen."""
    seen = set()
    for ca, pool in cases:
        # one query for every level, so they share its candidate tables
        q = DimensionQuery(ca, tuple(ca.algebra.element(m) for m in pool), max(levels))
        for n in levels:
            bad = naive_pool_first_counterexample(ca, pool, n)
            expected = (True, (), ()) if bad is None else (False, *bad)
            verdict = verdict_masks(dim_leq(q, n))
            assert verdict == expected, (ca.contact.rows, pool, n)
            seen.add(verdict[0])
    return seen


def test_pool_verdicts_and_counterexamples_match_oracle():
    assert pool_oracle_levels(sample_pools(60, seed=7), (0, 1, 2)) == {True, False}
    assert pool_oracle_levels(graph_pools(30, 5, 10, seed=5), (0, 1)) == {True, False}
    assert pool_oracle_levels(graph_pools(30, 6, 12, seed=6), (0, 1)) == {True, False}


# Eight 22-member pools on 6-atom graphs (graph_pools(8, 6, 22, seed=1,
# edge_chances=(0.2, 0.3, 0.4))): the rows, then the verdict, a-tuple and
# b-tuple at n = 0..3, recorded from the sweep over every (b, a) pair.
HOLDS = (True, (), ())
POOLS_22 = [
    ((25, 2, 4, 9, 17, 32), [
        HOLDS,
        (False, (15, 25, 34), (14, 25, 34)),
        (False, (0, 15, 25, 34), (0, 14, 25, 34)),
        (False, (0, 0, 15, 25, 34), (0, 0, 14, 25, 34)),
    ]),
    ((1, 2, 12, 28, 24, 32), [
        (False, (46, 61), (38, 61)),
        (False, (0, 46, 61), (0, 38, 61)),
        (False, (0, 0, 46, 61), (0, 0, 38, 61)),
        (False, (0, 0, 0, 46, 61), (0, 0, 0, 38, 61)),
    ]),
    ((35, 3, 44, 28, 24, 37), [HOLDS] * 4),
    ((1, 34, 20, 8, 20, 34), [HOLDS] * 4),
    ((1, 38, 30, 60, 28, 42), [
        HOLDS,
        (False, (61, 31, 46), (8, 21, 34)),
        (False, (0, 61, 31, 46), (0, 8, 21, 34)),
        (False, (0, 0, 61, 31, 46), (0, 0, 8, 21, 34)),
    ]),
    ((25, 10, 60, 47, 21, 44), [HOLDS] * 4),
    ((7, 3, 53, 40, 20, 44), [HOLDS] * 4),
    ((23, 39, 31, 44, 53, 58), [HOLDS] * 4),
]


def test_twenty_two_member_pools_keep_their_verdicts():
    cases = graph_pools(8, 6, 22, seed=1, edge_chances=(0.2, 0.3, 0.4))
    for (ca, pool), (rows, expected) in zip(cases, POOLS_22, strict=True):
        assert ca.contact.rows == rows
        q = DimensionQuery(ca, tuple(ca.algebra.element(m) for m in pool), 3)
        assert [verdict_masks(dim_leq(q, n)) for n in range(4)] == expected, rows


def test_pool_counterexample_takes_a_minimal_a_that_is_not_the_least():
    # reach(12) = 6 lies below the pool members 7 and 14, both minimal
    # there; the least failing multiset at n = 1 pairs 12 with 14
    alg = powerset_algebra(4)
    ca = ContactAlgebra(alg, ContactStructure(alg, [2, 1, 0, 6]))
    pool = [0, 1, 2, 5, 7, 9, 10, 12, 14, 15]
    assert pool_oracle_levels([(ca, pool)], (0, 1, 2)) == {True, False}
    q = DimensionQuery(ca, tuple(alg.element(m) for m in pool), 1)
    assert verdict_masks(dim_leq(q, 1)) == (False, (2, 1, 14), (1, 2, 12))


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)  # OEIS A000110


def stirling2(m, j):
    """Partitions of m atoms into exactly j nonempty blocks."""
    if m == 0 or j == 0:
        return int(m == j)
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


def test_partition_table():
    assert sum(1 for _ in dimension._partitions(8, 5)) == 3845
    for m, bell in enumerate(BELL):
        assert sum(1 for _ in dimension._partitions(m, m + 1)) == bell
        for k in range(1, 7):
            table = list(dimension._partitions(m, k))
            assert table == list(naive_partitions(m, k)), (m, k)
            assert len(table) == sum(stirling2(m, j) for j in range(k + 1)), (m, k)
    # nothing is built ahead: the first partition of 24 atoms comes at once
    start = time.perf_counter()
    assert next(dimension._partitions(24, 5)) == (0, 0, 0, 0, (1 << 24) - 1)
    assert time.perf_counter() - start < 0.05


# The slowest known graphs for dim --scan --max-n 3 while false levels
# ran the ordered pair sweep. Verdicts for n = -1..3, then the
# counterexample at the first false level n >= 0; each further level adds
# a leading (0, 0) pair.
SLOW_ROWS = [
    ((1, 2, 52, 56, 28, 44), (False, True, True, False, False),
     2, (52, 56, 28, 47), (4, 8, 16, 35)),
    ((19, 7, 134, 8, 145, 96, 96, 148), (False, True, False, False, False),
     1, (19, 135, 253), (1, 6, 248)),
]


@pytest.mark.parametrize("rows, verdicts, first, a, b", SLOW_ROWS)
def test_slow_rows_scan_to_cap_within_budget(rows, verdicts, first, a, b):
    alg = powerset_algebra(len(rows))
    q = query(ContactAlgebra(alg, ContactStructure(alg, rows)), None, 3)
    start = time.perf_counter()
    result = dim_a(q, scan_to_cap=True)
    elapsed = time.perf_counter() - start
    assert tuple(v for _, v in result.verdicts) == verdicts
    for n in range(first, 4):
        pad = (0,) * (n - first)
        assert verdict_masks(dim_leq(q, n)) == (False, pad + a, pad + b), n
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_slow_eight_atom_row_through_the_cli(tmp_path, capsys):
    rows = SLOW_ROWS[1][0]
    edges = [(p, r) for p, row in enumerate(rows) for r in range(p + 1, 8) if row >> r & 1]
    path = tmp_path / "row.alg"
    path.write_text("atoms: 8\n" + "".join(f"contact: {p} {r}\n" for p, r in edges))
    start = time.perf_counter()
    code = cli.main(["dim", str(path), "--close", "rs", "--scan", "--max-n", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    # the non-monotone verdicts are reported as a failing property, exit 1
    assert code == 1
    assert "dim_a = 0" in out
    assert (
        "PROP dim_monotone FAIL true_at=0,false_at=1;true_at=0,false_at=2;true_at=0,false_at=3"
        in out
    )
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def every_element(ca):
    """The whole algebra as an explicit pool, for the element-level search."""
    return DimensionQuery(ca, tuple(ca.algebra.elements()))


def test_atom_witness_matches_pool_engine():
    for ca in every_algebra(range(4), reflexive_symmetric=False):
        alg = ca.algebra
        q = every_element(ca)
        reach = ca.contact.closure_table()
        on_atoms = dimension._atom_witness(query(ca))
        for slots in (2, 3):
            for a in combinations_with_replacement(range(alg.size), slots):
                expected = dimension._search_witness(q, reach, alg.full_mask, a)
                assert on_atoms(a) == expected, (ca.contact.rows, a)


def test_atom_witness_when_every_branch_fails():
    # Each slot is the only one allowed to some atom, and the free atom 0
    # meets the other slot's rows wherever it goes, so the depth-first
    # search has to try both slots before it can answer no.
    alg = powerset_algebra(4)
    ca = ContactAlgebra(alg, ContactStructure(alg, [0b0101, 0b1001, 0b0100, 0b0110]))
    a = (0b0111, 0b1101)
    assert not dimension._search_witness(every_element(ca), ca.contact.closure_table(), alg.full_mask, a)
    assert not dimension._atom_witness(query(ca))(a)


def test_pools_keep_the_element_search(c6, monkeypatch):
    def refuse(q):
        raise AssertionError("atom-level witness used for a pool")

    monkeypatch.setattr(dimension, "_atom_witness", refuse)
    q = arc_query(c6)
    assert dim_leq(q, 0)
    assert not dim_leq(q, 1)


def test_whole_algebra_counterexamples_have_no_element_witness():
    # every graph on 1 to 5 atoms: the a-tuple reported at each false
    # level has no witness in the element-level search over every element
    false_levels = 0
    for ca in every_algebra(range(1, 6), reflexive_symmetric=True):
        alg = ca.algebra
        q = query(ca, None, 2)
        pool = every_element(ca)
        reach = ca.contact.closure_table()
        for n in (0, 1, 2):
            v = dim_leq(q, n)
            if not v:
                a = tuple(x.mask for x in v.a_tuple)
                assert not dimension._search_witness(pool, reach, alg.full_mask, a), (ca.contact.rows, n)
                false_levels += 1
    assert false_levels == 1_498


def ring(k):
    """The k-atom ring: each atom in contact with itself and its two neighbours."""
    alg = powerset_algebra(k)
    rows = [1 << p | 1 << (p + 1) % k | 1 << (p - 1) % k for p in range(k)]
    return ContactAlgebra(alg, ContactStructure(alg, rows))


def ring_path(tmp_path, k):
    path = tmp_path / f"ring{k}.alg"
    path.write_text(f"atoms: {k}\n" + "".join(f"contact: {p} {(p + 1) % k}\n" for p in range(k)))
    return str(path)


# dim on the 12-atom ring, recorded while the partitions came from a
# sorted table and every counterexample was checked element by element
RING12_LINES = [
    "dim_leq(-1) = false",
    "dim_leq(0) = false counterexample a={0,1,2,3,11};{0,2,3,4,5,6,7,8,9,10,11} b={0,1,2};{3,4,5,6,7,8,9,10,11}",
    "dim_leq(1) = false counterexample a={};{0,1,2,3,11};{0,2,3,4,5,6,7,8,9,10,11} b={};{0,1,2};{3,4,5,6,7,8,9,10,11}",
    "dim_leq(2) = false counterexample a={};{};{0,1,2,3,11};{0,2,3,4,5,6,7,8,9,10,11} b={};{};{0,1,2};{3,4,5,6,7,8,9,10,11}",
    "dim_leq(3) = false counterexample a={};{};{};{0,1,2,3,11};{0,2,3,4,5,6,7,8,9,10,11} b={};{};{};{0,1,2};{3,4,5,6,7,8,9,10,11}",
    "dim_a = >3",
]


@pytest.mark.parametrize("k", [12, 14, 16, 20, 24])
def test_large_rings_finish_within_budget(tmp_path, capsys, k):
    # every level fails at an early partition, so no level walks the
    # Bell-many partitions of the atoms
    path = ring_path(tmp_path, k)
    start = time.perf_counter()
    code = cli.main(["--cap-atoms", "24", "dim", path, "--close", "rs"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    if k == 12:
        assert out == RING12_LINES
    assert [line.partition(" counterexample")[0] for line in out] == [
        f"dim_leq({n}) = false" for n in range(-1, 4)
    ] + ["dim_a = >3"]
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_whole_algebra_dimension_builds_no_closure_table():
    for k in (6, 24):
        ca = ring(k)
        assert dim_a(query(ca, None, 3), scan_to_cap=True).value is None
        assert ca.contact._closure is None


def test_graph_closed_form_matches_the_definition():
    # the definitional sweep over every (n+2)-tuple of pairs grows as
    # pairs^(n+2): every graph is taken at n = 0..2 on up to 2 atoms, at
    # n = 0..1 on 3 atoms (4 s) and at n = 0 on 4 atoms (3 s); the 3-atom
    # graphs at n = 2 take about 230 s, and larger levels meet
    # naive_graph_dim_leq in the oracle tests above
    levels = {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2), 3: (0, 1), 4: (0,)}
    verdicts = []
    for ca in every_algebra(range(5), reflexive_symmetric=True):
        members = list(ca.algebra.elements())
        for n in levels[ca.algebra.atom_count]:
            verdict = naive_graph_dim_leq(ca, n)
            assert verdict == naive_dim_leq(ca, members, n), (ca.contact.rows, n)
            verdicts.append(verdict)
    # the twelve labelled 4-atom paths fail at n = 0
    assert (verdicts.count(False), len(verdicts)) == (12, 92)


def closed_form(ca, n):
    return dimension._closed_form(query(ca, None, 3), n)


def test_closed_form_matches_the_partition_sweep_on_seeded_graphs():
    # the closed form against the sweep called directly, each level on a
    # fresh query, and against the oracle; the oracle alone reaches 12 atoms
    verdicts = []
    for k in (6, 7, 8):
        for ca in sampled_contact_algebras(k, 20, seed=32):
            for n in range(4):
                verdict = closed_form(ca, n)
                assert verdict == (dimension._least_failing_partition(query(ca, None, 3), n) is None)
                assert verdict == naive_graph_dim_leq(ca, n), (ca.contact.rows, n)
                verdicts.append(verdict)
    for k in (10, 12):
        for ca in sampled_contact_algebras(k, 10, seed=32):
            for n in range(4):
                assert closed_form(ca, n) == naive_graph_dim_leq(ca, n), (ca.contact.rows, n)
    assert (verdicts.count(True), len(verdicts)) == (68, 240)


def test_closed_form_matches_the_sweep_on_every_small_relation():
    # every relation on at most 3 atoms at n = 0..2 and every relation on
    # 4 atoms at n = 0, 1: a level the closed form decides has the verdict
    # of the sweep on a fresh query, and the oracle gives the same answer
    # on at most 3 atoms
    undecided = Counter()
    for ca in every_algebra(range(5), reflexive_symmetric=False):
        k = ca.algebra.atom_count
        for n in (0, 1, 2) if k < 4 else (0, 1):
            verdict = closed_form(ca, n)
            if k < 4:
                assert verdict == naive_component_verdict(ca, n), (ca.contact.rows, n)
            if verdict is None:
                undecided[k, n] += 1
            else:
                swept = dimension._least_failing_partition(query(ca, None, 3), n) is None
                assert verdict == swept, (ca.contact.rows, n)
    # none at n = 0; 12 of 512 on 3 atoms at n = 1, 2; 1,248 of 65,536 on 4
    assert undecided == {(3, 1): 12, (3, 2): 12, (4, 1): 1_248}


def test_component_oracle_matches_the_engine_on_seeded_relations():
    rng = random.Random(37)
    seen = Counter()
    for i in range(400):
        k = 5 + i % 8
        alg = powerset_algebra(k)
        density = (0.15, 0.25, 0.4)[i % 3]
        rows = [sum(1 << x for x in range(k) if rng.random() < density) for _ in range(k)]
        ca = ContactAlgebra(alg, ContactStructure(alg, rows))
        for n in range(4):
            verdict = closed_form(ca, n)
            assert verdict == naive_component_verdict(ca, n), (rows, n)
            seen[verdict] += 1
    assert set(seen) == {True, False, None}


def test_a_component_is_judged_whole():
    # rows {0,2}, {0,3} and {1,3} of atoms 1, 2 and 4 chain into one
    # component through atoms 0 and 3, with N_T = {0,2,3}. Atoms 2 and 3
    # share no row, so level 0 fails, though the atoms of each single
    # column reach only sets that one row holds.
    alg = powerset_algebra(5)
    ca = ContactAlgebra(alg, ContactStructure(alg, (0, 0b101, 0b1001, 0, 0b1010)))
    assert dimension._overlap(query(ca))[2] == ((0b10110, 0b1101),)
    assert closed_form(ca, 0) is False
    assert naive_component_verdict(ca, 0) is False
    assert dimension._least_failing_partition(query(ca, None, 3), 0) == ((0b10, 0b101), (0b11101, 0b1011))


def one_way_wheel(k):
    """The k-atom wheel with the contact from atom 0 to atom 1 dropped,
    so the relation is not symmetric."""
    rim = k - 1
    rows = [1 << p | 1 << (p + 1) % rim | 1 << (p - 1) % rim | 1 << rim for p in range(rim)]
    rows.append((1 << k) - 1)
    rows[0] &= ~0b10
    alg = powerset_algebra(k)
    return ContactAlgebra(alg, ContactStructure(alg, rows))


def test_dim_a_sweeps_no_decided_level(monkeypatch):
    def refuse(q, n):
        raise AssertionError(f"level {n} swept")

    decided = []
    for ca in every_algebra(range(4), reflexive_symmetric=False):
        q = query(ca, None, 3)
        if None not in (dimension._closed_form(q, n) for n in range(4)):
            decided.append(ca)
    assert len(decided) == 531 - 12
    expected = [dim_a(query(ca, None, 3), scan_to_cap=True) for ca in decided]
    monkeypatch.setattr(dimension, "_least_failing_partition", refuse)
    assert [dim_a(query(ca, None, 3), scan_to_cap=True) for ca in decided] == expected
    # every level of the one-way 11-atom wheel holds in closed form
    start = time.perf_counter()
    result = dim_a(query(one_way_wheel(11), None, 3), scan_to_cap=True)
    elapsed = time.perf_counter() - start
    assert result.verdicts == ((-1, False), (0, True), (1, True), (2, True), (3, True))
    assert elapsed < 0.1, f"{elapsed:.2f}s"


# row(0) is empty and atoms 1 and 2 see atom 0 and themselves: level 0
# fails in closed form and levels 1 to 3 are left to the sweep
UNDECIDED_ROWS = (0, 3, 5)


def test_closed_form_false_without_a_failing_partition_raises_off_graphs(monkeypatch):
    alg = powerset_algebra(3)
    ca = ContactAlgebra(alg, ContactStructure(alg, UNDECIDED_ROWS))
    assert not ca.passes("C3", "C4")
    monkeypatch.setattr(dimension, "_atom_witness", lambda q: lambda a_multiset: True)
    q = query(ca, None, 3)
    # dim_a reads the closed form and sweeps only the open levels
    assert dim_a(q).value == 1
    with pytest.raises(InternalInconsistencyError, match=r"dim_leq\(0\) fails in closed form"):
        dim_leq(q, 0)


def test_undecided_levels_take_the_sweeps_verdicts():
    alg = powerset_algebra(3)
    ca = ContactAlgebra(alg, ContactStructure(alg, UNDECIDED_ROWS))
    assert [closed_form(ca, n) for n in range(4)] == [False, None, None, None]
    swept = tuple((n, dimension._least_failing_partition(query(ca, None, 3), n) is None) for n in range(4))
    result = dim_a(query(ca, None, 3), scan_to_cap=True)
    assert result.verdicts == ((-1, False),) + swept
    assert (result.value, result.anomalies) == (1, ())


def resume_cases():
    yield from every_algebra(range(4), reflexive_symmetric=False)
    yield from every_algebra([4], reflexive_symmetric=True)
    rng = random.Random(32)
    seen = set()
    while len(seen) < 200:
        k = 4 + len(seen) % 2
        alg = powerset_algebra(k)
        rows = tuple(rng.randrange(alg.size) for _ in range(k))
        ca = ContactAlgebra(alg, ContactStructure(alg, rows))
        if rows not in seen and not ca.is_contact:
            seen.add(rows)
            yield ca


def test_levels_in_ascending_order_match_fresh_queries():
    # a level above a true one sweeps only the partitions into n+2
    # blocks; asking each level of a fresh query sweeps every partition
    false_after_true = 0
    for ca in resume_cases():
        q = query(ca, None, 3)
        for n in range(-1, 4):
            verdict = verdict_masks(dim_leq(q, n))
            assert verdict == verdict_masks(dim_leq(query(ca, None, 3), n)), (ca.contact.rows, n)
            false_after_true += n > 0 and not verdict[0] and bool(dim_leq(q, n - 1))
    assert false_after_true == 19


def test_closed_form_without_a_failing_partition_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dimension, "_least_failing_partition", lambda q, n: None)
    code = cli.main(["dim", ring_path(tmp_path, 6), "--close", "rs"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "internal error: dim_leq(0) fails in closed form but every partition has a witness\n"
    with pytest.raises(InternalInconsistencyError):
        dim_leq(query(ring(6)), 0)
    # a level the closed form proves true, on a relation that is not a
    # graph, never reaches the sweep
    alg = powerset_algebra(2)
    assert dim_leq(query(ContactAlgebra(alg, ContactStructure(alg, [1, 3]))), 0)


# dim --scan --max-n 3 on the 10-, 11- and 12-atom wheels, as printed
# while every true level walked every partition
WHEEL_OUT = (
    "dim_leq(-1) = false\ndim_leq(0) = true\ndim_leq(1) = true\ndim_leq(2) = true\n"
    "dim_leq(3) = true\ndim_a = 0\nPROP dim_monotone PASS\n"
)


@pytest.mark.parametrize("k", [10, 11, 12])
def test_wheels_finish_within_budget(tmp_path, capsys, k):
    # a ring on k - 1 atoms plus a hub in contact with all of them: every
    # level n >= 0 is true
    rim = k - 1
    path = tmp_path / f"wheel{k}.alg"
    path.write_text(
        f"atoms: {k}\n" + "".join(f"contact: {p} {(p + 1) % rim}\ncontact: {p} {rim}\n" for p in range(rim))
    )
    start = time.perf_counter()
    code = cli.main(["--cap-atoms", "24", "dim", str(path), "--close", "rs", "--scan", "--max-n", "3"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == WHEEL_OUT
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_long_scan_lists_anomalies_in_linear_time(tmp_path, capsys):
    # every level n >= 0 of this graph is true, so no pair is anomalous;
    # listing the anomalies must not look at every pair of the 20,002 levels
    path = tmp_path / "g3.alg"
    path.write_text("atoms: 3\ncontact: 0 1\n")
    start = time.perf_counter()
    code = cli.main(["dim", str(path), "--close", "rs", "--scan", "--max-n", "20000"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 20004
    assert lines[0] == "dim_leq(-1) = false" and lines[-3] == "dim_leq(20000) = true"
    assert lines[-2:] == ["dim_a = 0", "PROP dim_monotone PASS"]
    assert elapsed < 1.0, f"{elapsed:.2f}s"
