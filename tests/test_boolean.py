import itertools

import pytest
from hypothesis import given, strategies as st

from contactalg import (
    BooleanHomomorphism,
    ContactAlgebra,
    Element,
    FiniteBooleanAlgebra,
    LcaMorphismTable,
    MismatchError,
    ValidationError,
    all_homomorphisms,
    all_subalgebras,
    check_dhlc_morphism,
    check_homomorphism,
    extremal_relation,
    generated_subalgebra,
    is_dense_subset,
    nca_as_lca,
    pi_weight,
    powerset_algebra,
    relative_algebra,
)

from naive import (
    naive_first_meet_failure,
    naive_generated_subalgebra,
    naive_is_dense_subset,
    naive_min_dense,
)

ALG4 = powerset_algebra(4)


def masks():
    return st.integers(min_value=0, max_value=ALG4.full_mask)


def elements():
    return masks().map(lambda m: Element(ALG4, m))


def test_sizes_and_degenerate():
    assert powerset_algebra(0).size == 1
    assert powerset_algebra(3).size == 8
    zero_alg = powerset_algebra(0)
    assert zero_alg.zero == zero_alg.one


def test_atom_cap():
    with pytest.raises(ValidationError):
        powerset_algebra(25)


def test_element_basics(b3):
    x = b3.element(0b101)
    assert x.atom_indices() == (0, 2)
    assert (~x).mask == 0b010
    assert repr(x) == "{0,2}"


def test_cross_algebra_operations_rejected(b3):
    other = powerset_algebra(3)
    with pytest.raises(MismatchError):
        b3.one & other.one


@given(elements(), elements(), elements())
def test_lattice_laws(x, y, z):
    assert x & (y | z) == (x & y) | (x & z)
    assert x | (y & z) == (x | y) & (x | z)
    assert ~(x & y) == ~x | ~y
    assert x & ~x == ALG4.zero
    assert x | ~x == ALG4.one
    assert (x <= y) == (x & y == x)


def test_relative_algebra_roundtrip(b3):
    u = b3.element(0b011)
    rel = relative_algebra(b3, u)
    assert rel.algebra.atom_count == 2
    for x in rel.algebra.elements():
        assert rel.restrict(rel.embed(x)) == x
        assert rel.embed(x) <= u
    # relative complement is complement-within-u
    inner = rel.algebra.element(0b01)
    assert rel.embed(~inner) == (~rel.embed(inner)) & u


def test_relative_algebra_degenerate(b3):
    rel = relative_algebra(b3, b3.zero)
    assert rel.algebra.atom_count == 0


def test_dense_subsets(b3):
    atoms = list(b3.atoms())
    assert is_dense_subset(b3, atoms)
    assert not is_dense_subset(b3, atoms[:2])
    assert is_dense_subset(b3, [x for x in b3.elements() if not x.is_zero])
    # zero contributes nothing
    assert is_dense_subset(b3, atoms + [b3.zero])


def test_dense_subsets_match_naive_sweep(b3):
    """Every member set of every algebra of at most 3 atoms."""
    cases = 0
    for k in range(4):
        alg = powerset_algebra(k)
        elements = list(alg.elements())
        for bits in range(1 << alg.size):
            members = [x for x in elements if bits >> x.mask & 1]
            assert is_dense_subset(alg, members) == naive_is_dense_subset(alg, members)
            cases += 1
    assert cases == 278
    with pytest.raises(MismatchError):
        is_dense_subset(powerset_algebra(3), list(b3.atoms()))


def test_degenerate_dense():
    zero_alg = powerset_algebra(0)
    assert is_dense_subset(zero_alg, [])
    assert pi_weight(zero_alg) == 0


@pytest.mark.parametrize("k", range(5))
def test_min_dense_is_atom_count(k):
    alg = powerset_algebra(k)
    assert pi_weight(alg) == k
    assert is_dense_subset(alg, alg.atoms())


@pytest.mark.parametrize("k", range(4))
def test_min_dense_against_subset_search(k):
    alg = powerset_algebra(k)
    assert pi_weight(alg) == naive_min_dense(alg)


def test_generated_subalgebra(b3):
    sub = generated_subalgebra(b3, [b3.element(0b001)])
    assert {x.mask for x in sub.members} == {0b000, 0b001, 0b110, 0b111}
    full = generated_subalgebra(b3, list(b3.atoms()))
    assert len(full.members) == 8


def test_subalgebra_count_is_bell_number():
    # subalgebras of a power set match partitions of the atom set
    assert sum(1 for _ in all_subalgebras(powerset_algebra(3))) == 5
    assert sum(1 for _ in all_subalgebras(powerset_algebra(4))) == 15


def test_subalgebras_match_the_closure_oracle():
    """generated_subalgebra on every generator set of at most three
    members on at most four atoms; all_subalgebras yields each of those
    subalgebras exactly once (two generators reach every partition of at
    most four blocks)."""
    for k in range(5):
        alg = powerset_algebra(k)
        generated = set()
        for r in range(4):
            for gens in itertools.combinations(range(alg.size), r):
                members = {x.mask for x in generated_subalgebra(alg, [alg.element(m) for m in gens]).members}
                assert members == naive_generated_subalgebra(alg.full_mask, gens)
                generated.add(frozenset(members))
        listed = [frozenset(x.mask for x in sub.members) for sub in all_subalgebras(alg)]
        assert len(listed) == len(set(listed))
        assert set(listed) == generated


def test_subalgebras_are_closed(b3):
    for sub in all_subalgebras(b3):
        members = sub.members
        for x, y in itertools.product(members, repeat=2):
            assert x & y in members
            assert ~x in members


def test_homomorphism_checks(b3):
    b2 = powerset_algebra(2)
    h = BooleanHomomorphism.from_atom_map(b3, b2, (0, 1))
    assert check_homomorphism(h).ok
    assert h.is_surjective()
    assert not h.is_injective()
    # a non-homomorphic table is caught with a law name
    bad = BooleanHomomorphism(b2, b2, tuple([0] * b2.size))
    report = check_homomorphism(bad)
    assert not report.ok
    assert report.law == "one"


def test_meet_law_witnesses_match_oracle(b3):
    # check_homomorphism on every table of b3 that keeps 0, 1 and
    # complements, so only the meet law can fail, and DLC2 on every
    # table of b2 with f(0) = 0
    failures = []
    for images in itertools.product(range(8), repeat=3):
        f = [0, *images, 0, 0, 0, 7]
        for a in (1, 2, 3):
            f[7 ^ a] = 7 ^ f[a]
        report = check_homomorphism(BooleanHomomorphism(b3, b3, tuple(f)))
        bad = naive_first_meet_failure(f)
        assert (report.law, tuple(x.mask for x in report.witness)) == (
            ("meet", bad) if bad else (None, ())
        ), f
        failures.append(bad)
    b2 = powerset_algebra(2)
    L = nca_as_lca(ContactAlgebra(b2, extremal_relation(b2, "smallest")))
    for images in itertools.product(range(4), repeat=3):
        f = (0, *images)
        report = check_dhlc_morphism(LcaMorphismTable(L, L, f))
        bad = naive_first_meet_failure(f)
        if bad:
            assert (report.axiom, tuple(x.mask for x in report.witness)) == ("DLC2", bad), f
        else:
            assert report.axiom != "DLC2", f
        failures.append(bad)
    assert None in failures
    assert any(bad and bad[1] == 3 for bad in failures[512:])  # b = 1 on two atoms


def test_all_homomorphisms_count():
    # maps of target atoms into source atoms classify the homomorphisms
    b2, b3 = powerset_algebra(2), powerset_algebra(3)
    homs = list(all_homomorphisms(b2, b3))
    assert len(homs) == 2**3
    for h in homs:
        assert check_homomorphism(h).ok
    assert len(list(all_homomorphisms(powerset_algebra(0), b2))) == 0
    assert len(list(all_homomorphisms(b2, powerset_algebra(0)))) == 1


def test_identity_hom(b3):
    ident = BooleanHomomorphism.identity(b3)
    assert check_homomorphism(ident).ok
    assert ident.is_injective() and ident.is_surjective()
