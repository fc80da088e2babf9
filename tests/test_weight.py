import pytest

from contactalg import (
    ContactAlgebra,
    ContactStructure,
    Element,
    LocalContactAlgebra,
    Subalgebra,
    ValidationError,
    algebra_weight,
    all_subalgebras,
    extremal_relation,
    generated_subalgebra,
    is_dv_dense,
    minimal_base_within,
    nca_as_lca,
    path_algebra,
    pi_weight,
    powerset_algebra,
    rho_from_subalgebra,
    s_part,
    zero_dim_criterion,
)

from conftest import sampled_contact_algebras
from naive import naive_is_base, naive_min_base, naive_min_dense


def overlap_lca(k):
    alg = powerset_algebra(k)
    return nca_as_lca(ContactAlgebra(alg, extremal_relation(alg, "smallest")))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_overlap_weight_is_whole_algebra(k):
    L = overlap_lca(k)
    result = algebra_weight(L)
    assert result.size == 2**k
    assert len(result.base) == result.size


def test_cycle_weight_fixture(c6):
    result = algebra_weight(nca_as_lca(c6))
    assert result.size == 8
    masks = {x.mask for x in result.base}
    arcs = {0b000111, 0b001110, 0b011100, 0b111000, 0b110001, 0b100011}
    assert masks == arcs | {0, 0b111111}


def test_path_weight_matches_naive():
    for n in (2, 3):
        L = nca_as_lca(path_algebra(n))
        size, witness = naive_min_base(L)
        result = algebra_weight(L)
        assert result.size == size
        assert naive_is_base(L, result.base)


def test_sampled_weights_match_naive():
    for ca in sampled_contact_algebras(3, 4):
        if not ca.is_contact:
            continue
        L = nca_as_lca(ca)
        assert algebra_weight(L).size == naive_min_base(L)[0]


def test_weight_with_small_ideal(c6):
    L = LocalContactAlgebra(c6, c6.algebra.element(0b000111))
    result = algebra_weight(L)
    assert result.size == naive_min_base(L)[0]
    for x in result.base:
        assert L.is_bounded(x)


def test_weight_requires_contact():
    alg = powerset_algebra(2)
    loose = ContactAlgebra(alg, ContactStructure(alg, [0, 0]))
    with pytest.raises(ValidationError):
        algebra_weight(nca_as_lca(loose))


def test_degenerate_weight():
    L = overlap_lca(0)
    result = algebra_weight(L)
    assert result.size == 1
    assert result.base[0].is_zero


def test_s_part(c6, overlap3):
    assert [x.mask for x in s_part(c6)] == [0b000000, 0b111111]
    assert len(s_part(overlap3)) == 8


def test_is_base_matches_naive(c6):
    L = nca_as_lca(c6)
    base = algebra_weight(L).base
    assert is_dv_dense(L, base) == naive_is_base(L, base)
    atoms = list(c6.algebra.atoms())
    assert is_dv_dense(L, atoms) == naive_is_base(L, atoms) == False


def test_zero_dim_criterion_valid_cases():
    for k in (0, 1, 2, 3):
        assert zero_dim_criterion(overlap_lca(k))


def test_zero_dim_criterion_gate(c6):
    with pytest.raises(ValidationError):
        zero_dim_criterion(nca_as_lca(c6))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_pi_weight_is_atom_count(k):
    assert pi_weight(powerset_algebra(k)) == k


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pi_weight_matches_subset_search(k):
    alg = powerset_algebra(k)
    assert pi_weight(alg) == naive_min_dense(alg)


def test_rho_from_full_subalgebra(b3):
    full = generated_subalgebra(b3, list(b3.atoms()))
    result = rho_from_subalgebra(b3, full)
    assert result.structure.rows == extremal_relation(b3, "smallest").rows
    assert result.s_part_matches
    assert result.is_minimum_base
    assert result.weight == 8
    assert result.failed_axioms == ()


def test_rho_from_proper_subalgebra(b3):
    sub = generated_subalgebra(b3, [b3.element(0b011)])
    result = rho_from_subalgebra(b3, sub)
    # atoms 0 and 1 share a block
    assert result.structure.rows == (0b011, 0b011, 0b100)
    assert "LL6" in result.failed_axioms
    assert result.s_part_matches
    assert result.is_minimum_base
    assert result.weight == 4


def test_rho_from_every_subalgebra_of_b4():
    b4 = powerset_algebra(4)
    for sub in all_subalgebras(b4):
        result = rho_from_subalgebra(b4, sub)
        assert result.s_part_matches
        assert result.is_minimum_base
        assert result.weight == len(sub.members)
        proper = len(sub.members) < b4.size
        assert ("LL6" in result.failed_axioms) == proper


def test_rho_rejects_foreign_subalgebra(b3):
    other = powerset_algebra(3)
    sub = generated_subalgebra(other, [other.element(0b001)])
    with pytest.raises(ValidationError):
        rho_from_subalgebra(b3, sub)


def test_minimal_base_within(c6):
    L = nca_as_lca(c6)
    base = algebra_weight(L).base
    padded = list(base) + [c6.algebra.element(0b011111)]
    trimmed = minimal_base_within(L, padded)
    assert trimmed.size == 8
    assert is_dv_dense(L, trimmed.base)


def test_minimal_base_within_rejects_non_base(c6):
    with pytest.raises(ValidationError):
        minimal_base_within(nca_as_lca(c6), list(c6.algebra.atoms()))


def test_minimal_base_within_valid_structure():
    L = overlap_lca(2)
    result = minimal_base_within(L, list(L.algebra.elements()))
    assert result.size == 4
