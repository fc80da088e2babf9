import itertools
import random

import pytest

from contactalg import (
    ContactAlgebra,
    ContactStructure,
    Element,
    LcaMorphismTable,
    LocalContactAlgebra,
    MismatchError,
    ValidationError,
    all_contact_structures,
    all_dhlc_morphisms,
    check_dhlc_morphism,
    check_lca_axioms,
    check_lca_embedding,
    compose_diamond,
    extremal_relation,
    identity_completion,
    is_dv_dense,
    lower_sharp,
    nca_as_lca,
    powerset_algebra,
    product_lca,
    relative_lca,
)
from contactalg.lca import _minimal_intervals

from naive import naive_check_dhlc_morphism, naive_lower_sharp, naive_minimal_intervals


def overlap_lca(k: int) -> LocalContactAlgebra:
    alg = powerset_algebra(k)
    return nca_as_lca(ContactAlgebra(alg, extremal_relation(alg, "smallest")))


def test_overlap_is_valid(overlap3_lca):
    assert overlap3_lca.is_valid()
    assert check_lca_axioms(overlap3_lca).ok
    assert len(overlap3_lca.bounded_masks()) == 8


def test_cycle_is_not_valid(c6):
    L = nca_as_lca(c6)
    report = check_lca_axioms(L)
    assert not report.ok
    assert report.axiom == "LC1"
    assert (report.witness[0].mask, report.witness[1].mask) == (0b000001, 0b100011)


def test_shrunk_ideal_breaks_bounded_approximation(overlap3_lca):
    alg = overlap3_lca.algebra
    small = LocalContactAlgebra(overlap3_lca.ca, alg.element(0b011))
    report = check_lca_axioms(small)
    assert not report.ok
    # the atom outside the ideal touches itself but no bounded cut of it
    assert report.axiom == "LC2"
    assert (report.witness[0].mask, report.witness[1].mask) == (0b100, 0b100)


def test_bounded_parts(overlap3_lca):
    alg = overlap3_lca.algebra
    L = LocalContactAlgebra(overlap3_lca.ca, alg.element(0b011))
    assert [x.mask for x in L.bounded_elements()] == [0b000, 0b001, 0b010, 0b011]
    assert L.is_bounded(alg.element(0b010))
    assert not L.is_bounded(alg.one)


def test_degenerate_is_valid():
    alg = powerset_algebra(0)
    from contactalg import ContactStructure

    L = nca_as_lca(ContactAlgebra(alg, ContactStructure(alg, [])))
    assert L.is_valid()


def only_valid_lcas_are_overlap_with_full_ideal(k: int):
    """Sweep every reflexive-symmetric structure and every ideal top."""
    alg = powerset_algebra(k)
    overlap_rows = extremal_relation(alg, "smallest").rows
    hits = []
    for s in all_contact_structures(alg, reflexive_symmetric=True):
        ca = ContactAlgebra(alg, s)
        for u_mask in range(alg.size):
            L = LocalContactAlgebra(ca, alg.element(u_mask))
            if L.is_valid():
                hits.append((s.rows, u_mask))
    assert hits == [(overlap_rows, alg.full_mask)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_validity_collapse(k):
    only_valid_lcas_are_overlap_with_full_ideal(k)


def test_dv_density(overlap3_lca):
    assert is_dv_dense(overlap3_lca, overlap3_lca.bounded_elements())
    atoms = list(overlap3_lca.algebra.atoms())
    # atoms alone interpolate nothing above a two-atom join
    assert not is_dv_dense(overlap3_lca, atoms)
    assert is_dv_dense(overlap3_lca, list(overlap3_lca.algebra.elements()))


def test_dv_density_rejects_unbounded(overlap3_lca):
    L = LocalContactAlgebra(overlap3_lca.ca, overlap3_lca.algebra.element(0b011))
    with pytest.raises(ValidationError):
        is_dv_dense(L, [overlap3_lca.algebra.one])


def test_identity_table(overlap3_lca):
    t = LcaMorphismTable.identity(overlap3_lca)
    assert check_dhlc_morphism(t).ok
    assert lower_sharp(t).mapping == t.mapping


def test_lower_sharp_on_cycle(c6):
    # two neighborhood steps shrink an arc from each side
    L = nca_as_lca(c6)
    t = LcaMorphismTable.identity(L)
    sharp = lower_sharp(t)
    assert sharp(c6.algebra.element(0b000111)).mask == 0b000010
    assert sharp(c6.algebra.one) == c6.algebra.one


def test_dhlc_morphisms_are_boolean_homs():
    # between overlap algebras the bounded-morphism laws force exactly
    # the Boolean homomorphisms: k^m tables from k source atoms to m
    # target atoms
    for k, m in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        found = list(all_dhlc_morphisms(overlap_lca(k), overlap_lca(m)))
        assert len(found) == k**m, (k, m)
        from contactalg import BooleanHomomorphism, check_homomorphism

        for t in found:
            h = BooleanHomomorphism(t.source.algebra, t.target.algebra, t.mapping)
            assert check_homomorphism(h).ok


def test_dhlc_rejects_bad_table(overlap3_lca):
    t = LcaMorphismTable(
        overlap3_lca, overlap3_lca, tuple([0] * overlap3_lca.algebra.size)
    )
    report = check_dhlc_morphism(t)
    assert not report.ok
    # collapsing everything to 0 sends 1 = f(0*)* nowhere way below f(b)
    assert report.axiom == "DLC3"


def test_diamond_identity_and_associativity():
    src, mid, tgt = overlap_lca(2), overlap_lca(3), overlap_lca(2)
    for t in all_dhlc_morphisms(src, mid):
        assert compose_diamond(LcaMorphismTable.identity(mid), t).mapping == t.mapping
        assert compose_diamond(t, LcaMorphismTable.identity(src)).mapping == t.mapping
    f = next(iter(all_dhlc_morphisms(src, mid)))
    for g in all_dhlc_morphisms(mid, tgt):
        for h in all_dhlc_morphisms(tgt, src):
            left = compose_diamond(h, compose_diamond(g, f))
            right = compose_diamond(compose_diamond(h, g), f)
            assert left.mapping == right.mapping


def test_diamond_mismatch(overlap3_lca):
    t = LcaMorphismTable.identity(overlap3_lca)
    other = LcaMorphismTable.identity(overlap_lca(3))
    with pytest.raises(MismatchError):
        compose_diamond(other, t)


def test_embedding_report(overlap3_lca):
    t = LcaMorphismTable.identity(overlap3_lca)
    report = check_lca_embedding(t)
    assert report.ok
    assert report.injective and report.preserves and report.reflects


def test_embedding_rejects_non_hom(overlap3_lca):
    t = LcaMorphismTable(
        overlap3_lca, overlap3_lca, tuple([0] * overlap3_lca.algebra.size)
    )
    with pytest.raises(ValidationError):
        check_lca_embedding(t)


def test_non_injective_table_fails_embedding():
    src, tgt = overlap_lca(2), overlap_lca(1)
    collapse = next(iter(all_dhlc_morphisms(src, tgt)))
    report = check_lca_embedding(collapse)
    assert not report.ok
    assert not report.injective


def test_identity_completion(overlap3_lca, c6):
    assert identity_completion(overlap3_lca).ok
    report = identity_completion(nca_as_lca(c6))
    assert report.embedding_ok and report.image_is_base


def test_completion_requires_contact(everything3):
    # the largest relation is a contact algebra, so it is accepted
    assert identity_completion(nca_as_lca(everything3)).ok
    bad_alg = powerset_algebra(2)
    from contactalg import ContactStructure

    # an irreflexive relation breaks C3 and is rejected
    bad = ContactAlgebra(bad_alg, ContactStructure(bad_alg, [0, 0]))
    with pytest.raises(ValidationError):
        identity_completion(nca_as_lca(bad))


def test_product_of_overlaps_is_overlap():
    prod = product_lca([overlap_lca(1), overlap_lca(2)])
    expected = extremal_relation(prod.lca.algebra, "smallest").rows
    assert prod.lca.ca.contact.rows == expected
    assert prod.lca.bounded_top == prod.lca.algebra.one
    assert prod.lca.is_valid()


def test_product_projections():
    a, b = overlap_lca(2), overlap_lca(2)
    prod = product_lca([a, b])
    pa, pb = prod.projections
    x = prod.lca.algebra.element(0b0110)
    assert pa(x).mask == 0b10
    assert pb(x).mask == 0b01


def test_product_empty_rejected():
    with pytest.raises(ValidationError):
        product_lca([])


def test_product_keeps_factor_contact(c6):
    L = nca_as_lca(c6)
    prod = product_lca([L, overlap_lca(1)])
    rows = prod.lca.ca.contact.rows
    assert rows[:6] == c6.contact.rows
    assert rows[6] == 1 << 6


def test_relative_of_cycle_is_path(c6):
    L = nca_as_lca(c6)
    rel = relative_lca(L, c6.algebra.element(0b000111))
    assert rel.lca.ca.contact.rows == (0b011, 0b111, 0b110)
    x = rel.lca.algebra.element(0b101)
    assert rel.carrier.embed(x).mask == 0b000101
    assert rel.carrier.restrict(rel.carrier.embed(x)) == x


def test_relative_rejects_zero(overlap3_lca):
    with pytest.raises(ValidationError):
        relative_lca(overlap3_lca, overlap3_lca.algebra.zero)


def test_relative_bounded_top():
    alg = powerset_algebra(3)
    L = LocalContactAlgebra(
        ContactAlgebra(alg, extremal_relation(alg, "smallest")), alg.element(0b011)
    )
    rel = relative_lca(L, alg.element(0b110))
    # atoms of m are renumbered 0..; the surviving bounded atom is atom 1
    assert rel.lca.bounded_top.mask == 0b01


def random_lca(rng, k, reflexive_symmetric):
    alg = powerset_algebra(k)
    rows = [rng.randrange(alg.size) for _ in range(k)]
    if reflexive_symmetric:
        rows = [row | 1 << p for p, row in enumerate(rows)]
        rows = [row | sum(1 << q for q in range(k) if rows[q] >> p & 1) for p, row in enumerate(rows)]
    ca = ContactAlgebra(alg, ContactStructure(alg, rows))
    return LocalContactAlgebra(ca, alg.element(rng.randrange(alg.size)))


def meet_preserving_table(rng, source, target):
    """A table with f(0) = 0 that keeps binary meets: each target atom q
    lies in f(a) iff a is above a nonzero source mask low_q, or never."""
    lows = [rng.randrange(source.algebra.size) for _ in range(target.algebra.atom_count)]
    return tuple(
        sum(1 << q for q, low in enumerate(lows) if low and low & ~a == 0)
        for a in range(source.algebra.size)
    )


def test_dhlc_laws_and_lower_sharp_match_naive_sweeps():
    # seeded pairs of structures on 1-3 atoms, every other one reflexive
    # and symmetric; one meet-preserving table with f(0) = 0 and one
    # arbitrary table per pair
    rng = random.Random(30)
    seen = set()
    for i in range(3000):
        source = random_lca(rng, rng.randint(1, 3), i % 2)
        target = random_lca(rng, rng.randint(1, 3), i % 2)
        arbitrary = tuple(rng.randrange(target.algebra.size) for _ in range(source.algebra.size))
        for f in (meet_preserving_table(rng, source, target), arbitrary):
            t = LcaMorphismTable(source, target, f)
            report, expected = check_dhlc_morphism(t), naive_check_dhlc_morphism(t)
            assert (report.ok, report.axiom, report.witness) == (
                expected.ok, expected.axiom, expected.witness
            ), (source, target, f)
            assert lower_sharp(t).mapping == naive_lower_sharp(t), (source, target, f)
            seen.add(report.axiom)
    assert seen == {"DLC1", "DLC2", "DLC3", "DLC4", "DLC5", "DLC1-DLC5"}


def _intervals_match_naive(structures, tops) -> int:
    compared = 0
    for s in structures:
        ca = ContactAlgebra(s.algebra, s)
        for u in tops:
            L = LocalContactAlgebra(ca, Element(s.algebra, u))
            assert _minimal_intervals(L) == naive_minimal_intervals(L), (s.rows, u)
            compared += 1
    return compared


@pytest.mark.parametrize("k, cases", [(0, 1), (1, 4), (2, 64), (3, 4096)])
def test_minimal_intervals_match_naive_on_every_relation(k, cases):
    alg = powerset_algebra(k)
    structures = all_contact_structures(alg, reflexive_symmetric=False)
    assert _intervals_match_naive(structures, range(alg.size)) == cases


def test_minimal_intervals_match_naive_on_four_atoms():
    """Every 4-atom graph, and a seeded sample of arbitrary 4-atom
    relations, under every top."""
    alg = powerset_algebra(4)
    assert _intervals_match_naive(all_contact_structures(alg), range(16)) == 64 * 16
    rng = random.Random(7)
    sample = [ContactStructure(alg, [rng.randrange(16) for _ in range(4)]) for _ in range(60)]
    assert any(s.rows[p] >> p & 1 == 0 for s in sample for p in range(4))
    assert _intervals_match_naive(sample, range(16)) == 60 * 16
