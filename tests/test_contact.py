import itertools

import pytest
from hypothesis import given, strategies as st

from contactalg import (
    AXIOM_NAMES,
    BooleanHomomorphism,
    ContactAlgebra,
    ContactStructure,
    MismatchError,
    ValidationError,
    adjacency_contact,
    all_contact_structures,
    check_axiom,
    check_ca_morphism,
    cycle_algebra,
    extremal_relation,
    is_ca_isomorphism,
    is_connected,
    path_algebra,
    powerset_algebra,
)

from naive import naive_way_below


def test_overlap_passes_everything(overlap3):
    for name in AXIOM_NAMES:
        assert check_axiom(overlap3, name).ok, name
    assert overlap3.is_normal


def test_largest_relation_bundle(everything3):
    assert everything3.is_contact
    assert check_axiom(everything3, "C5").ok
    report = check_axiom(everything3, "C6")
    assert not report.ok
    # first a != 1 with no disconnected partner, scanning upward: the
    # first atom
    assert report.witness[0].mask == 0b001


def test_cycle_fixture(c6):
    assert c6.is_contact
    assert not c6.is_extensional
    assert not c6.is_normal
    c5 = check_axiom(c6, "C5")
    assert (c5.witness[0].mask, c5.witness[1].mask) == (0b000001, 0b000100)
    c6_report = check_axiom(c6, "C6")
    assert c6_report.witness[0].mask == 0b001001
    assert is_connected(c6)


def test_cycle_interpolation_fails(c6):
    report = check_axiom(c6, "LL5")
    assert not report.ok
    assert report.witness[0].mask == 0b000001
    assert not check_axiom(c6, "LL6").ok
    # additivity-style laws hold for any additive relation
    for name in ("LL1", "LL2", "LL2'", "LL3", "LL4", "LL4'", "LL7"):
        assert check_axiom(c6, name).ok, name


def test_unknown_axiom_rejected(overlap3):
    with pytest.raises(ValidationError):
        check_axiom(overlap3, "C9")


def test_contact_is_additive(c6):
    alg = c6.algebra
    for a, b, c in itertools.product(list(alg.elements())[:8], repeat=3):
        assert c6.holds(a | b, c) == (c6.holds(a, c) or c6.holds(b, c))


@given(st.integers(0, 63), st.integers(0, 63))
def test_way_below_matches_definition(ma, mb):
    ca = cycle_algebra(6)
    a, b = ca.algebra.element(ma), ca.algebra.element(mb)
    assert ca.way_below(a, b) == naive_way_below(ca, a, b)


def test_overlap_way_below_is_order(overlap3):
    for a, b in itertools.product(overlap3.algebra.elements(), repeat=2):
        assert overlap3.way_below(a, b) == (a <= b)


def test_closure_table_matches_rowwise(c6):
    s = c6.contact
    for mask in range(64):
        assert s.closure_table()[mask] == s.reach_mask(mask)


def test_cross_algebra_rejected(c6, overlap3):
    own, foreign = c6.algebra.one, overlap3.algebra.one
    for query in (c6.holds, c6.way_below):
        for a, b in ((own, foreign), (foreign, own)):
            with pytest.raises(MismatchError):
                query(a, b)


def test_constructors():
    p3 = path_algebra(3)
    assert p3.contact.rows == (0b011, 0b111, 0b110)
    with pytest.raises(ValidationError):
        cycle_algebra(2)
    square = adjacency_contact(powerset_algebra(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert ContactAlgebra(square.algebra, square).is_contact


def test_adjacency_bounds():
    with pytest.raises(ValidationError):
        adjacency_contact(powerset_algebra(2), [(0, 5)])


def test_all_structure_counts():
    alg = powerset_algebra(3)
    rs = list(all_contact_structures(alg, reflexive_symmetric=True))
    assert len(rs) == 2 ** 3  # one bit per unordered atom pair
    assert len(set(s.rows for s in rs)) == len(rs)
    everything = list(all_contact_structures(alg, reflexive_symmetric=False))
    assert len(everything) == 2 ** 9


def test_degenerate_contact():
    alg = powerset_algebra(0)
    ca = ContactAlgebra(alg, ContactStructure(alg, []))
    assert ca.is_contact
    assert ca.is_normal
    assert is_connected(ca)


def test_morphism_modes(overlap3):
    b3 = overlap3.algebra
    b2 = powerset_algebra(2)
    overlap2 = ContactAlgebra(b2, extremal_relation(b2, "smallest"))
    everything2 = ContactAlgebra(b2, extremal_relation(b2, "largest"))
    h = BooleanHomomorphism.from_atom_map(b2, b3, (0, 0, 1))
    assert check_ca_morphism(h, overlap2, overlap3, "preserves").ok
    assert check_ca_morphism(h, overlap2, overlap3, "reflects").ok
    # from the larger relation, disjoint atoms are in contact at the
    # source but their images are not
    report = check_ca_morphism(h, everything2, overlap3, "preserves")
    assert not report.ok
    assert (report.witness[0].mask, report.witness[1].mask) == (0b01, 0b10)


def test_morphism_rejects_non_hom(overlap3):
    b3 = overlap3.algebra
    bad = BooleanHomomorphism(b3, b3, tuple([0] * b3.size))
    with pytest.raises(ValidationError):
        check_ca_morphism(bad, overlap3, overlap3, "preserves")


def test_morphism_mode_name(overlap3):
    ident = BooleanHomomorphism.identity(overlap3.algebra)
    with pytest.raises(ValidationError):
        check_ca_morphism(ident, overlap3, overlap3, "sideways")


def test_isomorphism(c6):
    ident = BooleanHomomorphism.identity(c6.algebra)
    assert is_ca_isomorphism(ident, c6, c6)
    # same carrier, different relation: not an isomorphism
    overlap6 = ContactAlgebra(c6.algebra, extremal_relation(c6.algebra, "smallest"))
    assert not is_ca_isomorphism(ident, c6, overlap6)


def test_axiom_reports_are_deterministic(c6):
    first = check_axiom(c6, "C5")
    again = check_axiom(ContactAlgebra(c6.algebra, c6.contact), "C5")
    assert first.witness == again.witness
