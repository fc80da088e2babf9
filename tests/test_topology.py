import gc
import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

from contactalg import (
    ContinuousMap,
    Element,
    FiniteSpace,
    InternalInconsistencyError,
    MismatchError,
    SetFamily,
    ValidationError,
    chain_space,
    check_dhlc_morphism,
    clopen_sets,
    closure,
    compose_diamond,
    dim_cl,
    discrete_space,
    enumerate_topologies,
    extremal_relation,
    family_order,
    generate_topology,
    indiscrete_space,
    interior,
    is_connected,
    is_connected_space,
    is_pi_semiregular,
    is_semiregular,
    lambda_t_map,
    particular_point_space,
    pi_weight_of_space,
    rc_algebra,
    ro_algebra,
    sierpinski_space,
    weight_of_space,
)

from contactalg.topology import DEFAULT_MAX_POINTS
from naive import naive_dim_cl, naive_family_order


def circle_model() -> FiniteSpace:
    # two open arcs, two glue points
    return generate_topology(4, [0b0001, 0b0010, 0b0111, 0b1011])


def test_space_validation():
    with pytest.raises(ValidationError):
        FiniteSpace(2, {0b00, 0b01, 0b10, 0b11, 0b100})  # out of range
    with pytest.raises(ValidationError):
        FiniteSpace(2, {0b00, 0b11, 0b01, 0b10, 0b01 | 0b10} - {0b11})  # no X
    with pytest.raises(ValidationError):
        FiniteSpace(3, {0, 0b111, 0b001, 0b010})  # not closed under union


@pytest.mark.parametrize(
    "ups,message",
    [
        ((0b01, 0b00), "point 1 is not in its neighbourhood U_1"),
        ((0b011, 0b110, 0b100), "point 1 is in U_0 but U_1 is not inside U_0"),
        ((0b01, 0b110), "neighbourhood U_1 out of range"),
        (
            (1,) * (DEFAULT_MAX_POINTS + 1),
            f"point count must lie in [0, {DEFAULT_MAX_POINTS}] (open families grow exponentially)",
        ),
    ],
    ids=["reflexive", "transitive", "range", "cap"],
)
def test_neighborhood_constructor_refusals(ups, message):
    with pytest.raises(ValidationError) as info:
        FiniteSpace.from_neighborhoods(ups)
    assert str(info.value) == message


def test_space_equality():
    assert sierpinski_space() == FiniteSpace(2, {0, 0b10, 0b11})
    assert sierpinski_space() != discrete_space(2)


def test_closure_interior_sierpinski():
    X = sierpinski_space()
    assert closure(X, 0b10) == 0b11  # the open point is dense
    assert closure(X, 0b01) == 0b01
    assert interior(X, 0b01) == 0
    assert interior(X, 0b11) == 0b11


@given(st.integers(0, 15))
def test_closure_is_a_closure_operator(mask):
    X = circle_model()
    c = closure(X, mask)
    assert mask & ~c == 0
    assert closure(X, c) == c
    assert interior(X, X.full_mask ^ mask) == X.full_mask ^ c


def test_generate_topology_closes():
    X = generate_topology(3, [0b011, 0b110])
    assert 0b010 in X.opens  # the intersection
    assert 0b111 in X.opens
    assert len(X.opens) == 5


def test_continuous_map_validation():
    sierp = sierpinski_space()
    # sending the closed point onto the open one and back is not continuous
    with pytest.raises(ValidationError):
        ContinuousMap(sierp, sierp, [1, 0])
    flip_ok = ContinuousMap(discrete_space(2), sierp, [1, 0])
    assert flip_ok.preimage(0b10) == 0b01


def test_map_composition():
    X, Y = discrete_space(3), discrete_space(2)
    f = ContinuousMap(X, Y, [0, 1, 1])
    g = ContinuousMap(Y, discrete_space(1), [0, 0])
    gf = g.after(f)
    assert gf.point_map == (0, 0, 0)
    with pytest.raises(MismatchError):
        f.after(g)


def test_rc_of_discrete_is_overlap():
    X = discrete_space(3)
    rc = rc_algebra(X)
    assert rc.algebra.atom_count == 3
    assert rc.lca.ca.contact.rows == extremal_relation(rc.algebra, "smallest").rows
    assert rc.lca.is_valid()


def test_rc_of_circle_model():
    rc = rc_algebra(circle_model())
    assert rc.algebra.atom_count == 2
    assert rc.regular_closed_sets() == [0b0000, 0b1101, 0b1110, 0b1111]
    # the two closed arcs touch at both glue points
    assert rc.lca.ca.contact.rows == (0b11, 0b11)
    assert not rc.lca.is_valid()


def test_rc_of_sierpinski():
    rc = rc_algebra(sierpinski_space())
    assert rc.regular_closed_sets() == [0b00, 0b11]
    assert rc.algebra.atom_count == 1


def test_rc_roundtrip():
    rc = rc_algebra(circle_model())
    for s in rc.regular_closed_sets():
        assert rc.to_set(rc.from_set(s)) == s
    with pytest.raises(ValidationError):
        rc.from_set(0b0001)


def test_ro_mirrors_rc():
    ro = ro_algebra(circle_model())
    assert ro.regular_open_sets() == [0b0000, 0b0001, 0b0010, 0b1111]
    assert ro.algebra.atom_count == ro.rc.algebra.atom_count
    # nu is the closure map
    ro_atom = Element(ro.algebra, 0b01)
    assert ro.rc.to_set(ro.nu(ro_atom)) in ro.rc.regular_closed_sets()


def test_ro_of_sierpinski_is_trivial():
    ro = ro_algebra(sierpinski_space())
    assert ro.regular_open_sets() == [0b00, 0b11]


def test_family_order_cases():
    X = discrete_space(3)
    assert family_order(SetFamily.of(X, [])) == -1
    assert family_order(SetFamily.of(X, [0], [1], [2])) == 0
    assert family_order(SetFamily.of(X, [0, 1], [1, 2])) == 1
    # duplicates collapse
    assert family_order(SetFamily.of(X, [0, 1], [0, 1], [2])) == 0
    with pytest.raises(ValidationError):
        family_order(SetFamily(X, ()))


@given(st.lists(st.integers(0, 15), min_size=1, max_size=5))
def test_family_order_matches_enumeration(masks):
    X = discrete_space(4)
    assert family_order(SetFamily(X, tuple(masks))) == naive_family_order(masks)


@pytest.mark.parametrize(
    "space,expected",
    [
        (discrete_space(0), -1),
        (discrete_space(1), 0),
        (discrete_space(4), 0),
        (sierpinski_space(), 0),
        (chain_space(4), 0),
        (indiscrete_space(3), 0),
        (particular_point_space(3), 1),
        (particular_point_space(4), 2),
    ],
)
def test_dim_cl_fixtures(space, expected):
    assert dim_cl(space, n_cap=3) == expected


def test_dim_cl_circle_model():
    """Also the cap contract on every space of at most four points: a cap
    hides exactly the values above it, and a cap below -1 is refused."""
    assert dim_cl(circle_model(), n_cap=3) == 1
    for n in range(5):
        for X in enumerate_topologies(n):
            d = dim_cl(X, 4)
            for c in range(-1, 5):
                assert dim_cl(X, c) == (d if d <= c else None)
    with pytest.raises(ValidationError):
        dim_cl(circle_model(), n_cap=-2)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dim_cl_irredundant_equals_unrestricted(n):
    for X in enumerate_topologies(n):
        assert dim_cl(X, n_cap=3) == naive_dim_cl(X, n_cap=3)


def test_weight_fixtures():
    assert weight_of_space(sierpinski_space()) == 2
    assert weight_of_space(chain_space(3)) == 3
    assert weight_of_space(particular_point_space(4)) == 4
    assert weight_of_space(indiscrete_space(3)) == 1
    assert weight_of_space(discrete_space(4)) == 4


def test_pi_weight_fixtures():
    assert pi_weight_of_space(sierpinski_space()) == 1
    assert pi_weight_of_space(chain_space(3)) == 1
    assert pi_weight_of_space(particular_point_space(4)) == 1
    assert pi_weight_of_space(discrete_space(4)) == 4


def test_semiregularity():
    assert is_semiregular(discrete_space(3))
    assert not is_semiregular(sierpinski_space())
    assert not is_semiregular(particular_point_space(4))
    assert is_pi_semiregular(discrete_space(3))
    assert is_pi_semiregular(circle_model())
    assert not is_pi_semiregular(sierpinski_space())


def test_lambda_t_identity_and_composition():
    X, Y, Z = discrete_space(3), discrete_space(2), discrete_space(2)
    rx, ry, rz = rc_algebra(X), rc_algebra(Y), rc_algebra(Z)
    f = ContinuousMap(X, Y, [0, 0, 1])
    g = ContinuousMap(Y, Z, [1, 0])
    tf = lambda_t_map(f, ry, rx)
    tg = lambda_t_map(g, rz, ry)
    assert check_dhlc_morphism(tf).ok
    composite = lambda_t_map(g.after(f), rz, rx)
    assert compose_diamond(tf, tg).mapping == composite.mapping
    ident = lambda_t_map(ContinuousMap.identity(X), rx, rx)
    assert ident.mapping == tuple(range(rx.algebra.size))


def test_regular_algebras_are_built_once_per_space():
    X, Y, Z = discrete_space(3), circle_model(), indiscrete_space(1)
    for S in (X, Y, Z):
        assert rc_algebra(S) is rc_algebra(S)
        assert ro_algebra(S).rc is rc_algebra(S)
    # tables over the same space objects compose with no algebras passed
    f = ContinuousMap(X, Y, [0, 1, 2])
    g = ContinuousMap(Y, Z, [0] * 4)
    tf, tg = lambda_t_map(f), lambda_t_map(g)
    assert tf.source is tg.target
    assert compose_diamond(tf, tg).mapping == lambda_t_map(g.after(f)).mapping


def test_a_space_and_its_regular_algebras_are_freed_by_reference_counts():
    class Space(FiniteSpace):  # FiniteSpace has slots and takes no weak reference
        pass

    gc.disable()
    try:
        X = Space(4, circle_model().opens)
        rc_algebra(X)
        ro_algebra(X)
        ref = weakref.ref(X)
        del X
        assert ref() is None
    finally:
        gc.enable()


def test_lambda_t_on_non_discrete():
    X = circle_model()
    collapse = ContinuousMap(X, indiscrete_space(1), [0] * 4)
    t = lambda_t_map(collapse)
    # the whole target pulls back to the whole source
    assert t(Element(t.source.algebra, 1)).mask == t.target.algebra.full_mask


def test_lambda_t_space_mismatch():
    X, Y = discrete_space(2), discrete_space(2)
    f = ContinuousMap(X, Y, [0, 1])
    with pytest.raises(MismatchError):
        lambda_t_map(f, rc_algebra(discrete_space(3)), rc_algebra(X))


def test_clopens_of_small_spaces():
    assert len(clopen_sets(chain_space(3))) == 2
    assert len(clopen_sets(discrete_space(2))) == 4


def test_connectedness():
    assert is_connected_space(chain_space(4))
    assert is_connected_space(circle_model())
    assert not is_connected_space(discrete_space(2))
    assert is_connected_space(discrete_space(1))
    assert is_connected_space(discrete_space(0))


def test_connectedness_matches_algebra():
    for n in range(4):
        for X in enumerate_topologies(n):
            assert is_connected_space(X) == is_connected(rc_algebra(X).ca)


def test_enumerate_topologies_counts():
    # OEIS A000798, labelled topologies
    assert [sum(1 for _ in enumerate_topologies(n)) for n in range(6)] == [
        1,
        1,
        4,
        29,
        355,
        6942,
    ]
    with pytest.raises(ValidationError):
        next(enumerate_topologies(6))
