"""Finite topological spaces as an independent oracle.

A finite topology is a preorder: p <= q when q lies in every open set
containing p, and the opens are the up-sets (Alexandroff 1937). So
FiniteSpace keeps only the minimal neighbourhood U_p of each point, and
everything is computed from those n masks: continuity, closures and
interiors, the regular closed and regular open algebras from the minimal
U_p (built once per space and kept on it), covering dimension as the
order of the maximal U_p, the clopen sets as the unions of the connected
components of the preorder, weight, pi-weight, semiregularity, the
contravariant regular-closed functor on continuous maps, and baby Stone
duality. No query builds the open family, and none of it consults the
algebraic search code, which is the point: the test suite plays the two
sides against each other, and tests/naive.py keeps the definitional
sweeps over the open family as oracles.

Subsets of a space are int bitmasks over points, the same convention the
Boolean algebra layer uses for atoms. FiniteSpace.mask and .points
convert at the border.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .boolean import (
    BooleanHomomorphism,
    Element,
    FiniteBooleanAlgebra,
    _and_all,
    _or_all,
    _unions,
    powerset_algebra,
)
from .contact import ContactAlgebra, ContactStructure, is_ca_isomorphism, is_connected
from .errors import InternalInconsistencyError, MismatchError, ValidationError
from .lca import LcaMorphismTable, LocalContactAlgebra, check_dhlc_morphism
from .weight import pi_weight

DEFAULT_MAX_POINTS = 5


def _capped_full_mask(point_count: int) -> int:
    if not 0 <= point_count <= DEFAULT_MAX_POINTS:
        raise ValidationError(
            f"point count must lie in [0, {DEFAULT_MAX_POINTS}] (open families grow exponentially)"
        )
    return (1 << point_count) - 1


class FiniteSpace:
    """A finite topological space, stored as its specialisation preorder.

    FiniteSpace(n, opens) validates the open family: it must hold the
    empty set and the whole space and be closed under union and
    intersection. Only neighborhoods[p] = U_p, the intersection of the
    members containing p, is kept; the opens are the unions of the U_p,
    so two families are equal iff their U_p are. Preorders cover the
    non-T0 and non-semiregular spaces as well.

    Each member u contains U_p for every p in u, so u is the union of
    those U_p. A topology holds each U_p and all their unions, so it is
    closed under u -> u | U_p. Conversely, a family holding the empty
    set and closed under that step holds each U_p and every union of
    them, which is every member; any member containing p then contains
    the member U_p, so an intersection of such unions is again the union
    of the U_p of its points. Validation costs one lookup per (member,
    point) instead of one per pair of members.
    """

    __slots__ = ("point_count", "full_mask", "neighborhoods", "_rc")

    def __init__(self, point_count: int, opens: Iterable[int]):
        full = _capped_full_mask(point_count)
        fam = frozenset(opens)
        for s in fam:
            if not 0 <= s <= full:
                raise ValidationError("open set out of range")
        if 0 not in fam or full not in fam:
            raise ValidationError("opens must contain the empty set and the space")
        ups = tuple(_and_all(u for u in fam if u >> p & 1) for p in range(point_count))
        for u in fam:
            for up in ups:
                if u | up not in fam:
                    raise ValidationError("opens not closed under union/intersection")
        self._keep(ups)

    @classmethod
    def from_neighborhoods(cls, neighborhoods: Iterable[int]) -> "FiniteSpace":
        """The space whose minimal neighbourhoods are the given masks U_p,
        checked in O(n^2): each lies in range, p is in U_p, and q in U_p
        implies U_q ⊆ U_p. The U_p of every topology pass. Conversely these
        make the unions of the U_p a topology, FiniteSpace(n, unions), with
        the same U_p: U_p ∩ U_q is the union of the U_r of its points, and
        any union holding p has a member U_r holding p, so U_p ⊆ U_r.
        """
        ups = tuple(neighborhoods)
        full = _capped_full_mask(len(ups))
        for p, up in enumerate(ups):
            if not 0 <= up <= full:
                raise ValidationError(f"neighbourhood U_{p} out of range")
            if not up >> p & 1:
                raise ValidationError(f"point {p} is not in its neighbourhood U_{p}")
            for q in range(len(ups)):
                if up >> q & 1 and ups[q] & ~up:
                    raise ValidationError(f"point {q} is in U_{p} but U_{q} is not inside U_{p}")
        space = cls.__new__(cls)
        space._keep(ups)
        return space

    def _keep(self, ups: tuple[int, ...]) -> None:
        self.point_count = len(ups)
        self.full_mask = (1 << len(ups)) - 1
        self.neighborhoods = ups
        self._rc = None  # the RcAlgebra, once rc_algebra has built it

    @property
    def opens(self) -> frozenset[int]:
        """The open family, built afresh from the U_p on each call."""
        return frozenset(_unions(self.neighborhoods))

    def __repr__(self) -> str:
        return f"FiniteSpace({self.point_count} points, neighborhoods={self.neighborhoods})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.neighborhoods == other.neighborhoods

    def __hash__(self) -> int:
        return hash(self.neighborhoods)

    def mask(self, points: Iterable[int]) -> int:
        m = 0
        for p in points:
            if not 0 <= p < self.point_count:
                raise ValidationError(f"point {p} out of range")
            m |= 1 << p
        return m

    def points(self, mask: int) -> frozenset[int]:
        return frozenset(p for p in range(self.point_count) if mask >> p & 1)

    @property
    def is_discrete(self) -> bool:
        return all(up == 1 << p for p, up in enumerate(self.neighborhoods))


def interior(X: FiniteSpace, mask: int) -> int:
    """The points p with U_p inside the set. Each such U_p is open and
    inside the set, and any open inside the set contains U_q for each of
    its points q."""
    out = 0
    for p, up in enumerate(X.neighborhoods):
        if up & ~mask == 0:
            out |= 1 << p
    return out


def closure(X: FiniteSpace, mask: int) -> int:
    """The points p with U_p meeting the set: p is outside the closure
    exactly when some open around p misses the set, and U_p is the
    smallest open around p."""
    out = 0
    for p, up in enumerate(X.neighborhoods):
        if up & mask:
            out |= 1 << p
    return out


def discrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, range(1 << n))


def indiscrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, {0, (1 << n) - 1})


def sierpinski_space() -> FiniteSpace:
    """Two points; {1} open, {0} not."""
    return FiniteSpace(2, {0, 0b10, 0b11})


def chain_space(n: int) -> FiniteSpace:
    """Opens are the initial segments 0, {0}, {0,1}, ..."""
    return FiniteSpace(n, {(1 << k) - 1 for k in range(n + 1)})


def particular_point_space(n: int) -> FiniteSpace:
    """Nonempty opens are exactly the sets containing point 0."""
    if n < 1:
        raise ValidationError("needs at least the particular point")
    return FiniteSpace(n, {0} | {m | 1 for m in range(1 << n)})


def generate_topology(n: int, subbase: Iterable[int]) -> FiniteSpace:
    """The coarsest topology holding the subbase. U_p is the meet of the
    members holding p, the whole space when none does: each finite meet
    m of members is the union of the U_p for p in m."""
    full = (1 << n) - 1
    subbase = list(subbase)
    ups = [full & _and_all(s for s in subbase if s >> p & 1) for p in range(n)]
    return FiniteSpace.from_neighborhoods(ups)


class ContinuousMap:
    """A point map whose preimages of opens are open (checked).

    Preimages commute with unions and every open is a union of U_q, so
    it is enough that each f^-1(U_q) is open. If some open u has a
    non-open preimage, so has some U_q inside u, and U_q <= u as masks:
    the least failing U_q, which is reported, is the least failing open.
    """

    __slots__ = ("source", "target", "point_map")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, point_map):
        point_map = tuple(point_map)
        if len(point_map) != source.point_count:
            raise ValidationError("point map must be total on the source")
        for q in point_map:
            if not 0 <= q < target.point_count:
                raise ValidationError("point map value out of range")
        self.source = source
        self.target = target
        self.point_map = point_map
        for u in sorted(target.neighborhoods):
            pre = self.preimage(u)
            if interior(source, pre) != pre:
                raise ValidationError(
                    f"not continuous: preimage of {sorted(target.points(u))} is not open"
                )

    @classmethod
    def identity(cls, X: FiniteSpace) -> "ContinuousMap":
        return cls(X, X, range(X.point_count))

    def __call__(self, point: int) -> int:
        return self.point_map[point]

    def preimage(self, mask: int) -> int:
        return _or_all(1 << p for p, q in enumerate(self.point_map) if mask >> q & 1)

    def after(self, other: "ContinuousMap") -> "ContinuousMap":
        """self after other (other runs first)."""
        if other.target is not self.source and other.target != self.source:
            raise MismatchError("maps do not compose")
        return ContinuousMap(
            other.source, self.target, tuple(self.point_map[q] for q in other.point_map)
        )


# -- the regular closed and regular open algebras --


def _atoms_of_family(sets) -> list[int]:
    """Minimal nonzero members under inclusion."""
    return sorted(s for s in sets if s and not any(t and t != s and t & ~s == 0 for t in sets))


@dataclass(frozen=True, eq=False)
class RcAlgebra:
    """The regular closed sets of a space, abstracted to a bit algebra.

    lca carries the standard contact (sets touch) with everything
    bounded: on a finite space every subset is compact, so the compact
    regular closed sets are all of them. atom_sets[i] is the concrete
    point set of abstract atom i. neighborhoods names the space by its U_p,
    since the space keeps this algebra and a reference back would be a cycle.
    """

    neighborhoods: tuple[int, ...]
    lca: LocalContactAlgebra
    atom_sets: tuple[int, ...]
    _from_set: dict

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.lca.algebra

    @property
    def ca(self) -> ContactAlgebra:
        return self.lca.ca

    def to_set(self, x: Element) -> int:
        if x.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        return _or_all(self.atom_sets[i] for i in x.atom_indices())

    def from_set(self, mask: int) -> Element:
        try:
            return self._from_set[mask]
        except KeyError:
            raise ValidationError(
                f"{mask:#x} is not a regular closed set of this space"
            ) from None

    def regular_closed_sets(self) -> list[int]:
        return sorted(self._from_set)


def rc_algebra(X: FiniteSpace) -> RcAlgebra:
    """The regular closed algebra, built once per space object and kept on it."""
    rc = X._rc
    if rc is None:
        rc = X._rc = _build_rc_algebra(X)
    return rc


def _build_rc_algebra(X: FiniteSpace) -> RcAlgebra:
    """RC(X) from its atoms, the cl(U_p) for the minimal U_p, by mask.

    Two minimal U_p, U_q that meet are equal (U_r lies in both for r in
    both), so the minimal U_p are disjoint and their union D is the least
    dense open set. For r in a minimal U_q, U_r = U_q; so cl(U_p) meets D
    in U_p alone, and an open u meets D in the union of the minimal U_p
    inside it. As D is dense and open, the regular closed set cl u is
    cl(u ∩ D), the union of those cl(U_p); and each union of cl(U_p) is
    the closure of an open set, hence regular closed. So RC(X) is the
    powerset of the minimal U_p with atoms cl(U_p). Two atoms touch when
    they meet.
    """
    atoms = sorted(closure(X, u) for u in _atoms_of_family(set(X.neighborhoods)))
    k = len(atoms)
    alg = powerset_algebra(k)
    from_set = {}
    for m, s in enumerate(_unions(atoms)):
        if closure(X, interior(X, s)) != s:
            raise InternalInconsistencyError("a union of regular closed atoms is not regular closed")
        from_set[s] = Element(alg, m)
    if len(from_set) != 1 << k:
        raise InternalInconsistencyError("regular closed atoms give fewer than 2^k unions")
    rows = [_or_all(1 << q for q, b in enumerate(atoms) if a & b) for a in atoms]
    lca = LocalContactAlgebra(ContactAlgebra(alg, ContactStructure(alg, rows)), alg.one)
    return RcAlgebra(X.neighborhoods, lca, tuple(atoms), from_set)


@dataclass(frozen=True, eq=False)
class RoAlgebra:
    """The regular open sets with the closures-touch contact, plus the
    closure map onto the regular closed algebra (checked to be an
    isomorphism of contact algebras)."""

    space: FiniteSpace
    ca: ContactAlgebra
    atom_sets: tuple[int, ...]
    rc: RcAlgebra
    nu: BooleanHomomorphism
    _from_set: dict

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.ca.algebra

    def to_set(self, x: Element) -> int:
        if x.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        union = _or_all(self.atom_sets[i] for i in x.atom_indices())
        return interior(self.space, closure(self.space, union))

    def from_set(self, mask: int) -> Element:
        try:
            return self._from_set[mask]
        except KeyError:
            raise ValidationError(
                f"{mask:#x} is not a regular open set of this space"
            ) from None

    def regular_open_sets(self) -> list[int]:
        return sorted(self._from_set)


def ro_algebra(X: FiniteSpace) -> RoAlgebra:
    """The regular open algebra; the join int(cl(union)) maps by nu to its closure.

    int and cl are inverse isomorphisms between RC(X) and RO(X), so the
    RO atoms are the interiors of the RC atoms, kept sorted by mask. Two
    of them touch when their closures meet.
    """
    rc = rc_algebra(X)
    atoms = sorted(interior(X, c) for c in rc.atom_sets)
    alg = powerset_algebra(len(atoms))
    closed = [closure(X, a) for a in atoms]
    rows = [_or_all(1 << q for q, b in enumerate(closed) if a & b) for a in closed]
    ca = ContactAlgebra(alg, ContactStructure(alg, rows))

    from_set = {}
    mapping = []
    for m, union in enumerate(_unions(atoms)):
        ro_set = interior(X, closure(X, union))
        from_set[ro_set] = Element(alg, m)
        mapping.append(rc.from_set(closure(X, ro_set)).mask)
    nu = BooleanHomomorphism(alg, rc.algebra, tuple(mapping))
    if not is_ca_isomorphism(nu, ca, rc.lca.ca):
        raise InternalInconsistencyError(
            "closure map is not an isomorphism of contact algebras"
        )
    return RoAlgebra(X, ca, tuple(atoms), rc, nu, from_set)


# -- covers, order, dimension --


@dataclass(frozen=True)
class SetFamily:
    """An indexed family of point sets; duplicates are allowed."""

    space: FiniteSpace
    members: tuple[int, ...]

    def __post_init__(self):
        for m in self.members:
            if not 0 <= m <= self.space.full_mask:
                raise ValidationError("family member out of range")

    @classmethod
    def of(cls, space: FiniteSpace, *point_sets) -> "SetFamily":
        return cls(space, tuple(space.mask(s) for s in point_sets))


def family_order(F: SetFamily) -> int:
    """Largest n such that some n+1 distinct members meet; -1 when the
    family holds nothing but the empty set. Duplicate entries name the
    same set, so they are collapsed first."""
    distinct = set(F.members)
    if not distinct:
        raise ValidationError("order of an empty family")
    if distinct == {0}:
        return -1
    best = 0
    for p in range(F.space.point_count):
        bit = 1 << p
        best = max(best, sum(1 for m in distinct if m & bit))
    return best - 1


def dim_cl(X: FiniteSpace, n_cap: int = 3) -> int | None:
    """Covering dimension: least n such that every finite open cover has
    an open refinement in which at most n+1 members share a point.

    -1 exactly for the empty space; None when the value is above the cap;
    a cap below -1 is refused. The open cover {U_p} refines every open
    cover, since U_p lies in any open containing p, so the value is the
    least order of a refinement of {U_p}: the order of M, the maximal
    members of {U_p}.
    Lower bound: for U_q in M, any refinement of {U_p} has a member V
    holding q. V is open, so U_q ⊆ V, and V ⊆ U_p for some p. As q ∈ U_p,
    U_q ⊆ U_p, so U_q = U_p by maximality and V = U_q. So M is part of
    the refinement, and each point lies in at least as many of its members.
    Upper bound: M covers X, since each U_r lies in a maximal U_p, and M
    refines {U_p}. The suite checks this against the irredundant-cover
    quantifier and the sweep over all open covers in tests/naive.py.
    """
    if n_cap < -1:
        raise ValidationError(f"dimension cap must be at least -1, got {n_cap}")
    if X.point_count == 0:
        return -1
    ups = set(X.neighborhoods)
    maximal = tuple(u for u in ups if not any(u != v and u & ~v == 0 for v in ups))
    d = family_order(SetFamily(X, maximal))
    return d if d <= n_cap else None


# -- cardinal invariants --


def weight_of_space(X: FiniteSpace) -> int:
    """Least size of an open base.

    The minimal neighborhood of each point belongs to every base (it
    must be a union of base members, one of which contains the point and
    hence equals it), and those neighborhoods already form a base (each
    open is the union of the U_p of its points), so the forced set is the
    minimum. The suite checks this against a blind subset search on
    small spaces.
    """
    return len(set(X.neighborhoods))


def pi_weight_of_space(X: FiniteSpace) -> int:
    """Least size of a pi-base (nonempty opens hitting below every
    nonempty open); the minimal nonzero opens are forced and suffice.

    A minimal nonzero open u contains some U_p, so u = U_p; and a U_p
    minimal among the U_q is minimal among all nonzero opens, since any
    nonzero open v inside it contains some U_q. So the minimal nonzero
    opens are the minimal members of {U_p}.
    """
    return len(_atoms_of_family(set(X.neighborhoods)))


def is_semiregular(X: FiniteSpace) -> bool:
    """Do the regular open sets form a base?

    They do exactly when every U_p is regular open: a base has a member
    containing p inside U_p, which must be U_p itself, and the U_p form
    a base.
    """
    return all(interior(X, closure(X, u)) == u for u in X.neighborhoods)


def is_pi_semiregular(X: FiniteSpace) -> bool:
    """Do the regular open sets form a pi-base? When they do, the
    pi-weight of the space must agree with the pi-weight of its regular
    closed algebra, and that equality is asserted here.

    Every nonempty open contains some U_p, so it is enough that each U_p
    contains an RO atom, as each nonempty regular open set contains one.
    """
    rc = rc_algebra(X)
    ro_atoms = [interior(X, c) for c in rc.atom_sets]
    result = all(
        any(a & ~u == 0 for a in ro_atoms) for u in set(X.neighborhoods)
    )
    if result:
        if pi_weight_of_space(X) != pi_weight(rc.algebra):
            raise InternalInconsistencyError(
                "pi-weight of a pi-semiregular space disagrees with its regular closed algebra"
            )
    return result


# -- the contravariant functor and Stone duality --


def lambda_t_map(
    f: ContinuousMap,
    target_rc: RcAlgebra | None = None,
    source_rc: RcAlgebra | None = None,
) -> LcaMorphismTable:
    """The regular closed functor on a continuous map: G maps to the
    closure of the preimage of its interior, read contravariantly as a
    table from the target's algebra to the source's.

    Tables over one space object share its RC algebra, so they compose
    with no algebras passed (tables over separately built algebras compare
    unequal by design). When both spaces are discrete the result is
    asserted to satisfy the bounded morphism axioms; outside that case it
    is returned as computed.
    """
    t_rc = target_rc if target_rc is not None else rc_algebra(f.target)
    s_rc = source_rc if source_rc is not None else rc_algebra(f.source)
    if (t_rc.neighborhoods, s_rc.neighborhoods) != (f.target.neighborhoods, f.source.neighborhoods):
        raise MismatchError("rc algebras do not match the map's spaces")
    mapping = []
    for m in range(t_rc.algebra.size):
        g = t_rc.to_set(Element(t_rc.algebra, m))
        image = closure(f.source, f.preimage(interior(f.target, g)))
        mapping.append(s_rc.from_set(image).mask)
    table = LcaMorphismTable(t_rc.lca, s_rc.lca, tuple(mapping))
    if f.source.is_discrete and f.target.is_discrete:
        report = check_dhlc_morphism(table)
        if not report.ok:
            raise InternalInconsistencyError(
                f"functor image of a discrete-space map fails {report.axiom}"
            )
    return table


def _components(X: FiniteSpace) -> list[int]:
    """The connected components of the preorder, merging p with each q in U_p.

    The clopen sets are exactly the unions of components. An open set is
    an up-set of the preorder and a closed set is a down-set, so a clopen
    set holding p holds every q in U_p and every q with p in U_q, hence
    p's whole component; and a union of components is both.
    """
    components: list[int] = []
    for up in X.neighborhoods:
        kept = []
        for c in components:
            if c & up:
                up |= c
            else:
                kept.append(c)
        components = kept + [up]
    return components


def clopen_sets(X: FiniteSpace) -> list[int]:
    return sorted(_unions(_components(X)))


def is_connected_space(X: FiniteSpace) -> bool:
    """At most one component, so no proper nonempty clopen subset; checked
    against connectedness of the regular closed contact algebra."""
    result = len(_components(X)) <= 1
    if is_connected(rc_algebra(X).ca) != result:
        raise InternalInconsistencyError(
            "space connectedness disagrees with the regular closed algebra"
        )
    return result


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """All topologies on n labelled points, one per preorder; n is capped
    at DEFAULT_MAX_POINTS.

    A finite topology is its specialisation preorder, with the opens as
    the up-sets. Preorders on m + 1 points extend those on m: the new
    point gets an up-set U (the points above it) and a down-set D (the
    complement of an up-set) of the old order, with U above every point
    of D, and each point of D gains the new point above it (U is there
    already). Each preorder arises once, from its restriction to the
    first m points.
    """
    if not 0 <= n <= DEFAULT_MAX_POINTS:
        raise ValidationError(f"topology enumeration is capped at {DEFAULT_MAX_POINTS} points")
    orders: list[tuple[int, ...]] = [()]  # ups[p] = the points q with p <= q
    for m in range(n):
        bit = 1 << m
        grown = []
        for ups in orders:
            opens = sorted(_unions(ups))
            for down in (u ^ (bit - 1) for u in opens):
                below = _and_all(ups[p] for p in range(m) if down >> p & 1)
                for up in opens:
                    if up & ~below:
                        continue
                    grown.append(tuple(
                        u | bit if down >> p & 1 else u for p, u in enumerate(ups)
                    ) + (up | bit,))
        orders = grown
    for ups in orders:
        yield FiniteSpace.from_neighborhoods(ups)
