"""Contact relations on finite Boolean algebras.

A relation here is stored at atom level: rows[p] is the bitmask of atoms
related to atom p, and the element-level relation is the additive
extension, a C b iff some atom of a is related to some atom of b. On a
finite algebra every relation satisfying the null and additivity axioms
(C1) and (C2) arises exactly this way. So those two hold by
construction, and so do LL2, LL2', LL3, LL4 and LL4'. The other axioms
are genuine properties of the matrix. Each is decided by at most a
sweep over pairs of elements, with the inner existential of its
definition reduced to a lookup in the reach table, and reports the
same deterministic first witness as the definitional sweep.

The derived relation a << b ("a is well inside b") abbreviates
not (a C b-complement). All axiom bundles and several searches are phrased
through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .boolean import (
    BooleanHomomorphism,
    Element,
    FiniteBooleanAlgebra,
    check_homomorphism,
    powerset_algebra,
)
from .errors import MismatchError, ValidationError

AXIOM_NAMES = (
    "C1", "C2", "C3", "C4", "C5", "C6",
    "LL1", "LL2", "LL2'", "LL3", "LL4", "LL4'", "LL5", "LL6", "LL7",
)

# Axioms that hold on every additive relation; _check_axiom_uncached says why.
_BY_CONSTRUCTION = frozenset(("C1", "C2", "LL2", "LL2'", "LL3", "LL4", "LL4'"))

# The widest axiom checks sweep pairs of elements, 4^k of them on k
# atoms: about a million at the limit.
_SWEEP_ATOM_LIMIT = 10


class ContactStructure:
    """An atom-level relation and its additive extension, with memo caches."""

    __slots__ = ("algebra", "rows", "_closure", "_axiom_cache")

    def __init__(self, algebra: FiniteBooleanAlgebra, rows: Sequence[int]):
        if len(rows) != algebra.atom_count:
            raise ValidationError("need one relation row per atom")
        for r in rows:
            if not 0 <= r <= algebra.full_mask:
                raise ValidationError("relation row out of range")
        self.algebra = algebra
        self.rows = tuple(rows)
        self._closure: list[int] | None = None
        self._axiom_cache: dict[str, "AxiomReport"] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContactStructure):
            return NotImplemented
        return self.algebra is other.algebra and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.rows))

    def __repr__(self) -> str:
        return f"ContactStructure({self.algebra.atom_count} atoms, rows={self.rows})"

    def atom_matrix(self) -> tuple[tuple[bool, ...], ...]:
        k = self.algebra.atom_count
        return tuple(
            tuple(bool(self.rows[p] >> q & 1) for q in range(k)) for p in range(k)
        )

    # -- mask-level queries (hot paths work on raw ints) --

    def reach_mask(self, mask: int) -> int:
        """Union of relation rows over the atoms of mask."""
        out = 0
        rows = self.rows
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def closure_table(self) -> list[int]:
        """reach_mask for every element mask, built once.

        Indexing this table is the unit of work for all searches; the
        table for mask m is table[m & -m's row | rest] built incrementally.
        """
        if self._closure is None:
            size = self.algebra.size
            table = [0] * size
            rows = self.rows
            for m in range(1, size):
                low = m & -m
                table[m] = table[m ^ low] | rows[low.bit_length() - 1]
            self._closure = table
        return self._closure

    def contact_masks(self, a: int, b: int) -> bool:
        return self.reach_mask(a) & b != 0

    def way_below_masks(self, a: int, b: int) -> bool:
        return self.reach_mask(a) & (self.algebra.full_mask ^ b) == 0

    # -- element-level queries --

    def _own(self, x: Element) -> int:
        if x.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        return x.mask

    def contact(self, a: Element, b: Element) -> bool:
        return self.contact_masks(self._own(a), self._own(b))

    def way_below(self, a: Element, b: Element) -> bool:
        return self.way_below_masks(self._own(a), self._own(b))


def from_atom_relation(
    algebra: FiniteBooleanAlgebra, matrix: Sequence[Sequence[object]]
) -> ContactStructure:
    """Build a structure from a square truth matrix over the atoms."""
    if len(matrix) != algebra.atom_count:
        raise ValidationError("matrix must be square over the atoms")
    rows = []
    for row in matrix:
        if len(row) != algebra.atom_count:
            raise ValidationError("matrix must be square over the atoms")
        m = 0
        for q, v in enumerate(row):
            if v:
                m |= 1 << q
        rows.append(m)
    return ContactStructure(algebra, rows)


def extremal_relation(algebra: FiniteBooleanAlgebra, which: str) -> ContactStructure:
    """The smallest contact relation (overlap) or the largest one.

    "smallest": atoms related only to themselves, so a C b iff a meets b.
    "largest": all atom pairs related, so a C b iff both are nonzero.
    """
    k = algebra.atom_count
    if which == "smallest":
        rows = [1 << p for p in range(k)]
    elif which == "largest":
        rows = [algebra.full_mask] * k
    else:
        raise ValidationError("which must be 'smallest' or 'largest'")
    return ContactStructure(algebra, rows)


@dataclass(frozen=True)
class ContactAlgebra:
    """A Boolean algebra paired with a contact structure on it."""

    algebra: FiniteBooleanAlgebra
    contact: ContactStructure

    def __post_init__(self):
        if self.contact.algebra is not self.algebra:
            raise MismatchError("contact structure belongs to a different algebra")

    @classmethod
    def from_matrix(
        cls, algebra: FiniteBooleanAlgebra, matrix: Sequence[Sequence[object]]
    ) -> "ContactAlgebra":
        return cls(algebra, from_atom_relation(algebra, matrix))

    def holds(self, a: Element, b: Element) -> bool:
        return self.contact.contact(a, b)

    def way_below(self, a: Element, b: Element) -> bool:
        return self.contact.way_below(a, b)

    # Axiom bundles, memoized through the structure's axiom cache.

    def passes(self, *names: str) -> bool:
        return all(check_axiom(self, n).ok for n in names)

    @property
    def is_precontact(self) -> bool:
        return self.passes("C1", "C2")

    @property
    def is_contact(self) -> bool:
        return self.is_precontact and self.passes("C3", "C4")

    @property
    def is_extensional(self) -> bool:
        return self.is_contact and self.passes("C6")

    @property
    def is_normal(self) -> bool:
        return self.is_contact and self.passes("C5", "C6")


def contact_holds(ca: ContactAlgebra, a: Element, b: Element) -> bool:
    return ca.holds(a, b)


def way_below(ca: ContactAlgebra, a: Element, b: Element) -> bool:
    return ca.way_below(a, b)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    axiom: str
    witness: tuple[Element, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_axiom(ca: ContactAlgebra | ContactStructure, name: str) -> AxiomReport:
    """Check one axiom; on failure report the first witness.

    Witnesses are deterministic: quantifiers run over masks in increasing
    order, nested left to right as in the axiom statement.
    """
    structure = ca.contact if isinstance(ca, ContactAlgebra) else ca
    if name not in AXIOM_NAMES:
        raise ValidationError(f"unknown axiom {name!r}")
    cached = structure._axiom_cache.get(name)
    if cached is None:
        cached = _check_axiom_uncached(structure, name)
        structure._axiom_cache[name] = cached
    return cached


def _check_axiom_uncached(s: ContactStructure, name: str) -> AxiomReport:
    """Decide one axiom from the reach table R of the atom rows.

    Write R(x) for the union of the rows of x's atoms, so x C y iff
    R(x) & y != 0 and x << y iff R(x) <= y. Seven axioms hold for every
    such additive relation and pass with no sweep:

    - C1: R(0) = 0, and R(a) & 0 = 0.
    - C2: R(a) & (b | c) and (R(a) | R(b)) & c split over the join.
    - LL2: R(0) = 0 <= 0.
    - LL2': R(1) <= 1, since every row lies within the full mask.
    - LL3: a <= b << c <= t gives R(a) <= R(b) <= c <= t.
    - LL4: R(a | b) = R(a) | R(b) <= c.
    - LL4': R(a) <= b and R(a) <= c give R(a) <= b & c.

    The other eight keep the outer loops of their definitions, in
    increasing mask order, so the first witness is the one the
    definitional sweep finds (those sweeps are kept in the test suite as
    oracles). Each inner existential is replaced by its best candidate,
    using that R is monotone and additive:

    - C5: a C-disjoint b has c with not a C c and not b C -c iff
      R(a) & R(b) = 0; take c = R(b), and any c works only if it
      contains R(b) and misses R(a).
    - C6, LL6: some nonzero b with not b C a (resp. b << a) exists iff
      some atom does, as an atom of b has a smaller reach than b.
    - LL5: a << c interpolates through some b iff it does through the
      least b with a << b, which is R(a); so iff R(R(a)) <= c.
    """
    alg = s.algebra
    if alg.atom_count > _SWEEP_ATOM_LIMIT:
        raise ValidationError(
            f"axiom sweep on {alg.atom_count} atoms would not terminate usefully"
        )
    if name in _BY_CONSTRUCTION:
        return AxiomReport(True, name)
    size = alg.size
    full = alg.full_mask
    reach = s.closure_table()
    rows = s.rows

    def fail(*masks: int) -> AxiomReport:
        return AxiomReport(False, name, tuple(Element(alg, m) for m in masks))

    if name == "C3":
        for a in range(1, size):
            if not reach[a] & a:
                return fail(a)

    elif name == "C4":
        for a in range(size):
            ra = reach[a]
            for b in range(size):
                if (ra & b != 0) != (reach[b] & a != 0):
                    return fail(a, b)

    elif name == "C5":
        for a in range(size):
            ra = reach[a]
            for b in range(size):
                if not ra & b and ra & reach[b]:
                    return fail(a, b)

    elif name == "C6":
        for a in range(full):
            if all(row & a for row in rows):
                return fail(a)

    elif name == "LL1":
        for a in range(size):
            ra = reach[a]
            for b in range(size):
                if not ra & ~b and a & ~b:
                    return fail(a, b)

    elif name == "LL5":
        for a in range(size):
            ra = reach[a]
            rra = reach[ra]
            for c in range(size):
                if not ra & ~c and rra & ~c:
                    return fail(a, c)

    elif name == "LL6":
        for a in range(1, size):
            if all(row & ~a for row in rows):
                return fail(a)

    elif name == "LL7":
        for a in range(size):
            ra = reach[a]
            for b in range(size):
                if not ra & ~b and reach[full ^ b] & a:
                    return fail(a, b)

    else:
        raise AssertionError(name)
    return AxiomReport(True, name)


def is_connected(ca: ContactAlgebra) -> bool:
    """No element other than 0 and 1 is apart from its complement."""
    s = ca.contact
    full = ca.algebra.full_mask
    reach = s.closure_table()
    for a in range(1, full):
        if reach[a] & (full ^ a) == 0:
            return False
    return True


def check_ca_morphism(
    h: BooleanHomomorphism,
    source: ContactAlgebra,
    target: ContactAlgebra,
    mode: str,
) -> AxiomReport:
    """Check that h transports contact the requested way.

    mode "preserves": a C b implies h(a) C' h(b).
    mode "reflects":  h(a) C' h(b) implies a C b.
    h must already pass check_homomorphism; anything else is rejected.
    """
    if h.source is not source.algebra or h.target is not target.algebra:
        raise MismatchError("homomorphism endpoints do not match the algebras")
    if mode not in ("preserves", "reflects"):
        raise ValidationError("mode must be 'preserves' or 'reflects'")
    report = check_homomorphism(h)
    if not report.ok:
        raise ValidationError(f"not a Boolean homomorphism (fails {report.law})")
    src_reach = source.contact.closure_table()
    tgt_reach = target.contact.closure_table()
    f = h.mapping
    for a in range(source.algebra.size):
        for b in range(source.algebra.size):
            src = src_reach[a] & b != 0
            tgt = tgt_reach[f[a]] & f[b] != 0
            if mode == "preserves" and src and not tgt:
                return AxiomReport(False, mode, (Element(source.algebra, a), Element(source.algebra, b)))
            if mode == "reflects" and tgt and not src:
                return AxiomReport(False, mode, (Element(source.algebra, a), Element(source.algebra, b)))
    return AxiomReport(True, mode)


def is_ca_isomorphism(
    h: BooleanHomomorphism, source: ContactAlgebra, target: ContactAlgebra
) -> bool:
    """Bijective homomorphism transporting contact exactly both ways."""
    if not check_homomorphism(h).ok:
        return False
    if not (h.is_injective() and h.is_surjective()):
        return False
    return (
        check_ca_morphism(h, source, target, "preserves").ok
        and check_ca_morphism(h, source, target, "reflects").ok
    )


# -- Canonical small families, used by fixtures, demos and the CLI docs --


def adjacency_contact(
    algebra: FiniteBooleanAlgebra,
    edges: Iterable[tuple[int, int]],
    reflexive: bool = True,
    symmetric: bool = True,
) -> ContactStructure:
    """Structure from an undirected-ish edge list over the atoms."""
    k = algebra.atom_count
    rows = [(1 << p) if reflexive else 0 for p in range(k)]
    for i, j in edges:
        if not (0 <= i < k and 0 <= j < k):
            raise ValidationError(f"edge ({i},{j}) out of range")
        rows[i] |= 1 << j
        if symmetric:
            rows[j] |= 1 << i
    return ContactStructure(algebra, rows)


def cycle_algebra(n: int) -> ContactAlgebra:
    """Atoms arranged in a cycle, each in contact with itself and both neighbors."""
    if n < 3:
        raise ValidationError("a cycle needs at least 3 atoms")
    alg = powerset_algebra(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return ContactAlgebra(alg, adjacency_contact(alg, edges))


def path_algebra(n: int) -> ContactAlgebra:
    """Atoms arranged in a path, endpoints only touching one neighbor."""
    if n < 1:
        raise ValidationError("a path needs at least 1 atom")
    alg = powerset_algebra(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    return ContactAlgebra(alg, adjacency_contact(alg, edges))


def all_contact_structures(
    algebra: FiniteBooleanAlgebra, reflexive_symmetric: bool = True
) -> Iterable[ContactStructure]:
    """Every atom relation on the algebra, optionally restricted to the
    reflexive symmetric ones (the matrices whose extension is a contact
    relation). Exhaustive, so keep the atom count small."""
    k = algebra.atom_count
    if reflexive_symmetric:
        off_diag = list(itertools.combinations(range(k), 2))
        for bits in itertools.product((0, 1), repeat=len(off_diag)):
            rows = [1 << p for p in range(k)]
            for bit, (i, j) in zip(bits, off_diag):
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            yield ContactStructure(algebra, rows)
    else:
        for rows in itertools.product(range(algebra.size), repeat=k):
            yield ContactStructure(algebra, list(rows))
