"""Contact relations on finite Boolean algebras.

A relation here is stored at atom level: rows[p] is the bitmask of atoms
related to atom p, and the element-level relation is the additive
extension, a C b iff some atom of a is related to some atom of b. On a
finite algebra every relation satisfying the null and additivity axioms
(C1) and (C2) arises exactly this way. So those two hold by
construction, and so do LL2, LL2', LL3, LL4 and LL4'. The other axioms
are genuine properties of the matrix. Each reads its first witness off
the atoms in at most k^2 steps on k atoms, with no sweep over the 2^k
elements, and the report is the one the definitional sweep gives.
Connectedness is decided on the atoms too, in at most k^3 steps, and so
is contact transport along a homomorphism, on atom pairs.

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

# The axiom bundles refuse algebras past this many atoms. The axioms
# themselves are decided on the atoms, but the bundles gate the weight,
# base and completion searches, which are exponential in the atom count:
# the weight of the 11-atom ring takes about 27 s.
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

    def reach_closure(self, mask: int) -> int:
        """Every atom reached from an atom of mask in the digraph
        p -> row(p), the atoms of mask included."""
        seen = frontier = mask
        while frontier:
            frontier = self.reach_mask(frontier) & ~seen
            seen |= frontier
        return seen

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

    def holds(self, a: Element, b: Element) -> bool:
        if a.algebra is not self.algebra or b.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        return self.contact.reach_mask(a.mask) & b.mask != 0

    def way_below(self, a: Element, b: Element) -> bool:
        if a.algebra is not self.algebra or b.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        return self.contact.reach_mask(a.mask) & ~b.mask == 0

    # Axiom bundles, memoized through the structure's axiom cache.

    def passes(self, *names: str) -> bool:
        k = self.algebra.atom_count
        if k > _SWEEP_ATOM_LIMIT:
            raise ValidationError(
                f"contact bundles refuse {k} atoms: the searches they gate would not terminate usefully"
            )
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
    """Decide one axiom on the atom rows, in at most k^2 steps.

    Write R(x) for the union of the rows of x's atoms, so x C y iff
    R(x) & y != 0 and x << y iff R(x) <= y; R is additive and monotone.
    Seven axioms hold for every such additive relation and pass with no
    sweep:

    - C1: R(0) = 0, and R(a) & 0 = 0.
    - C2: R(a) & (b | c) and (R(a) | R(b)) & c split over the join.
    - LL2: R(0) = 0 <= 0.
    - LL2': R(1) <= 1, since every row lies within the full mask.
    - LL3: a <= b << c <= t gives R(a) <= R(b) <= c <= t.
    - LL4: R(a | b) = R(a) | R(b) <= c.
    - LL4': R(a) <= b and R(a) <= c give R(a) <= b & c.

    The other eight report the first witness of the definitional sweep,
    which runs its quantifiers over masks in increasing order, nested as
    in the axiom (those sweeps are kept in the test suite as oracles).
    Each inner existential is replaced by its best candidate:

    - C5: a C-disjoint b has c with not a C c and not b C -c iff
      R(a) & R(b) = 0; take c = R(b), and any c works only if it
      contains R(b) and misses R(a).
    - C6, LL6: some nonzero b with not b C a (resp. b << a) exists iff
      some atom does, as an atom of b has a smaller reach than b.
    - LL5: a << c interpolates through some b iff it does through the
      least b with a << b, which is R(a); so iff R(R(a)) <= c.

    Every first witness is then read off the atoms; an atom p in a
    witness below stands for the mask 1 << p. A mask holding bit p is at
    least 2^p, so where every failing mask holds a failing atom, the
    least failing mask is the least failing atom. C3, C6 and LL6
    quantify over one element a:

    - C3 fails at a != 0 iff R(a) misses a. Then every atom p of a
      misses row(p), which lies inside R(a), and {p} fails too. The
      witness is p, the least atom not in row(p), as for LL1.
    - LL6 fails at a != 0 iff no row lies inside a. That is down-closed
      over nonzero masks, so the lowest atom q of a failing a fails as
      well. The witness is q, the least atom such that no row is 0 or
      {q}; if some row is 0, LL6 passes.
    - C6 fails at a != 1 iff a meets every row, which is up-closed. If
      some row is 0, C6 passes. Otherwise the first witness is the
      least transversal T of the rows as a number, if T != 1. Up-closure
      makes T greedy from the top bit down: bit i of T is 0 iff the bits
      of T above i, with every bit below i, still meet every row. So
      start from T = 1 and, for i from k - 1 down to 0, drop bit i
      whenever T without it still meets every row.

    C4, C5, LL1, LL5 and LL7 quantify over pairs (a, b). Since R is
    additive, a failing pair holds a failing atom p of a, or a failing
    pair of atoms p of a and q of b; the least failing a is then the
    least failing atom, and likewise for b. Where R(a) fails at a and
    every b failing at a lies above R(a), the least b is R(a), as a mask
    above R(a) is at least R(a) as a number.

    - C4 fails at (a, b) iff some atom p of a and q of b have q in
      row(p) but not p in row(q), or the reverse: a C b reads "some atom
      of a is related to some atom of b". So the witness is (p, q), p the
      least atom in an asymmetric pair and q its least partner.
    - C5 fails at (a, b) iff R(a) & b = 0 and R(a) & R(b) != 0. Then
      some atoms p of a and q of b have rows that meet, and q lies
      outside R(a), so outside row(p): the atom pair (p, q) fails too.
      The witness is (p, q), p the least atom with such a partner q and
      q its least one.
    - LL1 fails at (a, b) iff R(a) <= b and a is not below b. The least
      such b is R(a), so a fails iff a is not below R(a), that is iff an
      atom p of a is not in row(p). The witness is (p, row(p)), p the
      least such atom.
    - LL5 fails at (a, c) iff R(a) <= c and R(R(a)) is not below c; the
      least c is R(a), so a fails iff R(R(a)) is not below R(a). Both
      are unions over the atoms p of a of R(row(p)) and row(p), so that
      holds iff R(row(p)) is not below row(p) for some atom p of a. The
      witness is (p, row(p)), p the least such atom.
    - LL7 fails at (a, b) iff R(a) <= b and R(-b) meets a. Then some
      atom p of a lies in the row of an atom outside b, so outside
      row(p): p lies in R(-row(p)), and (p, row(p)) fails too. The
      witness is (p, row(p)), p the least atom in R(-row(p)).
    """
    if name in _BY_CONSTRUCTION:
        return AxiomReport(True, name)
    alg = s.algebra
    full = alg.full_mask
    rows = s.rows
    atoms = range(alg.atom_count)

    def fail(*masks: int) -> AxiomReport:
        return AxiomReport(False, name, tuple(Element(alg, m) for m in masks))

    if name == "C3":
        for p, row in enumerate(rows):
            if not row >> p & 1:
                return fail(1 << p)

    elif name == "C4":
        for p in atoms:
            for q in atoms:
                if rows[p] >> q & 1 != rows[q] >> p & 1:
                    return fail(1 << p, 1 << q)

    elif name == "C5":
        for p, row in enumerate(rows):
            for q in atoms:
                if not row >> q & 1 and rows[q] & row:
                    return fail(1 << p, 1 << q)

    elif name == "C6":
        if all(rows):
            t = full
            for i in reversed(atoms):
                if all(row & t & ~(1 << i) for row in rows):
                    t ^= 1 << i
            if t != full:
                return fail(t)

    elif name == "LL1":
        for p, row in enumerate(rows):
            if not row >> p & 1:
                return fail(1 << p, row)

    elif name == "LL5":
        for p, row in enumerate(rows):
            if s.reach_mask(row) & ~row:
                return fail(1 << p, row)

    elif name == "LL6":
        if 0 not in rows:
            for q in atoms:
                if 1 << q not in rows:
                    return fail(1 << q)

    elif name == "LL7":
        for p, row in enumerate(rows):
            if s.reach_mask(full ^ row) >> p & 1:
                return fail(1 << p, row)

    else:
        raise AssertionError(name)
    return AxiomReport(True, name)


def is_connected(ca: ContactAlgebra) -> bool:
    """No element other than 0 and 1 is apart from its complement.

    An element 0 < a < 1 is apart from -a iff R(a) <= a, that is iff a
    is closed under the atom digraph p -> row(p). The set an atom p
    reaches in that digraph, p included, is closed; and a closed a
    holds everything reached from any of its atoms. So a proper nonzero
    closed element exists iff some atom does not reach every atom. Each
    reach set takes at most k rounds of reach_mask, k^3 steps in all.
    """
    full = ca.algebra.full_mask
    return all(ca.contact.reach_closure(1 << p) == full for p in range(ca.algebra.atom_count))


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
    preserve_fail, reflect_fail = _transport_failures(h.mapping, source.contact, target.contact)
    bad = preserve_fail if mode == "preserves" else reflect_fail
    if bad is None:
        return AxiomReport(True, mode)
    return AxiomReport(False, mode, tuple(Element(source.algebra, m) for m in bad))


def is_ca_isomorphism(
    h: BooleanHomomorphism, source: ContactAlgebra, target: ContactAlgebra
) -> bool:
    """Bijective homomorphism transporting contact both ways, on atoms."""
    if not check_homomorphism(h).ok or not (h.is_injective() and h.is_surjective()):
        return False
    if h.source is not source.algebra or h.target is not target.algebra:
        raise MismatchError("homomorphism endpoints do not match the algebras")
    return _transport_failures(h.mapping, source.contact, target.contact) == (None, None)


def _transport_failures(
    f, source: ContactStructure, target: ContactStructure
) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """The first mask pairs (a, b), in increasing order, at which the
    homomorphism table f fails to preserve and to reflect contact, or
    None for a law that holds.

    Both are atom pairs (p, q), the first failing one in (p, q) order.
    f(a) is the join of the f(p) over the atoms p <= a and both
    relations are additive, so a C b iff p C q, and f(a) C' f(b) iff
    f(p) C' f(q), for some atoms p <= a and q <= b. If (a, b) fails to
    preserve, some such p C q holds while no f(p) C' f(q) does, so the
    atom pair (p, q) fails too; the same goes for reflecting. A mask
    holding bit p is at least 2^p, so the least failing a is the least
    atom p in a failing pair, and the least failing b at it is the
    least q that fails with p.
    """
    images = [f[1 << p] for p in range(source.algebra.atom_count)]
    preserve_fail = reflect_fail = None
    for p, fp in enumerate(images):
        row, reach = source.rows[p], target.reach_mask(fp)
        for q, fq in enumerate(images):
            s, g = row >> q & 1, reach & fq != 0
            if s and not g and preserve_fail is None:
                preserve_fail = (1 << p, 1 << q)
            if g and not s and reflect_fail is None:
                reflect_fail = (1 << p, 1 << q)
    return preserve_fail, reflect_fail


# -- Canonical small families, used by fixtures, demos and the CLI docs --


def adjacency_contact(
    algebra: FiniteBooleanAlgebra, edges: Iterable[tuple[int, int]]
) -> ContactStructure:
    """The reflexive symmetric structure with the given edges between atoms."""
    k = algebra.atom_count
    rows = [1 << p for p in range(k)]
    for i, j in edges:
        if not (0 <= i < k and 0 <= j < k):
            raise ValidationError(f"edge ({i},{j}) out of range")
        rows[i] |= 1 << j
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
