"""Contact algebras with a distinguished ideal of bounded elements.

The bounded ideal is stored as its top element u (every ideal of a finite
Boolean algebra is principal; the test suite re-checks that fact), so the
bounded elements are exactly {b : b <= u}. The three locality axioms LC1,
LC2, LC3 tie the ideal to the relation; a structure passing the contact
bundle plus all three is called valid here.

Morphisms in this setting are not Boolean homomorphisms: they preserve 0
and finite meets, interact with the relation through DLC3, and are fixed
points of the lower-sharp transform (DLC5). Composition of two such maps
is the lower-sharp of their plain composite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .boolean import (
    BooleanHomomorphism,
    Element,
    FiniteBooleanAlgebra,
    RelativeAlgebra,
    _first_meet_failure,
    _or_all,
    check_homomorphism,
    powerset_algebra,
    relative_algebra,
)
from .contact import AxiomReport, ContactAlgebra, ContactStructure, _transport_failures
from .errors import MismatchError, ValidationError


class LocalContactAlgebra:
    """A contact algebra plus a principal ideal of bounded elements."""

    __slots__ = ("ca", "bounded_top")

    def __init__(self, ca: ContactAlgebra, bounded_top: Element):
        if bounded_top.algebra is not ca.algebra:
            raise MismatchError("bounded top from a different algebra")
        self.ca = ca
        self.bounded_top = bounded_top

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.ca.algebra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalContactAlgebra):
            return NotImplemented
        return self.ca == other.ca and self.bounded_top == other.bounded_top

    def __hash__(self) -> int:
        return hash((self.ca, self.bounded_top))

    def __repr__(self) -> str:
        return f"LocalContactAlgebra({self.ca.algebra.atom_count} atoms, u={self.bounded_top!r})"

    def is_bounded(self, x: Element) -> bool:
        if x.algebra is not self.algebra:
            raise MismatchError("element from a different algebra")
        return x.mask & ~self.bounded_top.mask == 0

    def bounded_masks(self) -> list[int]:
        """Masks of all bounded elements, ascending."""
        return sorted(_submasks(self.bounded_top.mask))

    def bounded_elements(self) -> list[Element]:
        return [Element(self.algebra, m) for m in self.bounded_masks()]

    def is_valid(self) -> bool:
        """Contact bundle plus LC1, LC2, LC3."""
        return self.ca.is_contact and check_lca_axioms(self).ok


def _submasks(u: int) -> list[int]:
    out = [0]
    s = u
    while s:
        out.append(s)
        s = (s - 1) & u
    return out


def nca_as_lca(ca: ContactAlgebra) -> LocalContactAlgebra:
    """View a contact algebra as locally bounded everywhere (u = 1)."""
    return LocalContactAlgebra(ca, ca.algebra.one)


LCA_AXIOM_NAMES = ("LC1", "LC2", "LC3")


def check_lca_axioms(L: LocalContactAlgebra) -> AxiomReport:
    """The first failure of LC1, LC2, LC3 in that order, or a pass
    reported as "LC1-LC3"."""
    for name in LCA_AXIOM_NAMES:
        report = check_lca_axiom(L, name)
        if not report.ok:
            return report
    return AxiomReport(True, "LC1-LC3")


def check_lca_axiom(L: LocalContactAlgebra, name: str) -> AxiomReport:
    """Check one of LC1, LC2, LC3; on failure report the first witness.

    LC1: bounded a << c interpolates through a bounded b.
    LC2: a in contact with b is already in contact with a bounded cut of b.
    LC3: below any nonzero a sits a nonzero bounded b with b << a.

    The outer quantifiers run over masks in increasing order (a over the
    bounded masks in LC1), as in the definitions, so the witness is the
    definitional sweep's first. Write R(x) for the union of the rows of
    x's atoms and u for the bounded top; x << y iff R(x) <= y, and R is
    monotone and additive. Each inner existential then reduces to one
    candidate:

    - LC1: a << b means R(a) <= b, so R(a) is the least such b, and
      b << c is monotone in b. A bounded one exists iff R(a) <= u, and
      it interpolates iff R(R(a)) <= c.
    - LC2: contact with b & c for some c <= u is contact with b & u,
      so a needs R(a) & b & u != 0.
    - LC3: a nonzero bounded b << a exists iff an atom of u does, as an
      atom of b has a smaller reach than b.

    Every first witness is then read off the atoms. A mask holding bit p
    is at least 2^p, so where every failing mask holds a failing atom p,
    the least failing mask is the atom of the least failing p. LC3
    quantifies over one element a:

    - LC3 fails at a != 0 iff no row of an atom of u lies inside a. That
      is down-closed over nonzero masks, so the lowest atom q of a
      failing a fails as well. The witness is q, the least atom such
      that no row of an atom of u is 0 or {q}; if one is 0, LC3 passes.

    LC1 and LC2 quantify over pairs (a, b). Since R is additive, a
    failing pair holds a failing atom p of a, or a failing pair of atoms
    p of a and q of b; the least failing a is then the least failing
    atom, and likewise for b. Where R(a) fails at a and every b failing
    at a lies above R(a), the least b is R(a), as a mask above R(a) is
    at least R(a) as a number.

    - LC1 fails at (a, c) iff R(a) <= c and R(a) is not below u or
      R(R(a)) is not below c. The least such c is R(a), so a bounded a
      fails iff R(a) is not below u or R(R(a)) is not below R(a). Both
      sides are unions over the atoms p of a, so that holds iff some
      atom p of a has row(p) not below u or R(row(p)) not below row(p).
      The witness is (p, row(p)), p the least such atom of u.
    - LC2 fails at (a, b) iff R(a) & b != 0 and R(a) & b & u = 0. If
      R(a) <= u the two conditions contradict, so a fails iff some atom
      p of a has row(p) not below u. At the atom p a failing b meets
      row(p) only outside u, so it holds a bit of row(p) - u, and the
      least such b is the lowest of those bits. The witness is that
      pair, p the least such atom.
    """
    if name not in LCA_AXIOM_NAMES:
        raise ValidationError(f"unknown axiom {name!r}")
    alg = L.algebra
    u = L.bounded_top.mask
    s = L.ca.contact
    rows = s.rows

    def fail(*masks: int) -> AxiomReport:
        return AxiomReport(False, name, tuple(Element(alg, m) for m in masks))

    if name == "LC1":
        for p, row in enumerate(rows):
            if u >> p & 1 and (row & ~u or s.reach_mask(row) & ~row):
                return fail(1 << p, row)
    elif name == "LC2":
        for p, row in enumerate(rows):
            outside = row & ~u
            if outside:
                return fail(1 << p, outside & -outside)
    else:
        bounded_rows = [row for p, row in enumerate(rows) if u >> p & 1]
        if 0 not in bounded_rows:
            for q in range(alg.atom_count):
                if 1 << q not in bounded_rows:
                    return fail(1 << q)
    return AxiomReport(True, name)


def _minimal_intervals(L: LocalContactAlgebra) -> list[tuple[int, int]]:
    """The minimal well-inside intervals [a, R(a)] of the bounded part,
    as mask pairs with a in the order of _submasks(u).

    R is the reach table and u the bounded top, so a << c iff R(a) <= c.
    Write I(c) for the join of the atoms p <= u with row(p) <= c: the
    largest bounded a with a << c. The minimal intervals are the pairs
    (a, R(a)) with R(a) <= u and I(R(a)) = a, at most one per bounded a.
    (On a reflexive relation I(c) <= c, so for c <= u the bound u on I
    changes nothing.)

    Lemma: a set meets every bounded interval [a, c] with a << c iff it
    meets every minimal one. Minimal intervals are such intervals. Given
    bounded a << c, let c0 = R(a) <= c and a0 = I(c0). Each atom of a
    has its row inside c0, so a <= a0; then R(a) <= R(a0) <= c0 gives
    R(a0) = c0, and I(R(a0)) = a0. So [a0, c0] is minimal, and it lies
    inside [a, c].

    Each atom of a has its row inside R(a), so a <= I(R(a)) always, and
    I is computed once per distinct top R(a), not once per a.
    """
    u = L.bounded_top.mask
    reach = L.ca.contact.closure_table()
    rows = L.ca.contact.rows
    bounded_atoms = [(1 << p, rows[p]) for p in range(L.algebra.atom_count) if u >> p & 1]
    interior: dict[int, int] = {}
    out = []
    for a in _submasks(u):
        c = reach[a]
        if c & ~u:
            continue
        i = interior.get(c)
        if i is None:
            i = interior[c] = sum(bit for bit, row in bounded_atoms if row & ~c == 0)
        if i == a:
            out.append((a, c))
    return out


def is_dv_dense(L: LocalContactAlgebra, members: Sequence[Element]) -> bool:
    """Is D a base: every bounded pair a << c has d in D with a <= d <= c?

    That order form is decided on the minimal intervals alone, by the
    lemma in _minimal_intervals. The interpolation form (a << d << c) is
    the same predicate on every valid structure: the only valid finite
    one is the discrete relation with u = 1 (tests/test_lca.py sweeps
    this), where << is <=. So it is not decided here; tests/naive.py
    keeps it as an oracle. The atom limit of the contact bundles refuses
    an oversized algebra before any 2^k table is built.
    """
    alg = L.algebra
    u = L.bounded_top.mask
    d_masks = []
    for d in members:
        if d.algebra is not alg:
            raise MismatchError("base member from a different algebra")
        if d.mask & ~u:
            raise ValidationError(f"base member {d!r} is not bounded")
        d_masks.append(d.mask)
    L.ca.passes()  # the atom limit, before any 2^k table
    return all(
        any(a & ~d == 0 and d & ~c == 0 for d in d_masks)
        for a, c in _minimal_intervals(L)
    )


# -- morphism tables --


@dataclass(frozen=True)
class LcaMorphismTable:
    """A total map between two bounded contact algebras, mask-indexed.

    Nothing is assumed about the map; run check_dhlc_morphism or
    check_lca_embedding to classify it.
    """

    source: LocalContactAlgebra
    target: LocalContactAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.algebra.size:
            raise ValidationError("mapping must be total on the source")
        for m in self.mapping:
            if not 0 <= m <= self.target.algebra.full_mask:
                raise ValidationError("mapping value out of target range")

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.source.algebra:
            raise MismatchError("argument is not a source element")
        return Element(self.target.algebra, self.mapping[x.mask])

    @classmethod
    def identity(cls, L: LocalContactAlgebra) -> "LcaMorphismTable":
        return cls(L, L, tuple(range(L.algebra.size)))


def lower_sharp(t: LcaMorphismTable) -> LcaMorphismTable:
    """The lower-sharp transform: a maps to the join of images of bounded
    elements well inside a. Empty join is 0.

    b << a iff the row of every atom of b lies inside a, i.e. b <= I(a),
    the join of those atoms. So the join runs over exactly the submasks of
    u & I(a), whatever the table, once per distinct u & I(a).
    """
    src = t.source
    rows = src.ca.contact.rows
    u = src.bounded_top.mask
    f = t.mapping
    joins: dict[int, int] = {}
    out = []
    for a in range(src.algebra.size):
        inside = u & _or_all(1 << p for p, row in enumerate(rows) if row & ~a == 0)
        if inside not in joins:
            joins[inside] = _or_all(f[b] for b in _submasks(inside))
        out.append(joins[inside])
    return LcaMorphismTable(src, t.target, tuple(out))


def check_dhlc_morphism(t: LcaMorphismTable) -> AxiomReport:
    """Check DLC1 through DLC5 in order; first failure wins.

    DLC1 zero preservation, DLC2 binary meets, DLC3 transport of the
    well-inside relation through complements, DLC4 every bounded target
    element sits under the image of a bounded source element, DLC5 the
    map equals its own lower-sharp.

    Each witness is the definitional sweep's first (tests/naive.py): DLC3
    over bounded a in _submasks order, then b ascending; DLC4 over
    _submasks(u_t). Once DLC2 holds f is monotone, as a <= b gives
    f(a) = f(a & b) = f(a) & f(b), so each law has one candidate:

    - DLC3: a << b iff R(a) <= b, so R(a) is the least such b and
      f(R(a)) <= f(b); if any b fails for a, R(a) does.
    - DLC4: f(u_s) is the largest bounded image, and every bounded b is
      below u_t, so the law fails iff u_t is not below f(u_s), and u_t is
      the first nonzero entry of _submasks(u_t).
    """
    src, tgt = t.source, t.target
    f = t.mapping
    s_alg, t_alg = src.algebra, tgt.algebra
    s_full, t_full = s_alg.full_mask, t_alg.full_mask
    s_reach = src.ca.contact.closure_table()
    t_reach = tgt.ca.contact.closure_table()

    if f[0] != 0:
        return AxiomReport(False, "DLC1", (s_alg.zero,))
    bad = _first_meet_failure(f)
    if bad is not None:
        return AxiomReport(False, "DLC2", tuple(Element(s_alg, m) for m in bad))
    for a in _submasks(src.bounded_top.mask):
        b = s_reach[a]
        if t_reach[t_full ^ f[a ^ s_full]] & (t_full ^ f[b]):
            return AxiomReport(False, "DLC3", (Element(s_alg, a), Element(s_alg, b)))
    u_t = tgt.bounded_top.mask
    if u_t & ~f[src.bounded_top.mask]:
        return AxiomReport(False, "DLC4", (Element(t_alg, u_t),))
    sharp = lower_sharp(t).mapping
    for a in range(s_alg.size):
        if f[a] != sharp[a]:
            return AxiomReport(False, "DLC5", (Element(s_alg, a),))
    return AxiomReport(True, "DLC1-DLC5")


def compose_diamond(t2: LcaMorphismTable, t1: LcaMorphismTable) -> LcaMorphismTable:
    """Diamond composition: lower-sharp of the plain composite t2 after t1."""
    if t1.target != t2.source:
        raise MismatchError("tables do not compose: middle algebras differ")
    f1, f2 = t1.mapping, t2.mapping
    plain = tuple(f2[f1[a]] for a in range(len(f1)))
    return lower_sharp(LcaMorphismTable(t1.source, t2.target, plain))


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    preserves: bool
    reflects: bool
    bounded_preserved: bool
    bounded_reflected: bool
    injective: bool
    witness: tuple[Element, ...] = ()


def check_lca_embedding(t: LcaMorphismTable) -> EmbeddingReport:
    """Check the embedding laws on a Boolean homomorphism table: contact
    preserved and reflected, boundedness preserved and reflected.
    Injectivity is reported; for genuine contact algebras it follows from
    preservation. Tables that are not homomorphisms are rejected.

    Both bounded laws are decided on atoms, as f(a) is the join of the
    f(p) over the atoms p <= a. Preservation (a <= u_s implies
    f(a) <= u_t) holds iff f(p) <= u_t for every atom p <= u_s: those
    atoms are bounded elements, and a bounded a is a join of them, so
    f(a) is a join of bounded images. Reflection (f(a) <= u_t implies
    a <= u_s) holds iff f(p) is not below u_t for every atom p not below
    u_s: those atoms are elements, and an a not below u_s has such an
    atom p, with f(p) <= f(a).
    """
    src, tgt = t.source, t.target
    f = t.mapping
    hom = check_homomorphism(BooleanHomomorphism(src.algebra, tgt.algebra, f))
    if not hom.ok:
        raise ValidationError(f"not a Boolean homomorphism: fails {hom.law}")
    fails = _transport_failures(f, src.ca.contact, tgt.ca.contact)
    preserves, reflects = (bad is None for bad in fails)
    first = min((bad for bad in fails if bad is not None), default=())
    witness = tuple(Element(src.algebra, m) for m in first)
    u_s, u_t = src.bounded_top.mask, tgt.bounded_top.mask
    atoms = range(src.algebra.atom_count)
    bounded_pres = all(f[1 << p] & ~u_t == 0 for p in atoms if u_s >> p & 1)
    bounded_refl = all(f[1 << p] & ~u_t for p in atoms if not u_s >> p & 1)
    injective = len(set(f)) == len(f)
    ok = preserves and reflects and bounded_pres and bounded_refl
    return EmbeddingReport(
        ok, preserves, reflects, bounded_pres, bounded_refl, injective, witness
    )


@dataclass(frozen=True)
class CompletionReport:
    embedding: LcaMorphismTable
    embedding_ok: bool
    image_is_base: bool

    @property
    def ok(self) -> bool:
        return self.embedding_ok and self.image_is_base


def identity_completion(L: LocalContactAlgebra) -> CompletionReport:
    """A finite structure is its own completion: return the identity
    embedding and verify the embedding laws plus that the bounded part is
    a base for itself. Requires the contact bundle."""
    if not L.ca.is_contact:
        raise ValidationError("identity_completion needs a contact relation")
    ident = LcaMorphismTable.identity(L)
    emb = check_lca_embedding(ident)
    base = is_dv_dense(L, L.bounded_elements())
    return CompletionReport(ident, emb.ok, base)


# -- products and relativization --


@dataclass(frozen=True)
class ProductLca:
    lca: LocalContactAlgebra
    factors: tuple[LocalContactAlgebra, ...]
    projections: tuple[LcaMorphismTable, ...]


def product_lca(factors: Sequence[LocalContactAlgebra]) -> ProductLca:
    """Product over a finite factor list.

    Atoms are the disjoint union of the factor atoms, the relation is
    blockwise (no contact across factors), and the bounded top is the join
    of the factor tops (finite support is automatic for finite lists).
    Projections restrict an element to one factor's block.
    """
    if not factors:
        raise ValidationError("product of an empty factor list")
    offsets = []
    total = 0
    for F in factors:
        offsets.append(total)
        total += F.algebra.atom_count
    alg = powerset_algebra(total)
    rows: list[int] = []
    u = 0
    for F, off in zip(factors, offsets):
        for r in F.ca.contact.rows:
            rows.append(r << off)
        u |= F.bounded_top.mask << off
    structure = ContactStructure(alg, rows)
    product = LocalContactAlgebra(ContactAlgebra(alg, structure), Element(alg, u))
    projections = []
    for F, off in zip(factors, offsets):
        fmask = F.algebra.full_mask
        mapping = tuple((m >> off) & fmask for m in range(alg.size))
        projections.append(LcaMorphismTable(product, F, mapping))
    return ProductLca(product, tuple(factors), tuple(projections))


@dataclass(frozen=True)
class RelativeLca:
    lca: LocalContactAlgebra
    ambient: LocalContactAlgebra
    carrier: RelativeAlgebra


def relative_lca(L: LocalContactAlgebra, m: Element) -> RelativeLca:
    """The structure induced on {x : x <= m}.

    Relation restricted to pairs below m, bounded ideal {b meet m}, and
    relative complement x* meet m (that is what complement means in the
    carrier algebra).
    """
    if m.algebra is not L.algebra:
        raise MismatchError("m from a different algebra")
    if m.is_zero:
        raise ValidationError("cannot relativize at 0")
    carrier = relative_algebra(L.algebra, m)
    ambient = L.ca.contact.rows
    rows = [
        carrier.restrict(Element(L.algebra, ambient[p]) & m).mask
        for p in m.atom_indices()
    ]
    structure = ContactStructure(carrier.algebra, rows)
    rel_top = carrier.restrict(L.bounded_top & m)
    rel = LocalContactAlgebra(ContactAlgebra(carrier.algebra, structure), rel_top)
    return RelativeLca(rel, L, carrier)


def all_dhlc_morphisms(
    source: LocalContactAlgebra, target: LocalContactAlgebra
) -> Iterator[LcaMorphismTable]:
    """Every DHLC morphism source -> target, for valid finite targets.

    A meet-preserving map is determined by its images of the coatoms
    (every a < 1 is the meet of the coatoms above it, and DLC4 forces the
    image of 1 to be 1 when the target is valid), so enumerating coatom
    assignments and filtering by the axiom check is a complete search.
    """
    s_alg = source.algebra
    t_alg = target.algebra
    k = s_alg.atom_count
    coatoms = [s_alg.full_mask ^ (1 << p) for p in range(k)]
    for images in itertools.product(range(t_alg.size), repeat=k):
        mapping = []
        for mask in range(s_alg.size):
            img = t_alg.full_mask
            for p in range(k):
                if not mask >> p & 1:  # coatoms[p] >= mask
                    img &= images[p]
            mapping.append(img)
        t = LcaMorphismTable(source, target, tuple(mapping))
        if check_dhlc_morphism(t).ok:
            yield t
