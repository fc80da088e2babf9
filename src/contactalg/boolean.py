"""Finite Boolean algebras as power sets of a fixed atom set.

Every finite Boolean algebra is the power set of its atoms, so an algebra
here is just an atom count and an element is a bitmask over the atoms
(bit i set = atom i below the element). Join, meet and complement are the
bitwise operations; the partial order is the subset order. The degenerate
one-element algebra (zero atoms, 0 = 1) is a first-class citizen because
several boundary results depend on it.

Elements remember which algebra object they belong to, and operations on
elements of two different algebra *objects* are rejected rather than
coerced, even when the atom counts agree. Silent coercion is exactly the
kind of thing that hides a wiring bug between an abstract algebra and its
topological double.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MismatchError, ValidationError

DEFAULT_MAX_ATOMS = 24


class FiniteBooleanAlgebra:
    """Power-set Boolean algebra on atoms 0..atom_count-1."""

    __slots__ = ("atom_count", "full_mask")

    def __init__(self, atom_count: int):
        if atom_count < 0:
            raise ValidationError("atom_count must be >= 0")
        if atom_count > DEFAULT_MAX_ATOMS:
            raise ValidationError(
                f"atom_count {atom_count} exceeds the practical cap {DEFAULT_MAX_ATOMS}"
            )
        self.atom_count = atom_count
        self.full_mask = (1 << atom_count) - 1

    # Identity semantics on purpose: two separately built 3-atom algebras
    # are isomorphic but not interchangeable (see module docstring).

    def __repr__(self) -> str:
        return f"FiniteBooleanAlgebra({self.atom_count})"

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    def element(self, mask: int) -> "Element":
        """Wrap a bitmask as an element of this algebra."""
        if not 0 <= mask <= self.full_mask:
            raise ValidationError(f"mask {mask:#x} out of range for {self!r}")
        return Element(self, mask)

    @property
    def zero(self) -> "Element":
        return Element(self, 0)

    @property
    def one(self) -> "Element":
        return Element(self, self.full_mask)

    def atoms(self) -> list["Element"]:
        return [Element(self, 1 << i) for i in range(self.atom_count)]

    def elements(self) -> Iterator["Element"]:
        """All elements, in increasing mask order."""
        for mask in range(self.size):
            yield Element(self, mask)


def powerset_algebra(atom_count: int) -> FiniteBooleanAlgebra:
    """The power-set algebra on the given number of atoms."""
    return FiniteBooleanAlgebra(atom_count)


@dataclass(frozen=True)
class Element:
    """An element of a FiniteBooleanAlgebra: a set of atoms as a bitmask.

    Comparison operators implement the lattice partial order (subset),
    mirroring frozenset semantics. For a total order (sorting, canonical
    witnesses) use the mask as the key.
    """

    algebra: FiniteBooleanAlgebra
    mask: int

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise MismatchError(
                f"elements of different algebras: {self.algebra!r} vs {other.algebra!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.mask))

    def __or__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.mask | other.mask)

    def __and__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.mask & other.mask)

    def __xor__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.mask ^ other.mask)

    def __invert__(self) -> "Element":
        return Element(self.algebra, self.mask ^ self.algebra.full_mask)

    def __le__(self, other: "Element") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "Element") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "Element") -> bool:
        self._check(other)
        return other <= self

    def __gt__(self, other: "Element") -> bool:
        return other < self

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra.full_mask

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.algebra.atom_count) if self.mask >> i & 1)

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in self.atom_indices())
        return "{" + inner + "}"


@dataclass(frozen=True)
class RelativeAlgebra:
    """The relative algebra B|u = {x : x <= u} with its order embedding.

    `algebra` is a fresh power-set algebra on the atoms below u; `embed`
    maps its elements injectively onto {x <= u} in the parent, `restrict`
    inverts that. Complement inside `algebra` is the relative complement
    x* ∧ u of the parent.
    """

    parent: FiniteBooleanAlgebra
    top: Element
    algebra: FiniteBooleanAlgebra
    _atom_positions: tuple[int, ...]

    def embed(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise MismatchError("element does not belong to the relative algebra")
        mask = 0
        for rel_bit, parent_bit in enumerate(self._atom_positions):
            if x.mask >> rel_bit & 1:
                mask |= 1 << parent_bit
        return Element(self.parent, mask)

    def restrict(self, y: Element) -> Element:
        if y.algebra is not self.parent:
            raise MismatchError("element does not belong to the parent algebra")
        if y.mask & ~self.top.mask:
            raise ValidationError(f"{y!r} is not below the relative top {self.top!r}")
        mask = 0
        for rel_bit, parent_bit in enumerate(self._atom_positions):
            if y.mask >> parent_bit & 1:
                mask |= 1 << rel_bit
        return Element(self.algebra, mask)


def relative_algebra(parent: FiniteBooleanAlgebra, u: Element) -> RelativeAlgebra:
    """Build the relative algebra on {x : x <= u}.

    u = 0 gives the degenerate algebra; u = 1 an isomorphic copy of parent.
    """
    if u.algebra is not parent:
        raise MismatchError("u must belong to the parent algebra")
    positions = u.atom_indices()
    sub = FiniteBooleanAlgebra(len(positions))
    return RelativeAlgebra(parent, u, sub, positions)


def is_dense_subset(algebra: FiniteBooleanAlgebra, members: Iterable[Element]) -> bool:
    """Is M dense: every nonzero b has a nonzero x in M with x <= b?

    That holds iff M holds every atom: the only nonzero element below an
    atom is the atom itself, and every nonzero b lies above its atoms.
    """
    masks = set()
    for x in members:
        if x.algebra is not algebra:
            raise MismatchError("dense-subset member from a different algebra")
        masks.add(x.mask)
    return all(1 << p in masks for p in range(algebra.atom_count))


@dataclass(frozen=True)
class Subalgebra:
    """A Boolean subalgebra given by its member set (checked at build)."""

    parent: FiniteBooleanAlgebra
    members: frozenset[Element]

    def __post_init__(self):
        full = self.parent.full_mask
        masks = set()
        for x in self.members:
            if x.algebra is not self.parent:
                raise MismatchError("subalgebra member from a different algebra")
            masks.add(x.mask)
        if 0 not in masks or full not in masks:
            raise ValidationError("a subalgebra must contain 0 and 1")
        for m in masks:
            if m ^ full not in masks:
                raise ValidationError("subalgebra not closed under complement")
        for m, n in itertools.combinations(masks, 2):
            if m & n not in masks:
                raise ValidationError("subalgebra not closed under meet")

    def __contains__(self, x: Element) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def generated_subalgebra(
    algebra: FiniteBooleanAlgebra, generators: Iterable[Element]
) -> Subalgebra:
    """The least subalgebra holding the generators.

    Its atoms are the nonzero meets that take each generator or its
    complement, so two atoms share a block iff every generator holds both
    or neither, and the members are the unions of those blocks.
    """
    masks = []
    for g in generators:
        if g.algebra is not algebra:
            raise MismatchError("generator from a different algebra")
        masks.append(g.mask)
    blocks: dict[tuple[int, ...], int] = {}
    for p in range(algebra.atom_count):
        key = tuple(m >> p & 1 for m in masks)
        blocks[key] = blocks.get(key, 0) | 1 << p
    return Subalgebra(algebra, frozenset(Element(algebra, m) for m in _unions(blocks.values())))


def all_subalgebras(algebra: FiniteBooleanAlgebra) -> Iterator[Subalgebra]:
    """Every Boolean subalgebra, one per partition of the atom set.

    Subalgebras of a finite power set are exactly the unions-of-blocks
    algebras of atom partitions, so this enumeration is complete.
    """
    k = algebra.atom_count
    for blocks in _partitions(k, k):
        members = _unions(b for b in blocks if b)
        yield Subalgebra(algebra, frozenset(Element(algebra, m) for m in members))


@dataclass(frozen=True)
class BooleanHomomorphism:
    """A total map between two algebras, stored as a mask-indexed tuple.

    mapping[source_mask] = target_mask. Nothing about the map is assumed;
    run check_homomorphism to find out whether it preserves the structure.
    """

    source: FiniteBooleanAlgebra
    target: FiniteBooleanAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.size:
            raise ValidationError("mapping must be total on the source algebra")
        for m in self.mapping:
            if not 0 <= m <= self.target.full_mask:
                raise ValidationError("mapping value out of range for the target")

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.source:
            raise MismatchError("argument is not a source-algebra element")
        return Element(self.target, self.mapping[x.mask])

    @classmethod
    def from_atom_map(
        cls,
        source: FiniteBooleanAlgebra,
        target: FiniteBooleanAlgebra,
        atom_map: tuple[int, ...],
    ) -> "BooleanHomomorphism":
        """The homomorphism induced by assigning a source atom to each target atom.

        h(x) = {target atom q : atom_map[q] below x}. Every homomorphism
        between finite power-set algebras arises this way, so enumerating
        atom maps enumerates all of them.
        """
        if len(atom_map) != target.atom_count:
            raise ValidationError("atom_map must assign a source atom to each target atom")
        for p in atom_map:
            if not 0 <= p < source.atom_count:
                raise ValidationError(f"source atom index {p} out of range")
        mapping = []
        for mask in range(source.size):
            img = 0
            for q, p in enumerate(atom_map):
                if mask >> p & 1:
                    img |= 1 << q
            mapping.append(img)
        return cls(source, target, tuple(mapping))

    @classmethod
    def identity(cls, algebra: FiniteBooleanAlgebra) -> "BooleanHomomorphism":
        return cls(algebra, algebra, tuple(range(algebra.size)))

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size


@dataclass(frozen=True)
class LawReport:
    ok: bool
    law: str | None = None
    witness: tuple = ()


def check_homomorphism(h: BooleanHomomorphism) -> LawReport:
    """Check 0, 1, meet and complement preservation (join follows).

    Returns the first violated law with a witness, scanning masks in
    increasing order so the report is deterministic.
    """
    f = h.mapping
    src, tgt = h.source, h.target
    if f[0] != 0:
        return LawReport(False, "zero", (src.zero,))
    if f[src.full_mask] != tgt.full_mask:
        return LawReport(False, "one", (src.one,))
    for a in range(src.size):
        if f[a ^ src.full_mask] != f[a] ^ tgt.full_mask:
            return LawReport(False, "complement", (Element(src, a),))
    bad = _first_meet_failure(f)
    if bad is not None:
        return LawReport(False, "meet", tuple(Element(src, m) for m in bad))
    return LawReport(True)


def _first_meet_failure(f: tuple[int, ...]) -> tuple[int, int] | None:
    """The first mask pair a <= b, in increasing order, with
    f[a & b] != f[a] & f[b], or None when the table preserves meets."""
    for a in range(len(f)):
        fa = f[a]
        for b in range(a, len(f)):
            if f[a & b] != fa & f[b]:
                return a, b
    return None


def all_homomorphisms(
    source: FiniteBooleanAlgebra, target: FiniteBooleanAlgebra
) -> Iterator[BooleanHomomorphism]:
    """Every Boolean homomorphism source -> target, via atom maps."""
    if source.atom_count == 0 and target.atom_count > 0:
        return  # 0 = 1 cannot be preserved into a nondegenerate algebra
    for atom_map in itertools.product(
        range(source.atom_count), repeat=target.atom_count
    ):
        yield BooleanHomomorphism.from_atom_map(source, target, atom_map)


# -- mask helpers shared by every layer --


def _or_all(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _and_all(masks) -> int:
    out = -1
    for m in masks:
        out &= m
    return out


def _unions(masks) -> list[int]:
    """Every union of the given masks, the empty one included, each once
    and in order of first appearance. For disjoint nonzero masks the
    unions are distinct, so out[m] is the union of the masks picked by
    the bits of m."""
    out = [0]
    seen = {0}
    for m in masks:
        for u in out[:]:
            u |= m
            if u not in seen:
                seen.add(u)
                out.append(u)
    return out


def _partitions(atom_count: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every partition of the atoms into at most k blocks, as its sorted
    block masks padded with leading 0s to length k, in ascending order.

    The order is derived, not sorted. A tuple of j blocks has k - j
    leading 0s, so every tuple of j blocks precedes every tuple of j + 1
    blocks, and within j the tuples compare block by block. Disjoint
    nonzero masks compare as their top bits do, so the blocks of one
    partition ascend by top bit. The least block is walked first, through
    the submasks of the rest in ascending order; the next block must then
    start above its top bit, and the tail is walked the same way. Walking
    a block upward never lowers its top bit, and the j - 1 blocks after
    it each need an atom of the rest above that top bit, so as soon as
    fewer than j - 1 such atoms are left no later block can lead a
    partition either, and the walk stops there. Every block it does try
    leads at least one partition, so the walk never backs out empty.

    Nothing is stored: the first tuple costs O(k) steps on any atom
    count. There are S(atom_count, j) tuples of j blocks (Stirling
    numbers of the second kind): 3,845 in all on 8 atoms at k = 5.
    """
    full = (1 << atom_count) - 1
    if not full:
        yield (0,) * k
        return
    for j in range(1, min(k, atom_count) + 1):
        yield from _blocks((0,) * (k - j), full, j, full)


def _blocks(head: tuple[int, ...], rest: int, j: int, above: int) -> Iterator[tuple[int, ...]]:
    """head extended by every ascending tuple of j blocks that partition
    rest and whose least block is at least the lowest bit of above."""
    if j == 1:
        yield head + (rest,)
        return
    block = above & -above
    while block:
        top = block.bit_length()
        if (rest >> top).bit_count() < j - 1:
            return
        left = rest ^ block
        if j == 2:  # the last level, inlined: every tuple passes through it
            yield head + (block, left)
        else:
            yield from _blocks(head + (block,), left, j - 1, left >> top << top)
        block = (block - rest) & rest
