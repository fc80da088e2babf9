"""Algebraic dimension of a contact relation over a distinguished set D.

The predicate "dimension at most n" quantifies over (n+2)-tuples drawn
from D: whenever b_i is well inside a_i for each slot and the b's join to
1, there must be witnesses c_i << d_i << a_i with the c's joining to 1
and the d's meeting to 0. The value is the least such n, with -1 reserved
for the one-element algebra.

Relations are stored as atom rows and the element relation is their
additive extension, so reach(x), the union of the rows of the atoms of
x, is additive, and y << x iff reach(y) <= x iff y <= I(x), where
I(x) = {p : row(p) <= x} is the largest element well inside x.

When D is the whole algebra every quantifier is taken over atoms, and
the query holds no element of D. A witness for an a-tuple is an
assignment of atoms to slots (_atom_witness). A level holds iff every
partition c of the atoms into at most n+2 blocks has a witness for the
tuple (reach(c_i)), and otherwise the least failing partition is the
first counterexample (proof in _decide). Most levels, and every level
of a graph, are decided in closed form on any relation, from the
components of the graph on atoms whose rows meet (_closed_form). dim_a
reads only verdicts, so such a level walks no partition; dim_leq
sweeps a false one to report its counterexample. A level the closed
form leaves open is swept: the partitions come in ascending order
(_partitions), each block's reach is read off the atom rows once per
query, a false level stops at its first failing partition, and a level
above a true one sweeps only the partitions into n+2 blocks
(_least_failing_partition).

A pool given with dim --subset takes the ordered sweep over multisets of
(b, a) pairs whose a is minimal in D above reach(b)
(_first_counterexample), with the element-level witness search
(_search_witness) as its test. It picks the d-tuple first, pruned on the
running meet and on the best possible c-join, then the c-tuple under
join pruning. Witness verdicts are memoized per a-multiset, dim_leq
verdicts per n, and the witness candidate tables once, on the query.

tests/naive.py re-implements the definition and the closed form, with
no pruning, and the suite compares verdicts and first counterexamples,
and checks with
_search_witness that each reported whole-algebra counterexample has no
element-level witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .boolean import Element, _blocks, _or_all, _partitions
from .contact import ContactAlgebra
from .errors import InternalInconsistencyError, MismatchError, ValidationError
from .lca import LocalContactAlgebra, _minimal_intervals, nca_as_lca, relative_lca


@dataclass(frozen=True)
class DimensionQuery:
    """A contact algebra, a witness pool D containing 0 and 1, and a cap.

    members None makes D the whole algebra, and the query then holds no
    element and no mask of it. For a given pool, masks holds the sorted
    distinct masks of D; members whose masks are already strictly
    increasing are kept as given, otherwise they are rebuilt in that
    order. A pool that lists every element is decided as the whole
    algebra is.
    """

    ca: ContactAlgebra
    members: tuple[Element, ...] | None
    n_cap: int = 3
    masks: tuple[int, ...] | None = field(init=False, repr=False)
    # DimVerdicts by ("verdict", n). A pool adds its witness verdicts keyed
    # by sorted a-tuple and the candidate tables of _search_witness by
    # "candidates"; the whole algebra adds the closed-form verdicts by
    # ("closed", n), and, shared by every level, the columns, two-step
    # reaches and row-overlap components ("overlap"), the _atom_witness
    # test ("witness") and each block's reach ("reaches")
    _inner_memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n_cap < -1:
            raise ValidationError(f"dimension cap must be at least -1, got {self.n_cap}")
        if self.members is None:
            object.__setattr__(self, "masks", None)
            return
        alg = self.ca.algebra
        if any(x.algebra is not alg for x in self.members):
            raise MismatchError("D contains an element of a different algebra")
        masks = tuple(x.mask for x in self.members)
        if any(m >= m_next for m, m_next in zip(masks, masks[1:])):
            masks = tuple(sorted(set(masks)))
            object.__setattr__(self, "members", tuple(Element(alg, m) for m in masks))
        if not masks or masks[0] != 0 or masks[-1] != alg.full_mask:
            raise ValidationError("D must contain 0 and 1")
        object.__setattr__(self, "masks", masks)


def query(ca: ContactAlgebra, members: Sequence[Element] | None = None, n_cap: int = 3) -> DimensionQuery:
    """Build a DimensionQuery; D defaults to the whole algebra."""
    return DimensionQuery(ca, None if members is None else tuple(members), n_cap)


def lca_query(L: LocalContactAlgebra, n_cap: int = 3) -> DimensionQuery:
    """Dimension query for a bounded structure, with D the whole carrier.

    D = the bounded elements plus 1 would say nothing for u < 1: b's from
    it that join to 1 include some b_i = 1, and c_i = d_i = 1 with 0 in
    every other slot is a witness, so every level n >= 0 holds.
    """
    return query(L.ca, None, n_cap)


@dataclass(frozen=True)
class DimVerdict:
    holds: bool
    n: int
    a_tuple: tuple[Element, ...] = ()
    b_tuple: tuple[Element, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def dim_leq(q: DimensionQuery, n: int) -> DimVerdict:
    """Decide "dimension at most n"; on failure carry the a- and b-tuples
    of the least offending multiset of (b, a) pairs in sorted order.

    The verdict is memoized on the query, so asking again for the same n
    costs a lookup.
    """
    if n < -1:
        raise ValidationError("n must be at least -1")
    key = ("verdict", n)
    memo = q._inner_memo
    try:
        return memo[key]
    except KeyError:
        pass
    verdict = _decide(q, n)
    memo[key] = verdict
    return verdict


def _decide(q: DimensionQuery, n: int) -> DimVerdict:
    """Decide one level. A counterexample is a multiset of k = n+2 pairs
    b_i << a_i from D whose b's join to 1 and whose a's have no witness;
    the one reported is the least as a sorted tuple of pairs. For a pool
    _first_counterexample finds it among the pairs with minimal a.

    For D the whole algebra it is the first failing entry of
    _partitions. Two shrink steps each turn a failing multiset into a
    strictly smaller failing one, by replacing one pair with a strictly
    smaller pair, so neither applies to the least. They use only that
    witness existence is up-closed in each a_i (d << a <= a' gives
    d << a') and that reach is monotone, so they hold on any relation,
    reflexive or not.

      * a shrinks to reach(b): b << reach(b), and if a_i != reach(b_i)
        then reach(b_i) < a_i, so (b_i, reach(b_i)) is smaller and fails.
      * The b's become disjoint: if an atom p lies in b_i and b_j, i != j,
        then (b_i - p, reach(b_i - p)) is smaller, the b's still join to
        1 because b_j keeps p, and the lower a-tuple still fails.

    So the least counterexample pairs the blocks of a partition of the
    atoms into at most k blocks with their reaches, padded with
    (0, reach(0)) = (0, 0); each such tuple is an outer one. Within one
    partition the nonzero blocks are distinct, and a pair's reach is a
    function of its block, so two sorted pair tuples compare as their
    padded block tuples do, whatever the relation. _partitions yields
    those in ascending order, so the first one with no witness is the
    least failing partition (_least_failing_partition).

    Where _closed_form decides the level, a true level walks no
    partition, and a false one sweeps only to report its least failing
    partition, which must then exist.
    """
    alg = q.ca.algebra
    if n == -1:
        return DimVerdict(alg.size == 1, n)
    if q.masks is None or len(q.masks) == alg.size:
        closed = _closed_form(q, n)
        if closed:
            return DimVerdict(True, n)
        bad = _least_failing_partition(q, n)
        if bad is None and closed is False:
            raise InternalInconsistencyError(
                f"dim_leq({n}) fails in closed form but every partition has a witness"
            )
    else:
        reach = q.ca.contact.closure_table()
        search = partial(_search_witness, q, reach, alg.full_mask)

        def witness_exists(a_list) -> bool:
            key = tuple(sorted(a_list))
            result = q._inner_memo.get(key)
            if result is None:
                result = q._inner_memo[key] = search(key)
            return result

        bad = _first_counterexample(q.masks, reach, alg.full_mask, n + 2, witness_exists)
    if bad is None:
        return DimVerdict(True, n)
    a_tuple = tuple(Element(alg, a) for _, a in bad)
    b_tuple = tuple(Element(alg, b) for b, _ in bad)
    return DimVerdict(False, n, a_tuple, b_tuple)


def _overlap(q: DimensionQuery) -> tuple[list[int], list[int], tuple[tuple[int, int], ...]]:
    """The columns col(x) = {q : x in row(q)}, each atom's two-step reach
    N_p = reach(row p), and the components T of the row-overlap graph
    (p ~ q iff row(p) and row(q) meet; atoms with empty rows left out),
    each as (T, N_T) with N_T the union of the N_p over T. Built once per
    query, the columns and the N_p in one pass over the row bits;
    _atom_witness reads the N_p from here.

    The atoms of one column share a row atom, so each column lies in one
    component: the components are the columns merged while they meet.
    """
    memo = q._inner_memo
    found = memo.get("overlap")
    if found is None:
        rows = q.ca.contact.rows
        cols = [0] * len(rows)
        row_reach = []
        for p, row in enumerate(rows):
            N_p = 0
            while row:
                low = row & -row
                x = low.bit_length() - 1
                cols[x] |= 1 << p
                N_p |= rows[x]
                row ^= low
            row_reach.append(N_p)
        merged: list[int] = []
        for T in cols:
            if T:
                apart = []
                for other in merged:
                    if other & T:
                        T |= other
                    else:
                        apart.append(other)
                apart.append(T)
                merged = apart
        components = []
        for T in merged:
            N_T = 0
            for p in range(T.bit_length()):
                if T >> p & 1:
                    N_T |= row_reach[p]
            components.append((T, N_T))
        found = memo["overlap"] = (cols, row_reach, tuple(components))
    return found


def _closed_form(q: DimensionQuery, n: int) -> bool | None:
    """The verdict of level n with D the whole algebra, read off the
    row-overlap components (_overlap); None when it is left to the sweep,
    and for n = -1. Memoized per n on the query.

    Call S k-covered when every k atoms of S, repeats allowed, lie in a
    common row, that is, every k columns of S share an atom
    (_covered). Atom p may take slot i iff N_p <= R(c_i), writing R for
    reach (_atom_witness), and a partition c_1..c_k fails iff no map of
    the atoms to admissible slots has R_i, the union of the rows sent to
    slot i, meeting to 0. With k = n+2:

      * Decomposition: rows of atoms in different components are
        disjoint. So the meet of the R_i is the union over T of the
        per-T meets, and a witness exists iff each T has its own
        admissible assignment with an empty meet. Atoms with empty rows
        fit any slot.
      * (i) The level holds if every N_T is k-covered. If no R(c_i) held
        N_T, choose x_i in N_T - R(c_i), so c_i misses col(x_i). The atom
        shared by the col(x_i) then lies in no block, which is
        impossible. So T goes whole into a slot whose R(c_i) holds N_T,
        and its rows leave every other slot, so T's meet is 0.
      * (ii) It fails if some N_p is not k-covered. Take x_1..x_m in
        N_p, m <= k, whose columns share no atom. Put each atom q in the
        block of the least i with q outside col(x_i). Then x_i lies
        outside R(c_i), the slots past m are empty, and p has no
        admissible slot.
      * (iii) At k = 2 it holds exactly when every N_T is 2-covered.
        With two slots a connected T cannot be split, as its split rows
        would meet. The partition (col(y), rest) then fails for x, y in
        N_T whose columns are disjoint: y lies outside R(rest) and x
        outside R(col(y)).
      * Otherwise the sweep decides.

    A k-covered set is (k-1)-covered and every subset of it is k-covered,
    so (i) and (ii) never both apply, only the N_p of a component that
    fails (i) can fail (ii), and a failure at level n - 1 >= 1, which
    came from (ii), carries to level n.

    On a graph, rows are closed neighbourhoods N[v]: the components are
    the graph components and N_T = K. (i) says every k closed
    neighbourhoods of K share a vertex. If that is false and K has
    diameter at most 2, then N_p = N²[p] = K for every p of K; otherwise
    two vertices at distance 3 have disjoint neighbourhoods and both lie
    in N_p for the middle vertex p next to one of them. Either way (ii)
    applies, so every level of a graph is decided.
    """
    if n < 0:
        return None
    memo = q._inner_memo
    key = ("closed", n)
    if key in memo:
        return memo[key]
    if n > 1 and memo.get(("closed", n - 1)) is False:
        memo[key] = False
        return False
    cols, row_reach, components = _overlap(q)
    rows = q.ca.contact.rows
    k = n + 2
    verdict = True
    for T, N_T in components:
        if _covered(rows, cols, N_T, k):
            continue
        if k == 2 or any(
            row_reach[p] == N_T or not _covered(rows, cols, row_reach[p], k)
            for p in range(T.bit_length())
            if T >> p & 1
        ):
            verdict = False
            break
        verdict = None
    memo[key] = verdict
    return verdict


def _covered(rows: Sequence[int], cols: Sequence[int], S: int, k: int) -> bool:
    """Do every k >= 1 columns of atoms of S share an atom?

    A row that holds S answers yes at once. Otherwise the search looks for
    at most k columns with an empty intersection, running over that
    intersection I, which starts as the union of the columns of S, the
    atoms whose rows meet S. The least atom q of I must leave it, so the
    next column is col(x) for some x of S outside row(q); a depth of k
    bounds it.
    """

    def cut(I: int, depth: int) -> bool:
        q = (I & -I).bit_length() - 1
        outside = S & ~rows[q]
        while outside:
            low = outside & -outside
            J = I & cols[low.bit_length() - 1]
            if not J or depth > 1 and cut(J, depth - 1):
                return True
            outside ^= low
        return False

    union = 0
    for q, r in enumerate(rows):
        if r & S:
            if S & ~r == 0:
                return True
            union |= 1 << q
    # every atom of an N_p or N_T lies in a row, so only an empty S meets none
    return not union or not cut(union, k)


def _least_failing_partition(q: DimensionQuery, n: int) -> tuple[tuple[int, int], ...] | None:
    """The least partition of the atoms into at most k = n+2 blocks,
    padded to k, whose reaches have no witness, as (block, reach) pairs;
    None when every partition has one. Each block's reach is read off
    the atom rows once per query.

    A witness f for X at level n - 1 is one for (0,)+X at level n: the
    new slot gets no atom, so its R is 0. The padded partitions of level
    n with a 0 block are exactly those (0,)+X, so after a true level
    n - 1 only the partitions into n+2 blocks are swept.
    """
    ca = q.ca
    full = ca.algebra.full_mask
    k = n + 2
    memo = q._inner_memo
    if n > 0 and memo.get(("verdict", n - 1)):
        tuples = _blocks((), full, k, full)
    else:
        tuples = _partitions(ca.algebra.atom_count, k)
    witness = memo.get("witness") or memo.setdefault("witness", _atom_witness(q))
    reaches = memo.setdefault("reaches", {})
    reach_mask = ca.contact.reach_mask
    for blocks in tuples:
        a_list = []
        for c in blocks:
            r = reaches.get(c)
            if r is None:
                r = reaches[c] = reach_mask(c)
            a_list.append(r)
        if not witness(a_list):
            return tuple(zip(blocks, a_list))
    return None


def _atom_witness(q: DimensionQuery):
    """The witness test for D the whole algebra, on atoms.

    Witnesses c_i << d_i << a_i with join(c) = 1 and meet(d) = 0 exist iff
    some map f from atoms to slots has

      * row(p) <= I(a_f(p)) for every atom p, and
      * an empty meet of R_i = join{row(p) : f(p) = i}, with R_i = 0 for
        a slot that no atom, or only atoms with empty rows, maps to.

    Given witnesses, send each atom p to a slot whose c contains it; then
    row(p) <= reach(c_i) <= d_i <= I(a_i), so R_i <= d_i and the R's meet
    to 0. Given f, take c_i = f^-1(i) and d_i = R_i = reach(c_i): then
    c_i << d_i, d_i << a_i because every row in R_i lies in I(a_i), the
    c's join to 1 and the d's meet to 0.

    Atom p may take slot i iff N_p = reach(row p) <= a_i, with N_p read
    off _overlap, so each a keeps the mask allowed(a) of the atoms it
    admits, built once. The search gives up at once if the allowed masks
    do not join to 1 (an atom has no slot), and succeeds at once if some
    slot holds no atom that is allowed there alone: that slot can be
    left empty. Otherwise every slot holds an atom from the start, the
    meet only grows as rows are added, and a depth-first search over the
    remaining atoms stops a branch as soon as the meet is nonzero. An
    atom whose row already lies in an allowed R_i goes there without
    branching: that leaves every R as small as possible.
    """
    rows = q.ca.contact.rows
    full = q.ca.algebra.full_mask
    # row(p) <= I(a) iff reach(row(p)) <= a
    row_reach = _overlap(q)[1]
    atoms = range(len(rows))
    admits: dict[int, int] = {}

    def exists(a_multiset: Sequence[int]) -> bool:
        allowed = []
        once = twice = 0
        for a in a_multiset:
            s = admits.get(a)
            if s is None:
                s = admits[a] = sum(1 << p for p in atoms if row_reach[p] & ~a == 0)
            twice |= once & s
            once |= s
            allowed.append(s)
        if once != full:
            return False
        if any(s & ~twice == 0 for s in allowed):
            return True
        R = [0] * len(allowed)
        free: list[tuple[int, list[int]]] = []
        for p in atoms:
            slots = [i for i, s in enumerate(allowed) if s >> p & 1]
            if len(slots) == 1:
                R[slots[0]] |= rows[p]
            elif rows[p]:
                free.append((rows[p], slots))

        def meet() -> int:
            m = full
            for r in R:
                m &= r
            return m

        def place(j: int) -> bool:
            if j == len(free):
                return True
            row, slots = free[j]
            if any(row & ~R[i] == 0 for i in slots):
                return place(j + 1)
            for i in slots:
                old = R[i]
                R[i] = old | row
                ok = meet() == 0 and place(j + 1)
                R[i] = old
                if ok:
                    return True
            return False

        return meet() == 0 and place(0)

    return exists


def _first_counterexample(
    d_masks: tuple[int, ...], reach, full: int, k: int, witness_exists
) -> tuple[tuple[int, int], ...] | None:
    """The least multiset of k (b, a) pairs, b << a drawn from a pool D,
    whose b's join to 1 and whose a's have no witness, or None (the
    witness conditions are symmetric in the slots, so multisets suffice).

    Only pairs whose a is minimal in D above reach(b) are swept. If a_i is
    not, some a' in D with reach(b_i) <= a' < a_i gives the strictly
    smaller pair (b_i, a'). The b's are unchanged and witness existence is
    up-closed in a_i (d << a' <= a_i gives d << a_i), so the lowered
    multiset still fails, and its sorted tuple is strictly smaller. So the
    least failing multiset uses minimal pairs only, and the non-decreasing
    index sequences into the sorted minimal pairs reach it first.
    """
    pairs = []
    for b in d_masks:  # d_masks is sorted, so pairs come out sorted by (b, a)
        above = [a for a in d_masks if reach[b] & (full ^ a) == 0]
        # a member strictly inside a is smaller as a number
        pairs += [(b, a) for j, a in enumerate(above) if all(x & ~a for x in above[:j])]
    last = k - 1
    chosen: list[tuple[int, int]] = []

    def outer(slot: int, start: int, b_join: int) -> tuple[tuple[int, int], ...] | None:
        for i in range(start, len(pairs)):
            chosen.append(pairs[i])
            joined = b_join | pairs[i][0]
            if slot < last:
                bad = outer(slot + 1, i, joined)
            elif joined == full and not witness_exists(a for _, a in chosen):
                bad = tuple(chosen)
            else:
                bad = None
            chosen.pop()
            if bad is not None:
                return bad
        return None

    return outer(0, 0, 0)


def _search_witness(q: DimensionQuery, reach, full: int, a_multiset: tuple[int, ...]) -> bool:
    """Do c_i << d_i << a_i with join(c)=1 and meet(d)=0 exist in D?

    The candidate tables depend only on (q, reach, full), so they live on
    the query under "candidates": for each d, the c's of D way below it
    with their join, and for each a, the d's of D way below a that have
    some c. Every search and level of one query shares them.
    """
    d_masks = q.masks
    k = len(a_multiset)
    c_table, d_table = q._inner_memo.setdefault("candidates", ({}, {}))

    def c_cands(d: int) -> tuple[int, ...]:
        if d not in c_table:
            cs = tuple(c for c in d_masks if reach[c] & (full ^ d) == 0)
            c_table[d] = (cs, _or_all(cs))
        return c_table[d][0]

    slot_cands: list[tuple[int, ...]] = []
    for a in a_multiset:
        ds = d_table.get(a)
        if ds is None:
            ds = d_table[a] = tuple(d for d in d_masks if reach[d] & (full ^ a) == 0 and c_cands(d))
        if not ds:
            return False
        slot_cands.append(ds)

    # bits forced into the d-meet by every remaining candidate, and the
    # best possible further c-coverage, per suffix of slots
    suffix_forced = [full] * (k + 1)
    suffix_cpot = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        forced = full
        cpot = 0
        for d in slot_cands[i]:
            forced &= d
            cpot |= c_table[d][1]
        suffix_forced[i] = suffix_forced[i + 1] & forced
        suffix_cpot[i] = suffix_cpot[i + 1] | cpot

    d_chosen: list[int] = []

    def pick_c(slot: int, c_join: int, suffix_cor: list[int]) -> bool:
        if slot == k:
            return c_join == full
        if c_join | suffix_cor[slot] != full:
            return False
        for c in c_table[d_chosen[slot]][0]:
            if pick_c(slot + 1, c_join | c, suffix_cor):
                return True
        return False

    def pick_d(slot: int, d_meet: int, c_pot: int) -> bool:
        if slot == k:
            if d_meet != 0:
                return False
            suffix_cor = [0] * (k + 1)
            for j in range(k - 1, -1, -1):
                suffix_cor[j] = suffix_cor[j + 1] | c_table[d_chosen[j]][1]
            return pick_c(0, 0, suffix_cor)
        if d_meet & suffix_forced[slot]:
            return False
        if c_pot | suffix_cpot[slot] != full:
            return False
        for d in slot_cands[slot]:
            d_chosen.append(d)
            if pick_d(slot + 1, d_meet & d, c_pot | c_table[d][1]):
                d_chosen.pop()
                return True
            d_chosen.pop()
        return False

    return pick_d(0, full, 0)


@dataclass(frozen=True)
class DimensionResult:
    """Value of the dimension plus the per-n verdicts that produced it.

    value is None when every n up to the cap failed; anomalies lists
    (n_true, n_false) pairs with n_true < n_false, which the definition
    presumes cannot happen but nothing in it rules out.
    """

    value: int | None
    n_cap: int
    verdicts: tuple[tuple[int, bool], ...]
    anomalies: tuple[tuple[int, int], ...] = ()

    @property
    def display(self) -> str:
        return f">{self.n_cap}" if self.value is None else str(self.value)


def dim_a(q: DimensionQuery, scan_to_cap: bool = False) -> DimensionResult:
    """Least n with dim_leq true, scanning n = -1, 0, ... up to the cap.

    By default the scan stops at the first success. With scan_to_cap the
    whole range is evaluated and any non-monotone verdict pair is
    reported as an anomaly. Only verdicts are read, so a level that
    _closed_form decides walks no partition; a level it leaves open
    sweeps the partitions into n+2 blocks, whose number grows
    exponentially with n.
    """
    verdicts: list[tuple[int, bool]] = []
    value: int | None = None
    whole = q.masks is None or len(q.masks) == q.ca.algebra.size
    for n in range(-1, q.n_cap + 1):
        v = not (whole and _closed_form(q, n) is False) and bool(dim_leq(q, n))
        verdicts.append((n, v))
        if v and value is None:
            value = n
            if not scan_to_cap:
                break
    # Each true level pairs with the false levels after it: the cost is
    # the levels plus the anomalies, in the order (true level, false level).
    false_levels = [n for n, v in verdicts if not v]
    anomalies = []
    later = 0
    for n, v in verdicts:
        if v:
            anomalies.extend((n, m) for m in false_levels[later:])
        else:
            later += 1
    return DimensionResult(value, q.n_cap, tuple(verdicts), tuple(anomalies))


def is_way_below_dense(ca: ContactAlgebra, members: Sequence[Element]) -> bool:
    """Can every a << b be split as a << c << b with c drawn from D?

    Such a split is down-closed in a and up-closed in b, so by the lemma
    in lca._minimal_intervals (u = 1) only the minimal intervals
    [a, reach(a)] need one.
    """
    d_masks = []
    for x in members:
        if x.algebra is not ca.algebra:
            raise MismatchError("D contains an element of a different algebra")
        d_masks.append(x.mask)
    reach = ca.contact.closure_table()
    return all(
        any(reach[a] & ~d == 0 and reach[d] & ~c == 0 for d in d_masks)
        for a, c in _minimal_intervals(nca_as_lca(ca))
    )


def check_dimension_invariance(ca: ContactAlgebra, members: Sequence[Element], n_cap: int = 3) -> bool:
    """Dimension computed over a dense D must equal dimension over all of B.

    Rejects D that is not way-below dense or misses 0 or 1; both sides
    share the cap, and two ">cap" results count as equal.
    """
    if not is_way_below_dense(ca, members):
        raise ValidationError("D is not way-below dense")
    restricted = dim_a(DimensionQuery(ca, tuple(members), n_cap))
    unrestricted = dim_a(query(ca, None, n_cap))
    return restricted.value == unrestricted.value


@dataclass(frozen=True)
class MonotonicityReport:
    holds: bool
    ambient: DimensionResult
    relative: DimensionResult
    vacuous: bool = False

    def __bool__(self) -> bool:
        return self.holds


def check_relative_monotonicity(L: LocalContactAlgebra, m: Element, n_cap: int = 2) -> MonotonicityReport:
    """Dimension of the part below m must not exceed the ambient dimension.

    When the ambient side already exceeds the cap nothing can be
    concluded; the check passes vacuously and warns.
    """
    if not L.ca.is_contact:
        raise ValidationError("ambient relation must pass the contact bundle")
    if m.is_zero:
        raise ValidationError("cannot relativize at 0")
    ambient = dim_a(lca_query(L, n_cap))
    rel = relative_lca(L, m)
    relative = dim_a(lca_query(rel.lca, n_cap))
    if ambient.value is None:
        warnings.warn(
            "ambient dimension exceeds the cap; monotonicity holds vacuously",
            stacklevel=2,
        )
        return MonotonicityReport(True, ambient, relative, vacuous=True)
    holds = relative.value is not None and relative.value <= ambient.value
    return MonotonicityReport(holds, ambient, relative)
