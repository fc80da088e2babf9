"""Reference implementations written straight off the definitions.

Everything here trades speed for obviousness: ordered-tuple enumeration,
no memoization, no pruning beyond the conditions themselves. The real
engines are checked against these on small fixtures. The exceptions are
naive_first_counterexample, which memoizes witnesses per a-multiset and
states the two facts it uses to stay affordable on four atoms, and
naive_pool_first_counterexample, which memoizes witnesses the same way.
"""

from functools import cache
from itertools import combinations, combinations_with_replacement, product

from contactalg import AxiomReport, ContactAlgebra, Element, ValidationError


def naive_way_below(ca: ContactAlgebra, x: Element, y: Element) -> bool:
    return not ca.holds(x, ~y)


def _pairs(ca: ContactAlgebra, members):
    return [(b, a) for b in members for a in members if naive_way_below(ca, b, a)]


def naive_dim_leq(ca: ContactAlgebra, members, n: int) -> bool:
    """Dimension bound exactly as defined: for every length-(n+2) list of
    pairs b_i way below a_i whose b's join to 1, some c_i, d_i drawn from
    the same member pool satisfy c_i << d_i << a_i with the c's joining
    to 1 and the d's meeting to 0."""
    members = list(members)
    if n == -1:
        return ca.algebra.size == 1
    k = n + 2
    one = ca.algebra.one
    zero = ca.algebra.zero
    pairs = _pairs(ca, members)
    below = {
        a: [
            (c, d)
            for d in members
            if naive_way_below(ca, d, a)
            for c in members
            if naive_way_below(ca, c, d)
        ]
        for a in members
    }

    for chosen in product(pairs, repeat=k):
        join = zero
        for b, _ in chosen:
            join = join | b
        if join != one:
            continue
        if not _witness_exists(ca, [a for _, a in chosen], below, one, zero):
            return False
    return True


def _witness_exists(ca, a_list, below, one, zero) -> bool:
    for cds in product(*(below[a] for a in a_list)):
        c_join = zero
        d_meet = one
        for c, d in cds:
            c_join = c_join | c
            d_meet = d_meet & d
        if c_join == one and d_meet == zero:
            return True
    return False


def naive_dim(ca: ContactAlgebra, members, n_cap: int):
    for n in range(-1, n_cap + 1):
        if naive_dim_leq(ca, members, n):
            return n
    return None


def naive_graph_dim_leq(ca: ContactAlgebra, n: int) -> bool:
    """Dimension at most n (n >= 0) of a reflexive symmetric relation
    with D the whole algebra, in closed form: in every connected
    component, every n+2 closed neighbourhoods (the rows) of its vertices
    share a vertex. Components are grown edge by edge and every (n+2)-
    multiset of vertices is tried, with no pruning."""
    rows = ca.contact.rows
    atoms = range(len(rows))
    for p in atoms:
        component = {p}
        grown = True
        while grown:
            grown = False
            for u, v in product(list(component), atoms):
                if rows[u] >> v & 1 and v not in component:
                    component.add(v)
                    grown = True
        for vs in combinations_with_replacement(sorted(component), n + 2):
            if not any(all(rows[v] >> x & 1 for v in vs) for x in component):
                return False
    return True


def naive_partitions(atom_count: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of the atoms into at most k blocks, as its sorted
    block masks padded with leading 0s to length k, in ascending order:
    each atom joins an open block or opens a new one, and the whole list
    is sorted at the end."""
    table: list[tuple[int, ...]] = []
    blocks: list[int] = []

    def place(p: int) -> None:
        if p == atom_count:
            table.append((0,) * (k - len(blocks)) + tuple(sorted(blocks)))
            return
        bit = 1 << p
        for j in range(len(blocks)):
            blocks[j] |= bit
            place(p + 1)
            blocks[j] ^= bit
        if len(blocks) < k:
            blocks.append(bit)
            place(p + 1)
            blocks.pop()

    place(0)
    return tuple(sorted(table))


def naive_first_counterexample(ca: ContactAlgebra, n: int):
    """The first violation of "dimension at most n" with D the whole
    algebra, as (a_masks, b_masks) in the engine's order, or None when the
    bound holds.

    The engine enumerates multisets of (b, a) pairs with b << a as
    non-decreasing index tuples into the pairs sorted by mask, which is
    the order of combinations_with_replacement. Two facts keep this
    affordable: c << d and c' << d give c | c' << d, so the join of all c
    way below d is the best c for d, and the join of all b way below a is
    the best b for a. So the ordered sweep runs only when some a-multiset
    whose best b's join to 1 has no witness.
    """
    alg = ca.algebra
    if n == -1:
        return None if alg.size == 1 else ((), ())
    k = n + 2
    full = alg.full_mask
    elements = list(alg.elements())
    masks = [x.mask for x in elements]
    wb = {
        (x.mask, y.mask): naive_way_below(ca, x, y)
        for x in elements
        for y in elements
    }
    best_below = {y: 0 for y in masks}
    for x, y in wb:
        if wb[x, y]:
            best_below[y] |= x
    d_cands = {a: [d for d in masks if wb[d, a]] for a in masks}
    memo = {}

    def witness(a_list) -> bool:
        key = tuple(sorted(a_list))
        if key not in memo:
            memo[key] = False
            for ds in product(*(d_cands[a] for a in key)):
                meet, join = full, 0
                for d in ds:
                    meet &= d
                    join |= best_below[d]
                if meet == 0 and join == full:
                    memo[key] = True
                    break
        return memo[key]

    def covered(a_list) -> bool:
        join = 0
        for a in a_list:
            join |= best_below[a]
        return join == full

    if all(witness(a) for a in combinations_with_replacement(masks, k) if covered(a)):
        return None
    pairs = sorted((b, a) for b in masks for a in masks if wb[b, a])
    for combo in combinations_with_replacement(pairs, k):
        join = 0
        for b, _ in combo:
            join |= b
        if join == full and not witness([a for _, a in combo]):
            return tuple(a for _, a in combo), tuple(b for b, _ in combo)
    raise AssertionError("an a-multiset without witness had no covering b's")


def naive_pool_first_counterexample(ca: ContactAlgebra, pool_masks, n: int):
    """The first violation of "dimension at most n" over a pool D, as
    (a_masks, b_masks), or None when the bound holds.

    Sweeps combinations_with_replacement over the (b, a) pairs of D sorted
    by mask, the order in which the engine reports. A pool need not be
    closed under joins, so there is no best b or best c: every b, c and d
    is drawn from D. Witness verdicts are memoized per a-multiset only.
    """
    alg = ca.algebra
    if n == -1:
        return None if alg.size == 1 else ((), ())
    k = n + 2
    full = alg.full_mask
    masks = sorted(set(pool_masks))

    def wb(x: int, y: int) -> bool:
        return naive_way_below(ca, alg.element(x), alg.element(y))

    below = {y: [x for x in masks if wb(x, y)] for y in masks}
    memo = {}

    def join(xs) -> int:
        out = 0
        for x in xs:
            out |= x
        return out

    def witness(a_list) -> bool:
        key = tuple(sorted(a_list))
        if key not in memo:
            memo[key] = False
            for ds in product(*(below[a] for a in key)):
                meet = full
                for d in ds:
                    meet &= d
                if meet == 0 and any(
                    join(cs) == full for cs in product(*(below[d] for d in ds))
                ):
                    memo[key] = True
                    break
        return memo[key]

    pairs = [(b, a) for b in masks for a in masks if wb(b, a)]
    for combo in combinations_with_replacement(pairs, k):
        if join(b for b, _ in combo) == full and not witness([a for _, a in combo]):
            return tuple(a for _, a in combo), tuple(b for b, _ in combo)
    return None


def naive_is_way_below_dense(ca: ContactAlgebra, members) -> bool:
    """Every pair of elements a << b splits as a << d << b with d drawn
    from the pool."""
    members = list(members)
    elements = list(ca.algebra.elements())
    return all(
        any(naive_way_below(ca, a, d) and naive_way_below(ca, d, b) for d in members)
        for a in elements
        for b in elements
        if naive_way_below(ca, a, b)
    )


def naive_first_meet_failure(f):
    """The first mask pair a <= b, in the order of
    combinations_with_replacement, with f(a & b) != f(a) & f(b)."""
    for a, b in combinations_with_replacement(range(len(f)), 2):
        if f[a & b] != f[a] & f[b]:
            return a, b
    return None


def naive_lower_sharp(t):
    """The lower-sharp mapping of an LcaMorphismTable: a maps to the join
    of the images of the bounded elements well inside a, every bounded b
    tested. Empty join is 0."""
    src = t.source
    alg = src.algebra
    full = alg.full_mask
    reach = src.ca.contact.closure_table()
    bounded = _submasks(src.bounded_top.mask)
    f = t.mapping
    out = []
    for a in range(alg.size):
        not_a = full ^ a
        img = 0
        for b in bounded:
            if reach[b] & not_a == 0:
                img |= f[b]
        out.append(img)
    return tuple(out)


def naive_check_dhlc_morphism(t) -> AxiomReport:
    """Check DLC1 through DLC5 in order, each by the sweep of its
    definition; first failure wins.

    DLC1 zero preservation, DLC2 binary meets, DLC3 transport of the
    well-inside relation through complements, DLC4 every bounded target
    element sits under the image of a bounded source element, DLC5 the
    map equals its own lower-sharp.
    """
    src, tgt = t.source, t.target
    f = t.mapping
    s_alg, t_alg = src.algebra, tgt.algebra
    s_full, t_full = s_alg.full_mask, t_alg.full_mask
    s_reach = src.ca.contact.closure_table()
    t_reach = tgt.ca.contact.closure_table()

    if f[0] != 0:
        return AxiomReport(False, "DLC1", (s_alg.zero,))
    bad = naive_first_meet_failure(f)
    if bad is not None:
        return AxiomReport(False, "DLC2", tuple(Element(s_alg, m) for m in bad))
    s_bounded = _submasks(src.bounded_top.mask)
    for a in s_bounded:
        fa_star_star = t_full ^ f[a ^ s_full]
        not_reach = t_reach[fa_star_star]
        for b in range(s_alg.size):
            if s_reach[a] & (s_full ^ b) == 0:  # a << b in the source
                if not_reach & (t_full ^ f[b]) != 0:
                    return AxiomReport(False, "DLC3", (Element(s_alg, a), Element(s_alg, b)))
    t_bounded = _submasks(tgt.bounded_top.mask)
    for b in t_bounded:
        if not any(b & ~f[a] == 0 for a in s_bounded):
            return AxiomReport(False, "DLC4", (Element(t_alg, b),))
    sharp = naive_lower_sharp(t)
    for a in range(s_alg.size):
        if f[a] != sharp[a]:
            return AxiomReport(False, "DLC5", (Element(s_alg, a),))
    return AxiomReport(True, "DLC1-DLC5")


def naive_generated_subalgebra(full: int, generators) -> set[int]:
    """The masks of the subalgebra generated inside the power set with
    top full: close 0, full and the generators under complement and
    meet until nothing changes."""
    masks = {0, full} | set(generators)
    changed = True
    while changed:
        changed = False
        for m in list(masks):
            if m ^ full not in masks:
                masks.add(m ^ full)
                changed = True
        current = list(masks)
        for m in current:
            for n in current:
                if m & n not in masks:
                    masks.add(m & n)
                    changed = True
    return masks


def naive_transport_failures(h, source: ContactAlgebra, target: ContactAlgebra):
    """The first mask pair (a, b), in increasing order, at which h fails
    to preserve contact (a C b but not h(a) C' h(b)), and the first at
    which it fails to reflect it; None for a law that holds."""
    f, s_contact, t_contact = h.mapping, source.contact, target.contact
    preserve = reflect = None
    for a in range(source.algebra.size):
        for b in range(source.algebra.size):
            s = s_contact.contact_masks(a, b)
            g = t_contact.contact_masks(f[a], f[b])
            if s and not g and preserve is None:
                preserve = (a, b)
            if g and not s and reflect is None:
                reflect = (a, b)
    return preserve, reflect


def naive_bounded_transport(t) -> tuple[bool, bool]:
    """Does the table t keep boundedness (a <= u_s implies f(a) <= u_t),
    and does it reflect it (f(a) <= u_t implies a <= u_s), over every
    source element?"""
    u_s, u_t = t.source.bounded_top.mask, t.target.bounded_top.mask
    pairs = [(a & ~u_s == 0, fa & ~u_t == 0) for a, fa in enumerate(t.mapping)]
    return all(fb for b, fb in pairs if b), all(b for b, fb in pairs if fb)


def naive_is_dense_subset(algebra, members) -> bool:
    """Every nonzero b has a nonzero member x <= b, over every b."""
    masks = [x.mask for x in members if x.mask]
    return all(any(m & ~b == 0 for m in masks) for b in range(1, algebra.size))


def naive_is_base(L, members) -> bool:
    """Density of a member set in the bounded part, by the interpolation
    reading: every bounded a << c admits a member d with a <= d <= c."""
    bounded = L.bounded_elements()
    for a in bounded:
        for c in bounded:
            if naive_way_below(L.ca, a, c):
                if not any(a <= d <= c for d in members):
                    return False
    return True


def naive_min_base(L):
    """Smallest base by plain subset enumeration, smallest sizes first."""
    bounded = L.bounded_elements()
    for size in range(len(bounded) + 1):
        for subset in combinations(bounded, size):
            if naive_is_base(L, subset):
                return size, subset
    raise AssertionError("the full bounded part is always a base")


def naive_minimal_intervals(L) -> list[tuple[int, int]]:
    """Every bounded pair a << c that holds no other such pair a' << c'
    with a <= a' and c' <= c, as mask pairs listed by a, then c, each in
    descending mask order after 0."""
    alg = L.algebra
    bounded = _submasks(L.bounded_top.mask)
    pairs = [
        (a, c)
        for a in bounded
        for c in bounded
        if naive_way_below(L.ca, Element(alg, a), Element(alg, c))
    ]
    return [
        (a, c)
        for a, c in pairs
        if not any(
            (a2, c2) != (a, c) and a & ~a2 == 0 and c2 & ~c == 0 for a2, c2 in pairs
        )
    ]


def naive_minimum_base(L, pool_masks):
    """The minimum-base search over every bounded pair a << c, as the
    engine ran it before it kept only the minimal intervals: forced
    members plus a minimum completion drawn from pool_masks, as sorted
    masks. The pairs are listed by a, then c, each in descending mask
    order after 0, and the witness is the search's first minimum."""
    bounded = _submasks(L.bounded_top.mask)
    alg = L.algebra
    full = alg.full_mask
    reach = L.ca.contact.closure_table()
    pool_set = set(pool_masks)

    def ll(x: int, y: int) -> bool:
        return reach[x] & (full ^ y) == 0

    forced = [a for a in bounded if ll(a, a)]
    for a in forced:
        if a not in pool_set:
            raise ValidationError("pool misses a forced member; no base inside it")
    forced_set = set(forced)

    uncovered: list[tuple[int, int]] = []
    for a in bounded:
        ra = reach[a]
        for c in bounded:
            if ra & (full ^ c) == 0:
                if not any(a & ~f == 0 and f & ~c == 0 for f in forced_set):
                    uncovered.append((a, c))
    if not uncovered:
        return tuple(sorted(forced))

    pool = sorted(
        d
        for d in pool_set
        if d not in forced_set
        and d & ~L.bounded_top.mask == 0
        and any(a & ~d == 0 and d & ~c == 0 for a, c in uncovered)
    )
    index = {d: j for j, d in enumerate(pool)}
    np_ = len(uncovered)
    cand = [0] * np_  # candidate pool-indices per pair, as bitmask
    cover = [0] * len(pool)  # pairs covered per pool element, as bitmask
    for i, (a, c) in enumerate(uncovered):
        for d in pool:
            if a & ~d == 0 and d & ~c == 0:
                cand[i] |= 1 << index[d]
                cover[index[d]] |= 1 << i
    if any(m == 0 for m in cand):
        raise ValidationError("pool misses every interpolant of some pair")

    conflict = [0] * np_  # pairs sharing at least one candidate
    for i in range(np_):
        for j in range(np_):
            if cand[i] & cand[j]:
                conflict[i] |= 1 << j

    def lower_bound(remaining: int) -> int:
        lb = 0
        r = remaining
        while r:
            i = (r & -r).bit_length() - 1
            lb += 1
            r &= ~conflict[i]
        return lb

    failed_at: dict[int, int] = {}
    chosen: list[int] = []

    def dfs(remaining: int, depth: int) -> bool:
        if remaining == 0:
            return True
        if depth == 0 or lower_bound(remaining) > depth:
            return False
        if failed_at.get(remaining, -1) >= depth:
            return False
        best = -1
        best_count = 1 << 62
        r = remaining
        while r:
            i = (r & -r).bit_length() - 1
            r &= r - 1
            count = cand[i].bit_count()
            if count < best_count:
                best, best_count = i, count
        options = cand[best]
        while options:
            j = (options & -options).bit_length() - 1
            options &= options - 1
            chosen.append(pool[j])
            if dfs(remaining & ~cover[j], depth - 1):
                return True
            chosen.pop()
        failed_at[remaining] = depth
        return False

    all_pairs = (1 << np_) - 1
    depth = lower_bound(all_pairs)
    while True:
        chosen.clear()
        if dfs(all_pairs, depth):
            return tuple(sorted(forced + chosen))
        depth += 1


def _submasks(u: int) -> list[int]:
    out = [0]
    s = u
    while s:
        out.append(s)
        s = (s - 1) & u
    return out


def naive_min_dense(algebra):
    """Smallest dense set by subset enumeration. Dense: every nonzero
    element has a nonzero member below it."""
    nonzero = [x for x in algebra.elements() if not x.is_zero]
    for size in range(len(nonzero) + 1):
        for subset in combinations(nonzero, size):
            if all(any(d <= x for d in subset) for x in nonzero):
                return size
    raise AssertionError("the nonzero elements are always dense")


def naive_family_order(sets) -> int:
    """Largest m such that some m+1 pairwise distinct members intersect,
    by direct enumeration over subfamilies."""
    distinct = sorted(set(sets))
    best = -1
    for size in range(1, len(distinct) + 1):
        for combo in combinations(distinct, size):
            meet = combo[0]
            for s in combo[1:]:
                meet &= s
            if meet:
                best = max(best, size - 1)
    return best


def naive_check_axiom(s, name: str) -> AxiomReport:
    """One contact axiom by the element sweep of its definition, over
    masks in increasing order and nested left to right, on a
    ContactStructure. The first failing tuple is the witness."""
    alg = s.algebra
    size = alg.size
    full = alg.full_mask
    reach = s.closure_table()

    def contact(a: int, b: int) -> bool:
        return reach[a] & b != 0

    def ll(a: int, b: int) -> bool:
        return reach[a] & (full ^ b) == 0

    def fail(*masks: int) -> AxiomReport:
        return AxiomReport(False, name, tuple(Element(alg, m) for m in masks))

    if name == "C1":
        for a in range(size):
            for b in range(size):
                if contact(a, b) and (a == 0 or b == 0):
                    return fail(a, b)
    elif name == "C2":
        # a C (b v c) iff a C b or a C c, and the join in the first slot.
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if contact(a, b | c) != (contact(a, b) or contact(a, c)):
                        return fail(a, b, c)
                    if contact(a | b, c) != (contact(a, c) or contact(b, c)):
                        return fail(a, b, c)
    elif name == "C3":
        for a in range(1, size):
            if not contact(a, a):
                return fail(a)
    elif name == "C4":
        for a in range(size):
            for b in range(size):
                if contact(a, b) != contact(b, a):
                    return fail(a, b)
    elif name == "C5":
        for a in range(size):
            for b in range(size):
                if contact(a, b):
                    continue
                if not any(
                    not contact(a, c) and not contact(b, c ^ full)
                    for c in range(size)
                ):
                    return fail(a, b)
    elif name == "C6":
        for a in range(size):
            if a == full:
                continue
            if not any(not contact(b, a) for b in range(1, size)):
                return fail(a)
    elif name == "LL1":
        for a in range(size):
            for b in range(size):
                if ll(a, b) and a & ~b:
                    return fail(a, b)
    elif name == "LL2":
        if not ll(0, 0):
            return fail(0, 0)
    elif name == "LL2'":
        if not ll(full, full):
            return fail(full, full)
    elif name == "LL3":
        # a <= b << c <= t implies a << t, as two arity-3 sweeps (down in
        # the left slot, up in the right) reported as 4-tuples.
        for b in range(size):
            for c in range(size):
                if not ll(b, c):
                    continue
                for a in range(size):
                    if a & ~b == 0 and not ll(a, c):
                        return fail(a, b, c, c)
                for t in range(size):
                    if c & ~t == 0 and not ll(b, t):
                        return fail(b, b, c, t)
    elif name == "LL4":
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if ll(a, c) and ll(b, c) and not ll(a | b, c):
                        return fail(a, b, c)
    elif name == "LL4'":
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if ll(a, b) and ll(a, c) and not ll(a, b & c):
                        return fail(a, b, c)
    elif name == "LL5":
        for a in range(size):
            for c in range(size):
                if ll(a, c) and not any(ll(a, b) and ll(b, c) for b in range(size)):
                    return fail(a, c)
    elif name == "LL6":
        for a in range(1, size):
            if not any(ll(b, a) for b in range(1, size)):
                return fail(a)
    elif name == "LL7":
        for a in range(size):
            for b in range(size):
                if ll(a, b) and not ll(b ^ full, a ^ full):
                    return fail(a, b)
    else:
        raise AssertionError(name)
    return AxiomReport(True, name)


def naive_check_lca_axiom(L, name: str) -> AxiomReport:
    """One of LC1, LC2, LC3 by the element sweep of its definition, with
    the bounded elements taken in increasing mask order."""
    alg = L.algebra
    size = alg.size
    full = alg.full_mask
    reach = L.ca.contact.closure_table()
    u = L.bounded_top.mask
    bounded = [m for m in range(size) if m & ~u == 0]

    def ll(x: int, y: int) -> bool:
        return reach[x] & (full ^ y) == 0

    def fail(*masks: int) -> AxiomReport:
        return AxiomReport(False, name, tuple(Element(alg, m) for m in masks))

    if name == "LC1":
        for a in bounded:
            for c in range(size):
                if ll(a, c) and not any(ll(a, b) and ll(b, c) for b in bounded):
                    return fail(a, c)
    elif name == "LC2":
        for a in range(size):
            ra = reach[a]
            for b in range(size):
                if ra & b and not any(ra & (c & b) for c in bounded):
                    return fail(a, b)
    elif name == "LC3":
        for a in range(1, size):
            if not any(b and ll(b, a) for b in bounded):
                return fail(a)
    else:
        raise AssertionError(name)
    return AxiomReport(True, name)


def naive_is_connected(ca: ContactAlgebra) -> bool:
    """No element other than 0 and 1 is apart from its complement, by
    the sweep over every element."""
    full = ca.algebra.full_mask
    return all(ca.contact.contact_masks(a, full ^ a) for a in range(1, full))


@cache
def _opens(X) -> tuple[int, ...]:
    """The open family of X in increasing order, built once per topology:
    FiniteSpace.opens rebuilds it from the U_p on every read."""
    return tuple(sorted(X.opens))


def _has_refinement_of_order(X, cover, n: int) -> bool:
    """Is there an open cover refining the given one with order <= n?
    Point-by-point search with a count per point."""
    candidates = sorted(
        {u for u in _opens(X) if u and any(u & ~c == 0 for c in cover)}
    )
    limit = n + 1
    counts = [0] * X.point_count

    def extend(covered: int) -> bool:
        if covered == X.full_mask:
            return True
        p = (~covered & X.full_mask & -(~covered & X.full_mask)).bit_length() - 1
        for u in candidates:
            if not u >> p & 1:
                continue
            if any(counts[q] >= limit for q in X.points(u)):
                continue
            for q in X.points(u):
                counts[q] += 1
            if extend(covered | u):
                return True
            for q in X.points(u):
                counts[q] -= 1
        return False

    return extend(0)


def naive_dim_cl(X, n_cap: int = 3):
    """Covering dimension with the outer quantifier over every open cover
    by distinct nonempty opens, not only the irredundant ones."""
    if X.point_count == 0:
        return -1
    opens = [u for u in _opens(X) if u]
    covers = []
    for r in range(len(opens) + 1):
        for combo in combinations(opens, r):
            join = 0
            for u in combo:
                join |= u
            if join == X.full_mask:
                covers.append(combo)
    for n in range(n_cap + 1):
        if all(_has_refinement_of_order(X, cover, n) for cover in covers):
            return n
    return None


def naive_interior(X, mask: int) -> int:
    """Union of the opens inside the set."""
    return _interior(_opens(X), mask)


def naive_closure(X, mask: int) -> int:
    """Complement of the union of the opens missing the set."""
    return _closure(_opens(X), X.full_mask, mask)


def _interior(opens, mask: int) -> int:
    out = 0
    for u in opens:
        if u & ~mask == 0:
            out |= u
    return out


def _closure(opens, full: int, mask: int) -> int:
    avoid = 0
    for u in opens:
        if u & mask == 0:
            avoid |= u
    return full ^ avoid


def naive_regular_closed(X) -> list[int]:
    """Every subset F with cl(int F) = F, in increasing order."""
    opens, full = _opens(X), X.full_mask
    return [s for s in range(full + 1) if _closure(opens, full, _interior(opens, s)) == s]


def naive_regular_open(X) -> list[int]:
    """Every subset V with int(cl V) = V, in increasing order."""
    opens, full = _opens(X), X.full_mask
    return [s for s in range(full + 1) if _interior(opens, _closure(opens, full, s)) == s]


def naive_regular_families(X) -> tuple[list[int], list[int]]:
    """The regular closed and the regular open sets, each sorted.

    F = cl(int F) makes F the closure of an open set, and the closure of
    an open u is regular closed (int cl u contains u, so cl int cl u lies
    between cl u and cl cl u). Likewise the regular open sets are the
    int(cl(u)) for u open. So one pass over the opens finds both
    families, instead of testing all 2^n subsets.
    """
    opens = _opens(X)
    rc = set()
    ro = set()
    for u in opens:
        c = _closure(opens, X.full_mask, u)
        rc.add(c)
        ro.add(_interior(opens, c))
    return sorted(rc), sorted(ro)


def naive_atoms(sets) -> list[int]:
    """Minimal nonzero members under inclusion, in increasing order."""
    return sorted(s for s in sets if s and not any(t and t != s and t & ~s == 0 for t in sets))


def naive_is_semiregular(X) -> bool:
    """Every open is the union of the regular open sets inside it."""
    ro = naive_regular_open(X)
    for u in _opens(X):
        join = 0
        for v in ro:
            if v & ~u == 0:
                join |= v
        if join != u:
            return False
    return True


def naive_is_pi_semiregular(X) -> bool:
    """Every nonempty open contains a nonempty regular open set."""
    ro = naive_regular_open(X)
    return all(any(v and v & ~u == 0 for v in ro) for u in _opens(X) if u)


def naive_pi_weight_of_space(X) -> int:
    """Number of minimal nonempty opens."""
    opens = _opens(X)
    return sum(
        1
        for u in opens
        if u and not any(v and v != u and v & ~u == 0 for v in opens)
    )


def naive_clopen_sets(X) -> list[int]:
    """The opens whose complement is open, in increasing order."""
    opens = _opens(X)
    return [u for u in opens if X.full_mask ^ u in opens]


def naive_topology_families(n: int) -> set[frozenset[int]]:
    """Every topology on n labelled points, by filtering all 2^(2^n - 2)
    families that hold the empty set and the space for closure under
    union and intersection."""
    full = (1 << n) - 1
    inner = [m for m in range(full + 1) if m not in (0, full)]
    out = set()
    for bits in range(1 << len(inner)):
        fam = {0, full}
        for i, m in enumerate(inner):
            if bits >> i & 1:
                fam.add(m)
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.add(frozenset(fam))
    return out


def naive_generate_topology(n: int, subbase) -> set[int]:
    """The open family generated by a subbase: close it under
    intersections (the empty one being the whole space), then unions."""
    full = (1 << n) - 1
    meets = {full}
    for s in subbase:
        meets |= {m & s for m in meets}
    opens = {0}
    for m in meets:
        opens |= {u | m for u in opens}
    return opens


def naive_continuity_failure(source, target, point_map):
    """The least open of the target, as a mask, whose preimage is not
    an open of the source; None when the map is continuous."""
    source_opens = set(_opens(source))
    for u in _opens(target):
        pre = 0
        for p, q in enumerate(point_map):
            if u >> q & 1:
                pre |= 1 << p
        if pre not in source_opens:
            return u
    return None


def _irredundant_covers(X):
    """Covers by distinct nonempty opens from which no member can be
    dropped. Every open cover is refined by one of these.

    Enumeration works point by point: each recursion step covers the
    lowest point still missing, so the depth never exceeds the point
    count. A member is droppable exactly when it has no point of its
    own, and private points only shrink as members are added, which
    makes that a sound prune. One family can be assembled in several
    orders, hence the seen-set.
    """
    full = X.full_mask
    if full == 0:
        yield ()
        return
    opens = [u for u in _opens(X) if u]
    by_point = [[u for u in opens if u >> p & 1] for p in range(X.point_count)]
    seen = set()

    def extend(chosen, privates, covered):
        if covered == full:
            key = frozenset(chosen)
            if key not in seen:
                seen.add(key)
                yield tuple(sorted(chosen))
            return
        rest = ~covered & full
        p = (rest & -rest).bit_length() - 1
        for u in by_point[p]:
            shrunk = [pr & ~u for pr in privates]
            if any(s == 0 for s in shrunk):
                continue
            chosen.append(u)
            shrunk.append(u & ~covered)
            yield from extend(chosen, shrunk, covered | u)
            chosen.pop()

    yield from extend([], [], 0)


def naive_irredundant_dim_cl(X, n_cap: int = 3):
    """Covering dimension with the outer quantifier over the irredundant
    open covers."""
    if X.point_count == 0:
        return -1
    for n in range(n_cap + 1):
        if all(_has_refinement_of_order(X, cover, n) for cover in _irredundant_covers(X)):
            return n
    return None


def naive_canonical_rows(rows: tuple[int, ...], k: int) -> str:
    """The least row-major bit string of the relation over all k!
    relabellings of its atoms, each relabelling tried afresh."""
    import itertools

    best: str | None = None
    for perm in itertools.permutations(range(k)):
        bits = []
        for p in range(k):
            row = rows[perm[p]]
            bits.append("".join("1" if row >> perm[q] & 1 else "0" for q in range(k)))
        s = "".join(bits)
        if best is None or s < best:
            best = s
    return best or ""


def naive_orbit_classes(structures, k: int) -> list[tuple[str, tuple[int, ...]]]:
    """(canonical string, rows) for the first relation met of each
    isomorphism class, canonicalising every relation on its own."""
    seen: set[str] = set()
    classes = []
    for structure in structures:
        canon = naive_canonical_rows(structure.rows, k)
        if canon in seen:
            continue
        seen.add(canon)
        classes.append((canon, structure.rows))
    return classes
