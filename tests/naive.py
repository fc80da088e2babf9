"""Reference implementations written straight off the definitions.

Everything here trades speed for obviousness: ordered-tuple enumeration,
no memoization, no pruning beyond the conditions themselves. The real
engines are checked against these on small fixtures. The one exception,
naive_first_counterexample, memoizes witnesses per a-multiset and states
the two facts it uses to stay affordable on four atoms.
"""

from itertools import combinations, combinations_with_replacement, product

from contactalg import AxiomReport, BaseSearchState, ContactAlgebra, Element, ValidationError


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


def naive_minimum_base(L, pool_masks):
    """The minimum-base search over every bounded pair a << c, as the
    engine ran it before it kept only the minimal intervals: forced
    members plus a minimum completion drawn from pool_masks, as a
    BaseSearchState. The pairs are listed by a, then c, each in
    descending mask order after 0, and the witness is the search's first
    minimum."""
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
        return BaseSearchState(L, tuple(sorted(forced)), len(forced))

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
            return BaseSearchState(
                L, tuple(sorted(forced + chosen)), len(forced) + depth
            )
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


def _has_refinement_of_order(X, cover, n: int) -> bool:
    """Is there an open cover refining the given one with order <= n?
    Point-by-point search with a count per point."""
    candidates = sorted(
        {u for u in X.opens if u and any(u & ~c == 0 for c in cover)}
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
    opens = [u for u in X.open_masks() if u]
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
    out = 0
    for u in X.opens:
        if u & ~mask == 0:
            out |= u
    return out


def naive_closure(X, mask: int) -> int:
    """Complement of the union of the opens missing the set."""
    avoid = 0
    for u in X.opens:
        if u & mask == 0:
            avoid |= u
    return X.full_mask ^ avoid


def naive_regular_closed(X) -> list[int]:
    """Every subset F with cl(int F) = F, in increasing order."""
    return [
        s
        for s in range(X.full_mask + 1)
        if naive_closure(X, naive_interior(X, s)) == s
    ]


def naive_regular_open(X) -> list[int]:
    """Every subset V with int(cl V) = V, in increasing order."""
    return [
        s
        for s in range(X.full_mask + 1)
        if naive_interior(X, naive_closure(X, s)) == s
    ]


def naive_regular_families(X) -> tuple[list[int], list[int]]:
    """The regular closed and the regular open sets, each sorted.

    F = cl(int F) makes F the closure of an open set, and the closure of
    an open u is regular closed (int cl u contains u, so cl int cl u lies
    between cl u and cl cl u). Likewise the regular open sets are the
    int(cl(u)) for u open. So one pass over the opens finds both
    families, instead of testing all 2^n subsets.
    """
    rc = set()
    ro = set()
    for u in X.opens:
        c = naive_closure(X, u)
        rc.add(c)
        ro.add(naive_interior(X, c))
    return sorted(rc), sorted(ro)


def naive_atoms(sets) -> list[int]:
    """Minimal nonzero members under inclusion, in increasing order."""
    return sorted(s for s in sets if s and not any(t and t != s and t & ~s == 0 for t in sets))


def naive_is_semiregular(X) -> bool:
    """Every open is the union of the regular open sets inside it."""
    ro = naive_regular_open(X)
    for u in X.opens:
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
    return all(any(v and v & ~u == 0 for v in ro) for u in X.opens if u)


def naive_pi_weight_of_space(X) -> int:
    """Number of minimal nonempty opens."""
    return sum(
        1
        for u in X.opens
        if u and not any(v and v != u and v & ~u == 0 for v in X.opens)
    )


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
    opens = [u for u in X.open_masks() if u]
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
