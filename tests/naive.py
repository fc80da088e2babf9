"""Reference implementations written straight off the definitions.

Everything here trades speed for obviousness: ordered-tuple enumeration,
no memoization, no pruning beyond the conditions themselves. The real
engines are checked against these on small fixtures. The one exception,
naive_first_counterexample, memoizes witnesses per a-multiset and states
the two facts it uses to stay affordable on four atoms.
"""

from itertools import combinations_with_replacement, product

from contactalg import ContactAlgebra, Element


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
    from itertools import combinations

    bounded = L.bounded_elements()
    for size in range(len(bounded) + 1):
        for subset in combinations(bounded, size):
            if naive_is_base(L, subset):
                return size, subset
    raise AssertionError("the full bounded part is always a base")


def naive_min_dense(algebra):
    """Smallest dense set by subset enumeration. Dense: every nonzero
    element has a nonzero member below it."""
    from itertools import combinations

    nonzero = [x for x in algebra.elements() if not x.is_zero]
    for size in range(len(nonzero) + 1):
        for subset in combinations(nonzero, size):
            if all(any(d <= x for d in subset) for x in nonzero):
                return size
    raise AssertionError("the nonzero elements are always dense")


def naive_family_order(sets) -> int:
    """Largest m such that some m+1 pairwise distinct members intersect,
    by direct enumeration over subfamilies."""
    from itertools import combinations

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
