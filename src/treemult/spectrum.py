"""Exact characteristic polynomials and eigenvalue multiplicities of trees.

Two independent engines compute m(T, lambda):

* char_poly, read off the tree's matching numbers, which a root-to-leaf
  fold computes on integers packed into one bignum each, then in-place
  synthetic division by the minimal polynomial of lambda;
* a one-pass leaf-to-root diagonalization of A - lambda*I over a prime
  field F_q, with lambda sent to z^i + z^(-i) for z a primitive 2M-th root
  of unity in F_q.

They share nothing but the pair (i, M), so agreement between them is a
meaningful cross-check, and the verification sweep asserts it on every pair
it touches.  The check is one-sided: the tree engine's nullity is never
below the true one, so an abort may also mean a prime bad for that tree
(see rank_nullity).

The tree engine reuses work across calls through two module-level tables:
interned ids of rooted subtree shapes, and per (q, lambda's image) the
state the leaf-to-root pass reaches on each shape.  Only subtrees of at most
n // 2 vertices are interned, so over trees of at most n_max vertices the
shape table and each state table stay within the rooted trees on n_max // 2
vertices (37 for n_max = 12), however many trees are checked.  The division
engine keeps no such table, only char_poly's memo of the last 256 trees,
each computed from that tree alone: were an entry wrong, the engines would
disagree and the sweep abort, instead of both reading the same wrong entry.
"""

from __future__ import annotations

from functools import lru_cache

from treemult.poly import LambdaSpec, Polynomial, euler_phi
from treemult.tree import Tree, bfs_order


@lru_cache(maxsize=256)
def char_poly(t: Tree) -> Polynomial:
    """det(xI - A(T)), monic of degree n with integer coefficients.

    A forest has det(xI - A) = sum_k (-1)^k m_k x^(n - 2k), where m_k is
    its number of k-edge matchings, so only the matching numbers are
    computed.  Rooted at vertex 0, one child at a time: each vertex holds the
    matching polynomials sum_k m_k y^k (P, Q) of its subtree so far and of
    that subtree minus the vertex, both from 1, and a finished child (p, q)
    is folded in by (P, Q) <- (P*p + y*Q*q, Q*p): the vertex is either left
    unmatched or matched to the child.  Any root gives the same numbers.
    Iterative, so long paths stay clear of the recursion limit.

    The polynomials are packed into one integer each at y = 2^B, B = n,
    so the fold is a few bignum products.  Every value the fold forms is
    the matching polynomial of a subforest of T, whose coefficients are
    nonnegative and add up to its number of matchings; a matching is a
    set of edges, so that is at most 2^(n - 1) < 2^B.  No digit then
    carries into the next, and P of the root reads off B bits at a time.
    """
    n = t.n
    order, parent = bfs_order(t, 0)
    P, Q = [1] * n, [1] * n
    for c in reversed(order[1:]):  # children before parents
        u = parent[c]
        P[u], Q[u] = P[u] * P[c] + (Q[u] * Q[c] << n), Q[u] * P[c]
    coeffs = [0] * (n + 1)
    packed, mask = P[0], (1 << n) - 1
    for k in range(n // 2 + 1):
        m_k = packed & mask
        coeffs[n - 2 * k] = -m_k if k % 2 else m_k
        packed >>= n
    return Polynomial(coeffs)


def factor_multiplicity(p: Polynomial, mu: Polynomial) -> tuple[int, Polynomial]:
    """The largest k with mu^k dividing p (nonzero; mu monic of degree d >= 1)
    and the quotient p / mu^k, by synthetic division in place on one copy of
    p's coefficients: a round leaves the remainder in the lowest d live
    slots, the quotient above."""
    d = mu.degree
    if not p or d < 1 or not mu.is_monic():
        raise ValueError(f"need p != 0 and a monic mu of degree >= 1, got mu = {mu!r}")
    low = mu.coeffs[:d]
    a = list(p.coeffs)
    lo = count = 0  # a[lo:] is p / mu^count
    rest = p
    while len(a) - lo > d:
        for k in range(len(a) - 1, lo + d - 1, -1):
            top = a[k]
            if top:
                for j, c in enumerate(low, k - d):
                    a[j] -= top * c
        if any(a[lo : lo + d]):
            break  # a[lo:] no longer holds the quotient; rest still does
        lo += d
        count += 1
        rest = Polynomial(a[lo:])
    return count, rest


def multiplicity(t: Tree, spec: LambdaSpec) -> int:
    """m(T, lambda): the largest k with spec.minimal_poly^k dividing the
    characteristic polynomial.

    The minimal polynomial has degree phi(2M) / 2 (for even i, M is odd and
    phi(2M) = phi(M)); an irreducible factor of degree above n cannot divide
    a degree-n char_poly, so then m = 0 without building it."""
    if euler_phi(2 * spec.M) // 2 > t.n:
        return 0
    return factor_multiplicity(char_poly(t), spec.minimal_poly)[0]


# -- tree engine over F_q ------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..37, for odd n > 37: exact below
    3.18 * 10^23 (Sorenson and Webster, 2017), far above any q used here."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _field(M: int) -> tuple[int, int]:
    """(q, z): q the least prime above 2^61 with q == 1 (mod 2M), so F_q
    holds the 2M-th roots of unity, and z a primitive one among them."""
    step = 2 * M
    q = 2**61 // step * step + 1
    while q <= 2**61 or not _is_prime(q):
        q += step
    roots = (pow(g, (q - 1) // step, q) for g in range(2, q))  # orders divide 2M
    z = next(z for z in roots if all(pow(z, k, q) != 1 for k in range(1, step) if step % k == 0))
    return q, z


# Rooted subtree shapes, interned AHU-style (Aho, Hopcroft & Ullman, 1974):
# the sorted shape ids of a vertex's children -> the vertex's shape id.
_shape_ids: dict[tuple[int, ...], int] = {}
# per (q, r), a field and lambda's image in it: shape id -> the subtree's state
_states: dict[tuple[int, int], dict[int, tuple]] = {}


@lru_cache(maxsize=1)
def _rooted_shapes(t: Tree) -> tuple[tuple[tuple[int, ...], ...], tuple[int | None, ...]]:
    """Each vertex's children with t rooted at vertex 0, and its shape id, or
    None when its subtree has more than t.n // 2 vertices.  Cached for the
    last tree, which the sweep queries once per orbit."""
    order, parent = bfs_order(t, 0)
    kids: list[list[int]] = [[] for _ in range(t.n)]
    for u in order[1:]:
        kids[parent[u]].append(u)
    half = t.n // 2
    size = [1] * t.n + [0]  # the last slot takes the root's push (parent -1)
    shape: list[int | None] = [None] * t.n
    for u in reversed(order):  # a vertex's size is whole once its turn comes
        if size[u] <= half:  # then so are its children's
            key = tuple(sorted(shape[w] for w in kids[u]))
            shape[u] = _shape_ids.setdefault(key, len(_shape_ids))
        size[parent[u]] += size[u]
    return tuple(map(tuple, kids)), tuple(shape)


def rank_nullity(t: Tree, spec: LambdaSpec) -> int:
    """Nullity of A(T) - lambda*I over F_q, by the leaf-to-root pass of
    Jacobs and Trevisan ("Locating the eigenvalues of trees", 2011), with
    (q, z) = _field(M) and lambda sent to r = z^i + z^(-i).  Only (i, M) is
    read: for even i at odd M, z^i is itself a primitive M-th root, so no
    parity rule and no minimal polynomial enters.

    A vertex's value is -r minus the sum of 1/value over its live children,
    kept as p/c mod q so that no inverse is taken; c is a product of nonzero
    p's, so p == 0 tests for zero exactly.  Zero-child rule: if j >= 1
    children are zero, one pivots against the vertex, j - 1 stay zero and
    add to the nullity, and the vertex is cut from its parent; a zero root
    adds 1.

    The guarantee is one-sided.  lambda -> r extends to a ring map
    Z[lambda] -> F_q, which can send a nonzero minor of A - lambda*I to 0
    but never the reverse, so this nullity is at least the true m, and
    equal unless q is bad for this tree and lambda.  An undercount by the
    division engine is always caught, an overcount unless a bad q matches
    it; on correct code a bad q shows as an engine mismatch that aborts the
    sweep, never as a record, so a mismatch may mean a bad q as well as a
    bug.  No second prime is tried.

    A subtree's state -- its value or cut, and the nullity it adds --
    depends only on its rooted shape and (q, r); states of subtrees with at
    most n // 2 vertices go in a per-(q, r) table keyed by shape id, and the
    pass descends only into subtrees not in it.  Rooted at a centroid, as
    sweep trees are, that leaves a new tree little more than its root.
    """
    q, z = _field(spec.M)
    r = (pow(z, spec.i, q) + pow(z, 2 * spec.M - spec.i, q)) % q
    kids, shape = _rooted_shapes(t)
    table = _states.setdefault((q, r), {})
    state: list[tuple | None] = [None] * t.n  # (p, c, nullity): value p/c, p None when cut
    todo, stack = [], [0]
    while stack:  # preorder over the vertices whose state is not stored
        u = stack.pop()
        todo.append(u)
        for w in kids[u]:
            state[w] = table.get(shape[w])
            if state[w] is None:
                stack.append(w)
    for u in reversed(todo):  # children before parents
        nullity = zeros = 0
        num, den = r, 1  # r plus the sum of 1/value over the live children
        for w in kids[u]:
            p, c, k = state[w]
            nullity += k
            if p:
                num, den = (num * p + c * den) % q, den * p % q  # plus c/p
            elif p == 0:  # not a cut child, whose p is None
                zeros += 1
        state[u] = (None, 0, nullity + zeros - 1) if zeros else (-num % q, den, nullity)
        if shape[u] is not None:
            table[shape[u]] = state[u]
    p, _, nullity = state[0]
    return nullity + (p == 0)
