"""Exact characteristic polynomials and eigenvalue multiplicities of trees.

Two independent engines compute m(T, lambda):

* char_poly, read off the tree's matching numbers, which a root-to-leaf
  fold computes on integers packed into one bignum each, then in-place
  synthetic division by the minimal polynomial of lambda;
* a one-pass leaf-to-root diagonalization of A - lambda*I over the field
  of integer-polynomial residues modulo that minimal polynomial.

They share no code path beyond the minimal polynomial itself, so agreement
between them is a meaningful cross-check, and the verification sweep asserts
it on every pair it touches.

The tree engine reuses work across calls through two module-level tables:
interned ids of rooted subtree shapes, and per minimal polynomial the state
the leaf-to-root pass reaches on each shape.  Only subtrees of at most n // 2
vertices are interned, so over trees of at most n_max vertices the shape
table and each state table stay within the rooted trees on n_max // 2
vertices (37 for n_max = 12), however many trees are checked.  The division
engine keeps no such table, only char_poly's memo of the last 256 trees,
each computed from that tree alone: were an entry wrong, the engines would
disagree and the sweep abort, instead of both reading the same wrong entry.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

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


# -- tree engine over Z[x]/(mu) ----------------------------------------------


def _mulmod(a: list[int], b: list[int], red: list[int]) -> list[int]:
    """a * b modulo the monic mu of degree d = len(red): x^d == sum red[j] x^j."""
    d = len(red)
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        top = conv[k]
        if top:
            for j, rj in enumerate(red):
                conv[k - d + j] += top * rj
    return conv[:d]


def _lowest(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num/den with the joint integer content of both divided out; the
    inputs themselves when it is 1, as it nearly always is (the pass never
    changes a residue list in place, so states may share them)."""
    g = math.gcd(*num, *den)
    if g == 1:
        return num, den
    return [c // g for c in num], [c // g for c in den]


# Rooted subtree shapes, interned AHU-style (Aho, Hopcroft & Ullman, 1974):
# the sorted shape ids of a vertex's children -> the vertex's shape id.
_shape_ids: dict[tuple[int, ...], int] = {}
# per minimal polynomial (its coefficients): shape id -> the subtree's state
_states: dict[tuple[int, ...], dict[int, tuple]] = {}


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


def rank_nullity(t: Tree, mu: Polynomial) -> int:
    """Nullity of A(T) - lambda*I over Q[x]/(mu), lambda the residue of x,
    by the leaf-to-root pass of Jacobs and Trevisan ("Locating the
    eigenvalues of trees", 2011); shared by all specs conjugate under mu.

    A vertex's value is -lambda minus the sum of 1/value over its live
    children (equal values summed at once), kept as residues (P, Q) with
    value P/Q and their joint integer content divided out.  The sum takes
    products modulo mu; the -lambda step, (-x*Q - N)/Q for a sum N/Q, does
    not: x*Q is Q shifted up one place with its top coefficient folded back
    through x^d == red, O(d) instead of a full product.  One loop over a
    vertex's children adds up their nullity, counts the zero ones and
    collects the live ones.  Zero-child rule: if z >= 1 children are zero,
    one pivots against the vertex, z - 1 stay zero and add to the nullity,
    and the vertex is cut from its parent; a zero root adds 1.  P == 0 is an
    exact zero test because mu is irreducible: Q[x]/(mu) is a field, so each
    Q, a product of nonzero residues, is nonzero.

    A subtree's state -- its value or cut, and the nullity it adds -- depends
    only on its rooted shape and mu, so states of subtrees with at most
    n // 2 vertices are kept in a per-mu table keyed by shape id and reused
    by later calls, on this tree or any other; the pass descends only into
    subtrees not in the table.  Rooted at a centroid, as sweep trees are,
    that leaves a new tree little more than its root to compute.  No
    char_poly is formed and the division engine keeps no such table, so a
    wrong state shows as an engine mismatch instead of agreeing with itself.
    """
    d = mu.degree
    low = mu.coeffs[:d]
    red = [-c for c in low]
    # a leaf's value -x; for linear mu = x + c, x is the integer -c
    leaf = ([0, -1] + [0] * (d - 2) if d > 1 else [mu.coeffs[0]], [1] + [0] * (d - 1))
    kids, shape = _rooted_shapes(t)
    table = _states.setdefault(mu.coeffs, {})
    state: list[tuple | None] = [None] * t.n  # (value or None when cut, nullity)
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
        live = []
        for w in kids[u]:
            value, k = state[w]
            nullity += k
            if value is None:
                continue
            if any(value[0]):
                live.append(value)
            else:
                zeros += 1
        if zeros:
            state[u] = (None, nullity + zeros - 1)
        elif not live:
            state[u] = (leaf, nullity)
        else:
            # the sum of 1/value over the live children as num/den, c equal
            # values q/p at a time; then value = -x - num/den
            terms = [(p, q, len(list(run))) for (p, q), run in groupby(sorted(live))]
            den, q, c = terms[0]
            num = [c * a for a in q]
            for p, q, c in terms[1:]:
                num, den = _lowest(
                    [a + c * b for a, b in zip(_mulmod(num, p, red), _mulmod(den, q, red))],
                    _mulmod(den, p, red),
                )
            # x*den is den shifted up one place plus top * red, as x^d == red;
            # red = -low, so -x*den is top * low minus the shift (zip drops
            # the place shifted out)
            top = den[-1]
            value = [top * c - a - b for c, a, b in zip(low, [0, *den], num)]
            state[u] = (_lowest(value, den), nullity)
        if shape[u] is not None:
            table[shape[u]] = state[u]
    value, nullity = state[0]
    return nullity + int(value is not None and not any(value[0]))

