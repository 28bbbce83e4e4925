"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately dumb: Prufer-sequence enumeration for tree
counts, a scan per step for decoding random Prufer sequences, cofactor
expansion and the determinant recurrence on coefficient lists for
characteristic polynomials, greedy leaf matching for the nullity at zero,
dense elimination for the nullity at any eigenvalue, deleting the major
vertices for the lengths of legs and inner paths.
Slow, obvious, and algorithmically unrelated to what they check.

Below them are the small builders and predicates that only tests use:
stars, spiders and chains of majors, path characteristic polynomials,
Horner evaluation, a divisibility test, the JSON edge-list form of a tree,
and the base-family predicates over the classifier's own path-size tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from treemult.families import BROAD, Gamma2Mode, _gamma0_path_size, _gamma2_0_path_size
from treemult.poly import ONE, X, LambdaSpec, NonDivisibleError, Polynomial, exact_div
from treemult.tree import Tree, bfs_order, canonical_code, is_path


def prufer_to_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over vertices 0..n-1 (length n-2)."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for u in range(n):
            if degree[u] == 1:
                edges.append((u, v))
                degree[u] -= 1
                degree[v] -= 1
                break
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def random_tree_edges_by_scan(n: int, rng) -> list[tuple[int, int]]:
    """A random Prufer sequence drawn from rng, decoded by scanning for the
    smallest leaf at every step: O(n^2), the decoder the agreement check
    used before its heap of leaves."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        u = min(u for u in range(n) if degree[u] == 1)
        edges.append((u, v))
        degree[u] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, one per Prufer sequence.

    Each sequence is decoded in one pass: the smallest leaf is the lowest
    unused degree-1 vertex, unless the vertex just joined has become a
    smaller one.  Decoding always gives a tree, so it is built straight
    from its sorted neighbor lists, without the checks of Tree.from_edges.
    """
    if n == 1:
        yield Tree(1, ((),))
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        adj = [[] for _ in range(n)]
        leaf = low = degree.index(1)
        for v in seq:
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[v] -= 1
            if degree[v] == 1 and v < low:
                leaf = v
            else:
                leaf = low = degree.index(1, low + 1)
        adj[leaf].append(n - 1)
        adj[n - 1].append(leaf)
        yield Tree(n, tuple(tuple(sorted(a)) for a in adj))


@lru_cache(maxsize=None)
def count_free_trees_bruteforce(n: int) -> int:
    """Number of isomorphism classes of trees on n vertices, by generating
    all labeled trees and deduplicating on canonical codes."""
    return len({canonical_code(t) for t in all_labeled_trees(n)})


def segment_lengths(t: Tree) -> list[int]:
    """Lengths of the legs and inner paths of t, one entry per segment.

    Delete every vertex of degree >= 3: each component left is a path that
    is either a leg or the interior of an inner path, and its length is its
    vertex count; each edge joining two deleted vertices is an inner path of
    length 0.  A path has no vertex of degree >= 3 and no segments."""
    major = {v for v in range(t.n) if t.degree(v) >= 3}
    if not major:
        return []
    lengths = [0 for u, v in t.edges if u in major and v in major]
    seen = set(major)
    for start in range(t.n):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            u = stack.pop()
            size += 1
            for w in t.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        lengths.append(size)
    return lengths


def defective_segments(t: Tree, M: int) -> int:
    """Segments of t whose length L has M not dividing L + 1."""
    return sum(1 for length in segment_lengths(t) if (length + 1) % M)


def charpoly_by_cofactors(t: Tree) -> Polynomial:
    """det(xI - A) by textbook cofactor expansion over polynomial entries."""
    x = Polynomial((0, 1))
    one = Polynomial((1,))
    entries = [
        [x if u == v else Polynomial((-1,) if v in t.adj[u] else ()) for v in range(t.n)]
        for u in range(t.n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        acc = Polynomial(())
        r = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            minor = det(rest, cols[:k] + cols[k + 1 :])
            term = entries[r][c] * minor
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    idx = tuple(range(t.n))
    result = det(idx, idx)
    assert result.is_monic()
    return result


def charpoly_by_convolution(t: Tree) -> Polynomial:
    """det(xI - A) by the root-to-leaf determinant recurrence on coefficient
    lists: each vertex holds (P, Q), the characteristic polynomials of its
    subtree so far and of that subtree minus the vertex, from (x, 1); a
    finished child (p, q) folds in as (P, Q) <- (P*p - Q*q, Q*p)."""

    def convolve(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    order, parent = bfs_order(t, 0)
    pairs = [([0, 1], [1]) for _ in range(t.n)]  # coefficient lists, ascending
    for c in reversed(order[1:]):  # children before parents
        (p, q), (p_c, q_c) = pairs[parent[c]], pairs[c]
        p = convolve(p, p_c)
        for k, v in enumerate(convolve(q, q_c)):
            p[k] -= v
        pairs[parent[c]] = (p, convolve(q, p_c))
    return Polynomial(pairs[0][0])


def max_matching_tree(t: Tree) -> int:
    """Maximum matching size of a tree by greedy leaf matching (exact on
    trees): repeatedly match a leaf to its neighbor and delete both."""
    alive = [True] * t.n
    degree = [len(t.adj[v]) for v in range(t.n)]
    leaves = [v for v in range(t.n) if degree[v] == 1]
    matched = 0
    while leaves:
        v = leaves.pop()
        if not alive[v] or degree[v] == 0:
            continue
        partner = next(w for w in t.adj[v] if alive[w])
        matched += 1
        for gone in (v, partner):
            alive[gone] = False
            for w in t.adj[gone]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        leaves.append(w)
                    elif degree[w] == 0:
                        leaves.append(w)
    return matched


def nullity_by_matching(t: Tree) -> int:
    """m(T, 0) = n - 2 * (maximum matching size) for trees."""
    return t.n - 2 * max_matching_tree(t)


def nullity_by_elimination(t: Tree, mu: Polynomial) -> int:
    """Nullity of A - lambda*I over Q[x]/(mu), lambda the residue of x, by
    fraction-free Gaussian elimination of the dense matrix with entries kept
    as residues modulo the monic mu.  No content division: small trees only."""
    d = mu.degree

    def mod(c):  # ascending coefficients -> residue, a tuple of length d
        c = list(c) + [0] * d
        for k in range(len(c) - 1, d - 1, -1):
            c[k - d : k + 1] = [a - c[k] * m for a, m in zip(c[k - d : k + 1], mu.coeffs)]
        return tuple(c[:d])

    def mul(a, b):
        return mod([sum(a[i] * b[k - i] for i in range(d) if 0 <= k - i < d) for k in range(2 * d)])

    n, zero = t.n, mod([])
    rows = [[mod([0, -1] if u == v else [int(v in t.adj[u])]) for v in range(n)] for u in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != zero), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            top = rows[rank]
            for r in range(rank + 1, n):
                e = rows[r][col]
                if e != zero:
                    rows[r] = [
                        tuple(x - y for x, y in zip(mul(top[col], a), mul(e, b)))
                        for a, b in zip(rows[r], top)
                    ]
            rank += 1
    return n - rank


# -- builders and predicates that only tests use ------------------------------


def star_tree(leaves: int) -> Tree:
    """Star with center 0 and the given number of leaves."""
    return Tree.from_edges(leaves + 1, [(0, k) for k in range(1, leaves + 1)])


def spider_tree(*legs: int) -> Tree:
    """Spider: center 0 with pendant paths of the given lengths."""
    edges = []
    nxt = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(nxt, edges)


def major_chain(k, connector, leg, middle):
    """k majors in a chain, consecutive ones joined through a path of
    `connector` vertices, a leg of `leg` vertices on each (two on the end
    ones), the middle one's leg of `middle` vertices."""
    edges, n = [], k
    for a in range(k - 1):
        path = list(range(n, n + connector))
        edges += list(zip([a] + path, path + [a + 1]))
        n += connector
    for w in range(k):
        for _ in range(2 if w in (0, k - 1) else 1):
            size = middle if w == k // 2 else leg
            path = list(range(n, n + size))
            edges += list(zip([w] + path, path))
            n += size
    return Tree.from_edges(n, edges)


def to_json_dict(t: Tree) -> dict:
    """The {"n": int, "edges": [[u, v], ...]} object that load_edge_json reads."""
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


@lru_cache(maxsize=None)
def path_charpoly(n: int) -> Polynomial:
    """Characteristic polynomial of the path on n vertices.

    Satisfies the two-term recurrence f(n) = x*f(n-1) - f(n-2) with
    f(0) = 1 and f(1) = x; its roots are 2*cos(k*pi/(n+1)) for k = 1..n.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return ONE
    if n == 1:
        return X
    prev, cur = ONE, X
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1) - prev
    return cur


def evaluate(p: Polynomial, x):
    """Horner evaluation of p at x; works for int, Fraction or float x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divides(b: Polynomial, a: Polynomial) -> bool:
    """True when b divides a exactly over the integers."""
    try:
        exact_div(a, b)
    except NonDivisibleError:
        return False
    return True


def is_gamma0(t: Tree, lam: LambdaSpec) -> bool:
    """Paths with lambda as a (necessarily simple) eigenvalue."""
    return is_path(t) and _gamma0_path_size(t.n, lam.M)


def is_gamma2_0(t: Tree, lam: LambdaSpec, mode: Gamma2Mode = BROAD) -> bool:
    """Base GAMMA2 paths under the requested reading."""
    return is_path(t) and _gamma2_0_path_size(t.n, lam.M, mode)
