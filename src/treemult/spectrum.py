"""Exact characteristic polynomials and eigenvalue multiplicities of trees.

Two independent engines compute m(T, lambda):

* char_poly + repeated exact division by the minimal polynomial of lambda;
* fraction-free Gaussian elimination of A - lambda*I over the field of
  integer-polynomial residues modulo that minimal polynomial.

They share no code path beyond the minimal polynomial itself, so agreement
between them is a meaningful cross-check, and the verification sweep asserts
it on every pair it touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

from treemult.poly import (
    ONE,
    Polynomial,
    LambdaSpec,
    X,
    NonDivisibleError,
    exact_div,
    minimal_poly,
    spec_orbits,
    squarefree_decompose,
)
from treemult.tree import Tree, bfs_order


def char_poly_rooted(t: Tree, root: int) -> Polynomial:
    """det(xI - A(T)) via the rooted recurrence.

    For a vertex v with children c_1..c_k (subtree polynomials p_i, deleted
    -root polynomials q_i):

        p_v = x * prod p_i - sum_i q_i * prod_{j != i} p_j
        q_v = prod p_i

    The result is root-independent; the recurrence is evaluated iteratively
    so long paths cannot exhaust the recursion limit.
    """
    order, parent = bfs_order(t, root)
    # per vertex v: (p_v, q_v), the characteristic polynomials of v's rooted
    # subtree and of that subtree minus v
    pairs: list[tuple[Polynomial, Polynomial] | None] = [None] * t.n
    for u in reversed(order):
        kids = [pairs[w] for w in t.adj[u] if parent[w] == u]
        if not kids:
            pairs[u] = (X, ONE)
            continue
        # prefix/suffix products keep the recurrence division-free
        k = len(kids)
        prefix = [ONE] * (k + 1)
        for idx, (p, _) in enumerate(kids):
            prefix[idx + 1] = prefix[idx] * p
        suffix = [ONE] * (k + 1)
        for idx in range(k - 1, -1, -1):
            suffix[idx] = kids[idx][0] * suffix[idx + 1]
        total = prefix[k]
        acc = Polynomial(())
        for idx, (_, q) in enumerate(kids):
            acc = acc + q * (prefix[idx] * suffix[idx + 1])
        pairs[u] = (total.shift(1) - acc, total)
    return pairs[root][0]


@lru_cache(maxsize=65536)
def char_poly(t: Tree) -> Polynomial:
    """Characteristic polynomial of the adjacency matrix of t.

    Monic of degree n with integer coefficients; rooted at vertex 0 for
    determinism (any root gives the same determinant).
    """
    return char_poly_rooted(t, 0)


def factor_multiplicity(p: Polynomial, mu: Polynomial) -> int:
    """The largest k with mu^k dividing p, found by repeated exact division."""
    count = 0
    while True:
        try:
            p = exact_div(p, mu)
        except NonDivisibleError:
            return count
        count += 1


def multiplicity(t: Tree, spec: LambdaSpec) -> int:
    """m(T, lambda): the largest k with minimal_poly(lambda)^k dividing the
    characteristic polynomial."""
    return factor_multiplicity(char_poly(t), minimal_poly(spec))


# -- rank engine over Z[x]/(mu) ----------------------------------------------


def _rank_modulo(t: Tree, mu: Polynomial) -> int:
    """Rank of A(T) - lambda*I over Q[x]/(mu), lambda the residue of x.

    Fraction-free Gaussian elimination: the pivot is the first nonzero entry
    in column order, rows below are replaced by pivot*row - entry*pivot_row,
    and each new row is divided by its integer content to bound coefficient
    growth.  Exact arithmetic needs no stability pivoting.
    """
    n = t.n
    d = mu.degree
    if d == 1:
        # mu = x - c: work over the integers directly
        c = -mu.coeffs[0]
        rows = [
            [(-c if u == v else (1 if v in t.adj[u] else 0)) for v in range(n)]
            for u in range(n)
        ]
        return _rank_int_rows(rows, n)
    red = [-c for c in mu.coeffs[:d]]  # x^d == red[0] + red[1] x + ...
    zero = (0,) * d
    neg_x = tuple(-1 if k == 1 else 0 for k in range(d))
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            if u == v:
                row.append(neg_x)
            elif v in t.adj[u]:
                row.append((1,) + (0,) * (d - 1))
            else:
                row.append(zero)
        rows.append(row)

    def fmul(a, b):
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        for k in range(2 * d - 2, d - 1, -1):
            top = conv[k]
            if top:
                conv[k] = 0
                base = k - d
                for j, rj in enumerate(red):
                    conv[base + j] += top * rj
        return tuple(conv[:d])

    rank = 0
    for col in range(n):
        pivot_at = -1
        for r in range(rank, n):
            if rows[r][col] != zero:
                pivot_at = r
                break
        if pivot_at < 0:
            continue
        rows[rank], rows[pivot_at] = rows[pivot_at], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for r in range(rank + 1, n):
            e = rows[r][col]
            if e == zero:
                continue
            row = rows[r]
            new = [zero] * col + [
                _sub(fmul(p, row[j]), fmul(e, pivot_row[j])) for j in range(col, n)
            ]
            g = 0
            for entry in new:
                for coeff in entry:
                    g = math.gcd(g, coeff)
                if g == 1:
                    break
            if g > 1:
                new = [tuple(coeff // g for coeff in entry) for entry in new]
            rows[r] = new
        rank += 1
    return rank


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _rank_int_rows(rows: list[list[int]], n: int) -> int:
    rank = 0
    for col in range(n):
        pivot_at = -1
        for r in range(rank, n):
            if rows[r][col]:
                pivot_at = r
                break
        if pivot_at < 0:
            continue
        rows[rank], rows[pivot_at] = rows[pivot_at], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for r in range(rank + 1, n):
            e = rows[r][col]
            if not e:
                continue
            row = rows[r]
            new = [0] * col + [p * row[j] - e * pivot_row[j] for j in range(col, n)]
            g = reduce(math.gcd, new)
            if g > 1:
                new = [x // g for x in new]
            rows[r] = new
        rank += 1
    return rank


def multiplicity_via_rank(t: Tree, spec: LambdaSpec) -> int:
    """m(T, lambda) = n - rank(A - lambda*I), the independent cross-check
    engine; must agree with `multiplicity` on every input."""
    return t.n - _rank_modulo(t, minimal_poly(spec))


def rank_nullity(t: Tree, mu: Polynomial) -> int:
    """Nullity of A - lambda*I over Q[x]/(mu) for a precomputed minimal
    polynomial; shared by all eigenvalue specs conjugate under mu."""
    return t.n - _rank_modulo(t, mu)


# -- all-eigenvalue audit ------------------------------------------------------


@dataclass(frozen=True)
class EigenSupportProfile:
    """Squarefree structure of char_poly(T) with its path-type eigenvalue
    content made explicit.

    parts: the squarefree decomposition (factor, multiplicity-level).
    cover: per level, the minimal polynomials dividing that factor together
        with the eigenvalue specs sharing each one.
    residue: per level, the cofactor left after removing every path-type
        factor with denominator at most M_max; a nonconstant residue at level
        k certifies an eigenvalue of multiplicity exactly k that is not of
        the form 2*cos(i*pi/M) with M <= M_max.
    """

    tree: Tree
    M_max: int
    parts: tuple[tuple[Polynomial, int], ...]
    cover: tuple[tuple[int, tuple[tuple[Polynomial, tuple[LambdaSpec, ...]], ...]], ...]
    residue: tuple[tuple[int, Polynomial], ...]

    def cover_at(self, level: int) -> tuple[tuple[Polynomial, tuple[LambdaSpec, ...]], ...]:
        for k, entries in self.cover:
            if k == level:
                return entries
        return ()

    def residue_at(self, level: int) -> Polynomial | None:
        for k, res in self.residue:
            if k == level:
                return res
        return None

    def specs_at(self, level: int) -> list[LambdaSpec]:
        return [s for _, specs in self.cover_at(level) for s in specs]


def eigen_support_audit(t: Tree, M_max: int | None = None) -> EigenSupportProfile:
    """Squarefree-decompose char_poly(T) and divide every path-type minimal
    polynomial with denominator <= M_max out of each part.

    M_max defaults to n + 1, which covers every eigenvalue a path inside T
    can contribute; a larger value only widens the candidate set.
    """
    if M_max is None:
        M_max = t.n + 1
    if M_max < t.n + 1:
        raise ValueError(f"M_max = {M_max} below n + 1 = {t.n + 1}")
    parts = tuple(squarefree_decompose(char_poly(t)))
    cover = []
    residue = []
    for g, k in parts:
        found = []
        rest = g
        for mu, specs in spec_orbits(M_max):
            if mu.degree <= rest.degree:
                try:
                    rest = exact_div(rest, mu)
                except NonDivisibleError:
                    continue
                found.append((mu, specs))
        cover.append((k, tuple(found)))
        residue.append((k, rest))
    return EigenSupportProfile(
        tree=t,
        M_max=M_max,
        parts=parts,
        cover=tuple(cover),
        residue=tuple(residue),
    )
