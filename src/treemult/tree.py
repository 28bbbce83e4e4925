"""Tree representation, structural queries, graph6 serialization, and
exhaustive enumeration of non-isomorphic free trees.

Canonical forms are centroid-rooted: a rooted tree is encoded as the nested
tuple (size, sorted child codes), children in descending code order, and a
free tree's canonical code is the minimum over its one or two centroid
rootings.  Equal codes mean isomorphic trees, which gives cheap isomorphism
dedup, canonical relabeling, and stable graph6 output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NoReturn, Sequence


ENUMERATION_LIMIT = 20  # the largest n enumerate_trees accepts
# how many trees enumerate_trees(n) yields, for n = 0..ENUMERATION_LIMIT (OEIS A000055)
TREE_COUNTS = (
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629, 123867, 317955, 823065
)
GRAPH6_N_MAX = 62  # the graph6 short form, the only one emitted or parsed


class TreeError(Exception):
    """Base class for tree-layer errors."""


class NotATreeError(TreeError):
    """Input graph is disconnected, cyclic, or empty."""


class MalformedGraph6Error(TreeError):
    """Input text is not a valid graph6 encoding."""


class LimitExceededError(TreeError):
    """Requested enumeration size is above the configured maximum."""


@dataclass(frozen=True)
class Tree:
    """Labeled tree on n vertices with sorted per-vertex neighbor lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Tree":
        """Build and validate a tree from an edge list on vertices 0..n-1."""
        if n < 1:
            raise NotATreeError("a tree needs at least one vertex")
        if len(edges) != n - 1:
            raise NotATreeError(f"{len(edges)} edges on {n} vertices is not a tree")
        adj: list[list[int]] = [[] for _ in range(n)]
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n) or u == v:
                    break
                adj[u].append(v)
                adj[v].append(u)
            else:
                # n - 1 edges that reach every vertex from 0 are distinct and
                # acyclic; a repeat would leave one of them short
                order = [0]
                seen = [False] * n
                seen[0] = True
                for u in order:
                    for w in adj[u]:
                        if not seen[w]:
                            seen[w] = True
                            order.append(w)
                if len(order) == n:
                    for a in adj:
                        a.sort()
                    return cls(n, tuple(map(tuple, adj)))
        except (TypeError, ValueError):
            pass  # not an int pair; the edges before it may hold the first fault
        _raise_first_fault(n, edges)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def _raise_first_fault(n: int, edges: Sequence[tuple[int, int]]) -> NoReturn:
    """Raise the error for the first fault, in edge order, of n - 1 edges
    that do not form a tree: a bad or repeated edge, else disconnection.
    A pair that is not two ints raises what indexing or unpacking it does."""
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise NotATreeError(f"bad edge ({u}, {v})")
        if v in neighbors[u]:
            raise NotATreeError(f"duplicate edge ({u}, {v})")
        neighbors[u].add(v)
        neighbors[v].add(u)
    raise NotATreeError("graph is not connected")


def path_tree(n: int) -> Tree:
    """The path 0 - 1 - ... - n-1."""
    return Tree.from_edges(n, [(k, k + 1) for k in range(n - 1)])


# -- structural queries -----------------------------------------------------


def pendant_count(t: Tree) -> int:
    """Number of degree-1 vertices; a single-vertex tree counts as 2.

    The single-vertex convention makes pendant_count >= 2 for every tree,
    with equality exactly for paths.
    """
    if t.n == 1:
        return 2
    return list(map(len, t.adj)).count(1)


def major_count(t: Tree) -> int:
    """Number of vertices of degree at least 3."""
    return sum(map((2).__lt__, map(len, t.adj)))


def major_vertices(t: Tree) -> list[int]:
    return [v for v in range(t.n) if len(t.adj[v]) >= 3]


def is_path(t: Tree) -> bool:
    return all(len(t.adj[v]) <= 2 for v in range(t.n))


def pendant_vertices(t: Tree) -> list[int]:
    """Degree-1 vertices; the sole vertex of a one-vertex tree is pendant."""
    if t.n == 1:
        return [0]
    return [v for v in range(t.n) if len(t.adj[v]) == 1]


def split(t: Tree, piece: Sequence[int], v: int) -> list[tuple[int, ...]]:
    """Components of piece - v, where piece is a connected vertex tuple of t.

    One tuple of t's vertex ids per neighbor of v, in piece order.  Each
    lists its attach vertex (the neighbor of v) first, then the rest in
    depth-first discovery order with neighbors visited in piece order, so
    splitting a piece in place names the same vertices, in the same order,
    as splitting its induced copy and mapping the local ids back.
    """
    pos = {u: k for k, u in enumerate(piece)}
    unseen = set(pos)
    unseen.discard(v)
    comps = []
    for start in sorted(unseen.intersection(t.adj[v]), key=pos.__getitem__):
        unseen.discard(start)
        order = [start]
        stack = [start]
        while stack:
            fresh = [w for w in t.adj[stack.pop()] if w in unseen]
            fresh.sort(key=pos.__getitem__)
            unseen.difference_update(fresh)
            order += fresh
            stack += fresh
        comps.append(tuple(order))
    return comps


def induced(t: Tree, piece: Sequence[int]) -> Tree:
    """The subtree of t on a connected vertex tuple; local ids are positions
    in the tuple."""
    pos = {u: k for k, u in enumerate(piece)}
    edges = [
        (pos[u], pos[w]) for u in piece for w in t.adj[u] if w in pos and pos[u] < pos[w]
    ]
    return Tree.from_edges(len(piece), edges)


# -- canonical form -----------------------------------------------------------


def bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Vertices in breadth-first order from root, and each vertex's parent
    (-1 for the root).  Iterating the order in reverse visits children
    before parents without recursion, so long paths stay clear of the
    recursion limit."""
    parent = [-1] * t.n
    order = [root]
    seen = [False] * t.n
    seen[root] = True
    for u in order:
        for w in t.adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                order.append(w)
    return order, parent


def centroids(t: Tree) -> list[int]:
    """The one or two vertices minimizing the largest component of T - v."""
    if t.n == 1:
        return [0]
    subtree = [1] * t.n
    order, parent = bfs_order(t, 0)
    weight = [0] * t.n
    for u in reversed(order):
        for w in t.adj[u]:
            if w != parent[u]:
                subtree[u] += subtree[w]
        heaviest = t.n - subtree[u]
        for w in t.adj[u]:
            if w != parent[u]:
                heaviest = max(heaviest, subtree[w])
        weight[u] = heaviest
    best = min(weight)
    return sorted(u for u in range(t.n) if weight[u] == best)


def _rooted_code(t: Tree, root: int):
    """Nested (size, children) code of t rooted at root; children descending."""
    order, parent = bfs_order(t, root)
    code: list = [None] * t.n
    for u in reversed(order):
        kids = sorted((code[w] for w in t.adj[u] if parent[w] == u), reverse=True)
        size = 1 + sum(k[0] for k in kids)
        code[u] = (size, tuple(kids))
    return code[root]


def canonical_code(t: Tree):
    """Isomorphism-complete code: minimum rooted code over centroid rootings."""
    return min(_rooted_code(t, c) for c in centroids(t))


def tree_from_code(code) -> Tree:
    """Materialize a rooted code as a concretely labeled tree.

    Ids are assigned in preorder with children visited in code order, so
    equal codes produce identical labeled trees.  A vertex's first child
    follows it and each later child follows the subtree before it, so every
    child id is known from the sizes in the code, and a vertex's parent,
    then its children, is already its sorted neighbor list: the tree is
    built as is, with no validation round.
    """
    adj: list = [None] * code[0]
    stack = [(code, 0, ())]  # a node, its id, and its parent's id as a tuple
    while stack:
        (_, kids), v, up = stack.pop()
        ids = []
        w = v + 1
        for kid in kids:
            stack.append((kid, w, (v,)))
            ids.append(w)
            w += kid[0]
        adj[v] = up + tuple(ids)
    return Tree(code[0], tuple(adj))


def canonical_tree(t: Tree) -> Tree:
    """A canonically labeled copy of t; equal for isomorphic inputs."""
    return tree_from_code(canonical_code(t))


# -- free tree enumeration ----------------------------------------------------


@lru_cache(maxsize=None)
def _rooted_codes(size: int) -> tuple:
    """All canonical rooted-tree codes on `size` vertices, descending."""
    if size == 1:
        return ((1, ()),)
    out = [(size, kids) for kids in _forests(size - 1, size - 1, None)]
    out.sort(reverse=True)
    return tuple(out)


def _forests(total: int, size_cap: int, bound_code) -> Iterator[tuple]:
    """Tuples of rooted codes in non-increasing order summing to total.

    Sizes are capped by size_cap and the first code by bound_code (when
    given); successive codes are capped by their predecessor, so each
    multiset of subtrees is produced exactly once.
    """
    if total == 0:
        yield ()
        return
    for s in range(min(total, size_cap), 0, -1):
        for code in _rooted_codes(s):
            if bound_code is not None and code > bound_code:
                continue
            for rest in _forests(total - s, s, code):
                yield (code,) + rest


def free_tree_codes(n: int) -> Iterator[tuple]:
    """Rooted codes of all non-isomorphic free trees on n vertices.

    Unicentroidal trees are rooted at their centroid (every root branch has
    at most floor((n-1)/2) vertices); bicentroidal trees (n even) are
    unordered pairs of rooted trees on n/2 vertices joined by an edge.
    """
    if n == 1:
        yield (1, ())
        return
    half = (n - 1) // 2
    if half >= 1:
        for kids in _forests(n - 1, half, None):
            yield (n, kids)
    if n % 2 == 0:
        halves = _rooted_codes(n // 2)
        for a_idx, a in enumerate(halves):
            for b in halves[a_idx:]:
                # root the joined tree at the first centroid: b hangs off a
                yield (n, tuple(sorted(a[1] + ((n // 2, b[1]),), reverse=True)))


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Exactly one representative per isomorphism class of free trees on n
    vertices, in a deterministic canonical order."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(f"n = {n} above enumeration limit {ENUMERATION_LIMIT}")
    for code in free_tree_codes(n):
        yield tree_from_code(code)


# -- graph6 -------------------------------------------------------------------


def emit_graph6(t: Tree) -> str:
    """graph6 text of the canonically labeled form of t.

    Canonical labeling first means equal outputs exactly for isomorphic
    trees.  Only the short form (n <= 62) is emitted; larger trees are
    refused before canonical labeling, whose recursion depth grows with n.
    """
    _check_graph6_size(t.n)
    return pack_graph6(canonical_tree(t))


def pack_graph6(t: Tree) -> str:
    """graph6 text of t exactly as labeled.  For a tree that
    `enumerate_trees` yields, whose labels are already canonical, this is
    `emit_graph6(t)` without labeling it again."""
    _check_graph6_size(t.n)
    # bit v(v-1)/2 + u, counted from the most significant, is the edge u < v
    width = -(-t.n * (t.n - 1) // 12) * 6  # padded to whole 6-bit bytes
    value = 0
    for u, v in t.edges:
        value |= 1 << (width - 1 - v * (v - 1) // 2 - u)
    shifts = range(width - 6, -1, -6)
    return chr(t.n + 63) + "".join(chr((value >> s & 63) + 63) for s in shifts)


def _check_graph6_size(n: int) -> None:
    if n > GRAPH6_N_MAX:
        raise MalformedGraph6Error(f"graph6 short form only covers n <= {GRAPH6_N_MAX}")


def parse_graph6(text: str) -> Tree:
    """Parse graph6 text; reject non-trees.

    Accepts the optional ">>graph6<<" header.  Raises MalformedGraph6Error
    for encoding problems and NotATreeError for cyclic or disconnected input.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise MalformedGraph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise MalformedGraph6Error("graph6 bytes must be in the range 63..126")
    if s[0] == "~":
        raise MalformedGraph6Error("graph6 long form (n > 62) not supported")
    n = ord(s[0]) - 63
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise MalformedGraph6Error(
            f"expected {need} payload bytes for n = {n}, got {len(body)}"
        )
    # the payload's bits, most significant first, as pack_graph6 writes
    # them: bit v(v-1)/2 + u is the edge u < v
    bits = body.translate(_SIX_BITS)
    pairs = _edge_pairs(n)
    if "1" in bits[len(pairs) :]:
        raise MalformedGraph6Error("nonzero padding bits")
    if n == 0:
        raise NotATreeError("empty graph is not a tree")
    edges = []
    k = bits.rfind("1")
    while k >= 0:  # the set bits, last first: n - 1 of them for a tree
        edges.append(pairs[k])
        k = bits.rfind("1", 0, k)
    return Tree.from_edges(n, edges)


# graph6 byte -> its six payload bits as text
_SIX_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The edge u < v < n that graph6 bit v(v-1)/2 + u stands for, by bit."""
    return tuple((u, v) for v in range(n) for u in range(v))


def parse_edge_text(text: str) -> Tree:
    """Parse the inline "u-v,u-v,..." edge syntax (0-based ids).

    The bare text "0" denotes the single-vertex tree; no other text without
    an edge is accepted.
    """
    s = text.strip()
    if not s:
        raise NotATreeError("empty edge list")
    if "-" not in s:
        if s == "0":
            return Tree.from_edges(1, [])
        raise NotATreeError(f"cannot parse edge list {s!r}")
    edges = []
    for chunk in s.split(","):
        try:
            u_text, v_text = chunk.strip().split("-")
            edges.append((int(u_text), int(v_text)))
        except ValueError as exc:
            raise NotATreeError(f"cannot parse edge {chunk!r}") from exc
    n = max(max(u, v) for u, v in edges) + 1
    return Tree.from_edges(n, edges)


def load_edge_json(text: str) -> Tree:
    """Parse the {"n": int, "edges": [[u, v], ...]} JSON format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotATreeError(f"bad JSON: {exc}") from exc
    try:
        n = data["n"]
        edges = [(u, v) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise NotATreeError(f"bad edge-list object: {exc}") from exc
    # bool is an int subclass; floats and strings are not coerced
    if any(type(x) is not int for x in (n, *(x for e in edges for x in e))):
        raise NotATreeError("n and every vertex id must be JSON integers")
    return Tree.from_edges(n, edges)
