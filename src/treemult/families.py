"""Membership classifiers and constructive generators for the recursive
tree families attaining eigenvalue multiplicity p(T) - 1 (GAMMA) and
p(T) - 2 (GAMMA2), for a path-type eigenvalue lambda = 2*cos(i*pi/M).

Base families are arithmetic conditions on paths:

* GAMMA(0): paths on n vertices with M dividing n + 1 (lambda is a simple
  eigenvalue of exactly these paths);
* GAMMA2(0), strict reading: paths obtained from a GAMMA(0) member by
  deleting one pendant vertex, i.e. n = M - 2 (mod M);
* GAMMA2(0), broad reading: paths that do not have lambda as an eigenvalue
  at all, i.e. M does not divide n + 1.

Level k >= 1 members are built by joining component trees at a new major
vertex, with side conditions on whether the join lands on a pendant vertex
of each component, plus an eigenvalue-carrying condition on the recursive
GAMMA2 component.  Membership therefore depends on lambda only through M,
and only on the isomorphism class of the tree.  The base families and the
segment tests read M alone; the eigenvalue condition is a multiplicity on a
tree, which conjugates share (they have one minimal polynomial), and at odd
M the even-i orbit is the odd-i orbit negated (i -> M - i), while a tree is
bipartite, so -lambda has lambda's multiplicity on every subtree.  So
classify keeps each tree's verdicts per M (see there).

The classifier works in the classified tree's own vertex ids: each
component, a piece, is a tuple of those ids, and the recursion that decides
membership also returns the witness.  A piece's segments and how it splits
at its major vertices depend on the tree alone, so each is computed at most
once per tree and every eigenvalue and mode classified on that tree reuses
it; the cache is emptied when another tree comes in, so it never holds more
than one tree's pieces.

Both families join paths at major vertices, so the lengths of those paths
already decide most trees.  A piece's segments are its legs (a pendant
vertex up to the nearest major vertex) and its inner paths between two
majors; a segment is defective when M does not divide its length plus one.
For k >= 1 a piece is in GAMMA(k) exactly when no segment is defective, and
a GAMMA2(k) piece has 1 or 3 defective segments (the argument is at
_defective).  The segment sizes come from one walk over the piece, and
the clause search, with the splits it needs, runs only on the pieces that
pass: a piece is split the first time one of its segment tests passes, and
never when all fail, as they do for most trees.  The search so finds the
same witnesses and stops early on non-members.  Within one search only the
GAMMA2 search keeps verdicts (see classify): a piece that passes the GAMMA
test is a member, which its first outer major peels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from treemult import spectrum
from treemult.poly import LambdaSpec
from treemult.tree import (
    Tree,
    _rooted_code,
    canonical_code,
    induced,
    major_vertices,
    path_tree,
    pendant_vertices,
    split,
)


class Gamma2Mode(enum.Enum):
    """Reading of the GAMMA2 base family; BROAD is the default."""

    STRICT = "strict"
    BROAD = "broad"


STRICT = Gamma2Mode.STRICT
BROAD = Gamma2Mode.BROAD


class FamilyKind(enum.Enum):
    GAMMA = "GAMMA"
    GAMMA2 = "GAMMA2"
    NONE = "NONE"


@dataclass(frozen=True)
class WitnessStep:
    """One level of a membership certificate: the major vertex removed, the
    clause that matched, and the disposition of every component (vertices
    named in the coordinates of the originally classified tree)."""

    vertex: int
    clause: str
    components: tuple[tuple[tuple[int, ...], str], ...]


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of classification.

    For members, k equals the number of major vertices of the classified
    tree, and the witness chain records one decomposition per level, outer
    to inner; replaying the deletions reproduces the dispositions.
    """

    kind: FamilyKind
    k: int | None = None
    witness: tuple[WitnessStep, ...] = ()

    @property
    def tag(self) -> str:
        if self.kind is FamilyKind.NONE:
            return "NONE"
        return f"{self.kind.value}({self.k})"

    def is_gamma(self) -> bool:
        return self.kind is FamilyKind.GAMMA

    def is_gamma2(self) -> bool:
        return self.kind is FamilyKind.GAMMA2


NON_MEMBER = FamilyResult(FamilyKind.NONE)


# -- base families ------------------------------------------------------------


def _gamma0_path_size(n: int, M: int) -> bool:
    return (n + 1) % M == 0


def _gamma2_0_path_size(n: int, M: int, mode: Gamma2Mode) -> bool:
    if mode is Gamma2Mode.STRICT:
        return n % M == (M - 2) % M
    return (n + 1) % M != 0


# -- recursive membership ------------------------------------------------------

# A piece is a connected tuple of vertex ids of the tree being classified.
# memo: piece -> [segment sizes, majors, degrees, cuts or None] (see
# _segments and _cuts).  None of it depends on lambda or the mode, so every
# orbit and mode classified on one tree reads the same entries; classify
# clears the memo when it gets a different tree, so it holds one tree's
# pieces.  It is per process state, not for concurrent classification from
# several threads.
_member_memo: dict = {}
# classify's results for the same tree, cleared with _member_memo: M -> a
# GAMMA result, (M, mode) -> a GAMMA2 or NONE result (see classify)
_verdict_memo: dict = {}
_memo_tree: Tree | None = None


def _carries(t: Tree, lam: LambdaSpec) -> bool:
    """Whether lambda is an eigenvalue of t at all."""
    return spectrum.multiplicity(t, lam) >= 1


def _segments(t: Tree, piece: tuple[int, ...]) -> list:
    """The piece's memo entry: its segment sizes, its major vertices in
    piece order, its degrees, and its cuts once _cuts has built them.

    A segment is a leg (a pendant vertex up to its nearest major vertex, the
    major excluded) or an inner path between two majors, counted once; its
    size is L + 1, where L is the leg's vertex count or the inner path's
    number of degree-2 vertices, all in piece degrees.  A path has none."""
    entry = _member_memo.get(piece)
    if entry is None:
        inside = set(piece)
        deg = {v: len(inside.intersection(t.adj[v])) for v in piece}
        segments, majors = [], []
        for w in piece:
            if deg[w] >= 3:
                majors.append(w)
                # walk each segment from w to its far end; an inner path is
                # walked from both of its majors and kept from the smaller
                for v in inside.intersection(t.adj[w]):
                    prev, size = w, 1
                    while deg[v] == 2:
                        prev, v = v, next(u for u in t.adj[v] if u != prev and u in inside)
                        size += 1
                    if deg[v] == 1:
                        segments.append(size + 1)
                    elif w < v:
                        segments.append(size)
        entry = _member_memo[piece] = [segments, majors, deg, None]
    return entry


def _cuts(t: Tree, piece: tuple[int, ...]):
    """One (w, components, shapes) per major vertex w of the piece, in piece
    order; built on the first call for the piece, which the searches make
    only once its segment test has passed.

    The components of piece - w come from split (attach vertex first), and
    per component (is a path, degree of the attach vertex in it).  Of a
    component's vertices only the attach vertex loses an edge, the one to w;
    the join lands on a pendant vertex exactly when that degree is <= 1
    (0 for a one-vertex component)."""
    entry = _segments(t, piece)
    if entry[3] is None:
        deg = entry[2]
        cuts = []
        for w in entry[1]:
            comps = split(t, piece, w)
            shapes = []
            for c in comps:
                attach = deg[c[0]] - 1
                shapes.append((attach <= 2 and all(deg[v] <= 2 for v in c[1:]), attach))
            cuts.append((w, comps, shapes))
        entry[3] = cuts
    return entry[3]


def _defective(segments: list[int], M: int) -> int:
    """How many segments have M not dividing their size L + 1.

    Both families are cut from this count alone, before any search:

    * For k >= 1, a piece is in GAMMA(k) exactly when no segment is
      defective.  At level 1 the segments are the legs of a spider, and each
      must be a GAMMA(0) path.  At level k >= 2 peel an outer major w, one
      with a single inner path: the deep component meets w through that
      path, whose first vertex is a pendant of the component (a zero-length
      path would be defective), and the path becomes the component's leg
      with the same L; the other components are the legs at w.  So the
      piece has no defective segment iff the legs at w are GAMMA(0) paths
      and the deep component has none, which by induction is GAMMA(k - 1).
    * A GAMMA2(k) piece, k >= 1, has 1 or 3 defective segments.  A base
      GAMMA2 path is defective as a leg in either mode (M >= 2).  Clause (a)
      gives three such legs, clause (b) one.  Clause (1) turns the GAMMA2
      component's leg at its attach vertex into an inner path of the same
      L, so it keeps the component's count; clause (3) does the same to a
      GAMMA component, which has none, and adds one base GAMMA2 leg.
      Clause (2) adds the zero-length inner path from w to the attach
      vertex to a GAMMA component.  When that vertex had degree 2 and is
      promoted to major, it also splits the segment (or path) it lay on
      into two parts whose sizes add up to the old size, a multiple of M,
      so the two parts are both defective or neither is.
    """
    return sum(1 for size in segments if size % M)


def _step(w: int, clause: str, comps, labels, sub: tuple) -> tuple[WitnessStep, ...]:
    return (WitnessStep(w, clause, tuple(zip(comps, labels))),) + sub


def _gamma(t: Tree, piece: tuple[int, ...], M: int, k: int):
    """Witness chain certifying the piece in GAMMA(k), outer step first, or
    None.  At some major vertex w, all attach vertices of piece - w must be
    pendant in their components; at level 1 every component is a base path,
    above that exactly one component is a GAMMA(k-1) member and the rest are
    base paths."""
    segments, majors = _segments(t, piece)[:2]
    if len(majors) != k:
        return None
    if k == 0:
        return () if _gamma0_path_size(len(piece), M) else None
    if _defective(segments, M):
        return None
    for w, comps, shapes in _cuts(t, piece):
        if any(attach > 1 for _, attach in shapes):
            continue
        base = [path and _gamma0_path_size(len(c), M) for c, (path, _) in zip(comps, shapes)]
        deep = [c for c, b in zip(comps, base) if not b]
        if len(deep) != (1 if k > 1 else 0):
            continue
        sub = _gamma(t, deep[0], M, k - 1) if deep else ()
        if sub is not None:
            labels = ["gamma0" if b else f"gamma({k - 1})" for b in base]
            return _step(w, "gamma", comps, labels, sub)
    return None


def _gamma2(
    t: Tree, piece: tuple[int, ...], lam: LambdaSpec, k: int, mode: Gamma2Mode, verdicts: dict
):
    """Witness chain certifying the piece in GAMMA2(k), outer step first, or
    None.  Major vertices w are tried in piece order.

    Level 1 clauses: (a) exactly three components, all base GAMMA2 paths; or
    (b) exactly one base GAMMA2 path and the rest GAMMA(0) paths; pendant
    attachment everywhere.

    Level k >= 2 clauses: (1) one GAMMA2(k-1) component that has lambda as
    an eigenvalue, plus GAMMA(0) paths, pendant attachment everywhere; or
    (2) one GAMMA(k-1) component joined at a non-pendant vertex of that
    component plus GAMMA(0) paths joined at pendant vertices; or (3) one
    GAMMA(k-1) component, exactly one base GAMMA2 path, and GAMMA(0) paths,
    pendant attachment everywhere.

    The eigenvalue-carrying condition in clause (1) is what the level
    induction for the multiplicity law needs: without it, chains built over
    level-1 members that avoid lambda entirely (such as the 3-leaf star at
    lambda = 1) produce members whose multiplicity falls below the pendant
    count minus two even though lambda is an eigenvalue of the whole tree.
    """
    M = lam.M
    segments, majors = _segments(t, piece)[:2]
    if len(majors) != k:
        return None
    if k == 0:
        return () if _gamma2_0_path_size(len(piece), M, mode) else None
    if _defective(segments, M) not in (1, 3):
        return None
    if piece in verdicts:
        return verdicts[piece]
    chain = None
    for w, comps, shapes in _cuts(t, piece):
        g0 = [path and _gamma0_path_size(len(c), M) for c, (path, _) in zip(comps, shapes)]
        g20 = [
            path and _gamma2_0_path_size(len(c), M, mode) for c, (path, _) in zip(comps, shapes)
        ]
        labels = ["gamma2_0" if b else "gamma0" for b in g20]
        non_pendant = [idx for idx, (_, attach) in enumerate(shapes) if attach > 1]
        if k == 1:
            # components of a gamma(t)=1 tree are paths, and the two base
            # sets are disjoint, so the split is a partition
            if not non_pendant and (
                (len(comps) == 3 and all(g20)) or (sum(g20) == 1 and sum(g0) == len(comps) - 1)
            ):
                chain = _step(w, "gamma2", comps, labels, ())
                break
            continue
        if len(non_pendant) == 1:
            # clause (2): the distinguished component carries the non-pendant
            # join.  Its own major count is one less than k when the attach
            # vertex is already major there, two less when the attach vertex
            # has degree 2 and is promoted to major only by the join (the
            # member count gamma(t) = k, checked at entry, forces exactly
            # these two shapes); either way the component is a GAMMA member
            # of its own level, which is all the multiplicity accounting uses.
            one = non_pendant[0]
            level = k - 1 if shapes[one][1] >= 3 else k - 2
            if all(b for idx, b in enumerate(g0) if idx != one):
                sub = _gamma(t, comps[one], M, level)
                if sub is not None:
                    labels[one] = f"gamma({level})|non-pendant"
                    chain = _step(w, "gamma2", comps, labels, sub)
                    break
        if non_pendant:
            continue
        deep = [idx for idx, (path, _) in enumerate(shapes) if not path]
        if len(deep) != 1 or sum(g0) + sum(g20) != len(comps) - 1:
            continue
        one = deep[0]
        if not any(g20):
            # clause (1)
            sub = _gamma2(t, comps[one], lam, k - 1, mode, verdicts)
            if sub is not None and _carries(induced(t, comps[one]), lam):
                labels[one] = f"gamma2({k - 1})"
                chain = _step(w, "gamma2", comps, labels, sub)
                break
        elif sum(g20) == 1:
            # clause (3)
            sub = _gamma(t, comps[one], M, k - 1)
            if sub is not None:
                labels[one] = f"gamma({k - 1})"
                chain = _step(w, "gamma2", comps, labels, sub)
                break
    verdicts[piece] = chain
    return chain


# -- public classifier ----------------------------------------------------------


def classify(t: Tree, lam: LambdaSpec, mode: Gamma2Mode = BROAD) -> FamilyResult:
    """Classify t against the two families at lambda.

    Returns GAMMA(k) when t belongs to the multiplicity-(p-1) family,
    GAMMA2(k) for the multiplicity-(p-2) family, NONE otherwise; k is always
    the number of major vertices.  The result carries a replayable witness
    chain naming vertices of t itself.
    """
    global _memo_tree
    if t != _memo_tree:
        _member_memo.clear()
        _verdict_memo.clear()
        _memo_tree = t
    # The result depends on lambda only through M (module docstring), so
    # every orbit at one M reads the verdict the first one found.  A GAMMA
    # result reads no mode and is kept under M; any other under (M, mode),
    # but at M = 2 both readings of GAMMA2(0) are "n even", so the modes
    # share one key there.  That keeps at most 2 verdicts per M.
    M = lam.M
    key = (M, mode if M > 2 else BROAD)
    result = _verdict_memo.get(M) or _verdict_memo.get(key)
    if result is not None:
        return result
    piece = tuple(range(t.n))
    k = len(_segments(t, piece)[1])
    chain = _gamma(t, piece, M, k)
    if chain is not None:
        result = _verdict_memo[M] = FamilyResult(FamilyKind.GAMMA, k, chain)
        return result
    # piece -> GAMMA2 witness chain or None.  Lambda and the mode are fixed
    # within one call and a piece's level is its major count, so the key
    # needs nothing else; without it a GAMMA2 non-member with many major
    # vertices is searched once per order of deleting them, which grows
    # exponentially with the major count.  GAMMA needs no verdicts: a piece
    # that passes its segment test is a member, and its first outer major
    # peels it, so each level recurses once.
    chain = _gamma2(t, piece, lam, k, mode, {})
    result = NON_MEMBER if chain is None else FamilyResult(FamilyKind.GAMMA2, k, chain)
    _verdict_memo[key] = result
    return result


_BASE_LABELS = ("gamma0", "gamma2_0")


def replay_witness(t: Tree, result: FamilyResult) -> bool:
    """Check a witness chain against t: deleting each recorded vertex must
    reproduce the recorded component vertex sets."""
    if result.kind is FamilyKind.NONE:
        return not result.witness
    piece = tuple(range(t.n))
    for step in result.witness:
        if step.vertex not in piece:
            return False
        got = sorted(sorted(c) for c in split(t, piece, step.vertex))
        if got != sorted(sorted(vs) for vs, _ in step.components):
            return False
        piece = next(
            (tuple(vs) for vs, label in step.components if label not in _BASE_LABELS),
            None,
        )
        if piece is None:
            return True
    return True


# -- generators -----------------------------------------------------------------


def _gamma0_sizes(M: int, n_max: int) -> list[int]:
    return [n for n in range(1, n_max + 1) if _gamma0_path_size(n, M)]


def _gamma2_0_sizes(M: int, n_max: int, mode: Gamma2Mode) -> list[int]:
    return [n for n in range(1, n_max + 1) if _gamma2_0_path_size(n, M, mode)]


def _size_multisets(sizes: list[int], count_min: int, total_max: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples from `sizes` with at least count_min entries and
    bounded total; the total bound keeps the enumeration finite."""
    usable = sorted({s for s in sizes if s <= total_max})

    def rec(budget: int, cap_idx: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if len(acc) >= count_min:
            yield tuple(acc)
        for idx in range(cap_idx, -1, -1):
            s = usable[idx]
            if s <= budget:
                acc.append(s)
                yield from rec(budget - s, idx, acc)
                acc.pop()

    if usable:
        yield from rec(total_max, len(usable) - 1, [])


def _keep_join(out: dict, sizes: tuple[int, ...], *head: tuple[Tree, int]) -> None:
    """Join a fresh vertex to the given vertex of each head part, then to an
    end of a path per size, in that order; keep the tree in out under its
    canonical code unless an isomorphic tree is already kept there."""
    edges: list[tuple[int, int]] = []
    offset = 1
    for part, attach in [*head, *((path_tree(s), 0) for s in sizes)]:
        edges.extend((u + offset, v + offset) for u, v in part.edges)
        edges.append((0, attach + offset))
        offset += part.n
    t = Tree.from_edges(offset, edges)
    out.setdefault(canonical_code(t), t)


def _distinct_by_attachment(t: Tree, candidates: list[int]) -> list[int]:
    """Deduplicate attachment points by the isomorphism class of the rooted
    tree; cheap symmetry cut for path legs and twin leaves."""
    seen = set()
    out = []
    for v in candidates:
        key = _rooted_code(t, v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def generate(
    family: FamilyKind,
    k: int,
    lam: LambdaSpec,
    n_max: int,
    mode: Gamma2Mode = BROAD,
) -> Iterator[Tree]:
    """Every member of GAMMA(k) or GAMMA2(k) at lambda with at most n_max
    vertices, one per isomorphism class, built bottom-up by the recursive
    definitions and deduplicated canonically.  Deterministic order: by
    vertex count, then canonical code.
    """
    if k < 0 or n_max < 1:
        raise ValueError("k must be >= 0 and n_max >= 1")
    if family is FamilyKind.GAMMA:
        members = _generate_gamma(k, lam.M, n_max)
    elif family is FamilyKind.GAMMA2:
        members = _generate_gamma2(k, lam, n_max, mode)
    else:
        raise ValueError("family must be GAMMA or GAMMA2")
    for _, tree in sorted(members.items(), key=lambda kv: (kv[1].n, kv[0])):
        yield tree


def _generate_gamma(k: int, M: int, n_max: int) -> dict:
    # no member fits below one vertex; stopping here bounds the recursion
    # depth by n_max / 3 whatever k is
    if n_max < 1:
        return {}
    base_sizes = _gamma0_sizes(M, n_max)
    if k == 0:
        return {canonical_code(p): p for p in map(path_tree, base_sizes)}
    out: dict = {}
    if k == 1:
        for sizes in _size_multisets(base_sizes, 3, n_max - 1):
            _keep_join(out, sizes)
        return out
    for rec in _generate_gamma(k - 1, M, n_max - 3).values():
        for attach in _distinct_by_attachment(rec, pendant_vertices(rec)):
            for sizes in _size_multisets(base_sizes, 2, n_max - 1 - rec.n):
                _keep_join(out, sizes, (rec, attach))
    return out


def _generate_gamma2(k: int, lam: LambdaSpec, n_max: int, mode: Gamma2Mode) -> dict:
    M = lam.M
    if n_max < 1:  # as in _generate_gamma
        return {}
    g0_sizes = _gamma0_sizes(M, n_max)
    g20_sizes = _gamma2_0_sizes(M, n_max, mode)
    if k == 0:
        return {canonical_code(p): p for p in map(path_tree, g20_sizes)}
    out: dict = {}
    if k == 1:
        for sizes in _size_multisets(g20_sizes, 3, n_max - 1):
            if len(sizes) == 3:
                _keep_join(out, sizes)
        for lead in g20_sizes:
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - lead):
                _keep_join(out, (lead,) + sizes)
        return out
    # clause (1): recursive GAMMA2 component, restricted to members that
    # have lambda as an eigenvalue, joined at one of its pendants
    for rec in _generate_gamma2(k - 1, lam, n_max - 3, mode).values():
        if not _carries(rec, lam):
            continue
        for attach in _distinct_by_attachment(rec, pendant_vertices(rec)):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                _keep_join(out, sizes, (rec, attach))
    for rec in _generate_gamma(k - 1, M, n_max - 3).values():
        # clause (2), same-level shape: GAMMA component joined at one of its
        # major vertices (the join keeps the major count at k)
        for attach in major_vertices(rec):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                _keep_join(out, sizes, (rec, attach))
        # clause (3): GAMMA component plus exactly one base GAMMA2 path
        for attach in _distinct_by_attachment(rec, pendant_vertices(rec)):
            for lead in g20_sizes:
                for sizes in _size_multisets(g0_sizes, 1, n_max - 1 - rec.n - lead):
                    _keep_join(out, (lead,) + sizes, (rec, attach))
    # clause (2), promoted-attach shape: a GAMMA member two levels down
    # joined at a degree-2 vertex, which the join promotes to a new major
    for rec in _generate_gamma(k - 2, M, n_max - 3).values():
        degree2 = [v for v in range(rec.n) if rec.degree(v) == 2]
        for attach in _distinct_by_attachment(rec, degree2):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                _keep_join(out, sizes, (rec, attach))
    return out
