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
classify keeps one reading of the tree per M, and its verdicts serve every
orbit and mode at that M (see there).

Both families join paths at major vertices, so the lengths of those paths
already decide most trees.  A piece (a connected part of the classified
tree) has as segments its legs (a pendant vertex up to the nearest major
vertex) and its inner paths between two majors; a segment is defective when
M does not divide its length plus one.  For k >= 1 a piece is in GAMMA(k)
exactly when no segment is defective, and a GAMMA2(k) piece has 1 or 3
defective segments (the argument is at _defective).  So the GAMMA verdict
is the count alone, taken once per tree and M, and the GAMMA2 clause search
runs only on the pieces with 1 or 3.

The search splits no vertex tuple.  Every clause above level 1 leaves one
component that is not a base path joined at a pendant vertex, so its major
w has a single inner path, and that component is the piece less w and its
legs.  So every piece the search reaches is the tree less some peeled
majors and their legs; it is named by the set of its majors (a bit mask),
and its components at a major, their shapes, sizes and defect counts are
read off the arms that one walk over the tree finds (_skeleton).  Verdicts
are kept per tree and M and dropped when another tree comes in.  A
member's witness, in the classified tree's own vertex ids, is built the
first time it is read: the same clause logic picks each level's major in
piece order, and the piece is split into vertex tuples there alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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


class FamilyResult:
    """Outcome of classification.

    For members, k equals the number of major vertices of the classified
    tree, and the witness chain records one decomposition per level, outer
    to inner; replaying the deletions reproduces the dispositions.  The
    witness may be given as a function that builds the chain, which runs
    the first time the witness is read; classify passes one, since the
    sweep reads only the tag.
    """

    __slots__ = ("kind", "k", "_witness")

    def __init__(self, kind: FamilyKind, k: int | None = None, witness=()):
        self.kind = kind
        self.k = k
        self._witness = witness

    @property
    def witness(self) -> tuple[WitnessStep, ...]:
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

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


class _Skeleton(NamedTuple):
    """A tree's segments (see _skeleton)."""

    majors: list[int]  # the major vertices, in vertex order
    bit: dict[int, int]  # major -> its bit in a piece mask
    arms: dict[int, list[tuple[int, int, int | None]]]  # major -> (x, size, far) per neighbour x
    sizes: list[int]  # every segment's size, an inner path counted once


def _skeleton(t: Tree) -> _Skeleton:
    """The tree's majors, each with one arm per neighbour, and its segment
    sizes, from one walk.

    A segment is a leg (a pendant vertex up to its nearest major vertex, the
    major excluded) or an inner path between two majors; its size is L + 1,
    where L is the leg's vertex count or the inner path's number of degree-2
    vertices.  A major w's arm through its neighbour x is (x, size, far) for
    the segment that x starts, far being the major at its other end, or None
    for a leg.  A path has no segment."""
    adj = t.adj
    majors = [w for w in range(t.n) if len(adj[w]) >= 3]
    arms: dict = {}
    sizes = []
    for w in majors:
        arms[w] = []
        for x in adj[w]:
            prev, v, count = w, x, 1  # count: vertices from x to v
            while len(adj[v]) == 2:
                a, b = adj[v]
                prev, v = v, (b if a == prev else a)
                count += 1
            if len(adj[v]) == 1:
                arms[w].append((x, count + 1, None))
                sizes.append(count + 1)
            else:
                arms[w].append((x, count, v))
                if w < v:
                    sizes.append(count)
    return _Skeleton(majors, {w: 1 << idx for idx, w in enumerate(majors)}, arms, sizes)


class _Reading:
    """classify's state for one tree at one M, which every orbit and mode at
    that M share: the tree's segments and defective segment count, and per
    piece the GAMMA2 verdicts, keyed by mask and mode.  Membership reads
    lambda only through M (module docstring), so the first lambda at M
    serves them all."""

    __slots__ = ("t", "sk", "lam", "defects", "verdicts")

    def __init__(self, t: Tree, sk: _Skeleton, lam: LambdaSpec):
        self.t = t
        self.sk = sk
        self.lam = lam
        self.defects = _defective(sk.sizes, lam.M)
        self.verdicts: dict = {}


# classify's state for the tree it last classified, _memo_tree: M -> its
# _Reading at M.  classify clears it when it gets a different tree, so it
# holds one tree's readings.  It is per process state, not for concurrent
# classification from several threads.
_member_memo: dict = {}
_memo_tree: Tree | None = None


def _carries(t: Tree, lam: LambdaSpec) -> bool:
    """Whether lambda is an eigenvalue of t at all."""
    return spectrum.multiplicity(t, lam) >= 1


def _piece_carries(r: _Reading, mask: int) -> bool:
    """_carries on the piece made of the majors in mask and their arms.
    Not cached: pieces rarely repeat, and `char_poly`'s memo catches most."""
    bit = r.sk.bit
    start = next(w for w in r.sk.majors if mask & bit[w])
    piece, seen = [start], {start}
    for v in piece:
        for u in r.t.adj[v]:
            if u not in seen and (u not in bit or mask & bit[u]):
                seen.add(u)
                piece.append(u)
    return _carries(induced(r.t, piece), r.lam)


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
    return len([size for size in segments if size % M])


def _gamma(k: int, size: int, defects: int, M: int) -> bool:
    """Whether a piece with k major vertices, `size` vertices and `defects`
    defective segments is in GAMMA(k): a GAMMA(0) path at k = 0, and above
    that a piece with no defective segment (see _defective)."""
    return _gamma0_path_size(size, M) if k == 0 else defects == 0


def _gamma2(r: _Reading, mode: Gamma2Mode, mask: int, k: int, defects: int) -> bool:
    """Whether the piece made of the k >= 1 majors in mask and their arms,
    with `defects` defective segments, is in GAMMA2(k): some major of it
    matches a clause (see _gamma2_clause).  The verdict is kept per mask;
    without it a GAMMA2 non-member with many major vertices is searched
    once per order of peeling them, which grows exponentially with the
    major count."""
    if defects not in (1, 3):
        return False
    key = (mask, mode is STRICT)  # a bool hashes faster than the enum
    verdict = r.verdicts.get(key)
    if verdict is None:
        sk = r.sk
        verdict = r.verdicts[key] = any(
            _gamma2_clause(r, mode, mask, k, defects, w) is not None
            for w in sk.majors
            if mask & sk.bit[w]
        )
    return verdict


def _gamma2_clause(r: _Reading, mode: Gamma2Mode, mask: int, k: int, defects: int, w: int):
    """The GAMMA2(k) clause the piece of mask matches at its major w, or
    None; the one clause logic that both the verdict (_gamma2) and the
    witness (_gamma2_chain) ask.

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

    Each component of piece - w is read off one arm of w.  A leg, or an arm
    to a major outside the mask (peeled earlier), is a path of size - 1
    vertices joined at an end, so at a pendant vertex.  An arm into the
    piece gives a component that is not a path, joined at the inner path's
    first vertex, a pendant of it; or, when the inner path is empty, joined
    at the far major itself, which is not pendant there.  Every clause
    leaves one component at most that is not a base path joined at a
    pendant vertex, so w matches none unless it has one arm into the piece
    at most (exactly one at level k >= 2), and then that component is the
    piece less w and its legs: the majors in mask less w's bit.

    Returns (labels, one, sub): a label per arm of w, in arm order; the
    index of the arm whose component is not a base path (None at level 1);
    and a function from that component's vertex tuple to its witness chain.
    """
    sk, M = r.sk, r.lam.M
    arms = sk.arms[w]
    g0, g20, legs = [], [], []  # per arm: base path flags; the legs' sizes
    one = None
    for idx, (x, size, far) in enumerate(arms):
        if far is None or not mask & sk.bit[far]:
            g0.append(_gamma0_path_size(size - 1, M))
            g20.append(_gamma2_0_path_size(size - 1, M, mode))
            legs.append(size)
        elif one is None:
            one = idx
            g0.append(False)
            g20.append(False)
        else:
            return None
    labels = ["gamma2_0" if b else "gamma0" for b in g20]
    if k == 1:
        # the components are legs, and the two base sets are disjoint, so
        # the split is a partition
        if (len(arms) == 3 and all(g20)) or (sum(g20) == 1 and sum(g0) == len(arms) - 1):
            return labels, None, None
        return None
    t = r.t
    sub_mask = mask & ~sk.bit[w]
    sub_defects = defects - _defective(legs, M)
    far = arms[one][2]
    if arms[one][1] == 1:
        # clause (2): the distinguished component carries the non-pendant
        # join.  Its own major count is one less than k when the attach
        # vertex is already major there, two less when the attach vertex
        # has degree 2 and is promoted to major only by the join (the
        # member count gamma(t) = k forces exactly these two shapes);
        # either way the component is a GAMMA member of its own level,
        # which is all the multiplicity accounting uses.  The component
        # loses the empty inner path to w, and when its attach vertex drops
        # to degree 2 the two segments through it become one (a path, at
        # level 0).
        through = [s for y, s, _ in sk.arms[far] if y != w]
        level = k - 1 if len(through) >= 3 else k - 2
        if not all(b for idx, b in enumerate(g0) if idx != one):
            return None
        comp_defects = sub_defects - _defective([1], M)
        if level == k - 2:
            comp_defects += _defective([sum(through)], M) - _defective(through, M)
        if not _gamma(level, sum(through) - 1, comp_defects, M):
            return None
        labels[one] = f"gamma({level})|non-pendant"
        return labels, one, lambda comp: _gamma_chain(t, comp, level)
    if sum(g0) + sum(g20) != len(arms) - 1:
        return None
    if not any(g20):
        # clause (1)
        if _gamma2(r, mode, sub_mask, k - 1, sub_defects) and _piece_carries(r, sub_mask):
            labels[one] = f"gamma2({k - 1})"
            return (
                labels,
                one,
                lambda comp: _gamma2_chain(r, mode, comp, sub_mask, k - 1, sub_defects),
            )
    elif sum(g20) == 1:
        # clause (3)
        if _gamma(k - 1, 0, sub_defects, M):
            labels[one] = f"gamma({k - 1})"
            return labels, one, lambda comp: _gamma_chain(t, comp, k - 1)
    return None


# -- witness chains ---------------------------------------------------------------


def _gamma2_chain(
    r: _Reading, mode: Gamma2Mode, piece: tuple[int, ...], mask: int, k: int, defects: int
) -> tuple[WitnessStep, ...]:
    """The witness chain of a GAMMA2(k) member piece, outer step first: the
    vertex tuple piece, whose majors are those in mask.  Its majors are
    tried in piece order, and the piece is split only at the first whose
    clause matches."""
    sk = r.sk
    for w in piece:
        if w in sk.bit and mask & sk.bit[w]:
            found = _gamma2_clause(r, mode, mask, k, defects, w)
            if found is not None:
                break
    labels, one, sub = found
    comps = split(r.t, piece, w)
    label = {x: lab for (x, _, _), lab in zip(sk.arms[w], labels)}
    step = WitnessStep(w, "gamma2", tuple((c, label[c[0]]) for c in comps))
    if one is None:
        return (step,)
    deep = sk.arms[w][one][0]
    return (step,) + sub(next(c for c in comps if c[0] == deep))


def _gamma_chain(t: Tree, piece: tuple[int, ...], k: int) -> tuple[WitnessStep, ...]:
    """The witness chain of a GAMMA(k) member piece, outer step first.

    With no defective segment, a level k >= 2 piece peels at any major with
    a single inner path and at no other (two inner paths leave two
    components that are not paths), and at level 1 at its one major; the
    legs are GAMMA(0) paths.  So each level splits the piece once, at the
    first such major in piece order, which is the order of the induced
    piece's vertex ids."""
    chain = []
    while k:
        sk = _skeleton(induced(t, piece))
        for local in sk.majors:
            inner = {piece[x] for x, _, far in sk.arms[local] if far is not None}
            if len(inner) == (k > 1):
                break
        w = piece[local]
        comps = split(t, piece, w)
        labels = [f"gamma({k - 1})" if c[0] in inner else "gamma0" for c in comps]
        chain.append(WitnessStep(w, "gamma", tuple(zip(comps, labels))))
        piece = next((c for c in comps if c[0] in inner), ())
        k -= 1
    return tuple(chain)


# -- public classifier ----------------------------------------------------------


def classify(t: Tree, lam: LambdaSpec, mode: Gamma2Mode = BROAD) -> FamilyResult:
    """Classify t against the two families at lambda.

    Returns GAMMA(k) when t belongs to the multiplicity-(p-1) family,
    GAMMA2(k) for the multiplicity-(p-2) family, NONE otherwise; k is always
    the number of major vertices.  The result carries a replayable witness
    chain naming vertices of t itself, built the first time it is read.
    """
    global _memo_tree
    # the sweep passes one Tree object for all of a tree's calls
    if t is not _memo_tree and t != _memo_tree:
        _member_memo.clear()
        _memo_tree = t
    # The result depends on lambda only through M (module docstring), so
    # every orbit at one M decides from the reading the first one made, and
    # its GAMMA2 verdicts serve the repeats.  At M = 2 both readings of
    # GAMMA2(0) are "n even", so the modes share their verdicts there.
    M = lam.M
    if M == 2:
        mode = BROAD
    r = _member_memo.get(M)
    if r is None:
        # every reading of the tree shares the first one's segments
        sk = next(iter(_member_memo.values())).sk if _member_memo else _skeleton(t)
        r = _member_memo[M] = _Reading(t, sk, lam)
    k = len(r.sk.majors)
    if _gamma(k, t.n, r.defects, M):
        return FamilyResult(FamilyKind.GAMMA, k, lambda: _gamma_chain(t, tuple(range(t.n)), k))
    mask = (1 << k) - 1
    if k and _gamma2(r, mode, mask, k, r.defects):
        return FamilyResult(
            FamilyKind.GAMMA2,
            k,
            lambda: _gamma2_chain(r, mode, tuple(range(t.n)), mask, k, r.defects),
        )
    if not k and _gamma2_0_path_size(t.n, M, mode):
        return FamilyResult(FamilyKind.GAMMA2, 0)
    return NON_MEMBER


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
