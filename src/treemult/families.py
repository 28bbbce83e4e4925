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
GAMMA2 component.  Membership therefore depends on lambda only through its
conjugacy orbit (denominator M and the parity of i), and only on the
isomorphism class of the tree; the classifier memoizes on canonical codes,
so sweeps revisit shared subtrees for free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from treemult.poly import LambdaSpec
from treemult.tree import (
    Component,
    Tree,
    _rooted_code,
    canonical_code,
    delete_vertex,
    is_path,
    is_pendant_in,
    major_count,
    major_vertices,
    path_tree,
    pendant_vertices,
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


def is_gamma0(t: Tree, lam: LambdaSpec) -> bool:
    """Paths with lambda as a (necessarily simple) eigenvalue."""
    return is_path(t) and _gamma0_path_size(t.n, lam.M)


def is_gamma2_0(t: Tree, lam: LambdaSpec, mode: Gamma2Mode = BROAD) -> bool:
    """Base GAMMA2 paths under the requested reading."""
    return is_path(t) and _gamma2_0_path_size(t.n, lam.M, mode)


# -- recursive membership ------------------------------------------------------

# memo: (canonical code, family kind, key fields) -> bool.  Writes are
# idempotent, so plain dict assignment is safe under concurrent use.
_member_memo: dict = {}


def _components(t: Tree, w: int) -> tuple[Component, ...]:
    return delete_vertex(t, w).components


def _attach_is_pendant(comp: Component) -> bool:
    return is_pendant_in(comp.tree, comp.attach)


def _carries(t: Tree, lam: LambdaSpec) -> bool:
    """Whether lambda is an eigenvalue of t at all."""
    from treemult.spectrum import multiplicity

    return multiplicity(t, lam) >= 1


def _in_gamma(t: Tree, M: int, k: int) -> bool:
    if major_count(t) != k:
        return False
    if k == 0:
        return is_path(t) and _gamma0_path_size(t.n, M)
    key = (canonical_code(t), M, k, "G")
    cached = _member_memo.get(key)
    if cached is not None:
        return cached
    result = any(_gamma_step_at(t, w, M, k) is not None for w in major_vertices(t))
    _member_memo[key] = result
    return result


def _gamma_step_at(t: Tree, w: int, M: int, k: int):
    """Component disposition certifying t in GAMMA(k) via major vertex w,
    or None.  All attach vertices must be pendant in their components; at
    level 1 every component is a base path, above that exactly one component
    is a GAMMA(k-1) member and the rest are base paths."""
    comps = _components(t, w)
    if any(not _attach_is_pendant(c) for c in comps):
        return None
    if k == 1:
        if all(is_path(c.tree) and _gamma0_path_size(c.tree.n, M) for c in comps):
            return [(c, "gamma0") for c in comps]
        return None
    deep = [c for c in comps if not (is_path(c.tree) and _gamma0_path_size(c.tree.n, M))]
    if len(deep) != 1 or not _in_gamma(deep[0].tree, M, k - 1):
        return None
    return [
        (c, f"gamma({k - 1})" if c is deep[0] else "gamma0") for c in comps
    ]


def _in_gamma2(t: Tree, lam: LambdaSpec, k: int, mode: Gamma2Mode) -> bool:
    if major_count(t) != k:
        return False
    if k == 0:
        return is_path(t) and _gamma2_0_path_size(t.n, lam.M, mode)
    # the eigenvalue-carrying side condition distinguishes conjugacy orbits
    # of the same denominator, so the orbit (M, parity of i) keys the memo
    key = (canonical_code(t), lam.M, lam.i % 2, k, "G2", mode.value)
    cached = _member_memo.get(key)
    if cached is not None:
        return cached
    result = any(
        _gamma2_step_at(t, w, lam, k, mode) is not None for w in major_vertices(t)
    )
    _member_memo[key] = result
    return result


def _gamma2_step_at(t: Tree, w: int, lam: LambdaSpec, k: int, mode: Gamma2Mode):
    """Component disposition certifying t in GAMMA2(k) via w, or None.

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
    comps = _components(t, w)
    if k == 1:
        if any(not _attach_is_pendant(c) for c in comps):
            return None
        g0 = [c for c in comps if _gamma0_path_size(c.tree.n, M)]
        g20 = [c for c in comps if _gamma2_0_path_size(c.tree.n, M, mode)]
        # components of a gamma(t)=1 tree are paths, and the two base sets
        # are disjoint, so the split is a partition
        if len(comps) == 3 and len(g20) == 3:
            return [(c, "gamma2_0") for c in comps]
        if len(g20) == 1 and len(g0) == len(comps) - 1:
            return [(c, "gamma2_0" if c in g20 else "gamma0") for c in comps]
        return None

    non_pendant = [c for c in comps if not _attach_is_pendant(c)]
    if len(non_pendant) == 1:
        # clause (2): the distinguished component carries the non-pendant
        # join.  Its own major count is one less than k when the attach
        # vertex is already major there, two less when the attach vertex has
        # degree 2 and is promoted to major only by the join (the member
        # count gamma(t) = k, checked at entry, forces exactly these two
        # shapes); either way the component is a GAMMA member of its own
        # level, which is all the multiplicity accounting uses.
        t1 = non_pendant[0]
        others = [c for c in comps if c is not t1]
        level = k - 1 if t1.tree.degree(t1.attach) >= 3 else k - 2
        if (
            level >= 0
            and all(is_path(c.tree) and _gamma0_path_size(c.tree.n, M) for c in others)
            and _in_gamma(t1.tree, M, level)
        ):
            return [
                (c, f"gamma({level})|non-pendant" if c is t1 else "gamma0")
                for c in comps
            ]
    if non_pendant:
        return None

    paths = [c for c in comps if is_path(c.tree)]
    deep = [c for c in comps if not is_path(c.tree)]
    g0 = [c for c in paths if _gamma0_path_size(c.tree.n, M)]
    g20 = [c for c in paths if _gamma2_0_path_size(c.tree.n, M, mode)]
    if len(paths) != len(g0) + len(g20):
        return None
    if (
        len(deep) == 1
        and not g20
        and _in_gamma2(deep[0].tree, lam, k - 1, mode)
        and _carries(deep[0].tree, lam)
    ):
        # clause (1)
        return [
            (c, f"gamma2({k - 1})" if c is deep[0] else "gamma0") for c in comps
        ]
    if len(deep) == 1 and len(g20) == 1 and _in_gamma(deep[0].tree, M, k - 1):
        # clause (3)
        out = []
        for c in comps:
            if c is deep[0]:
                out.append((c, f"gamma({k - 1})"))
            elif c in g20:
                out.append((c, "gamma2_0"))
            else:
                out.append((c, "gamma0"))
        return out
    return None


# -- public classifier ----------------------------------------------------------


def classify(t: Tree, lam: LambdaSpec, mode: Gamma2Mode = BROAD) -> FamilyResult:
    """Classify t against the two families at lambda.

    Returns GAMMA(k) when t belongs to the multiplicity-(p-1) family,
    GAMMA2(k) for the multiplicity-(p-2) family, NONE otherwise; k is always
    the number of major vertices.  The result carries a replayable witness
    chain naming vertices of t itself.
    """
    k = major_count(t)
    if k == 0:
        if is_gamma0(t, lam):
            return FamilyResult(FamilyKind.GAMMA, 0)
        if is_gamma2_0(t, lam, mode):
            return FamilyResult(FamilyKind.GAMMA2, 0)
        return NON_MEMBER
    if _in_gamma(t, lam.M, k):
        return FamilyResult(FamilyKind.GAMMA, k, _witness(t, lam, k, mode, gamma2=False))
    if _in_gamma2(t, lam, k, mode):
        return FamilyResult(FamilyKind.GAMMA2, k, _witness(t, lam, k, mode, gamma2=True))
    return NON_MEMBER


_BASE_LABELS = ("gamma0", "gamma2_0")


def _witness(t: Tree, lam: LambdaSpec, k: int, mode: Gamma2Mode, gamma2: bool) -> tuple[WitnessStep, ...]:
    """Reconstruct the first successful decomposition chain, outer to inner,
    mapping component-local vertex ids back to the coordinates of t."""
    steps: list[WitnessStep] = []
    mapping = tuple(range(t.n))  # current-tree local id -> original id
    level, in_gamma2 = k, gamma2
    current = t
    while level >= 1:
        found = None
        for w in major_vertices(current):
            disp = (
                _gamma2_step_at(current, w, lam, level, mode)
                if in_gamma2
                else _gamma_step_at(current, w, lam.M, level)
            )
            if disp is not None:
                found = (w, disp)
                break
        if found is None:  # membership was certified, so this cannot happen
            break
        w, disp = found
        steps.append(
            WitnessStep(
                vertex=mapping[w],
                clause="gamma2" if in_gamma2 else "gamma",
                components=tuple(
                    (tuple(mapping[v] for v in comp.parent_ids), label)
                    for comp, label in disp
                ),
            )
        )
        recursive = [(c, label) for c, label in disp if label not in _BASE_LABELS]
        if not recursive:
            break
        comp, label = recursive[0]
        in_gamma2 = label.startswith("gamma2(")
        mapping = tuple(mapping[v] for v in comp.parent_ids)
        current = comp.tree
        # recursive components are members at their own major count, which
        # is k-2 rather than k-1 for the promoted-attach shape of clause (2)
        level = major_count(current)
    return tuple(steps)


def replay_witness(t: Tree, result: FamilyResult) -> bool:
    """Check a witness chain against t: deleting each recorded vertex must
    reproduce the recorded component vertex sets."""
    if result.kind is FamilyKind.NONE:
        return not result.witness
    current = t
    mapping = tuple(range(t.n))
    for step in result.witness:
        local = {orig: loc for loc, orig in enumerate(mapping)}
        if step.vertex not in local:
            return False
        comps = _components(current, local[step.vertex])
        got = sorted(tuple(sorted(mapping[v] for v in c.parent_ids)) for c in comps)
        want = sorted(tuple(sorted(vs)) for vs, _ in step.components)
        if got != want:
            return False
        nxt = next(
            (vs for vs, label in step.components if label not in _BASE_LABELS),
            None,
        )
        if nxt is None:
            return True
        target = set(nxt)
        comp = next(c for c in comps if {mapping[v] for v in c.parent_ids} == target)
        mapping = tuple(mapping[v] for v in comp.parent_ids)
        current = comp.tree
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


def _join(parts: list[tuple[Tree, int]]) -> Tree:
    """New tree: a fresh vertex joined to the given vertex of each part."""
    edges: list[tuple[int, int]] = []
    offset = 1
    for part, attach in parts:
        edges.extend((u + offset, v + offset) for u, v in part.edges)
        edges.append((0, attach + offset))
        offset += part.n
    return Tree.from_edges(offset, edges)


def _join_paths_only(path_sizes: tuple[int, ...]) -> Tree:
    return _join([(path_tree(s), 0) for s in path_sizes])


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


def _distinct_pendants(t: Tree) -> list[int]:
    return _distinct_by_attachment(t, pendant_vertices(t))


def _distinct_degree2(t: Tree) -> list[int]:
    return _distinct_by_attachment(t, [v for v in range(t.n) if t.degree(v) == 2])


def generate(
    family: FamilyKind | str,
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
    if isinstance(family, str):
        family = FamilyKind(family.upper())
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
    if k == 0:
        return {
            canonical_code(path_tree(n)): path_tree(n)
            for n in _gamma0_sizes(M, n_max)
        }
    out: dict = {}
    base_sizes = _gamma0_sizes(M, n_max)
    if k == 1:
        for sizes in _size_multisets(base_sizes, 3, n_max - 1):
            t = _join_paths_only(sizes)
            out.setdefault(canonical_code(t), t)
        return out
    for rec in _generate_gamma(k - 1, M, n_max - 3).values():
        for attach in _distinct_pendants(rec):
            for sizes in _size_multisets(base_sizes, 2, n_max - 1 - rec.n):
                t = _join([(rec, attach)] + [(path_tree(s), 0) for s in sizes])
                out.setdefault(canonical_code(t), t)
    return out


def _generate_gamma2(k: int, lam: LambdaSpec, n_max: int, mode: Gamma2Mode) -> dict:
    M = lam.M
    if k == 0:
        return {
            canonical_code(path_tree(n)): path_tree(n)
            for n in _gamma2_0_sizes(M, n_max, mode)
        }
    out: dict = {}
    g0_sizes = _gamma0_sizes(M, n_max)
    g20_sizes = _gamma2_0_sizes(M, n_max, mode)
    if k == 1:
        for sizes in _size_multisets(g20_sizes, 3, n_max - 1):
            if len(sizes) != 3:
                continue
            t = _join_paths_only(sizes)
            out.setdefault(canonical_code(t), t)
        for lead in g20_sizes:
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - lead):
                t = _join_paths_only((lead,) + sizes)
                out.setdefault(canonical_code(t), t)
        return out
    # clause (1): recursive GAMMA2 component, restricted to members that
    # have lambda as an eigenvalue, joined at one of its pendants
    for rec in _generate_gamma2(k - 1, lam, n_max - 3, mode).values():
        if not _carries(rec, lam):
            continue
        for attach in _distinct_pendants(rec):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                t = _join([(rec, attach)] + [(path_tree(s), 0) for s in sizes])
                out.setdefault(canonical_code(t), t)
    for rec in _generate_gamma(k - 1, M, n_max - 3).values():
        # clause (2), same-level shape: GAMMA component joined at one of its
        # major vertices (the join keeps the major count at k)
        for attach in major_vertices(rec):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                t = _join([(rec, attach)] + [(path_tree(s), 0) for s in sizes])
                out.setdefault(canonical_code(t), t)
        # clause (3): GAMMA component plus exactly one base GAMMA2 path
        for attach in _distinct_pendants(rec):
            for lead in g20_sizes:
                budget = n_max - 1 - rec.n - lead
                if budget < 0:
                    continue
                for sizes in _size_multisets(g0_sizes, 1, budget):
                    t = _join(
                        [(rec, attach), (path_tree(lead), 0)]
                        + [(path_tree(s), 0) for s in sizes]
                    )
                    out.setdefault(canonical_code(t), t)
    # clause (2), promoted-attach shape: a GAMMA member two levels down
    # joined at a degree-2 vertex, which the join promotes to a new major
    for rec in _generate_gamma(k - 2, M, n_max - 3).values():
        for attach in _distinct_degree2(rec):
            for sizes in _size_multisets(g0_sizes, 2, n_max - 1 - rec.n):
                t = _join([(rec, attach)] + [(path_tree(s), 0) for s in sizes])
                out.setdefault(canonical_code(t), t)
    return out
