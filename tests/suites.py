"""Property suites for the supporting facts the family machinery rests on:
simple path eigenvalues, Parter vertices, the branch multiplicity drop and
pendant deletion inside GAMMA members.

Each suite takes its ranges explicitly and returns (checked, violations):
how many cases met the suite's hypothesis, and a dict per case that broke
its claim.  The tree suites enumerate every tree on 2..n_max vertices and
take one spec per conjugacy orbit with denominator at most M_max.
"""

from __future__ import annotations

import math

from treemult.families import FamilyKind, generate
from oracles import path_charpoly
from treemult.poly import LambdaSpec, spec_orbits
from treemult.spectrum import factor_multiplicity, multiplicity
from treemult.tree import Tree, emit_graph6, enumerate_trees, induced, pendant_vertices, split


def path_simplicity(n_max: int, M_max: int) -> tuple[int, list]:
    """Every eigenvalue of a path is simple: m(P_n, lambda) <= 1, with
    equality exactly when M divides n + 1."""
    violations = []
    checked = 0
    orbits = spec_orbits(M_max)
    for n in range(1, n_max + 1):
        cp = path_charpoly(n)
        for mu, specs in orbits:
            m, _ = factor_multiplicity(cp, mu)
            expected = 1 if (n + 1) % specs[0].M == 0 else 0
            checked += 1
            if m != expected:
                violations.append({"n": n, "lambda": [specs[0].i, specs[0].M], "m": m})
    return checked, violations


def _vertex_deletions(n_max: int, M_max: int):
    """Per tree on 2..n_max vertices: (t, specs, parts, m, comp_m), where
    parts[v] lists each component H of T - v as a tree, with the trees of H
    minus its attach vertex (the first vertex of its piece); m[o] is the
    multiplicity of specs[o] in T and comp_m[v][o] its multiplicity in each
    component of T - v."""
    specs = [orbit[0] for _, orbit in spec_orbits(M_max)]
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            whole = range(t.n)
            parts = [
                [
                    (induced(t, c), [induced(t, d) for d in split(t, c, c[0])])
                    for c in split(t, whole, v)
                ]
                for v in whole
            ]
            m = [multiplicity(t, spec) for spec in specs]
            comp_m = [
                [[multiplicity(h, spec) for h, _ in part] for spec in specs] for part in parts
            ]
            yield t, specs, parts, m, comp_m


def _parter_violation(t: Tree, spec: LambdaSpec, part: str) -> dict:
    return {"tree": emit_graph6(t), "lambda": [spec.i, spec.M], "part": part}


def parter_vertex(n_max: int, M_max: int) -> tuple[int, list]:
    """Parter vertex existence: (i) if lambda is an eigenvalue of T and
    survives some single-vertex deletion at full multiplicity, some vertex
    w has m(T - w) = m(T) + 1; (ii) if m(T) >= 2, such a w exists with
    degree >= 3 and at least three components of T - w carrying lambda."""
    violations = []
    checked = 0
    for t, specs, _, m, comp_m in _vertex_deletions(n_max, M_max):
        whole = range(t.n)
        for o, spec in enumerate(specs):
            if m[o] < 1:
                continue
            drops = [sum(comp_m[v][o]) for v in whole]
            if max(drops) < m[o]:
                if m[o] >= 2:
                    # cannot happen: for m >= 2 a Parter vertex exists,
                    # so its deletion already satisfies the hypothesis
                    violations.append(_parter_violation(t, spec, "hypothesis"))
                continue
            checked += 1
            parters = [v for v in whole if drops[v] == m[o] + 1]
            if not parters:
                violations.append(_parter_violation(t, spec, "i"))
            elif m[o] >= 2 and not any(
                t.degree(v) >= 3 and sum(x >= 1 for x in comp_m[v][o]) >= 3
                for v in parters
            ):
                violations.append(_parter_violation(t, spec, "ii"))
    return checked, violations


def branch_equivalence(n_max: int, M_max: int) -> tuple[int, list]:
    """When lambda is an eigenvalue of T - w, m(T - w) = m(T) + 1 holds
    exactly when some component H of T - w loses multiplicity on deleting
    its attach vertex."""
    violations = []
    checked = 0
    for t, specs, parts, m, comp_m in _vertex_deletions(n_max, M_max):
        for w in range(t.n):
            for o, spec in enumerate(specs):
                m_minus = sum(comp_m[w][o])
                if m_minus < 1:
                    continue
                checked += 1
                lhs = m_minus == m[o] + 1
                rhs = any(
                    m_h - sum(multiplicity(d, spec) for d in rest) == 1
                    for m_h, (_, rest) in zip(comp_m[w][o], parts[w])
                )
                if lhs != rhs:
                    violations.append(
                        {
                            "tree": emit_graph6(t),
                            "vertex": w,
                            "lambda": [spec.i, spec.M],
                            "m": m[o],
                            "m_minus": m_minus,
                        }
                    )
    return checked, violations


def family_pendant_deletion(k_max: int, n_max: int, M_max: int) -> tuple[int, list]:
    """Inside the generated GAMMA(k) members at lambda = 2cos(pi/M), for
    k <= k_max, n <= n_max and 2 <= M <= M_max, at every spec with that
    denominator M: lambda is an eigenvalue, and deleting any pendant vertex
    drops the multiplicity by exactly one."""
    violations = []
    checked = 0
    for M in range(2, M_max + 1):
        rep = LambdaSpec(1, M)
        specs = [LambdaSpec(i, M) for i in range(1, M) if math.gcd(i, M) == 1]
        for k in range(0, k_max + 1):
            for t in generate(FamilyKind.GAMMA, k, rep, n_max):
                for spec in specs:
                    m = multiplicity(t, spec)
                    checked += 1
                    if m < 1:
                        violations.append(
                            {"tree": emit_graph6(t), "lambda": [spec.i, spec.M], "part": "i", "m": m}
                        )
                        continue
                    for v in pendant_vertices(t):
                        if t.n == 1:
                            continue
                        m_minus = sum(
                            multiplicity(induced(t, c), spec) for c in split(t, range(t.n), v)
                        )
                        if m_minus != m - 1:
                            violations.append(
                                {
                                    "tree": emit_graph6(t),
                                    "lambda": [spec.i, spec.M],
                                    "part": "ii",
                                    "vertex": v,
                                }
                            )
    return checked, violations
