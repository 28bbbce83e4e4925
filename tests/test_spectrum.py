"""Characteristic polynomials, the two multiplicity engines, and what the
characteristic polynomial leaves once every path-type factor is divided out
(the sweep's check of the other eigenvalues)."""

import random

import pytest

import treemult.poly as poly_mod
import treemult.spectrum as spectrum_mod
from oracles import (
    charpoly_by_convolution,
    charpoly_by_cofactors,
    nullity_by_elimination,
    nullity_by_matching,
    path_charpoly,
    random_tree_edges_by_scan,
    spider_tree,
    star_tree,
)
from treemult.poly import (
    LambdaSpec,
    Polynomial,
    all_specs,
    spec_orbits,
    squarefree_decompose,
)
from treemult.spectrum import (
    char_poly,
    factor_multiplicity,
    multiplicity,
    rank_nullity,
)
from treemult.tree import (
    Tree,
    _rooted_code,
    _rooted_codes,
    enumerate_trees,
    induced,
    path_tree,
    split,
)
from treemult.verify import SweepConfig, sweep


def P(*coeffs):
    return Polynomial(coeffs)


def leftover_parts(t, orbits):
    """The squarefree parts of what char_poly leaves once each orbit's
    minimal polynomial is peeled off in turn, as the sweep peels it."""
    rest = char_poly(t)
    for mu, _ in orbits:
        _, rest = factor_multiplicity(rest, mu)
    return squarefree_decompose(rest)


LAMBDA_0 = LambdaSpec(1, 2)
LAMBDA_1 = LambdaSpec(1, 3)


class TestCharPoly:
    def test_single_vertex(self):
        assert char_poly(Tree.from_edges(1, [])) == P(0, 1)

    def test_star_k13(self):
        # det(xI - A) for the 4x4 star, expanded by cofactors
        t = star_tree(3)
        assert char_poly(t) == P(0, 0, -3, 0, 1)
        assert charpoly_by_cofactors(t) == P(0, 0, -3, 0, 1)

    def test_path_agrees_with_recurrence(self):
        for n in range(1, 11):
            assert char_poly(path_tree(n)) == path_charpoly(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cofactor_oracle_all_trees(self, n):
        for t in enumerate_trees(n):
            assert char_poly(t) == charpoly_by_cofactors(t)

    def test_root_independence(self):
        for n in range(1, 10):
            for t in enumerate_trees(n):
                reference = char_poly(t)
                for root in range(1, t.n):
                    assert char_poly(relabel_as_root(t, root)) == reference

    def test_spider_331_hand_expansion(self):
        # legs 3, 3, 1: x^2 (x^2-1)(x^2-2)(x^2-4)
        expected = (
            P(0, 0, 1) * P(-1, 0, 1) * P(-2, 0, 1) * P(-4, 0, 1)
        )
        assert char_poly(spider_tree(3, 3, 1)) == expected

    def test_spider_124_hand_expansion(self):
        assert char_poly(spider_tree(1, 2, 4)) == P(1, 0, -8, 0, 14, 0, -7, 0, 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_convolution_oracle_all_trees(self, n):
        for t in enumerate_trees(n):
            assert char_poly(t) == charpoly_by_convolution(t), t.edges

    def test_convolution_oracle_random_trees(self):
        rng = random.Random(16)
        for _ in range(500):
            n = rng.randint(1, 62)
            t = Tree.from_edges(n, random_tree_edges_by_scan(n, rng))
            assert char_poly(t) == charpoly_by_convolution(t), t.edges

    def test_widest_digits(self):
        # the path has the most matchings of any tree on its vertices, so its
        # packed digits come closest to the bit width; the star the fewest
        assert char_poly(path_tree(62)) == path_charpoly(62)
        star = star_tree(61)
        assert char_poly(star) == charpoly_by_convolution(star) == P(*[0] * 60, -61, 0, 1)


class TestMultiplicity:
    def test_path_eigenvalue_is_simple(self):
        # 0 is an eigenvalue of P_5 (6 is a multiple of 2)
        assert multiplicity(path_tree(5), LAMBDA_0) == 1

    def test_star_nullity(self):
        # oracle: m(T, 0) = n - 2 * max matching = 5 - 2
        assert nullity_by_matching(star_tree(4)) == 3
        assert multiplicity(star_tree(4), LAMBDA_0) == 3

    def test_spider_at_one(self):
        assert multiplicity(spider_tree(3, 3, 1), LAMBDA_1) == 1

    def test_perfect_matching_path(self):
        assert multiplicity(path_tree(4), LAMBDA_0) == 0

    def test_nullity_matches_matching_oracle(self):
        for n in range(1, 10):
            for t in enumerate_trees(n):
                assert multiplicity(t, LAMBDA_0) == nullity_by_matching(t)

    def test_multiplicity_sum_rule(self):
        # sum of k * deg(g_k) over the squarefree parts equals n
        from treemult.poly import squarefree_decompose

        for n in range(1, 10):
            for t in enumerate_trees(n):
                parts = squarefree_decompose(char_poly(t))
                assert sum(k * g.degree for g, k in parts) == t.n

    def test_interlacing(self):
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for spec in all_specs(6):
                    m = multiplicity(t, spec)
                    for v in range(t.n):
                        m_minus = sum(
                            multiplicity(induced(t, c), spec)
                            for c in split(t, range(t.n), v)
                        )
                        assert abs(m - m_minus) <= 1

    def test_degree_cutoff_changes_nothing(self):
        # multiplicity returns 0 unbuilt when the minimal polynomial's
        # degree exceeds n
        for n in range(1, 8):
            for t in enumerate_trees(n):
                for spec in all_specs(24):
                    full, _ = factor_multiplicity(char_poly(t), spec.minimal_poly)
                    assert multiplicity(t, spec) == full


class TestDivisionEngine:
    def test_power_of_mu_adds_k(self):
        # g need not be coprime to mu: its own multiplicity must add to k,
        # and the quotient must not depend on k
        orbits = spec_orbits(26)
        for n in range(1, 9):
            for t in enumerate_trees(n):
                g = char_poly(t)
                for mu, specs in orbits:
                    base, rest = factor_multiplicity(g, mu)
                    for k in range(5):
                        assert factor_multiplicity(mu**k * g, mu) == (k + base, rest), (
                            t.edges, specs[0], k,
                        )

    @pytest.mark.parametrize(
        "p, mu",
        [
            (Polynomial(()), LAMBDA_0.minimal_poly),  # zero p: every power divides
            (P(0, 0, 4), P(0, 2)),  # mu not monic
            (P(0, 1), P(1)),  # mu of degree 0
            (P(0, 1), Polynomial(())),  # mu zero
        ],
        ids=["zero-p", "non-monic-mu", "constant-mu", "zero-mu"],
    )
    def test_rejects_bad_input(self, p, mu):
        with pytest.raises(ValueError):
            factor_multiplicity(p, mu)

    def test_independent_of_tree_engine(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the division engine reached the tree engine")

        monkeypatch.setattr(spectrum_mod, "rank_nullity", unreachable)
        monkeypatch.setattr(spectrum_mod, "_field", unreachable)
        spectrum_mod.char_poly.cache_clear()
        for n in range(1, 8):
            for t in enumerate_trees(n):
                for mu, specs in spec_orbits(8):
                    assert multiplicity(t, specs[0]) == nullity_by_elimination(t, mu), (
                        t.edges, specs[0],
                    )


def relabel_as_root(t: Tree, v: int) -> Tree:
    """t with vertices 0 and v swapped, so v becomes the engine's root."""
    swap = {0: v, v: 0}
    return Tree.from_edges(t.n, [(swap.get(a, a), swap.get(b, b)) for a, b in t.edges])


class TestRankEngine:
    def test_p2_at_zero(self):
        assert rank_nullity(path_tree(2), LAMBDA_0) == 0

    def test_star_at_zero(self):
        # rank of the K_{1,3} adjacency matrix is 2
        assert rank_nullity(star_tree(3), LAMBDA_0) == 2

    def test_spider_matches_division_engine(self):
        assert rank_nullity(spider_tree(3, 3, 1), LAMBDA_1) == 1

    def test_single_vertex(self):
        one = Tree.from_edges(1, [])
        assert rank_nullity(one, LAMBDA_0) == 1
        assert rank_nullity(one, LAMBDA_1) == 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_engines_agree_exhaustive(self, n):
        # division engine, tree engine and dense elimination at every spec
        specs = all_specs(9)
        for t in enumerate_trees(n):
            for spec in specs:
                mu = spec.minimal_poly
                m = multiplicity(t, spec)
                assert rank_nullity(t, spec) == m, (t.edges, spec)
                assert nullity_by_elimination(t, mu) == m, (t.edges, spec)

    def test_zero_matches_matching_oracle(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert rank_nullity(t, LAMBDA_0) == nullity_by_matching(t)

    def test_root_independence(self):
        orbits = spec_orbits(8)
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for mu, specs in orbits:
                    reference = rank_nullity(t, specs[0])
                    for v in range(1, t.n):
                        assert rank_nullity(relabel_as_root(t, v), specs[0]) == reference, (
                            t.edges, v, specs[0],
                        )

    def test_long_path_and_wide_star(self):
        # P_n has 2cos(i*pi/M) as a simple eigenvalue exactly when M | n + 1,
        # and 301 = 7 * 43
        p300 = path_tree(300)
        for spec, expected in (
            (LambdaSpec(1, 7), 1),
            (LambdaSpec(3, 43), 1),
            (LambdaSpec(1, 2), 0),
            (LambdaSpec(1, 5), 0),
        ):
            assert rank_nullity(p300, spec) == expected, spec
        assert rank_nullity(relabel_as_root(p300, 150), LambdaSpec(1, 7)) == 1
        # K_{1,200}: 0 with multiplicity 199, the rest is +-sqrt(200)
        k1200 = star_tree(200)
        assert rank_nullity(k1200, LAMBDA_0) == 199
        assert rank_nullity(relabel_as_root(k1200, 7), LAMBDA_0) == 199
        assert rank_nullity(k1200, LAMBDA_1) == 0

    def test_independent_of_division_engine(self, monkeypatch):
        cases = [
            (t, specs[0], multiplicity(t, specs[0]))
            for n in range(1, 8)
            for t in enumerate_trees(n)
            for _, specs in spec_orbits(8)
        ]

        def unreachable(*args, **kwargs):
            raise AssertionError("the tree engine reached the division engine")

        monkeypatch.setattr(spectrum_mod, "char_poly", unreachable)
        monkeypatch.setattr(poly_mod, "exact_div", unreachable)
        monkeypatch.setattr(poly_mod, "divmod_poly", unreachable)
        monkeypatch.setattr(poly_mod, "_minimal_poly", unreachable)
        for t, spec, expected in cases:
            assert rank_nullity(t, spec) == expected, (t.edges, spec)

    def test_lambda_step_at_every_degree(self, cold_tables):
        # every orbit with M <= 26 (minimal polynomials of degree 1 to 12;
        # none has degree 7, since no phi(2M) is 14), each at its own field
        # and root, on cold tables
        orbits = spec_orbits(26)
        assert sorted({mu.degree for mu, _ in orbits}) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12]
        rng = random.Random(2011)
        trees = [path_tree(n) for n in range(1, 26)]
        trees += [star_tree(k) for k in range(2, 25)]
        trees += [spider_tree(*legs) for legs in ((1, 1, 2), (2, 2, 2), (3, 3, 1), (1, 2, 4, 8), (5, 5, 5, 5))]
        for _ in range(20):
            n = rng.randint(1, 25)
            trees.append(Tree.from_edges(n, random_tree_edges_by_scan(n, rng)))
        for t in trees:
            for mu, specs in orbits:
                expected = factor_multiplicity(char_poly(t), mu)[0]
                assert rank_nullity(t, specs[0]) == expected, (t.edges, specs[0])

    def test_engines_agree_random_larger(self):
        from treemult.verify import engine_agreement_check

        assert engine_agreement_check(300, n_max=18, M_max=19, seed=42) == []

    def test_field(self):
        # each q is the least prime above 2^61 that is 1 mod 2M, and z has
        # order exactly 2M in F_q
        for M in range(2, 41):
            q, z = spectrum_mod._field(M)
            step = 2 * M
            assert q > 2**61 and q % step == 1 and spectrum_mod._is_prime(q)
            below = range(q - step, 2**61, -step)
            assert not any(spectrum_mod._is_prime(c) for c in below), M
            assert pow(z, M, q) == q - 1
            assert all(pow(z, k, q) != 1 for k in range(1, step))

    def test_is_prime(self):
        sieve = [True] * 20000
        for k in range(2, 142):
            sieve[k * k :: k] = [False] * len(sieve[k * k :: k])
        assert [n for n in range(39, 20000, 2) if spectrum_mod._is_prime(n)] == [
            n for n in range(39, 20000, 2) if sieve[n]
        ]
        assert spectrum_mod._is_prime(2**61 - 1)
        # a strong pseudoprime to every base up to 31, which 37 exposes
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert not spectrum_mod._is_prime(3825123056546413051)

    def test_bad_prime_aborts_without_records(self, cold_tables, monkeypatch, tmp_path):
        # F_7 holds the 6th roots of unity and 3 is a primitive one, so at
        # M = 3 lambda = 1 maps to 3 + 3^5 = 1 mod 7; K_{1,8} has
        # det(I - A) = 1^7 * (1 - 8) = -7, so its nullity at 1 is 0 over Q
        # and 1 over F_7.  The sweep aborts on it, or on an earlier tree, and
        # keeps no record.
        from treemult.verify import EngineMismatchError

        field = spectrum_mod._field
        monkeypatch.setattr(spectrum_mod, "_field", lambda M: (7, 3) if M == 3 else field(M))
        cold_tables()
        k18 = star_tree(8)
        assert multiplicity(k18, LAMBDA_1) == 0 and rank_nullity(k18, LAMBDA_1) == 1
        out = tmp_path / "records.jsonl"
        with pytest.raises(EngineMismatchError):
            sweep(SweepConfig(n_max=9, M_max=3, worker_count=1, output_path=str(out)))
        assert not out.exists() and not (tmp_path / "records.jsonl.tmp").exists()


def rooted_shape_id(t: Tree, r: int) -> int:
    """The engine's shape id of t rooted at r: t hangs by r from a new vertex
    0 beside a path on t.n vertices, so it holds at most half the vertices."""
    n = t.n
    edges = [(0, 1 + r)] + [(1 + a, 1 + b) for a, b in t.edges]
    edges += [(n + k, n + k + 1) for k in range(1, n)] + [(0, n + 1)]
    _, shape = spectrum_mod._rooted_shapes(Tree.from_edges(2 * n + 1, edges))
    return shape[1 + r]


def relabelled(t: Tree, rng: random.Random) -> Tree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Tree.from_edges(t.n, [(perm[a], perm[b]) for a, b in t.edges])


@pytest.fixture
def cold_tables():
    """Empties the tree engine's shape and state tables; call it to empty
    them again."""

    def clear():
        spectrum_mod._shape_ids.clear()
        spectrum_mod._states.clear()
        spectrum_mod._rooted_shapes.cache_clear()

    clear()
    yield clear
    clear()


class TestSubtreeInterning:
    def test_shape_ids_are_rooted_isomorphism_classes(self):
        # every rooting of every tree, as enumerated and relabelled at random
        rng = random.Random(1974)
        id_of, code_of = {}, {}
        for n in range(1, 11):
            for t in enumerate_trees(n):
                for u in (t, relabelled(t, rng)):
                    for r in range(n):
                        shape, code = rooted_shape_id(u, r), _rooted_code(u, r)
                        assert id_of.setdefault(code, shape) == shape, (u.edges, r)
                        assert code_of.setdefault(shape, code) == code, (u.edges, r)
        assert len(id_of) == sum(len(_rooted_codes(size)) for size in range(1, 11))

    def test_tables_stay_bounded_in_the_sweep(self, cold_tables):
        report = sweep(SweepConfig(n_max=12, M_max=15, worker_count=1))
        # ids only for subtrees of at most 12 // 2 = 6 vertices: there are
        # 37 rooted trees on at most 6 vertices
        assert len(spectrum_mod._shape_ids) <= 37
        assert len(spectrum_mod._states) == len(spec_orbits(15))
        assert all(len(rows) <= 37 for rows in spectrum_mod._states.values())
        # the memo holds recent trees, not every swept one
        assert spectrum_mod.char_poly.cache_info().currsize <= 256
        # every eigenvalue is checked here (M_max = n_max + 3), and the
        # leftover check reads no mode
        assert report.other_eigenvalues == {
            "trees": 987,
            "levels": 969,
            "violations": 0,
            "strict_discrepancies": 35,
            "violation_examples": [],
        }

    def test_warm_tables_are_invisible(self, cold_tables):
        # each tree as enumerated (rooted at a centroid) and relabelled at
        # random; cold: empty tables for every call, warm: never emptied
        rng = random.Random(2011)
        trees = [
            u for n in range(1, 10) for t in enumerate_trees(n) for u in (t, relabelled(t, rng))
        ]
        rng.shuffle(trees)
        reps = [specs[0] for _, specs in spec_orbits(12)]
        cold = []
        for t in trees:
            row = []
            for spec in reps:
                cold_tables()
                row.append(rank_nullity(t, spec))
            cold.append(row)
        cold_tables()
        warm = [[rank_nullity(t, spec) for spec in reps] for t in trees]
        assert warm == cold


class TestLeftover:
    """What char_poly leaves once every orbit's minimal polynomial is
    peeled off, as `_sweep_tree` hands it to `_check_other`."""

    def test_path3(self):
        t = path_tree(3)
        assert leftover_parts(t, []) == [(P(0, -2, 0, 1), 1)]
        assert leftover_parts(t, spec_orbits(7)) == []

    def test_star_k13(self):
        # 0 at level 2 has M = 2; the sqrt(3) pair needs M = 6
        t = star_tree(3)
        assert leftover_parts(t, spec_orbits(5)) == [(P(-3, 0, 1), 1)]
        assert leftover_parts(t, spec_orbits(7)) == []

    def test_spider_124_residue_depends_on_candidate_bound(self):
        # no path eigenvalue with denominator <= n + 1 = 9 divides this
        # charpoly, so the whole octic is left at level 1...
        t = spider_tree(1, 2, 4)
        assert leftover_parts(t, spec_orbits(9)) == [(P(1, 0, -8, 0, 14, 0, -7, 0, 1), 1)]
        # ...yet the octic is exactly the minimal polynomial of 2cos(pi/30):
        # the whole spectrum is path-type with denominator 30
        assert leftover_parts(t, spec_orbits(30)) == []

    def test_repeated_branches_leave_level_two(self):
        # three K_{1,4} joined at their centres to one new vertex: each
        # branch carries +-2, which no 2cos(i*pi/M) reaches, so +-2 is left
        # at level 2 (three branches less one) and +-sqrt(7) at level 1
        edges = []
        for c in (1, 6, 11):
            edges += [(0, c)] + [(c, c + j) for j in range(1, 5)]
        t = Tree.from_edges(16, edges)
        assert leftover_parts(t, spec_orbits(17)) == [(P(-7, 0, 1), 1), (P(-4, 0, 1), 2)]

    def test_product_reassembles(self):
        # char_poly = prod g^k over the parts times prod mu^m over the orbits,
        # each m peeled off what the orbits before it left, and equal to the
        # m counted on the whole char_poly
        for n in range(1, 9):
            orbits = spec_orbits(n + 1)
            for t in enumerate_trees(n):
                cp = rest = char_poly(t)
                product = Polynomial((1,))
                for mu, _ in orbits:
                    m, rest = factor_multiplicity(rest, mu)
                    assert m == factor_multiplicity(cp, mu)[0], (t.edges, mu)
                    product = product * mu**m
                for g, k in leftover_parts(t, orbits):
                    product = product * g**k
                assert product == cp
