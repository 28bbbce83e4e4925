"""Family classifiers, generators, and their closure against enumeration."""

import hashlib
import random

import pytest

from oracles import (
    defective_segments,
    is_gamma0,
    is_gamma2_0,
    major_chain,
    spider_tree,
    star_tree,
)
from treemult import families, verify
from treemult.families import (
    BROAD,
    STRICT,
    FamilyKind,
    FamilyResult,
    classify,
    generate,
    replay_witness,
)
from treemult.poly import LambdaSpec, all_specs, spec_orbits
from treemult.spectrum import multiplicity
from treemult.tree import (
    Tree,
    canonical_code,
    emit_graph6,
    enumerate_trees,
    major_count,
    pack_graph6,
    path_tree,
    pendant_count,
)
from treemult.verify import SweepConfig, sweep

LAMBDA_0 = LambdaSpec(1, 2)
LAMBDA_1 = LambdaSpec(1, 3)
LAMBDA_SQRT3 = LambdaSpec(1, 6)


class TestBasePredicates:
    def test_gamma0_membership(self):
        # paths with M | n + 1
        assert is_gamma0(path_tree(5), LAMBDA_0)
        assert not is_gamma0(path_tree(4), LAMBDA_0)
        assert not is_gamma0(star_tree(3), LAMBDA_0)
        assert is_gamma0(Tree.from_edges(1, []), LAMBDA_0)

    def test_gamma2_0_strict_vs_broad(self):
        # P_2 comes from P_3 by deleting a pendant vertex
        assert is_gamma2_0(path_tree(2), LAMBDA_0, STRICT)
        # P_3 at lambda=1: wrong residue class strictly, but 1 is not an
        # eigenvalue of P_3 (its spectrum is 0, +-sqrt(2))
        assert not is_gamma2_0(path_tree(3), LAMBDA_1, STRICT)
        assert is_gamma2_0(path_tree(3), LAMBDA_1, BROAD)
        # 0 is an eigenvalue of P_1, and 1 is not congruent to 0 mod 2
        one = Tree.from_edges(1, [])
        assert not is_gamma2_0(one, LAMBDA_0, STRICT)
        assert not is_gamma2_0(one, LAMBDA_0, BROAD)

    def test_base_families_disjoint(self):
        for M in (2, 3, 5):
            lam = LambdaSpec(1, M)
            for n in range(1, 20):
                t = path_tree(n)
                for mode in (STRICT, BROAD):
                    assert not (is_gamma0(t, lam) and is_gamma2_0(t, lam, mode))

    def test_broad_matches_zero_multiplicity(self):
        for M in (2, 3, 4, 5):
            lam = LambdaSpec(1, M)
            for n in range(1, 13):
                t = path_tree(n)
                assert is_gamma2_0(t, lam, BROAD) == (multiplicity(t, lam) == 0)

    def test_strict_subset_of_broad(self):
        for M in (2, 3, 4, 5, 6):
            lam = LambdaSpec(1, M)
            for n in range(1, 25):
                if is_gamma2_0(path_tree(n), lam, STRICT):
                    assert is_gamma2_0(path_tree(n), lam, BROAD)


class TestClassify:
    def test_path_in_gamma0(self):
        res = classify(path_tree(5), LAMBDA_0)
        assert res.tag == "GAMMA(0)"

    def test_star_k14(self):
        res = classify(star_tree(4), LAMBDA_0)
        assert res.tag == "GAMMA(1)"
        # forward direction of the top equivalence: m = p - 1
        assert multiplicity(star_tree(4), LAMBDA_0) == pendant_count(star_tree(4)) - 1

    def test_spider_222(self):
        t = spider_tree(2, 2, 2)
        for mode in (STRICT, BROAD):
            assert classify(t, LAMBDA_0, mode).tag == "GAMMA2(1)"

    def test_spider_331_mode_split(self):
        t = spider_tree(3, 3, 1)
        assert classify(t, LAMBDA_1, BROAD).tag == "GAMMA2(1)"
        assert classify(t, LAMBDA_1, STRICT).tag == "NONE"

    def test_star_k13_mode_split(self):
        t = star_tree(3)
        assert classify(t, LAMBDA_SQRT3, BROAD).tag == "GAMMA2(1)"
        assert classify(t, LAMBDA_SQRT3, STRICT).tag == "NONE"

    def test_k_matches_major_count(self):
        for n in range(1, 10):
            for t in enumerate_trees(n):
                for M in (2, 3, 4):
                    res = classify(t, LambdaSpec(1, M))
                    if res.kind is not FamilyKind.NONE:
                        assert res.k == major_count(t)

    def test_isomorphism_invariance(self):
        a = Tree.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        b = Tree.from_edges(7, [(6, 5), (6, 4), (6, 3), (5, 2), (4, 1), (3, 0)])
        assert canonical_code(a) == canonical_code(b)
        for M in (2, 3, 4):
            lam = LambdaSpec(1, M)
            for mode in (STRICT, BROAD):
                ra, rb = classify(a, lam, mode), classify(b, lam, mode)
                assert (ra.kind, ra.k) == (rb.kind, rb.k)

    def test_witness_replays(self):
        cases = [
            (star_tree(4), LAMBDA_0, BROAD),
            (spider_tree(2, 2, 2), LAMBDA_0, BROAD),
            (spider_tree(3, 3, 1), LAMBDA_1, BROAD),
        ]
        for t, lam, mode in cases:
            res = classify(t, lam, mode)
            assert res.kind is not FamilyKind.NONE
            assert replay_witness(t, res)

    def test_witness_replays_enumerated(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                for M in (2, 3):
                    res = classify(t, LambdaSpec(1, M))
                    assert replay_witness(t, res)

    def test_memo_holds_one_tree(self):
        peak = 0
        for n in range(1, 11):
            for t in enumerate_trees(n):
                for spec in all_specs(8):
                    for mode in (BROAD, STRICT):
                        classify(t, spec, mode)
                        peak = max(peak, len(families._member_memo))
        assert 0 < peak <= 100

    def test_shared_cache_is_invisible(self):
        # warm: one tree's specs and modes in sequence over the shared pieces
        # and verdicts, which hold the previous tree's entries when it
        # starts, in two orders; cold: every classify call starts from empty
        # caches
        def reset():
            families._member_memo.clear()
            families._memo_tree = None

        def seen(res):
            return res.tag, res.k, res.witness

        specs = all_specs(11)
        orders = [
            [(spec, mode) for spec in specs for mode in (BROAD, STRICT)],
            [(spec, mode) for spec in reversed(specs) for mode in (STRICT, BROAD)],
        ]
        trees = [t for n in range(1, 11) for t in enumerate_trees(n)]
        cold = {}
        for t in trees:
            for spec, mode in orders[0]:
                reset()
                cold[t, spec, mode] = seen(classify(t, spec, mode))
        for order in orders:
            for t in trees:
                for spec, mode in order:
                    assert seen(classify(t, spec, mode)) == cold[t, spec, mode], (t.edges, str(spec))

    def test_modes_share_the_verdict_at_m2(self):
        for n in range(1, 63):
            assert families._gamma2_0_path_size(n, 2, STRICT) == families._gamma2_0_path_size(n, 2, BROAD)

    @pytest.mark.parametrize(
        "connector, leg, middle, first, second, tag",
        [
            # the odd-i and the even-i orbit of M = 3
            pytest.param(
                2, 2, 3, (LAMBDA_1, STRICT), (LambdaSpec(2, 3), STRICT), "NONE", id="other-orbit"
            ),
            # both readings of GAMMA2(0) are "n even" at M = 2
            pytest.param(
                1, 1, 2, (LAMBDA_0, BROAD), (LAMBDA_0, STRICT), "GAMMA2(24)", id="other-mode-at-m2"
            ),
        ],
    )
    def test_repeat_reads_the_readings_verdicts(
        self, monkeypatch, connector, leg, middle, first, second, tag
    ):
        t = major_chain(24, connector, leg, middle)
        monkeypatch.setattr(families, "_memo_tree", None)
        calls = []
        clause = families._gamma2_clause

        def counted(*args):
            calls.append(args)
            return clause(*args)

        monkeypatch.setattr(families, "_gamma2_clause", counted)
        assert classify(t, *first).tag == tag
        assert calls
        calls.clear()
        assert classify(t, *second).tag == tag
        assert calls == []

    def test_verdicts_and_tails_stay_bounded_in_the_sweep(self):
        sweep(SweepConfig(n_max=12, M_max=15, modes=(BROAD, STRICT), worker_count=1))
        # one reading per M of the last tree swept
        assert sorted(families._member_memo) == list(range(2, 16))
        assert all(r.t is families._memo_tree for r in families._member_memo.values())
        cache = verify._record_tail.cache_info()
        assert 0 < cache.currsize <= cache.maxsize

    @pytest.mark.parametrize(
        "connector, leg, middle, lam, mode, tag",
        [
            # GAMMA2 member: the middle leg is the one defective segment
            pytest.param(1, 1, 2, LAMBDA_0, BROAD, "GAMMA2(24)", id="gamma2-member"),
            # strict non-member: the middle leg is defective but is not a
            # strict base path, so every clause fails only at the middle,
            # after any order of peeling end majors; without the GAMMA2
            # verdicts the search makes about 2^k recursive calls
            pytest.param(2, 2, 3, LAMBDA_1, STRICT, "NONE", id="strict-non-member"),
            # GAMMA member: no segment is defective, and the first outer
            # major peels at every level
            pytest.param(1, 1, 1, LAMBDA_0, BROAD, "GAMMA(24)", id="gamma-member"),
        ],
    )
    def test_many_majors_stay_polynomial(
        self, monkeypatch, connector, leg, middle, lam, mode, tag
    ):
        k = 24
        t = major_chain(k, connector, leg, middle)
        calls = {"_gamma": 0, "_gamma2": 0}

        def counted(name):
            fn = getattr(families, name)

            def wrapper(*args):
                calls[name] += 1
                assert sum(calls.values()) <= 2 * k * k, "exponential search"
                return fn(*args)

            monkeypatch.setattr(families, name, wrapper)

        counted("_gamma")
        counted("_gamma2")
        res = classify(t, lam, mode)
        assert res.tag == tag
        assert replay_witness(t, res)
        if res.is_gamma():
            # GAMMA is decided by the segment test alone
            assert calls == {"_gamma": 1, "_gamma2": 0}

    @pytest.mark.parametrize(
        "connector, leg, middle, lam, tag",
        [
            pytest.param(1, 1, 1, LAMBDA_0, "GAMMA(24)", id="gamma-member"),
            pytest.param(1, 1, 2, LAMBDA_0, "GAMMA2(24)", id="gamma2-member"),
        ],
    )
    def test_member_witness_splits_once_per_level(
        self, monkeypatch, connector, leg, middle, lam, tag
    ):
        # splitting every piece at each of its majors would make
        # k(k+1)/2 = 300 splits on these chains
        k = 24
        t = major_chain(k, connector, leg, middle)
        at = []
        real_split = families.split
        monkeypatch.setattr(families, "split", lambda *a: at.append(a[2]) or real_split(*a))
        monkeypatch.setattr(families, "_memo_tree", None)  # no result kept from another test
        res = classify(t, lam)
        assert res.tag == tag and at == []
        assert at == [step.vertex for step in res.witness]
        assert len(at) <= k
        assert replay_witness(t, res)

    def test_relabelling_keeps_tag_and_witness(self):
        rng = random.Random(20240)
        for n in range(1, 10):
            for t in enumerate_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = Tree.from_edges(n, [(perm[u], perm[v]) for u, v in t.edges])
                for spec in all_specs(6):
                    for mode in (BROAD, STRICT):
                        want = classify(t, spec, mode)
                        got = classify(relabelled, spec, mode)
                        assert got.tag == want.tag
                        assert replay_witness(relabelled, got)


class TestSegments:
    """The segment tests classify runs before its clause search, checked
    against the oracle that finds legs and inner paths by deleting majors."""

    def test_gamma_is_exactly_no_defective_segment(self):
        for n in range(1, 13):
            for t in enumerate_trees(n):
                k = major_count(t)
                for _, specs in spec_orbits(8):
                    rep = specs[0]
                    if k == 0:
                        want = (n + 1) % rep.M == 0
                    else:
                        want = defective_segments(t, rep.M) == 0
                    assert classify(t, rep).is_gamma() == want, (t.edges, str(rep))

    def test_generated_members_pass_the_segment_tests(self):
        for spec in all_specs(6):
            for mode in (BROAD, STRICT):
                for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
                    allowed = {0} if family is FamilyKind.GAMMA else {1, 3}
                    for k in range(1, 4):
                        for t in generate(family, k, spec, 14, mode):
                            assert defective_segments(t, spec.M) in allowed, (t.edges, str(spec))
                            res = classify(t, spec, mode)
                            assert (res.kind, res.k) == (family, k), (t.edges, str(spec))

    def test_split_only_to_build_a_witness(self, monkeypatch):
        # two adjacent majors with two legs of one vertex each: at M = 3 all
        # five segments are defective, so both tests fail; at M = 2 only the
        # inner one is, and the tree is GAMMA2(2).  Deciding either verdict
        # splits nothing; reading the member's witness splits the tree at
        # the one major its chain removes.
        t = Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        calls = []
        real_split = families.split
        monkeypatch.setattr(families, "split", lambda *a: calls.append(a) or real_split(*a))
        families._member_memo.clear()
        families._memo_tree = None
        for mode in (BROAD, STRICT):
            assert classify(t, LAMBDA_1, mode).tag == "NONE"
        res = classify(t, LAMBDA_0, BROAD)
        assert res.tag == "GAMMA2(2)" and calls == []
        assert [step.vertex for step in res.witness] == [0]
        assert [w for _, _, w in calls] == [0]

    @pytest.mark.parametrize("mode", [BROAD, STRICT])
    def test_three_defective_segments_through_promoted_attach(self, mode):
        # clause (2), promoted shape: the GAMMA(0) path 12-0-1-...-6 joined
        # at its degree-2 vertex 0 to a new major 7 with two GAMMA(0) legs;
        # at M = 3 the legs 12 and 1..6 and the zero-length path 0-7 are
        # defective, the legs 8-9 and 10-11 are not
        edges = [(12, 0)] + [(v, v + 1) for v in range(6)]
        edges += [(0, 7), (7, 8), (8, 9), (7, 10), (10, 11)]
        t = Tree.from_edges(13, edges)
        assert defective_segments(t, LAMBDA_1.M) == 3
        res = classify(t, LAMBDA_1, mode)
        assert res.tag == "GAMMA2(2)"
        assert res.witness[0].vertex == 7
        assert "gamma(0)|non-pendant" in dict(res.witness[0].components).values()
        assert replay_witness(t, res)


class TestGenerate:
    def test_gamma0_paths(self):
        got = {t.n for t in generate(FamilyKind.GAMMA, 0, LAMBDA_0, 6)}
        assert got == {1, 3, 5}

    def test_gamma1_small_stars_and_spiders(self):
        members = list(generate(FamilyKind.GAMMA, 1, LAMBDA_0, 7))
        codes = {canonical_code(t) for t in members}
        assert canonical_code(star_tree(3)) in codes
        assert canonical_code(star_tree(4)) in codes
        assert canonical_code(spider_tree(3, 1, 1)) in codes
        # legs all odd with at least three legs; n <= 7
        for t in members:
            assert major_count(t) == 1

    def test_gamma2_1_contains_spider222(self):
        codes = {
            canonical_code(t)
            for t in generate(FamilyKind.GAMMA2, 1, LAMBDA_0, 7, BROAD)
        }
        assert canonical_code(spider_tree(2, 2, 2)) in codes

    def test_no_duplicates(self):
        for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
            for k in (0, 1, 2):
                members = list(generate(family, k, LAMBDA_0, 10))
                codes = [canonical_code(t) for t in members]
                assert len(codes) == len(set(codes))

    def test_generated_members_classify_back(self):
        for M in (2, 3):
            lam = LambdaSpec(1, M)
            for mode in (BROAD, STRICT):
                for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
                    for k in (0, 1, 2):
                        for t in generate(family, k, lam, 9, mode):
                            res = classify(t, lam, mode)
                            assert res.kind is family and res.k == k, (
                                family,
                                k,
                                t.edges,
                            )

    def test_generator_multiplicity_laws(self):
        # members of GAMMA(k) attain m = p - 1 unconditionally; GAMMA2(k)
        # members attain p - 2 whenever lambda is their eigenvalue at all
        # (level-1 members whose three legs all avoid lambda can miss it)
        for M in (2, 3):
            lam = LambdaSpec(1, M)
            for k in (0, 1, 2):
                for t in generate(FamilyKind.GAMMA, k, lam, 9):
                    assert multiplicity(t, lam) == pendant_count(t) - 1
                for t in generate(FamilyKind.GAMMA2, k, lam, 9, BROAD):
                    m = multiplicity(t, lam)
                    if m >= 1 or k >= 2:
                        assert m == pendant_count(t) - 2
                    else:
                        assert k <= 1 and m == 0

    def test_closure_against_enumeration_small(self):
        # set equality with the classifier over everything enumerable: for
        # each M and reading, the trees classify puts in each family and
        # level are exactly those generate builds.  generate reads no
        # multiplicity and runs no segment test, so this checks the
        # classifier's decision procedure from outside.  No tree on 12
        # vertices has more than 5 major vertices.
        codes = {t: canonical_code(t) for n in range(1, 13) for t in enumerate_trees(n)}
        nonempty = 0
        for M in range(2, 16):
            lam = LambdaSpec(1, M)
            for mode in (BROAD, STRICT):
                classified: dict = {}
                for t, code in codes.items():
                    res = classify(t, lam, mode)
                    if res.kind is not FamilyKind.NONE:
                        classified.setdefault((res.kind, res.k), set()).add(code)
                generated = {}
                for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
                    for k in range(6):
                        members = {canonical_code(t) for t in generate(family, k, lam, 12, mode)}
                        if members:
                            generated[family, k] = members
                assert generated == classified, (M, mode)
                nonempty += len(generated)
        assert nonempty == 93

    def test_golden_output_hash(self):
        # every member yielded for both families, k <= 3, every orbit with
        # M <= 6 and both modes: the canonical graph6 lines pin the classes
        # and their order, the graph6 lines of the trees as yielded pin the
        # labels
        classes, labeled = hashlib.sha256(), hashlib.sha256()
        lines = 0
        for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
            for k in range(4):
                for spec in all_specs(6):
                    for mode in (BROAD, STRICT):
                        for t in generate(family, k, spec, 14, mode):
                            classes.update((emit_graph6(t) + "\n").encode())
                            labeled.update((pack_graph6(t) + "\n").encode())
                            lines += 1
        assert lines == 3372
        assert classes.hexdigest() == (
            "87942f882579a90e0f59c3a0a7c48f2a6711c9f7b726d7e33030776a11b7b140"
        )
        assert labeled.hexdigest() == (
            "8212de5005bb1f395e64973500b1e26c3e2e7c728d2bfcb0f86b3f99363fc578"
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(generate(FamilyKind.GAMMA, -1, LAMBDA_0, 5))
        with pytest.raises(ValueError):
            list(generate(FamilyKind.NONE, 0, LAMBDA_0, 5))


class TestFamilyResult:
    def test_tags(self):
        assert FamilyResult(FamilyKind.NONE).tag == "NONE"
        assert FamilyResult(FamilyKind.GAMMA, 2).tag == "GAMMA(2)"
        assert FamilyResult(FamilyKind.GAMMA2, 0).tag == "GAMMA2(0)"
