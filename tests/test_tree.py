"""Tree structure, enumeration, and graph6 round trips."""

import random
from itertools import product

import pytest

from oracles import (
    all_labeled_trees,
    count_free_trees_bruteforce,
    prufer_to_edges,
    spider_tree,
    star_tree,
    to_json_dict,
)
from treemult.tree import (
    LimitExceededError,
    MalformedGraph6Error,
    NotATreeError,
    Tree,
    canonical_code,
    canonical_tree,
    centroids,
    emit_graph6,
    enumerate_trees,
    free_tree_codes,
    induced,
    is_path,
    load_edge_json,
    major_count,
    parse_edge_text,
    parse_graph6,
    path_tree,
    pack_graph6,
    pendant_count,
    pendant_vertices,
    split,
    tree_from_code,
)
from treemult.verify import _random_tree_edges


class TestConstruction:
    def test_single_vertex(self):
        t = Tree.from_edges(1, [])
        assert t.n == 1 and t.edges == []

    def test_rejects_cycle(self):
        with pytest.raises(NotATreeError):
            Tree.from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected(self):
        with pytest.raises(NotATreeError):
            Tree.from_edges(4, [(0, 1), (0, 1), (2, 3)])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(NotATreeError):
            Tree.from_edges(3, [(0, 1)])

    # (n, edges, the same list as "u-v,..." text when its largest id is n - 1
    # and else None, the message): the first error in edge order wins
    ERRORS = {
        "no-vertex": (0, [], None, "a tree needs at least one vertex"),
        "too-few-edges": (3, [(0, 2)], "0-2", "1 edges on 3 vertices is not a tree"),
        "too-many-edges": (
            3, [(0, 1), (1, 2), (2, 0)], "0-1,1-2,2-0", "3 edges on 3 vertices is not a tree",
        ),
        "self-loop": (2, [(1, 1)], "1-1", "bad edge (1, 1)"),
        "out-of-range": (3, [(0, 1), (1, 3)], None, "bad edge (1, 3)"),
        "negative-id": (2, [(-1, 0)], None, "bad edge (-1, 0)"),
        "repeat-reversed": (3, [(0, 2), (2, 0)], "0-2,2-0", "duplicate edge (2, 0)"),
        "repeat-same-way": (4, [(0, 1), (2, 3), (0, 1)], "0-1,2-3,0-1", "duplicate edge (0, 1)"),
        "repeat-then-self-loop": (4, [(0, 3), (3, 0), (1, 1)], "0-3,3-0,1-1", "duplicate edge (3, 0)"),
        "repeat-then-out-of-range": (4, [(0, 1), (1, 0), (1, 7)], None, "duplicate edge (1, 0)"),
        "self-loop-then-repeat": (4, [(1, 1), (0, 3), (3, 0)], "1-1,0-3,3-0", "bad edge (1, 1)"),
        "disconnected": (
            5, [(0, 1), (1, 2), (2, 0), (3, 4)], "0-1,1-2,2-0,3-4", "graph is not connected",
        ),
        "isolated-top-vertex": (4, [(0, 1), (1, 2), (2, 0)], None, "graph is not connected"),
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_error_messages(self, case):
        import json

        n, edges, text, message = self.ERRORS[case]
        with pytest.raises(NotATreeError) as direct:
            Tree.from_edges(n, edges)
        assert str(direct.value) == message
        # the text form names no n, so an id above the largest is unreachable
        # there; the JSON form names n and reaches every case
        if text is not None:
            with pytest.raises(NotATreeError) as parsed:
                parse_edge_text(text)
            assert str(parsed.value) == message
        with pytest.raises(NotATreeError) as loaded:
            load_edge_json(json.dumps({"n": n, "edges": edges}))
        assert str(loaded.value) == message

    def test_adjacency_sorted_and_symmetric(self):
        t = Tree.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        assert t.adj[0] == (1, 2, 3)
        for u in range(4):
            for v in t.adj[u]:
                assert u in t.adj[v]


class TestCounts:
    def test_single_vertex_pendant_convention(self):
        assert pendant_count(Tree.from_edges(1, [])) == 2

    def test_path_pendants(self):
        assert pendant_count(path_tree(5)) == 2
        assert pendant_count(path_tree(2)) == 2

    def test_star_pendants(self):
        assert pendant_count(star_tree(3)) == 3

    def test_major_counts(self):
        assert major_count(path_tree(7)) == 0
        assert major_count(star_tree(3)) == 1
        # two stars joined center-to-center: both centers reach degree 4
        t = Tree.from_edges(
            8, [(0, 2), (0, 3), (0, 4), (0, 1), (1, 5), (1, 6), (1, 7)]
        )
        assert t.degree(0) == 4 and t.degree(1) == 4
        assert major_count(t) == 2

    def test_pendant_major_degree_identity(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                excess = sum(t.degree(v) - 2 for v in range(t.n) if t.degree(v) >= 3)
                assert pendant_count(t) == 2 + excess

    def test_pendant_count_properties(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                p = pendant_count(t)
                assert p >= 2
                assert (p == 2) == is_path(t)
                assert (major_count(t) == 0) == (p == 2)


class TestDeleteVertex:
    """Vertex deletion through pieces: split gives the components of T - v
    as tuples of t's own ids, attach vertex first; induced builds one."""

    def test_path_middle(self):
        comps = split(path_tree(3), range(3), 1)
        assert comps == [(0,), (2,)]
        for c in comps:
            assert induced(path_tree(3), c).n == 1

    def test_star_center(self):
        comps = split(star_tree(3), range(4), 0)
        assert len(comps) == 3
        assert all(len(c) == 1 for c in comps)

    def test_spider_center(self):
        t = spider_tree(2, 2, 2)
        comps = split(t, range(t.n), 0)
        assert len(comps) == 3
        for c in comps:
            sub = induced(t, c)
            assert sub.n == 2
            assert sub.degree(0) == 1  # the attach vertex, local id 0

    def test_partition_and_backmap(self):
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for v in range(t.n):
                    comps = split(t, range(t.n), v)
                    assert len(comps) == t.degree(v)
                    # induced validates that each component is a tree
                    assert sum(induced(t, c).n for c in comps) == t.n - 1
                    ids = [u for c in comps for u in c]
                    assert sorted(ids + [v]) == list(range(t.n))
                    for c in comps:
                        assert c[0] in t.adj[v]

    def test_split_of_piece_matches_reindexed_component(self):
        # splitting a component in place names the same vertices, in the
        # same order, as splitting its induced copy and mapping back
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for v in range(t.n):
                    for piece in split(t, range(t.n), v):
                        sub = induced(t, piece)
                        assert sub.n == len(piece)
                        for k, u in enumerate(piece):
                            back = [
                                tuple(piece[i] for i in c) for c in split(sub, range(sub.n), k)
                            ]
                            assert split(t, piece, u) == back


class TestEnumeration:
    def test_tiny_counts(self):
        assert sum(1 for _ in enumerate_trees(1)) == 1
        assert sum(1 for _ in enumerate_trees(4)) == 2

    def test_prufer_oracle_decodes_like_the_scan(self):
        # the one-pass decoder of the count oracle gives, sequence by
        # sequence, the tree of the scan decoder: n^(n-2) distinct trees
        for n in range(2, 8):
            seqs = product(range(n), repeat=n - 2)
            scanned = [Tree.from_edges(n, prufer_to_edges(seq, n)) for seq in seqs]
            assert list(all_labeled_trees(n)) == scanned
            assert len(set(scanned)) == n ** (n - 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_prufer_oracle(self, n):
        ours = sum(1 for _ in enumerate_trees(n))
        assert ours == count_free_trees_bruteforce(n)

    def test_no_isomorphic_duplicates(self):
        for n in range(1, 11):
            codes = [canonical_code(t) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    def test_all_valid_trees(self):
        for t in enumerate_trees(9):
            assert t.n == 9
            assert len(t.edges) == 8

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            next(enumerate_trees(21))

    def test_enumerated_trees_are_canonically_labeled(self):
        # the sweep encodes enumerated trees with pack_graph6, skipping the
        # relabeling emit_graph6 does; that is sound only because these hold
        for n in range(1, 13):
            for code in free_tree_codes(n):
                assert canonical_code(tree_from_code(code)) == code, code
            for t in enumerate_trees(n):
                assert pack_graph6(t) == emit_graph6(t), t

    def test_deterministic_order(self):
        first = [emit_graph6(t) for t in enumerate_trees(8)]
        second = [emit_graph6(t) for t in enumerate_trees(8)]
        assert first == second


class TestCanonical:
    def test_relabeling_invariance(self):
        a = Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        b = Tree.from_edges(4, [(3, 1), (3, 2), (3, 0)])
        assert canonical_code(a) == canonical_code(b)
        assert canonical_tree(a) == canonical_tree(b)

    def test_distinguishes_path_and_star(self):
        assert canonical_code(path_tree(4)) != canonical_code(star_tree(3))

    def test_centroids(self):
        assert centroids(path_tree(5)) == [2]
        assert centroids(path_tree(4)) == [1, 2]
        assert centroids(star_tree(5)) == [0]

    def test_pendant_vertices_single(self):
        assert pendant_vertices(Tree.from_edges(1, [])) == [0]


class TestGraph6:
    def test_single_vertex(self):
        assert emit_graph6(Tree.from_edges(1, [])) == "@"

    def test_pack_keeps_the_labels(self):
        # canonical labels put the centroid first, so P3 as 0 - 1 - 2 is not
        # canonical: emit_graph6 relabels it to 1 - 0 - 2, pack_graph6 does not
        t = path_tree(3)
        assert parse_graph6(pack_graph6(t)) == t
        centred = Tree.from_edges(3, [(0, 1), (0, 2)])
        assert emit_graph6(t) == pack_graph6(centred) != pack_graph6(t)
        with pytest.raises(MalformedGraph6Error):
            pack_graph6(path_tree(63))
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 62)
            t = Tree.from_edges(n, _random_tree_edges(n, rng))
            assert parse_graph6(pack_graph6(t)) == t

    def test_round_trip_small(self):
        t = path_tree(3)
        back = parse_graph6(emit_graph6(t))
        assert canonical_code(back) == canonical_code(t)

    def test_round_trip_all_small_trees(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert canonical_code(parse_graph6(emit_graph6(t))) == canonical_code(t)

    def test_emit_is_isomorphism_invariant(self):
        a = Tree.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        b = Tree.from_edges(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        assert emit_graph6(a) == emit_graph6(b)

    def test_cycle_rejected(self):
        # C4: edges 01, 12, 23, 03 -> bits x(0,1)=1 x(0,2)=0 x(1,2)=1
        # x(0,3)=1 x(1,3)=0 x(2,3)=1 -> 101101, padded: "Cr"
        cycle = chr(4 + 63) + chr(0b101101 + 63)
        with pytest.raises(NotATreeError):
            parse_graph6(cycle)

    def test_pack_round_trip_every_tree(self):
        for n in range(1, 15):
            for t in enumerate_trees(n):
                assert parse_graph6(pack_graph6(t)) == t

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Cr", "4 edges on 4 vertices is not a tree"),  # C4
            ("Cw", "graph is not connected"),  # a triangle and a lone vertex
            ("Dhc", "5 edges on 5 vertices is not a tree"),  # C5
        ],
    )
    def test_cyclic_input_message(self, text, message):
        with pytest.raises(NotATreeError) as info:
            parse_graph6(text)
        assert str(info.value) == message

    def test_malformed_rejected(self):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("")
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("D")  # truncated payload
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("B\x1f")  # byte below 63
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("Bp")  # n = 3, payload 110001: nonzero padding

    def test_empty_graph_rejected(self):
        with pytest.raises(NotATreeError):
            parse_graph6("?")  # n = 0

    def test_header_accepted(self):
        t = path_tree(4)
        assert canonical_code(parse_graph6(">>graph6<<" + emit_graph6(t))) == canonical_code(t)


class TestTextFormats:
    def test_edge_text(self):
        t = parse_edge_text("0-1,0-2,0-3")
        assert canonical_code(t) == canonical_code(star_tree(3))

    def test_edge_text_rejects_cycles(self):
        with pytest.raises(NotATreeError):
            parse_edge_text("0-1,1-2,2-0")

    def test_json_round_trip(self):
        import json

        t = spider_tree(2, 1, 1)
        back = load_edge_json(json.dumps(to_json_dict(t)))
        assert back == t

    def test_json_rejects_garbage(self):
        with pytest.raises(NotATreeError):
            load_edge_json("{not json")
        with pytest.raises(NotATreeError):
            load_edge_json('{"n": 3, "edges": [[0, 1]]}')
