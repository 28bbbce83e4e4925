"""Property tests on random labeled trees drawn as Prufer sequences: graph6
round trips, invariance of char_poly and classify under relabelling, and
agreement of the two multiplicity engines with each other and with dense
elimination."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from oracles import nullity_by_elimination, prufer_to_edges
from treemult.families import BROAD, STRICT, classify, replay_witness
from treemult.poly import all_specs, spec_orbits
from treemult.spectrum import char_poly, factor_multiplicity, rank_nullity
from treemult.tree import Tree, canonical_code, emit_graph6, parse_graph6

# the same examples on every run, and no example database written to disk
deterministic = settings(database=None, derandomize=True, deadline=None)

# hypothesis also caches the constants it finds in source files under its
# home directory (./.hypothesis by default), already while tests are being
# collected; a temporary home keeps that out of the working tree
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)


@st.composite
def trees(draw, n_max: int) -> Tree:
    n = draw(st.integers(1, n_max))
    if n == 1:
        return Tree.from_edges(1, [])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return Tree.from_edges(n, prufer_to_edges(tuple(seq), n))


@st.composite
def relabelled_pairs(draw, n_max: int) -> tuple[Tree, Tree]:
    t = draw(trees(n_max))
    perm = draw(st.permutations(range(t.n)))
    return t, Tree.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


@deterministic
@given(trees(40))
def test_graph6_round_trip_up_to_isomorphism(t):
    text = emit_graph6(t)
    back = parse_graph6(text)
    assert canonical_code(back) == canonical_code(t)
    assert emit_graph6(back) == text


@deterministic
@given(
    relabelled_pairs(20),
    st.sampled_from(all_specs(12)),
    st.sampled_from([BROAD, STRICT]),
)
def test_classify_tag_invariant_under_relabelling(pair, spec, mode):
    t, u = pair
    want, got = classify(t, spec, mode), classify(u, spec, mode)
    assert got.tag == want.tag
    assert replay_witness(t, want)
    assert replay_witness(u, got)


@deterministic
@given(relabelled_pairs(30), st.data())
def test_char_poly_invariant_under_relabelling_and_root(pair, data):
    t, u = pair
    want = char_poly(t)
    assert char_poly(u) == want
    # char_poly roots at vertex 0: swap a drawn vertex into that place
    v = data.draw(st.integers(0, t.n - 1))
    swap = {0: v, v: 0}
    rooted = Tree.from_edges(t.n, [(swap.get(a, a), swap.get(b, b)) for a, b in t.edges])
    assert char_poly(rooted) == want


@deterministic
@given(relabelled_pairs(30), st.sampled_from(spec_orbits(31)))
def test_engines_agree_under_relabelling(pair, orbit):
    t, u = pair
    mu, specs = orbit
    m, _ = factor_multiplicity(char_poly(t), mu)
    assert rank_nullity(t, specs[0]) == m
    assert rank_nullity(u, specs[0]) == m


@deterministic
@given(trees(12), st.sampled_from(spec_orbits(31)))
def test_engines_match_elimination(t, orbit):
    mu, specs = orbit
    expected = nullity_by_elimination(t, mu)
    assert factor_multiplicity(char_poly(t), mu)[0] == expected
    assert rank_nullity(t, specs[0]) == expected
