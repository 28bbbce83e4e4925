"""Acceptance suite: the package's exit criteria, one test per criterion.

The exhaustive sweep over all trees with at most 14 vertices and all
eigenvalue denominators up to 15 runs once (module fixture) and backs the
bound check, both family equivalences, the in-sweep engine agreement, and
the check of every other eigenvalue.
Each criterion prints one pass/fail line (visible under pytest -s).
"""

import math
import os

import pytest

from oracles import (
    charpoly_by_cofactors,
    count_free_trees_bruteforce,
    evaluate,
    path_charpoly,
    spider_tree,
    star_tree,
)
from suites import branch_equivalence, family_pendant_deletion, parter_vertex, path_simplicity
from treemult.families import BROAD, STRICT, FamilyKind, classify, generate
from treemult.poly import (
    LambdaSpec,
    Polynomial,
    all_specs,
    euler_phi,
)
from treemult.spectrum import char_poly, multiplicity, rank_nullity
from treemult.tree import (
    canonical_code,
    emit_graph6,
    enumerate_trees,
    path_tree,
)
from treemult.verify import (
    SweepConfig,
    engine_agreement_check,
    sweep,
)

pytestmark = pytest.mark.slow

WORKERS = os.cpu_count() or 1


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def big_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "records.jsonl"
    config = SweepConfig(
        n_min=1,
        n_max=14,
        M_max=15,
        modes=(BROAD, STRICT),
        worker_count=WORKERS,
        output_path=str(out),
    )
    return sweep(config)


def test_criterion_1_pendant_bound(big_sweep):
    # m <= p - 1 for every tree (paths: m <= 1), all n <= 14, M <= 15
    report(
        "criterion 1: multiplicity bound m <= p-1",
        big_sweep.bound_violations == 0,
        f"{big_sweep.record_count} records, {big_sweep.bound_violations} violations",
    )


def test_criterion_2_pendant_minus_one_equivalence(big_sweep):
    report(
        "criterion 2: m = p-1 iff GAMMA membership",
        big_sweep.eq_top_violations == 0,
        f"{big_sweep.eq_top_violations} violations",
    )


def test_criterion_3_pendant_minus_two_equivalence_broad(big_sweep):
    broad = big_sweep.eq_second[BROAD.value]
    report(
        "criterion 3: m = p-2 iff GAMMA2 membership (broad, m >= 1)",
        broad == 0,
        f"{broad} violations",
    )


def test_criterion_4_strict_mode_fidelity_finding():
    # the two exemplar trees carry m = p-2 but fail the literal residue-class
    # base family; S(3,3,1) has 8 vertices, so the sweep range is n <= 8
    config = SweepConfig(
        n_min=1, n_max=8, M_max=8, modes=(BROAD, STRICT), worker_count=WORKERS,
    )
    rep = sweep(config)
    k13, s331 = star_tree(3), spider_tree(3, 3, 1)
    lam13, lam331 = LambdaSpec(1, 6), LambdaSpec(1, 3)

    # independent confirmation before trusting the harness: hand-expanded
    # characteristic polynomials and both multiplicity engines
    assert char_poly(k13) == Polynomial((0, 0, -3, 0, 1))
    assert char_poly(s331) == Polynomial((0, 0, -8, 0, 14, 0, -7, 0, 1))
    for t, lam in ((k13, lam13), (s331, lam331)):
        assert multiplicity(t, lam) == 1 == rank_nullity(t, lam)
        assert classify(t, lam, STRICT).tag == "NONE"
        assert classify(t, lam, BROAD).tag == "GAMMA2(1)"

    keys = {(d["tree"], tuple(d["lambda"])) for d in rep.strict_discrepancies}
    ok = (
        len(rep.strict_discrepancies) > 0
        and (emit_graph6(k13), (1, 6)) in keys
        and (emit_graph6(s331), (1, 3)) in keys
        and all(d["m"] == d["p"] - 2 for d in rep.strict_discrepancies)
        and rep.eq_second[BROAD.value] == 0
    )
    report(
        "criterion 4: strict-mode discrepancy list",
        ok,
        f"{len(rep.strict_discrepancies)} discrepancies, exemplars present",
    )


def test_strict_discrepancies_reclassify_broad(big_sweep):
    # not a numbered criterion: the strict-mode finding invariant over the
    # full sweep range — every discrepancy has m = p-2 with the tree a
    # broad-mode GAMMA2 member and a strict-mode non-member
    ok = all(
        d["m"] == d["p"] - 2
        and d["classification"]["broad"].startswith("GAMMA2")
        and d["classification"]["strict"] == "NONE"
        for d in big_sweep.strict_discrepancies
    )
    report(
        "strict discrepancy invariant (n <= 14, M <= 15)",
        ok,
        f"{len(big_sweep.strict_discrepancies)} discrepancies",
    )


def test_criterion_5_engine_agreement(big_sweep):
    # the sweep recomputes every multiplicity with the tree engine and
    # aborts on any disagreement, so completing is the exhaustive half
    full_coverage = (
        big_sweep.record_count == big_sweep.tree_count * len(all_specs(15))
    )
    mismatches = engine_agreement_check(
        10_000, n_max=25, M_max=26, seed=20240917, workers=WORKERS
    )
    report(
        "criterion 5: engine agreement (sweep + 10k random pairs)",
        full_coverage and mismatches == [],
        f"{big_sweep.record_count} sweep pairs, {len(mismatches)} random mismatches",
    )


def test_criterion_6_lemma_suites():
    results = {
        "path_simplicity": path_simplicity(n_max=200, M_max=40),
        "parter_vertex": parter_vertex(n_max=10, M_max=11),
        "branch_equivalence": branch_equivalence(n_max=10, M_max=11),
        "family_pendant_deletion": family_pendant_deletion(k_max=3, n_max=14, M_max=6),
    }
    checked = {name: c for name, (c, _) in results.items()}
    violations = {name: len(v) for name, (_, v) in results.items()}
    report(
        "criterion 6: supporting property suites",
        checked == {
            "path_simplicity": 11_600,
            "parter_vertex": 320,
            "branch_equivalence": 4_013,
            "family_pendant_deletion": 319,
        }
        and not any(violations.values()),
        ", ".join(f"{name} {checked[name]} checked/{violations[name]} violations" for name in results),
    )


def test_criterion_7_generator_classifier_closure():
    failures = []
    checked = 0
    trees_by_n = {n: list(enumerate_trees(n)) for n in range(1, 13)}
    reps = [s for s in all_specs(6) if s.i in (1, 2)]  # one spec per orbit
    for lam in reps:
        for mode in (BROAD, STRICT):
            classified: dict[tuple, set] = {}
            for n, trees in trees_by_n.items():
                for t in trees:
                    res = classify(t, lam, mode)
                    if res.kind is not FamilyKind.NONE and res.k <= 3:
                        classified.setdefault((res.kind, res.k), set()).add(
                            canonical_code(t)
                        )
            for family in (FamilyKind.GAMMA, FamilyKind.GAMMA2):
                for k in range(0, 4):
                    generated = {
                        canonical_code(t)
                        for t in generate(family, k, lam, 12, mode)
                    }
                    expected = classified.get((family, k), set())
                    checked += 1
                    if generated != expected:
                        failures.append(
                            (str(lam), mode.value, family.value, k,
                             len(generated), len(expected))
                        )
    report(
        "criterion 7: generate/classify closure (k <= 3, M <= 6, n <= 12)",
        not failures,
        f"{checked} family sets compared" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_8_polynomial_layer():
    degree_ok = True
    for spec in all_specs(30):
        expected = euler_phi(2 * spec.M) // 2 if spec.i % 2 else euler_phi(spec.M) // 2
        if spec.minimal_poly.degree != max(expected, 1):
            degree_ok = False
    numeric_ok = all(
        abs(evaluate(s.minimal_poly, 2.0 * math.cos(s.i * math.pi / s.M))) < 1e-9
        for s in all_specs(30)
    )
    determinant_ok = all(
        path_charpoly(n) == charpoly_by_cofactors(path_tree(n)) for n in range(1, 9)
    )
    report(
        "criterion 8: minimal polynomials and path characteristic polynomials",
        degree_ok and numeric_ok and determinant_ok,
        f"degrees={degree_ok} numeric={numeric_ok} determinant={determinant_ok}",
    )


def test_criterion_9_enumeration_counts():
    oracle = [count_free_trees_bruteforce(n) for n in range(1, 9)]
    ours = [sum(1 for _ in enumerate_trees(n)) for n in range(1, 9)]
    report(
        "criterion 9: enumeration matches brute-force oracle",
        ours == oracle,
        f"counts {ours}",
    )


def test_criterion_10_every_eigenvalue(big_sweep):
    # M_max = n_max + 1: the eigenvalues no swept orbit carries are checked
    # on every tree as well
    block = big_sweep.other_eigenvalues
    report(
        "criterion 10: every eigenvalue keeps the bound and both equivalences",
        (block["trees"], block["levels"], block["violations"], block["strict_discrepancies"])
        == (5447, 5427, 0, 61),
        f"{block['trees']} trees, {block['levels']} levels, {block['violations']} violations, "
        f"{block['strict_discrepancies']} strict discrepancies",
    )
