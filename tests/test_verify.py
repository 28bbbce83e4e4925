"""Sweep harness: records, determinism, the check of the other eigenvalues;
engine agreement; the property suites of `suites.py` over small ranges."""

import contextlib
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import treemult.verify as verify_mod
from oracles import random_tree_edges_by_scan, spider_tree, star_tree
from suites import branch_equivalence, family_pendant_deletion, parter_vertex, path_simplicity
from treemult import families, poly, spectrum
from treemult.cli import main
from treemult.families import BROAD, STRICT
from treemult.poly import LambdaSpec, Polynomial, spec_orbits, squarefree_decompose
from treemult.spectrum import char_poly, factor_multiplicity
from treemult.tree import TREE_COUNTS, Tree, emit_graph6, pack_graph6, path_tree, pendant_count
from treemult.verify import (
    EngineMismatchError,
    SweepConfig,
    Tally,
    _check_other,
    _ordered_tree_codes,
    _random_tree_edges,
    _sweep_tree,
    engine_agreement_check,
    sweep,
)

# sha256 of `treemult verify --n-max 10 --m-max 11 --modes broad,strict`
GOLDEN_SHA256 = "6fc907b73c40aee1a931510cf07a1a393a0cfeb83a6d50b8089464c8ee2aa6e1"
GOLDEN_RECORDS = 8241


def small_config(tmp_path=None, workers=1, modes=(BROAD, STRICT), n_max=6, M_max=7):
    return SweepConfig(
        n_min=1,
        n_max=n_max,
        M_max=M_max,
        modes=modes,
        worker_count=workers,
        output_path=str(tmp_path / "records.jsonl") if tmp_path else None,
    )


class TestSweep:
    def test_zero_broad_violations_small(self):
        report = sweep(small_config())
        assert report.bound_violations == 0
        assert report.eq_top_violations == 0
        assert report.eq_second[BROAD.value] == 0

    def test_strict_discrepancies_found(self):
        report = sweep(small_config(n_max=8, M_max=8))
        keys = {(d["tree"], tuple(d["lambda"])) for d in report.strict_discrepancies}
        assert (emit_graph6(star_tree(3)), (1, 6)) in keys
        assert (emit_graph6(spider_tree(3, 3, 1)), (1, 3)) in keys
        for d in report.strict_discrepancies:
            assert d["m"] == d["p"] - 2
            assert d["classification"]["broad"].startswith("GAMMA2")
            assert d["classification"]["strict"] == "NONE"

    def test_not_applicable_when_no_eigenvalue(self, tmp_path):
        config = small_config(tmp_path, n_max=4, M_max=2)
        sweep(config)
        records = [
            json.loads(line)
            for line in open(config.output_path, encoding="utf-8")
        ]
        # P_4 at lambda = 0: perfect matching, m = 0
        p4 = emit_graph6(spider_tree(3))  # a path is a one-legged spider
        hits = [r for r in records if r["tree"] == p4 and r["lambda"] == [1, 2]]
        assert len(hits) == 1
        assert hits[0]["m"] == 0
        assert hits[0]["thm14_status"] == {
            "broad": "NOT_APPLICABLE",
            "strict": "NOT_APPLICABLE",
        }

    def test_record_fields(self, tmp_path):
        config = small_config(tmp_path, n_max=5, M_max=4)
        report = sweep(config)
        lines = open(config.output_path, encoding="utf-8").read().splitlines()
        assert len(lines) == report.record_count
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {
                "tree",
                "lambda",
                "p",
                "gamma",
                "m",
                "bound_ok",
                "thm13_status",
                "thm14_status",
                "classification",
                "notes",
            }
            assert rec["bound_ok"] is True
            i, M = rec["lambda"]
            assert 1 <= i < M <= 4

    def test_records_escape_the_tree_field(self):
        # graph6 may contain a backslash, which JSON escapes; no canonical
        # tree on up to 17 vertices has one, so sweep a labeled tree that does
        g6 = "E_\\?"
        encoded, tally = _sweep_tree((g6, 4, (BROAD, STRICT)))
        records = [json.loads(line) for line in encoded.decode("utf-8").splitlines()]
        assert len(records) == tally.record_count > 0
        assert {r["tree"] for r in records} == {g6} and tally.tree_count == 1

    def test_per_tree_tally_does_not_grow_with_the_specs(self):
        # a worker's Tally crosses the pool once per tree: it holds counts,
        # not the tree's specs, so it pickles to the same size at any M_max
        g6 = pack_graph6(path_tree(6))
        sizes = {len(pickle.dumps(_sweep_tree((g6, M, (BROAD, STRICT)))[1])) for M in (3, 15)}
        assert len(sizes) == 1

    def test_tree_codes_strictly_increase(self):
        # Tally.read takes a size of a record file as whole once it holds
        # TREE_COUNTS[n] increasing codes on n vertices, so a sweep's order
        # must be that: graph6's first byte is 63 + n, and each n's batch is
        # sorted
        codes = list(_ordered_tree_codes(SweepConfig(n_max=12, M_max=2)))
        assert len(codes) == sum(TREE_COUNTS[1:13]) == 987
        assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg1 = SweepConfig(
            n_min=1, n_max=7, M_max=6, modes=(BROAD, STRICT),
            worker_count=1, output_path=str(tmp_path / "w1.jsonl"),
        )
        cfg2 = SweepConfig(
            n_min=1, n_max=7, M_max=6, modes=(BROAD, STRICT),
            worker_count=2, output_path=str(tmp_path / "w2.jsonl"),
        )
        sweep(cfg1)
        sweep(cfg2)
        b1 = open(cfg1.output_path, "rb").read()
        b2 = open(cfg2.output_path, "rb").read()
        assert b1 == b2 and len(b1) > 0

    def test_rerun_truncates(self, tmp_path):
        config = small_config(tmp_path, n_max=4, M_max=3)
        sweep(config)
        first = open(config.output_path, "rb").read()
        sweep(config)
        assert open(config.output_path, "rb").read() == first

    def test_summary_file(self, tmp_path):
        config = small_config(tmp_path, n_max=5, M_max=4)
        report = sweep(config)
        summary = json.load(open(config.output_path + ".summary.json", encoding="utf-8"))
        assert summary["records"] == report.record_count
        assert summary["bound"]["violations"] == 0
        assert summary["pendant_minus_two"]["broad"] == {"violations": 0}
        assert "discrepancies" in summary["pendant_minus_two"]["strict"]
        keys = list(summary)
        assert keys[keys.index("pendant_minus_two") + 1] == "other_eigenvalues"

    def test_summary_records_sha256(self, tmp_path):
        config = small_config(tmp_path, n_max=5, M_max=4)
        sweep(config)
        summary = json.load(open(config.output_path + ".summary.json", encoding="utf-8"))
        digest = hashlib.sha256(open(config.output_path, "rb").read()).hexdigest()
        assert summary["records_sha256"] == digest
        assert Tally.read(config.output_path).records_sha256 == digest
        # the same digest when no file is written
        assert sweep(small_config(n_max=5, M_max=4)).records_sha256 == digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_merged_tallies_equal_reading_the_file(self, tmp_path, workers):
        # the sweep folds per-tree tallies with Tally.merge; report reads
        # the file it wrote with Tally.add, record by record
        config = small_config(tmp_path, workers=workers, n_max=8, M_max=9)
        merged = sweep(config)
        read = Tally.read(config.output_path)
        assert json.dumps(merged.counts()) == json.dumps(read.counts())  # key order too
        assert merged.strict_discrepancies == read.strict_discrepancies
        assert len(merged.strict_discrepancies) > 1
        assert merged.records_sha256 == read.records_sha256

    def test_merge_keeps_the_first_violation_examples(self):
        # the other-eigenvalue block is folded by Tally.merge alone: every
        # violation counts, and the first EXAMPLE_CAP examples are kept in
        # merge order
        merged = Tally()
        for k in range(25):
            tally = Tally()
            _check_other(f"tree{k}", Polynomial((-3, 0, 1)), 2, tally)
            merged.merge(tally)
        block = merged.other_eigenvalues
        assert (block["trees"], block["levels"], block["violations"]) == (25, 25, 25)
        assert [e["tree"] for e in block["violation_examples"]] == [f"tree{k}" for k in range(20)]

    def test_summarize_records_roundtrip(self, tmp_path):
        config = small_config(tmp_path, n_max=6, M_max=5)
        report = sweep(config)
        summary = Tally.read(config.output_path).counts()
        assert summary["records"] == report.record_count
        assert summary["pendant_minus_one"]["violations"] == 0
        assert summary["trees"] == report.tree_count

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_min=0)
        with pytest.raises(ValueError):
            SweepConfig(n_min=5, n_max=4)
        with pytest.raises(ValueError):
            SweepConfig(M_max=1)
        with pytest.raises(ValueError):
            SweepConfig(modes=())
        with pytest.raises(ValueError, match="duplicate mode"):
            SweepConfig(modes=(BROAD, STRICT, BROAD))
        with pytest.raises(ValueError):
            SweepConfig(n_max=25)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_record_hash(self, tmp_path, workers):
        out = tmp_path / "records.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "verify", "--n-max", "10", "--m-max", "11", "--modes", "broad,strict",
                "--workers", str(workers), "--out", str(out),
            ])
        assert code == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
        assert data.count(b"\n") == GOLDEN_RECORDS
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["report", str(out), "--format", "json"]) == 0
        counts = json.loads(buf.getvalue())
        summary = json.loads((tmp_path / "records.jsonl.summary.json").read_text())
        keys = (
            "records", "records_sha256", "trees", "specs", "bound",
            "pendant_minus_one", "pendant_minus_two",
        )
        assert list(counts) == list(keys)
        assert {k: counts[k] for k in keys} == {k: summary[k] for k in keys}
        # M_max = n_max + 1: every eigenvalue of every tree is checked
        assert summary["other_eigenvalues"] == {
            "trees": 201,
            "levels": 164,
            "violations": 0,
            "strict_discrepancies": 20,
            "violation_examples": [],
        }

    def test_engine_mismatch_aborts(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "rank_nullity", lambda t, spec: 99)
        with pytest.raises(EngineMismatchError):
            sweep(small_config(n_max=4, M_max=3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_aborted_sweep_leaves_no_partial_records(self, tmp_path, monkeypatch, workers):
        out = tmp_path / "records.jsonl"
        tmp = tmp_path / "records.jsonl.tmp"
        rank = verify_mod.rank_nullity

        def abort_at_six():
            # disagree from n = 6 on, after the records of smaller trees are out
            with monkeypatch.context() as m:
                m.setattr(verify_mod, "rank_nullity", lambda t, spec: rank(t, spec) + (t.n >= 6))
                with pytest.raises(EngineMismatchError):
                    sweep(small_config(tmp_path, workers=workers, n_max=7, M_max=4))

        abort_at_six()
        assert not out.exists() and not tmp.exists()
        assert multiprocessing.active_children() == []
        sweep(small_config(tmp_path, workers=workers, n_max=5, M_max=4))
        complete = out.read_bytes()
        abort_at_six()
        assert out.read_bytes() == complete and not tmp.exists()

    def test_odd_m_orbits_must_agree(self, tmp_path, monkeypatch):
        # both engines count one more on the (2, 3) orbit, so they agree, but
        # that orbit is the (1, 3) orbit negated and a tree is bipartite
        odd_i = LambdaSpec(2, 3)
        divide, rank = verify_mod.factor_multiplicity, verify_mod.rank_nullity

        def divide_plus(p, mu):
            m, rest = divide(p, mu)
            return m + (mu == odd_i.minimal_poly), rest

        monkeypatch.setattr(verify_mod, "factor_multiplicity", divide_plus)
        monkeypatch.setattr(verify_mod, "rank_nullity", lambda t, spec: rank(t, spec) + (spec == odd_i))
        with pytest.raises(EngineMismatchError) as info:
            sweep(small_config(tmp_path, n_max=6, M_max=3))
        assert json.loads(str(info.value)) == {
            "tree": "@",
            "lambdas": [[1, 3], [2, 3]],
            "division_engine": [0, 1],
        }
        assert not (tmp_path / "records.jsonl").exists()
        assert not (tmp_path / "records.jsonl.tmp").exists()


class TestMutants:
    """Broken copies of a family definition, of the parity rule and of the
    rank engine, each swept over n <= 10, M <= 11 in both modes, with the
    counts or the abort that show it beside the counts of the unbroken
    code."""

    @staticmethod
    def counts(report):
        return report.bound_violations, report.eq_top_violations, report.eq_second

    def test_unmutated(self):
        report = sweep(small_config(n_max=10, M_max=11))
        assert self.counts(report) == (0, 0, {"broad": 0, "strict": 30})

    def test_carries_always_true(self, monkeypatch):
        # drops the eigenvalue condition of GAMMA2 clause (1)
        monkeypatch.setattr(families, "_carries", lambda t, lam: True)
        report = sweep(small_config(n_max=10, M_max=11))
        assert self.counts(report) == (0, 0, {"broad": 2, "strict": 32})

    def test_strict_reading_made_broad(self, monkeypatch):
        # only the pinned discrepancy count catches this one
        broad_size = families._gamma2_0_path_size
        monkeypatch.setattr(
            families, "_gamma2_0_path_size", lambda n, M, mode: broad_size(n, M, BROAD)
        )
        report = sweep(small_config(n_max=10, M_max=11))
        assert self.counts(report) == (0, 0, {"broad": 0, "strict": 0})

    def test_gamma0_path_admits_n_equal_M(self, monkeypatch):
        # a path on M vertices read as a GAMMA(0) base, which it is not
        gamma0_size = families._gamma0_path_size
        monkeypatch.setattr(
            families, "_gamma0_path_size", lambda n, M: n == M or gamma0_size(n, M)
        )
        # keep the mutant's verdicts out of the memo that later tests read
        monkeypatch.setattr(families, "_memo_tree", None)
        monkeypatch.setattr(families, "_member_memo", {})
        report = sweep(small_config(n_max=10, M_max=11))
        assert self.counts(report) == (0, 31, {"broad": 39, "strict": 63})

    def test_parity_rule_dropped(self, monkeypatch):
        # every spec takes the cyclotomic index 2M, so an even i at odd M is
        # read as lambda's negative, M - i being odd; a tree is bipartite, so
        # m is the same and the records stay the same.  The rank engine reads
        # no minimal polynomial, and only the leftover check sees that the
        # even-i orbit is never divided out.
        def clear():
            verify_mod._orbit_table.cache_clear()
            poly._minimal_poly.cache_clear()

        clear()
        monkeypatch.setattr(
            LambdaSpec, "minimal_poly", property(lambda spec: poly._minimal_poly(2 * spec.M))
        )
        try:
            report = sweep(small_config(n_max=10, M_max=11))
        finally:
            clear()
        assert report.records_sha256 == GOLDEN_SHA256
        assert self.counts(report) == (0, 0, {"broad": 0, "strict": 30})
        other = report.other_eigenvalues
        assert (other["levels"], other["violations"]) == (186, 15)  # 164 and 0 unbroken

    @pytest.mark.parametrize(
        "line, mutant",
        [
            ("(None, 0, nullity + zeros - 1)", "(None, 0, nullity + zeros)"),
            ("return nullity + (p == 0)", "return nullity"),
        ],
        ids=["zero-children-add-all", "zero-root-adds-nothing"],
    )
    def test_rank_engine_zero_child_rule(self, monkeypatch, line, mutant):
        # an edited copy of rank_nullity, with tables of its own so that its
        # wrong states stay out of the real engine's
        source = inspect.getsource(spectrum.rank_nullity)
        assert source.count(line) == 1
        namespace = {**vars(spectrum), "_states": {}}
        exec(source.replace(line, mutant), namespace)
        monkeypatch.setattr(verify_mod, "rank_nullity", namespace["rank_nullity"])
        with pytest.raises(EngineMismatchError):
            sweep(small_config(n_max=10, M_max=11))


class TestLemmaSuite:
    def test_all_checks_clean_small(self):
        results = {
            "path_simplicity": path_simplicity(n_max=60, M_max=12),
            "parter_vertex": parter_vertex(n_max=7, M_max=8),
            "branch_equivalence": branch_equivalence(n_max=7, M_max=8),
            "family_pendant_deletion": family_pendant_deletion(k_max=2, n_max=10, M_max=4),
        }
        assert {name: checked for name, (checked, _) in results.items()} == {
            "path_simplicity": 960,
            "parter_vertex": 31,
            "branch_equivalence": 300,
            "family_pendant_deletion": 55,
        }
        for name, (_, violations) in results.items():
            assert violations == [], name



class TestAudit:
    """The sweep's check of the eigenvalues no swept orbit carries, on trees
    with n + 1 <= M_max (the summary's `other_eigenvalues` block)."""

    @staticmethod
    def swept(t, M_max):
        """The tree's per-tree Tally and other-eigenvalue outcome."""
        _, tally = _sweep_tree((emit_graph6(t), M_max, (BROAD, STRICT)))
        return tally, tally.other_eigenvalues

    @staticmethod
    def checked(g6, rest, p):
        """`_check_other`'s outcome on one tree's leftover."""
        tally = Tally()
        _check_other(g6, rest, p, tally)
        return tally.other_eigenvalues

    def test_small_range_flags_empty(self):
        block = sweep(small_config(n_max=8, M_max=9)).other_eigenvalues
        assert block["violations"] == 0 and block["violation_examples"] == []
        assert block["trees"] == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23
        # the 23 trees on 8 vertices need M_max >= 9
        assert sweep(small_config(n_max=8, M_max=8)).other_eigenvalues["trees"] == 25
        assert sweep(small_config(n_max=8, M_max=3)).other_eigenvalues["trees"] == 2

    def test_scope_notes_mean_absolutely_non_path_type(self):
        # the legs-(3,3,1) spider has 2 as a simple eigenvalue, and |2cos| < 2
        # strictly, so that one is never of path form
        for M_max in (9, 30):
            assert self.swept(spider_tree(3, 3, 1), M_max)[1]["strict_discrepancies"] == 1
        # the legs-(1,2,4) spider looks non-path-type up to denominator n + 1,
        # so it is a strict discrepancy of the block there...
        t = spider_tree(1, 2, 4)
        low_tally, low_other = self.swept(t, 9)
        assert low_other["strict_discrepancies"] == 1
        assert low_tally.eq_second[STRICT.value] == 0 and low_tally.strict_discrepancies == []
        # ...but its whole spectrum is 2cos(i*pi/30), so once M = 30 is swept
        # it is a strict discrepancy of the records instead, never both
        high_tally, high_other = self.swept(t, 30)
        assert high_other["strict_discrepancies"] == 0
        strict = {d["lambda"][1] for d in high_tally.strict_discrepancies}
        assert strict == {30}
        assert high_tally.eq_second[STRICT.value] == len(high_tally.strict_discrepancies)

    @pytest.mark.parametrize(
        "p, level, verdict",
        [
            (2, 1, "violations"),
            (3, 1, "strict_discrepancies"),
            (3, 2, "violations"),
            (4, 1, None),
            (4, 2, "violations"),
            (5, 2, None),
            (5, 3, "violations"),
        ],
    )
    def test_level_rule(self, p, level, verdict):
        # a leftover of x^2 - 3 at the given level
        other = self.checked("?", Polynomial((-3, 0, 1)) ** level, p)
        counted = {key: other[key] for key in ("violations", "strict_discrepancies")}
        assert counted == {key: int(key == verdict) for key in counted}
        assert other["levels"] == 1

    def test_paths_never_noted(self):
        for n in range(1, 12):
            other = self.swept(path_tree(n), n + 1)[1]
            assert other["levels"] == other["violations"] == other["strict_discrepancies"] == 0

    def test_first_level_two_tree(self):
        # three K_{1,4}, each joined through one leaf to a new vertex 0: the
        # smallest swept range with a leftover level k = 2 is n <= 16
        edges = []
        for s in range(3):
            center = 1 + 5 * s
            edges += [(0, center + 1)] + [(center, center + j) for j in range(1, 5)]
        t = Tree.from_edges(16, edges)
        g6 = emit_graph6(t)
        assert g6 == "OhGc?C@?OAO??@??_?O?C" and pendant_count(t) == 9
        # the leftover as the sweep leaves it: every swept orbit divided out
        rest = char_poly(t)
        for mu, _ in spec_orbits(17):
            rest = factor_multiplicity(rest, mu)[1]
        assert squarefree_decompose(rest) == [
            (Polynomial((9, 0, -7, 0, 1)), 1),
            (Polynomial((-4, 0, 1)), 2),
        ]
        other = self.swept(t, 17)[1]
        assert other["levels"] == 2
        assert other["violations"] == other["strict_discrepancies"] == 0
        # with p = 4 the level-2 part breaks the bound and the level-1 part
        # does not, so reading every level as 1 would miss the violation
        other = self.checked(g6, rest, 4)
        assert other["violations"] == 1 and other["strict_discrepancies"] == 0
        assert [(e["level"], e["residue"]) for e in other["violation_examples"]] == [
            (2, [-4, 0, 1])
        ]


@pytest.fixture
def forks(monkeypatch):
    """The worker processes `_fan_out` starts while the test runs."""
    started = []

    class CountedProcess(verify_mod.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(verify_mod, "Process", CountedProcess)
    return started


# a fresh interpreter whose forked sweep workers die at their first tree;
# it prints what the sweep raised and the children left after it
DYING_WORKER = """
import multiprocessing, os, sys
import treemult.verify as verify
from treemult.families import BROAD, STRICT

parent, rank = os.getpid(), verify.rank_nullity

def rank_or_die(t, spec):
    if os.getpid() != parent:
        os._exit(1)
    return rank(t, spec)

verify.rank_nullity = rank_or_die
config = verify.SweepConfig(n_max=7, M_max=4, modes=(BROAD, STRICT), worker_count=2, output_path=sys.argv[1])
try:
    verify.sweep(config)
except ChildProcessError as exc:
    print(type(exc).__name__, exc)
print(multiprocessing.active_children())
"""


class TestPoolSize:
    def test_pool_never_larger_than_the_work(self, monkeypatch, forks):
        # at 64 workers, one process per chunk of CHUNK payloads, the
        # caller's own included, and the payloads are streamed, not listed
        fed = []
        fan_out = verify_mod._fan_out

        def recording(fn, payloads, workers):
            fed.append(payloads)
            return fan_out(fn, payloads, workers)

        monkeypatch.setattr(verify_mod, "_fan_out", recording)
        calls = {
            25: lambda: sweep(small_config(workers=64, n_max=7, M_max=3)).tree_count,
            3: lambda: sweep(small_config(workers=64, n_max=3, M_max=3)).tree_count,
            1: lambda: sweep(SweepConfig(n_max=1, M_max=3, worker_count=64)).tree_count,
            20: lambda: 20 + len(engine_agreement_check(20, n_max=6, M_max=7, workers=64)),
            0: lambda: len(engine_agreement_check(0, workers=64)),
        }
        for work, call in calls.items():
            before = len(forks)
            assert call() == work
            chunks = -(-work // verify_mod.CHUNK)
            assert len(forks) - before == max(chunks - 1, 0), work
        assert len(forks) == 5  # 4 chunks of 25 trees, 3 of 20 pairs
        assert len(fed) == len(calls) and all(iter(payloads) is payloads for payloads in fed)

    def test_no_worker_outlives_its_call(self, forks):
        assert sweep(small_config(workers=2, n_max=8, M_max=5)).tree_count == 48
        assert engine_agreement_check(40, n_max=8, M_max=9, workers=2) == []
        assert len(forks) == 2
        assert not any(p.is_alive() for p in forks) and multiprocessing.active_children() == []

    def test_dying_worker_aborts_the_sweep(self, tmp_path):
        # a worker that dies without a word must abort the sweep, not hang it;
        # run in a fresh interpreter so that a hang fails on the timeout
        out = tmp_path / "records.jsonl"
        package = Path(verify_mod.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", DYING_WORKER, str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        raised, children = done.stdout.splitlines()
        assert raised.startswith("ChildProcessError worker 1 of 2 (pid ")
        assert raised.endswith(") exited with status 1 before returning its results")
        assert children == "[]"
        assert not out.exists() and not (tmp_path / "records.jsonl.tmp").exists()


class TestEngineAgreement:
    def test_heap_decoder_matches_scan_oracle(self):
        # same edges and the same draws from rng, so the agreement check
        # keeps testing the same trees
        for n in range(1, 41):
            for seed in range(50):
                heap_rng, scan_rng = random.Random(seed), random.Random(seed)
                assert _random_tree_edges(n, heap_rng) == random_tree_edges_by_scan(
                    n, scan_rng
                ), (n, seed)
                assert heap_rng.random() == scan_rng.random()

    def test_random_pairs_single_worker(self):
        assert engine_agreement_check(100, n_max=12, M_max=13, seed=7) == []

    def test_random_pairs_parallel(self):
        assert engine_agreement_check(200, n_max=14, M_max=15, seed=11, workers=2) == []

    def test_disagreements_in_seed_order_for_any_worker_count(self, monkeypatch):
        # an engine off by one on every odd tree size; the pool's workers
        # are forked with the patch
        rank = verify_mod.rank_nullity
        monkeypatch.setattr(verify_mod, "rank_nullity", lambda t, spec: rank(t, spec) + t.n % 2)
        serial = engine_agreement_check(600, n_max=10, M_max=8, seed=3)
        assert len(serial) > 100
        assert engine_agreement_check(600, n_max=10, M_max=8, seed=3, workers=2) == serial
