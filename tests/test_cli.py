"""Command-line interface: subcommands, formats, exit codes, stdin."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treemult
from oracles import major_chain, star_tree, to_json_dict
from treemult.cli import main
from treemult.poly import all_specs
from treemult.tree import emit_graph6, enumerate_trees, load_edge_json, path_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within(seconds, capsys, *argv):
    """run, failing the test if the command is still going after seconds."""

    def expire(signum, frame):
        pytest.fail(f"treemult {' '.join(argv)} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def path_edges(n):
    return ",".join(f"{k}-{k + 1}" for k in range(n - 1))


class TestMult:
    def test_star_at_zero(self, capsys):
        code, out, _ = run(capsys, "mult", "--edges", "0-1,0-2,0-3", "--lambda", "1/2")
        assert code == 0
        assert out.strip() == "m=2 p=3 gamma=1"

    def test_path_graph6(self, capsys):
        g6 = emit_graph6(path_tree(5))
        code, out, _ = run(capsys, "mult", "--graph6", g6, "--lambda", "1/2")
        assert code == 0
        assert out.strip() == "m=1 p=2 gamma=0"

    def test_json_format_same_data(self, capsys):
        code, out, _ = run(
            capsys, "mult", "--edges", "0-1,0-2,0-3", "--lambda", "1/2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["m"], data["p"], data["gamma"]) == (2, 3, 1)

    def test_stdin_lines(self, capsys, monkeypatch):
        lines = "\n".join(emit_graph6(t) for t in enumerate_trees(5)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "mult", "--lambda", "1/2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_json_tree_file(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(to_json_dict(star_tree(4))))
        code, out, _ = run(capsys, "mult", "--json", str(path), "--lambda", "1/2")
        assert code == 0
        assert out.strip() == "m=3 p=4 gamma=1"


    def test_long_path_human_needs_no_graph6(self, capsys):
        # P100 is beyond the graph6 short form, which only JSON output uses
        code, out, err = run(capsys, "mult", "--edges", path_edges(100), "--lambda", "1/2")
        assert (code, out.strip(), err) == (0, "m=0 p=2 gamma=0", "")

    def test_large_denominator_is_not_an_eigenvalue(self, capsys):
        # the minimal polynomial of 2cos(pi/30011) has degree 15,005 > n, so
        # m = 0 is known without building cyclotomic(60022)
        code, out, err = run_within(5, capsys, "mult", "--edges", "0-1,1-2", "--lambda", "1/30011")
        assert (code, out.strip(), err) == (0, "m=0 p=2 gamma=0", "")


class TestCharpoly:
    def test_coefficients(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--edges", "0-1,0-2,0-3")
        assert code == 0
        assert out.split() == ["0", "0", "-3", "0", "1"]


class TestClassify:
    def test_mode_split_exemplar(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--edges", "0-1,0-2,0-3", "--lambda", "1/6",
            "--mode", "strict",
        )
        assert code == 0 and out.strip() == "NONE"
        code, out, _ = run(
            capsys, "classify", "--edges", "0-1,0-2,0-3", "--lambda", "1/6",
            "--mode", "broad",
        )
        assert code == 0 and out.splitlines()[0] == "GAMMA2(1)"

    def test_witness_in_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--edges", "0-1,0-2,0-3,0-4", "--lambda", "1/2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "GAMMA(1)"
        assert data["witness"][0]["vertex"] == 0
        assert len(data["witness"][0]["components"]) == 4

    @pytest.mark.parametrize(
        "k, connector, leg, middle, lam, mode",
        [
            # a strict non-member whose GAMMA2 search tries every level
            pytest.param(300, 2, 2, 3, "1/3", "strict", id="strict-non-member"),
            # a GAMMA2 member, found one level deeper per major
            pytest.param(600, 1, 1, 2, "1/2", "broad", id="gamma2-member"),
        ],
    )
    def test_too_many_majors_exits_2(self, capsys, k, connector, leg, middle, lam, mode):
        # the search recurses once per major vertex; past Python's recursion
        # limit the command reports the major count instead of a traceback
        t = major_chain(k, connector, leg, middle)
        edges = ",".join(f"{u}-{v}" for u, v in t.edges)
        code, out, err = run(capsys, "classify", "--edges", edges, "--lambda", lam, "--mode", mode)
        assert code == 2
        assert err.startswith("error: ") and f"{k} majors" in err and out == ""

    def test_golden_output_hash(self, capsys, monkeypatch):
        # tags and witnesses of every tree with n <= 10 at every M <= 8 in
        # both modes, pinned byte for byte
        stdin = "".join(
            emit_graph6(t) + "\n" for n in range(1, 11) for t in enumerate_trees(n)
        )
        digest = hashlib.sha256()
        lines = 0
        for spec in all_specs(8):
            for mode in ("broad", "strict"):
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                code, out, _ = run(
                    capsys, "classify", "--lambda", str(spec), "--mode", mode,
                    "--format", "json",
                )
                assert code == 0
                digest.update(out.encode())
                lines += out.count("\n")
        assert lines == 8442
        assert digest.hexdigest() == (
            "68df7f689bb5f7e31f1cd3febf7973b7d46168a8c45d8cb05caba55a5f77fdc1"
        )


class TestStreams:
    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7")
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_enumerate_pipes_into_mult(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "enumerate", "--n", "6")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "mult", "--lambda", "1/3")
        assert code == 0
        assert len(out2.strip().splitlines()) == 6

    def test_generate(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "gamma", "--k", "0",
            "--lambda", "1/2", "--n-max", "6",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # P_1, P_3, P_5

    @pytest.mark.parametrize("family", ["gamma", "gamma2"])
    def test_generate_large_k_prints_nothing(self, capsys, family):
        # a member of level k has at least 3k + 1 vertices; the recursion
        # stops when no vertex is left instead of descending k levels
        code, out, err = run(
            capsys, "generate", "--family", family, "--k", "5000",
            "--lambda", "1/2", "--n-max", "10",
        )
        assert (code, out, err) == (0, "", "")

    def test_generate_large_denominator_prints_nothing(self, capsys):
        # no tree on at most 8 vertices has 2cos(pi/30011) as an eigenvalue
        code, out, err = run_within(
            5, capsys, "generate", "--family", "gamma2", "--k", "2",
            "--lambda", "1/30011", "--n-max", "8",
        )
        assert (code, out, err) == (0, "", "")

    def test_enumerate_respects_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "21")
        assert code == 2 and "limit" in err
        code, _, err = run(capsys, "verify", "--n-max", "21", "--m-max", "22")
        assert code == 2 and "limit" in err

    def test_single_vertex_edge_text(self, capsys):
        code, out, _ = run(capsys, "mult", "--edges", "0", "--lambda", "1/2")
        assert code == 0
        assert out.strip() == "m=1 p=2 gamma=0"


class TestVerifyAuditReport:
    def test_verify_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "rec.jsonl"
        code, out, _ = run(
            capsys, "verify", "--n-max", "5", "--m-max", "5",
            "--modes", "broad,strict", "--workers", "1",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["bound"]["violations"] == 0
        assert out_path.exists()
        code, out, _ = run(capsys, "report", str(out_path))
        assert code == 0
        assert "bound violations: 0" in out

    def test_verify_default_out_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TREEMULT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "verify", "--n-max", "4", "--m-max", "3", "--workers", "1")
        assert code == 0
        assert (tmp_path / "verify_records.jsonl").exists()

    def test_audit(self, capsys, tmp_path):
        # every eigenvalue of every tree with n <= 6 is checked at M_max = 7
        code, out, _ = run(
            capsys, "verify", "--n-max", "6", "--m-max", "7", "--workers", "1",
            "--out", str(tmp_path / "rec.jsonl"),
        )
        assert code == 0
        assert (
            "other eigenvalues (14 trees with n+1 <= M_max): "
            "0 violations, 3 strict discrepancies"
        ) in out.splitlines()

    def test_verify_exit_1_on_other_eigenvalue_violation(self, capsys, tmp_path, monkeypatch):
        # a pendant count one short turns K_{1,3}'s simple +-sqrt(3), left
        # over at M_max = 5, into a level above p - 3
        import treemult.verify as verify_mod
        from treemult.tree import pendant_count

        monkeypatch.setattr(verify_mod, "pendant_count", lambda t: pendant_count(t) - 1)
        code, out, _ = run(
            capsys, "verify", "--n-max", "4", "--m-max", "5", "--workers", "1",
            "--out", str(tmp_path / "rec.jsonl"), "--format", "json",
        )
        assert code == 1
        block = json.loads(out)["other_eigenvalues"]
        assert block["violations"] == len(block["violation_examples"]) > 0
        star = emit_graph6(star_tree(3))
        assert {"tree": star, "level": 1, "p": 2, "residue": [-3, 0, 1]} in block[
            "violation_examples"
        ]

    def test_report_exit_1_on_violations(self, capsys, tmp_path):
        # exit-code contract: broad-mode violations in the record file flip
        # the status to 1 (no real sweep produces one, so build the line)
        rec = {
            "tree": "Bo",  # the one tree on 3 vertices
            "lambda": [1, 2],
            "p": 2,
            "gamma": 0,
            "m": 0,
            "bound_ok": True,
            "thm13_status": "CONSISTENT",
            "thm14_status": {"broad": "VIOLATION"},
            "classification": {"broad": "NONE"},
            "notes": "synthetic",
        }
        path = tmp_path / "doctored.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        code, out, _ = run(capsys, "report", str(path))
        assert code == 1

    def test_report_missing_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nope.jsonl"
        code, _, err = run(capsys, "report", str(path))
        assert code == 2 and err.startswith("error: ")
        assert str(path) in err and "Traceback" not in err

    def test_report_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_verify_unwritable_out_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "r.jsonl"
        code, out, err = run(
            capsys, "verify", "--n-max", "4", "--m-max", "3", "--workers", "1",
            "--out", str(out_path),
        )
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and "r.jsonl.tmp" in err
        assert list(tmp_path.iterdir()) == []

    def test_verify_write_error_keeps_earlier_files(self, capsys, tmp_path, monkeypatch):
        # a write that fails after the first tree drops the partial records
        # and leaves the record file and summary of an earlier run as they were
        import builtins

        import treemult.verify as verify_mod

        out_path = tmp_path / "rec.jsonl"
        argv = ["verify", "--n-max", "5", "--m-max", "3", "--workers", "1", "--out", str(out_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        summary_path = tmp_path / "rec.jsonl.summary.json"
        before = out_path.read_bytes(), summary_path.read_bytes()

        class FullDisk:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def full_open(path, *args, **kwargs):
            f = builtins.open(path, *args, **kwargs)
            return FullDisk(f) if str(path).endswith(".tmp") else f

        monkeypatch.setattr(verify_mod, "open", full_open, raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and "No space left on device" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.jsonl", "rec.jsonl.summary.json"]
        assert (out_path.read_bytes(), summary_path.read_bytes()) == before

    def test_verify_unwritable_summary_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "rec.jsonl"
        (tmp_path / "rec.jsonl.summary.json").mkdir()
        code, out, err = run(
            capsys, "verify", "--n-max", "4", "--m-max", "3", "--workers", "1",
            "--out", str(out_path),
        )
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and "rec.jsonl.summary.json" in err
        assert out_path.exists()  # the records are whole; report can re-count them

    @pytest.mark.parametrize(
        "line", ['{"tree": "B_", "lambda": [1, 2]}', "[1,2,3]", "not json"]
    )
    def test_report_malformed_record_exits_2(self, capsys, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        code, _, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2", "--out", str(path))
        assert code == 0 and path.read_text().count("\n") == 1
        with open(path, "a") as f:
            f.write(line + "\n")
        code, _, err = run(capsys, "report", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}:2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("summary", [True, False])
    @pytest.mark.parametrize(
        "text, line, named",
        [("", "", "no sweep record"), ("\n \n\n", ":1", "not a sweep record")],
        ids=["empty", "blank-lines"],
    )
    def test_report_file_without_records_exits_2(self, capsys, tmp_path, summary, text, line, named):
        # every sweep writes at least one record (n >= 1, M_max >= 2), so a
        # file with none is refused, even beside a summary of its counts; no
        # sweep writes a blank line, so the first is refused as a record
        path = tmp_path / "rec.jsonl"
        path.write_text(text)
        if summary:
            counts = {
                "records": 0,
                "records_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "trees": 0,
                "specs": 0,
                "bound": {"violations": 0},
                "pendant_minus_one": {"violations": 0},
                "pendant_minus_two": {},
            }
            (tmp_path / "rec.jsonl.summary.json").write_text(json.dumps(counts))
        code, out, err = run(capsys, "report", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {path}{line}: ") and named in err

    def test_verify_engine_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        # a broken engine has a status of its own, apart from violations, and
        # the aborted sweep leaves no record file, partial or whole
        import treemult.verify as verify_mod

        monkeypatch.setattr(verify_mod, "rank_nullity", lambda t, spec: 99)
        out_path = tmp_path / "rec.jsonl"
        code, out, err = run(
            capsys, "verify", "--n-max", "4", "--m-max", "5", "--workers", "1",
            "--out", str(out_path),
        )
        assert code == 3 and out == "" and "Traceback" not in err
        prefix = "error: EngineMismatchError: "
        assert err.startswith(prefix)
        # the single vertex has 0 = 2cos(pi/2) as a simple eigenvalue
        assert json.loads(err[len(prefix):]) == {
            "tree": "@", "lambda": [1, 2], "division_engine": 1, "rank_engine": 99,
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "damage", ["none", "cut", "appended", "swapped", "garbled-summary", "bound"]
    )
    def test_report_checks_count_and_digest(self, capsys, tmp_path, damage):
        # the summary beside a record file pins its record count, sha256 and
        # other counts: a file cut by a line, or carrying a record of another
        # sweep, fails, and so does a summary whose counts the records do
        # not give
        out_path = tmp_path / "rec.jsonl"
        code, _, _ = run(
            capsys, "verify", "--n-max", "5", "--m-max", "5", "--workers", "1",
            "--out", str(out_path),
        )
        assert code == 0
        other = tmp_path / "other.jsonl"
        code, _, _ = run(
            capsys, "verify", "--n-min", "6", "--n-max", "6", "--m-max", "2",
            "--workers", "1", "--out", str(other),
        )
        assert code == 0
        lines = out_path.read_text().splitlines(keepends=True)
        foreign = other.read_text().splitlines(keepends=True)[0]
        if damage == "cut":
            lines.pop()
        elif damage == "appended":
            lines.append(foreign)
        elif damage == "swapped":
            lines[-1] = foreign
        elif damage == "garbled-summary":
            (tmp_path / "rec.jsonl.summary.json").write_text("{bad")
        elif damage == "bound":
            summary_path = tmp_path / "rec.jsonl.summary.json"
            summary = json.loads(summary_path.read_text())
            summary["bound"] = {"violations": 1}
            summary_path.write_text(json.dumps(summary))
        out_path.write_text("".join(lines))
        code, out, err = run(capsys, "report", str(out_path))
        if damage == "none":
            assert code == 0 and "bound violations: 0" in out
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "Traceback" not in err
            # a cut, appended or swapped line leaves a run short, which
            # `read` finds before the summary is checked
            named = {
                "garbled-summary": "rec.jsonl.summary.json",
                "bound": "bound=",
            }
            assert named.get(damage, "ends after") in err

    @pytest.mark.parametrize("summary", [True, False])
    @pytest.mark.parametrize(
        "damage, line, named",
        [
            ("out-of-order", 37, "expected tree"),  # trees 4 and 5 swapped
            ("repeated", 46, "expected tree"),  # tree 3 again after tree 4
            ("tree-missing", 37, "expected tree 2 of the 2 on 4 vertices"),  # tree 4 deleted
            ("size-missing", 28, "expected tree 1 of the 2 on 4 vertices"),  # trees 3 and 4 deleted
            ("last-tree-missing", None, "ends after 2 of the 3 trees on 5 vertices"),
            ("missing-inside", 41, "lambda order"),
            ("missing-end", 45, "ends after 8 of 9"),
            ("extra", 46, "lambda order"),
            ("swapped", 39, "lambda order"),
            ("missing-last", None, "ends after 8 of 9"),
            ("missing-first", 9, "every lambda"),
            ("missing-everywhere", 9, "every lambda"),
            ("missing-lone", None, "every lambda"),  # the file holds one run
            ("lone-garbled", None, "every lambda"),  # its last lambda is no [i, M]
            ("blank", 21, "not a sweep record"),  # blank lines inside and at the end
        ],
    )
    def test_report_checks_each_run(self, capsys, tmp_path, summary, damage, line, named):
        # a sweep writes each tree's records as one run, every tree of each
        # size in the sweep's order, every run with the same lambdas in the
        # same order, the first with every lambda up to its last M; `report`
        # refuses a file that breaks this, with or without its summary
        out_path = tmp_path / "rec.jsonl"
        code, _, _ = run(
            capsys, "verify", "--n-max", "5", "--m-max", "5", "--workers", "1",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines(keepends=True)
        runs = [lines[k:k + 9] for k in range(0, len(lines), 9)]  # 8 trees, 9 lambdas
        assert len(runs) == 8 and len({json.loads(r[0])["tree"] for r in runs}) == 8
        if damage == "out-of-order":
            runs[4], runs[5] = runs[5], runs[4]
        elif damage == "repeated":
            runs.insert(5, runs[3])
        elif damage == "tree-missing":
            del runs[4]
        elif damage == "size-missing":
            del runs[3:5]
        elif damage == "last-tree-missing":
            del runs[-1]
        elif damage == "missing-inside":
            del runs[4][4]
        elif damage == "missing-end":
            del runs[4][-1]
        elif damage == "extra":
            runs[4].append(runs[4][-1])
        elif damage == "swapped":
            runs[4][2], runs[4][3] = runs[4][3], runs[4][2]
        elif damage == "missing-last":
            del runs[-1][-1]
        elif damage == "missing-first":
            del runs[0][4]
        elif damage == "missing-everywhere":
            for r in runs:
                del r[4]
        elif damage == "missing-lone":
            runs = runs[:1]
            del runs[0][4]
        elif damage == "lone-garbled":
            runs = runs[:1]
            runs[0][-1] = json.dumps({**json.loads(runs[0][-1]), "lambda": "x"}) + "\n"
        elif damage == "blank":
            runs[2].insert(2, "\n")
            runs[-1].append("   \n")
        out_path.write_text("".join(sum(runs, [])))
        if not summary:
            (tmp_path / "rec.jsonl.summary.json").unlink()
        code, out, err = run(capsys, "report", str(out_path))
        assert code == 2 and out == "" and "Traceback" not in err
        where = f"{out_path}:{line}: " if line else f"{out_path}: "
        assert err.startswith(f"error: {where}") and named in err

    def test_verify_and_report_print_same_counts(self, capsys, tmp_path):
        out_path = tmp_path / "rec.jsonl"
        code, out, _ = run(
            capsys, "verify", "--n-max", "5", "--m-max", "5",
            "--modes", "broad,strict", "--workers", "1", "--out", str(out_path),
        )
        assert code == 0
        code, out2, _ = run(capsys, "report", str(out_path))
        assert code == 0
        assert out.splitlines()[:5] == out2.splitlines()


class TestErrors:
    def test_bad_lambda_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--edges", "0-1", "--lambda", "2/6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["1_0/21", "\u0661/\u0662", "+1/2", "1 /2"])
    def test_lambda_wants_ascii_digits(self, capsys, text):
        # int() would read these as 10/21, 1/2, 1/2 and 1/2
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--edges", "0-1", "--lambda", text])
        assert exc.value.code == 2
        assert "cannot parse eigenvalue spec" in capsys.readouterr().err

    def test_cyclic_input_exits_2(self, capsys):
        code, _, err = run(capsys, "mult", "--edges", "0-1,1-2,2-0", "--lambda", "1/2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": Infinity, "edges": []}',
            '{"n": 3, "edges": [[0, 1], [1, 2.7]]}',
            '{"n": 2.0, "edges": [[0, 1]]}',
            '{"n": "2", "edges": [[0, 1]]}',
            '{"n": 2, "edges": [[false, true]]}',
        ],
    )
    def test_non_integer_json_tree_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "tree.json"
        path.write_text(text)
        code, out, err = run(capsys, "mult", "--json", str(path), "--lambda", "1/2")
        assert code == 2
        assert err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("flag", ["--graph6", "--edges", "--json"])
    def test_empty_tree_argument_exits_2(self, capsys, monkeypatch, flag):
        # an empty argument is an input error, not a request to read stdin
        monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n"))
        code, out, err = run(capsys, "mult", flag, "", "--lambda", "1/2")
        assert code == 2
        assert err.startswith("error: ") and out == ""

    def test_malformed_graph6_exits_2(self, capsys):
        code, _, err = run(capsys, "charpoly", "--graph6", "D")
        assert code == 2
        assert "error" in err

    def test_bad_modes_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "3", "--m-max", "3", "--modes", "broad,foo",
                  "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--modes" in err and "'foo'" in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_duplicate_modes_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "verify", "--n-max", "3", "--m-max", "3", "--modes", "broad,strict,broad",
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 2
        assert err.startswith("error: ") and "duplicate mode" in err and out == ""
        assert not (tmp_path / "r.jsonl").exists()

    def test_json_output_far_above_graph6_range_skips_canonical_labeling(self, capsys):
        # canonical labeling recurses once per vertex of a path, past the
        # limit on P3000; a tree above n = 62 is printed as given instead
        code, out, err = run(
            capsys, "classify", "--edges", path_edges(3000), "--lambda", "1/2", "--format", "json"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["tree"] == to_json_dict(path_tree(3000))

    @pytest.mark.parametrize("command", ["mult", "charpoly", "classify"])
    def test_json_output_above_graph6_range_names_the_tree_by_its_edges(self, capsys, command):
        # graph6's short form stops at n = 62; above it the record's tree is
        # the edge-list object that --json reads back
        path, chain = path_tree(63), major_chain(20, 3, 1, 1)  # chain: 20 majors, 99 vertices
        for t, tag, steps in ((path, "GAMMA(0)", 0), (chain, "GAMMA(20)", 20)):
            edges = ",".join(f"{u}-{v}" for u, v in t.edges)
            argv = [command, "--edges", edges, "--format", "json"]
            if command != "charpoly":
                argv += ["--lambda", "1/2"]
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            record = json.loads(out)
            assert record["tree"] == to_json_dict(t)
            assert load_edge_json(json.dumps(record["tree"])) == t
            if command == "classify":
                assert (record["result"], len(record["witness"])) == (tag, steps)

    @pytest.mark.parametrize("n_max", ["63", "200", "1000"])
    def test_generate_above_graph6_range_exits_2(self, capsys, n_max):
        code, out, err = run(
            capsys, "generate", "--family", "gamma", "--k", "0", "--lambda", "1/2",
            "--n-max", n_max,
        )
        assert code == 2
        assert err.startswith("error: ") and out == ""

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def cli_process(*argv):
    """treemult argv in a fresh interpreter and a session (so a process
    group) of its own, with pipes for stdout and stderr."""
    package = Path(treemult.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen(
        [sys.executable, "-m", "treemult.cli", *argv], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestInterrupts:
    def test_ctrl_c_exits_130_with_one_line(self, tmp_path):
        out = tmp_path / "records.jsonl"
        tmp = tmp_path / "records.jsonl.tmp"
        proc = cli_process(
            "verify", "--n-max", "14", "--m-max", "15", "--modes", "broad,strict",
            "--workers", "2", "--out", str(out),
        )
        try:
            # once records are written the worker is forked and sweeping
            deadline = time.monotonic() + 60
            while not (tmp.exists() and tmp.stat().st_size):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: the whole group
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
        assert not tmp.exists() and not out.exists()
        with pytest.raises(ProcessLookupError):  # no worker is left in the group
            os.killpg(proc.pid, 0)

    def test_closed_stdout_ends_quietly(self):
        # n = 15's 155 KB of codes exceed a pipe's 64 KB buffer, so the
        # command is still writing when its reader closes after one line
        proc = cli_process("enumerate", "--n", "15")
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first.startswith("N") and stderr == ""  # N: graph6 of 15 vertices
        assert proc.returncode == 141
