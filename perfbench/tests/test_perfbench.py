"""End-to-end checks of the benchmark's failure accounting and tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Agreement, Sweep  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory) -> Sweep:
    """n <= 6, M <= 5, pinned to the record file the library writes."""
    from treemult.families import BROAD, STRICT
    from treemult.verify import SweepConfig, sweep

    out = tmp_path_factory.mktemp("reference") / "records.jsonl"
    sweep(SweepConfig(n_max=6, M_max=5, modes=(BROAD, STRICT), output_path=str(out)))
    data = out.read_bytes()
    return Sweep(
        name="tiny",
        n_min=1,
        n_max=6,
        m_max=5,
        parallel=False,
        records=data.count(b"\n"),
        sha256=hashlib.sha256(data).hexdigest(),
    )


def _deadline() -> float:
    return time.monotonic() + 120


def _preload(tmp_path: Path, code: str) -> str:
    path = tmp_path / "preload.py"
    path.write_text(code)
    return str(path)


def test_clean_repeat_passes(tiny_sweep, tmp_path):
    rep = run.sweep_repeat(tiny_sweep, 1, str(tmp_path), _deadline())
    assert rep.ok, rep.problems
    assert rep.wall_s > 0 and rep.cpu_s > 0 and rep.report_s > 0
    assert len(rep.setup_s) == 2  # verify and report each start an interpreter


def test_flipped_byte_is_failed_and_not_timed(tiny_sweep, tmp_path):
    def flip(path):
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(path).write_bytes(bytes(data))

    clean = run.sweep_repeat(tiny_sweep, 1, str(tmp_path), _deadline())
    flipped = run.sweep_repeat(tiny_sweep, 1, str(tmp_path), _deadline(), tamper=flip)
    assert clean.ok
    assert not flipped.ok
    assert any("sha256" in p for p in flipped.problems)
    pairs = tiny_sweep.pairs()
    assert run.tally([clean, flipped]) == (2 * pairs, pairs)
    assert run.end_to_end([], [clean, flipped])["wall_s"] == clean.wall_s


def test_nonzero_exit_is_failed_and_not_timed(tiny_sweep, tmp_path):
    # the sweep itself is correct; only the exit status says otherwise
    preload = _preload(
        tmp_path,
        "import treemult.cli as cli\n"
        "verify = cli._cmd_verify\n"
        "cli._cmd_verify = lambda args: verify(args) or 1\n",
    )
    failing = Sweep(**{**tiny_sweep.__dict__, "preload": preload})
    clean = run.sweep_repeat(tiny_sweep, 1, str(tmp_path), _deadline())
    bad = run.sweep_repeat(failing, 1, str(tmp_path), _deadline())
    assert clean.ok
    assert bad.problems and bad.problems[0].startswith("verify exited 1")
    assert run.tally([bad, clean]) == (2 * tiny_sweep.pairs(), tiny_sweep.pairs())
    assert run.end_to_end([], [bad, clean])["wall_s"] == clean.wall_s


def test_engine_mismatch_is_failed_and_not_timed(tmp_path):
    preload = _preload(
        tmp_path,
        "import treemult.verify as verify\n"
        "rank = verify.rank_nullity\n"
        "verify.rank_nullity = lambda t, mu: rank(t, mu) + t.n % 2\n",
    )
    good = Agreement(name="tiny", count=40, n_max=8, m_max=6)
    broken = Agreement(name="tiny", count=40, n_max=8, m_max=6, preload=preload)
    clean = run.agreement_repeat(good, 7, str(tmp_path), _deadline())
    bad = run.agreement_repeat(broken, 7, str(tmp_path), _deadline())
    assert clean.ok, clean.problems
    assert bad.problems and "engine disagreements" in bad.problems[0]
    assert run.tally([clean, bad]) == (80, 40)
    assert run.end_to_end([], [clean, bad])["wall_s"] == clean.wall_s


def test_mismatch_inside_a_sweep_aborts_it(tiny_sweep, tmp_path):
    preload = _preload(
        tmp_path,
        "import treemult.verify as verify\n"
        "rank = verify.rank_nullity\n"
        "verify.rank_nullity = lambda t, mu: rank(t, mu) + 1\n",
    )
    bad = run.sweep_repeat(Sweep(**{**tiny_sweep.__dict__, "preload": preload}), 1, str(tmp_path), _deadline())
    assert bad.problems and "EngineMismatchError" in bad.problems[0]


@pytest.mark.parametrize("kind", ["sweep", "agreement"])
def test_self_times_account_for_traced_wall(kind, tiny_sweep, tmp_path):
    w = tiny_sweep if kind == "sweep" else Agreement(name="tiny", count=60, n_max=10, m_max=8)
    tracer = Tracer()
    assert not run.traced_in_process(w, 3, str(tmp_path), tracer)
    m = tracer.layer_metrics()
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert 0 < tracer.root_ns("workload") / 1e9 <= m["trace.wall_s"]
    assert m["spectrum.rank_calls"] > 0
    if kind == "agreement":
        assert m["families.classify_calls"] == 0 and m["tree.trees"] == 0
    else:
        assert m["tree.trees"] == 14  # trees with 1 to 6 vertices
        assert m["families.classify_calls"] == 2 * m["spectrum.rank_calls"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agreement", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
