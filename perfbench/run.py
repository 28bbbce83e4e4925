"""perfbench: the treemult benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is repeated for S seconds, each repeat in a
fresh interpreter (so every cache starts cold, as for a CLI user), through
the entry points users call: ``treemult.cli.main`` for ``verify`` and
``report``, ``treemult.verify.engine_agreement_check`` for agreement.  The
output of every repeat is checked; a repeat that exits nonzero or fails its
check counts all its pairs as failed and is not timed as a success.  The
end-to-end metrics are medians over the successful repeats.

With ``--trace 1`` the workload runs untraced once at its own worker count
and twice more at 1 worker, then once traced, in this process at 1 worker,
and the per-layer metrics are reported.  Spans are written to
``.perfbench_out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those declared in ``BENCHMARK.json``.  Everything the
benchmark writes goes under ``.perfbench_tmp`` (removed at exit) and
``.perfbench_out`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Agreement, Sweep  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must have exited after 180 s
MIN_REPEATS = 3
SETUP_SPAWNS = 3  # import-only interpreters per run, besides those of the repeats
SOLO_REPEATS = 2  # extra untraced 1-worker repeats of a --trace 1 run
REPORT_KEYS = ("records", "trees", "specs", "bound", "pendant_minus_one", "pendant_minus_two")
# per-layer metrics taken from the untraced runs of a --trace 1 invocation
UNTRACED_LAYER_METRICS = (
    "verify.record_bytes",
    "verify.main_cpu_s",
    "verify.cpu_busy_frac",
    "verify.report_s",
    "trace.untraced_wall_s",
)


# -- fresh-interpreter children ---------------------------------------------------


@dataclass
class Child:
    rc: int
    setup_s: float | None  # spawn until treemult was imported
    wall_s: float  # the call alone, measured inside the child
    cpu_s: float  # user+sys after the import, pool workers included
    main_cpu_s: float  # user+sys of the child's own process after the import
    peak_rss_mb: float  # largest RSS of the child and its descendants
    result: dict
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        _kill_group(pgid)
        time.sleep(0.01)


def spawn(job: dict, workdir: str, deadline: float) -> Child:
    """Run child.py on ``job`` in a fresh interpreter and collect its figures.
    The child and any pool workers it starts are killed at ``deadline``."""
    fd, result_path = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=workdir,
        TREEMULT_OUT_DIR=workdir,
    )
    argv = [sys.executable, str(HERE / "child.py"), result_path, json.dumps(dict(job, src=str(SRC)))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Child(-1, None, 0.0, 0.0, 0.0, 0.0, {}, "", "run time limit reached")
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=env, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        finished_at = time.monotonic()
        _wait_group_gone(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    try:
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {}
    os.unlink(result_path)
    cpu_total = usage.ru_utime + usage.ru_stime
    return Child(
        rc=proc.returncode,
        setup_s=result["imported_at"] - spawned_at if "imported_at" in result else None,
        wall_s=result.get("wall_s", finished_at - spawned_at),
        cpu_s=cpu_total - result.get("cpu_at_import_s", 0.0),
        main_cpu_s=result.get("main_cpu_s", cpu_total),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        result=result,
        stdout=stdout,
        stderr=stderr,
    )


# -- one repeat of a workload -----------------------------------------------------


@dataclass
class Repeat:
    pairs: int
    problems: list[str]
    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    main_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    report_s: float = 0.0
    record_bytes: int = 0
    elapsed_s: float = 0.0  # everything the repeat took, checks included

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_records(w: Sweep, out: str) -> list[str]:
    """The record file and its summary are the pinned ones."""
    if not os.path.exists(out):
        return ["no record file"]
    problems = []
    digest = sha256_of(out)
    if digest != w.sha256:
        problems.append(f"record file sha256 {digest}, expected {w.sha256}")
    with open(out, "rb") as f:
        lines = sum(1 for _ in f)
    if lines != w.records:
        problems.append(f"{lines} records, expected {w.records}")
    try:
        with open(out + ".summary.json", encoding="utf-8") as f:
            summary = json.load(f)
    except (OSError, ValueError) as exc:
        return problems + [f"summary unreadable: {exc}"]
    if summary.get("records") != w.records:
        problems.append(f"summary counts {summary.get('records')} records, expected {w.records}")
    return problems


def check_report(rc: int, stdout: str, out: str) -> list[str]:
    """``report`` succeeded and re-counted what the sweep summary says."""
    if rc != 0:
        return [f"report exited {rc}"]
    try:
        counts = json.loads(stdout)
        with open(out + ".summary.json", encoding="utf-8") as f:
            summary = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"report output unreadable: {exc}"]
    return [
        f"report {key}={counts.get(key)!r} but summary {key}={summary.get(key)!r}"
        for key in REPORT_KEYS
        if counts.get(key) != summary.get(key)
    ]


def sweep_repeat(w: Sweep, workers: int, workdir: str, deadline: float, tamper=None) -> Repeat:
    """verify, check the record file, then report and check its counts.
    ``tamper(record_path)`` runs between the two (tests use it)."""
    started = time.monotonic()
    out = os.path.join(workdir, "records.jsonl")
    for path in (out, out + ".summary.json"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    job = {"kind": "cli", "argv": w.verify_argv(out, workers), "preload": w.preload}
    v = spawn(job, workdir, deadline)
    if tamper is not None:
        tamper(out)
    rep = Repeat(
        pairs=w.pairs(),
        problems=[] if v.rc == 0 else [f"verify exited {v.rc}: {v.stderr.strip()[-300:]}"],
        setup_s=[v.setup_s] if v.setup_s is not None else [],
        wall_s=v.wall_s,
        cpu_s=v.cpu_s,
        main_cpu_s=v.main_cpu_s,
        peak_rss_mb=v.peak_rss_mb,
    )
    if rep.ok:
        rep.problems += check_records(w, out)
        rep.record_bytes = os.path.getsize(out) if os.path.exists(out) else 0
    if rep.ok:
        r = spawn({"kind": "cli", "argv": ["report", out, "--format", "json"]}, workdir, deadline)
        rep.problems += check_report(r.rc, r.stdout, out)
        rep.report_s = r.wall_s
        if r.setup_s is not None:
            rep.setup_s.append(r.setup_s)
    rep.elapsed_s = time.monotonic() - started
    return rep


def agreement_repeat(w: Agreement, seed: int, workdir: str, deadline: float) -> Repeat:
    started = time.monotonic()
    job = {
        "kind": "agreement",
        "count": w.count,
        "n_max": w.n_max,
        "m_max": w.m_max,
        "seed": seed,
        "preload": w.preload,
    }
    c = spawn(job, workdir, deadline)
    if c.rc != 0:
        problems = [f"agreement exited {c.rc}: {c.stderr.strip()[-300:]}"]
    elif c.result.get("disagreements") != 0:
        problems = [f"{c.result.get('disagreements')} engine disagreements (seed {seed})"]
    else:
        problems = []
    return Repeat(
        pairs=w.pairs(),
        problems=problems,
        setup_s=[c.setup_s] if c.setup_s is not None else [],
        wall_s=c.wall_s,
        cpu_s=c.cpu_s,
        main_cpu_s=c.main_cpu_s,
        peak_rss_mb=c.peak_rss_mb,
        elapsed_s=time.monotonic() - started,
    )


def one_repeat(w, workers: int, seed: int, workdir: str, deadline: float) -> Repeat:
    if isinstance(w, Sweep):
        return sweep_repeat(w, workers, workdir, deadline)
    return agreement_repeat(w, seed, workdir, deadline)


def repeat_seeds(seed: int):
    """Input seeds of successive repeats: a fixed sequence per --seed.
    Sweeps are exhaustive and ignore them."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


# -- untraced run -----------------------------------------------------------------


def measure(w, seed: int, seconds: float, workdir: str) -> tuple[list[float], list[Repeat]]:
    """Repeat the workload for ``seconds`` (at least MIN_REPEATS times),
    after SETUP_SPAWNS import-only interpreters."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setup = []
    for _ in range(SETUP_SPAWNS):
        s = spawn({"kind": "import"}, workdir, deadline).setup_s
        if s is not None:
            setup.append(s)
    seeds = repeat_seeds(seed)
    repeats: list[Repeat] = []
    while len(repeats) < MIN_REPEATS or time.monotonic() - start < seconds:
        longest = max((r.elapsed_s for r in repeats), default=0.0)
        if time.monotonic() + 2 * longest > deadline:
            break
        rep = one_repeat(w, w.workers(), next(seeds), workdir, deadline)
        repeats.append(rep)
        status = "ok" if rep.ok else "FAILED " + "; ".join(rep.problems)
        print(f"repeat {len(repeats)}: wall_s={rep.wall_s:.4f} cpu_s={rep.cpu_s:.4f} {status}", file=sys.stderr)
    return setup, repeats


def tally(repeats: list[Repeat]) -> tuple[int, int]:
    """(pairs attempted, pairs failed)."""
    return sum(r.pairs for r in repeats), sum(r.pairs for r in repeats if not r.ok)


def end_to_end(setup: list[float], repeats: list[Repeat]) -> dict:
    """Medians over the successful repeats; over all repeats only when none
    succeeded, so that a failed run still reports (and reads as failed)."""
    timed = [r for r in repeats if r.ok] or repeats
    med = statistics.median
    return {
        "setup_s": med(setup + [s for r in timed for s in r.setup_s]),
        "wall_s": med(r.wall_s for r in timed),
        "pairs_per_s": med(r.pairs / r.wall_s for r in timed),
        "cpu_s": med(r.cpu_s for r in timed),
        "peak_rss_mb": med(r.peak_rss_mb for r in timed),
    }


# -- traced run -------------------------------------------------------------------


def traced_in_process(w, seed: int, workdir: str, tracer) -> list[str]:
    """Run the workload once in this process at 1 worker under ``tracer``,
    as a root span named "workload" (plus "report" for a sweep).  Returns
    the problems found in its output."""
    import treemult.cli as cli
    import treemult.verify as verify
    from tracer import installed

    problems: list[str] = []
    with installed(tracer):
        if isinstance(w, Sweep):
            out = os.path.join(workdir, "traced-records.jsonl")
            with tracer.span("verify", "workload"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(w.verify_argv(out, 1))
            problems += [f"verify exited {rc}"] if rc else check_records(w, out)
            buf = io.StringIO()
            with tracer.span("verify", "report"), contextlib.redirect_stdout(buf):
                rc = cli.main(["report", out, "--format", "json"])
            problems += check_report(rc, buf.getvalue(), out)
        else:
            with tracer.span("verify", "workload"):
                disagreements = verify.engine_agreement_check(w.count, n_max=w.n_max, M_max=w.m_max, seed=seed)
            if disagreements:
                problems.append(f"{len(disagreements)} engine disagreements (seed {seed})")
    return problems


def traced(w, seed: int, workdir: str) -> tuple[dict, list[Repeat], list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    first_seed = next(repeat_seeds(seed))
    base = one_repeat(w, w.workers(), first_seed, workdir, deadline)
    # the untraced 1-worker baseline for trace.overhead_frac is a median
    untraced = [base] + [one_repeat(w, 1, first_seed, workdir, deadline) for _ in range(SOLO_REPEATS)]
    solo_s = statistics.median(r.wall_s for r in untraced if w.workers() == 1 or r is not base)

    sys.path.insert(0, str(SRC))
    import treemult.families as families
    import treemult.spectrum as spectrum
    from tracer import Tracer

    if not Path(spectrum.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"treemult imported from {spectrum.__file__}, not {SRC}")
    tracer = Tracer()
    try:
        problems = traced_in_process(w, first_seed, workdir, tracer)
    except Exception as exc:  # an aborted run counts as failed, not as a crash
        problems = [f"traced run raised {exc!r}"]
    m = tracer.layer_metrics()
    cache = spectrum.char_poly.cache_info()
    looked_up = cache.hits + cache.misses
    m["spectrum.char_poly_cache_hit_frac"] = cache.hits / looked_up if looked_up else 0.0
    m["families.memo_entries"] = len(families._member_memo)
    m["verify.record_bytes"] = base.record_bytes
    m["verify.main_cpu_s"] = base.main_cpu_s
    m["verify.cpu_busy_frac"] = base.cpu_s / (base.wall_s * w.workers())
    m["verify.report_s"] = base.report_s
    m["trace.untraced_wall_s"] = solo_s
    m["trace.overhead_frac"] = tracer.root_ns("workload") / 1e9 / solo_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{w.name}.jsonl", "w", encoding="utf-8") as f:
        for span_id, parent, root, layer, name, start, end in tracer.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "trace": root, "layer": layer,
                                "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return m, untraced, problems


# -- reporting --------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(w, seed: int, trace: bool, layer_names: list[str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": w.name,
        "seed": seed,
        "workers": w.workers(),
        "traced_metrics": [n for n in layer_names if n not in UNTRACED_LAYER_METRICS] if trace else [],
    }


def declared_metrics(trace: bool) -> dict:
    """name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treemult" / "__init__.py").is_file():
        print(f"error: no treemult sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    TMP_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        if args.trace:
            metrics, repeats, problems = traced(w, args.seed, workdir)
            attempted, failed = tally(repeats)
            attempted += w.pairs()
            failed += w.pairs() if problems else 0
            for p in problems:
                print(f"traced run FAILED: {p}", file=sys.stderr)
        else:
            setup, repeats = measure(w, args.seed, args.seconds, workdir)
            if not setup and not any(r.setup_s for r in repeats):
                print("error: treemult could not be imported", file=sys.stderr)
                return 1
            metrics = end_to_end(setup, repeats)
            attempted, failed = tally(repeats)
            print(f"repeats: {len(repeats)} ({sum(r.ok for r in repeats)} ok)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()
    missing = set(units) ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(provenance(w, args.seed, bool(args.trace), list(units))))
    print(f"failed_frac: {failed / attempted} ({failed} of {attempted} pairs)")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
