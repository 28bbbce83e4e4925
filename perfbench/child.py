"""Run one treemult call in a fresh interpreter and time it.

Usage: python child.py RESULT_JSON JOB_JSON

JOB_JSON is one of
  {"kind": "import"}                         import treemult and stop
  {"kind": "cli", "argv": [...]}             treemult.cli.main(argv)
  {"kind": "agreement", "count": ..., "n_max": ..., "m_max": ..., "seed": ...}
plus "src", the directory treemult must be imported from, and optionally
"preload", a python file run after the import (tests use it to inject
faults).  RESULT_JSON receives the monotonic time at which the import
finished, the CPU spent up to then, the wall and CPU time of the call, and
its exit status.  The exit status of this process is that of the call.
"""

import json
import os
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    result_path = argv[1]
    job = json.loads(argv[2])
    import treemult.cli
    import treemult.verify

    imported_at = time.monotonic()
    at_import = resource.getrusage(resource.RUSAGE_SELF)
    result = {"imported_at": imported_at, "cpu_at_import_s": _cpu_s(at_import)}
    if not os.path.abspath(treemult.cli.__file__).startswith(job["src"] + os.sep):
        print(f"treemult imported from {treemult.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 3
    if job.get("preload"):
        with open(job["preload"], encoding="utf-8") as f:
            exec(compile(f.read(), job["preload"], "exec"), {})
    start = time.perf_counter()
    if job["kind"] == "cli":
        try:
            rc = treemult.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    elif job["kind"] == "agreement":
        disagreements = treemult.verify.engine_agreement_check(
            job["count"], n_max=job["n_max"], M_max=job["m_max"], seed=job["seed"], workers=1
        )
        result["disagreements"] = len(disagreements)
        rc = 0
    else:
        rc = 0
    result["wall_s"] = time.perf_counter() - start
    result["main_cpu_s"] = _cpu_s(resource.getrusage(resource.RUSAGE_SELF)) - result["cpu_at_import_s"]
    result["rc"] = rc
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
