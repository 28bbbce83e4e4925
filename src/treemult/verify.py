"""Exhaustive verification harness.

Sweeps every canonical tree in a size range against every path-type
eigenvalue up to a denominator bound, computing the multiplicity with both
engines (aborting on any disagreement), the pendant bound, and the
equivalences "m = p - 1 iff GAMMA member" and "m = p - 2 iff GAMMA2 member"
under the configured base-family modes.  Emits one JSON record per
(tree, eigenvalue) pair plus a JSON summary, with byte-identical record
files for identical configs regardless of worker count.  The process
that sweeps a tree also encodes its records and tallies them, in one step
when no record of the tree holds a violation.  `_fan_out` deals the tree
codes in chunks on demand: workers - 1 forked processes are each kept
AHEAD chunks ahead, and the sweep's own process sweeps the next chunk
itself only while the one due next is still out, keeping at most
AHEAD * workers finished chunks waiting their turn.  It hands back each
tree's bytes and Tally in enumeration order; the sweep's process writes the
bytes, hashes them and folds in each Tally with `Tally.merge`, the sweep's
one fold of per-tree results.

The multiplicity loop peels each swept orbit's minimal polynomial off the
characteristic polynomial as it counts it, so what is left holds exactly
the eigenvalues no swept orbit carries, by the same division whose counts
the rank engine checks.  When M_max >= n + 1 those are checked too: the
squarefree decomposition of the leftover gives them level by level, and
their counts go into the tree's Tally and from there to the summary's
`other_eigenvalues` block, not to records.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, count, islice
from multiprocessing import Pipe, get_context

try:
    # CPython's builtin digest (named _sha256 up to 3.11): importing hashlib
    # loads OpenSSL, which adds about 3.5 MB to the peak RSS of every process
    # importing this module, the agreement check's included
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from treemult.families import (
    BROAD,
    STRICT,
    FamilyResult,
    Gamma2Mode,
    classify,
)
from treemult.poly import (
    LambdaSpec,
    Polynomial,
    all_specs,
    exact_div,  # unused here; perfbench/tracer.py wraps it on this module
    spec_orbits,
    squarefree_decompose,
)
from treemult.spectrum import (
    char_poly,
    factor_multiplicity,
    rank_nullity,
)
from treemult.tree import (
    ENUMERATION_LIMIT,
    TREE_COUNTS,
    Tree,
    emit_graph6,  # unused here; perfbench/tracer.py wraps it on this module
    enumerate_trees,
    is_path,  # unused here; perfbench/tracer.py wraps it on this module
    major_count,
    pack_graph6,
    parse_graph6,
    pendant_count,
)


class EngineMismatchError(Exception):
    """The two multiplicity engines disagreed, or the division engine gave
    the two orbits of an odd M different counts; either is an
    implementation bug and poisons any dataset, so the sweep aborts instead
    of recording it.  The message is JSON naming the tree, and either the
    lambda and each engine's count or both lambdas and both counts.

    At odd M the even-i orbit is the odd-i orbit negated (i -> M - i), and
    a tree is bipartite, so the two counts must agree; `classify` decides
    both orbits from one reading of the tree on this ground."""


class MalformedRecordError(ValueError):
    """A record file is not what a sweep wrote: it holds no record, a line is
    not a sweep record (the message names path:line), its summary is not a
    sweep summary, or the file's record count or digest differs from its
    summary's."""


CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
NOT_APPLICABLE = "NOT_APPLICABLE"

EXAMPLE_CAP = 20  # examples kept per list in the summary


@dataclass(frozen=True)
class SweepConfig:
    n_min: int = 1
    n_max: int = 10
    M_max: int = 11
    modes: tuple[Gamma2Mode, ...] = (BROAD,)
    worker_count: int = 1
    output_path: str | None = None

    def __post_init__(self):
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.n_max > ENUMERATION_LIMIT:
            raise ValueError(f"n_max {self.n_max} above enumeration limit {ENUMERATION_LIMIT}")
        if self.M_max < 2:
            raise ValueError("M_max must be at least 2")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")
        if not self.modes:
            raise ValueError("at least one mode required")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode in {[m.value for m in self.modes]}")


@dataclass
class Tally:
    """Counts over sweep records: filled per tree by the sweep's workers
    (then merged) and by `Tally.read` from a record file, both through
    `add`, so both report the same numbers.  A sweep writes each tree's
    records as one run, so a tree is counted where `tree` changes."""

    tree: str | None = None  # of the last record added
    tree_count: int = 0
    record_count: int = 0
    bound_violations: int = 0
    eq_top_violations: int = 0  # m = p - 1 equivalence
    eq_second: dict = field(default_factory=dict)  # mode -> violation count
    strict_discrepancies: list = field(default_factory=list)
    records_sha256: str | None = None  # of the records' bytes, as a record file holds them
    # the summary's block: `_check_other`'s counts, which no record holds,
    # so `read` leaves them at zero and `counts` leaves them out
    other_eigenvalues: dict = field(default_factory=lambda: dict(
        trees=0, levels=0, violations=0, strict_discrepancies=0, violation_examples=[]
    ))

    def add(self, tree: str, lam: list, fields: dict) -> None:
        """Count one record: its tree, its lambda and the rest of its fields."""
        if tree != self.tree:
            self.tree = tree
            self.tree_count += 1
        self.record_count += 1
        if not fields["bound_ok"]:
            self.bound_violations += 1
        if fields["thm13_status"] == VIOLATION:
            self.eq_top_violations += 1
        for mode_value, status in fields["thm14_status"].items():
            self.eq_second.setdefault(mode_value, 0)
            if status == VIOLATION:
                self.eq_second[mode_value] += 1
                if mode_value == STRICT.value:
                    self.strict_discrepancies.append(
                        {
                            "tree": tree,
                            "lambda": lam,
                            "m": fields["m"],
                            "p": fields["p"],
                            "classification": dict(fields["classification"]),
                        }
                    )

    def merge(self, other: "Tally") -> None:
        """Fold in the counts of other trees, tallied elsewhere, as if they
        had been counted here after the trees already counted, keeping the
        first EXAMPLE_CAP other-eigenvalue violation examples."""
        self.tree_count += other.tree_count
        self.record_count += other.record_count
        self.bound_violations += other.bound_violations
        self.eq_top_violations += other.eq_top_violations
        for mode_value, count in other.eq_second.items():
            self.eq_second[mode_value] = self.eq_second.get(mode_value, 0) + count
        self.strict_discrepancies += other.strict_discrepancies
        for key, value in other.other_eigenvalues.items():
            self.other_eigenvalues[key] += value
        del self.other_eigenvalues["violation_examples"][EXAMPLE_CAP:]

    @classmethod
    def read(cls, path: str) -> "Tally":
        """Tally an existing record file (the `report` CLI path).  As a sweep
        writes them, trees come one run each, every tree of each size from
        the first run's size to the last's in the sweep's order (that of
        `_ordered_tree_codes`), the first run holding every spec up to the M
        of its last lambda in (M, i) order and each later one the same
        lambdas; a file that breaks this raises MalformedRecordError at the
        first line that does, or at its end, as does a file with no record
        (every sweep writes at least one).  A size is whole when it holds
        TREE_COUNTS[n] codes on n vertices in increasing order, so the check
        costs one pass and no enumeration; a code that is not one a sweep
        writes is caught only by the summary's digest."""
        tally = cls()
        digest = sha256()
        specs: list = []  # the first run's lambdas
        at = 0  # records so far in the current run
        n = k = whole = 0  # the current run's size, the runs of that size so far, and all of it

        def check_run_end(where: str, tree: str, first: bool) -> None:
            """Raise unless the run of tree, which ends at where, is whole."""
            if at < len(specs):
                raise MalformedRecordError(
                    f"{where}: tree {tree} ends after {at} of {len(specs)} lambdas"
                )
            if not first:
                return
            # all_specs(M) as [i, M] pairs for the least M with as many as the
            # run, built M by M so that a damaged run costs no more than its length
            every, M = [], 1
            while len(every) < len(specs):
                M += 1
                every += [[i, M] for i in range(1, M) if math.gcd(i, M) == 1]
            if specs != every:
                raise MalformedRecordError(
                    f"{where}: tree {tree} does not hold every lambda up to its last M"
                )

        with open(path, "rb") as f:
            for lineno, line in enumerate(f, 1):
                digest.update(line)
                if not line.strip():
                    continue
                last = tally.tree
                try:
                    rec = json.loads(line.decode("utf-8"))
                    tally.add(rec["tree"], rec["lambda"], rec)
                    if tally.tree != last:  # graph6 begins with chr(63 + n)
                        size, after = ord(tally.tree[0]) - 63, last is None or last < tally.tree
                except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                    raise MalformedRecordError(
                        f"{path}:{lineno}: not a sweep record ({exc!r})"
                    ) from exc
                if tally.tree != last:  # a new run: the last one must be whole, this tree the next
                    check_run_end(f"{path}:{lineno}", last, tally.tree_count == 2)
                    if last is None or k == whole:  # the first run's size, or the next
                        n, k = (size if last is None else n + 1), 0
                        whole = TREE_COUNTS[n] if 0 < n <= ENUMERATION_LIMIT else 0
                    if k == whole or size != n or k and not after:
                        raise MalformedRecordError(
                            f"{path}:{lineno}: expected tree {k + 1} of the {whole} on {n} "
                            f"vertices in the sweep's order, not {tally.tree}"
                        )
                    at, k = 0, k + 1
                if tally.tree_count == 1:
                    specs.append(rec["lambda"])
                elif at == len(specs) or rec["lambda"] != specs[at]:
                    raise MalformedRecordError(
                        f"{path}:{lineno}: tree {tally.tree} breaks the first tree's lambda order"
                    )
                at += 1
        if not tally.tree_count:
            raise MalformedRecordError(f"{path}: holds no sweep record")
        check_run_end(path, tally.tree, tally.tree_count == 1)
        if k < whole:
            raise MalformedRecordError(f"{path}: ends after {k} of the {whole} trees on {n} vertices")
        tally.records_sha256 = digest.hexdigest()
        return tally

    def check_summary(self, summary_path: str) -> None:
        """Raise MalformedRecordError, naming summary_path and the first key
        that differs, unless it is a JSON object whose count block (see
        `counts`) equals this tally's; a missing summary is not checked, so
        a bare record file can still be re-summarized."""
        if not os.path.exists(summary_path):
            return
        try:
            with open(summary_path, encoding="utf-8") as f:
                summary = json.load(f)
        except ValueError as exc:
            raise MalformedRecordError(f"{summary_path} is not JSON ({exc})") from exc
        if not isinstance(summary, dict):
            raise MalformedRecordError(f"{summary_path} is not a sweep summary")
        for key, got in self.counts().items():
            if summary.get(key) != got:
                raise MalformedRecordError(
                    f"{summary_path} says {key}={summary.get(key)!r} "
                    f"but the record file has {got!r}"
                )

    @property
    def broad_violations(self) -> int:
        # an other-eigenvalue violation breaks the bound or an equivalence in both readings
        return (
            self.bound_violations
            + self.eq_top_violations
            + self.eq_second.get(BROAD.value, 0)
            + self.other_eigenvalues["violations"]
        )

    def counts(self) -> dict:
        """The count block shared by the summary file, `report` and
        `check_summary`, record count and digest first; strict-mode
        failures are labelled discrepancies, not violations."""
        second = {}
        for mode_value, count in self.eq_second.items():
            label = "violations" if mode_value == BROAD.value else "discrepancies"
            second[mode_value] = {label: count}
        return {
            "records": self.record_count,
            "records_sha256": self.records_sha256,
            "trees": self.tree_count,
            "specs": self.record_count // self.tree_count if self.tree_count else 0,
            "bound": {"violations": self.bound_violations},
            "pendant_minus_one": {"violations": self.eq_top_violations},
            "pendant_minus_two": second,
        }


@dataclass(kw_only=True)
class SweepReport(Tally):
    config: SweepConfig
    elapsed_seconds: float = 0.0

    def summary_dict(self) -> dict:
        return {
            "config": {
                "n_min": self.config.n_min,
                "n_max": self.config.n_max,
                "M_max": self.config.M_max,
                "modes": [m.value for m in self.config.modes],
                "workers": self.config.worker_count,
            },
            "engine_mismatches": 0,  # a mismatch aborts before the summary
            **self.counts(),
            "other_eigenvalues": self.other_eigenvalues,
            "strict_discrepancy_examples": self.strict_discrepancies[:EXAMPLE_CAP],
            "runtime_seconds": round(self.elapsed_seconds, 3),
        }


@lru_cache(maxsize=None)
def _orbit_table(M_max: int) -> tuple[tuple, tuple[tuple[LambdaSpec, str, int], ...]]:
    """The orbits with M <= M_max, and each spec with M <= M_max in (M, i)
    order with its "[i, M]" text, as a record line holds it, and the index
    of its orbit; built once per process."""
    orbits = tuple(spec_orbits(M_max))
    index = {spec: o for o, (_, specs) in enumerate(orbits) for spec in specs}
    return orbits, tuple((spec, f"[{spec.i}, {spec.M}]", index[spec]) for spec in all_specs(M_max))


@lru_cache(maxsize=1024)
def _record_tail(
    p: int, gamma: int, m: int, modes: tuple[Gamma2Mode, ...], verdicts: tuple
) -> tuple[dict, str, bool]:
    """Every field of a record after "tree" and "lambda", in record order,
    its text as it follows the lambda in the record line, and whether
    `Tally.add` counts anything but the record itself in it (a broken bound
    or a VIOLATION status); verdicts holds classify's (kind, k) in each of
    modes.  Few distinct tails occur (216 in the n <= 14, M <= 15 sweep), so
    each is derived and encoded once per process; the dict is shared and
    must not be changed."""
    results = [FamilyResult(*verdict) for verdict in verdicts]
    tail = {
        "p": p,
        "gamma": gamma,
        "m": m,
        "bound_ok": m <= p - 1,
        # GAMMA membership does not depend on the GAMMA2 reading
        "thm13_status": CONSISTENT if (m == p - 1) == results[0].is_gamma() else VIOLATION,
        "thm14_status": {
            mode.value: (CONSISTENT if (m == p - 2) == res.is_gamma2() else VIOLATION) if m else NOT_APPLICABLE
            for mode, res in zip(modes, results)
        },
        "classification": {mode.value: res.tag for mode, res in zip(modes, results)},
        "notes": "",
    }
    statuses = (tail["thm13_status"], *tail["thm14_status"].values())
    flagged = not tail["bound_ok"] or VIOLATION in statuses
    return tail, ", " + json.dumps(tail)[1:] + "\n", flagged


def _sweep_tree(g6: str, M_max: int, modes: tuple[Gamma2Mode, ...]) -> tuple[bytes, Tally]:
    """Per-tree worker: tree g6's record lines in (M, i) order, encoded, and
    its Tally, which counts them and, when n + 1 <= M_max, holds the outcome
    of `_check_other`.  Raises EngineMismatchError when the engines disagree,
    or when the two orbits of an odd M get different counts.

    Conjugate eigenvalues share a minimal polynomial, so multiplicities are
    computed once per orbit.  Family membership depends on lambda only
    through M, so `classify`, called once per (orbit, mode), searches once
    per M and reading and returns its kept verdict for the rest.  The
    records of an orbit's specs then differ only in `lambda`, whose text
    comes from `_orbit_table`, and their common tail comes encoded from
    `_record_tail`.  When no tail holds a violation, the Tally is set in one
    step to what `Tally.add` would count; otherwise it counts record by
    record, which keeps the strict discrepancies in order.  Each orbit's mu^m is
    divided out of the characteristic polynomial as m is counted; the
    orbits' minimal polynomials are distinct monic irreducibles, so the
    counts do not change, and when n + 1 <= M_max what is left is checked
    as well (`_check_other`).
    """
    t = parse_graph6(g6)
    rest = char_poly(t)
    p = pendant_count(t)
    gamma = major_count(t)
    tails: list[tuple[dict, str, bool]] = []  # per orbit: its record tail, from _record_tail
    first_at: dict[int, tuple[LambdaSpec, int]] = {}  # M -> its first orbit's rep and m
    orbits, every_spec = _orbit_table(M_max)
    for mu, specs in orbits:
        rep = specs[0]
        m, rest = factor_multiplicity(rest, mu)
        m_rank = rank_nullity(t, rep)
        if m != m_rank:
            mismatch = {"tree": g6, "lambda": [rep.i, rep.M], "division_engine": m, "rank_engine": m_rank}
            raise EngineMismatchError(json.dumps(mismatch))
        first, m_first = first_at.setdefault(rep.M, (rep, m))
        if m != m_first:
            mismatch = {
                "tree": g6,
                "lambdas": [[first.i, first.M], [rep.i, rep.M]],
                "division_engine": [m_first, m],
            }
            raise EngineMismatchError(json.dumps(mismatch))
        verdicts = tuple((res.kind, res.k) for res in [classify(t, rep, mode) for mode in modes])
        tails.append(_record_tail(p, gamma, m, modes, verdicts))
    head = '{"tree": ' + json.dumps(g6) + ', "lambda": '
    texts = [text for _, text, _ in tails]
    encoded = "".join([head + lam + texts[orbit] for _, lam, orbit in every_spec]).encode("utf-8")
    tally = Tally()
    if any(flagged for _, _, flagged in tails):
        for spec, _, orbit in every_spec:
            tally.add(g6, [spec.i, spec.M], tails[orbit][0])
    else:  # what add would count: the tree, its records, and no violation in any mode
        tally.tree, tally.tree_count, tally.record_count = g6, 1, len(every_spec)
        tally.eq_second = dict.fromkeys([mode.value for mode in modes], 0)
    if t.n + 1 <= M_max:
        _check_other(g6, rest, p, tally)
    return encoded, tally


def _check_other(g6: str, rest: Polynomial, p: int, tally: Tally) -> None:
    """Check the eigenvalues of a tree with n + 1 <= M_max that no swept
    orbit carries, the roots of rest, its characteristic polynomial with
    every swept orbit's mu^m divided out; the counts go into the tree's
    tally.  Each squarefree part of rest at level k holds the eigenvalues of
    multiplicity exactly k, and each counts as one level.

    No path on at most n vertices has such an eigenvalue, so at it GAMMA
    and strict GAMMA2 are empty and broad GAMMA2 is the three-leg spiders.
    A level k then keeps the bound and both equivalences exactly when
    k <= p - 3; with p = 3 a level 1 is a broad GAMMA2 member the strict
    reading misses, a strict discrepancy.  Every other level is a violation.
    """
    outcome = tally.other_eigenvalues
    outcome["trees"] += 1
    for g, k in squarefree_decompose(rest):
        outcome["levels"] += 1
        if k <= p - 3:
            continue
        if p == 3 and k == 1:
            outcome["strict_discrepancies"] += 1
        else:
            outcome["violations"] += 1
            outcome["violation_examples"].append(
                {"tree": g6, "level": k, "p": p, "residue": list(g.coeffs)}
            )


def _ordered_tree_codes(config: SweepConfig) -> Iterator[str]:
    """Every tree's graph6 in increasing order, one sorted batch per n."""
    for n in range(config.n_min, config.n_max + 1):
        # enumerated trees are canonically labeled already
        yield from sorted(pack_graph6(t) for t in enumerate_trees(n))


CHUNK = 8  # consecutive payloads dealt to one process at a time
AHEAD = 2  # chunks each forked worker holds, the one it is computing included
# forked, not spawned: a worker starts with every module, cache and patch of
# the sweep's process, which starts no thread
Process = get_context("fork").Process


def _serve(fn: Callable, conn, parent_end) -> None:
    """A forked worker of `_fan_out`: answer each chunk received on conn
    with the list of fn's results, or with the exception fn raised, until
    the parent's end closes."""
    parent_end.close()  # inherited; closed so that the parent's exit ends recv
    try:
        while True:
            chunk = conn.recv()
            try:
                answer = [fn(x) for x in chunk]
            except Exception as exc:
                answer = exc
            conn.send(answer)
    except (EOFError, KeyboardInterrupt):  # the parent is gone, or Ctrl-C reached the group
        pass


def _fan_out(fn: Callable, payloads: Iterable, workers: int) -> Iterator:
    """Yield fn(x) for each x of payloads, in payload order, computed by
    `workers` processes: this one and workers - 1 forked here, one Pipe
    each.  Payloads go out in chunks of CHUNK, read as they are dealt, and
    no more processes start than there are chunks, so at 1 worker, or with
    one chunk, nothing is forked and every chunk is computed here, in order.

    The deal follows demand.  Each forked worker holds AHEAD chunks and is
    dealt the next undealt one as each of its answers is read.  This
    process computes the next undealt chunk itself only while the head,
    the chunk whose results are due next, has not come back
    (`conn.poll()`), so it takes fewer chunks the more time the caller
    spends on the results.  Chunks done before their turn wait in a buffer
    keyed by chunk index; once it holds AHEAD * workers of them, this
    process blocks on the head's answer instead of computing more.  With
    more than one forked worker, an answer that is ready before its turn
    is read into the buffer too, so that its worker is dealt the next chunk.

    An exception fn raises, here or in a worker, is raised when its chunk's
    turn comes, so the first in payload order wins; a worker that dies
    raises ChildProcessError naming it.  However the generator ends, every
    forked worker is terminated and joined."""
    payloads = iter(payloads)
    chunks = iter(lambda: list(islice(payloads, CHUNK)), [])
    first = list(islice(chunks, workers))
    workers = max(1, len(first))
    chunks = enumerate(chain(first, chunks))
    conns, procs = [None], [None]  # indexed by process; 0 is this one
    held = [None]  # per forked worker: the indices of the chunks it holds, oldest first
    done = {}  # chunk index -> its results, or the exception computing it raised
    bound = AHEAD * workers  # chunks done before their turn, at most

    def lost(w: int) -> ChildProcessError:
        procs[w].join(1)
        return ChildProcessError(
            f"worker {w} of {workers} (pid {procs[w].pid}) exited with status "
            f"{procs[w].exitcode} before returning its results"
        )

    def deal(w: int) -> None:
        """Send forked worker w the next undealt chunk, if one is left."""
        for j, chunk in islice(chunks, 1):
            try:
                conns[w].send(chunk)
            except OSError:
                raise lost(w) from None
            held[w].append(j)

    def receive(w: int) -> None:
        """Wait for the answer to the oldest chunk forked worker w holds,
        then deal w the next."""
        try:
            answer = conns[w].recv()
        except (EOFError, OSError):
            raise lost(w) from None
        done[held[w].popleft()] = answer
        deal(w)

    try:
        for _ in range(1, workers):
            conn, child_end = Pipe()
            proc = Process(target=_serve, args=(fn, child_end, conn), daemon=True)
            proc.start()
            child_end.close()
            conns.append(conn)
            procs.append(proc)
            held.append(deque())
        for _ in range(AHEAD):
            for w in range(1, workers):
                deal(w)
        for head in count():
            while head not in done:
                # the head's holder; None when no chunk from the head on is dealt
                w = next((v for v in range(1, workers) if held[v] and held[v][0] == head), None)
                if w is not None and (len(done) >= bound or conns[w].poll()):
                    receive(w)
                elif ready := next(
                    (v for v in range(1, workers) if v != w and held[v] and conns[v].poll()), None
                ):
                    receive(ready)
                elif dealt := next(chunks, None):
                    j, chunk = dealt
                    try:
                        done[j] = list(map(fn, chunk))
                    except Exception as exc:
                        done[j] = exc
                elif w is not None:
                    receive(w)
                else:
                    return
            results = done.pop(head)
            if isinstance(results, BaseException):
                raise results
            yield from results
    finally:
        for proc in procs[1:]:
            proc.terminate()
        for proc in procs[1:]:
            proc.join()
        for conn in conns[1:]:
            conn.close()


def sweep(config: SweepConfig) -> SweepReport:
    """Run the exhaustive sweep; see the module docstring.

    Work is partitioned by tree and folded in enumeration order, so the
    record file is deterministic for any worker count; `<out>.tmp` replaces
    `<out>` only on success.  The tree codes are enumerated as `_fan_out`
    deals them, and this process sweeps trees while it waits for the
    workers' results.
    Raises EngineMismatchError if the engines differ, ChildProcessError if
    a worker dies, and the OSError of a failed open or write as it comes.
    """
    start = time.monotonic()
    report = SweepReport(config=config, eq_second={mode.value: 0 for mode in config.modes})
    sweep_one = partial(_sweep_tree, M_max=config.M_max, modes=config.modes)
    results = _fan_out(sweep_one, _ordered_tree_codes(config), config.worker_count)
    digest = sha256()
    tmp_path = f"{config.output_path}.tmp"
    sink = open(tmp_path, "wb") if config.output_path else None
    try:
        with sink or nullcontext(), closing(results):
            for encoded, tally in results:
                report.merge(tally)
                digest.update(encoded)  # the record file's digest, written or not
                if sink:
                    sink.write(encoded)
        if sink:
            os.replace(tmp_path, config.output_path)
    except BaseException:  # aborted, even by Ctrl-C: drop the partial records
        if sink:
            os.remove(tmp_path)
        raise
    report.records_sha256 = digest.hexdigest()
    report.elapsed_seconds = time.monotonic() - start
    if config.output_path:
        with open(config.output_path + ".summary.json", "w", encoding="utf-8") as f:
            json.dump(report.summary_dict(), f, indent=2, sort_keys=False)
            f.write("\n")
    return report


# -- randomized engine agreement --------------------------------------------------


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree via a random Prufer sequence, decoded with a heap
    of the current leaves in O(n log n)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [u for u in range(n) if degree[u] == 1]  # ascending: a heap
    edges = []
    for v in seq:  # join the smallest current leaf to v
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(sorted(leaves)))
    return edges


def _agreement_worker(seed: int, n_max: int, M_max: int) -> dict | None:
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    t = Tree.from_edges(n, _random_tree_edges(n, rng))
    M = rng.randint(2, M_max)
    spec = LambdaSpec(rng.choice([i for i in range(1, M) if math.gcd(i, M) == 1]), M)
    m_div, _ = factor_multiplicity(char_poly(t), spec.minimal_poly)
    m_rank = rank_nullity(t, spec)
    if m_div != m_rank:
        return {
            "edges": t.edges,
            "lambda": [spec.i, spec.M],
            "division_engine": m_div,
            "rank_engine": m_rank,
        }
    return None


def engine_agreement_check(
    pairs: int,
    n_max: int = 25,
    M_max: int = 26,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Compare the two multiplicity engines on random (tree, lambda) pairs;
    returns the list of disagreements (empty on success), in seed order for
    any worker count."""
    check_one = partial(_agreement_worker, n_max=n_max, M_max=M_max)
    return [r for r in _fan_out(check_one, iter(range(seed, seed + pairs)), workers) if r]
