"""The perfbench workloads and the outputs each one must reproduce.

Each workload is a closed loop driven by one benchmark process: the next
repeat starts only after the previous one has finished.  Sizes are chosen
so that one repeat takes 2 to 5 seconds on a 2-CPU machine, which lets a
36-second run report medians over several repeats.  The reasons for each
choice, the layer shares measured at the seed commit and the predictions
per layer are in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Pool size cap: "one worker per CPU" must stay small on a large host.
MAX_WORKERS = 8


def pool_workers() -> int:
    """One pool worker per CPU this process may run on, capped."""
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))


@dataclass(frozen=True)
class Sweep:
    """``treemult verify`` over every tree with n_min <= n <= n_max and
    every eigenvalue 2cos(i*pi/M) with M <= m_max, in broad and strict
    mode, followed by ``treemult report`` on the record file it wrote.

    ``records`` and ``sha256`` pin the record file, which is byte-identical
    for any worker count.  The seed is ignored: a sweep is exhaustive.
    """

    name: str
    n_min: int
    n_max: int
    m_max: int
    parallel: bool
    records: int
    sha256: str
    preload: str | None = None  # python file run in the child first (tests)

    def workers(self) -> int:
        return pool_workers() if self.parallel else 1

    def pairs(self) -> int:
        return self.records

    def verify_argv(self, out: str, workers: int) -> list[str]:
        return [
            "verify",
            "--n-min", str(self.n_min),
            "--n-max", str(self.n_max),
            "--m-max", str(self.m_max),
            "--modes", "broad,strict",
            "--workers", str(workers),
            "--out", out,
        ]


@dataclass(frozen=True)
class Agreement:
    """``engine_agreement_check`` on ``count`` random labeled trees with up
    to n_max vertices, each against one random eigenvalue with M <= m_max.
    Passes when the two multiplicity engines never disagree."""

    name: str
    count: int
    n_max: int
    m_max: int
    preload: str | None = None  # python file run in the child first (tests)

    def workers(self) -> int:
        return 1

    def pairs(self) -> int:
        return self.count


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP golden n <= 10 / M <= 11 configuration: 201 trees x 41
        # eigenvalues in 13 minimal-polynomial orbits, pool of nproc workers,
        # record file written and read back.  The rank engine dominates.
        Sweep(
            name="sweep-orbits",
            n_min=1,
            n_max=10,
            m_max=11,
            parallel=True,
            records=8241,
            sha256="6fc907b73c40aee1a931510cf07a1a393a0cfeb83a6d50b8089464c8ee2aa6e1",
        ),
        # All 1,301 trees on 13 vertices at the linear-minimal-polynomial
        # eigenvalues 0 and +-1: the rank engine is cheap and classify
        # dominates.  Single process.  The hash was confirmed identical at
        # 1 and 2 workers when it was pinned.
        Sweep(
            name="sweep-classify",
            n_min=13,
            n_max=13,
            m_max=3,
            parallel=False,
            records=3903,
            sha256="6c581355bcd308777c2aff2e80e19e0feb402da5c0bdbf6446f676222030d9c1",
        ),
        # The acceptance suite's engine-agreement call, shortened: random
        # labeled trees up to 25 vertices, minimal polynomials of degree up
        # to 12.  No enumeration, no classify, no record file.
        Agreement(name="agreement", count=1200, n_max=25, m_max=26),
    )
}
