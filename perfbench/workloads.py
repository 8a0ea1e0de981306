"""Seeded job lists for the three benchmark workloads.

A job is one ``latticegas`` command line plus the key of its expected
output in ``reference.json``.  The seed only permutes the job order
(behind the one job that spectral-bounds and verify-sweep always run
first) and, for lattices that are the same with m and n swapped (planes
and tori), picks which of the two orientations the command line names.
The set of instances, and so the work done, is the same for every seed.

The ``smoke`` lists are tiny versions of each workload, small enough for
the oracle to cross-check every count; the benchmark's tests run them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-count", "spectral-bounds", "verify-sweep")

FAMILIES = ("quadratic", "crossed", "aztec", "truncated-square")
TOPOLOGIES = ("plane", "cylinder", "torus")

# (family, topology, m, n), with m <= n wherever the lattice is symmetric.
# Tori are non-square where the cost allows it, so that the swapped
# orientation is a second, independent route to the reference count.
EXACT_COUNT = (
    ("quadratic", "torus", 10, 11),
    ("quadratic", "torus", 11, 12),
    ("quadratic", "cylinder", 8, 10),
    ("quadratic", "plane", 12, 100),
    ("crossed", "torus", 11, 12),
    ("crossed", "cylinder", 10, 10),
    ("aztec", "torus", 7, 8),
    ("aztec", "cylinder", 7, 7),
    ("aztec", "plane", 8, 40),
    ("truncated-square", "torus", 6, 7),
    ("truncated-square", "cylinder", 6, 6),
    ("truncated-square", "plane", 6, 30),
)
EXACT_COUNT_SMOKE = (
    ("quadratic", "torus", 3, 4),
    ("quadratic", "cylinder", 2, 4),
    ("quadratic", "plane", 2, 5),
    ("crossed", "torus", 3, 4),
    ("crossed", "cylinder", 2, 3),
    ("aztec", "torus", 2, 3),
    ("aztec", "cylinder", 2, 3),
    ("aztec", "plane", 2, 3),
    ("truncated-square", "torus", 3, 4),
    ("truncated-square", "cylinder", 2, 3),
    ("truncated-square", "plane", 2, 3),
)

# ("bounds", family, p, q, k) | ("table", family, p, k_min, k_max)
# | ("eig", family, direction, width).  The eig job always runs first and
# only the rest are shuffled: it holds the largest dense step, and after
# other jobs have fragmented the heap its peak RSS varies with their
# order (138 to 153 MB), where run first it repeats to 0.2 MB.
SPECTRAL_BOUNDS = (
    ("bounds", "quadratic", 2, 6, 6),
    ("bounds", "crossed", 2, 6, 6),
    ("bounds", "aztec", 2, 4, 5),
    ("bounds", "truncated-square", 1, 4, 4),
    ("table", "quadratic", 2, 2, 6),
    ("eig", "quadratic", "columnwise", 15),
)
SPECTRAL_BOUNDS_SMOKE = (
    ("bounds", "quadratic", 1, 2, 2),
    ("bounds", "crossed", 1, 2, 2),
    ("bounds", "aztec", 1, 2, 2),
    ("bounds", "truncated-square", 1, 2, 2),
    ("table", "quadratic", 1, 2, 3),
    ("eig", "quadratic", "columnwise", 4),
)

# Vertex caps of the oracle sweep.  Past 26 single instances start to
# dominate (truncated-square torus 2x8 alone counts for 2.3 s at 28), and
# the workload stops being many small calls.
VERIFY_CAPS = (24, 25, 26)
VERIFY_CAPS_SMOKE = (12,)
# The quadratic cylinder sweep at the largest cap always runs first, for
# the reason the eig job does: alone it peaks at 39 MB, no other verify
# job above 33 MB, and shuffled with the rest the pass's peak RSS varied
# by 2 MB with the order, where run first it repeats to 0.2 MB.
VERIFY_FIRST = ("quadratic", "cylinder")


@dataclass(frozen=True)
class Job:
    key: str
    argv: tuple[str, ...]


def count_key(family: str, topology: str, m: int, n: int) -> str:
    if topology != "cylinder":
        m, n = min(m, n), max(m, n)
    return f"count/{family}/{topology}/{m}x{n}"


def _count_job(family: str, topology: str, m: int, n: int, rng: random.Random) -> Job:
    key = count_key(family, topology, m, n)
    if topology != "cylinder" and rng.random() < 0.5:
        m, n = n, m
    argv = ("count", "--family", family, "--topology", topology, "-m", str(m), "-n", str(n))
    return Job(key, argv)


def spectral_job(spec: tuple) -> Job:
    kind, family = spec[0], spec[1]
    if kind == "bounds":
        p, q, k = spec[2:]
        argv = ("bounds", "--family", family, "-p", str(p), "-q", str(q), "-k", str(k))
        return Job(f"bounds/{family}/p{p}/q{q}/k{k}", argv)
    if kind == "table":
        p, lo, hi = spec[2:]
        argv = ("table", "--family", family, "-p", str(p), "--k-min", str(lo), "--k-max", str(hi))
        return Job(f"table/{family}/p{p}/k{lo}-{hi}", argv)
    direction, width = spec[2:]
    argv = ("eig", "--family", family, "--direction", direction, "--width", str(width))
    return Job(f"eig/{family}/{direction}/w{width}", argv)


def verify_job(family: str, topology: str, cap: int) -> Job:
    argv = ("verify", "--family", family, "--topology", topology, "--max-vertices", str(cap))
    return Job(f"verify/{family}/{topology}/N{cap}", argv)


def jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one workload, in the order the seed gives."""
    rng = random.Random(seed)
    first: list[Job] = []
    if workload == "exact-count":
        specs = EXACT_COUNT_SMOKE if smoke else EXACT_COUNT
        rest = [_count_job(*spec, rng) for spec in specs]
    elif workload == "spectral-bounds":
        specs = SPECTRAL_BOUNDS_SMOKE if smoke else SPECTRAL_BOUNDS
        first = [spectral_job(spec) for spec in specs if spec[0] == "eig"]
        rest = [spectral_job(spec) for spec in specs if spec[0] != "eig"]
    elif workload == "verify-sweep":
        caps = VERIFY_CAPS_SMOKE if smoke else VERIFY_CAPS
        first = [verify_job(*VERIFY_FIRST, max(caps))]
        rest = [verify_job(f, t, cap) for cap in caps for f in FAMILIES for t in TOPOLOGIES
                if (f, t, cap) != (*VERIFY_FIRST, max(caps))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(rest)
    return first + rest
