"""Writes reference.json: the expected output of every benchmark job.

Run from the repository root:

    python3 perfbench/make_reference.py

Each value is computed with latticegas and then confirmed by a second
route wherever one exists, and the route is recorded next to the value:

* any count on at most 32 vertices: the brute-force oracle;
* tori with m != n: the trace of the rowwise chain in the other
  orientation (a different strip width and period count);
* cylinders: count_lattice's own open rowwise recount, which it checks
  against the traced columnwise count;
* planes: the open contraction redone as an int64 vector sweep modulo
  three primes, and compared with the count modulo each; planes short
  enough in both directions are also swept across the long side;
* every Perron root behind a bound or an eig: a dense LAPACK eigensolve
  of the chain's composite, in place of power iteration;
* verify sweeps: the oracle itself, instance by instance.

The script stops on the first disagreement.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from latticegas.bounds import bound_table, entropy_interval  # noqa: E402
from latticegas.chain import (  # noqa: E402
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Topology,
    _periods,
    count_cyclic,
    count_lattice,
    count_open,
    transfer_chain,
)
from latticegas.oracle import MAX_BRUTE_VERTICES, brute_count, build_graph, sweep  # noqa: E402
from latticegas.spectral import dominant_eigenvalue  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

# Widest open strip whose chain is cheap enough to sweep across a plane.
MAX_SWAP_WIDTH = 12

# Below 2**25, so a 0/1 matvec of residues cannot overflow int64.
PRIMES = (33554393, 33554383, 33554371)


def _modular_open_count(chain, periods: int, prime: int) -> int:
    """1^T C^periods 1 mod ``prime``, with numpy int64 residues."""
    mats = [np.array(s.entries, dtype=np.int64) for s in chain.steps]
    vec = np.ones(len(chain.entry_space), dtype=np.int64)
    for _ in range(periods):
        for d in mats:
            vec = (vec @ d) % prime
    return int(vec.sum() % prime)


def _dense_root(chain) -> float:
    """Perron root of the composite by a dense eigensolve.

    The composite's factors are rotated so the product is formed at its
    smallest side; a cyclic rotation keeps the nonzero spectrum.
    """
    mats = [s.dense for s in chain.steps]
    r = min(range(len(mats)), key=lambda i: mats[i].shape[0])
    mats = mats[r:] + mats[:r]
    prod = mats[0]
    for d in mats[1:]:
        prod = prod @ d
    if np.array_equal(prod, prod.T):
        return float(np.linalg.eigvalsh(prod)[-1])
    return float(np.max(np.abs(np.linalg.eigvals(prod))))


_ROOTS: dict = {}


def _confirm_root(family: Family, role: str, width: int, value: float) -> None:
    key = (family, role, width)
    if key not in _ROOTS:
        direction, boundary = (
            (Direction.COLUMNWISE, Boundary.OPEN) if role == "strip"
            else (Direction.ROWWISE, Boundary.CYCLIC)
        )
        _ROOTS[key] = _dense_root(transfer_chain(family, direction, width, boundary))
    if not math.isclose(value, _ROOTS[key], rel_tol=check.RTOL):
        raise SystemExit(f"{family.value} {role} w={width}: power {value!r} vs dense {_ROOTS[key]!r}")


def _interval(report) -> dict:
    for s in report.samples:
        _confirm_root(report.family, s.role, s.width, s.value)
    out = {f: getattr(report, f) for f in check.INTERVAL_FIELDS}
    if report.family.value in check.HARD_SQUARE_FAMILIES:
        if not out["normalized_lower"] <= check.BAXTER_HARD_SQUARE <= out["normalized_upper"]:
            raise SystemExit(f"{report.family.value} {out} misses Baxter's constant")
    return out


def _count(family: str, topology: str, m: int, n: int) -> tuple[str, list[str]]:
    fam, topo = Family(family), Topology(topology)
    inst = LatticeInstance(fam, topo, m, n)
    total = count_lattice(inst)
    routes = []
    if inst.vertices <= MAX_BRUTE_VERTICES:
        if brute_count(build_graph(inst)) != total:
            raise SystemExit(f"{inst}: oracle disagrees")
        routes.append("oracle")
    if topo is Topology.TORUS and m != n:
        for a, b in ((m, n), (n, m)):
            chain = transfer_chain(fam, Direction.ROWWISE, b, Boundary.CYCLIC)
            if count_cyclic(chain, _periods(fam, Direction.ROWWISE, a, b)) != total:
                raise SystemExit(f"{inst}: orientation {a}x{b} disagrees")
        routes.append("swapped orientation")
    if topo is Topology.CYLINDER:
        routes.append("rowwise recount")
    if topo is Topology.PLANE:
        narrow = min(m, n)
        chain = transfer_chain(fam, Direction.COLUMNWISE, narrow, Boundary.OPEN)
        periods = _periods(fam, Direction.COLUMNWISE, narrow, max(m, n))
        for prime in PRIMES:
            if _modular_open_count(chain, periods, prime) != total % prime:
                raise SystemExit(f"{inst}: modular sweep disagrees mod {prime}")
        routes.append("modular sweep")
    if topo is Topology.PLANE and m != n and max(m, n) <= MAX_SWAP_WIDTH:
        wide = max(m, n)
        chain = transfer_chain(fam, Direction.COLUMNWISE, wide, Boundary.OPEN)
        if count_open(chain, _periods(fam, Direction.COLUMNWISE, wide, min(m, n))) != total:
            raise SystemExit(f"{inst}: long-side sweep disagrees")
        routes.append("swapped orientation")
    return str(total), routes


def _verify(family: str, topology: str, cap: int) -> dict:
    out = {}
    for r in sweep(cap, [Family(family)], [Topology(topology)]):
        if not r.ok:
            raise SystemExit(f"{r.instance}: transfer {r.transfer} vs brute {r.brute}")
        out[f"{r.instance.m}x{r.instance.n}"] = str(r.brute)
    return out


def main() -> None:
    values: dict = {}
    routes: dict = {}
    for smoke in (False, True):
        for spec in workloads.EXACT_COUNT_SMOKE if smoke else workloads.EXACT_COUNT:
            key = workloads.count_key(*spec)
            values[key], routes[key] = _count(*spec)
        for spec in workloads.SPECTRAL_BOUNDS_SMOKE if smoke else workloads.SPECTRAL_BOUNDS:
            job = workloads.spectral_job(spec)
            kind, fam = spec[0], Family(spec[1])
            if kind == "bounds":
                values[job.key] = _interval(entropy_interval(fam, *spec[2:]))
            elif kind == "table":
                p, lo, hi = spec[2:]
                values[job.key] = [_interval(r) for r in bound_table(fam, p, range(lo, hi + 1))]
            else:
                chain = transfer_chain(fam, Direction(spec[2]), spec[3], Boundary.OPEN)
                value = dominant_eigenvalue(chain).value
                if not math.isclose(value, _dense_root(chain), rel_tol=check.RTOL):
                    raise SystemExit(f"{job.key}: power and dense roots disagree")
                values[job.key] = value
            routes[job.key] = ["dense eigensolve"]
        for cap in workloads.VERIFY_CAPS_SMOKE if smoke else workloads.VERIFY_CAPS:
            for fam in workloads.FAMILIES:
                for topo in workloads.TOPOLOGIES:
                    key = workloads.verify_job(fam, topo, cap).key
                    values[key], routes[key] = _verify(fam, topo, cap), ["oracle"]
        print(f"{'smoke' if smoke else 'full'} references done", file=sys.stderr)
    payload = {"values": values, "routes": routes}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
