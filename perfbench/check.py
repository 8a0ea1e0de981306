"""Checks one job's stdout against its reference value.

Counts must equal the reference integer exactly.  Floating-point bounds
and eigenvalues must match within ``RTOL``, and every quadratic or aztec
interval must also contain Baxter's hard-square constant, whatever the
reference says.  A verify sweep must report ``"ok": true`` and the
reference count for every instance it lists, and list no other.
"""
from __future__ import annotations

import json
import math

# Baxter, "Planar lattice gases with nearest-neighbour exclusion" (1999).
BAXTER_HARD_SQUARE = 1.50304808247533

# The quadratic and aztec grids are the same lattice turned by 45 degrees,
# so both intervals bracket the hard-square constant.
HARD_SQUARE_FAMILIES = ("quadratic", "aztec")

# Power iteration stops at tol 1e-12; any sound eigen-solver agrees with
# the reference to well within this.
RTOL = 1e-9

INTERVAL_FIELDS = ("lower", "upper", "normalized_lower", "normalized_upper")


class CheckError(Exception):
    """A job's output does not match its reference."""


def _close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _interval(family: str, got: dict, want: dict, what: str) -> None:
    for field in INTERVAL_FIELDS:
        _close(float(got[field]), want[field], f"{what} {field}")
    if family in HARD_SQUARE_FAMILIES:
        lo, hi = float(got["normalized_lower"]), float(got["normalized_upper"])
        if not lo <= BAXTER_HARD_SQUARE <= hi:
            raise CheckError(f"{what}: [{lo!r}, {hi!r}] misses Baxter's constant")


def check(key: str, stdout: str, reference: dict) -> None:
    """Raise CheckError unless ``stdout`` is the right output for ``key``."""
    if key not in reference:
        raise CheckError(f"no reference for {key}")
    want = reference[key]
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{key}: stdout is not json ({exc})") from None
    kind, family = key.split("/")[:2]
    try:
        if kind == "count":
            if got["count"] != want:
                raise CheckError(f"{key}: count {got['count']}, reference {want}")
        elif kind == "bounds":
            _interval(family, got, want, key)
        elif kind == "table":
            rows = got["rows"]
            if len(rows) != len(want):
                raise CheckError(f"{key}: {len(rows)} rows, reference {len(want)}")
            for row, ref in zip(rows, want):
                _interval(family, row, ref, f"{key} k={row['k']}")
        elif kind == "eig":
            _close(float(got["value"]), want, key)
        elif kind == "verify":
            if got["ok"] is not True:
                raise CheckError(f"{key}: verify reported ok={got['ok']!r}")
            seen = {}
            for row in got["results"]:
                name = f"{row['m']}x{row['n']}"
                if not (row["match"] is True and row["transfer"] == row["brute"] == want.get(name)):
                    raise CheckError(f"{key} {name}: {row}, reference {want.get(name)}")
                seen[name] = row["transfer"]
            if seen != want:
                raise CheckError(f"{key}: instances {sorted(seen)}, reference {sorted(want)}")
        else:
            raise CheckError(f"{key}: unknown job kind")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{key}: malformed output ({exc!r})") from None
