"""Command line front end.

Subcommands: count, matrix, eig, bounds, verify, table.  Each states its
record once, and ``_emit`` prints it to stdout as ``--format`` asks: json
(the default) is the payload, which follows the schemas shipped in
latticegas/schemas/; csv is a header line and one line per row, except
that ``matrix`` prints the composite's rows with no header; text is lines
for people to read.  A refused request raises, and ``main`` prints it as
one line to stderr that starts ``error: ``, nothing to stdout, and exits
1 (a malformed command line gets argparse's usage message and exits 2).
Exact counts are decimal strings, so no consumer is tempted to round
them, however many digits they have (``_decimal``).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Iterator

import numpy as np

from .bounds import bound_table, entropy_interval
from .chain import (
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Topology,
    TransferChain,
    chain_dimensions,
    count_lattice,
    transfer_chain,
)
from .oracle import MAX_BRUTE_VERTICES, sweep, verify_instance
from .spectral import ConvergenceError, dominant_eigenvalue

MATRIX_PRINT_LIMIT = 40

_FAMILIES = [f.value for f in Family]
_TOPOLOGIES = [t.value for t in Topology]
_DIRECTIONS = [d.value for d in Direction]


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(values) -> str:
    # Only strings can hold a comma, quote or newline: numbers and bools
    # print without one, so they skip the scan.
    return ",".join([_csv_cell(v) if isinstance(v, str) else str(v) for v in values])


def _table(header: list[str], rows: list[list]) -> Iterator[str]:
    """The text lines of a table: the header, then each row, every
    column padded to its widest cell.  Lines are made as they are read."""
    widths = [max(len(str(v)) for v in column) for column in zip(header, *rows)]
    for row in [header, *rows]:
        yield "  ".join(str(v).ljust(w) for v, w in zip(row, widths))


def _emit(fmt: str, payload: dict, header: "list[str] | None", rows: list[list], text) -> None:
    """Print one record as ``fmt`` asks: the json ``payload``; the csv
    ``header`` (None for none) and ``rows``; or the ``text`` lines, an
    iterable read only when text is asked for."""
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        print("\n".join(map(_csv_line, rows if header is None else [header, *rows])))
    else:
        print("\n".join(text))


def _decimal(n: int) -> str:
    """n in decimal, however many digits it has: the interpreter's limit on
    int-to-str conversion (4300 digits by default, where it has one) is
    lifted for this one conversion and then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# count


def _cmd_count(args) -> int:
    instance = LatticeInstance(
        Family(args.family), Topology(args.topology), args.m, args.n
    )
    total = _decimal(count_lattice(instance))
    _emit(args.format, {"count": total}, ["count"], [[total]], [total])
    return 0


# ---------------------------------------------------------------------------
# matrix and eig


def _chain(args) -> tuple[TransferChain, dict]:
    """The chain ``matrix`` and ``eig`` read, with the fields that open
    their payloads: a rowwise chain wraps (cyclic), a columnwise one is
    open."""
    direction = Direction(args.direction)
    boundary = Boundary.CYCLIC if direction is Direction.ROWWISE else Boundary.OPEN
    chain = transfer_chain(Family(args.family), direction, args.width, boundary)
    return chain, {"family": args.family, "direction": args.direction,
                   "boundary": boundary.value, "width": args.width}


def _grid_lines(entries) -> list[str]:
    cells = [[str(e) for e in row] for row in entries]
    width = max(len(c) for row in cells for c in row)
    return [" ".join(c.rjust(width) for c in row) for row in cells]


def _matrix_lines(steps: list[dict], composite: list[list[int]]) -> Iterator[str]:
    for i, s in enumerate(steps, start=1):
        yield f"step {i}: {s['rows']}x{s['cols']}"
        yield from _grid_lines(s["entries"])
        yield ""
    yield f"composite: {len(composite)}x{len(composite[0])}"
    yield from _grid_lines(composite)


def _cmd_matrix(args) -> int:
    shapes = chain_dimensions(Family(args.family), Direction(args.direction), args.width)
    biggest = max(max(s) for s in shapes)
    if biggest > MATRIX_PRINT_LIMIT and not args.force:
        raise ValueError(
            f"largest step is {biggest} states per side, past the "
            f"{MATRIX_PRINT_LIMIT} print limit; pass --force to compute anyway"
        )
    chain, head = _chain(args)
    # The identity pushed through the steps, last first, is their product.
    # An entry counts paths through the inner slices, at most the product
    # of their state counts (2**44), so float64 holds it exactly.
    composite = np.eye(len(chain.exit_space))
    for step in reversed(chain.steps):
        composite = step.push(composite)
    composite = composite.astype(np.int64).tolist()
    steps = [
        {
            "rows": len(s.rows),
            "cols": len(s.cols),
            "row_masks": s.rows.masks.tolist(),
            "col_masks": s.cols.masks.tolist(),
            "entries": s.array.view(np.uint8).tolist(),
        }
        for s in chain.steps
    ]
    payload = {**head, "steps": steps, "composite": composite}
    _emit(args.format, payload, None, composite, _matrix_lines(steps, composite))
    return 0


def _cmd_eig(args) -> int:
    chain, head = _chain(args)
    result = dominant_eigenvalue(chain, tol=args.tol, max_iterations=args.max_iterations)
    payload = {**head, "value": result.value, "iterations": result.iterations,
               "residual": result.residual, "tol": args.tol}
    text = [
        f"value      {result.value!r}",
        f"iterations {result.iterations}",
        f"residual   {result.residual:.3e}",
    ]
    _emit(args.format, payload, list(payload), [list(payload.values())], text)
    return 0


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(args) -> int:
    report = entropy_interval(Family(args.family), args.p, args.q, args.k, tol=args.tol)
    payload = {**report.as_dict(), "tol": args.tol}
    header = [key for key in payload if key not in ("samples", "tol")]
    text = [
        f"family            {report.family.value}",
        f"p, q, k           {report.p}, {report.q}, {report.k}",
        f"lower             {report.lower!r}",
        f"upper             {report.upper!r}",
        f"per-vertex lower  {report.normalized_lower!r}",
        f"per-vertex upper  {report.normalized_upper!r}",
    ]
    _emit(args.format, payload, header, [[payload[key] for key in header]], text)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    single = args.m is not None or args.n is not None
    if single and (args.m is None or args.n is None or args.family is None or args.topology is None):
        raise ValueError("single-instance verify needs --family, --topology, -m and -n")
    if single:
        instance = LatticeInstance(Family(args.family), Topology(args.topology), args.m, args.n)
        results = [verify_instance(instance)]
    else:
        families = [Family(args.family)] if args.family else list(Family)
        topologies = [Topology(args.topology)] if args.topology else list(Topology)
        results = list(sweep(args.max_vertices, families, topologies))
        if not results:  # a sweep that checked nothing must not pass
            raise ValueError(f"no instance has at most {args.max_vertices} vertices")
    header = ["family", "topology", "m", "n", "vertices", "transfer", "brute", "match"]
    rows = [[r.instance.family.value, r.instance.topology.value, r.instance.m, r.instance.n,
             r.instance.vertices, _decimal(r.transfer), _decimal(r.brute), r.ok] for r in results]
    ok = all(r.ok for r in results)
    payload = {"results": [dict(zip(header, row)) for row in rows], "ok": ok}
    text = itertools.chain(_table(header, rows), ["OK" if ok else "MISMATCH"])
    _emit(args.format, payload, header, rows, text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    if args.k_max < args.k_min:
        raise ValueError("--k-max must be at least --k-min")
    reports = bound_table(Family(args.family), args.p, range(args.k_min, args.k_max + 1), tol=args.tol)
    header = ["k", "q", "lower", "upper", "normalized_lower", "normalized_upper", "normalized_width"]
    rows = [[getattr(r, key) for key in header] for r in reports]
    payload = {"family": args.family, "p": args.p, "rows": [dict(zip(header, row)) for row in rows]}
    _emit(args.format, payload, header, rows, _table(header, rows))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it as it was, so
    every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="latticegas",
        description="Exact independent-set counts and entropy bounds for lattice models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact independent-set count of one instance")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--topology", choices=_TOPOLOGIES, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("matrix", help="step matrices and composite of a chain")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--direction", choices=_DIRECTIONS, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help=f"compute even when a side exceeds {MATRIX_PRINT_LIMIT} states")
    _add_format(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("eig", help="dominant eigenvalue of a chain composite")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--direction", choices=_DIRECTIONS, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="max-norm residual to meet, relative to the root (at least 2**-52)")
    p.add_argument("--max-iterations", type=int, default=50000,
                   help="most pushes through the chain, checking pushes included")
    _add_format(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("bounds", help="two-sided entropy constant interval")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_format(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="check transfer counts against brute force")
    p.add_argument("--family", choices=_FAMILIES)
    p.add_argument("--topology", choices=_TOPOLOGIES)
    p.add_argument("-m", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--max-vertices", type=int, default=24,
                   help=f"sweep cap when -m/-n are not given (max {MAX_BRUTE_VERTICES})")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="bound intervals for a range of k (q tied to k)")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_format(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
