import csv
import io
import json
import sys
from importlib import resources

import jsonschema
import pytest

from latticegas import cli
from latticegas.chain import _MIN_WIDTH, Direction, Family
from latticegas.cli import main
from latticegas.oracle import VerifyResult
from latticegas.statespace import MAX_ENUM_LENGTH

import golden_data as gold


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    ref = resources.files("latticegas") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def check_schema(name, payload):
    jsonschema.validate(payload, load_schema(name))


def formats(capsys, *argv):
    """The json payload of one request, and its csv and text output."""
    payload = json.loads(run(capsys, *argv)[1])
    return payload, run(capsys, *argv, "--format", "csv")[1], run(capsys, *argv, "--format", "text")[1]


def csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


class TestCount:
    def test_json_is_exactly_a_count_string(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "quadratic", "--topology", "torus", "-m", "3", "-n", "3"
        )
        assert code == 0 and err == ""
        assert out == '{"count": "34"}\n'
        check_schema("count", json.loads(out))

    def test_csv_and_text(self, capsys):
        _, out, _ = run(
            capsys, "count", "--family", "crossed", "--topology", "plane",
            "-m", "1", "-n", "1", "--format", "csv",
        )
        assert out == "count\n5\n"
        _, out, _ = run(
            capsys, "count", "--family", "crossed", "--topology", "plane",
            "-m", "1", "-n", "1", "--format", "text",
        )
        assert out == "5\n"

    def test_invalid_instance_exits_nonzero(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "quadratic", "--topology", "torus", "-m", "2", "-n", "3"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "m >= 3" in err

    def test_long_cylinder(self, capsys):
        # 2 x 30: thirty 3-site columns around the wrap, traced
        states = [u for u in range(8) if not u & (u >> 1)]
        step = [[int(not u & v) for v in states] for u in states]
        power = step
        for _ in range(29):
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*step)] for row in power]
        code, out, err = run(
            capsys, "count", "--family", "quadratic", "--topology", "cylinder", "-m", "2", "-n", "30"
        )
        assert code == 0 and err == ""
        assert json.loads(out) == {"count": str(sum(power[i][i] for i in range(len(states))))}

    def test_oversized_instance_refused(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "quadratic", "--topology", "cylinder",
            "-m", "1000", "-n", "1000",
        )
        assert code == 1 and out == ""
        assert err == f"error: quadratic cylinder 1000x1000 has no sweep whose slices fit the {MAX_ENUM_LENGTH}-site cap\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_count_past_the_int_to_str_digit_limit(self, capsys, fmt):
        # main leaves the interpreter's 4300-digit limit as it found it
        expect = LONG_LADDER
        assert len(expect) == 4594 and sys.get_int_max_str_digits() == 4300
        printed = {"json": json.dumps({"count": expect}), "csv": "count\n" + expect, "text": expect}[fmt]
        code, out, err = run(
            capsys, "count", "--family", "quadratic", "--topology", "plane",
            "-m", "1", "-n", "12000", "--format", fmt,
        )
        assert code == 0 and err == "" and out == printed + "\n"
        assert sys.get_int_max_str_digits() == 4300

    @pytest.mark.parametrize("limit", [640, 4300, 10**5, 0])
    def test_decimal_restores_the_limit_it_found(self, limit):
        # 0 lifts the limit, 640 is the least one the interpreter takes
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert cli._decimal(10**6000 - 1) == "9" * 6000
            assert cli._decimal(-(10**700)) == "-1" + "0" * 700
            assert cli._decimal(0) == "0"
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(before)


def _ladder_past_the_digit_limit():
    """The independent sets of a 2 x 12001 ladder, and in decimal:
    a(n+1) = 2 a(n) + a(n-1) from a(0) = 3 and a(1) = 7, 4594 digits,
    past the 4300 that str() takes by default."""
    a, b = 3, 7
    for _ in range(11999):
        a, b = b, 2 * b + a
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return b, str(b)
    finally:
        sys.set_int_max_str_digits(limit)


LADDER, LONG_LADDER = _ladder_past_the_digit_limit()


CROSSED_C, CROSSED_R = gold.CROSSED_COLUMN_W3_STATES, gold.CROSSED_ROW_W4_STATES
T884_ROWS, T884_COLS = gold.T884_ROW_W3_STEP1_ROWSTATES, gold.T884_ROW_W3_STEP1_COLSTATES

# family, direction, width, then (golden matrix, row order, col order) for
# each step and for the composite; an order of None is the canonical one.
GOLDEN_CHAINS = [
    ("quadratic", "columnwise", 3, [(gold.QUAD_COLUMN_W3, None, None)] * 2),
    ("quadratic", "rowwise", 4, [(gold.QUAD_ROW_W4, None, None)] * 2),
    ("crossed", "columnwise", 3, [(gold.CROSSED_COLUMN_W3, CROSSED_C, CROSSED_C)] * 2),
    ("crossed", "rowwise", 4, [(gold.CROSSED_ROW_W4, CROSSED_R, CROSSED_R)] * 2),
    ("aztec", "columnwise", 3, [
        (gold.AZTEC_COLUMN_W3_STEP1, None, None),
        (gold.transpose(gold.AZTEC_COLUMN_W3_STEP1), None, None),
        (gold.AZTEC_COLUMN_W3_COMPOSITE, None, None),
    ]),
    ("aztec", "rowwise", 3, [
        (gold.AZTEC_ROW_W3_STEP1, None, None),
        (gold.transpose(gold.AZTEC_ROW_W3_STEP1), None, None),
        (gold.AZTEC_ROW_W3_COMPOSITE, None, None),
    ]),
    ("truncated-square", "columnwise", 2, [
        (gold.T884_COLUMN_W2_STEP1, None, None),
        (gold.T884_COLUMN_W2_STEP2, None, None),
        (gold.transpose(gold.T884_COLUMN_W2_STEP1), None, None),
        (gold.T884_COLUMN_W2_COMPOSITE, None, None),
    ]),
    ("truncated-square", "rowwise", 3, [
        (gold.T884_ROW_W3_STEP1, T884_ROWS, T884_COLS),
        (gold.T884_ROW_W3_STEP2, None, None),
        (gold.transpose(gold.T884_ROW_W3_STEP1), T884_COLS, T884_ROWS),
        (gold.T884_ROW_W3_COMPOSITE, None, None),
    ]),
]


# Every family and direction at the four widths from its floor up.
COMPOSITE_CASES = [
    (family.value, direction.value, _MIN_WIDTH[(family, direction)] + extra)
    for family in Family
    for direction in Direction
    for extra in range(4)
]


def int_product(mats):
    """Python-int product of lists of rows, left to right."""
    acc = mats[0]
    for mat in mats[1:]:
        cols = list(zip(*mat))
        acc = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in acc]
    return acc


def in_order(entries, row_masks, col_masks, rows, cols):
    """entries re-indexed to the given mask orders (canonical when None)."""
    ri = [row_masks.index(m) for m in rows] if rows else range(len(row_masks))
    ci = [col_masks.index(m) for m in cols] if cols else range(len(col_masks))
    return [[entries[i][j] for j in ci] for i in ri]


class TestMatrix:
    @pytest.mark.parametrize(
        "family, direction, width, expected", GOLDEN_CHAINS,
        ids=[f"{c[0]}-{c[1]}" for c in GOLDEN_CHAINS],
    )
    def test_json_matches_golden_chain(self, capsys, family, direction, width, expected):
        code, out, _ = run(
            capsys, "matrix", "--family", family, "--direction", direction, "--width", str(width)
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("matrix", payload)
        steps = payload["steps"]
        got = [(s["entries"], s["row_masks"], s["col_masks"]) for s in steps]
        got.append((payload["composite"], steps[0]["row_masks"], steps[-1]["col_masks"]))
        assert len(got) == len(expected)
        for (entries, row_masks, col_masks), (want, rows, cols) in zip(got, expected):
            assert in_order(entries, row_masks, col_masks, rows, cols) == want

    @pytest.mark.parametrize("family, direction, width", COMPOSITE_CASES)
    def test_composite_is_the_product_of_the_steps(self, capsys, family, direction, width):
        code, out, _ = run(
            capsys, "matrix", "--family", family, "--direction", direction,
            "--width", str(width), "--force",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["composite"] == int_product([s["entries"] for s in payload["steps"]])

    def test_json_carries_steps_and_composite(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--family", "truncated-square", "--direction", "columnwise",
            "--width", "2",
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("matrix", payload)
        assert len(payload["steps"]) == 3
        assert payload["composite"] == [[9, 6, 6], [6, 3, 4], [6, 4, 3]]
        assert payload["steps"][0]["row_masks"] == [0, 1, 2]
        assert payload["steps"][0]["col_masks"] == [0, 1, 2, 3]

    def test_text_prints_each_step(self, capsys):
        _, out, _ = run(
            capsys, "matrix", "--family", "aztec", "--direction", "rowwise",
            "--width", "3", "--format", "text",
        )
        assert "step 1: 8x8" in out
        assert "step 2: 8x8" in out
        assert "composite: 8x8" in out

    def test_csv_is_composite_rows(self, capsys):
        _, out, _ = run(
            capsys, "matrix", "--family", "truncated-square", "--direction", "columnwise",
            "--width", "2", "--format", "csv",
        )
        assert out == "9,6,6\n6,3,4\n6,4,3\n"

    def test_csv_quotes_only_strings_that_need_it(self, capsys):
        cli._emit("csv", {}, None, [["a,b", 'say "hi"', "two\nlines", "plain", 12, 1.5, True]], [])
        assert capsys.readouterr().out == '"a,b","say ""hi""","two\nlines",plain,12,1.5,True\n'

    def test_size_guard_refuses_then_force_overrides(self, capsys):
        code, out, err = run(
            capsys, "matrix", "--family", "quadratic", "--direction", "columnwise", "--width", "8"
        )
        assert code == 1 and out == ""
        assert "print limit" in err and "--force" in err
        code, out, _ = run(
            capsys, "matrix", "--family", "quadratic", "--direction", "columnwise",
            "--width", "8", "--force",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"][0]["rows"] == 89


class TestEig:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "eig", "--family", "quadratic", "--direction", "columnwise", "--width", "1"
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("eig", payload)
        assert payload["value"] == pytest.approx(2.414213562373095, abs=1e-12)
        assert payload["boundary"] == "open"
        assert payload["residual"] <= payload["tol"]

    def test_csv_and_text_print_the_json_record(self, capsys):
        payload, csv_out, text = formats(
            capsys, "eig", "--family", "crossed", "--direction", "rowwise", "--width", "6"
        )
        assert csv_rows(csv_out) == [list(payload), [str(v) for v in payload.values()]]
        assert dict(line.split(None, 1) for line in text.splitlines()) == {
            "value": repr(payload["value"]),
            "iterations": repr(payload["iterations"]),
            "residual": f"{payload['residual']:.3e}",
        }

    def test_rowwise_defaults_to_cyclic(self, capsys):
        _, out, _ = run(
            capsys, "eig", "--family", "quadratic", "--direction", "rowwise", "--width", "4"
        )
        assert json.loads(out)["boundary"] == "cyclic"

    def test_memory_error_reported(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "transfer_chain", exhausted)
        code, out, err = run(
            capsys, "eig", "--family", "quadratic", "--direction", "columnwise", "--width", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: MemoryError\n"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_empty_iteration_budget_refused(self, capsys, budget):
        code, out, err = run(
            capsys, "eig", "--family", "quadratic", "--direction", "columnwise", "--width", "3",
            f"--max-iterations={budget}",
        )
        assert code == 1 and out == ""
        assert "max_iterations must be at least 1" in err


    def test_unreachable_tolerance_refused(self, capsys):
        # below 2**-52 the request is refused before any push: the width-19
        # strip at 1e-16 once ran 50,000 iterations, 72 s, before failing
        code, out, err = run(
            capsys, "eig", "--family", "quadratic", "--direction", "columnwise", "--width", "19",
            "--tol", "1e-16",
        )
        assert code == 1 and out == ""
        assert "tol must be at least 2**-52" in err


class TestBounds:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "aztec", "-p", "1", "-q", "2", "-k", "2"
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("bounds", payload)
        assert payload["lower"] < payload["upper"]
        assert payload["per_vertex_exponent"] == "1/2"
        assert [s["role"] for s in payload["samples"]] == ["strip", "strip", "ring"]

    @pytest.mark.parametrize("command", ["bounds", "table"])
    def test_unreachable_tolerance_refused(self, capsys, command):
        widths = ["-q", "6", "-k", "6"] if command == "bounds" else ["--k-min", "5", "--k-max", "6"]
        code, out, err = run(capsys, command, "--family", "quadratic", "-p", "2", *widths, "--tol", "1e-17")
        assert code == 1 and out == ""
        assert "tol must be at least 2**-52" in err

    @pytest.mark.parametrize("family", ["aztec", "truncated-square"])
    def test_csv_prints_the_json_record_but_its_samples(self, capsys, family):
        payload, csv_out, _ = formats(capsys, "bounds", "--family", family, "-p", "1", "-q", "2", "-k", "2")
        header = [key for key in payload if key not in ("samples", "tol")]
        assert csv_rows(csv_out) == [header, [str(payload[key]) for key in header]]

    def test_text_mentions_both_sides(self, capsys):
        _, out, _ = run(
            capsys, "bounds", "--family", "quadratic", "-p", "1", "-q", "2", "-k", "2",
            "--format", "text",
        )
        assert "lower" in out and "upper" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("eig", "--family", "quadratic", "--direction", "columnwise", "--width", "3"),
        ("bounds", "--family", "quadratic", "-p", "1", "-q", "2", "-k", "2"),
    ],
)
def test_non_finite_tolerance_refused(capsys, argv, tol):
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 1 and out == ""
    assert "tol must be positive and finite" in err


class TestVerify:
    def test_single_instance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "aztec", "--topology", "torus", "-m", "2", "-n", "2"
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("verify", payload)
        assert payload["ok"] is True
        assert payload["results"][0]["transfer"] == "31"
        assert payload["results"][0]["match"] is True

    def test_single_instance_needs_all_four_arguments(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "aztec", "-m", "2")
        assert code == 1 and out == ""
        assert "-n" in err

    def test_filtered_sweep_text_ends_with_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "crossed", "--topology", "torus",
            "--max-vertices", "12", "--format", "text",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "OK"
        assert len(lines) > 2  # header plus at least one instance

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_empty_sweep_is_refused(self, capsys, cap):
        code, out, err = run(capsys, "verify", "--max-vertices", cap)
        assert code == 1 and out == ""
        assert err.startswith("error: no instance")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_counts_past_the_int_to_str_digit_limit(self, capsys, monkeypatch, fmt):
        # both counts printed in full, however many digits; the brute
        # count of a 2 x 12001 ladder is stood in by the known one
        def verified(instance):
            return VerifyResult(instance, LADDER, LADDER)

        monkeypatch.setattr(cli, "verify_instance", verified)
        code, out, err = run(
            capsys, "verify", "--family", "quadratic", "--topology", "plane",
            "-m", "1", "-n", "12000", "--format", fmt,
        )
        assert code == 0 and err == ""
        if fmt == "json":
            payload = json.loads(out)
            check_schema("verify", payload)
            assert payload["results"][0]["transfer"] == payload["results"][0]["brute"] == LONG_LADDER
        else:
            assert out.count(LONG_LADDER) == 2
            assert out.endswith("OK\n") is (fmt == "text")
        assert sys.get_int_max_str_digits() == 4300

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "quadratic", "--max-vertices", "9"
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("verify", payload)
        assert payload["ok"] is True
        assert all(r["match"] for r in payload["results"])
        topologies = {r["topology"] for r in payload["results"]}
        assert topologies == {"plane", "cylinder", "torus"}


class TestTable:
    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "quadratic", "-p", "1", "--k-min", "2", "--k-max", "3"
        )
        assert code == 0
        payload = json.loads(out)
        check_schema("table", payload)
        assert [r["k"] for r in payload["rows"]] == [2, 3]
        assert payload["rows"][1]["normalized_width"] < payload["rows"][0]["normalized_width"]

    def test_rejects_reversed_range(self, capsys):
        code, _, err = run(
            capsys, "table", "--family", "quadratic", "-p", "1", "--k-min", "3", "--k-max", "2"
        )
        assert code == 1
        assert "--k-max" in err

    def test_csv_and_text_print_the_json_rows(self, capsys):
        payload, csv_out, text = formats(
            capsys, "table", "--family", "quadratic", "-p", "1", "--k-min", "2", "--k-max", "4"
        )
        header = list(payload["rows"][0])
        assert csv_rows(csv_out) == [header, *([str(v) for v in row.values()] for row in payload["rows"])]
        assert [line.split() for line in text.splitlines()] == [
            header, *([repr(v) for v in row.values()] for row in payload["rows"])
        ]

    def test_csv_header(self, capsys):
        _, out, _ = run(
            capsys, "table", "--family", "quadratic", "-p", "1", "--k-min", "2", "--k-max", "2",
            "--format", "csv",
        )
        assert out.splitlines()[0].startswith("k,q,lower,upper")


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--family", "quadratic", "--direction", "columnwise", "--width", "8"),
        ("verify", "--family", "aztec", "-m", "2"),
        ("table", "--family", "quadratic", "-p", "1", "--k-min", "3", "--k-max", "2"),
    ],
    ids=["matrix-print-limit", "verify-single-instance", "table-reversed-range"],
)
def test_refusals_print_one_error_line(capsys, argv):
    # these subcommands refuse before any work, through main's one path
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestParserReuse:
    def test_main_reuses_one_parser(self, capsys):
        def fresh(argv):
            args = cli.build_parser.__wrapped__().parse_args(argv)
            return args.func(args)

        def outcome(entry, argv):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            return (code, *capsys.readouterr())

        runs = [
            ["count", "--family", "quadratic", "--topology", "torus", "-m", "4", "-n", "5"],
            ["eig", "--family", "crossed", "--direction", "columnwise", "--width", "5"],
            ["count", "--family", "quadratic", "-m", "4"],
            ["count", "--family", "aztec", "--topology", "plane", "-m", "3", "-n", "4"],
        ]
        results = [outcome(main, argv) for argv in runs]
        assert [code for code, _, _ in results] == [0, 0, ("exit", 2), 0]
        assert results == [outcome(fresh, argv) for argv in runs]
        assert cli.build_parser() is cli.build_parser()


class TestModuleEntry:
    def test_python_dash_m_runs(self):
        import os
        import subprocess
        import sys

        import latticegas

        # the child finds the package where this process imported it from
        where = os.path.dirname(os.path.dirname(latticegas.__file__))
        path = os.pathsep.join(filter(None, [where, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "latticegas", "count", "--family", "quadratic",
             "--topology", "plane", "-m", "1", "-n", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"count": "7"}
