"""The command line front end, driven through ``cli.main(argv)``.

The benchmark's commands run here too, on its checked-in config, and every
output is compared with the SHA-256 digests in ``bench/golden.json``, so
that byte identity is guarded by the tests as well as by the benchmark.
Both files are only read.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bitlet import (FieldError, InputError, InvalidProgram, NonFiniteResult, OpKind,
                    WorkloadPoint, cli)
from bitlet.analysis import SWEEP_PARAMS, sweep
from bitlet.config import ConfigError, load_config, parse_config
from bitlet.machine import GBPS
from bitlet.model import evaluate
from reference import (perf_cpu, perf_pim, pl_perf_cpu, pl_perf_pim, reference_block,
                       reference_columns)

BENCH = Path(__file__).resolve().parents[1] / "bench"
CONFIG = str(BENCH / "config.json")
GOLDEN = json.loads((BENCH / "golden.json").read_text())

# (golden section, label, argv without --out, output file name or None)
COMMANDS = [
    ("sweep_grid", f"sweep_{param}",
     ["sweep", "--config", CONFIG, "--param", param, "--grid", grid],
     f"sweep_{param}.csv")
    for param, grid in (("MAT", "1:1e6:1000:log"), ("OC", "1:1e5:1000:log"),
                        ("TDP", "0.1:1000:1000:log"))
] + [
    ("cli_suite", "eval", ["eval", "--config", CONFIG], "eval.csv"),
    ("cli_suite", "crossover", ["crossover", "--config", CONFIG], "crossover.csv"),
    ("cli_suite", "power", ["power", "--config", CONFIG], "power.csv"),
    ("cli_suite", "fig1", ["reproduce", "fig1"], "fig1.csv"),
    ("cli_suite", "fig2", ["reproduce", "fig2"], "fig2.csv"),
    ("cli_suite", "fig3", ["reproduce", "fig3"], "fig3.csv"),
    ("cli_suite", "validate", ["validate", "--scope", "all"], None),
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestGoldenOutputs:
    @pytest.mark.parametrize("section,label,argv,name", COMMANDS,
                             ids=[c[1] for c in COMMANDS])
    def test_output_matches_its_digest(self, tmp_path, section, label, argv, name):
        if name is not None:
            argv = argv + ["--out", str(tmp_path / name)]
        code, stdout = run(argv)
        assert code == cli.EXIT_OK
        golden = GOLDEN[section]
        assert sha256(stdout.encode()) == golden[f"{label}.stdout"]
        if name is not None:
            assert sha256((tmp_path / name).read_bytes()) == golden[name]

    def test_every_digest_is_checked(self):
        checked = {(s, f"{label}.stdout") for s, label, _, _ in COMMANDS}
        checked |= {(s, name) for s, _, _, name in COMMANDS if name is not None}
        assert checked == {(s, k) for s, digests in GOLDEN.items() for k in digests}


class TestSweep:
    def test_pac_grid_starts_at_the_default_layout(self):
        code, stdout = run(["sweep", "--config", CONFIG, "--param", "PAC",
                            "--grid", "0:10:3"])
        assert code == cli.EXIT_OK
        cfg = load_config(CONFIG)
        lines = stdout.splitlines()
        assert lines[1] == "workload,pac,pim_gops,cpu_gops,pl_pim_gops,pl_cpu_gops"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3 * len(cfg.workloads)
        for w in cfg.workloads:
            point = w.resolve(cfg.pim)
            at_zero = WorkloadPoint(point.oc_cycles, 0, point.dio_bits)
            want = [w.name, "0"] + ["%.6g" % t.gops for t in (
                perf_pim(cfg.pim, at_zero), perf_cpu(cfg.cpu, at_zero),
                pl_perf_pim(cfg.pim, at_zero, cfg.power),
                pl_perf_cpu(cfg.cpu, at_zero, cfg.power))]
            assert want in rows

    def test_percent_in_a_workload_name_is_printed_as_is(self, tmp_path):
        cfg = write_config(tmp_path, {"workloads": [
            {"name": "or%s%d", "op": "OR", "width_bits": 16, "dio_bits": 48}]})
        code, stdout = run(["sweep", "--config", cfg, "--param", "OC",
                            "--grid", "32:33:2"])
        assert code == cli.EXIT_OK
        assert stdout.splitlines()[2:] == ["or%s%d,32,3276.8,85.3333,3276.8,85.3333",
                                           "or%s%d,33,3177.5,85.3333,3177.5,85.3333"]


# a cell value of a drawn block: the values whose text or bits are easy to
# get wrong, or any float
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 3104.0]
_CONVERSIONS = {"%.6g": st.sampled_from(_EDGE_FLOATS) | st.floats(),
                "%d": (st.sampled_from([v for v in _EDGE_FLOATS if math.isfinite(v)])
                       | st.floats(allow_nan=False, allow_infinity=False))}


def _from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def blocks(draw):
    """(formats, rows, prefix): a float64 block whose columns are each
    constant or varying, one conversion per column and a %-escaped prefix."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 50))
    formats = draw(st.lists(st.sampled_from(sorted(_CONVERSIONS)), min_size=1, max_size=6))
    columns = []
    for fmt in formats:
        # a constant column has a pool of one value; a varying one picks each
        # row's value from a pool of up to six by one drawn byte
        pool = draw(st.lists(_CONVERSIONS[fmt], min_size=1,
                             max_size=draw(st.sampled_from([1, 6]))))
        picks = draw(st.binary(min_size=n, max_size=n))
        columns.append([pool[b % len(pool)] for b in picks])
    rows = np.ascontiguousarray(np.array(columns, dtype=np.float64).T)
    prefix = draw(st.text(alphabet='a%,"', max_size=6)).replace("%", "%%")
    return formats, rows, prefix


class TestBlockWriter:
    """`_block` bakes the columns that are constant down an array block into
    the row pattern; its bytes equal one conversion per cell."""

    @settings(max_examples=50, deadline=None)
    @given(case=blocks())
    # -0.0 and 0.0 print apart; two NaN payloads print alike; a column equal
    # only at its ends; no rows; one row, wholly baked, so no cell is left
    @example(case=(["%.6g"], np.array([[-0.0], [0.0]]), ""))
    @example(case=(["%.6g"], _from_bits([[0x7FF8000000000001], [0x7FF8000000000000]]), ""))
    @example(case=(["%.6g", "%d"], np.array([[1.0, 3104.0], [2.0, 3104.0], [1.0, 3104.0]]),
                   "a,"))
    @example(case=(["%.6g", "%d", "%.6g"], np.empty((0, 3)), 'x%%,"'))
    @example(case=(["%d", "%.6g", "%.6g"], np.array([[3104.0, math.nan, -0.0]]), "%%s,"))
    def test_equals_one_conversion_per_cell(self, case):
        formats, rows, prefix = case
        assert cli._block(formats, rows, prefix) == reference_block(
            prefix + ",".join(formats), rows)


def reference_sweep(config, param, grid):
    """The sweep CSV of `config`, written by the reference block writer over
    `analysis.sweep`'s table, and which of its five columns are constant in
    every workload's block."""
    cfg = load_config(config)
    scale = GBPS if param == "BW" else 1.0
    table = sweep(param, cli._parse_grid(grid) * scale, cfg.pim, cfg.cpu,
                  [w.resolve(cfg.pim) for w in cfg.workloads], cfg.power)
    table[:, 0] /= scale
    x_col = "bw_gbps" if param == "BW" else param.lower()
    doc = (f"# bitlet sweep param={param} grid={grid}\n"
           f"workload,{x_col},pim_gops,cpu_gops,pl_pim_gops,pl_cpu_gops\n")
    constant = []
    for w, block in zip(cfg.workloads, np.split(table, len(cfg.workloads))):
        doc += reference_block(cli._field(w.name).replace("%", "%%") + ",%.6g" * 5, block)
        bits = block.view(np.uint64)
        constant.append((bits == bits[0]).all(axis=0).tolist())
    return doc, constant


class TestSweepConstantColumns:
    """Sweeps whose blocks hold other sets of constant columns print what one
    conversion per cell prints."""

    X, PIM, CPU, PL_PIM, PL_CPU = range(5)

    @pytest.mark.parametrize("param,grid,tdp,constant", [
        ("OC", "5:5:1", 20, {X, PIM, CPU, PL_PIM, PL_CPU}),
        ("BW", "1:1e4:20:log", 20, {PIM, PL_PIM}),
        ("PAC", "0:10:11", 20, {CPU, PL_CPU}),
        ("DIO", "1:512:9", 20, {PIM, PL_PIM}),
        ("MAT", "1e3:1e6:20:log", 20, {CPU, PL_CPU}),
        ("MAT", "1e3:1e6:20:log", 0.05, {CPU, PL_PIM, PL_CPU}),
    ], ids=["one-step", "BW", "PAC", "DIO", "MAT", "MAT-capped"])
    def test_bytes_equal_the_reference_writer(self, tmp_path, param, grid, tdp, constant):
        doc = json.loads(Path(CONFIG).read_text())
        doc["power"]["tdp_watts"] = tdp
        path = write_config(tmp_path, doc)
        want, constants = reference_sweep(path, param, grid)
        assert [{i for i, c in enumerate(cols) if c} for cols in constants] == [constant] * 3
        out = tmp_path / "out.csv"
        code, _ = run(["sweep", "--config", path, "--param", param, "--grid", grid,
                       "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.read_bytes() == want.encode()


class TestOneEvaluatePerCommand:
    """A model command evaluates every workload, and every grid value of a
    sweep, in one call of the kernel."""

    @pytest.mark.parametrize("argv", [
        ["eval"], ["crossover"], ["power"],
        *(["sweep", "--param", param, "--grid", grid] for param, grid in (
            ("OC", "1:1e5:50:log"), ("PAC", "0:10:3"), ("MAT", "1:1e6:50:log"),
            ("BW", "1:1e4:20:log"), ("DIO", "1:512:9"), ("TDP", "0.1:1000:50:log")))],
        ids=lambda argv: "-".join(argv[::2]))
    def test_one_call_on_the_benchmark_config(self, tmp_path, argv):
        with mock.patch("bitlet.cli.evaluate", wraps=evaluate) as in_cli, \
                mock.patch("bitlet.analysis.evaluate", wraps=evaluate) as in_analysis:
            code, _ = run(argv[:1] + ["--config", CONFIG, "--out", str(tmp_path / "out")]
                          + argv[1:])
        assert code == cli.EXIT_OK
        assert in_cli.call_count + in_analysis.call_count == 1


class TestNoWorkloads:
    EMPTY = {"power": {"tdp_watts": 20}, "workloads": []}

    @pytest.mark.parametrize("command,csv_doc,json_doc", [
        ("eval", "no workloads in config\n", "[]\n"),
        ("crossover", "# bitlet crossover\nname,dio_bits,pac_cycles,crossover_oc,"
                      "cpu_wins_at_oc,energy_breakeven_oc\n", "[]\n"),
        ("power", "# bitlet power tdp_watts=20\n# mat_power_cap=1953\nname,oc_cycles,"
                  "pac_cycles,dio_bits,pim_gops,pl_pim_gops,cpu_gops,pl_cpu_gops,"
                  "pim_pj_per_op,cpu_pj_per_op\n",
         '{\n  "tdp_watts": 20.0,\n  "mat_power_cap": 1953,\n  "workloads": []\n}\n')])
    def test_header_or_empty_document(self, tmp_path, command, csv_doc, json_doc):
        path = write_config(tmp_path, self.EMPTY)
        for fmt, doc in (("csv", csv_doc), ("json", json_doc)):
            assert run([command, "--config", path, "--format", fmt]) == (cli.EXIT_OK, doc)


OVERFLOWING = {
    "tiny_cycle": {"pim": {"mats": 1e15, "cycle_time_ns": 1e-300},
                   "power": {"tdp_watts": 20},
                   "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1}]},
    "huge_budget": {"pim": {"cycle_time_ns": 1e10}, "power": {"tdp_watts": 1e300},
                    "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1}]},
    # PAC, a Python integer, past the largest double
    "huge_pac": {"power": {"tdp_watts": 20},
                 "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1, "layout": {
                     "element_width_bits": 64, "misaligned_subsets": 1.7e308}}]},
    # the energy per cycle underflows to 0 J
    "tiny_energy": {"pim": {"energy_per_cycle_pj": 5e-324}, "power": {"tdp_watts": 1},
                    "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1}]},
}


class TestNonFiniteResults:
    @pytest.mark.parametrize("config,argv", [
        ("tiny_cycle", ["eval"]), ("tiny_cycle", ["power"]),
        ("tiny_cycle", ["crossover"]),
        ("tiny_cycle", ["sweep", "--param", "OC", "--grid", "1:10:3"]),
        ("huge_budget", ["power"]), ("huge_pac", ["eval"]), ("huge_pac", ["power"]),
        ("huge_pac", ["crossover"]),
        ("huge_pac", ["sweep", "--param", "OC", "--grid", "1:10:3"]),
        ("tiny_energy", ["power"])])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, config, argv):
        path = write_config(tmp_path, OVERFLOWING[config])
        code = cli.main(argv[:1] + ["--config", path] + argv[1:])
        assert code == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "overflow double precision" in captured.err


MODEL_COMMANDS = [["eval"], ["crossover"], ["power"],
                  ["sweep", "--param", "OC", "--grid", "1:10:3"]]
OUT_OF_RANGE = {   # config text -> the key its one error line names
    '{"pim": {"rows": 1e400}, "power": {"tdp_watts": 20}}': "pim.rows",
    '{"pim": {"rows": NaN}, "power": {"tdp_watts": 20}}': "pim.rows",
    '{"pim": {"cycle_time_ns": Infinity}, "power": {"tdp_watts": 20}}': "pim.cycle_time_ns",
    '{"power": {"tdp_watts": 20}, "workloads": [{"name": "w", "oc_override": 1, '
    '"dio_bits": 0}]}': "workloads[0].dio_bits",
}


class TestOutOfRangeConfig:
    @pytest.mark.parametrize("text", list(OUT_OF_RANGE),
                             ids=["1e400", "NaN", "Infinity", "dio0"])
    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=[a[0] for a in MODEL_COMMANDS])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, text, argv):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = cli.main(argv[:1] + ["--config", str(path)] + argv[1:])
        assert code == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:1: {OUT_OF_RANGE[text]}: ")
        assert captured.err.count("\n") == 1


class TestIntegerPastTheDigitLimit:
    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=[a[0] for a in MODEL_COMMANDS])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv):
        path = tmp_path / "config.json"
        path.write_text('{"power": {"tdp_watts": 20},\n "pim": {"rows": 1' + "0" * 5000 + "}}")
        code = cli.main(argv[:1] + ["--config", str(path)] + argv[1:])
        assert code == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}:2: invalid JSON: an integer of 5001 digits, "
                                f"past the limit of {sys.get_int_max_str_digits()}\n")


class TestEvalJson:
    @pytest.mark.parametrize("power", [True, False], ids=["power", "no-power"])
    def test_records_are_the_closed_forms(self, tmp_path, power):
        doc = json.loads((BENCH / "config.json").read_text())
        if not power:
            del doc["power"]
        path = write_config(tmp_path, doc)
        code, stdout = run(["eval", "--config", path, "--format", "json"])
        assert code == cli.EXIT_OK
        cfg = load_config(path)
        want = []
        for w in cfg.workloads:
            p = w.resolve(cfg.pim)
            ref = reference_columns(cfg.pim, cfg.cpu, cfg.power, (
                p.oc_cycles, p.pac_cycles, p.dio_bits, cfg.pim.mats, cfg.cpu.bandwidth_bps, None))
            want.append({"name": w.name, "oc_cycles": p.oc_cycles, "pac_cycles": p.pac_cycles,
                         "dio_bits": p.dio_bits,
                         **{k: ref[k] for k in ("pim_gops", "cpu_gops", "pl_pim_gops",
                                                "pl_cpu_gops", "winner", "speedup",
                                                "crossover_oc", "energy_ratio")},
                         "power_limited": power})
        assert stdout == json.dumps(want, indent=2) + "\n"
        assert [r["power_limited"] for r in json.loads(stdout)] == [power] * 3


class TestCsvQuoting:
    NAMES = ["x,y", 'a"b', "odd%s,x"]

    @pytest.mark.parametrize("argv", [["eval"], ["crossover"], ["power"],
                                      ["sweep", "--param", "OC", "--grid", "32:33:2"]])
    def test_names_needing_quotes_round_trip(self, tmp_path, argv):
        path = write_config(tmp_path, {
            "power": {"tdp_watts": 20},
            "workloads": [{"name": name, "op": "OR", "width_bits": 16, "dio_bits": 48}
                          for name in self.NAMES]})
        out = tmp_path / "out.csv"
        code, _ = run(argv[:1] + ["--config", path, "--out", str(out)] + argv[1:])
        assert code == cli.EXIT_OK
        lines = [line for line in out.read_text().splitlines(keepends=True)
                 if not line.startswith("#")]
        header, *rows = list(csv.reader(lines))
        assert rows and all(len(row) == len(header) for row in rows)
        assert sorted({row[0] for row in rows}) == sorted(self.NAMES)

    def test_plain_names_stay_unquoted(self):
        assert cli._field("add16_shifted") == "add16_shifted"
        assert cli._field("a\nb") == '"a\nb"'
        assert cli._field("a\rb") == '"a\rb"'


class TestNegativeGrids:
    def test_space_separated_negative_grid_reaches_the_grid_check(self, capsys):
        code = cli.main(["sweep", "--config", CONFIG, "--param", "PAC",
                         "--grid", "-1:5:3"])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: PAC grid values must round to >= 0\n"

    def test_both_spellings_give_the_same_bytes(self):
        base = ["sweep", "--config", CONFIG, "--param", "PAC"]
        spaced = run(base + ["--grid", "-0.4:2:3"])
        joined = run(base + ["--grid=-0.4:2:3"])
        assert spaced[0] == joined[0] == cli.EXIT_OK
        assert spaced[1] == joined[1]


def run_both(argv):
    """Exit code, stdout and stderr of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


ONE_WORKLOAD = {"power": {"tdp_watts": 20},
                "workloads": [{"name": "add16", "op": "ADD", "width_bits": 16,
                               "dio_bits": 48}]}


class TestNullIsAbsent:
    @pytest.mark.parametrize("section,value", [
        ("pim", {"rows": None}), ("cpu", {"bandwidth_gbps": None}), ("pim", None)],
        ids=["pim.rows", "cpu.bandwidth_gbps", "pim"])
    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=[a[0] for a in MODEL_COMMANDS])
    def test_same_output_as_without_the_key(self, tmp_path, section, value, argv):
        outputs = []
        for doc in ({**ONE_WORKLOAD, section: value}, ONE_WORKLOAD):
            path = write_config(tmp_path, doc)
            outputs.append(run_both(argv[:1] + ["--config", path] + argv[1:]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == cli.EXIT_OK


class TestOneExit2Path:
    @pytest.mark.parametrize("doc,argv,message", [
        ({"power": {"tdp_watts": 20}}, ["sweep", "--param", "OC", "--grid", "1:10:3"],
         "sweep needs at least one workload in the config"),
        ({"workloads": ONE_WORKLOAD["workloads"]}, ["power"],
         "power analysis needs a power section in the config"),
    ], ids=["sweep-without-workloads", "power-without-power-section"])
    def test_missing_part_of_the_config(self, tmp_path, doc, argv, message):
        path = write_config(tmp_path, doc)
        assert run_both(argv[:1] + ["--config", path] + argv[1:]) == (
            cli.EXIT_BAD_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("param,grid,message", [
        ("OC", "1:10", "grid must be lo:hi:steps[:log], got '1:10'"),
        ("OC", "a:10:3", "grid lower bound must be a number, got 'a'"),
        ("OC", "1:b:3", "grid upper bound must be a number, got 'b'"),
        ("OC", "1:10:x", "grid steps must be an integer in digits, got 'x'"),
        ("OC", "1:10:1e9", "grid steps must be an integer in digits, got '1e9'"),
        ("OC", "1:10:3:ln", "grid scale must be 'log' or 'lin', got 'ln'"),
        ("OC", "1:10:0", "grid needs at least one step"),
        ("OC", "10:1:3", "grid upper bound below lower bound"),
        ("OC", "0:10:3:log", "log grids need a positive lower bound"),
        ("OC", "nan:0:2:log", "log grids need a positive lower bound"),
        ("FOO", "1:10:3", "unknown sweep parameter 'FOO'; expected one of "
                          + ", ".join(SWEEP_PARAMS)),
        ("OC", "1e400:1e401:3", "sweep grid values must be finite"),
        ("OC", "-1e308:1e308:3", "sweep grid values must be finite"),
        ("BW", "1:1e400:2:log", "sweep grid values must be finite"),
        # finite in Gbps, past the largest double once scaled to bits/s
        ("BW", "1e308:1.7e308:3", "BW grid values must be at most 1.79769e+299 Gbps"),
        ("BW", "-1.7e308:1:3", "BW grid values must be > 0"),
        ("TDP", "-1:1:3", "TDP grid values must be > 0"),
        ("OC", f"1:2:{cli.MAX_GRID_STEPS + 1}",
         f"grid allows at most {cli.MAX_GRID_STEPS} steps"),
        ("MAT", "1:2:1000000000000000:log", f"grid allows at most {cli.MAX_GRID_STEPS} steps"),
    ])
    def test_bad_sweep_argument(self, param, grid, message):
        argv = ["sweep", "--config", CONFIG, "--param", param, "--grid", grid]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a warning would be a second stderr line
            assert run_both(argv) == (cli.EXIT_BAD_INPUT, "", f"error: {message}\n")

    # (file bytes, the error line after the path); line ends counted as
    # text mode reads them
    NOT_UTF8 = [
        (b"\xff\xfe", "1: invalid UTF-8: byte 0xff (invalid start byte)"),
        (b'{"power": {"tdp_watts": 20}}\n\xff', "2: invalid UTF-8: byte 0xff (invalid start byte)"),
        (b'{"workloads": []}\n\n\xe4\xb8', "3: invalid UTF-8: byte 0xe4 (unexpected end of data)"),
        (b'{\r\n"pim": {}\r\n}\r\n\xc3(',
         "4: invalid UTF-8: byte 0xc3 (invalid continuation byte)"),
        (b'{\r\r"a\xed\xa0\x80"', "3: invalid UTF-8: byte 0xed (invalid continuation byte)"),
        (b"\xef\xbb\xbf{}", "1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ]

    @pytest.mark.parametrize("data,message", NOT_UTF8,
                             ids=["ff-fe", "json-then-ff", "truncated", "crlf", "cr-surrogate",
                                  "bom"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["--config", "BITLET_CONFIG"])
    def test_config_that_is_not_utf8(self, tmp_path, data, message, via_env):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        argv = ["eval"] if via_env else ["eval", "--config", str(path)]
        with mock.patch.dict(os.environ, {"BITLET_CONFIG": str(path)} if via_env else {}):
            assert run_both(argv) == (cli.EXIT_BAD_INPUT, "", f"error: {path}:{message}\n")

    def test_input_errors_share_one_base(self):
        for cls in (ConfigError, FieldError, NonFiniteResult):
            assert issubclass(cls, InputError) and issubclass(cls, ValueError)
        assert not issubclass(InvalidProgram, InputError)

    def test_an_unrelated_value_error_escapes(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a fault in the program")

        monkeypatch.setattr(cli, "evaluate", broken)
        with pytest.raises(ValueError, match="a fault in the program"):
            cli.main(["eval", "--config", CONFIG])


class TestOneCommandParser:
    """`main` builds the parser of the invoked command alone; it must print,
    fail and parse exactly as the parser of every command does."""

    @staticmethod
    def outcome(parser, argv):
        """Parsed values or exit code, stdout and stderr of one parse."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(cli._attach_grids(argv)))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    def assert_same(self, argv):
        one = self.outcome(cli.build_parser(argv[0]), argv)
        assert one == self.outcome(cli.build_parser(), argv)
        return one

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_and_usage_lines(self, command):
        assert self.assert_same([command, "-h"])[0] == 0
        assert self.assert_same([command, "--bogus"])[0] == 2
        assert (cli.build_parser(command).format_usage()
                == cli.build_parser().format_usage())

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["sweep", "--param", "OC"], ["validate", "--scope", "x"],
        ["reproduce"], ["reproduce", "fig9"], ["eval", "--format", "xml"],
        ["litmus", "extra"], ["power", "--out"],
    ])
    def test_usage_errors(self, argv):
        code, out, err = self.assert_same(argv)
        assert code == 2 and out == "" and "error: " in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "c.json"],
        ["litmus", "--config", "c.json", "--format", "json", "--out", "o.json"],
        ["crossover"],
        ["sweep", "--config", "c.json", "--param", "PAC", "--grid", "-1:5:3"],
        ["sweep", "--param", "OC", "--grid=-1:5:3", "--format", "json"],
        ["power", "--out", "p.csv"],
        ["reproduce", "fig2", "--out", "f.csv"],
        ["validate"],
        ["validate", "--scope", "pac"],
    ])
    def test_parsed_values(self, argv):
        values, out, err = self.assert_same(argv)
        assert values["command"] == argv[0] and out == err == ""
        if "--grid" in argv:
            assert values["grid"] == "-1:5:3"

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0
        listed = capsys.readouterr().out
        assert len(cli.COMMANDS) == 7
        for name, (_, text, _) in cli.COMMANDS.items():
            assert re.search(rf"^\s+{name}\s+{re.escape(text)}$", listed, re.M), name


# --- the CLI contract, on random configs ---------------------------------

# numbers at the edges of what a JSON config can carry
EXTREMES = [0, -1, 2.5, 10 ** 300, 1.7e308, -1.7e308, 5e-324, math.nan, math.inf, -math.inf]


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _value(draw, sane, nulls, wild):
    """A sane value mostly; now and then null when `nulls`, and an extreme
    number when `wild`."""
    kind = draw(st.sampled_from(["sane"] * 6 + ["null"] * nulls + ["wild"] * wild))
    if kind == "null":
        return None
    return draw(sane if kind == "sane" else st.sampled_from(EXTREMES))


# a key that no object of a config knows
UNKNOWN_KEY = st.sampled_from([{"Rows": 4}, {"comment": "x"}])


def _rarely(strategy, other):
    """`strategy` seven times in eight, else `other`."""
    return st.sampled_from([0] * 7 + [1]).flatmap(lambda i: (strategy, other)[i])


@st.composite
def _object(draw, fields, nulls, wild, always=()):
    """An object with the keys `always` and some other keys of `fields`
    (key -> strategy of sane values), now and then one unknown key too, or
    now and then null when `nulls`."""
    keys = dict.fromkeys([*always, *draw(st.lists(st.sampled_from(sorted(fields))))])
    obj = {key: draw(_value(fields[key], nulls, wild)) for key in keys}
    obj.update(draw(_rarely(st.just({}), UNKNOWN_KEY)))
    return draw(_value(st.just(obj), nulls, wild=False))


LAYOUT_FIELDS = {"element_width_bits": st.integers(1, 64),
                 "misaligned_subsets": st.integers(0, 8),
                 "needs_vertical_relocation": st.booleans(),
                 "hmove_override": st.integers(0, 1000),
                 "vmove_override": st.integers(0, 1000)}
PIM_FIELDS = {"rows": st.integers(1, 4096), "cols": st.integers(1, 4096),
              "mats": st.integers(1, 16384), "cycle_time_ns": _log_floats(0.1, 100.0),
              "energy_per_cycle_pj": _log_floats(0.01, 10.0)}
CPU_FIELDS = {"bandwidth_gbps": st.integers(1, 100_000),
              "energy_per_bit_pj": _log_floats(0.1, 100.0)}


@st.composite
def configs(draw):
    """A config document: any section may be missing or null, and so may
    any key when `nulls` is drawn; names hold characters CSV must quote."""
    nulls, wild = draw(st.booleans()), draw(st.booleans())
    workload = {"name": st.text(st.sampled_from('ab0_ ,"%é中'), min_size=1, max_size=6),
                "op": st.sampled_from([k.name for k in OpKind] + ["add", "FUSE"]),
                "width_bits": st.integers(1, 64), "dio_bits": st.integers(1, 512),
                "oc_override": st.integers(1, 100_000),
                "layout": _object(LAYOUT_FIELDS, nulls, wild)}
    spelled = st.sampled_from([("name", "dio_bits", "op", "width_bits"),
                               ("name", "dio_bits", "oc_override")])
    one = _rarely(spelled.flatmap(lambda keys: _object(workload, nulls, wild, keys)),
                  st.sampled_from([5, "add16", [], True]))   # an item that is no object
    workloads = st.sampled_from([1, 1, 1, 0]).flatmap(   # [] a quarter of the time
        lambda n: st.lists(one, min_size=n, max_size=3 * n))
    sections = {"pim": _object(PIM_FIELDS, nulls, wild),
                "cpu": _object(CPU_FIELDS, nulls, wild),
                "power": _object({"tdp_watts": _log_floats(1e-3, 1e3)}, nulls, wild,
                                 ["tdp_watts"]),
                "workloads": _value(workloads, nulls, wild=False)}
    keys = draw(st.lists(st.sampled_from(["pim", "cpu", "power"]), unique=True))
    keys += ["workloads"] * draw(st.sampled_from([1, 1, 1, 0]))   # missing in a quarter
    doc = {key: draw(sections[key]) for key in keys}
    return {**doc, **draw(_rarely(st.just({}), UNKNOWN_KEY))}


@st.composite
def sweep_args(draw):
    """A sweep's options: half the time a sane grid, else any of many bad ones."""
    if draw(st.booleans()):
        params = [*SWEEP_PARAMS, "oc"]
        parts = [["1", "3"], ["10", "1e3"], ["1", "2", "5"], [[], ["lin"], ["log"]]]
    else:
        params = [*SWEEP_PARAMS, "FOO"]
        bound = ["-1", "0", "0.5", "3", "1e308", "1e400", "nan", "x"]
        parts = [bound, bound, ["0", "2", "x"], [[], ["lin"], ["log"], ["ln"]]]
    *grid, scale = (draw(st.sampled_from(part)) for part in parts)
    return ["--format", draw(st.sampled_from(["csv", "json"])),
            "--param", draw(st.sampled_from(params)), "--grid", ":".join(grid + scale)]


def _finite(value):
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _no_constant(name):
    raise AssertionError(f"{name} in a JSON document")


def check_document(text, fmt):
    """CSV rows as long as the header, or JSON; every number finite."""
    if fmt == "json":
        assert _finite(json.loads(text, parse_constant=_no_constant))
        return
    header, *rows = csv.reader(io.StringIO(
        "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))))
    assert all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row[1:]:   # the first column holds the workload's name
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(cell))


def check_error_line(doc, text, exc):
    """A ConfigError with a line points at the line of its key, or at the
    first line of the object that lacks the key; a list item's error points
    at its list's key."""
    rest = str(exc).split(f":{exc.line}: ", 1)[1]
    assert not rest.startswith("invalid JSON")
    *parents, key = re.findall(r"[^.\[\]]+", re.split(r"[:\s]", rest)[0])
    while key.isdigit():
        *parents, key = parents
    node = doc
    for step in parents:
        node = node[int(step)] if step.isdigit() else node[step]
    line = text.splitlines()[exc.line - 1]
    assert json.dumps(key) in line if key in node else "{" in line


# bytes that leave a config file no UTF-8 JSON text: an invalid start byte, a
# truncated sequence, an encoded surrogate, a byte order mark and NUL
DAMAGE = [b"\xff", b"\xe4\xb8", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00"]


class TestCliContract:
    """Every config file, text or not, either gives finite, well-formed
    output or exits 2 or 3 with one ``error:`` line; no exception escapes
    `cli.main`."""

    COMMANDS = [["eval", "--format", "csv"], ["litmus", "--format", "json"],
                ["crossover", "--format", "csv"], ["power", "--format", "csv"],
                ["power", "--format", "json"]]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=configs(), indent=st.sampled_from([None, 1]), sweep=sweep_args(),
           via_env=st.booleans(), damage=st.sampled_from([None] * 15 + DAMAGE),
           at=st.sampled_from([0, -1]) | st.integers(0, 2**16))
    def test_output_or_one_error_line(self, tmp_path, doc, indent, sweep, via_env, damage, at):
        # the config path comes from --config, or from BITLET_CONFIG alone;
        # `damage` is None in 15 of its 20 values, else its bytes go in at `at`
        text = json.dumps(doc, indent=indent, ensure_ascii=False)
        data = text.encode("utf-8")
        path = tmp_path / "config.json"
        if damage is None:
            try:
                parse_config(text, str(path))
            except ConfigError as exc:
                if exc.line:
                    check_error_line(doc, text, exc)
        else:
            at = len(data) if at < 0 else at % (len(data) + 1)
            data = data[:at] + damage + data[at:]
        path.write_bytes(data)
        out = tmp_path / "out"
        for argv in self.COMMANDS + [["sweep", *sweep]]:
            out.unlink(missing_ok=True)
            config = [] if via_env else ["--config", str(path)]
            with (warnings.catch_warnings(record=True) as caught,
                  mock.patch.dict(os.environ, {"BITLET_CONFIG": str(path)} if via_env else {})):
                warnings.simplefilter("always")
                code, stdout, stderr = run_both(
                    argv[:1] + config + ["--out", str(out)] + argv[1:])
            stderr += "".join(f"{w.message}\n" for w in caught)   # on stderr in a real run
            assert code in (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_IO)
            if code != cli.EXIT_OK:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1
                assert stderr.endswith("\n")
            if code == cli.EXIT_BAD_INPUT:
                assert stdout == ""
            elif code == cli.EXIT_OK:
                assert stderr == ""
                fmt = argv[argv.index("--format") + 1]
                check_document(out.read_text(encoding="utf-8"), fmt)
