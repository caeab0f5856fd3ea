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
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from bitlet import WorkloadPoint, cli, litmus
from bitlet.config import load_config
from bitlet.model import perf_cpu, perf_pim, pl_perf_cpu, pl_perf_pim

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


OVERFLOWING = {
    "tiny_cycle": {"pim": {"mats": 1e15, "cycle_time_ns": 1e-300},
                   "power": {"tdp_watts": 20},
                   "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1}]},
    "huge_budget": {"pim": {"cycle_time_ns": 1e10}, "power": {"tdp_watts": 1e300},
                    "workloads": [{"name": "a", "oc_override": 1, "dio_bits": 1}]},
}


class TestNonFiniteResults:
    @pytest.mark.parametrize("config,argv", [
        ("tiny_cycle", ["eval"]), ("tiny_cycle", ["power"]),
        ("tiny_cycle", ["crossover"]),
        ("tiny_cycle", ["sweep", "--param", "OC", "--grid", "1:10:3"]),
        ("huge_budget", ["power"])])
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
    def test_records_are_the_litmus_verdicts(self, tmp_path, power):
        doc = json.loads((BENCH / "config.json").read_text())
        if not power:
            del doc["power"]
        path = write_config(tmp_path, doc)
        code, stdout = run(["eval", "--config", path, "--format", "json"])
        assert code == cli.EXIT_OK
        cfg = load_config(path)
        verdicts = [litmus(cfg.pim, cfg.cpu, w, cfg.power) for w in cfg.workloads]
        want = [{**asdict(v), "winner": v.winner.value} for v in verdicts]
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
