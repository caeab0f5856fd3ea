"""Command line front end.

Subcommands:
    eval / litmus   affinity verdict for every workload in a config
    crossover       break-even operation complexity per workload
    sweep           one-parameter sweep of all four throughput columns
    power           power-cap analysis (array-count cap, capped throughput)
    reproduce       emit the standard figure datasets as CSV
    validate        run the catalog/move-program validation suite

Configuration comes from --config PATH or the BITLET_CONFIG environment
variable. Data outputs are deterministic: metadata lives on '#'-prefixed
header lines, values are printed with six significant digits, files end
with a newline and use LF endings.

Every command that evaluates the model calls `model.evaluate` once: `eval`,
`crossover` and `power` pick their columns from one table of every
workload (`_table`) and write them with one writer (`_document`), and
`sweep` gets every workload at every grid value from one `analysis.sweep`
call. CSV bodies are formatted as blocks: one printf pattern per row,
repeated, and a single %-format over the block's cells in row-major order.
A column of an array block that is bit-identical down the block is
formatted once, into the pattern, so the %-format runs over the other
columns only.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input,
3 output I/O failure. Every bad input raises `InputError`, which `main`
alone reports, as one ``error:`` line on stderr.

`main` builds, from the `COMMANDS` table, the argparse parser of the
invoked subcommand alone; ``bitlet -h`` and a missing or unknown command
get the parser of every subcommand, so each prints what it always did.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

import numpy as np

from .analysis import SWEEP_PARAMS, sweep
from .catalog import catalog_table
from .config import Config, ConfigError, load_config
from .machine import GBPS, TBPS, CpuMachine, InputError, PimMachine, PowerBudget
from .model import Points, evaluate, mat_power_cap
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

FIG_MATS = (1, 16, 256, 1024, 4096, 16384)
FIG_DIOS = (24, 48)
FIG_BWS_TBPS = (1, 4, 16)
FIG_TDP_WATTS = 20.0
MAX_GRID_STEPS = 100_000   # keeps each workload's column of a sweep under 1 MB
# an eval record: the name, the resolved point and the model's columns; a
# JSON record adds whether the power-limited pair decided
EVAL_COLUMNS = ("name", "oc_cycles", "pac_cycles", "dio_bits", "pim_gops", "cpu_gops",
                "pl_pim_gops", "pl_cpu_gops", "winner", "speedup", "crossover_oc",
                "energy_ratio")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _field(text: str) -> str:
    """A CSV field, quoted per RFC 4180 only when it holds a comma, a quote,
    CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _block(formats: Sequence[str], rows, prefix: str = "") -> str:
    """CSV lines for a 2-D float64 array or a list of tuples: each row is
    `prefix` (a %-pattern) then one cell per column, in its conversion of
    `formats`. An array column that holds one bit pattern down the block is
    formatted once, into the row pattern; float ``==`` would merge -0.0 and
    0.0, which print as ``-0`` and ``0``, and never holds for NaN."""
    if isinstance(rows, np.ndarray) and len(rows):
        bits = rows.view(np.uint64)
        same = (bits == bits[0]).all(axis=0)
        formats = [(f % v).replace("%", "%%") if s else f
                   for f, v, s in zip(formats, rows[0].tolist(), same.tolist())]
        cells = rows[:, ~same].ravel().tolist()
    else:
        cells = [v for row in rows for v in row]
    return ((prefix + ",".join(formats) + "\n") * len(rows)) % tuple(cells)


def _csv(meta: list[str], columns: Sequence[str], body: str) -> str:
    return "".join(f"# {m}\n" for m in meta) + ",".join(columns) + "\n" + body


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _load(args) -> Config:
    path = args.config or os.environ.get("BITLET_CONFIG")
    if not path:
        raise ConfigError("<none>", "no config given; use --config or BITLET_CONFIG")
    return load_config(path)


def _grid_part(text: str, convert, rule: str):
    try:
        return convert(text)
    except ValueError:
        raise InputError(f"{rule}, got {text!r}") from None


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise InputError(f"grid must be lo:hi:steps[:log], got {spec!r}")
    lo = _grid_part(parts[0], float, "grid lower bound must be a number")
    hi = _grid_part(parts[1], float, "grid upper bound must be a number")
    steps = _grid_part(parts[2], int, "grid steps must be an integer in digits")
    scale = parts[3] if len(parts) == 4 else "lin"
    if scale not in ("log", "lin"):
        raise InputError(f"grid scale must be 'log' or 'lin', got {scale!r}")
    log = scale == "log"
    if steps < 1:
        raise InputError("grid needs at least one step")
    if steps > MAX_GRID_STEPS:
        raise InputError(f"grid allows at most {MAX_GRID_STEPS} steps")
    if hi < lo:
        raise InputError("grid upper bound below lower bound")
    if log and not lo > 0:                # NaN included
        raise InputError("log grids need a positive lower bound")
    if steps == 1:
        return np.array([lo])
    with np.errstate(all="ignore"):   # sweep refuses a grid that overflows
        return np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)


def _table(cfg: Config, power: PowerBudget | None) -> dict[str, list]:
    """Every workload of the config resolved, and the model at each: its
    name, its point's coordinates and every `Evaluation` column, by name,
    as one Python value per workload."""
    points = [w.resolve(cfg.pim) for w in cfg.workloads]
    ev = evaluate(cfg.pim, cfg.cpu, Points.of(points), power)
    return {"name": [w.name for w in cfg.workloads],
            **{key: [getattr(p, key) for p in points]
               for key in ("oc_cycles", "pac_cycles", "dio_bits")},
            **{key: column.tolist() for key, column in ev._asdict().items()}}


_CELL = {str: "%s", int: "%d", float: "%.6g"}   # CSV format of a value, by type


def _document(fmt: str, meta: list[str], cols: Sequence[str], rows: list[tuple],
              wrap=None) -> str:
    """`rows`, tuples in the order of `cols`, as a CSV document under the
    `meta` lines or as a JSON list of records, which `wrap` may rebuild."""
    if fmt == "json":
        records = [dict(zip(cols, row)) for row in rows]
        return json.dumps(records if wrap is None else wrap(records), indent=2) + "\n"
    formats = [_CELL[type(v)] for v in rows[0]] if rows else []
    return _csv(meta, cols, _block(formats, [
        [_field(v) if isinstance(v, str) else v for v in row] for row in rows]))


def _rows(table: dict[str, list], cols: Sequence[str]) -> list[tuple]:
    return list(zip(*(table[c] for c in cols)))


def cmd_eval(args) -> int:
    cfg = _load(args)
    limited = cfg.power is not None
    rows = _rows(_table(cfg, cfg.power), EVAL_COLUMNS)
    basis = "power-limited" if limited else "raw"
    human = []
    for v in (dict(zip(EVAL_COLUMNS, row)) for row in rows):
        pim, cpu = ((v["pl_pim_gops"], v["pl_cpu_gops"]) if limited
                    else (v["pim_gops"], v["cpu_gops"]))
        human.append(f"{v['name']}: winner {v['winner']} ({basis})  "
                     f"pim {_fmt(pim)} GOPS vs cpu {_fmt(cpu)} GOPS  "
                     f"speedup {_fmt(v['speedup'])}")
        human.append(f"    oc={v['oc_cycles']} pac={v['pac_cycles']} dio={v['dio_bits']}  "
                     f"crossover_oc={_fmt(v['crossover_oc'])}  "
                     f"energy_ratio={_fmt(v['energy_ratio'])}x")
    if not rows:
        human.append("no workloads in config")

    doc = _document(args.format, ["bitlet eval"], EVAL_COLUMNS, rows,
                    lambda records: [{**r, "power_limited": limited} for r in records])
    if args.out:
        print("\n".join(human))
        return _emit(doc, args.out)
    if args.format == "json":
        return _emit(doc, None)   # clean document for piping
    print("\n".join(human))
    return EXIT_OK


def cmd_crossover(args) -> int:
    cfg = _load(args)
    # no budget: a TDP column can overflow where these columns do not
    table = _table(cfg, None)
    table["cpu_wins_at_oc"] = [math.ceil(oc) for oc in table["crossover_oc"]]
    cols = ["name", "dio_bits", "pac_cycles", "crossover_oc",
            "cpu_wins_at_oc", "energy_breakeven_oc"]
    return _emit(_document(args.format, ["bitlet crossover"], cols, _rows(table, cols)),
                 args.out)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if not cfg.workloads:
        raise InputError("sweep needs at least one workload in the config")
    param = args.param.upper()
    grid, scale = _parse_grid(args.grid), 1.0
    if param == "BW":   # the grid is written in Gbps, sweep takes bits/s
        scale, limit = GBPS, sys.float_info.max / GBPS
        if (np.isfinite(grid) & (grid > limit)).any():
            raise InputError(f"BW grid values must be at most {_fmt(limit)} Gbps")
        grid = np.maximum(grid, -limit)   # a lower one is refused as not > 0
    table = sweep(param, grid * scale, cfg.pim, cfg.cpu,
                  [w.resolve(cfg.pim) for w in cfg.workloads], cfg.power)
    table[:, 0] /= scale                    # x back in the grid's unit
    blocks = zip((w.name for w in cfg.workloads), np.split(table, len(cfg.workloads)))
    x_col = "bw_gbps" if param == "BW" else param.lower()
    cols = ["workload", x_col, "pim_gops", "cpu_gops",
            "pl_pim_gops", "pl_cpu_gops"]
    if args.format == "json":
        doc = json.dumps([dict(zip(cols, (name, *r))) for name, block in blocks
                          for r in block.tolist()], indent=2) + "\n"
    else:
        body = "".join(_block(("%.6g",) * 5, block, _field(name).replace("%", "%%") + ",")
                       for name, block in blocks)
        doc = _csv([f"bitlet sweep param={param} grid={args.grid}"], cols, body)
    return _emit(doc, args.out)


def cmd_power(args) -> int:
    cfg = _load(args)
    if cfg.power is None:
        raise InputError("power analysis needs a power section in the config")
    tdp = cfg.power.tdp_watts
    cap = mat_power_cap(cfg.pim, cfg.power)
    cols = ["name", "oc_cycles", "pac_cycles", "dio_bits", "pim_gops",
            "pl_pim_gops", "cpu_gops", "pl_cpu_gops", "pim_pj_per_op",
            "cpu_pj_per_op"]
    return _emit(_document(
        args.format, [f"bitlet power tdp_watts={_fmt(tdp)}", f"mat_power_cap={cap}"],
        cols, _rows(_table(cfg, cfg.power), cols),
        lambda records: {"tdp_watts": tdp, "mat_power_cap": cap, "workloads": records}),
        args.out)


def _fig_oc_grid() -> list[int]:
    # quarter-octave log spacing over 1..32768, deduplicated after rounding
    raw = (2 ** (k / 4) for k in range(0, 15 * 4 + 1))
    return sorted(dict.fromkeys(int(round(v)) for v in raw))


def _reproduce_fig1() -> str:
    rows = [(r["n"], r["kind"], r["oc"]) for r in catalog_table()]
    rows.sort(key=lambda r: (r[1], r[0]))
    return _csv(["bitlet reproduce fig1: operation complexity in cycles"],
                ["n", "op", "oc"],
                _block(("%d", "%s", "%d"), rows))


def _reproduce_fig2(power: PowerBudget | None = None) -> str:
    """Default machines, one column per MAT and per (DIO, BW) pair; OC at DIO 24."""
    oc = np.array(_fig_oc_grid(), dtype=np.float64)[:, None]
    pim_side = evaluate(PimMachine(), CpuMachine(),
                        Points(oc, 0, FIG_DIOS[0], mats=np.array(FIG_MATS)), power)
    dios, bws = zip(*((d, bw * TBPS) for d in FIG_DIOS for bw in FIG_BWS_TBPS))
    cpu_side = evaluate(PimMachine(), CpuMachine(),
                        Points(oc, 0, np.array(dios), bandwidth_bps=np.array(bws)), power)
    table = [oc, pim_side.pim_gops, cpu_side.cpu_gops]
    cols = ["oc"]
    cols += [f"pim_gops_mat{m}" for m in FIG_MATS]
    cols += [f"cpu_gops_dio{d}_bw{bw}tbps" for d in FIG_DIOS for bw in FIG_BWS_TBPS]
    if power is not None:
        cols += [f"pl_pim_gops_mat{m}" for m in FIG_MATS]
        cols += [f"pl_cpu_gops_dio{d}_bw{bw}tbps"
                 for d in FIG_DIOS for bw in FIG_BWS_TBPS]
        table += [pim_side.pl_pim_gops, cpu_side.pl_cpu_gops]
    table = np.hstack(table)
    which = "fig3" if power is not None else "fig2"
    meta = [f"bitlet reproduce {which}: throughput vs operation complexity",
            f"mats={','.join(map(str, FIG_MATS))} "
            f"dio={','.join(map(str, FIG_DIOS))} "
            f"bw_tbps={','.join(map(str, FIG_BWS_TBPS))}"]
    if power is not None:
        meta.append(f"tdp_watts={_fmt(power.tdp_watts)}")
    return _csv(meta, cols, _block(("%d",) + ("%.6g",) * (len(cols) - 1), table))


def cmd_reproduce(args) -> int:
    out = args.out or f"{args.figure}.csv"
    if args.figure == "fig1":
        doc = _reproduce_fig1()
    elif args.figure == "fig2":
        doc = _reproduce_fig2()
    else:
        doc = _reproduce_fig2(PowerBudget(FIG_TDP_WATTS))
    return _emit(doc, out)


def cmd_validate(args) -> int:
    checks = run_validation(args.scope)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


_CONFIG = (("--config",), {"help": "config JSON path (default: $BITLET_CONFIG)"})
_OUT = (("--out",), {"help": "write output to this file"})
_FORMAT = (("--format",), {"choices": ("csv", "json"), "default": "csv",
                           "help": "output document format (default csv)"})
_MODEL = (_CONFIG, _OUT, _FORMAT)

# name -> (handler, help text, arguments as (flags, keywords) pairs)
COMMANDS = {
    "eval": (cmd_eval, "workload affinity verdicts", _MODEL),
    "litmus": (cmd_eval, "alias of eval", _MODEL),
    "crossover": (cmd_crossover, "break-even operation complexity per workload", _MODEL),
    "sweep": (cmd_sweep, "sweep one parameter over a grid", (
        *_MODEL,
        (("--param",), {"required": True, "help": f"one of {', '.join(SWEEP_PARAMS)} "
                                                  f"(BW grid values are Gbps)"}),
        (("--grid",), {"required": True, "help": "lo:hi:steps[:log] value grid"}))),
    "power": (cmd_power, "power-cap analysis", _MODEL),
    "reproduce": (cmd_reproduce, "emit standard figure datasets", (
        (("figure",), {"choices": ("fig1", "fig2", "fig3")}),
        (("--out",), {"help": "output CSV path (default <figure>.csv)"}))),
    "validate": (cmd_validate, "run the validation suite", (
        (("--scope",), {"choices": ("catalog", "pac", "all"), "default": "all"}),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one.

    A one-command parser parses, prints and fails exactly as the full one
    does on a command line that starts with that command: its usage line
    still lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="bitlet",
        description="Throughput/energy model for bit-serial in-memory compute")
    names = [command] if command in COMMANDS else list(COMMANDS)
    # the usage line lists the commands a parser was given; a one-command
    # parser names them all itself
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def _attach_grids(argv: list[str]) -> list[str]:
    """Join ``--grid VALUE`` into ``--grid=VALUE`` when VALUE is a grid that
    starts with '-', which argparse would otherwise take for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and arg.startswith("-") and ":" in arg:
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_grids(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
