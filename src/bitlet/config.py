"""JSON configuration for the command line front end.

A config file describes one machine pair, an optional power budget, and a
list of workloads:

    {
      "pim":   {"rows": 1024, "cols": 1024, "mats": 1024,
                "cycle_time_ns": 10, "energy_per_cycle_pj": 0.1},
      "cpu":   {"bandwidth_gbps": 4096, "energy_per_bit_pj": 15},
      "power": {"tdp_watts": 20},
      "workloads": [
        {"name": "add16", "op": "ADD", "width_bits": 16, "dio_bits": 48,
         "layout": {"element_width_bits": 16, "misaligned_subsets": 1,
                    "needs_vertical_relocation": true}}
      ]
    }

Bandwidth is integer gigabits per second on purpose: one terabit here is
1024 Gbps, so spelling the number out in Gbps leaves no room for unit
drift. Omitted fields fall back to the defaults shown above (no power
section means no power cap). Unknown keys are rejected, with the error
message pointing at the offending line where possible.
"""

from __future__ import annotations

import json
import json.scanner
import re
from dataclasses import dataclass

from .analysis import Workload
from .catalog import OpKind, OpSpec
from .layout import LayoutSpec
from .machine import CpuMachine, PimMachine, PowerBudget

DEFAULT_PIM = {"rows": 1024, "cols": 1024, "mats": 1024,
               "cycle_time_ns": 10.0, "energy_per_cycle_pj": 0.1}
DEFAULT_CPU = {"bandwidth_gbps": 4096, "energy_per_bit_pj": 15.0}


class ConfigError(ValueError):
    """Config file failed to parse or validate."""

    def __init__(self, path: str, message: str, line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line else path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class Config:
    pim: PimMachine
    cpu: CpuMachine
    power: PowerBudget | None
    workloads: tuple[Workload, ...]


class _Spanned(dict):
    """A parsed JSON object with the offsets of its braces in the text."""

    start = end = 0


class _SpanDecoder(json.JSONDecoder):
    """Decodes like ``json.loads`` but returns every object as a ``_Spanned``.

    It runs the pure-Python scanner, which is slower than the default one,
    so it is used only to place an error.
    """

    def __init__(self):
        super().__init__()
        parse_object = self.parse_object

        def spanned(s_and_end, *args):
            obj, end = parse_object(s_and_end, *args)
            obj = _Spanned(obj)
            obj.start, obj.end = s_and_end[1] - 1, end
            return obj, end

        self.parse_object = spanned
        self.scan_once = json.scanner.py_make_scanner(self)


def _objects(value) -> list:
    """The outermost objects inside a parsed JSON value."""
    if isinstance(value, _Spanned):
        return [value]
    if isinstance(value, list):
        return [obj for item in value for obj in _objects(item)]
    return []


def _line_of(text: str, at: tuple, key: str) -> int | None:
    """Line of `key` in the object reached from the root by the keys and
    list indices `at`; the object's first line if it has no such key, and
    None if there is no such object."""
    try:
        node = _SpanDecoder().decode(text)
    except RecursionError:                 # nesting the C scanner took but this one cannot
        return None
    for step in at:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return None
    if not isinstance(node, _Spanned):
        return None
    inner = [(obj.start, obj.end) for obj in _objects(list(node.values()))]
    pattern = re.compile(re.escape(json.dumps(key)) + r"\s*:")
    for match in pattern.finditer(text, node.start, node.end):
        if not any(a <= match.start() < b for a, b in inner):
            return text.count("\n", 0, match.start()) + 1
    return text.count("\n", 0, node.start) + 1


class _Section:
    """One mapping level of the config, with path-anchored errors."""

    def __init__(self, data: dict, path: str, source: str, json_path: str,
                 at: tuple = ()):
        if not isinstance(data, dict):
            raise ConfigError(path, f"{json_path or 'config'} must be an object")
        self.data = dict(data)
        self.path = path
        self.source = source
        self.json_path = json_path
        self.at = at                       # keys and indices from the root

    def _name(self, key: str) -> str:
        return f"{self.json_path}.{key}" if self.json_path else key

    def fail(self, key: str, message: str):
        raise ConfigError(self.path, f"{self._name(key)}: {message}",
                          _line_of(self.source, self.at, key))

    def take(self, key: str, default=None):
        return self.data.pop(key, default)

    def take_number(self, key: str, default, integer=False):
        value = self.data.pop(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(key, f"expected a number, got {value!r}")
        if integer and int(value) != value:
            self.fail(key, f"expected an integer, got {value!r}")
        return int(value) if integer else float(value)

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            self.fail(key, "unknown key")

    def sub(self, key: str, default=None) -> "_Section | None":
        raw = self.data.pop(key, default)
        if raw is None:
            return None
        return _Section(raw, self.path, self.source, self._name(key), (*self.at, key))


def _parse_layout(sec: _Section, fallback_width: int | None) -> LayoutSpec:
    width = sec.take_number("element_width_bits", fallback_width, integer=True)
    if width is None:
        sec.fail("element_width_bits", "required when the workload has no op width")
    k = sec.take_number("misaligned_subsets", 0, integer=True)
    vertical = sec.take("needs_vertical_relocation", False)
    if not isinstance(vertical, bool):
        sec.fail("needs_vertical_relocation", "expected true or false")
    hmove = sec.take_number("hmove_override", None, integer=True)
    vmove = sec.take_number("vmove_override", None, integer=True)
    sec.finish()
    try:
        return LayoutSpec(element_width_bits=width, misaligned_subsets=k,
                          needs_vertical_relocation=vertical,
                          hmove_override=hmove, vmove_override=vmove)
    except ValueError as exc:
        raise ConfigError(sec.path, f"{sec.json_path}: {exc}") from None


def _parse_workload(sec: _Section) -> Workload:
    name = sec.take("name")
    if not isinstance(name, str) or not name:
        sec.fail("name", "every workload needs a non-empty name")
    op_name = sec.take("op")
    width = sec.take_number("width_bits", None, integer=True)
    dio = sec.take_number("dio_bits", None, integer=True)
    if dio is None:
        sec.fail("dio_bits", "required")
    oc_override = sec.take_number("oc_override", None, integer=True)

    op = None
    if op_name is not None:
        if not isinstance(op_name, str):
            sec.fail("op", f"expected an operation name, got {op_name!r}")
        try:
            kind = OpKind[op_name.upper()]
        except KeyError:
            sec.fail("op", f"unknown operation {op_name!r}; known: "
                           f"{', '.join(k.name for k in OpKind)}")
        if kind is OpKind.CUSTOM:
            sec.fail("op", "express custom operations with oc_override instead")
        if width is None:
            sec.fail("width_bits", f"required for op {kind.name}")
        try:
            op = OpSpec(kind, width)
        except ValueError as exc:
            sec.fail("op", str(exc))

    layout_sec = sec.sub("layout")
    layout = _parse_layout(layout_sec, width) if layout_sec is not None else None
    sec.finish()
    try:
        return Workload(name=name, dio_bits=dio, op=op, layout=layout,
                        oc_override=oc_override)
    except ValueError as exc:
        raise ConfigError(sec.path, str(exc)) from None


def parse_config(text: str, path: str = "<config>") -> Config:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc.msg}", exc.lineno) from None
    root = _Section(raw, path, text, "")

    pim_sec = root.sub("pim", {})
    pim_kwargs = {key: pim_sec.take_number(key, default,
                                           integer=key in ("rows", "cols", "mats"))
                  for key, default in DEFAULT_PIM.items()}
    pim_sec.finish()

    cpu_sec = root.sub("cpu", {})
    gbps = cpu_sec.take_number("bandwidth_gbps", DEFAULT_CPU["bandwidth_gbps"],
                               integer=True)
    e_bit = cpu_sec.take_number("energy_per_bit_pj", DEFAULT_CPU["energy_per_bit_pj"])
    cpu_sec.finish()

    power_sec = root.sub("power")
    power = None
    if power_sec is not None:
        tdp = power_sec.take_number("tdp_watts", None)
        if tdp is None:
            power_sec.fail("tdp_watts", "required inside a power section")
        power_sec.finish()

    workloads_raw = root.take("workloads", [])
    root.finish()
    if not isinstance(workloads_raw, list):
        raise ConfigError(path, "workloads must be a list",
                          _line_of(text, (), "workloads"))
    workloads = []
    for i, item in enumerate(workloads_raw):
        workloads.append(_parse_workload(
            _Section(item, path, text, f"workloads[{i}]", ("workloads", i))))

    try:
        pim = PimMachine(**pim_kwargs)
        cpu = CpuMachine.from_gbps(gbps, energy_per_bit_pj=e_bit)
        if power_sec is not None:
            power = PowerBudget(tdp_watts=tdp)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return Config(pim=pim, cpu=cpu, power=power, workloads=tuple(workloads))


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc.strerror}") from None
    return parse_config(text, path)
