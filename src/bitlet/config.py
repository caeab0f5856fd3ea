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
section means no power cap); an explicit `null` reads as an absent key,
a whole section included. Unknown keys are rejected, with the error
message pointing at the offending line where possible.

This module checks only the JSON typing (number, finite, integer, bool,
required, unknown key). The ranges belong to the types the values build,
and `_Section.place` places the `FieldError` a type raises at its key.
"""

from __future__ import annotations

import json
import json.scanner
import re
import sys
from dataclasses import dataclass, replace

from .analysis import Workload
from .catalog import OpKind, OpSpec
from .layout import LayoutSpec
from .machine import CpuMachine, FieldError, InputError, PimMachine, PowerBudget, _shown

# the keys of each machine section, True for those that take an integer;
# an absent or null key takes the machine type's own default
PIM_KEYS = {"rows": True, "cols": True, "mats": True,
            "cycle_time_ns": False, "energy_per_cycle_pj": False}
CPU_KEYS = {"bandwidth_gbps": True, "energy_per_bit_pj": False}


class ConfigError(InputError):
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
        if not isinstance(data, dict):      # placed at its key; a list item at its list's
            keys = at[:-1] if at and isinstance(at[-1], int) else at
            raise ConfigError(path, f"{json_path or 'config'} must be an object",
                              _line_of(source, keys[:-1], keys[-1]) if keys else None)
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
        """The key's value, removed; `default` if it is absent or null."""
        value = self.data.pop(key, None)
        return default if value is None else value

    def take_number(self, key: str, default, integer=False):
        """The key's number, converted to int or float."""
        value = self.take(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(key, f"expected a number, got {_shown(value)}")
        if not abs(value) <= sys.float_info.max:   # NaN, Infinity, 1e400 or 10**400
            self.fail(key, f"expected a finite number, got {_shown(value)}")
        if integer and int(value) != value:
            self.fail(key, f"expected an integer, got {_shown(value)}")
        return int(value) if integer else float(value)

    def take_numbers(self, keys: dict[str, bool]) -> dict:
        """The numbers of `keys` (key -> integer?) that are present and not
        null, by key."""
        taken = {key: self.take_number(key, None, integer) for key, integer in keys.items()}
        return {key: value for key, value in taken.items() if value is not None}

    def place(self, make, *args, **kwargs):
        """`make(*args, **kwargs)`; a rule it breaks fails at the key it names."""
        try:
            return make(*args, **kwargs)
        except FieldError as exc:
            self.fail(exc.field, exc.rule)

    def build(self, make, *args, **kwargs):
        """`place(make, ...)`, the value this section describes, then a key
        left over fails."""
        value = self.place(make, *args, **kwargs)
        self.finish()
        return value

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            self.fail(key, "unknown key")

    def sub(self, key: str, default=None) -> "_Section | None":
        raw = self.take(key, default)
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
    return sec.build(LayoutSpec, element_width_bits=width, misaligned_subsets=k,
                     needs_vertical_relocation=vertical,
                     hmove_override=hmove, vmove_override=vmove)


def _parse_workload(sec: _Section) -> Workload:
    name = sec.take("name")
    op_name = sec.take("op")
    width = sec.take_number("width_bits", None, integer=True)
    dio = sec.take_number("dio_bits", None, integer=True)
    if dio is None:
        sec.fail("dio_bits", "required")
    oc_override = sec.take_number("oc_override", None, integer=True)

    op = None
    if op_name is not None:
        if not isinstance(op_name, str):
            sec.fail("op", f"expected an operation name, got {_shown(op_name)}")
        try:
            kind = OpKind[op_name.upper()]
        except KeyError:
            sec.fail("op", f"unknown operation {_shown(op_name)}; known: "
                           f"{', '.join(k.name for k in OpKind)}")
        if width is None:
            sec.fail("width_bits", f"required for op {kind.name}")
        op = sec.place(OpSpec, kind, width)

    layout_sec = sec.sub("layout")
    # the workload's own rules and keys are checked before its layout's
    workload = sec.build(Workload, name=name, dio_bits=dio, op=op, oc_override=oc_override)
    if layout_sec is None:
        return workload
    return replace(workload, layout=_parse_layout(layout_sec, width))


# a JSON string, or a number: an integer part and the fraction and exponent
# that would make it a float
_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?')


def _long_integer_error(text: str, path: str) -> ConfigError | None:
    """A ConfigError at the first integer literal with more digits than the
    interpreter converts (``sys.get_int_max_str_digits``), or None."""
    limit = sys.get_int_max_str_digits()
    for match in _LITERAL.finditer(text):
        digits, fraction, exponent = match.groups()
        if digits and not (fraction or exponent) and len(digits) > limit > 0:
            return ConfigError(path, f"invalid JSON: an integer of {len(digits)} digits, "
                                     f"past the limit of {limit}",
                               text.count("\n", 0, match.start()) + 1)
    return None


def parse_config(text: str, path: str = "<config>") -> Config:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc.msg}", exc.lineno) from None
    except ValueError as exc:                   # an integer past the digit limit
        raise _long_integer_error(text, path) or ConfigError(
            path, f"invalid JSON: {exc}") from None
    except RecursionError as exc:               # nesting too deep for the decoder
        raise ConfigError(path, f"invalid JSON: {exc}") from None
    root = _Section(raw, path, text, "")

    pim_sec = root.sub("pim", {})
    pim = pim_sec.build(PimMachine, **pim_sec.take_numbers(PIM_KEYS))

    cpu_sec = root.sub("cpu", {})
    cpu_args = cpu_sec.take_numbers(CPU_KEYS)
    cpu = cpu_sec.build(CpuMachine.from_gbps, cpu_args.pop("bandwidth_gbps", None), **cpu_args)

    power_sec = root.sub("power")
    power = None
    if power_sec is not None:
        tdp = power_sec.take_number("tdp_watts", None)
        if tdp is None:
            power_sec.fail("tdp_watts", "required inside a power section")
        power = power_sec.build(PowerBudget, tdp_watts=tdp)

    workloads_raw = root.take("workloads", [])
    root.finish()
    if not isinstance(workloads_raw, list):
        raise ConfigError(path, "workloads must be a list",
                          _line_of(text, (), "workloads"))
    workloads = []
    for i, item in enumerate(workloads_raw):
        workloads.append(_parse_workload(
            _Section(item, path, text, f"workloads[{i}]", ("workloads", i))))

    return Config(pim=pim, cpu=cpu, power=power, workloads=tuple(workloads))


def load_config(path: str) -> Config:
    """The config in the file at `path`, which must be UTF-8 (a byte order
    mark is refused as invalid JSON)."""
    try:
        with open(path, "rb") as fh:
            # line ends as text mode reads them: "\r\n" and "\r" become "\n"
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"invalid UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                          data.count(b"\n", 0, exc.start) + 1) from None
    return parse_config(text, path)
