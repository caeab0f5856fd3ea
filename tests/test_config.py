import copy
import json
import sys

import pytest

from bitlet import (CpuMachine, FieldError, LayoutSpec, OpKind, OpSpec, PimMachine,
                    PowerBudget, Workload)
from bitlet.config import CPU_KEYS, PIM_KEYS, ConfigError, parse_config

FULL = """
{
  "pim": {"rows": 512, "cols": 1024, "mats": 2048,
          "cycle_time_ns": 5, "energy_per_cycle_pj": 0.2},
  "cpu": {"bandwidth_gbps": 1024, "energy_per_bit_pj": 12},
  "power": {"tdp_watts": 40},
  "workloads": [
    {"name": "add16", "op": "ADD", "width_bits": 16, "dio_bits": 48},
    {"name": "weird", "oc_override": 612, "dio_bits": 24,
     "layout": {"element_width_bits": 8, "misaligned_subsets": 2,
                "needs_vertical_relocation": true}}
  ]
}
"""


# (config, its error after "cfg.json:3: ", the type's constructor call that
# breaks the same rule, or None for a rule of the JSON typing)
PLACED_ERRORS = [
    ('{\n "pim": {\n  "rows": Infinity}}', "pim.rows: expected a finite number, got inf",
     None),
    ('{\n "pim": {\n  "rows": 1e400}}', "pim.rows: expected a finite number, got inf", None),
    ('{\n "cpu": {\n  "energy_per_bit_pj": NaN}}',
     "cpu.energy_per_bit_pj: expected a finite number, got nan", None),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 1, "dio_bits": 0}]}',
     "workloads[0].dio_bits: must be >= 1, got 0",
     lambda: Workload(name="w", dio_bits=0, oc_override=1)),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 0, "dio_bits": 8}]}',
     "workloads[0].oc_override: must be >= 1, got 0",
     lambda: Workload(name="w", dio_bits=8, oc_override=0)),
    ('{\n "pim": {\n  "mats": 0}}', "pim.mats: must be >= 1, got 0", lambda: PimMachine(mats=0)),
    ('{\n "pim": {\n  "cycle_time_ns": -2}}', "pim.cycle_time_ns: must be > 0, got -2.0",
     lambda: PimMachine(cycle_time_ns=-2.0)),
    ('{\n "pim": {\n  "energy_per_cycle_pj": 0}}',
     "pim.energy_per_cycle_pj: must be > 0, got 0.0",
     lambda: PimMachine(energy_per_cycle_pj=0.0)),
    ('{\n "cpu": {\n  "bandwidth_gbps": 0}}', "cpu.bandwidth_gbps: must be > 0, got 0",
     lambda: CpuMachine.from_gbps(0)),
    ('{\n "cpu": {\n  "energy_per_bit_pj": -1}}', "cpu.energy_per_bit_pj: must be > 0, got -1.0",
     lambda: CpuMachine(energy_per_bit_pj=-1.0)),
    ('{\n "power": {\n  "tdp_watts": 0}}', "power.tdp_watts: must be > 0, got 0.0",
     lambda: PowerBudget(tdp_watts=0.0)),
    ('{\n "workloads": [\n  {"name": "w", "dio_bits": 8, "layout": '
     '{"element_width_bits": 4, "vmove_override": 2}}]}',
     "workloads[0].op: required when the workload has no oc_override",
     lambda: Workload(name="w", dio_bits=8)),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 1, "dio_bits": 8, "layout": '
     '{"element_width_bits": 4, "vmove_override": 2}}]}',
     "workloads[0].layout.vmove_override: hmove_override and vmove_override come as a pair",
     lambda: LayoutSpec(element_width_bits=4, vmove_override=2)),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 1, "dio_bits": 8, "layout": '
     '{"element_width_bits": 4, "misaligned_subsets": -1}}]}',
     "workloads[0].layout.misaligned_subsets: must be >= 0, got -1",
     lambda: LayoutSpec(element_width_bits=4, misaligned_subsets=-1)),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 1, "dio_bits": 8, "layout": '
     '{"element_width_bits": 4, "hmove_override": -1, "vmove_override": 2}}]}',
     "workloads[0].layout.hmove_override: must be >= 0, got -1",
     lambda: LayoutSpec(element_width_bits=4, hmove_override=-1, vmove_override=2)),
    ('{\n "workloads": [\n  {"name": "", "oc_override": 1, "dio_bits": 8}]}',
     "workloads[0].name: every workload needs a non-empty name",
     lambda: Workload(name="", dio_bits=8, oc_override=1)),
    ('{\n "workloads": [{"name": "w", "op": "ADD", "dio_bits": 8,\n  "width_bits": 0}]}',
     "workloads[0].width_bits: must be in 1..1024, got 0", lambda: OpSpec(OpKind.ADD, 0)),
    ('{\n "workloads": [{"name": "w", "op": "MPY_LOWPREC", "dio_bits": 8,\n'
     '  "width_bits": 8}]}',
     "workloads[0].width_bits: MPY_LOWPREC has a known cycle count only for n=16, got n=8",
     lambda: OpSpec(OpKind.MPY_LOWPREC, 8)),
    ('{\n "workloads": [{"name": "w", "op": "MPY", "dio_bits": 8,\n  "width_bits": 1}]}',
     "workloads[0].width_bits: MPY cycle formula is positive only for n >= 2",
     lambda: OpSpec(OpKind.MPY, 1)),
    # a section that is no object fails at the key holding it, a list item
    # at its list's key
    ('{\n "cpu": {},\n "pim": 5}', "pim must be an object", None),
    ('{\n "pim": {},\n "cpu": [1]}', "cpu must be an object", None),
    ('{\n "pim": {},\n "power": "x"}', "power must be an object", None),
    ('{\n "workloads": [\n  {"name": "w", "oc_override": 1, "dio_bits": 8, "layout": 5}]}',
     "workloads[0].layout must be an object", None),
    ('{\n "pim": {},\n "workloads": [5]}', "workloads[0] must be an object", None),
    ('{\n "pim": {},\n "workloads": [{"name": "w", "oc_override": 1, "dio_bits": 8}, []]}',
     "workloads[1] must be an object", None),
]


class TestParsing:
    def test_full_config(self):
        cfg = parse_config(FULL)
        assert (cfg.pim.rows, cfg.pim.mats) == (512, 2048)
        assert cfg.pim.cycle_time_ns == 5
        assert cfg.cpu.bandwidth_bps == 1024e9
        assert cfg.cpu.energy_per_bit_pj == 12
        assert cfg.power.tdp_watts == 40
        add16, weird = cfg.workloads
        assert add16.op.kind.name == "ADD" and add16.dio_bits == 48
        assert weird.op is None and weird.oc_override == 612
        assert weird.layout.misaligned_subsets == 2
        point = weird.resolve(cfg.pim)
        assert point.oc_cycles == 612 and point.pac_cycles == 2 * 8 + 512

    def test_all_defaults_from_empty_object(self):
        cfg = parse_config("{}")
        assert (cfg.pim.rows, cfg.pim.cols, cfg.pim.mats) == (1024, 1024, 1024)
        assert cfg.pim.cycle_time_ns == 10.0
        assert cfg.pim.energy_per_cycle_pj == 0.1
        assert cfg.cpu.bandwidth_bps == 4096e9  # four binary terabits
        assert cfg.cpu.energy_per_bit_pj == 15.0
        assert cfg.power is None
        assert cfg.workloads == ()
        assert (cfg.pim, cfg.cpu) == (PimMachine(), CpuMachine())  # the types' own defaults

    def test_partial_sections_keep_other_defaults(self):
        cfg = parse_config('{"pim": {"mats": 16384}}')
        assert cfg.pim.mats == 16384 and cfg.pim.rows == 1024

    def test_layout_width_defaults_to_op_width(self):
        cfg = parse_config("""
        {"workloads": [{"name": "w", "op": "ADD", "width_bits": 16,
                        "dio_bits": 48, "layout": {"misaligned_subsets": 1}}]}
        """)
        assert cfg.workloads[0].layout.element_width_bits == 16

    def test_layout_overrides(self):
        cfg = parse_config("""
        {"workloads": [{"name": "w", "oc_override": 9, "dio_bits": 8,
                        "layout": {"element_width_bits": 4,
                                   "hmove_override": 3, "vmove_override": 4}}]}
        """)
        point = cfg.workloads[0].resolve(cfg.pim)
        assert point.pac_cycles == 7


# a config that sets every key a null may stand for, each to a value other
# than its default
EVERY_KEY = {
    "pim": {"rows": 512, "cols": 2048, "mats": 64, "cycle_time_ns": 5.0,
            "energy_per_cycle_pj": 0.2},
    "cpu": {"bandwidth_gbps": 1024, "energy_per_bit_pj": 12.0},
    "power": {"tdp_watts": 40},
    "workloads": [{"name": "w", "op": "ADD", "width_bits": 16, "dio_bits": 48,
                   "oc_override": 100,
                   "layout": {"element_width_bits": 8, "misaligned_subsets": 2,
                              "needs_vertical_relocation": True}}],
}
LAYOUT = ("workloads", 0, "layout")
NULLABLE = ([("pim", key) for key in PIM_KEYS] + [("cpu", key) for key in CPU_KEYS]
            + [("pim",), ("cpu",), ("power",), ("workloads", 0, "op"), LAYOUT]
            + [(*LAYOUT, key) for key in ("misaligned_subsets", "element_width_bits",
                                          "needs_vertical_relocation")])


class TestNullIsAbsent:
    @pytest.mark.parametrize("at", NULLABLE, ids=[".".join(map(str, at)) for at in NULLABLE])
    def test_null_gives_the_config_of_the_deleted_key(self, at):
        nulled, deleted = copy.deepcopy(EVERY_KEY), copy.deepcopy(EVERY_KEY)
        *parents, key = at
        nulled_obj, deleted_obj = nulled, deleted
        for step in parents:
            nulled_obj, deleted_obj = nulled_obj[step], deleted_obj[step]
        nulled_obj[key] = None
        del deleted_obj[key]
        want = parse_config(json.dumps(deleted))
        assert parse_config(json.dumps(nulled)) == want
        assert want != parse_config(json.dumps(EVERY_KEY))


class TestRejection:

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{\n  "pim": {,}\n}', path="bad.json")
        assert "bad.json:2" in str(err.value)

    @pytest.mark.parametrize("doc,fragment", [
        ('{"pim": {"rowz": 3}}', "pim.rowz"),
        ('{"cpus": {}}', "cpus"),
        ('{"cpu": {"bandwidth_tbps": 4}}', "cpu.bandwidth_tbps"),
        ('{"workloads": [{"name": "w", "dio_bits": 8, "oc_override": 1, '
         '"extra": 1}]}', "workloads[0].extra"),
        ('{"workloads": [{"name": "w", "dio_bits": 8, "oc_override": 1, '
         '"layout": {"element_width_bits": 4, "foo": 1}}]}',
         "workloads[0].layout.foo"),
    ])
    def test_unknown_keys_rejected_with_path(self, doc, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("doc", [
        '{"pim": {"rows": 0}}',
        '{"pim": {"rows": 2.5}}',
        '{"pim": {"cycle_time_ns": "ten"}}',
        '{"cpu": {"bandwidth_gbps": 0}}',
        '{"power": {}}',
        '{"workloads": [{"op": "ADD", "width_bits": 16, "dio_bits": 8}]}',
        '{"workloads": [{"name": "w", "op": "ADD", "dio_bits": 8}]}',
        '{"workloads": [{"name": "w", "op": "FUSE", "width_bits": 4, '
        '"dio_bits": 8}]}',
        '{"workloads": [{"name": "w", "op": "CUSTOM", "width_bits": 4, '
        '"dio_bits": 8}]}',
        '{"workloads": [{"name": "w", "op": "ADD", "width_bits": 16}]}',
        '{"workloads": [{"name": "w", "dio_bits": 8}]}',
        '{"workloads": {"name": "w"}}',
        '{"workloads": [{"name": "w", "op": "MPY_LOWPREC", "width_bits": 8, '
        '"dio_bits": 8}]}',
        '{"pim": {"rows": 1e400}}',
        '{"pim": {"rows": Infinity}}',
        '{"pim": {"rows": -Infinity}}',
        '{"pim": {"rows": NaN}}',
        '{"pim": {"cycle_time_ns": Infinity}}',
        '{"cpu": {"energy_per_bit_pj": NaN}}',
        '{"power": {"tdp_watts": Infinity}}',
        '{"workloads": [{"name": "w", "oc_override": 1, "dio_bits": 0}]}',
        '{"workloads": [{"name": "w", "oc_override": 1, "dio_bits": -3}]}',
    ])
    def test_bad_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("doc,message", [row[:2] for row in PLACED_ERRORS])
    def test_out_of_range_numbers_name_path_line_and_key(self, doc, message):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == f"cfg.json:3: {message}"

    @pytest.mark.parametrize("message,make", [row[1:] for row in PLACED_ERRORS if row[2]],
                             ids=[row[1].split(":")[0] for row in PLACED_ERRORS if row[2]])
    def test_each_rule_is_the_types_own(self, message, make):
        # the config error is the type's FieldError, placed at its key
        with pytest.raises(FieldError) as err:
            make()
        at, rule = message.split(": ", 1)
        assert (err.value.field, err.value.rule) == (at.rsplit(".", 1)[1], rule)
        assert str(err.value) == f"{err.value.field}: {rule}"

    @pytest.mark.parametrize("doc,message", [
        ('{\n "pim": {"rows": 0,\n  "cols": "x"}}', "cfg.json:3: pim.cols: expected a number, "
                                                   "got 'x'"),
        ('{\n "workloads": [\n  {"name": "w", "op": "CUSTOM", "width_bits": 4, '
         '"dio_bits": 8}]}', "cfg.json:3: workloads[0].op: unknown operation 'CUSTOM'; known: "
                             "NOT, OR, AND, XOR, ADD, ADD_FANIN4, MPY, MPY_LOWPREC"),
    ], ids=["typing-before-ranges", "custom"])
    def test_error_order_and_op_names(self, doc, message):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == message

    @pytest.mark.parametrize("doc", ["5", "[{}]", "null"])
    def test_a_root_that_is_no_object_names_no_line(self, doc):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert (str(err.value), err.value.line) == ("cfg.json: config must be an object", None)

    @pytest.mark.parametrize("doc,where", [
        ('{"pim": {"rows": 1' + '0' * 400 + '}}', "big.json:1: pim.rows: "),
        ('{"pim": {"rows": 1' + '0' * 5000 + '}}', "big.json:1: invalid JSON: "),
        ('{"workloads": ' + '[' * 100000 + ']' * 100000 + '}', "big.json"),
    ], ids=["int-past-float-range", "int-past-digit-limit", "deep-nesting"])
    def test_oversized_documents_rejected(self, doc, where):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="big.json")
        assert str(err.value).startswith(where)
        assert "set_int_max_str_digits" not in str(err.value)

    @pytest.mark.parametrize("doc,where", [
        ('{\n "pim": {\n  "rows": "' + "1" * 5000 + '"}}',
         "cfg.json:3: pim.rows: expected a number, got '111"),
        ('{\n "workloads": [\n  {"name": "w", "dio_bits": 8, "width_bits": 8, "op": "'
         + "A" * 5000 + '"}]}', "cfg.json:3: workloads[0].op: unknown operation 'AAA"),
        ('{\n "workloads": [\n  {"name": "w", "dio_bits": 8, "width_bits": 8, "op": ['
         + "1, " * 2000 + '1]}]}',
         "cfg.json:3: workloads[0].op: expected an operation name, got [1, 1"),
        ('{\n "workloads": [\n  {"name": "w", "op": "ADD", "width_bits": 8, "dio_bits": 8,'
         ' "layout": {"element_width_bits": -1e300}}]}',
         "cfg.json:3: workloads[0].layout.element_width_bits: must be >= 1, got -1000"),
    ], ids=["number", "operation", "operation-name", "layout-width"])
    def test_a_long_value_is_cut_in_its_error_line(self, doc, where):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value).startswith(where)
        assert len(str(err.value)) < 200
        assert "characters)" in str(err.value)

    def test_integer_past_the_digit_limit_names_its_line_and_size(self):
        # a string of digits and a float with as many digits come before
        # it; neither is an integer literal
        limit = sys.get_int_max_str_digits()
        doc = ('{\n "name": "' + "7" * (limit + 5) + '",\n "pim": {"mats": 4,\n'
               '  "cycle_time_ns": 1' + "0" * limit + '.5,\n  "rows": -'
               + "9" * (limit + 1) + '}}')
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == (f"cfg.json:5: invalid JSON: an integer of {limit + 1} "
                                  f"digits, past the limit of {limit}")

    def test_error_in_a_later_workload_points_at_its_line(self):
        doc = """{
  "workloads": [
    {"name": "a", "oc_override": 1, "dio_bits": 8},
    {"name": "b", "oc_override": 1, "dio_bits": 8},
    {"name": "c", "oc_override": 1, "dio_bits": "x"}
  ]
}"""
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == "cfg.json:5: workloads[2].dio_bits: expected a number, got 'x'"

    @pytest.mark.parametrize("doc,message", [
        # the same key inside a nested object comes first
        ('{\n "workloads": [\n  {"name": "a", "oc_override": 1, "dio_bits": 8}\n ],\n'
         ' "name": "b"\n}', "cfg.json:5: name: unknown key"),
        # a string value that spells the key comes first
        ('{\n "workloads": [\n  {"name": "dio_bits",\n   "oc_override": 1,'
         ' "dio_bits": "x"}\n ]\n}',
         "cfg.json:4: workloads[0].dio_bits: expected a number, got 'x'"),
    ], ids=["nested-object", "string-value"])
    def test_error_points_at_the_key_of_its_own_object(self, doc, message):
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == message

    def test_deep_nesting_still_gives_a_config_error(self):
        # the scanner that places errors nests deeper per level than json.loads
        depth = 600
        doc = '{"pim": {"rowz": ' + "[" * depth + "]" * depth + "}}"
        with pytest.raises(ConfigError, match=r"^<config>: pim\.rowz: unknown key$"):
            parse_config(doc)

    def test_missing_key_points_at_its_object(self):
        doc = """{
  "workloads": [
    {"name": "a", "oc_override": 1, "dio_bits": 8},
    {"name": "b",
     "oc_override": 1}
  ]
}"""
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert str(err.value) == "cfg.json:4: workloads[1].dio_bits: required"

    def test_unknown_key_error_points_at_a_line(self):
        doc = '{\n "pim": {\n   "rowz": 3\n }\n}'
        with pytest.raises(ConfigError) as err:
            parse_config(doc, path="cfg.json")
        assert "cfg.json:3" in str(err.value)
