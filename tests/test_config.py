import pytest

from bitlet.config import ConfigError, parse_config

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
    ])
    def test_bad_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

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
