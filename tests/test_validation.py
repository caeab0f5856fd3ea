from bitlet.validation import run_validation


def test_every_self_check_passes():
    # runs every catalog program and every move program through the simulator
    checks = run_validation("all")
    assert len(checks) == 16
    assert [c for c in checks if not c.passed] == []
