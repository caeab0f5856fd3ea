"""Write bench/golden.json: SHA-256 of every output of the CLI workloads.

    PYTHONPATH=src:bench python3 bench/capture_golden.py

Run it only at a commit whose CLI output is known to be right. The digests
freeze that output byte for byte; a pass whose output differs fails.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import workloads


def main() -> None:
    golden = {}
    for cls in (workloads.SweepGrid, workloads.CliSuite):
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(dir=workloads.OUT_DIR)
        try:
            wl = cls(0, tmp)
            results = wl.run_pass()
            bad = [label for label, (code, _) in results.items() if code != 0]
            if bad:
                raise SystemExit(f"{cls.name}: nonzero exit from {', '.join(bad)}")
            golden[cls.name] = {name: workloads.sha256(doc)
                                for name, doc in sorted(wl.outputs(results).items())}
        finally:
            shutil.rmtree(tmp)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
