"""Set-up probe: ``import photon_store`` plus parsing every config.

Usage: ``python3 perfbench/setup_probe.py PLAN.json``; prints the seconds
taken.  Run in a fresh interpreter, as every CLI invocation pays this.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    started = time.perf_counter()
    from photon_store import config

    for sc in plan["scenarios"]:
        config.parse_config(sc["config"], cli_mode=sc["mode"])
    print(repr(time.perf_counter() - started))
