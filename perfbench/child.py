"""One workload in a fresh interpreter: closed-loop passes via ``cli.main``.

Usage: ``python3 perfbench/child.py PLAN.json RESULT.json``

One client runs the scenario list again and again, each scenario one
``cli.main`` call, while the next pass is expected to end within
``seconds`` (at least one pass; two when tracing).  The host-speed probe, the gate and the output digests run between
scenarios, outside the timed calls.  With ``trace`` on, passes alternate untraced and
traced, so one process gives both the per-layer numbers and the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import gate  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import PULSE_FILE, PULSE_SAMPLES, needs_pulse_file  # noqa: E402


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import photon_store
    from photon_store import cli

    where = Path(photon_store.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"photon_store imported from {where}, not from {root}/src")
    return photon_store, cli


def _write_pulse_file(photon_store, path: Path) -> None:
    import numpy as np

    packet = photon_store.builtin_packet()
    t = np.linspace(0.0, packet.duration, PULSE_SAMPLES)
    np.savetxt(path, np.column_stack([t, packet.value(t)]), fmt="%.17g")


def _digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


def _run_scenario(cli, sc: dict) -> tuple[float, int, str]:
    argv = [sc["mode"], "--config", f"{sc['name']}.cfg", "--out", f"out/{sc['name']}"]
    err = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed scenario, not a crash
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - started, code, err.getvalue().strip()


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    root = Path(plan["root"])
    work = Path(plan_path).parent
    photon_store, cli = _import_package(root)
    import numpy
    import scipy

    scenarios = plan["scenarios"]
    if needs_pulse_file(scenarios):
        _write_pulse_file(photon_store, work / PULSE_FILE)
    for sc in scenarios:
        (work / f"{sc['name']}.cfg").write_text(sc["config"])

    recorder = Recorder() if plan["trace"] else None
    order_rng = random.Random(f"order:{plan['seed']}")
    passes: list[dict] = []
    failures: list[dict] = []
    digests: dict[str, dict[str, str]] = {}
    summaries: dict[str, dict[str, str]] = {}
    host = calibrate.HostProbe(max(sc["workers"] for sc in scenarios))
    deadline = time.perf_counter() + plan["seconds"]

    while True:
        pass_started = time.perf_counter()
        index = len(passes)
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.install()
        order = list(scenarios)
        order_rng.shuffle(order)
        times: dict[str, float] = {}
        scales: dict[str, float] = {}
        pass_summaries: dict[str, dict[str, str]] = {}
        probe, probed_on = None, 0
        for sc in order:
            name = sc["name"]
            if probed_on != sc["workers"]:
                probe, probed_on = host.seconds(sc["workers"]), sc["workers"]
            if traced:
                recorder.tag = [index, name]
            elapsed, code, err = _run_scenario(cli, sc)
            after = host.seconds(sc["workers"])
            times[name] = elapsed
            scales[name] = calibrate.scale(probe, after)
            probe = after
            if code != 0:
                failures.append(
                    {"pass": index, "scenario": name, "why": f"exit {code}: {err[-300:]}"}
                )
                continue
            outdir = work / "out" / name
            summary = gate.parse_summary((outdir / "summary").read_text())
            pass_summaries[name] = summary
            bad = gate.failures(name, summary)
            files = _digests(outdir)
            if name in digests and digests[name] != files:
                bad.append("outputs differ from the previous pass")
            digests[name] = files
            if bad:
                failures.append({"pass": index, "scenario": name, "why": "; ".join(bad)})
        if traced:
            recorder.uninstall()
        for bad in gate.pair_failures(pass_summaries):
            failures.append({"pass": index, "scenario": "oracle_large", "why": bad})
        summaries.update(pass_summaries)
        passes.append({"traced": traced, "times": times, "scales": scales})
        # stop before a pass that would end past the deadline
        now = time.perf_counter()
        if now + (now - pass_started) > deadline and (recorder is None or len(passes) >= 2):
            break

    host.close()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "passes": passes,
        "failures": failures,
        "digests": digests,
        "summaries": summaries,
        "peak_rss_kb": max(self_rss, child_rss),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if recorder is not None:
        recorder.write_jsonl(work / "spans.jsonl")
        traced_passes = [i for i, p in enumerate(passes) if p["traced"]]

        def scale(tag) -> float:
            return passes[tag[0]]["scales"][tag[1]]

        result["layers_per_pass"] = [
            recorder.layer_totals(lambda tag, i=i: tag[0] == i, scale) for i in traced_passes
        ]
        result["layers_by_scenario"] = {
            sc["name"]: recorder.layer_totals(
                lambda tag, i=traced_passes[0], n=sc["name"]: tag == [i, n], scale
            )
            for sc in scenarios
        }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
