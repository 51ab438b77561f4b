"""photon-store benchmark: end-to-end and per-layer figures of one workload.

    python3 perfbench/run.py --workload figures|oracle|sweep \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests 0-10

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (``child.py``) with BLAS/OpenMP pinned to one thread, one
closed-loop client and, in ``sweep``, a pool of two workers.  The
untraced run (``--trace 0``) reports the ``end_to_end`` metrics of
``BENCHMARK.json``; the traced run (``--trace 1``) reports the
``per_layer`` ones and the tracing overhead.  Every scenario's summary
passes the physics gate (``gate.py``) before its time counts; a failed
check or a non-zero exit counts into ``failed``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference_digests.json"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# fig2a-scale layer times at the ROADMAP re-anchor (single warm runs, +-20 %)
ROADMAP_BASELINE = {
    ("fig2a", "pulse_design.coupling_from_bandwidth"): "20 ms",
    ("fig2a", "pulse_design.cavity_amplitude"): "7 ms",
    ("fig2a", "model.future_drive"): "26 ms",
    ("fig2a", "pulse_design.design_drive"): "74 ms",
    ("fig2a", "runner.write_csv"): "230-370 ms",
    ("fig2c", "dynamics.simulate_nonmarkovian"): "290 ms",
    ("fig7a", "dark_state.adiabatic_simulate"): "650 ms",
}


class BenchError(Exception):
    """The harness could not produce a result."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_checkout() -> None:
    if not (ROOT / "src" / "photon_store" / "__init__.py").is_file():
        raise BenchError(f"no src/photon_store under {ROOT}; run from a full checkout")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _run(cmd: list[str], cwd: Path, deadline: float) -> str:
    """Run a child to completion (its whole process group on timeout)."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}: {err.strip()[-800:]}")
    return out


def input_key(sc: dict) -> str:
    """Reference-digest key: the scenario's mode and config text."""
    return hashlib.sha256(f"{sc['mode']}\n{sc['config']}".encode()).hexdigest()[:24]


def run_child(workload: str, seed: int, seconds: float, trace: bool, coarse: bool,
              deadline: float, setup_probes: int = 0) -> tuple[dict, dict]:
    """Plan, set-up probes and the workload process; returns (plan, result)."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scenarios": workloads.scenarios(workload, seed, coarse),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    setup = []
    if setup_probes:
        probe = [sys.executable, str(HERE / "setup_probe.py"), str(plan_path)]
        _run(probe, work, deadline)  # warm-up: bytecode and file caches
        speed = calibrate.probe_seconds()
        for _ in range(setup_probes):
            elapsed = float(_run(probe, work, deadline))
            after = calibrate.probe_seconds()
            setup.append(elapsed * calibrate.scale(speed, after))
            speed = after
    result_path = work / "result.json"
    _run([sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
         work, deadline)
    result = json.loads(result_path.read_text())
    result["setup_s"] = setup
    shutil.rmtree(work / "out", ignore_errors=True)
    return plan, result


def files_identical(plan: dict, result: dict) -> tuple[float, int, int]:
    """(matching / written, files with a reference, files written)."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    written = matched = referenced = 0
    for sc in plan["scenarios"]:
        ref = reference.get(input_key(sc), {})
        for name, digest in result["digests"].get(sc["name"], {}).items():
            written += 1
            referenced += name in ref
            matched += ref.get(name) == digest
    return (matched / written if written else 0.0), referenced, written


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def scenario_seconds(result: dict, traced: bool) -> tuple[dict[str, float], int]:
    """Each scenario's median over the passes, in reference seconds.

    Every run is rescaled by the host-speed probes taken before and
    after it (``calibrate.py``), so drift of the shared host between
    and within runs largely cancels.
    """
    passes = [p for p in result["passes"] if p["traced"] == traced]
    return {
        name: _median(p["times"][name] * p["scales"][name] for p in passes)
        for name in passes[0]["times"]
    }, len(passes)


def end_to_end(plan: dict, result: dict) -> tuple[dict, list[str]]:
    per_scenario, n = scenario_seconds(result, False)
    wall = [sum(p["times"].values()) for p in result["passes"] if not p["traced"]]
    speed = [1.0 / f for p in result["passes"] for f in p["scales"].values()]
    probes = result["setup_s"]
    values = {
        "setup_s": (_median(probes), f"median of {len(probes)} fresh interpreters"),
        "pass_s": (
            sum(per_scenario.values()),
            f"sum over {len(per_scenario)} scenarios of each one's median of {n} passes",
        ),
        "scenario_s.p50": (
            _median(per_scenario.values()),
            f"median over {len(per_scenario)} scenarios, {n} passes each",
        ),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "ru_maxrss, largest of SELF and CHILDREN"),
    }
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    lines = [f"{name:<16} {v:.6g} {units[name]}  ({note})" for name, (v, note) in values.items()]
    lines += [
        "times above are reference seconds (wall seconds rescaled by the host-speed probe)",
        f"wall: median pass {_median(wall):.4g} s; host ran {min(speed):.3g}x to "
        f"{max(speed):.3g}x slower than reference",
        "median scenario seconds: "
        + ", ".join(f"{k} {v:.4g}" for k, v in sorted(per_scenario.items())),
    ]
    return {k: v for k, (v, _) in values.items()}, lines


def per_layer(plan: dict, result: dict, spec: dict) -> tuple[dict, list[str]]:
    per_pass = result["layers_per_pass"]
    traced, n_traced = scenario_seconds(result, True)
    untraced, n_untraced = scenario_seconds(result, False)
    overhead = sum(traced.values()) - sum(untraced.values())
    identical, referenced, written = files_identical(plan, result)
    values, unsteady = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            values[name] = overhead
            continue
        if name == "runner.files_identical":
            values[name] = identical
            continue
        func, field = name.rsplit(".", 1)
        seen = [layers.get(func, {}).get(field, 0) for layers in per_pass]
        if metric["unit"] == "s":
            values[name] = _median(seen)
        else:
            values[name] = seen[0]
            if len(set(seen)) > 1:
                unsteady.append(f"{name} {seen}")
    lines = [
        f"layer times are reference seconds, median of {n_traced} traced passes",
        f"tracing overhead {overhead:+.4f} s per pass ({n_traced} traced, "
        f"{n_untraced} untraced passes)",
        f"runner.files_identical {identical:.6g} ({written} files written, "
        f"{referenced} with a seed-commit reference)",
    ]
    lines += [f"count differs between traced passes: {u}" for u in unsteady]
    lines += _layer_table(result)
    return values, lines


def _layer_table(result: dict) -> list[str]:
    lines = ["per-scenario layers of the first traced pass (calls, inclusive s, self s, reference seconds):"]
    for scenario, layers in result["layers_by_scenario"].items():
        for func, row in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
            if row["s"] < 1e-3 and (scenario, func) not in ROADMAP_BASELINE:
                continue
            note = ROADMAP_BASELINE.get((scenario, func))
            extra = f"   ROADMAP baseline {note}" if note else ""
            lines.append(
                f"  {scenario:<13} {func:<40} {row['calls']:>5} "
                f"{row['s']:>9.4f} {row['self_s']:>9.4f}{extra}"
            )
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool,
            coarse: bool = False) -> tuple[list[str], dict, dict]:
    """Returns (report lines, final JSON object, raw child result)."""
    spec = _spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    plan, result = run_child(
        workload, seed, seconds, trace, coarse, deadline, 0 if trace else SETUP_PROBES
    )
    attempted = sum(len(p["times"]) for p in result["passes"])
    failed = len({(f["pass"], f["scenario"]) for f in result["failures"]})
    v = result["versions"]
    lines = [
        f"# perfbench workload={workload} seed={seed} seconds={seconds} "
        f"trace={int(trace)} coarse={int(coarse)}",
        f"# env nproc={len(os.sched_getaffinity(0))} cpu={_cpu_model()!r} "
        f"python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
        f"commit={_git_commit()} threads=" + ",".join(f"{k}={x}" for k, x in PINNED_ENV.items()),
    ]
    if trace:
        values, body = per_layer(plan, result, spec)
        wanted = spec["per_layer"]
    else:
        values, body = end_to_end(plan, result)
        wanted = spec["end_to_end"]
    lines += body
    lines.append(
        f"failed_ratio     {failed / attempted:.6g} ratio ({failed} of {attempted} scenario runs)"
    )
    for scenario, keys in gate.REPORTED.items():
        for key in keys:
            if scenario in result["summaries"]:
                lines.append(
                    f"not gated (red by design): {scenario}.{key} = "
                    f"{result['summaries'][scenario].get(key)}"
                )
    lines += [f"FAILED pass {f['pass']} {f['scenario']}: {f['why']}" for f in result["failures"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if trace:
        lines += [f"{n:<46} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, final, result


def self_check() -> int:
    """Every workload once on the coarse grid, then prove the gate can fail."""
    spec = _spec()
    problems, corrupted = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            lines, final, result = measure(workload, 0, 0.0, trace, coarse=True)
            print("\n".join(lines))
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = final["metrics"].get(m["name"])
                if not got or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: metric {m['name']} missing or without unit")
            if final["failed"]:
                print(f"note: {workload} fails {final['failed']} physics checks on the coarse grid")
        for name, summary in result["summaries"].items():
            for check in gate.CHECKS.get(name, ()):
                if not check.passes(summary):
                    continue
                bad = dict(summary, **{check.key: check.failing_value()})
                corrupted += 1
                if not gate.failures(name, bad):
                    problems.append(f"gate accepted corrupted {name}.{check.key}")
            if name == "oracle_small" and not gate.pair_failures(
                {"oracle_small": summary, "oracle_large": summary}
            ):
                problems.append("gate accepted a large comb no better than the small one")
    if corrupted == 0:
        problems.append("no gate check passed on the coarse grid, so none was corrupted")
    print(f"self-check: {corrupted} corrupted summary values, each counted as a failure"
          if not problems else "self-check FAILED:\n  " + "\n  ".join(problems))
    return 1 if problems else 0


def record_digests(seeds: list[int]) -> int:
    """Store the SHA-256 of every output file, keyed by scenario inputs."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            deadline = time.monotonic() + TIME_LIMIT_S
            plan, result = run_child(workload, seed, 0.0, False, False, deadline)
            if result["failures"]:
                raise BenchError(f"{workload} seed {seed}: {result['failures']}")
            for sc in plan["scenarios"]:
                reference[input_key(sc)] = result["digests"][sc["name"]]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
            if workload == "figures":
                break  # seed only reorders the presets
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", metavar="LO-HI", default=None)
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        if args.self_check:
            return self_check()
        if args.record_digests:
            return record_digests(_seed_range(args.record_digests))
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        lines, final, _ = measure(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
