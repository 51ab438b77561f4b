"""Span recorder wrapped around the package's public functions.

Nothing under ``src/`` knows about it: :meth:`Recorder.install`
replaces every public function of the traced modules at each module
attribute (and module-level dict value) through which it is called,
e.g. ``future_drive`` in ``model``, ``pulse_design``, ``dynamics`` and
``runner``; :meth:`Recorder.uninstall` puts the originals back.  Spans
stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
wrapped children.  Counts attached to a span are computed from the
call's inputs (``.steps``, ``.terms``, ``.mode_steps``,
``.block_bytes``) or read from what it wrote (``.rows``, ``.bytes``,
``.points_failed``).  Forked pool workers record into their own copy
of the recorder, so their spans never reach the parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

TRACED_MODULES = (
    "config",
    "runner",
    "model",
    "pulse_design",
    "dynamics",
    "dark_state",
    "_integrate",
)

# bytes per element of the complex phase block in initial_modes, and
# the block height the seed implementation uses
_COMPLEX_BYTES = 16
_PROJECTION_BLOCK = 200


def _failed_points(outdir) -> int:
    for line in (Path(outdir) / "summary").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "failed_points":
            return 0 if value == "none" else len(value.split(","))
    return 0


def _count_future_drive(a, result):
    return {"steps": a["grid"].n_steps}


def _count_rk4(a, result):
    return {"steps": a["n_steps"]}


def _count_initial_modes(a, result):
    samples = a["grid"].n_steps + 1
    n_modes = a["bath"].n_modes
    return {
        "terms": n_modes * samples,
        "block_bytes": min(n_modes, _PROJECTION_BLOCK) * samples * _COMPLEX_BYTES,
    }


def _count_discrete_bath(a, result):
    return {"mode_steps": a["bath"].n_modes * a["grid"].n_steps}


def _count_write_csv(a, result):
    columns = a["columns"]
    first = next(iter(columns.values()))
    return {"rows": len(first), "bytes": Path(a["path"]).stat().st_size}


def _count_run_sweep(a, result):
    return {
        "points": len(a["cfg"].sweep_values),
        "points_failed": _failed_points(a["outdir"]),
    }


COUNTERS = {
    "model.future_drive": _count_future_drive,
    "dynamics.simulate_nonmarkovian": _count_future_drive,
    "integrate.rk4": _count_rk4,
    "dynamics.initial_modes": _count_initial_modes,
    "dynamics.simulate_discrete_bath": _count_discrete_bath,
    "runner.write_csv": _count_write_csv,
    "runner.run_sweep": _count_run_sweep,
}

# counts that take the largest value seen instead of the sum
PEAK_COUNTS = {"block_bytes"}


PACKAGE = "photon_store"


class Recorder:
    """Collects spans ``[name, start, end, parent, tag, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    label = f"{short.lstrip('_')}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(label, obj))
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        hit = originals.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tag, counts in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "tag": tag,
                            "counts": counts or {},
                        }
                    )
                    + "\n"
                )

    def layer_totals(self, select, scale) -> dict[str, dict[str, float]]:
        """Per function over the spans whose tag ``select`` accepts: calls,
        inclusive and self seconds (each times ``scale(tag)``), counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, tag, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, tag, counts) in enumerate(self.spans):
            if tag is None or not select(tag):
                continue
            factor = scale(tag)
            row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) * factor
            row["self_s"] += (end - start - child_time[i]) * factor
            for key, value in (counts or {}).items():
                if key in PEAK_COUNTS:
                    row[key] = max(row.get(key, 0), value)
                else:
                    row[key] = row.get(key, 0) + value
        return totals
