"""Flat key=value scenario configs, with figure presets.

The format is deliberately primitive: one ``key = value`` per line,
``#`` starts a comment, values may carry a trailing ``pi`` token
(``g_cav = 30pi``) so caption-exact constants survive transcription.
``parse_config`` reports *every* violation it can find, not just the
first, and attaches 1-based line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigError, Violation

MODES = ("design", "simulate", "markovian", "oracle", "dark", "sweep")

# every key and the type of its value; _suggest proposes the first key
# in this order (floats, ints, strings) that is one edit away
_KEY_TYPES: dict[str, type] = {
    "g_cav": float,
    "gamma_L": float,
    "delta1": float,
    "delta2": float,
    "big_gamma": float,
    "bandwidth_w": float,
    "rho_offset": float,
    "pulse_duration": float,
    "grid.dt": float,
    "grid.span": float,
    "band_halfwidth": float,
    "n_modes": int,
    "workers": int,
    "mode": str,
    "preset": str,
    "pulse": str,
}
KNOWN_KEYS = tuple(_KEY_TYPES)

# only these may carry a comma-separated range (sweep mode)
_RANGED_KEYS = ("bandwidth_w", "delta2")

# a magnitude above this in any frequency field smells like Hz, not MHz
_UNIT_CEILING = 1e6
_FREQ_KEYS = ("g_cav", "gamma_L", "delta1", "delta2", "big_gamma", "bandwidth_w")

# domain checks in reporting order: key, test of a value, and what the
# violation says when the test fails
_DOMAIN = (
    *(
        (key, lambda v: v > 0.0, "must be positive, got {:g}")
        for key in (
            "g_cav",
            "big_gamma",
            "pulse_duration",
            "grid.dt",
            "grid.span",
            "band_halfwidth",
            "bandwidth_w",
        )
    ),
    ("gamma_L", lambda v: v >= 0.0, "must be non-negative"),
    ("rho_offset", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    ("n_modes", lambda v: v >= 2, "must be at least 2"),
    ("workers", lambda v: v >= 1, "must be at least 1"),
)

_COMMON = {
    "gamma_L": 6.0 * math.pi,
    "g_cav": 30.0 * math.pi,
    "delta1": 0.0,
    "delta2": 0.0,
    "pulse": "builtin",
    "pulse_duration": math.pi,
}

PRESETS: dict[str, dict] = {
    "fig2a": {**_COMMON, "mode": "design", "bandwidth_w": 1.6716, "rho_offset": 0.002},
    "fig2c": {**_COMMON, "mode": "simulate", "bandwidth_w": 1.6716, "rho_offset": 0.002},
    "fig3a": {**_COMMON, "mode": "markovian", "bandwidth_w": 0.5, "rho_offset": 0.0075},
    "fig3b": {**_COMMON, "mode": "markovian", "bandwidth_w": 25.0, "rho_offset": 0.0075},
    "fig4": {
        **_COMMON,
        "mode": "sweep",
        "bandwidth_w": (0.5, 1.0, 2.0, 5.0, 25.0),
        "rho_offset": 0.0075,
    },
    "fig5": {**_COMMON, "mode": "design", "bandwidth_w": 1.0, "rho_offset": 0.004},
    "fig6": {
        **_COMMON,
        "mode": "sweep",
        "bandwidth_w": 0.5,
        "delta2": (-10.0, -5.0, 0.0, 5.0, 10.0),
        "rho_offset": 0.003,
    },
    "fig7a": {**_COMMON, "mode": "dark", "bandwidth_w": 0.5, "rho_offset": 0.00075},
    "fig7c": {**_COMMON, "mode": "dark", "bandwidth_w": 25.0, "rho_offset": 0.00075},
    "fig7e": {
        **_COMMON,
        "mode": "dark",
        "g_cav": 14.0 * math.pi,
        "bandwidth_w": 25.0,
        "rho_offset": 0.00075,
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (still symbolic, not materialized).

    ``big_gamma`` may be None, meaning "derive it from the bandwidth
    and the pulse via the equilibrium condition" at run time.  In
    sweep mode exactly one of ``bandwidth_w`` / ``delta2`` is replaced
    by ``sweep_values``.
    """

    mode: Optional[str] = None
    preset: Optional[str] = None
    pulse: str = "builtin"
    g_cav: Optional[float] = None
    gamma_L: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    big_gamma: Optional[float] = None
    bandwidth_w: Optional[float] = None
    rho_offset: Optional[float] = None
    pulse_duration: float = math.pi
    grid_dt: float = 1e-4
    grid_span: Optional[float] = None
    n_modes: int = 2000
    band_halfwidth: float = 80.0
    workers: int = 1
    sweep_param: Optional[str] = None
    sweep_values: tuple[float, ...] = ()
    overrides: tuple[str, ...] = ()

    def effective_span(self) -> float:
        return self.grid_span if self.grid_span is not None else self.pulse_duration


def parse_number(token: str) -> float:
    """Float literal with an optional trailing ``pi`` factor."""
    token = token.strip()
    if token.lower().endswith("pi"):
        head = token[:-2].strip()
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        return float(head) * math.pi
    return float(token)


def _edit_distance_one(a: str, b: str) -> bool:
    """True when one substitution, insertion or deletion maps a to b."""
    if a == b:
        return False
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    short, long = (a, b) if la < lb else (b, a)
    i = 0
    while i < len(short) and short[i] == long[i]:
        i += 1
    return short[i:] == long[i + 1 :]


def _suggest(key: str) -> Optional[str]:
    for known in KNOWN_KEYS:
        if _edit_distance_one(key.lower(), known.lower()):
            return known
    return None


def parse_config(text: str, cli_mode: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a scenario document.

    ``cli_mode`` (the positional command-line mode) takes precedence
    over a ``mode`` key in the file.  Raises :class:`ConfigError`
    listing every violation found.
    """
    violations: list[Violation] = []
    raw: dict[str, tuple[int, str]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            violations.append(
                Violation("syntax", lineno, f"expected key = value, got {body!r}")
            )
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            hint = _suggest(key)
            msg = f"unknown key {key!r}"
            if hint:
                msg += f"; did you mean {hint!r}?"
            violations.append(Violation("unknown-key", lineno, msg))
            continue
        raw[key] = (lineno, value)  # last assignment wins

    values: dict[str, object] = {}
    ranged: dict[str, tuple[float, ...]] = {}

    def number(key: str, lineno: int, text: str) -> Optional[float]:
        """One number of ``key``, or None after a violation when it is
        not finite.  A frequency above the unit ceiling is a violation
        too, checked before presets so that it names what the user typed.
        Raises ValueError for a token that is no number."""
        value = parse_number(text)
        if not math.isfinite(value):
            violations.append(
                Violation("value", lineno, f"{key} must be finite, got {text.strip()!r}")
            )
            return None
        if key in _FREQ_KEYS and abs(value) > _UNIT_CEILING:
            violations.append(
                Violation(
                    "unit-suspect",
                    lineno,
                    f"{key} = {value:g} is suspiciously large; "
                    "frequencies are MHz (rad/us), not Hz",
                )
            )
        # x + 0.0 is x, except that a signed zero becomes +0.0, so that
        # "-0" and "0" write the same bytes
        return value + 0.0

    for key, (lineno, token) in raw.items():
        kind = _KEY_TYPES[key]
        if kind is str:
            values[key] = token
            continue
        if kind is int:
            try:
                values[key] = int(token)
            except ValueError:
                violations.append(
                    Violation("value", lineno, f"{key} expects an integer, got {token!r}")
                )
            continue
        parts = [p.strip() for p in token.split(",")]
        if len(parts) > 1 or token.strip().endswith(","):
            if key not in _RANGED_KEYS:
                violations.append(
                    Violation("value", lineno, f"{key} does not accept a range")
                )
                continue
            try:
                parsed = [number(key, lineno, p) for p in parts if p]
            except ValueError:
                violations.append(
                    Violation("value", lineno, f"could not parse range for {key}")
                )
                continue
            ranged[key] = tuple(v for v in parsed if v is not None)
            continue
        try:
            value = number(key, lineno, token)
        except ValueError:
            violations.append(
                Violation("value", lineno, f"{key} expects a number, got {token!r}")
            )
            continue
        if value is not None:
            values[key] = value

    def line_of(key: str) -> int:
        return raw.get(key, (0, ""))[0]

    overrides: list[str] = []
    preset = values.get("preset")
    if preset is not None:
        table = PRESETS.get(str(preset))
        if table is None:
            known = ", ".join(sorted(PRESETS))
            violations.append(
                Violation(
                    "value", line_of("preset"), f"unknown preset {preset!r}; known: {known}"
                )
            )
        else:
            for key, preset_value in table.items():
                if isinstance(preset_value, tuple):
                    if key in values or key in ranged:
                        overrides.append(key)
                    ranged[key] = preset_value
                    values.pop(key, None)
                else:
                    if key in values and values[key] != preset_value:
                        overrides.append(key)
                    if key in ranged:
                        overrides.append(key)
                        ranged.pop(key)
                    values[key] = preset_value

    mode = cli_mode or values.get("mode")
    if mode is not None and mode not in MODES:
        violations.append(
            Violation("value", line_of("mode"), f"mode must be one of {', '.join(MODES)}")
        )

    if mode == "sweep":
        if len(ranged) == 0:
            violations.append(
                Violation("value", 0, "sweep needs a comma range on bandwidth_w or delta2")
            )
        elif len(ranged) > 1:
            violations.append(
                Violation("value", 0, "sweep accepts exactly one ranged parameter")
            )
        for key, vals in ranged.items():
            if len(vals) == 0:
                violations.append(Violation("value", line_of(key), f"{key} range is empty"))
    elif ranged:
        for key in ranged:
            violations.append(
                Violation(
                    "value", line_of(key), f"{key} range is only meaningful in sweep mode"
                )
            )

    for key, ok, message in _DOMAIN:
        # every element of a range, or the one value
        for v in ranged.get(key) or ([values[key]] if key in values else []):
            if not ok(v):
                violations.append(
                    Violation("value", line_of(key), f"{key} {message.format(v)}")
                )

    if mode is not None and not violations:
        for key in ("g_cav", "rho_offset", "bandwidth_w"):
            if key not in values and key not in ranged:
                violations.append(Violation("missing", 0, f"{key} is required"))

    if violations:
        raise ConfigError(violations)

    fields = {key.replace(".", "_"): value for key, value in values.items()}
    fields["mode"] = mode
    sweep_param = next(iter(ranged), None)
    return ScenarioConfig(
        **fields,
        sweep_param=sweep_param,
        sweep_values=ranged.get(sweep_param, ()),
        overrides=tuple(sorted(set(overrides))),
    )


def with_point(cfg: ScenarioConfig, value: float) -> ScenarioConfig:
    """Materialize one sweep point as a plain single-valued config."""
    return replace(cfg, **{cfg.sweep_param: value}, sweep_param=None, sweep_values=())
