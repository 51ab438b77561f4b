"""Command-line front end: ``photon-store <mode> --config <path>``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import MODES, PRESETS, parse_config
from .errors import ConfigError
from .runner import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-store",
        description=(
            "Design and verify classical drives that store a single-photon "
            "wavepacket in an atom-cavity system with a Lorentzian bath."
        ),
    )
    parser.add_argument("mode", choices=MODES, help="pipeline to run")
    parser.add_argument("--config", required=True, help="key=value scenario file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--preset",
        default=None,
        choices=sorted(PRESETS),
        help="figure preset overriding individual parameters",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "max concurrent sweep points; a pooled sweep wants one BLAS thread "
            "per process (OPENBLAS_NUM_THREADS=1, see README's sweep table)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config: cannot read {args.config!r}: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    # command-line switches win by arriving later (last assignment wins)
    if args.preset:
        text += f"\npreset = {args.preset}\n"
    if args.workers is not None:
        text += f"\nworkers = {args.workers}\n"
    try:
        cfg = parse_config(text, cli_mode=args.mode)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config: {violation}", file=sys.stderr)
        return exc.exit_code
    return run_scenario(cfg, outdir=args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
