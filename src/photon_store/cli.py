"""Command-line front end: ``photon-store <mode> --config <path>``."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import MODES, parse_config
from .errors import ConfigError

# the oracle's BLAS products round differently on each thread count, so
# a run defaults each of these to one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line, as for every other bad input, instead of the usage
        self.exit(ConfigError.exit_code, f"error[{ConfigError.exit_code}]: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photon-store",
        allow_abbrev=False,
        description=(
            "Design and verify classical drives that store a single-photon "
            "wavepacket in an atom-cavity system with a Lorentzian bath."
        ),
    )
    parser.add_argument("mode", choices=MODES, help="pipeline to run")
    parser.add_argument("--config", required=True, help="key=value scenario file")
    parser.add_argument("--out", help="output directory (default: ./out)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config: cannot read {args.config!r}: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    try:
        cfg = parse_config(text, cli_mode=args.mode)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config: {violation}", file=sys.stderr)
        return exc.exit_code
    # BLAS reads its thread count when numpy loads; an in-process caller
    # that loaded numpy keeps its own, and a user's setting always wins
    if "numpy" not in sys.modules:
        for name in BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")
    # numpy and the solvers load only for a config that parsed
    from .runner import run_scenario

    return run_scenario(cfg, outdir=args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
