"""Exception hierarchy for the photon-store library.

Every failure mode that callers are expected to handle is a subclass of
:class:`PhotonStoreError`, so ``except PhotonStoreError`` at the CLI
boundary is sufficient to translate failures into exit codes: each type
carries its own ``exit_code`` (3 unless it says otherwise).  Every
subclass survives a pickle round trip, so a sweep point that fails in
a worker process reports its own error to the parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class PhotonStoreError(Exception):
    """Base class for all library errors: an infeasible design or scenario."""

    exit_code = 3


class GridMismatch(PhotonStoreError):
    """A time grid does not cover the support of the input envelope."""


class DegeneratePulse(PhotonStoreError):
    """The input envelope cannot fix the cavity coupling (flat start)."""


class InfeasibleDesign(PhotonStoreError):
    """The excited-state population would cross its positivity floor.

    ``least_seed`` is the least rho_offset that would keep it above, as
    the message rounds it, or NaN where none is named.
    """

    least_seed = math.nan


class NonFiniteState(PhotonStoreError):
    """The integrator produced a non-finite amplitude.

    Carries the time stamp at which the blow-up was detected and the
    name of the amplitude that blew up.
    """

    exit_code = 4

    def __init__(self, t: float, amplitude: str):
        super().__init__(f"amplitude {amplitude} became non-finite at t = {t:.6g} us")
        self.t = t
        self.amplitude = amplitude

    def __reduce__(self):
        # rebuild from the fields, not from the formatted message
        return type(self), (self.t, self.amplitude)

    @classmethod
    def among(cls, t: float, **amplitudes: complex | float) -> "NonFiniteState":
        """The error naming the first of ``amplitudes`` that is not
        finite, or the largest one when only their sum overflowed.

        Amplitudes are complex, or floats where a loop steps a real
        field.  Sizes are half moduli, which stay finite for finite parts
        where ``abs`` of a complex would raise OverflowError."""
        sizes = {
            name: math.hypot(0.5 * value.real, 0.5 * value.imag)
            for name, value in amplitudes.items()
        }
        blown = [name for name, size in sizes.items() if not size < math.inf]
        return cls(t, blown[0] if blown else max(sizes, key=sizes.__getitem__))


class BandTooNarrow(PhotonStoreError):
    """The discretized bath band captures too little of the input photon."""

    exit_code = 5


class NegativeAccumulator(PhotonStoreError):
    """The dark-state population integral went negative.

    Signals that the adiabatic-elimination assumptions do not hold for
    the requested parameters.
    """


class AngleDomain(PhotonStoreError):
    """The mixing-angle cosine left [-1, 1] beyond numerical tolerance."""


class UnsupportedRegime(PhotonStoreError):
    """A requested parameter regime is deliberately not implemented."""


@dataclass(frozen=True)
class Violation:
    """One config problem: ``kind`` is a stable machine tag."""

    kind: str
    line: int
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line > 0 else ""
        return f"[{self.kind}] {where}{self.message}"


class ConfigError(PhotonStoreError):
    """Invalid scenario configuration; carries *all* violations found."""

    exit_code = 2

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):
        # rebuild from the violations, not from the joined message
        return type(self), (self.violations,)

    @classmethod
    def single(cls, kind: str, line: int, message: str) -> "ConfigError":
        return cls([Violation(kind, line, message)])
