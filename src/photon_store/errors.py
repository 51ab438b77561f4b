"""Exception hierarchy for the photon-store library.

Every failure mode that callers are expected to handle is a subclass of
:class:`PhotonStoreError`, so ``except PhotonStoreError`` at the CLI
boundary is sufficient to translate failures into exit codes.  Every
subclass survives a pickle round trip, so a sweep point that fails in
a worker process reports its own error to the parent.
"""

from __future__ import annotations

from dataclasses import dataclass


class PhotonStoreError(Exception):
    """Base class for all library errors."""


class GridMismatch(PhotonStoreError):
    """A time grid does not cover the support of the input envelope."""


class DegeneratePulse(PhotonStoreError):
    """The input envelope cannot fix the cavity coupling (flat start)."""


class InfeasibleDesign(PhotonStoreError):
    """The excited-state population would cross its positivity floor."""


class NonFiniteState(PhotonStoreError):
    """The integrator produced a non-finite amplitude.

    Carries the time stamp at which the blow-up was detected.
    """

    def __init__(self, t: float):
        super().__init__(f"state became non-finite at t = {t:.6g} us")
        self.t = t

    def __reduce__(self):
        # rebuild from the time stamp, not from the formatted message
        return type(self), (self.t,)


class BandTooNarrow(PhotonStoreError):
    """The discretized bath band captures too little of the input photon."""


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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"line {self.line}: " if self.line > 0 else ""
        return f"[{self.kind}] {where}{self.message}"


class ConfigError(PhotonStoreError):
    """Invalid scenario configuration; carries *all* violations found."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):
        # rebuild from the violations, not from the joined message
        return type(self), (self.violations,)

    @classmethod
    def single(cls, kind: str, line: int, message: str) -> "ConfigError":
        return cls([Violation(kind, line, message)])
