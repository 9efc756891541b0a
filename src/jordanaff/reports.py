"""Result records shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .config import RATIONAL


@dataclass
class CheckResult:
    """Outcome of one named identity or rank check."""

    name: str
    passed: bool
    # an exact Fraction; a float only in the level checks of sampled
    # points on a model
    max_residual: object = 0
    samples: int = 0
    seed: object = None
    details: dict = field(default_factory=dict)

    def residual_float(self) -> float:
        r = self.max_residual
        return float(r) if isinstance(r, (Fraction, int)) else r


@dataclass
class VerificationReport:
    """A bundle of checks over one target (algebra, model, or family)."""

    target: str
    checks: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult):
        self.checks.append(check)
        return check

    def to_jsonable(self, include_details=False) -> dict:
        out_checks = {}
        for c in self.checks:
            entry = {"pass": bool(c.passed),
                     "max_residual": c.residual_float()}
            if c.samples:
                entry["samples"] = c.samples
            if c.seed is not None:
                entry["seed"] = c.seed
            if include_details and c.details:
                entry["details"] = _jsonable(c.details)
            out_checks[c.name] = entry
        return {
            "target": self.target,
            "mode": RATIONAL,
            "overall_pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "checks": out_checks,
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "item"):  # numpy scalar
        return x.item()
    return x
