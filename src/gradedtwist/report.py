"""Verification reports.

Every checker in this package returns a Report instead of raising: a
failed axiom is a result, not an exception. Malformed input (bad shapes,
unparseable files) still raises.
"""

from __future__ import annotations

from functools import wraps


class Report:
    """Outcome of one named check.

    witness carries the first counterexample (already JSON-friendly);
    notes carry qualifiers such as "window-verified" for partially
    quantified integer-backend checks.
    """

    def __init__(self, check: str, passed: bool, witness=None, notes=()):
        self.check = check
        self.passed = bool(passed)
        self.witness = witness
        self.notes = tuple(notes)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        out = {"check": self.check, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def __repr__(self):
        tail = f", witness={self.witness!r}" if self.witness is not None else ""
        return f"Report({self.check}: {self.status}{tail})"


def merge(check: str, reports, notes=()) -> Report:
    """Combine subreports: passes iff all pass; first failure wins."""
    notes = tuple(notes)
    for r in reports:
        notes += tuple(n for n in r.notes if n not in notes)
        if not r.passed:
            return Report(check, False, witness={"failed": r.check, "witness": r.witness}, notes=notes)
    return Report(check, True, notes=notes)


def kept(check):
    """Keep check(x)'s report on x when it passes, as a Matrix keeps its
    inverse, for later calls; a failing report is recomputed every time."""
    key = "_passed_" + check.__name__

    @wraps(check)
    def keeping(x):
        report = x.__dict__.get(key) or check(x)
        if report.passed:
            x.__dict__[key] = report
        return report

    return keeping


class BoundOnce:
    """A base whose attributes cannot be rebound once set, so a report
    `kept` on the object, or a structure built on it, cannot go stale."""

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{type(self).__name__}.{name} cannot be rebound")
        super().__setattr__(name, value)
