"""The three benchmark workloads and their known answers.

Each workload builds its inputs from the seed in `setup` (files are
written under the run's work directory), then hands out a list of
verdicts. A verdict is one closed-loop request: it runs, checks its
outcome against the expected pass, fail or exit code (and, for
seed-independent outputs, against the SHA-256 digests recorded in
``known_answers.json``), and returns an `Outcome`.

`Outcome.seconds` is the time of the verdict's core library or CLI call,
which feeds the per-workload metrics; parsing inputs and checking the
result stay outside it. `after_checks` holds the cross-checks against
the independent oracle ``direct_intertwiner_basis``; they run once, after
the timed passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

from gradedtwist import enriched, equivalence, graded, serialize, twist
from gradedtwist.exactmath import Matrix
from gradedtwist.fixtures import F7, broken_algebra, quantum_plane, random_cocycle_twist, sign_twist
from gradedtwist.graded import GradedAlgebra, GradedModule, GradedMorphism, group_algebra
from gradedtwist.groups import FiniteGroup, cyclic_group, symmetric_group
from gradedtwist.twist import COCYCLE, TwistingSystem

# Library functions are called through their modules (graded.check_algebra,
# not a local name), so that the tracer's rebinding reaches these calls.

KNOWN_ANSWERS = json.loads((Path(__file__).parent / "known_answers.json").read_text())

perf = time.perf_counter


@dataclass
class Outcome:
    ok: bool
    seconds: float | None = None
    detail: str = ""
    observed: tuple | None = None   # (exit code, traceback printed) for CLI verdicts


@dataclass
class Verdict:
    id: str
    group: str                       # timing group the core seconds are summed into
    run: Callable[[], Outcome]
    defect: tuple | None = None      # recorded wrong behaviour of a known defect


def digest(data) -> str:
    """SHA-256 of the canonical JSON form of an emitted structure."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def compare_digests(workload: str, key: str, got: dict) -> list[str]:
    """Problems found comparing {name: digest} with the recorded answers."""
    want = KNOWN_ANSWERS[workload].get(key, {})
    problems = []
    for name, value in sorted(got.items()):
        if name not in want:
            problems.append(f"{key}.{name}: no recorded digest (got {value})")
        elif want[name] != value:
            problems.append(f"{key}.{name}: digest {value[:12]} != recorded {want[name][:12]}")
    return problems


def klein_four() -> FiniteGroup:
    return FiniteGroup([[a ^ b for b in range(4)] for a in range(4)], identity=0)


# ---------------------------------------------------------------------------
# cli-batch


FIXTURE_NAMES = ("z2.alg.json", "z3.alg.json", "s3.alg.json", "z3f7.alg.json")
REQUIRED_ALGEBRA_KEYS = ("field", "group", "dims", "mult", "unit")

# Inputs ROADMAP item 4 lists as malformed (expected exit 2), with the
# (exit code, traceback printed) they give today. A verdict on one of
# them counts as failed while it behaves as recorded; any third
# behaviour makes the run incorrect.
KNOWN_DEFECTS = {
    "item4-zero-denominator": (1, True),
    "item4-empty-mult": (1, True),
    "item4-fractional-dim": (0, False),
    "item4-string-unit": (0, False),
}


class CliBatch:
    """Every CLI command once or more, each as its own `python -m
    gradedtwist.cli` process, plus seeded failing and malformed inputs."""

    name = "cli-batch"

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.work = workdir
        self.seed = seed
        self.fixtures = root / "src" / "gradedtwist" / "fixtures"
        self.out = workdir / "out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.broken = []

    def setup(self):
        rng = random.Random(self.seed)
        w = self.work
        self.out.mkdir(parents=True, exist_ok=True)
        a, t = sign_twist()
        serialize.write_json(w / "sign_tw.alg.json", serialize.emit_algebra(twist.twist_algebra(a, t)))
        serialize.write_json(w / "sign.phi.json", serialize.emit_phi(twist.phi_from_twist(t)))
        for i in range(2):
            broken = broken_algebra(rng.randrange(1 << 30))
            self.broken.append(broken)
            serialize.write_json(w / f"broken-{i}.alg.json", serialize.emit_algebra(broken))
        serialize.write_json(w / "noncocycle.twist.json", self._non_cocycle(rng))
        name = FIXTURE_NAMES[rng.randrange(len(FIXTURE_NAMES))]
        text = (self.fixtures / name).read_text()
        (w / "truncated.alg.json").write_text(text[: rng.randrange(1, text.rstrip().rfind("}"))])
        data = json.loads((self.fixtures / FIXTURE_NAMES[rng.randrange(len(FIXTURE_NAMES))]).read_text())
        del data[REQUIRED_ALGEBRA_KEYS[rng.randrange(len(REQUIRED_ALGEBRA_KEYS))]]
        serialize.write_json(w / "missing-key.alg.json", data)
        self._write_item4()

    def _non_cocycle(self, rng) -> dict:
        """A seeded Z/3 cocycle over F_7 with one value alpha(g, h),
        g, h != 0, scaled by c != 1. The identity at (x, g, h) with
        x not in {0, g} then breaks, so the twist must be refused."""
        _a, t = random_cocycle_twist(rng.randrange(1 << 30))
        g, h = rng.randrange(1, 3), rng.randrange(1, 3)
        alpha = dict(t.alpha)
        alpha[(g, h)] = F7.mul(alpha[(g, h)], rng.randrange(2, 7))
        return serialize.emit_twist(TwistingSystem(t.algebra, COCYCLE, alpha=alpha))

    def _write_item4(self):
        base = json.loads((self.fixtures / "z2.alg.json").read_text())
        variants = {
            "item4-zero-denominator": ("mult", {**base["mult"], "1,1": {"rows": 1, "cols": 1, "entries": ["1/0"]}}),
            "item4-empty-mult": ("mult", []),
            "item4-fractional-dim": ("dims", {"0": 1, "1": 1.5}),
            "item4-string-unit": ("unit", "1"),
        }
        for vid, (key, value) in variants.items():
            serialize.write_json(self.work / f"{vid}.alg.json", {**base, key: value})

    def verdicts(self, in_process: bool) -> list[Verdict]:
        fx = lambda name: str(self.fixtures / name)  # noqa: E731
        w = lambda name: str(self.work / name)  # noqa: E731
        o = lambda name: str(self.out / name)  # noqa: E731
        ok0 = [
            ("check-group", ["check-group", fx("s3.group.json")], []),
            ("check-algebra", ["check-algebra", fx("z3f7.alg.json")], []),
            ("check-module", ["check-module", fx("reg-z2.mod.json")], []),
            ("check-twist", ["check-twist", fx("sign.twist.json"), fx("z2.alg.json")], []),
            ("twist-algebra", ["twist-algebra", fx("sign.twist.json"), fx("z2.alg.json"),
                               "-o", o("tw.alg.json")], ["tw.alg.json"]),
            ("twist-module", ["twist-module", fx("sign.twist.json"), fx("reg-z2.mod.json"),
                              "-o", o("tw.mod.json")], ["tw.mod.json"]),
            ("zm-forward", ["zm-forward", fx("sign.twist.json"), fx("reg-z2.mod.json"),
                            "-o", o("zm.mod.json")], ["zm.mod.json"]),
            ("check-phi", ["check-phi", w("sign.phi.json"), w("sign_tw.alg.json"), fx("z2.alg.json")], []),
            ("twist-from-phi", ["twist-from-phi", w("sign.phi.json"), w("sign_tw.alg.json"),
                                fx("z2.alg.json"), "-o", o("rec.twist.json"),
                                "--morphism-out", o("rec.morphism.json")],
             ["rec.twist.json", "rec.morphism.json"]),
            ("hom-space", ["hom-space", fx("reg-z2.mod.json"), fx("reg-z2.mod.json"), "-g", "1",
                           "-o", o("hom.json")], ["hom.json"]),
            ("gamma", ["gamma", fx("z3.alg.json"), "-o", o("gamma.alg.json")], ["gamma.alg.json"]),
            ("verify-endo", ["verify-endo", fx("s3.alg.json")], []),
            ("shift-props", ["shift-props", fx("reg-z2.mod.json"), fx("reg-z2.mod.json"),
                             "-g", "1", "-d", "0"], []),
            ("gamma-twist", ["gamma-twist", fx("sign.twist.json"), fx("z2.alg.json"),
                             "-o", o("phi.json")], ["phi.json"]),
            ("backward", ["backward", fx("sign.twist.json"), fx("z2.alg.json"),
                          "-o", o("back.twist.json"), "--iso-out", o("back.iso.json")],
             ["back.twist.json", "back.iso.json"]),
            ("demo-sign-twist", ["demo", "sign-twist"], []),
            ("demo-quantum-plane", ["demo", "quantum-plane"], []),
        ]
        out = [Verdict(vid, "cli", self._invocation(vid, args, 0, outputs, in_process))
               for vid, args, outputs in ok0]
        for i in range(len(self.broken)):
            vid = f"broken-{i}"
            out.append(Verdict(vid, "cli", self._invocation(
                vid, ["check-algebra", w(f"{vid}.alg.json")], 1, [], in_process)))
            out.append(Verdict(f"{vid}-oracle", "oracle", self._oracle_refuses(self.broken[i])))
        out.append(Verdict("non-cocycle", "cli", self._invocation(
            "non-cocycle", ["check-twist", w("noncocycle.twist.json"), fx("z3f7.alg.json")], 1, [],
            in_process)))
        for vid in ("truncated", "missing-key", *KNOWN_DEFECTS):
            out.append(Verdict(vid, "cli", self._invocation(
                vid, ["check-algebra", w(f"{vid}.alg.json")], 2, [], in_process),
                defect=KNOWN_DEFECTS.get(vid)))
        return out

    def _oracle_refuses(self, algebra):
        def run():
            t0 = perf()
            report = graded.cauchy_algebra_oracle(algebra)
            seconds = perf() - t0
            ok = report.passed and report.witness["assembled"]["status"] == "fail"
            return Outcome(ok, seconds, "" if ok else f"oracle {report!r}")
        return run

    def _invocation(self, vid, args, expect, outputs, in_process):
        args = [*args, "--format", "structured"]

        def run():
            for name in outputs:
                with contextlib.suppress(FileNotFoundError):
                    (self.out / name).unlink()
            if in_process:
                code, stdout, stderr, seconds = _call_in_process(args)
            else:
                t0 = perf()
                proc = subprocess.run(
                    [sys.executable, "-m", "gradedtwist.cli", *args],
                    env=self.env, capture_output=True, text=True, timeout=60,
                )
                seconds = perf() - t0
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            observed = (code, "Traceback" in stderr)
            problems = []
            if observed != (expect, False):
                problems.append(f"exit {code} (expected {expect})"
                                + (" with a traceback" if observed[1] else ""))
            elif expect in (0, 1):
                problems += _structured_problems(stdout, expect)
            if not problems and outputs:
                got = {name: file_digest(self.out / name) for name in outputs}
                problems += compare_digests(self.name, vid, got)
            return Outcome(not problems, seconds, "; ".join(problems), observed)

        return run

    def after_checks(self) -> list[tuple[str, bool]]:
        return []

    def summary(self, groups, samples) -> dict:
        p50 = median(samples["cli"])
        q, tail, n = tail_percentile(samples["cli"])
        return {
            "cli_p50_s": (p50, "s", f"median of {n} invocations"),
            "cli_tail_s": (tail, "s", f"p{q} of {n} invocations"),
            "headline_s": (p50, "s", "= cli_p50_s"),
        }


def _call_in_process(args):
    """Run one command line in this process, as `python -m` would."""
    from gradedtwist import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="gradedtwist")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error: the interpreter would print it and exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), perf() - t0


def _structured_problems(stdout, expect) -> list[str]:
    try:
        reports = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return ["structured output is not JSON lines"]
    if not reports:
        return ["no report printed"]
    statuses = [r.get("status") for r in reports]
    if expect == 0 and any(s != "pass" for s in statuses):
        return [f"statuses {statuses} on exit 0"]
    if expect == 1 and not any(r.get("status") == "fail" and "witness" in r for r in reports):
        return ["exit 1 without a failing report and witness"]
    return []


# ---------------------------------------------------------------------------
# backward-qq


RUNGS = (2, 3, 4)


class BackwardQQ:
    """The quantum_plane(maxdeg) ladder over QQ on the integer-window
    grading: equivalence_from_twist -> check_equivalence -> backward."""

    name = "backward-qq"

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.work = workdir
        self.order = list(RUNGS)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for maxdeg in RUNGS:
            a, t = quantum_plane(maxdeg=maxdeg)
            serialize.write_json(self.work / f"qp{maxdeg}.alg.json", serialize.emit_algebra(a))
            serialize.write_json(self.work / f"qp{maxdeg}.twist.json", serialize.emit_twist(t))

    def verdicts(self, in_process: bool) -> list[Verdict]:
        return [Verdict(f"qp{m}", f"qp{m}", self._rung(m)) for m in self.order]

    def _rung(self, maxdeg):
        def run():
            a = serialize.parse_algebra(serialize.read_json(self.work / f"qp{maxdeg}.alg.json"))
            t = serialize.parse_twist(serialize.read_json(self.work / f"qp{maxdeg}.twist.json"), a)
            t0 = perf()
            data = equivalence.equivalence_from_twist(t)
            eq_report = equivalence.check_equivalence(data)
            result = equivalence.backward(data)
            seconds = perf() - t0
            problems = []
            if not eq_report.passed:
                problems.append(f"check_equivalence {eq_report!r}")
            if not result.report.passed:
                problems.append(f"backward {result.report!r}")
            else:
                got = {
                    "twist": digest(serialize.emit_twist(result.twist)),
                    "iso": digest(serialize.emit_morphism(result.iso)),
                    "gamma_a": digest(serialize.emit_algebra(result.family.target)),
                }
                problems += compare_digests(self.name, f"qp{maxdeg}", got)
            oracle = graded.cauchy_algebra_oracle(data.twisted)
            if not oracle.passed or oracle.witness is not None:
                problems.append(f"cauchy oracle on the twisted algebra {oracle!r}")
            module_report = graded.check_module(graded.regular_module(data.twisted))
            if not module_report.passed:
                problems.append(f"regular module of the twisted algebra {module_report!r}")
            return Outcome(not problems, seconds, "; ".join(problems))

        return run

    def after_checks(self) -> list[tuple[str, bool]]:
        a, t = quantum_plane(maxdeg=3)
        data = equivalence.equivalence_from_twist(t)
        checks = []
        for label, algebra in (("A", a), ("B", data.twisted)):
            reg = graded.regular_module(algebra)
            for g in algebra.support():
                same = enriched.module_hom_space(reg, reg, g).kernel == enriched.direct_intertwiner_basis(reg, reg, g)
                checks.append((f"qp3 {label} Hom degree {g} equals direct_intertwiner_basis", same))
        return checks

    def summary(self, groups, samples) -> dict:
        out = {f"backward_qp{m}_s": (median(groups[f"qp{m}"]), "s", "median per rung") for m in RUNGS}
        out["headline_s"] = (out["backward_qp4_s"][0], "s", "= backward_qp4_s")
        return out


# ---------------------------------------------------------------------------
# gamma-fp


def _cocycle_groups():
    return [
        ("S3", symmetric_group(3)),
        ("Z4", cyclic_group(4)),
        ("Z2xZ2", klein_four()),
        ("Z6", cyclic_group(6)),
        ("Z8", cyclic_group(8)),
    ]


class GammaFp:
    """k[S4] over F_7 (Gamma, then endo_iso), backward on seeded
    coboundary twists, and seeded one-entry perturbations that the
    checkers must refuse with a witness."""

    name = "gamma-fp"

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.work = workdir
        self.seed = seed
        self.alphas = {}
        self.refusals = []
        self.s4_gamma = None

    def setup(self):
        rng = random.Random(self.seed)
        self.work.mkdir(parents=True, exist_ok=True)
        serialize.write_json(self.work / "s4.alg.json", serialize.emit_algebra(group_algebra(symmetric_group(4), F7)))
        for label, group in _cocycle_groups():
            a = group_algebra(group, F7)
            alpha = self._coboundary(group, rng)
            self.alphas[label] = alpha
            serialize.write_json(self.work / f"{label}.alg.json", serialize.emit_algebra(a))
            serialize.write_json(self.work / f"{label}.twist.json",
                       serialize.emit_twist(TwistingSystem(a, COCYCLE, alpha=alpha)))
            self.refusals += self._perturbations(label, a, rng)

    @staticmethod
    def _coboundary(group, rng) -> dict:
        """alpha(x, y) = beta(x) beta(y) / beta(xy) with beta(e) = 1,
        so alpha is normalized and backward must return it exactly."""
        beta = {g: 1 if g == group.identity else rng.randrange(1, 7) for g in group.elements()}
        return {
            (x, y): F7.mul(F7.mul(beta[x], beta[y]), F7.inv(beta[group.mul(x, y)]))
            for x in group.elements() for y in group.elements()
        }

    @staticmethod
    def _perturbations(label, a, rng):
        """One-entry perturbations, each set to v in {2, 3, 4, 5}.

        For a group of order >= 3 every such change breaks the axioms:
        m_{g,h} = [v] breaks unitality (g or h = e) or associativity at
        (x, g, h) with x not in {e, g}; the same holds for one action
        matrix of the regular module; and f_g = [v] in the identity
        morphism breaks the unit (g = e) or multiplicativity at
        (g, g^-1), since v != 1 and v^2 != 1.
        """
        group = a.group
        elements = list(group.elements())
        one = lambda v: Matrix(1, 1, F7, [v])  # noqa: E731
        pair = (rng.choice(elements), rng.choice(elements))
        alg = GradedAlgebra(a.space, {**a.mult, pair: one(rng.randrange(2, 6))}, a.unit, F7)
        pair = (rng.choice(elements), rng.choice(elements))
        mod = GradedModule(a.space, a, {**a.mult, pair: one(rng.randrange(2, 6))})
        g = rng.choice(elements)
        comps = {h: one(rng.randrange(2, 6) if h == g else 1) for h in elements}
        morph = GradedMorphism(a.space, a.space, comps, F7)

        def refuse_algebra():
            t0 = perf()
            direct = graded.check_algebra(alg)
            oracle = graded.cauchy_algebra_oracle(alg)
            seconds = perf() - t0
            ok = (not direct.passed and direct.witness is not None and oracle.passed
                  and oracle.witness["assembled"]["status"] == "fail")
            return Outcome(ok, seconds, "" if ok else f"{direct!r} {oracle!r}")

        def refuse_module():
            t0 = perf()
            report = graded.check_module(mod)
            seconds = perf() - t0
            ok = not report.passed and report.witness is not None
            return Outcome(ok, seconds, "" if ok else repr(report))

        def refuse_morphism():
            t0 = perf()
            report = graded.check_algebra_morphism(morph, a, a)
            seconds = perf() - t0
            ok = not report.passed and report.witness is not None
            return Outcome(ok, seconds, "" if ok else repr(report))

        return [
            Verdict(f"refuse-algebra-{label}", "refuse", refuse_algebra),
            Verdict(f"refuse-module-{label}", "refuse", refuse_module),
            Verdict(f"refuse-morphism-{label}", "refuse", refuse_morphism),
        ]

    def verdicts(self, in_process: bool) -> list[Verdict]:
        out = [Verdict("s4-gamma", "s4", self._s4)]
        out += [Verdict(f"cocycle-{label}", "cocycle", self._cocycle(label))
                for label, _g in _cocycle_groups()]
        return out + self.refusals

    def _s4(self):
        a = serialize.parse_algebra(serialize.read_json(self.work / "s4.alg.json"))
        t0 = perf()
        gamma = enriched.gamma_algebra(a)
        _phi, _psi, report = enriched.endo_iso(gamma)
        seconds = perf() - t0
        self.s4_gamma = gamma
        problems = [] if report.passed else [f"endo_iso {report!r}"]
        problems += compare_digests(self.name, "s4", {"gamma": digest(serialize.emit_algebra(gamma.graded))})
        return Outcome(not problems, seconds, "; ".join(problems))

    def _cocycle(self, label):
        def run():
            a = serialize.parse_algebra(serialize.read_json(self.work / f"{label}.alg.json"))
            t = serialize.parse_twist(serialize.read_json(self.work / f"{label}.twist.json"), a)
            t0 = perf()
            data = equivalence.equivalence_from_twist(t)
            eq_report = equivalence.check_equivalence(data)
            result = equivalence.backward(data)
            seconds = perf() - t0
            problems = []
            if not eq_report.passed:
                problems.append(f"check_equivalence {eq_report!r}")
            if not result.report.passed:
                problems.append(f"backward {result.report!r}")
            else:
                got = {key: m.data for key, m in result.twist.maps.items()}
                want = {key: (value,) for key, value in self.alphas[label].items()}
                if got != want:
                    problems.append("recovered twist differs from the seeded cocycle")
            return Outcome(not problems, seconds, "; ".join(problems))

        return run

    def after_checks(self) -> list[tuple[str, bool]]:
        gamma = self.s4_gamma
        if gamma is None:
            return [("S4 Gamma was computed", False)]
        reg = gamma.module
        return [
            (f"S4 Hom degree {g} equals direct_intertwiner_basis",
             gamma.spaces[g].kernel == enriched.direct_intertwiner_basis(reg, reg, g))
            for g in gamma.degrees
        ]

    def summary(self, groups, samples) -> dict:
        out = {
            "gamma_s4_s": (median(groups["s4"]), "s", "median per pass"),
            "cocycle_backward_s": (median(groups["cocycle"]), "s", "median of per-pass sums"),
            "refuse_s": (median(groups["refuse"]), "s", "median of per-pass sums"),
        }
        out["headline_s"] = (out["gamma_s4_s"][0], "s", "= gamma_s4_s")
        return out


WORKLOADS = {w.name: w for w in (CliBatch, BackwardQQ, GammaFp)}


# ---------------------------------------------------------------------------
# statistics


TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)


def tail_percentile(samples):
    """(percentile, value, sample count) for the highest percentile that
    still has at least ten samples above it (nearest-rank); the median
    when there are too few samples for any higher one."""
    values = sorted(samples)
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10 or q == 50:
            rank = max(1, math.ceil(q * n / 100))
            return q, values[rank - 1], n
    raise AssertionError("unreachable")
