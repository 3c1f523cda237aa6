"""Batch front end: load structures from JSON files, run checks and
constructions, report pass/fail.

Exit codes: 0 when every check passes, 1 when a check reports a failure
(the witness is in the report), 2 when an input file is missing,
malformed, or semantically invalid. Reports print as text by default;
--format structured emits one JSON object per check with fields
check/status/witness/timings.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import click

from .enriched import check_shift_props, endo_iso, gamma_algebra, module_hom_space
from .equivalence import backward as backward_op
from .equivalence import check_equivalence, equivalence_from_twist, gamma_twist_phi
from .exactmath import Matrix
from .graded import check_algebra, check_module
from .groups import check_group
from .report import Report
from .serialize import (
    emit_algebra,
    emit_hom_basis,
    emit_matrix,
    emit_module,
    emit_morphism,
    emit_phi,
    emit_twist,
    parse_algebra,
    parse_group,
    parse_module,
    parse_phi,
    parse_twist,
    read_json,
    write_json,
    FileFormatError,
)
from .twist import check_phi_family, check_twist_condition, twist_algebra, twist_module
from .twist import twist_from_phi as twist_from_phi_op


def _jsonable(x):
    if isinstance(x, Matrix):
        return emit_matrix(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _print_report(report: Report, fmt: str, seconds: float):
    if fmt == "structured":
        out = report.as_dict()
        if "witness" in out:
            out["witness"] = _jsonable(out["witness"])
        out["timings"] = {"seconds": round(seconds, 6)}
        click.echo(json.dumps(out))
    else:
        line = f"{report.check}: {report.status}"
        if report.witness is not None:
            line += f"  witness={report.witness!r}"
        click.echo(line)
        for note in report.notes:
            click.echo(f"  note: {note}")
        click.echo(f"  [{seconds * 1000:.1f} ms]")


def _finish(report: Report, fmt: str, seconds: float):
    _print_report(report, fmt, seconds)
    sys.exit(0 if report.passed else 1)


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write(outputs: dict):
    """Write each {path: data} output file, or none of them: a path that
    cannot be written is an input error. Every path is first opened for
    appending, which changes no content, and the files that this opening
    created are removed again when a later path cannot be opened."""
    created = []
    for path in outputs:
        existed = os.path.lexists(path)
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            for made in created:
                os.remove(made)
            _fail_input(f"{path}: {exc.strerror or exc}")
        if not existed:
            created.append(path)
    for path, data in outputs.items():
        try:
            write_json(path, data)
        except OSError as exc:
            _fail_input(f"{path}: {exc.strerror or exc}")


def _load(path, parser, *args, **kwargs):
    try:
        return parser(read_json(path), *args, **kwargs)
    except FileFormatError as exc:
        _fail_input(str(exc))
    except (ValueError, TypeError, KeyError) as exc:
        _fail_input(f"{path}: {exc}")


def _load_module(path):
    return _load(path, parse_module, base_dir=Path(path).parent)


def _check_modules(*modules) -> Report:
    """The first failing check_module report of the distinct modules, else the last."""
    distinct = [m for i, m in enumerate(modules) if m not in modules[:i]]
    reports = [check_module(module) for module in distinct]
    return next((r for r in reports if not r.passed), reports[-1])


common_options = click.option(
    "--format", "fmt", type=click.Choice(["text", "structured"]), default="text",
    help="report style", show_default=True,
)


@click.group()
def main():
    """Verify and transform graded algebras, modules, and twisting systems."""


@main.command("check-group")
@click.argument("group_file", type=click.Path())
@common_options
def cmd_check_group(group_file, fmt):
    """Check the group axioms on a multiplication table."""
    group = _load(group_file, parse_group)
    t0 = time.perf_counter()
    report = check_group(group)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("check-algebra")
@click.argument("algebra_file", type=click.Path())
@common_options
def cmd_check_algebra(algebra_file, fmt):
    """Check associativity and unitality of a graded algebra."""
    algebra = _load(algebra_file, parse_algebra)
    t0 = time.perf_counter()
    report = check_algebra(algebra)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("check-module")
@click.argument("module_file", type=click.Path())
@common_options
def cmd_check_module(module_file, fmt):
    """Check the action axioms of a graded module."""
    module = _load_module(module_file)
    t0 = time.perf_counter()
    report = check_module(module)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("check-twist")
@click.argument("twist_file", type=click.Path())
@click.argument("algebra_file", type=click.Path())
@common_options
def cmd_check_twist(twist_file, algebra_file, fmt):
    """Check the twisting-system condition against an algebra."""
    algebra = _load(algebra_file, parse_algebra)
    t = _load(twist_file, parse_twist, algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("twist-algebra")
@click.argument("twist_file", type=click.Path())
@click.argument("algebra_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True)
@common_options
def cmd_twist_algebra(twist_file, algebra_file, output, fmt):
    """Write the twisted algebra to a file (after checking the twist)."""
    algebra = _load(algebra_file, parse_algebra)
    t = _load(twist_file, parse_twist, algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    if report.passed:
        _write({output: emit_algebra(twist_algebra(algebra, t))})
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("twist-module")
@click.argument("twist_file", type=click.Path())
@click.argument("module_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True)
@common_options
def cmd_twist_module(twist_file, module_file, output, fmt):
    """Write the twisted module to a file (after checking the twist).

    Also registered as zm-forward: the twist equivalence applied to one module.
    """
    module = _load_module(module_file)
    t = _load(twist_file, parse_twist, module.algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    if report.passed:
        try:
            twisted = twist_module(module, t)
        except ValueError as exc:
            _fail_input(f"{module_file}: {exc}")
        _write({output: emit_module(twisted)})
    _finish(report, fmt, time.perf_counter() - t0)


main.add_command(cmd_twist_module, "zm-forward")


@main.command("check-phi")
@click.argument("phi_file", type=click.Path())
@click.argument("source_algebra", type=click.Path())
@click.argument("target_algebra", type=click.Path())
@common_options
def cmd_check_phi(phi_file, source_algebra, target_algebra, fmt):
    """Check the multiplicative-family conditions of a phi family."""
    source = _load(source_algebra, parse_algebra)
    target = _load(target_algebra, parse_algebra)
    fam = _load(phi_file, parse_phi, source, target)
    t0 = time.perf_counter()
    report = check_phi_family(fam)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("twist-from-phi")
@click.argument("phi_file", type=click.Path())
@click.argument("source_algebra", type=click.Path())
@click.argument("target_algebra", type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True,
              help="file for the recovered twisting system")
@click.option("--morphism-out", type=click.Path(), default=None,
              help="optional file for the induced morphism onto the twisted algebra")
@common_options
def cmd_twist_from_phi(phi_file, source_algebra, target_algebra, output,
                       morphism_out, fmt):
    """Recover a twisting system from a multiplicative phi family."""
    source = _load(source_algebra, parse_algebra)
    target = _load(target_algebra, parse_algebra)
    fam = _load(phi_file, parse_phi, source, target)
    t0 = time.perf_counter()
    report = check_phi_family(fam)
    if report.passed:
        try:
            system, _twisted, morphism = twist_from_phi_op(fam)
        except ValueError as exc:
            _fail_input(f"{phi_file}: {exc}")
        outputs = {output: emit_twist(system)}
        if morphism_out:
            outputs[morphism_out] = emit_morphism(morphism)
        _write(outputs)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("hom-space")
@click.argument("source_module", type=click.Path())
@click.argument("target_module", type=click.Path())
@click.option("-g", "--degree", type=int, required=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="optional file for the canonical basis export")
@common_options
def cmd_hom_space(source_module, target_module, degree, output, fmt):
    """Compute a graded module Hom space and report its dimension (after checking both modules)."""
    m = _load_module(source_module)
    n = _load_module(target_module)
    t0 = time.perf_counter()
    report = _check_modules(m, n)
    if report.passed:
        try:
            space = module_hom_space(m, n, degree)
        except ValueError as exc:
            _fail_input(str(exc))
        if output:
            _write({output: emit_hom_basis(space, degree)})
        report = Report("module_hom_space", True, notes=(f"degree {degree} dimension {space.dim}",))
    _finish(report, fmt, time.perf_counter() - t0)


def _checked_gamma(algebra):
    """check_algebra's report on `algebra`, and its Gamma when the check
    passes (else None); Gamma reads the passing report kept on `algebra`."""
    report = check_algebra(algebra)
    if not report.passed:
        return report, None
    try:
        return report, gamma_algebra(algebra)
    except ValueError as exc:
        _fail_input(str(exc))


@main.command("gamma")
@click.argument("algebra_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True,
              help="file for the graded endomorphism algebra")
@common_options
def cmd_gamma(algebra_file, output, fmt):
    """Compute the graded endomorphism algebra of the regular module
    (after checking the algebra)."""
    algebra = _load(algebra_file, parse_algebra)
    t0 = time.perf_counter()
    report, gamma = _checked_gamma(algebra)
    if report.passed:
        _write({output: emit_algebra(gamma.graded)})
        dims = {g: gamma.dim(g) for g in gamma.degrees if gamma.dim(g)}
        report = Report("gamma_algebra", True, notes=(f"dimensions {dims}",))
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("verify-endo")
@click.argument("algebra_file", type=click.Path())
@common_options
def cmd_verify_endo(algebra_file, fmt):
    """Verify the isomorphism between an algebra and its graded endomorphism
    algebra (after checking the algebra)."""
    algebra = _load(algebra_file, parse_algebra)
    t0 = time.perf_counter()
    report, gamma = _checked_gamma(algebra)
    if report.passed:
        _phi, _psi, report = endo_iso(gamma)
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("shift-props")
@click.argument("source_module", type=click.Path())
@click.argument("target_module", type=click.Path())
@click.option("-g", "--shift", "shift_degree", type=int, required=True)
@click.option("-d", "--degree", type=int, required=True)
@common_options
def cmd_shift_props(source_module, target_module, shift_degree, degree, fmt):
    """Check the three shift identities on a pair of modules (after checking both)."""
    m = _load_module(source_module)
    n = _load_module(target_module)
    t0 = time.perf_counter()
    report = _check_modules(m, n)
    if report.passed:
        try:
            report = check_shift_props(m, n, shift_degree, degree)
        except ValueError as exc:
            _fail_input(str(exc))
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("gamma-twist")
@click.argument("twist_file", type=click.Path())
@click.argument("algebra_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None,
              help="optional file for the transported phi family")
@common_options
def cmd_gamma_twist(twist_file, algebra_file, output, fmt):
    """Transport a twist along graded endomorphism algebras into a phi family."""
    algebra = _load(algebra_file, parse_algebra)
    t = _load(twist_file, parse_twist, algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    if report.passed:
        data = equivalence_from_twist(t)
        family, report = gamma_twist_phi(data)
        if family is not None and output:
            _write({output: emit_phi(family)})
    _finish(report, fmt, time.perf_counter() - t0)


@main.command("backward")
@click.argument("twist_file", type=click.Path())
@click.argument("algebra_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None,
              help="optional file for the recovered twisting system")
@click.option("--iso-out", type=click.Path(), default=None,
              help="optional file for the isomorphism onto the twisted algebra")
@common_options
def cmd_backward(twist_file, algebra_file, output, iso_out, fmt):
    """Recover a twist from the equivalence induced by a known one."""
    algebra = _load(algebra_file, parse_algebra)
    t = _load(twist_file, parse_twist, algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    if report.passed:
        data = equivalence_from_twist(t)
        report = check_equivalence(data)
        if report.passed:
            result = backward_op(data)
            report = result.report
            if report.passed:
                outputs = {output: emit_twist(result.twist)} if output else {}
                if iso_out:
                    outputs[iso_out] = emit_morphism(result.iso)
                _write(outputs)
    _finish(report, fmt, time.perf_counter() - t0)


def _fixture(name: str):
    return resources.files("gradedtwist").joinpath("fixtures", name)


@main.command("demo")
@click.argument("name", type=click.Choice(["quantum-plane", "sign-twist"]))
@common_options
def cmd_demo(name, fmt):
    """Run a bundled end-to-end example and narrate the result."""
    algebra_file, twist_file = {
        "quantum-plane": ("trunc23.alg.json", "quantum.twist.json"),
        "sign-twist": ("z2.alg.json", "sign.twist.json"),
    }[name]
    algebra = parse_algebra(read_json(_fixture(algebra_file)))
    t = parse_twist(read_json(_fixture(twist_file)), algebra)
    t0 = time.perf_counter()
    report = check_twist_condition(t)
    timed = [(report, time.perf_counter() - t0)]
    if name == "quantum-plane":
        lines = [
            "Truncated polynomial algebra on x, y up to total degree 3,",
            "twisted by the automorphism y -> 2y taken degreewise.",
        ]
        if report.passed:
            t0 = time.perf_counter()
            twisted = twist_algebra(algebra, t)
            mult = twisted.mult_map(1, 1)
            x_y = mult.col(1)
            y_x = mult.col(2)
            scaled = tuple(2 * v for v in y_x)
            relation = Report("quantum-plane-relation", x_y == scaled)
            timed.append((relation, time.perf_counter() - t0))
            if relation.passed:
                lines.append("In the twisted algebra the variables q-commute:")
                lines.append("  x★y = 2·(y★x)")
    else:
        lines = [
            "Group algebra of the order-two group, twisted by the sign cocycle.",
        ]
        if report.passed:
            t0 = time.perf_counter()
            result = backward_op(equivalence_from_twist(t))
            timed.append((result.report, time.perf_counter() - t0))
            twisted = twist_algebra(algebra, t)
            value = twisted.mult_map(1, 1).data[0]
            lines.append(f"The twisted square of the generator is {value},")
            lines.append("and the recovery pipeline returns the same twist bit-exactly.")
    if fmt == "text":
        for line in lines:
            click.echo(line)
    for r, seconds in timed:
        _print_report(r, fmt, seconds)
    sys.exit(0 if all(r.passed for r, _seconds in timed) else 1)


if __name__ == "__main__":
    main()
