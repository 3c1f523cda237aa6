"""Command-line behavior: exit codes, report formats, file pipelines,
and the bundled demos."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import gradedtwist
from gradedtwist import cli as cli_lib
from gradedtwist import graded as graded_lib
from gradedtwist import twist as twist_lib
from gradedtwist.cli import main
from gradedtwist.equivalence import equivalence_from_twist, gamma_twist_phi
from gradedtwist.exactmath import QQ, Matrix
from gradedtwist.fixtures import quantum_plane, sign_twist, z3_group_algebra
from gradedtwist.graded import regular_module, shift_module
from gradedtwist.groups import cyclic_group
from gradedtwist.serialize import (
    emit_algebra,
    emit_group,
    emit_matrix,
    emit_module,
    emit_phi,
    parse_algebra,
    parse_morphism,
    parse_twist,
    read_json,
    write_json,
)
from gradedtwist.twist import PhiFamily, TwistingSystem, phi_from_twist, twist_algebra

FIXTURES = Path(gradedtwist.__file__).parent / "fixtures"


@pytest.fixture
def runner():
    return CliRunner()


def fx(name):
    return str(FIXTURES / name)


class TestChecks:
    def test_check_group(self, runner):
        result = runner.invoke(main, ["check-group", fx("s3.group.json")])
        assert result.exit_code == 0
        assert "check_group: pass" in result.output

    def test_check_algebra_structured(self, runner):
        result = runner.invoke(
            main, ["check-algebra", fx("trunc23.alg.json"), "--format", "structured"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["check"] == "check_algebra"
        assert report["status"] == "pass"
        assert "seconds" in report["timings"]

    def test_check_module(self, runner):
        result = runner.invoke(main, ["check-module", fx("reg-z2.mod.json")])
        assert result.exit_code == 0

    def test_check_identity_twist(self, runner):
        result = runner.invoke(main, ["check-twist", fx("ident.twist.json"), fx("z2.alg.json")])
        assert result.exit_code == 0
        assert "pass" in result.output

    def test_failing_twist_reports_witness(self, runner, tmp_path):
        bad = tmp_path / "bad.twist.json"
        write_json(bad, {"kind": "cocycle",
                         "alpha": {"0,0": "1", "0,1": "-1", "1,0": "1", "1,1": "-1"}})
        result = runner.invoke(
            main, ["check-twist", str(bad), fx("z2.alg.json"), "--format", "structured"]
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["status"] == "fail"
        assert report["witness"] == ["twist-condition", [0, 0, 1]]


class TestPipelines:
    def test_twist_algebra_then_check(self, runner, tmp_path):
        out = tmp_path / "twisted.alg.json"
        result = runner.invoke(
            main, ["twist-algebra", fx("sign.twist.json"), fx("z2.alg.json"), "-o", str(out)]
        )
        assert result.exit_code == 0
        result = runner.invoke(main, ["check-algebra", str(out)])
        assert result.exit_code == 0
        algebra = parse_algebra(read_json(out))
        assert algebra.mult_map(1, 1).data == (-1,)

    def test_twist_module_and_zm_forward_agree(self, runner, tmp_path):
        a_out = tmp_path / "a.mod.json"
        b_out = tmp_path / "b.mod.json"
        for cmd, out in (("twist-module", a_out), ("zm-forward", b_out)):
            result = runner.invoke(
                main, [cmd, fx("sign.twist.json"), fx("reg-z2.mod.json"), "-o", str(out)]
            )
            assert result.exit_code == 0
        assert read_json(a_out) == read_json(b_out)
        result = runner.invoke(main, ["check-module", str(a_out)])
        assert result.exit_code == 0

    def test_twist_module_builds_the_twisted_algebra_once(self, runner, tmp_path, monkeypatch):
        # the twist check builds A^tau and keeps it on the system; the module is put over it
        built = []
        real = twist_lib.GradedAlgebra
        monkeypatch.setattr(twist_lib, "GradedAlgebra", lambda *args: built.append(real(*args)) or built[-1])
        result = runner.invoke(
            main, ["twist-module", fx("sign.twist.json"), fx("reg-z2.mod.json"), "-o", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 0
        assert len(built) == 1

    def test_phi_round_trip_through_files(self, runner, tmp_path):
        a, t = sign_twist()
        fam = phi_from_twist(t)
        phi_file = tmp_path / "fam.phi.json"
        write_json(phi_file, emit_phi(fam))
        twisted_file = tmp_path / "twisted.alg.json"
        runner.invoke(
            main, ["twist-algebra", fx("sign.twist.json"), fx("z2.alg.json"), "-o", str(twisted_file)]
        )
        result = runner.invoke(
            main, ["check-phi", str(phi_file), fx("z2.alg.json"), str(twisted_file)]
        )
        assert result.exit_code == 0
        out = tmp_path / "rec.twist.json"
        result = runner.invoke(
            main,
            ["twist-from-phi", str(phi_file), fx("z2.alg.json"), str(twisted_file),
             "-o", str(out), "--morphism-out", str(tmp_path / "iso.json")],
        )
        assert result.exit_code == 0
        recovered = parse_twist(read_json(out), a)
        for d in (0, 1):
            for g in (0, 1):
                assert recovered.tau(d, g) == t.tau(d, g)
        iso = parse_morphism(read_json(tmp_path / "iso.json"))
        assert iso.component(0).is_identity()

    def test_tampered_phi_fails(self, runner, tmp_path):
        _a, t = sign_twist()
        data = emit_phi(phi_from_twist(t))
        data["maps"]["0,1"]["entries"] = ["2"]
        phi_file = tmp_path / "fam.phi.json"
        write_json(phi_file, data)
        twisted_file = tmp_path / "twisted.alg.json"
        runner.invoke(
            main, ["twist-algebra", fx("sign.twist.json"), fx("z2.alg.json"), "-o", str(twisted_file)]
        )
        result = runner.invoke(
            main, ["check-phi", str(phi_file), fx("z2.alg.json"), str(twisted_file)]
        )
        assert result.exit_code == 1

    def test_twist_from_phi_checks_the_family_once(self, runner, tmp_path, monkeypatch):
        _a, t = sign_twist()
        phi_file = tmp_path / "fam.phi.json"
        write_json(phi_file, emit_phi(phi_from_twist(t)))
        twisted_file = tmp_path / "twisted.alg.json"
        write_json(twisted_file, emit_algebra(twist_algebra(t.algebra, t)))
        args = [str(phi_file), fx("z2.alg.json"), str(twisted_file)]
        expected = runner.invoke(main, ["check-phi", *args, "--format", "structured"])
        # the family check's multiplicativity loop is the one that reads phi
        # from the family; a second check_phi_family call is a lookup
        checked = []
        real = twist_lib._multiplicativity_failure

        def counted(target, source, dees, phi, has):
            if isinstance(getattr(phi, "__self__", None), PhiFamily):
                checked.append(phi.__self__)
            return real(target, source, dees, phi, has)

        monkeypatch.setattr(twist_lib, "_multiplicativity_failure", counted)
        result = runner.invoke(main, ["twist-from-phi", *args, "-o", str(tmp_path / "out.json"),
                                      "--format", "structured"])
        assert result.exit_code == 0
        assert len(checked) == 1
        drop_timings = lambda out: {k: v for k, v in json.loads(out).items() if k != "timings"}
        assert drop_timings(result.output) == drop_timings(expected.output)
        assert parse_twist(read_json(tmp_path / "out.json"), t.algebra).maps == t.maps


class TestSpacesAndEndo:
    def test_hom_space_dimension_and_export(self, runner, tmp_path):
        out = tmp_path / "basis.json"
        result = runner.invoke(
            main,
            ["hom-space", fx("reg-z2.mod.json"), fx("reg-z2.mod.json"),
             "-g", "1", "-o", str(out)],
        )
        assert result.exit_code == 0
        assert "dimension 1" in result.output
        exported = read_json(out)
        assert exported["degree"] == 1
        assert len(exported["basis"]) == 1

    def test_gamma_of_group_algebra_is_the_algebra(self, runner, tmp_path):
        out = tmp_path / "gamma.alg.json"
        result = runner.invoke(main, ["gamma", fx("z3.alg.json"), "-o", str(out)])
        assert result.exit_code == 0
        assert parse_algebra(read_json(out)) == z3_group_algebra()

    @pytest.mark.parametrize("command", ["gamma", "verify-endo"])
    def test_gamma_refuses_a_non_algebra(self, runner, tmp_path, command):
        data = read_json(FIXTURES / "z2.alg.json")
        data["mult"]["0,0"]["entries"] = ["1/2"]
        bad = tmp_path / "bad.alg.json"
        write_json(bad, data)
        out = tmp_path / "gamma.alg.json"
        options = ["-o", str(out)] if command == "gamma" else []
        result = runner.invoke(main, [command, str(bad), *options])
        assert result.exit_code == 1
        assert "check_algebra: fail  witness=('associativity', (0, 0, 1))" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("hom-space", ["-g", "1", "-o", "basis.json"]),
        ("shift-props", ["-g", "1", "-d", "1"]),
    ])
    def test_a_non_module_is_refused(self, runner, tmp_path, command, options):
        data = read_json(FIXTURES / "reg-z2.mod.json")
        data["action"]["1,1"]["entries"] = ["2"]
        bad = tmp_path / "bad.mod.json"
        write_json(bad, data)
        witness = "check_module: fail  witness=('associativity', (0, 1, 1))"
        assert witness in runner.invoke(main, ["check-module", str(bad)]).output
        options = [str(tmp_path / x) if x.endswith(".json") else x for x in options]
        for pair in ([str(bad), fx("reg-z2.mod.json")], [fx("reg-z2.mod.json"), str(bad)]):
            result = runner.invoke(main, [command, *pair, *options])
            assert result.exit_code == 1
            assert witness in result.output
            assert not (tmp_path / "basis.json").exists()

    @pytest.mark.parametrize("command, options", [
        ("hom-space", ["-g", "1"]),
        ("shift-props", ["-g", "1", "-d", "1"]),
    ])
    def test_a_module_given_twice_is_checked_once(self, runner, monkeypatch, command, options):
        checked = []
        original = cli_lib.check_module
        monkeypatch.setattr(cli_lib, "check_module", lambda m: checked.append(m) or original(m))
        result = runner.invoke(main, [command, fx("reg-z2.mod.json"), fx("reg-z2.mod.json"), *options])
        assert result.exit_code == 0
        assert len(checked) == 1

    @pytest.mark.parametrize("command", ["gamma", "verify-endo"])
    def test_the_algebra_is_checked_once(self, runner, tmp_path, monkeypatch, command):
        # the one check_algebra also certifies the generating degrees Gamma is built on
        certified = []
        original = graded_lib.generating_degrees
        monkeypatch.setattr(graded_lib, "generating_degrees", lambda a: certified.append(a) or original(a))
        options = ["-o", str(tmp_path / "gamma.alg.json")] if command == "gamma" else []
        result = runner.invoke(main, [command, fx("s3.alg.json"), *options])
        assert result.exit_code == 0
        assert len(certified) == 1

    def test_verify_endo_s3(self, runner):
        result = runner.invoke(main, ["verify-endo", fx("s3.alg.json")])
        assert result.exit_code == 0

    def test_shift_props(self, runner):
        result = runner.invoke(
            main,
            ["shift-props", fx("reg-z2.mod.json"), fx("reg-z2.mod.json"), "-g", "1", "-d", "1"],
        )
        assert result.exit_code == 0


class TestEquivalenceCommands:
    def test_gamma_twist_writes_the_library_family(self, runner, tmp_path):
        out = tmp_path / "family.phi.json"
        result = runner.invoke(
            main, ["gamma-twist", fx("sign.twist.json"), fx("z2.alg.json"), "-o", str(out)]
        )
        assert result.exit_code == 0
        a, t = sign_twist()
        family, report = gamma_twist_phi(equivalence_from_twist(t))
        assert report.passed
        assert read_json(out) == emit_phi(family)

    def test_backward_recovers_the_sign_twist(self, runner, tmp_path):
        out = tmp_path / "rec.twist.json"
        iso_out = tmp_path / "iso.json"
        result = runner.invoke(
            main,
            ["backward", fx("sign.twist.json"), fx("z2.alg.json"),
             "-o", str(out), "--iso-out", str(iso_out)],
        )
        assert result.exit_code == 0
        a, t = sign_twist()
        recovered = parse_twist(read_json(out), a)
        for d in (0, 1):
            for g in (0, 1):
                assert recovered.tau(d, g) == t.tau(d, g)
        iso = parse_morphism(read_json(iso_out))
        assert set(iso.components) <= {0, 1}

    @pytest.mark.parametrize("twist, algebra", [("quantum.twist.json", "trunc23.alg.json"),
                                                ("sign.twist.json", "z2.alg.json")])
    def test_backward_checks_each_algebra_and_the_twist_once(self, runner, monkeypatch, twist, algebra):
        certified, evaluated = [], []
        real_certify = graded_lib.generating_degrees
        monkeypatch.setattr(graded_lib, "generating_degrees", lambda a: certified.append(a) or real_certify(a))
        # the twist condition starts with one of these two, by kind
        real_singular, real_automorphism = twist_lib._singular_entry, twist_lib._check_automorphism_kind

        def singular(dees, support, has, get):
            if isinstance(getattr(has, "__self__", None), TwistingSystem):
                evaluated.append(has.__self__)
            return real_singular(dees, support, has, get)

        monkeypatch.setattr(twist_lib, "_singular_entry", singular)
        monkeypatch.setattr(twist_lib, "_check_automorphism_kind",
                            lambda t: evaluated.append(t) or real_automorphism(t))
        result = runner.invoke(main, ["backward", fx(twist), fx(algebra)])
        assert result.exit_code == 0
        assert len(certified) == 2 and certified[0] is not certified[1]
        assert len(evaluated) == 1


class TestDemo:
    def test_quantum_plane_prints_the_relation(self, runner):
        result = runner.invoke(main, ["demo", "quantum-plane"])
        assert result.exit_code == 0
        assert "x★y = 2·(y★x)" in result.output

    def test_sign_twist_demo(self, runner):
        result = runner.invoke(main, ["demo", "sign-twist"])
        assert result.exit_code == 0
        assert "-1" in result.output


class TestMalformedInput:
    def test_syntax_error_positions(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": finite}')
        result = runner.invoke(main, ["check-group", str(bad)])
        assert result.exit_code == 2
        assert "line 1 column 10" in result.output

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["check-algebra", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command, inputs, options, option", [
        ("twist-algebra", ["sign.twist.json", "z2.alg.json"], [], "-o"),
        ("twist-module", ["sign.twist.json", "reg-z2.mod.json"], [], "-o"),
        ("twist-from-phi", ["PHI", "TWISTED", "z2.alg.json"], [], "-o"),
        ("twist-from-phi", ["PHI", "TWISTED", "z2.alg.json"], ["-o", "OUT"], "--morphism-out"),
        ("hom-space", ["reg-z2.mod.json", "reg-z2.mod.json"], ["-g", "1"], "-o"),
        ("gamma", ["z2.alg.json"], [], "-o"),
        ("gamma-twist", ["sign.twist.json", "z2.alg.json"], [], "-o"),
        ("backward", ["sign.twist.json", "z2.alg.json"], [], "-o"),
        ("backward", ["sign.twist.json", "z2.alg.json"], ["-o", "OUT"], "--iso-out"),
    ])
    def test_an_unwritable_output_exits_2(self, runner, tmp_path, command, inputs, options, option):
        _a, t = sign_twist()
        made = {"PHI": (tmp_path / "fam.phi.json", emit_phi(phi_from_twist(t))),
                "TWISTED": (tmp_path / "twisted.alg.json", emit_algebra(twist_algebra(t.algebra, t)))}
        for path, data in made.values():
            write_json(path, data)
        args = [str(made[name][0]) if name in made else fx(name) for name in inputs]
        args += [str(tmp_path / "out.json") if opt == "OUT" else opt for opt in options]
        unwritable = tmp_path / "no-such-dir" / "x.json"
        result = runner.invoke(main, [command, *args, option, str(unwritable)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: {unwritable}: " in result.output

    @pytest.mark.parametrize("command, inputs, option", [
        ("twist-from-phi", ["PHI", "TWISTED", "z2.alg.json"], "--morphism-out"),
        ("backward", ["quantum.twist.json", "trunc23.alg.json"], "--iso-out"),
    ])
    @pytest.mark.parametrize("existing", [False, True])
    def test_an_unwritable_second_output_leaves_the_first_untouched(self, runner, tmp_path, command, inputs,
                                                                     option, existing):
        _a, t = sign_twist()
        made = {"PHI": (tmp_path / "fam.phi.json", emit_phi(phi_from_twist(t))),
                "TWISTED": (tmp_path / "twisted.alg.json", emit_algebra(twist_algebra(t.algebra, t)))}
        for path, data in made.values():
            write_json(path, data)
        args = [str(made[name][0]) if name in made else fx(name) for name in inputs]
        first = tmp_path / "rec.json"
        if existing:
            first.write_text("earlier\n")
        unwritable = tmp_path / "no-such-dir" / "x.json"
        result = runner.invoke(main, [command, *args, "-o", str(first), option, str(unwritable)])
        assert result.exit_code == 2
        assert f"error: {unwritable}: " in result.output
        if existing:
            assert first.read_text() == "earlier\n"
        else:
            assert not first.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["fam.phi.json", "twisted.alg.json"] + (["rec.json"] if existing else []))
        # with both paths writable, both are written
        second = tmp_path / "second.json"
        result = runner.invoke(main, [command, *args, "-o", str(first), option, str(second)])
        assert result.exit_code == 0
        assert read_json(first) and read_json(second)

    @pytest.mark.parametrize("command", ["check-algebra", "check-phi"])
    def test_over_deep_nesting_exits_2(self, runner, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        args = [str(deep)] if command == "check-algebra" else [str(deep), fx("z2.alg.json"), fx("z2.alg.json")]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: {deep}: nested too deeply" in result.output

    def test_dangling_algebra_reference(self, runner, tmp_path):
        data = read_json(FIXTURES / "reg-z2.mod.json")
        data["algebra"] = "gone.alg.json"
        mod_file = tmp_path / "m.mod.json"
        write_json(mod_file, data)
        result = runner.invoke(main, ["check-module", str(mod_file)])
        assert result.exit_code == 2

    def test_a_module_keeps_its_own_window(self, runner, tmp_path):
        # degree 8 lies outside the algebra's window but inside the module's
        module_file = tmp_path / "shifted.mod.json"
        write_json(module_file, emit_module(shift_module(regular_module(quantum_plane(3)[0]), 5)))
        result = runner.invoke(main, ["check-module", str(module_file)])
        assert result.exit_code == 0

    @pytest.mark.parametrize("group", [emit_group(cyclic_group(3)), None], ids=["z3", "missing"])
    def test_a_module_group_other_than_its_algebras(self, runner, tmp_path, group):
        data = read_json(FIXTURES / "reg-z2.mod.json")
        data["group"] = group
        if group is None:
            del data["group"]
        mod_file = tmp_path / "m.mod.json"
        write_json(mod_file, data)
        result = runner.invoke(main, ["check-module", str(mod_file)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "group" in result.output

    def test_hom_space_mismatched_algebras(self, runner):
        result = runner.invoke(
            main,
            ["hom-space", fx("reg-z2.mod.json"), fx("reg-z2.mod.json"), "-g", "5"],
        )
        assert result.exit_code == 2

    def test_unknown_command(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    def test_jobs_is_not_an_option(self, runner):
        result = runner.invoke(main, ["check-group", fx("s3.group.json"), "--jobs", "1"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["check-group", fx("s3.group.json"), "--seed", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("mutate", [
        lambda data: data["mult"]["1,1"].update(entries=["1/0"]),
        lambda data: data.update(mult=[]),
        lambda data: data["dims"].update({"1": 1.5}),
        lambda data: data.update(unit="1"),
        lambda data: data["group"]["table"][1].__setitem__(1, 0.0),
        lambda data: data["group"]["table"][1].__setitem__(1, False),
        lambda data: data["mult"]["1,1"].update(rows=1.0),
        lambda data: data["group"].update(table=[[0, 1], [1, 1]]),
        lambda data: data["mult"]["1,1"].update(entries=[0.5]),
    ], ids=["zero-denominator", "mult-list", "fractional-dim", "string-unit",
            "float-table-entry", "bool-table-entry", "float-rows", "non-group-table",
            "float-matrix-entry"])
    def test_malformed_algebra_exits_2_without_traceback(self, runner, tmp_path, mutate):
        data = read_json(FIXTURES / "z2.alg.json")
        mutate(data)
        bad = tmp_path / "bad.alg.json"
        write_json(bad, data)
        result = runner.invoke(main, ["check-algebra", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("group, exit_code", [
        ({"kind": "finite", "order": 2, "identity": 0, "table": [[0, 1], [1, 0.0]]}, 2),
        ({"kind": "finite", "order": 2, "identity": 0.0, "table": [[0, 1], [1, 0]]}, 2),
        ({"kind": "integers", "window": [-1.5, 2]}, 2),
        ({"kind": "finite", "order": 2, "identity": 0, "table": [[0, 1], [1, 1]]}, 1),
    ], ids=["float-table-entry", "float-identity", "float-window-bound", "non-group-table"])
    def test_check_group_refuses_non_integers_and_reports_non_groups(
        self, runner, tmp_path, group, exit_code
    ):
        bad = tmp_path / "bad.group.json"
        write_json(bad, group)
        result = runner.invoke(main, ["check-group", str(bad)])
        assert result.exit_code == exit_code
        assert isinstance(result.exception, SystemExit)
        if exit_code == 1:
            assert "('inverse', 1)" in result.output

    @pytest.mark.parametrize("twist", [
        {"kind": "cocycle", "alpha": {"0,0": "1"}},
        {"kind": "explicit", "maps": {f"0,{g}": emit_matrix(Matrix.identity(n, QQ))
                                      for g, n in enumerate((1, 2, 3, 4))}},
    ], ids=["cocycle-at-0-0", "explicit-at-d-0"])
    @pytest.mark.parametrize("command", ["check-twist", "twist-algebra", "gamma-twist", "backward"])
    def test_twist_window_missing_what_the_twisted_algebra_reads(self, runner, tmp_path, command, twist):
        twist_file = tmp_path / "window.twist.json"
        write_json(twist_file, twist)
        args = [command, str(twist_file), fx("trunc23.alg.json")]
        if command != "check-twist":
            args += ["-o", str(tmp_path / "out.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not stored" in result.output

    def test_twist_module_degree_outside_the_stored_window(self, runner, tmp_path):
        data = read_json(FIXTURES / "trunc23.alg.json")
        data["group"]["window"] = [-2, 3]
        module_file = tmp_path / "shifted.mod.json"
        write_json(module_file, emit_module(shift_module(regular_module(parse_algebra(data)), -2)))
        twist_file = tmp_path / "ones.twist.json"
        write_json(twist_file, {"kind": "cocycle", "alpha": {f"{d},{g}": "1" for d in range(4) for g in range(4)}})
        result = runner.invoke(
            main, ["twist-module", str(twist_file), str(module_file), "-o", str(tmp_path / "out.json")]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not stored for (-2,0)" in result.output

    def test_twist_from_phi_family_too_short_to_recover_from(self, runner, tmp_path):
        # a valid window family whose d = 0 slice lacks the tau_g(h), g != 0, that A^tau reads
        fam = phi_from_twist(quantum_plane(3)[1])
        short = PhiFamily(fam.source, fam.target, {(d, g): m for (d, g), m in fam.maps.items() if d == 0})
        args = []
        for name, data in [("short.phi.json", emit_phi(short)), ("b.alg.json", emit_algebra(short.source)),
                           ("a.alg.json", emit_algebra(short.target))]:
            write_json(tmp_path / name, data)
            args.append(str(tmp_path / name))
        assert runner.invoke(main, ["check-phi", *args]).exit_code == 0
        result = runner.invoke(main, ["twist-from-phi", *args, "-o", str(tmp_path / "out.json")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not stored for (1,0)" in result.output

    @pytest.mark.parametrize("kind, key", [("cocycle", "9,9"), ("cocycle", "0,2"), ("explicit", "2,0"),
                                           ("phi", "9,9"), ("phi", "1,2")])
    def test_degree_keys_outside_the_grading_group_exit_2(self, runner, tmp_path, kind, key):
        _a, t = sign_twist()
        if kind == "cocycle":
            data = read_json(FIXTURES / "sign.twist.json")
            data["alpha"][key] = "1"
        else:
            data = emit_phi(phi_from_twist(t)) if kind == "phi" else {
                "kind": "explicit", "maps": {f"{d},{g}": emit_matrix(t.tau(d, g)) for d in (0, 1) for g in (0, 1)}}
            data["maps"][key] = emit_matrix(Matrix.zeros(0, 0, QQ))
        bad = tmp_path / f"bad.{kind}.json"
        write_json(bad, data)
        if kind == "phi":
            twisted_file = tmp_path / "twisted.alg.json"
            write_json(twisted_file, emit_algebra(twist_algebra(t.algebra, t)))
            commands = [["check-phi", str(bad), fx("z2.alg.json"), str(twisted_file)],
                        ["twist-from-phi", str(bad), fx("z2.alg.json"), str(twisted_file),
                         "-o", str(tmp_path / "out.json")]]
        else:
            commands = [["check-twist", str(bad), fx("z2.alg.json")],
                        ["backward", str(bad), fx("z2.alg.json")]]
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert f"key ({key}) is not a pair of elements of the grading group" in result.output
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("order", ["3", 2.5, True, 0], ids=["string", "float", "bool", "zero"])
    def test_automorphism_order_must_be_a_positive_integer(self, runner, tmp_path, order):
        data = read_json(FIXTURES / "quantum.twist.json")
        data["order"] = order
        twist_file = tmp_path / "order.twist.json"
        write_json(twist_file, data)
        result = runner.invoke(main, ["check-twist", str(twist_file), fx("trunc23.alg.json")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "order must be a positive integer" in result.output


def test_cli_import_leaves_sympy_out():
    code = "import sys, gradedtwist.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gradedtwist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_readme_commands_run(runner, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for block in readme.split("```sh\n")[1:] for line in block.split("```")[0].splitlines()
             if line.startswith("gradedtwist ")]
    assert lines
    for line in lines:
        line = line.replace("$FIX", str(FIXTURES)).replace("/tmp", str(tmp_path))
        result = runner.invoke(main, shlex.split(line)[1:])
        assert result.exit_code == 0, (line, result.output)


@pytest.mark.parametrize("script", sorted(p.name for p in (Path(__file__).parents[1] / "demos").glob("*.py")))
def test_demo_scripts_run(script):
    demos = Path(__file__).parents[1] / "demos"
    env = {**os.environ, "PYTHONPATH": str(Path(gradedtwist.__file__).parents[1])}
    out = subprocess.run([sys.executable, str(demos / script)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
