"""Round trips through the JSON formats: parse after emit is the
identity, field scalars travel as exact strings, and malformed files
fail with located errors."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import gradedtwist
from gradedtwist.exactmath import Matrix, PrimeField, QQ
from gradedtwist.enriched import module_hom_space
from gradedtwist.fixtures import (
    quantum_plane,
    s3_group_algebra,
    sign_twist,
    z3_f7_algebra,
    z3_group_algebra,
)
from gradedtwist.graded import GradedMorphism, regular_module, shift_module
from gradedtwist.groups import IntegerWindow, cyclic_group, symmetric_group
from gradedtwist.serialize import (
    FileFormatError,
    emit_algebra,
    emit_field,
    emit_group,
    emit_hom_basis,
    emit_matrix,
    emit_module,
    emit_morphism,
    emit_phi,
    emit_twist,
    parse_algebra,
    parse_field,
    parse_group,
    parse_matrix,
    parse_module,
    parse_morphism,
    parse_phi,
    parse_twist,
    read_json,
    write_json,
)
from gradedtwist.twist import EXPLICIT, TwistingSystem, phi_from_twist

F5 = PrimeField(5)
F7 = PrimeField(7)
FIXTURES = Path(gradedtwist.__file__).parent / "fixtures"


def same_twist(s, t):
    if s.kind != t.kind:
        return False
    keys = {(d, g) for d in s.d_degrees() for g in s.algebra.support()}
    return all(s.tau(d, g) == t.tau(d, g) for d, g in keys)


class TestScalarsAndMatrices:
    def test_field_tags(self):
        assert emit_field(QQ) == "QQ"
        assert emit_field(F5) == "GF(5)"
        assert parse_field("GF(7)") == F7
        assert parse_field("QQ") == QQ
        with pytest.raises(FileFormatError):
            parse_field("R")

    def test_rational_matrix_round_trip_and_strings(self):
        m = Matrix.from_rows([[Fraction(-3, 4), 5], [0, Fraction(7, 2)]], QQ)
        out = emit_matrix(m)
        assert out["entries"][0] == "-3/4"
        assert out["entries"][1] == "5"
        assert parse_matrix(out, QQ) == m
        assert json.loads(json.dumps(out)) == out

    def test_prime_field_matrix_strings(self):
        m = Matrix.from_rows([[3, 6], [1, 0]], F7)
        out = emit_matrix(m)
        assert out["entries"][0] == "3 mod 7"
        assert parse_matrix(out, F7) == m

    def test_entry_count_mismatch(self):
        with pytest.raises(FileFormatError, match="entries"):
            parse_matrix({"rows": 2, "cols": 2, "entries": ["1"]}, QQ)

    def test_parsed_entries_never_reach_the_unchecked_constructor(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("parsed entries reached Matrix._trusted")

        monkeypatch.setattr(Matrix, "_trusted", classmethod(refuse))
        for name in ("z2.alg.json", "s3.alg.json", "z3f7.alg.json", "trunc23.alg.json"):
            parse_algebra(read_json(FIXTURES / name))
        parse_module(read_json(FIXTURES / "reg-z2.mod.json"))
        m = parse_matrix({"rows": 1, "cols": 2, "entries": ["1/2", 3]}, QQ)
        assert [type(x) for x in m.data] == [Fraction, Fraction]
        with pytest.raises(FileFormatError):
            parse_matrix({"rows": 1, "cols": 1, "entries": [0.5]}, QQ)


class TestGroups:
    def test_z2_frozen_form(self):
        g = cyclic_group(2)
        assert emit_group(g) == {
            "kind": "finite",
            "order": 2,
            "identity": 0,
            "table": [[0, 1], [1, 0]],
        }
        assert parse_group(emit_group(g)) == g

    def test_s3_round_trip_keeps_names(self):
        g = symmetric_group(3)
        back = parse_group(emit_group(g))
        assert back == g
        assert back.names == g.names

    def test_integers_window(self):
        w = IntegerWindow(-2, 5)
        out = emit_group(w)
        assert out == {"kind": "integers", "window": [-2, 5]}
        back = parse_group(out)
        assert (back.lo, back.hi) == (-2, 5)

    def test_declared_order_must_match_table(self):
        bad = emit_group(cyclic_group(3))
        for order in (4, 3.0, True):
            bad["order"] = order
            with pytest.raises(FileFormatError, match="order"):
                parse_group(bad)


class TestAlgebrasAndModules:
    @pytest.mark.parametrize(
        "algebra",
        [z3_group_algebra(), s3_group_algebra(), z3_f7_algebra(), quantum_plane()[0]],
        ids=["z3", "s3", "z3-f7", "trunc-poly"],
    )
    def test_algebra_round_trip(self, algebra):
        out = emit_algebra(algebra)
        json.dumps(out)
        assert parse_algebra(out) == algebra

    def test_module_round_trip_inline_algebra(self):
        m = shift_module(regular_module(s3_group_algebra()), 3)
        assert parse_module(emit_module(m)) == m

    def test_module_round_trip_keeps_its_own_window(self):
        # the shifted module's window reaches degree 8, past its algebra's
        m = shift_module(regular_module(quantum_plane(3)[0]), 5)
        back = parse_module(emit_module(m))
        assert back == m
        assert back.group == m.group == IntegerWindow(0, 8)

    @pytest.mark.parametrize("group, message", [
        (emit_group(symmetric_group(3)), "module group disagrees with its algebra"),
        (None, "module is missing the key 'group'"),
    ], ids=["s3", "missing"])
    def test_module_group_must_be_its_algebras(self, group, message):
        data = emit_module(regular_module(z3_group_algebra()))
        data["group"] = group
        if group is None:
            del data["group"]
        with pytest.raises(FileFormatError, match=message):
            parse_module(data)

    def test_module_algebra_by_path(self, tmp_path):
        a = z3_group_algebra()
        write_json(tmp_path / "alg.json", emit_algebra(a))
        data = emit_module(regular_module(a))
        data["algebra"] = "alg.json"
        back = parse_module(data, base_dir=tmp_path)
        assert back == regular_module(a)

    def test_module_field_must_match_algebra(self):
        data = emit_module(regular_module(z3_group_algebra()))
        data["field"] = "GF(5)"
        with pytest.raises(FileFormatError, match="field"):
            parse_module(data)

    def test_morphism_round_trip(self):
        a = z3_group_algebra()
        reg = regular_module(a).space
        f = GradedMorphism(reg, reg, {g: Matrix.from_rows([[g + 1]], QQ) for g in range(3)}, QQ)
        assert parse_morphism(emit_morphism(f)) == f


class TestTwistsAndPhi:
    def test_sign_cocycle_round_trip(self):
        a, t = sign_twist()
        out = emit_twist(t)
        assert out["kind"] == "cocycle"
        assert out["alpha"]["1,1"] == "-1"
        assert same_twist(parse_twist(out, a), t)

    def test_quantum_automorphism_round_trip(self):
        a, t = quantum_plane()
        out = emit_twist(t)
        assert out["kind"] == "automorphism"
        assert out["order"] is None
        json.dumps(out)
        assert same_twist(parse_twist(out, a), t)

    def test_explicit_round_trip(self):
        a, t = quantum_plane()
        maps = {(d, g): t.tau(d, g) for d in range(4) for g in a.support()}
        exp = TwistingSystem(a, EXPLICIT, maps=maps)
        back = parse_twist(emit_twist(exp), a)
        assert back.kind == EXPLICIT
        assert back.maps == exp.maps

    def test_unknown_kind(self):
        with pytest.raises(FileFormatError, match="kind"):
            parse_twist({"kind": "mystery"}, z3_group_algebra())

    def test_phi_round_trip(self):
        a, t = sign_twist()
        fam = phi_from_twist(t)
        back = parse_phi(emit_phi(fam), fam.source, fam.target)
        assert back.maps == fam.maps


class TestHomExportAndIO:
    def test_group_algebra_hom_basis_export(self):
        reg = regular_module(z3_group_algebra())
        space = module_hom_space(reg, reg, 1)
        out = emit_hom_basis(space, 1)
        assert out["degree"] == 1
        assert len(out["basis"]) == 1
        assert sorted(out["basis"][0]) == ["0", "1", "2"]
        for block in out["basis"][0].values():
            assert block["entries"] == ["1"]

    def test_hom_basis_export_slices_blocks_larger_than_one_by_one(self):
        reg = regular_module(quantum_plane(3)[0])
        out = emit_hom_basis(module_hom_space(reg, reg, 1), 1)

        def block(rows, cols, entries):
            return {"rows": rows, "cols": cols, "entries": [str(x) for x in entries]}

        assert out == {"degree": 1, "basis": [
            {"1": block(2, 1, [1, 0]), "2": block(3, 2, [1, 0, 0, 1, 0, 0]),
             "3": block(4, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0])},
            {"1": block(2, 1, [0, 1]), "2": block(3, 2, [0, 0, 1, 0, 0, 1]),
             "3": block(4, 3, [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1])},
        ]}

    def test_read_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": finite}')
        with pytest.raises(FileFormatError, match=r"line 1 column 10"):
            read_json(bad)

    def test_read_json_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_json(tmp_path / "absent.json")

    def test_write_then_read(self, tmp_path):
        a = z3_f7_algebra()
        path = tmp_path / "a.json"
        write_json(path, emit_algebra(a))
        assert parse_algebra(read_json(path)) == a
