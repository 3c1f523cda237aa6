"""Seeded fuzzing of the command line over mutated bundled fixtures.

Every command must end in exit 0, 1 or 2 through SystemExit, never in
another exception, whatever its input files hold. The mutation classes
that make a file malformed (a dropped required key, a value of the wrong
JSON type, a scalar with a zero denominator, a malformed or out-of-group
"g,h" key, a grading table that is not a group) must exit 2, except that
`check-group` reports a non-group table as a failure, exit 1; swapping
two values of a file may produce any of the three exits. An input file
that holds no JSON object at all ([], a string, a number, null) must
exit 2 as well, for every command and every input position, and so must a
rational scalar written as a decimal or with an exponent, which the
parser refuses before it does any arithmetic."""

import copy
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedtwist
from gradedtwist.cli import main
from gradedtwist.fixtures import sign_twist
from gradedtwist.serialize import emit_algebra, emit_phi, read_json, write_json
from gradedtwist.twist import phi_from_twist, twist_algebra

FIXTURES = Path(gradedtwist.__file__).parent / "fixtures"


def _documents():
    """The bundled fixtures, plus the sign twist's phi family and twisted algebra."""
    docs = {path.name: read_json(path) for path in FIXTURES.glob("*.json")}
    a, t = sign_twist()
    docs["sign.phi.json"] = emit_phi(phi_from_twist(t))
    docs["twisted.alg.json"] = emit_algebra(twist_algebra(a, t))
    return docs


DOCUMENTS = _documents()

# (command, input files, options, order of the finite grading group or None over Z);
# "OUT" is replaced by a fresh output path
CASES = [
    ("check-group", ["z2.group.json"], [], 2),
    ("check-algebra", ["z2.alg.json"], [], 2),
    ("check-algebra", ["trunc23.alg.json"], [], None),
    ("check-module", ["reg-z2.mod.json"], [], 2),
    ("check-twist", ["sign.twist.json", "z2.alg.json"], [], 2),
    ("check-twist", ["quantum.twist.json", "trunc23.alg.json"], [], None),
    ("twist-algebra", ["sign.twist.json", "z2.alg.json"], ["-o", "OUT"], 2),
    ("twist-module", ["ident.twist.json", "reg-z2.mod.json"], ["-o", "OUT"], 2),
    ("check-phi", ["sign.phi.json", "twisted.alg.json", "z2.alg.json"], [], 2),
    ("twist-from-phi", ["sign.phi.json", "twisted.alg.json", "z2.alg.json"], ["-o", "OUT"], 2),
    ("hom-space", ["reg-z2.mod.json", "reg-z2.mod.json"], ["-g", "1"], 2),
    ("gamma", ["z2.alg.json"], ["-o", "OUT"], 2),
    ("verify-endo", ["z2.alg.json"], [], 2),
    ("shift-props", ["reg-z2.mod.json", "reg-z2.mod.json"], ["-g", "1", "-d", "0"], 2),
    ("gamma-twist", ["sign.twist.json", "z2.alg.json"], [], 2),
    ("backward", ["sign.twist.json", "z2.alg.json"], [], 2),
]

# keys every file format requires wherever they occur (a phi file's "kind" is optional)
REQUIRED = {"field", "group", "dims", "mult", "unit", "algebra", "action", "kind", "table", "window",
            "maps", "alpha", "sigma", "rows", "cols", "entries"}
PAIR_KEYED = {"mult", "action", "maps", "alpha"}
SCALAR_HOLDERS = {"entries", "unit", "alpha"}
OTHER_TYPES = [None, True, 1.5, 7, "x", [], {}]
MALFORMED_PAIRS = ["1", "1,2,3", "a,b", "", "0;1", "0.5,1", ",1"]


def _json_type(value):
    return "int" if type(value) is int else type(value).__name__


def _slots(node, path=()):
    """(path, parent key, container, key) for every dict entry and list item below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), (path[-1] if path else None), node, key
        yield from _slots(value, path + (key,))


def _required(doc, name):
    optional = {("kind",)} if name.endswith(".phi.json") else set()
    return [s for s in _slots(doc) if isinstance(s[2], dict) and s[3] in REQUIRED and s[0] not in optional]


def _pair_keys(doc):
    return [s for s in _slots(doc) if s[1] in PAIR_KEYED and isinstance(s[2], dict)]


def _mutate(data, doc, name, order):
    """Mutate doc in place; returns the exit codes allowed afterwards, or None to skip."""
    kind = data.draw(st.sampled_from(
        ["drop", "type", "zero-denominator", "malformed-key", "outside-key", "non-group", "swap"]))
    if kind == "drop":
        _path, _parent, container, key = data.draw(st.sampled_from(_required(doc, name)))
        del container[key]
    elif kind == "type":
        _path, _parent, container, key = data.draw(st.sampled_from(_required(doc, name)))
        wrong = [v for v in OTHER_TYPES if _json_type(v) != _json_type(container[key])]
        container[key] = copy.deepcopy(data.draw(st.sampled_from(wrong)))
    elif kind == "zero-denominator":
        scalars = [s for s in _slots(doc) if s[1] in SCALAR_HOLDERS and isinstance(s[2][s[3]], str)]
        if not scalars:
            return None
        _path, _parent, container, key = data.draw(st.sampled_from(scalars))
        container[key] = "1/0"
    elif kind == "malformed-key" or (kind == "outside-key" and order is not None):
        pairs = _pair_keys(doc)
        if not pairs:
            return None
        _path, _parent, container, key = data.draw(st.sampled_from(pairs))
        if kind == "malformed-key":
            new = data.draw(st.sampled_from(MALFORMED_PAIRS))
        else:
            outside = st.sampled_from([-1, order, 9])
            inside = st.integers(0, order - 1)
            g, h = data.draw(st.sampled_from([(outside, inside), (inside, outside), (outside, outside)]))
            new = f"{data.draw(g)},{data.draw(h)}"
        container[new] = container.pop(key)
    elif kind == "non-group":
        tables = [s for s in _slots(doc) if s[3] == "table" and isinstance(s[2], dict)]
        if not tables:
            return None
        _path, _parent, container, key = data.draw(st.sampled_from(tables))
        container[key] = [[0] * len(container[key]) for _row in container[key]]
        return {1} if name.endswith(".group.json") else {2}
    elif kind == "swap":
        slots = list(_slots(doc))
        first = data.draw(st.sampled_from(slots))
        second = data.draw(st.sampled_from(slots))
        prefix = min(len(first[0]), len(second[0]))
        if first[0][:prefix] == second[0][:prefix]:
            return None
        (_p1, _k1, c1, k1), (_p2, _k2, c2, k2) = first, second
        c1[k1], c2[k2] = c2[k2], c1[k1]
        return {0, 1, 2}
    else:
        return None
    return {2}


@pytest.mark.parametrize("replacement", [[], "x", 7, None], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("command, files, options", [case[:3] for case in CASES],
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(CASES)])
def test_an_input_file_that_is_not_an_object_exits_2(command, files, options, replacement):
    for target in range(len(files)):
        with tempfile.TemporaryDirectory() as tmp:
            args = [command]
            for i, name in enumerate(files):
                path = Path(tmp) / f"{i}.{name}"
                write_json(path, replacement if i == target else DOCUMENTS[name])
                args.append(str(path))
            args += [str(Path(tmp) / "out.json") if opt == "OUT" else opt for opt in options]
            result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, SystemExit), (files[target], result.exception)
        assert result.exit_code == 2, (files[target], result.output)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_fixtures_exit_0_1_or_2_without_a_traceback(data):
    command, files, options, order = data.draw(st.sampled_from(CASES))
    target = data.draw(st.integers(0, len(files) - 1))
    doc = copy.deepcopy(DOCUMENTS[files[target]])
    allowed = _mutate(data, doc, files[target], order)
    if allowed is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        args = [command]
        for i, name in enumerate(files):
            path = Path(tmp) / f"{i}.{name}"
            write_json(path, doc if i == target else DOCUMENTS[name])
            args.append(str(path))
        args += [str(Path(tmp) / "out.json") if opt == "OUT" else opt for opt in options]
        result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in allowed, result.output


@pytest.mark.parametrize("scalar", ["1e999999999", "1e5", "0.5"])
@pytest.mark.parametrize("command, options", [("check-algebra", []), ("gamma", ["-o", "OUT"]), ("verify-endo", [])],
                         ids=["check-algebra", "gamma", "verify-endo"])
def test_a_decimal_or_exponent_scalar_exits_2(command, options, scalar):
    doc = copy.deepcopy(DOCUMENTS["z2.alg.json"])
    doc["mult"]["1,1"]["entries"] = [scalar]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z2.alg.json"
        write_json(path, doc)
        args = [command, str(path)] + [str(Path(tmp) / "out.json") if opt == "OUT" else opt for opt in options]
        result = CliRunner().invoke(main, args)
        assert not (Path(tmp) / "out.json").exists()
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2 and "Traceback" not in result.output, result.output
    assert f"scalar {scalar!r}" in result.output
