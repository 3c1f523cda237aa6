"""JSON file formats for every structure the command line consumes.

Each emit_* function produces plain dicts ready for json.dump; the
matching parse_* function inverts it bit-exactly (scalars travel as
strings, so nothing is rounded). Twist and phi files do not embed their
algebra; the algebra arrives as a separate file and is passed to the
parser explicitly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .exactmath import Matrix, PrimeField, QQ, RationalField
from .graded import GradedAlgebra, GradedModule, GradedMorphism, GradedVectorSpace
from .groups import FiniteGroup, IntegerWindow, check_group, same_group
from .twist import AUTOMORPHISM, COCYCLE, EXPLICIT, PhiFamily, TwistingSystem


class FileFormatError(ValueError):
    """Raised when a JSON file is syntactically valid but not a structure."""


def read_json(path):
    """Load a JSON file, reporting file, line and column on syntax errors
    and refusing nesting deeper than the interpreter can decode."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise FileFormatError(f"{path}: nested too deeply") from None


def write_json(path, data):
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def _need(data, key, what, expected=None):
    """Return data[key]; it must be present and, if expected is given, of that type."""
    if not isinstance(data, dict) or key not in data:
        raise FileFormatError(f"{what} is missing the key {key!r}")
    value = data[key]
    if expected is not None and (isinstance(value, bool) or not isinstance(value, expected)):
        raise FileFormatError(
            f"{what} key {key!r} must be of type {expected.__name__}, found {type(value).__name__}"
        )
    return value


def _scalar(x, field):
    """A field element written as an exact string or as an integer."""
    if isinstance(x, str):
        try:
            return field.parse(x)
        except ZeroDivisionError:
            raise FileFormatError(f"scalar {x!r} has a zero denominator") from None
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
    if isinstance(x, int) and not isinstance(x, bool):
        return field.coerce(x)
    raise FileFormatError(f"scalar {x!r} is neither a string nor an integer")


# -- fields ------------------------------------------------------------

def emit_field(field) -> str:
    if isinstance(field, RationalField):
        return "QQ"
    if isinstance(field, PrimeField):
        return f"GF({field.p})"
    raise FileFormatError(f"cannot serialize field {field!r}")


def parse_field(text):
    if text == "QQ":
        return QQ
    if isinstance(text, str) and text.startswith("GF(") and text.endswith(")"):
        return PrimeField(int(text[3:-1]))
    raise FileFormatError(f"unknown field {text!r} (expected 'QQ' or 'GF(p)')")


# -- matrices ----------------------------------------------------------

def emit_matrix(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [m.field.format(x) for x in m.data],
    }


def parse_matrix(data, field) -> Matrix:
    rows = _need(data, "rows", "matrix", int)
    cols = _need(data, "cols", "matrix", int)
    entries = _need(data, "entries", "matrix", list)
    if len(entries) != rows * cols:
        raise FileFormatError(
            f"matrix declares {rows}x{cols} but carries {len(entries)} entries"
        )
    return Matrix(rows, cols, field, [_scalar(x, field) for x in entries])


# -- groups ------------------------------------------------------------

def emit_group(group) -> dict:
    if isinstance(group, FiniteGroup):
        out = {
            "kind": "finite",
            "order": group.order,
            "identity": group.identity,
            "table": [list(row) for row in group.table],
        }
        if group.names is not None:
            out["names"] = list(group.names)
        return out
    if isinstance(group, IntegerWindow):
        return {"kind": "integers", "window": [group.lo, group.hi]}
    raise FileFormatError(f"cannot serialize group {group!r}")


def parse_group(data):
    kind = _need(data, "kind", "group")
    if kind == "finite":
        group = FiniteGroup(
            _need(data, "table", "finite group"),
            identity=data.get("identity", 0),
            names=data.get("names"),
        )
        declared = data.get("order")
        if declared is not None and (type(declared) is not int or declared != group.order):
            raise FileFormatError(
                f"group declares order {declared!r} but its table has {group.order} rows"
            )
        return group
    if kind == "integers":
        lo, hi = _need(data, "window", "integer group")
        return IntegerWindow(lo, hi)
    raise FileFormatError(f"unknown group kind {kind!r}")


# -- degree keys: decimal indices (finite) or signed integers ----------

def _degree_key(g) -> str:
    return str(g)


def _pair_key(g, h) -> str:
    return f"{g},{h}"


def _parse_degree(key: str):
    try:
        return int(key)
    except ValueError:
        raise FileFormatError(f"degree key {key!r} is not an integer") from None


def _parse_pair(key: str):
    parts = key.split(",")
    if len(parts) != 2:
        raise FileFormatError(f"degree-pair key {key!r} is not of the form 'g,h'")
    return _parse_degree(parts[0]), _parse_degree(parts[1])


def _emit_dims(space: GradedVectorSpace) -> dict:
    return {_degree_key(g): d for g, d in sorted(space.dims.items())}


def _parse_dims(data) -> dict:
    dims = {}
    for k, d in data.items():
        if not isinstance(d, int) or isinstance(d, bool):
            raise FileFormatError(f"dimension {d!r} of degree {k!r} is not an integer")
        dims[_parse_degree(k)] = d
    return dims


# -- algebras and modules ----------------------------------------------

def emit_algebra(a: GradedAlgebra) -> dict:
    return {
        "field": emit_field(a.field),
        "group": emit_group(a.group),
        "dims": _emit_dims(a.space),
        "mult": {_pair_key(g, h): emit_matrix(m) for (g, h), m in sorted(a.mult.items())},
        "unit": [a.field.format(x) for x in a.unit.data],
    }


def parse_algebra(data) -> GradedAlgebra:
    field = parse_field(_need(data, "field", "algebra"))
    group = parse_group(_need(data, "group", "algebra"))
    axioms = check_group(group)
    if not axioms.passed:
        raise FileFormatError(f"the grading table is not a group: witness {axioms.witness!r}")
    space = GradedVectorSpace(group, _parse_dims(_need(data, "dims", "algebra", dict)))
    mult = {
        _parse_pair(k): parse_matrix(m, field)
        for k, m in _need(data, "mult", "algebra", dict).items()
    }
    raw_unit = _need(data, "unit", "algebra", list)
    unit = Matrix(len(raw_unit), 1, field, [_scalar(x, field) for x in raw_unit])
    return GradedAlgebra(space, mult, unit, field)


def emit_module(m: GradedModule) -> dict:
    return {
        "field": emit_field(m.field),
        "group": emit_group(m.group),
        "dims": _emit_dims(m.space),
        "action": {_pair_key(g, h): emit_matrix(x) for (g, h), x in sorted(m.action.items())},
        "algebra": emit_algebra(m.algebra),
    }


def parse_module(data, base_dir=None) -> GradedModule:
    """Read a module file. The "algebra" entry may be an inline object or
    a file path, resolved relative to base_dir. Its own "group" grades it
    and must match its algebra's."""
    ref = _need(data, "algebra", "module")
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        algebra = parse_algebra(read_json(path))
    else:
        algebra = parse_algebra(ref)
    field = parse_field(_need(data, "field", "module"))
    if field != algebra.field:
        raise FileFormatError("module field disagrees with its algebra")
    group = parse_group(_need(data, "group", "module"))
    if not same_group(group, algebra.group):
        raise FileFormatError("module group disagrees with its algebra")
    space = GradedVectorSpace(group, _parse_dims(_need(data, "dims", "module", dict)))
    action = {
        _parse_pair(k): parse_matrix(x, field)
        for k, x in _need(data, "action", "module", dict).items()
    }
    return GradedModule(space, algebra, action)


# -- morphisms (self-describing, for standalone output files) ----------

def emit_morphism(f: GradedMorphism) -> dict:
    return {
        "field": emit_field(f.field),
        "group": emit_group(f.source.group),
        "source_dims": _emit_dims(f.source),
        "target_dims": _emit_dims(f.target),
        "components": {
            _degree_key(g): emit_matrix(m) for g, m in sorted(f.components.items())
        },
    }


def parse_morphism(data) -> GradedMorphism:
    field = parse_field(_need(data, "field", "morphism"))
    group = parse_group(_need(data, "group", "morphism"))
    source = GradedVectorSpace(group, _parse_dims(_need(data, "source_dims", "morphism", dict)))
    target = GradedVectorSpace(group, _parse_dims(_need(data, "target_dims", "morphism", dict)))
    comps = {
        _parse_degree(k): parse_matrix(m, field)
        for k, m in _need(data, "components", "morphism", dict).items()
    }
    return GradedMorphism(source, target, comps, field)


# -- twisting systems (algebra supplied separately) --------------------

def emit_twist(t: TwistingSystem) -> dict:
    if t.kind == EXPLICIT:
        return {
            "kind": "explicit",
            "maps": {_pair_key(d, g): emit_matrix(m) for (d, g), m in sorted(t.maps.items())},
        }
    if t.kind == COCYCLE:
        field = t.algebra.field
        return {
            "kind": "cocycle",
            "alpha": {_pair_key(d, g): field.format(v) for (d, g), v in sorted(t.alpha.items())},
        }
    return {
        "kind": "automorphism",
        "sigma": {_degree_key(g): emit_matrix(m) for g, m in sorted(t.sigma.components.items())},
        "order": t.order,
    }


def parse_twist(data, algebra: GradedAlgebra) -> TwistingSystem:
    kind = _need(data, "kind", "twist")
    field = algebra.field
    if kind == "explicit":
        maps = {
            _parse_pair(k): parse_matrix(m, field)
            for k, m in _need(data, "maps", "twist", dict).items()
        }
        return TwistingSystem(algebra, EXPLICIT, maps=maps)
    if kind == "cocycle":
        alpha = {
            _parse_pair(k): _scalar(v, field)
            for k, v in _need(data, "alpha", "twist", dict).items()
        }
        return TwistingSystem(algebra, COCYCLE, alpha=alpha)
    if kind == "automorphism":
        comps = {
            _parse_degree(k): parse_matrix(m, field)
            for k, m in _need(data, "sigma", "twist", dict).items()
        }
        sigma = GradedMorphism(algebra.space, algebra.space, comps, field)
        return TwistingSystem(algebra, AUTOMORPHISM, sigma=sigma, order=data.get("order"))
    raise FileFormatError(f"unknown twist kind {kind!r}")


# -- phi families (endpoint algebras supplied separately) --------------

def emit_phi(p: PhiFamily) -> dict:
    return {
        "kind": "phi",
        "maps": {_pair_key(d, g): emit_matrix(m) for (d, g), m in sorted(p.maps.items())},
    }


def parse_phi(data, source: GradedAlgebra, target: GradedAlgebra) -> PhiFamily:
    if not isinstance(data, dict):
        raise FileFormatError(f"a phi family is a JSON object, found {type(data).__name__}")
    if data.get("kind", "phi") != "phi":
        raise FileFormatError(f"expected a phi file, found kind {data.get('kind')!r}")
    maps = {
        _parse_pair(k): parse_matrix(m, source.field)
        for k, m in _need(data, "maps", "phi family", dict).items()
    }
    return PhiFamily(source, target, maps)


# -- hom-space basis export --------------------------------------------

def emit_hom_basis(space, degree) -> dict:
    """The canonical basis of a Hom space, each column sliced into its blocks."""
    kernel, field = space.kernel, space.kernel.field
    basis = []
    for i in range(space.dim):
        column = kernel.col(i)
        basis.append({
            _degree_key(p): emit_matrix(Matrix._trusted(
                space.target.dim(p), size // space.target.dim(p), field, column[off : off + size]))
            for p, off, size in space.source_layout
        })
    return {"degree": degree, "basis": basis}
