"""Graded vector spaces, algebras, modules, and their checkers.

A graded structure is a family of finite-dimensional components indexed
by group degrees, with structure maps stored as matrices in the global
Kronecker convention of exactmath. Nothing is assumed: associativity,
unitality, and morphism identities are verified by the check_* functions,
over every supported degree or over a set of degrees proved to be enough.

Three lemmas, each proved by closure, let a check quantify over a
generating set H of degrees (the blocks A_h, h in H, generate A):

- Algebra associativity (Light's test; Clifford and Preston, The
  Algebraic Theory of Semigroups I, 1961, section 1.2). The y with
  (xy)z = x(yz) for all x, z form a subspace closed under products,
  which holds 1 when the unit laws hold. So with the unit laws checked
  on every degree, the triples (g, h, k) with h in H suffice.
- Module associativity, given A associative: the a with (ma)b = m(ab)
  for all m, b are closed under products, so the middle degree may run
  over H.
- Module maps, given M and N unital modules: f(ma) = f(m)a for all a in
  A_H implies it for all a. `enriched.build_RS` uses this one.

`generating_degrees` is the certificate: it picks H and proves, by an
exact span computation, that H generates A, or returns None.
`check_algebra` uses the first lemma and the certificate, and falls back
to the full loop whenever either does not apply. A pass is kept on the
algebra (`report.kept`) with its H as `a.generators`, a tuple, so a
later check is a lookup. `mult`, a module's `action`, a morphism's
`components` and the space's `dims` are read-only views, and no
attribute of an algebra, a module or a morphism can be rebound
(`report.BoundOnce`), so a kept pass stays true and the regular module
that Gamma(A) reads stays A's own.

`_multiplicativity_failure` is the one loop that checks a degreewise
family phi_d multiplicative from S to T: `check_algebra_morphism` (phi
constant, d = e) and `twist`'s phi-family and twisting-condition checks
share it.

Storage rule, enforced for mult and action alike by `_structure_maps`:
a key (g, h) must be present exactly when all three of dims(g), dims(h),
dims(g*h) are nonzero. Slots touching a zero-dimensional component are
the unique empty/zero matrix and may be omitted (checkers treat the
missing identities as vacuous). This is what keeps integer-window data
finite. For the same reason the checkers skip every identity whose two
sides map into a zero component: both are empty matrices there.

One-dimensional components. Over a group algebra k[G], its cocycle
twists, or any grading whose components all have dimension 1, every
block the shared loops read is 1x1: `_associativity_failure` (for
check_algebra and check_module), `_multiplicativity_failure` and
check_module_morphism. `_one_dimensional` decides this from the dims
alone: every component of the algebra and of the module or source is
1-dimensional and, for a map, the target has the source's dims. Those
loops then read each structure map's single entry once into a
{key: scalar} table (`_entries`), where a key the storage rule leaves
out reads as zero, and compare the two sides of each identity as
products of field scalars. That is exact, and it names the same
witness: a 1x1 `mul_kron` is the product of its three entries (an
identity factor is 1), two 1x1 matrices are equal exactly when their
entries are, entries are canonical, and the loops keep their nesting
and skips. Every other input, a quantum plane or a map between spaces
of different dims among them, takes the Matrix path.
"""

from __future__ import annotations

import weakref
from math import comb
from itertools import combinations_with_replacement
from types import MappingProxyType

from .exactmath import QQ, Matrix, column_echelon, hstack, kron, mul_kron
from .groups import FiniteGroup, IntegerWindow, same_group
from .report import BoundOnce, Report, kept


class GradedVectorSpace:
    def __init__(self, group, dims: dict):
        cleaned = {}
        for g, d in dims.items():
            if type(d) is not int:
                raise TypeError(f"dimension {d!r} of degree {g!r} is not an int")
            if d < 0:
                raise ValueError("negative dimension")
            if d == 0:
                continue
            if not group.contains(g):
                raise ValueError(f"degree {g!r} outside the group/window")
            cleaned[g] = d
        self.group = group
        self.dims = MappingProxyType(cleaned)  # read-only: algebras and modules share it

    def dim(self, g) -> int:
        return self.dims.get(g, 0)

    def support(self) -> list:
        return sorted(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, GradedVectorSpace)
            and same_group(self.group, other.group)
            and self.dims == other.dims
        )

    def __hash__(self):
        return hash((frozenset(self.dims.items()),))

    def __repr__(self):
        inside = ", ".join(f"{g}:{d}" for g, d in sorted(self.dims.items()))
        return f"GradedVectorSpace({{{inside}}})"


def _structure_maps(label, maps, left, right, field) -> dict:
    """The storage rule for a mult/action dict, m_{g,h}: left_g (x) right_h -> left_gh.

    Every map is a Matrix over `field` of shape dim left_gh x dim left_g *
    dim right_h, every key whose three components are nonzero is present,
    and the empty slots are dropped.
    """
    group = left.group
    left_dims, right_dims = left.dims, right.dims
    checked = {}
    for (g, h), m in maps.items():
        if not isinstance(m, Matrix):
            raise TypeError(f"{label}[{(g, h)}] is not a Matrix")
        # the keys come from the caller, so their product is a checked one
        want = (left_dims.get(group.mul(g, h), 0), left_dims.get(g, 0) * right_dims.get(h, 0))
        if (m.rows, m.cols) != want:
            raise ValueError(f"{label}[{(g, h)}] has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}")
        if m.field is not field and m.field != field:
            raise ValueError(f"{label} field mismatch")
        if m.rows and m.cols:
            checked[(g, h)] = m
    mul = group.mul_unchecked
    for g in left.support():
        for h in right.support():
            if mul(g, h) in left_dims and (g, h) not in checked:
                raise ValueError(f"missing {label} matrix for degrees ({g!r},{h!r})")
    return checked


class GradedAlgebra(BoundOnce):
    """(A_g, m_{g,h}: A_g (x) A_h -> A_gh, u: 1 -> A_e) with explicit matrices.

    An attribute cannot be rebound once set, and `mult` is a read-only
    view, so a check kept on the algebra cannot go stale.
    """

    def __init__(self, space: GradedVectorSpace, mult: dict, unit: Matrix, field):
        self.space = space
        self.field = field
        self.mult = MappingProxyType(_structure_maps("mult", mult, space, space, field))
        de = space.dim(space.group.identity)
        if not isinstance(unit, Matrix) or unit.cols != 1 or unit.rows != de:
            raise ValueError(f"unit must be a {de}x1 column")
        if unit.field != field:
            raise ValueError("unit field mismatch")
        self.unit = unit

    @property
    def generators(self):
        """The degrees H, a tuple, that a passing reduced check_algebra
        certified as generating A; None before such a pass."""
        return self.__dict__.get("_generators")

    @property
    def group(self):
        return self.space.group

    def dim(self, g) -> int:
        return self.space.dims.get(g, 0)

    def support(self):
        return self.space.support()

    def mult_map(self, g, h) -> Matrix:
        got = self.mult.get((g, h))
        if got is not None:
            return got
        return Matrix.zeros(self.dim(self.group.mul(g, h)), self.dim(g) * self.dim(h), self.field)

    def __eq__(self, other):
        return (
            isinstance(other, GradedAlgebra)
            and self.space == other.space
            and self.field == other.field
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"GradedAlgebra(dims={dict(sorted(self.space.dims.items()))})"


class GradedModule(BoundOnce):
    """(M_g, rho_{g,h}: M_g (x) A_h -> M_gh) over a fixed graded algebra
    (`action`, read-only; no attribute can be rebound).

    The action is checked by `_structure_maps` unless it is the algebra's
    own read-only `mult` on the algebra's own space, which
    `GradedAlgebra.__init__` checked under the same rule: the regular
    module, as `regular_module` builds it.
    """

    def __init__(self, space: GradedVectorSpace, algebra: GradedAlgebra, action: dict):
        if not same_group(space.group, algebra.group):
            raise ValueError("module and algebra live over different groups")
        self.space = space
        self.algebra = algebra
        self.field = algebra.field
        if action is algebra.mult and space is algebra.space:
            self.action = action
        else:
            self.action = MappingProxyType(_structure_maps("action", action, space, algebra.space, self.field))

    @property
    def group(self):
        return self.space.group

    def dim(self, g) -> int:
        return self.space.dims.get(g, 0)

    def support(self):
        return self.space.support()

    def action_map(self, g, h) -> Matrix:
        got = self.action.get((g, h))
        if got is not None:
            return got
        return Matrix.zeros(
            self.dim(self.group.mul(g, h)), self.dim(g) * self.algebra.dim(h), self.field
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedModule)
            and self.space == other.space
            and self.algebra == other.algebra
            and self.action == other.action
        )

    def __repr__(self):
        return f"GradedModule(dims={dict(sorted(self.space.dims.items()))})"


class GradedMorphism(BoundOnce):
    """Degree-preserving family of matrices f_g: source_g -> target_g
    (`components`, read-only; no attribute can be rebound)."""

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace, components: dict, field):
        if not same_group(source.group, target.group):
            raise ValueError("morphism endpoints live over different groups")
        self.source = source
        self.target = target
        self.field = field
        comps = {}
        for g, m in components.items():
            if not isinstance(m, Matrix):
                raise TypeError(f"component at {g!r} is not a Matrix")
            if (m.rows, m.cols) != (target.dim(g), source.dim(g)):
                raise ValueError(
                    f"component at {g!r} has shape {m.rows}x{m.cols}, "
                    f"expected {target.dim(g)}x{source.dim(g)}"
                )
            if m.field != field:
                raise ValueError("component field mismatch")
            if m.rows and m.cols:
                comps[g] = m
        for g in source.support():
            if target.dim(g) and g not in comps:
                raise ValueError(f"missing component at degree {g!r}")
        self.components = MappingProxyType(comps)

    @property
    def group(self):
        return self.source.group

    def component(self, g) -> Matrix:
        got = self.components.get(g)
        if got is not None:
            return got
        return Matrix.zeros(self.target.dim(g), self.source.dim(g), self.field)

    @classmethod
    def identity(cls, space: GradedVectorSpace, field) -> "GradedMorphism":
        comps = {g: Matrix.identity(d, field) for g, d in space.dims.items()}
        return cls(space, space, comps, field)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"GradedMorphism(degrees={sorted(self.components)})"


# ---------------------------------------------------------------------------
# checkers


@kept
def check_algebra(a: GradedAlgebra) -> Report:
    """Associativity and unitality of a graded algebra.

    The unit laws are checked on every degree, then associativity on the
    triples (g, h, k) whose middle degree h is one of the
    `generating_degrees` H. By Light's test that proves it everywhere:
    the y with (xy)z = x(yz) for all x, z are closed under products and
    hold 1 once the unit laws hold, and the certificate shows that A_H
    and 1 generate A. A passing report notes the degrees it quantified
    over, and the check leaves H on the algebra as `a.generators`.

    When the certificate is None or the reduced check fails anywhere, the
    full loop runs instead, in its own order, so verdicts and witnesses
    do not depend on the reduction: associativity over every triple of
    the regular module first, then the first unit-law failure, and
    `a.generators` stays None.
    """
    reg = regular_module(a)
    unit_failure = _unit_failure(a)
    generators = generating_degrees(a) if unit_failure is None else None
    if generators is not None and _associativity_failure(reg, generators) is None:
        a.__dict__["_generators"] = tuple(generators)
        return Report("check_algebra", True, notes=(f"associativity over generating degrees {generators}",))
    bad = _associativity_failure(reg, a.support())
    witness = unit_failure if bad is None else ("associativity", bad)
    if witness is not None:
        return Report("check_algebra", False, witness=witness)
    return Report("check_algebra", True, notes=("associativity over the full support",))


def _unit_failure(a: GradedAlgebra):
    """The first ("left-unit" | "right-unit", g), g over supp A and the
    left unit law before the right one, at which the law fails; None if
    there is none."""
    e = a.group.identity
    for g in a.support():
        ident = Matrix.identity(a.dim(g), a.field)
        if mul_kron(a.mult_map(e, g), a.unit, ident) != ident:
            return ("left-unit", g)
        if mul_kron(a.mult_map(g, e), ident, a.unit) != ident:
            return ("right-unit", g)
    return None


def generating_degrees(a: GradedAlgebra):
    """Degrees H whose components provably generate A, or None.

    H is picked greedily by ascending degree: g joins H when the span V
    of the left-normed products u s_1 ... s_k (u the unit, each s_i in
    some A_h with h in H) falls short of A_g. V is computed exactly,
    degree by degree until a fixed point: V_e starts as the span of u,
    and V_g A_h, the columns of mul_kron(m_{g,h}, V_g, id_h), is added
    to V_gh for each h in H. V only grows with H, so when every A_g is
    reached, V is all of A, which proves that H generates A. Returns None
    when dim A_e = 0, or when A_g is not reached even with g in H (as
    when the unit does not act as one on the left).
    """
    if not a.dim(a.group.identity):
        return None
    generators = []
    span = _left_normed_span(a, generators)
    for g in a.support():
        if g in span and span[g].cols == a.dim(g):
            continue
        generators.append(g)
        span = _left_normed_span(a, generators)
        if g not in span or span[g].cols < a.dim(g):
            return None
    return generators


def _left_normed_span(a: GradedAlgebra, generators) -> dict:
    """{g: V_g} for the nonzero V_g of generating_degrees, each in column
    echelon form."""
    mul, field = a.group.mul_unchecked, a.field
    ident = {h: Matrix.identity(a.dim(h), field) for h in generators}
    start = column_echelon(a.unit)
    span = {a.group.identity: start} if start.cols else {}
    work = list(span)
    while work:
        g = work.pop()
        for h in generators:
            m = a.mult.get((g, h))
            if m is None:
                continue
            gh = mul(g, h)
            products = mul_kron(m, span[g], ident[h])
            old = span.get(gh)
            grown = column_echelon(products if old is None else hstack([old, products]))
            if grown.cols > (0 if old is None else old.cols):
                span[gh] = grown
                work.append(gh)
    return span


def check_module(m: GradedModule) -> Report:
    """Action associativity against the algebra, and unit action = id."""
    a = m.algebra
    bad = _associativity_failure(m, a.support())
    if bad is not None:
        return Report("check_module", False, witness=("associativity", bad))
    e = m.group.identity
    for g in m.support():
        ident = Matrix.identity(m.dim(g), m.field)
        if mul_kron(m.action_map(g, e), ident, a.unit) != ident:
            return Report("check_module", False, witness=("unit-action", g))
    return Report("check_module", True)


def _associativity_failure(m: GradedModule, middles):
    """The first (g, h, k), with g over supp M, h over `middles` and k
    over supp A in that nesting, at which rho_{gh,k} (rho_{g,h} (x) id)
    and rho_{g,hk} (id (x) m_{h,k}) differ; None if there is none. Both
    sides map into M_ghk, so a triple with M_ghk = 0 is skipped.

    When every component of M and A is 1-dimensional (`_one_dimensional`),
    each side is a product of two scalars, rho_{gh,k} rho_{g,h} and
    rho_{g,hk} m_{h,k}, read from `_entries` tables: the identity factor
    of each 1x1 `mul_kron` is 1. The nesting and the skip are the same,
    so the first witness is too."""
    mul = m.group.mul_unchecked  # every degree below is a support element or a product of them
    a, m_dims = m.algebra, m.space.dims
    if _one_dimensional(a.space, m.space):
        act, mult = _entries(m.action), _entries(a.mult)
        zero, times = m.field.zero, m.field.mul
        for g in m.support():
            for h in middles:
                gh = mul(g, h)
                rho = act.get((g, h), zero)
                for k in a.support():
                    if mul(gh, k) not in m_dims:
                        continue
                    hk = mul(h, k)
                    if times(act.get((gh, k), zero), rho) != times(act.get((g, hk), zero), mult.get((h, k), zero)):
                        return (g, h, k)
        return None
    ident_m = {g: Matrix.identity(m.dim(g), m.field) for g in m.support()}
    ident_a = {k: Matrix.identity(a.dim(k), m.field) for k in a.support()}
    for g in m.support():
        for h in middles:
            gh = mul(g, h)
            rho = m.action_map(g, h)
            for k in a.support():
                if mul(gh, k) not in m_dims:
                    continue
                lhs = mul_kron(m.action_map(gh, k), rho, ident_a[k])
                rhs = mul_kron(m.action_map(g, mul(h, k)), ident_m[g], a.mult_map(h, k))
                if lhs != rhs:
                    return (g, h, k)
    return None


def _one_dimensional(algebra: GradedVectorSpace, source: GradedVectorSpace, target=None) -> bool:
    """Whether a checker loop over these spaces reads only 1x1 blocks:
    every component of `algebra` and `source` is 1-dimensional and, for
    a map from `source`, `target` has the same dims. A key absent from a
    structure map is then a zero block under the storage rule, so the
    loop may compare products of the scalars in `_entries` tables."""
    return (all(d == 1 for d in algebra.dims.values()) and all(d == 1 for d in source.dims.values())
            and (target is None or target.dims == source.dims))


def _entries(maps) -> dict:
    """{key: the single entry} of a mapping of 1x1 matrices."""
    return {key: m.data[0] for key, m in maps.items()}


def check_algebra_morphism(f: GradedMorphism, a: GradedAlgebra, b: GradedAlgebra) -> Report:
    """f: A -> B is multiplicative (the shared loop, constant in d) and unital."""
    if f.source.dims != a.space.dims or f.target.dims != b.space.dims:
        raise ValueError("morphism endpoints do not match the given algebras")
    e = a.group.identity
    bad = _multiplicativity_failure(b, a, [e], lambda _d, g: f.component(g), lambda _d, _g: True)
    if bad is not None:
        return Report("check_algebra_morphism", False, witness=("multiplicativity", bad[1:]))
    if f.component(e) @ a.unit != b.unit:
        return Report("check_algebra_morphism", False, witness=("unit", e))
    return Report("check_algebra_morphism", True)


def _multiplicativity_failure(target: GradedAlgebra, source: GradedAlgebra, dees, phi, has):
    """The first (d, g1, g2), with d over `dees` and g1, g2 over supp of
    the source in that nesting, at which m^T_{g1,g2} (phi(d, g1) (x)
    phi(d g1, g2)) and phi(d, g1 g2) m^S_{g1,g2} differ; None if there is
    none. Both sides map into T_{g1 g2}, so a pair with T_{g1 g2} = 0 is
    skipped, and so is a tuple for which `has` reports one of its three
    maps missing.

    When every component of T and S is 1-dimensional and their dims are
    equal (`_one_dimensional`), every phi(d, g) is 1x1 and each side is
    a product of three scalars, in the nesting and with the skips above."""
    mul, t_dims, supp = source.group.mul_unchecked, target.space.dims, source.support()
    if _one_dimensional(target.space, source.space, target.space):
        m_t, m_s = _entries(target.mult), _entries(source.mult)
        zero, times = target.field.zero, target.field.mul
        pairs = [(g1, g2, mul(g1, g2), m_t.get((g1, g2), zero), m_s.get((g1, g2), zero))
                 for g1 in supp for g2 in supp if mul(g1, g2) in t_dims]
        for d in dees:
            for g1, g2, g1g2, x_t, x_s in pairs:
                dg1 = mul(d, g1)
                if not (has(d, g1) and has(dg1, g2) and has(d, g1g2)):
                    continue
                if times(times(x_t, phi(d, g1).data[0]), phi(dg1, g2).data[0]) != times(phi(d, g1g2).data[0], x_s):
                    return (d, g1, g2)
        return None
    # the structure maps do not depend on d, so they are read once
    pairs = [(g1, g2, mul(g1, g2), target.mult_map(g1, g2), source.mult_map(g1, g2))
             for g1 in supp for g2 in supp if mul(g1, g2) in t_dims]
    for d in dees:
        for g1, g2, g1g2, m_t, m_s in pairs:
            dg1 = mul(d, g1)
            if not (has(d, g1) and has(dg1, g2) and has(d, g1g2)):
                continue
            if mul_kron(m_t, phi(d, g1), phi(dg1, g2)) != phi(d, g1g2) @ m_s:
                return (d, g1, g2)
    return None


def check_module_morphism(f: GradedMorphism, m: GradedModule, n: GradedModule) -> Report:
    """f: M -> N intertwines the actions: rho^N_{g,h} (f_g (x) id) =
    f_gh rho^M_{g,h} for g over supp M and h over supp A, the first
    failing (g, h) the witness; a pair with N_gh = 0 is skipped.

    When every component of A and M is 1-dimensional and N has M's dims
    (`_one_dimensional`), each side is a product of two scalars from
    `_entries` tables, in the same order and with the same skip."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise ValueError("modules live over different algebras")
    if f.source.dims != m.space.dims or f.target.dims != n.space.dims:
        raise ValueError("morphism endpoints do not match the given modules")
    mul, n_dims = m.group.mul_unchecked, n.space.dims
    a = m.algebra
    if _one_dimensional(a.space, m.space, n.space):
        comps, m_act, n_act = _entries(f.components), _entries(m.action), _entries(n.action)
        zero, times = a.field.zero, a.field.mul
        for g in m.support():
            f_g = comps.get(g, zero)
            for h in a.support():
                gh = mul(g, h)
                if gh not in n_dims:
                    continue
                if times(n_act.get((g, h), zero), f_g) != times(comps.get(gh, zero), m_act.get((g, h), zero)):
                    return Report("check_module_morphism", False, witness=("intertwining", (g, h)))
        return Report("check_module_morphism", True)
    ident_a = {h: Matrix.identity(a.dim(h), a.field) for h in a.support()}
    for g in m.support():
        for h in a.support():
            gh = mul(g, h)
            if gh not in n_dims:
                continue  # both sides map into N_gh = 0
            lhs = mul_kron(n.action_map(g, h), f.component(g), ident_a[h])
            rhs = f.component(gh) @ m.action_map(g, h)
            if lhs != rhs:
                return Report("check_module_morphism", False, witness=("intertwining", (g, h)))
    return Report("check_module_morphism", True)


# ---------------------------------------------------------------------------
# the assembled-multiplication oracle


def cauchy_algebra_oracle(a: GradedAlgebra) -> Report:
    """Assemble the one-map-per-degree multiplication and re-check axioms.

    The assembled multiplication at degree t is the horizontal stack of
    the component maps m_{p, p^-1 t} over the blocks of (A (x)bar A)_t.
    The oracle re-verifies associativity and unitality of that assembled
    data directly on the triple-product block layout, then confirms the
    verdict agrees with check_algebra's. It passes iff the verdicts
    agree, so it is meaningful on broken algebras too.
    """
    direct = check_algebra(a)
    assembled = _assembled_axioms(a)
    agree = direct.passed == assembled.passed
    witness = None
    if not agree or not direct.passed:
        witness = {"direct": direct.as_dict(), "assembled": assembled.as_dict()}
    return Report("cauchy_algebra_oracle", agree, witness=witness)


def _assembled_axioms(a: GradedAlgebra) -> Report:
    group = a.group
    field = a.field
    support = a.support()
    # triple space blocks (p, q) with component A_p (x) A_q (x) A_{(pq)^-1 t};
    # a degree t with A_t = 0 is skipped, as both sides there have 0 rows
    triple_degrees = sorted(
        {group.mul(group.mul(p, q), r) for p in support for q in support for r in support}
        & a.space.dims.keys()
    )
    for t in triple_degrees:
        triples, left_blocks, right_blocks = [], [], []
        for p in support:
            for q in support:
                pq = group.mul(p, q)
                r = group.mul(group.inv(pq), t)
                dp, dq, dr = a.dim(p), a.dim(q), a.dim(r)
                if dp * dq * dr == 0:
                    continue
                triples.append((p, q, r))
                left_blocks.append(a.mult_map(pq, r) @ kron(a.mult_map(p, q), Matrix.identity(dr, field)))
                qr = group.mul(q, r)
                right_blocks.append(a.mult_map(p, qr) @ kron(Matrix.identity(dp, field), a.mult_map(q, r)))
        if triples and hstack(left_blocks) != hstack(right_blocks):
            bad = next(k for k, lb, rb in zip(triples, left_blocks, right_blocks) if lb != rb)
            return Report("assembled_axioms", False, witness=("associativity", bad))
    e = group.identity
    for g in support:
        ident = Matrix.identity(a.dim(g), field)
        if a.mult_map(e, g) @ kron(a.unit, ident) != ident:
            return Report("assembled_axioms", False, witness=("left-unit", g))
        if a.mult_map(g, e) @ kron(ident, a.unit) != ident:
            return Report("assembled_axioms", False, witness=("right-unit", g))
    return Report("assembled_axioms", True)


# ---------------------------------------------------------------------------
# constructors


def group_algebra(group: FiniteGroup, field=QQ) -> GradedAlgebra:
    """k[G]: one-dimensional components, every multiplication map [1]."""
    if not isinstance(group, FiniteGroup):
        raise ValueError("group algebras need a finite group (integer windows have infinite support)")
    dims = {g: 1 for g in group.elements()}
    space = GradedVectorSpace(group, dims)
    one = Matrix.from_rows([[field.one]], field)
    mult = {(g, h): one for g in group.elements() for h in group.elements()}
    unit = Matrix.column([field.one], field)
    return GradedAlgebra(space, mult, unit, field)


def truncated_polynomial(nvars: int, maxdeg: int, field=QQ) -> GradedAlgebra:
    """k[x_1..x_n] / (degree > maxdeg), graded by total degree.

    The degree-d basis is the monomials in lexicographic order (powers of
    x_1 first); dims(d) = C(nvars + d - 1, d). Products that would land
    above maxdeg map to the zero component, which is an honest quotient
    and keeps associativity exact.
    """
    if nvars < 1 or maxdeg < 0:
        raise ValueError("need at least one variable and a nonnegative degree bound")
    basis = {d: list(combinations_with_replacement(range(nvars), d)) for d in range(maxdeg + 1)}
    index = {d: {mono: i for i, mono in enumerate(basis[d])} for d in basis}
    dims = {d: len(basis[d]) for d in basis}
    assert all(dims[d] == comb(nvars + d - 1, d) for d in dims)
    space = GradedVectorSpace(IntegerWindow(0, maxdeg), dims)
    mult = {}
    for d1 in range(maxdeg + 1):
        for d2 in range(maxdeg + 1):
            target = d1 + d2
            if target > maxdeg:
                continue
            cols = []
            for mono1 in basis[d1]:
                for mono2 in basis[d2]:
                    product = tuple(sorted(mono1 + mono2))
                    col = [field.zero] * dims[target]
                    col[index[target][product]] = field.one
                    cols.append(col)
            entries = [col[i] for i in range(dims[target]) for col in cols]
            mult[(d1, d2)] = Matrix(dims[target], dims[d1] * dims[d2], field, entries)
    unit = Matrix.column([field.one], field)
    return GradedAlgebra(space, mult, unit, field)


def regular_module(a: GradedAlgebra) -> GradedModule:
    """A acting on itself by multiplication.

    While a caller holds the module, every call on the same algebra
    returns it: `enriched.gamma_algebra` takes it before its
    `check_algebra` reads it, so one is built. The algebra keeps only a
    weak reference, since the module refers to the algebra and a cycle
    would outlive both until the garbage collector ran. Neither the
    algebra's attributes nor the module's `action` can change, so the
    module stays the algebra's."""
    ref = a.__dict__.get("_regular")
    reg = None if ref is None else ref()
    if reg is None:
        reg = GradedModule(a.space, a, a.mult)  # checked once, by the algebra
        a.__dict__["_regular"] = weakref.ref(reg)
    return reg


def shift_module(m: GradedModule, g) -> GradedModule:
    """S_g(M): degree-d component M_{g^-1 d}, action reindexed the same way."""
    group = m.group
    ginv = group.inv(g)  # refuses a g that is not an element
    mul = group.mul_unchecked
    new_dims = {mul(g, d): dim for d, dim in m.space.dims.items()}
    new_group = group
    if isinstance(group, IntegerWindow):
        if new_dims:
            lo, hi = min(new_dims), max(new_dims)
            new_group = IntegerWindow(min(lo, 0), max(hi, 0))
        else:
            new_group = IntegerWindow(0, 0)
    space = GradedVectorSpace(new_group, new_dims)
    action = {}
    for d in space.support():
        for h in m.algebra.support():
            if mul(d, h) in space.dims:
                action[(d, h)] = m.action_map(mul(ginv, d), h)
    return GradedModule(space, m.algebra, action)


__all__ = [
    "GradedVectorSpace",
    "GradedAlgebra",
    "GradedModule",
    "GradedMorphism",
    "check_algebra",
    "generating_degrees",
    "check_module",
    "check_algebra_morphism",
    "check_module_morphism",
    "cauchy_algebra_oracle",
    "group_algebra",
    "truncated_polynomial",
    "regular_module",
    "shift_module",
]
