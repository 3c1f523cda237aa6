"""The checker loops of `graded` compare products of scalars when every
component they read is 1-dimensional (`graded._one_dimensional`), and 1x1
matrices otherwise. On group algebras of S3, Z/4 and the Klein four group
over F_7 and QQ, on their cocycle twists, on supports that are proper
subsets of the grading group (where a structure map's absent key reads as
zero), and on inputs just outside the path (a map between different dims,
a structure with a 2-dimensional component), each checker gives the
verdict and witness of its `mat_mul(x, kron(f, g))` reference in
`composites`, on passing inputs and on seeded one-entry perturbations."""

import random

import pytest

from composites import (
    reference_check_algebra,
    reference_check_algebra_morphism,
    reference_check_module,
    reference_check_module_morphism,
    reference_check_phi_family,
    reference_check_twist_condition,
)
from gradedtwist import graded
from gradedtwist.exactmath import QQ, Matrix
from gradedtwist.fixtures import F7
from gradedtwist.graded import (
    GradedAlgebra,
    GradedModule,
    GradedMorphism,
    GradedVectorSpace,
    check_algebra,
    check_algebra_morphism,
    check_module,
    check_module_morphism,
    group_algebra,
    regular_module,
    shift_module,
    truncated_polynomial,
)
from gradedtwist.groups import FiniteGroup, cyclic_group, symmetric_group
from gradedtwist.twist import (
    COCYCLE,
    EXPLICIT,
    PhiFamily,
    TwistingSystem,
    check_phi_family,
    check_twist_condition,
    phi_from_twist,
    twist_algebra,
)

SEEDS = range(4)
FIELDS = {"f7": F7, "qq": QQ}


def klein_four():
    return FiniteGroup([[a ^ b for b in range(4)] for a in range(4)], identity=0)


# each group with the exponent of -1 of a bilinear 2-cocycle on it, not a
# coboundary on Z/4 and the Klein four group (x = 2 x_1 + x_0 there)
GROUPS = {
    "s3": (lambda: symmetric_group(3), lambda x, y: 0),
    "z4": (lambda: cyclic_group(4), lambda x, y: x * y % 2),
    "klein": (klein_four, lambda x, y: (x >> 1) & y & 1),
}


def scalar(field, value):
    return Matrix(1, 1, field, [value])


def bumped(maps, rng, value=None):
    """A copy of a {key: Matrix} dict with one seeded entry replaced: by
    `value`, or by itself plus 1."""
    key = rng.choice(sorted(k for k, m in maps.items() if m.data))
    m = maps[key]
    field = m.field
    k = rng.randrange(len(m.data))
    data = list(m.data)
    data[k] = field.add(data[k], field.one) if value is None else field.coerce(value)
    return {**maps, key: Matrix(m.rows, m.cols, field, data)}


def cocycle(group, field, seed, sign):
    """Seeded nonzero alpha on G x G: the coboundary of seeded scalars beta
    with beta(e) = 1, times (-1)^sign(x, y). Returns (alpha, beta)."""
    rng = random.Random(seed)
    one = field.one
    beta = {g: one if g == group.identity else field.coerce(rng.randrange(1, 7)) for g in group.elements()}
    alpha = {}
    for x in group.elements():
        for y in group.elements():
            value = field.mul(field.mul(beta[x], beta[y]), field.inv(beta[group.mul(x, y)]))
            alpha[(x, y)] = field.neg(value) if sign(x, y) else value
    return alpha, beta


def identity_components(space, field):
    return {g: Matrix.identity(d, field) for g, d in space.dims.items()}


def rescaled(m, rng):
    """(P, N): seeded nonzero scalars P_g on M and the module N with
    rho^N_{g,h} = P_gh rho_{g,h} P_g^-1, so that P: M -> N is a module map."""
    field, mul = m.field, m.group.mul
    scale = {g: field.coerce(rng.randrange(1, 7)) for g in m.support()}
    action = {(g, h): scalar(field, field.mul(field.mul(scale[mul(g, h)], rho.data[0]), field.inv(scale[g])))
              for (g, h), rho in m.action.items()}
    comps = {g: scalar(field, s) for g, s in scale.items()}
    return GradedMorphism(m.space, m.space, comps, field), GradedModule(m.space, m.algebra, action)


def dual_numbers(field):
    """k[x]/(x^2) graded by Z/4 on the support {0, 1}: the key (1, 1) is
    absent, since x^2 would land in the zero component of degree 2."""
    one = scalar(field, 1)
    space = GradedVectorSpace(cyclic_group(4), {0: 1, 1: 1})
    return GradedAlgebra(space, {(0, 0): one, (0, 1): one, (1, 0): one}, Matrix.column([1], field), field)


def proper_supports(field):
    """Algebras whose support is a proper subset of their grading group."""
    return {"dual-numbers": dual_numbers(field), "window-x^4": truncated_polynomial(1, 3, field)}


# ---------------------------------------------------------------------------
# the cases: (label, inputs); every input here takes the scalar path


def algebra_cases():
    cases = []
    for (gname, (build, sign)), (fname, field) in ((g, f) for g in GROUPS.items() for f in FIELDS.items()):
        a = group_algebra(build(), field)
        label = f"{gname}-{fname}"
        alpha, _beta = cocycle(a.group, field, 0, sign)
        twisted = twist_algebra(a, TwistingSystem(a, COCYCLE, alpha=alpha))
        cases += [(label, a), (f"{label}-twisted", twisted)]
        for seed in SEEDS:
            rng = random.Random(seed)
            cases.append((f"{label}-bumped-{seed}", GradedAlgebra(a.space, bumped(a.mult, rng), a.unit, field)))
            cases.append((f"{label}-twisted-bumped-{seed}",
                          GradedAlgebra(twisted.space, bumped(twisted.mult, rng), twisted.unit, field)))
            unit = Matrix.column([rng.randrange(2, 7)], field)
            cases.append((f"{label}-unit-{seed}", GradedAlgebra(a.space, a.mult, unit, field)))
    for fname, field in FIELDS.items():
        for name, a in proper_supports(field).items():
            cases.append((f"{name}-{fname}", a))
            for seed in SEEDS:
                mult = bumped(a.mult, random.Random(seed))
                cases.append((f"{name}-{fname}-bumped-{seed}", GradedAlgebra(a.space, mult, a.unit, field)))
    return cases


def module_cases():
    cases = []
    for label, a in algebra_cases():
        if "bumped" in label or "unit" in label:
            continue
        reg = regular_module(a)
        cases.append((f"{label}-regular", reg))
        if len(a.support()) > 1:
            cases.append((f"{label}-shifted", shift_module(reg, a.support()[1])))
        for seed in SEEDS:
            cases.append((f"{label}-bumped-{seed}", GradedModule(a.space, a, bumped(a.mult, random.Random(seed)))))
    return cases


def algebra_morphism_cases():
    """The identity, and the iso x_g -> beta(g) x_g from a coboundary twist
    k[G]^alpha onto k[G], each with a seeded bumped component."""
    cases = []
    for (gname, (build, _sign)), (fname, field) in ((g, f) for g in GROUPS.items() for f in FIELDS.items()):
        a = group_algebra(build(), field)
        label = f"{gname}-{fname}"
        coboundary, beta = cocycle(a.group, field, 1, lambda x, y: 0)
        twisted = twist_algebra(a, TwistingSystem(a, COCYCLE, alpha=coboundary))
        ident = identity_components(a.space, field)
        iso = {g: scalar(field, b) for g, b in beta.items()}
        for name, comps, source in (("identity", ident, a), ("coboundary-iso", iso, twisted)):
            cases.append((f"{label}-{name}", GradedMorphism(a.space, a.space, comps, field), source, a))
            for seed in SEEDS:
                f = GradedMorphism(a.space, a.space, bumped(comps, random.Random(seed)), field)
                cases.append((f"{label}-{name}-bumped-{seed}", f, source, a))
    for fname, field in FIELDS.items():
        for name, a in proper_supports(field).items():
            ident = identity_components(a.space, field)
            cases.append((f"{name}-{fname}", GradedMorphism(a.space, a.space, ident, field), a, a))
            for seed in SEEDS:
                f = GradedMorphism(a.space, a.space, bumped(ident, random.Random(seed), 3), field)
                cases.append((f"{name}-{fname}-bumped-{seed}", f, a, a))
    return cases


def module_morphism_cases():
    """On the regular module of each cocycle twist and proper support: the
    identity, and P: M -> N for rescaled scalars P, each with a seeded
    bumped component."""
    cases = []
    for label, a in algebra_cases():
        if not (label.endswith("twisted") or label.startswith(("dual", "window"))) or "bumped" in label:
            continue
        reg = regular_module(a)
        p, n = rescaled(reg, random.Random(len(cases)))
        ident = identity_components(a.space, a.field)
        for name, comps, target in (("identity", ident, reg), ("rescaled", p.components, n)):
            cases.append((f"{label}-{name}", GradedMorphism(a.space, a.space, comps, a.field), reg, target))
            for seed in SEEDS:
                f = GradedMorphism(a.space, a.space, bumped(comps, random.Random(seed)), a.field)
                cases.append((f"{label}-{name}-bumped-{seed}", f, reg, target))
    return cases


def twist_cases():
    """Cocycle systems on each group algebra and on the dual numbers, as
    cocycles and as explicit tables, with one seeded alpha replaced by a
    seeded nonzero value or by 0."""
    cases = []
    bases = [(f"{g}-{f}", group_algebra(build(), field), sign)
             for g, (build, sign) in GROUPS.items() for f, field in FIELDS.items()]
    bases += [(f"dual-numbers-{f}", dual_numbers(field), GROUPS["z4"][1]) for f, field in FIELDS.items()]
    for label, a, sign in bases:
        alpha, _beta = cocycle(a.group, a.field, 2, sign)
        t = TwistingSystem(a, COCYCLE, alpha=alpha)
        cases += [(f"{label}-cocycle", t), (f"{label}-explicit", TwistingSystem(a, EXPLICIT, maps=t.maps))]
        for seed in SEEDS:
            rng = random.Random(seed)
            key = rng.choice(sorted(alpha))
            for value in (rng.randrange(2, 7), 0):
                cases.append((f"{label}-alpha-{seed}-{value}",
                              TwistingSystem(a, COCYCLE, alpha={**alpha, key: value})))
                maps = bumped(t.maps, rng, value)
                cases.append((f"{label}-tau-{seed}-{value}", TwistingSystem(a, EXPLICIT, maps=maps)))
    return cases


def phi_cases():
    cases = []
    for label, t in twist_cases():
        if not label.endswith("-cocycle"):
            continue
        p = phi_from_twist(t)
        cases.append((label, p))
        for seed in SEEDS:
            for value in (None, 0):
                maps = bumped(p.maps, random.Random(seed), value)
                cases.append((f"{label}-phi-{seed}-{value}", PhiFamily(p.source, p.target, maps)))
    return cases


def ids(cases):
    return [case[0] for case in cases]


def verdict(report):
    return report.passed, report.witness


ALGEBRAS, MODULES = algebra_cases(), module_cases()
ALGEBRA_MORPHISMS, MODULE_MORPHISMS = algebra_morphism_cases(), module_morphism_cases()
TWISTS, PHIS = twist_cases(), phi_cases()


# ---------------------------------------------------------------------------
# parity on the scalar path


@pytest.mark.parametrize("case", ALGEBRAS, ids=ids(ALGEBRAS))
def test_check_algebra_matches_its_reference(case):
    a = case[1]
    assert graded._one_dimensional(a.space, a.space)
    assert verdict(check_algebra(a)) == reference_check_algebra(a)


@pytest.mark.parametrize("case", MODULES, ids=ids(MODULES))
def test_check_module_matches_its_reference(case):
    m = case[1]
    assert graded._one_dimensional(m.algebra.space, m.space)
    assert verdict(check_module(m)) == reference_check_module(m)


@pytest.mark.parametrize("case", ALGEBRA_MORPHISMS, ids=ids(ALGEBRA_MORPHISMS))
def test_check_algebra_morphism_matches_its_reference(case):
    _label, f, a, b = case
    assert graded._one_dimensional(b.space, a.space, b.space)
    assert verdict(check_algebra_morphism(f, a, b)) == reference_check_algebra_morphism(f, a, b)


@pytest.mark.parametrize("case", MODULE_MORPHISMS, ids=ids(MODULE_MORPHISMS))
def test_check_module_morphism_matches_its_reference(case):
    _label, f, m, n = case
    assert graded._one_dimensional(m.algebra.space, m.space, n.space)
    assert verdict(check_module_morphism(f, m, n)) == reference_check_module_morphism(f, m, n)


@pytest.mark.parametrize("case", TWISTS, ids=ids(TWISTS))
def test_check_twist_condition_matches_its_reference(case):
    assert verdict(check_twist_condition(case[1])) == reference_check_twist_condition(case[1])


@pytest.mark.parametrize("case", PHIS, ids=ids(PHIS))
def test_check_phi_family_matches_its_reference(case):
    assert verdict(check_phi_family(case[1])) == reference_check_phi_family(case[1])


def test_the_cases_pass_and_fail_at_every_witness():
    reached = set()
    for reports in (
        [check_algebra(a) for _l, a in ALGEBRAS],
        [check_module(m) for _l, m in MODULES],
        [check_algebra_morphism(*case[1:]) for case in ALGEBRA_MORPHISMS],
        [check_module_morphism(*case[1:]) for case in MODULE_MORPHISMS],
        [check_twist_condition(t) for _l, t in TWISTS],
        [check_phi_family(p) for _l, p in PHIS],
    ):
        assert any(r.passed for r in reports) and not all(r.passed for r in reports)
        reached |= {(r.check, r.witness[0]) for r in reports if isinstance(r.witness, tuple)}
    assert reached >= {
        ("check_algebra", "associativity"), ("check_algebra", "left-unit"),
        ("check_module", "associativity"), ("check_algebra_morphism", "multiplicativity"),
        ("check_module_morphism", "intertwining"), ("check_twist_condition", "twist-condition"),
        ("check_twist_condition", "non-invertible"), ("check_phi_family", "multiplicativity"),
    }


def test_proper_supports_take_the_scalar_path_past_their_absent_keys():
    # the storage rule leaves out every key that touches a zero component,
    # (1, 1) of the dual numbers and (2, 1) of their shift by 1 among them;
    # the scalar loops read such a key as zero and pass with the reference
    for field in FIELDS.values():
        a = dual_numbers(field)
        assert (1, 1) not in a.mult and graded._one_dimensional(a.space, a.space)
        assert check_algebra(a).passed
        shifted = shift_module(regular_module(a), 1)  # degrees {1, 2}: reads (2, 1), absent
        assert (2, 1) not in shifted.action
        assert verdict(check_module(shifted)) == reference_check_module(shifted) == (True, None)


# ---------------------------------------------------------------------------
# inputs just outside the path keep the Matrix loops


def count_mul_kron(monkeypatch):
    calls = []
    real = graded.mul_kron
    monkeypatch.setattr(graded, "mul_kron", lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_map_between_different_dims_takes_the_matrix_path(monkeypatch):
    # k[S3] -> k in degree e, and the regular module of k[Z/4] into the
    # degrees {0, 2} with the action restricted there (not a module; the
    # loops compare whatever they are given): every component is
    # 1-dimensional, but the target's dims differ from the source's
    s3 = group_algebra(symmetric_group(3), F7)
    e, one = s3.group.identity, scalar(F7, 1)
    k_e = GradedAlgebra(GradedVectorSpace(s3.group, {e: 1}), {(e, e): one}, Matrix.column([1], F7), F7)
    f = GradedMorphism(s3.space, k_e.space, {e: one}, F7)
    assert not graded._one_dimensional(k_e.space, s3.space, k_e.space)
    calls = count_mul_kron(monkeypatch)
    assert verdict(check_algebra_morphism(f, s3, k_e)) == reference_check_algebra_morphism(f, s3, k_e)
    assert calls and verdict(check_algebra_morphism(f, s3, k_e))[0] is False

    z4 = group_algebra(cyclic_group(4), QQ)
    reg = regular_module(z4)
    half = GradedVectorSpace(z4.group, {0: 1, 2: 1})
    n = GradedModule(half, z4, {(g, h): m for (g, h), m in z4.mult.items() if g in (0, 2) and h in (0, 2)})
    for value in (1, 2):
        comps = {g: scalar(QQ, value) for g in (0, 2)}
        f = GradedMorphism(reg.space, half, comps, QQ)
        assert not graded._one_dimensional(z4.space, reg.space, half)
        calls.clear()
        assert verdict(check_module_morphism(f, reg, n)) == reference_check_module_morphism(f, reg, n)
        assert calls


def test_a_two_dimensional_component_takes_the_matrix_path(monkeypatch):
    # k[x, y] / (degree > 1): dims {0: 1, 1: 2}
    for field in FIELDS.values():
        a = truncated_polynomial(2, 1, field)
        reg = regular_module(a)
        assert a.space.dims == {0: 1, 1: 2} and not graded._one_dimensional(a.space, a.space)
        ident = GradedMorphism(a.space, a.space, identity_components(a.space, field), field)
        for seed in SEEDS:
            rng = random.Random(seed)
            b = GradedAlgebra(a.space, bumped(a.mult, rng), a.unit, field)
            m = GradedModule(a.space, a, bumped(a.mult, rng))
            f = GradedMorphism(a.space, a.space, bumped(ident.components, rng), field)
            calls = count_mul_kron(monkeypatch)
            assert verdict(check_algebra(b)) == reference_check_algebra(b)
            assert verdict(check_module(m)) == reference_check_module(m)
            assert verdict(check_algebra_morphism(f, a, a)) == reference_check_algebra_morphism(f, a, a)
            assert verdict(check_module_morphism(f, reg, reg)) == reference_check_module_morphism(f, reg, reg)
            assert calls
            monkeypatch.undo()


def test_a_passing_check_algebra_on_s4_checks_associativity_without_mul_kron(monkeypatch):
    # the unit laws and the generating-degree certificate still compose
    # matrices; Light's test over the certified degrees makes no mul_kron call
    a = group_algebra(symmetric_group(4), F7)
    calls = count_mul_kron(monkeypatch)
    assert graded._unit_failure(a) is None and graded.generating_degrees(a) is not None
    outside = len(calls)
    calls.clear()
    assert check_algebra(a).passed and a.generators is not None
    assert len(calls) == outside
    calls.clear()
    assert graded._associativity_failure(regular_module(a), a.support()) is None
    assert calls == []
