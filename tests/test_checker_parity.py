"""The checkers and twist builders that compute with the fused `mul_kron`
give the verdicts, witnesses and structures of their `mat_mul(x, kron(f, g))`
references in `composites`, on seeded one-entry perturbations; and the
independent oracles never call `mul_kron`. check_algebra, which quantifies
associativity over certified generating degrees, also gives the verdict and
witness of its full-loop reference on drawn perturbations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composites import (
    reference_check_algebra,
    reference_check_algebra_morphism,
    reference_check_module,
    reference_check_module_morphism,
    reference_check_phi_family,
    reference_check_twist_condition,
    reference_twist_algebra,
    reference_twist_module,
)
from gradedtwist import enriched, exactmath, graded, twist
from gradedtwist.exactmath import QQ, Matrix, inverse, kron, mat_mul, try_inverse
from gradedtwist.fixtures import F7, broken_algebra, quantum_plane, s3_group_algebra, sign_twist
from gradedtwist.graded import (
    GradedAlgebra,
    GradedModule,
    GradedMorphism,
    GradedVectorSpace,
    check_algebra,
    check_algebra_morphism,
    check_module,
    check_module_morphism,
    regular_module,
    shift_module,
)
from gradedtwist.groups import IntegerWindow
from gradedtwist.twist import (
    COCYCLE,
    EXPLICIT,
    PhiFamily,
    TwistingSystem,
    check_phi_family,
    check_twist_condition,
    phi_from_twist,
    twist_algebra,
    twist_module,
)

SEEDS = range(6)


def bumped(m, rng, value=None):
    """m with one seeded entry replaced: by `value`, or by itself plus 1."""
    field = m.field
    k = rng.randrange(len(m.data))
    data = list(m.data)
    data[k] = field.add(data[k], field.one) if value is None else field.coerce(value)
    return Matrix(m.rows, m.cols, field, data)


def bump_one(maps, rng, value=None):
    """A copy of a {key: Matrix} dict with one entry of one nonempty map replaced."""
    key = rng.choice(sorted(k for k, m in maps.items() if m.data))
    return {**maps, key: bumped(maps[key], rng, value)}


def qp3():
    return quantum_plane(maxdeg=3)


def qp3_explicit():
    """The quantum-plane twist as an explicit table on the window d = 0..3."""
    a, t = qp3()
    return TwistingSystem(a, EXPLICIT, maps={(d, g): t.tau(d, g) for d in a.support() for g in a.support()})


def sign_explicit():
    """The sign cocycle's tau table as an explicit system."""
    a, t = sign_twist(F7)
    return TwistingSystem(a, EXPLICIT, maps=t.maps)


def with_unit(a, value):
    return GradedAlgebra(a.space, a.mult, Matrix(a.unit.rows, 1, a.field, [value] + [0] * (a.unit.rows - 1)),
                         a.field)


def one_sided_unit(left_identities):
    """Associative, and its unit fails one side in degree 0 and the other
    in degree 1 (as in test_graded's one-sided unit test)."""
    rows = [[1, 0, 1, 0], [0, 1, 0, 1]] if left_identities else [[1, 1, 0, 0], [0, 0, 1, 1]]
    acts, killed = Matrix.from_rows([[1, 1]], QQ), Matrix.zeros(1, 2, QQ)
    mult = {
        (0, 0): Matrix.from_rows(rows, QQ),
        (0, 1): killed if left_identities else acts,
        (1, 0): acts if left_identities else killed,
    }
    return GradedAlgebra(GradedVectorSpace(IntegerWindow(0, 1), {0: 2, 1: 1}), mult, Matrix.column([1, 0], QQ), QQ)


# ---------------------------------------------------------------------------
# the cases


def algebra_cases():
    cases = [(f"broken-{seed}", broken_algebra(seed)) for seed in range(12)]
    a, t = qp3()
    cases += [("qp3", a), ("qp3-twisted", twist_algebra(a, t)), ("s3-f7", s3_group_algebra(F7)),
              ("sign-f7", sign_twist(F7)[0]), ("qp3-unit-2", with_unit(a, 2)),
              ("left-identities", one_sided_unit(True)), ("right-identities", one_sided_unit(False))]
    for seed in SEEDS:
        rng = random.Random(seed)
        cases.append((f"qp3-bumped-{seed}", GradedAlgebra(a.space, bump_one(a.mult, rng), a.unit, a.field)))
    return cases


def module_cases():
    cases = []
    a, t = qp3()
    s3 = s3_group_algebra(F7)
    for label, alg in (("qp3", a), ("qp3-twisted", twist_algebra(a, t)), ("s3-f7", s3)):
        cases.append((label, regular_module(alg)))
    cases.append(("qp3-shifted", shift_module(regular_module(a), 2)))
    cases += [(f"{label}-regular", regular_module(alg)) for label, alg in
              (("qp3-unit-2", with_unit(a, 2)), ("right-identities", one_sided_unit(False)))]
    for seed in SEEDS:
        rng = random.Random(seed)
        # as in the gamma-fp refusals: one action matrix of k[S3] set to [v]
        pair = (rng.choice(s3.support()), rng.choice(s3.support()))
        action = {**s3.mult, pair: Matrix(1, 1, F7, [rng.randrange(2, 6)])}
        cases.append((f"s3-f7-action-{seed}", GradedModule(s3.space, s3, action)))
        cases.append((f"qp3-bumped-{seed}", GradedModule(a.space, a, bump_one(a.mult, rng))))
    return cases


def identity_components(space, field):
    return {g: Matrix.identity(d, field) for g, d in space.dims.items()}


def algebra_morphism_cases():
    a, t = qp3()
    s3 = s3_group_algebra(F7)
    cases = [("qp3-sigma", t.sigma, a, a),
             ("s3-f7-identity", GradedMorphism(s3.space, s3.space, identity_components(s3.space, F7), F7), s3, s3),
             ("qp3-to-unit-2", GradedMorphism(a.space, a.space, identity_components(a.space, a.field), a.field),
              a, with_unit(a, 2))]
    for seed in SEEDS:
        rng = random.Random(seed)
        # as in the gamma-fp refusals: one component of the identity set to [v]
        g = rng.choice(s3.support())
        comps = {**identity_components(s3.space, F7), g: Matrix(1, 1, F7, [rng.randrange(2, 6)])}
        cases.append((f"s3-f7-component-{seed}", GradedMorphism(s3.space, s3.space, comps, F7), s3, s3))
        sigma = GradedMorphism(a.space, a.space, bump_one(t.sigma.components, rng), a.field)
        cases.append((f"qp3-sigma-bumped-{seed}", sigma, a, a))
    # the unit map k -> qp3 and the augmentation qp3 -> k: the supports
    # differ, so a loop over the wrong one reads a degree the other lacks
    one = Matrix.from_rows([[1]], a.field)
    k = GradedAlgebra(GradedVectorSpace(IntegerWindow(0, 0), {0: 1}), {(0, 0): one}, Matrix.column([1], a.field),
                      a.field)
    for value in (1, 2):
        comps = {0: Matrix.from_rows([[value]], a.field)}
        cases += [(f"unit-map-{value}", GradedMorphism(k.space, a.space, comps, a.field), k, a),
                  (f"augmentation-{value}", GradedMorphism(a.space, k.space, comps, a.field), a, k)]
    # k[S3] -> k in degree e fails at a pair (g, g^-1) with g != e, which
    # only a loop over the source's support reaches
    e, one = s3.group.identity, Matrix.from_rows([[1]], F7)
    k_e = GradedAlgebra(GradedVectorSpace(s3.group, {e: 1}), {(e, e): one}, Matrix.column([1], F7), F7)
    cases.append(("s3-f7-to-degree-e", GradedMorphism(s3.space, k_e.space, {e: one}, F7), s3, k_e))
    return cases


def conjugated(m, rng):
    """(P, n): a seeded unitriangular graded basis change P and the module n
    that makes P: m -> n a module isomorphism, rho^n_{g,h} = P_gh rho_{g,h} (P_g^-1 (x) id)."""
    field, a = m.field, m.algebra
    comps = {g: Matrix(d, d, field, [int(i == j) or (rng.randrange(-3, 4) if j > i else 0)
                                     for i in range(d) for j in range(d)])
             for g, d in m.space.dims.items()}
    action = {(g, h): mat_mul(comps[m.group.mul(g, h)] @ rho, kron(inverse(comps[g]), Matrix.identity(a.dim(h), field)))
              for (g, h), rho in m.action.items()}
    return GradedMorphism(m.space, m.space, comps, field), GradedModule(m.space, a, action)


def module_morphism_cases():
    a, _t = qp3()
    s3 = s3_group_algebra(F7)
    reg = regular_module(a)
    p, n = conjugated(reg, random.Random(0))
    cases = [("qp3-conjugated", p, reg, n)]
    for seed in SEEDS:
        bumped_p = GradedMorphism(a.space, a.space, bump_one(p.components, random.Random(seed)), a.field)
        cases.append((f"qp3-conjugated-bumped-{seed}", bumped_p, reg, n))
    for label, alg in (("qp3", a), ("s3-f7", s3)):
        reg = regular_module(alg)
        ident = identity_components(alg.space, alg.field)
        cases.append((f"{label}-identity", GradedMorphism(alg.space, alg.space, ident, alg.field), reg, reg))
        for seed in SEEDS:
            f = GradedMorphism(alg.space, alg.space, bump_one(ident, random.Random(seed)), alg.field)
            cases.append((f"{label}-bumped-{seed}", f, reg, reg))
    return cases


def twist_cases():
    a_sign, t_sign = sign_twist(F7)
    cases = [("sign-cocycle", t_sign), ("sign-explicit", sign_explicit()), ("qp3-explicit", qp3_explicit())]
    for seed in SEEDS:
        rng = random.Random(seed)
        key = rng.choice(sorted(t_sign.alpha))
        for value in (0, rng.randrange(2, 7)):
            cases.append((f"sign-alpha-{seed}-{value}",
                          TwistingSystem(a_sign, COCYCLE, alpha={**t_sign.alpha, key: value})))
        for label, t in (("sign", sign_explicit()), ("qp3", qp3_explicit())):
            for value in (None, 0):
                maps = bump_one(t.maps, random.Random(seed), value)
                cases.append((f"{label}-tau-{seed}-{value}", TwistingSystem(t.algebra, EXPLICIT, maps=maps)))
    return cases


def phi_cases():
    cases = []
    for label, t in (("sign", sign_twist(F7)[1]), ("qp3", qp3()[1])):
        p = phi_from_twist(t)
        cases.append((label, p))
        for seed in SEEDS:
            for value in (None, 0):
                maps = bump_one(p.maps, random.Random(seed), value)
                cases.append((f"{label}-phi-{seed}-{value}", PhiFamily(p.source, p.target, maps)))
    return cases


def ids(cases):
    return [case[0] for case in cases]


def verdict(report):
    return report.passed, report.witness


# ---------------------------------------------------------------------------
# parity


ALGEBRAS, MODULES = algebra_cases(), module_cases()
ALGEBRA_MORPHISMS, MODULE_MORPHISMS = algebra_morphism_cases(), module_morphism_cases()
TWISTS, PHIS = twist_cases(), phi_cases()


@pytest.mark.parametrize("case", ALGEBRAS, ids=ids(ALGEBRAS))
def test_check_algebra_matches_its_reference(case):
    assert verdict(check_algebra(case[1])) == reference_check_algebra(case[1])


@pytest.mark.parametrize("case", MODULES, ids=ids(MODULES))
def test_check_module_matches_its_reference(case):
    assert verdict(check_module(case[1])) == reference_check_module(case[1])


@pytest.mark.parametrize("case", ALGEBRA_MORPHISMS, ids=ids(ALGEBRA_MORPHISMS))
def test_check_algebra_morphism_matches_its_reference(case):
    _label, f, a, b = case
    assert verdict(check_algebra_morphism(f, a, b)) == reference_check_algebra_morphism(f, a, b)


@pytest.mark.parametrize("case", MODULE_MORPHISMS, ids=ids(MODULE_MORPHISMS))
def test_check_module_morphism_matches_its_reference(case):
    _label, f, m, n = case
    assert verdict(check_module_morphism(f, m, n)) == reference_check_module_morphism(f, m, n)


@pytest.mark.parametrize("case", TWISTS, ids=ids(TWISTS))
def test_check_twist_condition_matches_its_reference(case):
    assert verdict(check_twist_condition(case[1])) == reference_check_twist_condition(case[1])


@pytest.mark.parametrize("case", PHIS, ids=ids(PHIS))
def test_check_phi_family_matches_its_reference(case):
    assert verdict(check_phi_family(case[1])) == reference_check_phi_family(case[1])


@pytest.mark.parametrize("case", TWISTS, ids=ids(TWISTS))
def test_twisted_structures_match_their_references(case):
    t = case[1]
    a = t.algebra
    e = a.group.identity
    if try_inverse(t.tau(e, e)) is None:
        with pytest.raises(ValueError, match="singular"):
            twist_algebra(a, t)
        return
    twisted = twist_algebra(a, t)
    assert twisted == reference_twist_algebra(a, t)
    reg = regular_module(a)
    assert twist_module(reg, t) == reference_twist_module(reg, t, twisted)


def test_a_shifted_module_twists_as_its_reference():
    a, t = qp3()
    twisted = twist_algebra(a, t)
    shifted = shift_module(regular_module(a), 2)
    assert twist_module(shifted, t) == reference_twist_module(shifted, t, twisted)


def test_the_cases_reach_every_witness():
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
        ("check_algebra", "associativity"), ("check_algebra", "left-unit"), ("check_algebra", "right-unit"),
        ("check_module", "associativity"), ("check_module", "unit-action"),
        ("check_algebra_morphism", "multiplicativity"), ("check_algebra_morphism", "unit"),
        ("check_module_morphism", "intertwining"),
        ("check_twist_condition", "non-invertible"), ("check_twist_condition", "twist-condition"),
        ("check_phi_family", "non-invertible"), ("check_phi_family", "multiplicativity"),
    }


PERTURBED_BASES = {label: a for label, a in ALGEBRAS if label in ("qp3", "qp3-twisted", "s3-f7", "sign-f7")}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(["broken", "bump", "set", "unit"]),
       base=st.sampled_from(sorted(PERTURBED_BASES)))
def test_check_algebra_matches_its_full_loop_reference_on_drawn_perturbations(seed, kind, base):
    """A `broken_algebra` seed, or one structure-map entry bumped by one or
    set to a drawn value, or a drawn unit."""
    rng = random.Random(seed)
    a = PERTURBED_BASES[base]
    if kind == "broken":
        a = broken_algebra(seed)
    elif kind == "bump":
        a = GradedAlgebra(a.space, bump_one(a.mult, rng), a.unit, a.field)
    elif kind == "set":
        a = GradedAlgebra(a.space, bump_one(a.mult, rng, rng.randrange(5)), a.unit, a.field)
    else:
        a = with_unit(a, rng.randrange(5))
    assert verdict(check_algebra(a)) == reference_check_algebra(a)


# ---------------------------------------------------------------------------
# the oracles stay independent of the kernel they check


def count_mul_kron(monkeypatch):
    """Rebind every module's name for exactmath.mul_kron to a counter."""
    calls = []
    real = exactmath.mul_kron

    def counted(x, f, g):
        calls.append((x, f, g))
        return real(x, f, g)

    for module in (exactmath, graded, twist, enriched):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("build", [lambda: qp3()[0], lambda: s3_group_algebra(F7)], ids=["qp3", "s3-f7"])
def test_the_oracles_make_no_mul_kron_call(monkeypatch, build):
    a = build()
    reg = regular_module(a)
    calls = count_mul_kron(monkeypatch)
    assert graded._assembled_axioms(a).passed
    for g in a.support():
        enriched.direct_intertwiner_basis(reg, reg, g)
    assert calls == []
    # the counter sees the checkers' calls, so the zero above is measured
    assert check_algebra(a).passed
    assert calls
