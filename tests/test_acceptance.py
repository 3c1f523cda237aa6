"""The acceptance gate. One test per criterion; every equality is
bit-exact with zero tolerance.

Shared fixture roster: group algebras of Z/2, Z/3 (over the rationals
and F_7) and S_3, the truncated polynomial algebra in two variables up
to total degree 3, and the twisting systems bundled with the package
(identity, sign cocycle, quantum-plane automorphism, seeded random
cocycles)."""

import random
from fractions import Fraction

from composites import assemble, flat, r_composite, s_composite, sharp
from gradedtwist.exactmath import Matrix, PrimeField, QQ, kron
from gradedtwist.enriched import (
    build_RS,
    direct_intertwiner_basis,
    endo_iso,
    gamma_algebra,
    check_shift_props,
    module_hom_space,
)
from gradedtwist.equivalence import backward, check_equivalence, equivalence_from_twist, gamma_twist_phi
from gradedtwist.fixtures import (
    broken_algebra,
    quantum_plane,
    random_cocycle_twist,
    s3_group_algebra,
    sign_twist,
    z2_group_algebra,
    z3_f7_algebra,
    z3_group_algebra,
)
from gradedtwist.graded import (
    cauchy_algebra_oracle,
    check_algebra,
    check_algebra_morphism,
    check_module,
    regular_module,
    shift_module,
)
from gradedtwist.twist import (
    check_phi_family,
    check_twist_condition,
    check_unit_lemma,
    compose_twists,
    identity_twist,
    inverse_twist,
    phi_from_twist,
    support_closure,
    twist_algebra,
    twist_from_phi,
    twist_module,
)

F5 = PrimeField(5)

RANDOM_SEEDS = range(20)


def fixture_algebras():
    return [
        z2_group_algebra(),
        z3_group_algebra(),
        s3_group_algebra(),
        z3_f7_algebra(),
        quantum_plane()[0],
    ]


def fixture_twists():
    systems = [
        (z2_group_algebra(), identity_twist(z2_group_algebra())),
        sign_twist(),
        quantum_plane(),
    ]
    systems.extend(random_cocycle_twist(seed) for seed in RANDOM_SEEDS)
    return systems


def degrees_of(algebra):
    group = algebra.group
    if getattr(group, "is_finite", False):
        return list(group.elements())
    return support_closure(algebra)


def test_c01_axiom_suites():
    for algebra in fixture_algebras():
        assert check_algebra(algebra).passed
        assert check_module(regular_module(algebra)).passed


def test_c02_twist_soundness():
    for algebra, system in fixture_twists():
        assert check_twist_condition(system).passed
        twisted = twist_algebra(algebra, system)
        assert check_algebra(twisted).passed
        twisted_reg = twist_module(regular_module(algebra), system)
        assert check_module(twisted_reg).passed


def test_c03_inverse_and_composite_laws():
    for algebra, system in fixture_twists():
        twisted = twist_algebra(algebra, system)
        assert twist_algebra(twisted, inverse_twist(system)) == algebra
        second = inverse_twist(system)
        composite = compose_twists(system, second)
        assert twist_algebra(algebra, composite) == twist_algebra(twisted, second)


def test_c04_unit_lemma():
    for _algebra, system in fixture_twists():
        assert check_twist_condition(system).passed
        assert check_unit_lemma(system).passed


def test_c05_phi_round_trip():
    for algebra, system in fixture_twists():
        family = phi_from_twist(system)
        assert check_phi_family(family).passed
        recovered, twisted, morphism = twist_from_phi(family)
        for d in degrees_of(algebra):
            for g in algebra.support():
                if system.has_tau(d, g) and recovered.has_tau(d, g):
                    assert recovered.tau(d, g) == system.tau(d, g)
        assert check_twist_condition(recovered).passed
        rebuilt = twist_algebra(algebra, recovered)
        assert twisted == rebuilt
        assert check_algebra_morphism(morphism, family.source, rebuilt).passed


def test_c06_quantum_plane_relation():
    algebra, system = quantum_plane()
    twisted = twist_algebra(algebra, system)
    mult = twisted.mult_map(1, 1)
    x_times_y = mult.col(1)
    y_times_x = mult.col(2)
    assert x_times_y == tuple(2 * value for value in y_times_x)


def _equal_sharp_identities(space, m, n, g):
    """build_RS's D is R - S with R and S taken from their composites, and
    for each kernel vector the curried maps through every target block
    agree when built from either side of the equalizer."""
    group = m.group
    field = m.field
    difference, source, target_layout = build_RS(m, n, g)
    big_r = assemble(r_composite, m, n, g, source, target_layout)
    big_s = assemble(s_composite, m, n, g, source, target_layout)
    assert difference == big_r - big_s
    for i in range(space.dim):
        nu = Matrix(space.total, 1, field, space.kernel.col(i))
        for (p, h), offset, size in target_layout:
            n2 = n.dim(group.mul(p, h))
            pair_dim = size // n2
            r_block = Matrix.from_rows(
                [big_r.row(r) for r in range(offset, offset + size)], field
            )
            s_block = Matrix.from_rows(
                [big_s.row(r) for r in range(offset, offset + size)], field
            )
            lhs = flat(r_block, pair_dim, n2) @ kron(nu, Matrix.identity(pair_dim, field))
            rhs = flat(s_block, pair_dim, n2) @ kron(nu, Matrix.identity(pair_dim, field))
            assert lhs == rhs


def test_c07_internal_hom_oracle_and_equal_sharp():
    pairs = []
    for algebra in fixture_algebras():
        reg = regular_module(algebra)
        pairs.append((reg, reg))
    s3_f5 = s3_group_algebra(F5)
    pairs.append((regular_module(s3_f5), shift_module(regular_module(s3_f5), 2)))
    quantum = quantum_plane()[0]
    pairs.append((regular_module(quantum), shift_module(regular_module(quantum), 1)))
    for m, n in pairs:
        for g in degrees_of(m.algebra):
            space = module_hom_space(m, n, g)
            assert space.kernel == direct_intertwiner_basis(m, n, g)
            _equal_sharp_identities(space, m, n, g)


def test_c08_endomorphism_theorem():
    for algebra in fixture_algebras():
        gamma = gamma_algebra(algebra)
        for g in gamma.degrees:
            assert gamma.dim(g) == algebra.dim(g)
        _phi, _psi, report = endo_iso(gamma)
        assert report.passed


def test_c09_shift_properties():
    for algebra in (z2_group_algebra(), z3_group_algebra(), s3_group_algebra()):
        reg = regular_module(algebra)
        for g in algebra.group.elements():
            for d in algebra.group.elements():
                assert check_shift_props(reg, reg, g, d).passed


def test_c10_zm_round_trip():
    for algebra, system in (sign_twist(), quantum_plane()):
        data = equivalence_from_twist(system)
        assert check_equivalence(data).passed
        family, transport_report = gamma_twist_phi(data)
        assert transport_report.passed
        assert check_phi_family(family).passed
        result = backward(data)
        assert result.report.passed
        twisted = twist_algebra(algebra, system)
        assert result.twisted == twisted
        assert check_algebra_morphism(result.iso, result.twisted, twisted).passed
        if not getattr(algebra.group, "is_finite", False):
            assert "window-verified" in result.report.notes


def test_c11_currying_round_trips():
    rng = random.Random(1105)
    count = 0
    for field in (QQ, F5):
        for _ in range(60):
            dx, dy, dz = (rng.randrange(5) for _ in range(3))
            if field is QQ:
                entries = [
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                    for _ in range(dz * dx * dy)
                ]
            else:
                entries = [rng.randrange(5) for _ in range(dz * dx * dy)]
            nu = Matrix(dz, dx * dy, field, entries)
            assert flat(sharp(nu, dx, dy), dy, dz) == nu
            psi = sharp(nu, dx, dy)
            assert sharp(flat(psi, dy, dz), dx, dy) == psi
            count += 1
    assert count >= 100


def test_c12_cauchy_oracle_agreement():
    for algebra in fixture_algebras():
        assert cauchy_algebra_oracle(algebra).passed
    for seed in RANDOM_SEEDS:
        bad = broken_algebra(seed)
        assert not check_algebra(bad).passed
        assert cauchy_algebra_oracle(bad).passed
