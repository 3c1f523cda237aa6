"""Twisting systems: condition checking, twisted structures, inversion,
composition, and the phi-family correspondence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtwist import graded as graded_lib
from gradedtwist import twist as twist_lib
from gradedtwist.exactmath import QQ, Matrix, PrimeField, inverse
from gradedtwist.fixtures import (
    broken_algebra,
    quantum_plane,
    random_cocycle_twist,
    s3_group_algebra,
    sign_twist,
    z2_group_algebra,
    z3_group_algebra,
)
from gradedtwist.graded import (
    GradedAlgebra,
    GradedMorphism,
    GradedVectorSpace,
    check_algebra,
    check_module,
    group_algebra,
    regular_module,
)
from gradedtwist.groups import IntegerWindow, cyclic_group
from gradedtwist.twist import (
    AUTOMORPHISM,
    COCYCLE,
    EXPLICIT,
    PhiFamily,
    TwistingSystem,
    check_cocycle,
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


def scalar_explicit(algebra, values):
    """Explicit system with tau_d(g) = values.get((d,g), 1) * id."""
    maps = {}
    for d in algebra.group.elements():
        for g in algebra.support():
            c = algebra.field.coerce(values.get((d, g), 1))
            maps[(d, g)] = Matrix.identity(algebra.dim(g), algebra.field).scale(c)
    return TwistingSystem(algebra, EXPLICIT, maps=maps)


def odd_dual_numbers():
    """QQ[x]/(x^2) with x in odd degree, graded by Z/2."""
    space = GradedVectorSpace(cyclic_group(2), {0: 1, 1: 1})
    one = Matrix.from_rows([[1]], QQ)
    mult = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): Matrix.from_rows([[0]], QQ)}
    return GradedAlgebra(space, mult, Matrix.column([1], QQ), QQ)


class TestCocycleChecker:
    def test_sign_cocycle_passes(self):
        a, t = sign_twist()
        assert check_cocycle(t.alpha, a.group, QQ).passed

    def test_single_flipped_value_fails(self):
        a, t = sign_twist()
        alpha = dict(t.alpha)
        alpha[(0, 1)] = Fraction(-1)
        report = check_cocycle(alpha, a.group, QQ)
        assert not report.passed
        assert report.witness == (0, 0, 1)

    def test_zero_value_is_an_input_error(self):
        a, t = sign_twist()
        alpha = dict(t.alpha)
        alpha[(1, 1)] = Fraction(0)
        with pytest.raises(ValueError, match="zero"):
            check_cocycle(alpha, a.group, QQ)

    def test_carry_cocycle_on_z3(self):
        a, t = random_cocycle_twist(7)
        assert check_cocycle(t.alpha, a.group, a.field).passed

    def test_integer_window_is_verified_and_flagged(self):
        # alpha(g, h) = 2^(g h) is a bicharacter on Z, hence a 2-cocycle
        window = IntegerWindow(0, 4)
        alpha = {(g, h): Fraction(2) ** (g * h) for g in range(3) for h in range(3)}
        report = check_cocycle(alpha, window, QQ)
        assert report.passed
        assert report.notes == ("window-verified",)
        alpha[(1, 2)] = Fraction(3) * alpha[(1, 2)]
        report = check_cocycle(alpha, window, QQ)
        assert not report.passed
        assert report.witness == (1, 1, 1)
        assert report.notes == ("window-verified",)


class TestTwistCondition:
    def test_identity_twist(self):
        a = z3_group_algebra()
        assert check_twist_condition(identity_twist(a)).passed

    def test_sign_twist_passes(self):
        _a, t = sign_twist()
        assert check_twist_condition(t).passed

    def test_scalar_explicit_violation(self):
        t = scalar_explicit(z3_group_algebra(), {(0, 1): 2})
        report = check_twist_condition(t)
        assert not report.passed
        assert report.witness == ("twist-condition", (0, 0, 1))

    def test_singular_entry_reported_with_its_index(self):
        t = scalar_explicit(z2_group_algebra(), {(0, 1): 0})
        report = check_twist_condition(t)
        assert not report.passed
        assert report.witness == ("non-invertible", (0, 1))

    def test_broken_algebra_is_reported_first(self):
        t = identity_twist(broken_algebra(0))
        report = check_twist_condition(t)
        assert not report.passed
        assert "underlying algebra fails its axioms" in report.notes

    def test_quantum_plane_automorphism(self):
        _a, t = quantum_plane()
        report = check_twist_condition(t)
        assert report.passed
        assert any("automorphism criterion" in n for n in report.notes)

    def test_non_morphism_sigma_rejected(self):
        a = z3_group_algebra(F5)
        comps = {g: Matrix.from_rows([[pow(2, g, 5)]], F5) for g in range(3)}
        sigma = GradedMorphism(a.space, a.space, comps, F5)
        t = TwistingSystem(a, AUTOMORPHISM, sigma=sigma)
        report = check_twist_condition(t)
        assert not report.passed
        assert report.witness == {"sigma-not-an-algebra-morphism": ("multiplicativity", (1, 2))}

    def test_sigma_order_must_match_cyclic_order(self):
        a = odd_dual_numbers()
        comps = {0: Matrix.from_rows([[1]], QQ), 1: Matrix.from_rows([[2]], QQ)}
        sigma = GradedMorphism(a.space, a.space, comps, QQ)
        t = TwistingSystem(a, AUTOMORPHISM, sigma=sigma)
        report = check_twist_condition(t)
        assert not report.passed
        assert report.witness == ("sigma-order", (2, 1))

    def test_involution_sigma_passes_on_odd_dual_numbers(self):
        a = odd_dual_numbers()
        comps = {0: Matrix.from_rows([[1]], QQ), 1: Matrix.from_rows([[-1]], QQ)}
        sigma = GradedMorphism(a.space, a.space, comps, QQ)
        assert check_twist_condition(TwistingSystem(a, AUTOMORPHISM, sigma=sigma)).passed

    def test_windowed_explicit_over_integers(self):
        a, t = quantum_plane()
        maps = {(d, g): t.tau(d, g) for d in range(4) for g in a.support()}
        windowed = TwistingSystem(a, EXPLICIT, maps=maps)
        report = check_twist_condition(windowed)
        assert report.passed
        assert "window-verified" in report.notes
        with pytest.raises(ValueError, match="not stored"):
            windowed.tau(9, 1)

    @pytest.mark.parametrize("kind", [EXPLICIT, COCYCLE])
    def test_window_must_hold_what_the_twisted_algebra_reads(self, kind):
        a, t = quantum_plane()
        keys = [(0, g) for g in a.support()]
        with pytest.raises(ValueError, match=r"not stored for \(1,0\)"):
            if kind == EXPLICIT:
                TwistingSystem(a, EXPLICIT, maps={k: t.tau(*k) for k in keys})
            else:
                TwistingSystem(a, COCYCLE, alpha={k: QQ.one for k in keys})

    @pytest.mark.parametrize("order", ["3", 2.5, True, 0, -2])
    def test_automorphism_order_must_be_a_positive_integer(self, order):
        a, t = quantum_plane()
        with pytest.raises(ValueError, match="order must be a positive integer"):
            TwistingSystem(a, AUTOMORPHISM, sigma=t.sigma, order=order)

    def test_automorphism_needs_cyclic_or_integer_degrees(self):
        from gradedtwist.groups import symmetric_group

        a = group_algebra(symmetric_group(3))
        comps = {g: Matrix.identity(1, QQ) for g in a.support()}
        sigma = GradedMorphism(a.space, a.space, comps, QQ)
        with pytest.raises(ValueError, match="cyclic"):
            TwistingSystem(a, AUTOMORPHISM, sigma=sigma)


class TestTwistedStructures:
    def test_the_twisted_algebra_is_built_once_per_system(self):
        for a, t in (sign_twist(), quantum_plane(2), random_cocycle_twist(0)):
            twisted = twist_algebra(a, t)
            assert twist_algebra(a, t) is twisted
            assert twist_module(regular_module(a), t).algebra is twisted

    def test_identity_twist_changes_nothing(self):
        for a in (z3_group_algebra(), group_algebra(cyclic_group(2), F5)):
            assert twist_algebra(a, identity_twist(a)) == a

    def test_sign_twist_flips_the_top_product(self):
        a, t = sign_twist()
        twisted = twist_algebra(a, t)
        assert twisted.mult_map(1, 1) == Matrix.from_rows([[-1]], QQ)
        assert twisted.mult_map(0, 1) == a.mult_map(0, 1)
        assert twisted.unit == a.unit
        assert check_algebra(twisted).passed

    def test_quantum_plane_relation(self):
        a, t = quantum_plane()
        twisted = twist_algebra(a, t)
        m = twisted.mult_map(1, 1)
        x_star_y = m.col(0 * 2 + 1)
        y_star_x = m.col(1 * 2 + 0)
        assert x_star_y == tuple(2 * entry for entry in y_star_x)

    def test_twisted_regular_module(self):
        a, t = sign_twist()
        twisted = twist_module(regular_module(a), t)
        assert twisted.action_map(1, 1) == Matrix.from_rows([[-1]], QQ)
        assert check_module(twisted).passed

    def test_quantum_plane_module_twist(self):
        a, t = quantum_plane()
        twisted = twist_module(regular_module(a), t)
        assert check_module(twisted).passed

    def test_unit_needs_invertible_tau_ee(self):
        t = scalar_explicit(z2_group_algebra(), {(0, 0): 0})
        with pytest.raises(ValueError, match="singular"):
            twist_algebra(z2_group_algebra(), t)


class TestInverseAndComposite:
    def test_inverse_undoes_sign_twist(self):
        a, t = sign_twist()
        twisted = twist_algebra(a, t)
        back = twist_algebra(twisted, inverse_twist(t))
        assert back == a

    def test_inverse_undoes_quantum_twist(self):
        a, t = quantum_plane()
        twisted = twist_algebra(a, t)
        ti = inverse_twist(t)
        assert ti.kind == AUTOMORPHISM
        assert twist_algebra(twisted, ti) == a

    def test_inverse_of_explicit_window(self):
        a, t = quantum_plane()
        maps = {(d, g): t.tau(d, g) for d in range(4) for g in a.support()}
        windowed = TwistingSystem(a, EXPLICIT, maps=maps)
        ti = inverse_twist(windowed)
        for key, m in windowed.maps.items():
            assert ti.maps[key] == inverse(m)

    def test_cocycle_composite_is_a_cocycle(self):
        a, t = sign_twist()
        twisted = twist_algebra(a, t)
        s = TwistingSystem(twisted, COCYCLE, alpha=dict(t.alpha))
        both = compose_twists(t, s)
        assert both.kind == COCYCLE
        assert twist_algebra(a, both) == twist_algebra(twisted, s)
        # sign * sign = 1, so the double twist is the original algebra
        assert twist_algebra(a, both) == a

    def test_commuting_automorphism_composite(self):
        a, t = quantum_plane()
        twisted = twist_algebra(a, t)
        comps = {}
        for d in a.support():
            n = a.dim(d)
            comps[d] = Matrix.from_rows(
                [[Fraction(3) ** (d - k) if j == k else 0 for j in range(n)] for k in range(n)], QQ
            )
        sigma2 = GradedMorphism(a.space, a.space, comps, QQ)
        s = TwistingSystem(twisted, AUTOMORPHISM, sigma=sigma2)
        assert check_twist_condition(s).passed
        both = compose_twists(t, s)
        assert both.kind == AUTOMORPHISM
        assert twist_algebra(a, both) == twist_algebra(twisted, s)

    def test_noncommuting_automorphisms_fall_back_to_explicit(self):
        a, t = quantum_plane()
        comps = {}
        for d in a.support():
            n = a.dim(d)
            comps[d] = Matrix.from_rows(
                [[1 if j == n - 1 - k else 0 for j in range(n)] for k in range(n)], QQ
            )
        swap = GradedMorphism(a.space, a.space, comps, QQ)
        s = TwistingSystem(a, AUTOMORPHISM, sigma=swap)
        both = compose_twists(t, s)
        assert both.kind == EXPLICIT
        for (d, g), m in both.maps.items():
            assert m == t.tau(d, g) @ s.tau(d, g)

    def test_mixed_kinds_compose_explicitly(self):
        a, t = sign_twist()
        twisted = twist_algebra(a, t)
        maps = {(d, g): t.tau(d, g) for d in (0, 1) for g in (0, 1)}
        s = TwistingSystem(twisted, EXPLICIT, maps=maps)
        both = compose_twists(t, s)
        assert both.kind == EXPLICIT
        assert twist_algebra(a, both) == a


class TestUnitLemma:
    def test_sign_twist(self):
        _a, t = sign_twist()
        assert check_unit_lemma(t).passed

    def test_quantum_plane(self):
        _a, t = quantum_plane()
        assert check_unit_lemma(t).passed

    def test_scaled_identity_column_violates_the_lemma(self):
        # tau_1(e) = 2 id alone cannot belong to any twisting system
        t = scalar_explicit(z2_group_algebra(), {(1, 0): 2})
        report = check_unit_lemma(t)
        assert not report.passed
        assert report.witness == ("unit-mismatch", 1)

    def test_non_normalized_cocycle_still_satisfies_it(self):
        a, t = sign_twist()
        alpha = {k: Fraction(3) * v for k, v in t.alpha.items()}
        scaled = TwistingSystem(a, COCYCLE, alpha=alpha)
        assert check_twist_condition(scaled).passed
        assert check_unit_lemma(scaled).passed


class TestPhiFamilies:
    def test_sign_twist_round_trip(self):
        a, t = sign_twist()
        family = phi_from_twist(t)
        assert check_phi_family(family).passed
        back, _twisted, morphism = twist_from_phi(family)
        for d in (0, 1):
            for g in (0, 1):
                assert back.tau(d, g) == t.tau(d, g)
        for g in (0, 1):
            assert morphism.component(g).is_identity()

    def test_quantum_plane_round_trip_on_window(self):
        a, t = quantum_plane()
        family = phi_from_twist(t)
        report = check_phi_family(family)
        assert report.passed
        assert "window-verified" in report.notes
        back, _twisted, _morphism = twist_from_phi(family)
        assert back.kind == EXPLICIT
        for d, g in back.maps:
            assert back.tau(d, g) == t.tau(d, g)

    def test_external_iso_shows_up_in_the_family(self):
        a, t = sign_twist()
        twisted = twist_algebra(a, t)
        comps = {0: Matrix.from_rows([[1]], QQ), 1: Matrix.from_rows([[-1]], QQ)}
        iso = GradedMorphism(a.space, a.space, comps, QQ)
        family = phi_from_twist(t, iso=iso, source_algebra=twisted)
        assert check_phi_family(family).passed
        assert family.map(1, 1) == Matrix.from_rows([[1]], QQ)

    def test_constant_family_recovers_the_identity_twist(self):
        a = z2_group_algebra()
        comps = {0: Matrix.from_rows([[1]], QQ), 1: Matrix.from_rows([[-1]], QQ)}
        maps = {(d, g): comps[g] for d in (0, 1) for g in (0, 1)}
        family = PhiFamily(a, a, maps)
        assert check_phi_family(family).passed
        back, _twisted, morphism = twist_from_phi(family)
        for key in maps:
            assert back.tau(*key).is_identity()
        assert morphism.component(1) == comps[1]

    def test_tampered_family_fails_with_the_offending_triple(self):
        _a, t = sign_twist()
        good = phi_from_twist(t)
        family = PhiFamily(good.source, good.target, {**good.maps, (0, 1): Matrix.from_rows([[2]], QQ)})
        report = check_phi_family(family)
        assert not report.passed
        assert report.witness == ("multiplicativity", (0, 1, 1))
        with pytest.raises(ValueError, match="fails its conditions"):
            twist_from_phi(family)

    def test_unit_condition_detects_a_bad_source_unit(self):
        a = z2_group_algebra()
        bad = GradedAlgebra(a.space, dict(a.mult), Matrix.column([2], QQ), QQ)
        maps = {(d, g): Matrix.identity(1, QQ) for d in (0, 1) for g in (0, 1)}
        report = check_phi_family(PhiFamily(bad, a, maps))
        assert not report.passed
        assert report.witness == ("unit", 0)

    def test_shape_validation(self):
        a = z2_group_algebra()
        with pytest.raises(ValueError, match="must be 1x1"):
            PhiFamily(a, a, {(0, 0): Matrix.identity(2, QQ)})


class TestRandomCocycles:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_seeded_cocycles_are_twisting_systems(self, seed):
        a, t = random_cocycle_twist(seed)
        assert check_cocycle(t.alpha, a.group, a.field).passed
        assert check_twist_condition(t).passed
        assert check_unit_lemma(t).passed

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_seeded_round_trips_are_exact(self, seed):
        a, t = random_cocycle_twist(seed)
        back, _twisted, morphism = twist_from_phi(phi_from_twist(t))
        for d in range(3):
            for g in range(3):
                assert back.tau(d, g) == t.tau(d, g)
        for g in range(3):
            assert morphism.component(g).is_identity()

    def test_same_seed_same_twist(self):
        _a1, t1 = random_cocycle_twist(123)
        _a2, t2 = random_cocycle_twist(123)
        assert t1.alpha == t2.alpha


def seeded_systems(seed):
    """One system of each kind from a seed: a random cocycle, the quantum
    plane automorphism for a seeded q, and an explicit window copy of it."""
    rng = random.Random(seed)
    _a, cocycle = random_cocycle_twist(seed)
    a, automorphism = quantum_plane(maxdeg=rng.randrange(1, 4), q=rng.choice([-3, -2, 2, 3, Fraction(1, 2)]))
    maps = {(d, g): automorphism.sigma.component(g).power(d) for d in a.support() for g in a.support()}
    return [cocycle, automorphism, TwistingSystem(a, EXPLICIT, maps=maps)]


class TestTauTable:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_every_kind_reads_tau_from_one_table(self, seed):
        for t in seeded_systems(seed):
            for d in t.d_degrees():
                for g in t.algebra.support():
                    assert t.has_tau(d, g)
                    assert t.tau(d, g) is t.tau(d, g) is t.maps[(d, g)]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_twisting_back_by_the_inverse_returns_the_algebra(self, seed):
        for t in seeded_systems(seed):
            a = t.algebra
            assert twist_algebra(twist_algebra(a, t), inverse_twist(t)) == a

    @settings(max_examples=10, deadline=None)
    @given(seeds=st.tuples(*[st.integers(min_value=0, max_value=2**31)] * 3))
    def test_composition_is_associative_on_cocycles(self, seeds):
        a, tau = random_cocycle_twist(seeds[0])
        alpha_s, alpha_r = (random_cocycle_twist(seed)[1].alpha for seed in seeds[1:])
        a_tau = twist_algebra(a, tau)
        sigma = TwistingSystem(a_tau, COCYCLE, alpha=alpha_s)
        a_tau_sigma = twist_algebra(a_tau, sigma)
        rho = TwistingSystem(a_tau_sigma, COCYCLE, alpha=alpha_r)
        left = compose_twists(compose_twists(tau, sigma), rho)
        right = compose_twists(tau, compose_twists(sigma, rho))
        assert twist_algebra(a, left) == twist_algebra(a, right) == twist_algebra(a_tau_sigma, rho)


def test_support_closure_of_the_quantum_plane():
    a, _t = quantum_plane()
    assert support_closure(a) == list(range(7))


def test_support_closure_of_a_finite_group_is_every_element():
    for a in (z3_group_algebra(), s3_group_algebra()):
        assert support_closure(a) == list(a.group.elements())


def test_phi_entries_must_be_matrices():
    a = z2_group_algebra()
    maps = {(d, g): Matrix.identity(1, QQ) for d in (0, 1) for g in (0, 1)}
    with pytest.raises(TypeError, match=r"phi\[\(0, 1\)\] is not a Matrix"):
        PhiFamily(a, a, {**maps, (0, 1): 1})


def _integer_explicit():
    a, t = quantum_plane(2)
    return TwistingSystem(a, EXPLICIT, maps={(d, g): t.tau(d, g) for d in a.support() for g in a.support()})


def _cyclic_automorphism():
    a = z3_group_algebra()
    return TwistingSystem(a, AUTOMORPHISM, sigma=GradedMorphism.identity(a.space, QQ))


@pytest.mark.parametrize("build, windowed", [
    (_integer_explicit, True),
    (lambda: scalar_explicit(z3_group_algebra(), {(1, 2): 2}), False),
    (lambda: identity_twist(quantum_plane(2)[0]), True),
    (lambda: random_cocycle_twist(0)[1], False),
    (lambda: quantum_plane(2)[1], False),
    (_cyclic_automorphism, False),
    (lambda: phi_from_twist(quantum_plane(2)[1]), True),
    (lambda: phi_from_twist(random_cocycle_twist(0)[1]), False),
], ids=["explicit-Z", "explicit-Z3", "cocycle-Z", "cocycle-Z3", "automorphism-Z", "automorphism-Z3",
        "phi-Z", "phi-Z3"])
def test_a_table_is_window_limited_exactly_when_it_stores_a_window(build, windowed):
    table = build()
    algebra = table.source if isinstance(table, PhiFamily) else table.algebra
    assert table.window_limited() is windowed
    if windowed:
        assert table.d_degrees() == sorted({d for d, _g in table.maps})
    else:
        assert table.d_degrees() == support_closure(algebra)


def test_explicit_constructor_rejects_partial_finite_data():
    a = z2_group_algebra()
    with pytest.raises(ValueError, match="missing tau"):
        TwistingSystem(a, EXPLICIT, maps={(0, 0): Matrix.identity(1, QQ)})


@pytest.mark.parametrize("key", [(0, 2), (2, 0), (9, 9), (-1, 0)], ids=str)
def test_degree_keys_outside_a_finite_group_are_refused(key):
    a = z2_group_algebra()
    ones = {(d, g): Matrix.identity(1, QQ) for d in (0, 1) for g in (0, 1)}
    with pytest.raises(ValueError, match="alpha key"):
        TwistingSystem(a, COCYCLE, alpha={**{k: 1 for k in ones}, key: 1})
    with pytest.raises(ValueError, match="tau key"):
        TwistingSystem(a, EXPLICIT, maps={**ones, key: Matrix.zeros(0, 0, QQ)})
    with pytest.raises(ValueError, match="phi key"):
        PhiFamily(a, a, {**ones, key: Matrix.zeros(0, 0, QQ)})


def test_integer_degree_keys_may_leave_the_window():
    # over the integers tau is quantified over sums of support degrees,
    # which reach past the window the algebra is stored on
    a, t = quantum_plane(2)
    assert max(d for d, _g in identity_twist(a).alpha) > a.group.hi
    assert check_twist_condition(identity_twist(a)).passed
    family = phi_from_twist(t)
    assert max(d for d, _g in family.maps) > a.group.hi
    assert check_phi_family(family).passed


def test_the_tables_a_kept_verdict_reads_are_read_only():
    a, t = sign_twist()
    _qa, qt = quantum_plane(2)
    qt.tau(1, 1)  # an automorphism system fills its powers in behind the view
    assert (1, 1) in qt.maps
    explicit = TwistingSystem(a, EXPLICIT, maps=t.maps)
    for table in (a.mult, t.maps, explicit.maps, qt.maps, qt.sigma.components, phi_from_twist(t).maps):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]


def test_a_space_s_dims_and_a_cocycle_s_alpha_are_read_only():
    a, t = sign_twist()
    assert check_twist_condition(t).passed
    with pytest.raises(TypeError):
        a.space.dims[1] = 5
    with pytest.raises(TypeError):
        t.alpha[(1, 1)] = 5
    # the system is still one: its table, its alpha and its inverse agree
    assert t.tau(1, 1) == Matrix.from_rows([[-1]], QQ)
    assert t.alpha[(1, 1)] == -1 and inverse_twist(t).alpha[(1, 1)] == -1


def test_twist_from_phi_refuses_a_family_singular_only_at_the_top_of_its_window():
    _a, t = quantum_plane(2)
    good = phi_from_twist(t)
    assert max(good.d_degrees()) == 4 and check_phi_family(good).passed
    zero = Matrix.zeros(3, 3, QQ)
    bad = PhiFamily(good.source, good.target, {**good.maps, (4, 2): zero})
    with pytest.raises(ValueError, match=r"\('non-invertible', \(4, 2\)\)"):
        twist_from_phi(bad)
    # the pass kept on the good family cannot be carried over to a changed one
    with pytest.raises(TypeError):
        good.maps[(4, 2)] = zero
    assert twist_from_phi(good)[0].maps == t.maps


def test_broken_algebras_are_really_broken():
    for seed in range(8):
        assert not check_algebra(broken_algebra(seed)).passed


def test_condition_checks_skip_pairs_whose_product_component_is_zero(monkeypatch):
    # qp3 has degrees 0..3, so a pair (g1, g2) with g1 + g2 > 3 has no
    # stored product and both sides of its identity are empty matrices
    a = quantum_plane(3)[0]
    t = identity_twist(a)
    supp = a.support()
    calls = []
    real = twist_lib.mul_kron
    for module in (graded_lib, twist_lib):
        monkeypatch.setattr(module, "mul_kron", lambda *args: calls.append(args) or real(*args))

    def made_by(check, *args):
        calls.clear()
        assert check(*args).passed
        return len(calls)

    def count(has, nonzero_only):
        return sum(1 for d in t.d_degrees() for g1 in supp for g2 in supp
                   if (a.dim(g1 + g2) or not nonzero_only)
                   and has(d, g1) and has(d + g1, g2) and has(d, g1 + g2))

    # every tau_g1(g2) is stored, so only the factors that depend on d can be missing
    assert all(t.has_tau(g1, g2) for g1 in supp for g2 in supp)
    tried = count(t.has_tau, True)
    assert tried < count(t.has_tau, False)
    # one composite per tried tuple, plus one per stored product of A^tau,
    # which the check builds first, against two per tuple before; the calls of check_algebra, counted on
    # a fresh copy of A (its verdict is kept on A), are left out
    condition = made_by(check_twist_condition, t) - made_by(check_algebra, quantum_plane(3)[0])
    assert condition == tried + len(a.mult) < 2 * tried
    p = phi_from_twist(t)
    assert made_by(check_phi_family, p) == count(p.has, True) < count(p.has, False)


def test_a_kept_system_s_sigma_cannot_be_rebound():
    a, t = quantum_plane(2)
    kept = check_twist_condition(t)
    zero = GradedMorphism(a.space, a.space, {g: Matrix.zeros(n, n, QQ) for g, n in a.space.dims.items()}, QQ)
    with pytest.raises(AttributeError, match="TwistingSystem.sigma cannot be rebound"):
        t.sigma = zero
    assert check_twist_condition(t) is kept and t.sigma.component(1) != zero.component(1)
    # a system on the zero sigma fails, so a rebound sigma would have left a stale pass
    assert not check_twist_condition(TwistingSystem(a, AUTOMORPHISM, sigma=zero)).passed


def test_a_kept_system_s_sigma_components_cannot_be_rebound():
    a, t = quantum_plane(2)
    kept = check_twist_condition(t)
    before = t.tau(1, 1)
    swap = {**t.sigma.components, 1: Matrix.from_rows([[0, 1], [1, 0]], QQ)}
    with pytest.raises(AttributeError, match="GradedMorphism.components cannot be rebound"):
        t.sigma.components = swap
    assert check_twist_condition(t) is kept and t.tau(1, 1) == before != swap[1]
    # a system on the swap fails, so a rebound sigma would have left a stale pass
    fresh = TwistingSystem(a, AUTOMORPHISM, sigma=GradedMorphism(a.space, a.space, swap, QQ))
    assert check_twist_condition(fresh).witness == {"sigma-not-an-algebra-morphism": ("multiplicativity", (1, 1))}


def test_a_kept_system_s_maps_cannot_be_rebound():
    a, t = sign_twist()
    kept = check_twist_condition(t)
    bad = {**t.maps, (0, 1): Matrix.from_rows([[2]], QQ)}
    with pytest.raises(AttributeError, match="TwistingSystem.maps cannot be rebound"):
        t.maps = bad
    assert check_twist_condition(t) is kept and t.tau(0, 1) == Matrix.identity(1, QQ)
    assert not check_twist_condition(TwistingSystem(a, EXPLICIT, maps=bad)).passed


def test_a_kept_system_s_alpha_cannot_be_rebound():
    a, t = sign_twist()
    kept = check_twist_condition(t)
    bad = {**t.alpha, (0, 1): 2}
    with pytest.raises(AttributeError, match="TwistingSystem.alpha cannot be rebound"):
        t.alpha = bad
    assert check_twist_condition(t) is kept and t.alpha[(0, 1)] == 1
    assert not check_twist_condition(TwistingSystem(a, COCYCLE, alpha=bad)).passed


def test_a_kept_phi_family_s_maps_cannot_be_rebound():
    _a, t = sign_twist()
    family = phi_from_twist(t)
    kept = check_phi_family(family)
    bad = {**family.maps, (0, 1): Matrix.from_rows([[2]], QQ)}
    with pytest.raises(AttributeError, match="PhiFamily.maps cannot be rebound"):
        family.maps = bad
    assert check_phi_family(family) is kept and kept.passed and family.maps[(0, 1)] != bad[(0, 1)]
    assert not check_phi_family(PhiFamily(family.source, family.target, bad)).passed


@pytest.mark.parametrize("kind", [AUTOMORPHISM, COCYCLE, EXPLICIT])
def test_a_system_s_constructor_sets_each_attribute_once(kind, monkeypatch):
    qa, qt = quantum_plane(2)
    a, t = sign_twist()
    algebra, tables = {AUTOMORPHISM: (qa, {"sigma": qt.sigma}), COCYCLE: (a, {"alpha": dict(t.alpha)}),
                       EXPLICIT: (a, {"maps": t.maps})}[kind]
    set_names = []
    real = TwistingSystem.__setattr__

    def recorded(self, name, value):
        set_names.append(name)
        real(self, name, value)

    monkeypatch.setattr(TwistingSystem, "__setattr__", recorded)
    built = TwistingSystem(algebra, kind, **tables)
    assert len(set_names) == len(set(set_names)) and {"sigma", "maps", "_d_window"} <= set(set_names)
    assert (built.sigma is qt.sigma) == (kind == AUTOMORPHISM)
