"""The twist equivalence: shift witnesses, the transported Gamma family,
and exact recovery of a twisting system from the equivalence data."""

import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composites import pull_push
from gradedtwist import equivalence as equivalence_lib
from gradedtwist import graded as graded_lib
from gradedtwist import exactmath
from gradedtwist import twist as twist_lib
from gradedtwist.exactmath import QQ, Matrix, inverse
from gradedtwist.enriched import ModuleHomSpace, gamma_algebra, module_hom_space
from gradedtwist.equivalence import (
    backward,
    check_equivalence,
    equivalence_from_twist,
    gamma_twist_phi,
)
from gradedtwist.fixtures import F7, quantum_plane, random_cocycle_twist, sign_twist, z3_group_algebra
from gradedtwist.graded import (
    GradedMorphism,
    check_algebra_morphism,
    check_module,
    group_algebra,
    regular_module,
    shift_module,
    truncated_polynomial,
)
from gradedtwist.groups import FiniteGroup, cyclic_group, symmetric_group
from gradedtwist.twist import (
    AUTOMORPHISM,
    COCYCLE,
    EXPLICIT,
    TwistingSystem,
    check_phi_family,
    identity_twist,
    inverse_twist,
    twist_algebra,
    twist_module,
)


def unipotent_plane(maxdeg):
    """Truncated k[x, y] over QQ with the unipotent automorphism
    sigma(x) = x, sigma(y) = x + y.

    The degree-d monomial x^(d-k) y^k sits at index k and goes to
    x^(d-k) (x + y)^k, so sigma's degree-d block is the upper
    unitriangular Pascal matrix with entry (j, k) = C(k, j). Its tau are
    neither diagonal nor scalar, so a transport that used the transpose
    of tau^-1 where tau^-1 belongs would fail on it.
    """
    a = truncated_polynomial(2, maxdeg)
    comps = {}
    for d in a.support():
        n = a.dim(d)
        comps[d] = Matrix(n, n, QQ, [comb(k, j) for j in range(n) for k in range(n)])
    return a, TwistingSystem(a, AUTOMORPHISM, sigma=GradedMorphism(a.space, a.space, comps, QQ))


class TestEquivalenceData:
    def test_sign_twist_witnesses(self):
        a, t = sign_twist()
        data = equivalence_from_twist(t)
        assert sorted(data.witnesses) == [0, 1]
        w = data.witness(1)
        assert w.component(0) == Matrix.from_rows([[-1]], QQ)   # tau_1(1)^-1
        assert w.component(1) == Matrix.from_rows([[1]], QQ)    # tau_1(0)^-1
        assert check_equivalence(data).passed

    def test_quantum_plane_witnesses_cover_the_closure(self):
        _a, t = quantum_plane()
        data = equivalence_from_twist(t)
        assert sorted(data.witnesses) == list(range(7))
        assert not data.skipped
        assert check_equivalence(data).passed

    def test_windowed_explicit_data_skips_uncovered_degrees(self):
        a, t = quantum_plane()
        maps = {(d, g): t.tau(d, g) for d in range(4) for g in a.support()}
        windowed = TwistingSystem(a, EXPLICIT, maps=maps)
        data = equivalence_from_twist(windowed)
        assert data.skipped
        report = check_equivalence(data)
        assert report.passed
        assert "window-verified" in report.notes

    @pytest.mark.parametrize("change, expected", [
        (lambda comp: Matrix.zeros(comp.rows, comp.cols, QQ), ("not-invertible", (1, 0))),
        (lambda comp: comp.scale(2), (1, ("intertwining", (0, 1)))),
    ], ids=["zero", "doubled"])
    def test_a_bad_stored_witness_is_named(self, change, expected):
        a, t = sign_twist()
        data = equivalence_from_twist(t)
        w = data.witness(1)
        comps = {**w.components, 0: change(w.component(0))}
        data.witnesses[1] = GradedMorphism(w.source, w.target, comps, a.field)
        report = check_equivalence(data)
        assert report.witness == {"failed": "witness", "witness": expected}

    def test_random_cocycle_data(self):
        _a, t = random_cocycle_twist(42)
        assert check_equivalence(equivalence_from_twist(t)).passed

    def test_zm_forward_is_the_twist_functor(self):
        a, t = sign_twist()
        reg = regular_module(a)
        # the twisted regular module is the regular module of A^tau
        assert twist_module(reg, t) == regular_module(twist_algebra(a, t))
        other = regular_module(z3_group_algebra())
        with pytest.raises(ValueError, match="not over"):
            twist_module(other, t)

    def test_a_module_over_the_twisted_algebra_is_refused(self):
        # M must live over A itself: twisting a module over A^tau again by
        # tau used to return a structure that fails the module axioms
        a, t = quantum_plane()
        b = twist_algebra(a, t)
        with pytest.raises(ValueError, match="not over the twisting system's algebra"):
            twist_module(regular_module(b), t)


class TestZmRoundTrip:
    def test_sign_twist_modules_come_back_exactly(self):
        a, t = sign_twist()
        ti = inverse_twist(t)
        for m in (regular_module(a), shift_module(regular_module(a), 1)):
            there = twist_module(m, t)
            back = twist_module(there, ti)
            assert back == m
            assert check_module(there).passed

    def test_quantum_plane_modules_come_back_exactly(self):
        a, t = quantum_plane()
        ti = inverse_twist(t)
        for m in (regular_module(a), shift_module(regular_module(a), 2)):
            there = twist_module(m, t)
            assert twist_module(there, ti) == m


class TestGammaTwistPhi:
    def test_sign_twist_family_and_frozen_kernels(self):
        a, t = sign_twist()
        b = twist_algebra(a, t)
        gamma_a = gamma_algebra(a)
        gamma_b = gamma_algebra(b)
        # the twisted product flips one intertwining equation, so the
        # degree-1 component of Gamma(B) is spanned by (1, -1)
        assert gamma_b.spaces[1].kernel == Matrix(2, 1, QQ, [1, -1])
        assert gamma_a.spaces[1].kernel == Matrix(2, 1, QQ, [1, 1])
        data = equivalence_from_twist(t)
        family, report = gamma_twist_phi(data, gamma_a, gamma_b)
        assert report.passed
        assert family is not None
        assert check_phi_family(family).passed
        assert family.map(1, 1) == Matrix.from_rows([[1]], QQ)
        assert family.map(0, 1) == Matrix.from_rows([[-1]], QQ)

    def test_quantum_plane_family_passes_its_conditions(self):
        _a, t = quantum_plane()
        data = equivalence_from_twist(t)
        family, report = gamma_twist_phi(data)
        assert report.passed
        assert "window-verified" in report.notes
        assert check_phi_family(family).passed


    @pytest.mark.parametrize("case", ["sign", "quantum-plane-3", "unipotent-plane-3", "s3-f7-coboundary"])
    def test_transport_is_pullback_then_pushforward(self, case):
        # phi_d(g) f = t_d^-1 o f o t_{dg} on each basis element f of
        # Gamma(B)_g, computed block by block by the reference in tests/composites.py
        if case == "sign":
            a, t = sign_twist()
        elif case == "quantum-plane-3":
            a, t = quantum_plane(3)
        elif case == "unipotent-plane-3":
            a, t = unipotent_plane(3)
        else:
            group = symmetric_group(3)
            rng = random.Random(5)
            beta = {g: 1 if g == group.identity else rng.randrange(1, 7) for g in group.elements()}
            alpha = {(x, y): F7.mul(F7.mul(beta[x], beta[y]), F7.inv(beta[group.mul(x, y)]))
                     for x in group.elements() for y in group.elements()}
            a = group_algebra(group, F7)
            t = TwistingSystem(a, COCYCLE, alpha=alpha)
        data = equivalence_from_twist(t)
        gamma_a = gamma_algebra(a)
        gamma_b = gamma_algebra(data.twisted)
        family, report = gamma_twist_phi(data, gamma_a, gamma_b)
        assert report.passed
        assert family.maps
        group = a.group
        for (d, g), phi in family.maps.items():
            space_a, space_b = gamma_a.spaces[g], gamma_b.spaces[g]
            dg = group.mul(d, g)
            ps = [p for p, _off, _size in space_b.source_layout]
            qs = [group.mul(group.inv(g), p) for p in ps]
            u = {q: inverse(t.tau(dg, q)) for q in qs}
            v = {p: t.tau(d, p) for p in ps}
            assert phi == space_a.coords(pull_push(space_b, space_b.kernel, u, v)), (d, g)

    @pytest.mark.parametrize("case", ["quantum-plane-4", "unipotent-plane-3"])
    def test_the_transport_forms_no_kronecker_product_or_block_matrix(self, case, monkeypatch):
        _a, t = quantum_plane(4) if case == "quantum-plane-4" else unipotent_plane(3)
        data = equivalence_from_twist(t)
        gamma_a, gamma_b = gamma_algebra(data.algebra), gamma_algebra(data.twisted)

        def refuse(*args):
            raise AssertionError("a dense factor was formed")

        for name in ("kron", "block_matrix"):
            real = getattr(exactmath, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("gradedtwist")]:
                if vars(module).get(name) is real:
                    monkeypatch.setattr(module, name, refuse)
        family, report = gamma_twist_phi(data, gamma_a, gamma_b)
        assert report.passed
        assert family.maps

    def test_a_gamma_with_another_layout_is_a_layout_failure(self):
        _a, t = quantum_plane(3)
        small, _t2 = quantum_plane(2)
        family, report = gamma_twist_phi(equivalence_from_twist(t), gamma_a=gamma_algebra(small))
        assert family is None
        assert not report.passed
        assert report.witness == {"failed": "gamma_twist_phi", "witness": ("layout", (0, 0))}

    def test_gammas_of_an_algebra_with_other_dimensions_are_a_layout_failure(self):
        # the two layouts agree with each other, but not with A's blocks
        _a, t = quantum_plane(3)
        other = gamma_algebra(truncated_polynomial(3, 3))
        family, report = gamma_twist_phi(equivalence_from_twist(t), gamma_a=other, gamma_b=other)
        assert family is None
        assert report.witness == {"failed": "gamma_twist_phi", "witness": ("layout", (0, 0))}

    def test_transporting_into_gamma_of_the_twisted_algebra_fails_the_level_exchange(self):
        # Gamma(A^tau) in the place of Gamma(A): the layouts agree, but the
        # transported basis leaves the Hom space over A^tau
        a, t = quantum_plane()
        gb = gamma_algebra(twist_algebra(a, t))
        family, report = gamma_twist_phi(equivalence_from_twist(t), gamma_a=gb, gamma_b=gb)
        assert family is None
        assert report.witness == {"failed": "gamma_twist_phi", "witness": ("level-exchange", (0, 1))}


class TestTwistKeepsDegreeZeroHoms:
    """[[M, N]]_e over A equals [[M^tau, N^tau]]_e over A^tau: twisting
    changes the action on A_h at degree p by the invertible tau_p(h),
    the same on both sides of a degree-e family."""

    @pytest.mark.parametrize("case", [f"cocycle-{seed}" for seed in range(6)] + ["quantum-plane-3"])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_kernels_are_bit_identical(self, case, shifted):
        a, t = quantum_plane(3) if case.startswith("quantum") else random_cocycle_twist(int(case.split("-")[1]))
        b = twist_algebra(a, t)
        m = regular_module(a)
        # S_{1^-1} A has (S_{1^-1} A)_e = A_1, so the shifted space is nonzero
        n = shift_module(m, a.group.inv(1)) if shifted else m
        before = module_hom_space(m, n, a.group.identity)
        after = module_hom_space(twist_module(m, t), twist_module(n, t), a.group.identity)
        assert before.dim
        assert after.source_layout == before.source_layout
        assert after.kernel == before.kernel


class TestBackward:
    def test_sign_twist_recovery_is_bit_exact(self):
        a, t = sign_twist()
        result = backward(equivalence_from_twist(t))
        assert result.report.passed
        for d in (0, 1):
            for g in (0, 1):
                assert result.twist.tau(d, g) == t.tau(d, g)
        assert result.twisted == twist_algebra(a, t)
        # the recovered iso really maps the recovered twist onto B
        for g in (0, 1):
            assert result.iso.component(g).is_identity()

    def test_a_failed_transport_returns_no_twist(self):
        _a, t = quantum_plane(3)
        small, _t2 = quantum_plane(2)
        result = backward(equivalence_from_twist(t), gamma_a=gamma_algebra(small))
        assert (result.twist, result.twisted, result.iso, result.forward_iso, result.family) == (None,) * 5
        assert not result.report.passed
        assert result.report.witness == {"failed": "gamma_twist_phi", "witness": ("layout", (0, 0))}

    def test_identity_twist_recovers_identity(self):
        a = z3_group_algebra()
        t = identity_twist(a)
        result = backward(equivalence_from_twist(t))
        assert result.report.passed
        for d in range(3):
            for g in range(3):
                assert result.twist.tau(d, g).is_identity()

    def test_random_cocycles_recover_exactly(self):
        for seed in (3, 14, 159):
            _a, t = random_cocycle_twist(seed)
            result = backward(equivalence_from_twist(t))
            assert result.report.passed
            for d in range(3):
                for g in range(3):
                    assert result.twist.tau(d, g) == t.tau(d, g)

    @staticmethod
    def assert_recovers_the_normalised_twist(t):
        """backward(equivalence_from_twist(t)) returns tau_d(g) tau_e(g)^-1
        at every stored (d, g), entry for entry in canonical form."""
        result = backward(equivalence_from_twist(t))
        assert result.report.passed
        a = t.algebra
        e = a.group.identity
        assert {g for _d, g in result.twist.maps} == set(a.support())
        for (d, g), m in result.twist.maps.items():
            assert m == t.tau(d, g) @ inverse(t.tau(e, g))
            if a.field == QQ:
                assert all(type(x) is Fraction for x in m.data)
            else:
                assert all(type(x) is int and 0 <= x < a.field.p for x in m.data)
        return result

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_backward_recovers_seeded_cocycles(self, seed):
        _a, t = random_cocycle_twist(seed)
        result = self.assert_recovers_the_normalised_twist(t)
        assert sorted(result.twist.maps) == [(d, g) for d in range(3) for g in range(3)]

    @settings(max_examples=8, deadline=None)
    @given(num=st.integers(min_value=-9, max_value=9).filter(bool), den=st.integers(min_value=1, max_value=9))
    def test_backward_recovers_the_quantum_plane_at_a_rational_q(self, num, den):
        _a, t = quantum_plane(maxdeg=3, q=Fraction(num, den))
        result = self.assert_recovers_the_normalised_twist(t)
        assert sorted({d for d, _g in result.twist.maps}) == list(range(7))

    def check_quantum_plane_recovery(self, maxdeg, monkeypatch):
        a, t = quantum_plane(maxdeg=maxdeg)
        data = equivalence_from_twist(t)
        # backward builds the recovered twisted algebra once, inside twist_from_phi
        systems = []
        real = twist_lib.twist_algebra

        def counted(algebra, system):
            systems.append(system)
            return real(algebra, system)

        monkeypatch.setattr(twist_lib, "twist_algebra", counted)
        monkeypatch.setattr(equivalence_lib, "twist_algebra", counted)
        result = backward(data)
        monkeypatch.undo()
        assert [s is result.twist for s in systems] == [True]
        assert result.report.passed
        assert "window-verified" in result.report.notes
        assert result.twist.maps
        for d, g in result.twist.maps:
            assert result.twist.tau(d, g) == t.tau(d, g)
        assert result.twisted == twist_algebra(a, t)

    def test_a_passing_backward_makes_no_membership_test(self, monkeypatch):
        # coords refuses a vector outside the space, so a separate contains is the same product twice
        calls = {"contains": 0, "coords": 0}
        for name in calls:
            real = getattr(ModuleHomSpace, name)

            def counted(space, vectors, name=name, real=real):
                calls[name] += 1
                return real(space, vectors)

            monkeypatch.setattr(ModuleHomSpace, name, counted)
        result = backward(equivalence_from_twist(quantum_plane(3)[1]))
        monkeypatch.undo()
        assert result.report.passed
        assert calls["contains"] == 0
        assert calls["coords"]

    @pytest.mark.parametrize("maxdeg", [2, 3, 4])
    def test_a_unipotent_twist_round_trips(self, maxdeg):
        _a, t = unipotent_plane(maxdeg)
        data = equivalence_from_twist(t)
        assert check_equivalence(data).passed
        result = self.assert_recovers_the_normalised_twist(t)
        assert check_algebra_morphism(result.iso, result.twisted, data.twisted).passed

    def test_each_matrix_is_eliminated_once_for_its_inverse(self, monkeypatch):
        eliminated = []
        real = exactmath._invert

        def counted(m):
            eliminated.append(m)  # held, so that no id is reused by another matrix
            return real(m)

        monkeypatch.setattr(exactmath, "_invert", counted)
        data = equivalence_from_twist(quantum_plane(4)[1])
        assert check_equivalence(data).passed
        assert backward(data).report.passed
        monkeypatch.undo()
        assert eliminated
        assert len({id(m) for m in eliminated}) == len(eliminated)

    def test_recovery_eliminates_only_in_its_family_check(self, monkeypatch):
        # each recovered tau_d(g) is phi_d(g) phi_e(g)^-1, a product of maps
        # that check_phi_family has shown invertible, and tau_e(e) = id, so
        # under twist_from_phi only that check's own loop eliminates
        callers = []
        real = exactmath._invert

        def counted(m):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return real(m)

        monkeypatch.setattr(exactmath, "_invert", counted)
        data = equivalence_from_twist(quantum_plane(4)[1])
        assert check_equivalence(data).passed
        assert backward(data).report.passed
        monkeypatch.undo()
        recovery = [names[:names.index("twist_from_phi")] for names in callers if "twist_from_phi" in names]
        assert recovery  # the counter sees the family check's eliminations
        assert [names for names in recovery if "check_phi_family" not in names] == []

    def test_quantum_plane_recovery_on_the_window(self, monkeypatch):
        self.check_quantum_plane_recovery(3, monkeypatch)

    def test_quantum_plane_recovery_at_maxdeg_4(self, monkeypatch):
        self.check_quantum_plane_recovery(4, monkeypatch)

    @pytest.mark.parametrize("group", [
        symmetric_group(3),
        cyclic_group(4),
        FiniteGroup([[a ^ b for b in range(4)] for a in range(4)]),
    ], ids=["S3", "Z4", "Z2xZ2"])
    @pytest.mark.parametrize("seed, beta_e", [(1, 1), (2, 1), (1, 3), (2, 5)],
                             ids=["1", "2", "1-beta_e=3", "2-beta_e=5"])
    def test_coboundary_twists_over_f7_recover_exactly(self, group, seed, beta_e):
        # alpha(x, y) = beta(x) beta(y) / beta(xy) is a cocycle with
        # tau_e(g) = alpha(e, g) = beta(e); backward must return its
        # normalization tau_d(g) tau_e(g)^-1, which is alpha itself when
        # beta(e) = 1
        rng = random.Random(seed)
        beta = {g: beta_e if g == group.identity else rng.randrange(1, 7) for g in group.elements()}
        alpha = {(x, y): F7.mul(F7.mul(beta[x], beta[y]), F7.inv(beta[group.mul(x, y)]))
                 for x in group.elements() for y in group.elements()}
        a = group_algebra(group, F7)
        t = TwistingSystem(a, COCYCLE, alpha=alpha)
        data = equivalence_from_twist(t)
        result = backward(data)
        assert result.report.passed
        e = group.identity
        for d in group.elements():
            for g in group.elements():
                assert result.twist.tau(d, g) == t.tau(d, g) @ inverse(t.tau(e, g))
        if beta_e == 1:
            assert result.twisted == twist_algebra(a, t)
        assert check_algebra_morphism(result.iso, result.twisted, data.twisted).passed
        assert check_algebra_morphism(result.forward_iso, data.twisted, result.twisted).passed
        for g in a.support():
            assert (result.iso.component(g) @ result.forward_iso.component(g)).is_identity()
            assert (result.forward_iso.component(g) @ result.iso.component(g)).is_identity()


def test_a_cocycle_pipeline_builds_the_input_s_twisted_algebra_once(monkeypatch):
    # check_equivalence reads the A^tau that equivalence_from_twist built and
    # kept on the system; twist_from_phi builds the recovered system's own
    _a, t = random_cocycle_twist(5)
    built = []
    real = twist_lib.GradedAlgebra
    monkeypatch.setattr(twist_lib, "GradedAlgebra", lambda *args: built.append(real(*args)) or built[-1])
    data = equivalence_from_twist(t)
    assert check_equivalence(data).passed
    result = backward(data)
    assert result.report.passed
    assert len(built) == 2
    assert built[0] is data.twisted is twist_algebra(t.algebra, t) and built[1] is result.twisted


def test_one_pipeline_certifies_each_algebra_once(monkeypatch):
    # the passing check_algebra is kept on A and on A^tau, so
    # check_equivalence, both Gammas and twist_from_phi read it
    _a, t = quantum_plane(4)
    certified = []
    real = graded_lib.generating_degrees
    monkeypatch.setattr(graded_lib, "generating_degrees", lambda a: certified.append(a) or real(a))
    data = equivalence_from_twist(t)
    assert check_equivalence(data).passed
    assert backward(data).report.passed
    assert [id(a) for a in certified] == [id(data.algebra), id(data.twisted)]
