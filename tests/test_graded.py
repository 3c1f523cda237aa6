"""Graded structures: axiom checkers, constructors, oracle."""

import random
import weakref
from itertools import product

import pytest

from composites import reference_check_algebra, zero_module
from gradedtwist import graded
from gradedtwist.enriched import gamma_algebra
from gradedtwist.exactmath import QQ, Matrix, PrimeField
from gradedtwist.graded import (
    GradedAlgebra,
    GradedModule,
    GradedMorphism,
    GradedVectorSpace,
    cauchy_algebra_oracle,
    check_algebra,
    check_algebra_morphism,
    check_module,
    check_module_morphism,
    generating_degrees,
    group_algebra,
    regular_module,
    shift_module,
    truncated_polynomial,
)
from gradedtwist.fixtures import broken_algebra, quantum_plane
from gradedtwist.groups import IntegerWindow, cyclic_group, symmetric_group
from gradedtwist.twist import twist_algebra

F7 = PrimeField(7)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def scaled_group_algebra(group, overrides, field=QQ):
    """Group algebra with selected 1x1 multiplication entries replaced."""
    a = group_algebra(group, field)
    mult = dict(a.mult)
    for key, value in overrides.items():
        mult[key] = Matrix.from_rows([[value]], field)
    return GradedAlgebra(a.space, mult, a.unit, field)


class TestCheckAlgebra:
    def test_group_algebras_pass(self):
        for g in (Z2, Z3, S3):
            assert check_algebra(group_algebra(g)).passed

    def test_negated_entry_is_still_associative(self):
        # this is the data of Q[x]/(x^2+1) graded by Z/2
        a = scaled_group_algebra(Z2, {(1, 1): -1})
        assert check_algebra(a).passed

    def test_zeroed_entry_fails_with_witness(self):
        a = scaled_group_algebra(Z3, {(1, 1): 0})
        r = check_algebra(a)
        assert not r.passed
        # first lex failure: (x*x)*x^2 = 0 but x*(x*x^2) = x
        assert r.witness == ("associativity", (1, 1, 2))

    def test_broken_unit_fails(self):
        # both units fail at degree 0: the left one is reported
        a = group_algebra(Z2)
        b = GradedAlgebra(a.space, a.mult, Matrix.column([2], QQ), QQ)
        assert check_module(regular_module(b)).witness == ("unit-action", 0)
        r = check_algebra(b)
        assert not r.passed
        assert r.witness == ("left-unit", 0)

    def test_zero_algebra_passes(self):
        space = GradedVectorSpace(Z2, {})
        a = GradedAlgebra(space, {}, Matrix.zeros(0, 1, QQ), QQ)
        assert check_algebra(a).passed

    @pytest.mark.parametrize("left_identities, witness", [
        (True, ("right-unit", 0)),
        (False, ("left-unit", 0)),
    ])
    def test_unit_failures_at_different_degrees_report_the_lower_degree(self, left_identities, witness):
        # A_0 = span(a, b) with xy = y (every element a left identity) or
        # xy = x (a right identity), A_1 = span(c) killed by A_0 on the
        # other side; associative, with the unit a failing one side in
        # degree 0 and the other side in degree 1
        rows = [[1, 0, 1, 0], [0, 1, 0, 1]] if left_identities else [[1, 1, 0, 0], [0, 0, 1, 1]]
        acts, killed = Matrix.from_rows([[1, 1]], QQ), Matrix.zeros(1, 2, QQ)
        mult = {
            (0, 0): Matrix.from_rows(rows, QQ),
            (0, 1): killed if left_identities else acts,
            (1, 0): acts if left_identities else killed,
        }
        a = GradedAlgebra(GradedVectorSpace(IntegerWindow(0, 1), {0: 2, 1: 1}), mult, Matrix.column([1, 0], QQ), QQ)
        regular = check_module(regular_module(a))
        assert regular.witness == ("unit-action", 0 if left_identities else 1)
        assert check_algebra(a).witness == witness


def truncated_free_xz(maxdeg, field=QQ):
    """k<x, z> with deg x = 1 and deg z = 2, modulo the words of degree
    above maxdeg. Degree 1 does not generate it: z is no product of x's."""
    words = {0: [()], 1: [("x",)]}
    for d in range(2, maxdeg + 1):
        words[d] = sorted([w + ("x",) for w in words[d - 1]] + [w + ("z",) for w in words[d - 2]])
    index = {d: {w: i for i, w in enumerate(ws)} for d, ws in words.items()}
    mult = {}
    for d1, left in words.items():
        for d2, right in words.items():
            if d1 + d2 > maxdeg:
                continue
            rows = [[0] * (len(left) * len(right)) for _ in words[d1 + d2]]
            for i, u in enumerate(left):
                for j, v in enumerate(right):
                    rows[index[d1 + d2][u + v]][i * len(right) + j] = 1
            mult[(d1, d2)] = Matrix.from_rows(rows, field)
    space = GradedVectorSpace(IntegerWindow(0, maxdeg), {d: len(ws) for d, ws in words.items()})
    return GradedAlgebra(space, mult, Matrix.column([1], field), field)


def dual_numbers_in_degree_zero():
    """k[t]/(t^2), all in degree 0: the unit alone spans no more than k."""
    mult = {(0, 0): Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]], QQ)}
    return GradedAlgebra(GradedVectorSpace(IntegerWindow(0, 0), {0: 2}), mult, Matrix.column([1, 0], QQ), QQ)


class TestGeneratingDegrees:
    @pytest.mark.parametrize("build, degrees", [
        (lambda: group_algebra(S3, F7), [1, 2]),
        (lambda: group_algebra(symmetric_group(4), F7), [1, 2, 6]),
        (lambda: group_algebra(Z3), [1]),
        (lambda: quantum_plane(maxdeg=4)[0], [1]),
        (lambda: truncated_polynomial(3, 3), [1]),
        (lambda: truncated_free_xz(4), [1, 2]),
        (dual_numbers_in_degree_zero, [0]),
    ], ids=["s3-f7", "s4-f7", "z3", "qp4", "poly3", "free-xz", "dual-numbers"])
    def test_the_greedy_choice_and_the_note_that_names_it(self, build, degrees):
        a = build()
        assert generating_degrees(a) == degrees
        report = check_algebra(a)
        assert report.passed
        assert report.notes == (f"associativity over generating degrees {degrees}",)

    def test_a_generator_that_degree_one_does_not_reach_joins(self):
        a = truncated_free_xz(4)
        assert [a.dim(d) for d in range(5)] == [1, 1, 2, 3, 5]
        assert 2 in generating_degrees(a)
        # z times x is not x times z: the algebra is not the polynomial ring
        assert a.mult[(2, 1)] != a.mult[(1, 2)]

    def test_a_broken_left_unit_makes_the_certificate_fall_short(self):
        # 1 * x = 0: x is no left-normed product, though x * x = x^2 holds
        a = truncated_polynomial(1, 2)
        broken = GradedAlgebra(a.space, {**a.mult, (0, 1): Matrix.zeros(1, 1, QQ)}, a.unit, QQ)
        assert generating_degrees(broken) is None
        report = check_algebra(broken)
        assert (report.passed, report.witness) == reference_check_algebra(broken)
        assert report.witness == ("associativity", (0, 1, 1))

    def test_no_unit_component_gives_no_certificate(self):
        a = GradedAlgebra(GradedVectorSpace(Z2, {}), {}, Matrix.zeros(0, 1, QQ), QQ)
        assert generating_degrees(a) is None
        assert check_algebra(a).notes == ("associativity over the full support",)
        shifted = GradedAlgebra(GradedVectorSpace(Z2, {1: 1}), {}, Matrix.zeros(0, 1, QQ), QQ)
        assert generating_degrees(shifted) is None
        assert check_algebra(shifted).witness == ("left-unit", 1)

    def test_failing_reports_carry_no_note(self):
        a = scaled_group_algebra(Z3, {(1, 1): 0})
        assert generating_degrees(a) == [1, 2]
        report = check_algebra(a)
        assert report.witness == ("associativity", (1, 1, 2))
        assert report.notes == ()


class TestCheckModule:
    def test_regular_modules_pass(self):
        for g in (Z2, Z3, S3):
            assert check_module(regular_module(group_algebra(g))).passed

    def test_zeroed_action_fails(self):
        a = group_algebra(Z2)
        m = regular_module(a)
        action = dict(m.action)
        action[(1, 1)] = Matrix.from_rows([[0]], QQ)
        broken = GradedModule(m.space, a, action)
        r = check_module(broken)
        assert not r.passed
        assert r.witness is not None

    def test_zero_module_passes(self):
        assert check_module(zero_module(group_algebra(S3))).passed


class TestMorphismCheckers:
    def test_identity_endomorphism(self):
        a = group_algebra(Z2)
        f = GradedMorphism.identity(a.space, QQ)
        assert check_algebra_morphism(f, a, a).passed

    def test_degree_negation_is_an_automorphism(self):
        a = group_algebra(Z2)
        f = GradedMorphism(
            a.space,
            a.space,
            {0: Matrix.from_rows([[1]], QQ), 1: Matrix.from_rows([[-1]], QQ)},
            QQ,
        )
        assert check_algebra_morphism(f, a, a).passed

    def test_unit_violation_fails(self):
        a = group_algebra(Z2)
        f = GradedMorphism(
            a.space,
            a.space,
            {0: Matrix.from_rows([[-1]], QQ), 1: Matrix.from_rows([[-1]], QQ)},
            QQ,
        )
        r = check_algebra_morphism(f, a, a)
        assert not r.passed
        assert r.witness[0] in ("unit", "multiplicativity")

    def test_module_morphism_left_multiplication(self):
        # acting by a degree-e scalar is a module endomorphism
        a = group_algebra(Z3)
        m = regular_module(a)
        f = GradedMorphism(
            m.space, m.space, {g: Matrix.from_rows([[5]], QQ) for g in range(3)}, QQ
        )
        assert check_module_morphism(f, m, m).passed

    def test_module_morphism_violation(self):
        a = group_algebra(Z3)
        m = regular_module(a)
        comps = {g: Matrix.from_rows([[1]], QQ) for g in range(3)}
        comps[1] = Matrix.from_rows([[2]], QQ)
        f = GradedMorphism(m.space, m.space, comps, QQ)
        r = check_module_morphism(f, m, m)
        assert not r.passed


class TestCauchyOracle:
    def test_group_algebra_agrees(self):
        r = cauchy_algebra_oracle(group_algebra(Z2))
        assert r.passed

    def test_twisted_group_algebra_agrees(self):
        a = scaled_group_algebra(Z2, {(1, 1): -1})
        assert cauchy_algebra_oracle(a).passed

    def test_broken_algebra_fails_both_with_matching_witness(self):
        a = scaled_group_algebra(Z3, {(1, 1): 0})
        r = cauchy_algebra_oracle(a)
        assert r.passed  # the oracle verdict: both checks agree (both fail)
        direct = r.witness["direct"]
        assembled = r.witness["assembled"]
        assert direct["status"] == "fail" and assembled["status"] == "fail"
        assert tuple(assembled["witness"][1]) == tuple(direct["witness"][1])

    def test_random_perturbations_agree(self):
        rng = random.Random(99)
        base = group_algebra(Z3, F7)
        for _ in range(10):
            overrides = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(7) for _ in range(2)
            }
            a = scaled_group_algebra(Z3, overrides, F7)
            assert cauchy_algebra_oracle(a).passed
        assert cauchy_algebra_oracle(base).passed

    def test_no_block_is_assembled_for_an_empty_degree(self, monkeypatch):
        # twisted qp4 lives on degrees 0..4, its triple degrees reach 12
        a, t = quantum_plane(4)
        b = twist_algebra(a, t)
        calls = []
        real = graded.kron
        monkeypatch.setattr(graded, "kron", lambda f, g: calls.append((f, g)) or real(f, g))
        assert graded._assembled_axioms(b).passed
        supp = b.support()
        triples = sum(1 for p in supp for q in supp for r in supp if b.dim(p + q + r))
        # two per block pair, then two per degree for the unit laws
        assert len(calls) == 2 * triples + 2 * len(supp) < 2 * len(supp) ** 3

    # the witnesses of the loop over every triple degree, empty ones included
    ASSEMBLED_WITNESSES = {0: (1, 0, 0), 1: (0, 1, 2), 2: (0, 1, 2), 3: (1, 1, 2),
                           4: (1, 1, 2), 5: (1, 5, 4), 6: (1, 1, 1), 7: (1, 3, 5)}

    def test_skipping_empty_degrees_changes_no_verdict(self):
        for seed, triple in self.ASSEMBLED_WITNESSES.items():
            report = graded._assembled_axioms(broken_algebra(seed))
            assert (report.passed, report.witness) == (False, ("associativity", triple)), seed
        for maxdeg in (2, 3, 4):
            a, t = quantum_plane(maxdeg)
            assert graded._assembled_axioms(twist_algebra(a, t)).passed


class TestKeptVerdicts:
    def test_a_pass_is_kept_and_a_failure_is_recomputed(self, monkeypatch):
        runs = []
        real = graded._associativity_failure
        monkeypatch.setattr(graded, "_associativity_failure",
                            lambda m, middles: runs.append(middles) or real(m, middles))
        a = quantum_plane(3)[0]
        assert a.generators is None
        first = check_algebra(a)
        assert first.passed and a.generators == (1,)
        assert check_algebra(a) is first
        assert runs == [[1]]
        broken = broken_algebra(0)
        runs.clear()
        failed = check_algebra(broken)
        ran = len(runs)
        again = check_algebra(broken)
        assert not failed.passed and again is not failed
        assert again.witness == failed.witness
        assert len(runs) == 2 * ran > 0
        assert broken.generators is None

    def test_the_certified_generators_cannot_be_changed(self):
        a = quantum_plane(3)[0]
        assert check_algebra(a).passed
        with pytest.raises(AttributeError):
            a.generators.clear()
        with pytest.raises(AttributeError):
            a.generators = ()
        assert a.generators == (1,)

    def test_generators_cannot_be_set_before_a_check(self):
        a = quantum_plane(3)[0]
        with pytest.raises(AttributeError):
            a.generators = (0,)
        assert a.generators is None

    @pytest.mark.parametrize("name", ["unit", "mult", "space", "field"])
    def test_an_attribute_of_a_checked_algebra_cannot_be_rebound(self, name):
        a = quantum_plane(2)[0]
        kept = check_algebra(a)
        zero_unit = Matrix.zeros(1, 1, QQ)
        with pytest.raises(AttributeError, match=f"GradedAlgebra.{name} cannot be rebound"):
            setattr(a, name, zero_unit if name == "unit" else None)
        assert check_algebra(a) is kept and a.unit == Matrix.column([1], QQ)
        # the same data with the zero unit fails, so a rebound unit would have left a stale pass
        fresh = GradedAlgebra(a.space, dict(a.mult), zero_unit, QQ)
        assert check_algebra(fresh).witness == ("left-unit", 0)

    def test_a_held_regular_module_is_returned_again_and_is_read_only(self):
        a = quantum_plane(2)[0]
        reg = regular_module(a)
        assert regular_module(a) is reg and reg.action == a.mult
        with pytest.raises(TypeError):
            reg.action[(0, 0)] = Matrix.identity(1, QQ)

    @pytest.mark.parametrize("name", ["action", "space", "algebra", "field"])
    def test_a_held_regular_module_cannot_be_rebound(self, name):
        a = quantum_plane(3)[0]
        assert check_algebra(a).passed
        reg = regular_module(a)
        action = dict(reg.action)
        action[(1, 1)] = Matrix.zeros(action[(1, 1)].rows, action[(1, 1)].cols, QQ)
        with pytest.raises(AttributeError, match=f"GradedModule.{name} cannot be rebound"):
            setattr(reg, name, action if name == "action" else None)
        assert regular_module(a) is reg and reg.action is a.mult
        # a zeroed (1, 1) action block, had it been accepted, gave Gamma_1 dimension 14
        gamma = gamma_algebra(a)
        assert {g: gamma.dim(g) for g in gamma.degrees} == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_the_regular_module_shares_the_algebra_s_checked_mult(self):
        a = quantum_plane(2)[0]
        assert regular_module(a).action is a.mult

    @pytest.mark.parametrize("malformed", ["shape", "field", "type", "missing"])
    def test_a_module_on_a_copy_of_mult_is_still_checked(self, malformed):
        a = quantum_plane(2)[0]
        action = dict(a.mult)
        key = (1, 1)
        if malformed == "missing":
            del action[key]
        else:
            action[key] = {"shape": Matrix.zeros(2, 3, QQ), "field": Matrix.zeros(3, 4, PrimeField(7)),
                           "type": a.mult[key].data}[malformed]
        with pytest.raises((ValueError, TypeError)):
            GradedModule(a.space, a, action)
        assert GradedModule(a.space, a, dict(a.mult)).action == a.mult

    def test_the_algebra_does_not_keep_its_regular_module_alive(self):
        # the module refers to the algebra, so a strong link back would make
        # a cycle that only the garbage collector frees
        a = quantum_plane(2)[0]
        held = weakref.ref(regular_module(a))
        assert held() is None
        assert check_algebra(a).passed and regular_module(a).algebra is a


class TestConstructors:
    def test_group_algebra_shape(self):
        a = group_algebra(Z2)
        assert a.space.dims == {0: 1, 1: 1}
        assert a.unit == Matrix.column([1], QQ)
        assert all(m == Matrix.from_rows([[1]], QQ) for m in a.mult.values())

    @pytest.mark.parametrize("dim", [1.5, 1.0, True, "1"])
    def test_space_refuses_a_dimension_that_is_not_an_int(self, dim):
        with pytest.raises(TypeError, match="of degree 1 is not an int"):
            GradedVectorSpace(IntegerWindow(0, 2), {0: 1, 1: dim})
        assert GradedVectorSpace(IntegerWindow(0, 2), {0: 1, 1: 2, 2: 0}).dims == {0: 1, 1: 2}

    def test_group_algebra_rejects_integer_window(self):
        with pytest.raises(ValueError):
            group_algebra(IntegerWindow(0, 3))

    def test_truncated_polynomial_dims(self):
        a = truncated_polynomial(2, 3)
        assert [a.dim(d) for d in range(4)] == [1, 2, 3, 4]
        assert check_algebra(a).passed

    def test_truncated_polynomial_products(self):
        a = truncated_polynomial(2, 2)
        # degree-1 basis is (x, y); x*y lands on the middle degree-2 monomial
        m11 = a.mult_map(1, 1)
        assert m11 @ Matrix.column([0, 1, 0, 0], QQ) == Matrix.column([0, 1, 0], QQ)  # x (x) y
        assert m11 @ Matrix.column([0, 0, 1, 0], QQ) == Matrix.column([0, 1, 0], QQ)  # y (x) x
        assert m11 @ Matrix.column([1, 0, 0, 0], QQ) == Matrix.column([1, 0, 0], QQ)  # x (x) x

    def test_truncation_kills_high_degrees(self):
        a = truncated_polynomial(2, 2)
        assert (1, 2) not in a.mult
        assert a.mult_map(1, 2).rows == 0

    def test_shift_module_passes_checks(self):
        a = group_algebra(S3)
        m = regular_module(a)
        for g in S3.elements():
            s = shift_module(m, g)
            assert check_module(s).passed
            for d in s.support():
                assert s.dim(d) == m.dim(S3.mul(S3.inv(g), d))

    def test_shift_functoriality(self):
        a = group_algebra(S3)
        m = regular_module(a)
        for g in (1, 3, 5):
            for h in (2, 4):
                assert shift_module(shift_module(m, h), g) == shift_module(m, S3.mul(g, h))

    def test_shift_by_identity_is_identity(self):
        a = truncated_polynomial(2, 2)
        m = regular_module(a)
        assert shift_module(m, 0) == m

    def test_integer_shift_moves_window(self):
        a = truncated_polynomial(1, 2)
        m = regular_module(a)
        s = shift_module(m, 2)
        assert s.support() == [2, 3, 4]
        assert check_module(s).passed
        back = shift_module(s, -2)
        assert back.space.dims == m.space.dims
        assert back.action == m.action


class TestStorageRule:
    def test_missing_required_key_raises(self):
        a = group_algebra(Z2)
        mult = dict(a.mult)
        del mult[(1, 1)]
        with pytest.raises(ValueError):
            GradedAlgebra(a.space, mult, a.unit, QQ)

    def test_wrong_shape_raises(self):
        a = group_algebra(Z2)
        mult = dict(a.mult)
        mult[(1, 1)] = Matrix.from_rows([[1, 1]], QQ)
        with pytest.raises(ValueError):
            GradedAlgebra(a.space, mult, a.unit, QQ)

    def test_morphism_shape_validation(self):
        a = group_algebra(Z2)
        with pytest.raises(ValueError):
            GradedMorphism(a.space, a.space, {0: Matrix.identity(2, QQ)}, QQ)


def test_checkers_skip_identities_into_zero_components(monkeypatch):
    # on qp3 (degrees 0..3, products above 3 are zero) an identity whose
    # two sides map into a zero component compares two empty matrices, so
    # the checkers skip it: only the tuples with a nonzero product degree
    # are evaluated
    a = quantum_plane(3)[0]
    reg = regular_module(a)
    identity = GradedMorphism.identity(a.space, a.field)
    supp = a.support()
    calls = []
    real = graded.mul_kron
    monkeypatch.setattr(graded, "mul_kron", lambda *args: calls.append(args) or real(*args))

    def evaluated(check, *args):
        calls.clear()
        assert check(*args).passed
        return len(calls)

    triples = [t for t in product(supp, repeat=3) if a.dim(sum(t))]
    pairs = [t for t in product(supp, repeat=2) if a.dim(sum(t))]
    assert (len(triples), len(pairs)) == (20, 10)  # of 64 and 16
    # two composites per triple, then one per degree for the unit action
    assert evaluated(check_module, reg) == 2 * len(triples) + len(supp)
    assert evaluated(check_algebra_morphism, identity, a, a) == len(pairs)
    assert evaluated(check_module_morphism, identity, reg, reg) == len(pairs)
