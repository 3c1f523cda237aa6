"""Internal Hom spaces: currying primitives, equalizer kernels against a
first-principles oracle, composition, Gamma, and shift compatibility."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composites import (
    assemble,
    block_composites,
    coevaluation,
    evaluation,
    flat,
    postcompose,
    r_composite,
    reference_gamma,
    s_composite,
    sharp,
    zero_module,
)
from gradedtwist import enriched, exactmath
from gradedtwist.exactmath import QQ, Matrix, PrimeField, block_matrix, hstack, kron, sparse_kernel
from gradedtwist.fixtures import (
    F7,
    broken_algebra,
    quantum_plane,
    random_cocycle_twist,
    s3_group_algebra,
    z3_group_algebra,
)
from gradedtwist.enriched import (
    GammaAlgebra,
    block_permutation,
    build_RS,
    check_shift_props,
    compose_homs,
    direct_intertwiner_basis,
    endo_iso,
    gamma_algebra,
    identity_hom,
    module_hom_space,
    precompose,
)
from gradedtwist.graded import (
    GradedAlgebra,
    GradedModule,
    GradedVectorSpace,
    check_algebra,
    check_module,
    generating_degrees,
    group_algebra,
    regular_module,
    shift_module,
)
from gradedtwist.groups import IntegerWindow, cyclic_group, symmetric_group
from gradedtwist.twist import COCYCLE, TwistingSystem, twist_algebra

F5 = PrimeField(5)


def odd_dual_numbers():
    space = GradedVectorSpace(cyclic_group(2), {0: 1, 1: 1})
    one = Matrix.from_rows([[1]], QQ)
    mult = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): Matrix.from_rows([[0]], QQ)}
    return GradedAlgebra(space, mult, Matrix.column([1], QQ), QQ)


def random_matrix(rng, rows, cols, field):
    if field is QQ:
        return Matrix(rows, cols, field, [rng.randrange(-4, 5) for _ in range(rows * cols)])
    return Matrix(rows, cols, field, [rng.randrange(field.p) for _ in range(rows * cols)])


class TestSharpFlat:
    def test_hand_curried_instance(self):
        nu = Matrix.from_rows([[1, 2], [3, 4]], QQ)  # X (x) Y -> Z with dims 1, 2, 2
        psi = sharp(nu, 1, 2)
        assert psi == Matrix(4, 1, QQ, [1, 2, 3, 4])
        assert flat(psi, 2, 2) == nu

    @settings(max_examples=60, deadline=None)
    @given(
        dx=st.integers(min_value=0, max_value=3),
        dy=st.integers(min_value=0, max_value=3),
        dz=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
        prime=st.booleans(),
    )
    def test_round_trips(self, dx, dy, dz, seed, prime):
        import random

        field = F5 if prime else QQ
        rng = random.Random(seed)
        nu = random_matrix(rng, dz, dx * dy, field)
        assert flat(sharp(nu, dx, dy), dy, dz) == nu
        psi = random_matrix(rng, dy * dz, dx, field)
        assert sharp(flat(psi, dy, dz), dx, dy) == psi

    @settings(max_examples=40, deadline=None)
    @given(
        dx=st.integers(min_value=0, max_value=3),
        dy=st.integers(min_value=0, max_value=3),
        dz=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_evaluation_triangle(self, dx, dy, dz, seed):
        import random

        rng = random.Random(seed)
        nu = random_matrix(rng, dz, dx * dy, QQ)
        lhs = evaluation(dy, dz, QQ) @ kron(sharp(nu, dx, dy), Matrix.identity(dy, QQ))
        assert lhs == nu

    @settings(max_examples=25, deadline=None)
    @given(dx=st.integers(min_value=0, max_value=3), dy=st.integers(min_value=0, max_value=3))
    def test_zigzag(self, dx, dy):
        lhs = evaluation(dy, dx * dy, QQ) @ kron(coevaluation(dx, dy, QQ), Matrix.identity(dy, QQ))
        assert lhs == Matrix.identity(dx * dy, QQ)

    def test_pre_and_postcompose(self):
        import random

        rng = random.Random(11)
        nu = random_matrix(rng, 2, 3 * 2, QQ)        # X=3-dim, Y=2-dim, Z=2-dim
        c = random_matrix(rng, 3, 2, QQ)             # Z -> Z'
        assert postcompose(c, 2) @ sharp(nu, 3, 2) == sharp(c @ nu, 3, 2)
        b = random_matrix(rng, 2, 4, QQ)             # Y' (4-dim) -> Y
        lhs = precompose(b, 2) @ sharp(nu, 3, 2)
        assert lhs == sharp(nu @ kron(Matrix.identity(3, QQ), b), 3, 4)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="sharp"):
            sharp(Matrix.identity(2, QQ), 3, 3)
        with pytest.raises(ValueError, match="flat"):
            flat(Matrix.identity(2, QQ), 3, 3)


def gappy_module():
    """k in degrees 0 and 2 over quantum_plane(3), with A_+ acting by zero.

    M_1 and M_3 are zero, so every action slot touching them is empty
    (an n x 0 or 0 x n block), and rho_{0,2} is a stored zero map.
    """
    a, _t = quantum_plane(3)
    one = Matrix.from_rows([[1]], QQ)
    space = GradedVectorSpace(a.group, {0: 1, 2: 1})
    module = GradedModule(space, a, {(0, 0): one, (2, 0): one, (0, 2): Matrix.zeros(1, a.dim(2), QQ)})
    assert check_module(module).passed
    assert module.action_map(1, 1).rows == 1 and module.action_map(1, 1).cols == 0
    return module


def composite_case(case):
    """(source, target, degrees) for the block-composite tests."""
    qp, s3 = regular_module(quantum_plane(3)[0]), regular_module(s3_group_algebra(F7))
    m, n = {
        "qp3-regular": (qp, qp),
        "s3-f7-regular": (s3, s3),
        "qp3-shifted-target": (qp, shift_module(qp, 1)),
        "s3-f7-shifted-target": (s3, shift_module(s3, 3)),
        "qp3-gappy-to-regular": (gappy_module(), qp),
        "qp3-regular-to-gappy": (qp, gappy_module()),
    }[case]
    return m, n, (m.group.elements() if m.group.is_finite else range(-3, 5))


COMPOSITE_CASES = ["qp3-regular", "s3-f7-regular", "qp3-shifted-target", "s3-f7-shifted-target",
                   "qp3-gappy-to-regular", "qp3-regular-to-gappy"]


def check_difference_against_composites(case, composite, check_block):
    """Assemble R and S from their composites and compare R - S with
    build_RS's D, bit for bit, at every degree of the case; check_block
    tests each block of one side, given by its composite, on its own."""
    m, n, degrees = composite_case(case)
    group = m.group
    nonzero = 0
    for g in degrees:
        difference, source, target = build_RS(m, n, g)
        big_r = assemble(r_composite, m, n, g, source, target)
        big_s = assemble(s_composite, m, n, g, source, target)
        assert difference == big_r - big_s, g
        for (p, h), _off, _size in target:
            q = group.mul(group.inv(g), p)
            check_block(m, n, q, p, h, composite(m, n, q, p, h)[1])
        nonzero += any(difference.data)
    assert nonzero


class TestHomSpaces:
    def test_group_algebra_kernel_is_the_constant_family(self):
        reg = regular_module(z3_group_algebra())
        for g in range(3):
            space = module_hom_space(reg, reg, g)
            assert space.dim == 1
            assert space.kernel == Matrix(3, 1, QQ, [1, 1, 1])

    def test_oracle_agreement_on_group_algebras(self):
        for a in (z3_group_algebra(), s3_group_algebra()):
            reg = regular_module(a)
            for g in a.group.elements():
                space = module_hom_space(reg, reg, g)
                assert space.kernel == direct_intertwiner_basis(reg, reg, g)

    def test_oracle_agreement_on_the_quantum_plane(self):
        a, _t = quantum_plane()
        reg = regular_module(a)
        for g in a.support():
            space = module_hom_space(reg, reg, g)
            assert space.kernel == direct_intertwiner_basis(reg, reg, g)

    def test_oracle_agreement_on_shifted_modules(self):
        a = s3_group_algebra(F5)
        reg = regular_module(a)
        shifted = shift_module(reg, 3)
        for g in a.group.elements():
            space = module_hom_space(shifted, reg, g)
            assert space.kernel == direct_intertwiner_basis(shifted, reg, g)

    def test_odd_dual_numbers_kernels(self):
        reg = regular_module(odd_dual_numbers())
        assert module_hom_space(reg, reg, 0).kernel == Matrix(2, 1, QQ, [1, 1])
        assert module_hom_space(reg, reg, 1).kernel == Matrix(2, 1, QQ, [0, 1])

    @pytest.mark.parametrize("case", COMPOSITE_CASES)
    def test_r_blocks_are_the_curried_evaluation_composites(self, case):
        # each R block is also the closed-structure map [rho^M_{q,h}, N_ph]
        def check_block(m, n, q, p, h, block):
            assert block == precompose(m.action_map(q, h), n.dim(m.group.mul(p, h)))

        check_difference_against_composites(case, r_composite, check_block)

    @pytest.mark.parametrize("case", COMPOSITE_CASES)
    def test_s_blocks_are_the_curried_action_composites(self, case):
        # each S block sends f in [M_q, N_p] to rho^N_{p,h} o (f (x) id_{A_h})
        def check_block(m, n, q, p, h, block):
            field, n_m1, n_n1 = m.field, m.dim(q), n.dim(p)
            unit = Matrix.identity(m.algebra.dim(h), field)
            for k in range(n_n1 * n_m1):
                f = Matrix(n_n1, n_m1, field, [int(i == k) for i in range(n_n1 * n_m1)])
                assert block.col(k) == (n.action_map(p, h) @ kron(f, unit)).data

        check_difference_against_composites(case, s_composite, check_block)

    @pytest.mark.parametrize("case", COMPOSITE_CASES)
    def test_build_rs_hands_over_the_nonzero_index_of_its_data(self, case):
        m, n, degrees = composite_case(case)
        cancelled = 0
        for g in degrees:
            difference, _source, target = build_RS(m, n, g)
            index = difference.nonzero_rows()
            assert difference._nonzero is not None
            assert index == exactmath._scan_nonzero_rows(difference), g
            # R and S cancel on every row of a target block (p, e), where A_e = k acts
            # by its unit, and the index keeps none of the cancelled sums
            for (p, h), offset, size in target:
                if h == m.group.identity:
                    assert not any(index[offset : offset + size]), (g, p)
                    cancelled += size
        assert cancelled

    def test_module_hom_space_calls_no_kron_identity_or_mat_mul(self, monkeypatch):
        # build_RS places the action maps' entries directly and the kernel
        # comes from the sparse rows of R - S; this counts the per-block
        # products and the dense elimination it must not fall back to
        cases = [(regular_module(s3_group_algebra(F7)), range(6)),
                 (regular_module(quantum_plane(3)[0]), range(-3, 5))]
        counts = {"kron": 0, "identity": 0, "mat_mul": 0, "rref": 0, "kernel_matrix": 0, "sub": 0}

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for name in ("kron", "mat_mul", "rref", "kernel_matrix"):
            original = getattr(exactmath, name)
            for module in (exactmath, enriched):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        monkeypatch.setattr(Matrix, "identity", classmethod(counting("identity", Matrix.identity.__func__)))
        monkeypatch.setattr(Matrix, "__sub__", counting("sub", Matrix.__sub__))
        dims = [module_hom_space(reg, reg, g).dim for reg, degrees in cases for g in degrees]
        monkeypatch.undo()
        assert sum(dims) == 6 + 10  # dim Gamma = dim A: 6 for k[S3], 10 for qp3
        assert counts == {"kron": 0, "identity": 0, "mat_mul": 0, "rref": 0, "kernel_matrix": 0, "sub": 0}

    def test_contains_rejects_non_morphisms(self):
        reg = regular_module(z3_group_algebra())
        space = module_hom_space(reg, reg, 0)
        assert not space.contains(Matrix(3, 1, QQ, [1, 0, 0]))

    def test_contains_and_coords_take_several_columns(self):
        a, _t = quantum_plane()
        reg = regular_module(a)
        space = module_hom_space(reg, reg, 2)
        basis = space.kernel
        assert basis.cols == space.dim > 1
        assert space.contains(basis)
        assert space.coords(basis) == Matrix.identity(space.dim, QQ)
        outsider = Matrix.column([1] + [0] * (space.total - 1), QQ)
        assert not space.contains(outsider)
        assert not space.contains(hstack([basis, outsider]))
        with pytest.raises(ValueError):
            space.coords(hstack([basis, outsider]))

    @pytest.mark.parametrize("case", ["quantum-plane-3", "s3-f7", "quantum-plane-3-shifted", "s3-f7-shifted"])
    def test_membership_and_coords_agree_with_the_equalizer(self, case):
        # reference: V is a module map exactly when D V = 0, D = R - S (build_RS)
        a = quantum_plane(3)[0] if case.startswith("quantum") else s3_group_algebra(F7)
        field = a.field
        m = regular_module(a)
        n = shift_module(m, 1) if case.endswith("shifted") else m
        rng = random.Random(11)
        outsiders = 0
        for g in a.group.elements():
            space = module_hom_space(m, n, g)
            difference, _source, _target = build_RS(m, n, g)
            coeffs = random_matrix(rng, space.dim, 3, field)
            members = space.kernel @ coeffs
            assert difference @ members == Matrix.zeros(difference.rows, members.cols, field)
            assert space.contains(members)
            assert space.coords(members) == coeffs
            assert space.kernel @ space.coords(members) == members
            for j in range(members.cols):
                entries = list(members.col(j))
                if not entries:
                    continue
                i = rng.randrange(len(entries))
                entries[i] = field.add(entries[i], field.one)
                column = Matrix.column(entries, field)
                inside = not any((difference @ column).data)
                assert space.contains(column) == inside, (g, j)
                if not inside:
                    outsiders += 1
                    with pytest.raises(ValueError):
                        space.coords(hstack([members, column]))
        assert outsiders

    def test_zero_module_hom_spaces_are_zero(self):
        a = z3_group_algebra()
        reg = regular_module(a)
        assert module_hom_space(zero_module(a), reg, 0).dim == 0
        assert module_hom_space(reg, zero_module(a), 1).dim == 0

    def test_mismatched_modules_raise(self):
        reg_q = regular_module(z3_group_algebra())
        reg_5 = regular_module(z3_group_algebra(F5))
        with pytest.raises(ValueError, match="different"):
            module_hom_space(reg_q, reg_5, 0)


class TestComposition:
    def test_identity_is_neutral(self):
        a = s3_group_algebra()
        reg = regular_module(a)
        units = module_hom_space(reg, reg, a.group.identity)
        ident = identity_hom(reg)
        space = module_hom_space(reg, reg, 2)
        f = space.kernel
        assert compose_homs(units, ident, space, f) == f
        assert compose_homs(space, f, units, ident) == f

    def test_degrees_multiply(self):
        a = s3_group_algebra()
        reg = regular_module(a)
        s1, s2 = module_hom_space(reg, reg, 1), module_hom_space(reg, reg, 2)
        target = module_hom_space(reg, reg, a.group.mul(1, 2))
        composite = compose_homs(s1, s1.kernel, s2, s2.kernel)
        assert composite.rows == target.total
        assert target.coords(composite) == Matrix.identity(1, QQ)

    def test_membership_check_accepts_real_composites(self):
        a, _t = quantum_plane()
        reg = regular_module(a)
        s1 = module_hom_space(reg, reg, 1)
        s2 = module_hom_space(reg, reg, 2)
        s3 = module_hom_space(reg, reg, 3)
        composites = compose_homs(s1, s1.kernel, s2, s2.kernel)
        assert composites.cols == s1.dim * s2.dim
        assert s3.contains(composites)

    def test_membership_check_rejects_non_morphism_factors(self):
        a = z3_group_algebra()
        reg = regular_module(a)
        space = module_hom_space(reg, reg, 0)
        bad = Matrix.column([2, 1, 1], QQ)
        assert not space.contains(bad)
        assert not space.contains(compose_homs(space, bad, space, bad))

    def test_inner_module_mismatch_raises(self):
        a = z3_group_algebra()
        reg = regular_module(a)
        zero = zero_module(a)
        left, right = module_hom_space(reg, reg, 0), module_hom_space(zero, zero, 0)
        with pytest.raises(ValueError, match="inner modules"):
            compose_homs(left, identity_hom(reg), right, identity_hom(zero))

    def test_columns_off_the_layouts_are_refused(self):
        reg = regular_module(z3_group_algebra())
        space = module_hom_space(reg, reg, 0)
        ident = identity_hom(reg)
        with pytest.raises(ValueError, match="rows"):
            compose_homs(space, ident, space, Matrix.column([1, 1], QQ))
        with pytest.raises(ValueError, match="rows"):
            compose_homs(space, Matrix.column([1, 1, 1], F5), space, ident)


def _composition_case(name):
    # over the integers, negative degrees too: their spaces are zero, their layouts not
    a = s3_group_algebra(F7) if name == "s3-f7" else quantum_plane(3)[0]
    reg = regular_module(a)
    degrees = list(a.group.elements()) if name == "s3-f7" else list(range(-3, 4))
    return reg, degrees, {g: module_hom_space(reg, reg, g) for g in degrees}


COMPOSITION_CASES = {name: _composition_case(name) for name in ("s3-f7", "quantum-plane-3")}


def _random_columns(rng, space, members):
    """Two columns on the layout of `space`: members when asked, else random
    entries (about a third zero) that mostly lie outside it."""
    field = space.source.field
    if members:
        return space.kernel @ random_matrix(rng, space.dim, 2, field)
    return Matrix(space.total, 2, field,
                  [0 if rng.random() < 0.35 else rng.randrange(1, 5) for _ in range(space.total * 2)])


class TestCompositionProperties:
    """compose_homs on seeded random columns against the per-block products
    of tests/composites.py, and the laws composition must satisfy."""

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(sorted(COMPOSITION_CASES)), seed=st.integers(0, 2**32 - 1),
           members=st.booleans())
    def test_composition_matches_the_block_products_and_its_laws(self, case, seed, members):
        reg, degrees, spaces = COMPOSITION_CASES[case]
        group = reg.group
        rng = random.Random(seed)
        g, h, k = (rng.choice(degrees) for _ in range(3))

        def space(d):
            return spaces.get(d) or module_hom_space(reg, reg, d)

        fs, gs, ks = (_random_columns(rng, space(d), members) for d in (g, h, k))
        fg = compose_homs(space(g), fs, space(h), gs)
        assert fg == block_composites(space(g), fs, space(h), gs)
        gh = group.mul(g, h)
        assert fg.rows == space(gh).total
        # associativity, with the column order (a, b, c) on both sides
        left = compose_homs(space(gh), fg, space(k), ks)
        right = compose_homs(space(g), fs, space(group.mul(h, k)), compose_homs(space(h), gs, space(k), ks))
        assert left == right
        # the identity family is neutral on both sides
        units, ident = space(group.identity), identity_hom(reg)
        assert compose_homs(units, ident, space(g), fs) == fs
        assert compose_homs(space(g), fs, units, ident) == fs
        if members:
            assert space(gh).contains(fg)


class TestGamma:
    def test_gamma_of_a_group_algebra_is_the_group_algebra(self):
        a = z3_group_algebra()
        gamma = gamma_algebra(a)
        assert gamma.graded == a

    def test_gamma_of_odd_dual_numbers_is_itself(self):
        a = odd_dual_numbers()
        gamma = gamma_algebra(a)
        assert gamma.graded == a

    def test_gamma_dims_match_the_algebra(self):
        for a in (s3_group_algebra(), quantum_plane()[0], odd_dual_numbers()):
            gamma = gamma_algebra(a)
            for g in gamma.degrees:
                assert gamma.dim(g) == a.dim(g), (g, gamma.dim(g), a.dim(g))

    def test_gamma_is_an_associative_unital_algebra(self):
        for a in (s3_group_algebra(), quantum_plane()[0]):
            gamma = gamma_algebra(a)
            assert check_algebra(gamma.graded).passed


def _twisted_quantum_plane(maxdeg):
    a, t = quantum_plane(maxdeg=maxdeg)
    return twist_algebra(a, t)


REDUCTION_CASES = {
    **{f"qp{n}": (lambda n=n: quantum_plane(maxdeg=n)[0]) for n in range(3, 7)},
    **{f"qp{n}-twisted": (lambda n=n: _twisted_quantum_plane(n)) for n in range(3, 7)},
    "s4-f7": lambda: group_algebra(symmetric_group(4), F7),
    "s4-qq": lambda: group_algebra(symmetric_group(4), QQ),
    **{f"cocycle-{seed}": (lambda seed=seed: twist_algebra(*random_cocycle_twist(seed))) for seed in range(4)},
}


class TestGeneratorOnlyEqualizers:
    @pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
    def test_kernels_and_pivots_equal_the_full_equalizers(self, name):
        a = REDUCTION_CASES[name]()
        assert check_algebra(a).passed
        generators = generating_degrees(a)
        assert len(generators) < len(a.support())
        reg = regular_module(a)
        if isinstance(a.group, IntegerWindow):
            reach = max(a.support()) + 1
            degrees = range(-reach, reach + 1)
        else:
            degrees = a.group.elements()
        fewer_rows = False
        for target in (reg, shift_module(reg, 1)):
            for g in degrees:
                full_d, source, _ = build_RS(reg, target, g)
                reduced_d, reduced_source, _ = build_RS(reg, target, g, generators)
                assert reduced_source == source
                fewer_rows |= reduced_d.rows < full_d.rows
                assert sparse_kernel(reduced_d) == sparse_kernel(full_d), (name, target, g)
        assert fewer_rows

    def test_gamma_holds_the_full_kernels_and_names_its_generators(self, monkeypatch):
        a = s3_group_algebra(F7)
        reg = regular_module(a)
        seen = record_equalizers(monkeypatch)
        gamma = gamma_algebra(a)
        assert seen == [] and a.generators == (1, 2)
        for g in gamma.degrees:
            full = enriched.module_hom_space(reg, reg, g)
            assert (gamma.spaces[g].kernel, gamma.spaces[g].pivots) == (full.kernel, full.pivots)

    def test_module_hom_space_is_always_the_full_equalizer(self):
        # a generating set handed in by a caller is not proved to generate A
        reg = regular_module(quantum_plane(3)[0])
        with pytest.raises(TypeError):
            module_hom_space(reg, reg, 1, [])
        space = module_hom_space(reg, reg, 1)
        assert space.dim == 2 and space.kernel == direct_intertwiner_basis(reg, reg, 1)

    def test_a_non_algebra_never_reaches_the_reduced_equalizer(self, monkeypatch):
        seen = record_equalizers(monkeypatch)
        witnesses = set()
        for seed in range(12):
            a = broken_algebra(seed)
            witnesses.add(check_algebra(a).witness[0])
            try:
                gamma_algebra(a)
            except ValueError:
                pass
        assert "associativity" in witnesses
        assert seen and all(generators is None for generators in seen)

    def test_compose_homs_takes_the_layout_it_would_build(self):
        a = quantum_plane(3)[0]
        reg = regular_module(a)
        s1, s2, s3 = (module_hom_space(reg, reg, g) for g in (1, 2, 3))
        built = compose_homs(s1, s1.kernel, s2, s2.kernel)
        assert compose_homs(s1, s1.kernel, s2, s2.kernel, s3.source_layout) == built

    def test_a_composite_outside_its_space_names_the_first_failing_pair(self, monkeypatch):
        a = s3_group_algebra(F7)
        assert a.group.identity == 0 and a.group.mul(1, 1) == 0 and a.group.mul(0, 2) == 2
        real = enriched.compose_homs
        bad = set()

        def corrupted(left, fs, right, gs, layout=None):
            composites = real(left, fs, right, gs, layout)
            if (left.degree, right.degree) not in bad:
                return composites
            data = list(composites.data)
            data[0] = F7.add(data[0], 1)
            return Matrix(composites.rows, composites.cols, F7, data)

        monkeypatch.setattr(enriched, "compose_homs", corrupted)
        # both pairs have their right factor in H = (1, 2), so the rerun with
        # every degree names them; the coordinates are read per product
        # degree, and degree 0 is read before degree 2, but the pair (0, 2)
        # comes before (1, 1)
        for pairs, named in (({(1, 1)}, "(1,1)"), ({(1, 1), (0, 2)}, "(0,2)")):
            bad.clear()
            bad.update(pairs)
            with pytest.raises(ValueError) as caught:
                gamma_algebra(a)
            assert str(caught.value) == f"composite of degrees {named} is not a module morphism family"


def record_equalizers(monkeypatch) -> list:
    """Rebind enriched._difference_rows, which writes D's rows for build_RS,
    to record the generators of each call."""
    seen = []
    real = enriched._difference_rows

    def recorded(m, n, g, generators):
        seen.append(generators)
        return real(m, n, g, generators)

    monkeypatch.setattr(enriched, "_difference_rows", recorded)
    return seen


def coboundary_twist(group, field, seed):
    """k[G] twisted by the coboundary of seeded nonzero scalars beta, with
    beta(e) = 1: alpha(x, y) = beta(x) beta(y) / beta(xy)."""
    rng = random.Random(seed)
    beta = {g: field.one if g == group.identity else field.coerce(rng.randrange(1, 7))
            for g in group.elements()}
    alpha = {(x, y): field.mul(field.mul(beta[x], beta[y]), field.inv(beta[group.mul(x, y)]))
             for x in group.elements() for y in group.elements()}
    a = group_algebra(group, field)
    return twist_algebra(a, TwistingSystem(a, COCYCLE, alpha=alpha))


GAMMA_CASES = {
    **{name: build for name, build in REDUCTION_CASES.items() if not name.startswith("cocycle")},
    "s3-f7": lambda: s3_group_algebra(F7),
    "s3-qq": lambda: s3_group_algebra(QQ),
}


def gamma_degrees(a):
    return a.support() if isinstance(a.group, IntegerWindow) else list(a.group.elements())


def count_compose_homs(monkeypatch) -> list:
    """Rebind enriched.compose_homs to record the degrees of each call."""
    calls = []
    real = enriched.compose_homs

    def counted(left, fs, right, gs, layout=None):
        calls.append((left.degree, right.degree))
        return real(left, fs, right, gs, layout)

    monkeypatch.setattr(enriched, "compose_homs", counted)
    return calls


class TestGeneratedProducts:
    """gamma_algebra composes with right factors in H = a.generators only
    and derives the other products; tests/composites.py composes every pair."""

    @pytest.mark.parametrize("name", sorted(GAMMA_CASES))
    def test_gamma_equals_the_full_composition_reference(self, name):
        a = GAMMA_CASES[name]()
        graded = gamma_algebra(a).graded
        reference = reference_gamma(a, gamma_degrees(a))
        assert graded == reference
        assert list(graded.mult) == list(reference.mult)
        assert len(a.generators) < len(graded.support())

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(["z3", "s3", "z6"]))
    def test_seeded_cocycle_twists_equal_the_reference(self, seed, group):
        if group == "z3":
            a = twist_algebra(*random_cocycle_twist(seed))
        else:
            a = coboundary_twist(symmetric_group(3) if group == "s3" else cyclic_group(6), F7, seed)
        graded = gamma_algebra(a).graded
        reference = reference_gamma(a, gamma_degrees(a))
        assert graded == reference and list(graded.mult) == list(reference.mult)

    def test_one_composition_per_degree_and_generator(self, monkeypatch):
        a = group_algebra(symmetric_group(4), F7)
        calls = count_compose_homs(monkeypatch)
        gamma = gamma_algebra(a)
        assert a.generators == (1, 2, 6)
        assert len(calls) == len(gamma.graded.support()) * len(a.generators) == 72
        assert {h for _g, h in calls} == set(a.generators)
        assert len(gamma.graded.mult) == 576

    def test_a_corrupted_generator_product_reruns_with_every_degree(self, monkeypatch):
        a = s3_group_algebra(F7)
        calls = count_compose_homs(monkeypatch)
        counted = enriched.compose_homs

        def corrupted(left, fs, right, gs, layout=None):
            composites = counted(left, fs, right, gs, layout)
            if (left.degree, right.degree) != (3, 2):
                return composites
            data = list(composites.data)
            data[0] = F7.add(data[0], 1)
            return Matrix(composites.rows, composites.cols, F7, data)

        monkeypatch.setattr(enriched, "compose_homs", corrupted)
        with pytest.raises(ValueError, match=r"composite of degrees \(3,2\) is not a module morphism family"):
            gamma_algebra(a)
        assert len(calls) == 6 * 2 + 6 * 6

    def test_a_span_that_misses_a_degree_reruns_with_every_degree(self, monkeypatch):
        # zero composites with the generator lie in every space, so they are
        # read without error, but then the products of H reach no degree but 0
        a = quantum_plane(3)[0]
        calls = count_compose_homs(monkeypatch)
        counted = enriched.compose_homs

        def zeroed(left, fs, right, gs, layout=None):
            composites = counted(left, fs, right, gs, layout)
            if right.degree != 1:
                return composites
            return Matrix.zeros(composites.rows, composites.cols, composites.field)

        monkeypatch.setattr(enriched, "compose_homs", zeroed)
        mult = gamma_algebra(a).graded.mult
        assert a.generators == (1,)
        assert calls[:3] == [(0, 1), (1, 1), (2, 1)] and len(calls) == 3 + 10
        # every product was then read from its own composite
        reference = reference_gamma(a, gamma_degrees(a)).mult
        assert all(not any(m.data) if h == 1 else m == reference[(g, h)] for (g, h), m in mult.items())

    def test_a_fresh_gamma_builds_the_regular_module_once(self, monkeypatch):
        built = []
        real = GradedModule.__init__

        def counted(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(GradedModule, "__init__", counted)
        a = s3_group_algebra(F7)
        gamma = gamma_algebra(a)
        assert len(built) == 1
        assert gamma.module is regular_module(a) and len(built) == 1


CERTIFIED_CASES = {
    **{f"qp{n}": (lambda n=n: quantum_plane(maxdeg=n)[0]) for n in range(3, 9)},
    **{f"qp{n}-twisted": (lambda n=n: _twisted_quantum_plane(n)) for n in range(3, 9)},
    **{f"s{n}-{name}": (lambda n=n, field=field: group_algebra(symmetric_group(n), field))
       for n in (3, 4) for name, field in (("f7", F7), ("qq", QQ))},
}


def count_eliminations(monkeypatch) -> list:
    """Rebind enriched.sparse_kernel to record the shape of each matrix it eliminates."""
    shapes = []
    real = enriched.sparse_kernel

    def counted(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(enriched, "sparse_kernel", counted)
    return shapes


def curried_products(a, layout, g) -> Matrix:
    """The columns L_x as endo_iso once built them: block p is sharp(m_{g,q})."""
    ginv = a.group.inv(g)
    curried = {(j, 0): sharp(a.mult_map(g, a.group.mul(ginv, p)), a.dim(g), a.dim(a.group.mul(ginv, p)))
               for j, (p, _off, _size) in enumerate(layout)}
    return block_matrix([size for _p, _off, size in layout], [a.dim(g)], curried, a.field)


def assert_certified_like_eliminated(a):
    """Gamma's spaces against sparse_kernel of their D, and the L_x writer
    against the curried products, degree by degree."""
    gamma = gamma_algebra(a)
    reg = gamma.module
    for g in gamma.degrees:
        space = gamma.spaces[g]
        difference, layout, _target = build_RS(reg, reg, g, a.generators)
        assert layout == space.source_layout
        assert (space.kernel, space.pivots) == sparse_kernel(difference), g
        written = enriched._left_multiplications(a, layout, g)
        expected = curried_products(a, layout, g)
        assert written == expected and written.nonzero_rows() == expected.nonzero_rows(), g


class TestCertifiedHomSpaces:
    """gamma_algebra spans each [[A, A]]_g by the left multiplications L_x
    once check_algebra has passed, whose pass proves D L = 0; it checks
    only their rank, and writes and eliminates D only when that falls
    short. A writer with full rank but a wrong column would not fall back:
    assert_certified_like_eliminated compares the spaces with
    sparse_kernel(D) and the writer with the curried products instead."""

    @pytest.mark.parametrize("name", sorted(CERTIFIED_CASES))
    def test_certified_kernels_and_left_multiplications_are_bit_identical(self, name):
        assert_certified_like_eliminated(CERTIFIED_CASES[name]())

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(["z3", "s3", "z6"]))
    def test_seeded_cocycle_twists_are_bit_identical(self, seed, group):
        if group == "z3":
            a = twist_algebra(*random_cocycle_twist(seed))
        else:
            a = coboundary_twist(symmetric_group(3) if group == "s3" else cyclic_group(6), F7, seed)
        assert_certified_like_eliminated(a)

    @pytest.mark.parametrize("name", ["qp3", "qp4-twisted", "s3-qq", "s4-f7"])
    def test_a_passing_gamma_writes_no_d_and_eliminates_nothing(self, name, monkeypatch):
        eliminated = count_eliminations(monkeypatch)
        written = record_equalizers(monkeypatch)
        built = []
        real = enriched.build_RS

        def recorded(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(enriched, "build_RS", recorded)
        gamma = gamma_algebra(CERTIFIED_CASES[name]())
        assert gamma.algebra.generators is not None
        assert eliminated == [] and written == [] and built == []

    def test_a_module_on_a_copy_of_mult_is_eliminated(self, monkeypatch):
        a = CERTIFIED_CASES["qp4"]()
        gamma = gamma_algebra(a)
        copy = GradedModule(a.space, a, dict(a.mult))
        eliminated = count_eliminations(monkeypatch)
        for g in gamma.degrees:
            space, written = enriched._hom_space(copy, g, True)
            assert written is None
            assert (space.kernel, space.pivots) == (gamma.spaces[g].kernel, gamma.spaces[g].pivots)
        assert len(eliminated) == len(gamma.degrees)

    def test_a_non_algebra_gets_the_eliminated_spaces(self, monkeypatch):
        built = []
        real = enriched._hom_space

        def recorded(reg, g, is_algebra):
            space, written = real(reg, g, is_algebra)
            built.append((reg, space))
            return space, written

        monkeypatch.setattr(enriched, "_hom_space", recorded)
        written = []
        monkeypatch.setattr(enriched, "_left_multiplications", lambda *args: written.append(args))
        eliminated = count_eliminations(monkeypatch)
        for seed in range(12):
            try:
                gamma_algebra(broken_algebra(seed))
            except ValueError:
                pass
        assert built and len(eliminated) == len(built) and not written
        for reg, space in built:
            full = module_hom_space(reg, reg, space.degree)
            assert (space.kernel, space.pivots) == (full.kernel, full.pivots)

    @pytest.mark.parametrize("name, corruption", [("qp4", "zeroed"), ("s3-f7", "zeroed"),
                                                  ("qp4", "duplicated"), ("qp4-twisted", "duplicated")])
    def test_a_corrupted_left_multiplication_falls_back_to_elimination(self, name, corruption, monkeypatch):
        expected = gamma_algebra(CERTIFIED_CASES[name]())
        bad = expected.degrees[1]
        real = enriched._left_multiplications

        def corrupted(a, layout, g):
            columns = real(a, layout, g)
            if g != bad:
                return columns
            # a zeroed first column, or the first column written again in
            # place of the last, leaves the L_x at rank below dim A_g
            assert columns.cols > 1 or corruption == "zeroed"
            data = list(columns.data)
            for at in range(0, len(data), columns.cols):
                if corruption == "zeroed":
                    data[at] = a.field.zero
                else:
                    data[at + columns.cols - 1] = data[at]
            return Matrix(columns.rows, columns.cols, a.field, data)

        monkeypatch.setattr(enriched, "_left_multiplications", corrupted)
        eliminated = count_eliminations(monkeypatch)
        gamma = gamma_algebra(CERTIFIED_CASES[name]())
        assert len(eliminated) == 1
        for g in expected.degrees:
            assert (gamma.spaces[g].kernel, gamma.spaces[g].pivots) == \
                (expected.spaces[g].kernel, expected.spaces[g].pivots)
        assert gamma.graded == expected.graded


class TestEndoIso:
    def test_group_algebras(self):
        for a in (z3_group_algebra(), s3_group_algebra(F5)):
            phi, psi, report = endo_iso(gamma_algebra(a))
            assert report.passed
            for g in a.support():
                assert phi.component(g).is_identity()
                assert psi.component(g).is_identity()

    def test_quantum_plane(self):
        a, _t = quantum_plane()
        phi, psi, report = endo_iso(gamma_algebra(a))
        assert report.passed
        for g in a.support():
            assert phi.component(g).rows == a.dim(g)
            assert psi.component(g) @ phi.component(g) == Matrix.identity(a.dim(g), QQ)

    def test_gamma_of_the_twisted_algebra_gives_a_membership_witness(self):
        # Gamma(A^tau) handed in as if it were Gamma(A): left multiplication
        # by x in A is not a module map for the twisted action
        a, t = quantum_plane()
        gb = gamma_algebra(twist_algebra(a, t))
        _phi, _psi, report = endo_iso(GammaAlgebra(a, gb.degrees, gb.spaces, gb.graded, gb.module))
        assert report.witness == {"failed": "endo_iso", "witness": ("membership", (1, 0))}

    def test_endo_iso_reads_the_left_multiplications_gamma_wrote(self, monkeypatch):
        # k[S4]: gamma_algebra writes each L_x once, and endo_iso reads them
        # back; a GammaAlgebra built by hand writes its own algebra's
        written = []
        real = enriched._left_multiplications
        monkeypatch.setattr(enriched, "_left_multiplications",
                            lambda a, layout, g: written.append(g) or real(a, layout, g))
        a = group_algebra(symmetric_group(4), F7)
        gamma = gamma_algebra(a)
        phi, psi, report = endo_iso(gamma)
        assert report.passed and sorted(written) == sorted(gamma.left_multiplications) == list(range(24))
        written.clear()
        by_hand = GammaAlgebra(a, gamma.degrees, gamma.spaces, gamma.graded, gamma.module)
        assert dict(by_hand.left_multiplications) == {}
        again = endo_iso(by_hand)
        assert sorted(written) == list(range(24)) and again[:2] == (phi, psi) and again[2].passed

    def test_a_gamma_algebra_cannot_be_rebound(self):
        a, t = quantum_plane(2)
        gamma = gamma_algebra(a)
        for name, value in (("algebra", twist_algebra(a, t)), ("spaces", {}), ("left_multiplications", {})):
            with pytest.raises(AttributeError, match=f"GammaAlgebra.{name} cannot be rebound"):
                setattr(gamma, name, value)
        with pytest.raises(TypeError):
            gamma.left_multiplications[1] = Matrix.zeros(1, 1, QQ)
        assert endo_iso(gamma)[2].passed


def dense_permutation(from_layout, to_layout, send):
    """The block permutation written out entry by entry."""
    to_offset = {p: off for p, off, _size in to_layout}
    rows = [[0] * sum(size for _q, _o, size in from_layout) for _p, _o, size in to_layout for _ in range(size)]
    for q, off, size in from_layout:
        for i in range(size):
            rows[to_offset[send(q)] + i][off + i] = 1
    return Matrix.from_rows(rows, QQ)


def layout_of(sizes):
    """(label, offset, size) blocks in ascending label order."""
    out, offset = [], 0
    for p in sorted(sizes):
        out.append((p, offset, sizes[p]))
        offset += sizes[p]
    return out


def s3_layouts(g):
    """A layout over S3 with blocks of sizes 1..3, and its image under q -> g q."""
    group = s3_group_algebra().group
    sizes = {q: q % 3 + 1 for q in group.elements()}
    return group, layout_of(sizes), layout_of({group.mul(g, q): n for q, n in sizes.items()})


class TestBlockPermutation:
    def test_matches_the_dense_permutation_on_shifted_s3_layouts(self):
        for g in range(6):
            group, source, target = s3_layouts(g)
            send = lambda q: group.mul(g, q)  # noqa: E731
            perm = block_permutation(source, target, send, QQ)
            assert perm == dense_permutation(source, target, send)
            assert perm.transpose() @ perm == Matrix.identity(perm.cols, QQ)

    def test_mismatched_layouts_give_none(self):
        group, source, target = s3_layouts(1)
        send = lambda q: group.mul(1, q)  # noqa: E731
        p, off, size = target[0]
        resized = [(p, off, size + 1)] + [(q, o + 1, n) for q, o, n in target[1:]]
        assert block_permutation(source, resized, send, QQ) is None
        assert block_permutation(source, target[1:], send, QQ) is None


class TestShiftProps:
    def test_all_pairs_on_s3(self):
        a = s3_group_algebra()
        reg = regular_module(a)
        for g in a.group.elements():
            for d in a.group.elements():
                report = check_shift_props(reg, reg, g, d)
                assert report.passed, (g, d, report)

    def test_quantum_plane_windows(self):
        a, _t = quantum_plane()
        reg = regular_module(a)
        for g, d in [(1, 1), (1, 2), (2, 1), (-1, 1)]:
            report = check_shift_props(reg, reg, g, d)
            assert report.passed, (g, d, report)

    def test_mixed_modules_on_z3(self):
        a = z3_group_algebra(F5)
        reg = regular_module(a)
        other = shift_module(reg, 1)
        for g in range(3):
            for d in range(3):
                assert check_shift_props(reg, other, g, d).passed

    def test_conjugation_really_conjugates_on_s3(self):
        # pick g, d that do not commute so the conjugated degree differs
        a = s3_group_algebra()
        group = a.group
        g, d = 1, 2
        conj = group.mul(group.mul(group.inv(g), d), g)
        assert conj != d
        reg = regular_module(a)
        assert check_shift_props(reg, reg, g, d).passed
