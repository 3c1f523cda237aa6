"""Exact linear algebra: oracles first, then algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composites import reference_inverse, vstack
from gradedtwist import exactmath, serialize
from gradedtwist.enriched import build_RS
from gradedtwist.exactmath import (
    QQ,
    Matrix,
    PrimeField,
    SingularMatrixError,
    block_matrix,
    column_echelon,
    hstack,
    inverse,
    kernel_matrix,
    kron,
    mat_mul,
    mul_kron,
    rank,
    rref,
    solve,
    sparse_column_echelon,
    sparse_kernel,
    try_inverse,
)
from gradedtwist.fixtures import quantum_plane
from gradedtwist.graded import regular_module

F7 = PrimeField(7)
F5 = PrimeField(5)


def naive_mat_mul(a, b):
    """Entry-by-entry triple loop, the independent multiplication oracle."""
    assert a.cols == b.rows
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a.field.zero
            for k in range(a.cols):
                acc = a.field.add(acc, a.field.mul(a[i, k], b[k, j]))
            out.append(acc)
    return Matrix(a.rows, b.cols, a.field, out)


def random_matrix(rng, rows, cols, field):
    if field == QQ:
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows * cols)]
    else:
        entries = [rng.randrange(field.p) for _ in range(rows * cols)]
    return Matrix(rows, cols, field, entries)


class TestMatMul:
    def test_identity_case(self):
        rng = random.Random(11)
        m = random_matrix(rng, 3, 4, QQ)
        assert mat_mul(Matrix.identity(3, QQ), m) == m

    def test_diagonal_arithmetic(self):
        a = Matrix.from_rows([[Fraction(1, 2), 0], [0, 2]], QQ)
        b = Matrix.from_rows([[2], [Fraction(1, 2)]], QQ)
        assert a @ b == Matrix.from_rows([[1], [1]], QQ)

    def test_matches_triple_loop_oracle_over_f7(self):
        rng = random.Random(20260823)
        for _ in range(25):
            a = random_matrix(rng, 4, 3, F7)
            b = random_matrix(rng, 3, 5, F7)
            assert mat_mul(a, b) == naive_mat_mul(a, b)

    def test_zero_dimensional_product(self):
        a = Matrix.zeros(3, 0, QQ)
        b = Matrix.zeros(0, 2, QQ)
        assert a @ b == Matrix.zeros(3, 2, QQ)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(Matrix.identity(2, QQ), Matrix.identity(3, QQ))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(Matrix.identity(2, QQ), Matrix.identity(2, F7))


class TestKron:
    def test_identity(self):
        assert kron(Matrix.identity(2, QQ), Matrix.identity(3, QQ)) == Matrix.identity(6, QQ)

    def test_zero_object(self):
        f = Matrix.from_rows([[1, 2], [3, 4]], QQ)
        empty = Matrix.zeros(0, 0, QQ)
        assert kron(f, empty) == Matrix.zeros(0, 0, QQ)

    def test_hand_expansion(self):
        # kron([[2]], [[0,1],[1,0]]) expands to [[0,2],[2,0]]
        f = Matrix.from_rows([[2]], QQ)
        g = Matrix.from_rows([[0, 1], [1, 0]], QQ)
        assert kron(f, g) == Matrix.from_rows([[0, 2], [2, 0]], QQ)

    def test_index_convention(self):
        # entry[i*n' + j, k*n + l] = f[i,k] g[j,l] checked on a rectangular pair
        rng = random.Random(7)
        f = random_matrix(rng, 2, 3, F7)
        g = random_matrix(rng, 4, 2, F7)
        k = kron(f, g)
        assert (k.rows, k.cols) == (8, 6)
        for i in range(2):
            for kk in range(3):
                for j in range(4):
                    for l in range(2):
                        assert k[i * 4 + j, kk * 2 + l] == F7.mul(f[i, kk], g[j, l])


class TestKernel:
    def test_injective_map_has_empty_kernel(self):
        assert kernel_matrix(Matrix.identity(4, QQ)) == Matrix.zeros(4, 0, QQ)

    def test_zero_matrix_kernel_is_standard_basis(self):
        k = kernel_matrix(Matrix.zeros(2, 3, QQ))
        assert k == Matrix.identity(3, QQ)

    def test_one_equation(self):
        assert kernel_matrix(Matrix.from_rows([[1, 1]], QQ)) == Matrix.column([1, -1], QQ)

    def test_canonical_across_presentations(self):
        # same row space written two ways must give identical kernel bases
        a = Matrix.from_rows([[1, 2, 3], [0, 1, 1]], QQ)
        b = Matrix.from_rows([[2, 5, 7], [1, 3, 4], [3, 8, 11]], QQ)
        assert kernel_matrix(a) == kernel_matrix(b)

    def test_kernel_of_prime_field_matrix(self):
        m = Matrix.from_rows([[1, 3], [2, 6]], F7)
        k = kernel_matrix(m)
        assert k.cols == 1
        assert not any((m @ k).data)


class TestInverse:
    def test_identity(self):
        assert inverse(Matrix.identity(3, QQ)) == Matrix.identity(3, QQ)

    def test_involution(self):
        swap = Matrix.from_rows([[0, 1], [1, 0]], QQ)
        assert inverse(swap) == swap

    def test_multiply_back_random(self):
        rng = random.Random(5)
        found = 0
        while found < 10:
            m = random_matrix(rng, 5, 5, QQ)
            mi = try_inverse(m)
            if mi is None:
                continue
            found += 1
            assert m @ mi == Matrix.identity(5, QQ)
            assert mi @ m == Matrix.identity(5, QQ)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix.zeros(2, 2, QQ))
        assert try_inverse(Matrix.zeros(2, 2, QQ)) is None

    def test_empty_matrix_is_invertible(self):
        e = Matrix.zeros(0, 0, QQ)
        assert inverse(e) == e

    def test_singular_message_names_the_rank_from_one_rref(self, monkeypatch):
        # one sparse elimination of [m | I] gives both the verdict and the rank
        calls = []
        real = exactmath._sparse_rref

        def counted(rows, field):
            calls.append(rows)
            return real(rows, field)

        monkeypatch.setattr(exactmath, "_sparse_rref", counted)
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], QQ)
        with pytest.raises(SingularMatrixError, match=r"^matrix of rank 2 is singular at size 3$"):
            inverse(m)
        assert len(calls) == 1

    def test_a_second_call_is_a_lookup(self, monkeypatch):
        m = Matrix.from_rows([[2, 1], [1, 1]], QQ)
        first = inverse(m)
        monkeypatch.setattr(exactmath, "_invert", None)
        assert inverse(m) is first
        assert try_inverse(m) is first
        # the stored inverse holds no link back to m
        assert getattr(first, "_inverse", None) is None

    def test_a_singular_matrix_raises_the_same_message_twice(self, monkeypatch):
        calls = []
        real = exactmath._invert

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(exactmath, "_invert", counted)
        m = Matrix.from_rows([[1, 2], [2, 4]], F7)
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match=r"^matrix of rank 1 is singular at size 2$"):
                inverse(m)
            assert try_inverse(m) is None
        assert calls == [m]

    def test_an_equal_distinct_matrix_gets_an_equal_inverse(self):
        m = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]], QQ)
        twin = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]], QQ)
        stored = inverse(m)
        assert twin is not m
        assert twin == m and hash(twin) == hash(m)
        assert inverse(twin) == stored
        assert inverse(twin) is not stored


class TestSolve:
    def test_coordinates_in_a_basis(self):
        basis = Matrix.from_rows([[1, 0], [1, 1], [0, 2]], QQ)
        target = basis @ Matrix.column([3, -2], QQ)
        assert solve(basis, target) == Matrix.column([3, -2], QQ)

    def test_inconsistent(self):
        basis = Matrix.from_rows([[1], [0]], QQ)
        with pytest.raises(ValueError):
            solve(basis, Matrix.column([0, 1], QQ))


class TestStacking:
    def test_hstack_vstack_roundtrip(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], QQ)
        b = Matrix.from_rows([[5], [6]], QQ)
        h = hstack([a, b])
        assert h == Matrix.from_rows([[1, 2, 5], [3, 4, 6]], QQ)
        v = vstack([a, Matrix.from_rows([[7, 8]], QQ)])
        assert v == Matrix.from_rows([[1, 2], [3, 4], [7, 8]], QQ)

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_hstack_holds_each_operands_own_entries_row_by_row(self, rows):
        rng = random.Random(rows)
        mats = [random_matrix(rng, rows, cols, QQ) for cols in (2, 0, 1, 3, 1)]
        h = hstack(mats)
        assert (h.rows, h.cols) == (rows, 7)
        expected = [x for i in range(rows) for m in mats for x in m.row(i)]
        assert len(h.data) == len(expected)
        assert all(x is y for x, y in zip(h.data, expected))
        assert hstack([Matrix.zeros(rows, 0, QQ)]) == Matrix.zeros(rows, 0, QQ)

    def test_block_matrix_names_the_first_bad_block_in_the_callers_order(self):
        good, bad_shape, bad_field = Matrix.identity(2, QQ), Matrix.identity(3, QQ), Matrix.identity(2, F7)
        with pytest.raises(ValueError, match=r"block \(1,1\) has shape 3x3"):
            block_matrix([2, 2], [2, 2], {(0, 0): good, (1, 1): bad_shape, (0, 1): bad_shape}, QQ)
        with pytest.raises(ValueError, match=r"block \(0,1\) has shape 3x3"):
            block_matrix([2, 2], [2, 2], {(0, 1): bad_shape, (1, 0): bad_field}, QQ)
        with pytest.raises(ValueError, match="field mismatch"):
            block_matrix([2, 2], [2, 2], {(1, 0): bad_field, (0, 1): bad_shape}, QQ)

    def test_block_matrix_with_empty_blocks(self):
        blocks = {(0, 0): Matrix.identity(2, QQ), (1, 1): Matrix.from_rows([[5]], QQ)}
        m = block_matrix([2, 1], [2, 1], blocks, QQ)
        assert m == Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 5]], QQ)
        # zero-size blocks collapse silently
        m2 = block_matrix([2, 0], [0, 2], {(0, 1): Matrix.identity(2, QQ)}, QQ)
        assert m2 == Matrix.identity(2, QQ)


# ---------------------------------------------------------------------------
# property tests

def matrices(field, max_dim=3, min_dim=0):
    if field == QQ:
        scalars = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    else:
        scalars = st.integers(min_value=0, max_value=field.p - 1)
    dims = st.integers(min_value=min_dim, max_value=max_dim)

    def build(rows, cols):
        return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(
            lambda entries: Matrix(rows, cols, field, entries)
        )

    return st.tuples(dims, dims).flatmap(lambda rc: build(*rc))


def matrix_chain(field, length, max_dim=3):
    """Chains of composable matrices with shared inner dimensions."""
    dims = st.lists(
        st.integers(min_value=0, max_value=max_dim), min_size=length + 1, max_size=length + 1
    )
    if field == QQ:
        scalars = st.fractions(min_value=-10, max_value=10, max_denominator=5)
    else:
        scalars = st.integers(min_value=0, max_value=field.p - 1)

    def build(shape):
        mats = []
        for i in range(length):
            r, c = shape[i], shape[i + 1]
            mats.append(
                st.lists(scalars, min_size=r * c, max_size=r * c).map(
                    lambda entries, r=r, c=c: Matrix(r, c, field, entries)
                )
            )
        return st.tuples(*mats)

    return dims.flatmap(build)


@settings(max_examples=60, deadline=None)
@given(matrix_chain(QQ, 3))
def test_mat_mul_associative(chain):
    a, b, c = chain
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60, deadline=None)
@given(matrix_chain(F7, 2), matrix_chain(F7, 2))
def test_kron_functorial(left, right):
    a, c = left
    b, d = right
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


@settings(max_examples=80, deadline=None)
@given(matrices(F5, max_dim=4))
def test_rank_nullity_and_kernel_membership(m):
    k = kernel_matrix(m)
    assert rank(m) + k.cols == m.cols
    if k.cols:
        assert not any((m @ k).data)


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_column_echelon_idempotent(m):
    ce = column_echelon(m)
    assert column_echelon(ce) == ce


@settings(max_examples=60, deadline=None)
@given(matrices(F7, max_dim=4))
def test_rref_pivots_are_clean(m):
    r, pivots = rref(m)
    for row_index, p in enumerate(pivots):
        assert r[row_index, p] == 1
        for other in range(m.rows):
            if other != row_index:
                assert r[other, p] == 0


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6))
def test_rational_scalar_string_roundtrip(x):
    assert QQ.parse(QQ.format(x)) == x


@pytest.mark.parametrize("text, value", [("-3/4", Fraction(-3, 4)), ("+5", Fraction(5)), (" 007 ", Fraction(7)),
                                         ("\t2/6\n", Fraction(1, 3)), ("-0", Fraction(0))])
def test_rational_scalars_are_a_sign_digits_and_an_optional_denominator(text, value):
    assert QQ.parse(text) == value


@pytest.mark.parametrize("text", ["1e999999999", "1e5", "0.5", ".5", "5.", "1_000", "1 / 2", "1/-2", "--1", "",
                                  " ", "inf", "nan", "\u0663", "1/2/3", "0x10"])
def test_a_rational_scalar_in_any_other_form_is_refused(text):
    with pytest.raises(ValueError, match="is not an integer or a fraction p/q"):
        QQ.parse(text)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_prime_scalar_string_roundtrip(x):
    out = F7.format(x)
    assert out.endswith(" mod 7")
    assert F7.parse(out) == x


def test_prime_field_needs_prime():
    with pytest.raises(ValueError):
        PrimeField(6)
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    for p in range(n):
        if sieve[p]:
            assert PrimeField(p).p == p
        else:
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(p)


# a Carmichael number, then the smallest strong pseudoprimes to the first
# 4, 9 and 12 prime bases
@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_prime_field_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_prime_field_refuses_moduli_beyond_the_exact_bound():
    # the smallest strong pseudoprime to the first 13 prime bases
    with pytest.raises(ValueError, match="needs p <"):
        PrimeField(3317044064679887385961981)


def test_field_inverse():
    assert F7.inv(3) == 5
    assert QQ.inv(Fraction(-3, 4)) == Fraction(-4, 3)
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


# ---------------------------------------------------------------------------
# the zero-skipping kernels on sparse input

SPARSE_FIELDS = [QQ, F7]


def nonzero_scalars(field):
    if field == QQ:
        numerators = st.integers(min_value=-20, max_value=20).filter(bool)
        return st.builds(Fraction, numerators, st.integers(min_value=1, max_value=8))
    return st.integers(min_value=1, max_value=field.p - 1)


def sparse_matrix(field, rows, cols):
    """Sparse, yet rarely all zero: each entry is zero about half the time,
    and a drawn set of fewer than half of the rows, and of the columns, is
    zero."""
    cell = st.one_of(nonzero_scalars(field), st.just(0))

    def blank(n):
        return st.sets(st.integers(0, n - 1), max_size=(n - 1) // 2) if n else st.just(frozenset())

    def build(drawn):
        entries, blank_rows, blank_cols = drawn
        return Matrix(rows, cols, field, [
            0 if i in blank_rows or j in blank_cols else entries[i * cols + j]
            for i in range(rows) for j in range(cols)
        ])

    return st.tuples(
        st.lists(cell, min_size=rows * cols, max_size=rows * cols), blank(rows), blank(cols)
    ).map(build)


def sparse_dims(max_dim):
    """A dimension in 1..max_dim, or 0 about one time in 4 * max_dim + 1,
    so that most products of drawn matrices have a nonzero entry. 1 comes
    up about one time in three, so that some drawn products have only 1x1
    operands and take that path of `mat_mul` and `mul_kron`."""
    return st.sampled_from((1,) * max_dim + (*range(1, max_dim + 1),) * 3 + (0,))


def sparse_matrices(field, max_dim=6):
    dims = sparse_dims(max_dim)
    return st.tuples(dims, dims).flatmap(lambda rc: sparse_matrix(field, *rc))


def sparse_pairs(field, max_dim=6):
    """(a, b) with a: m x k and b: k x n; any of m, k, n may be 0."""
    dims = sparse_dims(max_dim)
    return st.tuples(dims, dims, dims).flatmap(
        lambda mkn: st.tuples(sparse_matrix(field, mkn[0], mkn[1]), sparse_matrix(field, mkn[1], mkn[2]))
    )


def assert_canonical(m):
    """Every entry in the field's canonical form. Matrix equality cannot
    see a violation, since Fraction(1) == 1 and hash(Fraction(1)) == 1."""
    if m.field == QQ:
        assert all(type(x) is Fraction for x in m.data)
    else:
        assert all(type(x) is int and 0 <= x < m.field.p for x in m.data)


def index_kron(f, g):
    """kron straight from kron(f, g)[i*g.rows + j, k*g.cols + l] = f[i, k] g[j, l]."""
    field = f.field
    entries = [
        field.mul(f[i, k], g[j, l])
        for i in range(f.rows) for j in range(g.rows)
        for k in range(f.cols) for l in range(g.cols)
    ]
    return Matrix(f.rows * g.rows, f.cols * g.cols, field, entries)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_mat_mul_matches_the_oracle(field, data):
    a, b = data.draw(sparse_pairs(field))
    product = mat_mul(a, b)
    assert product == naive_mat_mul(a, b)
    assert_canonical(product)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_kron_matches_the_index_formula(field, data):
    f = data.draw(sparse_matrices(field, max_dim=3))
    g = data.draw(sparse_matrices(field, max_dim=3))
    k = kron(f, g)
    assert k == index_kron(f, g)
    assert_canonical(k)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_rref_and_kernel(field, data):
    m = data.draw(sparse_matrices(field))
    r, pivots = rref(m)
    k = kernel_matrix(m)
    assert len(pivots) + k.cols == m.cols
    assert not any((m @ k).data)
    for row_index, p in enumerate(pivots):
        assert r[row_index, p] == 1
        assert all(r[other, p] == 0 for other in range(m.rows) if other != row_index)
    assert_canonical(r)
    assert_canonical(k)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_matrices_stay_canonical(field, data):
    a, b = data.draw(sparse_pairs(field))
    c = data.draw(sparse_matrix(field, a.rows, a.cols))
    assert a + c == Matrix(a.rows, a.cols, field, [field.add(x, y) for x, y in zip(a.data, c.data)])
    assert a - c == Matrix(a.rows, a.cols, field, [field.sub(x, y) for x, y in zip(a.data, c.data)])
    results = [a + c, a - c, -a, a.scale(3), a.transpose(), column_echelon(a),
               hstack([a, a]), vstack([b, b]), block_matrix([a.rows, b.rows], [a.cols, b.cols],
                                                            {(0, 0): a, (1, 1): b}, field),
               Matrix.identity(a.rows, field), Matrix.zeros(a.rows, b.cols, field)]
    for m in results:
        assert_canonical(m)
    assert a - a == Matrix.zeros(a.rows, a.cols, field)
    assert Matrix.identity(a.rows, field).is_identity()
    assert a.is_identity() == (a == Matrix.identity(a.rows, field))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_kernel_is_the_dense_kernel(field, data):
    m = data.draw(st.one_of(sparse_matrices(field), sparse_matrix(field, 0, 4), sparse_matrix(field, 4, 0),
                            sparse_matrices(field).map(lambda a: vstack([a, Matrix.zeros(2, a.cols, field)]))))
    kernel, pivots = sparse_kernel(m)
    dense = kernel_matrix(m)
    assert kernel == dense
    assert_canonical(kernel)
    assert pivots == tuple(next(i for i, x in enumerate(dense.col(j)) if x) for j in range(dense.cols))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_column_echelon_is_the_dense_column_echelon(field, data):
    m = data.draw(st.one_of(sparse_matrices(field), sparse_matrix(field, 0, 3), sparse_matrix(field, 3, 0)))
    columns = [dict(column) for column in m.transpose().nonzero_rows()]
    basis, pivots = sparse_column_echelon(columns, m.rows, field)
    dense = column_echelon(m)
    assert basis == dense and len(pivots) == rank(m)
    assert_canonical(basis)
    assert pivots == tuple(next(i for i, x in enumerate(dense.col(j)) if x) for j in range(dense.cols))


def half_zero_matrix(field, rows, cols):
    cells = st.lists(st.one_of(st.just(0), nonzero_scalars(field)), min_size=rows * cols, max_size=rows * cols)
    return cells.map(lambda entries: Matrix(rows, cols, field, entries))


def kron_operands(field, data):
    """(x, f, g) with x of width f.rows * g.rows. Entries are zero half of
    the time, so a row of x holds one term or several; f or g may be an
    identity or sparse, any dimension may be 0, and x may be widened to
    [x, w - x] against the doubled factor [f; f], so that its products
    cancel wherever w is zero."""
    dims = st.sampled_from([2, 3, 1, 2, 3, 1, 0])  # a 0 now and then, not in most examples
    f, g = (data.draw(st.one_of(st.tuples(dims, dims).flatmap(lambda rc: half_zero_matrix(field, *rc)),
                                sparse_matrices(field, max_dim=3),
                                dims.map(lambda n: Matrix.identity(n, field))))
            for _ in range(2))
    x = data.draw(half_zero_matrix(field, data.draw(dims), f.rows * g.rows))
    if data.draw(st.booleans()):
        w = data.draw(half_zero_matrix(field, x.rows, x.cols))
        x, f = hstack([x, w - x]), vstack([f, f])
    return x, f, g


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mul_kron_is_the_product_with_kron(field, data):
    x, f, g = kron_operands(field, data)
    fused = mul_kron(x, f, g)
    assert fused == mat_mul(x, kron(f, g))
    assert_canonical(fused)
    index = fused.nonzero_rows()
    assert index == scanned_rows(fused)
    assert all(v is fused.data[i * fused.cols + j] for i, row in enumerate(index) for j, v in row)


def one_by_one(field):
    return st.one_of(nonzero_scalars(field), st.just(0)).map(lambda x: Matrix(1, 1, field, [x]))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_by_one_products_match_the_general_path(field, data):
    x, f, g = (data.draw(one_by_one(field)) for _ in range(3))
    zero = Matrix.zeros(1, 1, field)
    # padded with a zero term, the same products take the general path
    products = [(mat_mul(x, f), mat_mul(hstack([x, zero]), vstack([f, zero])), naive_mat_mul(x, f)),
                (mul_kron(x, f, g), mul_kron(hstack([x, zero]), vstack([f, zero]), g), mat_mul(x, kron(f, g)))]
    for fast, general, reference in products:
        assert fast == general == reference
        assert fast.nonzero_rows() == general.nonzero_rows() == scanned_rows(fast)
        assert all(v is fast.data[j] for j, v in fast.nonzero_rows()[0])
        assert_canonical(fast)


def test_trusted_results_refuse_writes():
    one = Matrix.identity(1, F7)
    for m in (Matrix._trusted(1, 1, F7, (3,)), mat_mul(one, one), mul_kron(one, one, one), inverse(one)):
        for name in ("rows", "data", "_nonzero", "_inverse"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, None)
        assert m.rows == m.cols == 1


def test_mul_kron_refuses_mismatched_operands():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mul_kron(Matrix.identity(5, QQ), Matrix.identity(2, QQ), Matrix.identity(2, QQ))
    with pytest.raises(ValueError, match="field mismatch"):
        mul_kron(Matrix.identity(4, QQ), Matrix.identity(2, QQ), Matrix.identity(2, F7))


def scanned_rows(m):
    """The nonzero-row index straight from the dense entries."""
    return tuple(tuple((j, x) for j, x in enumerate(m.row(i)) if x) for i in range(m.rows))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_kernel_result_indexes_its_own_nonzeros(field, data):
    a, b = data.draw(sparse_pairs(field))
    c = data.draw(sparse_matrix(field, a.rows, a.cols))
    g = data.draw(sparse_matrices(field, max_dim=3))
    square = data.draw(sparse_matrix(field, a.rows, a.rows))
    w = data.draw(sparse_matrix(field, b.rows, b.cols))
    x = data.draw(sparse_matrix(field, 3, a.rows * g.rows))
    # [a, a] @ [b; w - b] = a @ w: the sums cancel wherever w is zero
    cancelling = mat_mul(hstack([a, a]), vstack([b, w - b]))
    # R and S cancel in D's target blocks (p, 0), where A_0 = k acts by its unit
    module = regular_module(quantum_plane(2, field=field)[0])
    differences = [build_RS(module, module, degree)[0] for degree in (0, 1)]
    results = [a, b, mat_mul(a, b), cancelling, mul_kron(x, a, g), kron(a, g), kron(g, b), sparse_kernel(a)[0],
               *differences,
               kron(Matrix.identity(2, field), a),
               Matrix.identity(a.rows, field), Matrix.zeros(a.rows, b.cols, field), Matrix.zeros(0, a.cols, field),
               a + c, a - c, -a, a.scale(3), a.transpose(), rref(a)[0], column_echelon(a), kernel_matrix(a),
               hstack([a, c]), vstack([b, b]),
               block_matrix([a.rows, b.rows], [a.cols, b.cols], {(0, 0): a, (1, 1): b}, field),
               # blocks given right to left, a zero block, and an absent block row and column
               block_matrix([a.rows, b.rows, 2], [b.cols, a.cols, 1, c.cols],
                            {(0, 3): c, (1, 0): b, (0, 1): a, (0, 0): Matrix.zeros(a.rows, b.cols, field)},
                            field)]
    inv = try_inverse(square)
    if inv is not None:
        results.append(inv)
    for m in results:
        index = m.nonzero_rows()
        assert index == scanned_rows(m)
        assert m.nonzero_rows() is index
        # the index holds the very entry objects of data, so it is canonical when data is
        assert all(x is m.data[i * m.cols + j] for i, row in enumerate(index) for j, x in row)
        assert_canonical(m)


def test_kron_and_identity_hand_their_index_over(monkeypatch):
    scans = []
    real = exactmath._scan_nonzero_rows

    def counted(m):
        scans.append(m)
        return real(m)

    monkeypatch.setattr(exactmath, "_scan_nonzero_rows", counted)
    rng = random.Random(6)
    for field in SPARSE_FIELDS:
        f = Matrix(3, 4, field, [rng.randrange(3) for _ in range(12)])
        g = Matrix(2, 0, field, [])
        assert scanned_rows(f) == f.nonzero_rows() == f.nonzero_rows()
        assert g.nonzero_rows() == ((), ())
        assert scans == [f, g]
        scans.clear()
        made = []
        for m in (Matrix.identity(5, field), Matrix.identity(0, field), kron(f, f), kron(f, g), kron(g, f)):
            made += [m, kron(m, f), kron(Matrix.identity(2, field), m)]
        for m in made:
            assert m.nonzero_rows() == scanned_rows(m)
            mat_mul(m, Matrix.identity(m.cols, field))
        assert scans == []
        # every kernel builds its result's index, so no result is scanned
        identity = Matrix.identity(2, field)
        square = Matrix(3, 3, field, [1, 2, 0, 0, 1, 0, 0, 0, 1])
        assert square.nonzero_rows() == scanned_rows(square)
        scans.clear()
        product = mat_mul(f, Matrix.identity(4, field))
        results = [product, mul_kron(f, identity, identity), inverse(square),
                   block_matrix([3, 2], [4, 2], {(1, 1): identity, (0, 0): product}, field),
                   sparse_kernel(product)[0], sparse_kernel(Matrix.zeros(2, 3, field))[0]]
        for m in results:
            assert m.nonzero_rows() == scanned_rows(m)
            mat_mul(m, Matrix.identity(m.cols, field))
        assert scans == []


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_matrix_is_rebuilt_from_its_index_alone(field, data):
    m = data.draw(sparse_matrices(field))
    rebuilt = Matrix._from_index(m.rows, m.cols, field, m.nonzero_rows())
    assert rebuilt == m
    assert rebuilt.data == m.data
    assert rebuilt.nonzero_rows() is m.nonzero_rows()
    assert_canonical(rebuilt)


rationals = st.fractions(max_denominator=10**6)


@given(rationals, rationals)
def test_rational_mul_is_the_product_and_returns_a_factor_times_the_canonical_one(x, y):
    assert QQ.mul(x, QQ.one) is x
    assert QQ.mul(QQ.one, x) is x
    product = QQ.mul(x, y)
    assert product == x * y
    assert type(product) is Fraction
    # a one that is not the canonical object is multiplied out
    assert QQ.mul(x, Fraction(1)) == x
    assert QQ.mul(Fraction(y.denominator, y.denominator), x) == x


def test_rational_coerce_makes_every_one_the_canonical_one():
    assert QQ.coerce(1) is QQ.one
    assert QQ.coerce(Fraction(2, 2)) is QQ.one
    assert QQ.coerce(-1) == -1 and type(QQ.coerce(-1)) is Fraction
    parsed = serialize.parse_matrix({"rows": 2, "cols": 3, "entries": [1, "1", "2/2", "-1", 0, "3/2"]}, QQ)
    ones = [x for x in parsed.data if x == 1]
    assert len(ones) == 3 and all(x is QQ.one for x in ones)


class CountingField(PrimeField):
    """F_p that counts its multiplications."""

    def __init__(self, p):
        super().__init__(p)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


def nonzero_count(values):
    return sum(1 for x in values if x)


class TestWorkCounts:
    """The kernels multiply only nonzero entries, on any machine."""

    def random_sparse(self, rng, rows, cols, field):
        return Matrix(rows, cols, field, [rng.randrange(1, 7) if rng.random() < 0.2 else 0
                                          for _ in range(rows * cols)])

    def test_mat_mul_multiplies_each_nonzero_pair_once(self):
        rng = random.Random(4)
        field = CountingField(7)
        for m, k, n in [(9, 12, 7), (1, 30, 1), (6, 0, 4), (0, 5, 3), (20, 20, 20)]:
            a = self.random_sparse(rng, m, k, field)
            b = self.random_sparse(rng, k, n, field)
            pairs = sum(nonzero_count(a.col(i)) * nonzero_count(b.row(i)) for i in range(k))
            field.muls = 0
            mat_mul(a, b)
            assert field.muls == pairs

    def test_kron_skips_zero_entries(self):
        rng = random.Random(5)
        field = CountingField(7)
        for shape_f, shape_g in [((4, 5), (3, 6)), ((1, 1), (8, 8)), ((3, 0), (2, 2)), ((6, 6), (1, 1))]:
            f = self.random_sparse(rng, *shape_f, field)
            g = self.random_sparse(rng, *shape_g, field)
            field.muls = 0
            kron(f, g)
            assert field.muls == nonzero_count(f.data) * nonzero_count(g.data)
        identity = Matrix.identity(10, field)
        field.muls = 0
        kron(identity, Matrix.zeros(3, 3, field))
        assert field.muls == 0

    def test_mul_kron_reuses_each_x_times_f_product_and_builds_no_kron(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mul_kron built a Kronecker product")

        monkeypatch.setattr(exactmath, "kron", refuse)
        rng = random.Random(6)
        field = CountingField(7)
        for rows, shape_f, shape_g in [(5, (3, 4), (4, 2)), (1, (6, 6), (1, 1)), (4, (2, 0), (3, 3)),
                                       (0, (2, 2), (2, 2)), (12, (5, 5), (5, 5))]:
            f = self.random_sparse(rng, *shape_f, field)
            g = self.random_sparse(rng, *shape_g, field)
            x = self.random_sparse(rng, rows, f.rows * g.rows, field)
            # x[r, c] f[i, k] is made once per nonzero pair and multiplied by each
            # nonzero g[j, l]; a column whose row j of g is zero costs nothing
            expected = 0
            for r in range(rows):
                for c, v in enumerate(x.row(r)):
                    i, j = divmod(c, g.rows)
                    if v and nonzero_count(g.row(j)):
                        expected += nonzero_count(f.row(i)) * (1 + nonzero_count(g.row(j)))
            field.muls = 0
            product = mul_kron(x, f, g)
            assert field.muls == expected
            assert product == naive_mat_mul(x, index_kron(f, g))


class TestPublicConstructor:
    @pytest.mark.parametrize("field", [QQ, F7], ids=repr)
    @pytest.mark.parametrize("entry", [0.5, 1.0, "1", True, False])
    def test_refuses_non_exact_entries(self, field, entry):
        with pytest.raises(TypeError):
            Matrix(2, 1, field, [1, entry])

    @pytest.mark.parametrize("bad", [1.0, 2.5, True, False])
    def test_refuses_a_shape_that_is_not_two_ints(self, bad):
        for make in (lambda: Matrix(bad, 1, QQ, [1]), lambda: Matrix(1, bad, QQ, [1]),
                     lambda: Matrix.zeros(bad, 1, QQ), lambda: Matrix.zeros(1, bad, QQ),
                     lambda: Matrix.identity(bad, QQ)):
            with pytest.raises(TypeError, match="shape"):
                make()

    def test_refuses_a_wrong_entry_count(self):
        with pytest.raises(ValueError, match="expected 4 entries"):
            Matrix(2, 2, QQ, [1, 2, 3])
        with pytest.raises(ValueError, match="expected 2 entries"):
            Matrix(1, 2, F7, [1, 2, 3])

    def test_coerces_into_canonical_form(self):
        assert_canonical(Matrix(1, 3, QQ, [1, Fraction(2, 4), -3]))
        m = Matrix(1, 3, F7, [-1, 9, 7])
        assert_canonical(m)
        assert m.data == (6, 2, 0)

    def test_scale_refuses_a_scalar_outside_the_field(self):
        with pytest.raises(TypeError):
            Matrix.identity(2, F7).scale(Fraction(1, 2))
        with pytest.raises(TypeError):
            Matrix.identity(2, QQ).scale(0.5)
        for field in (QQ, F7):
            with pytest.raises(TypeError):
                Matrix.identity(2, field).scale(True)


# ---------------------------------------------------------------------------
# the sparse inverse against the dense reference


def square_matrices(field, max_dim=6):
    """Square matrices of size 0..max_dim, of four kinds: sparse draws
    (mostly invertible), upper triangular with a nonzero diagonal,
    permutation matrices, and singular ones, whose last row is a drawn
    combination of the others, placed at a drawn row."""
    sizes = st.integers(min_value=0, max_value=max_dim)
    scalars = st.one_of(nonzero_scalars(field), st.just(0))

    def triangular(n):
        return st.tuples(st.lists(scalars, min_size=n * n, max_size=n * n),
                         st.lists(nonzero_scalars(field), min_size=n, max_size=n)).map(
            lambda drawn: Matrix(n, n, field, [
                drawn[1][i] if i == j else drawn[0][i * n + j] if i < j else 0
                for i in range(n) for j in range(n)
            ]))

    def permutation(n):
        return st.permutations(range(n)).map(
            lambda perm: Matrix(n, n, field, [1 if j == perm[i] else 0 for i in range(n) for j in range(n)]))

    def singular(n):
        def build(drawn):
            m, coefficients, at = drawn
            rows = [list(m.row(i)) for i in range(n - 1)]
            last = [field.zero] * n
            for c, row in zip(coefficients, rows):
                last = [field.add(x, field.mul(field.coerce(c), y)) for x, y in zip(last, row)]
            rows.insert(at, last)
            return Matrix.from_rows(rows, field) if n > 1 else Matrix.zeros(1, 1, field)

        return st.tuples(sparse_matrix(field, n - 1, n), st.lists(scalars, min_size=n - 1, max_size=n - 1),
                         st.integers(min_value=0, max_value=n - 1)).map(build)

    def build(n):
        kinds = [sparse_matrix(field, n, n), triangular(n), permutation(n)]
        return st.one_of(*kinds, singular(n)) if n else st.one_of(*kinds)

    return sizes.flatmap(build)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_inverse_matches_the_dense_reference(field, data):
    m = data.draw(square_matrices(field))
    try:
        expected = reference_inverse(m)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as raised:
            inverse(m)
        assert str(raised.value) == str(exc)
        return
    got = inverse(m)
    assert got == expected
    assert_canonical(got)
    assert [type(x) for x in got.data] == [type(x) for x in expected.data]
    assert got.nonzero_rows() == scanned_rows(got)
