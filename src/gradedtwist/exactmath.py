"""Exact scalars and dense matrices.

Two scalar domains are supported: arbitrary-precision rationals and prime
fields F_p. Every matrix carries its field descriptor and all operations
refuse to mix fields. No floating point exists anywhere in this package;
equality of matrices is literal equality of entries.

Storage is dense, but the kernels skip zeros: `mat_mul` multiplies only
pairs of nonzero entries, `kron` skips zero entries of either factor, and
`rref` updates a row only where the pivot row is nonzero. `mul_kron(x, f,
g)` is `x @ kron(f, g)`, bit for bit, without the Kronecker product: a
column i*g.rows + j of x meets row i of f and row j of g directly, which
is how the twist builders, and the axiom checkers on components of
dimension above 1, evaluate composites such as rho (rho (x) id).
`sparse_kernel` takes a matrix as `kernel_matrix` does and returns the
same kernel, bit for bit, by eliminating only the rows of its
nonzero-row index; its second half, `sparse_column_echelon`, puts
any spanning set of sparse vectors in that canonical form, and
`enriched.gamma_algebra` uses it on a candidate basis it has certified.
`inverse` runs `sparse_kernel`'s elimination on [m | I],
once per matrix (see `Matrix`). Zero tests are by truthiness, which is
exact because entries are kept in canonical form (`Fraction` over QQ, an
int in [0, p) over F_p), and `Fraction(0)` and `0` are both falsy.

A matrix is built in one of two forms. `Matrix._trusted` takes its
entries, and its per-row index of nonzero entries, `nonzero_rows()`, is
scanned from them the first time it is read; `Matrix._from_index` takes
that index and lays the entries out from it once. `mat_mul`, `mul_kron`,
`kron`, `sparse_kernel` and `inverse` read their operands through the
index, so a matrix is scanned at most once however many of them read
it. They, `block_matrix`, `Matrix.identity` and `Matrix.zeros` build only
their result's index, so their results are never scanned. The two
products store the first term at each place of an output row as it is,
instead of adding it to zero, add the later ones to it, and drop sums
that cancel.

When every operand is 1x1, `mat_mul` and `mul_kron` make their one
product (two for `mul_kron`, in the general path's order) and return,
without building the accumulation rows. Over a group algebra every
component is 1-dimensional, so the composites of its twist builders, unit
checks and generating-degree certificate, and Gamma's derived products,
have that shape; there the guards and the bookkeeping of the general
path cost more than the arithmetic (BENCH_19.json measures the path
against a copy without it). The shared checker loops of `graded` no
longer build such composites at all: on 1-dimensional components they
compare products of the scalars themselves (`graded._one_dimensional`),
which skips the 1x1 matrices too.

Entries from outside (parsed files, user code) are coerced and checked by
`Matrix(...)`. The two constructors of the kernels skip that work: they
are only for entries produced by field operations on entries that were
already coerced. Every guard left on this path costs one test in the
common case: the field checks compare the fields by identity before they
compare them by value, and the slots are filled through their member
descriptors, bound once at import, since `Matrix.__setattr__` refuses
every write.

Dimension-zero matrices (0 x n and n x 0) are first class: graded
components are frequently zero and their (empty) morphisms must compose
like any others.

Kronecker convention, fixed globally: for f with shape (m', m) and g with
shape (n', n), kron(f, g) has shape (m'n', mn) and

    kron(f, g)[i*n' + j, k*n + l] = f[i, k] * g[j, l].

That is, the left factor owns the outer (coarse) index on both rows and
columns. Every flattening of a tensor product in this package uses this
convention.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Miller-Rabin with the first 13 primes as bases is exact below the
# smallest strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)
# a rational as files write it: an optional sign, digits, optionally "/" and digits
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")


class RationalField:
    """The field of rationals. Elements are `fractions.Fraction` values."""

    name = "rational"

    def coerce(self, x):
        """x as a `Fraction`; any value equal to 1 becomes the canonical
        one, so that it takes the shortcut in `mul`. A bool is refused,
        though Python counts it an int."""
        if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
            if x == 1:
                return _FRACTION_ONE
            return x if isinstance(x, Fraction) else Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into the rational field")

    @property
    def zero(self):
        return _FRACTION_ZERO

    @property
    def one(self):
        return _FRACTION_ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        """a * b. When a factor is the canonical one (`QQ.one`, the object
        identity matrices are filled with) the other factor is returned
        as it is: a `Fraction` times 1 is the same value in the same
        lowest terms, so the shortcut is exact and skips only the
        arithmetic. The kernels still make one `mul` call per pair of
        nonzero entries."""
        if a is _FRACTION_ONE:
            return b
        if b is _FRACTION_ONE:
            return a
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        """The rational `s` writes as an optional sign, digits, and
        optionally "/" and digits, with optional surrounding whitespace.
        Anything else, a decimal or an exponent among them, is refused
        before `Fraction` reads it: it would read "1e999999999" by
        building an integer of a billion digits."""
        if not _RATIONAL.fullmatch(s):
            raise ValueError(f"scalar {s!r} is not an integer or a fraction p/q")
        return Fraction(s.strip())

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p. Elements are ints in [0, p)."""

    name = "prime"

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise ValueError(f"GF(p) needs p < {_PRIME_BOUND}, where primality is decided exactly")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def coerce(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def format(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def parse(self, s: str):
        s = s.strip()
        if "mod" in s:
            value, modulus = s.split("mod")
            if int(modulus) != self.p:
                raise ValueError(f"scalar {s!r} has modulus {modulus.strip()}, field is F_{self.p}")
            return int(value) % self.p
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class SingularMatrixError(ArithmeticError):
    """Raised when a matrix that was claimed invertible is not."""


class Matrix:
    """Immutable dense matrix over a fixed field.

    Entries are stored row-major in a flat tuple, `data`, each in the
    field's canonical form (`Fraction` over QQ, an int in [0, p) over
    F_p). Equality and hashing are by (rows, cols, field, entries), so
    matrices can key dicts and compare bit-exactly.

    `Matrix(...)` coerces every entry and checks the shape and count; use
    it for anything parsed or supplied by a caller. `_trusted` and
    `_from_index` are the kernels' constructors (see the module
    docstring). Every slot is written through its member descriptor
    (`_set_rows` and its siblings below); `__setattr__` refuses writes.

    The two derived slots hold `nonzero_rows()`, built on its first read
    unless `_from_index` was handed it, and the outcome of `inverse`,
    the inverse or the rank of a singular matrix, set by its first call
    on the object, so every later call is a lookup; the inverse holds no
    link back. Both are derived from `data` alone and take no part in
    equality or hashing, and since a matrix never changes they cannot go
    stale.
    """

    __slots__ = ("rows", "cols", "field", "data", "_nonzero", "_inverse")

    def __init__(self, rows: int, cols: int, field, entries):
        _check_shape(rows, cols)
        data = tuple(field.coerce(x) for x in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_field(self, field)
        _set_data(self, data)
        _set_nonzero(self, None)

    @classmethod
    def _trusted(cls, rows: int, cols: int, field, data) -> "Matrix":
        """Wrap rows * cols entries already in canonical form, unchecked.
        Their nonzero-row index is scanned the first time it is read."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_field(m, field)
        _set_data(m, tuple(data))
        _set_nonzero(m, None)
        return m

    @classmethod
    def _from_index(cls, rows: int, cols: int, field, index: tuple) -> "Matrix":
        """The rows x cols matrix whose `nonzero_rows()` is `index`, one tuple
        per row of its (col, value) pairs by column, every value nonzero and
        canonical. The entries are laid out from it here, once."""
        data = [field.zero] * (rows * cols)
        start = 0
        for row in index:
            for j, x in row:
                data[start + j] = x
            start += cols
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_field(m, field)
        _set_data(m, tuple(data))
        _set_nonzero(m, index)
        return m

    def nonzero_rows(self) -> tuple:
        """For each row, the (col, value) pairs of its nonzero entries, by column."""
        index = self._nonzero
        if index is None:
            index = _scan_nonzero_rows(self)
            _set_nonzero(self, index)
        return index

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows_of_entries, field) -> "Matrix":
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(rows, cols, field, flat)

    @classmethod
    def identity(cls, n: int, field) -> "Matrix":
        _check_shape(n, n)
        one = field.one
        return cls._from_index(n, n, field, tuple([((i, one),) for i in range(n)]))

    @classmethod
    def zeros(cls, rows: int, cols: int, field) -> "Matrix":
        _check_shape(rows, cols)
        return cls._from_index(rows, cols, field, ((),) * rows)

    @classmethod
    def column(cls, entries, field) -> "Matrix":
        entries = list(entries)
        return cls(len(entries), 1, field, entries)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and (self.field is other.field or self.field == other.field)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field, self.data))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Matrix({self.rows}x{self.cols} empty)"
        body = "; ".join(" ".join(self.field.format(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _check_same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in addition")
        add = self.field.add
        data = [add(a, b) if b else a for a, b in zip(self.data, other.data)]
        return Matrix._trusted(self.rows, self.cols, self.field, data)

    def __sub__(self, other):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in subtraction")
        sub = self.field.sub
        data = [sub(a, b) if b else a for a, b in zip(self.data, other.data)]
        return Matrix._trusted(self.rows, self.cols, self.field, data)

    def __neg__(self):
        neg = self.field.neg
        return Matrix._trusted(self.rows, self.cols, self.field, [neg(a) for a in self.data])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix._trusted(self.rows, self.cols, self.field, [mul(c, a) for a in self.data])

    def __matmul__(self, other):
        return mat_mul(self, other)

    def transpose(self) -> "Matrix":
        data, cols = self.data, self.cols
        return Matrix._trusted(cols, self.rows, self.field, [x for j in range(cols) for x in data[j::cols]])

    def is_identity(self) -> bool:
        n = self.rows
        if n != self.cols:
            return False
        one, step = self.field.one, n + 1
        return all(x == one for x in self.data[::step]) and not any(
            x for k, x in enumerate(self.data) if k % step
        )

    def power(self, n: int) -> "Matrix":
        """n-th power of a square matrix; negative n inverts first."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return inverse(self).power(-n)
        result = Matrix.identity(self.rows, self.field)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result


# Matrix.__setattr__ refuses every write, so the slots are filled through
# their member descriptors, bound once here: one call each, where
# object.__setattr__ first looks the name up on the class.
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_field = Matrix.field.__set__
_set_data = Matrix.data.__set__
_set_nonzero = Matrix._nonzero.__set__
_set_inverse = Matrix._inverse.__set__


def _check_shape(rows, cols):
    """Refuse a shape from a caller unless it is two ints, neither negative."""
    if type(rows) is not int or type(cols) is not int:
        raise TypeError(f"matrix shape must be two ints, got {rows!r} x {cols!r}")
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")


def _scan_nonzero_rows(m: Matrix) -> tuple:
    """The nonzero-row index of m, by one scan of its entries."""
    data, cols = m.data, m.cols
    if not cols:
        return ((),) * m.rows
    return tuple(
        tuple([(j, x) for j, x in enumerate(data[start : start + cols]) if x])
        for start in range(0, m.rows * cols, cols)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product. (m x 0) times (0 x n) is the m x n zero matrix.

    Makes one field multiplication per pair a[i, k] != 0, b[k, j] != 0,
    found through the nonzero-row index of each operand, and builds only
    the result's index, as the module docstring describes.
    """
    if a.field is not b.field:
        a._check_same_field(b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    field = a.field
    n = b.cols
    if a.rows == a.cols == n == 1:
        # the shape of every product over a group algebra: one product
        x, y = a.data[0], b.data[0]
        return _one_by_one(field, field.mul(x, y) if x and y else None)
    add, mul = field.add, field.mul
    b_rows = b.nonzero_rows()
    index = []
    for a_row in a.nonzero_rows():
        if len(a_row) == 1:
            # one term per column: nonzero, since a field has no zero divisors.
            # Most rows of the structure-map products are such, and skipping
            # the accumulation list for them is the common, faster path.
            (k, x), = a_row
            index.append(tuple([(j, mul(x, y)) for j, y in b_rows[k]]))
        elif a_row:
            acc = [None] * n  # None until a product lands in the column
            for k, x in a_row:
                for j, y in b_rows[k]:
                    old = acc[j]
                    acc[j] = mul(x, y) if old is None else add(old, mul(x, y))
            index.append(tuple([(j, value) for j, value in enumerate(acc) if value]))
        else:
            index.append(())
    return Matrix._from_index(a.rows, n, field, tuple(index))


def mul_kron(x: Matrix, f: Matrix, g: Matrix) -> Matrix:
    """x @ kron(f, g), bit for bit, without building kron(f, g).

    Column c = i*g.rows + j of x meets row i of f and row j of g, so
    out[r, k*g.cols + l] is the sum over c of x[r, c] f[i, k] g[j, l].
    For each nonzero x[r, c] whose row j of g is not zero, x[r, c] is
    multiplied once by each nonzero f[i, k], and that product once by
    each nonzero g[j, l]. Output rows are accumulated as in `mat_mul`.
    """
    if not (x.field is f.field is g.field):
        x._check_same_field(f)
        f._check_same_field(g)
    if x.cols != f.rows * g.rows:
        raise ValueError(
            f"dimension mismatch: {x.rows}x{x.cols} times kron of {f.rows}x{f.cols} and {g.rows}x{g.cols}"
        )
    field = x.field
    add, mul = field.add, field.mul
    if x.rows == x.cols == f.cols == g.cols == 1:
        # x.cols == f.rows * g.rows, so all three are 1x1: one product, in
        # the order of the general path
        v, y, z = x.data[0], f.data[0], g.data[0]
        return _one_by_one(field, mul(mul(v, y), z) if v and y and z else None)
    g_height, width = g.rows, g.cols
    n = f.cols * width
    f_rows, g_rows = f.nonzero_rows(), g.nonzero_rows()
    index = []
    for x_row in x.nonzero_rows():
        if len(x_row) == 1:
            # one term per column, in column order and nonzero, as in mat_mul
            (c, v), = x_row
            i, j = divmod(c, g_height)
            g_row = g_rows[j]
            row = []
            if g_row:
                for k, y in f_rows[i]:
                    vy, base = mul(v, y), k * width
                    row += [(base + l, mul(vy, z)) for l, z in g_row]
            index.append(tuple(row))
        elif x_row:
            acc = [None] * n
            for c, v in x_row:
                i, j = divmod(c, g_height)
                g_row = g_rows[j]
                if not g_row:
                    continue
                for k, y in f_rows[i]:
                    vy, base = mul(v, y), k * width
                    for l, z in g_row:
                        old = acc[base + l]
                        acc[base + l] = mul(vy, z) if old is None else add(old, mul(vy, z))
            index.append(tuple([(j, value) for j, value in enumerate(acc) if value]))
        else:
            index.append(())
    return Matrix._from_index(x.rows, n, field, tuple(index))


def _one_by_one(field, value) -> Matrix:
    """The 1x1 matrix [value] with its index; None stands for zero, and a
    product of nonzero entries is nonzero. This is the 1x1 group-algebra
    path of `mat_mul` and `mul_kron` that BENCH_19.json measured, so it
    sets both slots itself, without a constructor call."""
    m = object.__new__(Matrix)
    _set_rows(m, 1)
    _set_cols(m, 1)
    _set_field(m, field)
    _set_data(m, (field.zero,) if value is None else (value,))
    _set_nonzero(m, ((),) if value is None else (((0, value),),))
    return m


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product in the fixed convention (left factor outer).

    kron(f, g)[i*g.rows + j, k*g.cols + l] = f[i, k] * g[j, l].

    Output row i*g.rows + j holds the products of row i of f with row j
    of g, already in column order, so only the result's nonzero-row index
    is built.
    """
    f._check_same_field(g)
    field = f.field
    mul, width = field.mul, g.cols
    g_rows = g.nonzero_rows()
    index = tuple([
        tuple([(k * width + l, mul(x, y)) for k, x in f_row for l, y in g_row])
        for f_row in f.nonzero_rows()
        for g_row in g_rows
    ])
    return Matrix._from_index(f.rows * g.rows, f.cols * width, field, index)


def rref(m: Matrix):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    field = m.field
    one, sub, mul = field.one, field.sub, field.mul
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r >= m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = field.inv(rows[r][c])
        if scale != one:
            rows[r] = [mul(scale, x) if x else x for x in rows[r]]
        # only the nonzero entries of the pivot row change other rows
        pivot_nonzero = [(j, y) for j, y in enumerate(rows[r]) if y]
        for i in range(m.rows):
            factor = rows[i][c]
            if i != r and factor:
                row = rows[i]
                for j, y in pivot_nonzero:
                    row[j] = sub(row[j], mul(factor, y))
        pivots.append(c)
        r += 1
    flat = [x for row in rows for x in row]
    return Matrix._trusted(m.rows, m.cols, field, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def column_echelon(m: Matrix) -> Matrix:
    """Reduced column echelon form with zero columns dropped.

    The result depends only on the column span of m, which makes it the
    canonical representative for comparing subspaces bit-exactly.
    """
    r, pivots = rref(m.transpose())
    return Matrix._trusted(len(pivots), m.rows, m.field, r.data[: len(pivots) * m.rows]).transpose()


def kernel_matrix(m: Matrix) -> Matrix:
    """Canonical kernel basis packed as the columns of one cols x k matrix."""
    field = m.field
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    if not free:
        return Matrix.zeros(m.cols, 0, field)
    vectors = []
    for j in free:
        v = [field.zero] * m.cols
        v[j] = field.one
        for row_index, p in enumerate(pivots):
            v[p] = field.neg(r[row_index, j])
        vectors.append(v)
    raw = Matrix._trusted(len(free), m.cols, field, [x for v in vectors for x in v]).transpose()
    return column_echelon(raw)


def sparse_kernel(m: Matrix):
    """kernel_matrix(m), bit for bit, together with its pivots, taken from
    m's nonzero-row index alone.

    Returns (K, pivots): K is the canonical kernel basis, in reduced
    column echelon form, and row pivots[t] of K holds the leading 1 of
    column t. The kernel comes from the reduced nonzero rows of m; its
    column echelon form from reducing the free-column basis vectors,
    written as rows, in the same way.
    """
    field, cols = m.field, m.cols
    reduced = _sparse_rref((dict(row) for row in m.nonzero_rows() if row), field)
    one, neg = field.one, field.neg
    # free column j gives the vector with 1 at j and -R[p, j] at each pivot p
    vectors = {j: {j: one} for j in range(cols) if j not in reduced}
    for p, row in reduced.items():
        for j, x in row.items():
            vectors[j][p] = neg(x)
    return sparse_column_echelon(vectors.values(), cols, field)


def sparse_column_echelon(vectors, rows: int, field):
    """The reduced column echelon basis of the span of `vectors`, with its
    pivots: `column_echelon` of the matrix whose columns they are, bit for
    bit, as (K, pivots) in the form `sparse_kernel` returns.

    Each vector is a {row: value} dict of its nonzero entries (consumed)
    on `rows` rows. They are reduced as rows by `_sparse_rref`; the
    reduced rows, sorted by pivot, are K's columns. A vector dependent on
    the others leaves no column, so len(pivots) is the rank.
    """
    one = field.one
    basis = _sparse_rref(vectors, field)
    pivots = tuple(sorted(basis))
    index = [[] for _ in range(rows)]  # K's rows; basis row pivots[t] is column t
    for t, p in enumerate(pivots):  # left to right, so each row's entries come by column
        index[p].append((t, one))
        for i, x in basis[p].items():
            index[i].append((t, x))
    return Matrix._from_index(rows, len(pivots), field, tuple(map(tuple, index))), pivots


def _sparse_rref(rows, field) -> dict:
    """Incremental Gauss-Jordan over {col: value} rows (consumed).

    Returns {pivot column: the rest of its row}; the pivot entry, 1, is
    not stored, and no row has an entry in another pivot column. Sorted by
    pivot, these are the rows of the reduced row echelon form. Each row is
    reduced by the pivot rows kept so far, which stay fully reduced, so one
    pass suffices and a row that reduces to zero is dropped at once. A
    surviving row is normalised on its smallest column, and that column is
    then eliminated from the earlier pivot rows.
    """
    one, sub, mul, neg = field.one, field.sub, field.mul, field.neg

    def subtract(row, factor, other):
        # row -= factor * other, keeping only nonzero entries
        for j, y in other.items():
            x = row.get(j)
            if x is None:
                row[j] = neg(mul(factor, y))
            else:
                x = sub(x, mul(factor, y))
                if x:
                    row[j] = x
                else:
                    del row[j]

    reduced = {}
    for row in rows:
        for c in [c for c in row if c in reduced]:
            subtract(row, row.pop(c), reduced[c])
        if not row:
            continue
        pivot = min(row)
        scale = field.inv(row.pop(pivot))
        if scale != one:
            row = {j: mul(scale, x) for j, x in row.items()}
        for other in reduced.values():
            factor = other.pop(pivot, None)
            if factor is not None:
                subtract(other, factor, row)
        reduced[pivot] = row
    return reduced


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when none exists.

    The first call on m runs `_sparse_rref` on the nonzero rows of
    [m | I]. m is invertible exactly when each of its columns holds a
    pivot, and the right half of the reduced rows is then the inverse;
    otherwise the pivots left of column n number m's rank. That outcome
    is stored on m for every later call.
    """
    if m.rows != m.cols:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    found = getattr(m, "_inverse", None)
    if found is None:
        found = _invert(m)
        _set_inverse(m, found)
    if type(found) is int:
        raise SingularMatrixError(f"matrix of rank {found} is singular at size {m.rows}")
    return found


def _invert(m: Matrix):
    """The inverse of the square matrix m, or its rank when it is singular."""
    field, n = m.field, m.rows
    one = field.one
    reduced = _sparse_rref((dict([*row, (n + i, one)]) for i, row in enumerate(m.nonzero_rows())), field)
    rank = sum(1 for p in reduced if p < n)
    if rank < n:
        return rank
    # row i of the reduced [m | I] is [e_i | row i of the inverse]
    index = tuple(tuple(sorted([(j - n, x) for j, x in reduced[i].items()])) for i in range(n))
    return Matrix._from_index(n, n, field, index)


def try_inverse(m: Matrix):
    """inverse(m), or None when m is singular (still raises on non-square)."""
    try:
        return inverse(m)
    except SingularMatrixError:
        return None


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b exactly for full-column-rank a; raises if inconsistent.

    b may have several columns; the result has shape a.cols x b.cols.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ValueError("dimension mismatch in solve")
    aug = hstack([a, b])
    r, pivots = rref(aug)
    n = a.cols
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent system: right-hand side outside the column span")
    if len(pivots) < n:
        raise ValueError("coefficient matrix does not have full column rank")
    return Matrix._trusted(n, b.cols, a.field, [x for i in range(n) for x in r.row(i)[n:]])


def hstack(mats: list[Matrix]) -> Matrix:
    """Concatenate matrices left to right (all with equal row counts)."""
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    field = mats[0].field
    for m in mats:
        if m.rows != rows:
            raise ValueError("row count mismatch in hstack")
        m._check_same_field(mats[0])
    parts = [(m.data, m.cols) for m in mats]
    out = []
    for i in range(rows):  # row i is row i of each operand, sliced from its data
        for data, cols in parts:
            out += data[i * cols : (i + 1) * cols]
    return Matrix._trusted(rows, sum(cols for _data, cols in parts), field, out)


def block_matrix(row_dims, col_dims, blocks, field) -> Matrix:
    """Assemble a block matrix from a {(i, j): Matrix} dict.

    row_dims and col_dims give the heights and widths of the block grid;
    omitted blocks are zero. Shapes of provided blocks are checked. The
    result's nonzero-row index is the blocks' own, shifted by their
    offsets.
    """
    row_offsets = _offsets(row_dims)
    col_offsets = _offsets(col_dims)
    for (bi, bj), block in blocks.items():
        if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
            raise ValueError(
                f"block ({bi},{bj}) has shape {block.rows}x{block.cols}, "
                f"expected {row_dims[bi]}x{col_dims[bj]}"
            )
        if block.field is not field and block.field != field:
            raise ValueError("field mismatch in block_matrix")
    index = [[] for _ in range(row_offsets[-1])]
    for (bi, bj), block in sorted(blocks.items(), key=lambda item: item[0][1]):  # left to right
        r0, c0 = row_offsets[bi], col_offsets[bj]
        for i, entries in enumerate(block.nonzero_rows()):
            index[r0 + i] += [(c0 + j, x) for j, x in entries]
    return Matrix._from_index(row_offsets[-1], col_offsets[-1], field, tuple(map(tuple, index)))


def _offsets(dims):
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    return offsets
