"""Internal Hom spaces of graded modules, and the endomorphism algebra.

For modules M, N over a graded algebra A, the degree-g component of the
module Hom space is presented as an equalizer: inside the product

    W_g = (+)_p Hom(M_{g^-1 p}, N_p)        (ascending p, flat blocks)

a family (f_p) is a module map exactly when two assembled linear maps R
and S agree on it. The target of both is indexed by pairs (p, h):

    R:  (f_p)_p  |->  ( f_{ph} o rho^M_{g^-1 p, h} )_{(p, h)}
    S:  (f_p)_p  |->  ( rho^N_{p, h} o (f_p (x) id_{A_h}) )_{(p, h)}

The blocks are the categorical composites: an R block is the internal-Hom
map precompose(rho^M) = [rho^M_{g^-1 p, h}, N_ph], an S block the curried
sharp(rho^N o (evaluation (x) id)). Only their difference is needed:
`build_RS` writes D = R - S as its nonzero rows, placing the action
maps' entries by the formulas in its docstring, and tests/test_enriched.py
(test_r_blocks_are_the_curried_evaluation_composites,
test_s_blocks_are_the_curried_action_composites) checks D bit for bit
against the composites, which tests/composites.py writes out with the
currying maps sharp, flat and evaluation. The Hom space is ker(D) with
its canonical (column-echelon) basis, so equal subspaces always have
bit-identical bases.

A module map need only commute with a generating set: when M and N are
unital modules and the blocks A_h, h in H, generate A, the a with
f(ma) = f(m)a for all m form a subspace closed under products that holds
1 and A_H, so it is all of A (graded's module docstring). D may then keep
only its target blocks (p, h) with h in H: its kernel is the same
subspace, so the canonical basis is the same, bit for bit. `build_RS`
does this only when handed such an H, and `gamma_algebra` is the only
caller that hands one: it hands `a.generators`, left by its own passing
`check_algebra`, which has proved A an algebra (so the regular module a
unital module) and certified H with `graded.generating_degrees`. After
that pass it writes D only when a space from left multiplications
(below) falls back. Every other
space, `module_hom_space`'s among them, quantifies over all of supp A,
as the oracle `direct_intertwiner_basis` always does.

Every row of D has few nonzeros (at most two over a group algebra), so
`module_hom_space` finds the basis from those rows alone by the sparse
elimination `exactmath.sparse_kernel`. The dense `kernel_matrix` stays
for `direct_intertwiner_basis`, the independent oracle the tests compare
with. That basis is all a space keeps: its pivot rows hold an identity
block, so the coordinates of a vector V are V's entries at the pivot
rows, and V lies in the space exactly when the basis times those
coordinates is V again.

Over the regular module of an algebra the kernel is known without
elimination, by the Yoneda argument. Let A be unital and associative, as
a passing `check_algebra` proves: it checks the unit laws on every
degree and associativity by Light's test, which gives (xy)z = x(yz) for
all x, y, z (graded's module docstring). For x in A_g, L_x is left
multiplication by x; L_x(ya) = x(ya) = (xy)a = L_x(y)a, so each L_x is a
module map and D L = 0 by that lemma. Conversely, a family f of degree g
in ker D commutes with all of A (the generator lemma above), so
f(a) = f(1 a) = f(1) a: f is L_x with x = f(1) in A_g. L_x(1) = x, so the
L_x are independent, and ker D = span{L_x : x in A_g}. A subspace has
one reduced echelon basis, so reducing the columns L_x gives the basis
eliminating D gives, bit for bit. As `equivalence` does for Gamma(A),
`gamma_algebra` trusts the lemma and the pass it rests on, and checks
D L = 0 no second time: on A's own regular module (its action is A's
`mult`) it writes the L_x with `_left_multiplications`, never writes D,
and reduces the dim A_g columns by `exactmath.sparse_column_echelon`
(`ModuleHomSpace.from_kernel`). It keeps one check on the writer, the
rank of the L_x. It eliminates build_RS's D by `sparse_kernel` instead
when its own check_algebra did not pass or the L_x have rank below
dim A_g, so a non-algebra gets exactly what the full elimination gives.

A family (f_p) is one column on the space's layout, the form the
kernel's columns have. `compose_homs` composes whole sets of such
columns at once by (f o f')_p = f_p o f'_{g^-1 p}, slicing each column
into its blocks; over the regular module this composition makes the
spaces [[A, A]]_g into a graded algebra Gamma, and left multiplication
A_g -> Gamma_g is an isomorphism of graded algebras. Both facts are
computed here, not assumed: see `gamma_algebra` and `endo_iso`, which
reads the coordinates of the L_x in Gamma's bases and checks them
multiplicative on computed composites.

The generator lemma also shortens Gamma's multiplication, since the
products with right factors in H span Gamma. `gamma_algebra` composes
the basis of each degree g with that of each h in H, one `compose_homs`
call per pair, and reads the coordinates of every composite that lands
in one degree gh with one `coords` call on them side by side: the exact
membership check. It then spans Gamma from the unit by right products
with those bases, in coordinates, and keeps with each spanning product
v = u s_1 ... s_m its operator R_v = R_{s_m} ... R_{s_1}, where
R_s(x) = x o s was composed directly. Every other product is a
combination of these operators: x o y = sum c_v R_v(x) for y = sum c_v v,
by linearity and by the associativity of composing families, which
holds entry for entry. When a composite is not a module map, or the
span misses a degree, the products are built again with every degree
as right factor, as they are when A has no certified H: nothing is
derived then, and the error names the first failing pair (g, h).
`endo_iso` checks phi multiplicative into Gamma over every pair, so
each derived product is checked again.

Every flat index in this file follows the package-wide Kronecker
convention (left factor owns the coarse index).
"""

from __future__ import annotations

from types import MappingProxyType

from .exactmath import (
    Matrix,
    block_matrix,
    column_echelon,
    hstack,
    inverse,
    kernel_matrix,
    kron,
    mul_kron,
    rref,
    sparse_column_echelon,
    sparse_kernel,
)
from .graded import (
    GradedAlgebra,
    GradedModule,
    GradedMorphism,
    GradedVectorSpace,
    check_algebra,
    check_algebra_morphism,
    regular_module,
    shift_module,
)
from .groups import IntegerWindow, same_group
from .report import BoundOnce, Report, merge

# ---------------------------------------------------------------------------
# closed-structure primitives on plain (ungraded) spaces


def precompose(b: Matrix, dim_z: int) -> Matrix:
    """[Y, Z] -> [Y', Z] induced by b: Y' -> Y."""
    return kron(Matrix.identity(dim_z, b.field), b.transpose())


# ---------------------------------------------------------------------------
# the equalizer presentation


def _source_blocks(m: GradedModule, n: GradedModule, g) -> list:
    """(p, offset, size) for W_g, ascending p."""
    ginv = m.group.inv(g)
    mul = m.group.mul_unchecked
    blocks = []
    offset = 0
    for p in n.support():
        size = n.dim(p) * m.dim(mul(ginv, p))
        if size:
            blocks.append((p, offset, size))
            offset += size
    return blocks


def build_RS(m: GradedModule, n: GradedModule, g, generators=None):
    """D = R - S, whose kernel is the degree-g Hom space.

    Returns (D, source_layout, target_layout); the layouts are lists of
    (label, offset, size). The target blocks (p, h) run over every h in
    supp A, or only over the degrees in `generators`. Pass those only
    when they are proved to generate A and M and N are proved to be
    unital modules, as gamma_algebra does. Then f(ma) = f(m)a for a in
    A_H gives it for all a, since such a form a unital subalgebra, so
    the kernel is the same subspace.

    With q = g^-1 p and K = dim M_q dim A_h, each nonzero action-map
    entry goes straight to its (row, column) in target block (p, h) and
    source block ph (for R) or p (for S):

      R:  (r K + c, r dim M_qh + s)                      = rho^M_{q,h}[s, c]
      S:  ((r dim M_q + l) dim A_h + j, k dim M_q + l)  = rho^N_{p,h}[r, k dim A_h + j]

    R's entries of a block are placed first, no two at one place, and S's
    are subtracted, in one {col: value} dict per row; by column and without
    the sums that cancel, these are D's index for `Matrix._from_index`.
    The module docstring names the composites and the tests comparing them.
    """
    rows, width, source, target = _difference_rows(m, n, g, generators)
    index = tuple(tuple(sorted(row.items())) for row in rows)
    return Matrix._from_index(len(rows), width, m.field, index), source, target


def _difference_rows(m: GradedModule, n: GradedModule, g, generators):
    """build_RS's D as its rows, one {col: value} dict of nonzero entries
    each, with its width and layouts."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise ValueError("modules live over different algebras")
    if not same_group(m.group, n.group):
        raise ValueError("modules graded by different groups")
    mul, a, field = m.group.mul_unchecked, m.algebra, m.field
    sub, zero = field.sub, field.zero
    m_dims, n_dims, a_dims = m.space.dims, n.space.dims, a.space.dims
    ginv = m.group.inv(g)
    source = _source_blocks(m, n, g)
    src_offset = {p: off for p, off, _size in source}
    width = sum(size for _p, _off, size in source)
    # the target layout: nonzero blocks (p, h), p = g q, in ascending order
    middles = a_dims.items() if generators is None else [(h, a_dims.get(h, 0)) for h in generators]
    pairs = []
    for q, dim_q in m_dims.items():
        p = mul(g, q)
        pairs += [((p, h), n_dims.get(mul(p, h), 0) * dim_q * dim_h) for h, dim_h in middles]
    target, height = [], 0
    for key, size in sorted(pairs):
        if size:
            target.append((key, height, size))
            height += size
    rows = [{} for _ in range(height)]  # each row's nonzero entries, {col: value}
    for (p, h), row0, _size in target:
        q, ph = mul(ginv, p), mul(p, h)
        # one entry of rho^M fills dim N_ph places, one per r
        rho = m.action.get((q, h))
        if ph in src_offset and rho is not None:
            col0, dim_ph, width_q, dim_qh = src_offset[ph], n_dims[ph], rho.cols, rho.rows
            for s, entries in enumerate(rho.nonzero_rows()):
                for c, x in entries:
                    for r in range(dim_ph):
                        rows[row0 + r * width_q + c][col0 + r * dim_qh + s] = x
        # one entry of rho^N is subtracted at dim M_q places, one per l
        rho = n.action.get((p, h))
        if p in src_offset and rho is not None:
            col0, dim_q, dim_h = src_offset[p], m_dims[q], a_dims[h]
            for r, entries in enumerate(rho.nonzero_rows()):
                for col, y in entries:
                    k, j = divmod(col, dim_h)
                    for l in range(dim_q):
                        row, jj = rows[row0 + (r * dim_q + l) * dim_h + j], col0 + k * dim_q + l
                        x = sub(row.get(jj, zero), y)
                        if x:
                            row[jj] = x
                        else:
                            del row[jj]  # R's entry cancelled
    return rows, width, source, target


class ModuleHomSpace:
    """ker(R - S) at one degree, kept as its canonical basis and layout.

    `kernel` is in reduced column echelon form: row `pivots[i]` of it is
    the i-th unit row. The constructor takes both from `sparse_kernel` on
    the difference D = R - S that `build_RS` writes; `from_kernel` takes
    them from a caller that has proved them ker(D) another way, as
    gamma_algebra does by the Yoneda argument (module docstring), and
    gives the same basis, bit for bit. Membership and coordinates read
    the pivot rows; D is dropped once the kernel is known.
    """

    def __init__(self, source, target, degree, difference, source_layout):
        self._set(source, target, degree, source_layout, *sparse_kernel(difference))

    @classmethod
    def from_kernel(cls, source, target, degree, source_layout, kernel, pivots) -> "ModuleHomSpace":
        """The space whose canonical basis is `kernel`, with its `pivots`,
        as `sparse_column_echelon` returns them. The caller must have
        proved that the columns span ker(D)."""
        space = object.__new__(cls)
        space._set(source, target, degree, source_layout, kernel, pivots)
        return space

    def _set(self, source, target, degree, source_layout, kernel, pivots):
        self.source = source
        self.target = target
        self.degree = degree
        self.source_layout = source_layout
        self.kernel, self.pivots = kernel, pivots

    @property
    def dim(self) -> int:
        return self.kernel.cols

    @property
    def total(self) -> int:
        return self.kernel.rows

    def _pivot_entries(self, vectors: Matrix) -> Matrix:
        if vectors.rows != self.total:
            raise ValueError(f"vectors must have {self.total} rows, got {vectors.rows}")
        return Matrix._trusted(self.dim, vectors.cols, vectors.field,
                               [x for i in self.pivots for x in vectors.row(i)])

    def contains(self, vectors: Matrix) -> bool:
        """Whether every column of `vectors` lies in the space."""
        return self.kernel @ self._pivot_entries(vectors) == vectors

    def coords(self, vectors: Matrix) -> Matrix:
        """Coordinates of each column of `vectors` in the canonical basis,
        one column each; raises ValueError when a column is not in the space."""
        coords = self._pivot_entries(vectors)
        if self.kernel @ coords != vectors:
            raise ValueError("vector outside the Hom space")
        return coords

    def __repr__(self):
        return f"ModuleHomSpace(degree={self.degree!r}, dim={self.dim})"


def module_hom_space(m: GradedModule, n: GradedModule, g) -> ModuleHomSpace:
    """[[M, N]]_g, the full equalizer over supp A."""
    return ModuleHomSpace(m, n, g, *build_RS(m, n, g)[:2])


def direct_intertwiner_basis(m: GradedModule, n: GradedModule, g) -> Matrix:
    """Canonical basis of the same space from first principles.

    Writes out the intertwining equations
    f_{ph}[r, s] rho^M[s, (l, j)] = rho^N[r, (k, j)] f_p[k, l]
    entry by entry with plain index loops; no sharp/flat/kron machinery
    is involved, so this is an independent oracle for ker(R - S).
    """
    group = m.group
    a = m.algebra
    field = m.field
    ginv = group.inv(g)
    source = _source_blocks(m, n, g)
    src_index = {p: off for p, off, _size in source}
    width = sum(size for _p, _off, size in source)
    rows = []
    for q in sorted(m.support()):
        p = group.mul(g, q)
        n_m1 = m.dim(q)
        for h in a.support():
            ph = group.mul(p, h)
            n_a = a.dim(h)
            n_n2 = n.dim(ph)
            if not (n_m1 and n_a and n_n2):
                continue
            rho_m = m.action_map(q, h)
            rho_n = n.action_map(p, h)
            n_m2 = m.dim(group.mul(q, h))
            n_n1 = n.dim(p)
            for r in range(n_n2):
                for l in range(n_m1):
                    for j in range(n_a):
                        row = [field.zero] * width
                        if ph in src_index:
                            base = src_index[ph] + r * n_m2
                            for s in range(n_m2):
                                row[base + s] = field.add(row[base + s], rho_m[s, l * n_a + j])
                        if p in src_index:
                            base = src_index[p]
                            for k in range(n_n1):
                                idx = base + k * n_m1 + l
                                row[idx] = field.sub(row[idx], rho_n[r, k * n_a + j])
                        rows.append(row)
    if not rows:
        return kernel_matrix(Matrix.zeros(0, width, field))
    return kernel_matrix(Matrix.from_rows(rows, field))


def identity_hom(m: GradedModule) -> Matrix:
    """The identity family of m, one column on the layout of [[m, m]]_e."""
    layout = _source_blocks(m, m, m.group.identity)
    entries = [x for p, _off, _size in layout for x in Matrix.identity(m.dim(p), m.field).data]
    return Matrix._trusted(len(entries), 1, m.field, entries)


def compose_homs(left: ModuleHomSpace, fs: Matrix, right: ModuleHomSpace, gs: Matrix, layout=None) -> Matrix:
    """The composites f o f' of the columns fs on left = [[N, P]]_g with the
    columns gs on right = [[M, N]]_h, as one matrix on the layout of
    [[M, P]]_gh: column a * gs.cols + b is fs[:, a] o gs[:, b]. That
    layout is built here unless the caller passes the one it holds, the
    source_layout of a space [[M, P]]_gh.

    Block p of f o f' is f_p o f'_{g^-1 p}; its entries are summed from the
    nonzero entries of the two slices, read through the nonzero-row
    indexes of fs and gs. The columns need not lie in the spaces.
    """
    if left.source is not right.target and left.source != right.target:
        raise ValueError("inner modules do not match")
    m, n, target, field = right.source, right.target, left.target, right.source.field
    if (fs.rows, gs.rows, fs.field, gs.field) != (left.total, right.total, field, field):
        raise ValueError(f"columns must have {left.total} and {right.total} rows over {field!r}")
    group, add, mul = m.group, field.add, field.mul
    n_dims, p_dims = n.space.dims, target.space.dims
    ginv = group.inv(left.degree)
    if layout is None:
        layout = _source_blocks(m, target, group.mul(left.degree, right.degree))
    f_at = {p: off for p, off, _size in left.source_layout}
    g_at = {q: off for q, off, _size in right.source_layout}
    f_rows, g_rows = fs.nonzero_rows(), gs.nonzero_rows()
    total, cols = sum(size for _p, _off, size in layout), fs.cols * gs.cols
    out = [field.zero] * (total * cols)
    for p, off, size in layout:
        q = group.mul_unchecked(ginv, p)
        if p not in f_at:
            continue  # N_q = 0: the composite's block is zero
        # f_p is dim P_p x dim N_q, f'_q is dim N_q x dim M_{(gh)^-1 p}
        f0, g0, dim_q, dim_p = f_at[p], g_at[q], n_dims[q], p_dims[p]
        dim_m = size // dim_p
        for i in range(dim_p):
            for k in range(dim_q):
                f_row = f_rows[f0 + i * dim_q + k]
                if not f_row:
                    continue
                for j in range(dim_m):
                    at = (off + i * dim_m + j) * cols
                    for b, y in g_rows[g0 + k * dim_m + j]:
                        for a, x in f_row:
                            c = at + a * gs.cols + b
                            out[c] = add(out[c], mul(x, y))
    return Matrix._trusted(total, cols, field, out)


# ---------------------------------------------------------------------------
# the endomorphism algebra Gamma


class GammaAlgebra(BoundOnce):
    """[[A, A]] of the regular module, rendered as a graded algebra.

    `spaces[g]` is the Hom space [[A, A]]_g on its canonical basis; `graded` is the
    algebra on the canonical bases (multiplication by composition,
    unit = the identity family). `left_multiplications[g]`, where
    gamma_algebra wrote it, holds the L_x of the basis of `algebra`'s A_g
    on the layout of `spaces[g]`, for `endo_iso` to read instead of
    writing them again; a GammaAlgebra built by hand has none, so
    endo_iso writes them from its own `algebra`. Both tables are
    read-only views and no attribute can be rebound, so the L_x stay
    those of `algebra` on the layouts of `spaces`.
    """

    def __init__(self, algebra: GradedAlgebra, degrees, spaces, graded: GradedAlgebra, module: GradedModule,
                 left_multiplications=None):
        self.algebra = algebra
        self.degrees = list(degrees)
        self.spaces = MappingProxyType(dict(spaces))
        self.graded = graded
        self.module = module
        self.left_multiplications = MappingProxyType(dict(left_multiplications or {}))

    def dim(self, g) -> int:
        space = self.spaces.get(g)
        return space.dim if space else 0

    def __repr__(self):
        return f"GammaAlgebra(degrees={self.degrees})"


def _split_columns(m: Matrix, widths) -> list:
    """m cut, left to right, into matrices of the given widths."""
    data, cols, blocks, start = m.data, m.cols, [], 0
    for width in widths:
        rows = [data[i + start: i + start + width] for i in range(0, m.rows * cols, cols)]
        blocks.append(Matrix._trusted(m.rows, width, m.field, [x for row in rows for x in row]))
        start += width
    return blocks


def gamma_algebra(a: GradedAlgebra) -> GammaAlgebra:
    """Gamma(A) = [[A, A]] of the regular module, on canonical bases.

    check_algebra runs on A first, a lookup once it has passed. A pass
    proves A unital and associative, so `_hom_space` reduces the left
    multiplications L_x and writes no D (module docstring); otherwise,
    or when the L_x fall short of rank dim A_g, it eliminates D, over the
    certified generating degrees H (`a.generators`) when they are set.
    The bases are those of the full equalizer, and a non-algebra gets
    what eliminating the full equalizer gives.

    The products are composed with right factors in H only, and the
    others derived from them (`_products`); without H, or when a
    composite is not a module map or the span misses a degree, every
    degree is a right factor, and the error names the first failing pair.
    """
    reg = regular_module(a)  # held, so the check reads this one
    is_algebra = check_algebra(a).passed
    group = a.group
    degrees = a.support() if isinstance(group, IntegerWindow) else list(group.elements())
    built = {g: _hom_space(reg, g, is_algebra) for g in degrees}
    spaces = {g: space for g, (space, _written) in built.items()}
    dims = {g: spaces[g].dim for g in degrees if spaces[g].dim}
    unit_space = spaces.get(group.identity)
    if unit_space is None or not unit_space.dim:
        raise ValueError("no identity-degree component; cannot form the unit")
    unit = unit_space.coords(identity_hom(reg))  # the identity is a module map of every module
    support = list(dims)
    mult = _products(spaces, support, support if a.generators is None else a.generators, unit, group)
    mult = {(g, h): mult[(g, h)] for g in support for h in support if (g, h) in mult}  # in the order of the pairs
    graded = GradedAlgebra(GradedVectorSpace(group, dims), mult, unit, a.field)
    written = {g: columns for g, (_space, columns) in built.items() if columns is not None}
    return GammaAlgebra(a, degrees, spaces, graded, reg, written)


def _hom_space(reg: GradedModule, g, is_algebra: bool) -> tuple:
    """([[A, A]]_g, the L_x it wrote or None) for the regular module of
    A = reg.algebra.

    When `is_algebra` (A's check_algebra passed) and reg acts by A's own
    `mult`, the columns L_x span the space by the Yoneda argument of the
    module docstring: they are written on the space's layout and reduced,
    and no D is written. build_RS's D, over the target blocks of
    H = `a.generators` when it is set, is eliminated instead when A is
    not proved an algebra or the L_x have rank below dim A_g. The L_x
    are returned only with the space they span.
    """
    a = reg.algebra
    if is_algebra and reg.action is a.mult:
        layout = _source_blocks(reg, reg, g)
        candidates = _left_multiplications(a, layout, g)
        columns = (dict(column) for column in candidates.transpose().nonzero_rows())
        kernel, pivots = sparse_column_echelon(columns, candidates.rows, a.field)
        if len(pivots) == a.dim(g):
            return ModuleHomSpace.from_kernel(reg, reg, g, layout, kernel, pivots), candidates
    return ModuleHomSpace(reg, reg, g, *build_RS(reg, reg, g, a.generators)[:2]), None


def _left_multiplications(a: GradedAlgebra, layout, g) -> Matrix:
    """The families L_x, x running over the basis of A_g, as the dim A_g
    columns of one matrix on `layout`, the source layout of [[A, A]]_g.

    L_x sends y in A_q to xy in A_p, p = gq, so its block p is
    sharp(m_{g,q}): row off_p + k dim A_q + l of column i is
    m_{g,q}[k, i dim A_q + l]. Each nonzero entry of A's mult blocks
    is placed once, from their nonzero rows.
    """
    group, dims = a.group, a.space.dims
    ginv, mul = group.inv(g), group.mul_unchecked
    index = [[] for _ in range(sum(size for _p, _off, size in layout))]
    for p, off, _size in layout:
        q = mul(ginv, p)
        m = a.mult.get((g, q))
        if m is None:
            continue  # A_g = 0
        dim_q = dims[q]
        for k, entries in enumerate(m.nonzero_rows()):
            row0 = off + k * dim_q
            for c, x in entries:  # by c, so each row's entries come by column i
                i, l = divmod(c, dim_q)
                index[row0 + l].append((i, x))
    return Matrix._from_index(len(index), a.dim(g), a.field, tuple(map(tuple, index)))


def _products(spaces, support, rights, unit, group) -> dict:
    """{(g, h): m_{g,h}} of Gamma, composed for the right factors h in
    `rights` and derived for the others.

    Composed: one compose_homs per pair (g, h), then one coords call per
    product degree gh, on the composites of all its pairs side by side.
    Derived, when `rights` is not `support` itself: see `_derived`. If a
    composite is not a module map, or the derivation misses a degree, the
    products are rebuilt with `support` as the right factors; that
    rebuild raises a ValueError naming the first pair (g, h), in the
    order of the pairs, whose composite is not a module map.
    """
    mul = group.mul_unchecked
    composites = {}
    for g in support:
        for h in rights:
            target = spaces.get(mul(g, h))
            if spaces[h].dim and target is not None and target.dim:
                composites[(g, h)] = compose_homs(spaces[g], spaces[g].kernel, spaces[h], spaces[h].kernel,
                                                  target.source_layout)
    by_target = {}
    for key in composites:
        by_target.setdefault(mul(*key), []).append(key)
    direct = {}
    try:
        for gh, keys in by_target.items():
            read = spaces[gh].coords(hstack([composites[key] for key in keys]))
            direct.update(zip(keys, _split_columns(read, [composites[key].cols for key in keys])))
    except ValueError:
        if rights is not support:
            return _products(spaces, support, support, unit, group)
        # name the pair that the per-pair reading would have stopped at first
        g, h = next(key for key, c in composites.items() if not spaces[mul(*key)].contains(c))
        raise ValueError(f"composite of degrees ({g!r},{h!r}) is not a module morphism family") from None
    if rights is support:
        return direct
    return _derived(spaces, direct, rights, unit, group) or _products(spaces, support, support, unit, group)


def _derived(spaces, direct, rights, unit, group) -> dict:
    """Every product of Gamma, from the products `direct` whose right
    factors lie in `rights` and the coordinates `unit` of the identity.

    Write R_y(x) = x o y. The left-normed products v = u s_1 ... s_m of
    the unit u with basis elements s_i of the degrees in `rights` are
    spanned degree by degree, in coordinates, keeping in each Gamma_k the
    first products that are independent of those kept before, each with
    R_v = R_{s_m} ... R_{s_1} on every source degree: R_u is the
    identity, and R_{w s} = R_s R_w since composing families is
    associative entry for entry. When the kept v of Gamma_k number its
    dimension, they form a basis V_k, and for y = V_k c, R_y = sum c_i
    R_{v_i}: m_{g,k} is R_{v_1}, ..., R_{v_d} on Gamma_g times V_k^-1.
    Returns None when the products miss a degree.
    """
    mul, field = group.mul_unchecked, unit.field
    dims = {g: space.dim for g, space in spaces.items() if space.dim}
    ident = {g: Matrix.identity(d, field) for g, d in dims.items()}
    basis = {h: _split_columns(ident[h], [1] * dims[h]) for h in rights if h in dims}  # s_b as columns
    # kept[k]: (v, R_v as {g: m with column a the coordinates of x_a o v}) of Gamma_k
    kept = {k: [] for k in dims}
    kept[group.identity].append((unit, ident))
    work, done = [group.identity], {}
    while work:
        j = work.pop(0)
        fresh, done[j] = kept[j][done.get(j, 0):], len(kept[j])
        words = hstack([v for v, _ops in fresh])
        for h in basis:
            k = mul(j, h)
            if (j, h) not in direct or len(kept[k]) == dims[k]:
                continue
            # column i * dim h + b is fresh[i] o s_b
            products = mul_kron(direct[(j, h)], words, ident[h])
            have = len(kept[k])
            _r, pivots = rref(hstack([v for v, _ops in kept[k]] + [products]))
            for p in pivots[have:]:
                i, b = divmod(p - have, dims[h])
                ops = {}
                for g, r in fresh[i][1].items():
                    m = direct.get((mul(g, j), h))
                    if m is not None:
                        ops[g] = mul_kron(m, r, basis[h][b])
                kept[k].append((Matrix._trusted(products.rows, 1, field, products.col(p - have)), ops))
            if len(kept[k]) > have and k not in work:
                work.append(k)
    if any(len(kept[k]) < d for k, d in dims.items()):
        return None
    mult = dict(direct)
    for k, vectors in kept.items():
        if k in basis:
            continue
        coefficients = inverse(hstack([v for v, _ops in vectors]))
        plain = coefficients.is_identity()
        for g, dim_g in dims.items():
            gk = mul(g, k)
            if gk not in dims:
                continue
            blocks = [ops.get(g) for _v, ops in vectors]
            if len(blocks) == 1 and blocks[0] is not None:
                q = blocks[0]
            else:
                zero = (field.zero,) * (dims[gk] * dim_g)
                blocks = [zero if block is None else block.data for block in blocks]
                # column a * dim k + i is R_{v_i}(x_a)
                q = Matrix._trusted(dims[gk], dim_g * len(blocks), field,
                                    [block[r * dim_g + a] for r in range(dims[gk]) for a in range(dim_g)
                                     for block in blocks])
            mult[(g, k)] = q if plain else mul_kron(q, ident[g], coefficients)
    return mult


def endo_iso(gamma: GammaAlgebra):
    """Mutually inverse maps between A and Gamma, with full receipts.

    phi_g sends x in A_g to left multiplication L_x: on the block p of
    W_g, with q = g^-1 p, it is the curried multiplication
    sharp(m_{g,q}): A_g -> [A_q, A_p]. The L_x of the basis of A_g are
    those gamma_algebra wrote and certified as spanning Gamma_g
    (`gamma.left_multiplications`); where it wrote none, as for a
    GammaAlgebra built by hand, `_left_multiplications` writes them from
    A's mult blocks. phi_g is their coordinates in the canonical basis
    of Gamma_g, read by `coords`: the exact membership check. psi_g is
    materialized as the literal chain

        Gamma_g >--> W_g --project--> [A_e, A_g] --[u, A_g]--> [k, A_g] = A_g

    which sends f to its A_e -> A_g block applied to the unit u. The report
    records: each left-multiplication family is a module morphism
    (membership in ker(R - S)), psi_g phi_g = id, phi_g psi_g = id, and
    phi is an isomorphism of graded algebras onto Gamma.
    """
    a = gamma.algebra
    group = a.group
    field = a.field
    de = a.dim(group.identity)
    phi_comps = {}
    psi_comps = {}
    failures = []
    for g in gamma.degrees:
        space = gamma.spaces[g]
        n_g = a.dim(g)
        dim_gamma = space.dim
        block_sizes = [size for _p, _off, size in space.source_layout]
        vectors = gamma.left_multiplications.get(g)
        if vectors is None:
            vectors = _left_multiplications(a, space.source_layout, g)
        try:
            phi_g = space.coords(vectors)
        except ValueError:
            bad = next(i for i in range(n_g)
                       if not space.contains(Matrix._trusted(vectors.rows, 1, field, vectors.col(i))))
            failures.append(Report("endo_iso", False, witness=("membership", (g, bad))))
            continue
        # the chain for psi_g: project W_g onto its [A_e, A_g] block, then precompose with u
        blocks = {(0, j): Matrix.identity(size, field)
                  for j, (p, _off, size) in enumerate(space.source_layout) if p == g}
        proj = block_matrix([n_g * de], block_sizes, blocks, field)
        psi_g = precompose(a.unit, n_g) @ proj @ space.kernel
        if (psi_g @ phi_g) != Matrix.identity(n_g, field):
            failures.append(Report("endo_iso", False, witness=("left-inverse", g)))
            continue
        if (phi_g @ psi_g) != Matrix.identity(dim_gamma, field):
            failures.append(Report("endo_iso", False, witness=("right-inverse", g)))
            continue
        if n_g:
            phi_comps[g] = phi_g
            psi_comps[g] = psi_g
    if failures:
        return None, None, merge("endo_iso", failures)
    phi = GradedMorphism(a.space, gamma.graded.space, phi_comps, field)
    psi = GradedMorphism(gamma.graded.space, a.space, psi_comps, field)
    morphism_report = check_algebra_morphism(phi, a, gamma.graded)
    report = merge("endo_iso", [morphism_report])
    return phi, psi, report


# ---------------------------------------------------------------------------
# shift compatibility of Hom spaces


def block_permutation(from_layout, to_layout, send, field):
    """Permutation matrix carrying one block layout onto another.

    Block `q` of from_layout lands on block `send(q)` of to_layout,
    identically inside each block. Returns None when the layouts do not
    correspond (a block is missing or has a different size).
    """
    to_index = {p: i for i, (p, _off, _size) in enumerate(to_layout)}
    to_sizes = [size for _p, _off, size in to_layout]
    blocks = {}
    for j, (q, _off, size) in enumerate(from_layout):
        i = to_index.get(send(q))
        if i is None or to_sizes[i] != size:
            return None
        blocks[(i, j)] = Matrix.identity(size, field)
    return block_matrix(to_sizes, [size for _q, _off, size in from_layout], blocks, field)


def check_shift_props(m: GradedModule, n: GradedModule, g, d) -> Report:
    """Three identities tying Hom spaces to shifted modules.

    source-shift:  [[S_g M, N]]_d  =  [[M, N]]_{dg}      (same blocks)
    target-shift:  [[M, S_g N]]_d  =  [[M, N]]_{g^-1 d}  (blocks q -> gq)
    conjugation:   [[S_g M, S_g N]]_d = [[M, N]]_{g^-1 d g}

    Each side is computed from scratch; bases are compared bit-exactly
    after relabeling and re-canonicalization where a relabeling is
    involved.
    """
    group = m.group
    reports = []

    lhs = module_hom_space(shift_module(m, g), n, d)
    rhs = module_hom_space(m, n, group.mul(d, g))
    same_layout = [(p, s) for p, _o, s in lhs.source_layout] == [
        (p, s) for p, _o, s in rhs.source_layout
    ]
    ok = same_layout and lhs.kernel == rhs.kernel
    reports.append(Report("source-shift", ok, witness=None if ok else ("basis-mismatch", g, d)))

    lhs = module_hom_space(m, shift_module(n, g), d)
    rhs = module_hom_space(m, n, group.mul(group.inv(g), d))
    reports.append(_compare_relabeled("target-shift", lhs, rhs, lambda q: group.mul(g, q), g, d))

    lhs = module_hom_space(shift_module(m, g), shift_module(n, g), d)
    rhs = module_hom_space(m, n, group.mul(group.mul(group.inv(g), d), g))
    reports.append(_compare_relabeled("conjugation", lhs, rhs, lambda q: group.mul(g, q), g, d))

    return merge("check_shift_props", reports)


def _compare_relabeled(name, lhs, rhs, send, g, d) -> Report:
    perm = block_permutation(rhs.source_layout, lhs.source_layout, send, rhs.source.field)
    if perm is None:
        return Report(name, False, witness=("block-mismatch", g, d))
    ok = column_echelon(perm @ rhs.kernel) == lhs.kernel
    return Report(name, ok, witness=None if ok else ("basis-mismatch", g, d))


__all__ = [
    "precompose",
    "build_RS",
    "block_permutation",
    "ModuleHomSpace",
    "module_hom_space",
    "direct_intertwiner_basis",
    "identity_hom",
    "compose_homs",
    "GammaAlgebra",
    "gamma_algebra",
    "endo_iso",
    "check_shift_props",
]
