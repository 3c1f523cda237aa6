"""Per-block references for the tests of `enriched` and `equivalence`.

The equalizer's two sides are written out as the categorical composites
their blocks equal, for the tests that check `build_RS`'s D = R - S:
each `*_composite(m, n, q, p, h)` returns (source degree, block) for the
target block (p, h), q = g^-1 p, and `assemble` places the blocks of one
side on the layouts `build_RS` returns.

A Hom family is a column on its space's layout. `column_blocks` slices
one into a Matrix per block, and `block_composites` and `pull_push`
compose such blocks with `@` and lay the products out again: the
references for `compose_homs` and for the transport of `gamma_twist_phi`.
`reference_gamma` is Gamma(A) with every product composed that way, one
pair of degrees at a time, on the full equalizers: the reference for
`gamma_algebra`, which composes with generating right factors only.

The `reference_*` functions are the structure-map checkers and twist
builders of `graded` and `twist` written with `mat_mul(x, kron(f, g))`,
the form the library computes with the fused `mul_kron`. Each checker
returns (passed, witness) and visits the degrees in the library's order,
so a failure must name the same witness.

`reference_inverse` is the dense inverse, a `rref` of [m | I], that
`exactmath.inverse` computes by sparse elimination.

`sharp`, `flat`, `evaluation`, `coevaluation`, `postcompose` and
`zero_module` are the closed-structure maps and the zero module that the
composites above, the tests of currying, the triangle identity,
pre/postcompose naturality and zero Hom spaces are stated with; the
library itself needs none of them."""

from gradedtwist.enriched import identity_hom, module_hom_space
from gradedtwist.exactmath import (
    Matrix,
    SingularMatrixError,
    block_matrix,
    hstack,
    inverse,
    kron,
    mat_mul,
    rref,
    try_inverse,
)
from gradedtwist.graded import GradedAlgebra, GradedModule, GradedVectorSpace, regular_module
from gradedtwist.twist import AUTOMORPHISM


def r_composite(m, n, q, p, h):
    # each R block is [rho^M, N_ph], written out here as the literal
    # sharp(evaluation o (id (x) rho^M)) it equals
    field, ph = m.field, m.group.mul(p, h)
    n_m2, n_n2 = m.dim(m.group.mul(q, h)), n.dim(ph)
    d_h = n_n2 * n_m2
    rho = m.action_map(q, h)
    composite = evaluation(n_m2, n_n2, field) @ kron(Matrix.identity(d_h, field), rho)
    return ph, sharp(composite, d_h, rho.cols)


def s_composite(m, n, q, p, h):
    # each S block is the curried sharp(rho^N o (evaluation (x) id_{A_h}))
    field = m.field
    n_m1, n_n1, n_a = m.dim(q), n.dim(p), m.algebra.dim(h)
    composite = n.action_map(p, h) @ kron(evaluation(n_m1, n_n1, field), Matrix.identity(n_a, field))
    return p, sharp(composite, n_n1 * n_m1, n_m1 * n_a)


def assemble(block_of, m, n, g, source, target) -> Matrix:
    """One side of the equalizer at degree g, from its composites."""
    group = m.group
    col_index = {p: j for j, (p, _off, _size) in enumerate(source)}
    blocks = {}
    for ti, ((p, h), _off, _size) in enumerate(target):
        col, block = block_of(m, n, group.mul(group.inv(g), p), p, h)
        if col in col_index:
            blocks[(ti, col_index[col])] = block
    row_dims = [size for _key, _off, size in target]
    col_dims = [size for _p, _off, size in source]
    return block_matrix(row_dims, col_dims, blocks, m.field)


def column_blocks(space, column) -> dict:
    """{p: f_p} of one column on the layout of a Hom space."""
    group = space.source.group
    ginv = group.inv(space.degree)
    return {
        p: Matrix(space.target.dim(p), space.source.dim(group.mul(ginv, p)), space.source.field,
                  column[off : off + size])
        for p, off, size in space.source_layout
    }


def block_composites(left, fs, right, gs) -> Matrix:
    """compose_homs block by block: column a * gs.cols + b holds, for each
    degree p of the target module with a nonzero block, f_p @ f'_{g^-1 p}
    of f = fs[:, a] and f' = gs[:, b], or zeros where N_{g^-1 p} = 0."""
    m, target, group, field = right.source, left.target, right.source.group, right.source.field
    g, h = left.degree, right.degree
    columns = []
    for a in range(fs.cols):
        f = column_blocks(left, fs.col(a))
        for b in range(gs.cols):
            f2 = column_blocks(right, gs.col(b))
            entries = []
            for p in target.support():
                q = group.mul(group.inv(g), p)
                shape = (target.dim(p), m.dim(group.mul(group.inv(h), q)))
                if shape[0] and shape[1]:
                    block = f[p] @ f2[q] if p in f else Matrix.zeros(*shape, field)
                    entries += block.data
            columns.append(Matrix.column(entries, field))
    return hstack(columns)


def reference_gamma(a, degrees) -> GradedAlgebra:
    """[[A, A]] on the canonical bases of the full equalizers at `degrees`,
    with m_{g,h} the coordinates of block_composites of the bases of every
    pair (g, h), in the order of the pairs."""
    reg, group = regular_module(a), a.group
    spaces = {g: module_hom_space(reg, reg, g) for g in degrees}
    support = [g for g in degrees if spaces[g].dim]
    mult = {}
    for g in support:
        for h in support:
            target = spaces.get(group.mul(g, h))
            if target is not None and target.dim:
                mult[(g, h)] = target.coords(block_composites(spaces[g], spaces[g].kernel,
                                                              spaces[h], spaces[h].kernel))
    unit = spaces[group.identity].coords(identity_hom(reg))
    return GradedAlgebra(GradedVectorSpace(group, {g: spaces[g].dim for g in support}), mult, unit, a.field)


def pull_push(space, columns, u, v) -> Matrix:
    """v o f o u for each column f on the layout of `space`: block p becomes
    v[p] @ f_p @ u[g^-1 p], for {degree: Matrix} dicts u and v."""
    group = space.source.group
    ginv = group.inv(space.degree)
    images = []
    for j in range(columns.cols):
        blocks = column_blocks(space, columns.col(j))
        entries = [x for p, _off, _size in space.source_layout
                   for x in (v[p] @ blocks[p] @ u[group.mul(ginv, p)]).data]
        images.append(Matrix.column(entries, space.source.field))
    return hstack(images)


def reference_check_module(m):
    group, a, field = m.group, m.algebra, m.field
    for g in m.support():
        for h in a.support():
            for k in a.support():
                gh, hk = group.mul(g, h), group.mul(h, k)
                lhs = mat_mul(m.action_map(gh, k), kron(m.action_map(g, h), Matrix.identity(a.dim(k), field)))
                rhs = mat_mul(m.action_map(g, hk), kron(Matrix.identity(m.dim(g), field), a.mult_map(h, k)))
                if lhs != rhs:
                    return False, ("associativity", (g, h, k))
    for g in m.support():
        ident = Matrix.identity(m.dim(g), field)
        if mat_mul(m.action_map(g, group.identity), kron(ident, a.unit)) != ident:
            return False, ("unit-action", g)
    return True, None


def reference_check_algebra(a):
    """Associativity is the regular module's; then each degree's left
    unit before its right one."""
    passed, witness = reference_check_module(regular_module(a))
    if not passed and witness[0] == "associativity":
        return passed, witness
    e = a.group.identity
    for g in a.support():
        ident = Matrix.identity(a.dim(g), a.field)
        if mat_mul(a.mult_map(e, g), kron(a.unit, ident)) != ident:
            return False, ("left-unit", g)
        if mat_mul(a.mult_map(g, e), kron(ident, a.unit)) != ident:
            return False, ("right-unit", g)
    return True, None


def reference_check_algebra_morphism(f, a, b):
    group = a.group
    for g in a.support():
        for h in a.support():
            lhs = mat_mul(b.mult_map(g, h), kron(f.component(g), f.component(h)))
            if lhs != f.component(group.mul(g, h)) @ a.mult_map(g, h):
                return False, ("multiplicativity", (g, h))
    if f.component(group.identity) @ a.unit != b.unit:
        return False, ("unit", group.identity)
    return True, None


def reference_check_module_morphism(f, m, n):
    group, a = m.group, m.algebra
    for g in m.support():
        for h in a.support():
            lhs = mat_mul(n.action_map(g, h), kron(f.component(g), Matrix.identity(a.dim(h), a.field)))
            if lhs != f.component(group.mul(g, h)) @ m.action_map(g, h):
                return False, ("intertwining", (g, h))
    return True, None


def reference_check_twist_condition(t):
    """The explicit and cocycle criterion; an automorphism twist is checked
    by check_algebra_morphism on sigma instead."""
    assert t.kind != AUTOMORPHISM
    a = t.algebra
    passed, witness = reference_check_algebra(a)
    if not passed:
        return False, {"algebra": witness}
    group, support = a.group, a.support()
    for d in t.d_degrees():
        for g in support:
            if t.has_tau(d, g) and try_inverse(t.tau(d, g)) is None:
                return False, ("non-invertible", (d, g))
    for d in t.d_degrees():
        for g1 in support:
            for g2 in support:
                dg1, g1g2 = group.mul(d, g1), group.mul(g1, g2)
                if not all(t.has_tau(*k) for k in [(d, g1), (dg1, g2), (d, g1g2), (g1, g2)]):
                    continue
                m = a.mult_map(g1, g2)
                lhs = mat_mul(m, kron(t.tau(d, g1), t.tau(dg1, g2)))
                rhs = mat_mul(t.tau(d, g1g2) @ m, kron(Matrix.identity(a.dim(g1), a.field), t.tau(g1, g2)))
                if lhs != rhs:
                    return False, ("twist-condition", (d, g1, g2))
    return True, None


def reference_check_phi_family(p):
    a, b = p.target, p.source
    if a.space.dims != b.space.dims:
        return False, ("dims-mismatch",)
    group = a.group
    for d in p.d_degrees():
        for g in b.support():
            if p.has(d, g) and try_inverse(p.map(d, g)) is None:
                return False, ("non-invertible", (d, g))
    for d in p.d_degrees():
        for g1 in b.support():
            for g2 in b.support():
                dg1, g1g2 = group.mul(d, g1), group.mul(g1, g2)
                if not (p.has(d, g1) and p.has(dg1, g2) and p.has(d, g1g2)):
                    continue
                lhs = mat_mul(a.mult_map(g1, g2), kron(p.map(d, g1), p.map(dg1, g2)))
                if lhs != p.map(d, g1g2) @ b.mult_map(g1, g2):
                    return False, ("multiplicativity", (d, g1, g2))
    e = group.identity
    if p.has(e, e) and p.map(e, e) @ b.unit != a.unit:
        return False, ("unit", e)
    return True, None


def reference_twist_algebra(a, t):
    """A^tau with m^tau_{g,h} = m_{g,h} (id (x) tau_g(h)), unchecked."""
    mult = {(g, h): mat_mul(m, kron(Matrix.identity(a.dim(g), a.field), t.tau(g, h)))
            for (g, h), m in a.mult.items()}
    e = a.group.identity
    return GradedAlgebra(a.space, mult, inverse(t.tau(e, e)) @ a.unit, a.field)


def reference_twist_module(m, t, twisted):
    """M^tau with rho^tau_{g,h} = rho_{g,h} (id (x) tau_g(h)), unchecked."""
    action = {(g, h): mat_mul(rho, kron(Matrix.identity(m.dim(g), m.field), t.tau(g, h)))
              for (g, h), rho in m.action.items()}
    return GradedModule(m.space, twisted, action)


def reference_inverse(m):
    """Exact inverse by a dense rref of [m | I]; raises SingularMatrixError
    naming the rank when none exists."""
    if m.rows != m.cols:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    r, pivots = rref(hstack([m, Matrix.identity(n, m.field)]))
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        # the pivots left of column n are those of rref(m)
        rank_m = sum(1 for p in pivots if p < n)
        raise SingularMatrixError(f"matrix of rank {rank_m} is singular at size {n}")
    return Matrix._trusted(n, n, m.field, [x for i in range(n) for x in r.row(i)[n:]])


def sharp(nu: Matrix, dim_x: int, dim_y: int) -> Matrix:
    """Currying: turn nu: X (x) Y -> Z into X -> [Y, Z].

    [Y, Z] has the basis E_{kl} (send basis vector l of Y to basis
    vector k of Z) at flat index k * dim_y + l.
    """
    if nu.cols != dim_x * dim_y:
        raise ValueError(f"sharp: expected {dim_x}*{dim_y} columns, got {nu.cols}")
    dim_z, data, cols = nu.rows, nu.data, nu.cols
    # row k * dim_y + l of the result is nu[k, i * dim_y + l] over i
    rows = [data[k * cols + l : (k + 1) * cols : dim_y] for k in range(dim_z) for l in range(dim_y)]
    return Matrix._trusted(dim_z * dim_y, dim_x, nu.field, [x for row in rows for x in row])


def flat(psi: Matrix, dim_y: int, dim_z: int) -> Matrix:
    """Uncurrying: turn psi: X -> [Y, Z] back into X (x) Y -> Z."""
    if psi.rows != dim_y * dim_z:
        raise ValueError(f"flat: expected {dim_z}*{dim_y} rows, got {psi.rows}")
    dim_x, data, block = psi.cols, psi.data, dim_y * psi.cols
    # entry (k, i * dim_y + l) of the result is psi[k * dim_y + l, i]
    runs = [data[k * block + i : (k + 1) * block : dim_x] for k in range(dim_z) for i in range(dim_x)]
    return Matrix._trusted(dim_z, dim_x * dim_y, psi.field, [x for run in runs for x in run])


def evaluation(dim_y: int, dim_z: int, field) -> Matrix:
    """[Y, Z] (x) Y -> Z, i.e. flat of the identity on [Y, Z]."""
    return flat(Matrix.identity(dim_y * dim_z, field), dim_y, dim_z)


def coevaluation(dim_x, dim_y, field):
    """X -> [Y, X (x) Y], i.e. sharp of the identity on X (x) Y."""
    return sharp(Matrix.identity(dim_x * dim_y, field), dim_x, dim_y)


def postcompose(c, dim_y):
    """[Y, Z] -> [Y, Z'] induced by c: Z -> Z'."""
    return kron(c, Matrix.identity(dim_y, c.field))


def zero_module(a):
    """The module with no nonzero component over A."""
    return GradedModule(GradedVectorSpace(a.group, {}), a, {})
