"""The equalizer's two sides written out as the categorical composites
their blocks equal, for the tests that check `build_RS`'s D = R - S.

Each `*_composite(m, n, q, p, h)` returns (source degree, block) for the
target block (p, h), q = g^-1 p; `assemble` places the blocks of one side
on the layouts `build_RS` returns."""

from gradedtwist.enriched import evaluation, sharp
from gradedtwist.exactmath import Matrix, block_matrix, kron


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
