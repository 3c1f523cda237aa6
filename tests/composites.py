"""Per-block references for the tests of `enriched` and `equivalence`.

The equalizer's two sides are written out as the categorical composites
their blocks equal, for the tests that check `build_RS`'s D = R - S:
each `*_composite(m, n, q, p, h)` returns (source degree, block) for the
target block (p, h), q = g^-1 p, and `assemble` places the blocks of one
side on the layouts `build_RS` returns.

A Hom family is a column on its space's layout. `column_blocks` slices
one into a Matrix per block, and `block_composites` and `pull_push`
compose such blocks with `@` and lay the products out again: the
references for `compose_homs` and for the transport of `gamma_twist_phi`."""

from gradedtwist.enriched import evaluation, sharp
from gradedtwist.exactmath import Matrix, block_matrix, hstack, kron


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
