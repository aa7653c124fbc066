import itertools
import math

import numpy as np
import pytest

from calibkit import AltForm, FormModule, canonical_indices, exterior, so_action_matrix
from calibkit.calibrations import _su_matrix_basis
from calibkit.critical import RANK_TOL, numerical_rank, qr_fix


# the built-in families' specs, su(5) apart, as tests build them
BUILTIN_SPECS = {
    "associative": {"family": "associative"},
    "coassociative": {"family": "coassociative"},
    "cayley": {"family": "cayley"},
    "slag2": {"family": "special_lagrangian", "m": 2},
    "slag3": {"family": "special_lagrangian", "m": 3},
    "slag4": {"family": "special_lagrangian", "m": 4},
    "su3": {"family": "cartan", "algebra": "su3"},
    "su4": {"family": "cartan", "algebra": "su4"},
}


def random_form(rng, n, p, density=0.5):
    """Random sparse p-form on R^n with coefficients in [-1, 1]."""
    coeffs = {}
    for idx in canonical_indices(n, p):
        if rng.random() < density:
            coeffs[idx] = float(rng.uniform(-1.0, 1.0))
    if not coeffs and p <= n:
        idx = tuple(sorted(rng.choice(np.arange(1, n + 1), size=p, replace=False)))
        coeffs[idx] = 1.0
    return AltForm(n, p, coeffs)


def brute_eval(form, vectors):
    """Permutation-expansion evaluation, independent of the determinant path.

    form(v_1..v_p) = sum_I c_I sum_{s in S_p} sgn(s) prod_k v_{s(k)}[I_k].
    """
    m = np.asarray(vectors, dtype=float)
    p = form.p
    if p == 0:
        return form.coeffs.get((), 0.0)
    total = 0.0
    for idx, c in form.coeffs.items():
        for perm in itertools.permutations(range(p)):
            sgn = perm_sign(perm)
            prod = 1.0
            for k, col in enumerate(perm):
                prod *= m[idx[k] - 1, col]
            total += c * sgn * prod
    return total


def perm_sign(perm):
    sgn = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sgn = -sgn
    return sgn


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def svd_cofactors(minors):
    """Cofactors of an (..., p, p) stack, one SVD per minor: an oracle apart from first_jet's sub-minor table.

    A = U diag(s) V^T has cofactors det(U) det(V) U diag(prod_{j != i} s_j) V^T;
    prefix and suffix products need no division, so singular minors stay exact.
    """
    u, s, vt = np.linalg.svd(minors)
    ones = np.ones(s.shape[:-1] + (1,))
    pre = np.cumprod(np.concatenate([ones, s[..., :-1]], axis=-1), axis=-1)
    suf = np.cumprod(np.concatenate([ones, s[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    det_uv = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    return (u * (det_uv[..., None] * pre * suf)[..., None, :]) @ vt


def dense_coefficients(groups, t):
    """The (R, t) coefficient matrix of first_jet's groups: each block's rows over its own run of the t indices."""
    rows, col = [], 0
    for g in groups:
        blocks, r, c = g.shape
        for block in g:
            row = np.zeros((r, t))
            row[:, col : col + c] = block
            rows.append(row)
            col += c
    return np.concatenate(rows)


def svd_jet(coeff_mat, idx0, frames, normals):
    """The replacements (m, ..., p, k) of first_jet, from the SVD cofactors of the minors frame[I]."""
    idx0 = np.asarray(idx0, dtype=np.intp)
    if isinstance(coeff_mat, list):  # first_jet's groups
        coeff_mat = dense_coefficients(coeff_mat, len(idx0))
    coeff_mat = np.asarray(coeff_mat, dtype=float)
    frames, normals = np.asarray(frames, dtype=float), np.asarray(normals, dtype=float)
    (t, p), m, k = idx0.shape, len(frames), normals.shape[-1]
    lead = coeff_mat.shape[:-1]
    if p == 0 or k == 0:
        return np.zeros((m,) + lead + (p, k))
    cof = svd_cofactors(frames.take(idx0, axis=1))  # (m, t, p, p)
    repl = np.swapaxes(cof, -1, -2) @ normals.take(idx0, axis=1)  # (m, t, p, k)
    first = np.einsum("lt,mtx->mlx", coeff_mat.reshape(-1, t), repl.reshape(m, t, p * k))
    return first.reshape((m,) + lead + (p, k))


def cofactor_positions(n, idx0):
    """Sub-minor table positions (t p^2,) and signs of the cofactors (r, b) of the minors frame[I], row-major per minor.

    The cofactor (r, b) of frame[I] is (-1)^(r + b) M[cols - b, I - I_r],
    found by name in the table first_jet fills with the jet (_minor_plan).
    """
    t, p = idx0.shape
    rows, cols = list(map(tuple, idx0.tolist())), tuple(range(p))
    drop = lambda tup, i: tup[:i] + tup[i + 1 :]  # noqa: E731
    pos = {((), ()): 0}
    pos.update({((c,), (r,)): 1 + r * p + c for r in range(n) for c in range(p)})
    needed = {p - 1: {(drop(cols, b), drop(I, r)) for I in rows for r in range(p) for b in range(p)}}
    for j in range(p - 1, 2, -1):
        needed[j - 1] = {(C[:-1], drop(R, i)) for C, R in needed[j] for i in range(j)}
    size = 1 + 2 * n * p
    for j in range(2, p):
        level = sorted(needed[j])
        pos.update(zip(level, range(size, size + len(level))))
        size += len(level)
    at = [(I, r, b) for I in rows for r in range(p) for b in range(p)]
    return (
        np.array([pos[drop(cols, b), drop(I, r)] for I, r, b in at], dtype=np.intp),
        np.array([(-1.0) ** (r + b) for _, r, b in at]),
    )


def minor_table(idx0, frames, jet):
    """(table (size, m), dets (t, m)): the sub-minor tables of an (m, n, p) stack, filled as first_jet fills them."""
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    (t, p), (m, n, _) = idx0.shape, frames.shape
    size, levels, dets_at, _ = exterior._minor_plan(n, t, p, idx0.tobytes(), jet)
    table = np.empty((size, m))
    table[0] = 1.0
    table[1 : 1 + n * p] = frames.reshape(m, n * p).T
    table[1 + n * p : 1 + 2 * n * p] = -table[1 : 1 + n * p]
    for off, f, g in levels:
        exterior._expand(table, f, g, table[off : off + f.shape[1]])
    return table, exterior._expand(table, *dets_at, np.empty((t, m)))


def dense_gradients(n, idx0, groups):
    """Gamma (S, R n) of first_jet's groups as one bincount over its dense positions: the oracle for _gradients' blocks.

    Gamma[J, (l, i)] sums (-1)^r c_{l, I} over the (I, r) with I - I_r = J and I_r = i.
    """
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    t, p = idx0.shape
    at, jinv = exterior._minor_plan(n, t, p, idx0.tobytes(), True)[3]
    s = at.shape[1]
    ell, q, row, col = [], [], 0, 0
    for g in groups:
        blocks, r, c = g.shape
        block, form, term = np.indices((blocks, r, c)).reshape(3, -1)
        ell.append(row + block * r + form)
        q.append(col + block * c + term)
        row, col = row + blocks * r, col + blocks * c
    coeffs = np.concatenate([np.ravel(g) for g in groups])
    live = coeffs != 0.0
    ell, q = np.concatenate(ell)[live], np.concatenate(q)[live]
    at = (jinv[q] * row + ell[:, None]) * n + idx0[q]
    signed = coeffs[live, None] * (-1.0) ** np.arange(p)
    return np.bincount(at.ravel(), signed.ravel(), minlength=s * row * n).reshape(s, row * n)


def gradient_blocks(n, idx0, groups):
    """exterior._gradients of first_jet's groups: (gamma, at, sign, back)."""
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    t, p = idx0.shape
    coeffs = np.concatenate([np.ravel(g) for g in groups], dtype=float).tobytes()
    return exterior._gradients(n, t, p, idx0.tobytes(), tuple(g.shape for g in groups), coeffs)


def scatter_gradients(n, idx0, groups):
    """Gamma (S, R n) scattered back from _gradients' padded blocks, through their gather positions and back-index.

    Block row j of block K is the J whose minor it gathers (its sign is 0 on
    a padded row), and column c the (l, i) whose V[l, 0, i] back reads there.
    """
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    t, p = idx0.shape
    at = exterior._minor_plan(n, t, p, idx0.tobytes(), True)[3][0]
    s = at.shape[1]
    gamma, gather, sign, back = gradient_blocks(n, idx0, groups)
    blocks, rows, cols = gamma.shape
    tuples = np.zeros(at.max(initial=0) + 1, dtype=np.intp)
    tuples[at[0]] = np.arange(s)
    live = sign.reshape(blocks, p, rows)[:, 0] != 0.0
    J = np.where(live, tuples[gather.reshape(blocks, p, rows)[:, 0]], s)  # padded rows go to a spare row s
    block, c = np.divmod(back.reshape(-1, p, n)[:, 0].ravel(), p * cols)
    c %= cols  # a column outside the blocks reads block 0's last zero entry, at b = p - 1
    out = np.zeros((s + 1, len(block)))
    out[J[block], np.arange(len(block))[:, None]] = gamma[block, :, c]
    return out[:s]


def dense_gradient_jet(coeff_mat, idx0, frames, normals):
    """first_jet's replacements through the dense Gamma: V = M Gamma over all S tuples J, then V N, frame by frame."""
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    (t, p), (m, n, _), k = idx0.shape, frames.shape, normals.shape[-1]
    groups, lead = exterior._groups(coeff_mat, t)
    gamma = dense_gradients(n, idx0, groups)
    at = exterior._minor_plan(n, t, p, idx0.tobytes(), True)[3][0]
    table, _ = minor_table(idx0, frames, True)
    minors = table[at].transpose(2, 0, 1) * ((-1.0) ** np.arange(p))[:, None]  # (m, p, S)
    forms = gamma.shape[1] // n
    v = (minors @ gamma).reshape(m, p * forms, n)
    first = np.swapaxes((v @ normals).reshape(m, p, forms, k), 1, 2)
    return first.reshape((m,) + lead + (p, k))


def cofactor_jet(coeff_mat, idx0, frames, normals):
    """first_jet's (values, first), with each replacement from the cofactors of its own minor.

    The values take first_jet's path (the sub-minor table, the determinants
    along column 0, the per-frame contraction), so they must agree bit for
    bit.  Each minor frame[I] gets its cofactors gathered from the table,
    times its rows of the normals, det(F_bs[I]) = sum_r cof_I[r, b]
    normal[I_r, s], and the replacements are contracted group by group.
    """
    frames, normals = np.asarray(frames, dtype=float), np.asarray(normals, dtype=float)
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    (t, p), (m, n, _), k = idx0.shape, frames.shape, normals.shape[-1]
    groups, lead = exterior._groups(coeff_mat, t)
    table, dets = minor_table(idx0, frames, bool(p and k))
    values = exterior._contract(groups, np.ascontiguousarray(dets.T).reshape(m, t, 1)).reshape((m,) + lead)
    if not (p and k):
        return values, np.zeros((m,) + lead + (p, k))
    at, sign = cofactor_positions(n, idx0)
    cof = (table.take(at, axis=0).T * sign).reshape(m, t, p, p)
    repl = np.swapaxes(cof, -1, -2) @ normals.take(idx0, axis=1)  # (m, t, p, k)
    first = exterior._contract(groups, repl.reshape(m, t, p * k))
    return values, first.reshape((m,) + lead + (p, k))


def dense_phi_module(phi):
    """The module from one SVD of the whole so_action_matrix: the oracle for phi_module's block SVDs."""
    _, s, vt = np.linalg.svd(so_action_matrix(phi), full_matrices=False)
    return FormModule(phi.n, phi.p, vt[: numerical_rank(s, RANK_TOL)])


def dense_stabilizer_kernel(phi):
    """Rows (dim, n(n-1)/2) over the generator pairs: the trailing left singular vectors of the whole action matrix."""
    mat = so_action_matrix(phi)
    u, s, _ = np.linalg.svd(mat, full_matrices=mat.shape[0] > mat.shape[1])
    return u[:, numerical_rank(s, RANK_TOL) :].T


def su_structure(k):
    """su(k)'s structure constants from one stacked bracket and trace per pair: the oracle for su_lie_algebra."""
    basis = np.array(_su_matrix_basis(k))
    n = len(basis)
    i, j = np.triu_indices(n, 1)
    br = basis[i] @ basis[j] - basis[j] @ basis[i]
    coords = -np.trace(br[:, None] @ basis[None], axis1=-2, axis2=-1).real
    structure = np.zeros((n, n, n))
    structure[i, j] = coords
    structure[j, i] = -coords
    return structure


def trace_coords(x, basis):
    """Coordinates -tr(X B_l) of one matrix, one trace per basis element: the oracle for _su_coords."""
    return np.array([-np.trace(x @ b).real for b in basis])


def loop_highest_root_frame(k):
    """su(k)'s orthonormalized highest-root su(2) frame, one trace per coordinate: the oracle for su_lie_algebra's."""
    basis = _su_matrix_basis(k)
    corner = np.zeros((3, k, k), dtype=complex)
    corner[0, 0, k - 1], corner[0, k - 1, 0] = 1.0, -1.0
    corner[1, 0, k - 1] = corner[1, k - 1, 0] = 1.0j
    corner[2, 0, 0], corner[2, k - 1, k - 1] = 1.0j, -1.0j
    return qr_fix(np.column_stack([trace_coords(x / np.sqrt(2.0), basis) for x in corner]))[0]


def loop_cartan_coefficients(structure, frame):
    """The normalized Cartan 3-form's coefficients, one triple at a time: the oracle for cartan_three_form.

    Keeps the structure constants above 1e-14 at increasing (i, j, k), so it
    holds for structure constants of unit size.
    """
    coeffs = {}
    for i, j, k in itertools.combinations(range(len(structure)), 3):
        if abs(structure[i, j, k]) > 1e-14:
            coeffs[(i + 1, j + 1, k + 1)] = structure[i, j, k]
    raw = AltForm(len(structure), 3, coeffs)
    return (1.0 / abs(raw.apply(frame)) * raw).coeffs


def loop_spinor_component(model, endo, k):
    """Degree-k coefficients tr(gamma_I^T endo) / 16, one product and trace per index: the oracle for _component."""
    coeffs = {}
    for idx in itertools.combinations(range(1, 9), k):
        g = np.eye(16)
        for i in idx:
            g = g @ model.gamma[i - 1]
        c = float(np.trace(g.T @ endo)) / 16.0
        if abs(c) > 1e-14:
            coeffs[idx] = c
    return coeffs


def dense_action_blocks(phi):
    """critical._action_blocks by label propagation over the whole dense pattern of so_action_matrix: its oracle."""
    mat = so_action_matrix(phi)
    nz = mat != 0
    live = nz.any(axis=1)
    gens, cols = np.flatnonzero(live), np.flatnonzero(nz.any(axis=0))
    nz = nz[np.ix_(gens, cols)]
    label = np.arange(len(cols))
    while True:
        row = np.where(nz, label, len(cols)).min(axis=1, initial=len(cols))
        new = np.where(nz, row[:, None], len(cols)).min(axis=0, initial=len(cols))
        if np.array_equal(new, label):
            break
        label = new
    gens, cols = gens[np.argsort(row, kind="stable")], cols[np.argsort(label, kind="stable")]
    ids = np.flatnonzero(np.bincount(label, minlength=len(cols)))
    r, c = np.bincount(row, minlength=len(cols))[ids], np.bincount(label, minlength=len(cols))[ids]
    r0, c0 = np.cumsum(r) - r, np.cumsum(c) - c
    shapes = []
    for rs, cs in dict.fromkeys(zip(r.tolist(), c.tolist())):
        j = np.flatnonzero((r == rs) & (c == cs))
        g, cc = gens[r0[j, None] + np.arange(rs)], cols[c0[j, None] + np.arange(cs)]
        shapes.append((g, cc, *np.linalg.svd(mat[g[:, :, None], cc[:, None, :]], full_matrices=rs > cs)))
    top = max((s[:, 0].max() for *_, s, _ in shapes), default=0.0)
    return np.flatnonzero(~live), [(g, cc, u, vt, np.sum(s > RANK_TOL * top, axis=1)) for g, cc, u, s, vt in shapes]


def loop_octonion_left_mult(phi):
    """L[i][k, j] = phi_ijk and the unit rows, one coefficient at a time: the oracle for octonion_left_mult."""
    L = np.zeros((8, 8, 8))
    L[0] = np.eye(8)
    for i in range(1, 8):
        L[i][i, 0], L[i][0, i] = 1.0, -1.0
        for j, k in itertools.product(range(1, 8), repeat=2):
            if j != i and phi.coefficient((i, j, k)) != 0.0:
                L[i][k, j] = phi.coefficient((i, j, k))
    return L


def loop_action_entries(a):
    """exterior._action_entries over every (term, slot, j) with j filtered against the term, each new index sorted: its oracle."""
    n, p = a.n, a.p
    idx, c = a._compact()
    term, pos, j = (x.ravel() for x in np.indices((len(c), p, n)))
    keep = ~np.any(idx[term] == j[:, None], axis=1)
    term, pos, j = term[keep], pos[keep], j[keep]
    new = idx[term]
    at = np.arange(len(j))
    i = new[at, pos]
    # j moves from slot pos to slot r of the sorted index
    r = np.sum(new < j[:, None], axis=1) - (i < j)
    new[at, pos] = j
    new.sort(axis=1)
    pairs = np.column_stack([np.minimum(i, j), np.maximum(i, j)])
    return exterior._lex_rank(pairs, n), exterior._lex_rank(new, n), (-1.0) ** (pos - r + (i > j)) * c[term]


def scatter_action_blocks(phi):
    """critical._action_blocks with each shape's blocks gathered from the block-ordered flat array: its oracle."""
    gen, col, val = loop_action_entries(phi)
    size = math.comb(phi.n, phi.p)
    label = np.where(np.bincount(col, minlength=size) > 0, np.arange(size), size)
    while True:
        row, new = np.full(phi.n * (phi.n - 1) // 2, size), np.full(size, size)
        np.minimum.at(row, gen, label[col])
        np.minimum.at(new, col, row[gen])
        if np.array_equal(new, label):
            break
        label = new
    gens, cols = np.argsort(row, kind="stable"), np.argsort(label, kind="stable")
    counts = np.bincount(label, minlength=size + 1)[:size]
    ids = np.flatnonzero(counts)
    r, c = np.bincount(row, minlength=size + 1)[ids], counts[ids]
    r0, c0 = np.cumsum(r) - r, np.cumsum(c) - c
    at, block = np.cumsum(r * c) - r * c, (np.cumsum(counts > 0) - 1)[label[col]]
    flat = np.zeros(r @ c)
    flat[at[block] + (np.argsort(gens)[gen] - r0[block]) * c[block] + np.argsort(cols)[col] - c0[block]] = val
    shapes = []
    for rs, cs in dict.fromkeys(zip(r.tolist(), c.tolist())):
        j = np.flatnonzero((r == rs) & (c == cs))
        g, cc = gens[r0[j, None] + np.arange(rs)], cols[c0[j, None] + np.arange(cs)]
        mats = flat[at[j, None] + np.arange(rs * cs)].reshape(len(j), rs, cs)
        shapes.append((g, cc, *np.linalg.svd(mats, full_matrices=rs > cs)))
    top = max((s[:, 0].max() for *_, s, _ in shapes), default=0.0)
    ranks = [np.sum(s > RANK_TOL * top, axis=1) for *_, s, _ in shapes]
    return np.flatnonzero(row == size), [(g, cc, u, vt, k) for (g, cc, u, _, vt), k in zip(shapes, ranks)]


def scatter_phi_module(phi):
    """(rows, groups, block_idx0) of phi_module through dense rows: the blocks scattered into them, then gathered back.

    The oracle for phi_module, which hands FormModule its blocks directly.
    """
    n, p = phi.n, phi.p
    layout, parts = [], []
    for _, cols, _, vt, ranks in scatter_action_blocks(phi)[1]:
        for rank in dict.fromkeys(ranks[ranks > 0].tolist()):
            layout.append((rank, cols[ranks == rank]))
            parts.append(vt[ranks == rank, :rank])
    size = math.comb(n, p)
    rows = np.zeros((sum(v.shape[0] * v.shape[1] for v in parts), size))
    at = 0
    for (rank, cols), v in zip(layout, parts):
        rows[np.arange(at, at + len(v) * rank).reshape(len(v), rank, 1), cols[:, None, :]] = v
        at += len(v) * rank
    rows = rows + 0.0
    layout = layout or [(0, np.zeros((1, 0), dtype=np.intp))]
    groups, at = [], 0
    for rank, cols in layout:
        block_rows = rows[at : at + len(cols) * rank].reshape(len(cols), rank, size)
        groups.append(np.take_along_axis(block_rows, cols[:, None, :], axis=2))
        at += len(cols) * rank
    idx0 = np.array(canonical_indices(n, p), dtype=np.intp).reshape(size, p) - 1
    return rows, groups, idx0[np.concatenate([cols.ravel() for _, cols in layout])]


def scatter_stabilizer_kernel(phi):
    """Rows (dim, n(n-1)/2) of stabilizer_kernel from scatter_action_blocks: the oracle for its basis."""
    pairs = phi.n * (phi.n - 1) // 2
    zero, shapes = scatter_action_blocks(phi)
    null = [np.eye(pairs)[zero]]
    for gens, _, u, _, ranks in shapes:
        for g, v, rank in zip(gens, u, ranks):
            null.append(np.zeros((len(g) - rank, pairs)))
            null[-1][:, g] = v[:, rank:].T
    return np.concatenate(null)


def tensor_lie_verdict(dim, structure):
    """The message LieAlgebraData's checks raise, or None, from the full Jacobi tensor: the oracle for its triple check.

    The Jacobi sum is that of c's part antisymmetric in its first two slots,
    which the antisymmetry check keeps within 1e-10 of max |c| of c.
    """
    c = np.asarray(structure, dtype=float)
    scale = np.max(np.abs(c), initial=0.0)
    if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-10 * scale:
        return "structure constants are not antisymmetric"
    if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 1e-10 * scale:
        return "the metric is not invariant (c not totally antisymmetric)"
    a = (c - np.swapaxes(c, 0, 1)) / 2  # the bracket's antisymmetric part, within the tolerance of c
    cc = np.tensordot(a, a, axes=(2, 0))
    jac = cc + cc.transpose(2, 0, 1, 3) + cc.transpose(1, 2, 0, 3)
    if np.max(np.abs(jac)) > 1e-10 * scale**2:
        return "structure constants violate the Jacobi identity"
    return None
