import itertools

import numpy as np
import pytest

from calibkit import AltForm, FormModule, canonical_indices, so_action_matrix
from calibkit.calibrations import _su_matrix_basis
from calibkit.critical import RANK_TOL, numerical_rank


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
