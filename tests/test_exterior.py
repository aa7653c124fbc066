"""Exterior algebra: oracles first, then structural properties."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibkit import (
    AltForm,
    SkewMap,
    associative_form,
    canonical_indices,
    cartan_three_form,
    cayley_form,
    evaluate,
    first_jet,
    form_from_json,
    form_inner,
    form_to_json,
    format_form,
    hodge_star,
    interior,
    parse_form,
    phi_module,
    qr_fix,
    so_action,
    stack_values,
    su_lie_algebra,
    wedge,
)
from calibkit import calibrations, exterior
from calibkit.exterior import sort_index
from calibkit.critical import _module_rows

from conftest import (
    BUILTIN_SPECS,
    brute_eval,
    cofactor_jet,
    dense_gradient_jet,
    dense_gradients,
    gradient_blocks,
    irregular_form,
    perm_sign,
    random_form,
    scatter_gradients,
    svd_cofactors,
    svd_jet,
)


# -- oracles ----------------------------------------------------------------


def test_sort_index_against_brute_parity(rng):
    for _ in range(200):
        p = int(rng.integers(1, 6))
        idx = tuple(int(i) for i in rng.integers(1, 8, size=p))
        sign, key = sort_index(idx)
        if len(set(idx)) < p:
            assert sign == 0
            continue
        assert key == tuple(sorted(idx))
        # parity of the permutation taking sorted order to idx
        order = sorted(range(p), key=lambda k: idx[k])
        assert sign == perm_sign(tuple(order))


def test_apply_matches_permutation_expansion(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        form = random_form(rng, n, p)
        vecs = rng.standard_normal((n, p))
        assert form.apply(vecs) == pytest.approx(brute_eval(form, vecs), abs=1e-10)


def test_wedge_against_shuffle_expansion(rng):
    """(a ^ b)(v) = 1/(p! q!) sum_s sgn(s) a(v_s[:p]) b(v_s[p:])."""
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(0, n))
        q = int(rng.integers(0, n - p + 1))
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        vecs = rng.standard_normal((n, p + q))
        expected = 0.0
        for perm in itertools.permutations(range(p + q)):
            left = vecs[:, perm[:p]]
            right = vecs[:, perm[p:]]
            expected += perm_sign(perm) * brute_eval(a, left) * brute_eval(b, right)
        expected /= math.factorial(p) * math.factorial(q)
        got = wedge(a, b).apply(vecs)
        assert got == pytest.approx(expected, abs=1e-9)


def test_so_action_matches_finite_difference(rng):
    """(theta.a)(v..) = d/dt a((1 + t theta) v..) at t = 0, to 1e-6 at step 1e-5."""
    h = 1e-5
    for _ in range(30):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, min(n, 4) + 1))
        a = random_form(rng, n, p)
        m = rng.standard_normal((n, n))
        theta = SkewMap(m - m.T)
        vecs = rng.standard_normal((n, p))
        plus = a.apply((np.eye(n) + h * theta.entries) @ vecs)
        minus = a.apply((np.eye(n) - h * theta.entries) @ vecs)
        fd = (plus - minus) / (2.0 * h)
        assert so_action(theta, a).apply(vecs) == pytest.approx(fd, abs=1e-6)


def test_interior_is_partial_evaluation(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, min(n, 4) + 1))
        a = random_form(rng, n, p)
        v = rng.standard_normal(n)
        rest = rng.standard_normal((n, p - 1))
        full = np.column_stack([v, rest]) if p > 1 else v[:, None]
        got = interior(v, a)
        if p == 1:
            assert got.coeffs.get((), 0.0) == pytest.approx(a.apply(full), abs=1e-12)
        else:
            assert got.apply(rest) == pytest.approx(a.apply(full), abs=1e-10)


# -- Hodge star --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_hodge_involution(n, rng):
    for p in range(0, n + 1):
        a = random_form(rng, n, p)
        twice = hodge_star(hodge_star(a))
        sign = (-1.0) ** (p * (n - p))
        assert twice.approx_eq(sign * a, tol=1e-12)


def test_hodge_metric_identity(rng):
    """a ^ *b = <a, b> vol, with <,> the coefficient inner product."""
    for _ in range(30):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(0, n + 1))
        a = random_form(rng, n, p)
        b = random_form(rng, n, p)
        lhs = wedge(a, hodge_star(b))
        expected = form_inner(a, b) * AltForm.volume(n)
        assert lhs.approx_eq(expected, tol=1e-12)


def test_hodge_star_volume_and_constant():
    n = 5
    assert hodge_star(AltForm.constant(n, 2.0)).approx_eq(2.0 * AltForm.volume(n))
    assert hodge_star(AltForm.volume(n)).coeffs == {(): 1.0}


# -- algebraic structure -----------------------------------------------------


def test_wedge_graded_commutativity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        if p + q > n:
            with pytest.raises(ValueError):
                wedge(a, b)
            continue
        assert wedge(a, b).approx_eq(((-1.0) ** (p * q)) * wedge(b, a), tol=1e-12)


def test_wedge_associativity(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        a = random_form(rng, n, 1)
        b = random_form(rng, n, 1)
        c = random_form(rng, n, 2)
        if n < 4:  # no 4-forms on R^3
            with pytest.raises(ValueError):
                wedge(wedge(a, b), c)
            with pytest.raises(ValueError):
                wedge(a, wedge(b, c))
            continue
        assert wedge(wedge(a, b), c).approx_eq(wedge(a, wedge(b, c)), tol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), p_raw=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_hodge_star_twice_is_the_sign_exactly(n, p_raw, seed):
    """* * a = (-1)^{p(n-p)} a, bit for bit: * only permutes and signs coefficients."""
    p = p_raw % (n + 1)
    a = random_form(np.random.default_rng(seed), n, p, density=0.3)
    twice = hodge_star(hodge_star(a))
    assert twice.p == p
    assert twice.coeffs == ((-1.0) ** (p * (n - p)) * a).coeffs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 7),
    p_raw=st.integers(0, 6),
    q_raw=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_interior_leibniz_rule(n, p_raw, q_raw, seed):
    """v -| (a ^ b) = (v -| a) ^ b + (-1)^p a ^ (v -| b)."""
    p = 1 + p_raw % (n - 1)
    q = 1 + q_raw % (n - p)
    rng = np.random.default_rng(seed)
    a = random_form(rng, n, p)
    b = random_form(rng, n, q)
    v = rng.standard_normal(n)
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + (-1.0) ** p * wedge(a, interior(v, b))
    assert lhs.approx_eq(rhs, tol=1e-12)


def test_so_action_is_a_wedge_derivation(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        a = random_form(rng, n, 1)
        b = random_form(rng, n, 2)
        m = rng.standard_normal((n, n))
        theta = SkewMap(m - m.T)
        lhs = so_action(theta, wedge(a, b))
        rhs = wedge(so_action(theta, a), b) + wedge(a, so_action(theta, b))
        assert lhs.approx_eq(rhs, tol=1e-10)


def test_so_action_skew_adjoint_for_form_inner(rng):
    """<theta.a, b> + <a, theta.b> = 0 for the o(n) action."""
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        a = random_form(rng, n, p)
        b = random_form(rng, n, p)
        m = rng.standard_normal((n, n))
        theta = SkewMap(m - m.T)
        s = form_inner(so_action(theta, a), b) + form_inner(a, so_action(theta, b))
        assert s == pytest.approx(0.0, abs=1e-10)


def test_interior_adjoint_to_wedge(rng):
    """<v -| a, b> = <a, v_flat ^ b>."""
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        a = random_form(rng, n, p)
        b = random_form(rng, n, p - 1)
        v = rng.standard_normal(n)
        v_flat = AltForm(n, 1, {(i,): v[i - 1] for i in range(1, n + 1)})
        lhs = form_inner(interior(v, a), b)
        rhs = form_inner(a, wedge(v_flat, b))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_coefficient_sign_rule():
    a = AltForm(4, 2, {(1, 2): 3.0})
    assert a.coefficient((2, 1)) == -3.0
    assert a.coefficient((1, 2)) == 3.0
    assert a.coefficient((1, 1)) == 0.0
    assert a.coefficient((3, 4)) == 0.0


def test_from_terms_merges_with_signs():
    a = AltForm.from_terms(3, 2, [((2, 1), 1.0), ((1, 2), 1.0)])
    assert a.coeffs == {}
    b = AltForm.from_terms(3, 2, [((2, 1), 1.0), ((1, 2), 2.0)])
    assert b.coeffs == {(1, 2): 1.0}


def test_constructor_validates_indices():
    with pytest.raises(ValueError):
        AltForm(3, 2, {(2, 1): 1.0})
    with pytest.raises(ValueError):
        AltForm(3, 2, {(1, 4): 1.0})
    with pytest.raises(ValueError):
        AltForm(3, 4)


@pytest.mark.parametrize(
    "n, p, coeffs, error, message",
    [
        (7, 3, {(1, 2): 1.0}, ValueError, "index (1, 2) has length != 3"),
        (7, 3, {(1, 2, 3): 1.0, (1, 2, 3, 4): 2.0}, ValueError, "index (1, 2, 3, 4) has length != 3"),
        (7, 3, {(0, 1, 2): 1.0}, ValueError, "index (0, 1, 2) out of range 1..7"),
        (7, 3, {(1, 2, 8): 1.0}, ValueError, "index (1, 2, 8) out of range 1..7"),
        (7, 3, {(1, 2, -3): 1.0}, ValueError, "index (1, 2, -3) out of range 1..7"),
        (7, 3, {(2, 1, 3): 1.0}, ValueError, "index (2, 1, 3) is not strictly increasing"),
        (7, 3, {(1, 1, 3): 1.0}, ValueError, "index (1, 1, 3) is not strictly increasing"),
        (7, 3, {(1, 2, 3): 1.0, (3, 2, 4): 0.0, (0, 1, 2): 1.0}, ValueError, "index (3, 2, 4) is not strictly increasing"),
        (7, 3, {("a", 2, 3): 1.0}, ValueError, "invalid literal for int() with base 10: 'a'"),
        (7, 3, {(1, 2, 3): None}, TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
        (7, 3, {(1, 2, 3): 1j}, TypeError, "float() argument must be a string or a real number, not 'complex'"),
        (7, 3, {12: 1.0}, TypeError, "'int' object is not iterable"),
        (7, 3, [((1, 2, 3), 1.0)], AttributeError, "'list' object has no attribute 'items'"),
        (3, 1, {2: 1.0}, TypeError, "'int' object is not iterable"),
        (4, 2, {((1, 2),): 1.0}, TypeError, "int() argument must be a string, a bytes-like object or a real number, not 'tuple'"),
    ],
)
def test_constructor_errors_name_the_first_malformed_term(n, p, coeffs, error, message):
    """The first malformed term, in the dict's order, gives the error."""
    with pytest.raises(error) as info:
        AltForm(n, p, coeffs)
    assert str(info.value) == message


def test_stack_values_matches_apply(rng):
    n, p = 6, 3
    forms = [random_form(rng, n, p) for _ in range(4)]
    frames = rng.standard_normal((5, n, p))
    idx0 = np.array(canonical_indices(n, p), dtype=np.intp) - 1
    coeff = np.vstack([f.dense() for f in forms])
    vals = stack_values(coeff, idx0, frames)
    for i, f in enumerate(forms):
        for j in range(5):
            assert vals[j, i] == pytest.approx(f.apply(frames[j]), abs=1e-10)


@pytest.mark.parametrize("family", ["associative", "cayley", "su4", "su5"])
def test_stack_evaluation_is_independent_of_the_stack(rng, family):
    """A frame gets the same bits alone and inside a stack of 8, through every entry point and the [phi; module] jet."""
    phi = {
        "associative": associative_form,
        "cayley": cayley_form,
        "su4": lambda: cartan_three_form(su_lie_algebra(4)),
        "su5": lambda: cartan_three_form(su_lie_algebra(5)),
    }[family]()
    module = phi_module(phi)
    idx0, c = phi._compact()
    completions = qr_fix(rng.standard_normal((8, phi.n, phi.n)))[0]
    stack, normals = completions[:, :, : phi.p], completions[:, :, phi.p :]
    rows = module.values_on(stack)
    values = stack_values(c, idx0, stack)
    assert np.array_equal(stack_values(module._groups, module._block_idx0, stack), rows.T)
    jet_idx0, jet_rows = _module_rows(phi, module)
    jet = first_jet(jet_rows, jet_idx0, stack, normals)
    for j, frame in enumerate(stack):
        assert np.array_equal(rows[:, j], module.values_on(frame)[:, 0])
        assert values[j] == stack_values(c, idx0, frame[None])[0] == phi.apply(frame)
        alone = first_jet(jet_rows, jet_idx0, stack[j : j + 1], normals[j : j + 1])
        assert np.array_equal(jet[0][j], alone[0][0]) and np.array_equal(jet[1][j], alone[1][0])


def frame_floats(coeff_mat, idx0, n, k):
    """Floats a frame takes in the largest of first_jet's block arrays.

    The arrays are the sub-minor table, the determinant terms (p t) and, with
    the jet, the blocks' signed minors (K p rows), their products by Gamma's
    blocks (K p cols), V (R p n) and the replacements (R p k).
    """
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    t, p = idx0.shape
    size, _, _, grad = exterior._minor_plan(n, t, p, idx0.tobytes(), bool(p and k))
    if grad is None:
        return max(size, p * t)
    groups, lead = exterior._groups(coeff_mat, t)
    coeffs = np.concatenate([np.ravel(g) for g in groups], dtype=float).tobytes()
    gamma, at, _, _ = exterior._gradients(n, t, p, idx0.tobytes(), tuple(g.shape for g in groups), coeffs)
    forms = math.prod(lead)
    return max(size, p * t, len(at), gamma.shape[0] * p * gamma.shape[2], p * forms * n, forms * p * k)


def gather_step(coeff_mat, idx0, n, k):
    """Frames in one first_jet block: each of its arrays fits _MINOR_BLOCK."""
    return exterior._MINOR_BLOCK // frame_floats(coeff_mat, idx0, n, k)


def test_first_jet_over_several_gather_blocks_matches_single_frames(rng):
    """Stacks longer than one gather block give each frame the bits it gets alone."""
    phi = cartan_three_form(su_lie_algebra(4))
    idx0, c = phi._compact()
    # as many frames as the double replacements of an su4 sff check: p^2 k^2
    stack = rng.standard_normal((1296, phi.n, phi.p))
    assert len(stack) > gather_step(c, idx0, phi.n, 0)
    values = stack_values(c, idx0, stack)
    assert np.array_equal(values, [stack_values(c, idx0, f[None])[0] for f in stack])
    # module rows: a block holds 7 frames, so 20 frames take three blocks
    module = phi_module(phi)
    frames = rng.standard_normal((20, phi.n, phi.p))
    normals = rng.standard_normal((20, phi.n, phi.n - phi.p))
    assert len(frames) > gather_step(module.dense_matrix(), module._idx0, phi.n, phi.n - phi.p)
    values, first = first_jet(module.dense_matrix(), module._idx0, frames, normals)
    for i in range(len(frames)):
        alone = first_jet(module.dense_matrix(), module._idx0, frames[i : i + 1], normals[i : i + 1])
        assert np.array_equal(values[i], alone[0][0]) and np.array_equal(first[i], alone[1][0])


def test_first_jet_with_more_normals_than_columns_over_several_blocks(rng):
    """k > p: the su4 p k replaced frames of three sff checks, 12 normals each, take several gather blocks."""
    phi = cartan_three_form(su_lie_algebra(4))
    idx0, c = phi._compact()
    n, p = phi.n, phi.p
    k = n - p
    comps = qr_fix(rng.standard_normal((3, n, n)))[0]
    # as critical._adapted_values builds them, one plane after another
    frames = np.concatenate([replaced_frames(comp[:, :p], comp[:, p:]) for comp in comps])
    normals = np.repeat(comps[:, :, p:], p * k, axis=0)
    assert k > p and len(frames) > gather_step(c, idx0, n, k) > 0
    values, first = first_jet(c, idx0, frames, normals)
    for i in range(len(frames)):
        alone = first_jet(c, idx0, frames[i : i + 1], normals[i : i + 1])
        assert np.array_equal(values[i], alone[0][0]) and np.array_equal(first[i], alone[1][0])


def replaced_frames(frame, normal):
    """Frame b*k + s of the stack is frame with column b replaced by normal[:, s]."""
    n, p = frame.shape
    k = normal.shape[1]
    frames = np.repeat(frame[None], p * k, axis=0)
    for b in range(p):
        for s in range(k):
            frames[b * k + s, :, b] = normal[:, s]
    return frames


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 7),
    p_raw=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    empty=st.booleans(),
    integral=st.booleans(),
)
@example(n=4, p_raw=3, seed=1, empty=False, integral=False)  # p = n: no normals
@example(n=6, p_raw=0, seed=2, empty=False, integral=True)  # p = 1
@example(n=5, p_raw=2, seed=3, empty=True, integral=False)  # no terms
def test_first_jet_matches_explicit_replacements(n, p_raw, seed, empty, integral):
    """Kernel values and one-column replacements against the brute-force oracle.

    Integer frames make many minors singular, where an inverse-based
    cofactor would fail.
    """
    rng = np.random.default_rng(seed)
    p = 1 + p_raw % n
    k = n - p
    phi = AltForm.zero(n, p) if empty else random_form(rng, n, p)
    m = 3  # a stack of frames, each checked on its own
    if integral:
        frames = rng.integers(-1, 2, (m, n, p)).astype(float)
        normals = rng.integers(-1, 2, (m, n, k)).astype(float)
    else:
        frames = rng.uniform(-1.0, 1.0, (m, n, p))
        normals = rng.uniform(-1.0, 1.0, (m, n, k))
    idx0, c = phi._compact()
    values, first = first_jet(c, idx0, frames, normals)
    assert values.shape == (m,) and first.shape == (m, p, k)
    # phi's terms stacked on the module's groups
    module = phi_module(phi)
    idx_all, rows = _module_rows(phi, module)
    row_values, row_first = first_jet(rows, idx_all, frames, normals)
    assert row_values.shape == (m, 1 + module.rank) and row_first.shape == (m, 1 + module.rank, p, k)
    for i in range(m):
        stack = np.concatenate([frames[i][None], replaced_frames(frames[i], normals[i])])
        for f, v in zip(stack, np.concatenate([[values[i]], first[i].reshape(p * k)])):
            assert abs(v - brute_eval(phi, f)) < 1e-12
        got = np.column_stack([row_values[i], row_first[i].reshape(1 + module.rank, p * k)])
        assert np.max(np.abs(got - stack_values(rows, idx_all, stack).T)) < 1e-12
    assert np.array_equal(stack_values(rows, idx_all, frames), row_values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 9), p_raw=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(n=6, p_raw=5, seed=1)  # p = n: no normals
@example(n=9, p_raw=1, seed=2)  # n - p = 3, the su(4) dual's minor size
def test_orthonormal_jet_complement_path_matches_explicit_replacements(n, p_raw, seed):
    """Above p = n/2 the values and replacements, taken through the Hodge star, against brute_eval.

    p stays at most 6, since brute_eval costs p! per term.  The second
    completion has one column flipped, so it is negatively oriented.
    """
    p = n // 2 + 1 + p_raw % (min(n, 6) - n // 2)
    k = n - p
    rng = np.random.default_rng(seed)
    phi = random_form(rng, n, p, density=min(1.0, 3 / math.comb(n, p)))
    idx0, _ = phi._compact()
    rows = rng.uniform(-1.0, 1.0, (2, len(idx0)))
    q, _ = qr_fix(rng.standard_normal((n, n)))
    flipped = q.copy()
    flipped[:, rng.integers(n)] *= -1.0
    completions = np.stack([q, flipped])
    values, first = exterior.orthonormal_jet(rows, idx0, completions, p)
    assert values.shape == (2, 2) and first.shape == (2, 2, p, k)
    assert np.array_equal(exterior.orthonormal_jet(rows, idx0, completions, p, jet=False), values)
    forms = [AltForm(n, p, {tuple(i + 1): c for i, c in zip(idx0, row)}) for row in rows]
    for i, frame in enumerate(completions):
        stack = np.concatenate([frame[None, :, :p], replaced_frames(frame[:, :p], frame[:, p:])])
        for form, got in zip(forms, np.column_stack([values[i], first[i].reshape(2, p * k)])):
            assert np.max(np.abs(got - [brute_eval(form, f) for f in stack])) < 1e-12
    # the cached star columns carry every basis form to its Hodge star, bit for bit
    comp, sign = exterior._star_columns(n, p)
    starred = np.zeros((len(comp), len(comp)))
    starred[:, exterior._lex_rank(comp, n)] = np.diag(sign)
    basis = [hodge_star(AltForm.basis(n, *I)).dense() for I in canonical_indices(n, p)]
    assert np.array_equal(starred, basis)


@pytest.mark.parametrize("n, p", [(0, 0), (4, 0), (7, 3), (8, 4), (15, 12), (5, 5)])
def test_index_table_is_canonical_indices_read_only(n, p):
    """The cached table is canonical_indices(n, p) less 1, one shared array that cannot be written."""
    table = exterior._index_table(n, p)
    assert table.shape == (math.comb(n, p), p) and table.dtype == np.intp
    assert table.tolist() == [[i - 1 for i in idx] for idx in canonical_indices(n, p)]
    assert exterior._index_table(n, p) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0


@pytest.mark.parametrize("n, p, k", [(7, 4, 3), (8, 5, 3), (8, 6, 2), (8, 7, 2), (6, 6, 2)])
def test_first_jet_svd_and_cofactor_paths_agree(n, p, k):
    """The sub-minor table's cofactors against SVD cofactors (svd_jet) and brute_eval.

    k normals need not complete the frame, so p = n has replacements too.  The
    integer frames repeat a column (every minor singular, adjugates of rank
    at most 1) or draw from {-1, 0, 1} (many singular minors).
    """
    rng = np.random.default_rng(10 * n + p)
    phi = random_form(rng, n, p, density=0.25)  # brute_eval costs p! per term
    idx0, c = phi._compact()
    frames = np.stack(
        [
            rng.uniform(-1.0, 1.0, (n, p)),
            rng.integers(-1, 2, (n, p)).astype(float),
            rng.integers(-1, 2, (n, p)).astype(float),
        ]
    )
    frames[2, :, -1] = frames[2, :, 0]
    normals = rng.integers(-1, 2, (3, n, k)).astype(float)
    values, first = first_jet(c, idx0, frames, normals)
    assert np.array_equal(values, stack_values(c, idx0, frames))
    assert np.max(np.abs(svd_jet(c, idx0, frames, normals) - first)) < 1e-12
    for i in range(3):
        assert abs(values[i] - brute_eval(phi, frames[i])) < 1e-12
        oracle = [brute_eval(phi, f) for f in replaced_frames(frames[i], normals[i])]
        assert np.max(np.abs(first[i].reshape(p * k) - oracle)) < 1e-12


def test_gradient_blocks_of_an_irregular_form_match_the_dense_gamma(rng):
    """phi's terms and the rows [phi; module] of a form on R^24: 154 Gamma blocks of up to 15 x 204."""
    phi = irregular_form()
    frames = qr_fix(rng.standard_normal((4, phi.n, phi.n)))[0]
    idx0, c = phi._compact()
    for coeffs, idx in [(c, idx0), _module_rows(phi, phi_module(phi))[::-1]]:
        assert_gradient_blocks_match_the_dense_gamma(coeffs, idx, frames[:, :, : phi.p], frames[:, :, phi.p :])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 8),
    k=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
    empty=st.booleans(),
)
@example(n=7, p_raw=0, k=6, seed=1, empty=False)  # p = 1: S = 1, the empty (p - 1)-minor
@example(n=8, p_raw=2, k=11, seed=2, empty=False)  # k > p
@example(n=5, p_raw=1, k=3, seed=3, empty=True)  # the zero form: t = 0, a rank-0 module
def test_gradient_jet_matches_the_cofactor_jet(n, p_raw, k, seed, empty):
    """first_jet against cofactor_jet: values bit for bit, replacements to 1e-13.

    The coefficients are phi's terms, two random rows over them, and phi's
    terms stacked on its module's groups; k normals need not complete the
    frame, so p = n and k > n - p have replacements too.
    """
    rng = np.random.default_rng(seed)
    p = 1 + p_raw % n
    phi = AltForm.zero(n, p) if empty else random_form(rng, n, p, density=min(1.0, 6 / math.comb(n, p)))
    idx0, c = phi._compact()
    frames, normals = rng.uniform(-1.0, 1.0, (3, n, p)), rng.uniform(-1.0, 1.0, (3, n, k))
    jets = [(c, idx0), (rng.uniform(-1.0, 1.0, (2, len(idx0))), idx0), _module_rows(phi, phi_module(phi))[::-1]]
    for coeffs, idx in jets:
        got, want = first_jet(coeffs, idx, frames, normals), cofactor_jet(coeffs, idx, frames, normals)
        assert np.array_equal(got[0], want[0])
        assert got[1].shape == want[1].shape and np.max(np.abs(got[1] - want[1]), initial=0.0) <= 1e-13


def assert_gradient_blocks_match_the_dense_gamma(coeff_mat, idx0, frames, normals):
    """_gradients' blocks scatter back to the dense Gamma entry for entry, and the jet's replacements match its product.

    Every nonzero of the padded stack lands in the dense matrix once, so
    none hides in a padded row or column; the column every (l, i) outside
    the blocks reads is zero.  The replacements agree to 1e-14 relative with
    V = M Gamma over the dense Gamma: a kernel may sum the zeros of the dense
    product in other groupings, so they are not pinned bit for bit.
    """
    n = frames.shape[1]
    groups, _ = exterior._groups(coeff_mat, len(idx0))
    want, got = dense_gradients(n, idx0, groups), scatter_gradients(n, idx0, groups)
    assert got.shape == want.shape and np.array_equal(got, want)
    gamma = gradient_blocks(n, idx0, groups)[0]
    assert np.count_nonzero(gamma) == np.count_nonzero(want) and not gamma[:, :, -1].any()
    first, dense = first_jet(coeff_mat, idx0, frames, normals)[1], dense_gradient_jet(coeff_mat, idx0, frames, normals)
    assert first.shape == dense.shape
    assert np.max(np.abs(first - dense), initial=0.0) <= 1e-14 * np.max(np.abs(dense), initial=0.0)


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS) + ["su5"])
def test_gradient_blocks_of_the_built_in_forms_match_the_dense_gamma(rng, family):
    """phi's terms and the rows [phi; module] of every built-in family, su(5) included."""
    spec = BUILTIN_SPECS.get(family, {"family": "cartan", "algebra": family})
    phi = calibrations.build_calibration(calibrations.CalibrationSpec.from_json(spec))
    frames = qr_fix(rng.standard_normal((4, phi.n, phi.n)))[0]
    idx0, c = phi._compact()
    for coeffs, idx in [(c, idx0), _module_rows(phi, phi_module(phi))[::-1]]:
        assert_gradient_blocks_match_the_dense_gamma(coeffs, idx, frames[:, :, : phi.p], frames[:, :, phi.p :])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 8),
    k=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.05, 0.2, 0.6]),
)
@example(n=7, p_raw=0, k=6, seed=1, density=0.2)  # p = 1: S = 1, the empty (p - 1)-minor
@example(n=5, p_raw=1, k=3, seed=3, density=0.0)  # the zero form: t = 0, no block
def test_gradient_blocks_of_random_sparse_forms_match_the_dense_gamma(n, p_raw, k, seed, density):
    """phi's terms, random rows with zeros, phi on those rows over its indices twice, a form whose terms repeat, [phi; module].

    A repeated term's Gamma entries sum, in the order of the terms.
    """
    rng = np.random.default_rng(seed)
    p = 1 + p_raw % n
    phi = random_form(rng, n, p, density) if density else AltForm.zero(n, p)
    idx0, c = phi._compact()
    frames, normals = rng.uniform(-1.0, 1.0, (3, n, p)), rng.uniform(-1.0, 1.0, (3, n, k))
    rows = rng.uniform(-1.0, 1.0, (3, len(idx0))) * (rng.random((3, len(idx0))) < 0.5)
    twice = np.concatenate([idx0, idx0])
    jets = [
        (c, idx0),
        (rows, idx0),
        ([c.reshape(1, 1, -1), rows.reshape(1, 3, -1)], twice),
        (np.concatenate([c, rows[0]]), twice),
        _module_rows(phi, phi_module(phi))[::-1],
    ]
    for coeffs, idx in jets:
        assert_gradient_blocks_match_the_dense_gamma(coeffs, idx, frames, normals)


def test_su4_gradient_blocks_fit_a_fifth_of_a_megabyte():
    """su(4)'s [phi; module] Gamma is 16 blocks of at most 7 x 88, not 105 x 1,365 (1.1 MB) dense."""
    phi = cartan_three_form(su_lie_algebra(4))
    idx0, groups = _module_rows(phi, phi_module(phi))
    entry = gradient_blocks(phi.n, idx0, groups)
    assert entry[0].shape == (16, 7, 89)
    assert sum(a.nbytes for a in entry) <= 0.2e6


def test_gradient_blocks_build_no_dense_gamma():
    """su(5)'s [phi; module] Gamma is 276 x 6,072 (13.4 MB) dense; its cold build peaks below half of that."""
    phi = cartan_three_form(su_lie_algebra(5))
    idx0, groups = _module_rows(phi, phi_module(phi))
    exterior._minor_plan(phi.n, len(idx0), phi.p, idx0.tobytes(), True)
    exterior._gradients.cache_clear()
    tracemalloc.start()
    try:
        entry = gradient_blocks(phi.n, idx0, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry[0].shape[0] == 32 and sum(a.nbytes for a in entry) < 1e6
    assert peak < 6.7e6


def lu_cofactors(minors):
    """Cofactors as signed LU determinants of the (p-1)-minors, singular minors included."""
    p = minors.shape[-1]
    cof = np.empty(minors.shape)
    for r, c in itertools.product(range(p), repeat=2):
        sub = np.delete(np.delete(minors, r, axis=-2), c, axis=-1)
        cof[..., r, c] = (-1.0) ** (r + c) * (np.linalg.det(sub) if p > 1 else 1.0)
    return cof


def small_minors(rng, p, count=40):
    """Random, {-1, 0, 1}-integer and repeated-column (singular) p x p minors."""
    integral = rng.integers(-1, 2, (count, p, p)).astype(float)
    repeated = rng.uniform(-1.0, 1.0, (count, p, p))
    repeated[:, :, -1] = repeated[:, :, 0]
    return np.concatenate([rng.uniform(-1.0, 1.0, (count, p, p)), integral, repeated])


def minor_jet(minors):
    """Determinants (N,) and cofactors (N, p, p) of an (N, p, p) stack through first_jet.

    Each minor is a frame of the one-term form e1..p, with the basis vectors
    as normals, so first[i, b, s] is the cofactor (s, b) of minor i.
    """
    count, p, _ = minors.shape
    dets, first = first_jet(np.ones(1), np.arange(p)[None], minors, np.broadcast_to(np.eye(p), (count, p, p)))
    return dets, np.swapaxes(first, -1, -2)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_leibniz_minors_match_lu_and_svd(rng, p):
    """The table's determinants and cofactors (Leibniz sums, factored column by column) against LU and SVD."""
    minors = small_minors(rng, p)
    dets, cof = minor_jet(minors)
    assert np.max(np.abs(dets - np.linalg.det(minors))) < 1e-12
    assert np.max(np.abs(cof - lu_cofactors(minors))) < 1e-12
    assert np.max(np.abs(svd_cofactors(minors) - cof)) < 1e-12
    assert np.array_equal(stack_values(np.ones(1), np.arange(p)[None], minors), dets)
    # integer minors have integer determinants and cofactors, which the table hits exactly
    integral = minors[40:80]
    assert np.array_equal(dets[40:80], np.round(np.linalg.det(integral)))
    assert np.array_equal(cof[40:80], np.round(lu_cofactors(integral)))


def kernel_frames(rng, kind, m, n, p):
    """m frames: uniform in [-1, 1], {-1, 0, 1}-integer, or uniform with a repeated column."""
    if kind == "integral":
        return rng.integers(-1, 2, (m, n, p)).astype(float)
    frames = rng.uniform(-1.0, 1.0, (m, n, p))
    if kind == "repeated" and p > 1:
        frames[:, :, -1] = frames[:, :, 0]  # every minor singular, adjugates of rank at most 1
    return frames


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["uniform", "integral", "repeated"]),
)
@example(n=9, p_raw=7, seed=1, kind="uniform")  # p = 7
@example(n=8, p_raw=6, seed=2, kind="repeated")  # p = 6, once SVD cofactors
@example(n=9, p_raw=9, seed=3, kind="integral")  # p = n = 9
@example(n=3, p_raw=0, seed=4, kind="uniform")  # p = 0
def test_minor_table_matches_lu_and_brute_force(n, p_raw, seed, kind):
    """The sub-minor table's determinants, cofactors and jets against LU and brute_eval.

    With the identity as coefficients over every p-index and the basis
    vectors as normals, first_jet returns the minors' determinants, and
    first[I, b, I_r] is the cofactor (r, b) of the minor I.
    """
    rng = np.random.default_rng(seed)
    p = p_raw % (n + 1)
    idx0 = np.array(canonical_indices(n, p), dtype=np.intp).reshape(math.comb(n, p), p) - 1
    t, m = len(idx0), 3
    frames = kernel_frames(rng, kind, m, n, p)
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    dets, first = first_jet(np.eye(t), idx0, frames, eye)
    assert np.array_equal(stack_values(np.eye(t), idx0, frames), dets)
    if p == 0:
        assert np.array_equal(dets, np.ones((m, 1)))
    else:
        cof = first[:, np.arange(t)[:, None, None], np.arange(p), idx0[:, :, None]]  # (m, t, r, b)
        minors = frames.take(idx0, axis=1)
        lu_dets, lu_cof = np.linalg.det(minors), lu_cofactors(minors)
        assert np.max(np.abs(dets - lu_dets)) < 1e-12
        assert np.max(np.abs(cof - lu_cof)) < 1e-12
        if kind == "integral":  # integer minors have integer determinants and cofactors, hit exactly
            assert np.array_equal(dets, np.round(lu_dets)) and np.array_equal(cof, np.round(lu_cof))
    # a random form and normals against the brute-force oracle, which costs
    # p! per term: every frame up to p = 6, the first one at p = 7
    k = n - p
    normals = kernel_frames(rng, kind, m, n, k)
    if p <= 7:
        phi = random_form(rng, n, p, density=min(1.0, 3 / math.comb(n, p)))
        idx, c = phi._compact()
        values, first = first_jet(c, idx, frames, normals)
        for i in range(m if p <= 6 else 1):
            stack = np.concatenate([frames[i][None], replaced_frames(frames[i], normals[i])])
            got = np.concatenate([[values[i]], first[i].reshape(p * k)])
            assert np.max(np.abs(got - [brute_eval(phi, f) for f in stack])) < 1e-12
    # a stack over three gather blocks gives each frame the bits it gets alone
    rows = rng.uniform(-1.0, 1.0, (2, t))
    frames, normals = kernel_frames(rng, kind, 5, n, p), kernel_frames(rng, kind, 5, n, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exterior, "_MINOR_BLOCK", 2 * frame_floats(rows, idx0, n, k))
        assert gather_step(rows, idx0, n, k) == 2
        values, first = first_jet(rows, idx0, frames, normals)
        for i in range(len(frames)):
            alone = first_jet(rows, idx0, frames[i : i + 1], normals[i : i + 1])
            assert np.array_equal(values[i], alone[0][0]) and np.array_equal(first[i], alone[1][0])


def test_leibniz_over_several_gather_blocks_matches_single_minors(rng):
    """At p = 4 a stack spanning several gather blocks gives each minor the bits it gets alone."""
    minors = small_minors(rng, 4, count=gather_step(np.ones(1), np.arange(4)[None], 4, 4))
    assert len(minors) > 2 * gather_step(np.ones(1), np.arange(4)[None], 4, 4)
    dets, cof = minor_jet(minors)
    for i in range(len(minors)):
        alone = minor_jet(minors[i : i + 1])
        assert dets[i] == alone[0][0] and np.array_equal(cof[i], alone[1][0])
    # a one-term 4-form on R^8: a frame alone has a single minor
    phi = AltForm.basis(8, 1, 2, 3, 4)
    idx0, c = phi._compact()
    count = 2 * gather_step(c, idx0, 8, 4) + 1
    frames = kernel_frames(rng, "uniform", count, 8, 4)
    normals = kernel_frames(rng, "integral", count, 8, 4)
    values, first = first_jet(c, idx0, frames, normals)
    for i in range(len(frames)):
        alone = first_jet(c, idx0, frames[i : i + 1], normals[i : i + 1])
        assert values[i] == alone[0][0] and np.array_equal(first[i], alone[1][0])


def test_first_jet_rejects_rows_outside_the_frame():
    with pytest.raises(IndexError):
        stack_values(np.ones(1), np.array([[0, 7]]), np.zeros((1, 7, 2)))


def test_evaluate_accepts_frames_and_planes(rng):
    from calibkit import OrientedPlane

    a = random_form(rng, 5, 2)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    assert evaluate(a, q) == pytest.approx(a.apply(q))
    assert evaluate(a, OrientedPlane(q, orthonormalize=True)) == pytest.approx(
        a.apply(OrientedPlane(q, orthonormalize=True).frame)
    )


# -- parsing and serialization ----------------------------------------------


def test_parse_format_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, n + 1))
        a = random_form(rng, n, p)
        back = parse_form(format_form(a), n=n)
        assert back.approx_eq(a, tol=1e-12)


def test_repr_writes_the_coefficient_dict_that_eval_reads_back():
    small = parse_form("e12 - 2*e34")
    assert repr(small) == "AltForm(n=4, p=2, coeffs={(1, 2): 1.0, (3, 4): -2.0})"
    assert eval(repr(small), {"AltForm": AltForm}).approx_eq(small, tol=0.0)
    big = cartan_three_form(su_lie_algebra(4))
    text = repr(big)
    assert text.startswith("AltForm(n=15, p=3, coeffs={")
    assert eval(text, {"AltForm": AltForm}).approx_eq(big, tol=0.0)


def test_parse_format_round_trip_refuses_forms_without_a_literal():
    """Degree 0 and the zero form have no literal parse_form reads: format_form raises, repr uses coeffs."""
    for text in ("2*e", "0"):
        with pytest.raises(ValueError, match="malformed term"):
            parse_form(text, n=4)
    constant, zero = AltForm.constant(4, 2.0), AltForm.zero(4, 2)
    for a in (constant, zero, AltForm.zero(4, 0), AltForm.volume(10)):
        with pytest.raises(ValueError, match="text literals"):
            format_form(a)
    assert repr(constant) == "AltForm(n=4, p=0, coeffs={(): 2.0})"
    assert repr(zero) == "AltForm(n=4, p=2, coeffs={})"
    for a in (constant, zero):
        assert eval(repr(a), {"AltForm": AltForm}).approx_eq(a, tol=0.0)


def test_parse_form_examples():
    a = parse_form("e123 + e145 - 2*e167")
    assert a.n == 7 and a.p == 3
    assert a.coeffs == {(1, 2, 3): 1.0, (1, 4, 5): 1.0, (1, 6, 7): -2.0}
    b = parse_form("-e12", n=4)
    assert b.coeffs == {(1, 2): -1.0}


@pytest.mark.parametrize(
    "text, n",
    [(calibrations._ASSOCIATIVE, 7), ("e12 - 2*e34 + 0.5*e12 + e13", 4), ("e12 + e34 - e12", 5)],
    ids=["associative", "repeated", "cancelling"],
)
def test_parse_form_equals_from_terms_without_sorting(monkeypatch, text, n):
    """parse_form's indices are checked increasing, so it sorts none; a repeated term adds in term order."""
    terms = [
        (tuple(map(int, digits)), -float(c or 1.0) if sign == "-" else float(c or 1.0))
        for sign, c, digits in re.findall(r"([+-]?)\s*(?:([0-9.]+)\*)?e(\d+)", text)
    ]
    want = AltForm.from_terms(n, len(terms[0][0]), terms)
    calls = []
    monkeypatch.setattr(exterior, "sort_index", lambda idx: calls.append(idx) or sort_index(idx))
    got = parse_form(text, n=n)
    assert calls == []
    assert (got.n, got.p, list(got.coeffs.items()), repr(got)) == (want.n, want.p, list(want.coeffs.items()), repr(want))


def test_parse_form_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_form("e21")  # not increasing
    with pytest.raises(ValueError):
        parse_form("e12 + e123")  # mixed degree
    with pytest.raises(ValueError):
        parse_form("")
    with pytest.raises(ValueError):
        parse_form("e13", n=2)
    with pytest.raises(ValueError):
        parse_form("xyz")


@pytest.mark.parametrize("mag", [1e-300, 1e-100, 1e-5, 1e-4, 0.1, 3.5, 1e16, 3e20, 1e100, 1e300])
def test_parse_format_round_trip_over_magnitudes(mag):
    """format_form writes small and large coefficients with signed exponents (1e-05, 3e+20)."""
    a = AltForm(4, 2, {(1, 2): mag, (1, 3): -mag, (2, 4): 0.7 * mag})
    assert parse_form(format_form(a), n=4).coeffs == a.coeffs


def test_parse_form_reads_signed_exponents_and_names_index_0():
    assert parse_form("1e-3*e123 + e145").coeffs == {(1, 2, 3): 1e-3, (1, 4, 5): 1.0}
    assert parse_form("-2.5E+2*e12 - 3e-1*e34+e13").coeffs == {(1, 2): -250.0, (3, 4): -0.3, (1, 3): 1.0}
    with pytest.raises(ValueError, match="malformed term"):
        parse_form("1e - 3*e12")
    with pytest.raises(ValueError, match="index 0 in 'e0'"):
        parse_form("e0")


def test_json_round_trip(rng):
    a = random_form(rng, 6, 3)
    back = form_from_json(form_to_json(a))
    assert back.approx_eq(a, tol=0.0)
    import json

    back2 = form_from_json(json.dumps(form_to_json(a)))
    assert back2.approx_eq(a, tol=0.0)
