from math import lgamma

import numpy as np
import pytest

from liefilter import groups
from liefilter.distribution import expectation_nodes
from liefilter.errors import LieDomainError, SingularJacobianError
from liefilter.groups import (
    SO3,
    MatrixLieGroup,
    bch_truncated,
    expand_log_perturbation,
    lie_derivative_right,
    lie_derivative_right_second,
)

from conftest import assert_bitwise, random_ball


def series_expm(X, terms=30):
    """Truncated power-series matrix exponential, the independent oracle."""
    out = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def phi_pair_longdouble(group, x, terms=60):
    """``(J_l^-1, dJ_l^-1)`` at one point from the phi series J_l = sum_m
    A^m / (m+1)! in np.longdouble: a fixed 60 terms, the partials by the
    product rule, and the double-precision inverse refined by one Newton step."""
    ld = np.longdouble
    gens = group.ad(np.eye(group.dim)).astype(ld)          # gens[k] = ad(e_k)
    A = np.einsum("i,ikj->kj", np.asarray(x, ld), gens)
    eye = np.eye(group.dim, dtype=ld)
    jac, djac = eye.copy(), np.zeros_like(gens)
    power, deriv, fact = eye, np.zeros_like(gens), ld(1)
    for m in range(1, terms):
        deriv = deriv @ A + power @ gens                   # d(A^m)/dx_k
        power = power @ A
        fact *= m + 1
        jac, djac = jac + power / fact, djac + deriv / fact
    inv = np.linalg.inv(jac.astype(float)).astype(ld)
    inv = inv + inv @ (eye - jac @ inv)
    return inv, -(inv @ djac @ inv)


def phi_series_recurrence(group, x):
    """``(J_l, dJ_l)`` by the term recurrence D_m = D_(m-1) A + A^(m-1) ad(e_k)
    for D_m = d(A^m)/dx_k, A = ad(x), summed through the first m with
    ||A||_1^m / (m+1)! < 1e-17 for the batch's largest ||A||_1: the reference
    for the power-stack series, partials shaped (dim, ..., N, N)."""
    A = group.ad(x)
    n, batch = group.dim, A.shape[:-2]
    norm = max(float(np.abs(A).sum(axis=-2).max(initial=0.0)), 1e-300)
    last = 1
    while last * np.log(norm) - lgamma(last + 2) >= np.log(1e-17):
        last += 1
    gens = np.ascontiguousarray(group.ad(np.eye(n)).transpose(1, 0, 2))   # [j, k, l]
    term = A / 2                                   # the terms A^m / (m+1)!, D_m / (m+1)!
    dterm = np.broadcast_to(gens, batch + (n, n, n)) / 2          # (..., i, k, l)
    jac, djac = np.eye(n) + term, dterm.copy()
    gens = gens.reshape(n, n * n)
    for m in range(2, last + 1):
        dterm = ((dterm.reshape(batch + (n * n, n)) @ A).reshape(batch + (n, n, n))
                 + (term @ gens).reshape(batch + (n, n, n))) / (m + 1)
        djac += dterm
        term = term @ A / (m + 1)
        jac += term
    return jac, np.moveaxis(djac, -2, 0)


def record_term_counts(monkeypatch):
    """The list that every later ``groups._phi_terms`` result is appended to."""
    counts, terms = [], groups._phi_terms

    def counted(*args):
        counts.append(terms(*args))
        return counts[-1]

    monkeypatch.setattr(groups, "_phi_terms", counted)
    return counts


def fd_jacobian(group, x, side, step=1e-6):
    """Columns vee((dg/dq_j) g^-1) or vee(g^-1 dg/dq_j) by central differences."""
    cols = []
    g_inv = np.linalg.inv(group.exp(x))
    for j in range(group.dim):
        e = np.zeros(group.dim)
        e[j] = step
        dg = (group.exp(x + e) - group.exp(x - e)) / (2 * step)
        cols.append(group.vee(dg @ g_inv if side == "left" else g_inv @ dg))
    return np.stack(cols, axis=-1)


# -- exponential / logarithm --------------------------------------------------

def test_exp_zero_is_identity(so3):
    assert np.allclose(so3.exp(np.zeros(3)), np.eye(3), atol=1e-15)


def test_exp_matches_series_oracle(so3):
    x = np.array([np.pi / 2, 0, 0])
    assert np.abs(so3.exp(x) - series_expm(so3.wedge(x))).max() < 1e-12


def test_exp_log_roundtrip(so3):
    x = np.array([0.3, -0.2, 0.5])
    assert np.linalg.norm(so3.log(so3.exp(x)) - x) < 1e-10


def test_log_identity_is_zero(so3):
    assert np.allclose(so3.log(np.eye(3)), 0.0)


def test_log_inverse_property(so3):
    x = np.array([0.1, 0.2, 0.3])
    assert np.allclose(so3.log(so3.exp(x)), x, atol=1e-12)


def test_log_raises_near_antipode(so3):
    g = so3.exp((np.pi - 1e-10) * np.array([1.0, 0, 0]))
    with pytest.raises(LieDomainError):
        so3.log(g)


def test_log_masked_marks_only_the_failing_element(so3):
    rng = np.random.default_rng(3)
    g = so3.exp(random_ball(rng, np.pi - 0.1, count=6))
    g[2] = so3.exp((np.pi - 1e-10) * np.array([0.0, 0.6, 0.8]))
    x, ok = so3.log_masked(g)
    assert ok.tolist() == [True, True, False, True, True, True]
    assert np.isnan(x[2]).all()
    keep = np.delete(np.arange(6), 2)
    assert np.array_equal(x[keep], so3.log(g[keep]))
    for i in keep:
        assert np.array_equal(x[i], so3.log(g[i]))
    with pytest.raises(LieDomainError):
        so3.log(g)


def test_roundtrip_property_over_domain(so3):
    rng = np.random.default_rng(7)
    xs = random_ball(rng, np.pi - 0.1, count=200)
    back = so3.log(so3.exp(xs))
    assert np.abs(back - xs).max() < 1e-10


def test_so3_element_invariants(so3):
    rng = np.random.default_rng(3)
    for x in random_ball(rng, np.pi - 0.1, count=20):
        g = so3.exp(x)
        assert np.abs(g.T @ g - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(g) - 1) < 1e-12


def test_wedge_vee_roundtrip(so3, diag3, generic_so3):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3)
    for group in (so3, diag3, generic_so3):
        assert np.allclose(group.vee(group.wedge(x)), x, atol=1e-14)


def test_abelian_product_commutes_exactly(diag3):
    rng = np.random.default_rng(5)
    a, b = diag3.exp(rng.standard_normal(3)), diag3.exp(rng.standard_normal(3))
    assert np.array_equal(a @ b, b @ a)


def test_non_unimodular_basis_is_rejected(se3):
    # The affine group of the line: [E1, E2] = E2, so tr ad(E1) = 1.  SE(3)
    # reads tr ad(E1) = -1.25e-16 through vee, a rounding error, and builds.
    affine = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="not unimodular"):
        MatrixLieGroup(affine, name="Aff(1)")
    assert np.abs(np.trace(se3.ad(np.eye(6)), axis1=1, axis2=2)).max() < 1e-15


# -- Jacobians ----------------------------------------------------------------

def test_jacobians_identity_at_origin(so3):
    z = np.zeros(3)
    for fn in (so3.left_jacobian, so3.right_jacobian,
               so3.left_jacobian_inv, so3.right_jacobian_inv):
        assert np.allclose(fn(z), np.eye(3), atol=1e-15)


def test_jacobians_match_finite_differences(so3):
    x = np.array([0.4, -0.1, 0.2])
    fd_l = fd_jacobian(so3, x, "left")
    fd_r = fd_jacobian(so3, x, "right")
    assert np.abs(so3.left_jacobian(x) - fd_l).max() / np.abs(fd_l).max() < 1e-6
    assert np.abs(so3.right_jacobian(x) - fd_r).max() / np.abs(fd_r).max() < 1e-6
    assert np.abs(so3.left_jacobian_inv(x) - np.linalg.inv(fd_l)).max() < 1e-6
    assert np.abs(so3.right_jacobian_inv(x) - np.linalg.inv(fd_r)).max() < 1e-6


def test_abelian_jacobians_are_identity(diag3):
    x = np.array([0.5, -1.2, 2.0])
    for fn in (diag3.left_jacobian, diag3.right_jacobian,
               diag3.left_jacobian_inv, diag3.right_jacobian_inv):
        assert np.array_equal(fn(x), np.eye(3))


def test_generic_exp_and_adjoint_fallbacks(so3, generic_so3):
    rng = np.random.default_rng(4)
    for x in random_ball(rng, 2.5, count=10):
        g = so3.exp(x)
        assert np.abs(generic_so3.exp(x) - g).max() < 1e-12
        assert np.abs(generic_so3.adjoint(g) - g).max() < 1e-12


def test_exp_and_jacobians_of_an_empty_batch_are_empty(so3, se3):
    for group in (so3, se3):
        empty = np.zeros((0, group.dim))
        assert group.exp(empty).shape == (0, group.mat_size, group.mat_size)
        assert group.left_jacobian(empty).shape == (0, group.dim, group.dim)


def fixed_term_exp(group, x, terms=23):
    """The generic exp with a fixed 23 Taylor terms after the scaling: the
    reference for the series sized from the input."""
    X = group.wedge(x)
    norm = float(np.abs(X).sum(axis=-1).max(initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    Y = X / 2.0 ** squarings
    out = term = np.broadcast_to(np.eye(group.mat_size), X.shape)
    for k in range(1, terms + 1):
        term = term @ Y / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("name", ["generic_so3", "se3"])
def test_generic_exp_sized_series_matches_fixed_terms_and_oracle(request, name):
    # The series stops at the first r^k / k! < 1e-17; that loses nothing
    # against 23 terms.  Against series_expm in np.longdouble (scaled and
    # squared in longdouble), each of the s squarings may double the
    # relative rounding error, so the bound is 1e-15 * 2^s.
    group = request.getfixturevalue(name)
    assert group.exp(np.zeros((0, group.dim))).shape == (0, group.mat_size, group.mat_size)
    rng = np.random.default_rng(47)
    dirs = rng.standard_normal((6, group.dim))
    dirs /= np.abs(group.wedge(dirs)).sum(axis=-1).max(axis=-1)[:, None]   # ||X||_inf = 1
    for radius in np.geomspace(1e-8, 10.0, 19):
        xs = radius * dirs
        squarings = max(0, int(np.ceil(np.log2(np.abs(group.wedge(xs)).sum(-1).max() / 0.25))))
        got, fixed = group.exp(xs), fixed_term_exp(group, xs)
        for k, x in enumerate(xs):
            scale = np.abs(fixed[k]).max()
            assert np.abs(got[k] - fixed[k]).max() <= 1e-15 * scale
            assert np.abs(group.exp(x) - fixed_term_exp(group, x)).max() <= 1e-15 * scale
            X = group.wedge(x).astype(np.longdouble) / 2 ** squarings
            oracle = np.linalg.matrix_power(series_expm(X), 2 ** squarings)
            assert float(np.abs(got[k] - oracle).max()) <= 1e-15 * 2 ** squarings * scale


def test_generic_series_matches_closed_forms(so3, generic_so3):
    rng = np.random.default_rng(2)
    for x in random_ball(rng, 2.0, count=10):
        assert np.abs(generic_so3.left_jacobian(x) - so3.left_jacobian(x)).max() < 1e-13
        assert np.abs(generic_so3.right_jacobian_inv(x) - so3.right_jacobian_inv(x)).max() < 1e-13
        diff = (generic_so3.right_jacobian_inv_partials(x)[1]
                - so3.right_jacobian_inv_partials(x)[1])
        assert np.abs(diff).max() < 1e-13


def test_jacobian_identities(so3, generic_so3, se3, diag3):
    rng = np.random.default_rng(13)
    for x in random_ball(rng, np.pi - 0.1, count=50):
        jl, jr = so3.left_jacobian(x), so3.right_jacobian(x)
        assert np.abs(jl - so3.adjoint(so3.exp(x)) @ jr).max() < 1e-10
        assert np.abs(jr - so3.left_jacobian(-x)).max() < 1e-10
        assert abs(abs(np.linalg.det(jl)) - abs(np.linalg.det(jr))) < 1e-10
        assert np.abs(so3.left_jacobian_inv(x) @ jl - np.eye(3)).max() < 1e-10
    # The base class derives J_r^-1 at -x; propagation uses J_r^-1(x) - ad(x).
    for group in (so3, diag3, generic_so3, se3):
        xs = rng.standard_normal((2, 5, group.dim))
        xs *= 2.0 * rng.uniform(0.05, 1.0, (2, 5, 1)) / np.linalg.norm(xs, axis=-1, keepdims=True)
        jri = group.right_jacobian_inv(xs)
        assert np.abs(jri @ group.right_jacobian(xs) - np.eye(group.dim)).max() < 1e-12
        assert np.abs(jri - group.left_jacobian_inv(xs) - group.ad(xs)).max() < 1e-12


# -- partial derivatives of the inverse Jacobians ------------------------------

def test_inv_partial_at_origin_matches_fd(so3):
    step = 1e-5
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd = (so3.right_jacobian_inv(e) - so3.right_jacobian_inv(-e)) / (2 * step)
        assert np.abs(so3.right_jacobian_inv_partials(np.zeros(3))[1][k] - fd).max() < 1e-8


def test_inv_partial_matches_fd_away_from_origin(so3):
    x = np.array([0.2, 0.3, -0.1])
    for k in (2, 0, 1):
        step = 1e-6
        e = np.zeros(3)
        e[k] = step
        fd_r = (so3.right_jacobian_inv(x + e) - so3.right_jacobian_inv(x - e)) / (2 * step)
        an_r = so3.right_jacobian_inv_partials(x)[1][k]
        assert np.abs(an_r - fd_r).max() / np.abs(an_r).max() < 1e-6
        fd_l = (so3.left_jacobian_inv(x + e) - so3.left_jacobian_inv(x - e)) / (2 * step)
        an_l = so3.left_jacobian_inv_partials(x)[1][k]
        assert np.abs(an_l - fd_l).max() / np.abs(an_l).max() < 1e-6


@pytest.mark.parametrize("side", ["right", "left"])
def test_generic_partials_match_fd_on_se3(se3, side):
    jinv = getattr(se3, f"{side}_jacobian_inv")
    rng = np.random.default_rng(23)
    xs = rng.standard_normal((8, 6))
    xs *= rng.uniform(0.05, 1.0, (8, 1)) / np.linalg.norm(xs, axis=1, keepdims=True)
    parts = getattr(se3, f"{side}_jacobian_inv_partials")(xs)[1]
    assert parts.shape == (6, 8, 6, 6)
    step = 1e-6
    for k in range(6):
        e = np.zeros(6)
        e[k] = step
        fd = (jinv(xs + e) - jinv(xs - e)) / (2 * step)
        assert np.abs(parts[k] - fd).max() / np.abs(parts[k]).max() < 1e-6


@pytest.mark.parametrize("batch", [(), (12,), (2, 5)])
def test_generic_partials_match_closed_forms_batched(so3, generic_so3, batch):
    rng = np.random.default_rng(29)
    xs = random_ball(rng, 2.0, count=int(np.prod(batch))).reshape(batch + (3,))
    for side in ("right", "left"):
        got = getattr(generic_so3, f"{side}_jacobian_inv_partials")(xs)[1]
        want = getattr(so3, f"{side}_jacobian_inv_partials")(xs)[1]
        assert got.shape == want.shape == (3,) + batch + (3, 3)
        for k in range(3):
            assert np.abs(got[k] - want[k]).max() < 1e-13


@pytest.mark.parametrize("name", ["generic_so3", "se3"])
def test_generic_pair_matches_longdouble_phi_series(request, name):
    # one batch, so the term count follows its largest row, up to pi - 1e-3
    group = request.getfixturevalue(name)
    rng = np.random.default_rng(41)
    radii = np.repeat([0.0, 1e-3, 0.5, 1.0, 2.0, 3.1, np.pi - 1e-3], 4)
    rot = rng.standard_normal((len(radii), 3))
    rot *= (radii / np.linalg.norm(rot, axis=1))[:, None]
    xs = np.concatenate([rot, rng.standard_normal((len(radii), group.dim - 3))], axis=1)
    jinv, parts = group.left_jacobian_inv_partials(xs)
    assert jinv.shape == (len(xs), group.dim, group.dim)
    assert parts.shape == (group.dim, len(xs), group.dim, group.dim)
    for i, x in enumerate(xs):
        want_inv, want_parts = phi_pair_longdouble(group, x)
        assert np.abs(jinv[i] - want_inv).max() < 1e-13
        assert np.abs(parts[:, i] - want_parts).max() < 1e-13


@pytest.mark.parametrize("batch", [(), (12,), (2, 5)])
@pytest.mark.parametrize("name", ["generic_so3", "se3"])
def test_power_stack_series_matches_term_recurrence(request, name, batch):
    # J_l, alone and with every partial, within 1e-14 of the recurrence,
    # relative to the largest entry, for |x| up to 3.1
    group = request.getfixturevalue(name)
    rng = np.random.default_rng(59)
    xs = rng.standard_normal(batch + (group.dim,))
    xs *= rng.uniform(0.0, 3.1, batch + (1,)) / np.linalg.norm(xs, axis=-1, keepdims=True)
    cases = [xs, 3.1 * xs / np.linalg.norm(xs, axis=-1, keepdims=True)]
    for x in cases:
        jac, djac = group._phi_series(x, partials=True)
        want_jac, want_djac = phi_series_recurrence(group, x)
        assert jac.shape == want_jac.shape and djac.shape == want_djac.shape
        assert np.abs(jac - want_jac).max() <= 1e-14 * np.abs(want_jac).max()
        assert np.abs(djac - want_djac).max() <= 1e-14 * np.abs(want_djac).max()
        alone, none = group._phi_series(x)
        assert none is None and np.abs(alone - want_jac).max() <= 1e-14 * np.abs(want_jac).max()


@pytest.mark.parametrize("rho", [10.0, 100.0, 1000.0])
def test_generic_pair_term_count_follows_the_powers(se3, monkeypatch, rho):
    # A translation rho enters every power of ad x only linearly, so at
    # rotation 0.37 the count stays at most 40 and the pair within 1e-13 of
    # the long double series; at rho = 1000 the pair stays finite.
    rng = np.random.default_rng(61)
    rot, trans = rng.standard_normal((2, 3))
    x = np.concatenate([0.37 * rot / np.linalg.norm(rot), rho * trans / np.linalg.norm(trans)])
    counts = record_term_counts(monkeypatch)
    jinv, parts = se3.left_jacobian_inv_partials(x)
    assert np.isfinite(jinv).all() and np.isfinite(parts).all()
    assert counts[-1] is not None and counts[-1] <= 40
    if rho <= 100:
        want_inv, want_parts = phi_pair_longdouble(se3, x)
        assert np.abs(jinv - want_inv).max() <= 1e-13 * np.abs(want_inv).max()
        assert np.abs(parts - want_parts).max() <= 1e-13 * np.abs(want_parts).max()


def test_generic_series_past_the_kept_weight_table(so3, generic_so3, monkeypatch):
    # |x| = 14 needs more than the 64 powers whose weights a group keeps; the
    # series then cancels terms up to 14^14 / 14! ~ 1e5, so it matches the
    # closed forms to about 1e-11, within the 1e-9 bound.
    x = 14.0 * np.array([[0.6, 0.0, 0.8], [0.0, 0.28, 0.96]])
    counts = record_term_counts(monkeypatch)
    got = (generic_so3.left_jacobian(x),) + generic_so3.left_jacobian_inv_partials(x)
    assert min(count for count in counts if count is not None) > 64
    want = (so3.left_jacobian(x),) + so3.left_jacobian_inv_partials(x)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


@pytest.mark.parametrize("name", ["generic_so3", "se3"])
def test_generic_jacobian_singular_at_two_pi(request, name):
    group = request.getfixturevalue(name)
    x = np.zeros((2, group.dim))
    x[:, :3] = np.array([[0.5], [2 * np.pi]]) * np.array([0.0, 0.6, 0.8])
    group.left_jacobian_inv_partials(x[0])
    with pytest.raises(SingularJacobianError):
        group.left_jacobian_inv(x[1])
    with pytest.raises(SingularJacobianError):
        group.left_jacobian_inv_partials(x)


def test_abelian_inv_partial_is_zero(diag3):
    x = np.array([0.4, 0.1, -0.3])
    jinv, parts = diag3.right_jacobian_inv_partials(x)
    assert np.array_equal(jinv, np.eye(3))
    for k in range(3):
        assert np.array_equal(parts[k], np.zeros((3, 3)))


# -- SO(3) closed-form kernels: Taylor branch, 1e-4 switch, batch shapes ------

_KERNEL_NORMS = (0.0, 1e-12, 9.9e-5, 1.01e-4, 1.0, np.pi - 1e-3)
_KERNELS = ("exp", "left_jacobian", "left_jacobian_inv",
            "left_jacobian_inv_partials", "right_jacobian_inv_partials")


def _kernel_rows():
    """Twelve rows, two random directions at each of ``_KERNEL_NORMS``."""
    rng = np.random.default_rng(31)
    v = rng.standard_normal((12, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * np.repeat(_KERNEL_NORMS, 2)[:, None]


def _kernel(group, name):
    """The kernel as a function returning one array: of a pair, the partials."""
    fn = getattr(group, name)
    return (lambda x: fn(x)[1]) if name.endswith("partials") else fn


def _row(out, name, idx):
    """Element ``idx`` of a kernel output; partials carry k in front."""
    return out[(slice(None),) + idx] if name.endswith("partials") else out[idx]


@pytest.mark.parametrize("batch", [(), (12,), (2, 5)])
def test_so3_kernels_rows_bitwise_and_match_series(so3, generic_so3, batch):
    rows = _kernel_rows()
    for name in _KERNELS:
        fn = _kernel(so3, name)
        if batch == ():     # one vector against a batch of one, row by row
            for x in rows:
                assert_bitwise(fn(x), _row(fn(x[None]), name, (0,)))
            continue
        xs = rows[:int(np.prod(batch))].reshape(batch + (3,))
        got = fn(xs)
        for idx in np.ndindex(*batch):
            assert_bitwise(_row(got, name, idx), fn(xs[idx]))
        # Against the phi series, to 1e-14 for |x| <= 1
        norm = np.linalg.norm(xs, axis=-1)
        err = np.abs(got - _kernel(generic_so3, name)(xs))
        err = err.max(axis=(0, -2, -1) if name.endswith("partials") else (-2, -1))
        assert err[norm <= 1.0].max() < 1e-14
    if batch:       # the pair's J^-1 is the inverse Jacobian bit for bit
        for side in ("left", "right"):
            pair = getattr(so3, f"{side}_jacobian_inv_partials")(xs)
            assert_bitwise(pair[0], getattr(so3, f"{side}_jacobian_inv")(xs))


def test_chart_boundary_decisions(so3):
    # in_domain decides |x| < pi exactly as np.linalg.norm does, at the last bit
    rng = np.random.default_rng(37)
    dirs = np.concatenate([np.eye(3), rng.standard_normal((300, 3))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs = np.concatenate([dirs * (np.pi * f) for f in (1 - 4e-16, 1.0, 1 + 4e-16)])
    want = np.linalg.norm(xs, axis=-1) < np.pi
    assert want.any() and not want.all()
    assert np.array_equal(so3.in_domain(xs), want)
    assert [so3.in_domain(x) for x in xs[::10]] == want[::10].tolist()
    # log_masked flags arccos((trace - 1) / 2) > pi - 1e-9 row by row: one row
    # at pi - 1e-10 among clear rows, then rows at pi - 1e-10 ... pi - 1e-7
    angles = np.concatenate([[0.0, 1e-5, 1.0, np.pi - 1e-3, np.pi - 1e-10, 2.0],
                             np.pi - 10 ** rng.uniform(-10, -7, 297)])
    axes = dirs.copy()
    axes[4] = [0.0, 0.6, 0.8]
    g = so3.exp(axes * angles[:, None])
    trace = np.trace(g, axis1=-2, axis2=-1)
    flagged = np.arccos(np.clip((trace - 1) / 2, -1.0, 1.0)) > np.pi - 1e-9
    x, ok = so3.log_masked(g)
    assert ok[:6].tolist() == [True, True, True, True, False, True]
    assert flagged[6:].any() and not flagged[6:].all()
    assert np.array_equal(ok, ~flagged)
    assert np.isnan(x[~ok]).all() and np.isfinite(x[ok]).all()
    for i in range(0, len(g), 10):
        xi, oki = so3.log_masked(g[i])
        assert oki == ok[i]
        assert np.array_equal(xi, x[i], equal_nan=True)


_SWITCH_NORMS = (0.0, 1e-12, 9.9e-5, 1.01e-4, 0.49, 0.51, np.pi - 1e-3)


def test_so3_kernels_raise_no_fp_error_at_their_switches(so3):
    """Each branch runs on the elements that take it, alone and in a batch
    with the other branches, and none divides by zero or overflows: rows on
    both sides of the 1e-4 and 0.5 switches, at 0 and near pi."""
    rng = np.random.default_rng(41)
    v = rng.standard_normal((len(_SWITCH_NORMS), 3))
    xs = v / np.linalg.norm(v, axis=1, keepdims=True) * np.array(_SWITCH_NORMS)[:, None]
    with np.errstate(all="raise"):
        g = so3.exp(xs)
        calls = [(name, _kernel(so3, name), xs) for name in _KERNELS]
        calls.append(("log_masked", lambda h: so3.log_masked(h)[0], g))
        for name, fn, rows in calls:
            batch = fn(rows)
            for idx, row in enumerate(rows):
                assert_bitwise(_row(batch, name, (idx,)), fn(row))
        assert so3.log_masked(g)[1].all()


def test_so3_one_vector_equals_its_row_of_a_batch(so3):
    """A single vector's kernels run on numpy scalars, a batch's on arrays,
    whose powers differ in the last bit on about 0.1% of squares: every
    kernel must square by multiplication, so that no row's bits depend on
    whether it came alone."""
    xs = random_ball(np.random.default_rng(43), np.pi - 1e-3, 4000)
    for name in ("exp", "left_jacobian", "left_jacobian_inv"):
        fn = getattr(so3, name)
        batch = fn(xs)
        assert all(np.array_equal(fn(x), row) for x, row in zip(xs, batch)), name


# -- contractions on a stack sharing one mean ---------------------------------------

def test_so3_log_about_matches_the_stacked_log(so3):
    # Trace and skew part from one GEMM on the rows of g, then log_masked's
    # tail: the round trip is as accurate as log_masked(inv(mu) @ g)'s at
    # every angle, on both Taylor switches and up to item 2's pi - 1e-6.
    rng = np.random.default_rng(73)
    mu = so3.exp(np.array([0.4, -0.2, 0.9]))
    for theta in (1e-6, 9e-5, 1e-3, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-6):
        d = rng.standard_normal((10_000, 3))
        x = d / np.linalg.norm(d, axis=1, keepdims=True) * theta
        g = mu @ so3.exp(x)
        about = so3.log_about(mu, g)
        stacked, ok = so3.log_masked(np.linalg.inv(mu) @ g)
        assert ok.all() and about.shape == x.shape
        err = np.linalg.norm(about - x, axis=1).max()
        assert err <= 1.5 * np.linalg.norm(stacked - x, axis=1).max(), theta
        if 0.3 <= theta <= 2.0:
            assert np.abs(about - stacked).max() <= 1e-15 * theta
    strided = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)[::3]
    assert_bitwise(so3.log_about(mu, strided), so3.log_about(mu, g[::3]))
    near_pi = so3.exp(np.array([[0.1, 0.2, 0.3], [0.0, 0.6, 0.8]]) * [[1.0], [np.pi - 1e-10]])
    assert so3.log_masked(near_pi)[1].tolist() == [True, False]
    with pytest.raises(LieDomainError):
        so3.log_about(np.eye(3), near_pi)


def test_left_multiply_is_the_stacked_product_bitwise(so3, se3, diag3):
    # kron(a, I)'s zeros add +0 to each of the n-term sums, so one GEMM on
    # the rows of g gives every product a @ g_i bit for bit; the 12 SE(3)
    # cubature nodes of a pose step take the stacked product itself.
    rng = np.random.default_rng(79)
    root6 = rng.standard_normal((6, 6)) * 0.3
    cases = ((so3, rng.standard_normal((10_000, 3)) * 0.8),
             (se3, expectation_nodes(np.zeros(6), root6 @ root6.T)),
             (se3, rng.standard_normal((1_000, 6)) * 0.5),
             (diag3, rng.standard_normal((500, 3)) * 0.3))
    for group, x in cases:
        a = group.exp(rng.standard_normal(group.dim) * 0.5)
        g = group.exp(x)
        assert_bitwise(groups.left_multiply(a, g), a @ g)
        assert_bitwise(groups.left_multiply(np.linalg.inv(a), g), np.linalg.inv(a) @ g)
        if group is diag3:       # the generic log_about is the stacked log bit for bit
            assert_bitwise(group.log_about(a, g), group.log(np.linalg.inv(a) @ g))


def test_so3_ito_curvature_closed_form_matches_the_pair(so3):
    # The closed form against the contraction of the (J_r^-1, dJ_r^-1) pair,
    # on both branches of the inverse-Jacobian coefficient (switch 0.5), for
    # a shared and a per-state H H^T; J_r^-1 is right_jacobian_inv's.
    rng = np.random.default_rng(83)
    big = rng.standard_normal((3, 3)) * 0.2
    for lo, hi in ((0.1, 0.45), (0.6, 2.5)):
        d = rng.standard_normal((2_000, 3))
        x = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(lo, hi, (2_000, 1))
        per_row = big * (1.0 + x[:, :, None])
        for hht in (big @ big.T, per_row @ np.swapaxes(per_row, -1, -2)):
            jri, curvature = so3.right_jacobian_inv_curvature(x, hht)
            assert_bitwise(jri, so3.right_jacobian_inv(x))
            want = groups.MatrixLieGroup.right_jacobian_inv_curvature(so3, x, hht)[1]
            assert np.abs(curvature - want).max() <= 2e-15 * np.abs(want).max()
    one = so3.right_jacobian_inv_curvature(x[0], big @ big.T)
    assert_bitwise(one[0], so3.right_jacobian_inv(x[0]))
    assert np.abs(one[1] - so3.right_jacobian_inv_curvature(x[:1], big @ big.T)[1][0]).max() \
        <= 1e-16


# -- ad operator ---------------------------------------------------------------

def test_ad_zero(so3, diag3):
    assert np.array_equal(so3.ad(np.zeros(3)), np.zeros((3, 3)))
    assert np.array_equal(diag3.ad(np.array([1.0, 2.0, 3.0])), np.zeros((3, 3)))


def test_ad_matches_bracket(so3, generic_so3):
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        for group in (so3, generic_so3):
            bracket = group.wedge(x) @ group.wedge(y) - group.wedge(y) @ group.wedge(x)
            assert np.abs(group.ad(x) @ y - group.vee(bracket)).max() < 1e-13


def test_ad_antisymmetry(so3):
    rng = np.random.default_rng(19)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.abs(so3.ad(x) @ y + so3.ad(y) @ x).max() < 1e-13


# -- Lie directional derivatives -----------------------------------------------

def test_lie_derivative_of_constant_is_zero(so3):
    g = so3.exp(np.array([0.2, -0.1, 0.4]))
    for i in range(3):
        assert np.abs(lie_derivative_right(so3, lambda g: np.array([2.5]), g, i)).max() < 1e-9
        for j in range(3):
            assert np.abs(lie_derivative_right_second(
                so3, lambda g: np.array([2.5]), g, i, j)).max() < 1e-5


def test_lie_derivative_linear_map_analytic(so3):
    v = np.array([0.7, -0.3, 1.1])
    f = lambda g: g.T @ v
    for i in range(3):
        exact = so3.basis[i].T @ v            # d/dt (exp(tE_i))^T v at t=0
        got = lie_derivative_right(so3, f, np.eye(3), i)
        assert np.abs(got - exact).max() < 1e-8


def test_lie_derivative_stack_matches_per_element_products(so3, se3):
    # The stack is shifted as one product on its rows; it must hand f the
    # per-element products g @ exp(+-s E_i) bit for bit, for a non-contiguous
    # view too.
    rng = np.random.default_rng(37)
    view = so3.exp(rng.standard_normal((4, 6, 3)))[:, ::2].swapaxes(-1, -2)
    cases = [(so3, so3.exp(rng.standard_normal((2, 5, 3)))), (so3, view),
             (se3, se3.exp(rng.standard_normal((7, 6))))]
    step = 1e-5
    for group, g in cases:
        for i in range(group.dim):
            seen = []
            got = lie_derivative_right(group, lambda h: seen.append(h) or h, g, i)
            want = []
            for shift in group._stencil(i):
                ref = np.empty(g.shape)
                for idx in np.ndindex(*g.shape[:-2]):
                    ref[idx] = g[idx] @ shift
                want.append(ref)
            assert_bitwise(seen[0], want[0])
            assert_bitwise(seen[1], want[1])
            assert_bitwise(got, (want[0] - want[1]) / (2 * step))


def test_lie_second_derivative_linear_map_analytic(so3):
    v = np.array([0.4, 0.9, -0.2])
    f = lambda g: g.T @ v
    g0 = so3.exp(np.array([0.3, 0.1, -0.2]))
    for i in range(3):
        for j in range(3):
            exact = (g0 @ so3.basis[i] @ so3.basis[j]).T @ v
            got = lie_derivative_right_second(so3, f, g0, i, j)
            assert np.abs(got - exact).max() < 1e-5


@pytest.mark.parametrize("name", ["so3", "se3"])
def test_lie_derivative_index_arrays_match_scalar_calls(request, name):
    # An index array i = arange(N), as fusion's linearization passes it,
    # hands f two (N, n, n) stacks whose elements are the per-direction
    # stencil products bit for bit; (N, 1) gives (N, 1, n, n) stacks and a
    # stack of g, (B, n, n), gives (N, B, n, n).  The derivatives are the
    # per-direction ones bit for bit.
    group = request.getfixturevalue(name)
    dim, size = group.dim, group.mat_size
    rng = np.random.default_rng(67)
    g = group.exp(0.7 * rng.standard_normal(dim))
    v = rng.standard_normal(size)
    seen = []

    def f(h):
        seen.append(h)
        return np.einsum("...ji,j->...i", h, v)

    axis = np.arange(dim)
    got = lie_derivative_right(group, f, g, axis)
    stacks = seen[:]
    assert [h.shape for h in stacks] == [(dim, size, size)] * 2
    assert got.shape == (dim, size)
    seen.clear()
    column = lie_derivative_right(group, f, g, axis[:, None])
    assert [h.shape for h in seen] == [(dim, 1, size, size)] * 2
    assert_bitwise(column.reshape(got.shape), got)
    for i in range(dim):
        seen.clear()
        want = lie_derivative_right(group, f, g, i)
        assert [h.shape for h in seen] == [(size, size)] * 2
        for stack, single in zip(stacks, seen):
            assert_bitwise(stack[i], single)
        assert_bitwise(got[i], want)
    gs = group.exp(0.5 * rng.standard_normal((4, dim)))
    seen.clear()
    got = lie_derivative_right(group, f, gs, axis)
    assert [h.shape for h in seen] == [(dim, 4, size, size)] * 2
    for i in range(dim):
        assert_bitwise(got[i], lie_derivative_right(group, f, gs, i))


@pytest.mark.parametrize("name", ["so3", "se3"])
def test_lie_second_derivative_index_arrays_match_scalar_calls(request, name):
    # Index arrays i = repeat(arange(N), N), j = tile(arange(N), N), as
    # fusion's linearization passes them, hand f four flat (N^2, n, n) stacks
    # whose elements are the per-pair stencil products bit for bit; (N, 1)
    # against (N,) gives (N, N) stacks with the same elements.  The
    # derivatives are the per-pair ones bit for bit.
    group = request.getfixturevalue(name)
    dim, size = group.dim, group.mat_size
    rng = np.random.default_rng(43)
    g = group.exp(0.7 * rng.standard_normal(dim))
    v = rng.standard_normal(size)
    seen = []

    def f(h):
        seen.append(h)
        return np.einsum("...ji,j->...i", h, v)

    axis = np.arange(dim)
    got = lie_derivative_right_second(group, f, g, np.repeat(axis, dim), np.tile(axis, dim))
    stacks = seen[:]
    assert [h.shape for h in stacks] == [(dim * dim, size, size)] * 4
    assert got.shape == (dim * dim, size)
    seen.clear()
    square = lie_derivative_right_second(group, f, g, axis[:, None], axis)
    assert [h.shape for h in seen] == [(dim, dim, size, size)] * 4
    for flat, grid in zip(stacks, seen):
        assert_bitwise(flat, grid.reshape(flat.shape))
    assert_bitwise(got, square.reshape(got.shape))
    shifts = np.diag(np.full(dim, 1e-5))
    for i in range(dim):
        for j in range(dim):
            k = i * dim + j
            assert_bitwise(stacks[0][k], g @ group.exp(shifts[i]) @ group.exp(shifts[j]))
            seen.clear()
            want = lie_derivative_right_second(group, f, g, i, j)
            assert [h.shape for h in seen] == [(size, size)] * 4
            for stack, single in zip(stacks, seen):
                assert_bitwise(stack[k], single)
            assert_bitwise(got[k], want)


# -- chart expansion and truncated BCH ------------------------------------------

def test_expand_log_perturbation_zero_eps(so3):
    x = np.array([0.3, 0.1, -0.2])
    assert np.allclose(expand_log_perturbation(so3, np.zeros(3), x), x)


def test_expand_log_perturbation_matches_exact_log(so3):
    eps = 1e-3 * np.ones(3)
    x = np.array([0.3, 0.1, -0.2])
    exact = so3.log(so3.exp(-eps) @ so3.exp(x))
    got = expand_log_perturbation(so3, eps, x)
    assert np.abs(got - exact).max() < 1e-8


def test_expand_log_perturbation_abelian(diag3):
    eps = np.array([0.01, -0.02, 0.03])
    x = np.array([0.5, 0.2, -0.4])
    assert np.allclose(expand_log_perturbation(diag3, eps, x), x - eps, atol=1e-16)


def test_bch_zero_second_argument(so3):
    x = np.array([0.2, -0.4, 0.1])
    assert np.allclose(bch_truncated(so3, x, np.zeros(3)), x)


def test_bch_matches_exact_log_for_small_inputs(so3):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        x = random_ball(rng, 0.05)[0]
        r = random_ball(rng, 0.05)[0]
        exact = so3.log(so3.exp(x) @ so3.exp(r))
        worst = max(worst, float(np.abs(bch_truncated(so3, x, r) - exact).max()))
    assert worst < 5e-6


def test_bch_abelian_is_plain_sum(diag3):
    x = np.array([0.2, -0.1, 0.3])
    r = np.array([-0.4, 0.5, 0.05])
    assert np.allclose(bch_truncated(diag3, x, r), x + r, atol=1e-16)
