import numpy as np
import pytest

from liefilter import sde
from liefilter.distribution import expectation_nodes
from liefilter.errors import DomainExitError
from liefilter.sde import (
    ITO,
    STRATONOVICH,
    ParametricSdeModel,
    PathConfig,
    SdeModel,
    ito_injection_to_parametric,
    parametric_stratonovich_to_ito,
    sample_nonparametric_path,
    sample_parametric_path,
    stratonovich_injection_to_parametric,
    stratonovich_to_ito,
    _chart_coefficients,
    _mv,
    wiener_halves,
)
from liefilter.groups import SO3, MatrixLieGroup, lie_derivative_right

from conftest import assert_bitwise


def const(value):
    arr = np.asarray(value, float)
    return lambda state, t: arr


def const_pair(a, big):
    pair = (np.asarray(a, float), np.asarray(big, float))
    return lambda x, t: pair


def rk4_flow(f, x0, total_time, steps):
    """Classic fixed-step RK4, the independent deterministic oracle."""
    x = np.asarray(x0, float).copy()
    dt = total_time / steps
    for i in range(steps):
        t = i * dt
        k1 = f(x, t)
        k2 = f(x + dt / 2 * k1, t + dt / 2)
        k3 = f(x + dt / 2 * k2, t + dt / 2)
        k4 = f(x + dt * k3, t + dt)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# -- trivial paths ---------------------------------------------------------------

def test_zero_coefficients_give_constant_path(so3):
    model = SdeModel(const(np.zeros(3)), const(np.zeros((3, 3))))
    g0 = so3.exp(np.array([0.3, -0.4, 0.2]))
    path = sample_nonparametric_path(so3, model, g0, PathConfig(1.0, 16, seed=0))
    assert np.abs(path - g0).max() < 1e-15


def test_constant_drift_follows_one_parameter_subgroup(so3):
    c = np.array([0.4, -0.3, 0.25])
    model = SdeModel(const(c), const(np.zeros((3, 3))))
    g0 = so3.exp(np.array([0.1, 0.8, -0.2]))
    for steps in (1, 7, 40):
        final = sample_nonparametric_path(
            so3, model, g0, PathConfig(0.5, steps, seed=0), store_path=False)
        assert np.abs(final[0] - g0 @ so3.exp(0.5 * c)).max() < 1e-12


@pytest.mark.parametrize("reading", ["Stratonovich", "ITO", "strat", None])
def test_models_reject_an_unknown_interpretation(reading):
    """A misspelt reading would otherwise be sampled as Ito."""
    with pytest.raises(ValueError, match="interpretation"):
        SdeModel(const(np.zeros(3)), const(np.zeros((3, 3))), reading)
    with pytest.raises(ValueError, match="interpretation"):
        ParametricSdeModel(np.eye(3), const_pair(np.zeros(3), np.zeros((3, 3))), reading)


def test_parametric_zero_coefficients_constant(so3):
    model = ParametricSdeModel(np.eye(3), const_pair(np.zeros(3), np.zeros((3, 3))))
    x0 = np.array([0.2, 0.1, -0.3])
    path = sample_parametric_path(so3, model, x0, PathConfig(1.0, 10, seed=1))
    assert np.abs(path - x0).max() < 1e-16


# -- small-noise statistics -------------------------------------------------------

@pytest.mark.parametrize("sigma, total_time, steps", [(0.5, 1.0, 100), (1.0, 0.5, 50)])
def test_sampler_mean_matches_closed_form(so3, sigma, total_time, steps):
    # E[exp(s Z)] = c(s) I for Z ~ N(0, I_3), c(s) = (1 + 2 (1 - s^2) e^(-s^2/2)) / 3
    # (trace 1 + 2 cos|sZ|), and the increments are independent, so the Ito
    # injection sampler g exp(sigma dW) has E[g_N] = g_0 c(sigma sqrt(dt))^N
    g0 = so3.exp(np.array([0.3, -0.2, 0.5]))
    model = SdeModel(const(np.zeros(3)), const(sigma * np.eye(3)))
    cfg = PathConfig(total_time, steps, seed=1, path_count=20_000)
    finals = sample_nonparametric_path(so3, model, g0, cfg, store_path=False)
    s2 = sigma**2 * cfg.dt
    want = g0 * ((1 + 2 * (1 - s2) * np.exp(-s2 / 2)) / 3) ** steps
    stderr = finals.std(axis=0, ddof=1) / np.sqrt(cfg.path_count)
    assert np.all(np.abs(finals.mean(axis=0) - want) < 4.5 * stderr)


def test_isotropic_diffusion_covariance(so3):
    sigma, total = 0.2, 0.5
    model = SdeModel(const(np.zeros(3)), const(sigma * np.eye(3)))
    g0 = so3.exp(np.array([0.5, 0.2, -0.1]))
    cfg = PathConfig(total, 500, seed=11, path_count=10_000)
    finals = sample_nonparametric_path(so3, model, g0, cfg, store_path=False)
    logs = so3.log(np.linalg.inv(g0) @ finals)
    emp = np.cov(logs.T)
    target = sigma**2 * total
    assert np.abs(np.diag(emp) - target).max() / target < 0.05
    off = emp - np.diag(np.diag(emp))
    assert np.abs(off).max() < 3 * target * np.sqrt(2 / cfg.path_count) * 1.5


def test_abelian_parametric_matches_scalar_moments(diag1):
    sigma, total = 0.4, 1.0
    model = ParametricSdeModel(np.eye(1), const_pair(np.zeros(1), sigma * np.eye(1)))
    cfg = PathConfig(total, 200, seed=12, path_count=20_000)
    finals = sample_parametric_path(diag1, model, np.zeros(1), cfg, store_path=False)
    var = finals.var()
    target = sigma**2 * total
    mc_se = target * np.sqrt(2 / cfg.path_count)
    assert abs(finals.mean()) < 3 * sigma * np.sqrt(total / cfg.path_count)
    assert abs(var - target) < 3 * mc_se


def test_deterministic_parametric_matches_rk4_oracle(so3):
    def htilde(x, t):
        return 0.3 * np.stack([np.sin(x[..., 1] + 0.3), np.cos(x[..., 0]),
                               x[..., 2] * 0 + 0.2], axis=-1)

    def coefficients(x, t):
        return _mv(so3.right_jacobian_inv(x), htilde(x, t)), np.zeros((3, 3))

    model = ParametricSdeModel(np.eye(3), coefficients)
    total, steps = 0.1, 1000
    got = sample_parametric_path(so3, model, np.zeros(3),
                                 PathConfig(total, steps, seed=0),
                                 store_path=False)[0]

    def field(x, t):
        return so3.right_jacobian_inv(x) @ htilde(x, t)

    oracle = rk4_flow(field, np.zeros(3), total, 10 * steps)
    assert np.abs(got - oracle).max() < 1e-6


# -- determinism and domain checks -------------------------------------------------

def test_paths_bitwise_deterministic(so3):
    model = SdeModel(const(np.array([0.1, 0.0, -0.2])), const(0.3 * np.eye(3)))
    cfg = PathConfig(0.3, 60, seed=77, path_count=8)
    a = sample_nonparametric_path(so3, model, np.eye(3), cfg)
    b = sample_nonparametric_path(so3, model, np.eye(3), cfg)
    assert np.array_equal(a, b)


def test_wiener_halves_pure_function_of_key():
    a = wiener_halves(5, 3, 10, 3, 1e-3)
    b = wiener_halves(5, 3, 10, 3, 1e-3)
    c = wiener_halves(5, 4, 10, 3, 1e-3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wiener_halves_keys_philox_with_the_seed_itself():
    # a seed reduced modulo 2**64 would alias -1 with 2**64 - 1 and 2**64 with 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            wiener_halves(seed, 7, 4, 3, 1e-2)
    # the in-place scaling must give the bits of a product array
    for seed, paths in ((0, 4), (2**64 - 1, 4), (42, 10_000)):
        direct = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 7]))
        want = direct.standard_normal((paths, 2, 3)) * np.sqrt(1e-2 / 2.0)
        assert_bitwise(wiener_halves(seed, 7, paths, 3, 1e-2), want)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(total_time=1.0, steps=0, seed=0)
    with pytest.raises(ValueError):
        PathConfig(total_time=-1.0, steps=5, seed=0)
    for total in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="total_time must be positive and finite"):
            PathConfig(total_time=total, steps=5, seed=0)
    for steps in (0, 2.5, float("nan"), np.float64(3.0)):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            PathConfig(total_time=1.0, steps=steps, seed=0)
    assert PathConfig(total_time=1.0, steps=np.int64(4), seed=0).dt == 0.25
    # the Philox key is the seed modulo 2**64, so -1 and 2**64 would alias
    # 2**64 - 1 and 0
    for seed in (-1, 2**64, 2.5, 3.0, float("nan"), "7"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            PathConfig(total_time=1.0, steps=5, seed=seed)
    for count in (0, -1, 2.5, float("nan"), np.float64(3.0)):
        with pytest.raises(ValueError, match="path_count must be an integer >= 1"):
            PathConfig(total_time=1.0, steps=5, seed=0, path_count=count)
    for seed in (0, np.uint64(2**64 - 1), 2**64 - 1):
        assert PathConfig(total_time=1.0, steps=5, seed=seed, path_count=np.int64(2)).seed == seed


def test_parametric_domain_exit_reports_step(so3):
    # on the x-axis J_r^-1 e_0 = e_0, so this is also the chart form of the
    # injection drift 5 e_0
    model = ParametricSdeModel(np.eye(3), const_pair([5.0, 0, 0], np.zeros((3, 3))))
    with pytest.raises(DomainExitError) as err:
        sample_parametric_path(so3, model, np.array([3.0, 0, 0]),
                               PathConfig(0.1, 10, seed=0))
    assert err.value.step == 3


def _counting_so3():
    """A fresh SO3 whose exp and right-Jacobian methods count their calls."""
    group, calls = SO3(), {}
    for name in ("exp", "right_jacobian", "right_jacobian_inv",
                 "right_jacobian_inv_partials", "right_jacobian_inv_curvature"):
        def counted(*args, _name=name, _method=getattr(group, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(*args)
        setattr(group, name, counted)
    return group, calls


@pytest.mark.parametrize("interpretation, convert, per_step", [
    (ITO, ito_injection_to_parametric,
     {"exp": 1, "right_jacobian_inv_curvature": 1}),
    (STRATONOVICH, stratonovich_injection_to_parametric,
     {"exp": 2, "right_jacobian_inv": 2}),
])
def test_chart_step_evaluates_each_jacobian_once(interpretation, convert, per_step):
    # The sampler applies no Jacobian; the converted coefficients evaluate
    # the exp and the Jacobian (or the Jacobian with the Ito curvature) once
    # per coefficient call, and never the partials.
    group, calls = _counting_so3()
    model = SdeModel(const(np.array([0.3, -0.2, 0.1])), const(0.2 * np.eye(3)),
                     interpretation)
    par = convert(group, model, group.exp(np.array([0.4, 0.2, -0.3])))
    calls.clear()
    steps = 4
    sample_parametric_path(group, par, np.zeros(3),
                           PathConfig(0.1, steps, seed=0, path_count=5))
    assert calls == {name: steps * count for name, count in per_step.items()}


# -- Ito injection -> chart coefficients -------------------------------------------

def test_injection_to_parametric_no_correction_without_noise(so3):
    h = np.array([0.3, -0.1, 0.2])
    model = SdeModel(const(h), const(np.zeros((3, 3))))
    par = ito_injection_to_parametric(so3, model, np.eye(3))
    x = np.array([0.4, 0.2, -0.3])
    a, big = par.coefficients(x, 0.0)
    assert np.abs(a - so3.right_jacobian_inv(x) @ h).max() < 1e-14
    assert not big.any()


def test_injection_to_parametric_abelian_identity(diag3):
    h = np.array([0.5, -0.2, 0.1])
    model = SdeModel(const(h), const(0.7 * np.eye(3)))
    par = ito_injection_to_parametric(diag3, model, diag3.exp(np.ones(3)))
    x = np.array([0.3, 0.3, -0.6])
    assert np.abs(par.coefficients(x, 0.0)[0] - h).max() < 1e-15


@pytest.mark.parametrize("big_h", [
    np.eye(3),
    np.array([[0.2, 0.05, 0.0], [0.0, 0.15, 0.1], [0.02, 0.0, 0.3]]),
])
def test_injection_drift_correction_matches_fd_assembly(so3, big_h):
    model = SdeModel(const(np.zeros(3)), const(big_h))
    par = ito_injection_to_parametric(so3, model, np.eye(3))
    hht = big_h @ big_h.T
    for x in (np.array([0.2, 0.0, 0.0]), np.array([-0.3, 0.5, 0.1])):
        got = par.coefficients(x, 0.0)[0]
        # independent assembly: central differences of the closed-form
        # inverse Jacobian replace the analytic partial derivatives
        corr = np.zeros(3)
        jrt_inv = so3.right_jacobian_inv(x).T
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            part = (so3.right_jacobian_inv(x + e)
                    - so3.right_jacobian_inv(x - e)) / 2e-6
            corr += 0.5 * part @ (hht @ jrt_inv[:, k])
        expected = corr
        assert np.abs(got - expected).max() / max(np.abs(expected).max(), 1e-12) < 1e-6


def test_ito_curvature_matches_single_contraction_bitwise(so3, se3):
    # Summed one component at a time, the generic curvature (the base-class
    # method, on SO(3)'s pair too) must equal the single four-index
    # contraction bit for bit.
    def contraction(jri, parts, hht):
        vk = np.einsum("...ij,...kj->...ki", hht, jri)
        return 0.5 * np.einsum("k...ij,...kj->...i", parts, vk)

    rng = np.random.default_rng(53)
    rows = rng.standard_normal((1_000, 3)) * 0.9
    rows[0] = 0.0
    root6 = rng.standard_normal((6, 6)) * 0.3
    nodes = expectation_nodes(root6 @ root6.T)
    for group, x in ((so3, rows), (se3, nodes)):
        big = rng.standard_normal((group.dim, group.dim)) * 0.2
        pair = group.right_jacobian_inv_partials(x)
        per_row = big * x[:, :, None]                   # a state-dependent H
        for hht in (big @ big.T, per_row @ np.swapaxes(per_row, -1, -2)):
            summed = MatrixLieGroup.right_jacobian_inv_curvature(group, x, hht)[1]
            assert_bitwise(summed, contraction(*pair, hht))


@pytest.mark.parametrize("interpretation", [ITO, STRATONOVICH])
def test_chart_coefficients_shared_diffusion_is_the_stacked_product_bitwise(
        so3, se3, interpretation):
    # A shared (N, N) diffusion multiplies all rows of J_r^-1 in one matrix
    # product; a state-dependent (..., N, N) one keeps the stacked product.
    rng = np.random.default_rng(61)
    root6 = rng.standard_normal((6, 6)) * 0.3
    cases = ((so3, rng.standard_normal((10_000, 3)) * 0.5),
             (se3, expectation_nodes(root6 @ root6.T)))
    for group, x in cases:
        big = rng.standard_normal((group.dim, group.dim)) * 0.2
        drift = const(rng.standard_normal(group.dim) * 0.1)
        mu = group.exp(rng.standard_normal(group.dim) * 0.3)
        _, b, jri = _chart_coefficients(group, SdeModel(drift, const(big), interpretation),
                                        mu, x, 0.0)
        assert_bitwise(b, jri @ big)
        per_state = lambda g, t: big * (1.0 + g[..., :1, :1])    # (..., N, N)
        _, b, jri = _chart_coefficients(group, SdeModel(drift, per_state, interpretation),
                                        mu, x, 0.0)
        assert_bitwise(b, jri @ (big * (1.0 + (mu @ group.exp(x))[..., :1, :1])))


# -- Stratonovich <-> Ito -----------------------------------------------------------

def test_stratonovich_to_ito_constant_diffusion_unchanged(so3):
    h = np.array([0.2, 0.1, -0.1])
    model = SdeModel(const(h), const(0.4 * np.eye(3)), STRATONOVICH)
    ito = stratonovich_to_ito(so3, model)
    g = so3.exp(np.array([0.3, -0.2, 0.5]))
    assert ito.interpretation == ITO
    assert np.abs(ito.drift(g, 0.0) - h).max() < 1e-9


def test_stratonovich_to_ito_linear_diffusion_analytic(so3):
    v = np.array([0.6, -0.4, 0.9])

    def diffusion(g, t):
        f = np.einsum("...ji,j->...i", g, v)[..., 0]
        return f[..., None, None] * np.eye(3)

    model = SdeModel(const(np.zeros(3)), diffusion, STRATONOVICH)
    ito = stratonovich_to_ito(so3, model)
    g = so3.exp(np.array([0.2, 0.4, -0.1]))
    f_val = (g.T @ v)[0]
    grad = np.array([(-so3.basis[k] @ g.T @ v)[0] for k in range(3)])
    expected = 0.5 * f_val * grad
    assert np.abs(ito.drift(g, 0.0) - expected).max() < 1e-7


def test_stratonovich_to_ito_recovers_scalar_formula(diag1):
    # H(x) = x gives the classical drift correction H dH/dx / 2 = x / 2
    def diffusion(g, t):
        x = np.log(np.diagonal(g, axis1=-2, axis2=-1))
        return x[..., None] * np.eye(1)

    model = SdeModel(const(np.zeros(1)), diffusion, STRATONOVICH)
    ito = stratonovich_to_ito(diag1, model)
    for xv in (0.3, -0.8, 1.7):
        g = diag1.exp(np.array([xv]))
        assert abs(ito.drift(g, 0.0)[0] - 0.5 * xv) < 1e-9


@pytest.mark.parametrize("case", ["so3", "se3"])
def test_stratonovich_to_ito_makes_one_stencil_call(request, case):
    # The N right derivatives of H come from one stencil call on a leading
    # axis of shifted states, so the diffusion sees 1 + 2 calls per drift
    # evaluation (1 + 2N with a call per direction), and the drift equals
    # the per-direction loop below bit for bit.  Both sums' bits follow the
    # memory layout of H, so this H comes in C order, as arithmetic gives it.
    group = request.getfixturevalue(case)
    dim, n = group.dim, group.mat_size
    rng = np.random.default_rng(67)
    calls = []

    def diffusion(g, t):     # entries of g, tiled to (..., N, N) in C order
        calls.append(np.shape(g))
        flat = np.reshape(g, np.shape(g)[:-2] + (n * n,))
        e = np.concatenate([flat] * dim, -1)[..., :dim * dim].reshape(
            flat.shape[:-1] + (dim, dim))
        return 0.2 * np.eye(dim) + 0.1 * e * (1 + e)

    def per_direction(model, g, t):
        big = model.diffusion(g, t)
        corr = 0.0
        for i in range(dim):
            deriv = lie_derivative_right(group, lambda h: model.diffusion(h, t), g, i)
            corr = corr + 0.5 * np.einsum("...kj,...j->...k", deriv, big[..., i, :])
        return model.drift(g, t) + corr

    h = const(np.linspace(-0.3, 0.3, dim))
    for big_h in (diffusion, const(0.3 * np.eye(dim))):
        model = SdeModel(h, big_h, STRATONOVICH)
        ito = stratonovich_to_ito(group, model)
        for g in (group.exp(0.4 * rng.standard_normal(dim)),
                  group.exp(0.4 * rng.standard_normal((5, dim)))):
            calls.clear()
            got = ito.drift(g, 0.2)
            assert calls == ([g.shape, (dim,) + g.shape, (dim,) + g.shape]
                             if big_h is diffusion else [])
            assert_bitwise(got, per_direction(model, g, 0.2))


def test_stratonovich_to_ito_shared_diffusion_skips_the_stencil(so3, monkeypatch):
    # One (N, N) diffusion for a stack of states is shared by all of them, so
    # its right derivatives are +0: one diffusion call and no stencil.
    stencils, calls = [], []
    monkeypatch.setattr(sde, "lie_derivative_right",
                        lambda *args, **kw: stencils.append(1) or lie_derivative_right(*args, **kw))
    big = np.array([[0.2, 0.05, 0.0], [0.0, 0.18, 0.04], [0.02, 0.0, 0.15]])
    h = np.array([0.3, -0.2, 0.0])
    ito = stratonovich_to_ito(so3, SdeModel(const(h), lambda g, t: calls.append(1) or big,
                                            STRATONOVICH))
    g = so3.exp(np.random.default_rng(89).standard_normal((10_000, 3)) * 0.3)
    assert_bitwise(ito.drift(g, 0.1), h + 0.0)
    assert len(calls) == 1 and not stencils


def test_stratonovich_injection_transfer_is_jr_inv_h_and_jr_inv_big_h(so3):
    h = np.array([0.1, 0.2, 0.3])
    model = SdeModel(const(h), const(0.2 * np.eye(3)), STRATONOVICH)
    mu = so3.exp(np.array([0.5, -0.1, 0.2]))
    par = stratonovich_injection_to_parametric(so3, model, mu)
    x = np.array([0.2, -0.2, 0.4])
    jri = so3.right_jacobian_inv(x)
    a, big = par.coefficients(x, 0.0)
    assert np.array_equal(a, _mv(jri, h))
    assert np.array_equal(big, jri @ (0.2 * np.eye(3)))
    assert par.interpretation == STRATONOVICH


def _state_dependent_strat_model(so3, scale=0.15):
    v = np.array([0.5, -0.2, 0.8])

    def drift(g, t):
        return np.einsum("...ji,j->...i", g, np.array([0.2, 0.1, -0.3]))

    def diffusion(g, t):
        f = scale * (1.0 + 0.4 * np.einsum("...ji,j->...i", g, v)[..., 0])
        eye = np.broadcast_to(np.eye(3), np.shape(f) + (3, 3))
        return f[..., None, None] * eye

    return SdeModel(drift, diffusion, STRATONOVICH)


def test_conversion_diagram_commutes(so3):
    model = _state_dependent_strat_model(so3)
    mu = so3.exp(np.array([0.3, 0.3, -0.2]))
    via_injection = ito_injection_to_parametric(
        so3, stratonovich_to_ito(so3, model), mu)
    via_chart = parametric_stratonovich_to_ito(
        so3, stratonovich_injection_to_parametric(so3, model, mu))
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = 0.4 * rng.standard_normal(3)
        a, big_a = via_injection.coefficients(x, 0.0)
        b, big_b = via_chart.coefficients(x, 0.0)
        assert np.abs(a - b).max() / max(np.abs(a).max(), 1e-12) < 1e-6
        assert np.abs(big_a - big_b).max() < 1e-12


def test_conversion_diagram_exact_without_noise(so3):
    h = np.array([0.4, -0.2, 0.1])
    model = SdeModel(const(h), const(np.zeros((3, 3))), STRATONOVICH)
    mu = so3.exp(np.array([0.1, 0.2, 0.3]))
    via_injection = ito_injection_to_parametric(
        so3, stratonovich_to_ito(so3, model), mu)
    via_chart = parametric_stratonovich_to_ito(
        so3, stratonovich_injection_to_parametric(so3, model, mu))
    x = np.array([0.25, -0.15, 0.05])
    assert np.abs(via_injection.coefficients(x, 0.0)[0]
                  - via_chart.coefficients(x, 0.0)[0]).max() < 1e-12


def test_parametric_stratonovich_to_ito_batched_matches_rows(so3):
    model = _state_dependent_strat_model(so3)
    mu = so3.exp(np.array([0.3, 0.3, -0.2]))
    via_chart = parametric_stratonovich_to_ito(
        so3, stratonovich_injection_to_parametric(so3, model, mu))
    xs = 0.4 * np.random.default_rng(37).standard_normal((12, 3))
    batched = via_chart.coefficients(xs, 0.0)[0]
    rows = np.stack([via_chart.coefficients(x, 0.0)[0] for x in xs])
    assert batched.shape == (12, 3)
    assert np.abs(batched - rows).max() < 1e-12


def test_parametric_stratonovich_to_ito_constant_coefficients_unchanged(so3):
    a, big = np.array([0.2, -0.1, 0.3]), 0.3 * np.eye(3)
    ito = parametric_stratonovich_to_ito(
        so3, ParametricSdeModel(np.eye(3), const_pair(a, big), STRATONOVICH))
    xs = 0.4 * np.random.default_rng(41).standard_normal((4, 3))
    got_a, got_big = ito.coefficients(xs, 0.0)
    assert ito.interpretation == ITO
    assert np.array_equal(got_a, np.broadcast_to(a, xs.shape))
    assert np.array_equal(got_big, big)


# -- paired statistical equivalence (state-dependent coefficients) -------------------

def _paired_stats(so3, logs_a, logs_b, paths):
    se = logs_a.std(axis=0) / np.sqrt(paths)
    mean_gap = np.abs(logs_a.mean(axis=0) - logs_b.mean(axis=0))
    cov_gap = np.linalg.norm(np.cov(logs_a.T) - np.cov(logs_b.T)) \
        / np.linalg.norm(np.cov(logs_a.T))
    return mean_gap, se, cov_gap


def test_injection_vs_chart_sampler_equivalence_state_dependent(so3):
    model_strat = _state_dependent_strat_model(so3)
    model_ito = stratonovich_to_ito(so3, model_strat)
    mu = so3.exp(np.array([0.2, -0.3, 0.4]))
    cfg = PathConfig(0.2, 200, seed=90, path_count=2000)
    finals_g = sample_nonparametric_path(so3, model_ito, mu, cfg, store_path=False)
    par = ito_injection_to_parametric(so3, model_ito, mu)
    finals_x = sample_parametric_path(so3, par, np.zeros(3), cfg, store_path=False)
    logs_g = so3.log(np.linalg.inv(mu) @ finals_g)
    mean_gap, se, cov_gap = _paired_stats(so3, logs_g, finals_x, cfg.path_count)
    assert np.all(mean_gap < 3 * se)
    assert cov_gap < 0.05


def test_stratonovich_vs_converted_ito_sampler_equivalence(so3):
    model_strat = _state_dependent_strat_model(so3)
    model_ito = stratonovich_to_ito(so3, model_strat)
    mu = so3.exp(np.array([-0.1, 0.2, 0.3]))
    cfg = PathConfig(0.2, 200, seed=91, path_count=2000)
    finals_s = sample_nonparametric_path(so3, model_strat, mu, cfg, store_path=False)
    finals_i = sample_nonparametric_path(so3, model_ito, mu, cfg, store_path=False)
    logs_s = so3.log(np.linalg.inv(mu) @ finals_s)
    logs_i = so3.log(np.linalg.inv(mu) @ finals_i)
    mean_gap, se, cov_gap = _paired_stats(so3, logs_s, logs_i, cfg.path_count)
    assert np.all(mean_gap < 3 * se)
    assert cov_gap < 0.05
