"""Stochastic differential equations on a matrix Lie group.

Two equivalent formulations are supported:

* the injection form, which exponentiates an algebra-valued increment and
  multiplies it on the right of the current group element, and
* the chart (coordinate) form, an SDE on exponential coordinates around a
  fixed base point.

The chart form is given in coordinates, dx = a dt + B dW, and sampled as a
Euclidean SDE; only the transform from the injection form, one for both the
Ito and the Stratonovich reading, applies J_r^-1.  Transforms between the
two readings are provided.
Coefficient callables receive ``(state, t)`` where ``state`` may carry leading
batch axes; they must broadcast accordingly (constant coefficients trivially do).

Wiener increments are generated from a counter-based Philox stream keyed by
the path seed and the step index, so each (path, step) increment is a pure
function of ``(seed, path index, step index)``.  Two samplers driven by the
same configuration therefore consume identical noise, which turns weak
equivalence checks into strong, paired ones.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainExitError
from .groups import MatrixLieGroup, left_multiply, lie_derivative_right

ITO = "ito"
STRATONOVICH = "stratonovich"


def _check_interpretation(interpretation) -> None:
    if interpretation not in (ITO, STRATONOVICH):
        raise ValueError(f"interpretation must be {ITO!r} or {STRATONOVICH!r}, "
                         f"not {interpretation!r}")


@dataclass(frozen=True)
class SdeModel:
    """Injection-form SDE: g(t+dt) = g(t) exp(h dt + H dW).

    ``drift(g, t) -> (..., N)`` and ``diffusion(g, t) -> (..., N, N)``; for the
    Stratonovich reading the diffusion is evaluated at the midpoint state.
    """

    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray, float], np.ndarray]
    interpretation: str = ITO

    def __post_init__(self):
        _check_interpretation(self.interpretation)


@dataclass(frozen=True)
class ParametricSdeModel:
    """Chart-form SDE dx = a dt + B dW on g = base exp(x).

    ``coefficients(x, t) -> (a (..., N), B (..., N, N))``; B is re-evaluated
    at the midpoint state for the Stratonovich reading.  A model converted
    from injection form has a = J_r^-1 h~ and B = J_r^-1 H~.
    """

    base: np.ndarray
    coefficients: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]
    interpretation: str = ITO

    def __post_init__(self):
        _check_interpretation(self.interpretation)


@dataclass(frozen=True)
class PathConfig:
    total_time: float
    steps: int
    seed: int
    path_count: int = 1

    def __post_init__(self):
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise ValueError("steps must be an integer >= 1")
        if not isinstance(self.path_count, numbers.Integral) or self.path_count < 1:
            raise ValueError("path_count must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if not self.total_time > 0 or not np.isfinite(self.total_time):
            raise ValueError("total_time must be positive and finite")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps


def wiener_halves(seed: int, step: int, path_count: int, dim: int,
                  dt: float) -> np.ndarray:
    """Two half-interval increments per path, shape (path_count, 2, dim).

    Row p is a pure function of (seed, p, step); summing over axis 1 gives the
    full-step increment, the first half alone feeds midpoint predictors.
    """
    key = int(seed)
    if not 0 <= key < 2**64:
        raise ValueError("seed must be an integer in [0, 2**64)")
    bitgen = np.random.Philox(key=key, counter=[0, 0, 0, step])
    rng = np.random.Generator(bitgen)
    out = rng.standard_normal((path_count, 2, dim))
    out *= np.sqrt(dt / 2.0)           # in place: no second (path_count, 2, dim) array
    return out


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", mat, vec)


def sample_nonparametric_path(group: MatrixLieGroup, model: SdeModel,
                              g0: np.ndarray, cfg: PathConfig,
                              store_path: bool = True) -> np.ndarray:
    """Integrate the injection SDE by sequential right-multiplication.

    Returns ``(path_count, steps+1, n, n)`` when ``store_path`` else the final
    states ``(path_count, n, n)``.
    """
    n = group.mat_size
    dt = cfg.dt
    g = np.broadcast_to(np.asarray(g0, float), (cfg.path_count, n, n)).copy()
    if store_path:
        out = np.empty((cfg.path_count, cfg.steps + 1, n, n))
        out[:, 0] = g
    strat = model.interpretation == STRATONOVICH
    for i in range(cfg.steps):
        t = i * dt
        halves = wiener_halves(cfg.seed, i, cfg.path_count, group.dim, dt)
        dw = halves[:, 0] + halves[:, 1]
        h = np.asarray(model.drift(g, t), float)
        if strat:
            g_mid = g @ group.exp(h * dt / 2 + _mv(
                np.asarray(model.diffusion(g, t), float), halves[:, 0]))
            big_h = np.asarray(model.diffusion(g_mid, t + dt / 2), float)
        else:
            big_h = np.asarray(model.diffusion(g, t), float)
        g = g @ group.exp(h * dt + _mv(big_h, dw))
        if store_path:
            out[:, i + 1] = g
    return out if store_path else g


def sample_parametric_path(group: MatrixLieGroup, model: ParametricSdeModel,
                           x0: np.ndarray, cfg: PathConfig,
                           store_path: bool = True) -> np.ndarray:
    """Integrate the chart SDE dx = a dt + B dW by Euler-Maruyama (Ito) or
    the midpoint scheme (Stratonovich); raises DomainExitError if a path
    leaves the chart domain, reporting the step index."""
    dim = group.dim
    dt = cfg.dt
    x = np.broadcast_to(np.asarray(x0, float), (cfg.path_count, dim)).copy()
    if store_path:
        out = np.empty((cfg.path_count, cfg.steps + 1, dim))
        out[:, 0] = x
    strat = model.interpretation == STRATONOVICH
    for i in range(cfg.steps):
        t = i * dt
        halves = wiener_halves(cfg.seed, i, cfg.path_count, dim, dt)
        dw = halves[:, 0] + halves[:, 1]
        a, big = (np.asarray(c, float) for c in model.coefficients(x, t))
        if strat:
            x_mid = x + a * dt / 2 + _mv(big, halves[:, 0])
            big = np.asarray(model.coefficients(x_mid, t + dt / 2)[1], float)
        x = x + a * dt + _mv(big, dw)
        if not np.all(group.in_domain(x)):
            raise DomainExitError(
                f"path left the chart domain at step {i + 1}", step=i + 1)
        if store_path:
            out[:, i + 1] = x
    return out if store_path else x


def _chart_coefficients(group: MatrixLieGroup, model: SdeModel, mu: np.ndarray,
                        x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart coefficients ``(a, B, J_r^-1)`` of an injection SDE at the chart
    points x around mu, from one exp, one drift and one diffusion call on
    g = mu exp(x), one GEMM on the rows of exp(x) (:func:`left_multiply`):
    B = J_r^-1 H, and a = J_r^-1 h for a Stratonovich model (J_r^-1 alone);
    an Ito model adds (1/2) (d J_r^-1/dx_k) H H^T J_r^-T e_k, summed over k,
    from ``right_jacobian_inv_curvature``."""
    x = np.asarray(x, float)
    g = left_multiply(mu, group.exp(x))
    h = np.asarray(model.drift(g, t), float)
    big = np.asarray(model.diffusion(g, t), float)
    del g                      # freed before the Jacobians: lower peak memory
    if model.interpretation == STRATONOVICH:
        jri = group.right_jacobian_inv(x)
        a = _mv(jri, h)
    else:
        jri, curvature = group.right_jacobian_inv_curvature(x, big @ np.swapaxes(big, -1, -2))
        a = _mv(jri, h) + curvature
    # A shared (N, N) H: one product on the stack's rows, the stacked product bit for bit.
    b = jri @ big if big.ndim > 2 else (jri.reshape(-1, len(big)) @ big).reshape(jri.shape)
    return a, b, jri


def ito_injection_to_parametric(group: MatrixLieGroup, model: SdeModel,
                                mu: np.ndarray) -> ParametricSdeModel:
    """Chart-form coefficients ``(a, B)`` reproducing an Ito injection SDE
    around mu, from :func:`_chart_coefficients`, the chart transform that
    moment propagation also uses."""
    if model.interpretation != ITO:
        raise ValueError("ito_injection_to_parametric requires an Ito model")
    mu = np.asarray(mu, float)
    return ParametricSdeModel(
        mu, lambda x, t: _chart_coefficients(group, model, mu, x, t)[:2], ITO)


def stratonovich_to_ito(group: MatrixLieGroup, model: SdeModel) -> SdeModel:
    """Equivalent Ito drift for a Stratonovich injection SDE.

    h = h_s + (1/2) E_i^r(H_s[k, j]) H_s[i, j] e_k with the right derivatives
    taken by central differences (step 1e-5), all N in one stencil call, or
    +0 with no stencil for one (N, N) diffusion shared by a stack of states.
    """
    if model.interpretation != STRATONOVICH:
        raise ValueError("stratonovich_to_ito requires a Stratonovich model")

    def drift(g, t):
        g = np.asarray(g, float)
        hs = np.asarray(model.drift(g, t), float)
        big = np.asarray(model.diffusion(g, t), float)
        if big.ndim == 2 and g.ndim > 2:
            return hs + 0.0
        derivs = np.broadcast_to(       # derivs[i] = E_i^r H; (N, N) for a constant H
            lie_derivative_right(group, lambda h: model.diffusion(h, t), g, np.arange(group.dim)),
            (group.dim,) + big.shape)
        return hs + 0.5 * np.einsum("i...kj,...ij->...k", derivs, big)

    return SdeModel(drift, model.diffusion, ITO)


def stratonovich_injection_to_parametric(group: MatrixLieGroup, model: SdeModel,
                                         mu: np.ndarray) -> ParametricSdeModel:
    """Chart-form coefficients for a Stratonovich injection SDE around mu:
    a = J_r^-1 h and B = J_r^-1 H, from :func:`_chart_coefficients`."""
    if model.interpretation != STRATONOVICH:
        raise ValueError("stratonovich_injection_to_parametric requires a "
                         "Stratonovich model")
    mu = np.asarray(mu, float)
    return ParametricSdeModel(
        mu, lambda x, t: _chart_coefficients(group, model, mu, x, t)[:2], STRATONOVICH)


def parametric_stratonovich_to_ito(group: MatrixLieGroup,
                                   model: ParametricSdeModel) -> ParametricSdeModel:
    """Euclidean Stratonovich-to-Ito correction of the chart SDE,
    a + (1/2) sum_j (dB/dx_j) B e_j, over any leading batch axes of the chart
    points; the derivatives of B along the dim coordinate axes are central
    differences (step 1e-6) evaluated in one call on a leading axis of shifted points.
    """
    if model.interpretation != STRATONOVICH:
        raise ValueError("parametric_stratonovich_to_ito requires a "
                         "Stratonovich model")
    dim = group.dim

    def coefficients(x, t):
        x = np.asarray(x, float)
        a, b = model.coefficients(x, t)
        shifts = 1e-6 * np.eye(dim).reshape((dim,) + (1,) * (x.ndim - 1) + (dim,))
        db = np.broadcast_to((model.coefficients(x + shifts, t)[1]
                              - model.coefficients(x - shifts, t)[1]) / 2e-6,
                             (dim,) + x.shape + (dim,))       # db[j] = dB/dx_j
        return a + 0.5 * np.einsum("j...il,...jl->...i", db, b), b

    return ParametricSdeModel(model.base, coefficients, ITO)
