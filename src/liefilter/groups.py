"""Matrix Lie group descriptors and coordinate calculus.

A group is described by its algebra basis; elements are plain numpy matrices
and tangent coordinates are plain numpy vectors.  Every method broadcasts over
leading axes, so ``exp`` maps ``(..., N)`` coordinates to ``(..., n, n)``
matrices and vice versa.

Two concrete descriptors are provided:

* :class:`SO3` with closed-form Rodrigues/Jacobian expressions, evaluated
  entry by entry from x yet bitwise equal to the ``wedge``/K^2 matrix form
  (near-pi exclusion decisions depend on the last bit), and
* :class:`DiagonalGroup`, the commutative group of positive diagonal matrices
  (an exact embedding of R^N), useful as an oracle where every curvature
  correction vanishes.

Jacobians are one-sided: a descriptor supplies ``left_jacobian``,
``left_jacobian_inv`` and ``left_jacobian_inv_partials``, the last returning
the pair (J_l^-1(x), all dJ_l^-1/dx_k (x)) from one evaluation, and
:class:`MatrixLieGroup` derives the right side for every group from the exact
identities

    J_r(x) = J_l(-x),
    J_r^-1(x) = J_l^-1(-x) = J_l^-1(x) + ad(x),
    dJ_r^-1/dx_k (x) = -dJ_l^-1/dx_k (-x),

which hold because J_l(x) = phi(ad x) with phi(z) = (e^z - 1) / z, and
1 / phi(-z) = 1 / phi(z) + z (Sola et al., arXiv 1812.01537).

Anything else can subclass :class:`MatrixLieGroup` and inherit power-series
fallbacks for the exponential, the adjoint machinery, and the left Jacobians.
J_l = sum_m A^m / (m+1)!, A = ad(x), and all its partials are weighted sums
over one stack of the powers A^j / j!, built by doubling, so the numpy calls
grow with log2 of the term count; J_l is inverted once and dJ_l^-1 =
-J_l^-1 dJ_l J_l^-1 (Higham, *Functions of Matrices*, 2008).  The generic
``exp`` keeps its term-by-term Taylor loop after scaling: on its short
scaled series (13 terms at r = 0.25) a power stack saves no time.

All operations are pure functions of their inputs and safe to call from
concurrent threads; the only internal state is a cache of one-parameter
subgroup stencils and a table of series weights, both idempotent.
"""

from __future__ import annotations

from math import lgamma, log

import numpy as np

from .errors import LieDomainError, SingularJacobianError

_SMALL_ANGLE = 1e-4
_LOG_SINGULARITY = np.pi - 1e-9
_DET_TOL = 1e-12
_LOG_SERIES_TOL = log(1e-17)


def _last_term(log_norm: float, shift: int, log_scale: float = 0.0) -> int:
    """The first m >= 1 with scale * norm^m / (m + shift)! < 1e-17: the last
    term to sum of a series whose m-th term is bounded by that."""
    m = 1
    while log_scale + m * log_norm - lgamma(m + shift + 1) >= _LOG_SERIES_TOL:
        m += 1
    return m


def _phi_terms(log_alpha: float, log_u: float, cap: int, partials: bool) -> int | None:
    """The last term m to sum of J_l = sum_m A^m / (m+1)! (and, with
    ``partials``, of its partials) when ||A^j|| <= u a^j for all j, or None
    past ``cap``.  J_l's m-th term is then at most u a^m / (m+1)!, and a
    partial's, sum_(i+l=m-1) A^i ad(e_k) A^l / (m+1)!, at most
    u^2 a^(m-1) / m! times ||ad e_k||.  m is the first term whose bound is
    below 1e-17; the bound has one peak, so m lies past ``cap`` if the cap's
    bound is not below it."""
    scale = (1 + partials) * log_u
    if scale + (cap - partials) * log_alpha - lgamma(cap - partials + 2) >= _LOG_SERIES_TOL:
        return None
    return _last_term(log_alpha, 1, scale) + partials


def _power_bound(stack: np.ndarray) -> tuple[float, float]:
    """``(log a, log u)`` with ||A^j||_1 <= u a^j for all j, from a stack
    (..., k+1, N, N) of A^j / j!, k >= 2, for the batch's largest norms: for
    the largest p < k with p(p-1) <= k + 1, a = max(||A^p||^(1/p),
    ||A^(p+1)||^(1/(p+1))) bounds ||A^j||^(1/j) for j >= p(p-1) (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009, Lemma 4.1), and
    u = max_(j<=k) ||A^j|| / a^j covers the rest."""
    k = stack.shape[-3] - 1
    norms = np.abs(stack).sum(axis=-2).max(axis=-1).reshape(-1, k + 1).max(axis=0, initial=0.0)
    logs = [log(max(v, 1e-300)) + lgamma(j + 1) for j, v in enumerate(norms.tolist())]
    p = min(k - 1, int((1 + (4 * k + 5) ** 0.5) / 2))
    alpha = max(logs[p] / p, logs[p + 1] / (p + 1))
    return alpha, max(v - j * alpha for j, v in enumerate(logs))


class MatrixLieGroup:
    """Descriptor for an N-dimensional unimodular matrix Lie group.

    Subclasses override the left Jacobians only (``left_jacobian``,
    ``left_jacobian_inv`` and ``left_jacobian_inv_partials``, the last
    returning its pair as new arrays); the right ones follow here from the
    identities of the module docstring.

    Parameters
    ----------
    basis : array (N, n, n)
        Linearly independent algebra basis; fixes the wedge/vee identification
        of tangent coordinates with algebra matrices.
    name : str
        Human-readable tag used in error messages.
    """

    def __init__(self, basis: np.ndarray, name: str = "matrix-group"):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must have shape (N, n, n)")
        self.basis = basis
        self.dim = basis.shape[0]
        self.mat_size = basis.shape[1]
        self.name = name
        flat = basis.reshape(self.dim, -1)
        if np.linalg.matrix_rank(flat) != self.dim:
            raise ValueError("basis matrices are linearly dependent")
        self._vee_map = np.linalg.pinv(flat)                # (n*n, N)
        # structure tensor: struct[i, :, j] = vee([E_i, E_j])
        brackets = np.einsum("iab,jbc->ijac", basis, basis)
        brackets = brackets - np.einsum("jab,ibc->ijac", basis, basis)
        veed = brackets.reshape(self.dim, self.dim, -1) @ self._vee_map  # (i, j, k)
        self._struct = np.moveaxis(veed, 2, 1)
        self._stencils: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._series: tuple[np.ndarray, ...] | None = None

    # -- wedge / vee -------------------------------------------------------
    def wedge(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("...i,ijk->...jk", np.asarray(x, float), self.basis)

    def vee(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, float)
        flat = mat.reshape(*mat.shape[:-2], -1)
        return flat @ self._vee_map

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        """Predicate for the chart domain of exponential coordinates."""
        return np.ones(np.shape(x)[:-1], dtype=bool)

    # -- exponential chart -------------------------------------------------
    def exp(self, x: np.ndarray) -> np.ndarray:
        """Matrix exponential of wedge(x), scaling-and-squaring fallback: the
        batch's largest infinity-norm is scaled to r <= 0.25 and the Taylor
        series summed through the first k with r^k / k! < 1e-17."""
        X = self.wedge(x)
        norm = max(float(np.abs(X).sum(axis=-1).max(initial=0.0)), 1e-300)
        squarings = max(0, int(np.ceil(np.log2(norm / 0.25))))
        Y = X / (2.0 ** squarings)
        out = np.broadcast_to(np.eye(self.mat_size), Y.shape).copy()
        term = out.copy()
        for k in range(1, _last_term(log(norm / 2.0 ** squarings), 0) + 1):
            term = term @ Y / k
            out = out + term
        for _ in range(squarings):
            out = out @ out
        return out

    def log(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name} has no logarithm implementation")

    # -- adjoint machinery --------------------------------------------------
    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of the bracket action: ad(x) @ y == vee([wedge(x), wedge(y)])."""
        return np.einsum("...i,ikj->...kj", np.asarray(x, float), self._struct)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Matrix of Ad(g): column j is vee(g E_j g^-1)."""
        g = np.asarray(g, float)
        ginv = np.linalg.inv(g)
        cols = self.vee(np.einsum("...ab,jbc,...cd->j...ad", g, self.basis, ginv))
        return np.moveaxis(cols, 0, -1)

    # -- coordinate Jacobians (phi series fallback) ---------------------------
    def _phi_series(self, x: np.ndarray, partials: bool = False):
        """``(J_l, dJ_l)``: J_l = phi(ad x) and, with ``partials``, its dim
        partials (dim, ..., N, N), else None.  T_j = A^j / j!, A = ad(x), are
        stacked by doubling, T_(k+i) = T_i T_k / C(k+i, i) in one product per
        step, up to the count L of :func:`_phi_terms`.  J_l = sum_j T_j / (j+1),
        and dJ_l/dx_k = sum_j A^j ad(e_k) W_j, W_j = sum_p A^p / (j+p+2)! over
        j, p < L, is one Hankel-weighted sum (j! p! / (j+p+2)! <= 1 on the
        T_p), one (..., N^2, L) @ (..., L, N^2) product and one with the
        generators."""
        A = self.ad(x)
        n, batch = self.dim, A.shape[:-2]
        norm = max(float(np.abs(A).sum(axis=-2).max(initial=0.0)), 1e-300)
        k, last = 1, _phi_terms(log(norm), 0.0, 16, partials)        # ||A^j|| <= ||A||^j
        stack = np.empty(batch + (2, n, n))
        stack[..., 0, :, :], stack[..., 1, :, :] = np.eye(n), A              # T_0, T_1
        weights, doubling, hankel = self._series_weights(64)
        while last is None or k < last:
            hi = min(2 * k, last or 2 * k)
            if hi >= len(weights):
                weights, doubling, hankel = self._series_weights(hi + 1)
            new = stack[..., 1:hi - k + 1, :, :] @ stack[..., k:, :, :]
            stack = np.concatenate((stack, new * doubling[k, 1:hi - k + 1, None, None]), axis=-3)
            k = hi
            if last is None:
                last = _phi_terms(*_power_bound(stack), max(16, 2 * k), partials)
        flat = stack.reshape(batch + (k + 1, n * n))[..., :last + 1, :]
        jac = (weights[:last + 1] @ flat).reshape(A.shape)
        if not partials:
            return jac, None
        powers = flat[..., :last, :]
        outer = np.swapaxes(powers, -1, -2) @ (hankel[:last, :last] @ powers)   # [(a, c), (d, b)]
        djac = self._struct.reshape(n, n * n) @ outer.reshape(batch + (n, n * n, n))
        return jac, np.moveaxis(djac, -2, 0)

    def _series_weights(self, size: int) -> tuple[np.ndarray, ...]:
        """For j, p < max(size, 64): 1 / (j+1), the weight of T_j in J_l;
        j! p! / (j+p)!, which turns T_j T_p into T_(j+p); and j! p! / (j+p+2)!.
        The table for 64 powers is built at the first call and kept."""
        if size <= 64 and self._series is not None:
            return self._series
        j, p = np.arange(max(size, 64))[:, None], np.arange(1.0, max(size, 64))
        doubling = np.cumprod(np.concatenate((np.ones(j.shape), p / (j + p)), axis=1), axis=1)
        table = 1 / (j[:, 0] + 1.0), doubling, doubling / ((j + j.T + 1.0) * (j + j.T + 2))
        if size <= 64:
            self._series = table
        return table

    def left_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._checked(self._phi_series(x)[0])

    def left_jacobian_inv(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.left_jacobian(x))

    def left_jacobian_inv_partials(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(J_l^-1, dJ_l^-1)``, the partials dJ_l^-1/dx_k of shape
        (dim, ..., N, N) as -J_l^-1 (dJ_l/dx_k) J_l^-1 from one phi series."""
        jac, djac = self._phi_series(x, partials=True)
        jinv = np.linalg.inv(self._checked(jac))
        parts = jinv @ djac @ jinv
        return jinv, np.negative(parts, out=parts)

    # -- right Jacobians, derived from the left ones for every group ----------
    def right_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.left_jacobian(np.negative(x, dtype=float))

    def right_jacobian_inv(self, x: np.ndarray) -> np.ndarray:
        return self.left_jacobian_inv(np.negative(x, dtype=float))

    def right_jacobian_inv_partials(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(J_r^-1, dJ_r^-1)``, the pair of the left Jacobian at -x with the
        partials, shape (dim, ..., N, N), negated in place (as 0 - p, so that
        zeros stay +0)."""
        jinv, parts = self.left_jacobian_inv_partials(np.negative(x, dtype=float))
        return jinv, np.subtract(0.0, parts, out=parts)

    def _checked(self, J: np.ndarray) -> np.ndarray:
        det = np.linalg.det(J)
        if np.any(np.abs(det) < _DET_TOL):
            raise SingularJacobianError(f"{self.name}: Jacobian determinant below {_DET_TOL}")
        return J

    # -- one-parameter subgroup stencils (cached) ----------------------------
    def _stencil(self, i, step: float) -> tuple[np.ndarray, np.ndarray]:
        """``(exp(step E_i), exp(-step E_i))`` for an integer or integer array
        ``i``, indexed from the step's cached stacks over every direction,
        (N, n, n) each; every direction is its own ``exp`` call."""
        if step not in self._stencils:
            shifts = np.diag(np.full(self.dim, float(step)))
            self._stencils[step] = (np.stack([self.exp(e) for e in shifts]),
                                    np.stack([self.exp(-e) for e in shifts]))
        plus, minus = self._stencils[step]
        return plus[i], minus[i]

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))     # (k, i, j): SO(3) K_ij = -x_k, E_k[i, j] = -1


def _polar(x: np.ndarray) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Components of 3-vectors (views, scalars for a single vector), |x|^2
    summed in the order of ``np.linalg.norm``, and |x|."""
    x = np.asarray(x, float)
    xs = tuple(x.transpose(-1, *range(x.ndim - 1)))
    t2 = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2]
    return xs, t2, np.sqrt(t2)


def _rodrigues_form(xs: tuple, t2: np.ndarray, a, b: np.ndarray) -> np.ndarray:
    """I + a K + b K^2 for K = wedge(x), K^2 = x x^T - t2 I: entry (i, j) is
    a*K_ij + b*(x_i x_j), and b*(x_i x_i - t2) + 1 on the diagonal."""
    out = np.empty(np.shape(t2) + (3, 3))
    for i, xi in enumerate(xs):
        np.add(b * (xi * xi - t2), 1.0, out=out[..., i, i])
    for k, i, j in _CYCLIC:
        sym, skew = b * (xs[i] * xs[j]), a * xs[k]
        np.subtract(sym, skew, out=out[..., i, j])
        np.add(sym, skew, out=out[..., j, i])
    return out


# c(t) = (1 - (t/2) cot(t/2)) / t^2 = sum_n (-1)^n B_(2n+2) t^2n / (2n+2)! and
# c'(t) / t, by their Taylor series below t = 0.5, where the closed forms cancel
_JINV_SWITCH = 0.5
_JINV_SERIES = (1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160,
                691 / 1307674368000, 1 / 74724249600, 3617 / 10670622842880000)
_RADIAL_SERIES = tuple(2 * n * a for n, a in enumerate(_JINV_SERIES) if n)


def _jinv_coef(t2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """c(|x|), the coefficient of K^2 in both inverse Jacobians, written with
    cot(|x|/2) so that it stays accurate up to pi."""
    half = np.where(theta < _JINV_SWITCH, 1.0, theta) / 2
    return np.where(theta < _JINV_SWITCH, np.polyval(_JINV_SERIES[::-1], t2),
                    (1 - half * np.cos(half) / np.sin(half)) / (4 * half * half))


def _jinv_radial(t2: np.ndarray, theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c'(|x|) / |x| = (1 / (4 sin^2(|x|/2)) - 1 / |x|^2 - c) / |x|^2."""
    safe = np.where(theta < _JINV_SWITCH, 1.0, theta)
    s, inv2 = np.sin(safe / 2), 1 / (safe * safe)
    return np.where(theta < _JINV_SWITCH, np.polyval(_RADIAL_SERIES[::-1], t2),
                    (0.25 / (s * s) - inv2 - c) * inv2)


class SO3(MatrixLieGroup):
    """Rotation group of R^3 in the cross-product basis.

    Chart domain is the open ball of radius pi; closed-form Rodrigues maps and
    Jacobians are used throughout, with fourth-order Taylor branches below
    ``|x| = 1e-4`` to avoid indeterminate ratios, and series to |x|^14 below
    0.5 for the inverse-Jacobian coefficients, whose closed forms cancel
    there.  Each entry is computed straight from x (or g) in the operation
    order of the ``wedge``/K^2 matrix form, so results are that form's bit
    for bit: near-pi exclusions and the archived sweeps depend on the last bit.
    """

    def __init__(self):
        basis = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                          [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                          [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], float)
        super().__init__(basis, name="SO(3)")

    def wedge(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        K = np.zeros(x.shape[:-1] + (3, 3))
        for k, i, j in _CYCLIC:
            K[..., i, j] = -x[..., k]
            K[..., j, i] = x[..., k]
        return K

    def vee(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, float)
        return np.stack([mat[..., 2, 1], mat[..., 0, 2], mat[..., 1, 0]], axis=-1)

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        return _polar(x)[2] < np.pi

    def exp(self, x: np.ndarray) -> np.ndarray:
        xs, t2, theta = _polar(x)
        small = theta < _SMALL_ANGLE
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 1 - theta**2 / 6 + theta**4 / 120, np.sin(safe) / safe)
        b = np.where(small, 0.5 - theta**2 / 24 + theta**4 / 720,
                     (1 - np.cos(safe)) / safe**2)
        return _rodrigues_form(xs, t2, a, b)

    def log(self, g: np.ndarray) -> np.ndarray:
        x, ok = self.log_masked(g)
        if not np.all(ok):
            raise LieDomainError("rotation angle within 1e-9 of pi; logarithm singular")
        return x

    def log_masked(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(log(g), ok)``, where ``ok`` is false and the row NaN for the
        elements whose rotation angle lies within 1e-9 of pi."""
        g = np.asarray(g, float)
        trace = g[..., 0, 0] + g[..., 1, 1] + g[..., 2, 2]
        theta = np.arccos(np.clip((trace - 1) / 2, -1.0, 1.0))
        ok = ~(theta > _LOG_SINGULARITY)
        small = theta < _SMALL_ANGLE
        safe = np.where(small, 1.0, theta)
        coef = np.where(small, 0.5 * (1 + theta**2 / 6 + 7 * theta**4 / 360),
                        safe / (2 * np.sin(safe)))
        x = np.empty(g.shape[:-1])
        for k, i, j in _CYCLIC:                                   # vee(g - g^T)
            np.multiply(coef, g[..., j, i] - g[..., i, j], out=x[..., k])
        x[~ok] = np.nan
        return x, ok

    ad = wedge

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        return np.asarray(g, float)

    def left_jacobian(self, x: np.ndarray) -> np.ndarray:
        xs, t2, theta = _polar(x)
        small = theta < _SMALL_ANGLE
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 0.5 - theta**2 / 24 + theta**4 / 720,
                     2 * np.sin(safe / 2) ** 2 / safe**2)
        b = np.where(small, 1 / 6 - theta**2 / 120 + theta**4 / 5040,
                     (safe - np.sin(safe)) / safe**3)
        return _rodrigues_form(xs, t2, a, b)

    def left_jacobian_inv(self, x: np.ndarray) -> np.ndarray:
        xs, t2, theta = _polar(x)
        return _rodrigues_form(xs, t2, -0.5, _jinv_coef(t2, theta))

    def left_jacobian_inv_partials(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(J_l^-1, dJ_l^-1)`` sharing c.  dJ_l^-1/dx_k = (c'/|x|) x_k K^2
        + c (E_k K + K E_k) - E_k / 2, entry by entry from E_k K + K E_k =
        x e_k^T + e_k x^T - 2 x_k I, with the +0 that the matrix products of
        that form leave where it vanishes."""
        xs, t2, theta = _polar(x)
        c = _jinv_coef(t2, theta)
        radial = _jinv_radial(t2, theta, c)
        diag = [xi * xi - t2 for xi in xs]                    # K^2 = x x^T - t2 I
        off = [xs[1] * xs[2], xs[2] * xs[0], xs[0] * xs[1]]   # by the missing index
        cx, cz = [c * (xi + 0.0) for xi in xs], c * 0.0
        out = np.empty((3,) + np.shape(t2) + (3, 3))
        for k, i, j in _CYCLIC:
            rk, o, c2x = radial * xs[k], out[k], c * (-2.0 * xs[k] + 0.0)
            np.add(rk * diag[k], cz, out=o[..., k, k])
            np.add(rk * diag[i], c2x, out=o[..., i, i])
            np.add(rk * diag[j], c2x, out=o[..., j, j])
            o[..., k, i] = np.add(rk * off[j], cx[i], out=o[..., i, k])
            o[..., k, j] = np.add(rk * off[i], cx[j], out=o[..., j, k])
            sym = rk * off[k]           # then -E_k / 2; adding c * 0 first changes no bit
            np.add(sym, 0.5, out=o[..., i, j])
            np.subtract(sym, 0.5, out=o[..., j, i])
        return _rodrigues_form(xs, t2, -0.5, c), out


class DiagonalGroup(MatrixLieGroup):
    """R^N embedded as positive diagonal matrices under multiplication.

    The product commutes exactly and every bracket vanishes, so the inherited
    ``ad`` and Jacobians are exactly 0 and I: a convenient flat oracle.
    """

    def __init__(self, dim: int = 3):
        basis = np.zeros((dim, dim, dim))
        for i in range(dim):
            basis[i, i, i] = 1.0
        super().__init__(basis, name=f"Diag({dim})")

    def exp(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = np.exp(x)
        return out

    def log(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, float)
        diag = np.diagonal(g, axis1=-2, axis2=-1)
        if np.any(diag <= 0):
            raise LieDomainError("diagonal entries must be positive")
        return np.log(diag)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, float)
        return np.broadcast_to(np.eye(self.dim), g.shape[:-2] + (self.dim, self.dim)).copy()


# -- Lie directional derivatives --------------------------------------------

def lie_derivative_right(group: MatrixLieGroup, f, g: np.ndarray, i,
                         step: float = 1e-5):
    """Central-difference derivative of f along t -> f(g exp(t E_i)) at t=0.

    A stack of g is shifted by one matrix product on its rows, which is the
    stacked product bit for bit at a fraction of its per-element cost.  An
    integer array ``i`` hands f the stacks of shape ``np.shape(i) + g.shape``,
    each element the scalar-index product bit for bit."""
    plus, minus = group._stencil(i, step)
    g = np.asarray(g, float)
    rows, shape = g.reshape(-1, g.shape[-1]), np.shape(i) + g.shape
    return (np.asarray(f((rows @ plus).reshape(shape)))
            - np.asarray(f((rows @ minus).reshape(shape)))) / (2 * step)


def lie_derivative_right_second(group: MatrixLieGroup, f, g: np.ndarray,
                                i, j, step: float = 1e-5):
    """Nested central-difference stencil for the iterated right derivative
    E_i^r E_j^r f at g.

    ``i`` and ``j`` may be integer arrays that broadcast against each other
    (and against g's stack axes); the four calls of f then take the stacks
    g exp(+-s E_i) exp(+-s E_j), each element the per-pair product bit for
    bit.  With scalar indices f gets g's own shape."""
    pi, mi = group._stencil(i, step)
    pj, mj = group._stencil(j, step)
    gp, gm = g @ pi, g @ mi
    val = (np.asarray(f(gp @ pj)) - np.asarray(f(gp @ mj))
           - np.asarray(f(gm @ pj)) + np.asarray(f(gm @ mj)))
    return val / (4 * step * step)


# -- chart-perturbation expansion and truncated BCH ---------------------------

def expand_log_perturbation(group: MatrixLieGroup, eps: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """Second-order expansion of log(exp(-eps) exp(x)) around eps = 0."""
    eps = np.asarray(eps, float)
    x = np.asarray(x, float)
    jinv, parts = group.left_jacobian_inv_partials(x)
    w = np.einsum("...ij,...j->...i", jinv, eps)
    second = np.einsum("...k,k...ij,...j->...i", w, parts, eps)
    return x - w + 0.5 * second


def bch_truncated(group: MatrixLieGroup, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log(exp(x) exp(r)) truncated after the double-bracket terms."""
    x = np.asarray(x, float)
    r = np.asarray(r, float)
    adx = group.ad(x)
    adr = group.ad(r)
    mv = lambda A, v: np.einsum("...ij,...j->...i", A, v)
    return (x + r + 0.5 * mv(adx, r)
            + (mv(adx, mv(adx, r)) + mv(adr, mv(adr, x))) / 12.0)
