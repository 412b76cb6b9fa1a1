"""Half-wave-voltage calibration fit.

Fits T(V) = A*sin^2(pi*V/(2*v_pi) + theta0) + floor to transmission-vs-
voltage data. For a fixed v_pi the model is linear in the equivalent basis
[1, cos(wV), sin(wV)] with w = pi/v_pi, so the fit reduces to a 1-D search
over w with an exact linear least-squares solve inside. The search runs in
two steps: one scan of the residual over a geometric grid of w
(`_scan_sse`), then a bounded refinement around the best grid point with
`_linear_solve`, whose residual at the refined w is the returned RMS
misfit. The refinement is `_bounded_brent`, Brent's bounded minimiser.
`fit_v_pi` returns v_pi = pi/w and that residual.

The scan needs no solve per grid point. `_scan_basis` holds, for every
grid w, an orthonormal basis of [1, cos wV, sin wV]: Gram-Schmidt
vectorised over the grid gives a centred cos row and a sin row orthogonal
to it. With c the centred data, the residual at w is then
c.c - (q_cos.c)^2 - (q_sin.c)^2, two matrix-vector products for the whole
grid. That basis depends only on the voltages, so it is cached per
voltage grid: every channel of a chip is swept on one grid, and only its
first fit builds the basis. A cached grid of N voltages holds two
512 x N float64 arrays, 2*512*N*8 bytes (about 2 MB at N = 241), and at
most 4 grids are kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InsufficientFringeError

# Voltage grids whose scan basis is kept: calibrate and sweep fit every
# channel of a chip on one grid, and one process sees at most a few chips.
_SCAN_BASIS_GRIDS = 4
# Bounded refinement: at most this many function evaluations.
_REFINE_MAXFUN = 500


@dataclass(frozen=True)
class VpiFit:
    v_pi: float
    residual: float  # RMS misfit


def _linear_solve(volts: np.ndarray, trans: np.ndarray, omega: float):
    basis = np.column_stack(
        [np.ones_like(volts), np.cos(omega * volts), np.sin(omega * volts)]
    )
    coef, _, _, _ = np.linalg.lstsq(basis, trans, rcond=None)
    resid = trans - basis @ coef
    return coef, float(np.sum(resid**2))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


@functools.lru_cache(maxsize=_SCAN_BASIS_GRIDS)
def _scan_basis(volts: bytes, omegas: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalised cos and sin rows of the scan basis, one row per omega.

    Takes the float64 bytes of the voltages and of the omega grid, so it can
    be cached per grid. The cos(wV) rows are centred (orthogonal to the
    constant column) and normalised; the sin(wV) rows are centred, made
    orthogonal to the cos row and normalised. A row whose remaining norm is
    below eps*N*sqrt(N) is rank-deficient, as lstsq's default cutoff would
    treat it, and is zeroed: this happens at the Nyquist end of the grid,
    where sin(wV) vanishes on every sample. Both arrays are read-only.
    """
    volts = np.frombuffer(volts)
    omegas = np.frombuffer(omegas)
    n = volts.size
    tol = np.finfo(float).eps * n * math.sqrt(n)
    phase = np.outer(omegas, volts)
    basis = []
    for col in (np.cos(phase), np.sin(phase, out=phase)):
        col -= col.mean(axis=1, keepdims=True)
        for q in basis:
            col -= _row_dot(q, col) * q
        norm = np.sqrt(_row_dot(col, col))
        col *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > tol)
        col.flags.writeable = False
        basis.append(col)
    q_cos, q_sin = basis
    return q_cos, q_sin


def _scan_sse(volts: np.ndarray, trans: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Residual sum of squares of `_linear_solve` at every omega.

    Equal to `_linear_solve(volts, trans, w)[1]` for each w up to rounding.
    The rows of `_scan_basis` are orthonormal and orthogonal to the
    constant column, so for the centred data c the residual at each w is
    c.c less the squares of c's components along its cos and sin rows.
    """
    volts = np.asarray(volts, dtype=float)
    q_cos, q_sin = _scan_basis(volts.tobytes(), np.asarray(omegas, dtype=float).tobytes())
    centred = trans - trans.mean()
    return centred @ centred - (q_cos @ centred) ** 2 - (q_sin @ centred) ** 2


def _bounded_brent(f, lo: float, hi: float, xatol: float):
    """Minimise f on [lo, hi] by Brent's method (golden section steps with
    parabolic interpolation, Brent 1973, ch. 5).

    Every step and comparison is the reference bounded minimiser's, so
    the tests require the same x, fun and nfev from both. Returns
    (x, fun, nfev, ok); ok is False after _REFINE_MAXFUN evaluations or
    when x or f is NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    nfev = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    ok = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = f(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= _REFINE_MAXFUN:
            ok = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        ok = False
    return xf, fx, nfev, ok


def _sign_or_one(v: float) -> float:
    """The sign of v as +-1.0, and 1.0 for v == 0 (either signed zero)."""
    return 1.0 if v == 0.0 else math.copysign(1.0, v)


def fit_v_pi(voltages, transmissions) -> VpiFit:
    """Fit the sin^2 transfer model and return v_pi and the RMS residual.

    Raises InsufficientFringeError when the data is degenerate or spans
    less than half a fringe, FitError on non-convergence.
    """
    volts = np.asarray(voltages, dtype=float)
    trans = np.asarray(transmissions, dtype=float)
    if volts.shape != trans.shape or volts.ndim != 1:
        raise FitError("voltages and transmissions must be 1-D arrays of equal length")
    if volts.size < 5:
        raise FitError("need at least 5 samples")
    if not (np.all(np.isfinite(volts)) and np.all(np.isfinite(trans))):
        raise FitError("non-finite samples")
    span = float(np.max(volts) - np.min(volts))
    scale = float(np.max(np.abs(trans)))
    if span <= 0 or scale <= 0 or float(np.ptp(trans)) < 1e-9 * max(scale, 1.0):
        raise InsufficientFringeError("data has no usable fringe contrast")

    dv = float(np.median(np.diff(np.sort(volts))))
    omega_lo = 0.5 * math.pi / span
    omega_hi = math.pi / max(dv, 1e-12 * span)

    # Coarse scan, then local refinement of the fringe frequency.
    grid = np.geomspace(omega_lo, omega_hi, 512)
    sses = _scan_sse(volts, trans, grid)
    best = int(np.argmin(sses))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.size - 1)])
    omega, _, _, ok = _bounded_brent(
        lambda w: _linear_solve(volts, trans, w)[1], lo, hi, 1e-12 * (hi - lo) + 1e-15
    )
    if not ok:
        raise FitError("v_pi search did not converge")
    coef, sse = _linear_solve(volts, trans, omega)
    # The fringe's half amplitude is the norm of its cos and sin coefficients.
    if math.hypot(coef[1], coef[2]) < 1e-9 * max(scale, 1.0):
        raise InsufficientFringeError("fitted fringe amplitude is degenerate")
    v_pi = math.pi / omega
    if v_pi > span:
        raise InsufficientFringeError(
            f"data spans {span:.3g} V, less than half a fringe of fitted v_pi {v_pi:.3g} V"
        )
    return VpiFit(v_pi=v_pi, residual=math.sqrt(sse / volts.size))
