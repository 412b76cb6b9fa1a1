"""Half-wave-voltage calibration fit, and the package's root finder.

Fits T(V) = A*sin^2(pi*V/(2*v_pi) + theta0) + floor to transmission-vs-
voltage data. For a fixed v_pi the model is linear in the equivalent basis
[1, cos(wV), sin(wV)] with w = pi/v_pi, so the fit reduces to a 1-D search
over w with an exact linear least-squares solve inside (`_linear_solve`).
The search runs in two steps: one scan of the residual over a geometric
grid of w (`_scan_sse`), then a root of the residual's slope in w between
the best grid point's neighbours. `fit_v_pi` returns v_pi = pi/w and the
RMS misfit at that root.

The slope needs no second solve. The fitted coefficients minimise the
residual at each w, so its derivative is that of the residual with the
coefficients held (the envelope theorem): for residual r and fitted cos
and sin coefficients b_cos and b_sin,
dSSE/dw = 2 r.(V * (b_cos sin wV - b_sin cos wV)).
The root is found by `_brent_root`, Brent's bracketing root finder, which
`dynamics.synthesize_kernel` also uses. It and `_median`, which
`dynamics` and `waveforms` also use, live here because `core` imports
this module and `dynamics` imports `core`.

The scan needs no solve per grid point, and no basis per voltage grid.
`fit_v_pi` takes evenly spaced voltages V_k = V_0 + k*h, and on such a
grid [1, cos wV, sin wV] spans the same space as [1, cos(theta k),
sin(theta k)] with theta = w*h, whatever V_0 and h are. Its w grid puts
theta on geomspace(pi/(2(N-1)), pi, 512), to rounding, for every grid of
N voltages, so `_scan_basis(N)` holds, for every theta, a basis of
[1, cos(theta k), sin(theta k)] made orthonormal by Gram-Schmidt,
vectorised over the grid: a centred cos row and a sin row orthogonal to
it. With c the centred data, the residual at w = theta/h is then
c.c - (q_cos.c)^2 - (q_sin.c)^2, two matrix-vector products for the whole
grid. The basis depends only on the sweep length, so it is cached per
length: every channel of every chip is swept at 241 points, and only a
process's first fit builds the basis. A cached length N holds two
512 x N float64 arrays, 2*512*N*8 bytes (about 2 MB at N = 241).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

# Sweep lengths whose scan basis is kept: calibrate and sweep fit every
# channel of every chip at one length, and the tests use a few more.
_SCAN_BASIS_LENGTHS = 4
# Points of the v_pi scan, geometric in w from half a fringe over the
# sweep to the Nyquist limit.
_SCAN_POINTS = 512
# Brent root finder: relative tolerance 4 eps and at most 100 iterations,
# the defaults of the reference implementation of the published algorithm.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class VpiFit:
    v_pi: float
    residual: float  # RMS misfit


def _linear_solve(volts: np.ndarray, trans: np.ndarray, omega: float):
    """Least squares on [1, cos wV, sin wV] at one w: the coefficients, the
    residual sum of squares and its slope in w (see the module docstring)."""
    cos, sin = np.cos(omega * volts), np.sin(omega * volts)
    basis = np.column_stack([np.ones_like(volts), cos, sin])
    coef, _, _, _ = np.linalg.lstsq(basis, trans, rcond=None)
    resid = trans - basis @ coef
    slope = 2.0 * resid @ (volts * (coef[1] * sin - coef[2] * cos))
    return coef, float(np.sum(resid**2)), float(slope)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


@functools.lru_cache(maxsize=_SCAN_BASIS_LENGTHS)
def _scan_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalised cos and sin rows of the scan basis of n evenly spaced
    samples, one row per scan phase step theta (see the module docstring).

    The cos(theta k) rows are centred (orthogonal to the constant column)
    and normalised; the sin(theta k) rows are centred, made orthogonal to
    the cos row and normalised. A row whose remaining norm is below
    eps*n*sqrt(n) is rank-deficient, as lstsq's default cutoff would treat
    it, and is zeroed: this happens at the Nyquist end of the grid,
    theta = pi, where sin(theta k) vanishes on every sample. Both arrays
    are read-only.
    """
    thetas = np.geomspace(0.5 * math.pi / (n - 1), math.pi, _SCAN_POINTS)
    tol = np.finfo(float).eps * n * math.sqrt(n)
    phase = np.outer(thetas, np.arange(n, dtype=float))
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


def _scan_sse(trans: np.ndarray) -> np.ndarray:
    """Residual sum of squares of `_linear_solve` at every scan point, for
    transmissions sampled on any evenly spaced grid of their length.

    Equal to `_linear_solve(volts, trans, theta / h)[1]` up to rounding for
    each scan phase step theta and voltage step h. The rows of
    `_scan_basis` are orthonormal and orthogonal to the constant column, so
    for the centred data c the residual at each theta is c.c less the
    squares of c's components along its cos and sin rows.
    """
    q_cos, q_sin = _scan_basis(trans.size)
    centred = trans - trans.mean()
    return centred @ centred - (q_cos @ centred) ** 2 - (q_sin @ centred) ** 2


def _median(x) -> float:
    """np.median of a finite 1-D array, bit for bit: the mean of the middle
    sorted value, or of the middle two, as np.median takes it (so a zero
    median is +0.0). np.median's NaN check imports numpy.ma, which no
    command needs otherwise."""
    s = np.sort(x)
    m = s.size // 2
    return float(s[m - 1 + s.size % 2 : m + 1].mean())


def _brent_root(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Each step takes an inverse-quadratic or secant step inside the bracket
    when it shrinks fast enough, else bisects. Every step is the reference
    implementation's, so the tests require the same float from both. Stops
    when the bracket is below xtol + rtol*|x| with rtol = 4 eps. Raises
    PicmodError when f(xa) and f(xb) have the same sign, when f is NaN,
    or after 100 iterations without convergence.
    """
    # xcur is the best estimate, xpre the one before it and xblk the end of
    # the bracket opposite xcur; spre and scur are the last two steps.
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise PicmodError("root finder: function value is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise PicmodError(f"root finder: f({xa:.6g}) and f({xb:.6g}) have the same sign")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise PicmodError("root finder: function value is NaN")
    raise PicmodError(f"root finder did not converge in {_BRENT_MAXITER} iterations")


def fit_v_pi(voltages, transmissions) -> VpiFit:
    """Fit the sin^2 transfer model and return v_pi and the RMS residual.

    The voltages must be ascending and evenly spaced, V_k = V_0 + k*h with
    h > 0, to within 1e-9 of their span: the scan reads the residual from
    a basis in the sample index k (see the module docstring).
    Raises PicmodError on malformed samples, on any other voltage grid,
    and when the data is degenerate, spans less than half a fringe, or has
    its least residual at the edge of the scan.
    """
    volts = np.asarray(voltages, dtype=float)
    trans = np.asarray(transmissions, dtype=float)
    if volts.shape != trans.shape or volts.ndim != 1:
        raise PicmodError("voltages and transmissions must be 1-D arrays of equal length")
    if volts.size < 5:
        raise PicmodError("need at least 5 samples")
    if not (np.all(np.isfinite(volts)) and np.all(np.isfinite(trans))):
        raise PicmodError("non-finite samples")
    span = float(np.max(volts) - np.min(volts))
    scale = float(np.max(np.abs(trans)))
    if span <= 0 or scale <= 0 or float(np.ptp(trans)) < 1e-9 * max(scale, 1.0):
        raise PicmodError("data has no usable fringe contrast")
    step = (volts[-1] - volts[0]) / (volts.size - 1)
    even = volts[0] + step * np.arange(volts.size)
    if not (step > 0 and np.max(np.abs(volts - even)) <= 1e-9 * span):
        raise PicmodError("voltages must be ascending and evenly spaced")

    dv = _median(np.diff(volts))
    omega_lo = 0.5 * math.pi / span
    omega_hi = math.pi / max(dv, 1e-12 * span)

    # Coarse scan, then the root of the residual's slope between the best
    # grid point's neighbours.
    grid = np.geomspace(omega_lo, omega_hi, _SCAN_POINTS)
    sses = _scan_sse(trans)
    best = int(np.argmin(sses))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.size - 1)])
    try:
        omega = _brent_root(
            lambda w: _linear_solve(volts, trans, w)[2], lo, hi, 1e-12 * (hi - lo)
        )
    except PicmodError as exc:
        # A slope of one sign across the bracket: the least residual is at
        # the edge of the scan, so the data holds no resolvable fringe.
        raise PicmodError(f"no residual minimum inside the v_pi scan: {exc}") from exc
    coef, sse, _ = _linear_solve(volts, trans, omega)
    # The fringe's half amplitude is the norm of its cos and sin coefficients.
    if math.hypot(coef[1], coef[2]) < 1e-9 * max(scale, 1.0):
        raise PicmodError("fitted fringe amplitude is degenerate")
    v_pi = math.pi / omega
    if v_pi > span:
        raise PicmodError(
            f"data spans {span:.3g} V, less than half a fringe of fitted v_pi {v_pi:.3g} V"
        )
    return VpiFit(v_pi=v_pi, residual=math.sqrt(sse / volts.size))
