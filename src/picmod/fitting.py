"""Half-wave-voltage calibration fit, and the package's root finder.

Fits T(V) = A*sin^2(pi*V/(2*v_pi) + theta0) + floor to transmissions on an
evenly spaced grid V_k = V_0 + k*h. For a fixed v_pi the model is linear in
[1, cos(theta k), sin(theta k)] over the sample index k, with phase step
theta = pi*h/v_pi, whatever V_0 and h are. The fit is a 1-D search over
theta with one exact least-squares method inside: centre the data and the
cos and sin columns, then make the sin column orthogonal to the cos column
by Gram-Schmidt. A column left with a norm below eps*n*sqrt(n) gets no
coefficient, as under lstsq's default cutoff: at the Nyquist end,
theta = pi, sin(theta k) vanishes on every sample.

A scan over theta on geomspace(pi/(2(n-1)), pi, 512), from half a fringe
over the sweep to Nyquist, picks the best point (`_scan_sse`). Its
Gram-Schmidt rows depend only on n and are cached per length
(`_scan_basis`: two 512 x n float64 arrays, about 2 MB at the shipped
n = 241), so with c the centred data the residual at every theta is
c.c - (q_cos.c)^2 - (q_sin.c)^2. These matrix-vector products go through
BLAS and may round as the CPU's kernel does, but they only pick the
bracket. Brent's method (`_brent_root`, which `dynamics.synthesize_kernel`
also uses) then finds the root of the residual's slope in theta between
the best point's neighbours. Each step is one solve at one theta
(`_index_solve`) in elementwise products and pairwise sums, with no BLAS
or LAPACK call, so the fit does not depend on the kernel. `fit_v_pi`
returns v_pi = pi*h/theta and the RMS misfit at the root, from the solve
Brent's method already made there.

The slope needs no second solve: the coefficients minimise the residual
at each theta, so its derivative is that with the coefficients held (the
envelope theorem). For residual r and cos and sin coefficients b_cos and
b_sin, dSSE/dtheta = 2 r.(k * (b_cos sin(theta k) - b_sin cos(theta k))).
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
# Points of the v_pi scan, geometric in the phase step theta from half a
# fringe over the sweep to the Nyquist limit.
_SCAN_POINTS = 512
# Brent root finder: relative tolerance 4 eps and at most 100 iterations,
# the defaults of the reference implementation of the published algorithm.
# A Python float, so that the root is one too.
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class VpiFit:
    v_pi: float
    residual: float  # RMS misfit


def _rank_tol(n: int) -> float:
    """Norm below which a centred column of n samples is rank-deficient."""
    return np.finfo(float).eps * n * math.sqrt(n)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D arrays by numpy's pairwise sum, not BLAS."""
    return float(np.add.reduce(a * b))


def _index_solve(centred: np.ndarray, theta: float):
    """Least squares of centred data on [1, cos(theta k), sin(theta k)]
    over its sample index k: the cos and sin coefficients, the residual sum
    of squares and its slope in theta (see the module docstring)."""
    n = centred.size
    k = np.arange(n, dtype=float)
    phase = theta * k
    cos, sin = np.cos(phase), np.sin(phase)
    a = cos - np.add.reduce(cos) / n
    s = sin - np.add.reduce(sin) / n
    # Gram-Schmidt: the unit cos row, the sin row less its part along it.
    a_norm = math.sqrt(_dot(a, a))
    inv_a = 1.0 / a_norm if a_norm > _rank_tol(n) else 0.0
    along = _dot(a, s) * inv_a * inv_a
    s_perp = s - along * a
    s_norm = math.sqrt(_dot(s_perp, s_perp))
    inv_s = 1.0 / s_norm if s_norm > _rank_tol(n) else 0.0
    # Back-substitute the two projections into the cos and sin coefficients.
    b_sin = _dot(s_perp, centred) * inv_s * inv_s
    b_cos = _dot(a, centred) * inv_a * inv_a - b_sin * along
    resid = centred - b_cos * a - b_sin * s
    kr = k * resid
    slope = 2.0 * (b_cos * _dot(kr, sin) - b_sin * _dot(kr, cos))
    return b_cos, b_sin, _dot(resid, resid), slope


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


@functools.lru_cache(maxsize=_SCAN_BASIS_LENGTHS)
def _scan_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's phase steps theta and, one row per theta, the cos and sin
    rows of `_index_solve` on n samples, normalised; a row whose norm is
    below `_rank_tol(n)` is zeroed. All three arrays are read-only."""
    thetas = np.geomspace(0.5 * math.pi / (n - 1), math.pi, _SCAN_POINTS)
    thetas.flags.writeable = False
    tol = _rank_tol(n)
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
    return thetas, *basis


def _scan_sse(centred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scan's phase steps for centred data c on any evenly spaced grid,
    and the residual sum of squares of `_index_solve` at each: c.c less the
    squares of c's components along the orthonormal rows of the basis."""
    thetas, q_cos, q_sin = _scan_basis(centred.size)
    return thetas, centred @ centred - (q_cos @ centred) ** 2 - (q_sin @ centred) ** 2


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
    h > 0, to within 1e-9 of their span: the fit runs on the sample index
    k (see the module docstring).
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
    step = float(volts[-1] - volts[0]) / (volts.size - 1)
    even = volts[0] + step * np.arange(volts.size)
    if not (step > 0 and np.max(np.abs(volts - even)) <= 1e-9 * span):
        raise PicmodError("voltages must be ascending and evenly spaced")

    # Scan, then the root of the residual's slope between the best scan
    # point's neighbours.
    centred = trans - trans.mean()
    thetas, sses = _scan_sse(centred)
    best = int(np.argmin(sses))
    lo = float(thetas[max(best - 1, 0)])
    hi = float(thetas[min(best + 1, thetas.size - 1)])
    # Brent returns a theta it evaluated, so the solve there is kept, not redone.
    solves = {}

    def slope(t):
        solves[t] = _index_solve(centred, t)
        return solves[t][3]

    try:
        theta = _brent_root(slope, lo, hi, 1e-12 * (hi - lo))
    except PicmodError as exc:
        # A slope of one sign across the bracket: the least residual is at
        # the edge of the scan, so the data holds no resolvable fringe.
        raise PicmodError(f"no residual minimum inside the v_pi scan: {exc}") from exc
    b_cos, b_sin, sse, _ = solves[theta]
    # The fringe's half amplitude is the norm of its cos and sin coefficients.
    if math.hypot(b_cos, b_sin) < 1e-9 * max(scale, 1.0):
        raise PicmodError("fitted fringe amplitude is degenerate")
    v_pi = math.pi * step / theta
    if v_pi > span:
        raise PicmodError(
            f"data spans {span:.3g} V, less than half a fringe of fitted v_pi {v_pi:.3g} V"
        )
    return VpiFit(v_pi=v_pi, residual=math.sqrt(sse / volts.size))
