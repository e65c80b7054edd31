"""Root flow of real-rooted polynomials under repeated differentiation.

The motivating discrete system: place n real roots according to a density,
differentiate the polynomial k = floor(t*n) times, and follow the surviving
roots.  Between consecutive roots r_j < r_{j+1} of p the logarithmic
derivative g(x) = sum 1/(x - r_i) decreases strictly from +inf to -inf, so
each interval holds exactly one root of p'.  Writing x = r_j + y*gap_j, that
root is the zero in (0, 1) of the smooth function
h(y) = y(1-y) gap_j g(x) = 1 - 2y + y(1-y) gap_j A(x), where A leaves out the
two bracketing poles; it is found by Newton's method on h, safeguarded by
bisection.
"""

from dataclasses import dataclass

import numpy as np

MIN_ROOT_GAP = 1e-13
NEWTON_YTOL = 1e-14  # a row stops once its step in y falls below this
NEWTON_MAX_ITER = 64  # bisection alone reaches NEWTON_YTOL in about 47
BLOCK_ROWS = 128  # work arrays are BLOCK_ROWS x n, never n x n


@dataclass(frozen=True)
class RootEnsemble:
    roots: np.ndarray
    n0: int
    k: int = 0

    def __post_init__(self):
        r = np.asarray(self.roots, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("ensemble needs at least one root")
        if not np.all(np.isfinite(r)):
            raise ValueError("roots must be finite")
        if np.any(np.diff(r) <= 0):
            raise ValueError("roots must be strictly increasing")
        if r.size != self.n0 - self.k:
            raise ValueError(
                f"{r.size} roots inconsistent with n0={self.n0}, k={self.k}"
            )
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "roots", r)

    def __len__(self):
        return self.roots.size

    @property
    def span(self) -> float:
        return float(self.roots[-1] - self.roots[0])


def _cdf(x: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Trapezoid CDF of a nonnegative density table, normalized to end at 1."""
    if np.any(density < 0):
        raise ValueError("density must be nonnegative")
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))])
    if cdf[-1] <= 0:
        raise ValueError("density has zero total mass")
    return cdf / cdf[-1]


def quantile_sample(x: np.ndarray, density: np.ndarray, n: int) -> RootEnsemble:
    """Deterministic n-point sample at the (j - 1/2)/n quantiles of a density.

    The CDF is built by trapezoid quadrature on the (x, density) table and
    inverted by monotone linear interpolation.
    """
    x = np.asarray(x, dtype=float)
    if n < 2:
        raise ValueError("need n >= 2 sample points")
    cdf = _cdf(x, np.asarray(density, dtype=float))
    targets = (np.arange(n) + 0.5) / n
    # keep the interpolation table strictly increasing where the density
    # vanishes by collapsing flat runs of the CDF
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    return RootEnsemble(np.interp(targets, cdf[keep], x[keep]), n0=n, k=0)


def seam_centred(x: np.ndarray) -> np.ndarray:
    """Map circle points in [0, 2pi) to [-pi, pi), so the seam sits at +-pi."""
    return np.where(x >= np.pi, x - 2.0 * np.pi, x)


def window(u):
    """(x, values) of a periodic field, x seam-centred and sorted increasing."""
    x = seam_centred(u.grid.points)
    order = np.argsort(x)
    return x[order], u.values[order]


def quantile_sample_field(u, margin: float = 0.5, n: int = 100) -> RootEnsemble:
    """Quantile-sample a periodic field treated as a density on the window
    (-pi + margin, pi - margin); the support must not touch the seam."""
    x, vals = window(u)
    inside = np.abs(x) <= np.pi - margin
    outside_mass = u.grid.dx * np.sum(vals[~inside])
    if outside_mass > 1e-8 * u.grid.dx * np.sum(vals):
        raise ValueError(
            f"density support reaches the periodic seam "
            f"(mass {outside_mass:.3e} outside the window)"
        )
    return quantile_sample(x[inside], vals[inside], n)


def derivative_roots(e: RootEnsemble) -> RootEnsemble:
    """Roots of p' for p(x) = prod (x - r_i), one per interlacing interval.

    Each root is x = r_j + y*gap_j with h(y) = 1 - 2y + y(1-y) gap_j A(x) = 0,
    where A sums 1/(x - r_i) over every root but r_j and r_{j+1}, so
    h(0) = 1 and h(1) = -1.  Every row starts at y = 1/2 and keeps a bracket
    [lo, hi] on the sign change of h.  A Newton step that is not finite,
    leaves the bracket or lands on its far end is replaced by the bracket
    midpoint.  A row stops once its step in y is below NEWTON_YTOL, or below
    two float steps of x across the gap.  Rows go in blocks of BLOCK_ROWS,
    so memory is O(BLOCK_ROWS * n).
    """
    r = e.roots
    if r.size < 2:
        raise ValueError("need at least 2 roots to differentiate")
    gaps = np.diff(r)
    if np.any(gaps < MIN_ROOT_GAP):
        raise ValueError(
            f"repeated roots (gap < {MIN_ROOT_GAP:g}): interlacing bracket degenerates"
        )
    y, lo, hi = np.full(gaps.size, 0.5), np.zeros(gaps.size), np.ones(gaps.size)
    ytol = np.maximum(NEWTON_YTOL, 2.0 * np.spacing(np.maximum(np.abs(r[:-1]), np.abs(r[1:]))) / gaps)
    work = np.empty((min(BLOCK_ROWS, gaps.size), r.size))
    for first in range(0, gaps.size, BLOCK_ROWS):
        rows = np.arange(first, min(first + BLOCK_ROWS, gaps.size))
        for _ in range(NEWTON_MAX_ITER):
            w, m, yr, g = work[: rows.size], np.arange(rows.size), y[rows], gaps[rows]
            with np.errstate(divide="ignore"):  # x may round onto r_j or r_{j+1}, poles dropped below
                np.reciprocal(np.subtract((r[rows] + yr * g)[:, None], r, out=w), out=w)
            w[m, rows] = w[m, rows + 1] = 0.0  # h carries the bracketing poles exactly
            a = w.sum(axis=1)  # pairwise summation keeps cancellation small
            h = 1.0 - 2.0 * yr + yr * (1.0 - yr) * g * a
            dh = -2.0 + (1.0 - 2.0 * yr) * g * a - yr * (1.0 - yr) * g * g * np.einsum("ij,ij->i", w, w)
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = yr - h / dh
            lo[rows], hi[rows] = np.where(h > 0.0, yr, lo[rows]), np.where(h > 0.0, hi[rows], yr)
            # h == 0 moves hi onto y, so a zero step counts as inside; a step
            # onto the far end bisects, which breaks a cycle between two
            # floats of x that straddle the root
            newton = ((cand > lo[rows]) & (cand < hi[rows])) | (cand == yr)  # False for nan
            y[rows] = np.where(newton, cand, 0.5 * (lo[rows] + hi[rows]))
            rows = rows[np.abs(y[rows] - yr) >= ytol[rows]]
            if rows.size == 0:
                break
        else:
            raise RuntimeError(f"{rows.size} roots unconverged after {NEWTON_MAX_ITER} Newton steps")
    out = r[:-1] + y * gaps
    if np.any(out <= r[:-1]) or np.any(out >= r[1:]):
        raise RuntimeError("derivative root escaped its interlacing interval")
    return RootEnsemble(out, n0=e.n0, k=e.k + 1)


def root_flow(e: RootEnsemble, t: float) -> RootEnsemble:
    """Apply floor(t * n0) differentiation passes, t in [0, 1)."""
    if not (0.0 <= t < 1.0):
        raise ValueError(f"flow time must lie in [0, 1), got {t}")
    k = int(np.floor(t * e.n0))
    if e.k + k > e.n0 - 1:
        raise ValueError(f"t={t} removes more roots than the ensemble has")
    out = e
    for _ in range(k):
        out = derivative_roots(out)
    return out


def wasserstein1(e: RootEnsemble, x, density) -> float:
    """W1 distance between the empirical measure of the roots and a density
    given as a table (x, density) on an interval, via the L1 distance of CDFs.

    Both measures are normalized to probability first.
    """
    x = np.asarray(x, dtype=float)
    dens_cdf = _cdf(x, np.asarray(density, dtype=float))
    roots = e.roots
    breakpoints = np.unique(np.concatenate([x, roots]))
    f_dens = np.interp(breakpoints, x, dens_cdf, left=0.0, right=dens_cdf[-1])
    f_emp = (1.0 / len(e)) * np.searchsorted(roots, breakpoints, side="right")
    # the empirical CDF is constant between breakpoints (it jumps at roots,
    # which are breakpoints) and the density CDF linear, so |F_emp - F_dens|
    # integrates exactly per segment: a trapezoid where the difference keeps
    # its sign, two triangles, (a^2 + b^2) / (|a| + |b|), where it changes
    a = f_emp[:-1] - f_dens[:-1]
    b = f_emp[:-1] - f_dens[1:]
    same = a * b >= 0
    height = np.divide(a * a + b * b, np.abs(a) + np.abs(b), out=np.abs(a + b), where=~same)
    return float(np.sum(0.5 * np.diff(breakpoints) * height))
