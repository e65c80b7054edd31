import contextlib
import io
import math
import os

import numpy as np
import pytest

from rootflow import cli
from rootflow.spectral import PeriodicGrid, RealField


def band_limited_field(grid: PeriodicGrid, rng, kband=None, offset=0.0):
    """Random real field with spectrum confined to |k| <= kband."""
    kband = grid.n // 8 if kband is None else kband
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    c[1 : kband + 1] = rng.normal(size=kband) + 1j * rng.normal(size=kband)
    vals = np.fft.irfft(c, n=grid.n)
    return RealField(grid, vals + offset)


def positive_band_limited_field(grid: PeriodicGrid, rng, floor=0.5, kband=None):
    f = band_limited_field(grid, rng, kband=kband)
    return RealField(grid, f.values - f.min() + floor)


def smooth_positive_field(grid: PeriodicGrid, rng, floor=0.5, decay=0.5, amp=1.0):
    """Analytic positive field: spectrum exp(-decay*k) with random phases,
    rescaled to the requested amplitude and shifted to the floor."""
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    k = np.arange(1, grid.n // 2)
    c[1:-1] = np.exp(-decay * k) * (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
    vals = np.fft.irfft(c, n=grid.n)
    vals *= amp / max(np.abs(vals).max(), 1e-300)
    return RealField(grid, vals - vals.min() + floor)


def direct_interpolant(values, m):
    """Trigonometric interpolant of n samples evaluated on the m-point grid
    by a direct Fourier sum; the Nyquist mode enters as c_{n/2} cos(n/2 x)."""
    n = values.shape[0]
    x = 2 * np.pi * np.arange(m) / m
    c = np.fft.rfft(values) / n
    out = np.full(m, c[0].real)
    for k in range(1, n // 2):
        out += 2 * (c[k] * np.exp(1j * k * x)).real
    out += (c[-1] * np.exp(1j * (n // 2) * x)).real
    return out


def direct_projection(values, n):
    """Samples on the n-point grid of the trigonometric polynomial of degree
    n/2 whose coefficients a direct Fourier sum takes from samples on that
    grid or a finer one; the Nyquist coefficient keeps its real part."""
    m = values.shape[0]
    x_fine = 2 * np.pi * np.arange(m) / m
    x = 2 * np.pi * np.arange(n) / n
    out = np.full(n, values.mean())
    for k in range(1, n // 2 + 1):
        c = np.sum(values * np.exp(-1j * k * x_fine)) / m
        if k < n // 2:
            out += 2 * (c * np.exp(1j * k * x)).real
        else:
            out += c.real * np.cos(k * x)
    return out


def field_with_nyquist(grid, rng, floor=0.5):
    """Positive band-limited field plus a nonzero Nyquist mode."""
    f = band_limited_field(grid, rng)
    v = f.values + 0.1 * np.cos(grid.kmax * grid.points)
    return RealField(grid, v - v.min() + floor)


def run_cli(*argv):
    """cli.main in this process; returns the exit code and the stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, err.getvalue()


def assert_ends_cleanly(rc, err, out):
    """The run passed or exited with a documented code and the matching
    `error:` or `run aborted:` line, with no traceback, and every number in
    every CSV it wrote in the directory out is finite."""
    assert rc in (0, *cli.EXIT_CODES.values())
    assert "Traceback" not in err
    if rc == cli.EXIT_CODES["config"]:
        assert err.startswith("error:")
    elif rc in (cli.EXIT_CODES["abort"], cli.EXIT_CODES["max_steps"]):
        assert err.startswith("run aborted:")
    else:
        assert err == ""
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(os.path.join(out, name)) as f:
                for token in f.read().replace("\n", ",").split(","):
                    try:
                        value = float(token)
                    except ValueError:  # a header or a check's name
                        continue
                    assert math.isfinite(value), f"{name} holds {token}"


@pytest.fixture
def grid():
    return PeriodicGrid(256)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
