"""Seeded field factories and the reference state corpus used by the
verification batteries."""

from __future__ import annotations

import numpy as np

from .field import Field, Grid

__all__ = ["power_law_field", "gaussian_packet", "state_corpus"]


def power_law_field(grid: Grid, sigma: float, seed: int, amplitude: float = 1.0,
                    kmax: int | None = None) -> Field:
    """Real field with |c_k| = <xi_k>^(-sigma) and seeded random phases.

    Lies on the boundary of H^(sigma - 1/2) (physical frequencies, so the
    regularity is grid-period independent).  Phases for a given seed are
    indexed by wavenumber from a fixed-size draw: refining the grid extends
    the same field with new high modes instead of reshuffling it.
    """
    rng = np.random.default_rng(seed)
    n = grid.n
    limit = kmax if kmax is not None else n // 2
    c = np.zeros(n, dtype=complex)
    phases = np.exp(2j * np.pi * rng.random(4096))
    for i, k in enumerate(grid.k):
        if 0 < k <= min(limit, 4095) and k < n // 2:
            c[i] = (1.0 + grid.xi[i] ** 2) ** (-sigma / 2.0) * phases[k]
    c[n // 2 + 1:] = np.conj(c[1:n // 2][::-1])
    return Field.from_spectrum(grid, amplitude * c)


def gaussian_packet(grid: Grid, sigma: float, seed: int, amplitude: float,
                    width: float = 1.5) -> Field:
    """Localized packet: power-law roughness under a Gaussian envelope at x = 0.

    The amplitude scales the fixed power-law coefficients directly (no
    per-resolution normalization), so refining the grid extends the same
    physical field.
    """
    rough = power_law_field(grid, sigma, seed)
    envelope = np.exp(-(grid.x**2) / (2.0 * width**2))
    vals = amplitude * rough.values.real * envelope
    return Field(grid, vals - np.mean(vals))


def state_corpus(grid: Grid, amplitude: float = 0.02):
    """Ten (eta, psi) pairs spanning the regimes the oracles exercise."""
    x = grid.x
    a = amplitude
    pairs = [
        (np.zeros(grid.n), np.zeros(grid.n)),
        (a * np.cos(x), np.zeros(grid.n)),
        (np.zeros(grid.n), a * np.sin(x)),
        (a * np.cos(x), a * np.sin(x)),
        (a * np.cos(2 * x + 0.3), 0.5 * a * np.cos(x)),
        (0.5 * a * (np.cos(x) + np.cos(3 * x)), a * np.sin(2 * x)),
        (a * np.exp(-((x / 0.8) ** 2)) - a * np.mean(np.exp(-((x / 0.8) ** 2))),
         a * np.sin(x)),
        (2.5 * a * np.cos(x), 2.5 * a * np.sin(x)),
    ]
    states = [(Field(grid, e), Field(grid, p)) for e, p in pairs]
    states.append((power_law_field(grid, 4.0, 101, amplitude=a),
                   power_law_field(grid, 3.5, 102, amplitude=a)))
    states.append((gaussian_packet(grid, 4.0, 103, a),
                   gaussian_packet(grid, 3.5, 104, a)))
    return states
