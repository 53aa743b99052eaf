"""Smooth cutoff profiles shared by the quantizer and the escape function."""

from __future__ import annotations

import numpy as np

__all__ = ["smooth_step", "smooth_step_derivative", "chi_profile", "psi_cut"]

# the admissibility cutoff chi_tilde falls from one to zero over [CHI_EPS1, CHI_EPS2]
CHI_EPS1 = 0.1
CHI_EPS2 = 0.2


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_derivative(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def smooth_step(t) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    f = _bump(t)
    g = _bump(1.0 - t)
    return f / (f + g)


def smooth_step_derivative(t) -> np.ndarray:
    """Exact derivative of :func:`smooth_step`."""
    t = np.asarray(t, dtype=float)
    f = _bump(t)
    g = _bump(1.0 - t)
    fp = _bump_derivative(t)
    gp = _bump_derivative(1.0 - t)
    return (fp * g + f * gp) / (f + g) ** 2


def chi_profile(r) -> np.ndarray:
    """Quantizer admissibility profile chi_tilde as a function of |theta|/|eta|:
    one below ``CHI_EPS1``, zero above ``CHI_EPS2``."""
    return 1.0 - smooth_step((np.asarray(r) - CHI_EPS1) / (CHI_EPS2 - CHI_EPS1))


def psi_cut(eta) -> np.ndarray:
    """Low-frequency cutoff psi: 0 for |eta| <= 1, 1 for |eta| >= 2."""
    return smooth_step(np.abs(np.asarray(eta, dtype=float)) - 1.0)
