"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of numpy's FFT calls by name, from here on; clear it to restart."""
    counts = {}
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts
