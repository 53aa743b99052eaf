"""The numbers a performance change must not move, against ``fingerprint.npz``.

``make_fingerprint.py`` lists the entries and writes the file.  Every entry
must match bit for bit, except ``trajectory_kato``: its n = 256 strip solves
round differently with BLAS on 1 and on 2 threads, by up to 3.4e-13 of a
column's size, so it is held to 1e-12 per column.  A change that moves
numbers on purpose regenerates the file and lists the moves; a tolerance is
never widened to let a move pass.
"""

import numpy as np

from make_fingerprint import FINGERPRINT, compute, deviation

# largest relative deviation per entry (make_fingerprint.deviation); 0: bit for bit
TOLERANCE = {"trajectory_kato": 1e-12}


def test_fingerprint_matches_the_stored_entries():
    entries = compute()
    with np.load(FINGERPRINT) as stored:
        assert sorted(stored.files) == sorted(entries)
        moved = {}
        for name in sorted(entries):
            dev = deviation(name, entries[name], stored[name])
            print(f"{name}: largest relative deviation {dev:.3e}")
            if not dev <= TOLERANCE.get(name, 0.0):  # NaN fails too
                moved[name] = dev
    assert moved == {}
