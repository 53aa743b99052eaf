"""Write the stored references of the workloads.

For each seed, one episode of each simulate workload is run and its final
(eta, psi) and last diagnostic record are saved to
``perfbench/reference/<workload>.npz``; for ``dn-ladder``, G(eta)psi of
every (base draw, rung), which covers every seed.  Run from the checkout
root::

    python3 perfbench/make_reference.py --seeds 64

Regenerate only when a change is meant to alter the numerical output, and
say so: the benchmark's correctness gate compares against these files.
"""

import argparse
import os
import sys

from run import BLAS_PIN, OUT, WORKLOAD_NAMES, import_capwave


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64,
                        help="simulate workloads: seeds 0 .. N-1")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="write only this workload's reference (repeatable)")
    args = parser.parse_args(argv)
    import_capwave()
    import numpy as np
    from workloads import REFERENCE_DIR, WORKLOADS, fresh_dir

    REFERENCE_DIR.mkdir(exist_ok=True)
    work = fresh_dir(OUT, f"work-reference-{os.getpid()}")
    for name in args.workload or WORKLOAD_NAMES:
        wl = WORKLOADS[name]
        if name == "dn-ladder":
            np.savez_compressed(REFERENCE_DIR / f"{name}.npz", g=wl.base_output())
            print(f"{name}: {wl.draws} base draws")
            continue
        outs = [wl.episode_output(seed, work) for seed in range(args.seeds)]
        drift = [abs(o["record"][4] - o["first_record"][4]) / abs(o["first_record"][4])
                 for o in outs]
        np.savez_compressed(
            REFERENCE_DIR / f"{name}.npz", seeds=np.arange(args.seeds),
            **{k: np.array([o[k] for o in outs]) for k in ("eta", "psi", "record")})
        print(f"{name}: {args.seeds} seeds, Hamiltonian drift per episode "
              f"max {max(drift):.3e} median {float(np.median(drift)):.3e}")
    return 0

if __name__ == "__main__":
    os.environ.update(BLAS_PIN)
    sys.exit(main())
