"""capwave benchmark: seeded closed-loop workloads, end-to-end metrics, traces.

Run from the root of a capwave source checkout::

    python3 perfbench/run.py --workload mollified-eps --seed 0 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs half the time untraced and half traced and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result with
its run environment is also written to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and the metric mapping.
"""

import time

T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set before numpy is imported; recorded in every result
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("raw-packet", "mollified-eps", "dn-ladder")
# p90 needs at least 10 samples beyond it
MIN_OPS = 110
SETUP_PROBES = 5  # extra cold processes whose set-up time joins the median


class BenchError(RuntimeError):
    """The benchmark cannot run or a traced layer check failed."""


def import_capwave():
    """Import capwave from this checkout's src/ and nowhere else."""
    if not (SRC / "capwave" / "__init__.py").is_file():
        raise BenchError(f"no capwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import capwave
    if Path(capwave.__file__).resolve().parent != (SRC / "capwave").resolve():
        raise BenchError(f"capwave imported from {capwave.__file__}, not {SRC}")
    return capwave


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_env(args, wl) -> dict:
    import numpy as np
    import scipy
    from workloads import input_digest
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": input_digest(wl, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD commit read from .git, or None when the checkout has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "capwave").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_workload(name, seed, work_dir):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    wl.setup(seed, work_dir)
    return wl


def probe_setup(args) -> list:
    """(set-up seconds, host probe seconds right after) of fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["host_probe_s"]))
    return samples


def end_to_end(wl, res, setup_samples) -> tuple[dict, dict]:
    """Metrics scaled to the reference host speed, and the run's detail."""
    import numpy as np
    from workloads import HOST_PROBE_REF_S
    lat = res.scaled_latencies()
    p90 = float(np.percentile(lat, 90) * 1e3)
    setup = [sec * HOST_PROBE_REF_S / probe for sec, probe in setup_samples]
    metrics = {
        "ops_per_s": res.ops_per_s(),
        "op_ms_p50": float(np.percentile(lat, 50) * 1e3),
        "op_ms_p90": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = res.latencies
    detail = {
        "as_measured": {
            "ops_per_s": len(raw) / res.timed_s,
            "op_ms_p50": float(np.percentile(raw, 50) * 1e3),
            "op_ms_p90": float(np.percentile(raw, 90) * 1e3),
            "setup_s": statistics.median(sec for sec, _ in setup_samples),
        },
        "host_factor_median": float(np.median(res.host_factors)),
        "ops_completed": len(lat),
        "ops_beyond_p90": int(np.sum(lat * 1e3 > p90)),
        "timed_s": res.timed_s,
        "scaled_s": res.scaled_s,
        "setup_samples_s": setup_samples,
        "failed_frac": res.failed / res.attempted,
        "latencies_s": raw,
        "host_factors": res.host_factors,
    }
    if wl.name == "dn-ladder":
        nearest = int(np.argmin(np.abs(lat * 1e3 - p90)))
        detail["p90_rung"] = res.labels[nearest]
        labels = np.asarray(res.labels)
        detail["rung_ms_p50"] = {str(a): float(np.median(lat[labels == a]) * 1e3)
                                 for a in wl.rungs}
    return metrics, detail


def per_layer(wl, tracer, untraced, traced) -> dict:
    import numpy as np
    from tracing import SpanTable
    t = SpanTable(tracer.arrays())
    ops = max(len(traced.latencies), 1)
    phase = traced.timed_s
    solves = t.count("dno.solve_strip")
    solve_durs = t.durations("dno.solve_strip")
    builds = t.count("paradiff.Quantizer.matrix")
    rhs = t.count("evolution.zakharov_rhs", "evolution.mollified_rhs")
    metrics = {
        "dno.solves": solves,
        "dno.solves_per_op": solves / ops,
        "dno.solve_s": t.inclusive("dno.solve_strip"),
        "dno.solve_ms_p50": float(np.median(solve_durs) * 1e3) if len(solve_durs) else 0.0,
        "dno.residual_max": max(tracer.residuals, default=0.0),
        "dno.solver_errors": tracer.errors["dno.solve_strip", "SolverError"],
        "dno.run_share": t.layer_inclusive("dno") / phase,
        "paradiff.matrix_builds": builds,
        "paradiff.builds_per_op": builds / ops,
        "paradiff.matrix_self_s": t.self_s("paradiff.Quantizer.matrix"),
        "paradiff.matrix_share": t.inclusive("paradiff.Quantizer.matrix") / phase,
        "paradiff.apply_calls": t.count("paradiff.DenseOp.apply"),
        "paradiff.apply_s": t.inclusive("paradiff.DenseOp.apply"),
        "symbols.samples": t.count("symbols.Symbol.sample_grid"),
        "symbols.sample_s": t.inclusive("symbols.Symbol.sample_grid"),
        "symbols.sample_share": t.inclusive("symbols.Symbol.sample_grid") / phase,
        "field.product_calls": t.count("field.dealiased_product"),
        "field.product_s": t.inclusive("field.dealiased_product"),
        "field.derivative_s": t.inclusive("field.x_derivative"),
        "field.transform_s": t.inclusive("field.Field.from_spectrum", "field.Field.spectrum"),
        "evolution.rhs_calls": rhs,
        "evolution.rhs_per_op": rhs / ops,
        "evolution.step_self_s": t.self_s("evolution.step"),
        "evolution.diagnostics_s": t.self_s("evolution.hamiltonian", "field.sobolev_norm",
                                            "field.weighted_norm", outside_ops=True),
        "smoothing.report_s": t.layer_inclusive("smoothing"),
        "cli.self_s": t.self_s("cli.run_simulate"),
        "trace.overhead_frac": 1.0 - traced.ops_per_s() / untraced.ops_per_s(),
        "trace.spans": len(t.dur),
    }
    check_layers(wl.name, metrics, t.in_ops("paradiff.Quantizer.matrix"))
    return metrics


def check_layers(name, m, builds_in_ops) -> None:
    """Fail when a layer predicted active recorded nothing, or an idle one ran."""
    problems = []
    if m["dno.solves"] == 0:
        problems.append("dno recorded no solve")
    if name == "mollified-eps":
        if m["paradiff.matrix_builds"] == 0:
            problems.append("paradiff recorded no matrix build")
        if m["symbols.samples"] == 0:
            problems.append("symbols recorded no grid sample")
    elif builds_in_ops:
        problems.append(f"{builds_in_ops} quantizer builds inside ops, predicted none")
    if problems:
        raise BenchError(f"span self-check failed on {name}: " + "; ".join(problems))


def run_traced(wl, args):
    from tracing import Tracer
    untraced = wl.run(args.seconds / 2, 0)
    wl.verify(untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run(args.seconds / 2, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    wl.verify(traced)
    metrics = per_layer(wl, tracer, untraced, traced)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    detail = {"untraced_ops_per_s": untraced.ops_per_s(),
              "traced_ops_per_s": traced.ops_per_s(),
              "notes_untraced": untraced.notes, "notes_traced": traced.notes}
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    import_capwave()
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_probe:
        setup_workload(args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - T0
        from workloads import host_probe
        print(json.dumps({"setup_s": setup_s,
                          "host_probe_s": statistics.median(host_probe() for _ in range(3))}))
        return 0

    from workloads import fresh_dir
    fresh_dir(OUT, work_dir.name)
    try:
        wl = setup_workload(args.workload, args.seed, work_dir)
        own_setup = time.perf_counter() - T0
        from workloads import host_probe
        own_probe = statistics.median(host_probe() for _ in range(3))
        if args.trace:
            metrics, detail, attempted, failed = run_traced(wl, args)
        else:
            res = wl.run(args.seconds, MIN_OPS)
            wl.verify(res)
            setup_samples = [(own_setup, own_probe)] + probe_setup(args)
            metrics, detail = end_to_end(wl, res, setup_samples)
            detail["notes"] = res.notes
            attempted, failed = res.attempted, res.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    env = run_env(args, wl)
    correct = failed == 0
    print(f"capwave benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, correct {correct}")
    measured = detail.get("as_measured", {})
    for name, value in metrics.items():
        line = f"  {name:26s} {value:14.6g} {units[name]}"
        if name in measured:
            line += f"  (as measured {measured[name]:.6g})"
        print(line)
    if not args.trace:
        print(f"  host slowdown against the reference speed, median "
              f"{detail['host_factor_median']:.3f}")
        print(f"  {'failed_frac':26s} {detail['failed_frac']:14.6g} fraction "
              f"({failed}/{attempted})")
        print(f"  samples behind p50/p90: {detail['ops_completed']} "
              f"({detail['ops_beyond_p90']} beyond p90)")
    full = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "detail": detail, "env": env}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True, default=float))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    os.environ.update(BLAS_PIN)
    from tracing import CoverageError
    try:
        sys.exit(main())
    except (BenchError, CoverageError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
