#!/usr/bin/env python3
"""prkflow benchmark: end-to-end step cost and per-layer timings.

Run from the root of a source checkout (the library is imported from its
``src`` directory):

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload llg2d-prk --seed 7 --seconds 30 --trace 0

With ``--workload`` the process measures that one workload and prints, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  It exits with 1 when an output check
failed and with 2 when the library cannot be imported from the checkout.
Without ``--workload`` it runs each workload in a fresh process, untraced
and then traced, prints the tables and, as its last line, the result
objects of all runs as one JSON object.

BLAS and OpenMP pools are pinned to one thread before numpy is imported.
"""

import argparse
import json
import os
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20240817      # the presets' own seed; reference.json holds its results


def _import_library():
    """Import prkflow from the checkout's src directory, or exit with 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import prkflow
    except ImportError as exc:
        _die(f"cannot import prkflow from {src}: {exc}")
    if not Path(prkflow.__file__).resolve().is_relative_to(src.resolve()):
        _die(f"prkflow resolved to {prkflow.__file__}, not under {src}")


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _openblas():
    """Runtime thread count and build line of each OpenBLAS numpy and scipy loaded."""
    import ctypes
    import glob

    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            info = {}
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get is not None and cfg is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    cfg.argtypes, cfg.restype = [], ctypes.c_char_p
                    info = {"threads": int(get()), "build": cfg().decode().strip()}
                    break
            out[pkg.__name__] = info
    return out


def _cache_sizes():
    sizes = {}
    for idx in (2, 3):
        try:
            text = (Path("/sys/devices/system/cpu/cpu0/cache") / f"index{idx}" / "size").read_text()
        except OSError:
            continue
        sizes[f"L{idx}"] = text.strip()
    return sizes


def _commit():
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    info = {"source_sha256": h.hexdigest()[:16]}
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if res.returncode == 0:
                info["git_commit"] = res.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def environment():
    import platform

    import numpy
    import scipy
    return {
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_commit(),
    }


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _print_metrics(title, metrics, absent=()):
    print(title)
    for name, (value, unit, n) in metrics.items():
        note = "  absent" if name in absent else ""
        print(f"  {name:38s} {_fmt(value):>14s} {unit:6s} n={n}{note}")


def run_one(args, bench):
    wl = bench.WORKLOADS[args.workload]
    env = environment()
    print(f"workload {wl.name}: preset {wl.preset}, scheme {wl.scheme}, "
          f"{wl.n_steps} steps per integration, seed {args.seed}, trace {args.trace}")
    print(f"  why: {wl.why}")
    print("environment " + json.dumps(env))
    m = bench.measure(wl, args.seed, args.seconds, args.trace, bench.load_reference())
    e2e = bench.end_to_end(m)
    print(f"{len(m.setups)} set-ups, {len(m.runs)} integrations, "
          f"{m.attempted} steps attempted, {m.failed} failed")
    _print_metrics("end-to-end" + (" (untraced steps of the traced run)" if args.trace else ""),
                   e2e)
    if args.trace:
        layers, absent = bench.per_layer(m)
        _print_metrics("per-layer (traced steps)", layers, absent)
        print("share of traced step time:")
        for name, share in bench.layer_shares(m).items():
            print(f"  {name:38s} {100 * share:6.1f} %")
        nbytes = layers["linalg.matvec_bytes_computed"][0]
        if nbytes:
            caches = ", ".join(f"{k} {v}" for k, v in env["caches"].items()) or "unknown"
            print(f"  CSR operator + vectors per matvec (computed): {nbytes / 2**20:.1f} MiB; "
                  f"caches of cpu0: {caches}")
        if m.absent:
            print("  absent targets: " + ", ".join(m.absent))
        if m.hook_errors:
            print("  hook errors: " + json.dumps(m.hook_errors))
        reported = layers
    else:
        reported = {k: e2e[k] for k in bench.E2E_REPORTED}
    for msg in m.messages():
        print("CHECK FAILED: " + msg)
    print(json.dumps({
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in reported.items()},
    }))
    return 0 if m.correct else 1


def run_suite(args, bench):
    status = 0
    summary = {}
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(res.stdout)
            sys.stderr.write(res.stderr)
            status = max(status, res.returncode)
            lines = res.stdout.strip().splitlines()
            if lines:
                try:
                    summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
                except json.JSONDecodeError:
                    pass
            print()
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_library()
    import bench
    if args.workload is None:
        return run_suite(args, bench)
    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; know {', '.join(bench.WORKLOADS)}")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
