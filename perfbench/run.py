"""Run one benchmark workload and print every metric by name and unit.

From the repository root::

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrument in the
way; ``--trace 1`` is a separate run that also wraps the program's
public entry points, and reports the per-layer metrics (its spans are
written to ``.perfbench_out/``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero without that line if the program
cannot be imported or built.

The environment the program reads is pinned before it is imported:
``REPRO_COMPILE_CACHE`` points at a fresh private directory, so the
``compiled`` backend runs its default schedule rather than whatever a
user cache holds, ``REPRO_BACKEND`` and ``REPRO_LOCK_SANITIZER`` are
unset, and BLAS is held to one thread.  The BLAS settings, the machine
fingerprint and the source revision are recorded with every result in
``.perfbench_out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment(cache_dir) -> dict:
    """Pin what the program reads from the environment; return a record.

    BLAS runs one thread: the serving workloads put one replica on each
    core, and with the library default every replica's BLAS threads
    spin against the others' (the latency spread doubles); the paper
    point then runs on one core, so its CPU time is its compute time.
    """
    os.environ["REPRO_COMPILE_CACHE"] = str(cache_dir)
    for name in ("REPRO_BACKEND", "REPRO_LOCK_SANITIZER"):
        os.environ.pop(name, None)
    for name in BLAS_ENV:
        os.environ[name] = "1"
    return {name: os.environ.get(name) for name in BLAS_ENV}


def source_revision() -> dict:
    """The git commit when there is one, and a hash of ``src/`` always
    (benchmark checkouts are not git repositories)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def emit(result, trace) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones."""
    from perfbench.catalogue import END_TO_END, PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    missing = [name for name, _ in names if name not in result.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix="compile-cache-", dir=OUT))
    try:
        blas = pin_environment(cache)
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from perfbench.layers import Spans
        from perfbench.workloads import WORKLOADS
        from repro.compile import machine_fingerprint

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        spans = Spans() if args.trace else None
        t0 = time.perf_counter()
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace), spans)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    from perfbench.catalogue import UNITS

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_fingerprint(), "platform": platform.platform(),
        "cpus": os.cpu_count(), "blas_env": blas, **source_revision(),
        "wall_s": wall, "checks": result.checks, "info": result.info,
        "metrics": result.metrics,
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} machine={record['machine']} "
          f"commit={record['commit']} src={record['src_sha256']}")
    print(f"# blas_env={json.dumps(blas)}")
    for name, (ok, detail) in result.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for key, value in result.info.items():
        print(f"info {key} = {json.dumps(value)}")
    for name in sorted(result.metrics):
        print(f"{name:42s} {result.metrics[name]:>14.6g} {UNITS[name]}")
    print("# kernel mbytes are computed from array sizes, not measured")
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if spans is not None:
        spans.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", record)
    print(json.dumps(emit(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
