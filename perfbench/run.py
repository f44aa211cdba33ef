"""Run one benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload ber-awgn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.  Results, tables and spans are
written under .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ber-awgn", "ber-eva", "psd-oob", "sir-grid")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(REPO / ".perfbench_out"))
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    t0 = time.perf_counter()
    try:
        import ncgfdm
    except ImportError as exc:
        print(f"cannot import the program from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not Path(ncgfdm.__file__).resolve().is_relative_to(REPO / "src"):
        print(f"ncgfdm was imported from {ncgfdm.__file__}, not from {REPO / 'src'}",
              file=sys.stderr)
        return 2

    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     import_s, Path(args.out))
    print(f"{args.workload}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for metric, v in result["metrics"].items():
        print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
