"""Benchmark entry point; run it from the repository root::

    python3 studybench/run.py --workload study-cold --seed 1 --seconds 30 --trace 0

It pins BLAS/OpenMP to one thread before numpy loads, imports the
package from this checkout's ``src``, runs one workload (see
:mod:`studybench.bench`) and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The full run record, and with ``--trace 1`` the spans
as JSONL, go to ``.studybench/`` at the checkout root.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".studybench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return parser, args


def main(argv=None) -> int:
    parser, args = _parse(argv)
    # A SIGTERM unwinds like an exception, so study-warm's spill dir is
    # deleted on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro
    from studybench import bench
    from studybench.workloads import WORKLOADS

    import_seconds = time.perf_counter() - started
    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(f"error: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    result, record = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR,
        import_seconds=import_seconds,
    )
    path = os.path.join(
        WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    host = {key: record[key] for key in
            ("host", "probe_start_gflop_per_s", "probe_end_gflop_per_s")}
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
