"""histlearn benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-dadm --seed 1 --seconds 20 --trace 0

Generates a seeded synthetic MNIST-shaped dataset, runs the workload's
``histlearn`` commands in a closed loop through ``histlearn.cli.main`` for
``--seconds``, checks every command's outputs, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs
traced and untraced iterations alternately and reports per-layer metrics.
A run record (and with ``--trace 1`` the spans) is written under
``.perfbench_out/`` at the checkout root.  See README.md beside this file.
"""

import argparse
import json
import os
import shutil
import sys

import envinfo

# Before numpy or scipy load: their OpenBLAS pools read these only at load.
envinfo.pin_threads()
envinfo.use_checkout_source()

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="data and epoch sizes; 'tiny' is for the benchmark's own smoke tests")
    args = parser.parse_args()

    work_dir = os.path.join(envinfo.ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, record = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, workloads.SIZES[args.size],
            work_dir, os.path.join(envinfo.ROOT, ".perfbench_out"),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, {env['blas']}")
    print(f"generator: {json.dumps(record['generator'])}")
    print("img/s by command, at reference speed (wall): " + ", ".join(
        f"{k} {v['reference']:.1f} ({v['wall']:.1f})" for k, v in record["img_per_s_by_command"].items()))
    if record["absent_wrap_targets"]:
        print("absent wrap targets: " + ", ".join(record["absent_wrap_targets"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
