"""Benchmark set-up, run as a child process of ``run.py``.

Writes the synthetic dataset as IDX files under ``<out>/data`` and, for
each ``--train arch:epochs``, trains a checkpoint into ``<out>/ckpt-<arch>``
with ``histlearn train``.  Prints one JSON line of generator statistics
and the reference kernel's time before and after the work, which the
parent uses to bring the set-up time to reference machine speed.
A separate process keeps set-up's imports inside its timing and its memory
peak out of the measured commands'.

    python3 perfbench/setup_data.py --seed 1 --n-train 1024 --n-test 256 \
        --out WORKDIR [--train dadm:5 ...]
"""

import argparse
import contextlib
import io
import json
import os
import sys

import envinfo

envinfo.pin_threads()
envinfo.use_checkout_source()

import numpy as np  # noqa: E402

import synth  # noqa: E402
from histlearn.cli import main as histlearn_main  # noqa: E402
from histlearn.data import normalize  # noqa: E402
from histlearn.transforms import TransformSpec, transform_image  # noqa: E402
from workloads import Speedometer, train_argv  # noqa: E402

ROTATION_SAMPLE = 32


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-train", type=int, required=True)
    parser.add_argument("--n-test", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--train", action="append", default=[], metavar="ARCH:EPOCHS")
    args = parser.parse_args()
    speed = Speedometer()
    before = speed.measure()

    data_dir = os.path.join(args.out, "data")
    splits = {}
    for split, count in (("train", args.n_train), ("test", args.n_test)):
        splits[split] = synth.make_digits(count, args.seed, split)
        synth.write_idx(data_dir, split, *splits[split])

    test_images = splits["test"][0][:ROTATION_SAMPLE]
    spec = TransformSpec("rotate", rng_seed=args.seed)
    rotated = np.stack([transform_image(normalize(img), i, spec) for i, img in enumerate(test_images)])
    stats = synth.image_stats(splits["train"][0])
    stats["distinct_per_image_sample"] = synth.image_stats(test_images, rotated)

    for item in args.train:
        arch, _, epochs = item.partition(":")
        argv = train_argv(arch, int(epochs), args.seed, data_dir, os.path.join(args.out, f"ckpt-{arch}"))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = histlearn_main(argv)
        if rc != 0:
            print(f"histlearn {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
    stats["ref_kernel_s"] = [before, speed.measure()]
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
