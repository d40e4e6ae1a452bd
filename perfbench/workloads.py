"""The three workloads, their closed command loop and their output checks.

Each workload is one caller in one process sending ``histlearn`` commands
one after another through ``histlearn.cli.main``, exactly the argv a user
would type.  Set-up (data generation, IDX files and, for eval-battery, the
checkpoints) runs in child processes so that its imports are timed and its
memory peak stays out of the commands' ``peak_rss_mb``.

An *operation* is a CLI command, a set-up step or an output check; every
failed one is counted, and the run still reports its metrics.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

import envinfo
import tracing
# Every module the tracer patches must be loaded before it installs.
from histlearn import checkpoint, cli, data, distlayers, histogram, models, nn, reports, transforms  # noqa: F401
from histlearn.errors import HistlearnError

HERE = os.path.dirname(os.path.abspath(__file__))

# The paper's model settings; the benchmark passes them explicitly so a
# change of CLI defaults cannot change the work measured.
MODEL_FLAGS = ["--batch", "64", "--lr", "0.001", "--bins", "256", "--bandwidth", "0.001"]
KINDS = tracing.TRANSFORM_KINDS
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_test: int
    epochs: dict
    # Lowest acceptable test top-1 (percent) on original images, per arch.
    # Set from seed runs at full size (see README.md); tiny runs only check
    # that training ran.
    floors: dict = field(default_factory=dict)


SIZES = {
    "full": Sizes(
        n_train=1024,
        n_test=256,
        epochs={"dadm": 5, "lenet": 2, "cnn": 2},
        floors={"dadm": 50.0, "lenet": 45.0, "cnn": 70.0},
    ),
    "tiny": Sizes(n_train=128, n_test=64, epochs={"dadm": 1, "lenet": 1, "cnn": 1}),
}


@dataclass(frozen=True)
class Workload:
    commands: tuple  # ("train" | "eval", arch) in loop order
    setup_archs: tuple = ()  # checkpoints trained during set-up


WORKLOADS = {
    "train-dadm": Workload(commands=(("train", "dadm"),)),
    "train-spatial": Workload(commands=(("train", "lenet"), ("train", "cnn"))),
    "eval-battery": Workload(
        commands=(("eval", "dadm"), ("eval", "lenet")), setup_archs=("dadm", "lenet")
    ),
}


class Ledger:
    """Attempted and failed operations, with the first failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok


def train_argv(arch, epochs, seed, data_dir, out_dir):
    return ["train", "--arch", arch, "--epochs", str(epochs), *MODEL_FLAGS,
            "--seed", str(seed), "--data-dir", data_dir, "--out-dir", out_dir]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --------------------------------------------------------------------------
# Set-up


def setup(workload, sizes, seed, work_dir, ledger):
    """Run the set-up child SETUP_REPEATS times.

    Returns the wall times, the same at reference speed (from the kernel
    times the child measured around its own work), the first repeat's
    directory and its generator statistics.
    """
    wl = WORKLOADS[workload]
    walls, ref_walls, dirs, stats = [], [], [], None
    for rep in range(SETUP_REPEATS):
        out = os.path.join(work_dir, f"setup{rep}")
        argv = [sys.executable, os.path.join(HERE, "setup_data.py"), "--seed", str(seed),
                "--n-train", str(sizes.n_train), "--n-test", str(sizes.n_test), "--out", out]
        for arch in wl.setup_archs:
            argv += ["--train", f"{arch}:{sizes.epochs[arch]}"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
            rc, err = proc.returncode, proc.stderr.strip()[-500:]
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc, err = "timeout", ""
        walls.append(time.perf_counter() - t0)
        if ledger.check(f"setup{rep}.exit", rc == 0, f"exit {rc}: {err}"):
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            ref_walls.append(at_reference(walls[-1], *report.pop("ref_kernel_s")))
            stats = stats or report
        dirs.append(out)
    # Same seed, fresh process: every repeat must produce identical bytes.
    reference = _tree_digest(dirs[0])
    for rep, d in enumerate(dirs[1:], start=1):
        ledger.check(f"setup{rep}.deterministic", _tree_digest(d) == reference,
                     "set-up outputs differ from the first repeat")
    for d in dirs[1:]:
        shutil.rmtree(d, ignore_errors=True)
    return walls, ref_walls, dirs[0], stats


def _tree_digest(root):
    """Digests of the IDX files and checkpoints a set-up writes."""
    digest = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if "idx" in name or name.endswith(".ckpt"):
                path = os.path.join(dirpath, name)
                digest[os.path.relpath(path, root)] = _sha256(path)
    return digest


# --------------------------------------------------------------------------
# Commands and their checks


@dataclass
class Command:
    kind: str
    arch: str
    argv: list
    data_dir: str
    out_dir: str
    units: int  # images processed: train images x epochs, or test images x kinds
    digests: dict = field(default_factory=dict)  # first iteration's outputs
    top1: object = None  # last test accuracy seen: percent, or {transform: percent}


def build_commands(workload, sizes, seed, setup_dir, work_dir):
    data_dir = os.path.join(setup_dir, "data")
    commands = []
    for kind, arch in WORKLOADS[workload].commands:
        out = os.path.join(work_dir, f"{kind}-{arch}")
        if kind == "train":
            argv = train_argv(arch, sizes.epochs[arch], seed, data_dir, out)
            units = sizes.n_train * sizes.epochs[arch]
        else:
            ckpt = os.path.join(setup_dir, f"ckpt-{arch}", f"model_{arch}.ckpt")
            argv = ["eval", ckpt, "--transforms", ",".join(KINDS), "--seed", str(seed),
                    "--data-dir", data_dir, "--out-dir", out]
            units = sizes.n_test * len(KINDS)
        commands.append(Command(kind, arch, argv, data_dir, out, units))
    return commands


def prepare(command):
    """Untimed: clear the previous outputs, and for dadm training the
    histogram cache, so every command does the work a first run does."""
    shutil.rmtree(command.out_dir, ignore_errors=True)
    for name in os.listdir(command.data_dir):
        if name.startswith("hist_cache"):
            os.remove(os.path.join(command.data_dir, name))


def run_command(command, ledger):
    """One timed ``histlearn`` command; returns (wall seconds, its stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(command.argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ledger.check(f"{command.kind}.{command.arch}.exit", rc == 0, f"returned {rc}")
    return wall, buf.getvalue()


_FINAL_ACC = re.compile(r"final test accuracy \(original\): ([0-9.]+)%")


def check_outputs(command, stdout, sizes, ledger):
    """Output checks of one command; the first iteration's output digests
    become the reference the later, identically seeded iterations must match."""
    name = f"{command.kind}.{command.arch}"
    floor = sizes.floors.get(command.arch, 0.0)
    try:
        if command.kind == "train":
            outputs = [f"model_{command.arch}.ckpt", "loss_curve.csv"]
            curve, _ = reports.read_loss_curve(os.path.join(command.out_dir, "loss_curve.csv"))
            ledger.check(f"{name}.curve_length", len(curve) == sizes.epochs[command.arch],
                         f"{len(curve)} epochs in loss_curve.csv")
            ledger.check(f"{name}.losses_finite",
                         all(math.isfinite(s.mean_loss) for s in curve), str(curve))
            match = _FINAL_ACC.search(stdout)
            top1 = float(match.group(1)) if match else -1.0
            ledger.check(f"{name}.accuracy_floor", top1 >= floor, f"top1 {top1} < {floor}")
            command.top1 = top1
        else:
            outputs = ["reports.csv"]
            rows, _ = reports.read_eval_reports(os.path.join(command.out_dir, "reports.csv"))
            top1 = {r.transform: r.top1 for r in rows}
            ledger.check(f"{name}.rows", [r.transform for r in rows] == list(KINDS)
                         and all(r.model == command.arch for r in rows), str(rows))
            ledger.check(f"{name}.accuracy_floor", top1.get("none", -1.0) >= floor,
                         f"top1 {top1.get('none')} < {floor}")
            command.top1 = top1
            if command.arch == "dadm":
                # The paper's invariance: a histogram ignores pixel positions.
                one_image = 100.0 / sizes.n_test + 1e-9
                for kind in ("flip", "shuffle"):
                    gap = abs(top1.get(kind, -1.0) - top1.get("none", 1e9))
                    ledger.check(f"{name}.{kind}_invariant", gap <= one_image,
                                 f"|{kind} - none| = {gap}")
    except (OSError, ValueError, HistlearnError) as exc:
        ledger.check(f"{name}.outputs_parse", False, f"{type(exc).__name__}: {exc}")
        return
    ledger.check(f"{name}.outputs_parse", True)
    digests = {o: _sha256(os.path.join(command.out_dir, o)) for o in outputs}
    if not command.digests:
        command.digests = digests
    else:
        ledger.check(f"{name}.deterministic", digests == command.digests,
                     "outputs differ from the first iteration")


# --------------------------------------------------------------------------
# The measured loop


class Speedometer:
    """Times a fixed reference kernel to track how fast the machine runs now.

    On a shared host the same work takes up to a third more or less time
    from one half-minute to the next, from other tenants' load rather than
    anything in this process.  The kernel does the kinds of work histlearn
    spends its time in: scipy erf over a whole array (compute bound), the
    histogram's broadcast-saturate-reduce pattern over one image's pixels
    and all bin edges (memory bound), and a BLAS matmul (the dense and conv
    layers).  Both kinds of work are needed: over a 6 min probe, normalising
    by either alone left 25 s windows of command times spreading 3-7%
    between quartiles, by the two (their geometric mean) 1-4%, against 9-19%
    raw.  A command's wall time divided by the kernel's time, measured right
    before and right after it in the same process, is turned back into
    seconds on a machine where the kernel takes ``REF_S`` by
    :func:`at_reference`.
    """

    REF_S = 0.15
    REPS = 24

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(-3.0, 3.0, (392, 257))
        # pixels as a byte image has them: mostly background, the rest spread
        self._px = np.where(rng.random(784) < 0.8, -1.0, rng.uniform(-1.0, 1.0, 784))
        self._edges = np.linspace(-1.0, 1.0, 257)
        self._m = rng.standard_normal((64, 512))
        self._w = rng.standard_normal((512, 512))
        self.samples = []

    def _kernel(self):
        erf(self._a)
        args = (self._edges[None, :] - self._px[:, None]) / (np.sqrt(2.0) * 0.001)
        out = np.sign(args)
        small = np.abs(args) < 8.0
        out[small] = erf(args[small])
        out.sum(axis=0)
        self._m @ self._w

    def measure(self):
        """Kernel seconds now, over REPS repetitions."""
        self._kernel()  # refill the caches the last command evicted
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]


def at_reference(wall, before, after):
    """``wall`` seconds at reference speed, given the kernel times around it."""
    return wall * Speedometer.REF_S / (0.5 * (before + after))


def run(workload, seed, seconds, trace, sizes, work_dir, out_dir):
    """Set up, loop the workload's commands for ``seconds``, check, report.

    Returns ``(result, record)``: the result line's object and the fuller
    run record written beside it.
    """
    ledger = Ledger()
    env = envinfo.environment()
    bad = {k: v for k, v in env["blas_threads"].items() if v is not None and v != 1}
    ledger.check("blas_threads", not bad, f"effective BLAS threads {bad}")

    setup_walls, setup_ref, setup_dir, gen_stats = setup(workload, sizes, seed, work_dir, ledger)
    commands = build_commands(workload, sizes, seed, setup_dir, work_dir)

    tracer = tracing.Tracer() if trace else None
    # "warmup", False (untraced) or True (traced) -> command key -> seconds
    walls = {"warmup": {}, False: {}, True: {}}
    ref_walls = {"warmup": {}, False: {}, True: {}}
    traced_iterations = 0
    iteration = 0
    speed = Speedometer()
    before = speed.measure()
    t_start = time.perf_counter()  # restarted after the warm-up iteration
    # Iteration 0 warms lazy state (BLAS, scipy.special, lru caches) and is
    # checked but not timed; a traced run then alternates untraced and
    # traced iterations, at least one of each.
    while iteration < 3 or time.perf_counter() - t_start < seconds:
        if iteration == 1:
            t_start = time.perf_counter()
        traced = bool(trace) and iteration > 0 and iteration % 2 == 0
        key = "warmup" if iteration == 0 else traced
        if traced:
            tracer.install()
            root = tracer.open("workload.iteration")
        for command in commands:
            prepare(command)
            if traced:
                span = tracer.open(f"cli.{command.kind}")
            wall, stdout = run_command(command, ledger)
            if traced:
                tracer.close(span)
            name = f"{command.kind}.{command.arch}"
            walls[key].setdefault(name, []).append(wall)
            after = speed.measure()
            ref_walls[key].setdefault(name, []).append(at_reference(wall, before, after))
            before = after
            check_outputs(command, stdout, sizes, ledger)
        if traced:
            tracer.close(root)
            tracer.uninstall()
            traced_iterations += 1
        iteration += 1

    units = {f"{c.kind}.{c.arch}": c.units for c in commands}
    untraced = ref_walls[False]
    if trace:
        metrics = tracing.layer_metrics(
            tracer, traced_iterations, untraced, ref_walls[True], units,
            Speedometer.REF_S / statistics.median(speed.samples),
        )
        metrics["machine.ref_ms_p50"] = 1e3 * statistics.median(speed.samples)
        units_of = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    else:
        metrics = {
            "ref_img_per_s": sum(units.values()) / sum(statistics.median(w) for w in untraced.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 0 only when every set-up failed, which the result reports
            "setup_s": statistics.median(setup_ref) if setup_ref else 0.0,
        }
        units_of = {"ref_img_per_s": "img/s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "generator": gen_stats,
        "setup_s": {"wall": setup_walls, "reference": setup_ref},
        "command_s": {
            "wall": {str(k): v for k, v in walls.items()},
            "reference": {str(k): v for k, v in ref_walls.items()},
        },
        "ref_kernel_s": speed.samples,
        "img_per_s_by_command": {
            k: {"wall": units[k] / statistics.median(walls[False][k]),
                "reference": units[k] / statistics.median(w)}
            for k, w in untraced.items()
        },
        "top1": {f"{c.kind}.{c.arch}": c.top1 for c in commands},
        "failures": ledger.failures,
        "absent_wrap_targets": tracer.absent if trace else [],
        "result": result,
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(bool(trace))}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return result, record
