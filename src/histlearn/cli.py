"""Command line for the robustness experiments.

Subcommands::

    fetch     download and verify the MNIST IDX files
    train     train one architecture, write checkpoint + loss curve
    eval      evaluate a checkpoint under the transform battery
    ablation  train base, cnn, and dadm with one seed; combined report
    report    bar-chart data + per-transform histogram dumps from a report
    selftest  dataset-free property checks

Each option (``--arch --epochs --batch --lr --seed --bins --bandwidth
--data-dir --out-dir --transforms --threads --image-index``) is declared
once, with its type, default and help, in ``_OPTIONS``; ``_COMMANDS`` lists
once which of them each subcommand takes, and every subcommand also takes
``--config`` and ``--threads``.  ``main`` resolves each option once, in
order: explicit flag > ``--config`` file (flat key=value lines) >
``HISTLEARN_DATA_DIR`` (for the data directory) > built-in default, and
every run writes its resolved options to ``run_config.txt`` next to its
outputs.

Exit codes are stable for CI: 0 success, 1 usage error, 2 data error
(missing/corrupt files), 3 failed property or numeric check.

``--threads N`` caps the BLAS thread pools via environment variables.
``main`` sets them before it imports any numeric module, so they take
effect when histlearn starts as a program; a ``main`` called in a process
that has already loaded numpy cannot resize its pools.
"""

import argparse
import os
import sys

from .errors import DataFormatError, NonFiniteError, ShapeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# Read while resolving options, before the thread caps are set and so
# before numpy may load; `data` re-exports it.
DATA_DIR_ENV = "HISTLEARN_DATA_DIR"

# name -> (type, default, help); a default of None means unset
_OPTIONS = {
    "arch": (str, None, "architecture: lenet, base, cnn, or dadm"),
    "epochs": (int, 10, "training epochs (default 10)"),
    "batch": (int, 64, "minibatch size (default 64)"),
    "lr": (float, 0.001, "Adam learning rate (default 0.001)"),
    "seed": (int, 0, "seed for init, batch order, and transform draws (default 0)"),
    "bins": (int, 256, "histogram bin count (default 256)"),
    "bandwidth": (float, 0.001, "KDE bandwidth (default 0.001)"),
    "data_dir": (str, None, "directory with the MNIST IDX files (or $HISTLEARN_DATA_DIR)"),
    "out_dir": (str, ".", "where to write artifacts (default .)"),
    "transforms": (
        str, "none,rotate,translate,flip,shuffle", "comma list from none,rotate,translate,flip,shuffle"
    ),
    "threads": (int, None, "cap BLAS thread pools at N"),
    "image_index": (int, 0, "test image whose histograms are dumped (default 0)"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            raise UsageError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        if key == "command":
            continue
        if key not in _OPTIONS:
            raise UsageError(f"{path}: line {lineno}: unknown option {key!r}")
        value = value.strip()
        try:
            values[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def _resolve(args, names):
    """flag > config file > environment (data_dir) > default, for each name."""
    flags = vars(args)
    config_values = _parse_config_file(args.config) if args.config else {}
    resolved = {}
    for name in names:
        if name in flags:
            resolved[name] = flags[name]
        elif name in config_values:
            resolved[name] = config_values[name]
        elif name == "data_dir" and os.environ.get(DATA_DIR_ENV):
            resolved[name] = os.environ[DATA_DIR_ENV]
        else:
            resolved[name] = _OPTIONS[name][1]
    return resolved


def _set_threads(n):
    if n is None:
        return
    if n < 1:
        raise UsageError(f"--threads must be >= 1, got {n}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _parse_transform_list(text):
    from .transforms import TRANSFORM_KINDS

    kinds = [t.strip() for t in text.split(",") if t.strip()]
    if not kinds:
        raise UsageError("empty transform list")
    for i, kind in enumerate(kinds):
        if kind not in TRANSFORM_KINDS:
            raise UsageError(f"unknown transform {kind!r}, expected one of {TRANSFORM_KINDS}")
        if kind in kinds[:i]:
            raise UsageError(f"transform {kind!r} listed twice")
    return kinds


def _write_run_config(out_dir, command, resolved):
    """Write the resolved options as a ``--config`` file.  Positional
    arguments are not options, so they go in as ``# name=value`` comments:
    the file replays with the same positionals on the command line."""
    positionals = _COMMANDS[command][2]
    path = os.path.join(out_dir, "run_config.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command={command}\n")
        for key in sorted(resolved):
            if resolved[key] is not None:
                prefix = "# " if key in positionals else ""
                fh.write(f"{prefix}{key}={resolved[key]}\n")
    return path


def _model_config(opts, arch):
    from .models import ModelConfig

    return ModelConfig(
        architecture=arch,
        epochs=opts["epochs"],
        batch_size=opts["batch"],
        lr=opts["lr"],
        seed=opts["seed"],
        n_bins=opts["bins"],
        bandwidth=opts["bandwidth"],
    )


def _load_splits(data_dir):
    """The (train, test) splits, loaded once per command."""
    from .data import load_mnist

    return load_mnist(data_dir, "train"), load_mnist(data_dir, "test")


def _train_one(cfg, train_set):
    """Train one architecture; returns (model, curve)."""
    from . import models

    model = models.build_model(cfg)
    print(f"training {cfg.architecture}: {train_set.count} images, "
          f"{cfg.epochs} epochs, batch {cfg.batch_size}, lr {cfg.lr}, seed {cfg.seed}")
    curve = models.train(model, train_set, cfg, log=print)
    return model, curve


def _print_reports(reports):
    for r in reports:
        print(f"{r.model:6s} {r.transform:10s} top1 {r.top1:6.2f}%  drop {r.delta:6.2f}")


def _cmd_fetch(opts):
    from .data import fetch_mnist

    for path in fetch_mnist(opts["data_dir"]):
        print(f"ok {path}")
    return EXIT_OK


def _cmd_train(opts):
    from .checkpoint import save_checkpoint
    from .models import evaluate
    from .reports import write_loss_curve

    out_dir = opts["out_dir"]
    cfg = _model_config(opts, opts["arch"])
    train_set, test_set = _load_splits(opts["data_dir"])
    model, curve = _train_one(cfg, train_set)

    ckpt_path = os.path.join(out_dir, f"model_{cfg.architecture}.ckpt")
    save_checkpoint(model, cfg, ckpt_path)
    write_loss_curve(os.path.join(out_dir, "loss_curve.csv"), curve)
    _write_run_config(out_dir, "train", opts)

    report = evaluate(model, test_set, ["none"])[0]
    print(f"checkpoint: {ckpt_path}")
    print(f"final test accuracy (original): {report.top1:.2f}%")
    return EXIT_OK


def _cmd_eval(opts):
    from .checkpoint import load_checkpoint
    from .data import load_mnist
    from .models import evaluate
    from .reports import write_eval_reports

    kinds = _parse_transform_list(opts["transforms"])
    if not os.path.isfile(opts["checkpoint"]):
        raise DataFormatError(f"checkpoint not found: {opts['checkpoint']}")
    model, cfg = load_checkpoint(opts["checkpoint"])
    test_set = load_mnist(opts["data_dir"], "test")
    reports = evaluate(model, test_set, kinds, seed=opts["seed"])

    path = os.path.join(opts["out_dir"], "reports.csv")
    meta = {
        "model": model.architecture,
        "checkpoint": opts["checkpoint"],
        "eval_seed": opts["seed"],
    }
    write_eval_reports(path, reports, meta)
    _write_run_config(opts["out_dir"], "eval", opts)
    _print_reports(reports)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_ablation(opts):
    from .checkpoint import save_checkpoint
    from .models import evaluate
    from .reports import write_eval_reports, write_loss_curve

    out_dir = opts["out_dir"]
    kinds = _parse_transform_list(opts["transforms"])

    train_set, test_set = _load_splits(opts["data_dir"])
    all_reports = []
    for arch in ("base", "cnn", "dadm"):
        cfg = _model_config(opts, arch)
        model, curve = _train_one(cfg, train_set)
        save_checkpoint(model, cfg, os.path.join(out_dir, f"model_{arch}.ckpt"))
        write_loss_curve(os.path.join(out_dir, f"loss_curve_{arch}.csv"), curve)
        reports = evaluate(model, test_set, kinds, seed=opts["seed"])
        _print_reports(reports)
        all_reports.extend(reports)

    path = os.path.join(out_dir, "ablation.csv")
    write_eval_reports(path, all_reports, {"eval_seed": opts["seed"]})
    _write_run_config(out_dir, "ablation", opts)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_report(opts):
    from .data import load_mnist
    from .histogram import HistogramSpec, kde_histogram
    from .reports import read_eval_reports, write_bar_chart, write_histogram_dump
    from .transforms import TRANSFORM_KINDS, TransformSpec, transform_image

    out_dir = opts["out_dir"]
    reports, _ = read_eval_reports(opts["reports_csv"])
    test_set = load_mnist(opts["data_dir"], "test")
    index = opts["image_index"]
    if not 0 <= index < test_set.count:
        raise UsageError(f"--image-index {index} outside dataset (count {test_set.count})")
    spec = HistogramSpec(n_bins=opts["bins"], bandwidth=opts["bandwidth"])

    bar_path = os.path.join(out_dir, "bar_chart.csv")
    write_bar_chart(bar_path, reports)
    print(f"bar chart data: {bar_path} ({len(reports)} rows)")
    for kind in TRANSFORM_KINDS:
        # keyed by the image's position in the test set, matching the
        # streams `eval` uses for the same seed
        tspec = TransformSpec(kind, rng_seed=opts["seed"])
        image = transform_image(test_set.take(index), index, tspec)
        name = "original" if kind == "none" else kind
        dump_path = os.path.join(out_dir, f"hist_{name}.csv")
        write_histogram_dump(dump_path, spec.centers, kde_histogram(image[None], spec)[0])
        print(f"histogram dump: {dump_path}")

    _write_run_config(out_dir, "report", opts)
    return EXIT_OK


def _cmd_selftest(opts):
    from .selftest import run_all

    results = run_all()
    failed = 0
    for result in results:
        print(result.line())
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks FAILED")
        return EXIT_CHECK
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# name -> (function, help, positional arguments, options besides --threads and --config)
_COMMANDS = {
    "fetch": (_cmd_fetch, "download and verify MNIST", (), ("data_dir",)),
    "train": (
        _cmd_train, "train one architecture", (),
        ("arch", "epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir"),
    ),
    "eval": (
        _cmd_eval, "evaluate a checkpoint under transforms", ("checkpoint",),
        ("seed", "data_dir", "out_dir", "transforms"),
    ),
    "ablation": (
        _cmd_ablation, "train and evaluate base, cnn, dadm", (),
        ("epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir", "transforms"),
    ),
    "report": (
        _cmd_report, "bar-chart data and histogram dumps", ("reports_csv",),
        ("seed", "bins", "bandwidth", "data_dir", "out_dir", "image_index"),
    ),
    "selftest": (_cmd_selftest, "run the dataset-free property checks", (), ()),
}


def _names(command):
    """The names ``command`` resolves: positionals, options, then threads."""
    _, _, positionals, options = _COMMANDS[command]
    return (*positionals, *options, "threads")


def build_parser() -> _Parser:
    parser = _Parser(prog="histlearn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in _names(command):
            if name in positionals:
                p.add_argument(name)
                continue
            kind, _, option_help = _OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=argparse.SUPPRESS,
                           help=option_help)
        p.add_argument("--config", default=None, help="flat key=value option file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        opts = _resolve(args, _names(args.command))
        # before the command imports any numeric module
        _set_threads(opts["threads"])
        if "seed" in opts and opts["seed"] < 0:
            raise UsageError(f"--seed must be >= 0, got {opts['seed']}")
        if "arch" in opts and not opts["arch"]:
            raise UsageError("--arch is required (lenet, base, cnn, or dadm)")
        if "data_dir" in opts and not opts["data_dir"]:
            raise UsageError(
                "no data directory given (use --data-dir, a config file, or HISTLEARN_DATA_DIR)"
            )
        if "out_dir" in opts:
            os.makedirs(opts["out_dir"], exist_ok=True)
        return _COMMANDS[args.command][0](opts)
    except (UsageError, ValueError, ShapeError) as exc:
        print(f"histlearn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataFormatError) as exc:
        print(f"histlearn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as exc:
        print(f"histlearn: numeric check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
