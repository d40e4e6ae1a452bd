"""Command line for the robustness experiments.

Subcommands::

    fetch     download and verify the MNIST IDX files
    train     train one architecture, write checkpoint + loss curve
    eval      evaluate a checkpoint under the transform battery
    ablation  train base, cnn, and dadm with one seed; combined report
    report    bar-chart data + per-transform histogram dumps from a report
    selftest  dataset-free property checks

Shared flags: ``--arch --epochs --batch --lr --seed --bins --bandwidth
--data-dir --out-dir --transforms --config --threads``.
Options resolve in order: explicit flag > ``--config`` file (flat
key=value lines) > ``HISTLEARN_DATA_DIR`` (for the data directory) >
built-in default, and every run writes its resolved options to
``run_config.txt`` next to its outputs.

Exit codes are stable for CI: 0 success, 1 usage error, 2 data error
(missing/corrupt files), 3 failed property or numeric check.

``--threads N`` caps the BLAS thread pools via environment variables; it
takes effect because the numeric modules are imported only after argument
parsing.
"""

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

_UNSET = object()

_DEFAULTS = {
    "arch": None,
    "epochs": 10,
    "batch": 64,
    "lr": 0.001,
    "seed": 0,
    "bins": 256,
    "bandwidth": 0.001,
    "data_dir": None,
    "out_dir": ".",
    "transforms": "none,rotate,translate,flip,shuffle",
    "threads": None,
    "image_index": 0,
}

_INT_KEYS = {"epochs", "batch", "seed", "bins", "threads", "image_index"}
_FLOAT_KEYS = {"lr", "bandwidth"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


_HELP = {
    "arch": "architecture: lenet, base, cnn, or dadm",
    "epochs": "training epochs (default 10)",
    "batch": "minibatch size (default 64)",
    "lr": "Adam learning rate (default 0.001)",
    "seed": "seed for init, batch order, and transform draws (default 0)",
    "bins": "histogram bin count (default 256)",
    "bandwidth": "KDE bandwidth (default 0.001)",
    "data_dir": "directory with the MNIST IDX files (or $HISTLEARN_DATA_DIR)",
    "out_dir": "where to write artifacts (default .)",
    "transforms": "comma list from none,rotate,translate,flip,shuffle",
    "threads": "cap BLAS thread pools at N",
    "image_index": "test image whose histograms are dumped (default 0)",
}


def _add_common(sub, *names):
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name in _INT_KEYS:
            sub.add_argument(flag, type=int, default=_UNSET, help=_HELP[name])
        elif name in _FLOAT_KEYS:
            sub.add_argument(flag, type=float, default=_UNSET, help=_HELP[name])
        else:
            sub.add_argument(flag, default=_UNSET, help=_HELP[name])
    sub.add_argument("--config", default=None, help="flat key=value option file")


def build_parser() -> _Parser:
    parser = _Parser(prog="histlearn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download and verify MNIST")
    _add_common(p, "data_dir", "threads")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("train", help="train one architecture")
    _add_common(
        p, "arch", "epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir", "threads"
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under transforms")
    p.add_argument("checkpoint")
    _add_common(p, "seed", "data_dir", "out_dir", "transforms", "threads")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablation", help="train and evaluate base, cnn, dadm")
    _add_common(
        p, "epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir", "transforms", "threads"
    )
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("report", help="bar-chart data and histogram dumps")
    p.add_argument("reports_csv")
    _add_common(p, "seed", "bins", "bandwidth", "data_dir", "out_dir", "image_index", "threads")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("selftest", help="run the dataset-free property checks")
    _add_common(p, "threads")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _parse_config_file(path):
    from .errors import DataFormatError

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
        if key not in _DEFAULTS:
            raise UsageError(f"{path}: line {lineno}: unknown option {key!r}")
        value = value.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def _resolve(args, keys):
    """flag > config file > environment (data_dir) > default."""
    from .data import DATA_DIR_ENV

    config_values = {}
    if getattr(args, "config", None):
        config_values = _parse_config_file(args.config)
    resolved = {}
    for key in keys:
        flag_value = getattr(args, key, _UNSET)
        if flag_value is not _UNSET and flag_value is not None:
            resolved[key] = flag_value
        elif key in config_values:
            resolved[key] = config_values[key]
        elif key == "data_dir" and os.environ.get(DATA_DIR_ENV):
            resolved[key] = os.environ[DATA_DIR_ENV]
        else:
            resolved[key] = _DEFAULTS[key]
    return resolved


def _require_data_dir(resolved):
    if not resolved.get("data_dir"):
        raise UsageError(
            "no data directory given (use --data-dir, a config file, or HISTLEARN_DATA_DIR)"
        )
    return resolved["data_dir"]


def _parse_transform_list(text):
    from .transforms import TRANSFORM_KINDS

    kinds = [t.strip() for t in text.split(",") if t.strip()]
    if not kinds:
        raise UsageError("empty transform list")
    for kind in kinds:
        if kind not in TRANSFORM_KINDS:
            raise UsageError(f"unknown transform {kind!r}, expected one of {TRANSFORM_KINDS}")
    return kinds


def _write_run_config(out_dir, command, resolved):
    path = os.path.join(out_dir, "run_config.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command={command}\n")
        for key in sorted(resolved):
            if resolved[key] is not None:
                fh.write(f"{key}={resolved[key]}\n")
    return path


def _model_config(resolved, arch):
    from .models import ModelConfig

    return ModelConfig(
        architecture=arch,
        epochs=resolved["epochs"],
        batch_size=resolved["batch"],
        lr=resolved["lr"],
        seed=resolved["seed"],
        n_bins=resolved["bins"],
        bandwidth=resolved["bandwidth"],
    )


def _train_one(cfg, data_dir):
    """Train one architecture; returns (model, curve, test_set)."""
    from . import models
    from .data import load_mnist

    train_set = load_mnist(data_dir, "train")
    test_set = load_mnist(data_dir, "test")
    model = models.build_model(cfg)
    print(f"training {cfg.architecture}: {train_set.count} images, "
          f"{cfg.epochs} epochs, batch {cfg.batch_size}, lr {cfg.lr}, seed {cfg.seed}")
    curve = models.train(model, train_set, cfg, log=print)
    return model, curve, test_set


def _cmd_fetch(args):
    from .data import fetch_mnist

    resolved = _resolve(args, ["data_dir"])
    data_dir = _require_data_dir(resolved)
    paths = fetch_mnist(data_dir)
    for path in paths:
        print(f"ok {path}")
    return EXIT_OK


def _cmd_train(args):
    from .checkpoint import save_checkpoint
    from .models import evaluate
    from .reports import write_loss_curve

    keys = ["arch", "epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir"]
    resolved = _resolve(args, keys)
    if not resolved["arch"]:
        raise UsageError("--arch is required (lenet, base, cnn, or dadm)")
    data_dir = _require_data_dir(resolved)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    cfg = _model_config(resolved, resolved["arch"])
    model, curve, test_set = _train_one(cfg, data_dir)

    ckpt_path = os.path.join(out_dir, f"model_{cfg.architecture}.ckpt")
    save_checkpoint(model, cfg, ckpt_path)
    write_loss_curve(os.path.join(out_dir, "loss_curve.csv"), curve)
    _write_run_config(out_dir, "train", resolved)

    report = evaluate(model, test_set, ["none"])[0]
    print(f"checkpoint: {ckpt_path}")
    print(f"final test accuracy (original): {report.top1:.2f}%")
    return EXIT_OK


def _cmd_eval(args):
    from .checkpoint import load_checkpoint
    from .data import load_mnist
    from .models import evaluate
    from .reports import write_eval_reports

    keys = ["seed", "data_dir", "out_dir", "transforms"]
    resolved = _resolve(args, keys)
    data_dir = _require_data_dir(resolved)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    kinds = _parse_transform_list(resolved["transforms"])

    if not os.path.isfile(args.checkpoint):
        from .errors import DataFormatError

        raise DataFormatError(f"checkpoint not found: {args.checkpoint}")
    test_set = load_mnist(data_dir, "test")
    model, cfg = load_checkpoint(args.checkpoint)
    reports = evaluate(model, test_set, kinds, seed=resolved["seed"])

    path = os.path.join(out_dir, "reports.csv")
    meta = {
        "model": model.architecture,
        "checkpoint": args.checkpoint,
        "eval_seed": resolved["seed"],
    }
    write_eval_reports(path, reports, meta)
    resolved["checkpoint"] = args.checkpoint
    _write_run_config(out_dir, "eval", resolved)
    for r in reports:
        print(f"{r.model:6s} {r.transform:10s} top1 {r.top1:6.2f}%  drop {r.delta:6.2f}")
    print(f"report: {path}")
    return EXIT_OK


def _cmd_ablation(args):
    from .checkpoint import save_checkpoint
    from .models import evaluate
    from .reports import write_eval_reports, write_loss_curve

    keys = ["epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir", "transforms"]
    resolved = _resolve(args, keys)
    data_dir = _require_data_dir(resolved)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    kinds = _parse_transform_list(resolved["transforms"])

    all_reports = []
    for arch in ("base", "cnn", "dadm"):
        cfg = _model_config(resolved, arch)
        model, curve, test_set = _train_one(cfg, data_dir)
        save_checkpoint(model, cfg, os.path.join(out_dir, f"model_{arch}.ckpt"))
        write_loss_curve(os.path.join(out_dir, f"loss_curve_{arch}.csv"), curve)
        reports = evaluate(model, test_set, kinds, seed=resolved["seed"])
        for r in reports:
            print(f"{r.model:6s} {r.transform:10s} top1 {r.top1:6.2f}%  drop {r.delta:6.2f}")
        all_reports.extend(reports)

    path = os.path.join(out_dir, "ablation.csv")
    write_eval_reports(path, all_reports, {"eval_seed": resolved["seed"]})
    _write_run_config(out_dir, "ablation", resolved)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_report(args):
    from .data import load_mnist
    from .histogram import HistogramSpec, kde_histogram
    from .reports import read_eval_reports, write_bar_chart, write_histogram_dump
    from .transforms import TRANSFORM_KINDS, TransformSpec, transform_image

    keys = ["seed", "bins", "bandwidth", "data_dir", "out_dir", "image_index"]
    resolved = _resolve(args, keys)
    data_dir = _require_data_dir(resolved)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    reports, _ = read_eval_reports(args.reports_csv)
    bar_path = os.path.join(out_dir, "bar_chart.csv")
    write_bar_chart(bar_path, reports)
    print(f"bar chart data: {bar_path} ({len(reports)} rows)")

    test_set = load_mnist(data_dir, "test")
    index = resolved["image_index"]
    if not 0 <= index < test_set.count:
        raise UsageError(f"--image-index {index} outside dataset (count {test_set.count})")
    spec = HistogramSpec(n_bins=resolved["bins"], bandwidth=resolved["bandwidth"])
    for kind in TRANSFORM_KINDS:
        # keyed by the image's position in the test set, matching the
        # streams `eval` uses for the same seed
        tspec = TransformSpec(kind, rng_seed=resolved["seed"])
        image = transform_image(test_set.pixels[index], index, tspec)
        name = "original" if kind == "none" else kind
        dump_path = os.path.join(out_dir, f"hist_{name}.csv")
        write_histogram_dump(dump_path, spec.centers, kde_histogram(image[None], spec)[0])
        print(f"histogram dump: {dump_path}")

    resolved["reports_csv"] = args.reports_csv
    _write_run_config(out_dir, "report", resolved)
    return EXIT_OK


def _cmd_selftest(args):
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


def _configure_threads(args):
    n = None
    if getattr(args, "threads", _UNSET) not in (_UNSET, None):
        n = args.threads
    elif getattr(args, "config", None):
        # the config file is parsed before any numeric module loads, so a
        # threads= line there still takes effect
        n = _parse_config_file(args.config).get("threads")
    if n is None:
        return
    if n < 1:
        raise UsageError(f"--threads must be >= 1, got {n}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _configure_threads(args)
        return args.func(args)
    except UsageError as exc:
        print(f"histlearn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError,) as exc:
        print(f"histlearn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"histlearn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        from .errors import DataFormatError, NonFiniteError, ShapeError

        if isinstance(exc, DataFormatError):
            print(f"histlearn: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        if isinstance(exc, (NonFiniteError,)):
            print(f"histlearn: numeric check failed: {exc}", file=sys.stderr)
            return EXIT_CHECK
        if isinstance(exc, ShapeError):
            print(f"histlearn: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
