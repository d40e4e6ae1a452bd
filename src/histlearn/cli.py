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
once, with its converter, default and help, in ``_OPTIONS``; ``_COMMANDS``
lists once which of them each subcommand takes, and every subcommand also
takes ``--config`` and ``--threads``.  argparse only collects strings.
``main`` takes each option from the first source that gives it (explicit
flag > ``--config`` file of flat key=value lines > ``HISTLEARN_DATA_DIR``
for the data directory > built-in default) through its converter.

The one rule: every option value, from any source, is checked the same way,
and a bad one is refused with exit 1 and one ``histlearn: error:`` line
before any file is read, naming the option and the value's source
(``--epochs`` or ``file: line N: epochs``).  A model option's converter
applies ``ModelConfig.check`` to its field (``HistogramSpec.check`` for bins
and bandwidth), so ``--batch 0`` is refused there too.  Only ``report``'s
upper bound on ``--image-index`` waits for the data.  After a command that
takes ``--out-dir`` succeeds, ``main`` writes the resolved options to
``run_config.txt`` there.

Exit codes are stable for CI: 0 success, 1 usage error, 2 data error
(missing/corrupt files), 3 failed property or numeric check.

``--threads N`` caps the BLAS thread pools via environment variables.  Its
converter sets them, and runs before any other, so before numpy loads:
they take effect when histlearn starts as a program; a ``main`` called in a
process that has already loaded numpy cannot resize its pools.
"""

import argparse
import os
import sys

from .errors import DataFormatError, NonFiniteError, ShapeError, read_text_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# Read while resolving options, before the thread caps are set and so
# before numpy may load; `data` re-exports it.
DATA_DIR_ENV = "HISTLEARN_DATA_DIR"

# Converters: an option's text, or its default, to its checked value; a bad
# value raises ValueError, to which `_resolve` adds where it came from.


def _number(kind, least=None):
    def convert(value):
        try:
            number = kind(value)
        except ValueError:
            raise ValueError(f"invalid {kind.__name__} value: {value!r}") from None
        if least is not None and number < least:
            raise ValueError(f"must be >= {least}, got {number}")
        return number
    return convert


def _required(hint):
    def convert(value):
        if not value:
            raise ValueError(f"required ({hint})")
        return value
    return convert


def _model_field(name, convert):
    """``convert``, then ``ModelConfig``'s check of its field ``name``."""
    def check(text):
        from .models import ModelConfig

        return ModelConfig.check(name, convert(text))
    return check


def _set_threads(value):
    """Unset, or an integer >= 1 that caps the BLAS thread pools."""
    if value is None:
        return None
    n = _number(int, 1)(value)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _transform_kinds(text):
    from .transforms import TRANSFORM_KINDS

    kinds = tuple(t.strip() for t in text.split(",") if t.strip())
    if not kinds:
        raise ValueError("empty transform list")
    for i, kind in enumerate(kinds):
        if kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform {kind!r}, expected one of {TRANSFORM_KINDS}")
        if kind in kinds[:i]:
            raise ValueError(f"transform {kind!r} listed twice")
    return kinds


# name -> (converter, default, help); a default of None means unset
_OPTIONS = {
    "arch": (_model_field("architecture", _required("lenet, base, cnn, or dadm")), None,
             "architecture: lenet, base, cnn, or dadm"),
    "epochs": (_model_field("epochs", _number(int)), 10, "training epochs (default 10)"),
    "batch": (_model_field("batch_size", _number(int)), 64, "minibatch size (default 64)"),
    "lr": (_model_field("lr", _number(float)), 0.001, "Adam learning rate (default 0.001)"),
    "seed": (_number(int, 0), 0, "seed for init, batch order, and transform draws (default 0)"),
    "bins": (_model_field("n_bins", _number(int)), 256, "histogram bin count (default 256)"),
    "bandwidth": (_model_field("bandwidth", _number(float)), 0.001, "KDE bandwidth (default 0.001)"),
    "data_dir": (
        _required(f"give --data-dir, a config line, or {DATA_DIR_ENV}"), None,
        "directory with the MNIST IDX files (or $HISTLEARN_DATA_DIR)",
    ),
    "out_dir": (str, ".", "where to write artifacts (default .)"),
    "transforms": (
        _transform_kinds, "none,rotate,translate,flip,shuffle",
        "comma list from none,rotate,translate,flip,shuffle",
    ),
    "threads": (_set_threads, None, "cap BLAS thread pools at N"),
    "image_index": (_number(int, 0), 0, "test image whose histograms are dumped (default 0)"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _flag(name):
    return "--" + name.replace("_", "-")


def _read_config(path):
    """A ``--config`` file as option name -> (text, where it was given).
    A file that is not UTF-8 text is a ``DataFormatError`` naming the line,
    as a CSV is."""
    try:
        lines = read_text_lines(path)
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        where = f"{path}: line {lineno}"
        if not sep or not key:
            raise UsageError(f"{where}: expected key=value, got {line!r}")
        if key == "command":
            continue
        if key not in _OPTIONS:
            raise UsageError(f"{where}: unknown option {key!r}")
        values[key] = (value.strip(), f"{where}: {key}")
    return values


def _resolve(args):
    """Each option the command takes, from the first source that gives it:
    flag > config file > environment (data_dir) > default, through the
    option's converter.  ``threads`` comes first, so its caps are set
    before a converter may load numpy.  A config line for an option the
    command does not take is checked too, and then dropped."""
    flags = vars(args)
    config = _read_config(args.config) if args.config else {}
    _, _, positionals, options = _COMMANDS[args.command]
    opts = {name: flags[name] for name in positionals}
    for name in dict.fromkeys(("threads", *options, *config)):
        convert, default, _ = _OPTIONS[name]
        if name in flags:
            value, where = flags[name], _flag(name)
        elif name in config:
            value, where = config[name]
        elif name == "data_dir" and os.environ.get(DATA_DIR_ENV):
            value, where = os.environ[DATA_DIR_ENV], DATA_DIR_ENV
        else:
            value, where = default, _flag(name)
        try:
            opts[name] = convert(value)
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return {name: opts[name] for name in (*positionals, *options, "threads")}


def _write_run_config(out_dir, command, opts):
    """Write the resolved options as a ``--config`` file, atomically.
    Positional arguments are not options, so they go in as ``# name=value``
    comments: the file replays with the same positionals on the command
    line."""
    from .data import write_atomic

    positionals = _COMMANDS[command][2]
    lines = [f"command={command}\n"]
    for key in sorted(opts):
        value = opts[key]
        if value is not None:
            prefix = "# " if key in positionals else ""
            text = ",".join(value) if isinstance(value, tuple) else value
            lines.append(f"{prefix}{key}={text}\n")
    write_atomic(os.path.join(out_dir, "run_config.txt"), ["".join(lines).encode("utf-8")])


def _model_config(opts, arch):
    from .models import ModelConfig

    return ModelConfig(arch, epochs=opts["epochs"], batch_size=opts["batch"], lr=opts["lr"],
                       seed=opts["seed"], n_bins=opts["bins"], bandwidth=opts["bandwidth"])


def _load_splits(data_dir):
    from .data import load_mnist

    return load_mnist(data_dir, "train"), load_mnist(data_dir, "test")


def _train_step(cfg, train_set, out_dir, curve_name):
    """Train, then save the checkpoint and loss curve; returns (model, checkpoint path)."""
    from . import models
    from .checkpoint import save_checkpoint
    from .reports import write_loss_curve

    model = models.build_model(cfg)
    print(f"training {cfg.architecture}: {train_set.count} images, "
          f"{cfg.epochs} epochs, batch {cfg.batch_size}, lr {cfg.lr}, seed {cfg.seed}")
    curve = models.train(model, train_set, cfg, log=print)
    ckpt_path = os.path.join(out_dir, f"model_{cfg.architecture}.ckpt")
    save_checkpoint(model, cfg, ckpt_path)
    write_loss_curve(os.path.join(out_dir, curve_name), curve)
    return model, ckpt_path


def _eval_step(model, test_set, opts):
    """The reports under ``--transforms`` at ``--seed``, one printed line each."""
    from .models import evaluate

    reports = evaluate(model, test_set, opts["transforms"], seed=opts["seed"])
    for r in reports:
        print(f"{r.model:6s} {r.transform:10s} top1 {r.top1:6.2f}%  drop {r.delta:6.2f}")
    return reports


def _cmd_fetch(opts):
    from .data import fetch_mnist

    for path in fetch_mnist(opts["data_dir"]):
        print(f"ok {path}")
    return EXIT_OK


def _cmd_train(opts):
    from .models import evaluate

    cfg = _model_config(opts, opts["arch"])
    train_set, test_set = _load_splits(opts["data_dir"])
    model, ckpt_path = _train_step(cfg, train_set, opts["out_dir"], "loss_curve.csv")
    report = evaluate(model, test_set, ["none"])[0]
    print(f"checkpoint: {ckpt_path}")
    print(f"final test accuracy (original): {report.top1:.2f}%")
    return EXIT_OK


def _cmd_eval(opts):
    from .checkpoint import load_checkpoint
    from .data import load_mnist
    from .reports import write_eval_reports

    model, _ = load_checkpoint(opts["checkpoint"])
    reports = _eval_step(model, load_mnist(opts["data_dir"], "test"), opts)
    path = os.path.join(opts["out_dir"], "reports.csv")
    meta = {"model": model.architecture, "checkpoint": opts["checkpoint"], "eval_seed": opts["seed"]}
    write_eval_reports(path, reports, meta)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_ablation(opts):
    from .reports import write_eval_reports

    cfgs = [_model_config(opts, arch) for arch in ("base", "cnn", "dadm")]
    train_set, test_set = _load_splits(opts["data_dir"])
    reports = []
    for cfg in cfgs:
        curve_name = f"loss_curve_{cfg.architecture}.csv"
        model, _ = _train_step(cfg, train_set, opts["out_dir"], curve_name)
        reports += _eval_step(model, test_set, opts)
    path = os.path.join(opts["out_dir"], "ablation.csv")
    write_eval_reports(path, reports, {"eval_seed": opts["seed"]})
    print(f"report: {path}")
    return EXIT_OK


def _cmd_report(opts):
    from .data import load_mnist
    from .histogram import HistogramSpec, kde_histogram
    from .reports import read_eval_reports, write_bar_chart, write_histogram_dump
    from .transforms import TRANSFORM_KINDS, TransformSpec, transform_image

    out_dir = opts["out_dir"]
    spec = HistogramSpec(n_bins=opts["bins"], bandwidth=opts["bandwidth"])
    reports, _ = read_eval_reports(opts["reports_csv"])
    test_set = load_mnist(opts["data_dir"], "test")
    index = opts["image_index"]
    if index >= test_set.count:
        raise UsageError(f"--image-index {index} outside dataset (count {test_set.count})")

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
    return EXIT_OK


def _cmd_selftest(opts):
    from .selftest import run_all

    results = run_all()
    for result in results:
        print(result.line())
    failed = sum(not result.passed for result in results)
    if failed:
        print(f"{failed} of {len(results)} checks FAILED")
        return EXIT_CHECK
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# name -> (function, help, positional arguments, options besides --threads and --config)
_COMMANDS = {
    "fetch": (_cmd_fetch, "download and verify MNIST", (), ("data_dir",)),
    "train": (_cmd_train, "train one architecture", (),
              ("arch", "epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir")),
    "eval": (_cmd_eval, "evaluate a checkpoint under transforms", ("checkpoint",),
             ("seed", "data_dir", "out_dir", "transforms")),
    "ablation": (_cmd_ablation, "train and evaluate base, cnn, dadm", (),
                 ("epochs", "batch", "lr", "seed", "bins", "bandwidth", "data_dir", "out_dir", "transforms")),
    "report": (_cmd_report, "bar-chart data and histogram dumps", ("reports_csv",),
               ("seed", "bins", "bandwidth", "data_dir", "out_dir", "image_index")),
    "selftest": (_cmd_selftest, "run the dataset-free property checks", (), ()),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="histlearn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in positionals:
            p.add_argument(name)
        for name in (*options, "threads"):
            p.add_argument(_flag(name), default=argparse.SUPPRESS, help=_OPTIONS[name][2])
        p.add_argument("--config", default=None, help="flat key=value option file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        opts = _resolve(args)
        if "out_dir" in opts:
            os.makedirs(opts["out_dir"], exist_ok=True)
        code = _COMMANDS[args.command][0](opts)
        if code == EXIT_OK and "out_dir" in opts:
            _write_run_config(opts["out_dir"], args.command, opts)
        return code
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
