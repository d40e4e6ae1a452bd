"""CLI surface: commands, option resolution, exit codes, reproducibility."""

import contextlib
import gzip
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import urllib.error
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histlearn
from conftest import make_imageset, transform_set
from histlearn import cli, data, selftest
from histlearn.checkpoint import save_checkpoint
from histlearn.cli import DATA_DIR_ENV
from histlearn.models import EvalReport, ModelConfig, build_model
from histlearn.reports import (
    read_bar_chart,
    read_eval_reports,
    read_histogram_dump,
    read_loss_curve,
    write_eval_reports,
)

TRAIN_ARGS = ["--epochs", "1", "--batch", "32", "--bins", "32", "--bandwidth", "0.01"]


def run(*argv):
    return cli.main(list(argv))


class TestSelftestCommand:
    def test_passes_on_fresh_build(self, selftest_run, monkeypatch, capsys):
        # the session's battery stands in for the one the command would run
        results, _ = selftest_run
        monkeypatch.setattr(selftest, "run_all", lambda: results)
        assert run("selftest", "--threads", "1") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out
        assert "all 21 checks passed" in out

    def test_failure_exit_code(self, monkeypatch, capsys):
        broken = selftest.CheckResult("gradient-linear", False, 1.0, 1e-4)
        monkeypatch.setattr(selftest, "run_all", lambda: [broken])
        assert run("selftest") == 3
        assert "[FAIL] gradient-linear" in capsys.readouterr().out

    def test_thread_flags_accepted(self, synth_data_dir, tmp_path):
        # report, the cheapest subcommand to run, registers --threads too
        reports_csv = str(tmp_path / "reports.csv")
        write_eval_reports(reports_csv, [EvalReport("dadm", "none", 50.0, [50.0] * 10, 0.0)])
        code = run("report", reports_csv, "--data-dir", synth_data_dir,
                   "--out-dir", str(tmp_path / "report"), "--threads", "1")
        assert code == 0

    def test_bad_thread_count(self):
        assert run("selftest", "--threads", "0") == 1


# Runs each CLI argv of the JSON list it is given in turn, with the CLI's
# own output sent to stderr, and prints one JSON record per argv: its exit
# code, the thread variables at the moment numpy was first imported, and
# every module loaded by then.
_FRESH_CLI_PROBE = """
import contextlib, json, os, sys

seen = {}

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
from histlearn import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    print(json.dumps({"code": code, "seen": seen, "modules": sorted(sys.modules)}))
"""


def _run_fresh(*argvs):
    """Run each CLI argv in turn in one fresh interpreter, with ``src`` on
    ``PYTHONPATH`` and no ``*_THREADS`` variable set.  Returns, per argv,
    its exit code, the thread variables seen when numpy was imported, and
    the set of module names loaded by the end of that command."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(histlearn.__file__))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return [(r["code"], r["seen"], set(r["modules"])) for r in records]


class TestThreadVariables:
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_set_before_numpy_loads(self, source, tmp_path):
        # a raw file of the wrong size makes fetch exit 2 before any download
        (tmp_path / "train-images-idx3-ubyte").write_bytes(b"tiny")
        argv = ["fetch", "--data-dir", str(tmp_path)]
        if source == "flag":
            argv += ["--threads", "2"]
        else:
            (tmp_path / "threads.cfg").write_text("threads=2\n")
            argv += ["--config", str(tmp_path / "threads.cfg")]
        [(code, seen, _)] = _run_fresh(argv)
        assert code == 2
        assert seen == {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}


def test_a_command_loads_only_what_it_runs(synth_data_dir, tmp_path):
    # scipy is for dadm's histograms and rotate, urllib.request (with http
    # and ssl) for a download: lenet's train and a battery without rotate
    # load none of them, and rotate then loads scipy.special
    common = ["--data-dir", synth_data_dir, "--threads", "1"]
    ckpt = str(tmp_path / "run" / "model_lenet.ckpt")
    results = _run_fresh(
        ["train", "--arch", "lenet", "--epochs", "1", "--out-dir", str(tmp_path / "run"), *common],
        ["eval", ckpt, "--transforms", "none,translate,flip,shuffle", "--out-dir", str(tmp_path / "moved"), *common],
        ["eval", ckpt, "--transforms", "rotate", "--out-dir", str(tmp_path / "rotated"), *common],
    )
    assert [code for code, _, _ in results] == [0, 0, 0]
    for _, _, modules in results[:2]:
        assert {"scipy", "urllib.request", "http", "ssl"} & modules == set()
    assert "scipy.special" in results[2][2]


def test_option_defaults_equal_model_config_defaults():
    # cli restates ModelConfig's defaults because it cannot import numpy
    # before --threads is applied
    defaults = {name: spec[1] for name, spec in cli._OPTIONS.items()}
    assert cli._model_config(defaults, "dadm") == ModelConfig("dadm")


def test_run_config_write_cut_partway_leaves_previous_file(tmp_path):
    # the file is built whole, then renamed into place
    class Unwritable:
        def __format__(self, spec):
            raise OSError("cut partway")

    cli._write_run_config(str(tmp_path), "train", {"arch": "base", "epochs": 2, "seed": 0})
    before = (tmp_path / "run_config.txt").read_bytes()
    with pytest.raises(OSError, match="cut partway"):
        cli._write_run_config(str(tmp_path), "train", {"arch": "dadm", "epochs": 3, "seed": Unwritable()})
    assert (tmp_path / "run_config.txt").read_bytes() == before
    assert os.listdir(tmp_path) == ["run_config.txt"]


def _parse(parser, argv):
    """What parsing ``argv`` prints and returns, or its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


class TestOneCommandParser:
    def test_top_level_help_lists_every_command(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in out
        for command, (_, help_text, _, _) in cli._COMMANDS.items():
            assert help_text in out, command

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("rest", [["--help"], ["--bogus", "1"], ["a", "b", "c"], ["--threads"], []],
                             ids=["help", "unknown-flag", "extra-positionals", "flag-without-value",
                                  "bare"])
    def test_reads_as_the_whole_parser(self, command, rest):
        # help, refusals and parsed values of the parser main builds for a
        # command named first are the whole parser's, byte for byte
        argv = [command, *rest]
        assert _parse(cli.build_parser(command), argv) == _parse(cli.build_parser(), argv)

    def test_builds_only_the_named_command(self, monkeypatch):
        built = []
        real = cli.build_parser

        def spy(command=None):
            built.append(command)
            return real(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        run("selftest", "--threads", "0")
        run("--help")
        run("frobnicate")
        assert built == ["selftest", None, None]
        # and the parser built for selftest has no train to parse
        assert _parse(real("selftest"), ["train"])[2] == cli.EXIT_USAGE


class TestUsageErrors:
    def test_no_command(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_train_requires_arch(self, synth_data_dir, tmp_path):
        assert run("train", "--data-dir", synth_data_dir, "--out-dir", str(tmp_path)) == 1

    def test_unknown_architecture(self, synth_data_dir, tmp_path):
        code = run("train", "--arch", "vgg", "--data-dir", synth_data_dir, "--out-dir", str(tmp_path))
        assert code == 1

    def test_bins_above_bound(self, synth_data_dir, tmp_path):
        from histlearn.histogram import HistogramSpec

        too_many = str(HistogramSpec.MAX_BINS + 1)
        out_dir = tmp_path / "out"
        code = run("train", "--arch", "dadm", "--bins", too_many, "--data-dir", synth_data_dir,
                   "--out-dir", str(out_dir))
        assert code == 1
        assert list(out_dir.glob("*")) == []  # refused before training

    def test_unknown_transform(self, synth_data_dir, tmp_path):
        ckpt = str(tmp_path / "missing.ckpt")
        code = run("eval", ckpt, "--data-dir", synth_data_dir, "--transforms", "zoom")
        assert code == 1

    @pytest.mark.parametrize("command", ["eval", "ablation"])
    def test_repeated_transform_refused(self, command, synth_data_dir, tmp_path, capsys):
        positionals = [str(tmp_path / "missing.ckpt")] if command == "eval" else []
        out_dir = tmp_path / "out"
        code = run(command, *positionals, "--data-dir", synth_data_dir, "--out-dir", str(out_dir),
                   "--transforms", "rotate,rotate,none")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("histlearn: error:") and "'rotate'" in err[0]
        assert list(out_dir.glob("*")) == []

    def test_missing_data_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        assert run("train", "--arch", "base", "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("command", ["train", "eval", "ablation", "report"])
    def test_negative_seed_refused_before_any_file(self, command, tmp_path, capsys):
        # every path is missing, so a command that read one first would exit 2
        positionals = {"train": ["--arch", "base"], "eval": [str(tmp_path / "missing.ckpt")],
                       "ablation": [], "report": [str(tmp_path / "missing.csv")]}[command]
        out_dir = tmp_path / "out"
        code = run(command, *positionals, "--seed", "-1", "--data-dir", str(tmp_path / "no-data"),
                   "--out-dir", str(out_dir))
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert list(out_dir.glob("*")) == []

    def test_seed_refusal_is_the_model_config_rule(self, tmp_path, capsys):
        # one seed rule: --seed is refused in ModelConfig's words
        with pytest.raises(ValueError) as refusal:
            ModelConfig("base", seed=-1)
        assert run("eval", str(tmp_path / "missing.ckpt"), "--seed", "-1") == 1
        assert capsys.readouterr().err == f"histlearn: error: --seed: {refusal.value}\n"

    @pytest.mark.parametrize("bandwidth", ["1e18", "1e300", "1.7e308"])
    @pytest.mark.parametrize("command", ["train", "report"])
    def test_huge_bandwidth_is_not_a_traceback(self, command, bandwidth, synth_data_dir, tmp_path,
                                                capsys):
        # the band radius is clamped to the bin count before it becomes an
        # int, and a bandwidth past HistogramSpec.MAX_BANDWIDTH is refused
        if command == "train":
            argv = ["train", "--arch", "dadm", "--epochs", "1", "--batch", "64", "--bins", "32"]
        else:
            reports_csv = str(tmp_path / "reports.csv")
            write_eval_reports(reports_csv, [EvalReport("dadm", "none", 50.0, [50.0] * 10, 0.0)])
            argv = ["report", reports_csv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv, "--bandwidth", bandwidth, "--data-dir", synth_data_dir,
                       "--out-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("histlearn: ") and err.count("\n") == 1


# option, bad value, the commands that take the option
BAD_VALUES = [
    ("arch", "resnet", ["train"]),
    ("epochs", "x", ["train", "ablation"]),
    ("epochs", "0", ["train", "ablation"]),
    ("batch", "0", ["train", "ablation"]),
    ("lr", "0", ["train", "ablation"]),
    ("seed", "-1", ["train", "eval", "ablation", "report"]),
    ("threads", "0", ["fetch", "train", "eval", "ablation", "report", "selftest"]),
    ("bins", "0", ["train", "ablation", "report"]),
    ("bandwidth", "0", ["train", "ablation", "report"]),
    ("bandwidth", "5e-324", ["train", "ablation", "report"]),
    ("transforms", "rotate,rotate", ["eval", "ablation"]),
    ("image_index", "-1", ["report"]),
]


class TestBadOptionValue:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, name, value", [
        pytest.param(command, name, value, id=f"{command}-{name}={value}")
        for name, value, commands in BAD_VALUES
        for command in commands
    ])
    def test_refused_in_one_line_before_any_file(self, command, name, value, source, tmp_path,
                                                  monkeypatch, capsys):
        # every path is missing, so a command that read one first would exit
        # 2; fetch would reach the (unreachable) mirrors, selftest its checks
        def unreachable(url):
            raise urllib.error.URLError(f"unreachable: {url}")

        def no_checks():
            raise AssertionError("selftest ran its checks")

        monkeypatch.setattr(data, "_default_download", unreachable)
        monkeypatch.setattr(selftest, "run_all", no_checks)
        out_dir = tmp_path / "out"
        argv = {"train": [] if name == "arch" else ["--arch", "base"],
                "eval": [str(tmp_path / "missing.ckpt")],
                "report": [str(tmp_path / "missing.csv")]}.get(command, [])
        if command != "selftest":
            argv += ["--data-dir", str(tmp_path / "no-data")]
        if command not in ("fetch", "selftest"):
            argv += ["--out-dir", str(out_dir)]
        if source == "flag":
            where = "--" + name.replace("_", "-")
            argv += [where, value]
        else:
            where = f"{tmp_path / 'bad.cfg'}: line 1: {name}"
            (tmp_path / "bad.cfg").write_text(f"{name}={value}\n")
            argv += ["--config", str(tmp_path / "bad.cfg")]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"histlearn: error: {where}: "), err
        assert list(out_dir.glob("*")) == []


def _bad_data_dir(directory, side=28, counts=(64, 32), gzip_cut=False):
    """An MNIST-shaped data directory; ``gzip_cut`` stores each file gzipped
    and cut to half its length."""
    rng = np.random.default_rng(12)
    for split, count in zip(("train", "test"), counts):
        images = rng.integers(0, 256, (count, side, side)).astype(np.uint8)
        paths = data.write_idx(directory, split, data.ImageSet(images, rng.integers(0, 10, count)))
        if gzip_cut:
            for path in paths:
                blob = gzip.compress(Path(path).read_bytes())
                with open(path, "wb") as fh:
                    fh.write(blob[: len(blob) // 2])
    return directory


# id suffix, options of _bad_data_dir, what stderr says besides the file name
BAD_DATA = [
    ("", {"side": 32}, "32x32"),
    ("-empty", {"counts": (0, 0)}, "no images"),
    ("-gzip-cut", {"gzip_cut": True}, "corrupt gzip"),
]


class TestWrongImageSize:
    @pytest.mark.parametrize("command, options, message", [
        pytest.param(command, options, message, id=command + suffix)
        for suffix, options, message in BAD_DATA
        for command in ["lenet", "base", "cnn", "dadm", "eval"]
    ])
    def test_exits_2_naming_file_and_shape(self, command, options, message, tmp_path, capsys):
        # refused as a data error when loaded, before any model sees an image
        data_dir = _bad_data_dir(str(tmp_path / "data"), **options)
        if command == "eval":
            cfg = ModelConfig("base")
            ckpt = str(tmp_path / "model_base.ckpt")
            save_checkpoint(build_model(cfg), cfg, ckpt)
            argv, name = ["eval", ckpt], "t10k-images-idx3-ubyte"
        else:
            argv, name = ["train", "--arch", command, *TRAIN_ARGS], "train-images-idx3-ubyte"
        code = run(*argv, "--data-dir", data_dir, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and message in err


class TestFetchCommand:
    def test_corrupt_gz_exits_2(self, tmp_path):
        # a present-but-wrong archive must fail verification by size
        (tmp_path / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(b"not mnist"))
        assert run("fetch", "--data-dir", str(tmp_path)) == 2

    def test_unreachable_mirrors_exit_2(self, tmp_path, monkeypatch):
        # every mirror unreachable: the download path reports a data error
        # rather than hanging or crashing; no real connection is attempted
        def unreachable(url):
            raise urllib.error.URLError(f"unreachable: {url}")

        monkeypatch.setattr(data, "_default_download", unreachable)
        assert run("fetch", "--data-dir", str(tmp_path)) == 2


class TestTrainCommand:
    def test_artifacts_written(self, synth_data_dir, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = run("train", "--arch", "base", "--data-dir", synth_data_dir, "--out-dir", out_dir, *TRAIN_ARGS)
        assert code == 0
        assert os.path.isfile(os.path.join(out_dir, "model_base.ckpt"))
        curve, _ = read_loss_curve(os.path.join(out_dir, "loss_curve.csv"))
        assert len(curve) == 1
        assert os.path.isfile(os.path.join(out_dir, "run_config.txt"))
        assert "final test accuracy" in capsys.readouterr().out

    def test_lenet_through_cli(self, synth_data_dir, tmp_path):
        out_dir = str(tmp_path / "run")
        code = run("train", "--arch", "lenet", "--data-dir", synth_data_dir,
                   "--out-dir", out_dir, "--epochs", "1", "--batch", "64")
        assert code == 0
        assert os.path.isfile(os.path.join(out_dir, "model_lenet.ckpt"))

    def test_dadm_leaves_data_dir_unchanged(self, synth_data_dir, tmp_path_factory):
        # training histograms live in memory only, so a read-only data dir works
        before = sorted(os.listdir(synth_data_dir))
        out_dir = str(tmp_path_factory.mktemp("run"))
        code = run("train", "--arch", "dadm", "--data-dir", synth_data_dir, "--out-dir", out_dir, *TRAIN_ARGS)
        assert code == 0
        assert sorted(os.listdir(synth_data_dir)) == before

    def test_env_var_data_dir(self, synth_data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, synth_data_dir)
        out_dir = str(tmp_path / "run")
        assert run("train", "--arch", "base", "--out-dir", out_dir, *TRAIN_ARGS) == 0

    def test_config_file_and_flag_precedence(self, synth_data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"arch=base\nepochs=1\nbatch=32\nbins=32\nbandwidth=0.01\n"
            f"data_dir={synth_data_dir}\nout_dir={tmp_path / 'from_config'}\n"
        )
        assert run("train", "--config", str(config)) == 0
        curve, _ = read_loss_curve(str(tmp_path / "from_config" / "loss_curve.csv"))
        assert len(curve) == 1

        # explicit flag beats the file
        assert run("train", "--config", str(config), "--epochs", "2",
                   "--out-dir", str(tmp_path / "flagged")) == 0
        curve, _ = read_loss_curve(str(tmp_path / "flagged" / "loss_curve.csv"))
        assert len(curve) == 2

    @pytest.mark.parametrize("arch, lr", [("base", "1e300"), ("lenet", "1e308")])
    def test_huge_lr_is_one_numeric_error_line(self, arch, lr, synth_data_dir, tmp_path, capsys):
        # an overflow in a step shows as the non-finite loss it leads to, not
        # as numpy warnings (which the suite turns into errors)
        code = run("train", "--arch", arch, "--lr", lr, "--epochs", "1", "--data-dir", synth_data_dir,
                   "--out-dir", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("histlearn: numeric check failed:"), err

    @pytest.mark.parametrize("arch", ["base", "dadm"])
    def test_one_diverged_step_is_one_numeric_error_line_in_train_and_eval(self, arch, synth_data_dir,
                                                                          tmp_path, capsys):
        # one step of 512 images leaves weights near 1e300 before any loss
        # shows it; the final test pass, and an eval of the checkpoint, report
        # the non-finite logits
        out_dir = tmp_path / "out"
        code = run("train", "--arch", arch, "--lr", "1e300", "--epochs", "1", "--batch", "1024",
                   "--data-dir", synth_data_dir, "--out-dir", str(out_dir))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"histlearn: numeric check failed: non-finite logits under none ({arch})"]
        code = run("eval", str(out_dir / f"model_{arch}.ckpt"), "--data-dir", synth_data_dir,
                   "--out-dir", str(tmp_path / "eval"))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"histlearn: numeric check failed: non-finite logits under none ({arch})"]

    def test_bad_value_in_an_untaken_config_key_is_refused(self, tmp_path):
        # eval takes no --epochs, but a config line's value is checked anyway
        config = tmp_path / "run.cfg"
        config.write_text("epochs=x\n")
        assert run("eval", str(tmp_path / "missing.ckpt"), "--config", str(config),
                   "--data-dir", str(tmp_path / "no-data")) == 1

    def test_non_utf8_config_is_one_data_error_line(self, tmp_path, capsys):
        # refused as a CSV is, naming the file and line, before any option
        # is resolved or the out dir made
        config = tmp_path / "run.cfg"
        config.write_bytes(b"arch=base\n# \xff\nepochs=2\n")
        out_dir = tmp_path / "out"
        assert run("train", "--config", str(config), "--data-dir", str(tmp_path / "no-data"),
                   "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"histlearn: data error: {config}: line 2: not UTF-8 text"]
        assert not out_dir.exists()

    def test_bad_config_key_is_usage_error(self, synth_data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("arch=base\nwarp_speed=9\n")
        assert run("train", "--config", str(config), "--data-dir", synth_data_dir) == 1

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_resolved_config_reproduces_run(self, command, synth_data_dir, tmp_path, request):
        # run_config.txt fed back through --config, with the same positional
        # argument, reproduces every output byte for byte
        data_args = ["--data-dir", synth_data_dir]
        if command == "train":
            positional, options = [], ["--arch", "base", *data_args, *TRAIN_ARGS]
        else:
            positional = [request.getfixturevalue("trained_checkpoint")]
            options = [*data_args, "--seed", "4"]
            if command == "report":
                eval_dir = str(tmp_path / "eval")
                assert run("eval", *positional, *options, "--out-dir", eval_dir) == 0
                positional = [os.path.join(eval_dir, "reports.csv")]
        out_dir = tmp_path / "run"
        assert run(command, *positional, *options, "--out-dir", str(out_dir)) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        saved = (out_dir / "run_config.txt").read_text()
        if command != "train":
            key = "checkpoint" if command == "eval" else "reports_csv"
            assert f"# {key}={positional[0]}\n" in saved
        rerun_cfg = tmp_path / "replay.cfg"
        rerun_cfg.write_text(saved)
        shutil.rmtree(out_dir)
        assert run(command, *positional, "--config", str(rerun_cfg)) == 0
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


@pytest.fixture
def trained_checkpoint(synth_data_dir, tmp_path):
    out_dir = str(tmp_path / "trained")
    code = run("train", "--arch", "base", "--data-dir", synth_data_dir, "--out-dir", out_dir,
               "--epochs", "2", "--batch", "32", "--bins", "32", "--bandwidth", "0.01")
    assert code == 0
    return os.path.join(out_dir, "model_base.ckpt")


class TestEvalCommand:
    def test_full_battery(self, synth_data_dir, tmp_path, trained_checkpoint):
        out_dir = str(tmp_path / "eval")
        code = run("eval", trained_checkpoint, "--data-dir", synth_data_dir, "--out-dir", out_dir, "--seed", "9")
        assert code == 0
        reports, meta = read_eval_reports(os.path.join(out_dir, "reports.csv"))
        assert [r.transform for r in reports] == ["none", "rotate", "translate", "flip", "shuffle"]
        assert meta["eval_seed"] == "9"
        none_row = reports[0]
        assert none_row.delta == 0.0
        for r in reports[1:]:
            assert abs(r.delta - (none_row.top1 - r.top1)) < 1e-9

    def test_none_only_delta_zero(self, synth_data_dir, tmp_path, trained_checkpoint):
        out_dir = str(tmp_path / "eval_none")
        code = run("eval", trained_checkpoint, "--data-dir", synth_data_dir,
                   "--out-dir", out_dir, "--transforms", "none")
        assert code == 0
        reports, _ = read_eval_reports(os.path.join(out_dir, "reports.csv"))
        assert len(reports) == 1 and reports[0].delta == 0.0

    def test_missing_checkpoint_exits_2(self, synth_data_dir, tmp_path):
        code = run("eval", str(tmp_path / "no.ckpt"), "--data-dir", synth_data_dir,
                   "--out-dir", str(tmp_path))
        assert code == 2

    def test_corrupt_checkpoint_reported_before_data_is_read(self, tmp_path, capsys):
        # the checkpoint is loaded and verified first: with no test split in
        # the data dir either, the error names the checkpoint, not an IDX file
        cfg = ModelConfig("base", epochs=1, seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(cfg), cfg, ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
        data_dir = tmp_path / "no-test-split"
        data_dir.mkdir()
        code = run("eval", str(ckpt), "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "eval"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "idx" not in err

    def test_same_seed_identical_csv(self, synth_data_dir, tmp_path, trained_checkpoint):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = run("eval", trained_checkpoint, "--data-dir", synth_data_dir,
                       "--out-dir", str(out_dir), "--seed", "4")
            assert code == 0
            outs.append((out_dir / "reports.csv").read_bytes())
        assert outs[0] == outs[1]


class TestAblationCommand:
    def test_combined_csv(self, synth_data_dir, tmp_path):
        out_dir = str(tmp_path / "ablation")
        code = run("ablation", "--data-dir", synth_data_dir, "--out-dir", out_dir,
                   "--transforms", "none,shuffle", *TRAIN_ARGS)
        assert code == 0
        reports, _ = read_eval_reports(os.path.join(out_dir, "ablation.csv"))
        assert [r.model for r in reports] == ["base", "base", "cnn", "cnn", "dadm", "dadm"]
        for arch in ("base", "cnn", "dadm"):
            assert os.path.isfile(os.path.join(out_dir, f"model_{arch}.ckpt"))
            assert os.path.isfile(os.path.join(out_dir, f"loss_curve_{arch}.csv"))

    def test_loads_each_split_once(self, synth_data_dir, tmp_path, monkeypatch):
        # the three architectures train and evaluate on the same two splits
        loaded = []
        load_mnist = data.load_mnist

        def counting_load(data_dir, split="train"):
            loaded.append(split)
            return load_mnist(data_dir, split)

        monkeypatch.setattr(data, "load_mnist", counting_load)
        assert run("ablation", "--data-dir", synth_data_dir, "--out-dir", str(tmp_path / "out"),
                   "--transforms", "none", *TRAIN_ARGS) == 0
        assert loaded == ["train", "test"]


class TestReportCommand:
    def test_bar_chart_and_histogram_dumps(self, synth_data_dir, tmp_path, trained_checkpoint):
        eval_dir = str(tmp_path / "eval")
        assert run("eval", trained_checkpoint, "--data-dir", synth_data_dir, "--out-dir", eval_dir) == 0
        reports_csv = os.path.join(eval_dir, "reports.csv")

        out_dir = str(tmp_path / "report")
        code = run("report", reports_csv, "--data-dir", synth_data_dir, "--out-dir", out_dir,
                   "--bins", "64", "--bandwidth", "0.01", "--image-index", "3")
        assert code == 0

        rows = read_bar_chart(os.path.join(out_dir, "bar_chart.csv"))
        assert len(rows) == 5  # one model x five transforms

        dumps = {}
        for name in ("original", "rotate", "translate", "flip", "shuffle"):
            centers, masses = read_histogram_dump(os.path.join(out_dir, f"hist_{name}.csv"))
            assert centers.shape == (64,)
            assert abs(masses.sum() - 1.0) < 1e-9
            dumps[name] = masses
        # multiset-preserving transforms keep the histogram; rotation does not
        assert np.abs(dumps["original"] - dumps["shuffle"]).max() < 1e-12
        assert np.abs(dumps["original"] - dumps["flip"]).max() < 1e-12
        assert np.abs(dumps["original"] - dumps["rotate"]).max() > 1e-6

    def test_dump_matches_evaluated_transform_stream(self, synth_data_dir, tmp_path, trained_checkpoint):
        # the dumped rotate histogram is exactly the histogram of the image
        # that `eval` would have scored at the same seed and index
        from histlearn.data import load_mnist
        from histlearn.histogram import HistogramSpec, kde_histogram

        eval_dir = str(tmp_path / "eval")
        assert run("eval", trained_checkpoint, "--data-dir", synth_data_dir, "--out-dir", eval_dir) == 0
        out_dir = str(tmp_path / "report")
        assert run("report", os.path.join(eval_dir, "reports.csv"), "--data-dir", synth_data_dir,
                   "--out-dir", out_dir, "--bins", "32", "--bandwidth", "0.01",
                   "--image-index", "5", "--seed", "0") == 0

        test_set = load_mnist(synth_data_dir, "test")
        rotated = transform_set(test_set, "rotate", 0)
        expected = kde_histogram(rotated[5:6], HistogramSpec(n_bins=32, bandwidth=0.01))[0]
        _, masses = read_histogram_dump(os.path.join(out_dir, "hist_rotate.csv"))
        assert np.array_equal(masses, expected)

    def test_commands_read_no_whole_split_pixels(self, synth_data_dir, tmp_path, monkeypatch):
        # a split is held as bytes: train, eval and report normalize only
        # the rows they read, never the whole split at once; and the bytes
        # are a read-only view of the file, so a command that wrote to a
        # split would fail rather than pass
        for split in ("train", "test"):
            assert not data.load_mnist(synth_data_dir, split).images.flags.writeable

        def whole_split(self):
            raise AssertionError("read a whole split's float pixels")

        monkeypatch.setattr(data.ImageSet, "pixels", property(whole_split))
        for arch in ("lenet", "base", "cnn", "dadm"):
            train_dir, eval_dir = str(tmp_path / arch), str(tmp_path / f"eval-{arch}")
            assert run("train", "--arch", arch, "--data-dir", synth_data_dir, "--out-dir", train_dir,
                       *TRAIN_ARGS) == 0
            assert run("eval", os.path.join(train_dir, f"model_{arch}.ckpt"),
                       "--data-dir", synth_data_dir, "--out-dir", eval_dir) == 0
        assert run("report", os.path.join(eval_dir, "reports.csv"), "--data-dir", synth_data_dir,
                   "--out-dir", str(tmp_path / "report"), "--image-index", "3") == 0

    def test_malformed_reports_csv_exits_2(self, synth_data_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,transform\nlenet\n")
        assert run("report", str(bad), "--data-dir", synth_data_dir, "--out-dir", str(tmp_path)) == 2

    def test_non_utf8_reports_csv_exits_2(self, synth_data_dir, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("model,transform,top1\nlenet,drehung \u00b0,1.0\n".encode("latin-1"))
        assert run("report", str(bad), "--data-dir", synth_data_dir, "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "latin1.csv" in err and "line 2" in err

    def test_repeated_report_row_exits_2_and_writes_nothing(self, synth_data_dir, tmp_path, capsys):
        bad = tmp_path / "repeated.csv"
        row = EvalReport("dadm", "rotate", 61.5, [60.0] * 10, 30.25)
        write_eval_reports(bad, [row, row], {"eval_seed": "0"})
        out_dir = tmp_path / "report"
        assert run("report", str(bad), "--data-dir", synth_data_dir, "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert "repeated.csv" in err and "line 4" in err and "line 3" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("row", [
        EvalReport("dadm", "rotate", float("nan"), [60.0] * 10, 30.25),
        EvalReport("dadm", "rotate", 250.0, [60.0] * 10, 30.25),
        EvalReport("dadm", "rotate", 61.5, [-7.0] * 10, 30.25),
        EvalReport("dadm", "sideways", 61.5, [60.0] * 10, 30.25),
    ], ids=["nan", "250", "negative-class", "sideways"])
    def test_impossible_report_row_exits_2_and_writes_nothing(self, row, synth_data_dir, tmp_path, capsys):
        bad = tmp_path / "impossible.csv"
        write_eval_reports(bad, [row])
        out_dir = tmp_path / "report"
        assert run("report", str(bad), "--data-dir", synth_data_dir, "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"histlearn: data error: {bad}: line 2: ") and err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

    def test_image_index_bounds(self, synth_data_dir, tmp_path, trained_checkpoint):
        # refused before anything is written; -1 before the out dir is made
        eval_dir = str(tmp_path / "eval")
        assert run("eval", trained_checkpoint, "--data-dir", synth_data_dir, "--out-dir", eval_dir) == 0
        for index in ("999", "-1"):
            out_dir = tmp_path / f"report{index}"
            code = run("report", os.path.join(eval_dir, "reports.csv"), "--data-dir", synth_data_dir,
                       "--out-dir", str(out_dir), "--image-index", index)
            assert code == 1
            assert list(out_dir.glob("*")) == []


# A numeric option given draws from these texts; --epochs draws no huge
# integer, so a run stays short.
EDGE_VALUES = ["0", "-1", "inf", "-inf", "nan", "5e-324", "1e-300", "1e300",
               str(2**32), str(2**64), str(10**30), str(10**400)]
EPOCH_VALUES = [v for v in EDGE_VALUES if not v.isdigit() or int(v) < 3] + ["1", "2"]
NUMERIC = ("epochs", "batch", "lr", "seed", "bins", "bandwidth", "image_index", "threads")


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A data dir of 16 training and 8 test images, a checkpoint of lenet
    and dadm, and a reports.csv: ``(root, data dir, {name: positional})``."""
    root = tmp_path_factory.mktemp("contract")
    data_dir = root / "data"
    for split, count, seed in (("train", 16, 60), ("test", 8, 61)):
        data.write_idx(data_dir, split, make_imageset(count, seed=seed))
    positionals = {}
    for arch in ("lenet", "dadm"):
        cfg = ModelConfig(arch, epochs=1, n_bins=16, bandwidth=0.05)
        positionals[arch] = str(root / f"{arch}.ckpt")
        save_checkpoint(build_model(cfg), cfg, positionals[arch])
    positionals["reports"] = str(root / "reports.csv")
    write_eval_reports(positionals["reports"], [EvalReport("dadm", "none", 50.0, [50.0] * 10, 0.0)])
    return root, str(data_dir), positionals


@st.composite
def contract_runs(draw):
    """``(command, positionals, options)`` of one drawn run."""
    command = draw(st.sampled_from(["train", "eval", "ablation", "report"]))
    positional = {"eval": [draw(st.sampled_from(["lenet", "dadm"]))], "report": ["reports"]}.get(command, [])
    options = {}
    if command == "train":
        options["arch"] = draw(st.sampled_from(["lenet", "base", "cnn", "dadm"]))
    # a few options at a time, the rest at their defaults, so that runs also
    # get past the option checks
    taken = [name for name in NUMERIC if name in (*cli._COMMANDS[command][3], "threads")]
    for name in draw(st.lists(st.sampled_from(taken), max_size=3, unique=True)):
        options[name] = draw(st.sampled_from(EPOCH_VALUES if name == "epochs" else EDGE_VALUES))
    return command, positional, options


@settings(derandomize=True, max_examples=80, deadline=None)
@given(contract_runs())
def test_exit_code_contract_holds_for_edge_values(contract_inputs, run_spec):
    # 0 success, 1 usage, 2 data, 3 numeric: a failure is one histlearn:
    # line on stderr, never a traceback or a warning, and a usage error
    # writes nothing.  --threads only sets environment variables, read when
    # numpy loads, so they are restored after each run.
    root, data_dir, positionals = contract_inputs
    command, positional, options = run_spec
    out_dir = Path(tempfile.mkdtemp(dir=root)) / "out"
    argv = [command, *(positionals[p] for p in positional), "--data-dir", data_dir, "--out-dir", str(out_dir)]
    argv += [f"--{name.replace('_', '-')}={value}" for name, value in options.items()]
    out, err = io.StringIO(), io.StringIO()
    try:
        with (mock.patch.dict(os.environ), warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = cli.main(argv)
        written = sorted(p.name for p in out_dir.rglob("*")) if out_dir.exists() else []
    finally:
        shutil.rmtree(out_dir.parent)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code)
    assert [str(w.message) for w in caught] == [], argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert lines == [], argv
    else:
        assert len([line for line in lines if line.startswith("histlearn:")]) == 1, (argv, lines)
    if code == 1:
        assert written == [], (argv, written)
