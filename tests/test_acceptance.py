"""Acceptance gate: one test per criterion, one printed verdict line each.

Quantitative criteria (1-7) train on real MNIST with seed 0, 10 epochs,
batch 64 and check the benchmark accuracy bands; they are skipped with an
explanatory reason when the IDX files are absent (run `histlearn fetch`
or set HISTLEARN_DATA_DIR, then rerun).  Property criteria (8-11) need no
dataset and always run.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line as it happens.
"""

import time

import pytest

from conftest import make_imageset, mnist_dir, requires_mnist, transform_set
from histlearn import cli, models
from histlearn.data import load_mnist

EVAL_SEED = 0
TRANSFORMS = ("none", "rotate", "translate", "flip", "shuffle")


def criterion(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# shared session state


@pytest.fixture(scope="session")
def mnist_sets():
    directory = mnist_dir()
    if directory is None:
        pytest.skip("MNIST IDX files not available (set HISTLEARN_DATA_DIR or run `histlearn fetch`)")
    return load_mnist(directory, "train"), load_mnist(directory, "test")


def _train(arch, mnist_sets):
    train_set = mnist_sets[0]
    cfg = models.ModelConfig(arch, epochs=10, batch_size=64, seed=0)
    start = time.monotonic()
    model = models.build_model(cfg)
    models.train(model, train_set, cfg)
    return model, time.monotonic() - start


def _battery(model, test_set):
    return dict(zip(TRANSFORMS, models.evaluate(model, test_set, TRANSFORMS, seed=EVAL_SEED)))


@pytest.fixture(scope="session")
def dadm_run(mnist_sets):
    model, seconds = _train("dadm", mnist_sets)
    return model, seconds, _battery(model, mnist_sets[1])


@pytest.fixture(scope="session")
def lenet_run(mnist_sets):
    model, seconds = _train("lenet", mnist_sets)
    return model, seconds, _battery(model, mnist_sets[1])


@pytest.fixture(scope="session")
def ablation_runs(mnist_sets):
    out = {}
    for arch in ("base", "cnn"):
        model, seconds = _train(arch, mnist_sets)
        out[arch] = (model, seconds, _battery(model, mnist_sets[1]))
    return out


@pytest.fixture(scope="session")
def property_results(selftest_run):
    return {r.name: r for r in selftest_run[0]}


# --------------------------------------------------------------------------
# quantitative criteria (accuracy bands on real MNIST)


@requires_mnist
def test_criterion_1_dadm_original_accuracy_and_budget(dadm_run):
    _, seconds, battery = dadm_run
    top1 = battery["none"].top1
    ok = top1 >= 95.0 and seconds < 1800.0
    criterion(1, ok, f"dadm original top1 {top1:.2f}% (>=95.0), training {seconds:.0f}s (<1800s)")


@requires_mnist
def test_criterion_2_dadm_shuffle_gap_and_identity(dadm_run, mnist_sets):
    model, _, battery = dadm_run
    test_set = mnist_sets[1]
    gap = battery["shuffle"].delta
    shuffled = transform_set(test_set, "shuffle", EVAL_SEED)
    identity = float(
        (models.predict(model, shuffled.pixels) == models.predict(model, test_set.pixels)).mean()
    )
    ok = gap <= 0.2 and identity >= 0.999
    criterion(2, ok, f"dadm shuffle gap {gap:.3f} pts (<=0.2), prediction identity {identity:.4f} (>=0.999)")


@requires_mnist
def test_criterion_3_dadm_flip_gap(dadm_run):
    gap = dadm_run[2]["flip"].delta
    criterion(3, gap <= 0.2, f"dadm flip gap {gap:.3f} pts (<=0.2)")


@requires_mnist
def test_criterion_4_dadm_rotate_translate(dadm_run):
    battery = dadm_run[2]
    rot, tra = battery["rotate"].top1, battery["translate"].top1
    ok = rot >= 80.0 and tra >= 70.0
    criterion(4, ok, f"dadm rotate {rot:.2f}% (>=80.0), translate {tra:.2f}% (>=70.0)")


@requires_mnist
def test_criterion_5_lenet_fragility(lenet_run):
    battery = lenet_run[2]
    orig, shuf, flip = battery["none"].top1, battery["shuffle"].top1, battery["flip"].top1
    ok = orig >= 96.5 and shuf <= 20.0 and flip <= 45.0
    criterion(5, ok, f"lenet original {orig:.2f}% (>=96.5), shuffle {shuf:.2f}% (<=20), flip {flip:.2f}% (<=45)")


@requires_mnist
def test_criterion_6_ablation_margins(ablation_runs, dadm_run):
    base = ablation_runs["base"][2]
    cnn = ablation_runs["cnn"][2]
    dadm = dadm_run[2]
    base_ok = base["none"].top1 >= 95.0
    cnn_ok = cnn["none"].top1 >= 95.5
    margins = {
        kind: dadm[kind].top1 - max(base[kind].top1, cnn[kind].top1)
        for kind in ("rotate", "translate", "flip", "shuffle")
    }
    margin_ok = all(m >= 10.0 for m in margins.values())
    detail = (
        f"base {base['none'].top1:.2f}% (>=95), cnn {cnn['none'].top1:.2f}% (>=95.5), "
        f"dadm margins {{{', '.join(f'{k}: {v:.1f}' for k, v in margins.items())}}} (>=10 each)"
    )
    criterion(6, base_ok and cnn_ok and margin_ok, detail)


@requires_mnist
def test_criterion_7_dadm_classwise_shuffle_stability(dadm_run):
    battery = dadm_run[2]
    gaps = [
        abs(o - s) for o, s in zip(battery["none"].per_class, battery["shuffle"].per_class)
    ]
    worst = max(gaps)
    criterion(7, worst <= 0.3, f"dadm per-class |original-shuffle| worst {worst:.3f} pts (<=0.3 for all 10)")


@requires_mnist
def test_classwise_shuffle_band_for_easiest_digit(dadm_run):
    # the class-wise table's strongest column: digit 1 under shuffle stays
    # in the high nineties
    assert dadm_run[2]["shuffle"].per_class[1] >= 98.0


# --------------------------------------------------------------------------
# property criteria (dataset-free)


def test_criterion_8_gradient_oracles(property_results):
    names = [
        "gradient-linear",
        "gradient-conv2d",
        "gradient-maxpool",
        "gradient-relu",
        "gradient-log-softmax-nll",
        "gradient-kde-histogram",
        "gradient-product-layer",
        "gradient-sum-layer",
        "gradient-arithmetic-module",
    ]
    results = [property_results[n] for n in names]
    ok = all(r.passed for r in results)
    bilinear = [r for r in results if "product" in r.name or "sum" in r.name or "arithmetic" in r.name]
    ok = ok and all(r.allowed <= 1e-8 for r in bilinear)
    worst = max(r.measured / r.allowed for r in results)
    criterion(8, ok, f"9 layer gradient oracles pass (worst measured/allowed ratio {worst:.2e})")


def test_criterion_9_histogram_oracles(property_results):
    checks = {
        "kde-vs-quadrature": 1e-10,
        "kde-normalization": 1e-12,
        "kde-vs-discrete": 1e-6,
        "kde-permutation-invariance": 0.0,
    }
    ok = True
    for name, allowed in checks.items():
        r = property_results[name]
        ok = ok and r.passed and r.allowed == allowed
    criterion(9, ok, "quadrature/normalization/discrete-limit/permutation oracles at stated tolerances")


def test_criterion_10_distribution_layer_oracles(property_results):
    pairs = {
        "scatter-vs-bruteforce": 0.0,
        "scatter-vs-montecarlo": 0.01,
        "mass-conservation": 1e-12,
        "sum-commutativity": 0.0,
        "layer-vs-bruteforce": 1e-12,
    }
    ok = True
    for name, allowed in pairs.items():
        r = property_results[name]
        ok = ok and r.passed and r.allowed == allowed
    criterion(
        10,
        ok,
        "scatter matrices bitwise against loop folds, Monte-Carlo TV<=0.01 (stages and layer),"
        " mass conservation to 1e-12, exact point-mass commutativity, layer vs brute force to 1e-12",
    )


def test_criterion_11_determinism(tmp_path):
    # identical seeds: identical loss curves (library) and identical
    # evaluation CSVs (CLI), single-threaded numpy path
    train_set = make_imageset(256, seed=40)
    curves = []
    for _ in range(2):
        cfg = models.ModelConfig("base", epochs=2, batch_size=32, seed=0)
        model = models.build_model(cfg)
        curves.append(
            [(s.epoch, s.mean_loss, s.train_accuracy) for s in models.train(model, train_set, cfg)]
        )
    curves_ok = curves[0] == curves[1]

    from conftest import to_bytes_images, write_idx_pair

    data_dir = tmp_path / "data"
    write_idx_pair(data_dir, *to_bytes_images(make_imageset(128, seed=41)), "train")
    write_idx_pair(data_dir, *to_bytes_images(make_imageset(64, seed=42)), "t10k")
    out = tmp_path / "train"
    code = cli.main(["train", "--arch", "base", "--data-dir", str(data_dir), "--out-dir", str(out),
                     "--epochs", "1", "--batch", "32"])
    assert code == 0
    blobs = []
    for name in ("a", "b"):
        eval_dir = tmp_path / name
        code = cli.main(["eval", str(out / "model_base.ckpt"), "--data-dir", str(data_dir),
                         "--out-dir", str(eval_dir), "--seed", "7"])
        assert code == 0
        blobs.append((eval_dir / "reports.csv").read_bytes())
    csv_ok = blobs[0] == blobs[1]
    criterion(11, curves_ok and csv_ok, "seeded reruns: identical loss curves and identical evaluation CSVs")
