"""Acceptance suite: every release criterion as an executable check.

Each test prints one `ACCEPT <id> <name>: PASS` line (visible with -s or on
failure) and asserts the criterion's bands. Study criteria use the median
over the five configured seeds, matching the aggregation the runner reports.
"""

import statistics
import time

import numpy as np
import pytest

from fairprep.cli import main as cli_main
from fairprep.mlcore import (
    TrainConfig,
    derive_rng,
    fit_linear,
    fit_logistic,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
    squared_error,
)
from fairprep.synth import SyntheticSpec, synth_check

import oracles
import reference_tables as ref


def _report(criterion, detail=""):
    print(f"ACCEPT {criterion}: PASS {detail}")


# -- 1: gradient fidelity ----------------------------------------------------


def test_criterion_01_gradient_fidelity():
    start = time.time()
    rng = derive_rng(101, "accept-grad")
    worst = 0.0
    cases = 0
    for trial in range(21):
        depth = rng.integers(2, 4)  # 1 or 2 hidden layers plus output
        dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        # the fused softmax call, and its gradient half alone as the adversary phase calls it
        loss_kind = ("squared", "softmax", "softmax-grad-only")[trial % 3]
        net = mlp_init(dims, derive_rng(trial, "accept-net"))
        X = rng.standard_normal((5, dims[0]))
        k = dims[-1]
        if loss_kind == "squared":
            target = rng.standard_normal((5, k))
            loss = lambda out: squared_error(out, target)[0]
            grad_fn = lambda out: squared_error(out, target)[1]
        else:
            target = np.zeros((5, k))
            target[np.arange(5), rng.integers(k, size=5)] = 1.0
            loss = lambda out: softmax_cross_entropy(out, target)[0]
            if loss_kind == "softmax":
                grad_fn = lambda out: softmax_cross_entropy(out, target)[1]
            else:
                def grad_fn(out):
                    grad = np.empty_like(out)
                    softmax_cross_entropy_grad(out, target, grad)
                    return grad
        cache, out = mlp_forward(net, X)
        analytic, _ = mlp_backward(net, cache, grad_fn(out))
        numeric = oracles.finite_diff_param_grads(net, X, loss, step=1e-5)
        worst = max(worst, oracles.max_relative_error(analytic, numeric))
        cases += 1
    elapsed = time.time() - start
    assert cases >= 20
    assert worst <= 1e-4
    assert elapsed < 30
    _report("01 gradient-fidelity", f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


# -- 2: solver oracles -------------------------------------------------------


def test_criterion_02_solver_oracles():
    start = time.time()
    rng = derive_rng(202, "accept-solvers")
    for trial in range(10):
        n, d = 20, 3
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d) + 0.2 * rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 1.0))
        model = fit_linear(X, y, lam)
        w_ref, b_ref = oracles.gd_ridge(X, y, lam)
        dist = float(np.linalg.norm(model.weights - w_ref)) + abs(model.intercept - b_ref)
        assert dist <= 1e-6, f"ridge trial {trial}: distance {dist:.2e}"

    X = rng.standard_normal((50, 2))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 1]
    y = (rng.random(50) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    l2 = 1e-2
    model = fit_logistic(X, y, TrainConfig(learning_rate=1.0, epochs=20_000, l2=l2))
    w_ref, b_ref = oracles.irls_logistic(X, y, l2)
    dist = float(np.linalg.norm(model.weights - w_ref)) + abs(model.intercept - b_ref)
    assert dist <= 1e-3, f"logistic-vs-IRLS distance {dist:.2e}"
    elapsed = time.time() - start
    assert elapsed < 30
    _report("02 solver-oracles", f"({elapsed:.1f}s)")


# -- 3: bias-table arithmetic -------------------------------------------------


def _recompute(mu_a, mu_b, sig_a, sig_b):
    return abs(mu_a - mu_b) / ((sig_a + sig_b) / 2.0)


@pytest.mark.parametrize(
    "study,column",
    [
        ("passnyc", "pre"),
        ("passnyc", "post"),
        pytest.param(
            "passnyc",
            "true",
            marks=pytest.mark.xfail(
                strict=True,
                reason="recorded score 1.93 is inconsistent with its recorded inputs "
                "(|0.76-0.42| / 0.16 = 2.125); see tests/reference_tables.py",
            ),
        ),
        ("communities", "pre"),
        ("communities", "post"),
        ("communities", "true"),
    ],
)
def test_criterion_03_regression_tables(study, column):
    mu_a, mu_b, sig_a, sig_b, recorded = ref.REGRESSION[study][column]
    assert _recompute(mu_a, mu_b, sig_a, sig_b) == pytest.approx(recorded, abs=0.01)
    _report("03 bias-table-arithmetic", f"({study}/{column})")


def test_criterion_03_classification_tables():
    for study, tables in ref.CLASSIFICATION.items():
        for block in ("original", "debiased"):
            for stratum, (mu_a, mu_b, sig_a, sig_b, recorded) in tables[block].items():
                got = _recompute(mu_a, mu_b, sig_a, sig_b)
                assert got == pytest.approx(recorded, abs=0.06), (
                    f"{study}/{block}/{stratum}: {got:.3f} vs {recorded}"
                )
    _report("03 bias-table-arithmetic", "(rounded-input tables within 0.06)")


# -- 4-8: case studies ---------------------------------------------------------


def _median_scores(result, phase):
    return {
        stratum: scores[phase]["median"]
        for stratum, scores in result.aggregate["bias_scores"].items()
    }


def test_criterion_04_compas_study(study_results):
    start = time.time()
    res = study_results("compas")
    pre, post = _median_scores(res, "pre"), _median_scores(res, "post")
    assert set(pre) == {"non-recid", "recid"}
    assert all(v >= 0.5 for v in pre.values()), pre
    assert all(v <= 0.3 for v in post.values()), post
    perf = res.aggregate["performance"]
    assert perf["pre"]["median"] - perf["post"]["median"] <= 0.10
    assert time.time() - start < 300
    _report("04 compas-study", f"(pre {pre}, post {post})")


def test_criterion_05_absenteeism_study(study_results):
    start = time.time()
    res = study_results("absenteeism")
    pre, post = _median_scores(res, "pre"), _median_scores(res, "post")
    assert pre["upper quart"] >= 1.0, pre
    assert all(v <= 0.35 for v in post.values()), post
    perf = res.aggregate["performance"]
    assert perf["pre"]["median"] - perf["post"]["median"] <= 0.10
    assert time.time() - start < 180
    _report("05 absenteeism-study", f"(pre {pre}, post {post})")


def test_criterion_06_heart_study(study_results):
    start = time.time()
    res = study_results("heart")
    pre, post = _median_scores(res, "pre"), _median_scores(res, "post")
    assert all(v >= 0.15 for v in pre.values()), pre
    assert all(v <= 0.10 for v in post.values()), post
    perf = res.aggregate["performance"]
    assert perf["pre"]["median"] - perf["post"]["median"] <= 0.10
    assert time.time() - start < 120
    _report("06 heart-study", f"(pre {pre}, post {post})")


def test_criterion_07_passnyc_study(study_results):
    start = time.time()
    res = study_results("passnyc")
    true_score = res.aggregate["true_bias_scores"]["all"]["median"]
    pre = _median_scores(res, "pre")["all"]
    post = _median_scores(res, "post")["all"]
    assert pre > true_score
    assert post < true_score
    perf = res.aggregate["performance"]
    assert perf["metric"] == "r_squared"
    assert perf["pre"]["median"] - perf["post"]["median"] <= 0.25
    assert time.time() - start < 180
    _report("07 passnyc-study", f"(true {true_score:.2f}, pre {pre:.2f}, post {post:.2f})")


def test_criterion_08_communities_study(study_results):
    start = time.time()
    res = study_results("communities")
    true_score = res.aggregate["true_bias_scores"]["all"]["median"]
    pre = _median_scores(res, "pre")["all"]
    post = _median_scores(res, "post")["all"]
    assert pre > true_score
    assert post < true_score
    perf = res.aggregate["performance"]
    assert perf["pre"]["median"] - perf["post"]["median"] <= 0.20
    assert time.time() - start < 180
    _report("08 communities-study", f"(true {true_score:.2f}, pre {pre:.2f}, post {post:.2f})")


# -- 9: synthetic ground truth --------------------------------------------------


def test_criterion_09_synthetic_ground_truth():
    start = time.time()
    results = []
    for seed in range(5):
        spec = SyntheticSpec(n=2000, bias_strength=0.3, proxy_strength=0.8, seed=seed)
        results.append(synth_check(spec))
    med = lambda vals: statistics.median(vals)
    auc_pre = med([r.probe_auc_pre for r in results])
    auc_post = med([r.probe_auc_post for r in results])
    fair_pre = med([r.fair_accuracy_pre for r in results])
    fair_post = med([r.fair_accuracy_post for r in results])
    bias_pre = med([sum(r.bias_scores_pre.values()) / 2 for r in results])
    bias_post = med([sum(r.bias_scores_post.values()) / 2 for r in results])
    elapsed = time.time() - start
    assert auc_pre >= 0.75
    assert auc_post <= 0.60
    assert fair_post >= fair_pre - 0.02
    assert bias_post < bias_pre
    assert elapsed < 120
    _report(
        "09 synthetic-ground-truth",
        f"(auc {auc_pre:.2f}->{auc_post:.2f}, fair acc {fair_pre:.3f}->{fair_post:.3f}, "
        f"bias {bias_pre:.2f}->{bias_post:.2f}, {elapsed:.0f}s)",
    )


# -- 10: determinism --------------------------------------------------------------


def test_criterion_10_byte_identical_reruns(tmp_path):
    root = tmp_path
    data = root / "data"
    data.mkdir()

    import numpy as np

    from fairprep.mlcore import derive_rng
    from fairprep.tabular import ColumnSpec, DataTable, save_schema, write_csv

    rng = derive_rng(0, "accept-determinism")
    n = 120
    a = (rng.random(n) < 0.5).astype(int)
    table = DataTable(
        [
            ColumnSpec("proxy", "numeric", "feature"),
            ColumnSpec("other", "numeric", "feature"),
            ColumnSpec("grp", "binary", "protected"),
            ColumnSpec("label", "binary", "target"),
        ],
        {
            "proxy": [float(v) for v in a + 0.2 * rng.standard_normal(n)],
            "other": [float(v) for v in rng.standard_normal(n)],
            "grp": [int(v) for v in a],
            "label": [int(v) for v in (rng.random(n) < 0.5)],
        },
    )
    write_csv(table, data / "t.csv")
    save_schema(table.schema, data / "t.schema.json")

    def run_all(tag):
        out = root / tag
        out.mkdir()
        assert cli_main([
            "debias", "--input", str(data / "t.csv"), "--schema", str(data / "t.schema.json"),
            "--protected", "grp", "--output", str(out / "debiased.csv"),
            "--model-out", str(out / "model.json"), "--report", str(out / "report.json"),
            "--epochs", "40", "--seed", "11",
        ]) == 0
        est = data / "est.csv"
        est.write_text("estimate,g\n0.1,a\n0.3,a\n0.7,b\n0.9,b\n")
        assert cli_main([
            "audit", "--estimates", str(est), "--groups", "g",
            "--report", str(out / "audit.json"),
        ]) == 0
        assert cli_main([
            "synth-check", "--n", "400", "--beta", "0.2", "--rho", "0.6", "--seed", "5",
            "--report", str(out / "synth.json"),
        ]) == 0
        import fairprep.cli as cli

        assert cli.main([
            "run-study", "--config", str(STUDY_DIR / "passnyc.json"), "--seeds", "1",
            "--out", str(out / "study"),
        ]) == 0
        return out

    from conftest import STUDY_DIR

    first = run_all("one")
    second = run_all("two")
    compared = 0
    for rel in (
        "debiased.csv", "model.json", "report.json", "audit.json", "synth.json",
        "study/passnyc_result.json", "study/passnyc_seed0_pre_bias.csv",
        "study/passnyc_seed0_post_hist.csv",
    ):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
        compared += 1
    _report("10 determinism", f"({compared} files byte-identical)")
