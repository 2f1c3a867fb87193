import json
import math
import os

import numpy as np
import pytest

from fairprep import parallel, synth
from fairprep.debias import DebiasConfig, leakage_probe
from fairprep.mlcore import TrainingDivergedError
from fairprep.synth import PROTECTED_COLUMN, TARGET_COLUMN, SyntheticSpec, make_synthetic, synth_check
from fairprep.tabular import DataError, SchemaError


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(prevalence=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(bias_strength=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(proxy_strength=1.5)
    with pytest.raises(DataError, match="degenerate"):
        make_synthetic(SyntheticSpec(n=50, prevalence=0.1))


@pytest.mark.parametrize("field, value", [
    # int() in derive_rng would cut 1.5 or "3" to another seed's table
    ("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", None),
    # a size that is not a whole count would end in a numpy TypeError
    ("n_features", 2.5), ("n_proxies", 1.5), ("n", 2000.0), ("n", 0),
    ("n_features", 0), ("n_proxies", -1), ("n_proxies", False),
])
def test_spec_rejects_a_seed_or_size_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    # a bool would be taken as 0 or 1; a string or None would fail the range check with a TypeError
    ("proxy_strength", True), ("prevalence", "0.5"), ("bias_strength", None),
    ("proxy_strength", "0.3"),
])
def test_spec_rejects_a_rate_that_is_not_a_number(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticSpec(**{field: value})


def test_spec_takes_a_negative_seed_and_no_proxies():
    table, _ = make_synthetic(SyntheticSpec(n=100, n_proxies=0, seed=-7))
    assert not [name for name in table.column_names if name.startswith("proxy")]


def test_no_bias_means_observed_equals_fair():
    spec = SyntheticSpec(n=600, bias_strength=0.0, proxy_strength=0.0, seed=3)
    table, fair = make_synthetic(spec)
    assert table.column(TARGET_COLUMN) == [int(v) for v in fair]


def test_no_proxy_probe_in_null_band():
    spec = SyntheticSpec(n=2000, bias_strength=0.0, proxy_strength=0.0, seed=5)
    table, _ = make_synthetic(spec)
    assert 0.45 <= leakage_probe(table, PROTECTED_COLUMN, seed=5) <= 0.58


def test_perfect_proxy_probe_saturates():
    spec = SyntheticSpec(n=1000, bias_strength=0.0, proxy_strength=1.0, seed=1)
    table, _ = make_synthetic(spec)
    # at full strength the proxy is an affine copy of the protected flag
    proxy = np.array(table.column("proxy1"))
    flag = np.array(table.column(PROTECTED_COLUMN), dtype=float)
    assert len(set(np.round(proxy[flag == 1], 9))) == 1
    assert leakage_probe(table, PROTECTED_COLUMN, seed=1) >= 0.95


def test_flip_counts_match_spec():
    spec = SyntheticSpec(n=2000, prevalence=0.5, bias_strength=0.3, proxy_strength=0.0, seed=7)
    table, fair = make_synthetic(spec)
    observed = np.array(table.column(TARGET_COLUMN))
    flag = np.array(table.column(PROTECTED_COLUMN))
    flipped = observed != fair
    # flips only move protected-group members toward the adverse outcome
    assert np.all(flag[flipped] == 1)
    assert np.all(fair[flipped] == 0) and np.all(observed[flipped] == 1)
    eligible = int(((flag == 1) & (fair == 0)).sum())
    expected = spec.bias_strength * eligible
    sigma = np.sqrt(eligible * spec.bias_strength * (1 - spec.bias_strength))
    assert abs(int(flipped.sum()) - expected) <= 3 * sigma


def test_fair_labels_invariant_to_beta():
    _, fair_a = make_synthetic(SyntheticSpec(n=500, bias_strength=0.0, seed=11))
    _, fair_b = make_synthetic(SyntheticSpec(n=500, bias_strength=0.4, seed=11))
    assert np.array_equal(fair_a, fair_b)


def test_make_synthetic_deterministic():
    spec = SyntheticSpec(n=300, seed=13)
    t1, f1 = make_synthetic(spec)
    t2, f2 = make_synthetic(spec)
    assert t1.columns == t2.columns
    assert np.array_equal(f1, f2)


def test_synth_check_null_case_pre_post_match():
    spec = SyntheticSpec(n=1200, bias_strength=0.0, proxy_strength=0.0, seed=2)
    result = synth_check(spec)
    assert abs(result.fair_accuracy_pre - result.fair_accuracy_post) <= 0.03


def test_synth_check_directional_improvements():
    spec = SyntheticSpec(n=2000, bias_strength=0.3, proxy_strength=0.8, seed=4)
    result = synth_check(spec)
    assert result.probe_auc_pre >= 0.75
    assert result.probe_auc_post <= 0.60
    mean_pre = sum(result.bias_scores_pre.values()) / len(result.bias_scores_pre)
    mean_post = sum(result.bias_scores_post.values()) / len(result.bias_scores_post)
    assert mean_post < mean_pre
    assert result.fair_accuracy_post >= result.fair_accuracy_pre - 0.02


def test_synth_check_jsonable():
    spec = SyntheticSpec(n=600, seed=8)
    json.dumps(synth_check(spec).to_jsonable())


# ---------------------------------------------------------------------------
# the five calls, in this process


QUICK = SyntheticSpec(n=600, seed=8)
DIVERGING = DebiasConfig(seed=8, learning_rate=1e160, batch_size=30, epochs=3)


def _force_workers(monkeypatch, workers):
    # synth_check must make the same calls in the same order whatever CPU count it is offered
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)


def test_synth_check_forks_no_process_even_with_two_cpus(monkeypatch):
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    synth_check(SyntheticSpec(n=5000, seed=8), DebiasConfig(seed=8, latent_dim=4, epochs=2))
    assert forks == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_training_warning_reaches_the_callers_filters(monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    with pytest.warns(UserWarning, match="latent_dim 500") as record:
        synth_check(QUICK, DebiasConfig(seed=8, latent_dim=500, epochs=2))
    latent = [w for w in record if "latent_dim" in str(w.message)]
    assert len(latent) == 1
    assert latent[0].filename == synth.__file__


def _fails_on_any_table(table, *args):
    raise DataError(f"caller-side stage failed on {table.n_rows} rows")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_diverging_debiaser_is_raised_ahead_of_any_caller_side_error(monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    monkeypatch.setattr(synth, "leakage_probe", _fails_on_any_table)
    monkeypatch.setattr(synth, "_fit_and_score", _fails_on_any_table)
    with pytest.raises(TrainingDivergedError, match="non-finite") as err:
        synth_check(QUICK, DIVERGING)
    assert len(err.value.trace) == err.value.epoch + 1
    assert not math.isfinite(err.value.trace.combined_loss[-1])


def _is_raw(table) -> bool:
    return np.array_equal(table.array("f1"), make_synthetic(QUICK)[0].array("f1"))


def _fails_on(raw: bool, error):
    """A stage that raises `error` on the raw table (`raw` True), on the rewritten one
    (False) or on neither (None), and otherwise returns a value of the probe's or the
    fit's shape."""
    def stage(table, *args):
        if _is_raw(table) == raw:
            raise error
        return 0.75 if len(args) == 2 else (0.5, 0.5, {})
    return stage


@pytest.mark.parametrize("workers", [1, 2])
def test_otherwise_the_first_failure_of_a_sequential_run_is_raised(monkeypatch, workers):
    # the calls in order: train and rewrite, probe pre, fit pre, probe post, fit post
    _force_workers(monkeypatch, workers)
    cfg = DebiasConfig(seed=8, latent_dim=4, epochs=2)
    probe_fails, fit_fails = SchemaError("probe failed"), DataError("fit failed")
    for probe_fails_on_raw, fit_fails_on_raw, raised in [
        (None, True, fit_fails),  # only fit pre fails
        (False, True, fit_fails),  # fit pre ahead of probe post
        (True, True, probe_fails),  # probe pre ahead of fit pre
        (False, False, probe_fails),  # probe post ahead of fit post
    ]:
        monkeypatch.setattr(synth, "leakage_probe", _fails_on(probe_fails_on_raw, probe_fails))
        monkeypatch.setattr(synth, "_fit_and_score", _fails_on(fit_fails_on_raw, fit_fails))
        with pytest.raises(type(raised), match=f"^{raised}$"):
            synth_check(QUICK, cfg)
