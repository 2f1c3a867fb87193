"""Synthetic bias-injection harness.

Generates a table with a known fair world: features drawn independently of a
binary protected attribute, a fair label that depends on the features only,
then two injected corruptions -- proxy columns correlated with the protected
attribute at strength rho, and observed labels flipped toward the adverse
outcome with probability beta for the protected group. Because the fair
labels survive as ground truth, the harness can measure what no real dataset
allows: model accuracy against the world before the bias was added.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import mlcore
from .debias import DebiasConfig, leakage_probe, train_debiaser, transform
from .mlcore import check_count, check_finite, check_seed, derive_rng, sigmoid
from .studies import StudyConfig, _downstream, _train_config
from .tabular import ColumnSpec, DataError, DataTable, split_indices

PROTECTED_COLUMN = "group"
TARGET_COLUMN = "outcome"
# the downstream fit and audit of both tables: a default logistic fit on a 70/30 split,
# and the bias of its estimates over every row, group 0 against group 1
STUDY = StudyConfig(name="synth-check", schema=[], protected=PROTECTED_COLUMN,
                    target=TARGET_COLUMN, model={"kind": "logistic"}, audit={"groups": [0, 1]})


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 2000
    n_features: int = 6  # fair continuous features
    n_proxies: int = 2
    prevalence: float = 0.5  # protected-group rate p
    proxy_strength: float = 0.8  # rho: correlation of each proxy with the protected flag
    bias_strength: float = 0.3  # beta: flip-to-adverse probability inside the protected group
    seed: int = 0

    def __post_init__(self):
        for name in ("prevalence", "bias_strength", "proxy_strength"):
            check_finite(name, getattr(self, name))
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError("prevalence must be in (0,1)")
        if not 0.0 <= self.bias_strength < 1.0:
            raise ValueError("bias_strength must be in [0,1)")
        if not 0.0 <= self.proxy_strength <= 1.0:
            raise ValueError("proxy_strength must be in [0,1]")
        check_count("n", self.n)
        check_count("n_features", self.n_features)
        check_count("n_proxies", self.n_proxies, minimum=0)
        check_seed(self.seed)


def make_synthetic(spec: SyntheticSpec):
    """Build the observed table and return it with the hidden fair labels.

    The observed table contains fair features f1..fd, proxy columns, the
    protected flag and the (possibly corrupted) outcome. Fair labels are
    returned separately and are unaffected by bias_strength by construction.
    """
    if spec.prevalence * spec.n < 10:
        raise DataError(
            f"degenerate spec: expected protected count {spec.prevalence * spec.n:.1f} < 10"
        )
    rng = derive_rng(spec.seed, "synthetic", spec.n, spec.n_features, spec.n_proxies)
    n, d = spec.n, spec.n_features

    F = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    w *= 2.0 / max(np.linalg.norm(w), 1e-12)
    fair_labels = (rng.random(n) < sigmoid(F @ w)).astype(int)

    a = (rng.random(n) < spec.prevalence).astype(int)
    a_std = (a - spec.prevalence) / np.sqrt(spec.prevalence * (1.0 - spec.prevalence))
    rho = spec.proxy_strength
    proxies = []
    for _ in range(spec.n_proxies):
        noise = rng.standard_normal(n)
        proxies.append(rho * a_std + np.sqrt(1.0 - rho * rho) * noise)

    observed = fair_labels.copy()
    flip = (a == 1) & (fair_labels == 0) & (rng.random(n) < spec.bias_strength)
    observed[flip] = 1

    schema = [ColumnSpec(f"f{i + 1}", "numeric", "feature") for i in range(d)]
    schema += [ColumnSpec(f"proxy{i + 1}", "numeric", "feature") for i in range(spec.n_proxies)]
    schema.append(ColumnSpec(PROTECTED_COLUMN, "binary", "protected"))
    schema.append(ColumnSpec(TARGET_COLUMN, "binary", "target"))
    arrays = {f"f{i + 1}": F[:, i] for i in range(d)}
    arrays.update({f"proxy{i + 1}": p for i, p in enumerate(proxies)})
    # a binary column's codes are its 0/1 labels
    arrays.update({PROTECTED_COLUMN: a, TARGET_COLUMN: observed})
    return DataTable.from_arrays(schema, arrays), fair_labels


@dataclass
class SynthCheckResult:
    spec: SyntheticSpec
    debias_config: dict
    model_config: dict
    probe_auc_pre: float
    probe_auc_post: float
    observed_accuracy_pre: float
    observed_accuracy_post: float
    fair_accuracy_pre: float
    fair_accuracy_post: float
    bias_scores_pre: dict
    bias_scores_post: dict

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["spec"] = asdict(self.spec)
        return out


def default_debias_config(spec: SyntheticSpec) -> DebiasConfig:
    """The debiaser `synth_check` trains unless given one, calibrated for proxy removal:
    full capacity for the fair features, heavy adversary so keeping proxy directions
    never pays off."""
    return DebiasConfig(
        seed=spec.seed,
        latent_dim=spec.n_features,
        adversary_weight=6.0,
        epochs=300,
        adversary_steps=5,
        adversary_hidden=max(16, 2 * spec.n_features),
    )


def synth_check(
    spec: SyntheticSpec,
    debias_cfg: DebiasConfig | None = None,
) -> SynthCheckResult:
    """Train the same downstream model on biased vs debiased data and compare
    both against the hidden fair labels.

    Five calls, one after another in this process: train a debiaser and rewrite
    the table, probe the raw table, fit and audit it, probe the rewritten table,
    fit and audit it. Both fits and audits are the study pipeline's
    (`studies._downstream` under `STUDY`), on one split: the rewrite keeps the
    target column it is stratified on. The first call to fail raises its error,
    and every warning they raise reaches the caller's filters. The report's
    `model_config` is the `TrainConfig` both fits use."""
    table, fair_labels = make_synthetic(spec)
    if debias_cfg is None:
        debias_cfg = default_debias_config(spec)

    dmodel, _ = train_debiaser(table, debias_cfg)
    debiased = transform(dmodel, table)
    auc_pre = leakage_probe(table, PROTECTED_COLUMN, spec.seed)
    split = split_indices(table, STUDY.test_fraction, spec.seed)
    pre, estimates_pre = _downstream(STUDY, table, spec.seed, split)
    auc_post = leakage_probe(debiased, PROTECTED_COLUMN, spec.seed)
    post, estimates_post = _downstream(STUDY, debiased, spec.seed, split)

    test_idx = split[1]
    fair_test = fair_labels[test_idx]
    return SynthCheckResult(
        spec=spec,
        debias_config=asdict(debias_cfg),
        model_config=asdict(_train_config(STUDY.model)),
        probe_auc_pre=auc_pre,
        probe_auc_post=auc_post,
        observed_accuracy_pre=pre.performance["value"],
        observed_accuracy_post=post.performance["value"],
        fair_accuracy_pre=mlcore.accuracy(estimates_pre[test_idx], fair_test),
        fair_accuracy_post=mlcore.accuracy(estimates_post[test_idx], fair_test),
        bias_scores_pre=pre.bias_table.scores(),
        bias_scores_post=post.bias_table.scores(),
    )
