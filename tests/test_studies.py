import ctypes
import json
import os
import pickle
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairprep import parallel, studies
from fairprep.debias import TrainingTrace
from fairprep.ioutil import canonical_json
from fairprep.mlcore import SingularSystemError, TrainingDivergedError
from fairprep.studies import (
    StudyConfig,
    apply_transforms,
    load_study_table,
    prepare_table,
    run_study,
)
from fairprep.tabular import DataError, SchemaError

ROOT = Path(__file__).resolve().parent.parent
STUDY_DIR = ROOT / "studies"
STUDY_NAMES = ["compas", "absenteeism", "heart", "passnyc", "communities"]


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_configs_load_and_digest_is_stable(name):
    cfg = StudyConfig.from_json(STUDY_DIR / f"{name}.json")
    assert cfg.name == name
    assert cfg.digest() == StudyConfig.from_json(STUDY_DIR / f"{name}.json").digest()
    assert cfg.model["kind"] in ("logistic", "linear", "ridge")
    assert len(cfg.seeds) == 5


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_bundled_data_loads_and_prepares(name):
    cfg = StudyConfig.from_json(STUDY_DIR / f"{name}.json")
    table, info = load_study_table(cfg)
    assert info["bundled"] is True
    assert info["warning"]  # the real dataset is not present in this checkout
    prepared = prepare_table(cfg, table)
    assert prepared.spec(cfg.protected).kind in ("categorical", "binary")
    assert prepared.spec(cfg.target).role == "target"
    assert not prepared.specs_with_role("drop")


def test_compas_filter_keeps_two_races():
    cfg = StudyConfig.from_json(STUDY_DIR / "compas.json")
    raw, _ = load_study_table(cfg)
    prepared = prepare_table(cfg, raw)
    assert prepared.spec("race").categories == ("African-American", "Caucasian")
    assert prepared.n_rows < raw.n_rows


def test_absenteeism_recipe_derives_protected_and_target():
    cfg = StudyConfig.from_json(STUDY_DIR / "absenteeism.json")
    raw, _ = load_study_table(cfg)
    prepared = prepare_table(cfg, raw)
    assert prepared.spec("age").categories == ("under 35", "35 to 45", "over 45")
    flags = prepared.column("absenteeism_hours")
    assert set(flags) == {0, 1}
    assert sum(flags) <= 0.25 * len(flags)


def test_communities_recipe_drops_sparse_columns():
    cfg = StudyConfig.from_json(STUDY_DIR / "communities.json")
    raw, _ = load_study_table(cfg)
    prepared = prepare_table(cfg, raw)
    # the six sparse policing columns plus the drop-role race columns are gone
    assert len(prepared.schema) == len(raw.schema) - 6 - 4
    assert set(prepared.spec("race_pct_black").categories) == {0, 1}


@pytest.mark.parametrize("study, groups", [
    ("heart", ["female", "mal"]),
    # passnyc's groups are the labels its group_labels give the 0/1 codes
    ("passnyc", ["majority black", 1]),
])
def test_audit_groups_naming_no_group_fail_before_any_seed_trains(monkeypatch, study, groups):
    def refuse(*args):
        raise AssertionError("an audit.groups typo reached training")

    monkeypatch.setattr(studies, "train_debiaser", refuse)
    cfg = StudyConfig.from_json(STUDY_DIR / f"{study}.json")
    cfg.audit = dict(cfg.audit, groups=groups)
    with pytest.raises(SchemaError, match=f"audit.groups {groups[1]!r} is not a group"):
        run_study(cfg, seeds=[0, 1])


def test_checksum_mismatch_is_fatal(tmp_path):
    cfg = StudyConfig.from_json(STUDY_DIR / "heart.json")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / cfg.source["filename"]).write_text("corrupted,data\n1,2\n")
    cfg.source = dict(cfg.source, sha256="0" * 64)
    with pytest.raises(DataError, match="checksum"):
        load_study_table(cfg, data_dir=cache)


def test_unknown_transform_op_is_fatal(toy_table):
    with pytest.raises(Exception, match="unknown transform"):
        apply_transforms(toy_table, [{"op": "frobnicate"}])


def test_run_study_with_no_seeds_raises_before_loading_anything(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loaded a table for an empty seed list")

    monkeypatch.setattr(studies, "load_study_table", refuse)
    with pytest.raises(ValueError, match="at least one seed"):
        run_study(StudyConfig.from_json(STUDY_DIR / "heart.json"), seeds=[])


def test_run_study_repeated_seed_identical(study_results):
    cfg = StudyConfig.from_json(STUDY_DIR / "passnyc.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_study(cfg, seeds=[1, 1])
    a, b = res.runs
    assert canonical_json(a.to_jsonable()) == canonical_json(b.to_jsonable())


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_pipeline_identity_via_config_digest(name, study_results):
    res = study_results(name)
    for run in res.runs:
        assert run.pre.metadata["config_digest"] == run.post.metadata["config_digest"]
        assert run.pre.metadata["config_digest"] == res.config_digest


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_every_stratum_improves_on_median(name, study_results):
    res = study_results(name)
    for stratum, scores in res.aggregate["bias_scores"].items():
        assert scores["post"]["median"] < scores["pre"]["median"]


def test_compas_accuracy_near_reported_value(study_results):
    res = study_results("compas")
    assert res.aggregate["performance"]["pre"]["median"] == pytest.approx(0.67, abs=0.05)


def test_regression_studies_record_true_tables(study_results):
    for name in ("passnyc", "communities"):
        res = study_results(name)
        assert "true_bias_scores" in res.aggregate
        for run in res.runs:
            assert run.pre.true_table is not None
            # the data's own gap does not depend on the model seed
            assert run.pre.true_table.scores() == res.runs[0].pre.true_table.scores()


def test_result_json_round_trip(tmp_path, study_results):
    res = study_results("passnyc")
    payload = res.to_jsonable()
    text = canonical_json(payload)
    assert json.loads(text) == json.loads(canonical_json(json.loads(text)))


def test_write_study_outputs(tmp_path, study_results):
    from fairprep.studies import write_study_outputs

    res = study_results("passnyc")
    write_study_outputs(res, tmp_path)
    assert (tmp_path / "passnyc_result.json").exists()
    for seed in [r.seed for r in res.runs]:
        for suffix in ("pre_bias", "post_bias", "pre_hist", "post_hist"):
            assert (tmp_path / f"passnyc_seed{seed}_{suffix}.csv").exists()
    hist = (tmp_path / "passnyc_seed0_pre_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,group,stratum,count"


def test_audit_on_test_switch():
    import warnings

    cfg = StudyConfig.from_json(STUDY_DIR / "passnyc.json")
    cfg.audit = dict(cfg.audit, on="test")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_study(cfg, seeds=[0])
    run = res.runs[0]
    assert run.pre.metadata["audit_on"] == "test"
    total = sum(s.n for s in run.pre.stats)
    table, _ = load_study_table(cfg)
    assert total < prepare_table(cfg, table).n_rows


def test_real_source_row_count_when_present():
    import os

    cfg = StudyConfig.from_json(STUDY_DIR / "compas.json")
    data_dir = os.environ.get("FAIRPREP_DATA_DIR")
    real = Path(data_dir) / cfg.source["filename"] if data_dir else None
    if not (real and real.exists()):
        pytest.skip("real source dataset not present")
    table, info = load_study_table(cfg, data_dir=data_dir)
    assert info["bundled"] is False
    assert table.n_rows == 11757


def _quick_heart(**debias):
    cfg = StudyConfig.from_json(STUDY_DIR / "heart.json")
    cfg.debias = dict(cfg.debias, epochs=3, **debias)
    return cfg


@pytest.mark.parametrize("fit_debias_on", ["full", "train"])
def test_a_seed_splits_once_before_training_and_a_failing_split_trains_nothing(
    monkeypatch, fit_debias_on
):
    cfg = _quick_heart()
    cfg.fit_debias_on = fit_debias_on
    table = prepare_table(cfg, load_study_table(cfg)[0])
    splits, trained = [], []
    split, train = studies.split_indices, studies.train_debiaser
    monkeypatch.setattr(studies, "split_indices", lambda *a: splits.append(a) or split(*a))
    monkeypatch.setattr(studies, "train_debiaser", lambda *a: trained.append(a) or train(*a))
    studies._run_seed(cfg, table, 0)
    assert (len(splits), len(trained)) == (1, 1)
    # a single row with heart disease: its class cannot be split
    sick = table.array("num") == 1
    one_sick = table.take_rows(np.concatenate([np.flatnonzero(~sick), np.flatnonzero(sick)[:1]]))
    trained.clear()
    with pytest.raises(DataError, match="^column 'num': class 1 has fewer than 2 rows$"):
        studies._run_seed(cfg, one_sick, 0)
    assert trained == []


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)


def test_worker_count_is_one_per_usable_cpu_capped_at_the_seeds(monkeypatch):
    assert parallel.worker_count() == len(os.sched_getaffinity(0))

    def refuse():
        raise AssertionError("forked a child for a one-seed study")

    # `map` makes no more shares than calls, and makes the first in this process
    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", refuse)
    assert [r.seed for r in run_study(_quick_heart(), seeds=[5]).runs] == [5]


def test_worker_processes_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch):
    cfg = _quick_heart()
    written = {}
    for workers in (2, 1):
        _force_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        run_study(cfg, out_dir=out, seeds=[0, 1])
        written[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(written[2]) == 1 + 2 * 4  # result JSON, then bias/hist CSVs per seed and side
    assert written[2] == written[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_seed_warnings_pass_through_the_callers_filters(monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    cfg = _quick_heart(latent_dim=500)
    with pytest.warns(UserWarning, match="latent_dim 500") as record:
        run_study(cfg, seeds=[0, 1])
    latent = [w for w in record if "latent_dim" in str(w.message)]
    assert len(latent) == 2
    assert all(w.filename == studies.__file__ for w in latent)
    # "default" shows one warning per location, as a warning raised in this process would be
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_study(cfg, seeds=[0, 1])
    assert len([w for w in caught if "latent_dim" in str(w.message)]) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warning_the_caller_makes_an_error_stops_the_study(tmp_path, monkeypatch, workers):
    # every seed's warnings, the caller's own too, reach the filters once every share is done
    _force_workers(monkeypatch, workers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="latent_dim 500"):
            run_study(_quick_heart(latent_dim=500), out_dir=tmp_path / "out", seeds=[0, 1])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_seed_is_the_error_raised_and_nothing_is_written(
    tmp_path, monkeypatch, workers
):
    def train(table, cfg):
        if cfg.seed == 0:
            time.sleep(0.3)  # in worker processes, seed 1 fails first
            raise DataError("seed 0 failed")
        raise SchemaError("seed 1 failed")

    monkeypatch.setattr(studies, "train_debiaser", train)
    _force_workers(monkeypatch, workers)
    with pytest.raises(DataError, match="seed 0 failed"):
        run_study(_quick_heart(), out_dir=tmp_path / "out", seeds=[0, 1])
    assert not (tmp_path / "out").exists()


def test_errors_a_worker_raises_survive_pickling():
    trace = TrainingTrace([1.0, 0.5], [0.7, 0.6], [0.3, float("inf")])
    for exc in (
        TrainingDivergedError("non-finite loss at epoch 1", 1, trace),
        SingularSystemError("singular Gram matrix"),
        DataError("bad cell"),
        SchemaError("bad spec"),
    ):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert back.args == exc.args and str(back) == str(exc)
    diverged = pickle.loads(pickle.dumps(TrainingDivergedError("boom", 4, trace)))
    assert (diverged.epoch, diverged.trace) == (4, trace)


def _os_threads():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_this_process_has_one_thread_when_it_forks_a_worker(monkeypatch):
    # Python 3.12+ warns on a fork from a process with more than one OS thread.
    # OpenBLAS joins its threads before a fork, and forking starts no thread.
    a = np.ones((512, 512))
    a @ a  # start BLAS threads, where the BLAS has them
    fork, counts = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            counts.append(_os_threads())
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    _force_workers(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_study(_quick_heart(), seeds=[0, 1])
    assert counts == [1]  # the caller runs seed 0, one child seed 1


def _openblas(name):
    """OpenBLAS's function `openblas_<name>` as loaded here; None where numpy's BLAS is not OpenBLAS."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.rpartition("/")[2]}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _openblas_threads():
    """The thread count OpenBLAS computes with here; None where numpy's BLAS is not OpenBLAS."""
    getter = _openblas("get_num_threads")
    return None if getter is None else getter()


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="finds the BLAS in /proc")
def test_each_worker_computes_with_one_blas_thread(monkeypatch):
    if _openblas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")

    def train(table, cfg):
        raise DataError(f"{_openblas_threads()} BLAS threads")

    monkeypatch.setattr(studies, "train_debiaser", train)
    _force_workers(monkeypatch, 2)
    with pytest.raises(DataError, match="^1 BLAS threads$"):
        run_study(_quick_heart(), seeds=[0, 1])


def _caller_threads(caller, fails):
    """A call that reports this process's OpenBLAS thread count, or raises `fails` in
    the caller on its second call."""
    def call(x):
        if os.getpid() == caller and x == 2 and fails is not None:
            raise fails
        return os.getpid(), _openblas_threads()
    return call


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="finds the BLAS in /proc")
@pytest.mark.parametrize("fails", [None, DataError("call 2 failed"), KeyboardInterrupt()],
                         ids=["returns", "raises", "interrupted"])
def test_the_caller_makes_its_share_with_one_blas_thread_then_restores_its_count(monkeypatch, fails):
    before = _openblas_threads()
    if before is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    set_threads, caller = _openblas("set_num_threads"), os.getpid()
    _force_workers(monkeypatch, 2)
    set_threads(3)  # a count that the one-thread hold must change and then put back
    try:
        if fails is None:
            seen = parallel.map(_caller_threads(caller, fails), [(x,) for x in range(3)])
            # calls 0 and 2 are the caller's share, call 1 the child's
            assert seen == [(caller, 1), (seen[1][0], 1), (caller, 1)] and seen[1][0] != caller
        else:
            with pytest.raises(type(fails)):
                parallel.map(_caller_threads(caller, fails), [(x,) for x in range(3)])
        assert _openblas_threads() == 3
    finally:
        set_threads(before)
