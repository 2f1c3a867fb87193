import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fairprep.cli as cli
from fairprep.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
STUDIES = ROOT / "studies"


def _run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A small table with an obvious proxy column, written as CSV + schema."""
    import numpy as np

    from fairprep.mlcore import derive_rng
    from fairprep.tabular import ColumnSpec, DataTable, save_schema, write_csv

    tmp = tmp_path_factory.mktemp("cli-data")
    rng = derive_rng(0, "cli-small")
    n = 150
    a = (rng.random(n) < 0.5).astype(int)
    table = DataTable(
        [
            ColumnSpec("proxy", "numeric", "feature"),
            ColumnSpec("other", "numeric", "feature"),
            ColumnSpec("grp", "binary", "protected"),
            ColumnSpec("label", "binary", "target"),
        ],
        {
            "proxy": [float(v) for v in a + 0.1 * rng.standard_normal(n)],
            "other": [float(v) for v in rng.standard_normal(n)],
            "grp": [int(v) for v in a],
            "label": [int(v) for v in (rng.random(n) < 0.5)],
        },
    )
    csv_path = tmp / "small.csv"
    schema_path = tmp / "small.schema.json"
    write_csv(table, csv_path)
    save_schema(table.schema, schema_path)
    return csv_path, schema_path


def test_debias_command_outputs_and_determinism(tmp_path, small_csv):
    csv_path, schema_path = small_csv
    args = lambda tag: [
        "debias",
        "--input", csv_path,
        "--schema", schema_path,
        "--protected", "grp",
        "--output", tmp_path / f"{tag}.csv",
        "--model-out", tmp_path / f"{tag}_model.json",
        "--report", tmp_path / f"{tag}_report.json",
        "--trace-csv", tmp_path / f"{tag}_trace.csv",
        "--lambda", 1.0,
        "--epochs", 60,
        "--seed", 3,
    ]
    assert _run(args("a")) == 0
    assert _run(args("b")) == 0
    # byte-identical outputs on rerun with the same seed
    for suffix in (".csv", "_model.json", "_report.json", "_trace.csv"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
    with open(csv_path) as fh:
        header = fh.readline()
    with open(tmp_path / "a.csv") as fh:
        out_header = fh.readline()
        out_rows = sum(1 for _ in fh)
    assert out_header == header
    assert out_rows == 150
    report = json.loads((tmp_path / "a_report.json").read_text())
    assert report["leakage_probe_auc"]["grp"]["pre"] > 0.9
    assert len(report["trace"]["combined_loss"]) == 60


def test_debias_lambda_zero_stays_close(tmp_path, small_csv):
    csv_path, schema_path = small_csv
    out = tmp_path / "auto.csv"
    assert _run([
        "debias", "--input", csv_path, "--schema", schema_path, "--protected", "grp",
        "--output", out, "--lambda", 0.0, "--epochs", 250, "--latent", 3, "--seed", 1,
    ]) == 0
    with open(csv_path) as fh:
        orig = list(csv.DictReader(fh))
    with open(out) as fh:
        rewritten = list(csv.DictReader(fh))
    errs = sorted(
        abs(float(a["proxy"]) - float(b["proxy"])) for a, b in zip(orig, rewritten)
    )
    assert errs[len(errs) // 2] <= 0.1  # median abs error, raw units are ~standardized here


def _only_a_data_error_naming(capsys, path) -> None:
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(path) in err and ".tmp" not in err


@pytest.mark.parametrize("flag", ["--output", "--model-out", "--report", "--trace-csv"])
def test_debias_output_that_is_a_directory_exits_two_with_one_line(tmp_path, capsys, small_csv, flag):
    csv_path, schema_path = small_csv
    outputs = {f: tmp_path / f"out{f}" for f in ("--output", "--model-out", "--report", "--trace-csv")}
    outputs[flag].mkdir()
    argv = ["debias", "--input", csv_path, "--schema", schema_path, "--protected", "grp", "--epochs", 2]
    assert _run(argv + [a for f, path in outputs.items() for a in (f, path)]) == 2
    _only_a_data_error_naming(capsys, outputs[flag])
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert list(outputs[flag].iterdir()) == []


def test_audit_report_that_is_a_directory_exits_two_with_one_line(tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text("estimate,g\n0.2,a\n0.4,a\n0.5,b\n0.9,b\n")
    (tmp_path / "report.json").mkdir()
    assert _run(["audit", "--estimates", est, "--groups", "g", "--report", tmp_path / "report.json"]) == 2
    _only_a_data_error_naming(capsys, tmp_path / "report.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv", "report.json"]


def test_audit_command_reference_fixture(tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text(
        "estimate,school_type\n0.67,majority black\n0.83,majority black\n"
        "0.38,majority white\n0.50,majority white\n"
    )
    report = tmp_path / "report.json"
    assert _run(["audit", "--estimates", est, "--groups", "school_type",
                 "--report", report]) == 0
    out = capsys.readouterr().out
    assert "mu diff / sigma average" in out
    payload = json.loads(report.read_text())
    score = payload["bias_table"]["strata"][0]["bias_score"]
    assert abs(score - 4.43) <= 0.01


def test_audit_reads_an_estimates_file_with_a_utf8_byte_order_mark(tmp_path, capsys):
    text = "g,estimate\n\"a\",0.2\na,0.4\nb,0.5\nb,0.9\n"
    for name, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "est.csv").write_text(text, encoding=encoding)
        assert _run(["audit", "--estimates", tmp_path / name / "est.csv", "--groups", "g",
                     "--report", tmp_path / name / "report.json"]) == 0
    assert (tmp_path / "bom" / "est.csv").read_bytes() == b"\xef\xbb\xbf" + text.encode()
    plain, bom = ((tmp_path / name / "report.json").read_bytes() for name in ("plain", "bom"))
    assert bom == plain
    assert capsys.readouterr().err == ""


def test_audit_command_identical_groups_scores_zero(tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text("estimate,g\n0.2,a\n0.4,a\n0.2,b\n0.4,b\n")
    assert _run(["audit", "--estimates", est, "--groups", "g"]) == 0
    assert "0.0000" in capsys.readouterr().out


def test_audit_exit_codes(tmp_path, capsys):
    assert _run(["audit", "--estimates", tmp_path / "missing.csv", "--groups", "g"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("estimate,g\nnot-a-number,a\n")
    assert _run(["audit", "--estimates", bad, "--groups", "g"]) == 2
    wrongcol = tmp_path / "wrong.csv"
    wrongcol.write_text("value,g\n0.5,a\n")
    assert _run(["audit", "--estimates", wrongcol, "--groups", "g"]) == 2
    for token in ("nan", "inf"):
        nonfinite = tmp_path / f"{token}.csv"
        nonfinite.write_text(f"estimate,g\n0.5,a\n{token},b\n0.4,b\n")
        capsys.readouterr()
        assert _run(["audit", "--estimates", nonfinite, "--groups", "g"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "row 1" in err
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("group,estimate\na,0.5\nb\n")
    capsys.readouterr()
    assert _run(["audit", "--estimates", ragged, "--groups", "group"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "row with 1 cells, expected 2" in err


def test_audit_value_just_below_the_range_top_exits_zero(tmp_path):
    est = tmp_path / "est.csv"
    est.write_text(
        "group,stratum,estimate\n"
        "a,s,0.9999999999999999\na,s,0.2\nb,s,0.5\nb,s,0.7\n"
        "a,t,0.1\nb,t,0.9999999999999999\n"
    )
    report = tmp_path / "report.json"
    assert _run(["audit", "--estimates", est, "--groups", "group", "--strata", "stratum",
                 "--bins", 3, "--report", report]) == 0
    hists = json.loads(report.read_text())["histograms"]
    assert [h["counts"] for h in hists] == [[1, 0, 1], [0, 1, 1], [1, 0, 0], [0, 0, 1]]


def test_non_utf8_input_exits_two_naming_the_file(tmp_path, capsys, small_csv):
    est = tmp_path / "est.csv"
    est.write_bytes(b"estimate,g\n0.5,a\n0.6,\xff\n")
    csv_path, schema_path = small_csv
    data = tmp_path / "input.csv"
    data.write_bytes(csv_path.read_bytes().replace(b"\n", b"\n\xff", 1))
    schema = tmp_path / "schema.json"
    schema.write_bytes(schema_path.read_bytes().replace(b'"proxy"', b'"pro\xffxy"'))
    config = tmp_path / "heart.json"
    config.write_bytes((STUDIES / "heart.json").read_bytes() + b"\xff")
    for argv, path in (
        (["audit", "--estimates", est, "--groups", "g"], est),
        (["debias", "--input", data, "--schema", schema_path, "--protected", "grp",
          "--output", tmp_path / "out.csv", "--epochs", 1], data),
        (["debias", "--input", csv_path, "--schema", schema, "--protected", "grp",
          "--output", tmp_path / "out.csv", "--epochs", 1], schema),
        (["run-study", "--config", config, "--out", tmp_path / "study"], config),
    ):
        capsys.readouterr()
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err and "UTF-8" in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "study").exists()


def test_schema_with_categories_that_are_not_strings_exits_two_naming_the_column(tmp_path, capsys):
    data = tmp_path / "input.csv"
    data.write_text("x,grp\n1,a\n2,b\n1,a\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": "x", "kind": "categorical", "categories": [1, 2]},
                                  {"name": "grp", "kind": "categorical", "categories": ["a", "b"]}]))
    argv = ["debias", "--input", data, "--schema", schema, "--protected", "grp",
            "--output", tmp_path / "out.csv", "--epochs", 1]
    assert _run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "data error: column 'x': categories must be strings to be read from CSV\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("entry, named", [
    (5, "schema entry 1 must be a JSON object\n"),
    ({"name": "a"}, "schema entry 1: missing key(s) ['kind']"),
    ({"name": "a", "kind": "categorical", "categories": 5},
     "categories must be a list of strings or numbers"),
    ({"name": "a", "kind": "numeric", "extra": 1}, "unknown key(s) ['extra']"),
], ids=["number", "no-kind", "categories-number", "unknown-key"])
def test_schema_entry_that_is_no_column_spec_exits_two_naming_it(tmp_path, capsys, entry, named):
    data = tmp_path / "input.csv"
    data.write_text("grp,a\na,1\nb,2\n")
    schema = tmp_path / "schema.json"
    grp = {"name": "grp", "kind": "categorical", "categories": ["a", "b"]}
    schema.write_text(json.dumps([grp, entry]))
    argv = ["debias", "--input", data, "--schema", schema, "--protected", "grp",
            "--output", tmp_path / "out.csv", "--epochs", 1]
    assert _run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out.csv").exists()


def test_field_over_the_csv_size_limit_exits_two_naming_the_file(tmp_path, capsys, small_csv):
    big = tmp_path / "big.csv"
    big.write_text("x,y\n" + "a" * 200_000 + ",1\n")
    _, schema_path = small_csv
    for argv in (
        ["audit", "--estimates", big, "--groups", "y"],
        ["debias", "--input", big, "--schema", schema_path, "--protected", "grp",
         "--output", tmp_path / "out.csv", "--epochs", 1],
    ):
        capsys.readouterr()
        assert _run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"data error: {big}: field larger than field limit (131072)\n"
    assert not (tmp_path / "out.csv").exists()


def test_audit_group_pair_naming_one_group_twice_exits_one(tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text("estimate,g\n0.2,a\n0.4,a\n0.2,b\n0.4,b\n")
    for pair in ("a,a", "a, a"):
        capsys.readouterr()
        assert _run(["audit", "--estimates", est, "--groups", "g", "--group-pair", pair]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: group pair names 'a' twice: the two groups compared must differ\n"
        )


def test_debias_protected_naming_one_column_twice_exits_one(tmp_path, capsys, small_csv):
    csv_path, schema_path = small_csv
    for names in ("grp,grp", "grp, grp", "proxy,grp,proxy"):
        capsys.readouterr()
        assert _run(["debias", "--input", csv_path, "--schema", schema_path, "--protected", names,
                     "--output", tmp_path / "out.csv", "--report", tmp_path / "report.json",
                     "--epochs", 1]) == 1
        out, err = capsys.readouterr()
        named = names.split(",")[0]
        assert out == "" and err == f"error: --protected names {named!r} twice\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("options, named", [
    (["--bins", "0"], "bins must be >= 1"),
    (["--bins=-3"], "bins must be >= 1"),
    (["--range", "1,0"], "reversed"),
    (["--range", "nan,1"], "reversed"),
    (["--range", "0,inf"], "infinite or too narrow"),
    (["--range=-1e308,1e308"], "infinite or too narrow"),
    (["--range", "0,5e-324"], "infinite or too narrow"),
    (["--bins", "0", "--estimates", "missing.csv"], "bins must be >= 1"),
], ids=["bins-zero", "bins-negative", "range-reversed", "range-nan", "range-inf", "range-inf-width",
        "range-zero-width", "before-reading"])
def test_audit_bad_bins_or_range_is_a_one_line_usage_error(
    tmp_path, capsys, options, named
):
    est = tmp_path / "est.csv"
    est.write_text("estimate,g\n0.2,a\n0.4,a\n0.2,b\n0.4,b\n")
    report = tmp_path / "report.json"
    # the last --estimates given wins: a missing file is not read before the options are checked
    assert _run(["audit", "--estimates", est, "--groups", "g", "--report", report, *options]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not report.exists()


def test_usage_errors_exit_one(tmp_path, capsys, small_csv):
    assert _run(["audit", "--estimates"]) == 1
    assert _run(["nonsense-command"]) == 1
    est = tmp_path / "est.csv"
    est.write_text("estimate,g\n0.5,a\n0.6,b\n")
    assert _run(["audit", "--estimates", est, "--groups", "g", "--group-pair", "onlyone"]) == 1
    csv_path, schema_path = small_csv
    for flag, value in (("--epochs", 0), ("--adversary-steps", 0), ("--latent", 0),
                        ("--lambda", -1), ("--lambda", "nan"), ("--lambda", "inf")):
        capsys.readouterr()
        assert _run(["debias", "--input", csv_path, "--schema", schema_path,
                     "--protected", "grp", "--output", tmp_path / "out.csv",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()
    for seeds in (0, -2):
        capsys.readouterr()
        assert _run(["run-study", "--config", STUDIES / "heart.json", "--seeds", seeds,
                     "--out", tmp_path / "study"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds") and err.count("\n") == 1
    assert not (tmp_path / "study").exists()


def test_run_study_command_and_rerun_idempotence(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    base = ["run-study", "--config", STUDIES / "passnyc.json", "--seeds", 1]
    assert _run(base + ["--out", out1]) == 0
    assert _run(base + ["--out", out2]) == 0
    a = (out1 / "passnyc_result.json").read_bytes()
    b = (out2 / "passnyc_result.json").read_bytes()
    assert a == b
    payload = json.loads(a)
    assert payload["source"]["warning"]
    assert len(payload["runs"]) == 1


def test_run_study_missing_config_exits_two(tmp_path):
    assert _run(["run-study", "--config", tmp_path / "none.json", "--out", tmp_path]) == 2


def test_run_study_histograms_show_group_shift(tmp_path):
    out = tmp_path / "heart"
    assert _run(["run-study", "--config", STUDIES / "heart.json", "--seeds", 1,
                 "--out", out]) == 0

    def weighted_means(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        sums, counts = {}, {}
        for r in rows:
            mid = (float(r["bin_lo"]) + float(r["bin_hi"])) / 2
            n = int(r["count"])
            key = r["group"]
            sums[key] = sums.get(key, 0.0) + mid * n
            counts[key] = counts.get(key, 0) + n
        return {g: sums[g] / counts[g] for g in sums}

    pre = weighted_means(out / "heart_seed0_pre_hist.csv")
    post = weighted_means(out / "heart_seed0_post_hist.csv")
    assert pre["male"] > pre["female"]  # the documented pre-debias shift
    assert abs(post["male"] - post["female"]) < (pre["male"] - pre["female"])


def test_synth_check_command(tmp_path, capsys):
    report = tmp_path / "synth.json"
    assert _run(["synth-check", "--n", 800, "--beta", 0.3, "--rho", 0.8,
                 "--seed", 1, "--report", report]) == 0
    out = capsys.readouterr().out
    assert "probe AUC" in out
    payload = json.loads(report.read_text())
    assert payload["probe_auc_pre"] > payload["probe_auc_post"]


def test_synth_check_null_case(capsys):
    assert _run(["synth-check", "--n", 600, "--beta", 0.0, "--rho", 0.0, "--seed", 2]) == 0
    assert "no bias injected" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, named", [
    ("--beta", 2, "bias_strength"),
    ("--rho", "nan", "proxy_strength"),
    ("--prevalence", 1.5, "prevalence"),
    ("--n", 0, "n >= 1"),
])
def test_synth_check_out_of_range_option_is_a_one_line_usage_error(capsys, flag, value, named):
    assert _run(["synth-check", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_synth_check_usage_error_prints_no_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "fairprep", "synth-check", "--beta", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: bias_strength") and proc.stderr.count("\n") == 1


def test_synth_check_size_past_the_address_space_exits_two_with_one_line(capsys):
    # 10**15 rows of 6 floats is 42.6 PiB: numpy refuses it before touching any memory
    assert _run(["synth-check", "--n", 10**15]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: Unable to allocate") and err.count("\n") == 1


def test_run_study_offline_is_no_longer_an_option(tmp_path, capsys):
    assert _run(["run-study", "--config", STUDIES / "heart.json", "--out", tmp_path / "study",
                 "--offline"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: unrecognized arguments: --offline"]
    assert not (tmp_path / "study").exists()


NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])


def _out_of_range_floats(lo, hi, lo_open=False, hi_open=False):
    """NaNs, infinities and floats outside [lo, hi] (an open end also refuses lo or hi)."""
    return st.one_of(
        NON_FINITE,
        st.floats(max_value=lo, exclude_max=not lo_open, allow_nan=False),
        st.floats(min_value=hi, exclude_min=not hi_open, allow_nan=False),
    )


# each entry: one option and values of it that the command must refuse before training
SYNTH_CHECK_BAD = {
    "--n": st.integers(max_value=0),
    "--beta": _out_of_range_floats(0.0, 1.0, hi_open=True),
    "--rho": _out_of_range_floats(0.0, 1.0),
    "--prevalence": _out_of_range_floats(0.0, 1.0, lo_open=True, hi_open=True),
}
DEBIAS_BAD = {
    "--lambda": st.one_of(NON_FINITE, st.floats(max_value=0.0, exclude_max=True)),
    "--epochs": st.integers(max_value=0),
    "--adversary-steps": st.integers(max_value=0),
    "--latent": st.integers(max_value=0),
}
RUN_STUDY_BAD = {"--seeds": st.integers(max_value=0)}
REFUSED = {"synth-check": SYNTH_CHECK_BAD, "debias": DEBIAS_BAD, "run-study": RUN_STUDY_BAD}


@st.composite
def _refused_command(draw):
    command = draw(st.sampled_from(sorted(REFUSED)))
    table = REFUSED[command]
    flags = draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=len(table),
                          unique=True))
    options = []
    for flag in flags:
        options.append(f"{flag}={draw(table[flag])}")  # "--n=-3": argparse reads -3 as a value
    return command, options


@pytest.fixture
def no_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an out-of-range option reached training")

    monkeypatch.setattr(cli, "train_debiaser", refuse)
    monkeypatch.setattr(cli, "synth_check", refuse)
    monkeypatch.setattr(cli, "run_study", refuse)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_refused_command())
def test_property_out_of_range_numeric_options_exit_one_or_two_before_training(
    drawn, small_csv, no_training, tmp_path, capsys
):
    command, options = drawn
    csv_path, schema_path = small_csv
    argv = [command, *options]
    if command == "debias":
        argv += ["--input", csv_path, "--schema", schema_path, "--protected", "grp",
                 "--output", tmp_path / "out.csv"]
    elif command == "run-study":
        argv += ["--config", STUDIES / "heart.json", "--out", tmp_path / "study"]
    capsys.readouterr()
    try:
        code = _run(argv)
    except Exception as exc:  # noqa: BLE001 - from the shell this is a traceback
        pytest.fail(f"{options} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (1, 2), (options, code)
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "study").exists()


@pytest.fixture(scope="module")
def audit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-audit") / "est.csv"
    path.write_text("estimate,g,s\n0.1,a,x\n0.7,a,x\n0.4,b,x\n0.9,b,x\n"
                    "-0.5,a,y\n0.3,b,y\n1.0,b,y\n2.5,a,y\n")
    return path


_RANGE_ENDS = st.floats() | st.integers(-3, 3)
AUDIT_OPTIONS = {
    "--bins": st.integers(max_value=9_999),  # numpy allocates one counter per bin
    "--range": st.one_of(
        st.tuples(_RANGE_ENDS, _RANGE_ENDS).map(lambda ends: f"{ends[0]!r},{ends[1]!r}"),
        st.text(st.sampled_from("0123456789.,-+e infa"), max_size=12),
    ),
}


@st.composite
def _audit_options(draw):
    flags = draw(st.lists(st.sampled_from(sorted(AUDIT_OPTIONS)), min_size=1, max_size=2,
                          unique=True))
    return [f"{flag}={draw(AUDIT_OPTIONS[flag])}" for flag in flags]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(options=_audit_options())
@example(options=["--range=--"])
@example(options=["--bins=--"])
def test_property_audit_bins_and_range_exit_zero_one_or_two_with_one_line(
    options, audit_csv, capsys
):
    capsys.readouterr()
    try:
        code = _run(["audit", "--estimates", audit_csv, "--groups", "g", "--strata", "s",
                     *options])
    except Exception as exc:  # noqa: BLE001 - from the shell this is a traceback
        pytest.fail(f"{options} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (options, code)
    if code == 0:
        assert err == "" and "mu diff / sigma average" in out
    else:
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err


def test_debias_divergence_exits_three_with_partial_report(tmp_path, small_csv, monkeypatch):
    import fairprep.cli as cli
    from fairprep.debias import TrainingTrace
    from fairprep.mlcore import TrainingDivergedError

    def explode(table, cfg):
        trace = TrainingTrace([1.0, float("inf")], [0.7, 0.7], [0.3, float("inf")])
        raise TrainingDivergedError("boom at epoch 1", 1, trace)

    monkeypatch.setattr(cli, "train_debiaser", explode)
    csv_path, schema_path = small_csv
    report = tmp_path / "report.json"
    code = _run([
        "debias", "--input", csv_path, "--schema", schema_path, "--protected", "grp",
        "--output", tmp_path / "out.csv", "--report", report, "--epochs", 5,
    ])
    assert code == 3
    payload = json.loads(report.read_text())
    assert payload["error"].startswith("boom")
    assert payload["trace"]["combined_loss"][-1] == "inf"


def test_debias_failed_probe_exits_two_and_writes_no_output(tmp_path, capsys):
    """A protected category with one row fails the leakage probe's stratified
    split; the probes run before any file is written, so none is left behind."""
    rows = ["x1,x2,grp,y"]
    for i in range(120):
        grp = "r" if i == 0 else "pq"[i // 2 % 2]
        rows.append(f"{(i * 37 % 101) / 10:.3f},{(i * 53 % 97) / 25:.3f},{grp},{i % 2}")
    (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "in.schema.json").write_text(json.dumps([
        {"name": "x1", "kind": "numeric"},
        {"name": "x2", "kind": "numeric"},
        {"name": "grp", "kind": "categorical", "categories": ["p", "q", "r"]},
        {"name": "y", "kind": "binary", "role": "target"},
    ]))
    outputs = {f: tmp_path / f"out{f}" for f in ("--output", "--model-out", "--report", "--trace-csv")}
    argv = ["debias", "--input", tmp_path / "in.csv", "--schema", tmp_path / "in.schema.json",
            "--protected", "grp", "--epochs", 5]
    assert _run(argv + [a for f, path in outputs.items() for a in (f, path)]) == 2
    assert capsys.readouterr().err == "data error: column 'grp': class 'r' has fewer than 2 rows\n"
    assert not [path for path in outputs.values() if path.exists()]


@pytest.mark.parametrize("empty_row", [0, 7])
def test_property_a_missing_categorical_cell_succeeds_on_every_seed(tmp_path, empty_row):
    """Whether a row with an empty categorical cell falls in a train split
    depends on the seed; the encoding must not, so every seed succeeds."""
    from fairprep.debias import leakage_probe
    from fairprep.studies import StudyConfig, run_study
    from fairprep.tabular import load_csv, load_schema

    rows = ["x1,c,g,y"]
    for i in range(120):
        c = "" if i == empty_row else "ab"[i * 7 % 3 % 2]
        rows.append(f"{(i * 37 % 101) / 10:.3f},{c},{i // 3 % 2},{i % 2}")
    (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "in.schema.json").write_text(json.dumps([
        {"name": "x1", "kind": "numeric"},
        {"name": "c", "kind": "categorical", "categories": ["a", "b"]},
        {"name": "g", "kind": "binary", "role": "protected"},
        {"name": "y", "kind": "binary", "role": "target"},
    ]))
    seeds = [0, 1, 2, 3]
    for seed in seeds:
        assert _run(["debias", "--input", tmp_path / "in.csv", "--schema", tmp_path / "in.schema.json",
                     "--protected", "g", "--epochs", 5, "--seed", seed,
                     "--output", tmp_path / "out.csv", "--report", tmp_path / "report.json"]) == 0
    schema = load_schema(tmp_path / "in.schema.json")
    table = load_csv(tmp_path / "in.csv", schema)
    assert table.missing("c").sum() == 1
    for seed in seeds:
        assert 0.0 <= leakage_probe(table, "g", seed) <= 1.0
    cfg = StudyConfig(name="missing", source={"bundled": "in.csv"}, schema=schema, protected="g",
                      target="y", model={"kind": "logistic"}, debias={"epochs": 5}, seeds=seeds,
                      base_dir=tmp_path)
    assert [run.seed for run in run_study(cfg).runs] == seeds


def test_debias_passes_drop_columns_through(tmp_path):
    out = tmp_path / "compas_debiased.csv"
    report = tmp_path / "report.json"
    assert _run([
        "debias", "--input", DATA / "compas.csv", "--schema", DATA / "compas.schema.json",
        "--protected", "race", "--output", out, "--report", report, "--epochs", 5, "--seed", 0,
    ]) == 0
    probe = json.loads(report.read_text())["leakage_probe_auc"]["race"]
    assert 0.0 <= probe["pre"] <= 1.0 and 0.0 <= probe["post"] <= 1.0
    with open(DATA / "compas.csv") as fh:
        orig = list(csv.reader(fh))
    with open(out) as fh:
        rewritten = list(csv.reader(fh))
    assert rewritten[0] == orig[0]
    idc = orig[0].index("id")
    assert [r[idc] for r in rewritten[1:]] == [r[idc] for r in orig[1:]]


def test_debias_output_is_the_saved_model_applied_to_the_whole_input(tmp_path):
    """The rewritten CSV, drop-role id column included, is what the saved model
    makes of the input file read with its schema: nothing is spliced in by hand."""
    from fairprep.debias import load_debias_model, transform
    from fairprep.tabular import load_csv, load_schema, write_csv

    out, model = tmp_path / "out.csv", tmp_path / "model.json"
    assert _run(["debias", "--input", DATA / "compas.csv", "--schema", DATA / "compas.schema.json",
                 "--protected", "race", "--output", out, "--model-out", model, "--epochs", 5]) == 0
    table = load_csv(DATA / "compas.csv", load_schema(DATA / "compas.schema.json"))
    assert "drop" in [s.role for s in table.schema]
    write_csv(transform(load_debias_model(model), table), tmp_path / "reloaded.csv")
    assert out.read_bytes() == (tmp_path / "reloaded.csv").read_bytes()


def _edited_study(tmp_path, study, edit):
    """Write an edited copy of a bundled study config; returns its path."""
    config = json.loads((STUDIES / f"{study}.json").read_text())
    # absolute paths, so the edited copy still finds the schema and the bundled data
    config["schema"] = str((STUDIES / config["schema"]).resolve())
    config["source"]["bundled"] = str((STUDIES / config["source"]["bundled"]).resolve())
    edit(config)
    path = tmp_path / f"{study}.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("study, edit, named", [
    ("heart", lambda c: c.update(extra_key=1), "extra_key"),
    ("heart", lambda c: c["model"].update(learnin_rate=0.1), "learnin_rate"),
    ("heart", lambda c: c["debias"].update(epochz=10), "epochz"),
    ("heart", lambda c: c["debias"].update(seed=3), "seed"),
    ("heart", lambda c: c["debias"].update(epochs=0), "epochs"),
    ("heart", lambda c: c["debias"].update(epochs=1.5), "epochs"),
    ("heart", lambda c: c["audit"].update(bins_=5), "bins_"),
    ("heart", lambda c: c["audit"].update(on="alll"), "alll"),
    ("heart", lambda c: c.update(fit_debias_on="trian"), "trian"),
    ("heart", lambda c: c["model"].update(epochs=2.5), "epochs"),
    ("heart", lambda c: c["model"].update(epochs=0), "epochs"),
    ("heart", lambda c: c["model"].update(learning_rate=0), "learning_rate"),
    ("passnyc", lambda c: c["model"].update(kind="ridge", ridge_lambda=-1), "ridge_lambda"),
    ("passnyc", lambda c: c["model"].update(kind="ridge", ridge_lambda="x"), "ridge_lambda"),
    ("heart", lambda c: c["model"].update(learning_rate=math.nan), "learning_rate"),
    ("heart", lambda c: c["model"].update(learning_rate=math.inf), "learning_rate"),
    ("heart", lambda c: c["model"].update(l2=math.nan), "l2"),
    ("heart", lambda c: c["model"].update(l2=math.inf), "l2"),
    ("passnyc", lambda c: c["model"].update(kind="ridge", ridge_lambda=math.inf), "ridge_lambda"),
    ("passnyc", lambda c: c["model"].update(kind="ridge", ridge_lambda=10**400), "ridge_lambda"),
    ("heart", lambda c: c["debias"].update(adversary_weight=math.nan), "adversary_weight"),
    ("heart", lambda c: c["debias"].update(adversary_weight=math.inf), "adversary_weight"),
    ("heart", lambda c: c["debias"].update(learning_rate=math.nan), "learning_rate"),
    ("heart", lambda c: c["debias"].update(learning_rate=math.inf), "learning_rate"),
    ("heart", lambda c: c["model"].update(learning_rate=10**400), "learning_rate"),
    ("heart", lambda c: c["model"].update(l2=10**400), "l2"),
    ("heart", lambda c: c["debias"].update(adversary_weight=10**400), "adversary_weight"),
    ("heart", lambda c: c["debias"].update(learning_rate=10**400), "learning_rate"),
    ("heart", lambda c: c.update(seeds=[]), "seeds"),
    ("heart", lambda c: c.update(seeds="ab"), "seeds"),
    ("heart", lambda c: c.update(seeds=[1.5]), "seeds"),
    ("heart", lambda c: c.update(seeds=[True]), "seeds"),
    ("heart", lambda c: c.update(seeds=[0, 0]), "seeds"),
    ("heart", lambda c: c.update(seeds=[-1]), "seeds"),
    ("heart", lambda c: c.update(test_fraction="x"), "test_fraction"),
    ("heart", lambda c: c.update(test_fraction=1.5), "test_fraction"),
    ("heart", lambda c: c["audit"].update(groups=["female", "female"]), "groups"),
    ("heart", lambda c: c["audit"].update(groups="ab"), "groups"),
    ("heart", lambda c: c["audit"].update(groups=["female"]), "groups"),
    ("heart", lambda c: c["audit"].update(groups=["female", 1.5]), "groups"),
    ("heart", lambda c: c["audit"].update(groups=["female", True]), "groups"),
    ("heart", lambda c: c["audit"].update(bins=2.5), "bins"),
    ("heart", lambda c: c["audit"].update(bins="x"), "bins"),
    ("heart", lambda c: c["audit"].update(bins=0), "bins"),
    ("heart", lambda c: c["audit"].update(bins=True), "bins"),
    ("heart", lambda c: c["audit"].update(range=[0, "x"]), "range"),
    ("heart", lambda c: c["audit"].update(range=[0, 1, 2]), "range"),
    ("heart", lambda c: c["audit"].update(range=[1, 0]), "range"),
    ("heart", lambda c: c["audit"].update(range=[0, math.inf]), "range"),
    ("heart", lambda c: c["audit"].update(range=[0, 10**400]), "range"),
    ("heart", lambda c: c["audit"].update(range="0,1"), "range"),
    ("heart", lambda c: c["audit"].update(group_labels=["a"]), "group_labels"),
    ("heart", lambda c: c["audit"].update(stratum_labels="x"), "stratum_labels"),
    ("heart", lambda c: c["audit"].update(stratum_labels={"0": ["x"]}), "stratum_labels"),
    ("passnyc", lambda c: c["model"].update(epochs="x"), "epochs"),
    ("passnyc", lambda c: c["model"].update(learning_rate=-5), "learning_rate"),
    ("heart", lambda c: c["model"].update(ridge_lambda=1.0), "ridge_lambda"),
    ("heart", lambda c: c["model"].update(kind="logistc"), "kind"),
    ("heart", lambda c: c.update(test_fraction=True), "test_fraction"),
    ("heart", lambda c: c["audit"].update(range=[-1e308, 1e308]), "range"),
    ("heart", lambda c: c["audit"].update(range=[0, 5e-324]), "range"),
    ("heart", lambda c: c["audit"].update(bins=10**400), "bins"),
    ("heart", lambda c: c["model"].update(learning_rate="x"), "learning_rate"),
    ("heart", lambda c: c["debias"].update(encoder_hidden=0), "encoder_hidden"),
    ("heart", lambda c: c["debias"].update(adversary_hidden=-2), "adversary_hidden"),
    ("heart", lambda c: c["audit"].update(groups=["femal", "male"]), "'femal'"),
    ("passnyc", lambda c: c["audit"].update(groups=["majority black", "majority whit"]),
     "'majority whit'"),
    ("heart", lambda c: c.update(name=["x"]), "name"),
    ("heart", lambda c: c.update(name="../x"), "name"),
    ("heart", lambda c: c.update(name=""), "name"),
    ("heart", lambda c: c["source"].update(bundled=5), "bundled"),
    ("heart", lambda c: c["source"].update(bundle="x.csv"), "bundle"),
    ("heart", lambda c: c.update(source=["x.csv"]), "source"),
    ("heart", lambda c: c.update(schema=5), "schema"),
    ("heart", lambda c: c.pop("schema"), "schema"),
    ("heart", lambda c: c.update(transforms=5), "transforms"),
    ("heart", lambda c: c.update(transforms=[5]), "transforms[0]"),
    ("heart", lambda c: c["transforms"][0].update(op="binarise_threshold"), "binarise_threshold"),
    ("heart", lambda c: c["transforms"][0].update(strct=True), "strct"),
    ("heart", lambda c: c["transforms"][0].pop("column"), "column"),
    ("heart", lambda c: c["transforms"][0].update(threshold="x"), "threshold"),
    ("heart", lambda c: c["transforms"][0].update(strict=1), "strict"),
    ("heart", lambda c: c["transforms"][0].update(column=5), "column"),
    ("heart", lambda c: c.update(transforms=[{"op": "drop_sparse_columns", "k": 1.5}]), "k"),
    ("heart", lambda c: c.update(transforms=[{"op": "filter_rows", "column": "sex", "keep": 5}]),
     "keep"),
    ("heart", lambda c: c.update(transforms=[{"op": "bucket_numeric", "column": "age", "edges": "ab"}]),
     "edges"),
    ("heart", lambda c: c.update(transforms=[{"op": "drop_columns", "names": "age"}]), "names"),
    ("heart", lambda c: c["audit"].update(stratum_labels={"O": "healthy", "1": "heart disease"}),
     "stratum_labels key 'O'"),
    ("heart", lambda c: c["audit"].update(group_labels={"2": "x"}), "group_labels key '2'"),
    ("passnyc", lambda c: c["audit"].update(stratum_labels={"0": "zz"}), "stratum_labels"),
    ("heart", lambda c: c.update(audit={"group_labels": {"female": "x", "male": "x"}}),
     "audit.groups is absent"),
], ids=["top", "model", "debias-key", "debias-seed", "debias-value", "debias-type",
        "audit-key", "audit-on", "fit-debias-on", "model-epochs-type", "model-epochs-value",
        "model-learning-rate", "model-ridge-negative", "model-ridge-type",
        "model-learning-rate-nan", "model-learning-rate-inf", "model-l2-nan", "model-l2-inf",
        "model-ridge-inf", "model-ridge-huge-int", "debias-lambda-nan", "debias-lambda-inf",
        "debias-learning-rate-nan", "debias-learning-rate-inf", "model-learning-rate-huge-int",
        "model-l2-huge-int", "debias-lambda-huge-int", "debias-learning-rate-huge-int",
        "seeds-empty", "seeds-string", "seeds-float", "seeds-bool", "seeds-repeated", "seeds-negative", "test-fraction-string",
        "test-fraction-range", "audit-groups-repeated", "audit-groups-string",
        "audit-groups-one", "audit-groups-float", "audit-groups-bool", "audit-bins-float",
        "audit-bins-string", "audit-bins-zero", "audit-bins-bool", "audit-range-string",
        "audit-range-three", "audit-range-reversed", "audit-range-inf", "audit-range-huge-int",
        "audit-range-text", "audit-group-labels-list", "audit-stratum-labels-string",
        "audit-stratum-labels-value", "ridge-model-epochs", "ridge-model-learning-rate",
        "logistic-model-ridge-lambda", "model-kind", "test-fraction-bool", "audit-range-inf-width",
        "audit-range-zero-width", "audit-bins-huge-int", "model-learning-rate-string",
        "debias-encoder-hidden-zero", "debias-adversary-hidden-negative", "audit-groups-absent",
        "audit-groups-absent-after-labels", "name-list", "name-path", "name-empty",
        "source-bundled-number", "source-key", "source-list", "schema-number", "schema-absent",
        "transforms-number", "step-number", "step-op", "step-key", "step-without-column",
        "step-threshold-string", "step-strict-int", "step-column-number", "step-k-float",
        "step-keep-number", "step-edges-string", "step-names-string", "stratum-label-key",
        "group-label-key", "stratum-labels-on-ridge", "groups-absent-one-group"])
def test_run_study_config_typo_exits_two(tmp_path, capsys, monkeypatch, study, edit, named):
    import fairprep.studies as studies

    def refuse(*args):
        raise AssertionError("a config typo reached training")

    monkeypatch.setattr(studies, "train_debiaser", refuse)
    bad = _edited_study(tmp_path, study, edit)
    assert _run(["run-study", "--config", bad, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


def test_run_study_out_that_is_a_file_exits_two_with_one_line(tmp_path, capsys):
    short = _edited_study(tmp_path, "heart", lambda c: c["debias"].update(epochs=2))
    (tmp_path / "out").write_text("a file")
    assert _run(["run-study", "--config", short, "--seeds", 1, "--out", tmp_path / "out"]) == 2
    _only_a_data_error_naming(capsys, tmp_path / "out")
    assert (tmp_path / "out").read_text() == "a file"


def test_run_study_minibatch_divergence_exits_three(tmp_path, capsys):
    diverging = _edited_study(
        tmp_path, "heart",
        lambda c: c["debias"].update(learning_rate=1e160, batch_size=30, epochs=2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning reaches the user
        code = _run(["run-study", "--config", diverging, "--seeds", 1,
                     "--out", tmp_path / "out"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err


@pytest.mark.parametrize("workers", [1, 2])
def test_synth_check_divergence_exits_three(capsys, monkeypatch, workers):
    import fairprep.parallel as parallel
    import fairprep.synth as synth
    from fairprep.debias import DebiasConfig

    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    diverging = DebiasConfig(learning_rate=1e160, batch_size=30, epochs=2)
    monkeypatch.setattr(cli, "synth_check", lambda spec: synth.synth_check(spec, diverging))
    assert _run(["synth-check", "--n", 600]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err


def test_run_study_worker_that_dies_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    import fairprep.parallel as parallel
    import fairprep.studies as studies

    caller, train = os.getpid(), studies.train_debiaser

    def dies_in_a_child(table, cfg):
        if os.getpid() != caller:
            os._exit(3)
        return train(table, cfg)

    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(studies, "train_debiaser", dies_in_a_child)
    quick = _edited_study(tmp_path, "heart", lambda c: c["debias"].update(epochs=2))
    code = _run(["run-study", "--config", quick, "--seeds", 2, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err == "data error: forked child exited with code 3\n"
    assert not (tmp_path / "out").exists()


def test_run_study_divergence_in_worker_processes_exits_three(tmp_path, capsys, monkeypatch):
    import fairprep.parallel as parallel

    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    diverging = _edited_study(
        tmp_path, "heart",
        lambda c: c["debias"].update(learning_rate=1e160, batch_size=30, epochs=2),
    )
    code = _run(["run-study", "--config", diverging, "--seeds", 2,
                 "--out", tmp_path / "out"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not (tmp_path / "out").exists()
