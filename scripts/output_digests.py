#!/usr/bin/env python3
"""Print a SHA-256 digest of every output file of a fixed set of runs.

The runs use the checkout this script sits in:

- `run_study` on all five bundled studies, seeds [0, 1]: the result JSON and
  every bias/histogram CSV;
- `run_study`, seed 0 and 20 debiaser epochs, on three edited copies of
  bundled configs (`VARIANTS`): heart with its `model` cut to the kind and
  its `audit` block to the groups and stratum labels, so every default is
  resolved where it is kept; heart fitting the debiaser on the train split,
  with a 0.25 test fraction and 7 bins on [-0.5, 1.5] over the test rows;
  and passnyc with its `model` cut to `{"kind": "ridge"}` and no `bins` or
  `range`;
- `synth_check(SyntheticSpec(n=2000, seed=3))`, written as its report JSON;
- `synth_check(SyntheticSpec(n=5000, seed=4))` with its default debiaser cut
  to 20 epochs, which pins a 5000-row report, written as its report JSON;
- `fairprep debias` with `--report`, `--model-out` and `--trace-csv` on a
  generated 300-row CSV that has a 3-category protected column, a drop-role
  `id` column and one missing numeric cell;
- the model that run saved, read back with `load_debias_model`, applied by
  `transform` to the same input, `id` column included, and written with
  `write_csv`;
- `train_debiaser` on that input, `id` column included, with 64-row
  mini-batches and a one-column latent code and adversary hidden layer: the
  model, the trace CSV, and the input rewritten by `transform` and written
  with `write_csv`;
- `fairprep audit --report` on a generated 400-row estimates file;
- `write_csv` of a generated 25 000-row table, above the row count from which
  it is cut in two halves, the second formatted by a forked child on 2 or
  more CPUs, with missing cells (one on the middle row) and labels that need
  quoting; that file read back with `load_csv`
  (its quotes send it to `csv.reader`) and written again;
- `load_csv` of a generated quote-free 25 000-row file, which it parses in
  four chunks of `CSV_CHUNK_ROWS` lines, with a blank line on a chunk
  boundary and an `NA`, an unparseable and a space-padded cell past row
  8192, written back with `write_csv`;
- `scripts/make_bundled_data.py`, run in a copy of the checkout: every file
  it writes under `data/`.

One `sha256  path` line is printed per file, sorted by path. To compare two
checkouts, run each one's copy of this script and `diff` the two outputs:

    python3 scripts/output_digests.py > after.txt

Unpinned, `parallel.map` makes its first share of calls in this process with
OpenBLAS held at one thread and forks a child for each other share; under
`taskset -c 0` it makes every call here, and with `OPENBLAS_NUM_THREADS=1`
every BLAS call computes with one thread. So the same checkout must print
the same digests unpinned, pinned and with one BLAS thread.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairprep.cli import main as cli_main  # noqa: E402
from fairprep.debias import (  # noqa: E402
    DebiasConfig,
    load_debias_model,
    save_debias_model,
    train_debiaser,
    transform,
    write_trace_csv,
)
from fairprep.ioutil import write_json  # noqa: E402
from fairprep.studies import StudyConfig, run_study  # noqa: E402
from fairprep.synth import SyntheticSpec, default_debias_config, synth_check  # noqa: E402
from fairprep.tabular import ColumnSpec, DataTable, load_csv, write_csv  # noqa: E402

STUDY_NAMES = ["compas", "absenteeism", "heart", "passnyc", "communities"]
CLI_SCHEMA = [
    {"name": "id", "kind": "numeric", "role": "drop"},
    {"name": "x1", "kind": "numeric"},
    {"name": "x2", "kind": "numeric"},
    {"name": "color", "kind": "categorical", "categories": ["red", "green", "blue"]},
    {"name": "flag", "kind": "binary"},
    {"name": "grp", "kind": "categorical", "categories": ["p", "q", "r"]},
    {"name": "y", "kind": "binary", "role": "target"},
]


# name -> (bundled study, edit of its config)
VARIANTS = {
    "heart_defaults": ("heart", lambda c: c.update(
        model={"kind": "logistic"},
        audit={k: c["audit"][k] for k in ("groups", "stratum_labels")},
    )),
    "heart_held_out": ("heart", lambda c: c.update(
        fit_debias_on="train",
        test_fraction=0.25,
        audit=dict(c["audit"], on="test", bins=7, range=[-0.5, 1.5]),
    )),
    "passnyc_defaults": ("passnyc", lambda c: c.update(
        model={"kind": "ridge"},
        audit={k: v for k, v in c["audit"].items() if k not in ("on", "bins", "range")},
    )),
}


def _run_variants(out: Path) -> None:
    """Run every VARIANTS config from a scratch directory laid out like the
    checkout, so each result records the same relative paths as the bundled runs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "studies").mkdir()
        os.symlink(ROOT / "data", work / "data")
        for name, (study, edit) in VARIANTS.items():
            config = json.loads((ROOT / "studies" / f"{study}.json").read_text(encoding="utf-8"))
            edit(config)
            config.update(name=name, seeds=[0])
            config["debias"]["epochs"] = 20
            write_json(work / "studies" / f"{name}.json", config)
        os.chdir(work)
        try:
            for name in VARIANTS:
                cfg = StudyConfig.from_json(Path("studies") / f"{name}.json")
                run_study(cfg, out_dir=out / "variants")
        finally:
            os.chdir(ROOT)


def _write_cli_inputs(work: Path) -> None:
    """The debias input (fixed arithmetic, no RNG) and a small estimates file."""
    rows = ["id,x1,x2,color,flag,grp,y"]
    for i in range(300):
        g = i % 3
        x1 = "" if i == 17 else f"{(i * 37 % 101) / 10 + 2.5 * g:.3f}"
        x2 = f"{(i * 53 % 97) / 25 - 1.5:.3f}"
        color = ("red", "green", "blue")[(i // 3 + g) % 3]
        rows.append(f"{i + 1},{x1},{x2},{color},{(i // 7) % 2},{'pqr'[g]},{(i * 11 % 13) % 2}")
    (work / "people.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_json(work / "people.schema.json", CLI_SCHEMA)
    rows = ["estimate,group,stratum"]
    for i in range(400):
        rows.append(f"{((i * 29) % 100 + 0.5) / 101:.6f},{'ab'[i % 2]},s{(i // 5) % 2}")
    (work / "estimates.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _large_table(n: int = 25_000) -> DataTable:
    """A table of fixed arithmetic (no RNG): full-precision floats, missing
    cells, one of them on the middle row, and labels that need quoting."""
    i = np.arange(n)
    schema = [
        ColumnSpec("ratio", "numeric"),
        ColumnSpec("root", "numeric"),
        ColumnSpec("label", "categorical", categories=("plain", "with, comma", 'say "hi"')),
        ColumnSpec("flag", "binary"),
    ]
    return DataTable.from_arrays(schema, {
        "ratio": np.where((i % 101 == 0) | (i == n // 2), np.nan, i / 7 - 1000.0),
        "root": np.sqrt(i) * 1e-3 - 1e5 * (i % 2),
        "label": np.where(i % 13 == 0, -1, i % 3),
        "flag": np.where(i % 17 == 0, -1, i // 5 % 2),
    })


def _chunked_csv(path: Path, n: int = 25_000) -> list:
    """Write a quote-free CSV of fixed arithmetic (no RNG) for `load_csv` to
    parse in chunks; return its schema."""
    rows = ["ratio,root,label,flag"]
    for i in range(n):
        ratio = "NA" if i == 9000 else "" if i % 97 == 0 else f"{i / 7 - 1000.0:.6f}"
        root = "x1" if i == 10_000 else f" {i ** 0.5:.4f} " if i == 11_000 else f"{i ** 0.5 * 1e-3:.5f}"
        label = "NA" if i == 12_000 else ("plain", "other", "third")[i % 3]
        rows.append(f"{ratio},{root},{label},{'' if i % 17 == 0 else i // 5 % 2}")
    rows.insert(8193, "")  # the first line of the second chunk, counting the header apart
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return [
        ColumnSpec("ratio", "numeric"),
        ColumnSpec("root", "numeric"),
        ColumnSpec("label", "categorical", categories=("plain", "other", "third")),
        ColumnSpec("flag", "binary"),
    ]


def run_all(out: Path) -> None:
    for name in STUDY_NAMES:
        # relative, so the dataset path recorded in each result is the same in every checkout
        cfg = StudyConfig.from_json(Path("studies") / f"{name}.json")
        run_study(cfg, out_dir=out / "studies", seeds=[0, 1])
    _run_variants(out)
    write_json(out / "synth_n2000_seed3.json", synth_check(SyntheticSpec(n=2000, seed=3)).to_jsonable())
    spec = SyntheticSpec(n=5000, seed=4)
    write_json(out / "synth_n5000_seed4.json",
               synth_check(spec, replace(default_debias_config(spec), epochs=20)).to_jsonable())

    cli = out / "cli"
    cli.mkdir()
    _write_cli_inputs(cli)
    debias = ["debias", "--input", cli / "people.csv", "--schema", cli / "people.schema.json",
              "--protected", "grp", "--output", cli / "debiased.csv", "--report", cli / "report.json",
              "--model-out", cli / "model.json", "--trace-csv", cli / "trace.csv",
              "--epochs", "40", "--seed", "2"]
    audit = ["audit", "--estimates", cli / "estimates.csv", "--groups", "group",
             "--strata", "stratum", "--group-pair", "a,b", "--report", cli / "audit.json"]
    for argv in (debias, audit):
        with redirect_stdout(io.StringIO()):
            code = cli_main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"fairprep {argv[0]} exited {code}")
    model = load_debias_model(cli / "model.json")
    people = load_csv(cli / "people.csv", [ColumnSpec("id", "numeric", "drop"), *model.schema])
    write_csv(transform(model, people), cli / "reloaded.csv")
    narrow, trace = train_debiaser(people, DebiasConfig(latent_dim=1, batch_size=64, epochs=20, seed=5))
    save_debias_model(narrow, cli / "narrow_model.json")
    write_trace_csv(trace, cli / "narrow_trace.csv")
    write_csv(transform(narrow, people), cli / "narrow_debiased.csv")
    large = _large_table()
    write_csv(large, out / "large_table.csv")
    write_csv(load_csv(out / "large_table.csv", large.schema), out / "large_table_reloaded.csv")
    with tempfile.TemporaryDirectory() as tmp:
        chunked = Path(tmp) / "chunked.csv"
        write_csv(load_csv(chunked, _chunked_csv(chunked)), out / "chunked_reloaded.csv")

    copy = out / "checkout"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "make_bundled_data.py", copy / "scripts")
    subprocess.run([sys.executable, str(copy / "scripts" / "make_bundled_data.py")],
                   check=True, stdout=subprocess.DEVNULL)
    shutil.rmtree(copy / "src")
    shutil.rmtree(copy / "scripts")


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_all(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
