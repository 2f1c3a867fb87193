import warnings
from pathlib import Path

import pytest

from fairprep.studies import StudyConfig, run_study
from fairprep.tabular import ColumnSpec, DataTable

ROOT = Path(__file__).resolve().parent.parent
STUDY_DIR = ROOT / "studies"


@pytest.fixture
def toy_table():
    """Small mixed-kind table with protected and target columns."""
    schema = [
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("c", "categorical", "feature", ("red", "green", "blue")),
        ColumnSpec("flag", "binary", "feature"),
        ColumnSpec("group", "categorical", "protected", ("a", "b")),
        ColumnSpec("y", "binary", "target"),
    ]
    columns = {
        "x": [2.0, 4.0, 6.0, 1.0, 3.0],
        "c": ["red", "blue", "green", "red", "blue"],
        "flag": [0, 1, 1, 0, 1],
        "group": ["a", "b", "a", "b", "a"],
        "y": [1, 0, 1, 0, 1],
    }
    return DataTable(schema, columns)


_STUDY_CACHE = {}


@pytest.fixture(scope="session")
def study_results():
    """Run each bundled study once (full seed list) and share across tests."""

    def get(name):
        if name not in _STUDY_CACHE:
            cfg = StudyConfig.from_json(STUDY_DIR / f"{name}.json")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _STUDY_CACHE[name] = run_study(cfg)
        return _STUDY_CACHE[name]

    return get
