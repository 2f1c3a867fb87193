"""Outside-in tracing of fairprep's public functions.

`installed(tracer)` replaces each traced function at every name a fairprep
module bound to it (so `debias.mlp_forward`, imported from mlcore, is traced
as well as `mlcore.mlp_forward`) and puts the originals back on exit. The
program itself is not changed. A span is recorded per call: name, start,
end and the index of the enclosing span, in flat arrays so that hundreds of
thousands of MLP calls stay cheap to hold. Counts derived from the call's
arguments (matmul FLOPs from layer shapes, cells read and written, row-epochs,
audited rows) are kept beside the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _mlp_flop(net, n_rows) -> int:
    return 2 * n_rows * sum(a * b for a, b in zip(net.dims, net.dims[1:]))


def _count_forward(counts, args, kwargs, result):
    counts["mlcore.matmul_flop"] += _mlp_flop(_arg(args, kwargs, 0, "net"), len(_arg(args, kwargs, 1, "X")))


def _count_backward(counts, args, kwargs, result):
    # one matmul for the weight gradient and one for the input gradient per layer
    n_rows = len(_arg(args, kwargs, 2, "output_grad"))
    counts["mlcore.matmul_flop"] += 2 * _mlp_flop(_arg(args, kwargs, 0, "net"), n_rows)


def _count_train(counts, args, kwargs, result):
    table, cfg = _arg(args, kwargs, 0, "table"), _arg(args, kwargs, 1, "cfg")
    counts["debias.row_epochs"] += table.n_rows * cfg.epochs


def _count_load(counts, args, kwargs, result):
    counts["tabular.cells_read"] += result.n_rows * len(result.schema)


def _count_write(counts, args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    counts["tabular.cells_written"] += table.n_rows * len(table.schema)


def _count_audit(counts, args, kwargs, result):
    counts["audit.rows"] += len(_arg(args, kwargs, 0, "estimates"))


# module -> traced public functions, with the counter each call feeds
TRACED = {
    "mlcore": {
        "mlp_forward": _count_forward,
        "mlp_backward": _count_backward,
        "adam_step": None,
        "fit_logistic": None,
        "fit_linear": None,
        "auc": None,
    },
    "debias": {
        "train_debiaser": _count_train,
        "transform": None,
        "leakage_probe": None,
        "load_debias_model": None,
        "save_debias_model": None,
    },
    "tabular": {
        "load_csv": _count_load,
        "write_csv": _count_write,
        "encode": None,
        "apply_encoding": None,
        "decode": None,
        "split_indices": None,
    },
    "audit": {
        "audit": _count_audit,
        "group_stats": None,
        "histogram": None,
        "render_bias_table": None,
        "bias_table_csv": None,
        "histograms_csv": None,
        "report_jsonable": None,
    },
    "studies": {
        "run_study": None,
        "load_study_table": None,
        "prepare_table": None,
        "write_study_outputs": None,
    },
    "synth": {"synth_check": None, "make_synthetic": None},
    "cli": {"main": None},
}

LAYERS = tuple(TRACED)


class Tracer:
    """Spans and counts of the traced calls made since the last `reset`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children. No traced function calls itself, directly or through
        another traced function of the same name, so inclusive sums do not
        double count.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=dur - children, minlength=k)
        out = {
            name: {"calls": int(calls[j]), "incl_s": float(incl[j]), "self_s": float(self_s[j])}
            for j, name in enumerate(self.names)
        }
        out["<top-level>"] = {"calls": int((~nested).sum()), "incl_s": float(dur[~nested].sum()),
                              "self_s": 0.0}
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


@contextmanager
def installed(tracer: Tracer):
    """Trace every function in TRACED under every name fairprep bound to it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "fairprep" or n.startswith("fairprep.")]
    patched = []
    try:
        for layer, functions in TRACED.items():
            home = sys.modules[f"fairprep.{layer}"]
            for fn_name, count in functions.items():
                original = getattr(home, fn_name)
                wrapper = tracer.wrap(f"{layer}.{fn_name}", original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def _incl(summary, *names) -> float:
    return sum(summary[n]["incl_s"] for n in names if n in summary)


def _self(summary, *names) -> float:
    return sum(summary[n]["self_s"] for n in names if n in summary)


def _calls(summary, name) -> int:
    return summary[name]["calls"] if name in summary else 0


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(summary: dict, counts: Counter, pass_s: float) -> dict:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    fwd_n = _calls(summary, "mlcore.mlp_forward")
    bwd_n = _calls(summary, "mlcore.mlp_backward")
    fwd_s = _incl(summary, "mlcore.mlp_forward")
    bwd_s = _incl(summary, "mlcore.mlp_backward")
    train_s = _incl(summary, "debias.train_debiaser")
    load_s = _incl(summary, "tabular.load_csv")
    write_s = _incl(summary, "tabular.write_csv")
    audit_s = _incl(summary, "audit.audit")
    cells = counts["tabular.cells_read"] + counts["tabular.cells_written"]
    m = {
        "mlcore.mlp_forward_calls": (fwd_n, "count"),
        "mlcore.mlp_backward_calls": (bwd_n, "count"),
        "mlcore.adam_step_calls": (_calls(summary, "mlcore.adam_step"), "count"),
        "mlcore.mlp_forward_s": (fwd_s, "s"),
        "mlcore.mlp_backward_s": (bwd_s, "s"),
        "mlcore.adam_step_s": (_incl(summary, "mlcore.adam_step"), "s"),
        "mlcore.us_per_mlp_call": (1e6 * _rate(fwd_s + bwd_s, fwd_n + bwd_n), "us"),
        "mlcore.matmul_gflop": (counts["mlcore.matmul_flop"] / 1e9, "GFLOP"),
        "mlcore.fit_logistic_s": (_incl(summary, "mlcore.fit_logistic"), "s"),
        "mlcore.fit_linear_s": (_incl(summary, "mlcore.fit_linear"), "s"),
        "mlcore.auc_s": (_incl(summary, "mlcore.auc"), "s"),
        "debias.train_s": (train_s, "s"),
        "debias.train_self_s": (_self(summary, "debias.train_debiaser"), "s"),
        "debias.train_pct": (100.0 * _rate(train_s, pass_s), "%"),
        "debias.row_epochs": (counts["debias.row_epochs"], "count"),
        "debias.row_epochs_per_s": (_rate(counts["debias.row_epochs"], train_s), "1/s"),
        "debias.leakage_probe_s": (_incl(summary, "debias.leakage_probe"), "s"),
        "debias.transform_s": (_incl(summary, "debias.transform"), "s"),
        "tabular.load_csv_s": (load_s, "s"),
        "tabular.write_csv_s": (write_s, "s"),
        "tabular.encode_s": (_incl(summary, "tabular.encode", "tabular.apply_encoding"), "s"),
        "tabular.decode_s": (_incl(summary, "tabular.decode"), "s"),
        "tabular.split_s": (_incl(summary, "tabular.split_indices"), "s"),
        "tabular.cells_read": (counts["tabular.cells_read"], "count"),
        "tabular.cells_written": (counts["tabular.cells_written"], "count"),
        "tabular.cells_per_s": (_rate(cells, load_s + write_s), "1/s"),
        "audit.audit_s": (audit_s, "s"),
        "audit.group_stats_s": (_incl(summary, "audit.group_stats"), "s"),
        "audit.histogram_s": (_incl(summary, "audit.histogram"), "s"),
        "audit.export_s": (_incl(summary, "audit.render_bias_table", "audit.bias_table_csv",
                                 "audit.histograms_csv", "audit.report_jsonable"), "s"),
        "audit.rows": (counts["audit.rows"], "count"),
        "audit.rows_per_s": (_rate(counts["audit.rows"], audit_s), "1/s"),
        "cli.self_s": (_self(summary, "cli.main"), "s"),
        "studies.load_s": (_incl(summary, "studies.load_study_table"), "s"),
        "studies.prepare_s": (_incl(summary, "studies.prepare_table"), "s"),
        "studies.write_s": (_incl(summary, "studies.write_study_outputs"), "s"),
        "studies.self_s": (_self(summary, "studies.run_study"), "s"),
        "synth.make_s": (_incl(summary, "synth.make_synthetic"), "s"),
    }
    for layer in LAYERS:
        names = [n for n in summary if n.startswith(layer + ".")]
        m[f"{layer}.self_pct"] = (100.0 * _rate(_self(summary, *names), pass_s), "%")
    top = summary["<top-level>"]["incl_s"]
    m["bench.self_pct"] = (100.0 * _rate(pass_s - top, pass_s), "%")
    m["trace.spans"] = (sum(v["calls"] for k, v in summary.items() if k != "<top-level>"), "count")
    return m


# counts that depend only on the inputs, so every traced pass must repeat them exactly
EXACT_COUNTS = (
    "mlcore.mlp_forward_calls",
    "mlcore.mlp_backward_calls",
    "mlcore.adam_step_calls",
    "mlcore.matmul_gflop",
    "debias.row_epochs",
    "tabular.cells_read",
    "tabular.cells_written",
    "audit.rows",
    "trace.spans",
)
