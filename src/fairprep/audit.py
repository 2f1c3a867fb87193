"""Bias auditing of model estimates.

The core quantity is the stratified bias score: within each stratum (usually
the true outcome), take the two protected groups' estimate distributions and
divide the absolute difference of their means by the average of their
standard deviations. A score near zero means the model treats the groups
alike once the true outcome is held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ioutil import atomic_write_text, to_jsonable
from .tabular import DataError, _field


BINS, VALUE_RANGE = 20, (0.0, 1.0)  # the histograms an audit draws unless told otherwise


def check_settings(bins: int = BINS, value_range=VALUE_RANGE, group_pair=None) -> None:
    """Raise DataError unless `bins` equal bins of `value_range` are finite and nonzero,
    and `group_pair`, if given, names two different groups (`audit` itself lets a
    group be paired with itself)."""
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    lo, hi = value_range
    try:
        width = (float(hi) - float(lo)) / bins
    except OverflowError:  # an int past the float range
        width = math.inf
    if not 0.0 < width < math.inf:
        raise DataError(f"range [{lo}, {hi}] is reversed, infinite or too narrow for {bins} bins")
    if group_pair is not None and group_pair[0] == group_pair[1]:
        raise DataError(f"group pair names {group_pair[0]!r} twice: the two groups compared must differ")


@dataclass(frozen=True)
class GroupStats:
    """Estimate distribution for one (group, stratum) cell."""

    group: object
    stratum: object
    n: int
    mu: float
    sigma: float  # population standard deviation


@dataclass
class StratumRow:
    """One stratum of a two-group bias table."""

    stratum: object
    a: GroupStats
    b: GroupStats
    mu_diff: float
    sigma_avg: float
    score: float


@dataclass
class BiasTable:
    """Per-stratum group means/stds and bias scores for exactly two groups."""

    group_a: object
    group_b: object
    rows: list

    def scores(self) -> dict:
        return {str(r.stratum): r.score for r in self.rows}


@dataclass
class Histogram:
    """Equal-width binned counts; out-of-range values are clamped into the edge bins."""

    lo: float
    hi: float
    counts: list
    clamped_low: int = 0
    clamped_high: int = 0


@dataclass
class AuditReport:
    bias_table: BiasTable
    stats: list  # every (group, stratum) GroupStats, including uncompared groups
    histograms: list  # (group, stratum, Histogram)
    performance: dict | None
    metadata: dict = field(default_factory=dict)
    true_table: BiasTable | None = None  # group stats of the true values (regression)


def _cells(estimates, groups, strata) -> list:
    """(group, stratum, values) for every cell, in `group_stats` order, checked as it says.

    Labels are matched by hash and `==`; a cell's values keep their row order.
    """
    estimates = np.asarray(estimates, dtype=float).ravel()
    groups = list(groups)
    strata = list(strata)
    if not (len(estimates) == len(groups) == len(strata)):
        raise DataError(
            f"length mismatch: {len(estimates)} estimates, {len(groups)} groups, {len(strata)} strata"
        )
    if len(estimates) == 0:
        raise DataError("no estimates to audit")
    bad = ~np.isfinite(estimates)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"non-finite estimate {float(estimates[i])} at row {i}")
    group_code = {g: i for i, g in enumerate(dict.fromkeys(groups))}
    stratum_code = {st: i for i, st in enumerate(dict.fromkeys(strata))}
    cell = np.fromiter(map(stratum_code.__getitem__, strata), np.intp, len(strata))
    cell *= len(group_code)
    cell += np.fromiter(map(group_code.__getitem__, groups), np.intp, len(groups))
    # a stable sort keeps each cell's rows ascending, so a cell's slice holds
    # the same values in the same order as a row scan, and sums to the same bits
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell[order], np.arange(len(stratum_code) * len(group_code) + 1))
    out = []
    for k, (st, g) in enumerate((st, g) for st in stratum_code for g in group_code):
        if bounds[k] == bounds[k + 1]:
            raise DataError(f"empty cell: group {g!r} in stratum {st!r}")
        out.append((g, st, estimates[order[bounds[k] : bounds[k + 1]]]))
    return out


def _cell_stats(cells) -> list:
    return [GroupStats(g, st, int(v.size), float(v.mean()), float(v.std())) for g, st, v in cells]


def group_stats(estimates, groups, strata) -> list:
    """Per-(group, stratum) mean and population std of the estimates.

    Groups and strata keep first-appearance order. Every observed group must
    appear in every observed stratum; an empty cell is an error naming it, and
    so is a NaN or infinite estimate (by its 0-based row).
    """
    return _cell_stats(_cells(estimates, groups, strata))


def bias_score(a: GroupStats, b: GroupStats) -> float:
    """|mu_a - mu_b| divided by the average of the two standard deviations.

    When both stds are zero the score is 0 for identical means and +inf
    otherwise (reported as an "infinite bias" sentinel).
    """
    mu_diff = abs(a.mu - b.mu)
    sigma_avg = 0.5 * (a.sigma + b.sigma)
    if sigma_avg == 0.0:
        return 0.0 if mu_diff == 0.0 else float("inf")
    return mu_diff / sigma_avg


def _pair_rows(stats, group_a, group_b) -> BiasTable:
    by_cell = {(s.group, s.stratum): s for s in stats}
    strata = list(dict.fromkeys(s.stratum for s in stats))
    rows = []
    for st in strata:
        if (group_a, st) not in by_cell or (group_b, st) not in by_cell:
            raise DataError(f"stratum {st!r} lacks one of the compared groups")
        a, b = by_cell[(group_a, st)], by_cell[(group_b, st)]
        rows.append(
            StratumRow(
                stratum=st,
                a=a,
                b=b,
                mu_diff=abs(a.mu - b.mu),
                sigma_avg=0.5 * (a.sigma + b.sigma),
                score=bias_score(a, b),
            )
        )
    return BiasTable(group_a, group_b, rows)


def histogram(estimates, bins: int, lo: float, hi: float) -> Histogram:
    """Equal-width histogram on [lo, hi]; values at hi land in the last bin.

    Out-of-range values are clamped into the edge bins and counted, so the
    counts always sum to n.
    """
    estimates = np.asarray(estimates, dtype=float).ravel()
    if estimates.size == 0:
        raise DataError("histogram of empty input")
    check_settings(bins, (lo, hi))
    lo, hi = float(lo), float(hi)
    width = (hi - lo) / bins
    if np.isnan(estimates).any():
        raise DataError("histogram of a NaN value")
    low, high = estimates < lo, estimates >= hi
    inside = estimates[~(low | high)]
    # (v - lo) / width can round up to `bins` for v just below hi: clamp it
    idx = np.minimum(((inside - lo) / width).astype(np.intp), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    clamped_low = int(np.count_nonzero(low))
    counts[0] += clamped_low
    counts[bins - 1] += np.count_nonzero(high)
    return Histogram(lo, hi, counts.tolist(), clamped_low, int(np.count_nonzero(estimates > hi)))


def audit(
    estimates,
    groups,
    strata,
    group_pair=None,
    performance=None,
    bins: int = BINS,
    value_range=VALUE_RANGE,
    true_values=None,
    metadata=None,
) -> AuditReport:
    """Assemble the full report: bias table, per-cell histograms, performance.

    `group_pair` picks the two groups to score (defaults to the only two
    groups present). For regression studies pass the true target values as
    `true_values` to record the data's own group gap alongside the model's.
    """
    cells = _cells(estimates, groups, strata)
    stats = _cell_stats(cells)
    group_order = list(dict.fromkeys(s.group for s in stats))
    if group_pair is None:
        if len(group_order) != 2:
            raise DataError(
                f"found {len(group_order)} groups; pass group_pair to pick the two to compare"
            )
        group_pair = tuple(group_order)
    ga, gb = group_pair
    if ga not in group_order or gb not in group_order:
        raise DataError(f"group_pair {group_pair!r} not present in the data")
    table = _pair_rows(stats, ga, gb)

    lo, hi = value_range
    hists = [(g, st, histogram(vals, bins, lo, hi)) for g, st, vals in cells]

    true_table = None
    if true_values is not None:
        true_stats = group_stats(true_values, groups, strata)
        true_table = _pair_rows(true_stats, ga, gb)

    return AuditReport(table, stats, hists, performance, dict(metadata or {}), true_table)


# ---------------------------------------------------------------------------
# rendering / export


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.4f}"


def _bias_rows(table: BiasTable) -> list:
    """The classic mu/sigma/score rows: (label, one value per stratum), shared by both exports."""
    a, b, rows = table.group_a, table.group_b, table.rows
    return [
        (f"mu {a}", [r.a.mu for r in rows]),
        (f"mu {b}", [r.b.mu for r in rows]),
        ("mu diff", [r.mu_diff for r in rows]),
        (f"sigma {a}", [r.a.sigma for r in rows]),
        (f"sigma {b}", [r.b.sigma for r in rows]),
        ("sigma average", [r.sigma_avg for r in rows]),
        ("mu diff / sigma average", [r.score for r in rows]),
    ]


def render_bias_table(table: BiasTable) -> str:
    """Aligned-text table: one column per stratum, one line per row of `_bias_rows`."""
    rows = _bias_rows(table)
    head_w = max(len(label) for label, _ in rows)
    col_names = [str(r.stratum) for r in table.rows]
    widths = [max(len(c), 8) for c in col_names]
    lines = [" " * head_w + "  " + "  ".join(c.rjust(w) for c, w in zip(col_names, widths))]
    for label, vals in rows:
        cells = [_fmt(v).rjust(w) for v, w in zip(vals, widths)]
        lines.append(label.ljust(head_w) + "  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def _csv_text(rows) -> str:
    """`rows` as CSV text with "\\n" line ends, each field quoted as `write_csv` quotes it."""
    return "".join(",".join(_field(str(v)) for v in row) + "\n" for row in rows)


def bias_table_csv(table: BiasTable) -> str:
    header = ["row"] + [r.stratum for r in table.rows]
    return _csv_text([header] + [[label] + [_fmt(v) for v in vals] for label, vals in _bias_rows(table)])


def histograms_csv(report: AuditReport) -> str:
    """Plot-ready long format: bin_lo, bin_hi, group, stratum, count."""
    rows = [["bin_lo", "bin_hi", "group", "stratum", "count"]]
    for group, stratum, h in report.histograms:
        width = (h.hi - h.lo) / len(h.counts)
        for i, c in enumerate(h.counts):
            rows.append([repr(h.lo + i * width), repr(h.lo + (i + 1) * width), group, stratum, c])
    return _csv_text(rows)


def bias_table_jsonable(table: BiasTable) -> dict:
    return {
        "group_a": table.group_a,
        "group_b": table.group_b,
        "strata": [
            {
                "stratum": r.stratum,
                "n_a": r.a.n,
                "n_b": r.b.n,
                "mu_a": r.a.mu,
                "mu_b": r.b.mu,
                "mu_diff": r.mu_diff,
                "sigma_a": r.a.sigma,
                "sigma_b": r.b.sigma,
                "sigma_avg": r.sigma_avg,
                "bias_score": r.score,
            }
            for r in table.rows
        ],
    }


def report_jsonable(report: AuditReport) -> dict:
    out = {
        "bias_table": bias_table_jsonable(report.bias_table),
        "group_stats": [
            {"group": s.group, "stratum": s.stratum, "n": s.n, "mu": s.mu, "sigma": s.sigma}
            for s in report.stats
        ],
        "histograms": [
            {
                "group": g,
                "stratum": st,
                "lo": h.lo,
                "hi": h.hi,
                "counts": h.counts,
                "clamped_low": h.clamped_low,
                "clamped_high": h.clamped_high,
            }
            for g, st, h in report.histograms
        ],
        "performance": report.performance,
        "metadata": report.metadata,
    }
    if report.true_table is not None:
        out["true_values"] = bias_table_jsonable(report.true_table)
    return to_jsonable(out)


def write_report_csvs(report: AuditReport, prefix) -> None:
    atomic_write_text(f"{prefix}_bias.csv", bias_table_csv(report.bias_table))
    atomic_write_text(f"{prefix}_hist.csv", histograms_csv(report))
