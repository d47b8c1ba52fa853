"""Independent recomputation of wisebe reports with exact fractions.

Works from the generator's boundary positions alone and imports nothing
from wisebe, so a bug shared by the program and its own tests still
shows.  Every metric follows the definitions in the package README:
strict and mean PRF, windowed P/R/F1, agreement ratio, the WiSeBE
product, Fleiss' kappa, mean SER, lenient PRF, the consensus reference
and Pearson's r across documents.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left
from fractions import Fraction

TOLERANCE = 0.001          # one display unit of the three-decimal reports
MAX_PROBLEMS = 5           # mismatches listed per report
MEAN_ROW_ID = "mean"
ZERO = Fraction(0)


def _prf(tp: int, fp: int, fn: int) -> tuple[Fraction, Fraction, Fraction]:
    p = Fraction(tp, tp + fp) if tp + fp else ZERO
    r = Fraction(tp, tp + fn) if tp + fn else ZERO
    return p, r, (2 * p * r / (p + r) if p + r else ZERO)


def _strict(cand: set[int], ref: set[int]) -> tuple[Fraction, Fraction, Fraction]:
    tp = len(cand & ref)
    return _prf(tp, len(cand) - tp, len(ref) - tp)


def _mean(values) -> Fraction:
    values = list(values)
    return sum(values, ZERO) / len(values)


def windows(union: list[int], limit: int) -> list[tuple[int, int]]:
    """Inclusive spans of voted positions with at most `limit` unvoted tokens between."""
    spans: list[list[int]] = []
    for pos in union:
        if spans and pos - spans[-1][1] - 1 <= limit:
            spans[-1][1] = pos
        else:
            spans.append([pos, pos])
    return [(lo, hi) for lo, hi in spans]


def agreement(n: int, refs: list[set[int]]) -> tuple[Fraction, Fraction]:
    """Agreement ratio pb/ha and Fleiss' kappa over per-token boundary ratings."""
    m = len(refs)
    votes: dict[int, int] = {}
    for ref in refs:
        for pos in ref:
            votes[pos] = votes.get(pos, 0) + 1
    pb = sum(d for d in votes.values() if d >= 2)
    ar = Fraction(pb, m * len(votes))
    histogram = {0: n - len(votes)}
    for d in votes.values():
        histogram[d] = histogram.get(d, 0) + 1
    observed = sum(Fraction(count * (d * (d - 1) + (m - d) * (m - d - 1)), m * (m - 1))
                   for d, count in histogram.items()) / n
    share = Fraction(sum(votes.values()), n * m)
    expected = share * share + (1 - share) * (1 - share)
    return ar, (observed - expected) / (1 - expected)


def pearson(xs: list[Fraction], ys: list[Fraction]) -> float:
    mx, my = _mean(xs), _mean(ys)
    cov = sum(((x - mx) * (y - my) for x, y in zip(xs, ys)), ZERO)
    var = sum(((x - mx) ** 2 for x in xs), ZERO) * sum(((y - my) ** 2 for y in ys), ZERO)
    return math.copysign(math.sqrt(cov * cov / var), cov)


def document_rows(spec, window_limit: int, baselines: bool,
                  threshold: int | None) -> list[dict]:
    """Exact report rows of one document, one per system in name order."""
    refs = [set(pos) for _, pos in spec.references]
    ar, kappa = agreement(spec.n, refs)
    union = sorted(set().union(*refs))
    spans = windows(union, window_limit)
    starts = [lo for lo, _ in spans]
    shared = set.intersection(*refs)
    consensus = None
    if threshold is not None:
        consensus = {p for p in union if sum(p in r for r in refs) >= threshold}
    rows = []
    for name, positions in sorted(spec.systems):
        cand = set(positions)
        per_ref = [_strict(cand, ref) for ref in refs]
        inside = 0
        for p in cand:
            i = bisect_left(starts, p + 1) - 1          # last span starting at or before p
            inside += i >= 0 and p <= spans[i][1]
        hit = sum(1 for lo, hi in spans
                  if bisect_left(positions, hi + 1) > bisect_left(positions, lo))
        p_rw = Fraction(inside, len(cand)) if cand else ZERO
        r_rw = Fraction(hit, len(spans))
        f1_rw = 2 * p_rw * r_rw / (p_rw + r_rw) if p_rw + r_rw else ZERO
        row = {
            "doc_id": spec.doc_id, "system": name,
            "precision": _mean(s[0] for s in per_ref),
            "recall": _mean(s[1] for s in per_ref),
            "f1": _mean(s[2] for s in per_ref),
            "f1_mean": _mean(s[2] for s in per_ref),
            "f1_rw": f1_rw, "agreement_ratio": ar, "wisebe": f1_rw * ar, "kappa": kappa,
        }
        if baselines:
            row["mean_ser"] = _mean(Fraction(len(cand - ref) + len(ref - cand), len(ref))
                                    for ref in refs)
            tp = len(cand & set(union))
            lp, lr, lf = _prf(tp, len(cand) - tp, len(shared - cand))
            row.update(lenient_precision=lp, lenient_recall=lr, lenient_f1=lf)
        if consensus is not None:
            cp, cr, cf = _strict(cand, consensus)
            row.update(consensus_precision=cp, consensus_recall=cr, consensus_f1=cf)
        rows.append(row)
    return rows


def eval_rows(specs, window_limit: int = 2, baselines: bool = False,
              threshold: int | None = None) -> list[dict]:
    """Every row of `wisebe eval` in report order: documents, then per-system means."""
    rows = [row for spec in sorted(specs, key=lambda s: s.doc_id)
            for row in document_rows(spec, window_limit, baselines, threshold)]
    means = []
    for system in sorted({r["system"] for r in rows}):
        group = [r for r in rows if r["system"] == system]
        mean = {"doc_id": MEAN_ROW_ID, "system": system}
        for key in group[0]:
            if key not in mean:
                mean[key] = _mean(r[key] for r in group)
        means.append(mean)
    return rows + means


def agreement_rows(specs) -> tuple[list[dict], float | None]:
    """Rows of `wisebe agreement` plus Pearson's r over (ar, kappa)."""
    rows = []
    for spec in sorted(specs, key=lambda s: s.doc_id):
        ar, kappa = agreement(spec.n, [set(pos) for _, pos in spec.references])
        rows.append({"doc_id": spec.doc_id, "agreement_ratio": ar, "kappa": kappa})
    xs = [r["agreement_ratio"] for r in rows]
    ys = [r["kappa"] for r in rows]
    pcc = pearson(xs, ys) if len(rows) >= 2 and len(set(xs)) > 1 and len(set(ys)) > 1 else None
    return rows, pcc


# ---------------------------------------------------------------------------
# reading the program's reports

def parse_json_rows(data: bytes) -> list[dict]:
    return json.loads(data.decode("utf-8"))


def parse_csv_rows(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    return [{k: (v if k in ("doc_id", "system") else float(v) if v else None)
             for k, v in row.items()} for row in rows]


def parse_agreement_table(data: bytes) -> tuple[list[dict], float | None]:
    """Rows and Pearson's r from the `agreement --format table` report."""
    lines = data.decode("utf-8").splitlines()
    if lines[:1] != ["== reference agreement =="] or \
            lines[1].split() != ["doc", "agreement_ratio", "kappa"]:
        raise ValueError("not an agreement table")
    rows, pcc = [], None
    for line in lines[2:]:
        if line.startswith("pearson r = "):
            pcc = float(line.split()[3])
        elif line.startswith("pearson r:"):
            pcc = None
        else:
            doc_id, ar, kappa = line.split()
            rows.append({"doc_id": doc_id, "agreement_ratio": float(ar), "kappa": float(kappa)})
    return rows, pcc


def compare_rows(expected: list[dict], actual: list[dict]) -> list[str]:
    """Mismatches between exact rows and a report's rows (at most MAX_PROBLEMS listed)."""
    problems: list[str] = []
    keys = [(r["doc_id"], r.get("system")) for r in expected]
    got = [(r.get("doc_id"), r.get("system")) for r in actual]
    if keys != got:
        return [f"rows differ: expected {len(keys)} starting {keys[:2]}, "
                f"got {len(got)} starting {got[:2]}"]
    for want, have in zip(expected, actual):
        if set(want) != set(have):
            problems.append(f"{want['doc_id']}/{want.get('system')}: columns "
                            f"{sorted(set(want) ^ set(have))} differ")
            continue
        for key, value in want.items():
            if key in ("doc_id", "system"):
                continue
            shown = have[key]
            if not isinstance(shown, (int, float)) or abs(shown - value) > TOLERANCE:
                problems.append(f"{want['doc_id']}/{want.get('system')}: {key} = {shown}, "
                                f"expected {float(value):.6f}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def compare_pearson(expected: float | None, shown: float | None) -> list[str]:
    if expected is None or shown is None:
        return [] if expected is shown else [f"pearson r = {shown}, expected {expected}"]
    return [] if abs(expected - shown) <= TOLERANCE else \
        [f"pearson r = {shown}, expected {expected:.6f}"]
