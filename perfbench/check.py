"""Output checks, after the acceptance suite's own rules.

An operation is one CSV row of a sweep or one criterion of ``verify``. Each
check returns ``(attempted, failed, problems)``; a crash or a nonzero exit
fails every operation of the run.

Sweep rows must match the reference rows in ``reference/`` (made by
``make_reference.py``) in order, with the analytic cell within C4's 1e-6
absolute tolerance for outage or C6's 1e-4 relative tolerance for
throughput; the analytic cell must be within 3 ci95 of the mc cell (C5/C6);
and ``alt`` must keep its place against the compensated leading mode
(C5: no more outage than ``j1i1-cmp``; C6: no less throughput than its
analytic value), both with 3 ci95 of slack.
"""

import csv
import math
from pathlib import Path

HEADER = "snr_db,scheme,analytic,mc,ci95"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CRITERIA = 10


def load_reference(kind):
    with open(REFERENCE_DIR / f"{kind}.csv", newline="") as fh:
        return [(r["snr_db"], r["scheme"], float(r["analytic"]) if r["analytic"] else None)
                for r in csv.DictReader(fh)]


def check_curve(kind, exit_code, text, reference):
    """Rows of an ``outage`` or ``throughput`` CSV against the reference."""
    attempted = len(reference)
    lines = text.splitlines() if text else []
    if exit_code != 0 or not lines or lines[0] != HEADER or len(lines) != attempted + 1:
        return attempted, attempted, [f"exit {exit_code}, {len(lines)} lines, header {lines[:1]}"]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            snr, scheme, ana, mc, ci = cells
            rows.append((snr, scheme, float(ana) if ana else None, float(mc), float(ci)))
        except ValueError:
            rows.append(None)
    cmp_row = {r[0]: r for r in rows if r and r[1] == "j1i1-cmp"}
    problems = []
    for row, (ref_snr, ref_scheme, ref_ana) in zip(rows, reference):
        if row is None or row[:2] != (ref_snr, ref_scheme):
            problems.append(f"row {row} where {ref_snr},{ref_scheme} expected")
            continue
        snr, scheme, ana, mc, ci = row
        if not (math.isfinite(mc) and math.isfinite(ci) and ci >= 0.0):
            problems.append(f"{snr},{scheme}: mc {mc} ci95 {ci}")
        elif scheme == "alt":
            ref = cmp_row.get(snr)
            if ana is not None or ref is None or ref[2] is None:
                problems.append(f"{snr},alt: analytic {ana}, j1i1-cmp row {ref}")
            elif kind == "outage" and not mc <= ref[3] + 3.0 * ci:
                problems.append(f"{snr},alt: outage {mc} above j1i1-cmp {ref[3]}")
            elif kind == "throughput" and not ref[2] <= mc + 3.0 * ci:
                problems.append(f"{snr},alt: throughput {mc} below j1i1-cmp {ref[2]}")
        else:
            tol = 1e-6 if kind == "outage" else 1e-4 * abs(ref_ana)
            if ana is None or not abs(ana - ref_ana) <= tol:
                problems.append(f"{snr},{scheme}: analytic {ana} vs reference {ref_ana}")
            elif not abs(ana - mc) <= 3.0 * max(ci, 1e-12):
                problems.append(f"{snr},{scheme}: |analytic {ana} - mc {mc}| > 3 ci95 {ci}")
    return attempted, len(problems), problems


def check_verify(exit_code, text):
    """``verify``: exit 0 and a [PASS] line for every criterion."""
    if exit_code != 0:
        return CRITERIA, CRITERIA, [f"exit {exit_code}"]
    lines = text.splitlines()
    missing = [k for k in range(1, CRITERIA + 1)
               if not any(line.startswith(f"[PASS] C{k} ") for line in lines)]
    return CRITERIA, len(missing), [f"C{k} did not pass" for k in missing]
