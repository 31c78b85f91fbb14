"""Correctness oracle: checks each CLI verdict against basis-invariant truths.

A job fails on a wrong exit code, an exception escaping `main`, or a report
the oracle rejects.  Only facts that hold in every basis are checked:
component counts against the true count, exponential verdicts against the
summands, ranks and series of conjugates against the original, groupoid
verifiers against the group action they came from, the cascade table against
the golden one.  Relational checks compare with the reports of the same pass.
"""
from __future__ import annotations

from fractions import Fraction

# Seed defects that stay in the workloads.  They count as failed jobs but do
# not make a run incorrect; fixing one lowers `failed`.
KNOWN_FAILURES = {
    "validate:S5": "grpd validate on S5 (600 morphisms) exceeds the 2M "
                   "composable-triple cap and raises ValueError out of main",
}

# Acceptance criterion 1: systems of rank <= 8 whose Borel has an open orbit.
GOLDEN_OPEN = (
    {"A1"}
    | {f"B{r}" for r in range(2, 9)}
    | {f"C{r}" for r in range(2, 9)}
    | {"D4", "D6", "D8", "E7", "E8", "F4", "G2"}
)


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, col, n = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < n:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _padded_sum(lists):
    n = max(len(x) for x in lists)
    return [sum(x[i] if i < len(x) else x[-1] for x in lists) for i in range(n)]


def _check_report(job, report, seen):
    """Return None when the report is accepted, else the reason."""
    c = job["check"]
    kind = c["kind"]
    if kind == "census":
        count, true = report["component_count"], c["components"]
        if true == 0:
            if count != 0 or report["open_orbit_exists"]:
                return f"degenerate algebra reported {count} components"
        elif not 1 <= count <= true:
            return f"component count {count} outside 1..{true}"
        elif not report["open_orbit_exists"]:
            return "open orbit not found"
        return None
    if "same_as" in c:
        ref = seen.get(c["same_as"])
        if ref is None:
            return f"reference {c['same_as']} missing"
        keys = {"series": ("derived_dims", "lower_central_dims", "center_dim",
                           "solvable", "nilpotent"),
                "roots": (), "exptest": ("verdict",)}[kind]
        for key in keys:
            if report[key] != ref[key]:
                return f"{key} {report[key]} differs from the original {ref[key]}"
    parts = [seen.get(p) for p in c.get("parts", ())]
    if None in parts:
        return "a summand's report is missing"
    if kind == "series" and parts:
        expect = {
            "derived_dims": _padded_sum([p["derived_dims"] for p in parts]),
            "lower_central_dims": _padded_sum([p["lower_central_dims"] for p in parts]),
            "center_dim": sum(p["center_dim"] for p in parts),
            "solvable": all(p["solvable"] for p in parts),
            "nilpotent": all(p["nilpotent"] for p in parts),
        }
        for key, val in expect.items():
            if report[key] != val:
                return f"{key} {report[key]} is not the sum of the summands' {val}"
        return None
    if kind == "series":
        return None if report["dim"] == c["dim"] else "wrong dimension"
    if kind == "roots":
        total = sum(r["multiplicity"] for r in report["roots"])
        return None if total == c["dim"] else f"root multiplicities sum to {total}"
    if kind == "exptest":
        if "verdict" in c and report["verdict"] is not c["verdict"]:
            return f"verdict {report['verdict']}, expected {c['verdict']}"
        if parts and report["verdict"] is not all(p["verdict"] for p in parts):
            return "verdict differs from the summands'"
        return None
    if kind == "stratify":
        rank = report["generic_rank"]
        if rank != c["generic_rank"]:
            return f"generic rank {rank}, expected {c['generic_rank']}"
        if len(report["generic_jump_set"]) != rank:
            return "generic jump set size differs from the rank"
        return None
    if kind == "coadjoint":
        t = [[[Fraction(x) for x in col] for col in row] for row in c["tensor"]]
        xi = [Fraction(x) for x in c["point"]]
        n = len(t)
        form = [[sum((t[j][k][l] * xi[l] for l in range(n)), Fraction(0))
                 for k in range(n)] for j in range(n)]
        got = [[Fraction(x) for x in row] for row in report["skew_form"]]
        if got != form:
            return "skew form differs from xi([Y_j, Y_k])"
        rank = _rank(form)
        if report["orbit_dimension"] != rank or report["isotropy_dim"] != n - rank:
            return f"orbit dimension {report['orbit_dimension']}, rank is {rank}"
        if report["open_orbit"] is not (rank == n):
            return "open_orbit flag disagrees with the rank"
        return None
    if kind == "probe":
        return None if report["found"] is c["found"] else "wrong -1 probe verdict"
    if kind == "cascade":
        opened = {k for k, v in report["open_orbit"].items() if v}
        return None if opened == GOLDEN_OPEN else "cascade table differs from golden"
    if kind == "grpd":
        return _check_grpd(c, report)
    return f"no oracle for {kind}"


def _check_grpd(c, report):
    sub, mors = c["sub"], c["morphisms"]
    if sub == "validate":
        ok = report.get("valid") is True and report.get("morphisms") == mors
    elif sub == "classify":
        ok = report["morphisms"] == mors and report["orbit_count"] == c["orbits"]
    elif sub == "pullback-verify":
        ok = report["ok"] is True and report["morphisms"] == report["pullback_morphisms"] == mors
    elif sub == "bimodule-verify":
        ok = report["ok"] is True and all(report["checks"].values())
    elif sub == "decompose":
        ok = (report["total_morphisms"] == mors and report["ideal_dims"][-1] == mors
              and all(report["layer_pullback_ok"]))
    elif sub == "profile":
        ok = report["total_dim"] == mors and report["matches_morphism_count"] is True
    elif sub == "regrep":
        ok = report["faithful"] is True and report["rank"] == mors
    else:
        return f"no oracle for grpd {sub}"
    return None if ok else f"grpd {sub} report rejected"


def check(job, rc, report, error, seen):
    """Verdict on one job: None if accepted, else the reason it failed.

    `seen` maps the job ids of the pass to their parsed reports (None when a
    job printed none)."""
    if error is not None:
        return f"exception escaped main: {error}"
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "no JSON report"
    try:
        return _check_report(job, report, seen)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
