"""Correctness gate: every request's output against goldens recorded once.

``poly`` outputs (CLI and library) must match the recorded coefficients,
values, degree and Laurent checks.  ``verify``, ``census`` and
``divisibility`` must report ``allMatch``/``allOk`` and reproduce their
seed-invariant numbers: counts, group orders, Frobenius counts, hom counts
and the number of coset checks.  Coset representatives are element indices,
which a relabelled corpus permutes, so they are not compared.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import Request

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


def load_goldens() -> dict:
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# the seed-invariant part of each output


def poly_summary(doc: dict) -> dict:
    return {key: doc[key] for key in ("command", "n", "k", "mode", "poly", "degree", "checks", "values")}


def verify_summary(doc: dict) -> dict:
    return {key: doc[key] for key in ("command", "n", "k", "mode", "poly", "rows", "allMatch")}


def census_summary(doc: dict) -> dict:
    return {key: doc[key] for key in ("command", "n", "rows", "allMatch")}


def group_summary(group: dict) -> dict:
    return {
        "order": group["order"],
        "frobenius": [[r["n"], r["count"], r["divides"], r["binding"]] for r in group["frobenius"]],
        "cosetChecked": group["cosetLemma"]["checked"],
        "cosetFailures": len(group["cosetLemma"]["failures"]),
        "homCounts": [[r["k"], r["S"], r["homCount"], r["ok"]] for r in group["homReports"]],
    }


# ---------------------------------------------------------------------------
# the gate


def check_doc(request: Request, doc: dict, goldens: dict) -> str | None:
    """None when the parsed output matches its golden, else the reason it does not."""
    if request.kind in ("poly", "lib"):
        if poly_summary(doc) != goldens["poly"][request.key]:
            return f"poly {request.key} differs from the golden"
        return None
    if request.kind == "verify":
        if doc.get("allMatch") is not True:
            return f"verify {request.key} reports a mismatch"
        if verify_summary(doc) != goldens["verify"][request.key]:
            return f"verify {request.key} differs from the golden"
        return None
    if request.kind == "census":
        if doc.get("allMatch") is not True:
            return f"census {request.key} reports a mismatch"
        if census_summary(doc) != goldens["census"][request.key]:
            return f"census {request.key} differs from the golden"
        return None
    if request.kind == "divisibility":
        if doc.get("allOk") is not True:
            return f"divisibility {request.key} reports a failed check"
        names = [g["name"] for g in doc["groups"]]
        expected = goldens["corpus"][request.key]
        if names != expected:
            return f"divisibility {request.key} covered groups {names}, expected {expected}"
        for group in doc["groups"]:
            if group_summary(group) != goldens["divisibility"][group["name"]]:
                return f"divisibility group {group['name']} differs from the golden"
        return None
    raise ValueError(f"unknown request kind {request.kind!r}")


def check_output(request: Request, status: int, stdout: str, goldens: dict) -> str | None:
    """Gate one CLI request: exit code 0 and a matching JSON document."""
    if status != 0:
        return f"exit code {status}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return check_doc(request, doc, goldens)
    except (KeyError, TypeError) as exc:
        return f"output lacks a field: {exc!r}"


def error_rate(reasons: list[str | None]) -> float:
    """Failed or wrong requests over requests attempted."""
    return sum(r is not None for r in reasons) / len(reasons)


# ---------------------------------------------------------------------------
# cross-check of the poly goldens: mixed(n, k+1) = |GL_n| * conj(n, k)


def _coeffs(poly_json: dict) -> list[Fraction]:
    return [Fraction(int(num), int(den)) for num, den in poly_json["coeffs"]]


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gl_order_coeffs(n: int) -> list[Fraction]:
    """|GL_n(F_q)| = prod_{j<n} (q^n - q^j), ascending coefficients."""
    result = [Fraction(1)]
    for j in range(n):
        factor = [Fraction(0)] * (n + 1)
        factor[n] += 1
        factor[j] -= 1
        result = _mul(result, factor)
    return result


def identity_mismatches(poly_goldens: dict) -> tuple[int, list[str]]:
    """Check every recorded (conj(n, k), mixed(n, k+1)) pair; returns (pairs checked, mismatches)."""
    checked, bad = 0, []
    for key, entry in poly_goldens.items():
        n, k, mode = key.split(":")
        partner = poly_goldens.get(f"{n}:{int(k) + 1}:mixed")
        if mode != "conj" or partner is None:
            continue
        checked += 1
        if _mul(gl_order_coeffs(int(n)), _coeffs(entry["poly"])) != _coeffs(partner["poly"]):
            bad.append(key)
    return checked, bad
