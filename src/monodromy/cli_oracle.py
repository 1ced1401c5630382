"""The ``verify`` and ``census`` front ends: the engine's predictions against the brute-force oracle.

Each command returns its document, its table renderer and its verdict, as
every front end does (see ``cli_engine``).  ``census`` predicts from the type
counts alone and never loads the engine.
"""

from __future__ import annotations

from . import Refusal, decimal_str, fforacle
from .cli_engine import check_size_ceiling, count_for, parse_q_list, resolve_shape
from .typecomb import count_monic_with_type_at


def _resolve_q_list(text: str, check, n: int, override: bool) -> list[tuple[int, int, int]]:
    """(q, p, e) for every q in the list, each refused by ``check``; builds no field tables."""
    params = []
    for q in parse_q_list(text):
        p, e = fforacle.field_params(q)
        check(q, n, override)
        params.append((q, p, e))
    return params


def verify(args):
    n, k, flag = resolve_shape(args)
    check_size_ceiling(n, k, args.budget_override)
    params = _resolve_q_list(args.q, fforacle.check_gl_budget, n, args.budget_override)
    cp = count_for(n, k, flag)  # refuses a bad (mode, k) before any field table is built
    rows = []
    all_match = True
    for q, p, e in params:
        field = fforacle.field_make(p, e)
        if flag == "ss":
            actual = fforacle.brute_hom_count(n, field, k, fforacle.MODE_ALL_SEMISIMPLE, args.budget_override)
        elif flag == "mixed":
            actual = fforacle.brute_hom_count(n, field, k, fforacle.MODE_LAST_FREE, args.budget_override)
        else:
            actual = fforacle.brute_conj_count(n, field, k, args.budget_override)
        predicted = cp.evaluate(q)
        match = predicted == actual
        all_match = all_match and match
        rows.append({"q": q, "predicted": decimal_str(predicted), "actual": decimal_str(actual), "match": match})
    doc = {
        "command": "verify",
        "n": n,
        "k": k,
        "mode": cp.mode,
        "poly": cp.poly.to_json(),
        "rows": rows,
        "allMatch": all_match,
    }

    def lines(d):
        yield f"verify {d['mode']} count, n={d['n']}, k={d['k']}"
        for row in d["rows"]:
            flag = "ok " if row["match"] else "BAD"
            yield f"  {flag} q={row['q']}: predicted {row['predicted']}, brute {row['actual']}"
        yield "all match" if d["allMatch"] else "MISMATCH"

    return doc, lines, all_match


def census(args):
    if args.n < 1:
        raise Refusal("--n must be >= 1")
    params = _resolve_q_list(args.q, fforacle.check_census_budget, args.n, args.budget_override)
    rows = []
    all_match = True
    for q, p, e in params:
        for record in fforacle.poly_type_census(fforacle.field_make(p, e), args.n, args.budget_override):
            predicted = count_monic_with_type_at(record.type, q)
            match = predicted == record.count
            all_match = all_match and match
            rows.append({
                "q": q,
                "type": record.type.to_json(),
                "label": record.type.label(),
                "predicted": decimal_str(predicted),
                "actual": decimal_str(record.count),
                "match": match,
            })
    doc = {"command": "census", "n": args.n, "rows": rows, "allMatch": all_match}

    def lines(d):
        yield f"factorization census, degree {d['n']}"
        for row in d["rows"]:
            flag = "ok " if row["match"] else "BAD"
            yield f"  {flag} q={row['q']} {row['label']}: predicted {row['predicted']}, counted {row['actual']}"
        yield "all match" if d["allMatch"] else "MISMATCH"

    return doc, lines, all_match
