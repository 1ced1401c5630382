"""Command-line front end: poly, verify, census, divisibility.

Exit codes: 0 success, 1 verification mismatch, 2 a refusal (``Refusal``)
or OS error, 3 any other failure (an internal invariant violation).  JSON
output is deterministic (sorted keys, fixed layout) so repeated runs are
byte-identical.

Each subcommand imports only its own layers: ``poly`` loads the engine
but neither the oracle nor the group lab, ``verify`` the engine and the
oracle, ``census`` the oracle, and ``divisibility`` the group lab alone;
neither of the last two loads the engine.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import Refusal, decimal_str

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

ENGINE_SIZE_CEILING = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monodromy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table")

    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--budget-override", action="store_true",
                         help="lift enumeration and size ceilings")

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--n", type=int, required=True, help="matrix size")
    shape.add_argument("--k", type=int, default=None, help="tuple length")
    shape.add_argument("--g", type=int, default=None, help="source rank is 2g")
    shape.add_argument("--prank", type=int, choices=(0, 1), default=None,
                       help="with --g: 0 = all slots semisimple, 1 = one slot free")
    shape.add_argument("--mode", choices=("ss", "mixed", "conj"), default=None,
                       help="with --k: which count to compute")

    p_poly = sub.add_parser("poly", parents=[bounded, shape], help="print a counting polynomial")
    p_poly.add_argument("--q", default=None, help="comma-separated field sizes to evaluate at")

    p_verify = sub.add_parser("verify", parents=[bounded, shape],
                              help="compare the polynomial against brute-force counts")
    p_verify.add_argument("--q", required=True, help="comma-separated field sizes")

    p_census = sub.add_parser("census", parents=[bounded],
                              help="tally polynomial factorization types against predictions")
    p_census.add_argument("--n", type=int, required=True, help="polynomial degree")
    p_census.add_argument("--q", required=True, help="comma-separated field sizes")

    p_div = sub.add_parser("divisibility", parents=[common],
                           help="run the finite-group divisibility checks")
    p_div.add_argument("--corpus", metavar="PATH", default=None, help="corpus file (default: packaged)")
    p_div.add_argument("--group", default=None, help="restrict to one corpus group by name")
    p_div.add_argument("--k", type=int, default=None, help="restrict the hom rank (default 1..3)")
    p_div.add_argument("--S", default=None,
                       help="comma-separated primes to delete, or 'none' (default: sweep standard sets)")
    p_div.add_argument("--n", type=int, default=None,
                       help="restrict the x^n = e count to one exponent (default: all divisors)")

    return parser


def _resolve_shape(args) -> tuple[int, int, str]:
    """Turn --k/--g/--prank/--mode into (n, k, mode flag)."""
    if (args.k is None) == (args.g is None):
        raise Refusal("give exactly one of --k and --g")
    if args.n < 1:
        raise Refusal("--n must be >= 1")
    if args.g is not None:
        if args.mode is not None:
            raise Refusal("--mode goes with --k; with --g use --prank")
        if args.g < 1:
            raise Refusal("--g must be >= 1")
        prank = args.prank if args.prank is not None else 0
        return args.n, 2 * args.g, "mixed" if prank else "ss"
    if args.prank is not None:
        raise Refusal("--prank goes with --g; with --k use --mode")
    if args.k < 1:
        raise Refusal("--k must be >= 1")
    return args.n, args.k, args.mode if args.mode is not None else "ss"


def _check_size_ceiling(n: int, k: int, override: bool) -> None:
    if not override and (n > ENGINE_SIZE_CEILING or k > ENGINE_SIZE_CEILING):
        raise Refusal(
            f"n={n}, k={k} beyond the default ceiling {ENGINE_SIZE_CEILING}; pass --budget-override"
        )


def _parse_q_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise Refusal(f"bad --q list {text!r}") from exc
    if not values or any(v < 2 for v in values):
        raise Refusal(f"--q needs integers >= 2, got {text!r}")
    return values


def _resolve_q_list(text: str, check, n: int, override: bool) -> list[tuple[int, int, int]]:
    """(q, p, e) for every q in the list, each refused by ``check``; builds no field tables."""
    from . import fforacle
    params = []
    for q in _parse_q_list(text):
        p, e = fforacle.field_params(q)
        check(q, n, override)
        params.append((q, p, e))
    return params


def _count_for(n: int, k: int, flag: str):
    """The engine's ``CountingPolynomial`` for a --mode flag."""
    from . import engine
    if flag == "ss":
        return engine.count_semisimple_tuples(n, k)
    if flag == "mixed":
        return engine.count_mixed_tuples(n, k)
    return engine.count_conjugacy_classes(n, k)


def _emit(doc: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in table_lines(doc):
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_poly(args) -> int:
    from . import engine
    n, k, flag = _resolve_shape(args)
    _check_size_ceiling(n, k, args.budget_override)
    cp = _count_for(n, k, flag)
    doc = {
        "command": "poly",
        "n": n,
        "k": k,
        "mode": cp.mode,
        "poly": cp.poly.to_json(),
        "human": str(cp.poly),
        "degree": int(cp.poly.degree),
        "checks": {},
    }
    if flag == "ss":
        doc["checks"]["degree"] = engine.check_degree_monic(cp).to_json()
    if flag in ("ss", "mixed"):
        quotient = engine.check_laurent_quotient(cp)
        doc["checks"]["laurentQuotient"] = quotient.to_json()
        doc["checks"]["laurentHuman"] = str(quotient)
    if args.q:
        doc["values"] = {str(q): decimal_str(cp.evaluate(q)) for q in _parse_q_list(args.q)}

    def lines(d):
        yield f"count of {d['mode']} tuples, n={d['n']}, k={d['k']}"
        yield f"  P(q) = {d['human']}"
        yield f"  degree {d['degree']}"
        if "degree" in d["checks"]:
            c = d["checks"]["degree"]
            yield f"  degree bound {c['bound']}: {'met' if c['boundMet'] else 'NOT MET'}"
        if "laurentHuman" in d["checks"]:
            yield f"  P / |GL_{d['n']}| = {d['checks']['laurentHuman']}"
        for q, value in d.get("values", {}).items():
            yield f"  P({q}) = {value}"

    _emit(doc, args.format, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import fforacle
    n, k, flag = _resolve_shape(args)
    _check_size_ceiling(n, k, args.budget_override)
    params = _resolve_q_list(args.q, fforacle.check_gl_budget, n, args.budget_override)
    cp = _count_for(n, k, flag)  # refuses a bad (mode, k) before any field table is built
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

    _emit(doc, args.format, lines)
    return EXIT_OK if all_match else EXIT_MISMATCH


def _cmd_census(args) -> int:
    if args.n < 1:
        raise Refusal("--n must be >= 1")
    from . import fforacle
    from .typecomb import count_monic_with_type_at

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

    _emit(doc, args.format, lines)
    return EXIT_OK if all_match else EXIT_MISMATCH


def _parse_prime_sets(text: str | None) -> list[tuple[int, ...]]:
    if text is None:
        return [(), (2,), (3,), (2, 3)]
    if text.strip().lower() == "none":
        return [()]
    try:
        primes = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as exc:
        raise Refusal(f"bad --S list {text!r}") from exc
    from . import groupdiv
    if any(not groupdiv._is_prime(p) for p in primes):
        raise Refusal(f"--S needs primes, got {text!r}")
    return [primes]


def _cmd_divisibility(args) -> int:
    from . import groupdiv
    try:  # a malformed line raises ValueError, and so does an undecodable file (UnicodeDecodeError)
        groups = groupdiv.load_corpus(args.corpus)
    except ValueError as exc:
        raise Refusal(f"{args.corpus}: {exc}") from exc
    if not groups:
        raise Refusal(f"corpus {args.corpus} defines no groups")
    if args.group is not None:
        groups = tuple(g for g in groups if g.name == args.group)
        if not groups:
            raise Refusal(f"no corpus group named {args.group!r}")
    ks = [args.k] if args.k is not None else [1, 2, 3]
    if any(k < 1 for k in ks):
        raise Refusal("--k must be >= 1")
    prime_sets = _parse_prime_sets(args.S)
    group_docs = []
    all_ok = True
    for table in groups:
        exponents = [args.n] if args.n is not None else list(groupdiv._divisors(len(table)))
        frob_rows = []
        for n in exponents:
            if n < 1:
                raise Refusal("--n must be >= 1")
            count, divides = groupdiv.frobenius_count(table, n)
            binding = len(table) % n == 0
            if binding and not divides:
                all_ok = False
            frob_rows.append({"n": n, "count": count, "divides": divides, "binding": binding})
        sweep = groupdiv.coset_lemma_sweep(table)
        failures = [c.to_json() for c in sweep if not c.ok]
        if failures:
            all_ok = False
        reports = []
        for k in ks:
            for primes in prime_sets:
                report = groupdiv.divisibility_report(table, k, primes)
                if not report.passed:
                    all_ok = False
                reports.append(report.to_json())
        group_docs.append({
            "name": table.name,
            "order": len(table),
            "frobenius": frob_rows,
            "cosetLemma": {"checked": len(sweep), "failures": failures},
            "homReports": reports,
        })
    doc = {"command": "divisibility", "groups": group_docs, "allOk": all_ok}

    def lines(d):
        for g in d["groups"]:
            yield f"group {g['name']} (order {g['order']})"
            for row in g["frobenius"]:
                flag = "ok " if (row["divides"] or not row["binding"]) else "BAD"
                yield f"  {flag} #{{x^{row['n']} = e}} = {row['count']}"
            cl = g["cosetLemma"]
            yield f"  coset checks: {cl['checked']} run, {len(cl['failures'])} failed"
            for rep in g["homReports"]:
                flag = "ok " if rep["ok"] else "BAD"
                s = ",".join(str(p) for p in rep["S"]) or "-"
                yield f"  {flag} hom count k={rep['k']} S={{{s}}}: {rep['homCount']} (quotient {rep['quotient']})"
        yield "all ok" if d["allOk"] else "FAILED"

    _emit(doc, args.format, lines)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "poly": _cmd_poly,
        "verify": _cmd_verify,
        "census": _cmd_census,
        "divisibility": _cmd_divisibility,
    }[args.command]
    try:
        return handler(args)
    except (Refusal, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # any other failure is a broken invariant, never a mismatch (exit 1)
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
