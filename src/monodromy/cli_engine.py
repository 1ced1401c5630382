"""The ``poly`` front end, and the shape, size and --q parsing that ``verify`` shares.

Like every front end, each command here takes the parsed arguments and
returns its document, its table renderer and its verdict; ``monodromy.cli``
prints them and maps the verdict to an exit code.  No front end imports
``monodromy.cli``: under ``python -m monodromy.cli`` that file runs as
``__main__``, so importing it by name would compile and run it a second time.

The engine is imported inside the functions that count, so ``census``,
which parses its --q list here, never loads it.
"""

from __future__ import annotations

from . import Refusal, decimal_str

ENGINE_SIZE_CEILING = 6


def resolve_shape(args) -> tuple[int, int, str]:
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


def check_size_ceiling(n: int, k: int, override: bool) -> None:
    if not override and (n > ENGINE_SIZE_CEILING or k > ENGINE_SIZE_CEILING):
        raise Refusal(
            f"n={n}, k={k} beyond the default ceiling {ENGINE_SIZE_CEILING}; pass --budget-override"
        )


def parse_q_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise Refusal(f"bad --q list {text!r}") from exc
    if not values or any(v < 2 for v in values):
        raise Refusal(f"--q needs integers >= 2, got {text!r}")
    return values


def count_for(n: int, k: int, flag: str):
    """The engine's ``CountingPolynomial`` for a --mode flag."""
    from . import engine
    if flag == "ss":
        return engine.count_semisimple_tuples(n, k)
    if flag == "mixed":
        return engine.count_mixed_tuples(n, k)
    return engine.count_conjugacy_classes(n, k)


def poly(args):
    from . import engine
    n, k, flag = resolve_shape(args)
    check_size_ceiling(n, k, args.budget_override)
    cp = count_for(n, k, flag)
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
        doc["values"] = {str(q): decimal_str(cp.evaluate(q)) for q in parse_q_list(args.q)}

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

    return doc, lines, True
