"""Processes the benchmark starts besides plain ``python -m monodromy.cli``.

    python3 perfbench/child.py cli SPANS ARGV...   one CLI request, traced
    python3 perfbench/child.py lib SPANS KEY...    engine-small library counts

``SPANS`` is the file the spans are written to, or ``-`` for an untraced
run.  A library key is ``n:k:mode`` with mode ss, mixed or conj; the run
prints one JSON document with each count's output and its start and end
``time.perf_counter`` readings, which the parent maps onto its corrected
clock.
"""

from __future__ import annotations

import json
import sys
import time

import spans

Q_VALUES = (2, 3, 4, 5, 7)
COUNT_BY_MODE = {"ss": "count_semisimple_tuples", "mixed": "count_mixed_tuples", "conj": "count_conjugacy_classes"}


def poly_doc(engine, n: int, k: int, mode: str) -> dict:
    """The fields ``monodromy poly --format json --q 2,3,4,5,7`` prints, via the library."""
    cp = getattr(engine, COUNT_BY_MODE[mode])(n, k, engine.WeightCache())
    checks = {}
    if mode == "ss":
        checks["degree"] = engine.check_degree_monic(cp).to_json()
    if mode in ("ss", "mixed"):
        quotient = engine.check_laurent_quotient(cp)
        checks["laurentQuotient"] = quotient.to_json()
        checks["laurentHuman"] = str(quotient)
    return {
        "command": "poly",
        "n": n,
        "k": k,
        "mode": cp.mode,
        "poly": cp.poly.to_json(),
        "degree": int(cp.poly.degree),
        "checks": checks,
        "values": {str(q): str(cp.evaluate(q)) for q in Q_VALUES},
    }


def run_lib(keys: list[str]) -> int:
    from monodromy import engine

    results = []
    for key in keys:
        n, k, mode = key.split(":")
        start = time.perf_counter()
        try:
            doc, error = poly_doc(engine, int(n), int(k), mode), None
        except Exception as exc:  # one failed count is one failed request; the rest still run
            doc, error = None, repr(exc)
        results.append({"key": key, "start": start, "end": time.perf_counter(), "doc": doc, "error": error})
    print(json.dumps({"results": results}))
    return 0


def run_cli(argv: list[str]) -> int:
    from monodromy import cli

    return cli.main(argv)


def main(argv: list[str]) -> int:
    mode, spans_path, rest = argv[0], argv[1], argv[2:]
    runner = {"cli": run_cli, "lib": run_lib}[mode]
    if spans_path == "-":
        return runner(rest)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return runner(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
