"""The ``divisibility`` front end: the finite-group checks over a corpus of groups.

The command returns its document, its table renderer and its verdict, as
every front end does (see ``cli_engine``).  It loads the group lab alone:
neither the engine nor the oracle.
"""

from __future__ import annotations

from . import Refusal, groupdiv


def _parse_prime_sets(text: str | None) -> list[tuple[int, ...]]:
    if text is None:
        return [(), (2,), (3,), (2, 3)]
    if text.strip().lower() == "none":
        return [()]
    try:
        primes = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as exc:
        raise Refusal(f"bad --S list {text!r}") from exc
    if any(not groupdiv._is_prime(p) for p in primes):
        raise Refusal(f"--S needs primes, got {text!r}")
    return [primes]


def divisibility(args):
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
    for k in ks:  # before any group's Frobenius counts and coset sweep
        groupdiv.check_hom_rank(k)
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
        failures = [c.to_json() for c in sweep.failures]
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

    return doc, lines, all_ok
