"""Record ``goldens.json`` from the current program, then cross-check it.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose outputs are trusted.  Every request
of every workload runs once in canonical order, with the group-lab corpus
unrelabelled; the seed-invariant part of each output becomes its golden.
The poly goldens are then checked by mixed(n, k+1) = |GL_n| * conj(n, k).
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import HERE, OUT, run_child


def cli_doc(argv: tuple[str, ...]) -> dict:
    child = run_child([sys.executable, "-m", "monodromy.cli", *argv])
    if child.status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.status}: {child.stderr}")
    return json.loads(child.stdout)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    goldens: dict = {"poly": {}, "verify": {}, "census": {}, "divisibility": {}, "corpus": {}}

    keys = [r.key for r in workloads.build("engine-small", None, OUT)]
    child = run_child([sys.executable, str(HERE / "child.py"), "lib", "-", *keys])
    for report in json.loads(child.stdout)["results"]:
        if report["error"]:
            raise SystemExit(f"library count {report['key']} failed: {report['error']}")
        goldens["poly"][report["key"]] = checks.poly_summary(report["doc"])

    for workload in ("engine-large", "oracle-verify", "group-lab"):
        for req in workloads.build(workload, None, OUT / "corpus-goldens.txt"):
            doc = cli_doc(req.argv)
            if req.kind == "poly":
                goldens["poly"][req.key] = checks.poly_summary(doc)
            elif req.kind == "verify":
                goldens["verify"][req.key] = checks.verify_summary(doc)
            elif req.kind == "census":
                goldens["census"][req.key] = checks.census_summary(doc)
            else:
                goldens["corpus"][req.key] = [g["name"] for g in doc["groups"]]
                for group in doc["groups"]:
                    goldens["divisibility"][group["name"]] = checks.group_summary(group)
            print(f"recorded {req.kind} {req.key}", flush=True)

    checked, bad = checks.identity_mismatches(goldens["poly"])
    if bad:
        raise SystemExit(f"mixed(n, k+1) != |GL_n| * conj(n, k) for {bad}")
    print(f"identity mixed(n, k+1) = |GL_n| * conj(n, k) holds on {checked} pairs")
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
