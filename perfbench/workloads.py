"""The four benchmark workloads, generated from a seed.

A request is one CLI invocation (a fresh ``python -m monodromy.cli``
process) or, in ``engine-small``, one library count.  The seed shuffles the
request order of every pass and, in ``group-lab``, relabels the points of
the generated corpus; everything the program sees is the generated argv and
corpus file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

Q_LIST = "2,3,4,5,7"

# (n, k, mode flag) for the symbolic-recursion wall; n = 7 needs the override.
ENGINE_LARGE_CASES = ((6, 2, "ss"), (6, 4, "ss"), (6, 6, "ss"), (6, 6, "mixed"), (6, 6, "conj"), (7, 2, "ss"))

# every count with n, k <= 5 (mixed needs k >= 2)
ENGINE_SMALL_CASES = tuple(
    (n, k, mode)
    for n in range(1, 6)
    for k in range(1, 6)
    for mode in ("ss", "mixed", "conj")
    if not (mode == "mixed" and k < 2)
)

# (mode flag, n, k, q list) for the oracle wall, plus one census.  The
# GL_2(F_7) centralizer scan in the first case is most of the workload.
VERIFY_CASES = (
    ("ss", 2, 2, Q_LIST),
    ("mixed", 2, 3, "2,3,4,5"),
    ("conj", 2, 2, "2,3,4,5"),
    ("ss", 3, 2, "2"),
    ("conj", 3, 2, "2"),
)
CENSUS_CASE = (5, "2,3,4,5")

# generated corpus for group-lab: name, domain, generators (1-based cycles);
# every order is at most the sweep budget (400)
GENERATED_GROUPS = (
    ("S5", 5, "(1 2); (1 2 3 4 5)"),
    ("A5", 5, "(1 2 3); (3 4 5)"),
    ("D12", 12, "(1 2 3 4 5 6 7 8 9 10 11 12); (1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"),
)

WORKLOADS = ("engine-large", "engine-small", "oracle-verify", "group-lab")


@dataclass(frozen=True)
class Request:
    """One unit of load and the golden entry its output is checked against."""

    kind: str            # "poly", "verify", "census", "divisibility" or "lib"
    key: str             # golden key
    argv: tuple[str, ...] = ()  # CLI arguments; empty for library requests


def poly_key(n: int, k: int, mode: str) -> str:
    return f"{n}:{k}:{mode}"


def poly_argv(n: int, k: int, mode: str) -> tuple[str, ...]:
    argv = ("poly", "--n", str(n), "--k", str(k), "--mode", mode, "--format", "json", "--q", Q_LIST)
    return argv + (("--budget-override",) if max(n, k) > 6 else ())


def relabel_cycles(text: str, sigma: dict[int, int]) -> str:
    """Rename every point in cycle notation; this conjugates each generator by sigma."""
    return re.sub(r"\d+", lambda m: str(sigma[int(m.group())]), text)


def corpus_text(rng: random.Random | None) -> str:
    """The generated corpus; with an rng, every group's points are relabelled at random."""
    lines = []
    for name, domain, gens in GENERATED_GROUPS:
        points = list(range(1, domain + 1))
        if rng is not None:
            rng.shuffle(points)
        sigma = dict(zip(range(1, domain + 1), points))
        lines.append(f"{name} {domain} {relabel_cycles(gens, sigma)}")
    return "\n".join(lines) + "\n"


def build(workload: str, rng: random.Random | None, corpus_path: Path) -> list[Request]:
    """The requests of one pass, in canonical order; group-lab writes its corpus file."""
    if workload == "engine-large":
        return [Request("poly", poly_key(n, k, m), poly_argv(n, k, m)) for n, k, m in ENGINE_LARGE_CASES]
    if workload == "engine-small":
        return [Request("lib", poly_key(n, k, m)) for n, k, m in ENGINE_SMALL_CASES]
    if workload == "oracle-verify":
        reqs = [
            Request("verify", f"{n}:{k}:{m}:{qs}",
                    ("verify", "--n", str(n), "--k", str(k), "--mode", m, "--q", qs, "--format", "json"))
            for m, n, k, qs in VERIFY_CASES
        ]
        n, qs = CENSUS_CASE
        reqs.append(Request("census", f"{n}:{qs}", ("census", "--n", str(n), "--q", qs, "--format", "json")))
        return reqs
    if workload == "group-lab":
        corpus_path.write_text(corpus_text(rng), encoding="utf-8")
        return [
            Request("divisibility", "packaged", ("divisibility", "--format", "json")),
            Request("divisibility", "generated", ("divisibility", "--format", "json", "--corpus", str(corpus_path))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
