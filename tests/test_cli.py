"""The monodromy command line: subcommands, exit codes, determinism."""

import hashlib
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from monodromy import Refusal, cli, cli_engine, cli_oracle, decimal_str, engine, fforacle, groupdiv
from monodromy.exactpoly import UnivariatePoly

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_poly_table(capsys):
    status, out, err = run(capsys, "poly", "--n", "2", "--k", "2")
    assert status == 0
    assert "q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1" in out
    assert "degree bound 6: met" in out
    assert err == ""


# sha256 of the concatenated stdout of ``poly --n N --k K --mode M --format F --q 2,3,4,5,7`` for every
# n, k <= 5 and mode (mixed from k = 2), n slowest and mode fastest; recorded before the integer route
POLY_STDOUT_DIGESTS = {
    "json": "f88b7b3b663369c8aac7f0884429c83370b195ec3089cd1c9aa59bc4fcbadf95",
    "table": "e5d6c9a16b7a55bf5e7bb1c15ab17796e3045323bfd96bfba5a65898326a337c",
}


@pytest.mark.parametrize("fmt", list(POLY_STDOUT_DIGESTS))
def test_poly_stdout_bytes_are_pinned(capsys, fmt):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for k in range(1, 6):
            for mode in ("ss", "mixed", "conj"):
                if mode == "mixed" and k < 2:
                    continue
                status, out, err = run(capsys, "poly", "--n", str(n), "--k", str(k), "--mode", mode,
                                       "--format", fmt, "--q", "2,3,4,5,7")
                assert status == 0 and err == ""
                digest.update(out.encode())
    assert digest.hexdigest() == POLY_STDOUT_DIGESTS[fmt]


# the S5, A5 and D12 lines of the generated benchmark corpus, unrelabelled
GENERATED_CORPUS = (
    "S5 5 (1 2); (1 2 3 4 5)\n"
    "A5 5 (1 2 3); (3 4 5)\n"
    "D12 12 (1 2 3 4 5 6 7 8 9 10 11 12); (1 12)(2 11)(3 10)(4 9)(5 8)(6 7)\n"
)

# sha256 of the ``--format json`` stdout of each command, recorded while ``_emit`` still wrote through
# ``json.dumps(doc, sort_keys=True, indent=2)``; ``{corpus}`` names a file holding GENERATED_CORPUS
JSON_STDOUT_DIGESTS = {
    "divisibility-packaged": (("divisibility",),
                              "c459a6157aea678919ad3f495c6558cc65b1654a7714ad67be5dcc91879363fe"),
    "divisibility-generated": (("divisibility", "--corpus", "{corpus}"),
                               "b20171ccd2a41d6f2ad47bf4fc42846522c1cb3c9f80a1792ff22c4876d74453"),
    "census": (("census", "--n", "5", "--q", "2,3,4,5"),
               "5ca31bebbaf6e2991110ed0ba09a1bb0b4693cb5017c0ad3eb2c708a3e7fb844"),
    "verify-ss-2-2": (("verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "2,3,4,5,7"),
                      "6a821cfc103d3738b3d4433f8a3da82825b65eef2fb1237ab5600239ce378e18"),
    "verify-mixed-2-3": (("verify", "--n", "2", "--k", "3", "--mode", "mixed", "--q", "2,3,4,5"),
                         "933130bd77629a7f345373bd541ca99a5a5af10d22a88a55138b069c0d546423"),
    "verify-conj-2-2": (("verify", "--n", "2", "--k", "2", "--mode", "conj", "--q", "2,3,4,5"),
                        "56050513e20360d4b77be9805989a3958437cefaf396387d570fc41be872fa88"),
    "verify-ss-3-2": (("verify", "--n", "3", "--k", "2", "--mode", "ss", "--q", "2"),
                      "feebbfc43364cfee1042db1b8e626ef5059247062722ae3c9c0d2e2fc4e65d7a"),
    "verify-conj-3-2": (("verify", "--n", "3", "--k", "2", "--mode", "conj", "--q", "2"),
                        "778f52960b7a7386322b980ee7b7afa445779437df8254b8a927d16fd025d98d"),
}


@pytest.mark.parametrize("name", list(JSON_STDOUT_DIGESTS))
def test_json_stdout_bytes_are_pinned(capsys, tmp_path, name):
    corpus = tmp_path / "generated.txt"
    corpus.write_text(GENERATED_CORPUS, encoding="utf-8")
    argv, expected = JSON_STDOUT_DIGESTS[name]
    status, out, err = run(capsys, *(arg.format(corpus=corpus) for arg in argv), "--format", "json")
    assert status == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_poly_json_values(capsys):
    status, out, _ = run(capsys, "poly", "--n", "2", "--g", "1", "--q", "2,3", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["mode"] == "all-semisimple"
    assert doc["k"] == 2
    assert doc["values"] == {"2": "9", "3": "256"}
    assert doc["poly"]["coeffs"][0] == [1, 1]


def test_poly_prank_one_is_mixed(capsys):
    status, out, _ = run(capsys, "poly", "--n", "2", "--g", "1", "--prank", "1", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["mode"] == "mixed"
    # mixed counts carry no degree check, but do carry the Laurent quotient
    assert "degree" in doc and "laurentQuotient" in doc["checks"]
    assert "degree" not in doc["checks"]


def test_poly_conjugacy_mode(capsys):
    status, out, _ = run(capsys, "poly", "--n", "2", "--k", "2", "--mode", "conj", "--q", "2", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["mode"] == "conjugacy-classes"
    assert doc["values"] == {"2": "5"}
    assert doc["checks"] == {}


def test_poly_deterministic_output(capsys):
    _, first, _ = run(capsys, "poly", "--n", "3", "--k", "2", "--format", "json")
    _, second, _ = run(capsys, "poly", "--n", "3", "--k", "2", "--format", "json")
    assert first == second


def test_verify_ok(capsys):
    status, out, _ = run(capsys, "verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "2,3", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["allMatch"] is True
    assert [row["q"] for row in doc["rows"]] == [2, 3]
    assert doc["rows"][0]["predicted"] == doc["rows"][0]["actual"] == "9"


def test_verify_mixed_and_conj(capsys):
    status, out, _ = run(capsys, "verify", "--n", "2", "--k", "2", "--mode", "mixed", "--q", "2")
    assert status == 0
    assert "predicted 12, brute 12" in out
    status, out, _ = run(capsys, "verify", "--n", "2", "--k", "1", "--mode", "conj", "--q", "3")
    assert status == 0
    assert "predicted 6, brute 6" in out


def test_verify_mismatch_exits_one(capsys, monkeypatch):
    import monodromy.fforacle as fforacle

    monkeypatch.setattr(fforacle, "brute_hom_count", lambda *a, **k: 999)
    status, out, _ = run(capsys, "verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "2")
    assert status == 1
    assert "MISMATCH" in out


def test_census(capsys):
    status, out, _ = run(capsys, "census", "--n", "2", "--q", "2,3", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["allMatch"] is True
    assert len(doc["rows"]) == 6  # 3 types x 2 fields
    assert {row["actual"] for row in doc["rows"] if row["q"] == 3} == {"3", "2", "1"}


def test_census_prediction_with_a_remainder_exits_three(capsys, monkeypatch):
    # an integer count that the census cannot predict exactly is a broken invariant
    from monodromy import typecomb

    scaled = typecomb.scaled_type_count
    monkeypatch.setattr(typecomb, "scaled_type_count", lambda t, k: (scaled(t, k)[0], 2 * scaled(t, k)[1]))
    status, out, err = run(capsys, "census", "--n", "2", "--q", "3")
    assert status == 3 and "not an integer" in err
    assert out == ""


def test_divisibility_single_group(capsys):
    status, out, _ = run(capsys, "divisibility", "--group", "S3", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["allOk"] is True
    (group,) = doc["groups"]
    assert group["name"] == "S3" and group["order"] == 6
    assert group["cosetLemma"]["failures"] == []
    assert len(group["homReports"]) == 12  # k in 1..3 times four prime sets


def test_divisibility_flags(capsys):
    status, out, _ = run(
        capsys, "divisibility", "--group", "C6", "--k", "2", "--S", "3", "--n", "2", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    (group,) = doc["groups"]
    assert len(group["homReports"]) == 1
    assert group["homReports"][0]["S"] == [3]
    assert [row["n"] for row in group["frobenius"]] == [2]
    status, out, _ = run(capsys, "divisibility", "--group", "C6", "--S", "none", "--k", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["groups"][0]["homReports"][0]["S"] == []


def test_divisibility_custom_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("C4 4 (1 2 3 4)\n", encoding="utf-8")
    status, out, _ = run(capsys, "divisibility", "--corpus", str(path), "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert [g["name"] for g in doc["groups"]] == ["C4"]


def test_divisibility_one_point_domain(capsys, tmp_path):
    # the trivial group on one point: a one-point column getter returns a scalar, not a tuple
    path = tmp_path / "groups.txt"
    path.write_text("T 1 ()\nC2 2 (1 2)\n", encoding="utf-8")
    status, out, _ = run(capsys, "divisibility", "--corpus", str(path))
    assert status == 0 and out.endswith("all ok\n")


def test_divisibility_empty_corpus_exit_two(capsys, tmp_path):
    # a corpus of comments and blank lines checks nothing, so it must not pass
    path = tmp_path / "corpus.txt"
    path.write_text("# no groups here\n\n   \n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(path))
    assert status == 2 and "error:" in err and "no groups" in err
    assert out == ""


@pytest.mark.parametrize(
    "content", [b"C4 4 (1 2 3 4\n", b"\xff\xfe C4 4 (1 2 3 4)\n"], ids=["bad-line", "undecodable"]
)
def test_divisibility_bad_corpus_exit_two(capsys, tmp_path, content):
    path = tmp_path / "corpus.txt"
    path.write_bytes(content)
    status, out, err = run(capsys, "divisibility", "--corpus", str(path))
    assert status == 2 and err.startswith("error:") and str(path) in err
    assert out == ""


@pytest.mark.parametrize("line", ["X -2 ()", "Z 0 ()"], ids=["negative", "zero"])
def test_divisibility_domain_below_one_exit_two(capsys, tmp_path, line):
    # a group on no points would pass every check as the trivial group
    path = tmp_path / "corpus.txt"
    path.write_text(line + "\n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(path))
    assert status == 2 and err.startswith("error:") and "corpus line 1" in err
    assert out == ""


def test_divisibility_domain_above_ceiling_exit_two(capsys, monkeypatch, tmp_path):
    # refused as a malformed line before any permutation of the domain is built
    def must_not_run(*args, **kwargs):
        raise AssertionError("a permutation was built before the domain was checked")

    monkeypatch.setattr(groupdiv, "parse_cycles", must_not_run)
    path = tmp_path / "corpus.txt"
    path.write_text("# a billion points\nG 1000000000 (1 2); (1 2 3)\n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(path))
    assert (status, out) == (2, "")
    assert err.startswith("error:") and "corpus line 2: domain 1000000000 is not a number of points" in err


def test_divisibility_short_corpus_line_exit_two(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("X 3\n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(path))
    assert (status, out) == (2, "")
    assert err == f"error: {path}: corpus line 1: expected a name, a domain and generators\n"


@pytest.mark.parametrize("group", [None, "G"], ids=["all", "by-name"])
def test_divisibility_repeated_group_name_exit_two(capsys, tmp_path, group):
    # --group restricts to one group by name, so a name must not stand for two groups
    path = tmp_path / "corpus.txt"
    path.write_text("G 3 (1 2)\nG 3 (1 2 3)\n", encoding="utf-8")
    argv = ["divisibility", "--corpus", str(path)] + (["--group", group] if group else [])
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err == f"error: {path}: corpus line 2: group name 'G' repeats line 1\n"


@pytest.mark.parametrize("primes", ["4", "0", "2,9", ",", ""])
def test_divisibility_non_prime_s_exit_two(capsys, primes):
    status, out, err = run(capsys, "divisibility", "--group", "S3", "--S", primes)
    assert status == 2 and err.startswith("error:") and "--S needs primes" in err
    assert out == ""


def test_json_writer_escapes_names_as_json_does(capsys, tmp_path):
    # one group per awkward name: non-ASCII, astral, a quote, a backslash and DEL
    names = ["caf\u00e9", "\U0001d516", 'q"uote', "back\\slash", "del\x7f", "mixed\u00e9\U0001d516\"\\\x7f"]
    path = tmp_path / "names.txt"
    path.write_text("".join(f"{name} 2 (1 2)\n" for name in names), encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--format", "json", "--corpus", str(path))
    assert status == 0 and err == ""
    doc = json.loads(out)
    assert [g["name"] for g in doc["groups"]] == names
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_json_writer_matches_json_dumps():
    strings = ["", "plain", "\x00\x1f\b\f\n\r\t", "\u00ff\u0100\uffff", "\U00010000\U0010ffff", '"\\/', "\x7f~ "]
    doc = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "ints": [0, -1, 10**200, True, False, None],
        "nested": [[{"b": 1, "a": [2, (3,)]}], {}],
        "strings": strings,
        **{s: s for s in strings},
    }
    pieces = []
    cli._write_json(doc, "\n", pieces.append)
    assert "".join(pieces) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{"x": 1.5}, {"x": [0.5]}, {1: "one"}, {"x": {2: "two"}}, {"x": {"set"}}],
                         ids=["float", "nested-float", "int-key", "nested-int-key", "set"])
def test_json_writer_refuses_what_json_would_write_differently(capsys, monkeypatch, doc):
    with pytest.raises(TypeError):
        cli._emit(doc, "json", None)
    # from a command, the refusal is an internal failure: exit 3, nothing printed
    monkeypatch.setattr(cli, "_command", lambda name: lambda args: (doc, None, True))
    status, out, err = run(capsys, "divisibility", "--format", "json")
    assert (status, out) == (3, "") and err.startswith("internal invariant violated:")


def test_internal_value_error_exits_three(capsys, monkeypatch):
    # a ValueError that no input check turned into a usage error is a broken invariant
    def broken(n, k):
        raise ValueError("inconsistent memo entry")

    monkeypatch.setattr(engine, "count_semisimple_tuples", broken)
    status, out, err = run(capsys, "poly", "--n", "2", "--k", "2")
    assert status == 3 and "internal invariant violated: inconsistent memo entry" in err
    assert out == ""


def test_usage_errors_exit_two(capsys):
    # both shapes at once
    status, _, err = run(capsys, "poly", "--n", "2", "--k", "2", "--g", "1")
    assert status == 2 and "error:" in err
    # --mode with --g
    status, _, err = run(capsys, "poly", "--n", "2", "--g", "1", "--mode", "ss")
    assert status == 2
    # bad q list
    status, _, err = run(capsys, "poly", "--n", "2", "--k", "2", "--q", "2,x")
    assert status == 2
    # non prime power
    status, _, err = run(capsys, "verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "6")
    assert status == 2
    # unknown corpus group
    status, _, err = run(capsys, "divisibility", "--group", "Nope")
    assert status == 2


@pytest.mark.parametrize("q,message", [
    ("1", "--q needs integers >= 2, got '1'"),
    ("2,x", "bad --q list '2,x'"),
    (",", "--q needs integers >= 2, got ','"),
], ids=["below-two", "not-an-int", "empty"])
def test_poly_bad_q_refused_before_the_count(capsys, monkeypatch, q, message):
    def must_not_count(*args, **kwargs):
        raise AssertionError("the count ran before --q was checked")

    monkeypatch.setattr(cli_engine, "count_for", must_not_count)
    status, out, err = run(capsys, "poly", "--n", "24", "--k", "2", "--budget-override", "--q", q)
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_size_ceiling_and_override(capsys):
    status, _, err = run(capsys, "poly", "--n", "7", "--k", "2")
    assert status == 2 and "budget-override" in err
    status, _, _ = run(capsys, "poly", "--n", "7", "--k", "1", "--budget-override")
    assert status == 0


def test_divisibility_refuses_budget_override(capsys, tmp_path):
    # the subgroup sweep has no override, so the flag is refused rather than silently ignored
    corpus = tmp_path / "s6.txt"
    corpus.write_text("S6 6 (1 2); (1 2 3 4 5 6)\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["divisibility", "--corpus", str(corpus), "--budget-override"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-override" in capsys.readouterr().err


def test_divisibility_sweep_ceiling_exit_two(capsys, tmp_path):
    # S6 x C2 has order 1440, twice the subgroup sweep's ceiling
    corpus = tmp_path / "s6c2.txt"
    corpus.write_text("S6xC2 8 (1 2); (1 2 3 4 5 6); (7 8)\n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(corpus))
    assert (status, out, err) == (2, "", "error: subgroup sweep on order 1440 exceeds 720\n")


def test_divisibility_rank_ceiling_exit_two():
    # the tuple count runs k - 1 levels, so a rank past the ceiling is refused before any count
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "monodromy.cli", "divisibility", "--group", "S3", "--k", "1000000000"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: hom rank 1000000000 exceeds the ceiling 10000\n"


@pytest.mark.parametrize("k", ["10001", "1000000000"])
def test_divisibility_rank_refused_before_any_group_work(capsys, monkeypatch, tmp_path, k):
    # S6 first: its Frobenius counts and coset sweep would run before its hom count
    def must_not_run(*args, **kwargs):
        raise AssertionError("group work started before the hom rank was checked")

    monkeypatch.setattr(groupdiv, "coset_lemma_sweep", must_not_run)
    monkeypatch.setattr(groupdiv, "frobenius_count", must_not_run)
    corpus = tmp_path / "s6.txt"
    corpus.write_text("S6 6 (1 2); (1 2 3 4 5 6)\nC2 2 (1 2)\n", encoding="utf-8")
    status, out, err = run(capsys, "divisibility", "--corpus", str(corpus), "--k", k)
    assert (status, out, err) == (2, "", f"error: hom rank {k} exceeds the ceiling 10000\n")


@pytest.mark.parametrize("group", [None, "S7"], ids=["all", "by-name"])
def test_divisibility_sweep_refused_before_any_group_work(capsys, monkeypatch, tmp_path, group):
    # C2 and S6 first: their Frobenius counts and coset sweeps would run before S7's sweep refused
    def must_not_run(*args, **kwargs):
        raise AssertionError("group work started before every sweep order was checked")

    monkeypatch.setattr(groupdiv, "coset_lemma_sweep", must_not_run)
    monkeypatch.setattr(groupdiv, "frobenius_count", must_not_run)
    corpus = tmp_path / "s7.txt"
    corpus.write_text("C2 2 (1 2)\nS6 6 (1 2); (1 2 3 4 5 6)\nS7 7 (1 2); (1 2 3 4 5 6 7)\n", encoding="utf-8")
    argv = ["divisibility", "--corpus", str(corpus)] + (["--group", group] if group else [])
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (2, "", "error: subgroup sweep on order 5040 exceeds 720\n")


def test_divisibility_long_malformed_cycle_exits_two_at_once(tmp_path):
    # a pattern that can split the run of 40 digits in 2^39 ways would not refuse it within the timeout
    digits = "1" * 40
    corpus = tmp_path / "long.txt"
    corpus.write_text(f"G 5 ({digits}x)\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "monodromy.cli", "divisibility", "--corpus", str(corpus)],
        env=env, capture_output=True, text=True, timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {corpus}: corpus line 1: bad cycle notation: '({digits}x)'\n"


def test_passing_divisibility_builds_no_coset_check(capsys, monkeypatch):
    built = []
    check_class = groupdiv.CosetLemmaCheck

    def counted(*args):
        built.append(args)
        return check_class(*args)

    monkeypatch.setattr(groupdiv, "CosetLemmaCheck", counted)
    status, out, _ = run(capsys, "divisibility", "--format", "json")
    assert status == 0 and json.loads(out)["allOk"]
    assert built == []
    # the sweep does build its checks through the patched name once iterated
    sweep = groupdiv.coset_lemma_sweep(next(t for t in groupdiv.load_corpus() if t.name == "S4"))
    assert len(list(sweep)) == len(built) == len(sweep) > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_group_lab_requests_match_benchmark_goldens(capsys, monkeypatch, tmp_path, seed):
    # the benchmark's group-lab pass for this seed: the packaged corpus and the relabelled generated one
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    goldens = checks.load_goldens()
    requests = workloads.build("group-lab", random.Random(seed), tmp_path / "corpus.txt")
    assert [r.key for r in requests] == ["packaged", "generated"]
    for request in requests:
        status, out, err = run(capsys, *request.argv)
        assert err == ""
        assert checks.check_output(request, status, out, goldens) is None, request.key


def test_engine_small_counts_match_benchmark_goldens(monkeypatch):
    # the benchmark's library counts, each through the same document builder the benchmark uses
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    child = importlib.import_module("child")
    goldens = checks.load_goldens()
    requests = workloads.build("engine-small", None, None)
    assert len(requests) == len(workloads.ENGINE_SMALL_CASES) == 70
    for request, (n, k, mode) in zip(requests, workloads.ENGINE_SMALL_CASES):
        doc = child.poly_doc(engine, n, k, mode)
        assert checks.check_doc(request, doc, goldens) is None, request.key


def test_engine_large_requests_match_benchmark_goldens(capsys, monkeypatch):
    # the benchmark's CLI poly requests at n = 6 and 7, run in process
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    goldens = checks.load_goldens()
    requests = workloads.build("engine-large", None, None)
    assert len(requests) == len(workloads.ENGINE_LARGE_CASES)
    for request in requests:
        status, out, err = run(capsys, *request.argv)
        assert err == ""
        assert checks.check_output(request, status, out, goldens) is None, request.key


def test_scan_budget_exit_two(capsys):
    # |GL_3(F_4)| = 181440 is past the ceiling on |GL_n(F_q)|
    status, _, err = run(capsys, "verify", "--n", "3", "--k", "2", "--mode", "ss", "--q", "4")
    assert status == 2 and "|GL_3(F_4)| = 181440" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--k", "2", "--q", "3,4"],   # GL_3(F_4) is past the ceiling
    ["verify", "--n", "2", "--k", "2", "--q", "7,6"],   # 6 is not a prime power
    ["census", "--n", "7", "--q", "5,8"],               # 8^7 is past the census ceiling
    ["verify", "--n", "1", "--k", "1", "--q", "2,16"],  # F_16 has an unsupported degree
])
def test_q_list_refused_before_any_work(capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the whole --q list was checked")

    for name in ("brute_hom_count", "brute_conj_count", "poly_type_census"):
        monkeypatch.setattr(fforacle, name, must_not_run)
    monkeypatch.setattr(cli_oracle, "count_for", must_not_run)  # verify looks the count up here
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["census", "--n", "4", "--q", "343"], "census would scan 13841287201 polynomials; pass override to force"),
    (["census", "--n", "4", "--q", "2,343"], "census would scan 13841287201 polynomials; pass override to force"),
    (["verify", "--n", "3", "--k", "2", "--q", "9"],
     "|GL_3(F_9)| = 339655680 exceeds the ceiling 25000; pass override to force"),
    (["verify", "--n", "1", "--k", "1", "--q", "16"], "extension degree 4 not supported (use 1 <= e <= 3)"),
    # a size far past the ceiling is named by its form and never built
    (["census", "--n", "100000", "--q", "7"], "census would scan 7^100000 polynomials; pass override to force"),
], ids=["census", "census-list", "verify", "verify-degree", "census-huge"])
def test_field_ceiling_refused_before_field_tables(capsys, monkeypatch, argv, message):
    def must_not_build(self):
        raise AssertionError("field tables built before the ceiling was checked")

    monkeypatch.setattr(fforacle.FieldSpec, "_build_tables", must_not_build)
    # bypass the field cache so that any field request reaches the table build
    monkeypatch.setattr(fforacle, "field_make", fforacle.field_make.__wrapped__)
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("extra", [("--q", "343", "--budget-override"), ("--q", "2,343")], ids=["one-q", "q-list"])
def test_bad_mode_and_k_refused_before_field_tables(capsys, monkeypatch, extra):
    # the q list is checked from q alone, then the count refuses (mode, k); no field is built
    def must_not_build(self):
        raise AssertionError("field tables built before the count refused (mode, k)")

    monkeypatch.setattr(fforacle.FieldSpec, "_build_tables", must_not_build)
    monkeypatch.setattr(fforacle, "field_make", fforacle.field_make.__wrapped__)
    status, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--mode", "mixed", *extra)
    assert (status, out, err) == (2, "", "error: mixed tuples need k >= 2\n")


@pytest.mark.parametrize("layer,refusal,attr,argv", [
    (fforacle, "BudgetExceeded", "brute_hom_count", ["verify", "--n", "1", "--k", "1", "--q", "2"]),
    (fforacle, "UnsupportedField", "field_params", ["census", "--n", "2", "--q", "2"]),
    (groupdiv, "ClosureBudgetExceeded", "load_corpus", ["divisibility", "--group", "S3"]),
    (groupdiv, "PreconditionViolated", "frobenius_count", ["divisibility", "--group", "S3"]),
], ids=["BudgetExceeded", "UnsupportedField", "ClosureBudgetExceeded", "PreconditionViolated"])
def test_layer_refusals_exit_two(capsys, monkeypatch, layer, refusal, attr, argv):
    # the oracle and the group lab load only with their subcommands; their refusals still map to exit 2
    def refuse(*args, **kwargs):
        raise getattr(layer, refusal)("refused")

    monkeypatch.setattr(layer, attr, refuse)
    assert run(capsys, *argv) == (2, "", "error: refused\n")


def test_layer_refusals_are_refusals():
    # one base for exit 2; each class keeps the base its library callers catch
    for cls, base in [(engine.InvalidArity, ValueError), (fforacle.UnsupportedField, ValueError),
                      (fforacle.BudgetExceeded, RuntimeError), (groupdiv.ClosureBudgetExceeded, RuntimeError),
                      (groupdiv.PreconditionViolated, ValueError)]:
        assert issubclass(cls, Refusal) and issubclass(cls, base)


@pytest.mark.parametrize("layer,attr,argv", [
    (engine, "count_semisimple_tuples", ["poly", "--n", "2", "--k", "2"]),
    (fforacle, "brute_hom_count", ["verify", "--n", "1", "--k", "1", "--q", "2"]),
    (groupdiv, "frobenius_count", ["divisibility", "--group", "S3"]),
], ids=["poly", "verify", "divisibility"])
def test_unexpected_failure_exits_three(capsys, monkeypatch, layer, attr, argv):
    # an exception no layer names is a broken invariant (3), never a mismatch (1) or a traceback
    def broken(*args, **kwargs):
        raise KeyError("broken")

    monkeypatch.setattr(layer, attr, broken)
    assert run(capsys, *argv) == (3, "", "internal invariant violated: 'broken'\n")


def _decimal_value(text):
    """The integer a decimal string names, read in pieces short enough for ``int``."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10**len(piece) + int(piece)
    return sign * value


def test_decimal_str_any_length():
    for value in (0, 7, -7, 10**640 - 1, 10**640, -(10**5000) + 1, 3**20000):
        text = decimal_str(value)
        assert text.lstrip("-")[:1] != "0" or text == "0"
        assert _decimal_value(text) == value
    big = 10**5000
    assert str(UnivariatePoly((1, -big))) == f"-{decimal_str(big)}q + 1"


def test_counts_of_any_length_print(capsys):
    q = 10**1000 - 1
    status, out, err = run(capsys, "poly", "--n", "2", "--k", "2", "--q", str(q), "--format", "json")
    assert (status, err) == (0, "")
    value = _decimal_value(json.loads(out)["values"][str(q)])
    assert value == q**6 - 2 * q**5 - q**4 + 4 * q**3 - q**2 - 2 * q + 1
    status, out, err = run(capsys, "poly", "--n", "2", "--k", "2", "--q", str(q))
    assert (status, err) == (0, "")
    assert _decimal_value(out.splitlines()[-1].split(" = ")[1]) == value

    status, out, err = run(capsys, "divisibility", "--group", "C12", "--k", "5000", "--S", "none", "--format", "json")
    assert (status, err) == (0, "")
    (report,) = json.loads(out)["groups"][0]["homReports"]
    # C12 is abelian: every 5000-tuple commutes
    assert _decimal_value(report["homCount"]) == 12**5000
    assert _decimal_value(report["quotient"]) == 12**4999


@pytest.mark.parametrize("mode", ["ss", "mixed", "conj"])
def test_gl3f3_verify_without_override(capsys, mode):
    status, out, _ = run(capsys, "verify", "--n", "3", "--k", "2", "--mode", mode, "--q", "3")
    assert status == 0 and out.endswith("all match\n")


def test_large_prime_in_S_is_decided_at_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def divisibility(primes):
        return subprocess.run(
            [sys.executable, "-m", "monodromy.cli", "divisibility", "--group", "S3", "--k", "1", "--S", primes],
            env=env, capture_output=True, text=True, timeout=30,
        )

    assert divisibility("1000000000000000003").returncode == 0
    # 10^18 + 1 = 101 * 9901 * 999999000001
    assert divisibility("1000000000000000001").returncode == 2
    # the smallest composite that every Miller-Rabin base up to 41 passes is refused
    assert divisibility("3317044064679887385961981").returncode == 2


def test_unsupported_field_exit_two(capsys):
    status, _, err = run(capsys, "verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "11")
    assert status == 2


@pytest.mark.parametrize("command", ["verify", "census"])
def test_large_prime_q_exits_two_at_once(command):
    # q has no factor in the supported characteristics, so no scan up to q runs
    argv = [command, "--n", "1", "--q", "1000000007"] + (["--k", "1"] if command == "verify" else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "monodromy.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == "" and "not a power of a supported characteristic" in proc.stderr


def test_divisibility_deep_rank(capsys):
    status, out, _ = run(capsys, "divisibility", "--group", "S3", "--k", "1500", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["allOk"] is True and len(doc["groups"][0]["homReports"]) == 4


@pytest.mark.parametrize("command", ["poly", "verify"])
def test_k_zero_exit_two(capsys, command):
    status, out, err = run(capsys, command, "--n", "3", "--k", "0", "--q", "2")
    assert status == 2
    assert out == "" and "--k must be >= 1" in err


def test_poly_n9_beyond_ceiling(capsys):
    status, out, _ = run(capsys, "poly", "--n", "9", "--k", "2", "--budget-override", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["degree"] == 90
    assert doc["poly"]["coeffs"][-1] == [1, 1]
    assert doc["checks"]["degree"]["isMonic"] and doc["checks"]["degree"]["degreeExact"]
    assert all(den == 1 for _, den in doc["checks"]["laurentQuotient"]["coeffs"])


def _mismatch(*args, **kwargs):
    return 999


def _broken(n, k):
    raise ValueError("inconsistent memo entry")


# argv, the patch of test_verify_mismatch_exits_one or test_internal_value_error_exits_three, exit code
ENTRY_CASES = {
    "ok": (("poly", "--n", "1", "--k", "1"), None, 0),
    "refused": (("poly", "--n", "2", "--k", "0"), None, 2),
    "mismatch": (("verify", "--n", "2", "--k", "2", "--mode", "ss", "--q", "2"),
                 ("fforacle", "brute_hom_count", _mismatch), 1),
    "internal": (("poly", "--n", "2", "--k", "2"), ("engine", "count_semisimple_tuples", _broken), 3),
}


def entry_process(script, argv, **kwargs):
    """One child process that ends through ``cli.entry()``: ``python -c <script>``, or ``-m monodromy.cli`` if None."""
    env = kwargs.pop("env", dict(os.environ))
    env["PYTHONPATH"] = str(ROOT / "src")
    launch = ["-m", "monodromy.cli"] if script is None else ["-c", script]
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *launch, *argv], env=env, stderr=subprocess.PIPE,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("name", list(ENTRY_CASES))
def test_entry_exit_code_and_output_match_main(capsys, monkeypatch, name):
    # the command ends without the interpreter's teardown, so compare it with an in-process ``main``
    argv, patch, code = ENTRY_CASES[name]
    script = None
    if patch is not None:
        module, attr, replacement = patch
        monkeypatch.setattr(importlib.import_module(f"monodromy.{module}"), attr, replacement)
        script = (f"from monodromy import cli, {module}\n{inspect.getsource(replacement)}\n"
                  f"{module}.{attr} = {replacement.__name__}\ncli.entry()\n")
    status, out, err = run(capsys, *argv)
    proc = entry_process(script, argv)
    assert status == proc.returncode == code
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()


@pytest.mark.parametrize("name", ["ok", "refused"])
def test_entry_under_a_profiler_raises_system_exit(capsys, monkeypatch, name):
    # a trace or profile function keeps the normal exit, so its report can still print
    argv, _, code = ENTRY_CASES[name]
    monkeypatch.setattr("sys.argv", ["monodromy", *argv])
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
    finally:
        sys.setprofile(previous)
    assert exc.value.code == code


def test_entry_runs_atexit_callbacks_before_it_ends(capsys):
    status, out, _ = run(capsys, "poly", "--n", "1", "--k", "1")
    script = "import atexit\nfrom monodromy import cli\natexit.register(print, 'callback ran')\ncli.entry()\n"
    proc = entry_process(script, ("poly", "--n", "1", "--k", "1"))
    assert proc.returncode == status == 0
    assert proc.stdout == (out + "callback ran\n").encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_exits_two():
    # buffered stdout, so the write fails only when the output is flushed after main returns
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = entry_process(None, ("poly", "--n", "2", "--k", "2", "--format", "json"), env=env, stdout=full)
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def test_closed_stdout_exits_zero():
    # fd 1 closed before the interpreter starts, as ``>&-`` does, so sys.stdout is None
    proc = entry_process(None, ("poly", "--n", "2", "--k", "2"), stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("flags, stdin, marker", [
    (("-m", "cProfile"), "", "ncalls"),  # the profiler's report
    (("-i",), "print('prompt reached')\n", "prompt reached"),  # the interactive prompt
], ids=["cProfile", "inspect"])
def test_normal_exit_under_a_profiler_or_python_i(flags, stdin, marker):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-m", "monodromy.cli", "poly", "--n", "2", "--k", "2"],
                          env=env, input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1" in proc.stdout
    assert marker in proc.stdout
