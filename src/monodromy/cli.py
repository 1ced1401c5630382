"""The ``monodromy`` command: the argument parser, the dispatch and the exit codes.

``main`` parses the arguments, imports the one front-end module that the
subcommand runs and prints what it returns: ``cli_engine`` runs ``poly``,
``cli_oracle`` runs ``verify`` and ``census``, and ``cli_grouplab`` runs
``divisibility``.  Each command returns its document, its table renderer and
its verdict.  No front end imports this module: under ``python -m
monodromy.cli`` this file runs as ``__main__``, so importing
``monodromy.cli`` would compile and run it a second time.

Where no bytecode is cached (a fresh checkout, or ``PYTHONDONTWRITEBYTECODE``
set), every process compiles each of the package's modules it imports, so
each subcommand imports only its own front end and layers.

``entry``, which ``python -m monodromy.cli`` and the ``monodromy`` script
run, ends the process with ``os._exit`` once the atexit callbacks have run
and stdout and stderr are flushed, which skips about 8 ms of interpreter
teardown per run.  That is safe while three things hold when ``main``
returns: the program holds no open file, has started no thread and has
registered no atexit callback of its own.  A command that breaks one of
them must change ``entry``.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from . import Refusal

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# what ``monodromy --help`` prints above the subcommands, reflowed by argparse
DESCRIPTION = """Command-line front end: poly, verify, census, divisibility.

Exit codes: 0 success, 1 verification mismatch, 2 a refusal (``Refusal``)
or OS error, 3 any other failure (an internal invariant violation).  JSON
output is deterministic (sorted keys, fixed layout) so repeated runs are
byte-identical.

Each subcommand imports only its own layers: ``poly`` loads the engine
but neither the oracle nor the group lab, ``verify`` the engine and the
oracle, ``census`` the oracle, and ``divisibility`` the group lab alone;
neither of the last two loads the engine.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monodromy", description=DESCRIPTION)
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


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json  # only a string that needs an escape loads json, so the escapes are json's own
    return json.dumps(s)


# how json writes each scalar type; only these exact types, so a subclass such as an IntEnum is refused
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, newline: str, put) -> None:
    """Put the pieces of ``json.dumps(value, sort_keys=True, indent=2)``, nested at ``newline``'s indent.

    The json package is imported only to write a string that needs an
    escape (``_json_str``).  Every string of the packaged corpus and of the
    benchmark's requests is printable ASCII with no quote or backslash, so
    those runs never load it.  Anything json would write differently, such as
    a float or a non-str key, raises ``TypeError`` rather than print wrongly.
    """
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        put(scalar(value))
        return
    inner = newline + "  "
    if kind is dict:
        if not value:
            put("{}")
            return
        sep = "{"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            put(sep + inner + _json_str(key) + ": ")
            _write_json(value[key], inner, put)
            sep = ","
        put(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        sep = "["
        for item in value:
            put(sep + inner)
            _write_json(item, inner, put)
            sep = ","
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(doc: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        pieces: list[str] = []
        _write_json(doc, "\n", pieces.append)
        print("".join(pieces))
    else:
        for line in table_lines(doc):
            print(line)


def _command(name: str):
    """The front-end function that runs one subcommand, imported only now."""
    if name == "poly":
        from .cli_engine import poly
        return poly
    if name == "divisibility":
        from .cli_grouplab import divisibility
        return divisibility
    from . import cli_oracle
    return cli_oracle.verify if name == "verify" else cli_oracle.census


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, table_lines, ok = _command(args.command)(args)
        _emit(doc, args.format, table_lines)
        return EXIT_OK if ok else EXIT_MISMATCH
    except (Refusal, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # any other failure is a broken invariant, never a mismatch (exit 1)
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    """Run ``main`` on the command line and end the process once its output is out.

    With no trace or profile function set and no ``-i``, the atexit
    callbacks run first, then stdout and stderr are flushed (a stream that is
    ``None``, as under ``>&-``, is skipped), and ``os._exit`` ends the process
    without the interpreter's teardown.  That is safe because at this point
    the program holds no open file, has started no thread and has
    registered no atexit callback of its own; what is skipped is freeing
    objects and module dicts, on which neither the output nor the exit code
    depends.  A command that starts a thread or leaves a file open must
    change this.  A flush that fails, such as a write to a full disk, prints
    ``error: <exc>`` and exits 2, like every other OS error, and the failed
    buffer is never flushed again.

    Under a tracer or profiler (``python -m cProfile``, ``python -m trace``,
    coverage) or ``python -i`` this ends with ``sys.exit`` instead, so their
    reports or the prompt still follow.  ``main`` ends no process, so
    in-process callers keep the normal exit.
    """
    code = main(sys.argv[1:])
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        code = EXIT_INVALID
        try:
            if sys.stderr is not None:
                print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass  # stderr is what failed, so only the exit code can report it
    os._exit(code)


if __name__ == "__main__":
    entry()
