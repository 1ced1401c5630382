"""The benchmark's traced mode wraps program attributes by name; keep them there."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_spans_install_finds_every_wrapped_attribute():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


HOOKED_RUN = """
import contextlib, io, sys
import spans
from monodromy import cli
tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [
        cli.main(["poly", "--n", "2", "--k", "2"]),
        cli.main(["verify", "--n", "2", "--k", "2", "--q", "2"]),
        cli.main(["divisibility", "--group", "S3"]),
    ]
assert statuses == [0, 0, 0], statuses
tracer.dump(sys.argv[1])
"""


def test_spans_hooks_read_what_the_program_returns(tmp_path):
    # a hook that misreads a changed return value fails here, not only in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    dump = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "-c", HOOKED_RUN, str(dump)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(dump.read_text(encoding="utf-8"))["counters"]
    for name in ("groupdiv.subgroups", "fforacle.matrices", "typecomb.types"):
        assert counters.get(name, 0) > 0, name
