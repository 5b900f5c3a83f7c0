"""Golden CLI output: stdout, stderr and exit code of every command on every
fixture, compared byte for byte with ``fixtures/cli_golden.json``.

The golden file is written by running this module as a script with the
package to record on the path:

    PYTHONPATH=src python tests/test_cli_golden.py --write

Rewrite it only for an intended, recorded change of the CLI's output.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from annrev.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"


def cases():
    """Argument lists relative to the fixture directory, in a fixed order."""
    out = []
    for doc in sorted(p.name for p in FIXTURES.glob("*.arp")):
        for fmt in ("text", "json"):
            for cmd in ("validate", "nc", "check", "verify", "revise", "diff"):
                out.append([cmd, doc, "--format", fmt])
        for cmd in ("verify", "revise"):
            out.append([cmd, doc, "--semantics", "both"])
        for to in ("old", "new"):
            out.append(["translate", doc, "--to", to])
        out.append(["shift", doc, "--iso", "shift_cex.iso"])
    return out


def run_case(argv):
    """``[stdout, stderr, exit code]`` of one ``main`` call on ``argv``."""
    args = [str(FIXTURES / a) if a.endswith((".arp", ".iso")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return [out.getvalue(), err.getvalue(), code]


def _key(argv):
    return " ".join(argv)


@functools.cache
def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert list(load_golden()) == [_key(a) for a in cases()]


@pytest.mark.parametrize("argv", cases(), ids=_key)
def test_cli_output_matches_golden(argv):
    assert run_case(argv) == load_golden()[_key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    golden = {_key(a): run_case(a) for a in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
