"""Golden outputs, compared byte for byte with two files in ``fixtures/``:

- ``cli_golden.json``: stdout, stderr and exit code of every command on
  every fixture;
- ``parse_errors_golden.json``: the exception class and text (``null``
  when the text parses) of ``parse`` on seeded mutations of every ``.arp``
  fixture, and of ``parse_iso`` on mutations of the ``.iso`` fixture.  A
  mutation deletes, duplicates or swaps tokens, or puts in a character
  that starts no token, so the file pins the line, column and message of
  lexical, syntax and semantic errors alike.

Both files are written by running this module as a script with the
package to record on the path:

    PYTHONPATH=src python tests/test_cli_golden.py --write

Rewrite them only for an intended, recorded change of the output.
"""

import contextlib
import functools
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

from annrev import parse, parse_iso
from annrev.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
ERRORS_GOLDEN = FIXTURES / "parse_errors_golden.json"


# One document per lattice kind that no top-level fixture uses.  They sit
# in a subdirectory, out of the glob that seeds the parse-error mutations.
KINDS = ["kinds/two.arp", "kinds/chain5.arp", "kinds/grid3x3.arp"]


def cases():
    """Argument lists relative to the fixture directory, in a fixed order."""
    out = []
    for doc in sorted(p.name for p in FIXTURES.glob("*.arp")) + KINDS:
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


# Mutation material: comments are skipped, words, arrows and single
# characters are the tokens a mutation moves.  This split is independent
# of the library's lexer on purpose.
_CHUNK = re.compile(r"#[^\n]*|\w+|<-|->|\S")
_BAD = "@$!?%&~^|+-`'\"\\²½\x00\x0c"
_RUNS = (1, 1, 1, 2, 3, 5, 12)  # tokens one delete or duplicate covers
# The .iso fixture alone reaches the perm and iso-coverage errors, and it
# is short, so it gets more mutations.
MUTATIONS = {".arp": 120, ".iso": 600}


def mutations():
    """``(key, fixture name, text)`` for every mutation, in a fixed order."""
    rng = random.Random(31)
    out = []
    for name in sorted(p.name for p in FIXTURES.glob("*.arp")) + ["shift_cex.iso"]:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        spans = [m.span() for m in _CHUNK.finditer(text) if m.group()[0] != "#"]
        for n in range(MUTATIONS[Path(name).suffix]):
            op = rng.choice(("delete", "duplicate", "swap", "bad"))
            if op in ("delete", "duplicate"):
                i = rng.randrange(len(spans))
                j = min(i + rng.choice(_RUNS), len(spans)) - 1
                a, b, what = spans[i][0], spans[j][1], f"{i}-{j}"
                new = text[:a] + text[b:] if op == "delete" else (
                    text[:b] + " " + text[a:b] + text[b:])
            elif op == "swap":
                i = rng.randrange(len(spans) - 1)
                j = i + 1 if rng.random() < 0.5 else rng.randrange(i + 1, len(spans))
                (a, b), (c, d), what = spans[i], spans[j], f"{i} {j}"
                new = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
            else:
                k, ch = rng.randrange(len(text) + 1), rng.choice(_BAD)
                what = f"{k} {ch!r}"
                new = text[:k] + ch + text[k:]
            out.append((f"{name} {n:03d} {op} {what}", name, new))
    return out


@functools.cache
def _iso_target():
    doc = parse((FIXTURES / "shift_cex.arp").read_text(encoding="utf-8"))
    return doc.lattice, doc.universe


def parse_outcome(name, text):
    """``[exception class, str(exception)]`` of parsing ``text`` as the
    fixture ``name`` is parsed, or ``None`` when it parses."""
    try:
        if name.endswith(".iso"):
            parse_iso(text, *_iso_target())
        else:
            parse(text)
    except Exception as e:  # the golden file pins whatever escapes
        return [type(e).__name__, str(e)]
    return None


@functools.cache
def load_errors_golden():
    return json.loads(ERRORS_GOLDEN.read_text(encoding="utf-8"))


def test_parse_errors_golden_covers_every_mutation():
    golden = load_errors_golden()
    assert list(golden) == [key for key, _, _ in mutations()]
    assert sum(v is not None for v in golden.values()) >= 1000


def test_parse_errors_match_golden():
    golden = load_errors_golden()
    for key, name, text in mutations():
        assert parse_outcome(name, text) == golden[key], key


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(payload)} cases to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    _write(GOLDEN, {_key(a): run_case(a) for a in cases()})
    _write(ERRORS_GOLDEN, {key: parse_outcome(name, text) for key, name, text in mutations()})
