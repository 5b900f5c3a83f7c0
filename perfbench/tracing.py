"""Per-layer replay of CLI operations through annrev's public API.

After each checked CLI call the traced run replays the same operation as
the public calls the CLI makes, one span per call (name, start, end,
operation id, parent), then probes the lattice and valuation layers on the
operation's own elements.  Spans stay in memory and are written when the
run ends.

Layer metrics and the end-to-end metric each should move (a faster layer
saves at most its share of the blocking time, since one caller runs
everything in sequence):

- engine: ``engine.enumerate_ms``, ``engine.candidate_us``,
  ``engine.revisions_per_candidate`` move ``ops_per_s`` and ``op_p90_ms``
  on ``revise`` and nothing on ``load``; ``engine.verify_ms``,
  ``engine.nc_ms``, ``engine.check_ms``, ``engine.fixpoint_iters_max`` move
  ``op_p50_ms`` and ``op_p90_ms`` on ``verify`` and nothing on ``load``.
- lattice: ``lattice.validate_ms`` (``validate(doc.lattice)`` replayed)
  moves ``load`` and stays small on ``revise``/``verify``;
  ``lattice.pcomp_us`` moves ``verify`` through the mpt reduct;
  ``lattice.leq_ns``/``join_ns``/``meet_ns``/``complement_ns`` move ``revise``
  (the inner loop) and ``load`` (the axiom scan).
- textio: ``textio.parse_ms``, ``textio.serialize_ms``, ``textio.share``
  move ``load`` and, less, ``verify``.
- valuation: ``valuation.diff_ms``, ``valuation.apply_change_us`` move
  ``verify``.
- syntax: ``syntax.translate_ms`` moves ``load``.
- isomorphism: ``isomorphism.apply_iso_ms`` moves ``load``.
- cli: ``cli.overhead_ms``, ``cli.share`` move every workload, most on its
  cheapest operations.

Per-call metrics (``_ms``, ``_us``, ``_ns``) are means over the calls made.
A layer call no command of the workload makes is probed once per document
on that document (see ``CALLS``), so each per-call metric is measured on
every workload; off ``revise``, enumeration is probed on a one-atom slice
of the program.  Shares are layer time over the replayed time of all
operations and count replayed calls only, never probes: ``textio.share``
counts parse time minus the replayed validation, ``lattice.share`` that
validation plus the ``validate`` command's own call, ``cli.overhead_ms``
and ``cli.share`` the replay time outside every layer call (argument
parsing, file reads, rendering).  ``trace_overhead_ratio`` is replayed
time over the untraced CLI time of the same operations.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

from annrev import cli, engine, textio
from annrev.engine import FITTING, MPT
from annrev.isomorphism import PairIso, PairMap, apply_iso
from annrev.lattice import pair_space, validate
from annrev.syntax import NEW, OLD, Program, tr1, tr2
from annrev.valuation import PairValuation, apply_change, diff, transformable

PROBE_PAIRS = 64
PROBE_CALLS = 2000

# The layer calls each command's replay makes.  A workload whose commands
# never make one of PROBED gets it probed once per document instead, on
# that document's data, so every per-call metric is measured on every
# workload; probes count in no share.
CALLS = {
    "revise": {"engine.enumerate"},
    "verify": {"engine.verify"},
    "nc": {"engine.nc"},
    "check": {"engine.check"},
    "diff": {"valuation.diff"},
    "validate": set(),
    "translate": {"syntax.translate"},
    "shift": {"syntax.translate", "isomorphism.apply_iso"},
}
PROBED = ("engine.enumerate", "engine.verify", "engine.nc", "engine.check",
          "valuation.diff", "syntax.translate", "isomorphism.apply_iso")


class Tracer:
    def __init__(self, ops):
        called = set().union(*(CALLS[op.command] for op in ops))
        self.probe_layers = [name for name in PROBED if name not in called]
        self.probed_docs = set()
        self.spans = []
        self.cli_s = []
        self.replay_s = []
        self.overhead_s = []
        self.candidates = 0
        self.revisions = 0
        self.fixpoint_iters = 0
        self.probes = {k: [] for k in ("leq", "join", "meet", "complement", "pcomp",
                                       "apply_change")}

    def _call(self, name, op_id, fn, *args, parent="replay"):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append((name, t0, time.perf_counter_ns(), op_id, parent))
        return out

    def replay(self, op, argv, cli_seconds):
        self.cli_s.append(cli_seconds)
        first = len(self.spans)
        t0 = time.perf_counter_ns()
        doc, changes = self._replay(op, argv)
        t1 = time.perf_counter_ns()
        layers = sum(b - a for _, a, b, _, _ in self.spans[first:])
        self.spans.append(("replay", t0, t1, op.id, None))
        self.replay_s.append((t1 - t0) / 1e9)
        self.overhead_s.append((t1 - t0 - layers) / 1e9)
        self._probe(op.id, doc, changes)
        if op.doc_name not in self.probed_docs:
            self.probed_docs.add(op.doc_name)
            self._probe_layers(op.id, doc)

    def _replay(self, op, argv):
        """What ``annrev.cli`` does for this operation: argument parsing, file
        read, the public layer calls in order (one span each) and rendering
        the answer.  Returns the parsed document and any change valuations
        computed."""
        call, oid = self._call, op.id
        cli.build_parser().parse_args(argv)
        with open(argv[1], encoding="utf-8") as fh:
            text = fh.read()
        doc = call("textio.parse", oid, textio.parse, text)
        prog, cmd = doc.program, op.command
        changes = []
        if cmd == "validate":
            report = call("lattice.validate", oid, validate, doc.lattice)
            payload = {"ok": report.ok, "failures": list(report.failures),
                       "atoms": len(doc.universe), "rules": len(prog.rules)}
        elif cmd == "nc":
            nc = call("engine.nc", oid, engine.necessary_change, prog)
            changes.append(nc)
            payload = {"necessary_change": call("textio.serialize", oid,
                                                textio.valuation_to_json, nc)}
        elif cmd == "check":
            target = doc.candidate if doc.candidate is not None else doc.init
            model, smodel = call("engine.check", oid, lambda: (
                engine.is_model(prog, target), engine.is_smodel(prog, target)))
            payload = {"model": model, "smodel": smodel}
        elif cmd == "verify":
            payload = {}
            for s in (MPT, FITTING):
                o = call("engine.verify", oid, engine.is_justified_revision,
                         prog, doc.init, doc.candidate, s)
                changes.append(o.necessary_change)
                self.fixpoint_iters = max(self.fixpoint_iters, len(o.trace))
                payload[s] = call("textio.serialize", oid, textio.outcome_to_json, o)
        elif cmd == "revise":
            s = argv[argv.index("--semantics") + 1]
            outs = call("engine.enumerate", oid, engine.enumerate_revisions,
                        prog, doc.init, s)
            self.candidates += len(pair_space(doc.lattice)) ** len(doc.universe)
            self.revisions += len(outs)
            for o in outs:
                changes.append(o.necessary_change)
                self.fixpoint_iters = max(self.fixpoint_iters, len(o.trace))
            stats = {"atoms": len(doc.universe), "rules": len(prog.rules),
                     "revisions": len(outs)}
            payload = call("textio.serialize", oid, textio.revisions_to_json,
                           s, outs, stats)
        elif cmd == "translate":
            fn = tr1 if doc.syntax == OLD else tr2
            out = call("syntax.translate", oid, fn, prog)
            new = textio.Document(doc.lattice, NEW if fn is tr1 else OLD, doc.universe, out,
                                  doc.init, doc.candidate, doc.iso)
            payload = call("textio.serialize", oid, textio.serialize_document, new)
        elif cmd == "shift":
            with open(argv[argv.index("--iso") + 1], encoding="utf-8") as fh:
                iso_text = fh.read()
            iso = call("textio.parse_iso", oid, textio.parse_iso, iso_text,
                       doc.lattice, doc.universe)
            if prog.syntax == OLD:
                prog = call("syntax.translate", oid, tr1, prog)
            prog, init, cand = (
                None if x is None else call("isomorphism.apply_iso", oid, apply_iso, iso, x)
                for x in (prog, doc.init, doc.candidate))
            call("isomorphism.preserves_conflation", oid, iso.preserves_conflation)
            new = textio.Document(doc.lattice, NEW, doc.universe, prog, init, cand, None)
            payload = call("textio.serialize", oid, textio.serialize_document, new)
        elif cmd == "diff":
            payload = call("valuation.diff", oid, lambda: (
                transformable(doc.init, doc.candidate), diff(doc.candidate, doc.init)))
            payload = {"transformable": payload[0],
                       "diff": call("textio.serialize", oid, textio.valuation_to_json,
                                    payload[1])}
        else:
            raise ValueError(f"no replay for {cmd!r}")
        print(payload if isinstance(payload, str) else json.dumps(payload, indent=2),
              file=io.StringIO())
        return doc, changes

    def _probe_layers(self, oid, doc):
        """One call of each layer in ``probe_layers`` on the document.  The
        target valuation is the candidate, else init; enumeration runs on
        the one-atom slice of the program (the whole program is far beyond
        brute force outside ``revise``) and only on finite lattices."""
        prog, lat, init = doc.program, doc.lattice, doc.init
        target = doc.candidate if doc.candidate is not None else init

        def call(name, fn, *args):
            return self._call(name, oid, fn, *args, parent="probe")

        for name in self.probe_layers:
            if name == "engine.verify":
                o = call(name, engine.is_justified_revision, prog, init, target, MPT)
                self.fixpoint_iters = max(self.fixpoint_iters, len(o.trace))
            elif name == "engine.nc":
                call(name, engine.necessary_change, prog)
            elif name == "engine.check":
                call(name, lambda: (engine.is_model(prog, target),
                                    engine.is_smodel(prog, target)))
            elif name == "valuation.diff":
                call(name, lambda: (transformable(init, target), diff(target, init)))
            elif name == "syntax.translate":
                call(name, tr1 if prog.syntax == OLD else tr2, prog)
            elif name == "isomorphism.apply_iso":
                pairs = tr1(prog) if prog.syntax == OLD else prog
                call(name, apply_iso, PairIso(lat, {}, PairMap.swap(lat)), pairs)
            elif name == "engine.enumerate" and lat.is_finite:
                a = max(doc.universe, key=lambda x: sum(_atoms(r) == {x} for r in prog.rules))
                sliced = Program(prog.syntax, lat, (a,),
                                 [r for r in prog.rules if _atoms(r) == {a}])
                outs = call(name, engine.enumerate_revisions, sliced,
                            PairValuation.build(lat, (a,), {a: init[a]}), MPT)
                self.candidates += len(pair_space(lat))
                self.revisions += len(outs)

    def _timed(self, name, op_id, calls, fn):
        """Mean ns per call of ``fn`` run ``calls`` times inside one span."""
        t0 = time.perf_counter_ns()
        fn()
        t1 = time.perf_counter_ns()
        self.spans.append((name, t0, t1, op_id, "probe"))
        return (t1 - t0) / calls

    def _probe(self, oid, doc, changes):
        # The lattice validation that parsing ran, replayed on its own.
        self._call("lattice.validate_probe", oid, validate, doc.lattice, parent="probe")
        lat = doc.lattice
        elems = []
        for r in doc.program.rules:
            for a in (r.head,) + r.body:
                elems += [a.ann] if doc.syntax == OLD else [a.ann.pos, a.ann.neg]
        elems = (elems or list(lat.elements()))[:PROBE_PAIRS + 1]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        reps = max(1, PROBE_CALLS // len(pairs))
        n = reps * len(pairs)

        def loop(f):
            return lambda: [f(x, y) for _ in range(reps) for x, y in pairs]

        p = self.probes
        p["leq"].append(self._timed("lattice.leq", oid, n, loop(lambda x, y: x <= y)))
        p["join"].append(self._timed("lattice.join", oid, n, loop(lambda x, y: x | y)))
        p["meet"].append(self._timed("lattice.meet", oid, n, loop(lambda x, y: x & y)))
        p["complement"].append(self._timed("lattice.complement", oid, n,
                                           loop(lambda x, y: ~x)))
        init = doc.init
        if init is not None:
            # The mpt reduct's calls: pcomp(init side, body annotation side).
            pc = []
            for r in doc.program.rules:
                for b in r.body:
                    if doc.syntax == OLD:
                        held = init[b.ratom.atom]
                        pc.append((held.pos if b.ratom.polarity == "in" else held.neg, b.ann))
                    else:
                        held = init[b.atom]
                        pc += [(held.pos, b.ann.pos), (held.neg, b.ann.neg)]
            pc = pc[:PROBE_PAIRS]
            if pc:
                p["pcomp"].append(self._timed("lattice.pcomp", oid, len(pc), lambda: [
                    lat.pcomp(x, y) for x, y in pc]) / 1e3)
            for c in changes[:1]:
                p["apply_change"].append(self._timed(
                    "valuation.apply_change", oid, 10,
                    lambda: [apply_change(init, c) for _ in range(10)]) / 1e3)

    def metrics(self):
        total_cli = sum(self.cli_s)
        total_replay = sum(self.replay_s)
        per_name, replayed = {}, {}
        for name, t0, t1, _, parent in self.spans:
            per_name.setdefault(name, []).append((t1 - t0) / 1e9)
            if parent == "replay":
                replayed[name] = replayed.get(name, 0.0) + (t1 - t0) / 1e9

        def total(*names):
            """Replayed time in the named spans: the operations' own work."""
            return sum(replayed.get(n, 0.0) for n in names)

        def mean_ms(name):
            v = per_name.get(name, ())
            return 1e3 * sum(v) / len(v) if v else 0.0

        def mean(v):
            return sum(v) / len(v) if v else 0.0

        engine_s = total("engine.enumerate", "engine.verify", "engine.nc", "engine.check")
        validate_probe = sum(per_name.get("lattice.validate_probe", ()))
        return {
            "engine.enumerate_ms": (mean_ms("engine.enumerate"), "ms"),
            "engine.candidate_us": (1e6 * sum(per_name.get("engine.enumerate", ()))
                                    / self.candidates if self.candidates else 0.0, "us"),
            "engine.revisions_per_candidate": (self.revisions / self.candidates
                                               if self.candidates else 0.0, "ratio"),
            "engine.verify_ms": (mean_ms("engine.verify"), "ms"),
            "engine.nc_ms": (mean_ms("engine.nc"), "ms"),
            "engine.check_ms": (mean_ms("engine.check"), "ms"),
            "engine.fixpoint_iters_max": (self.fixpoint_iters, "count"),
            "engine.share": (engine_s / total_replay, "ratio"),
            "lattice.validate_ms": (mean_ms("lattice.validate_probe"), "ms"),
            "lattice.pcomp_us": (mean(self.probes["pcomp"]), "us"),
            "lattice.leq_ns": (mean(self.probes["leq"]), "ns"),
            "lattice.join_ns": (mean(self.probes["join"]), "ns"),
            "lattice.meet_ns": (mean(self.probes["meet"]), "ns"),
            "lattice.complement_ns": (mean(self.probes["complement"]), "ns"),
            "lattice.share": ((validate_probe + total("lattice.validate")) / total_replay,
                              "ratio"),
            "textio.parse_ms": (mean_ms("textio.parse"), "ms"),
            "textio.serialize_ms": (mean_ms("textio.serialize"), "ms"),
            "textio.share": ((total("textio.parse", "textio.parse_iso", "textio.serialize")
                              - validate_probe) / total_replay, "ratio"),
            "valuation.diff_ms": (mean_ms("valuation.diff"), "ms"),
            "valuation.apply_change_us": (mean(self.probes["apply_change"]), "us"),
            "syntax.translate_ms": (mean_ms("syntax.translate"), "ms"),
            "isomorphism.apply_iso_ms": (mean_ms("isomorphism.apply_iso"), "ms"),
            "cli.overhead_ms": (1e3 * mean(self.overhead_s), "ms"),
            "cli.share": (sum(self.overhead_s) / total_replay, "ratio"),
            "trace_overhead_ratio": (total_replay / total_cli, "ratio"),
        }

    def write(self, path):
        rows = [{"name": n, "start_ns": a, "end_ns": b, "op": o, "parent": p}
                for n, a, b, o, p in self.spans]
        Path(path).write_text(json.dumps(rows) + "\n")


def _atoms(rule):
    """The atoms a rule of either syntax mentions."""
    return {getattr(a, "ratom", a).atom for a in (rule.head,) + rule.body}
