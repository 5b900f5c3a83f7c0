"""annrev benchmark: answer-checked CLI operations, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload revise|verify|load --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

One process, one caller, closed loop: the next operation starts only after
the previous one returned.  Each operation is one ``annrev.cli.main`` call
with ``--format json`` and stdout captured, so it pays argparse, file read,
parse, lattice validation, compute and printing, as a user does.  Every
exit code and answer is compared with the answer ``reference.py`` computed
before timing started.  A run repeats its workload's fixed operation set a
whole number of times, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays each
operation as the public calls it makes, one span per call, and prints the
per-layer metrics (see ``tracing.py``).  The last line of stdout is the
result object; a record with inputs, per-operation medians and failures by
type is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.model import document_text  # noqa: E402
from perfbench.reference import Pairs, answer, compile_rules, least_fixpoint  # noqa: E402
from perfbench.selftest import brute_force_revisions, fixture_checks  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, build  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 20
WARNING = "does not preserve conflation"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every operation of every workload once against the "
                         "reference, and the reference against the fixture answers")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    return args


def import_cli():
    """annrev.cli from this checkout's ``src``; exits 2 when it is absent."""
    if not (ROOT / "src" / "annrev" / "cli.py").is_file():
        print(f"error: no annrev sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import annrev.cli
    return annrev.cli


def write_inputs(ops, workdir):
    for op in ops:
        path = workdir / f"{op.doc_name}.arp"
        if not path.exists():
            path.write_text(document_text(op.doc, canonical=False), encoding="utf-8")
        if op.iso_text is not None:
            (workdir / f"{op.doc_name}.iso").write_text(op.iso_text, encoding="utf-8")


def argv_for(op, workdir):
    args = list(op.args)
    if op.command == "shift":
        args[args.index("--iso") + 1] = str(workdir / f"{op.doc_name}.iso")
    return [op.command, str(workdir / f"{op.doc_name}.arp"), *args, "--format", "json"]


def call_cli(cli, argv):
    """One timed operation: (seconds, exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed operation, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), error


def first_difference(got, want, path=""):
    """JSON path of the first place two decoded answers differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            if k not in got or k not in want:
                return f"{path}/{k}"
            d = first_difference(got[k], want[k], f"{path}/{k}")
            if d:
                return d
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path} (length {len(got)}, want {len(want)})"
        for i, (g, w) in enumerate(zip(got, want)):
            d = first_difference(g, w, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if got == want else f"{path} ({json.dumps(got)}, want {json.dumps(want)})"


def failure_kind(expected, rc, stdout, stderr, error):
    """None when the operation answered as the reference did, else
    ``(kind, detail)``."""
    want_rc, want_out, want_warning = expected
    if error is not None:
        return "exception", error
    if rc != want_rc:
        return "exit_code", f"exit {rc}, want {want_rc}"
    if isinstance(want_out, str):
        if stdout != want_out:
            line = next((i for i, (g, w) in enumerate(
                zip(stdout.splitlines(), want_out.splitlines()), 1) if g != w), None)
            return "answer", f"text differs at line {line}"
    else:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return "answer", "stdout is not JSON"
        if got != want_out:
            return "answer", first_difference(got, want_out)
    if (WARNING in stderr) != want_warning:
        return "warning", f"conflation warning {'missing' if want_warning else 'unexpected'}"
    return None


def measure_setup(samples, count, warm=False):
    """Append ``count`` wall times of a fresh interpreter importing annrev.cli
    and building its parser; ``warm`` first makes one unmeasured start,
    which fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import annrev.cli; annrev.cli.build_parser()"]
    for i in range(count + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        if i or not warm:
            samples.append(time.perf_counter() - t0)


def input_properties(workload, ops, expected):
    docs = {op.doc_name: op.doc for op in ops}
    depth = max(len(least_fixpoint(Pairs(d.lat), d.universe, compile_rules(d))[1])
                for d in docs.values())
    props = {
        "documents": len(docs),
        "operations": len(ops),
        "atoms": [len(d.universe) for d in docs.values()],
        "rules": [len(d.rules) for d in docs.values()],
        "lattice_sizes": {d.props["lattice"]: d.lat.n for d in docs.values()},
        "deepest_derivation": depth,
    }
    verdicts, agreements, found = [], [], {}
    for op in ops:
        _, out, _ = expected[op.id]
        if op.command == "verify":
            verdicts += [out["mpt"]["verified"], out["fitting"]["verified"]]
            agreements.append(out["agreement"])
        if op.command == "revise":
            found.setdefault(op.doc_name, {})[out["semantics"]] = [
                r["valuation"] for r in out["revisions"]]
    agreements += [f["mpt"] == f["fitting"] for f in found.values()]
    if workload == "revise":
        spaces = [d.props["space"] for d in docs.values()]
        found = sum(len(f["mpt"]) for f in found.values())
        props["brute_force_space"] = {"min": min(spaces), "max": max(spaces),
                                      "total": sum(spaces)}
        props["justified_share"] = found / sum(spaces)
    elif verdicts:
        props["justified_share"] = sum(verdicts) / len(verdicts)
    if agreements:
        props["mpt_fitting_agreement"] = sum(agreements) / len(agreements)
    return props


def commit_id():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_loop(cli, ops, expected, workdir, seconds, per_op=None):
    """Whole rounds of the operation set until ``seconds`` have passed.
    ``per_op(op, argv, cli_seconds)`` runs after each checked operation,
    outside its timing."""
    latencies, by_op, failures = [], {op.id: [] for op in ops}, {}
    argvs = {op.id: argv_for(op, workdir) for op in ops}
    rounds = 0
    # The harness's own objects (inputs, expected answers) are not the
    # program's: keep them out of the collector's scans during timing.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            dt, rc, stdout, stderr, error = call_cli(cli, argvs[op.id])
            bad = failure_kind(expected[op.id], rc, stdout, stderr, error)
            if bad:
                failures.setdefault(bad[0], []).append((op.id, bad[1]))
            latencies.append(dt)
            by_op[op.id].append(dt)
            if per_op is not None:
                per_op(op, argvs[op.id], dt)
        rounds += 1
    return latencies, by_op, failures, rounds


def selftest(cli, seed):
    """Exit status 0 when the reference matches the fixtures and brute force
    and the CLI matches the reference on every operation."""
    ok = True
    fixture_ops, fixture_answers, checks = fixture_checks()
    for name, holds in checks:
        print(f"reference vs fixture: {name}: {'ok' if holds else 'MISMATCH'}")
        ok &= bool(holds)
    # The transcribed fixtures run twice: as written by the benchmark and
    # as the repository's own fixture files.
    suites = [("fixtures", fixture_ops, fixture_answers, None),
              ("fixture files", fixture_ops, fixture_answers, ROOT / "tests" / "fixtures")]
    for w in WORKLOADS:
        ops = build(w, seed)
        suites.append((w, ops, {op.id: answer(op) for op in ops}, None))
    # The timed revise workload runs one semantics per operation; this suite
    # runs each of its documents once under --semantics both.
    both = [Op(op.doc_name, "revise", ("--semantics", "both"), op.doc_name, op.doc)
            for n, ops, _, _ in suites if n == "revise"
            for op in ops if op.args[-1] == "mpt"]
    suites.append(("revise --semantics both", both,
                   {op.id: answer(op) for op in both}, None))

    brute = 0
    revise_ops, revise_answers = next((o, e) for n, o, e, _ in suites if n == "revise")
    for op in revise_ops:
        if op.doc.props["space"] <= 4096:
            want = [r["valuation"] for r in revise_answers[op.id][1]["revisions"]]
            if brute_force_revisions(op.doc, op.args[-1]) != want:
                print(f"change-space search vs brute force: {op.id}: MISMATCH")
                ok = False
            brute += 1
    print(f"change-space search vs brute force: {brute} revise operations checked")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="selftest-") as tmp:
        for name, ops, expected, workdir in suites:
            if workdir is None:
                workdir = Path(tmp) / name.replace(" ", "_")
                workdir.mkdir()
                write_inputs(ops, workdir)
            bad = 0
            for op in ops:
                _, rc, out, err, error = call_cli(cli, argv_for(op, workdir))
                failure = failure_kind(expected[op.id], rc, out, err, error)
                if failure:
                    bad += 1
                    print(f"  {op.id}: {failure[0]}: {failure[1]}")
            print(f"CLI vs reference: {name}: {len(ops) - bad}/{len(ops)} operations match")
            ok &= bad == 0
    print("selftest " + ("passed" if ok else "FAILED"), file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    if args.selftest:
        return selftest(cli, args.seed)

    t0 = time.perf_counter()
    ops = build(args.workload, args.seed)
    expected = {op.id: answer(op) for op in ops}
    reference_s = time.perf_counter() - t0
    props = input_properties(args.workload, ops, expected)

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "inputs": props, "reference_s": reference_s,
    }
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        workdir = Path(tmp)
        write_inputs(ops, workdir)
        if args.trace:
            from perfbench.tracing import Tracer
            tracer = Tracer(ops)
            latencies, by_op, failures, rounds = run_loop(
                cli, ops, expected, workdir, args.seconds, per_op=tracer.replay)
            metrics = tracer.metrics()
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            # The host's speed swings by a fifth within seconds: set-up
            # samples are taken one at a time between operations, spread
            # over the run, so that the swings reach them as they reach
            # the operations.
            setup_samples, next_sample = [], [0.0]

            def sample_setup(op, argv, cli_seconds):
                if time.perf_counter() >= next_sample[0]:
                    measure_setup(setup_samples, 1)
                    next_sample[0] = time.perf_counter() + args.seconds / SETUP_SAMPLES

            measure_setup(setup_samples, 0, warm=True)
            latencies, by_op, failures, rounds = run_loop(
                cli, ops, expected, workdir, args.seconds, per_op=sample_setup)
            record["setup_samples_s"] = setup_samples
            setup_s = statistics.median(setup_samples)
            metrics = {
                # Operations over the time spent inside them, whole rounds
                # only: a mean over the run, which the host's speed swings
                # of a few seconds each move far less than a median of a
                # few samples of the slowest operations.
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10,
                                                         method="inclusive")[8], "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    failed = sum(len(v) for v in failures.values())
    record.update({
        "rounds": rounds, "attempted": len(latencies), "failed": failed,
        "failures_by_type": {k: len(v) for k, v in failures.items()},
        "failed_ops": {k: dict(sorted(set(v))) for k, v in failures.items()},
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in by_op.items()},
        "command_median_ms": {
            cmd: 1e3 * statistics.median(
                [t for op in ops if op.command == cmd for t in by_op[op.id]])
            for cmd in sorted({op.command for op in ops})},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {len(latencies)} operations "
          f"(p90 over {len(latencies)} samples), {failed} failed", file=sys.stderr)
    for kind, where in record["failed_ops"].items():
        for op_id, detail in where.items():
            print(f"  failed: {op_id}: {kind}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
