"""mgslab benchmark: one serial closed-loop client, one mgslab process at a time.

    python3 perfbench/run.py --workload enumerate|verify|crosscheck \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Prints a table of every metric with its unit,
then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-module
metrics with --trace 1).  Times are in seconds at reference speed (see
reference.py).  The full record, with the digest of every op's output, goes
to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import workloads
from tracer import LAYER_SPANS, layer_units, self_times

perf = time.perf_counter
HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 100
SETUP_SAMPLES = 9
SETUP_CODE = """\
import sys
import mgslab.cli
from mgslab.algebra import load_algebra, validate_axioms
for path in sys.argv[1:]:
    if not validate_axioms(load_algebra(path)).is_string_algebra:
        sys.exit(3)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB", "complete_ratio": "ratio"}
def child_env(root: Path) -> dict:
    """The caller's environment plus `src` on PYTHONPATH and one thread."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    env["MGSLAB_THREADS"] = "1"
    return env


class Child:
    """Run one process to completion; keep its stdout, exit code, latency
    and peak RSS (from its own rusage)."""

    def __init__(self, argv, env, root, errfile):
        t0 = perf()
        with open(errfile, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=env, cwd=root)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            self.stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.seconds = perf() - t0
        self.rss_mb = usage.ru_maxrss / 1024
        self.stderr = Path(errfile).read_text(errors="replace")[-2000:]


class Runner:
    def __init__(self, wl: workloads.Workload, root: Path, work: Path):
        self.wl, self.root, self.work = wl, root, work
        self.env = child_env(root)
        self.py = sys.executable
        self.err = work / "stderr.txt"
        # One seeded op order, kept for every pass: crosscheck ops share
        # caches, so an op's cost depends on what ran before it.
        self.order = list(wl.ops)
        random.Random(f"order:{wl.seed}").shuffle(self.order)
        self.failures: dict[str, list[str]] = {}
        self.refs: list[float] = []

    def fail(self, op_name, message):
        self.failures.setdefault(op_name, []).append(message)

    def bracket(self) -> reference.Bracket:
        return reference.Bracket(lambda: reference.run(self.env, self.root))

    # --- set-up ------------------------------------------------------------
    def setup_times(self) -> list[float]:
        """Set-up samples in seconds at reference speed."""
        paths = [workloads.alg_path(a) for a in self.wl.algebras]
        argv = [self.py, "-c", SETUP_CODE, *paths]
        samples = []
        bracket = self.bracket()
        for i in range(SETUP_SAMPLES + 1):
            c = Child(argv, self.env, self.root, self.err)
            if c.code != 0:
                raise SystemExit(f"set-up failed ({c.code}): {c.stderr}")
            if i:  # the first run also writes bytecode caches
                samples.append({"raw_s": c.seconds})
                bracket.done(samples[-1])
        bracket.flush()
        self.refs.extend(bracket.times)
        return [s["seconds"] for s in samples]

    # --- one pass ----------------------------------------------------------
    def cli_pass(self, ops, traced: bool):
        """Each op is a fresh process; returns (raw wall outside the ops and
        the references, records)."""
        records = []
        t0 = perf()
        bracket = self.bracket()
        for k, op in enumerate(ops):
            if traced:
                spans = self.work / f"spans-{k}.json"
                argv = [self.py, str(HERE / "tracer.py"), str(spans), repr(perf()),
                        "--", *op.argv]
            else:
                argv = [self.py, "-m", "mgslab.cli", *op.argv]
            c = Child(argv, self.env, self.root, self.err)
            if c.code not in (0, 1, 4):
                self.fail(op.name, f"exit {c.code}: {c.stderr}")
            rec = {"op": op.name, "raw_s": c.seconds, "code": c.code, "rss_mb": c.rss_mb,
                   "digest": hashlib.sha256(c.stdout).hexdigest(), "stdout": c.stdout}
            if traced:
                rec["trace"] = json.loads(spans.read_text())
            records.append(rec)
            bracket.done(rec)
        bracket.flush()
        self.refs.extend(bracket.times)
        outside = perf() - t0 - sum(bracket.times) - sum(r["raw_s"] for r in records)
        return outside, records

    def inprocess_pass(self, ops, traced: bool):
        """The whole pass in one fresh process; op latencies come from it."""
        plan = self.work / "plan.json"
        out = self.work / "ops.json"
        spans = self.work / "spans-pass.json"
        plan.write_text(json.dumps({
            "algebras": {a: workloads.alg_path(a) for a in self.wl.algebras},
            "chunk": workloads.CROSSCHECK_CHUNK,
            "ops": [{"name": o.name, "kind": o.kind, "algebra": o.algebra,
                     "expect": o.expect} for o in ops]}))
        argv = [self.py, str(HERE / "crosscheck.py"), str(plan), str(out)]
        if traced:
            argv += [str(spans), repr(perf())]
        c = Child(argv, self.env, self.root, self.err)
        if c.code != 0:
            for op in ops:
                self.fail(op.name, f"crosscheck process exit {c.code}: {c.stderr}")
            return 0.0, [], c.rss_mb
        done = json.loads(out.read_text())
        refs, records = done["refs"], done["ops"]
        self.refs.extend(refs)
        for rec in records:
            rec["op"] = rec.pop("name")
            rec["stdout"] = {key: v for key, v in rec.items()
                             if key not in ("raw_s", "ref_s", "seconds")}
        if traced and records:
            records[0]["trace"] = json.loads(spans.read_text())
        outside = c.seconds - sum(refs) - sum(r["raw_s"] for r in records)
        return outside, records, c.rss_mb

    def run_pass(self, traced=False):
        """One pass over the ops.  `outside` is the pass's time outside its
        ops and references (process start-up on `crosscheck`), at reference
        speed; `wall` is the time the client took, references included."""
        t0 = perf()
        if self.wl.in_process:
            outside, records, rss = self.inprocess_pass(self.order, traced)
            for r in records:
                r["rss_mb"] = rss
        else:
            outside, records = self.cli_pass(self.order, traced)
        refs = [r["ref_s"] for r in records] or [reference.NOMINAL_S]
        outside *= reference.NOMINAL_S / statistics.median(refs)
        return {"outside": outside, "records": records, "wall": perf() - t0}

    # --- correctness -------------------------------------------------------
    def verify(self, passes) -> dict:
        """Determinism across repeats, then the verifier on one output per op."""
        import check

        first: dict[str, dict] = {}
        for p in passes:
            for rec in p["records"]:
                seen = first.setdefault(rec["op"], rec)
                if seen["digest"] != rec["digest"]:
                    self.fail(rec["op"], "output differs between repeats")
        ctx = check.Context(self.wl.seed)
        examined = {}
        for op in self.wl.ops:
            rec = first.get(op.name)
            if rec is None:
                self.fail(op.name, "op produced no output")
                continue
            n, failures = check.verify_op(op, rec["stdout"], rec.get("code"), ctx)
            examined[op.name] = n
            for f in failures:
                self.fail(op.name, f)
        return examined


def percentile(values, pct) -> float:
    """Nearest-rank percentile."""
    x = sorted(values)
    return x[max(0, -(-len(x) * pct // 100) - 1)]


def op_medians(passes, key="seconds") -> dict[str, float]:
    """Each op's median latency over the run's passes."""
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            by_op.setdefault(r["op"], []).append(r[key])
    return {op: statistics.median(v) for op, v in by_op.items()}


def typical_pass(passes, key="seconds") -> float:
    """Time of one pass: each op's median latency summed, plus the median
    time a pass spends outside its ops."""
    outside = statistics.median(p["outside"] for p in passes)
    return outside + sum(op_medians(passes, key).values())


def e2e_metrics(wl, setup, passes):
    """End-to-end metrics; times in seconds at reference speed."""
    records = [r for p in passes for r in p["records"]]
    samples = [r["seconds"] for r in records]
    tail = percentile(samples, wl.tail_percentile)
    completed = sum(1 for r in records if r.get("complete", r.get("code") != 4))
    metrics = {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "wall_s": typical_pass(passes),
        "op_p50_s": statistics.median(op_medians(passes).values()),
        "op_tail_s": tail,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "complete_ratio": completed / len(records),
    }
    info = {"measured_s": {"wall_s": typical_pass(passes, "raw_s"),
                           "op_p50_s": statistics.median(op_medians(passes, "raw_s").values()),
                           "op_tail_s": percentile([r["raw_s"] for r in records],
                                                   wl.tail_percentile)},
            "tail_percentile": wl.tail_percentile, "op_samples": len(samples),
            "beyond_tail": sum(1 for s in samples if s > tail),
            "passes": len(passes), "setup_samples": len(setup), "completed": completed}
    return metrics, info


def trace_metrics(traced, untraced, speed):
    """Per-module metrics of the traced passes: span times are medians over
    passes, scaled by the run's median reference speed; counts must repeat
    exactly (the second value returned)."""
    units = layer_units()
    per_pass = []
    for p in traced:
        m = {n: 0 for n in units}
        for rec in p["records"]:
            trace = rec.get("trace")
            if trace is None:
                continue
            m["cli.startup_s"] += trace["startup_s"]
            m["trace.spans_n"] += len(trace["spans"])
            for name, (secs, calls, counts) in self_times(trace["spans"]).items():
                time_name, calls_name, count_names = LAYER_SPANS[name]
                m[time_name] += secs
                if calls_name:
                    m[calls_name] += calls
                if count_names:
                    counts = counts if isinstance(counts, list) else [counts]
                    for n, v in zip(count_names, counts):
                        m[n] += v
        per_pass.append(m)
    out = {}
    for name, unit in units.items():
        values = [m[name] for m in per_pass]
        out[name] = statistics.median(values) * speed if unit == "s" else values[0]
    out["trace.wall_s"] = typical_pass(traced)
    out["trace.untraced_wall_s"] = typical_pass(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    if out["mgs.search_s"] > 0:
        out["mgs.nodes_per_s"] = out["mgs.nodes"] / out["mgs.search_s"]
    counts = [{n: v for n, v in m.items() if units[n] == "count"} for m in per_pass]
    return out, all(c == counts[0] for c in counts)


def metadata(root: Path, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = sorted((root / "src" / "mgslab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_mgslab_lines": lines, "seed": seed}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("enumerate", "verify", "crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mgslab" / "cli.py").is_file() or not (root / "tests" / "data").is_dir():
        print("run from the mgslab repository root (src/mgslab and tests/data are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = HERE / "out"
    # Relative, so that the generated file names in each op's output (and so
    # its digest) are the same in every checkout.
    work = (out_dir / f"work-{args.workload}-{args.seed}").relative_to(root)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, work, out_dir) -> int:
    wl = workloads.build(args.workload, args.seed, work)
    runner = Runner(wl, root, work)
    meta = metadata(root, args.seed)
    start = perf()
    deadline = start + args.seconds
    setup = [] if args.trace else runner.setup_times()
    passes, traced = [], []
    while True:
        passes.append(runner.run_pass())
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        cost = statistics.median(p["wall"] for p in passes)  # references included
        if args.trace:
            cost += statistics.median(p["wall"] for p in traced)
        if perf() + cost > deadline:
            break
    measured_s = perf() - start
    if not all(p["records"] for p in passes + traced):
        print(f"no op results: {runner.failures}", file=sys.stderr)
        return 1

    for p in traced:  # traced output must equal the untraced output, byte for byte
        plain = {r["op"]: r["digest"] for r in passes[0]["records"]}
        for rec in p["records"]:
            if plain.get(rec["op"]) != rec["digest"]:
                runner.fail(rec["op"], "traced output differs from the untraced output")
    examined = runner.verify(passes + traced)

    records = [r for p in passes + traced for r in p["records"]]
    attempted = len(records)
    speed = reference.NOMINAL_S / statistics.median(runner.refs)
    e2e, info = e2e_metrics(wl, setup, passes)
    if args.trace:
        metrics, counts_repeat = trace_metrics(traced, passes, speed)
        if not counts_repeat:
            runner.fail("trace", "exact counts differ between traced passes")
        units = layer_units()
    else:
        metrics, units = e2e, E2E_UNITS
    failed = sum(1 for r in records if r["op"] in runner.failures)
    correct = not runner.failures

    result = {
        "workload": wl.name, "trace": args.trace, "meta": meta, "measured_s": measured_s,
        "reference": {"nominal_s": reference.NOMINAL_S, "samples": runner.refs},
        "fail_ratio": failed / attempted, "info": info, "end_to_end": e2e,
        "per_layer": metrics if args.trace else None,
        "failures": runner.failures, "examined": examined,
        "ops": [{k: v for k, v in r.items() if k not in ("stdout", "trace")} for r in records],
    }
    out_file = out_dir / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} passes={info['passes']} "
          f"ops={attempted} python={meta['python']} nproc={meta['nproc']} "
          f"commit={meta['git_commit']} src_mgslab_lines={meta['src_mgslab_lines']}")
    print(f"# times in seconds at reference speed (perfbench/reference.py): "
          f"{len(runner.refs)} reference runs, median {statistics.median(runner.refs):.4f} s, "
          f"nominal {reference.NOMINAL_S} s")
    if not args.trace:
        measured = info["measured_s"]
        rows = (("setup_s", f"median of {len(setup)} set-ups"),
                ("wall_s", f"sum of per-op medians over {info['passes']} passes"),
                ("op_p50_s", f"median over ops of each op's median; n={info['op_samples']}"),
                ("op_tail_s", f"p{info['tail_percentile']}, n={info['op_samples']}, "
                              f"{info['beyond_tail']} beyond"))
        for name, note in rows:
            wall = f"; {measured[name]:.4f} s measured" if name in measured else ""
            print(f"{name:<16} {e2e[name]:.4f} s  ({note}{wall})")
        print(f"{'peak_rss_mb':<16} {e2e['peak_rss_mb']:.1f} MB")
        print(f"{'fail_ratio':<16} {failed}/{attempted} = {failed / attempted:.4f} ratio")
        print(f"{'complete_ratio':<16} {info['completed']}/{attempted} = "
              f"{e2e['complete_ratio']:.4f} ratio")
    else:
        for name in sorted(metrics):
            print(f"{name:<28} {metrics[name]:.6g} {units[name]}")
    for op, msgs in sorted(runner.failures.items()):
        print(f"FAILED {op}: {msgs[0]}" + (f" (+{len(msgs) - 1} more)" if len(msgs) > 1 else ""))
    print(f"# examined {sum(examined.values())} items; record in {out_file.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
