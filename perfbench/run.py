#!/usr/bin/env python3
"""Time-to-certified-verdict benchmark for folgal.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload (``corpus``, ``deform`` or ``decks``, see ``specs.py``)
through folgal's public API, one call at a time, each in a process forked
from a ready worker and killed when it runs past the workload's limit.
Every answer is checked against a known answer.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The lines before it list every call and the failures by
cause.  ``--seed`` fixes the call order; the deformation members come from
``--draw-seed``.  Must be run from a source checkout: folgal is imported from
``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import specs  # noqa: E402  (this directory is on sys.path when run as a script)

OUT_DIR = os.path.join(ROOT, ".perfbench")
# Worker start-ups measured per untraced run, at least.  One start-up swings by
# a third with the host's speed, so the median of several, spread over the
# pass, is reported; each costs 1-2 s of a run's time budget.
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 120.0
REPLY_SLACK_S = 0.5  # time past the limit allowed for checking and replying
STAGES = ("discriminant", "symmetry", "local", "inflection", "branching", "monodromy")
FAILURE_CAUSES = ("timeout", "wrong", "error", "inconclusive")


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker process, which forks a child per call; ``setup_s`` is the
    time from start to ready."""

    def __init__(self, inputs: list[dict], trace: bool):
        # One BLAS thread: the worker forks, and its calls run one at a time.
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        self._buffer = b""
        self._child = None  # the pid of the call process while one runs
        try:
            self._write({"root": ROOT, "inputs": inputs, "trace": trace})
            reply = self.read(start + READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        if reply is None or not reply.get("ready"):
            self.kill()
            raise WorkerDied(f"worker did not become ready: {reply!r}")
        self.setup_s = time.perf_counter() - start

    def _write(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, deadline: float):
        """The next message, or None if none arrives before ``deadline``."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise WorkerDied(f"worker exited with code {self.proc.wait()}")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def _expect(self, key: str) -> dict:
        msg = self.read(time.perf_counter() + READY_TIMEOUT_S)
        if msg is None or key not in msg:
            raise WorkerDied(f"worker sent {msg!r}, not a {key!r} message")
        return msg

    def call(self, index: int, limit: float) -> dict:
        """Run one call in a child process, killed at the limit; return its
        reply once the child has ended."""
        self._write({"run": index})
        self._child = self._expect("child")["child"]
        ended = self.read(time.perf_counter() + limit + REPLY_SLACK_S)
        killed = ended is None
        if killed:
            self._kill_child()
            ended = self._expect("ended")
        self._child = None
        reply = ended["reply"]
        if reply is None and not killed:
            return {"outcome": "error", "seconds": limit,
                    "detail": f"call process ended with status {ended['status']}"
                              " and no reply"}
        if reply is None or reply["seconds"] > limit:
            return {"outcome": "timeout", "detail": f"over the {limit:g} s limit",
                    "seconds": limit}
        return reply

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()

    def _kill_child(self):
        try:
            os.kill(self._child, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended just now

    def kill(self):
        if self._child is not None:
            self._kill_child()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def run_pass(inputs, order, limit, trace, setups, skip=frozenset(), extra_setups=0):
    """Run each input once, each call in its own child of one fresh worker.
    Worker start-up is recorded in ``setups`` and never charged to a call.
    ``extra_setups`` more workers are started and closed between calls,
    spread evenly over the pass, so that the set-up samples span the host's
    speed over the whole pass, not one moment of it.  Returns one record per
    call, in call order."""
    order = [index for index in order if index not in skip]
    records = []
    worker = None
    taken = 0
    try:
        for done, index in enumerate(order, 1):
            if worker is None:
                worker = Worker(inputs, trace)
                setups.append(worker.setup_s)
            try:
                reply = worker.call(index, limit)
            except WorkerDied as exc:
                reply = {"outcome": "error", "detail": str(exc), "seconds": limit}
                worker.kill()
                worker = None
            records.append(dict(reply, index=index, name=inputs[index]["name"]))
            while taken < extra_setups * done // len(order):
                sample = Worker(inputs, False)
                setups.append(sample.setup_s)
                sample.close()
                taken += 1
    finally:
        if worker is not None:
            worker.close()
    return records


def pass_metrics(records) -> dict:
    seconds = [r["seconds"] for r in records]
    return {
        "pass_s": sum(seconds),
        "geomean_call_s": math.exp(statistics.fmean(math.log(max(s, 1e-9)) for s in seconds)),
        "decided_frac": sum(r["outcome"] == "ok" for r in records) / len(records),
        "peak_rss_mb": max((r["rss_kb"] for r in records if "rss_kb" in r), default=0) / 1024,
    }


def _layer_metrics(names, traced, untraced) -> dict:
    """The per-layer metrics ``names`` of one traced pass.

    ``<layer>.calls``, ``<layer>.total_s`` and ``<layer>.self_s`` come from
    the tracer, summed over the traced calls; stage times from the untraced
    pass."""
    sums = {"calls": {}, "total": {}, "self": {}}
    unavailable = 0
    for r in traced:
        t = r.get("trace")
        if t is None:
            continue
        for key, dst in sums.items():
            for layer, value in t[key].items():
                dst[layer] = dst.get(layer, 0) + value
        unavailable += t["unavailable"]
    done = {r["index"] for r in traced if r["outcome"] != "timeout"}
    base = sum(r["seconds"] for r in untraced if r["index"] in done)
    slow = sum(r["seconds"] for r in traced if r["index"] in done)
    special = {
        "numberfield.field_splits": (sums["calls"].get("numberfield.FieldSplit", 0), "count"),
        "sympy_bridge.factor_irreducible.unavailable": (unavailable, "count"),
        "trace.overhead_frac": (slow / base - 1 if base else 0.0, "ratio"),
    }
    for stage in STAGES:
        special[f"stage.{stage}_s"] = (
            sum(r.get("timings", {}).get(stage, 0.0) for r in untraced), "s")
    fields = {"calls": ("calls", "count"), "total_s": ("total", "s"), "self_s": ("self", "s")}
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            layer, _, field = name.rpartition(".")
            key, unit = fields[field]
            metrics[name] = (sums[key].get(layer, 0), unit)
    return metrics


def _print_calls(label, records):
    for r in records:
        extra = f"  {r['detail']}" if r.get("detail") else ""
        print(f"{label:9s} {r['name']:24s} {r['seconds']:9.3f} s "
              f"{r.get('cpu_s', 0):9.3f} cpu  {r['outcome']}{extra}")


def _failures(records) -> dict:
    return {c: sum(r["outcome"] == c for r in records) for c in FAILURE_CAUSES}


def run(workload, seed, seconds, trace, draw_seed=specs.ACCEPTANCE_DRAW_SEED,
        inputs=None, limit=None):
    """Run one workload; return (result dict, every call record)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "folgal")):
        raise FileNotFoundError(f"no folgal sources under {ROOT}/src")
    inputs = inputs if inputs is not None else specs.workload_inputs(workload, draw_seed)
    limit = limit if limit is not None else specs.LIMITS[workload]
    order = list(range(len(inputs)))
    random.Random(seed).shuffle(order)
    setups: list[float] = []
    all_records = []
    if trace:
        # One untraced pass gives the stage timings and the overhead base; the
        # traced pass skips the calls that hit the limit untraced.
        untraced = run_pass(inputs, order, limit, False, setups)
        timed_out = {r["index"] for r in untraced if r["outcome"] == "timeout"}
        traced = run_pass(inputs, order, limit, True, setups, skip=timed_out)
        _print_calls("untraced", untraced)
        _print_calls("traced", traced)
        all_records = untraced + traced
        metrics = _layer_metrics(_per_layer_names(), traced, untraced)
        _write_spans(workload, seed, traced)
    else:
        passes = []
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            extra = SETUP_SAMPLES - 1 if not passes else 0
            records = run_pass(inputs, order, limit, False, setups, extra_setups=extra)
            _print_calls(f"pass {len(passes) + 1}", records)
            passes.append(pass_metrics(records))
            all_records += records
            now = time.perf_counter()
            if now - started + (now - pass_start) > seconds:
                break
        units = {"pass_s": "s", "geomean_call_s": "s", "decided_frac": "ratio",
                 "peak_rss_mb": "MB"}
        metrics = {k: (statistics.median(p[k] for p in passes), u) for k, u in units.items()}
        metrics["setup_s"] = (statistics.median(setups), "s")
    fails = _failures(all_records)
    print(f"{workload}: attempted {len(all_records)}, failed {sum(fails.values())} ("
          + ", ".join(f"{c} {n}" for c, n in fails.items()) + f"); limit {limit:g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    result = {
        "correct": fails["wrong"] == 0 and fails["error"] == 0,
        "attempted": len(all_records),
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, all_records


def _per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def _write_spans(workload, seed, records):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    calls = [{"name": r["name"], "spans": r["trace"]["spans"]}
             for r in records if "trace" in r]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_fields": ["id", "parent", "layer", "start_s", "end_s"],
                   "calls": calls}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the call order")
    parser.add_argument("--seconds", type=float, default=20,
                        help="passes are repeated while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--draw-seed", type=int, default=specs.ACCEPTANCE_DRAW_SEED,
                        help="seed of criterion 7's draw of deformation members")
    args = parser.parse_args(argv)
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        draw_seed=args.draw_seed)
    except (FileNotFoundError, WorkerDied) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
