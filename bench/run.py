"""Benchmark of the `projd` CLI: one forked process per CLI call.

    python3 bench/run.py --workload {corpus,gluing,charts} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from `src/`.
The parent process imports `projd.cli` and runs nothing else.  Every op
(one `projd <command> ... --json` call) runs in a fork of that parent, so
it starts with no state from earlier ops, like a real CLI call, and one
that passes the per-op cap is killed and counted as a failed timeout.
One client runs ops back to back (a closed loop), one op at a time, in a
number of whole passes over the workload set by `--seconds`; the op
order of each pass is shuffled from `--seed`.  Every op's payload
is checked (see `workloads.py`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs a third of
the passes untraced, then as many traced, checks that both phases print
identical output for every op, reports the per-layer metrics of the
traced passes (see `tracing.py`) with the tracing overhead, and writes the
spans to `bench/out/`.

The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (BENCH_DIR, SRC_DIR, WORKLOADS, Op,  # noqa: E402
                       load_workload, write_specs)

# Per-op cap.  The slowest op at the seed is L5 `submodels`, about 1.7 s
# untraced and under 5 s traced.
CAP_S = 20.0
# No op starts later than this after the run began, so that a run whose
# ops all hit the cap still ends well within 180 s.
LAST_START_S = 130.0
# A run is a fixed number of whole passes over its workload:
# floor(--seconds / SECONDS_PER_PASS).  A fixed count keeps the sample
# population, and so the op that the tail percentile falls on, the same on
# every run and on both commits of a comparison; a count that followed
# the clock moved it between ops.  A pass takes about 1.0 s (corpus),
# 7 s (gluing) and 4.4 s (charts) at the seed.  Gluing and charts make
# more passes than fit in --seconds, so that their few slow ops, which set
# the tail, have enough samples: their runs take up to 1.4 x --seconds.
SECONDS_PER_PASS = {"corpus": 1.0, "gluing": 5.0, "charts": 3.75}
# Interpreter starts timed per run, spread evenly between the ops so that
# their median sees the same drift of the host as the ops do.
SETUP_SAMPLES = 20
# The host's CPU speed drifts by 20-40 % over seconds to minutes (shared
# machine), for the op processes and for any fixed loop alike.  Each op
# process therefore times a reference loop right before and after its op,
# and each op time is scaled by REFERENCE_S / (median reference time of
# the op and its SCALE_NEIGHBOURS neighbours on either side in run order):
# times read as on a CPU that runs the reference loop in REFERENCE_S.
# Unscaled figures are printed in the report lines.
REFERENCE_ITERATIONS = 4000
REFERENCE_S = 0.006
SCALE_NEIGHBOURS = 3
OUT_DIR = BENCH_DIR / "out"


@dataclass
class OpResult:
    op: Op
    raw_seconds: float      # latency inside the op process, or the cap
    refs: tuple[float, ...]  # reference-loop times before and after the op
    ok: bool                # exit 0 and the payload passed its check
    error: str | None       # "timeout", "exit N", "mismatch", ...
    stdout: str
    maxrss_kib: int
    spans: list | None
    seconds: float = 0.0    # raw_seconds scaled by scale_times


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, a probe of the CPU's current speed."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + sum(a * b for a, b in zip(key, key))
    return time.perf_counter() - start


def _child(op: Op, tracer: Tracer | None, fd: int) -> None:
    """Body of an op process: run one CLI call, send the outcome to fd."""
    from projd import cli

    out, err = io.StringIO(), io.StringIO()
    ref_before = reference_seconds()
    root = tracer.open("op") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=list(op.argv), prog_name="projd")
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "raised " + traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    message = {"seconds": seconds, "refs": [ref_before, reference_seconds()],
               "code": code, "stdout": out.getvalue(),
               "stderr": err.getvalue()[-2000:],
               "spans": tracer.spans if tracer else None}
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(json.dumps(message).encode())


def run_op(op: Op, check, cap: float, tracer: Tracer | None = None) -> OpResult:
    """Run one op in a fork of this process; kill it if it passes `cap`."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(rfd)
            _child(op, tracer, wfd)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    chunks, finished = [], False
    deadline = time.monotonic() + cap
    try:
        while (left := deadline - time.monotonic()) > 0:
            if select.select([rfd], [], [], left)[0]:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    finished = True
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
    if not finished:
        return OpResult(op, cap, (), False, "timeout", "", usage.ru_maxrss, None)
    try:
        message = json.loads(b"".join(chunks))
    except ValueError:
        return OpResult(op, cap, (), False, "op process died", "", usage.ru_maxrss,
                        None)
    result = OpResult(op, message["seconds"], tuple(message["refs"]), False, None,
                      message["stdout"], usage.ru_maxrss, message["spans"])
    if message["code"] != 0:
        result.error = f"exit {message['code']}: {message['stderr'].strip()}"
    else:
        try:
            result.ok = check(op, json.loads(result.stdout)["payload"])
        except (ValueError, KeyError, TypeError) as exc:
            result.error = f"unreadable output: {exc!r}"
        else:
            result.error = None if result.ok else "mismatch"
    return result


def run_passes(ops: list[Op], check, rng: random.Random, count: int,
               cap: float, last_start: float, tracer: Tracer | None = None,
               setup_times: list[float] | None = None) -> list[list[OpResult]]:
    """`count` whole passes over `ops`, each in its own shuffled order.

    No op starts after the monotonic time `last_start`; the passes end
    there.  With `setup_times`, an interpreter start is timed
    SETUP_SAMPLES times, evenly spread between the ops.
    """
    every = max(count * len(ops) // SETUP_SAMPLES, 1)
    passes, started = [], 0
    for _ in range(count):
        order = list(ops)
        rng.shuffle(order)
        results = []
        for op in order:
            if time.monotonic() > last_start:
                break
            if setup_times is not None and started % every == 0:
                setup_times.append(time_setup())
            results.append(run_op(op, check, cap, tracer))
            started += 1
        passes.append(results)
        if len(results) < len(order):
            break
    scale_times([r for p in passes for r in p])
    return passes


def scale_times(results: list[OpResult]) -> None:
    """Set each op's scaled time from the reference times around it.

    An op without reference times (a timeout) keeps the cap unscaled.
    """
    for i, r in enumerate(results):
        window = results[max(i - SCALE_NEIGHBOURS, 0):i + SCALE_NEIGHBOURS + 1]
        refs = [t for n in window for t in n.refs]
        r.seconds = (r.raw_seconds * REFERENCE_S / statistics.median(refs)
                     if r.refs else r.raw_seconds)


def time_setup() -> float:
    """Wall seconds of a fresh interpreter that imports projd.cli.

    Not scaled by the reference loop: scaling widened its spread, as an
    interpreter start is dominated by process creation and file reads.
    The exit is awaited on a pidfd: `subprocess` waits with a timeout by
    polling, which rounds the time up to its 50 ms sleeps.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.resolve()))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import projd.cli"], env=env)
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = bool(select.select([pidfd], [], [], CAP_S)[0])
    finally:
        os.close(pidfd)
    seconds = time.perf_counter() - start
    if not exited:
        proc.kill()
    if proc.wait() != 0 or not exited:
        raise RuntimeError("a fresh interpreter failed to import projd.cli")
    return seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond it); with 10 or fewer
    samples it is the maximum.
    """
    ordered = sorted(values)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


def op_seconds(results: list[OpResult], scaled: bool = True) -> list[float]:
    return [r.seconds if scaled else r.raw_seconds for r in results]


def ops_per_s(results: list[OpResult], scaled: bool = True) -> float:
    """Correct ops ÷ seconds spent in ops; a timed-out op adds the cap."""
    return sum(r.ok for r in results) / sum(op_seconds(results, scaled))


def end_to_end(results: list[OpResult], setup: list[float],
               scaled: bool = True) -> dict[str, float]:
    seconds = op_seconds(results, scaled)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(results, scaled),
        "op_p50_ms": 1000 * statistics.median(seconds),
        "op_tail_ms": 1000 * tail(seconds)[0],
        "ok_frac": sum(r.ok for r in results) / len(results),
        "peak_rss_mib": max(r.maxrss_kib for r in results) / 1024,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mib": "MiB",
         "trace.ops_per_s": "1/s", "trace.overhead_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("self_s") else "count"


def write_spans(path: Path, passes: list[list[OpResult]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for p, results in enumerate(passes):
            for r in results:
                op_id = f"{p}:{r.op.key}"
                for name, start, end, parent, _ in r.spans or ():
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op_id}) + "\n")


def run(workload: str, seed: int, seconds: float, traced: bool,
        cap: float = CAP_S) -> tuple[dict, list[str], list[OpResult]]:
    """Measure one workload.

    Returns the result object printed last, the report lines printed
    before it, and the ops that failed.
    """
    specs = write_specs(OUT_DIR / "specs")
    ops, check = load_workload(workload, specs)
    rng = random.Random(seed)
    count = max(int(seconds // SECONDS_PER_PASS[workload]), 1)
    last_start = time.monotonic() + LAST_START_S
    lines = []
    if not traced:
        setup = []
        passes = run_passes(ops, check, rng, count, cap, last_start,
                            setup_times=setup)
        results = [r for p in passes for r in p]
        metrics = end_to_end(results, setup)
        raw = end_to_end(results, setup, scaled=False)
        _, pct, beyond = tail([r.seconds for r in results])
        lines.append(f"op_tail_ms is p{pct:.2f} of {len(results)} op latencies, "
                     f"{beyond} beyond it")
        lines.append("unscaled: " + ", ".join(
            f"{k} {raw[k]:.5g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")))
    else:
        plain = run_passes(ops, check, rng, max(count // 3, 1), cap, last_start)
        tracer = Tracer()
        tracer.install()
        try:
            passes = run_passes(ops, check, rng, max(count // 3, 1), cap,
                                last_start, tracer)
        finally:
            tracer.uninstall()
        first = {r.op.key: r.stdout for p in plain for r in p}
        traced_results = [r for p in passes for r in p]
        for r in traced_results:
            if r.ok and r.stdout != first.get(r.op.key, r.stdout):
                r.ok, r.error = False, "traced output differs from untraced"
        plain_results = [r for p in plain for r in p]
        results = plain_results + traced_results
        metrics = layer_metrics([r.spans for r in traced_results if r.spans],
                                len(passes))
        plain_rate, traced_rate = ops_per_s(plain_results), ops_per_s(traced_results)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1
                                          if traced_rate else 0.0)
        spans_path = OUT_DIR / f"spans-{workload}.jsonl"
        write_spans(spans_path, passes)
        lines.append(f"spans written to {spans_path}")
    failed = [r for r in results if not r.ok]
    lines.append(f"{workload}: {len(passes)} passes of {len(ops)} ops, "
                 f"{len(results)} attempted, {len(failed)} failed, cap {cap:g} s")
    lines += [f"  FAILED {r.op.key}: {r.error}" for r in failed]
    result = {
        "correct": not any(r.error != "timeout" for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }
    return result, lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "projd" / "cli.py").is_file():
        print(f"error: no {SRC_DIR / 'projd'} here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR.resolve()))
    import projd.cli  # noqa: F401  -- the state every op process forks from

    result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
