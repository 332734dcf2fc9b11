"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root; takes well under a minute.  It checks that
one untraced and one traced pass of every workload pass their output
checks and print identical output for every op, that the trace sees the
135 `chart_algebra` calls of L5 `separated`, and that a tiny per-op cap
turns L5 `separated` into a counted timeout.
"""

from __future__ import annotations

import math
import random
import sys

from run import CAP_S, OUT_DIR, run, run_passes
from tracing import Tracer
from workloads import SRC_DIR, WORKLOADS, load_workload, write_specs


def main() -> int:
    sys.path.insert(0, str(SRC_DIR.resolve()))
    import projd.cli  # noqa: F401  -- imported once, before the op processes fork

    problems = []
    specs = write_specs(OUT_DIR / "specs")
    for workload in WORKLOADS:
        ops, check = load_workload(workload, specs)
        rng = random.Random(0)
        plain = run_passes(ops, check, rng, 1, CAP_S, math.inf)[0]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, check, rng, 1, CAP_S, math.inf, tracer)[0]
        finally:
            tracer.uninstall()
        for phase, results in (("untraced", plain), ("traced", traced)):
            problems += [f"{workload} {phase} {r.op.key}: {r.error}"
                         for r in results if not r.ok]
        plain_out = {r.op.key: r.stdout for r in plain}
        problems += [f"{workload} {r.op.key}: traced output differs"
                     for r in traced if r.stdout != plain_out[r.op.key]]
        if workload == "gluing":
            spans = next(r.spans for r in traced if r.op.key == "L5:separated")
            charts = sum(s[0] == "charts.chart_algebra" for s in spans)
            if charts != 135:
                problems.append(f"L5 separated: {charts} chart_algebra spans, not 135")
        print(f"{workload}: {len(plain)} ops untraced and traced")

    result, _, failed = run("gluing", seed=0, seconds=0, traced=False, cap=0.05)
    timeouts = {r.op.key for r in failed if r.error == "timeout"}
    if "L5:separated" not in timeouts:
        problems.append("L5 separated under a 0.05 s cap: no timeout recorded")
    counts = (result["attempted"], result["failed"], result["correct"])
    if counts != (20, len(failed), True):
        problems.append(f"capped gluing pass miscounted: {result}")
    print(f"gluing with a 0.05 s cap: {len(timeouts)} timeouts counted as failed")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
