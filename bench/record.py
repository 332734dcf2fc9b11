"""Record the expected outputs of the `gluing` and `charts` workloads.

    python3 bench/record.py

Run from the repository root.  Each op runs once, as in the benchmark,
and the payload fields that `workloads.checked_fields` selects are
written to `bench/expected/<workload>.json`.  Re-record only when an
output changes on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, run_op
from workloads import (EXPECTED_DIR, SRC_DIR, charts_ops, checked_fields, gluing_ops,
                       write_specs)


def main() -> int:
    sys.path.insert(0, str(SRC_DIR.resolve()))
    import projd.cli  # noqa: F401  -- imported once, before the op processes fork

    specs = write_specs(OUT_DIR / "specs")
    for workload, ops in (("gluing", gluing_ops(specs)), ("charts", charts_ops(specs))):
        recorded = {}
        for op in ops:
            result = run_op(op, lambda op, payload: True, cap=600.0)
            if not result.ok:
                print(f"{op.key}: {result.error}", file=sys.stderr)
                return 1
            payload = json.loads(result.stdout)["payload"]
            recorded[op.key] = checked_fields(op.argv[0], payload)
        path = EXPECTED_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        entries = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                    for key, value in sorted(recorded.items())]
        path.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
        print(f"{path}: {len(recorded)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
