"""The benchmark's workloads: gradings, the ops run on them, and output checks.

An op is one `projd` CLI call, given as its argument list.  Every op
carries the check its JSON payload must pass:

* `corpus` compares the whole payload with the corpus entry stored in
  `src/projd/fixtures/expected/corpus.json` at the commit under test;
* `gluing` and `charts` compare selected payload fields with the values
  recorded from the seed in `bench/expected/<workload>.json` (see
  `bench/record.py`).  Fields that a planned change alters on purpose,
  such as the `complete` flag of `sections`, are not compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
SRC_DIR = Path("src")
CORPUS_PATH = SRC_DIR / "projd" / "fixtures" / "expected" / "corpus.json"
FIXTURE_DIR = SRC_DIR / "projd" / "fixtures"

# Ladder L_n: rank 2, the first n of these degrees.
LADDER = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# name -> (rank, torsion orders, degrees as free coordinates then torsion)
GRADINGS = {
    "L3": (2, [], LADDER[:3]),
    "L4": (2, [], LADDER[:4]),
    "L5": (2, [], LADDER[:5]),
    "L6": (2, [], LADDER[:6]),
    "hirz": (2, [], [(1, 0), (1, 0), (0, 1), (2, 1)]),
    "p1p1": (2, [], [(1, 0), (1, 0), (0, 1), (0, 1)]),
    "p2p1": (2, [], [(1, 0), (1, 0), (1, 0), (0, 1), (0, 1)]),
    "r3a": (3, [], [E1, E2, E3, (1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    "r3b": (3, [], [E1, E2, E3, (1, 1, 1), (1, 1, 0)]),
    "tor4": (2, [2], [(1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)]),
    "tor3": (2, [3], [(1, 0, 1), (0, 1, 2), (1, 1, 0), (1, 2, 1)]),
}

GLUING_GRADINGS = ["L3", "L4", "L5", "hirz", "p1p1", "p2p1",
                   "r3a", "r3b", "tor4", "tor3"]

# Chart monomials of L5, r3a and tor3 (as `projd gens` lists them), and
# the six L6 charts that finish within a second at the seed; the other
# nine L6 charts take more than 4 s each and stay out.
CHART_MONOMIALS = {
    "L5": ["x3*x4", "x2*x4", "x2*x3", "x1*x4", "x1*x3", "x1*x2",
           "x0*x4", "x0*x3", "x0*x2", "x0*x1"],
    "r3a": ["x3*x4*x5", "x2*x4*x5", "x2*x3*x5", "x2*x3*x4", "x1*x4*x5",
            "x1*x3*x5", "x1*x3*x4", "x1*x2*x5", "x1*x2*x3", "x0*x4*x5",
            "x0*x3*x5", "x0*x3*x4", "x0*x2*x4", "x0*x2*x3", "x0*x1*x5",
            "x0*x1*x4", "x0*x1*x2"],
    "tor3": ["x2*x3", "x1*x3", "x1*x2", "x0*x3", "x0*x2", "x0*x1"],
    "L6": ["x4*x5", "x3*x5", "x3*x4", "x2*x3", "x1*x3", "x0*x3"],
}

# Twists and sections.  Every variable degree has free coordinates summing
# to at least 1, so a sections bound equal to the coordinate sum of the
# degree reaches the whole fiber.  L6 `sections` is left out: its
# full-semigroup Hilbert basis runs past 120 s at the seed.
SHEAF_DEGREES = {
    "L5": ["(1,1)", "(2,3)"], "r3a": ["(1,1,1)", "(2,1,0)"],
    "tor3": ["(1,0|1)", "(2,2|0)"], "L6": ["(1,1)", "(2,3)"],
}
SECTIONS = {
    "L5": [("(2,2)", 4), ("(3,2)", 5)], "r3a": [("(1,1,1)", 3), ("(2,1,1)", 4)],
    "tor3": [("(2,2|0)", 4), ("(2,1|1)", 3)],
}
COMPANIONS = {
    "L5": [("x0", "x3*x4"), ("x2^2", "x0*x1")],
    "r3a": [("x0", "x1*x2*x3"), ("x3*x4", "x0*x1*x5")],
    "tor3": [("x0", "x1*x2"), ("x1", "x0*x3")],
    "L6": [("x0", "x4*x5")],
}
PSI = {
    "L5": [("x0*x1", "(x2,x3)"), ("x3*x4", "(x0)")],
    "r3a": [("x0*x1*x2", "(x3)"), ("x3*x4*x5", "(x0,x2)")],
    "tor3": [("x0*x1", "(x2,x3)"), ("x2*x3", "(x0)")],
    "L6": [("x3*x5", "(x0,x1)")],
}

WORKLOADS = ("corpus", "gluing", "charts")


@dataclass(frozen=True)
class Op:
    """One CLI call: `projd <argv>`; `key` names it in expectations and spans."""

    key: str
    argv: tuple[str, ...]


def spec_yaml(name: str) -> str:
    rank, torsion, degrees = GRADINGS[name]
    lines = [f"group: {{rank: {rank}, torsion: {list(torsion)}}}", "variables:"]
    for i, deg in enumerate(degrees):
        free, tors = list(deg[:rank]), list(deg[rank:])
        lines.append(f"  - {{name: x{i}, degree: {{free: {free}, torsion: {tors}}}}}")
    return "\n".join(lines) + "\n"


def write_specs(directory: Path) -> dict[str, Path]:
    """Write every grading as a ring-spec file; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in GRADINGS:
        path = directory / f"{name}.yaml"
        path.write_text(spec_yaml(name), encoding="utf-8")
        paths[name] = path
    return paths


def _op(key: str, command: str, spec: Path, *args: str) -> Op:
    return Op(key, (command, *args, "--spec", str(spec), "--json"))


def corpus_ops() -> tuple[list[Op], dict[str, dict]]:
    """One op per corpus entry, with the stored payload as its expectation."""
    entries = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    ops, expected = [], {}
    for i, entry in enumerate(entries):
        args = list(entry.get("args", []))
        if entry.get("bound") is not None:
            args += ["--bound", str(entry["bound"])]
        key = f"{i}:{entry['fixture']}:{entry['command']}:{' '.join(args)}"
        spec = FIXTURE_DIR / f"{entry['fixture']}.yaml"
        ops.append(_op(key, entry["command"], spec, *args))
        expected[key] = entry["payload"]
    return ops, expected


def gluing_ops(specs: dict[str, Path]) -> list[Op]:
    return [_op(f"{name}:{command}", command, specs[name])
            for name in GLUING_GRADINGS for command in ("separated", "submodels")]


def charts_ops(specs: dict[str, Path]) -> list[Op]:
    ops = []
    for name, monos in CHART_MONOMIALS.items():
        ops += [_op(f"{name}:chart:{f}", "chart", specs[name], f) for f in monos]
    for name, degrees in SHEAF_DEGREES.items():
        ops += [_op(f"{name}:sheaf:{d}", "sheaf", specs[name], d) for d in degrees]
    for name, cases in SECTIONS.items():
        ops += [_op(f"{name}:sections:{d}:{b}", "sections", specs[name], d,
                    "--bound", str(b)) for d, b in cases]
    for name, cases in COMPANIONS.items():
        ops += [_op(f"{name}:companion:{h}:{f}", "companion", specs[name], h, f)
                for h, f in cases]
    for name, cases in PSI.items():
        ops += [_op(f"{name}:psi:{f}:{p}", "psi", specs[name], f, p)
                for f, p in cases]
    return ops


def checked_fields(command: str, payload: dict) -> dict:
    """The part of a payload that the gluing and charts checks compare."""
    if command == "separated":
        return {"separated": payload["separated"],
                "dependency_class": payload["dependency_class"],
                "pairs": [[p["pair"], p["witness"]] for p in payload["pairs"]]}
    if command == "submodels":
        return {"submodels": payload["submodels"]}
    if command == "chart":
        return {"units": payload["units"], "generators": payload["generators"]}
    if command == "sheaf":
        return {"free": payload["free"], "invertible": payload["invertible"]}
    if command == "sections":
        return {"monomials": payload["monomials"]}
    if command == "companion":
        return {"found": payload["found"], "power": payload["power"],
                "cofactor": payload["cofactor"],
                "chart_power": payload["chart_power"]}
    if command == "psi":
        return {"image": payload["image"]}
    raise KeyError(f"no recorded fields for command {command!r}")


def load_workload(name: str, specs: dict[str, Path]):
    """Ops of a workload and a check(op, payload) -> bool for their outputs."""
    if name == "corpus":
        ops, expected = corpus_ops()
        return ops, lambda op, payload: payload == expected[op.key]
    ops = gluing_ops(specs) if name == "gluing" else charts_ops(specs)
    recorded = json.loads((EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8"))

    def check(op: Op, payload: dict) -> bool:
        return checked_fields(op.argv[0], payload) == recorded[op.key]

    return ops, check
