"""Command line surface: ring-spec files in, deterministic reports out.

A ring-spec file is YAML with three keys: group {rank, torsion}, a list
of variables carrying degree coordinates, and an optional monomial list
B restricting the model.  Every command parses the file, delegates to
one library operation, and emits either a short human rendering or a
byte-stable JSON report {command, digest, payload}.

Exit codes: 0 success, 2 usage, 3 invalid input (InvalidInput), 4 any
other fault or a fixture mismatch.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import click
import yaml

from projd.charts import (
    chart_algebra,
    chart_intersection_check,
    cover_decomposition,
    parse_prime,
    psi_image,
    v_plus,
)
from projd.fgab import FgAbGroup, GroupElement
from projd.ringspec import (
    InvalidInput,
    Monomial,
    ParseError,
    RingSpec,
    degree_zero_companion,
)
from projd.separation import is_separated, classify_dependencies, weak_pairs, \
    separated_submodels
from projd.sheaves import global_sections, is_invertible


# ---------------------------------------------------------------------------
# ring-spec files

def _expect(condition: bool, where: str, what: str):
    if not condition:
        raise ParseError(f"{where}: {what}")


def _known_keys(mapping: dict, where: str, keys: set[str]):
    unknown = set(mapping) - keys
    _expect(not unknown, where, f"unknown keys {sorted(unknown, key=str)}")


def _int_list(value, where, length=None) -> list[int]:
    _expect(isinstance(value, list), where, "expected a list of integers")
    out = []
    for i, v in enumerate(value):
        _expect(isinstance(v, int) and not isinstance(v, bool),
                f"{where}[{i}]", f"expected an integer, got {v!r}")
        out.append(v)
    if length is not None:
        _expect(len(out) == length, where,
                f"expected {length} entries, got {len(out)}")
    return out


# Newline and printable ASCII other than "!" and "?".  Outside this set
# libyaml accepts texts that PyYAML rejects (a tab between tokens, "?" in a
# flow collection, a "!," tag); inside it, whenever libyaml accepts a text,
# PyYAML reads the same value (test_libyaml_route_matches_pyyaml).
_LIBYAML_AGREES = re.compile(r'[\n "->@-~]*')


def _load_yaml(text: str):
    """PyYAML's safe reading of `text`, its value or its error, sped up by libyaml.

    The C scanner reads only texts that pass the screen above; any text
    it refuses, or whose value fails to construct, is read again by
    PyYAML, so errors keep PyYAML's marks and wording.  Both routes use
    PyYAML's constructor and resolver.  PyYAML built without libyaml
    takes the PyYAML route alone.
    """
    loader = getattr(yaml, "CSafeLoader", None)
    if loader is not None and _LIBYAML_AGREES.fullmatch(text):
        try:
            return yaml.load(text, Loader=loader)
        except (yaml.YAMLError, ValueError):
            pass
    return yaml.safe_load(text)


def parse_ring_spec(source) -> RingSpec:
    """Build a validated RingSpec from YAML text or its UTF-8 bytes.

    >>> R = parse_ring_spec('''
    ... group: {rank: 2, torsion: []}
    ... variables:
    ...   - {name: x, degree: {free: [1, 0], torsion: []}}
    ...   - {name: y, degree: {free: [0, 1], torsion: []}}
    ...   - {name: z, degree: {free: [1, 1], torsion: []}}
    ... ''')
    >>> [m.render(R.variables) for m in R.irrelevant_generators()]
    ['yz', 'xz', 'xy']
    """
    try:
        text = source.decode("utf-8") if isinstance(source, bytes) else source
        data = _load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (f"line {mark.line + 1}, column {mark.column + 1}"
                 if mark else "document")
        problem = getattr(exc, "problem", None) or str(exc)
        raise ParseError(f"{where}: {problem}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or a scalar such as !!int x
        raise ParseError(str(exc)) from exc
    return ring_spec_from_dict(data)


def ring_spec_from_dict(data) -> RingSpec:
    _expect(isinstance(data, dict), "document", "expected a mapping")
    _known_keys(data, "document", {"group", "variables", "B"})
    group_data = data.get("group")
    _expect(isinstance(group_data, dict), "group", "expected a mapping")
    _known_keys(group_data, "group", {"rank", "torsion"})
    rank = group_data.get("rank")
    _expect(isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0,
            "group.rank", f"expected a nonnegative integer, got {rank!r}")
    torsion = _int_list(group_data.get("torsion", []), "group.torsion")
    for i, m in enumerate(torsion):
        _expect(m >= 1, f"group.torsion[{i}]", f"order must be >= 1, got {m}")
    group = FgAbGroup(rank, torsion)

    entries = data.get("variables", [])
    _expect(isinstance(entries, list), "variables", "expected a list")
    names, degrees = [], []
    for i, entry in enumerate(entries):
        where = f"variables[{i}]"
        _expect(isinstance(entry, dict), where, "expected a mapping")
        _known_keys(entry, where, {"name", "degree"})
        name = entry.get("name")
        _expect(isinstance(name, str) and name.isidentifier(), f"{where}.name",
                f"expected an identifier, got {name!r}")
        _expect(name not in names, f"{where}.name", f"duplicate name {name!r}")
        deg = entry.get("degree")
        _expect(isinstance(deg, dict), f"{where}.degree", "expected a mapping")
        _known_keys(deg, f"{where}.degree", {"free", "torsion"})
        free = _int_list(deg.get("free", []), f"{where}.degree.free", rank)
        tors = _int_list(deg.get("torsion", []), f"{where}.degree.torsion",
                         len(torsion))
        names.append(name)
        degrees.append(group.element(free, tors))

    B = data.get("B")
    if B is not None:
        _expect(isinstance(B, list) and all(isinstance(b, str) for b in B),
                "B", "expected a list of monomial strings")
    return RingSpec(group, names, degrees, conical_ideal=B)


# ---------------------------------------------------------------------------
# renderings

def laurent_text(vec: Sequence[int], names: Sequence[str]) -> str:
    """Fraction form of an integer exponent vector, e.g. "z/(xy)"."""
    num = Monomial(tuple(max(e, 0) for e in vec))
    den = Monomial(tuple(max(-e, 0) for e in vec))
    top = num.render(names)
    if not den.support:
        return top
    bottom = den.render(names)
    if len(den.support) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"


def relation_text(vec: Sequence[int], names: Sequence[str]) -> str:
    pos = Monomial(tuple(max(e, 0) for e in vec)).render(names)
    neg = Monomial(tuple(max(-e, 0) for e in vec)).render(names)
    return f"deg({pos}) = deg({neg})"


def group_text(group: FgAbGroup) -> str:
    parts = []
    if group.rank == 1:
        parts.append("Z")
    elif group.rank > 1:
        parts.append(f"Z^{group.rank}")
    parts.extend(f"Z/{m}" for m in group.torsion)
    return " x ".join(parts) if parts else "0"


def parse_degree(group: FgAbGroup, text: str) -> GroupElement:
    """Degree from text like "(2, 0 | 1 mod 2)", "2,0|1" or "2,0".

    Coordinates are read in the canonical presentation (as printed);
    an omitted torsion part defaults to zero.  A torsion coordinate is
    c or c mod m, m its order; a free coordinate takes no mod.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    free_part, _, torsion_part = body.partition("|")

    def ints(chunk, orders, what):
        pieces = [p.strip() for p in chunk.split(",")] if chunk.strip() else []
        if len(pieces) != len(orders):
            raise ParseError(
                f"degree {text!r}: expected {len(orders)} {what} coordinates")
        coords = []
        for piece, order in zip(pieces, orders):
            value, mod, modulus = piece.partition("mod")
            try:
                coords.append(int(value))
                ok = not mod or int(modulus) == order
            except ValueError:
                ok = False
            if not ok:
                raise ParseError(f"degree {text!r}: bad {what} coordinate {piece!r}")
        return coords

    if group.rank == 0 and "|" not in body:
        torsion_part, free_part = free_part, ""
    free = ints(free_part, [None] * group.rank, "free")
    tors = (ints(torsion_part, group.torsion, "torsion") if torsion_part.strip()
            else [0] * len(group.torsion))
    return group.from_lift(free + tors)


# ---------------------------------------------------------------------------
# commands: each one's payload (spec + args -> JSON-ready dict, pure) next
# to its human rendering (payload -> lines)

def _payload_check(spec: RingSpec) -> dict:
    return {
        "effective": True,
        "group": group_text(spec.group),
        "rank": spec.group.rank,
        "torsion": list(spec.group.torsion),
        "variables": list(spec.variables),
        "degrees": [str(d) for d in spec.degrees],
        "B": (None if spec.conical_ideal is None
              else [b.render(spec.variables, "*") for b in spec.conical_ideal]),
    }


def _render_check(payload: dict) -> list[str]:
    count = len(payload["variables"])
    noun = "variable" if count == 1 else "variables"
    lines = [f"OK: {count} {noun} graded by {payload['group']}"]
    for name, deg in zip(payload["variables"], payload["degrees"]):
        lines.append(f"  deg({name}) = {deg}")
    if payload["B"] is not None:
        lines.append("  B = (" + ", ".join(payload["B"]) + ")")
    return lines


def _payload_gens(spec: RingSpec) -> dict:
    gens = spec.irrelevant_generators()
    return {
        "generators": [m.render(spec.variables) for m in gens],
        "single_chart": spec.group.rank == 0,
    }


def _render_gens(payload: dict) -> list[str]:
    listed = "{" + ", ".join(payload["generators"]) + "}"
    if payload["single_chart"]:
        return [f"Gen = {listed} - Proj = Spec(S_0), a single affine chart"]
    return [f"Gen = {listed}"]


def _payload_chart(spec: RingSpec, f: str) -> dict:
    f = spec.monomial(f)
    chart = chart_algebra(spec, f)
    return {
        "f": f.render(spec.variables, "*"),
        "inverted": [spec.variables[i] for i in sorted(chart.free_coords)],
        "units": [list(u) for u in chart.units],
        "unit_renders": [laurent_text(u, spec.variables) for u in chart.units],
        "generators": [list(g) for g in chart.generators],
        "generator_renders": [laurent_text(g, spec.variables)
                              for g in chart.generators],
    }


def _render_chart(payload: dict) -> list[str]:
    units = ", ".join(payload["unit_renders"]) or "none"
    gens = ", ".join(payload["generator_renders"]) or "none"
    inverted = ", ".join(payload["inverted"]) or "none"
    return [f"Q_({payload['f']}): units: {units}; generators: {gens}; "
            f"inverted variables: {inverted}"]


def _payload_intersect(spec: RingSpec, f: str, g: str) -> dict:
    f, g = spec.monomial(f), spec.monomial(g)  # parse both before checking either
    report = chart_intersection_check(spec, f, g)
    return {
        "f": f.render(spec.variables, "*"),
        "g": g.render(spec.variables, "*"),
        "ok": report.ok,
        "inverted": [list(v) for v in report.inverted],
        "inverted_renders": [laurent_text(v, spec.variables)
                             for v in report.inverted],
        "decompositions": [
            {"target": list(t), "render": laurent_text(t, spec.variables),
             "coefficients": list(c)}
            for t, c in report.decompositions
        ],
    }


def _render_intersect(payload: dict) -> list[str]:
    status = "ok" if payload["ok"] else "FAILED"
    inverted = ", ".join(payload["inverted_renders"]) or "none"
    return [f"intersection of Q_({payload['f']}) and Q_({payload['g']}): "
            f"{status}; newly inverted: {inverted}; "
            f"{len(payload['decompositions'])} decompositions"]


def _payload_psi(spec: RingSpec, f: str, prime_text: str) -> dict:
    prime = parse_prime(spec, prime_text)
    f = spec.monomial(f)
    image = psi_image(spec, f, prime)
    return {
        "f": f.render(spec.variables, "*"),
        "prime": prime.render(spec.variables),
        "image": [list(v) for v in image],
        "image_renders": [laurent_text(v, spec.variables) for v in image],
    }


def _render_psi(payload: dict) -> list[str]:
    image = "{" + ", ".join(payload["image_renders"]) + "}"
    return [f"psi_({payload['f']}) maps {payload['prime']} to {image}"]


def _payload_cover(spec: RingSpec, h: str) -> dict:
    h = spec.monomial(h)
    cover = cover_decomposition(spec, h)
    return {
        "h": h.render(spec.variables, "*"),
        "cover": [m.render(spec.variables) for m in cover],
        "covered": bool(cover),
    }


def _render_cover(payload: dict) -> list[str]:
    if payload["covered"]:
        parts = " u ".join(f"D+({g})" for g in payload["cover"])
        return [f"D+({payload['h']}) = {parts}"]
    return [f"D+({payload['h']}) is not a union of generator charts"]


def _payload_vplus(spec: RingSpec, ideal_text: str) -> dict:
    ideal = [spec.monomial(p) for p in ideal_text.split(",") if p.strip()]
    primes = v_plus(spec, ideal)
    return {
        "ideal": [m.render(spec.variables, "*") for m in ideal],
        "primes": [p.render(spec.variables) for p in primes],
    }


def _render_vplus(payload: dict) -> list[str]:
    primes = "; ".join(payload["primes"]) or "none"
    return [f"minimal relevant primes over ({', '.join(payload['ideal'])})"
            f": {primes}"]


def _pair_entries(spec: RingSpec, reports) -> list[dict]:
    return [
        {"pair": [m.render(spec.variables) for m in r.pair],
         "witness": list(r.witness),
         "witness_render": laurent_text(r.witness, spec.variables)}
        for r in reports
    ]


def _payload_weak_pairs(spec: RingSpec) -> dict:
    return {"pairs": _pair_entries(spec, weak_pairs(spec))}


def _weak_pair_line(p: dict) -> str:
    return f"weak pair ({p['pair'][0]}, {p['pair'][1]}); witness {p['witness_render']}"


def _render_weak_pairs(payload: dict) -> list[str]:
    return [_weak_pair_line(p) for p in payload["pairs"]] or ["no weak pairs"]


def _payload_separated(spec: RingSpec) -> dict:
    verdict = is_separated(spec)
    return {
        "separated": verdict.separated,
        "dependency_class": verdict.dependency_class,
        "pairs": _pair_entries(spec, verdict.weak_pairs),
    }


def _render_separated(payload: dict) -> list[str]:
    if payload["separated"]:
        return [f"SEPARATED; no weak pairs; dependency class: "
                f"{payload['dependency_class']}"]
    return ([f"NOT SEPARATED; dependency class: {payload['dependency_class']}"]
            + [f"  {_weak_pair_line(p)}" for p in payload["pairs"]])


def _payload_deps(spec: RingSpec) -> dict:
    report = classify_dependencies(spec)
    return {
        "class": report.klass,
        # the relations are among variable degrees only; relations among
        # general homogeneous elements are outside the classifier's scope
        "scope": "variable-degree relations",
        "witness": None if report.witness is None else list(report.witness),
        "witness_equation": (None if report.witness is None
                             else relation_text(report.witness, spec.variables)),
        "relations": [list(a) for a in spec.relations],
        "equations": [relation_text(a, spec.variables) for a in spec.relations],
    }


def _render_deps(payload: dict) -> list[str]:
    lines = [f"dependency class: {payload['class']} "
             f"(scope: {payload['scope']})"]
    if payload["witness_equation"]:
        lines.append(f"  witness: {payload['witness_equation']}")
    lines.extend(f"  relation: {eq}" for eq in payload["equations"])
    return lines


def _payload_submodels(spec: RingSpec) -> dict:
    subs = separated_submodels(spec)
    return {"submodels": [[m.render(spec.variables) for m in sub]
                          for sub in subs]}


def _render_submodels(payload: dict) -> list[str]:
    return ["separated submodel: {" + ", ".join(sub) + "}"
            for sub in payload["submodels"]]


def _payload_sheaf(spec: RingSpec, degree_text: str) -> dict:
    d = parse_degree(spec.group, degree_text)
    report = is_invertible(spec, d)
    return {
        "degree": str(d),
        "free": report.invertible,
        "invertible": report.invertible,
        "obstruction": (None if report.obstruction is None
                        else report.obstruction.render(spec.variables)),
        "chart_units": [
            {"chart": g.render(spec.variables), "unit": None if u is None else list(u),
             "render": None if u is None else laurent_text(u, spec.variables)}
            for g, u in report.chart_units
        ],
    }


def _render_sheaf(payload: dict) -> list[str]:
    free = "yes" if payload["free"] else "no"
    inv = "yes" if payload["invertible"] else "no"
    line = f"twist by {payload['degree']}: free: {free}; invertible: {inv}"
    if payload["invertible"]:
        units = " | ".join(u["render"] for u in payload["chart_units"])
        line += f"; witnesses {units}"
    else:
        line += f"; obstruction chart {payload['obstruction']}"
    return [line]


def _payload_sections(spec: RingSpec, degree_text: str, bound: int) -> dict:
    d = parse_degree(spec.group, degree_text)
    report = global_sections(spec, d, bound)
    return {
        "degree": str(d),
        "bound": bound,
        "monomials": [m.render(spec.variables) for m in report.monomials],
        "complete": report.complete,
    }


def _render_sections(payload: dict) -> list[str]:
    listed = "{" + ", ".join(payload["monomials"]) + "}"
    status = "complete" if payload["complete"] else "partial list"
    return [f"sections of degree {payload['degree']} up to total degree "
            f"{payload['bound']}: {listed} ({status})"]


def _payload_companion(spec: RingSpec, h: str, f: str) -> dict:
    h, f = spec.monomial(h), spec.monomial(f)
    result = degree_zero_companion(spec, h, f)
    payload = {
        "h": h.render(spec.variables, "*"),
        "f": f.render(spec.variables, "*"),
        "found": result is not None,
        "power": None,
        "cofactor": None,
        "chart_power": None,
    }
    if result is not None:
        g, k = result
        payload.update(power=1, cofactor=g.render(spec.variables, "*"),
                       chart_power=k)
    return payload


def _render_companion(payload: dict) -> list[str]:
    if not payload["found"]:
        return [f"no degree-zero companion for ({payload['h']}, "
                f"{payload['f']})"]
    top = payload["h"]
    if payload["cofactor"] != "1":
        top = f"{top} * {payload['cofactor']}"
    f, k = payload["f"], payload["chart_power"]
    if k == 0:
        return [f"{top} has degree zero"]
    bottom = f"({f})" if ("*" in f or "^" in f) else f
    if k > 1:
        bottom = f"{bottom}^{k}"
    return [f"({top}) / {bottom} has degree zero"]


BOUND = click.Option(["--bound"], type=int, default=6, show_default=True,
                     help="total-degree cutoff for the listing")

# The one list of commands; dispatch, rendering and the click commands all
# come from it.  name: (params, help, payload_fn, render_fn), where params
# are the argument names in order, plus BOUND for a command that takes it,
# and payload_fn(spec, *arguments[, bound]) returns the payload.
COMMANDS = {
    "check": ((), "validate a ring-spec file", _payload_check, _render_check),
    "gens": ((), "minimal relevant monomial generators",
             _payload_gens, _render_gens),
    "chart": (("f",), "degree-zero chart algebra of F",
              _payload_chart, _render_chart),
    "intersect": (("f", "g"), "consistency of the chart overlap of F and G",
                  _payload_intersect, _render_intersect),
    "psi": (("f", "prime"), "image of a monomial prime in the chart of F",
            _payload_psi, _render_psi),
    "cover": (("h",), "express D+(H) through generator charts",
              _payload_cover, _render_cover),
    "vplus": (("ideal",), "minimal relevant primes over a monomial ideal",
              _payload_vplus, _render_vplus),
    "weak-pairs": ((), "weak pairs among the model's generators",
                   _payload_weak_pairs, _render_weak_pairs),
    "separated": ((), "separatedness verdict for the model",
                  _payload_separated, _render_separated),
    "deps": ((), "classify the variable-degree relations",
             _payload_deps, _render_deps),
    "submodels": ((), "maximal separated generator subsets",
                  _payload_submodels, _render_submodels),
    "sheaf": (("degree",), "freeness and invertibility of the twist by D",
              _payload_sheaf, _render_sheaf),
    "sections": (("degree", BOUND), "monomial sections of the twist by D",
                 _payload_sections, _render_sections),
    "companion": (("h", "f"), "least G, k with H*G / F^k of degree zero",
                  _payload_companion, _render_companion),
}


def execute(spec: RingSpec, command: str, args: Sequence[str],
            bound: Optional[int] = None) -> dict:
    """Dispatch one command to its library operation; returns the payload.

    bound applies to a command that takes --bound (None: its default);
    the other commands ignore it.
    """
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    params, _, payload_fn, _ = COMMANDS[command]
    if BOUND in params:
        args = [*args, BOUND.default if bound is None else bound]
    return payload_fn(spec, *args)


def human_lines(command: str, payload: dict) -> list[str]:
    return COMMANDS[command][3](payload)


# ---------------------------------------------------------------------------
# fixture corpus

def fixture_text(name: str) -> str:
    path = resources.files("projd") / "fixtures" / f"{name}.yaml"
    return path.read_text(encoding="utf-8")


def load_corpus() -> list[dict]:
    path = resources.files("projd") / "fixtures" / "expected" / "corpus.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_fixture_corpus(echo=print) -> int:
    """Re-run every stored corpus command and diff against expectations."""
    failures = 0
    specs: dict[str, RingSpec] = {}
    for entry in load_corpus():
        name = entry["fixture"]
        if name not in specs:
            specs[name] = parse_ring_spec(fixture_text(name))
        label = " ".join([name, entry["command"], *entry.get("args", [])])
        try:
            payload = execute(specs[name], entry["command"],
                              entry.get("args", []), entry.get("bound"))
        except Exception as exc:
            echo(f"{label}: ERROR {exc}")
            failures += 1
            continue
        if payload == entry["payload"]:
            echo(f"{label}: ok")
        else:
            echo(f"{label}: MISMATCH")
            echo(f"  expected: {json.dumps(entry['payload'], sort_keys=True)}")
            echo(f"  got:      {json.dumps(payload, sort_keys=True)}")
            failures += 1
    echo(f"{failures} mismatching corpus entries" if failures
         else "fixture corpus: all entries match")
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# click wiring

def _emit(command: str, spec_path: str, as_json: bool,
          args: Sequence[str] = (), bound: Optional[int] = None) -> None:
    try:
        raw = Path(spec_path).read_bytes()
        spec = parse_ring_spec(raw)
        payload = execute(spec, command, list(args), bound)
    except InvalidInput as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except Exception as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(4)
    if as_json:
        report = {"command": command,
                  "digest": hashlib.sha256(raw).hexdigest(),
                  "payload": payload}
        click.echo(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines(command, payload):
            click.echo(line)


def _command(name: str, params, help_text: str) -> click.Command:
    """The click command of a COMMANDS entry: its params, then --spec and --json."""
    arguments = [p for p in params if isinstance(p, str)]

    def callback(spec_path, as_json, bound=None, **values):
        _emit(name, spec_path, as_json, [values[a] for a in arguments], bound)

    return click.Command(name, callback=callback, help=help_text, params=[
        *(click.Argument([p]) if isinstance(p, str) else p for p in params),
        click.Option(["--spec", "spec_path"], required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="ring-spec YAML file"),
        click.Option(["--json", "as_json"], is_flag=True,
                     help="emit the machine-readable report"),
    ])


@click.group(invoke_without_command=True,
             commands=[_command(name, params, help_text)
                       for name, (params, help_text, _, _) in COMMANDS.items()])
@click.option("--fixtures", "fixtures_flag", is_flag=True,
              help="run the built-in example corpus against stored expectations")
@click.pass_context
def main(ctx, fixtures_flag):
    """Exact combinatorics of multigraded Proj models."""
    if fixtures_flag:
        ctx.exit(run_fixture_corpus(echo=click.echo))
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(2)


if __name__ == "__main__":
    main()
