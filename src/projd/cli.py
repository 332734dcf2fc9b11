"""Command line surface: ring-spec files in, deterministic reports out.

A ring-spec file is YAML with three keys: group {rank, torsion}, a list
of variables carrying degree coordinates, and an optional monomial list
B restricting the model.  Every command parses the file, delegates to
one library operation, and emits either a short human rendering or a
byte-stable JSON report {command, digest, payload}, in one write to
stdout; digest is the SHA-256 of the spec file's bytes as read, before
parsing.  The command line is read against COMMANDS by `parse_argv`,
and each --help screen is rendered from it when asked for.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage (an
unreadable --spec file among them), 3 invalid input (InvalidInput), 4
any other fault or a fixture mismatch.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Optional, Sequence

# hashlib loads OpenSSL's libcrypto, a few MiB, to hash a spec of a few
# hundred bytes: the interpreter's built-in SHA-256 first, as random.py
# does for SHA-512
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

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


# A spec in the flow grammar that every fixture and example uses reads
# straight into the value `yaml.safe_load` gives it; PyYAML, imported only
# when needed, reads every other text (test_reader_route_matches_pyyaml).
# Newline and printable ASCII: no tab, carriage return or other text that
# PyYAML reads in its own way.
_SPEC_CHARS = re.compile(r"[\n -~]*")
# A flow line's tokens: an indicator, ": ", a run of other characters (a
# scalar, checked against _INTEGER and _NAME), or a ":" no space follows.
# Spaces between tokens are dropped.
_TOKENS = re.compile(r"[\[\]{},]|: |[^ \[\]{},:]+|:")
_INTEGER = re.compile(r"-?(?:0|[1-9][0-9]*)")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_*^]*")
# plain names that PyYAML reads as a bool or as null
_YAML_WORDS = frozenset("yes Yes YES no No NO true True TRUE false False FALSE "
                        "on On ON off Off OFF null Null NULL".split())
# PyYAML refuses a key whose ":" is more than 1024 characters past its start
_KEY_LIMIT = 1024


class _Unsure(Exception):
    """The spec reader cannot be sure of PyYAML's reading."""


def _scalar(token: str, key: bool = False):
    if key and len(token) >= _KEY_LIMIT:
        raise _Unsure
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past the int() digit limit: PyYAML's error
            raise _Unsure from None
    if _NAME.fullmatch(token) and token not in _YAML_WORDS:
        return token
    raise _Unsure


def _flow_node(tokens: list[str], i: int):
    """The node that starts at tokens[i], and the index past it."""
    token = tokens[i]
    if token not in ("[", "{"):
        return _scalar(token), i + 1
    close = "]" if token == "[" else "}"
    node = [] if token == "[" else {}
    i += 1
    if tokens[i] == close:
        return node, i + 1
    while True:
        if token == "[":
            value, i = _flow_node(tokens, i)
            node.append(value)
        else:
            key = _scalar(tokens[i], key=True)
            if tokens[i + 1] != ": ":
                raise _Unsure
            node[key], i = _flow_node(tokens, i + 2)  # a repeated key: the last
        if tokens[i] == close:
            return node, i + 1
        if tokens[i] != ",":
            raise _Unsure
        i += 1


def _line_node(text: str):
    """The flow node that is all of `text`."""
    if " :" in text:  # spaces before a ":" count toward PyYAML's key limit
        raise _Unsure
    tokens = _TOKENS.findall(text)
    node, end = _flow_node(tokens, 0)
    if end != len(tokens):
        raise _Unsure
    return node


def _read_spec_text(text: str) -> Optional[dict]:
    """`yaml.safe_load(text)` for a spec in the flow grammar, else None.

    The grammar: lines "key: NODE" at column 0, and "key:" followed by
    "- NODE" lines at one indentation; NODE a flow mapping {k: v, ...}, a
    flow sequence [v, ...], a decimal integer -?(0|[1-9][0-9]*) or a name
    [A-Za-z_][A-Za-z0-9_*^]* that PyYAML reads as a string, each node on
    one line; blank lines, comment lines and " # ..." after a node.  A
    repeated key keeps its last value, as in PyYAML.  None for any other
    text, and for any text whose reading by PyYAML it is not sure of.
    """
    if not _SPEC_CHARS.fullmatch(text):
        return None
    data, items, indent = {}, None, None
    try:
        for line in text.split("\n"):
            body = line.split(" #", 1)[0].rstrip(" ")
            stripped = body.lstrip(" ")
            if not stripped or stripped[0] == "#":
                continue
            depth = len(body) - len(stripped)
            if stripped[:2] == "- ":  # an entry of the last key's sequence
                if items is None or indent not in (None, depth):
                    return None
                indent = depth
                items.append(_line_node(stripped[2:]))
                continue
            if depth or items == []:  # a key with no entries is PyYAML's null
                return None
            token = _TOKENS.match(body)
            key, rest = _scalar(token.group(), key=True), body[token.end():]
            if rest == ":":
                items, indent = [], None
                data[key] = items
            elif rest[:2] == ": ":
                items = None
                data[key] = _line_node(rest[2:])
            else:
                return None
    except (_Unsure, IndexError, RecursionError):  # IndexError: a node left open
        return None
    return data if data and items != [] else None


def _load_yaml(text: str):
    """PyYAML's safe reading of `text`, with its errors as ParseError.

    PyYAML is an optional extra: without it, a text outside the flow
    grammar of _read_spec_text is bad input, not a fault."""
    try:
        import yaml
    except ImportError as exc:
        raise ParseError("document: outside the flow grammar that projd reads itself, "
                         "and PyYAML, which reads other YAML, is not installed "
                         "(pip install 'projd[yaml]')") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (f"line {mark.line + 1}, column {mark.column + 1}"
                 if mark else "document")
        problem = getattr(exc, "problem", None) or str(exc)
        raise ParseError(f"{where}: {problem}") from exc
    except ValueError as exc:  # a scalar such as !!int x
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:  # PyYAML composes nested nodes recursively
        raise ParseError("document: nested too deeply") from exc


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
    except ValueError as exc:  # bytes that are not UTF-8
        raise ParseError(str(exc)) from exc
    data = _read_spec_text(text)
    return ring_spec_from_dict(_load_yaml(text) if data is None else data)


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
        "ok": True,  # chart_intersection_check raises otherwise
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
    inverted = ", ".join(payload["inverted_renders"]) or "none"
    return [f"intersection of Q_({payload['f']}) and Q_({payload['g']}): "
            f"ok; newly inverted: {inverted}; "
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


# In the params of a command that takes --bound, a total-degree cutoff.
BOUND = object()
DEFAULT_BOUND = 6

# The one list of commands; dispatch, rendering, the command line and its
# help screens all come from it.  name: (params, help, payload_fn,
# render_fn), where params are the argument names in order, plus BOUND for
# a command that takes it, and payload_fn(spec, *arguments[, bound])
# returns the payload.
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
        args = [*args, DEFAULT_BOUND if bound is None else bound]
    return payload_fn(spec, *args)


def human_lines(command: str, payload: dict) -> list[str]:
    return COMMANDS[command][3](payload)


# ---------------------------------------------------------------------------
# fixture corpus

def fixture_text(name: str) -> str:
    from importlib import resources  # package data only: kept off other calls
    path = resources.files("projd") / "fixtures" / f"{name}.yaml"
    return path.read_text(encoding="utf-8")


def load_corpus() -> list[dict]:
    from importlib import resources
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
# command line

class _Usage(Exception):
    """A bad command line (exit 2); `command` is None at the top level."""

    def __init__(self, command: Optional[str], message: str):
        super().__init__(message)
        self.command = command


class _Help(Exception):
    """--help, read before any usage error: exit 0 after the help of the
    command given, or of `projd` (None)."""


def _params(command: str) -> list[str]:
    return [p for p in COMMANDS[command][0] if p is not BOUND]


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: projd [--fixtures] [--help] COMMAND ...\n"
    bound = " [--bound BOUND]" if BOUND in COMMANDS[command][0] else ""
    params = "".join(f" {p.upper()}" for p in _params(command))
    return f"usage: projd {command}{bound} --spec FILE [--json] [--help]{params}\n"


def _rows(rows, column: int, indent: int = 2) -> str:
    """Help rows, name then help from `column` on; a name too wide for its
    column puts its help on the next line."""
    lines = []
    for name, text in rows:
        head = " " * indent + name
        if not text:
            lines.append(head)
        elif len(head) + 2 <= column:
            lines.append(head.ljust(column) + text)
        else:
            lines += [head, " " * column + text]
    return "".join(line + "\n" for line in lines)


def help_screen(command: Optional[str] = None) -> str:
    """The --help screen of `command`, or of `projd` itself (None)."""
    options = [("--help", "show this help message and exit")]
    if command is None:
        options.insert(0, ("--fixtures", "run the built-in example corpus "
                                         "against stored expectations"))
        commands = [(name, entry[1]) for name, entry in COMMANDS.items()]
        column = min(4 + max(len(name) for name, _ in options + commands), 24)
        return (f"{_usage(None)}\nExact combinatorics of multigraded Proj "
                f"models.\n\noptions:\n{_rows(options, column)}\ncommands:\n"
                f"  COMMAND\n{_rows(commands, column, indent=4)}")
    params = [(p.upper(), "") for p in _params(command)]
    options[:0] = [("--spec FILE", "ring-spec YAML file"),
                   ("--json", "emit the machine-readable report")]
    if BOUND in COMMANDS[command][0]:
        options.insert(0, ("--bound BOUND", "total-degree cutoff for the "
                                            f"listing (default: {DEFAULT_BOUND})"))
    column = min(4 + max(len(name) for name, _ in options + params), 24)
    screen = [_usage(command), f"{COMMANDS[command][1]}\n"]
    if params:
        screen.append("positional arguments:\n" + _rows(params, column))
    screen.append("options:\n" + _rows(options, column))
    return "\n".join(screen)


def parse_argv(argv: Sequence[str]):
    """Read a `projd` command line against COMMANDS.

    Returns (fixtures, command, arguments, spec, json, bound): command is
    None when none was given, arguments are the command's params in table
    order, spec is the --spec file's bytes, and bound is DEFAULT_BOUND
    unless --bound is given, or None for a command without BOUND.

    Tokens are read left to right.  Up to a bare "--", a token that starts
    with "--" is an option; every other token is the command, then its
    params in order, then left over.  An option takes its value as
    --opt=VALUE or from the next token.  The top level knows --fixtures
    and --help; a command knows --spec, --json, --help, and --bound where
    BOUND is among its params.  --help, or a bad option value, stops the
    reading (_Help, _Usage); at the end a missing param or --spec, then
    any unknown option or left-over token, is a _Usage error.
    """
    fixtures, command, names = False, None, []
    arguments, spec, as_json, bound, extras = [], None, False, None, []
    known, options_ended = {"--fixtures", "--help"}, False
    tokens = iter(argv)
    for token in tokens:
        if options_ended or not token.startswith("--"):
            if command is not None:
                (arguments if len(arguments) < len(names) else extras).append(token)
                continue
            if token not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                raise _Usage(None, f"argument COMMAND: invalid choice: {token!r} "
                                   f"(choose from {choices})")
            command, names = token, _params(token)
            known = {"--spec", "--json", "--help"}
            if BOUND in COMMANDS[command][0]:
                known.add("--bound")
                bound = DEFAULT_BOUND
            continue
        if token == "--":
            options_ended = True
            continue
        option, has_value, value = token.partition("=")
        if option not in known:
            extras.append(token)
        elif option in ("--spec", "--bound"):
            if not has_value:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise _Usage(command, f"argument {option}: expected one argument")
            if option == "--bound":
                try:
                    bound = int(value)
                except ValueError:
                    raise _Usage(command, f"argument --bound: invalid int "
                                          f"value: {value!r}") from None
            else:
                # a file that cannot be read is bad usage (exit 2), like a
                # missing one, not a fault (exit 4)
                try:
                    with open(value, "rb") as file:
                        spec = file.read()
                except OSError as exc:
                    raise _Usage(command, f"argument --spec: cannot read "
                                          f"{value!r}: {exc.strerror or exc}") from None
        elif has_value:
            raise _Usage(command, f"argument {option}: ignored explicit argument "
                                  f"{value!r}")
        elif option == "--help":
            raise _Help(command)
        elif option == "--json":
            as_json = True
        else:
            fixtures = True
    if command is not None:
        missing = [p.upper() for p in names[len(arguments):]]
        missing += ["--spec"] if spec is None else []
        if missing:
            raise _Usage(command, "the following arguments are required: "
                                  + ", ".join(missing))
    if extras:
        raise _Usage(None, "unrecognized arguments: " + " ".join(extras))
    return fixtures, command, arguments, spec, as_json, bound


def _run(argv: Sequence[str]) -> int:
    """One `projd` call: write its output, each report or screen in one
    write, and return the exit code."""
    try:
        fixtures, command, arguments, raw, as_json, bound = parse_argv(argv)
    except _Help as exc:
        sys.stdout.write(help_screen(*exc.args))
        return 0
    except _Usage as exc:
        prog = "projd" if exc.command is None else f"projd {exc.command}"
        sys.stderr.write(f"{_usage(exc.command)}{prog}: error: {exc}\n")
        return 2
    if fixtures:
        return run_fixture_corpus()
    if command is None:
        sys.stdout.write(help_screen())
        return 2
    try:
        payload = execute(parse_ring_spec(raw), command, arguments, bound)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a MemoryError has no message: name its type
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    if as_json:
        report = {"command": command,
                  "digest": sha256(raw).hexdigest(),
                  "payload": payload}
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "".join(line + "\n" for line in human_lines(command, payload))
    sys.stdout.write(text)
    return 0


def main(args: Optional[Sequence[str]] = None, prog_name=None):
    """Run one `projd` call on `args` (default: sys.argv[1:]) and exit
    with its code.

    With `main.main = main`, callers of the form `main.main(args=...,
    prog_name=...)` keep working; `prog_name` is ignored, the program is
    always `projd`.
    """
    try:
        code = _run(sys.argv[1:] if args is None else args)
        sys.stdout.flush()
    except BrokenPipeError:
        # no traceback, and no second failure when Python flushes stdout
        # on exit: point it at /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


main.main = main


if __name__ == "__main__":
    main()
