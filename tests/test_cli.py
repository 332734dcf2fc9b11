from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import oracles
import projd
import pytest
import yaml
from projd.charts import chart_intersection_check
from projd.cli import (
    BOUND,
    COMMANDS,
    ParseError,
    execute,
    fixture_text,
    group_text,
    human_lines,
    laurent_text,
    load_corpus,
    main,
    parse_argv,
    parse_degree,
    parse_prime,
    parse_ring_spec,
    run_fixture_corpus,
    _read_spec_text,
)
from projd.diophantine import ConstrainedSemigroup, InvariantError
from projd.fgab import FgAbGroup
from projd.ringspec import BadConicalIdeal, Monomial, NotEffective, RingSpec

FIXTURES = ["plane", "torsion", "quad", "five", "parity", "plane-b"]

TORSION_TEXT = """
group: {rank: 1, torsion: [2]}
variables:
  - {name: x, degree: {free: [1], torsion: [0]}}
  - {name: y, degree: {free: [0], torsion: [1]}}
  - {name: z, degree: {free: [1], torsion: [1]}}
"""


def plane_spec():
    return parse_ring_spec(fixture_text("plane"))


def run_cli(argv):
    """(exit code, stdout, stderr) of one `projd` call made in this process.

    The call has the form `main.main(args=..., prog_name=...)`, the one the
    benchmark makes in each op process.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="projd")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


# parsing

def test_parse_normalizes_non_chain_torsion():
    spec = parse_ring_spec("""
group: {rank: 0, torsion: [2, 3]}
variables:
  - {name: x, degree: {free: [], torsion: [1, 0]}}
  - {name: y, degree: {free: [], torsion: [0, 1]}}
""")
    assert spec.group.torsion == (6,)
    # x has order 2 and y order 3 in the canonical Z/6
    assert [d.torsion for d in spec.degrees] == [(3,), (4,)]


def test_parse_accepts_path(tmp_path):
    # a spec is text or the bytes of a file; a path is never opened, so the
    # name of a file is text, and text that is no mapping
    target = tmp_path / "spec.yaml"
    target.write_text(fixture_text("plane"))
    assert parse_ring_spec(target.read_bytes()) == plane_spec()
    with pytest.raises(ParseError) as err:
        parse_ring_spec(str(target))
    assert str(err.value) == "document: expected a mapping"


def test_parse_accepts_one_line_text_longer_than_a_file_name(tmp_path):
    # a flow-mapping spec on one line, longer than a file name may be, is
    # spec text like any other
    degrees = [[i % 2, 1 - i % 2] for i in range(7)] + [[1, 1]]
    text = ("{group: {rank: 2, torsion: []}, variables: ["
            + ", ".join(f"{{name: x{i}, degree: {{free: {d}, torsion: []}}}}"
                        for i, d in enumerate(degrees)) + "]}")
    assert "\n" not in text and len(text) > 255
    assert parse_ring_spec(text).variables == tuple(f"x{i}" for i in range(8))
    # the name of a directory is text too, and no spec
    with pytest.raises(ParseError):
        parse_ring_spec(str(tmp_path))


def test_yaml_syntax_error_is_located():
    with pytest.raises(ParseError) as err:
        parse_ring_spec("group: {rank: 2\nvariables: []\n")
    assert str(err.value) == "line 2, column 10: expected ',' or '}', but got ':'"


def test_semantic_errors_name_the_offending_element():
    bad = [
        ("[]", "document"),
        ("group: {rank: -1, torsion: []}\nvariables: []", "group.rank"),
        ("group: {rank: 1, torsion: [0]}\nvariables: []", "group.torsion[0]"),
        ("group: {rank: 1, torsion: []}\nvariables: [{name: 2x, degree: "
         "{free: [1], torsion: []}}]", "variables[0].name"),
        ("group: {rank: 2, torsion: []}\nvariables: [{name: x, degree: "
         "{free: [1], torsion: []}}]", "variables[0].degree.free"),
        ("group: {rank: 1, torsion: []}\nvariables: []\nextra: 1", "extra"),
    ]
    for text, fragment in bad:
        with pytest.raises(ParseError) as err:
            parse_ring_spec(text)
        assert fragment in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("group: {rank: 1, torsion: []}\nvariables: []\nvariable: []",
     "document: unknown keys ['variable']"),
    # keys of mixed types are listed, not compared
    ("group: {rank: 1, torsion: []}\nvariables: []\n1: a\nfoo: b",
     "document: unknown keys [1, 'foo']"),
    ("group: {rank: 1, torsoin: [2]}\nvariables: []",
     "group: unknown keys ['torsoin']"),
    ("group: {rank: 1, torsion: []}\nvariables: [{name: x, weight: 2, degree: "
     "{free: [1], torsion: []}}]", "variables[0]: unknown keys ['weight']"),
    ("group: {rank: 1, torsion: [2]}\nvariables: [{name: x, degree: "
     "{free: [1], torsoin: [1]}}]", "variables[0].degree: unknown keys ['torsoin']"),
])
def test_unknown_keys_are_rejected_at_every_level(tmp_path, text, message):
    # a misspelled key is an error, never a default: group: {torsoin: [2]}
    # would otherwise read as a group without torsion
    with pytest.raises(ParseError) as err:
        parse_ring_spec(text)
    assert str(err.value) == message
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code, out, err = run_cli(["check", "--spec", str(bad)])
    assert code == 3
    assert message in err


def test_undecodable_or_unbuildable_yaml_is_a_parse_error():
    for source in (b"group: {rank: 1}\n# \xff\n",
                   "group: {rank: !!int x, torsion: []}\nvariables: []\n"):
        with pytest.raises(ParseError):
            parse_ring_spec(source)


# Specs as the benchmark writes them: one flow mapping per variable.
BENCH_STYLE_SPECS = [
    "group: {rank: 2, torsion: [2]}\nvariables:\n"
    "  - {name: x0, degree: {free: [1, 0], torsion: [1]}}\n"
    "  - {name: x1, degree: {free: [0, 1], torsion: [0]}}\n"
    "  - {name: x2, degree: {free: [2, 1], torsion: [1]}}\n"
    "B: [x0*x1, x1*x2]\n",
    "group: {rank: 3, torsion: []}\nvariables:\n"
    "  - {name: x0, degree: {free: [1, 0, 0], torsion: []}}\n"
    "  - {name: x1, degree: {free: [0, 1, 0], torsion: []}}\n"
    "  - {name: x2, degree: {free: [0, 0, 1], torsion: []}}\n"
    "  - {name: x3, degree: {free: [1, 1, 1], torsion: []}}\n",
]

# YAML syntax, plus what the spec reader leaves to PyYAML: tab, "?", "!",
# carriage return, non-ASCII, and characters that cannot start a token
EDIT_ALPHABET = " \t\n\r?!%@`:,-#&*|>'\"{}[]01xé"


def _edited(rng, text):
    """`text` with one to three characters inserted, replaced or deleted.

    Half the edits fall right after a flow indicator, where spacing
    decides PyYAML's reading ("key:{" is a key and a mapping, "key:1" one
    scalar).
    """
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            pos = rng.choice([i for i, c in enumerate(chars[:-1], 1) if c in ":,[{"])
        else:
            pos = rng.randrange(len(chars))
        kind = rng.randrange(3)
        if kind == 0:
            chars.insert(pos, rng.choice(EDIT_ALPHABET))
        elif kind == 1:
            chars[pos] = rng.choice(EDIT_ALPHABET)
        else:
            del chars[pos]
    return "".join(chars)


def _outcome(parse, text):
    """The RingSpec read from `text`, or the kind and wording of the error."""
    try:
        return parse(text)
    except Exception as exc:  # any error, as the CLI reports it
        return type(exc), str(exc)


def _reader_agrees(text):
    """Whether the spec reader read `text` (not None); what it reads must
    be `yaml.safe_load`'s value, types and key order included, and the
    spec or error must be what PyYAML alone gives."""
    data = _read_spec_text(text)
    if data is not None:
        assert repr(data) == repr(yaml.safe_load(text)), text
    assert (_outcome(parse_ring_spec, text)
            == _outcome(oracles.parse_ring_spec_by_pyyaml, text)), text
    return data is not None


def test_reader_route_matches_pyyaml():
    # every edited text must read as PyYAML alone reads it: the same
    # RingSpec, or the same error with the same line, column and problem
    rng = random.Random(5)
    bases = [fixture_text(name) for name in FIXTURES] + BENCH_STYLE_SPECS
    texts = 3000
    read = sum(_reader_agrees(_edited(rng, rng.choice(bases))) for _ in range(texts))
    assert read >= 300 and texts - read >= 2000


# Scalars PyYAML reads as something other than a string or a decimal
# integer, or not at all, and names and integers it reads as the reader does
ADVERSARIAL_SCALARS = [
    "yes", "Yes", "YES", "no", "No", "on", "On", "ON", "off", "OFF", "true",
    "False", "null", "Null", "NULL", "~", "y", "n", "Y", "N", "010", "+1",
    "1_0", "0x1F", "0o17", "0b1", "1:30", ".5", "1.0", "1e3", ".inf", "'x'",
    '"x"', "*x", "&a", "!x", "<<", "=", "x^2*y", "x*y", "_x", "-0", "-1", "0",
    "2", "x0", "-x", "2001-12-14",
]


def _adversarial_spec(rng):
    """A spec in the reader's grammar with some scalars, spacings and
    comments drawn from what PyYAML reads differently."""
    def scalar(default):
        return rng.choice(ADVERSARIAL_SCALARS) if rng.random() < 0.015 else str(default)

    def colon():
        return rng.choice([": "] * 90 + [":  "] * 6 + [":   ", ":", " : "])

    def comma():
        return rng.choice([", "] * 16 + [","] * 2 + [",   ", " , "])

    def flow(entries, mapping):
        if mapping:
            entries = [f"{scalar(k)}{colon()}{v}" for k, v in entries]
        text = comma().join(entries)
        return "{" + text + "}" if mapping else "[" + text + "]"

    def comment():
        return rng.choice([""] * 16 + ["  # c", " # x: [1, 2]", " #", "# c"])

    torsion = rng.choice([[], [2], [2, 3]])
    lines = [f"group{colon()}" + flow(
        [("rank", scalar(2)), ("torsion", flow([scalar(t) for t in torsion], False))],
        True) + comment(), "variables:" + comment()]
    for i, free in enumerate([(1, 0), (0, 1), (1, 1)]):
        degree = flow([("free", flow([scalar(c) for c in free], False)),
                       ("torsion", flow([scalar(i % t) for t in torsion], False))],
                      True)
        entries = [("name", scalar(f"x{i}")), ("degree", degree)]
        if rng.random() < 0.1:  # a repeated key: PyYAML keeps the last value
            entries.insert(rng.randrange(3), (rng.choice(["name", "degree"]),
                                              scalar("y")))
        lines.append("  - " + flow(entries, True) + comment())
    if rng.random() < 0.05:  # "variables:" with no entries: PyYAML's null
        del lines[2:]
    if rng.random() < 0.5:
        lines.append(f"B{colon()}" + flow([scalar("x0*x2"), scalar("x1*x2")], False)
                     + comment())
    if rng.random() < 0.1:
        lines.append(rng.choice(lines[:1] + lines[-1:]))
    return "\n".join(lines) + "\n"


def test_reader_matches_pyyaml_on_adversarial_scalars():
    rng = random.Random(32)
    texts = [_adversarial_spec(rng) for _ in range(600)]
    read = [text for text in texts if _reader_agrees(text)]
    assert len(read) >= 150 and len(texts) - len(read) >= 250
    # the battery reaches specs that build, from both routes
    assert sum(isinstance(_outcome(parse_ring_spec, text), RingSpec)
               for text in read) >= 100


def test_reader_keeps_pyyaml_limits():
    # PyYAML refuses a key whose ":" is more than 1024 characters past its
    # start, and an integer past int()'s digit limit; the reader reads the
    # key just within the limit and leaves the rest to PyYAML
    plane = fixture_text("plane")
    for text, read in [
            (f"{'k' * 1023}: 1\n" + plane, True),
            (f"{'k' * 1030}: 1\n" + plane, False),
            (f"B: {{{'k' * 1030}: 1}}\n" + plane, False),
            (f"B: {{{'9' * 1030}: 1}}\n" + plane, False),
            (f"B: {{k{' ' * 1030}: 1}}\n" + plane, False),
            (f"k{' ' * 1030}: 1\n" + plane, False),
            ("k : 1\n" + plane, False),
            (plane.replace("torsion: []}", f"torsion: [{'9' * 5000}]}}", 1), False)]:
        assert _reader_agrees(text) == read


def test_reader_reads_one_node_per_line():
    # a node that ends before its line does, or runs on past it, is
    # PyYAML's, although JSON would read the tokens past it as more
    # members or entries
    plane = fixture_text("plane")
    entry = "  - {name: w, degree: {free: [1, 2], torsion: []}}"
    for tail in ["B: [x*y], C: [x]\n", "B: {a: 1\nb: 2}\n", entry + ", {name: v}\n",
                 entry + "], B: [x*y\n"]:
        assert not _reader_agrees(plane + tail)


def test_spec_loading_without_yaml(monkeypatch, tmp_path):
    # every packaged fixture and every spec as the benchmark writes it is
    # in the reader's grammar: it reads with PyYAML blocked, to the same
    # spec; a text outside the grammar is PyYAML's, and without PyYAML,
    # an optional extra, it is bad input (exit 3) that names both
    texts = [fixture_text(name) for name in FIXTURES] + BENCH_STYLE_SPECS
    expected = [_outcome(oracles.parse_ring_spec_by_pyyaml, text) for text in texts]
    monkeypatch.setitem(sys.modules, "yaml", None)
    assert [parse_ring_spec(text) for text in texts] == expected
    block = "group:\n  rank: 1\n  torsion: []\nvariables: []\n"
    with pytest.raises(ParseError) as err:
        parse_ring_spec(block)
    assert "flow grammar" in str(err.value) and "PyYAML" in str(err.value)
    path = tmp_path / "block.yaml"
    path.write_text(block)
    code, out, stderr = run_cli(["gens", "--spec", str(path)])
    assert (code, out) == (3, "") and "PyYAML" in stderr


def test_duplicate_variable_name_rejected():
    with pytest.raises(ParseError) as err:
        parse_ring_spec("""
group: {rank: 1, torsion: []}
variables:
  - {name: x, degree: {free: [1], torsion: []}}
  - {name: x, degree: {free: [2], torsion: []}}
""")
    assert "variables[1].name" in str(err.value)


def test_irrelevant_conical_entry_rejected():
    with pytest.raises(BadConicalIdeal):
        parse_ring_spec(TORSION_TEXT + "B: [y]\n")


def test_empty_variable_list_is_not_effective():
    with pytest.raises(NotEffective):
        parse_ring_spec("group: {rank: 1, torsion: []}\nvariables: []")


def test_rank_zero_spec_without_variables_is_fine():
    spec = parse_ring_spec("group: {rank: 0, torsion: []}\nvariables: []")
    assert spec.variables == ()


# small renderers

def test_monomial_text():
    names = ("x", "y", "z")
    assert Monomial((0, 0, 0)).render(names, "*") == "1"
    assert Monomial((1, 0, 2)).render(names, "*") == "x*z^2"


def test_laurent_text():
    names = ("x", "y", "z")
    assert laurent_text((0, 0, 0), names) == "1"
    assert laurent_text((1, 1, -1), names) == "xy/z"
    assert laurent_text((-1, -1, 1), names) == "z/(xy)"
    assert laurent_text((-2, 0, 2), names) == "z^2/x^2"


def test_group_text():
    assert group_text(FgAbGroup(0)) == "0"
    assert group_text(FgAbGroup(1)) == "Z"
    assert group_text(FgAbGroup(2, [2])) == "Z^2 x Z/2"


def test_parse_degree_forms():
    G = FgAbGroup(1, [2])
    want = G.element((2,), (1,))
    assert parse_degree(G, "(2 | 1 mod 2)") == want
    assert parse_degree(G, "2|1") == want
    assert parse_degree(G, "2") == G.element((2,), (0,))
    assert parse_degree(G, "(2 | 3 mod 2)") == want
    Z2 = FgAbGroup(2)
    assert parse_degree(Z2, "(1, 1)") == Z2.element((1, 1))
    P = FgAbGroup(0, [2])
    assert parse_degree(P, "(1 mod 2)") == P.element((), (1,))


def test_parse_degree_errors(tmp_path):
    G = FgAbGroup(2)
    with pytest.raises(ParseError):
        parse_degree(G, "(1)")
    with pytest.raises(ParseError):
        parse_degree(G, "(a, b)")
    # only the torsion part may be omitted; rank 0 has no free part to omit
    for text in ["", "()", " | ", "|1"]:
        with pytest.raises(ParseError, match="expected 2 free coordinates"):
            parse_degree(G, text)
    with pytest.raises(ParseError, match="expected 1 free coordinates"):
        parse_degree(FgAbGroup(1, [2]), "|1")
    assert str(parse_degree(FgAbGroup(0, [2]), "(1 mod 2)")) == "(1 mod 2)"
    # a torsion piece is c or c mod m with m its order; free pieces take no mod
    T = FgAbGroup(1, [2])
    for text in ["(2 | 1 mod 3)", "(2 | 1 mod)", "(2 | 1 modulo 2)",
                 "(2|1 mod 2 mod 5)", "2 mod 7 | 1"]:
        with pytest.raises(ParseError):
            parse_degree(T, text)
    code, out, err = run_cli(["sheaf", "(2 | 1 mod 3)", "--spec",
                              write_spec(tmp_path, "torsion")])
    line = "error: degree '(2 | 1 mod 3)': bad torsion coordinate '1 mod 3'\n"
    assert (code, err, out) == (3, line, "")
    code, out, err = run_cli(["sheaf", "", "--spec", write_spec(tmp_path, "plane")])
    line = "error: degree '': expected 2 free coordinates\n"
    assert (code, err, out) == (3, line, "")


def test_parse_prime_forms():
    spec = plane_spec()
    assert parse_prime(spec, "(0)").variables == ()
    assert parse_prime(spec, "").variables == ()
    assert parse_prime(spec, "(y, x)").variables == (0, 1)
    with pytest.raises(ParseError):
        parse_prime(spec, "(q)")


# execute payloads against the frozen corpus

def test_corpus_payloads_reproduce():
    specs = {}
    for entry in load_corpus():
        name = entry["fixture"]
        specs.setdefault(name, parse_ring_spec(fixture_text(name)))
        payload = execute(specs[name], entry["command"],
                          entry.get("args", []), entry.get("bound"))
        assert payload == entry["payload"], (name, entry["command"])


def test_corpus_runner_reports_clean():
    lines = []
    assert run_fixture_corpus(echo=lines.append) == 0
    assert lines[-1] == "fixture corpus: all entries match"


def test_execute_rejects_unknown_command():
    with pytest.raises(ParseError):
        execute(plane_spec(), "frobnicate", [])


def test_human_lines_exist_for_every_corpus_entry():
    specs = {}
    for entry in load_corpus():
        name = entry["fixture"]
        specs.setdefault(name, parse_ring_spec(fixture_text(name)))
        lines = human_lines(entry["command"], entry["payload"])
        assert lines and all(isinstance(line, str) for line in lines)
        assert all(line.isascii() for line in lines)


# command line behaviour

def write_spec(tmp_path, name):
    target = tmp_path / f"{name}.yaml"
    target.write_text(fixture_text(name))
    return str(target)


def test_cli_gens_human(tmp_path):
    code, out, err = run_cli(["gens", "--spec", write_spec(tmp_path, "plane")])
    assert code == 0
    assert out == "Gen = {yz, xz, xy}\n"


def test_cli_gens_rank_zero(tmp_path):
    code, out, err = run_cli(["gens", "--spec", write_spec(tmp_path, "parity")])
    assert code == 0
    assert "single affine chart" in out


def test_cli_separated_human(tmp_path):
    code, out, err = run_cli(["separated", "--spec", write_spec(tmp_path, "plane")])
    assert code == 0
    assert out.splitlines() == [
        "NOT SEPARATED; dependency class: nontrivial-irreducible",
        "  weak pair (yz, xz); witness z/(xy)",
    ]


def test_cli_companion_human(tmp_path):
    # h is printed as given, never raised to a power; f keeps its
    # parentheses because it can carry one
    ladder_l5 = """group: {rank: 2, torsion: []}
variables:
  - {name: x0, degree: {free: [1, 0], torsion: []}}
  - {name: x1, degree: {free: [0, 1], torsion: []}}
  - {name: x2, degree: {free: [1, 1], torsion: []}}
  - {name: x3, degree: {free: [1, 2], torsion: []}}
  - {name: x4, degree: {free: [2, 1], torsion: []}}
"""
    rank_three = """group: {rank: 3, torsion: []}
variables:
  - {name: x0, degree: {free: [1, 0, 0], torsion: []}}
  - {name: x1, degree: {free: [0, 1, 0], torsion: []}}
  - {name: x2, degree: {free: [0, 0, 1], torsion: []}}
  - {name: x3, degree: {free: [1, 1, 0], torsion: []}}
  - {name: x4, degree: {free: [0, 1, 1], torsion: []}}
  - {name: x5, degree: {free: [1, 0, 1], torsion: []}}
"""
    (tmp_path / "l5.yaml").write_text(ladder_l5)
    (tmp_path / "r3a.yaml").write_text(rank_three)
    cases = [
        (write_spec(tmp_path, "plane"), "z", "x*y", "(z) / (x*y) has degree zero"),
        (str(tmp_path / "l5.yaml"), "x2^2", "x0*x1",
         "(x2^2) / (x0*x1)^2 has degree zero"),
        (str(tmp_path / "r3a.yaml"), "x3*x4", "x0*x1*x5",
         "(x3*x4 * x0^2*x5) / (x0*x1*x5)^2 has degree zero"),
    ]
    for spec, h, f, line in cases:
        code, out, err = run_cli(["companion", h, f, "--spec", spec])
        assert code == 0
        assert out.splitlines() == [line]


@pytest.mark.parametrize("fixture, argv, line", [
    # x is not relevant on the plane
    ("plane", ["companion", "x", "x"], "no degree-zero companion for (x, x)"),
    # rank 0: x*x is of degree zero already, so k = 0
    ("parity", ["companion", "x", "x"], "x * x has degree zero"),
    ("plane", ["psi", "x*y", "(0)"], "psi_(x*y) maps (0) to {}"),
])
def test_cli_human_lines_of_empty_answers(tmp_path, fixture, argv, line):
    code, out, err = run_cli([*argv, "--spec", write_spec(tmp_path, fixture)])
    assert (code, out, err) == (0, line + "\n", "")


def test_cli_sheaf_human(tmp_path):
    code, out, err = run_cli(["sheaf", "(2 | 0 mod 2)", "--spec",
                              write_spec(tmp_path, "torsion")])
    assert code == 0
    assert out == ("twist by (2 | 0 mod 2): free: yes; "
                   "invertible: yes; witnesses z^2 | x^2\n")


def test_cli_sections_bound(tmp_path):
    code, out, err = run_cli(["sections", "(1, 1)", "--bound", "3",
                              "--spec", write_spec(tmp_path, "plane")])
    assert code == 0
    assert "{z, xy} (complete)" in out


def test_cli_json_digest_matches_file_bytes(monkeypatch, tmp_path):
    path = write_spec(tmp_path, "plane")
    first = run_cli(["gens", "--spec", path, "--json"])
    second = run_cli(["gens", "--spec", path, "--json"])
    assert first[0] == 0
    assert first[1] == second[1]
    report = json.loads(first[1])
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert report == {
        "command": "gens",
        "digest": digest,
        "payload": {"generators": ["yz", "xz", "xy"], "single_chart": False},
    }
    # the digest comes from the interpreter's built-in SHA-256 when it has
    # one: on every packaged fixture and every benchmark grading it is
    # hashlib's sha256 of the file's bytes as read, before parsing
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    paths = [str(resources.files("projd") / "fixtures" / f"{name}.yaml")
             for name in FIXTURES]
    for name in workloads.GRADINGS:
        path = tmp_path / f"{name}.yaml"
        path.write_text(workloads.spec_yaml(name), encoding="utf-8")
        paths.append(str(path))
    for path in paths:
        code, out, err = run_cli(["check", "--spec", path, "--json"])
        assert (code, err) == (0, ""), path
        raw = Path(path).read_bytes()
        assert json.loads(out)["digest"] == hashlib.sha256(raw).hexdigest(), path
    # a comment line changes the bytes, so the digest, and not the payload
    plain = tmp_path / "plain.yaml"
    plain.write_text(TORSION_TEXT)
    commented = tmp_path / "commented.yaml"
    commented.write_text("# the same grading\n" + TORSION_TEXT)
    reports = []
    for path in (plain, commented):
        code, out, err = run_cli(["gens", "--spec", str(path), "--json"])
        assert code == 0
        reports.append(json.loads(out))
        assert reports[-1]["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert reports[0]["payload"] == reports[1]["payload"]
    assert reports[0]["digest"] != reports[1]["digest"]


def test_cli_json_digest_falls_back_to_hashlib():
    # an interpreter built without the built-in SHA-256 module (_sha2 from
    # Python 3.12, _sha256 before) hashes with hashlib: every --json
    # report of the corpus, byte for byte the same
    src = str(Path(projd.__file__).resolve().parents[1])
    argvs = [argv + ["--json"] for _, _, argv in corpus_argvs()]
    expected = "".join(run_cli(argv)[1] for argv in argvs)
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
              "import projd.cli\n"
              "print('hashlib' in sys.modules, file=sys.stderr)\n"
              f"for argv in {argvs!r}:\n"
              "    assert projd.cli._run(argv) == 0, argv\n")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "True\n")
    assert done.stdout == expected


def test_cli_json_is_compact_and_sorted(tmp_path):
    code, out, err = run_cli(["separated", "--spec",
                              write_spec(tmp_path, "quad"), "--json"])
    line = out.rstrip("\n")
    assert json.dumps(json.loads(line), sort_keys=True,
                      separators=(",", ":")) == line


def test_cli_bytes_of_every_corpus_call():
    # every byte a corpus call writes, and its exit code, plain and with
    # --json, on the packaged fixture files: the payload tests above pin
    # the payloads, this pins the text around them
    digest = hashlib.sha256()
    for entry in load_corpus():
        path = resources.files("projd") / "fixtures" / f"{entry['fixture']}.yaml"
        argv = [entry["command"], *entry.get("args", []), "--spec", str(path)]
        if "bound" in entry:
            argv += ["--bound", str(entry["bound"])]
        for extra in ([], ["--json"]):
            digest.update(json.dumps(run_cli(argv + extra)).encode())
    assert digest.hexdigest() == (
        "d18e1f1911ca4dcb01c72757972bdf7d6ed685850c151f7a12b14f1f061ed0e4")


def test_cli_usage_error_exits_2(tmp_path):
    spec = write_spec(tmp_path, "plane")
    code, out, err = run_cli([])  # no command: the help, on stdout
    assert (code, err) == (2, "") and out
    for argv in (["gens"], ["frobnicate"],
                 ["gens", "--spec", str(tmp_path / "missing.yaml")],
                 ["gens", "--spec", str(tmp_path)],
                 ["sections", "(1, 1)", "--bound", "x", "--spec", spec],
                 ["gens", "--spec", spec, "--js"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err, argv
    # a report or a help screen written to a pipe whose reader has gone:
    # exit 1, and no traceback on stderr
    src = str(Path(projd.__file__).resolve().parents[1])
    for argv in (["gens", "--spec", spec, "--json"], ["--help"],
                 ["chart", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "projd.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b""), argv


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs Linux procfs")
def test_cli_unreadable_spec_exits_2():
    # a file that exists but cannot be read is bad usage, like a missing
    # one; exit 4 is for faults of the engine
    code, out, err = run_cli(["gens", "--spec", "/proc/self/mem"])
    assert (code, out) == (2, "")
    assert "Input/output error" in err and "internal error" not in err


def test_cli_validation_error_exits_3(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("group: {rank: 2\n")
    code, out, err = run_cli(["gens", "--spec", str(bad)])
    assert code == 3
    assert "error:" in err


def test_cli_deeply_nested_spec_exits_3(tmp_path):
    # the spec reader declines it, and PyYAML's composer runs past the
    # recursion limit: that is bad input, not a fault of the engine
    deep = tmp_path / "deep.yaml"
    deep.write_text("group: {rank: 1, torsion: " + "[" * 1200 + "]" * 1200 + "}\n")
    code, out, err = run_cli(["check", "--spec", str(deep)])
    assert (code, out) == (3, "")
    assert "nested too deeply" in err and "internal error" not in err


def test_cli_irrelevant_chart_exits_3(tmp_path):
    code, out, err = run_cli(["chart", "x", "--spec", write_spec(tmp_path, "plane")])
    assert code == 3
    assert "x is not relevant" in err


def test_cli_prime_meeting_chart_exits_3(tmp_path):
    code, out, err = run_cli(["psi", "x*y", "(x)", "--spec",
                              write_spec(tmp_path, "plane")])
    assert code == 3
    assert "meets the chart monomial" in err


@pytest.mark.parametrize("argv, line", [
    (["chart", "x"], "error: x is not relevant"),
    (["chart", "x", "--json"], "error: x is not relevant"),
    (["intersect", "x", "xy"], "error: x is not relevant"),
    (["intersect", "xy", "y"], "error: y is not relevant"),
    (["intersect", "x", "qq"], "error: unknown variable in monomial factor 'qq'"),
    (["psi", "x*y", "(x)"], "error: prime (x) meets the chart monomial"),
    (["psi", "xy", "(x,z)", "--json"], "error: prime (x, z) meets the chart monomial"),
])
def test_cli_relevance_error_lines(tmp_path, argv, line):
    code, out, err = run_cli([*argv, "--spec", write_spec(tmp_path, "plane")])
    assert (code, err, out) == (3, line + "\n", "")


# Each text is outside the spec reader's grammar and is read by PyYAML: a
# tab, a "?", an unclosed flow mapping, a "!," tag, CRLF line ends, and a
# ":" with no space after it ("key:{"), which PyYAML accepts.
@pytest.mark.parametrize("text, code, stdout, stderr", [
    ("group: {rank: 1, torsion: []}\nvariables:\n"
     "  - {name: x, degree: {free: [\t1], torsion: []}}\n", 3, "",
     "error: line 3, column 31: found character '\\t' that cannot start any token\n"),
    ("group: {rank: 1, torsion: []}\nvariables:\n"
     "  - {name: x, deg?ree: {free: [1], torsion: []}}\n", 3, "",
     "error: line 3, column 18: expected ',' or '}', but got '?'\n"),
    ("group: {rank: 2\nvariables: []\n", 3, "",
     "error: line 2, column 10: expected ',' or '}', but got ':'\n"),
    ("group: {rank: 1, torsion: [!, 2]}\nvariables: []\n", 3, "",
     "error: line 1, column 28: could not determine a constructor for the tag '!,'\n"),
    ("group: {rank: 1, torsion: []}\r\nvariables:\r\n"
     "  - {name: x, degree: {free: [1], torsion: []}}\r\n", 0,
     "OK: 1 variable graded by Z\n  deg(x) = (1)\n", ""),
    ("group: {rank: 1, torsion:[]}\nvariables:\n"
     "  - {name: x, degree:{free: [1], torsion: []}}\n", 0,
     "OK: 1 variable graded by Z\n  deg(x) = (1)\n", ""),
])
def test_cli_bad_yaml_lines(tmp_path, text, code, stdout, stderr):
    path = tmp_path / "spec.yaml"
    path.write_bytes(text.encode("utf-8"))
    assert run_cli(["check", "--spec", str(path)]) == (code, stdout, stderr)


def test_cli_internal_error_exits_4(tmp_path, monkeypatch):
    def boom(spec, command, args, bound=None):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr("projd.cli.execute", boom)
    code, out, err = run_cli(["gens", "--spec", write_spec(tmp_path, "plane")])
    assert code == 4
    assert "internal error: invariant broken" in err


def test_cli_internal_error_without_message_names_its_type(tmp_path, monkeypatch):
    # str(MemoryError()) is empty; the line names the exception instead
    def out_of_memory(spec, command, args, bound=None):
        raise MemoryError()

    monkeypatch.setattr("projd.cli.execute", out_of_memory)
    assert run_cli(["gens", "--spec", write_spec(tmp_path, "plane")]) == (
        4, "", "internal error: MemoryError\n")


def test_cli_library_value_error_exits_4(tmp_path, monkeypatch):
    def shape_mismatch(spec, f):
        raise ValueError("coordinate shape does not match the group")

    monkeypatch.setattr("projd.cli.chart_algebra", shape_mismatch)
    code, out, err = run_cli(["chart", "xy", "--spec", write_spec(tmp_path, "plane")])
    assert code == 4
    assert "internal error: coordinate shape" in err


def test_cli_intersect_reverse_inclusion_failure_exits_4(tmp_path, monkeypatch):
    # the f-chart always lies inside the fg-chart; a fault there is the
    # engine's, reported as one, never a FAILED verdict on the user's ring
    path = write_spec(tmp_path, "plane")
    code, out, err = run_cli(["intersect", "xy", "xz", "--spec", path])
    assert code == 0 and ": ok;" in out
    monkeypatch.setattr(ConstrainedSemigroup, "contains", lambda self, vec: False)
    code, out, err = run_cli(["intersect", "xy", "xz", "--spec", path])
    assert code == 4
    assert err.startswith("internal error: ")
    assert "FAILED" not in out + err


def test_cli_intersect_decomposition_failure_exits_4(tmp_path, monkeypatch):
    # every fg-chart element decomposes over the f-chart and its inverted
    # generators (charts.chart_intersection_check, steps 1-3); a target without one
    # is a fault of the engine, never a FAILED verdict
    monkeypatch.setattr("projd.charts.semigroup_member", lambda pool, target: None)
    with pytest.raises(InvariantError, match="does not decompose"):
        chart_intersection_check(plane_spec(), "xy", "xz")
    code, out, err = run_cli(["intersect", "xy", "xz", "--spec", write_spec(tmp_path, "plane")])
    assert code == 4
    assert err.startswith("internal error: ")
    assert "FAILED" not in out + err


def test_cli_sheaf_disagreement_is_an_invariant_error(tmp_path, monkeypatch):
    import projd.sheaves

    real = projd.sheaves.is_free
    monkeypatch.setattr("projd.sheaves.is_free", lambda spec, d: not real(spec, d))
    with pytest.raises(InvariantError, match="freeness and invertibility disagree"):
        execute(parse_ring_spec(fixture_text("torsion")), "sheaf", ["(2 | 0 mod 2)"])
    code, out, err = run_cli(["sheaf", "(2 | 0 mod 2)", "--spec",
                              write_spec(tmp_path, "torsion")])
    assert code == 4
    assert "internal error: freeness and invertibility disagree" in err


def test_fixture_corpus_passes_in_optimized_mode():
    # no corpus result may depend on an assert statement
    src = str(Path(projd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-m", "projd.cli", "--fixtures"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all entries match" in done.stdout


def test_cli_bad_monomial_and_bound_exit_3(tmp_path):
    path = write_spec(tmp_path, "plane")
    code, out, err = run_cli(["chart", "xq", "--spec", path])
    assert code == 3
    assert "error: unknown variable" in err
    code, out, err = run_cli(["sections", "(1, 1)", "--bound", "-1", "--spec", path])
    assert code == 3
    assert "error: bound must be nonnegative" in err


def test_cli_help_screens_are_unchanged(monkeypatch):
    # the screens do not wrap to the terminal's width
    golden = json.loads((Path(__file__).parent / "cli_help.json").read_text())
    assert set(golden) == {"projd", *COMMANDS}
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for name, text in golden.items():
            argv = [] if name == "projd" else [name]
            assert run_cli(argv + ["--help"]) == (0, text, ""), (columns, name)


def argparse_reading(parser, argv):
    """What the argparse parser of the CLI makes of `argv`: the tuple
    `parse_argv` returns, or (exit code, stdout, stderr) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            options = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    names = [] if options.command is None else [
        p for p in COMMANDS[options.command][0] if p is not BOUND]
    return (options.fixtures, options.command, [vars(options)[p] for p in names],
            getattr(options, "spec", None), getattr(options, "json", False),
            getattr(options, "bound", None))


def corpus_argvs():
    for entry in load_corpus():
        path = str(resources.files("projd") / "fixtures" / f"{entry['fixture']}.yaml")
        argv = [entry["command"], *entry.get("args", []), "--spec", path]
        if "bound" in entry:
            argv += ["--bound", str(entry["bound"])]
        yield entry, path, argv


def test_argv_reading_matches_argparse():
    # every corpus call, then a seeded battery that moves --spec, --json
    # and --bound before, between and after the params.  Left out on
    # purpose: tokens that start with a single dash, such as -x or -1,2,
    # which argparse refuses as unknown options and parse_argv passes on
    # as params (test_single_dash_tokens_are_params), and a "--" before
    # the command, which argparse takes for the command
    parser, _ = oracles.argparse_cli_parser()
    plane = str(resources.files("projd") / "fixtures" / "plane.yaml")
    argvs = [argv for _, _, argv in corpus_argvs()]
    argvs += [["--fixtures"], ["--fixtures", "--fixtures"],
              ["--fixtures", "gens", "--spec", plane],
              ["sheaf", "-1", "--spec", plane],
              ["sections", "--bound", "-1", "-1", "--spec", plane],
              ["chart", "--spec", plane, "--", "--x"],
              ["gens", "--spec", plane, "--spec", plane, "--json", "--json"]]
    rng = random.Random(29)
    for entry, path, _ in corpus_argvs():
        params = COMMANDS[entry["command"]][0]
        for _ in range(6):
            groups = [rng.choice([["--spec", path], [f"--spec={path}"]])]
            groups += [["--json"]] * rng.randrange(3)
            if BOUND in params:
                bound = rng.choice([str(entry.get("bound", 6)), "-1", "0"])
                groups.append(rng.choice([["--bound", bound], [f"--bound={bound}"]]))
            slots = [[] for _ in range(len(entry.get("args", [])) + 1)]
            for group in groups:
                slots[rng.randrange(len(slots))] += group
            argv = [entry["command"], *slots[0]]
            for arg, slot in zip(entry.get("args", []), slots[1:]):
                argv += [arg, *slot]
            argvs.append(argv)
    assert len(argvs) == 36 + 7 + 36 * 6
    for argv in argvs:
        assert parse_argv(argv) == argparse_reading(parser, argv), argv


def test_bad_argv_exits_2_like_argparse(tmp_path):
    # same exit code, no stdout and the same usage lines on stderr
    parser, _ = oracles.argparse_cli_parser()
    spec = write_spec(tmp_path, "plane")
    for argv in (["frobnicate", "--spec", spec], ["--frobnicate"],
                 ["gens", "--spec", spec, "--js"],
                 ["gens"], ["gens", "--json"], ["gens", "--spec"],
                 ["chart", "--spec", spec], ["intersect", "x", "--spec", spec],
                 ["gens", "extra", "--spec", spec], ["chart", "x", "y", "--spec", spec],
                 ["sections", "(1, 1)", "--bound", "x", "--spec", spec],
                 ["sections", "(1, 1)", "--spec", spec, "--bound"],
                 ["gens", "--spec", spec, "--bound", "3"],
                 ["gens", "--json=1", "--spec", spec], ["--fixtures=1"],
                 ["gens", "--spec", str(tmp_path / "missing.yaml")],
                 ["gens", "--spec", str(tmp_path)],
                 ["--fixtures", "gens"], ["--fixtures", "frobnicate"]):
        code, out, err = argparse_reading(parser, argv)
        assert (code, out) == (2, ""), argv
        assert run_cli(argv) == (code, out, err), argv


def test_single_dash_tokens_are_params():
    # only a token that starts with "--" is an option; argparse refused
    # these as unknown options
    parser, _ = oracles.argparse_cli_parser()
    plane = str(resources.files("projd") / "fixtures" / "plane.yaml")
    for argv in (["sheaf", "-1,2", "--spec", plane],
                 ["chart", "-x", "--spec", plane]):
        assert parse_argv(argv)[2] == [argv[1]]
        assert argparse_reading(parser, argv)[0] == 2
    assert run_cli(["sheaf", "-1,2", "--spec", plane]) == (
        0, "twist by (-1, 2): free: yes; invertible: yes; "
           "witnesses y^3/z | z^2/x^3 | y^2/x\n", "")


def test_cli_call_does_not_import_argparse():
    # a fresh interpreter per fixture, under -S: the call's own work, not
    # what a test runner, a site hook or an earlier call imported.  Neither
    # argparse nor PyYAML: the command line is read from COMMANDS and each
    # fixture by the spec reader.  Nor dataclasses and the inspect it pulls
    # in, a start-up cost of about 8 ms: the value classes and reports are
    # spelled without them.  Nor hashlib, which loads OpenSSL's libcrypto
    # (and _blake2): the --json digest is the built-in SHA-256
    src = str(Path(projd.__file__).resolve().parents[1])
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = {}
    for entry, _, argv in corpus_argvs():
        argvs.setdefault(entry["fixture"], argv)
    assert sorted(argvs) == sorted(FIXTURES)
    for argv in argvs.values():
        script = ("import sys, projd.cli\n"
                  "try:\n"
                  f"    projd.cli.main.main(args={argv + ['--json']!r}, prog_name='projd')\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n"
                  "print(sorted({'argparse', 'yaml', 'dataclasses', 'inspect',"
                  " 'hashlib', '_hashlib', '_blake2'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path_env))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]", argv
    # python -S: no site hook may import importlib.resources first, so this
    # sees that only --fixtures, which reads package data, loads it
    script = (f"import sys\nsys.path.insert(0, {src!r})\nimport projd.cli\n"
              "print(sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))\n"
              "projd.cli.main(['--fixtures'])\n")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "fixture corpus: all entries match")


def test_command_table_matches_the_corpus():
    assert set(COMMANDS) == {entry["command"] for entry in load_corpus()}


def test_cli_fixture_corpus_passes():
    code, out, err = run_cli(["--fixtures"])
    assert code == 0
    assert out.splitlines()[-1] == "fixture corpus: all entries match"


def test_fixture_corpus_mismatch_exits_4(monkeypatch):
    corpus = load_corpus()
    corpus[0] = dict(corpus[0], payload={"generators": ["oops"],
                                         "single_chart": False})
    monkeypatch.setattr("projd.cli.load_corpus", lambda: corpus[:1])
    lines = []
    assert run_fixture_corpus(echo=lines.append) == 4
    assert any("MISMATCH" in line for line in lines)


def test_fixture_corpus_error_exits_4(monkeypatch):
    # an entry that raises is reported with its message, and the run goes on
    gens = load_corpus()[0]
    monkeypatch.setattr("projd.cli.load_corpus",
                        lambda: [dict(gens, command="frobnicate"), gens])
    lines = []
    assert run_fixture_corpus(echo=lines.append) == 4
    assert lines == ["plane frobnicate: ERROR unknown command 'frobnicate'",
                     "plane gens: ok", "1 mismatching corpus entries"]


def test_every_public_function_is_reached_by_a_command_or_named_in_the_readme():
    # src/ holds what the CLI runs or the README promises: a function that
    # only the tests call belongs in tests/oracles.py
    public = {}
    for name in ("fgab", "diophantine", "ringspec", "charts", "separation",
                 "sheaves", "cli"):
        module = importlib.import_module(f"projd.{name}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                public[value.__code__] = f"{module.__name__}.{attr}"
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert projd.cli._run(["--fixtures"]) == 0
            for entry in load_corpus():
                path = resources.files("projd") / "fixtures" / f"{entry['fixture']}.yaml"
                argv = [entry["command"], *entry.get("args", []), "--spec", str(path)]
                if "bound" in entry:
                    argv += ["--bound", str(entry["bound"])]
                assert projd.cli._run(argv) == 0, argv
            assert projd.cli._run(["--help"]) == 0
            for command in COMMANDS:
                assert projd.cli._run([command, "--help"]) == 0
    finally:
        sys.setprofile(previous)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    unreached = {name for code, name in public.items()
                 if code not in reached and name != "projd.cli.main"}
    named = {name for name in unreached
             if re.search(rf"\b{name.rsplit('.', 1)[1]}\b", readme)}
    assert sorted(unreached - named) == []
    # what the README alone keeps alive: the index of the twist subgroup,
    # which a command that reports that subgroup would read
    assert named == {"projd.fgab.subgroup_index"}
