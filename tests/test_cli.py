from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles
import projd
import pytest
import yaml
from click.testing import CliRunner
from projd.cli import (
    COMMANDS,
    ParseError,
    execute,
    fixture_text,
    group_text,
    human_lines,
    laurent_text,
    load_corpus,
    main,
    parse_degree,
    parse_prime,
    parse_ring_spec,
    run_fixture_corpus,
)
from projd.diophantine import ConstrainedSemigroup, InvariantError
from projd.fgab import FgAbGroup
from projd.ringspec import BadConicalIdeal, Monomial, NotEffective

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
    result = CliRunner().invoke(main, ["check", "--spec", str(bad)])
    assert result.exit_code == 3
    assert message in result.output


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

# YAML syntax, plus what libyaml and PyYAML read differently: tab, "?",
# "!", carriage return, non-ASCII, and characters that cannot start a token
EDIT_ALPHABET = " \t\n\r?!%@`:,-#&*|>'\"{}[]01xé"


def _edited(rng, text):
    """`text` with one to three characters inserted, replaced or deleted.

    Half the edits fall right after a flow indicator, where the two
    scanners differ most (libyaml rejects "key:{", PyYAML accepts it).
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


def test_libyaml_route_matches_pyyaml(monkeypatch):
    # every edited text must read as PyYAML alone reads it: the same
    # RingSpec, or the same error with the same line, column and problem
    verdicts = []  # libyaml's verdict on each text it was given

    class RecordingLoader(yaml.CSafeLoader):
        def get_single_data(self):
            try:
                data = super().get_single_data()
            except (yaml.YAMLError, ValueError):
                verdicts.append(False)
                raise
            verdicts.append(True)
            return data

    readings = {}  # PyYAML reads each text once, for both sides
    safe_load = yaml.safe_load

    def read_once(text):
        if text not in readings:
            try:
                readings[text] = safe_load(text), None
            except (yaml.YAMLError, ValueError) as exc:
                readings[text] = None, exc
        value, error = readings[text]
        if error is not None:
            raise error
        return value

    monkeypatch.setattr(yaml, "CSafeLoader", RecordingLoader)
    monkeypatch.setattr(yaml, "safe_load", read_once)
    rng = random.Random(5)
    bases = [fixture_text(name) for name in FIXTURES] + BENCH_STYLE_SPECS
    texts = 3000
    libyaml_read = only_libyaml_rejects = 0
    for _ in range(texts):
        text = _edited(rng, rng.choice(bases))
        asked = len(verdicts)
        assert (_outcome(parse_ring_spec, text)
                == _outcome(oracles.parse_ring_spec_by_pyyaml, text)), text
        if len(verdicts) > asked and verdicts[-1]:
            libyaml_read += 1
        elif len(verdicts) > asked:  # libyaml refused; did PyYAML accept?
            only_libyaml_rejects += readings[text][1] is None
    assert libyaml_read >= 200 and texts - libyaml_read >= 200
    assert only_libyaml_rejects >= 50


def test_spec_loading_without_libyaml(monkeypatch):
    # PyYAML built without its C extension has no CSafeLoader
    texts = [fixture_text(name) for name in FIXTURES] + BENCH_STYLE_SPECS
    texts.append("group: {rank: 1, torsion:[]}\nvariables: [{name: x\n")
    expected = [_outcome(parse_ring_spec, text) for text in texts]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert [_outcome(parse_ring_spec, text) for text in texts] == expected


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
    result = CliRunner().invoke(main, ["sheaf", "(2 | 1 mod 3)", "--spec",
                                       write_spec(tmp_path, "torsion")])
    line = "error: degree '(2 | 1 mod 3)': bad torsion coordinate '1 mod 3'\n"
    assert (result.exit_code, result.stderr, result.stdout) == (3, line, "")
    result = CliRunner().invoke(main, ["sheaf", "", "--spec", write_spec(tmp_path, "plane")])
    line = "error: degree '': expected 2 free coordinates\n"
    assert (result.exit_code, result.stderr, result.stdout) == (3, line, "")


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
    runner = CliRunner()
    result = runner.invoke(main, ["gens", "--spec", write_spec(tmp_path, "plane")])
    assert result.exit_code == 0
    assert result.output == "Gen = {yz, xz, xy}\n"


def test_cli_gens_rank_zero(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["gens", "--spec", write_spec(tmp_path, "parity")])
    assert result.exit_code == 0
    assert "single affine chart" in result.output


def test_cli_separated_human(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main,
                           ["separated", "--spec", write_spec(tmp_path, "plane")])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
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
    runner = CliRunner()
    for spec, h, f, line in cases:
        result = runner.invoke(main, ["companion", h, f, "--spec", spec])
        assert result.exit_code == 0
        assert result.output.splitlines() == [line]


def test_cli_sheaf_human(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sheaf", "(2 | 0 mod 2)", "--spec",
                                  write_spec(tmp_path, "torsion")])
    assert result.exit_code == 0
    assert result.output == ("twist by (2 | 0 mod 2): free: yes; "
                             "invertible: yes; witnesses z^2 | x^2\n")


def test_cli_sections_bound(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sections", "(1, 1)", "--bound", "3",
                                  "--spec", write_spec(tmp_path, "plane")])
    assert result.exit_code == 0
    assert "{z, xy} (complete)" in result.output


def test_cli_json_digest_matches_file_bytes(tmp_path):
    path = write_spec(tmp_path, "plane")
    runner = CliRunner()
    first = runner.invoke(main, ["gens", "--spec", path, "--json"])
    second = runner.invoke(main, ["gens", "--spec", path, "--json"])
    assert first.exit_code == 0
    assert first.output == second.output
    report = json.loads(first.output)
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert report == {
        "command": "gens",
        "digest": digest,
        "payload": {"generators": ["yz", "xz", "xy"], "single_chart": False},
    }


def test_cli_json_is_compact_and_sorted(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["separated", "--spec",
                                  write_spec(tmp_path, "quad"), "--json"])
    line = result.output.rstrip("\n")
    assert json.dumps(json.loads(line), sort_keys=True,
                      separators=(",", ":")) == line


def test_cli_usage_error_exits_2():
    runner = CliRunner()
    assert runner.invoke(main, []).exit_code == 2
    assert runner.invoke(main, ["gens"]).exit_code == 2
    assert runner.invoke(main, ["frobnicate"]).exit_code == 2


def test_cli_validation_error_exits_3(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("group: {rank: 2\n")
    runner = CliRunner()
    result = runner.invoke(main, ["gens", "--spec", str(bad)])
    assert result.exit_code == 3
    assert "error:" in result.output


def test_cli_irrelevant_chart_exits_3(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["chart", "x", "--spec",
                                  write_spec(tmp_path, "plane")])
    assert result.exit_code == 3
    assert "x is not relevant" in result.output


def test_cli_prime_meeting_chart_exits_3(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["psi", "x*y", "(x)", "--spec",
                                  write_spec(tmp_path, "plane")])
    assert result.exit_code == 3
    assert "meets the chart monomial" in result.output


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
    result = CliRunner().invoke(main, [*argv, "--spec", write_spec(tmp_path, "plane")])
    assert (result.exit_code, result.stderr, result.stdout) == (3, line + "\n", "")


# Each text reaches PyYAML: a tab, "?" or a "!," tag that libyaml would
# accept, an unclosed flow mapping, CRLF line ends, and a text ("key:{")
# that libyaml rejects and PyYAML accepts.
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
    result = CliRunner().invoke(main, ["check", "--spec", str(path)])
    assert (result.exit_code, result.stdout, result.stderr) == (code, stdout, stderr)


def test_cli_internal_error_exits_4(tmp_path, monkeypatch):
    def boom(spec, command, args, bound=None):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr("projd.cli.execute", boom)
    runner = CliRunner()
    result = runner.invoke(main, ["gens", "--spec", write_spec(tmp_path, "plane")])
    assert result.exit_code == 4
    assert "internal error: invariant broken" in result.output


def test_cli_library_value_error_exits_4(tmp_path, monkeypatch):
    def shape_mismatch(spec, f):
        raise ValueError("coordinate shape does not match the group")

    monkeypatch.setattr("projd.cli.chart_algebra", shape_mismatch)
    runner = CliRunner()
    result = runner.invoke(main, ["chart", "xy", "--spec",
                                  write_spec(tmp_path, "plane")])
    assert result.exit_code == 4
    assert "internal error: coordinate shape" in result.output


def test_cli_intersect_reverse_inclusion_failure_exits_4(tmp_path, monkeypatch):
    # the f-chart always lies inside the fg-chart; a fault there is the
    # engine's, reported as one, never a FAILED verdict on the user's ring
    path = write_spec(tmp_path, "plane")
    runner = CliRunner()
    result = runner.invoke(main, ["intersect", "xy", "xz", "--spec", path])
    assert result.exit_code == 0 and ": ok;" in result.output
    monkeypatch.setattr(ConstrainedSemigroup, "contains", lambda self, vec: False)
    result = runner.invoke(main, ["intersect", "xy", "xz", "--spec", path])
    assert result.exit_code == 4
    assert result.output.startswith("internal error: ")
    assert "FAILED" not in result.output


def test_cli_sheaf_disagreement_is_an_invariant_error(tmp_path, monkeypatch):
    import projd.sheaves

    real = projd.sheaves.is_free
    monkeypatch.setattr("projd.sheaves.is_free", lambda spec, d: not real(spec, d))
    with pytest.raises(InvariantError, match="freeness and invertibility disagree"):
        execute(parse_ring_spec(fixture_text("torsion")), "sheaf", ["(2 | 0 mod 2)"])
    runner = CliRunner()
    result = runner.invoke(main, ["sheaf", "(2 | 0 mod 2)", "--spec",
                                  write_spec(tmp_path, "torsion")])
    assert result.exit_code == 4
    assert "internal error: freeness and invertibility disagree" in result.output


def test_fixture_corpus_passes_in_optimized_mode():
    # no corpus result may depend on an assert statement
    src = str(Path(projd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-m", "projd.cli", "--fixtures"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all entries match" in done.stdout


def test_cli_bad_monomial_and_bound_exit_3(tmp_path):
    runner = CliRunner()
    path = write_spec(tmp_path, "plane")
    result = runner.invoke(main, ["chart", "xq", "--spec", path])
    assert result.exit_code == 3
    assert "error: unknown variable" in result.output
    result = runner.invoke(main, ["sections", "(1, 1)", "--bound", "-1",
                                  "--spec", path])
    assert result.exit_code == 3
    assert "error: bound must be nonnegative" in result.output


def test_cli_help_screens_are_unchanged():
    # recorded from the hand-written click commands the table replaced
    golden = json.loads((Path(__file__).parent / "cli_help.json").read_text())
    assert set(golden) == {"projd", *COMMANDS} == {"projd", *main.commands}
    runner = CliRunner()
    for name, text in golden.items():
        argv = [] if name == "projd" else [name]
        result = runner.invoke(main, argv + ["--help"], prog_name="projd",
                               terminal_width=80)
        assert result.exit_code == 0
        assert result.output == text, name


def test_command_table_matches_the_corpus():
    assert set(COMMANDS) == {entry["command"] for entry in load_corpus()}


def test_cli_fixture_corpus_passes():
    runner = CliRunner()
    result = runner.invoke(main, ["--fixtures"])
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "fixture corpus: all entries match"


def test_fixture_corpus_mismatch_exits_4(monkeypatch):
    corpus = load_corpus()
    corpus[0] = dict(corpus[0], payload={"generators": ["oops"],
                                         "single_chart": False})
    monkeypatch.setattr("projd.cli.load_corpus", lambda: corpus[:1])
    lines = []
    assert run_fixture_corpus(echo=lines.append) == 4
    assert any("MISMATCH" in line for line in lines)
