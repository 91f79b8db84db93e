"""End-to-end command line behaviour: formats, exit codes, determinism."""

import copy
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toriclab
import toriclab.cli as cli
from toriclab.bases import graph_config
from toriclab.binomials import make_basis_set
from toriclab.cli import main
from toriclab.corpus import ladder_graph
from toriclab.errors import InternalInvariantError
from toriclab.graphs import graph_to_json, load_graph

from conftest import (
    FIXTURES,
    double_every_walk_edge,
    dumbbell_graph,
    fan_graph,
    fixture_path,
    grid_graph,
    hung_cycle_graph,
    theta_graph,
    triangle_chain_graph,
    wheel_graph,
    windmill_graph,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "command,count",
    [("circuits", 3), ("graver", 3), ("ugb", 3), ("markov", 3)],
)
def test_set_commands_text(capsys, command, count):
    code, out, err = run(capsys, command, fixture_path("k4"))
    assert code == 0
    assert f"{count} elements" in out
    assert "e1*e2 - e3*e4" in out
    assert "[time]" in err


def test_set_command_json(capsys):
    code, out, err = run(capsys, "circuits", "--format", "json", fixture_path("c4"))
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] == "circuits"
    assert report["set"]["kind"] == "circuits"
    assert report["set"]["count"] == 1
    assert report["set"]["elements"][0]["text"] == "e1*e2 - e3*e4"
    assert report["input"]["digest"]


def test_json_output_is_byte_identical(capsys):
    first = run(capsys, "analyze", "--format", "json", fixture_path("domino"))
    second = run(capsys, "analyze", "--format", "json", fixture_path("domino"))
    assert first == second
    assert first[0] == 0


# sha256 of a report's stdout; any change to a report's bytes shows up here,
# so a change that means to alter output must update these on purpose.  The
# analyze reports write shared sub-objects from one text, which re-encoding
# what was printed (`_assert_canonical`) would not catch if it went wrong.
# The 8-vertex 16-edge ladder graph has no oracle entry: its box-2 oracle
# exits 3 (3^16 box vectors, past the oracle's limit).
PINNED_REPORT_SHA256 = {
    ("bowtie", "analyze"): "da53c7f9870e63da0638d483bf977b02529dc58df772cd4af5cb17d9b1bc5862",
    ("bowtie", "analyze-oracle"): "8b3deaf3ebc04235e4e1ccc3dc1203960abdcec0f2748968f6b1b76bd32bdd76",
    ("bowtie", "analyze-text"): "f73960fce4fa4dd6a08ba84bf4c1d2c5b35b45e11ea2dceceac3e08263a94b52",
    ("bowtie", "check"): "8d3db564e43ad6d6b70788c84a25ad0a1b8043f31eb0ad5d739560ed64265d1a",
    ("c4", "analyze"): "836ff9b68e9395bb495407b6b73d98c6fde587feec416033f423418bdc52f944",
    ("c4", "analyze-oracle"): "914937d11fd1d952e3e1d61a27e2dcd0ea4e3f8ecaef749b5bc7869297c5cb28",
    ("c4", "analyze-text"): "9a19e1cea64e8e5d83341a8df6f1d471bddf4f78ba997db290236a48e99cf6b0",
    ("c4", "check"): "e39c6ed87d260ad3f59f219491103edd1de93bb62ff851a56ca87bcdfad8d902",
    ("domino", "analyze"): "9a6b40d0f77fbe7bb94ae89fce3c661963357c7b3ca439f754a087bfa958fca5",
    ("domino", "analyze-oracle"): "6067f216b552faf73382a7aa491c51042e2d5a102f63f2ba0c565ed9055cf8d3",
    ("domino", "analyze-text"): "c14143dfb9e35ef2e5bcfa54ac22bdd633c9861ef3fd7850b39253f6a5e26f67",
    ("domino", "check"): "fd1f693b86ec96c63ffb5c25c9a0018bc4a2c0cc1c8708a782bbbef3a407ef90",
    ("hexchord", "analyze"): "55a225bbd2a020409d2ae5e0366af04d37fe2d54853829fa4f859588dd00dbb4",
    ("hexchord", "analyze-oracle"): "5f3c25e44d1b6045213854d942db3e9f18151a083777e8a6e8c0007fb9cd0a74",
    ("hexchord", "analyze-text"): "a192727486442750259fc0cb4e64f8c715d5fe3bb999ac7ba4b7b013dddcdb59",
    ("hexchord", "check"): "611c1ff2a6c41c45c604db71eb69dc394ae4a20b00df8cf906bd9df6734eb992",
    ("k4", "analyze"): "7a24e3bd89a36343f54d2122be78a49230e5fd592c354ca2e5c21842f458aeb8",
    ("k4", "analyze-oracle"): "ef66780400f4934bc8b01cfd6101adf6e0f90e434e9e1cd6802468412c0fcf5b",
    ("k4", "analyze-text"): "0510146de7d2d99d28156fca05601101e4eef92478054f2d1f53be22ad8c1f41",
    ("k4", "check"): "ccc6c71ae926057e5c418a5eefb540e99cf36e032626e59d9e4e8fcf90bb079b",
    ("octagon_three_chords", "analyze"): "479817eb92f2122d00219cd3203664a19bcd8a0f5cd8b2d9e1ed250ce18ae928",
    ("octagon_three_chords", "analyze-oracle"): "2b969b395e9ca5dc99d7d94f220c2cf3d1bcbe874219b8c9e519c5e1a005189b",
    ("octagon_three_chords", "analyze-text"): "ed3f401008c5d4b14c3e239662d5972330079788ff1c8671a33f41a6070e744a",
    ("octagon_three_chords", "check"): "e7459daac3ba00fbe91ba76c2d063ee8b54da2103172a3818888b845c758fd75",
    ("tri_edge_tri", "analyze"): "58ff95e9de3401acda26125d7d2659ba75083af440ae2b2dd2e1ace130f3d716",
    ("tri_edge_tri", "analyze-oracle"): "cea75ab0beafa0729df48de834a9b5dfa3e1a9a9213470bb5b9048eaeb0ee5b8",
    ("tri_edge_tri", "analyze-text"): "4c9e8f4bfa8b2c969fbb4de3efd2645c472a9fe5ab890ef4d72d9a0d03c0f10b",
    ("tri_edge_tri", "check"): "0cad8f5f862dbaf4a686db82c61ccd127eab27f9a5bb20da81eb7c6aed0d7221",
    ("tri_square_tri_adjacent", "analyze"): "39f2e42be372a0dffc89af4cefb6fdd2d46ddc5d83d55ce6ae7d0f82144f61ba",
    ("tri_square_tri_adjacent", "analyze-oracle"): "903de7bde126147e459206ccb89b5b5c7ee4a79b6437b34074a314011e5fb1ec",
    ("tri_square_tri_adjacent", "analyze-text"): "74c5b1008dc15799f40bfd081c711c1d8c68c60f43b97cc4296aaa0258dc2722",
    ("tri_square_tri_adjacent", "check"): "dfe29d5287f82f412d962252ccd60bb395458d02cd6ebdc05e4ed3c4336d12a8",
    ("tri_square_tri_opposite", "analyze"): "38e9bd185fa416aa947780ddf9ee31bb729af91a732c04455850d7a4ccd77585",
    ("tri_square_tri_opposite", "analyze-oracle"): "b2178329ca70b651b92d8be1436bb8f3939dda1a22d9fa4abd1c8109bbcf5a9e",
    ("tri_square_tri_opposite", "analyze-text"): "d81cd67290a4e796a7c996841df466a2f07c4587908e10140926e21b7bbb5aa2",
    ("tri_square_tri_opposite", "check"): "e3789ab5e63fafa9f914429357d3273f2f90ccd5170194c1da91647d13f0c6e9",
    ("triangle_per_corner", "analyze"): "ffe13725c0fd9afcfc5ee4b4c5adfae8402410457e939024f4368ba98ca4573c",
    ("triangle_per_corner", "analyze-oracle"): "22953c145555da142da5c3ce491b2536b09d7211f4aa60a8c747b47c3acb530e",
    ("triangle_per_corner", "analyze-text"): "fe2d65025189a92557539cae0f92ebe0a7b63fbcd96d503be50e909ddfef4119",
    ("triangle_per_corner", "check"): "394a36022a406fc878150fd5abcfeda4c85285c78e87c8186a7e299c19140395",
    ("ladder-8-16", "analyze"): "f840c95ebc00a09c800208aefd5bd75e35aa5e3185e92b50eb3ce07f25d9b0af",
    ("ladder-8-16", "analyze-text"): "301ec8d0cce4753dab104880050345a713ed194299b11e566cc37622578ef20f",
    ("grid-2x8", "check-force"): "380bce424a07750fd05baaf5b693e2dfb4be98b501bc9c3efb36b19536c9c11d",
    ("grid-2x12", "check-force"): "6b443db30b058bcfe89c56be3aa6e0944e853f16de69376e8b8995bf56a51dd6",
    ("windmill-20", "check-force"): "58492e76c1247b36f78b0622eb872d74a64802ab2e4ac2e3549d98ee6d281b2d",
    ("hung-cycle-6", "check-force"): "b97ec74054846aa546a413d3ca0a062646a5a33ab9579119b38cb24db0288972",
    ("theta-7-8-9", "analyze-force"): "6c5ae6c99ef578ea82ef567d53598e994d100692bd630e9aefad4d9cfefecd91",
    ("theta-7-8-9", "check-force"): "6fb1ce88a221957f1bc369afc05a2abf671eb7653a742cc933f873c26038c13a",
    ("dumbbell-20", "analyze-force"): "a962151e37a8b37d6a330dc1936bf754c433c47196c6b56f952b539e12060ecf",
    ("dumbbell-20", "check-force"): "672bdd41c9ab318f4a7367d3231c9962e2624d821be85f011a000fb0d2aa45ab",
    ("triangle-chain-8", "analyze-force"): "a0beeaa8cf66ad356ec3bc4d6a54b4cf93cbcd8b5591a44d0e16f7cad1d8853f",
    ("triangle-chain-8", "check-force"): "1e094a76740d8a96ad3ca6dc0803758dab884a61b784672a8970eadccdcdba05",
    ("fan-11", "analyze-force"): "0f8614baafcf235658a3cafd2f0860f029a9f7f9c38c37d33b33574ab8d57af5",
    ("fan-11", "check-force"): "618095cfe9c7acbd1ec1084d50689da500f42cb9b3c06b2b713f6d9b95b3e4b1",
    ("wheel-10", "analyze-force"): "265142172f7158265099cabbdf5b6d07292667ca6778737051b1bdfc51491396",
    ("wheel-10", "check-force"): "afab36d2982c8ee5d14bd634cd3ab003376989915007fa1ebf53664b14d1da46",
}

# Graphs built from a recipe rather than read from a fixture file.  Past the
# unforced edge limit are the sparse structured families: grids (bipartite,
# not generalized robust), a windmill of triangles (robust) and the 12-cycle
# with a triangle hung at each of its first six vertices.  The families
# whose walk trees grow along paths and around hubs follow: a theta graph,
# two triangles joined by a 20-edge path, a chain of eight triangles, a fan
# and a wheel.
_BUILT_GRAPHS = {
    "ladder-8-16": lambda: ladder_graph(8, 16),
    "grid-2x8": lambda: grid_graph(8),
    "grid-2x12": lambda: grid_graph(12),
    "windmill-20": lambda: windmill_graph(20),
    "hung-cycle-6": lambda: hung_cycle_graph(6),
    "theta-7-8-9": lambda: theta_graph(7, 8, 9),
    "dumbbell-20": lambda: dumbbell_graph(20),
    "triangle-chain-8": lambda: triangle_chain_graph(8),
    "fan-11": lambda: fan_graph(11),
    "wheel-10": lambda: wheel_graph(10),
}


_PINNED_ARGV = {
    "analyze": ("analyze", "--format", "json"),
    "analyze-oracle": ("analyze", "--oracle", "--samples", "2", "--format", "json"),
    "analyze-text": ("analyze", "--format", "text"),
    "check": ("check", "--format", "json"),
    "check-force": ("check", "--force", "--format", "json"),
    "analyze-force": ("analyze", "--force", "--format", "json"),
}


@pytest.mark.parametrize("name,command", sorted(PINNED_REPORT_SHA256))
def test_json_report_matches_pinned_digest(capsys, tmp_path, name, command):
    if name in _BUILT_GRAPHS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_json(_BUILT_GRAPHS[name]())))
    else:
        path = fixture_path(name)
    code, out, _ = run(capsys, *_PINNED_ARGV[command], path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORT_SHA256[name, command]


# sha256 of `matrix --format json --box <box>` on the n5 matrix and on three
# fixtures' incidence matrices (1, 4 and 6 indispensable degrees at box 2).
PINNED_MATRIX_SHA256 = {
    ("n5", 1): "a6786de2b5beac489c579ddf555bdf21e51b7ba73de275bd4e28f9c278aa5961",
    ("n5", 2): "43e011ccd218e634d9110d011a67992bfb9bc77de20961e92e821d124474e709",
    ("c4", 2): "e178452cdf841bc971f9fb2a15e02a769761b03ab94c13633b3d4f99325f9fe3",
    ("tri_square_tri_opposite", 2): "94d5e5378064d1223bdbe26ce217fd6218a5202f07e04f6a9da68902243a09e5",
    ("triangle_per_corner", 2): "8c45201e2c931eb56f9ae5ce04cf4512c7780c95af035ea3795d3d35867bffb6",
}


@pytest.mark.parametrize("name,box", sorted(PINNED_MATRIX_SHA256))
def test_matrix_json_matches_pinned_digest(capsys, tmp_path, graph_of, name, box):
    if name == "n5":
        path = FIXTURES / "matrix" / "n5.json"
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_config(graph_of(name)).to_json()))
    code, out, _ = run(capsys, "matrix", "--format", "json", "--box", box, path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MATRIX_SHA256[name, box]


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("tri_square_tri_adjacent"))
    assert code == 0
    assert "generalized_robust: no" in out
    assert "robust: no" in out
    assert "implications: ok" in out
    assert "minimal markov size: 2" in out
    assert "fails=M4" in out


# The whole stdout of three text renderers, pinned line for line.
PINNED_TEXT = {
    "analyze-oracle": """\
graph 2862521c939c: 4 vertices, 6 edges
circuits: 3 elements
  e3*e4 - e5*e6  [circuit mixed minimal shape=even-cycle]
  e1*e2 - e5*e6  [circuit mixed minimal shape=even-cycle]
  e1*e2 - e3*e4  [circuit mixed minimal shape=even-cycle]
graver: 3 elements
  e3*e4 - e5*e6  [circuit mixed minimal]
  e1*e2 - e5*e6  [circuit mixed minimal]
  e1*e2 - e3*e4  [circuit mixed minimal]
ugb: 3 elements
  e3*e4 - e5*e6  [circuit mixed minimal]
  e1*e2 - e5*e6  [circuit mixed minimal]
  e1*e2 - e3*e4  [circuit mixed minimal]
markov: 3 elements
  e3*e4 - e5*e6  [circuit mixed minimal]
  e1*e2 - e5*e6  [circuit mixed minimal]
  e1*e2 - e3*e4  [circuit mixed minimal]
indispensable: 0 elements
betti degrees: 1
minimal markov size: 2
generalized_robust: yes
robust: no
  markov-equals-graver: yes
  primitive-chord-conditions: yes
  circuit-conditions: yes
  unique-minimal-generation: no  witness={"binomial": {"degree": [1, 1, 1, 1], "minus": {"e5": 1, "e6": 1}, "plus": {"e3": 1, "e4": 1}, "text": "e3*e4 - e5*e6"}}
implications: ok
  checkers-agree: yes
  robust-implies-generalized: yes
  robust-implies-division-free: yes
  no-four-cycle-unique-generation: yes
oracle: box=2 graver_matches=yes
  groebner samples: 3 (seed 0), distinct elements 2, within UGB: yes
""",
    "check": """\
graph deb777d3b631: 5 vertices, 6 edges
counts: circuits=1 graver=1 indispensable=1 universal_groebner=1 universal_markov=1
generalized_robust: yes
robust: yes
  markov-equals-graver: yes
  primitive-chord-conditions: yes
  circuit-conditions: yes
  unique-minimal-generation: yes
implications: ok
  checkers-agree: yes
  robust-implies-generalized: yes
  robust-implies-division-free: yes
  no-four-cycle-unique-generation: yes
""",
    "matrix": """\
matrix: 5 rows x 8 columns, box=1
bounded graver: 6 elements
  x5*x6 - x7*x8
  x3*x4 - x7*x8
  x3*x4 - x5*x6
  x1*x2 - x7*x8
  x1*x2 - x5*x6
  x1*x2 - x3*x4
betti fibers: 1
minimal markov size: 3
markov: 6 elements
  x5*x6 - x7*x8
  x3*x4 - x7*x8
  x3*x4 - x5*x6
  x1*x2 - x7*x8
  x1*x2 - x5*x6
  x1*x2 - x3*x4
indispensable: 0 elements
observations: markov_equals_graver=yes indispensable_equals_markov=no
groebner samples: 3 (seed 0), distinct elements 5, within bounded graver: yes
""",
}


@pytest.mark.parametrize(
    "key,argv",
    [
        ("analyze-oracle", ("analyze", fixture_path("k4"), "--oracle", "--samples", 3)),
        ("check", ("check", fixture_path("bowtie"))),
        (
            "matrix",
            ("matrix", FIXTURES / "matrix" / "n5.json", "--box", 1, "--samples", 3),
        ),
    ],
)
def test_text_report_is_pinned(capsys, key, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == PINNED_TEXT[key]
    assert "[time]" in err


def test_analyze_with_oracle_and_samples(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--format",
        "json",
        "--oracle",
        "--samples",
        "4",
        "--seed",
        "9",
        fixture_path("k4"),
    )
    assert code == 0
    report = json.loads(out)
    oracle = report["oracle"]
    assert oracle["box"] == 2
    assert oracle["graver_matches"] is True
    assert oracle["bounded_graver_count"] == 3
    g = oracle["groebner"]
    assert g["samples"] == 4 and g["seed"] == 9
    assert g["within_universal_groebner"] is True
    assert 1 <= len(g["distinct_elements"]) <= 3


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", fixture_path("bowtie"))
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {
        "circuits": 1,
        "graver": 1,
        "universal_groebner": 1,
        "universal_markov": 1,
        "indispensable": 1,
    }
    assert report["verdict"]["robust"] is True
    assert report["implications"]["ok"] is True


def test_matrix_command(capsys, tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text(
        "# five coordinates, eight points\n"
        "1 0 1 0 0 1 1 0\n"
        "0 1 1 0 1 0 0 1\n"
        "0 1 0 1 1 0 1 0\n"
        "0 1 0 1 0 1 0 1\n"
        "1 1 1 1 1 1 1 1\n"
    )
    code, out, _ = run(capsys, "matrix", "--format", "json", str(rows))
    assert code == 0
    report = json.loads(out)
    assert len(report["analysis"]["graver"]) == 6
    assert report["observations"]["markov_equals_graver"] is True
    assert report["observations"]["indispensable_equals_markov"] is False
    assert report["observations"]["minimal_markov_size"] == 3

    wrapped = tmp_path / "rows.json"
    wrapped.write_text(json.dumps({"matrix": [[1, 1, 0, 0], [0, 0, 1, 1]]}))
    code, out, _ = run(capsys, "matrix", "--format", "json", str(wrapped))
    assert code == 0
    report = json.loads(out)
    assert [el["text"] for el in report["analysis"]["graver"]] == [
        "x3 - x4",
        "x1 - x2",
    ]


def test_matrix_samples_stay_inside_graver(capsys, tmp_path):
    rows = tmp_path / "m.txt"
    rows.write_text("1 1 0 0\n0 0 1 1\n1 0 1 0\n")
    code, out, _ = run(
        capsys, "matrix", "--format", "json", "--samples", "5", "--seed", "2", str(rows)
    )
    assert code == 0
    report = json.loads(out)
    assert report["groebner"]["within_bounded_graver"] is True


def test_matrix_with_a_graver_set_cut_short_by_the_box(capsys, tmp_path):
    # box 2 keeps 5 of this matrix's Graver elements (box 3 finds 11); each
    # fiber is still split by its own members, so no two components share
    # a column and every minimal Markov element is a valid binomial
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, 3, 1, 1, 1], [3, 1, 1, 0, 0]]}))
    code, out, _ = run(capsys, "matrix", "--format", "json", "--box", "2", str(path))
    assert code == 0
    for fg in json.loads(out)["analysis"]["fibers"]:
        columns = [
            {j for i in comp for j, x in enumerate(fg["fiber"][i]) if x}
            for comp in fg["components"]
        ]
        assert sum(map(len, columns)) == len(set().union(*columns))


def test_matrix_negative_entry_exit_code(capsys, tmp_path):
    rows = tmp_path / "neg.txt"
    rows.write_text("1 -1\n0 1\n")
    code, _, err = run(capsys, "matrix", str(rows))
    assert code == 5
    assert "error" in err


def test_parse_failures_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in err

    loop = tmp_path / "loop.txt"
    loop.write_text("1 1\n")
    code, _, err = run(capsys, "graver", str(loop))
    assert code == 2 and "loop" in err

    garbage = tmp_path / "m.txt"
    garbage.write_text("1 1\n1 1 1\n")
    code, _, err = run(capsys, "matrix", str(garbage))
    assert code == 2


@pytest.mark.parametrize(
    "matrix",
    [
        5,
        [[1, 2], 7],
        [[1, None], [1, 1]],
        [[1.5, 2], [1, 1]],
        [[True, 1], [1, 1]],
        [["1", 1], [1, 1]],
    ],
)
def test_malformed_matrix_json_exits_two(capsys, tmp_path, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, "matrix", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("toriclab: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,key", [("check", "edges"), ("matrix", "matrix")]
)
def test_deep_json_exits_two_naming_the_file(capsys, tmp_path, command, key):
    # nested past the interpreter's stack, the JSON cannot be read at all
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text(f'{{"vertices": 3, "{key}": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("toriclab: error:") and str(path) in err
    assert "recursion depth" not in err


def test_unparsable_line_is_echoed_short(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("1 2\n" + "3 " * 200_000 + "\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2: expected 'u v'" in err
    echo = err.split("got ", 1)[1].rstrip("\n")
    assert len(echo) == 80 and echo.endswith("…")


def test_scale_guard_exit_code_and_force(capsys, tmp_path):
    path = tmp_path / "long_path.txt"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(1, 22)))
    code, _, err = run(capsys, "markov", str(path))
    assert code == 3
    assert "error" in err

    code, out, _ = run(capsys, "markov", "--format", "json", "--force", str(path))
    assert code == 0
    assert json.loads(out)["set"]["count"] == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_analyze_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, enabled
):
    # main pauses the cyclic collector from the command's first stage until
    # its report is written, and then restores the state it found, also on
    # an exit for unreadable input (2) or for a breach (4)
    found = gc.isenabled()
    real_bundle, real_json = cli.fiber_bundle, cli._canonical_json
    seen = []

    def watched_bundle(graph, analysis):
        seen.append(("fiber_bundle", gc.isenabled()))
        return real_bundle(graph, analysis)

    def watched_json(obj):
        seen.append(("_canonical_json", gc.isenabled()))
        return real_json(obj)

    def breach(graph, analysis):
        raise InternalInvariantError("fiber bundle: planted breach")

    unreadable = tmp_path / "unreadable.txt"
    unreadable.write_bytes(b"\xff\xfe not a graph")
    try:
        gc.enable() if enabled else gc.disable()
        for command in ("analyze", "check"):
            seen.clear()
            monkeypatch.setattr(cli, "fiber_bundle", watched_bundle)
            monkeypatch.setattr(cli, "_canonical_json", watched_json)
            code, _, _ = run(capsys, command, "--format", "json", fixture_path("k4"))
            assert code == 0
            assert seen == [("fiber_bundle", False), ("_canonical_json", False)]
            assert gc.isenabled() is enabled

            code, out, err = run(capsys, command, str(unreadable))
            assert code == 2
            assert out == "" and err.startswith("toriclab: error:")
            assert gc.isenabled() is enabled

            monkeypatch.setattr(cli, "fiber_bundle", breach)
            code, out, err = run(capsys, command, fixture_path("k4"))
            assert code == 4
            assert out == "" and "planted breach" in err
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if found else gc.disable()


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    # numpy raises a subclass of MemoryError when an array cannot be allocated
    def no_memory(graph, analysis):
        raise MemoryError

    monkeypatch.setattr(cli, "fiber_bundle", no_memory)
    code, out, err = run(capsys, "check", fixture_path("c4"))
    assert code == 3
    assert out == ""
    assert err.startswith("toriclab: error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, box",
    [(list(range(1, 23)), 1), ([1] * 14, 2)],
    ids=["1..22-box1", "ones14-box2"],
)
def test_matrix_join_guard_exits_3(capsys, tmp_path, row, box):
    path = tmp_path / "row.txt"
    path.write_text(" ".join(map(str, row)) + "\n")
    code, out, err = run(capsys, "matrix", "--box", str(box), str(path))
    assert code == 3
    assert out == ""
    assert "matches (limit 2000000)" in err


def test_check_hashes_the_graph_once(capsys, monkeypatch):
    # the report's input section and the implication suite both name the
    # graph's digest; it is hashed once and kept
    real = hashlib.sha256
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    code, _, _ = run(capsys, "check", "--format", "json", fixture_path("k4"))
    assert code == 0
    assert len(calls) == 1


def test_suite_directory_with_expectations(capsys, tmp_path):
    shutil.copy(fixture_path("c4"), tmp_path / "square.txt")
    expect = tmp_path / "square.expect.json"
    expect.write_text(json.dumps({"robust": True, "counts": {"graver": 1}}))
    code, out, _ = run(capsys, "suite", "--format", "json", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["instances"][0]["name"] == "square.txt"

    expect.write_text(json.dumps({"robust": False, "counts": {"graver": 7}}))
    code, out, _ = run(capsys, "suite", "--format", "json", str(tmp_path))
    assert code == 4
    report = json.loads(out)
    assert report["ok"] is False
    mismatch = report["instances"][0]["expect_mismatch"]
    assert mismatch["robust"] == {"expected": False, "actual": True}
    assert mismatch["counts.graver"] == {"expected": 7, "actual": 1}


@pytest.mark.parametrize("sidecar", [[1], {"counts": 5}])
def test_suite_rejects_malformed_sidecar(capsys, tmp_path, sidecar):
    shutil.copy(fixture_path("c4"), tmp_path / "square.txt")
    (tmp_path / "square.expect.json").write_text(json.dumps(sidecar))
    code, out, err = run(capsys, "suite", "--format", "json", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("toriclab: error:") and "square.expect.json" in err


def test_suite_over_bundled_fixtures(capsys):
    # the fixture root must stay sweepable: graphs only, matrices below it
    code, out, _ = run(capsys, "suite", "--format", "json", FIXTURES)
    assert code == 0
    report = json.loads(out)
    assert len(report["instances"]) == 10
    assert report["ok"] is True


def test_suite_random_corpus(capsys):
    code, out, _ = run(
        capsys, "suite", "--format", "json", "--count", "6", "--seed", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert [r["name"] for r in report["instances"]] == [
        f"seed3-{i}" for i in range(6)
    ]
    assert all(r["implications_ok"] for r in report["instances"])


def test_suite_rejects_bad_paths(capsys, tmp_path):
    code, _, err = run(capsys, "suite", str(tmp_path / "nowhere"))
    assert code == 2 and "not a directory" in err

    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "suite", str(empty))
    assert code == 2 and "no graph files" in err


@pytest.mark.parametrize(
    "command,name,text,detail",
    [
        ("suite", "square.expect.json", b"{", "Expecting property name"),
        ("suite", "broken.txt", b"1 1\n", "loop"),
        ("check", "graph.json", b"{", "invalid JSON graph"),
        ("matrix", "m.json", b"{", "Expecting property name"),
        ("matrix", "m.txt", b"1 0\n0 x\n", "line 2: invalid literal"),
        ("check", "graph.txt", b"\xff1 2\n", "can't decode byte 0xff"),
        ("matrix", "m.txt", b"\xff1 0\n", "can't decode byte 0xff"),
        ("suite", "square.expect.json", b"\xff{}", "can't decode byte 0xff"),
        pytest.param(
            "suite",
            "square.expect.json",
            b'{"counts": {"graver": ' + b"[" * 200_000 + b"]" * 200_000 + b"}}",
            "nests too deeply",
            id="suite-deep-sidecar",
        ),
        pytest.param(
            "suite",
            "square.expect.json",
            b'{"counts": {"graver": ' + b"9" * 5000 + b"}}",
            "4300 digits",
            id="suite-long-integer-in-sidecar",
        ),
        pytest.param(
            "check",
            "graph.json",
            b'{"vertices": 3, "edges": [[1, ' + b"9" * 5000 + b"]]}",
            "4300 digits",
            id="check-long-json-label",
        ),
        pytest.param(
            "check",
            "graph.txt",
            b"".join(
                b"%d%s %d%s\n" % (a, b"9" * 5000, b, b"9" * 5000)
                for a, b in ((1, 2), (2, 3), (3, 1))
            ),
            "4300 digits",
            id="check-long-edge-list-label",
        ),
    ],
)
def test_loader_errors_name_the_file(capsys, tmp_path, command, name, text, detail):
    shutil.copy(fixture_path("c4"), tmp_path / "square.txt")
    (tmp_path / name).write_bytes(text)
    target = tmp_path if command == "suite" else tmp_path / name
    code, out, err = run(capsys, command, target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"toriclab: error: {tmp_path / name}: ")
    assert detail in err and err.count("\n") == 1


def test_graph_with_more_vertices_than_its_edges_connect_exits_two(capsys, tmp_path):
    # Rejected before any per-vertex work: the error does not list labels.
    path = tmp_path / "sparse.json"
    path.write_text('{"vertices": 200000, "edges": [[1, 2]]}')
    code, out, err = run(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert "disconnected" in err and len(err) < 500


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_script_target(name: str) -> tuple[str, str]:
    """The ``module:function`` that pyproject.toml declares for script ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, func = target.partition(":")
    return module, func


def subprocess_env() -> dict[str, str]:
    """Environment whose PYTHONPATH finds the toriclab package under test first."""
    env = dict(os.environ)
    root = str(Path(toriclab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_round_trip():
    # Launch the declared [project.scripts] entry the way pip's generated
    # wrapper does, so no install is needed for the round trip.
    module, func = console_script_target("toriclab")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    argv = ["check", "--format", "json", str(fixture_path("c4"))]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["robust"] is True


def test_python_dash_m_round_trip(tmp_path):
    command = [sys.executable, "-m", "toriclab", "check", "--format", "json"]
    proc = subprocess.run(
        [*command, str(fixture_path("c4"))],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["robust"] is True

    proc = subprocess.run(
        [*command, str(tmp_path / "missing.txt")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env(),
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_tied_integer_labels_ignore_hash_seed(tmp_path):
    # 1 and 01 are one integer; their order, and so the edge variables and
    # the input digest, must not follow the string hash of the run
    path = tmp_path / "tied.txt"
    path.write_text("1 01\n01 2\n2 1\n1 3\n")
    outputs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "toriclab", "check", "--format", "json",
             str(path)],
            capture_output=True,
            text=True,
            env={**subprocess_env(), "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# Run in a fresh interpreter: check and analyze on small graphs reach no
# numpy kernel, then the given call reaches one.
NUMPY_ON_FIRST_USE = """
import contextlib, io, json, sys
from toriclab.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        assert main(argv) == 0, argv

run(["check", sys.argv[1]])
run(["analyze", sys.argv[2]])
cold = "numpy" in sys.modules
run(json.loads(sys.argv[3]))
print(json.dumps([cold, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("kernel", ["fiber-batch", "oracle"])
def test_numpy_loads_only_where_a_numpy_kernel_runs(kernel, tmp_path):
    if kernel == "fiber-batch":
        # 25 Graver degrees, past the batch's crossover of 11
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(graph_to_json(ladder_graph(8, 14))))
        argv = ["analyze", str(path)]
    else:
        argv = ["analyze", "--oracle", "--samples", "1",
                str(fixture_path("k4"))]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ON_FIRST_USE,
         str(fixture_path("c4")), str(fixture_path("k4")),
         json.dumps(argv)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]


@pytest.mark.parametrize("max_edges", ["0", "1"])
def test_suite_edge_budget_below_two_stops(max_edges):
    # no connected graph on 3 or more vertices has fewer than 2 edges, so
    # the random corpus could never fill; it must stop, not loop forever
    proc = subprocess.run(
        [sys.executable, "-m", "toriclab", "suite", "--count", "1",
         "--max-edges", max_edges],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("toriclab: error:")
    assert "max_edges" in proc.stderr
    assert "Traceback" not in proc.stderr


def long_path_lines(first, edges):
    return [f"{i} {i + 1}\n" for i in range(first, first + edges)]


def test_deep_block_tree_is_answered_without_traceback(tmp_path):
    # two triangles joined by a 1,500-edge path make one primitive walk
    # whose block tree is deeper than Python's recursion limit; the block
    # search and the walk tour keep explicit stacks, so it is answered
    path = tmp_path / "tri_path1500_tri.txt"
    path.write_text(
        "".join(
            ["1 2\n2 3\n1 3\n"]
            + long_path_lines(3, 1500)
            + ["1503 1504\n1504 1505\n1503 1505\n"]
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "toriclab", "check", "--force", str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "counts: circuits=1 graver=1 " in proc.stdout
    assert "Traceback" not in proc.stderr


def test_long_path_is_answered(tmp_path):
    # a path has no cycle, so no candidate walk is built and nothing recurses
    path = tmp_path / "path1500.txt"
    path.write_text("".join(long_path_lines(1, 1500)))
    proc = subprocess.run(
        [sys.executable, "-m", "toriclab", "check", "--force", "--format",
         "json", str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    counts = json.loads(proc.stdout)["counts"]
    assert set(counts) == {
        "circuits", "graver", "universal_groebner", "universal_markov",
        "indispensable",
    }
    assert set(counts.values()) == {0}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--oracle", "--samples", "-1", fixture_path("k4")),
        ("matrix", "--samples", "-2", FIXTURES / "matrix" / "n5.json"),
    ],
    ids=["analyze", "matrix"],
)
def test_negative_samples_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "toriclab: error: samples must be nonnegative\n"


N5 = FIXTURES / "matrix" / "n5.json"
BOX_BELOW_ONE = "box must be at least 1"
NEGATIVE_SAMPLES = "samples must be nonnegative"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("analyze", "--box", "0", fixture_path("k4")), BOX_BELOW_ONE),
        (("analyze", "--samples", "-1", fixture_path("k4")), NEGATIVE_SAMPLES),
        (
            ("analyze", "--oracle", "--box", "-3", "--samples", "-1", fixture_path("k4")),
            BOX_BELOW_ONE,
        ),
        (("matrix", "--box", "0", N5), BOX_BELOW_ONE),
        (("matrix", "--samples", "-2", N5), NEGATIVE_SAMPLES),
    ],
    ids=["analyze-box", "analyze-samples", "analyze-oracle", "matrix-box", "matrix-samples"],
)
def test_box_and_samples_are_checked_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before --box and --samples were checked")

    for name in ("load_graph", "analyze_graph", "read_named", "analyze_config"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"toriclab: error: {message}\n")


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "command,name,content",
    [
        ("check", "square.txt", b"1 2\n2 3\n3 4\n4 1\n"),
        (
            "check",
            "square.json",
            b'{"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}',
        ),
        ("matrix", "m.txt", b"1 0 0 1\n1 1 0 0\n0 1 1 0\n0 0 1 1\n"),
        ("suite", "square.expect.json", b'{"robust": true, "counts": {"graver": 1}}'),
    ],
    ids=["edge-list", "json-graph", "matrix", "sidecar"],
)
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, command, name, content):
    # the same file with and without a UTF-8 byte order mark reads the same
    outputs = []
    for prefix in (b"", BOM):
        folder = tmp_path / ("bom" if prefix else "plain")
        folder.mkdir()
        (folder / name).write_bytes(prefix + content)
        target = folder / name
        if command == "suite":
            shutil.copy(fixture_path("c4"), folder / "square.txt")
            target = folder
        outputs.append(run(capsys, command, "--format", "json", target))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
    if command == "check":
        assert set(json.loads(outputs[0][1])["counts"].values()) == {1}


def test_box_below_two_that_misses_walks_is_a_usage_error(capsys):
    # the walk of tri_edge_tri squares its cut edge, so box 1 cannot hold it
    code, out, err = run(
        capsys, "analyze", "--oracle", "--box", "1", "--samples", "0",
        fixture_path("tri_edge_tri"),
    )
    assert code == 2
    assert "--box 1" in err and "box 2 is exact" in err
    assert "invariant" not in err
    # k4's walks are even cycles, all inside box 1
    code, out, _ = run(
        capsys, "analyze", "--format", "json", "--oracle", "--box", "1",
        "--samples", "0", fixture_path("k4"),
    )
    assert code == 0
    assert json.loads(out)["oracle"]["graver_matches"] is True


def test_box_mismatch_at_box_two_is_an_invariant_breach(capsys, monkeypatch):
    # a bounded set that loses an element at box 2 is no choice of the
    # caller: the box is exact there, so the mismatch exits 4
    real = toriclab.cli.graver_bounded
    monkeypatch.setattr(
        toriclab.cli, "graver_bounded", lambda c, box: real(c, box)[1:]
    )
    code, _, err = run(
        capsys, "analyze", "--oracle", "--samples", "0", fixture_path("k4")
    )
    assert code == 4
    assert "invariant breach" in err


def test_fiber_bundle_breach_names_the_graph(capsys, monkeypatch):
    # a fiber side one universal Markov element short disagrees with the
    # walks; the breach names the stage and the graph's digest
    real = toriclab.bases.markov_bundle

    def short(config, graver):
        bundle = real(config, graver)
        markov = bundle.universal_markov
        kept = list(zip(markov.elements, markov.annotations))[1:]
        return replace(
            bundle,
            universal_markov=make_basis_set("markov", markov.variables, kept),
        )

    monkeypatch.setattr(toriclab.bases, "markov_bundle", short)
    path = fixture_path("k4")
    code, _, err = run(capsys, "check", path)
    assert code == 4
    assert "invariant breach: fiber bundle" in err
    assert load_graph(path).digest() in err


def test_walk_side_breach_names_the_graph(capsys, monkeypatch):
    # a walk whose every edge occurs twice breaks the position lookup of the
    # chord calculus; the breach names the stage and the graph's digest
    double_every_walk_edge(monkeypatch)
    path = fixture_path("k4")
    code, _, err = run(capsys, "check", path)
    assert code == 4
    assert "invariant breach: F4 search of graph" in err
    assert load_graph(path).digest() in err


def test_groebner_sample_breach_names_the_graph(capsys, monkeypatch):
    # a breach inside the sampled Buchberger runs is raised again naming
    # the stage and the graph's digest, as the other oracle breaches are
    def collapse(*args):
        raise InternalInvariantError("tail reduction collapsed a basis element")

    monkeypatch.setattr(cli, "sample_groebner", collapse)
    path = fixture_path("bowtie")
    code, out, err = run(capsys, "analyze", "--oracle", "--samples", "2", path)
    assert code == 4 and out == ""
    assert (
        f"invariant breach: oracle cross-check of graph {load_graph(path).digest()}"
        ": Groebner sample: tail reduction collapsed a basis element"
    ) in err


def test_suite_text_tallies_match_json_records():
    command = [sys.executable, "-m", "toriclab", "suite", "--count", "10",
               "--max-edges", "8"]
    text = subprocess.run(
        command, capture_output=True, text=True, env=subprocess_env()
    )
    assert text.returncode == 0, text.stderr
    records = json.loads(
        subprocess.run(
            [*command, "--format", "json"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        ).stdout
    )["instances"]
    unique = [
        r["counts"]["indispensable"] == r["counts"]["universal_markov"]
        for r in records
    ]
    expected = {
        "generalized": sum(r["generalized_robust"] for r in records),
        "robust": sum(r["robust"] for r in records),
        "unique-gen": sum(unique),
        "generalized-not-robust": sum(
            r["generalized_robust"] and not r["robust"] for r in records
        ),
        "unique-gen-not-robust": sum(
            u and not r["robust"] for r, u in zip(records, unique)
        ),
    }
    closing = text.stdout.splitlines()[-1]
    assert closing.startswith("suite: 10 instances, ok=True, ")
    tallies = dict(
        field.split("=") for field in closing.split(", ")[-1].split()
    )
    assert {key: int(value) for key, value in tallies.items()} == expected


def test_suite_text_columns_match_analyze_counts(capsys):
    code, out, _ = run(capsys, "suite", FIXTURES)
    assert code == 0
    columns = {}
    for line in out.splitlines()[:-1]:
        name, *fields = line.split()
        columns[name] = dict(f.split("=") for f in fields if "=" in f)
    assert len(columns) == 10
    for name, cols in columns.items():
        code, out, _ = run(capsys, "analyze", "--format", "json", FIXTURES / name)
        sets = json.loads(out)["sets"]
        assert (int(cols["c"]), int(cols["ind"])) == (
            sets["circuits"]["count"],
            sets["indispensable"]["count"],
        )
    assert columns["triangle_per_corner.txt"]["c"] == "9"
    assert columns["triangle_per_corner.txt"]["ind"] == "6"
    assert (columns["k4.txt"]["c"], columns["k4.txt"]["ind"]) == ("3", "0")


@pytest.mark.skipif(
    shutil.which("toriclab") is None, reason="toriclab console script not installed"
)
def test_installed_console_script_round_trip():
    proc = subprocess.run(
        ["toriclab", "check", "--format", "json", fixture_path("c4")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["robust"] is True


def test_parser_is_built_once_and_still_rejects_bad_arguments(
    capsys, monkeypatch
):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        code, out, _ = run(capsys, "check", "--format", "json", fixture_path("c4"))
        assert code == 0 and json.loads(out)["verdict"]["robust"]
    assert built == [1]
    for bad in (["check", "--format", "yaml", "c4"], ["nosuch"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--format", "json", fixture_path("c4"))
    assert code == 0 and json.loads(out)["verdict"]["robust"]
    assert built == [1]


# --- the canonical JSON encoder ---------------------------------------------
# `json.dumps(..., sort_keys=True, indent=2)` is the reference: every report
# must come out byte for byte as it would write it.


def _reference_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from((n, -n)))
    | st.floats()
    | st.text()
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=40,
    )


# One drawn list, tuple or dict may stand in several places of a value, at
# one indentation or at several, as the sets of a report share elements.
_json_values = _json_trees(_json_scalars).flatmap(
    lambda shared: _json_trees(_json_scalars | st.just(shared))
)


@given(_json_values)
@settings(max_examples=400, deadline=None)
@example(
    {
        "": [],
        "é\x00\x1f ": {},
        "z": [[], {}, (), [[{}]], -0.0, math.nan, math.inf, -math.inf],
        "big": [2**100, -(2**100), True, False, None, "\\\"퟿"],
    }
)
def test_canonical_json_matches_json_dumps(value):
    assert cli._canonical_json(value) == _reference_json(value)


def test_canonical_json_writes_a_deep_shared_value():
    # hypothesis prints an explicit example first, and this one is too deep
    # for its printer: a value nested 800 levels, at two indentations
    deep = []
    for _ in range(799):
        deep = [deep]
    value = {"a": deep, "b": deep, "c": [deep]}
    assert cli._canonical_json(value) == _reference_json(value)


def test_canonical_json_keeps_the_text_of_shared_containers_only(monkeypatch):
    # whether a child is kept rests on sys.getrefcount read in the encoder's
    # loops against _LONE_REFCOUNT, read once at import: a dict value and a
    # list item must both count as shared when two slots hold them, and as
    # lone when only their parent does
    shared = {"n": [1, 2]}
    value = {"a": {"k": shared}, "b": [shared], "c": {"k": {"z": [3]}}, "d": [[4]]}
    shared_id = id(shared)
    del shared
    written, memos = [], []
    real = cli._Document.write

    def write(self, obj, newline):
        written.append(id(obj))
        memos.append(self.memo)
        return real(self, obj, newline)

    monkeypatch.setattr(cli._Document, "write", write)
    assert cli._canonical_json(value) == _reference_json(value)
    # `shared` sits at one indentation under a dict key and a list item
    assert written.count(shared_id) == 1
    assert len(written) == len(set(written)) == 10
    assert {node for memo in memos for node, _ in memo} == {shared_id}


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        np.int64(3),
        [np.int64(3)],
        {"a": frozenset()},
        # json.dumps would write the key as "1"; reports have str keys only
        {1: "x"},
    ],
)
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._canonical_json(value)


def _assert_canonical(out: str) -> None:
    assert out == _reference_json(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("circuits", fixture_path("domino")),
        ("graver", fixture_path("domino")),
        ("ugb", fixture_path("domino")),
        ("markov", fixture_path("domino")),
        ("analyze", "--oracle", "--samples", "2", fixture_path("bowtie")),
        ("check", fixture_path("triangle_per_corner")),
        ("matrix", "--samples", "2", FIXTURES / "matrix" / "n5.json"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_of_every_command_is_canonical(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    _assert_canonical(out)


def test_suite_sidecar_values_must_have_their_json_type(capsys, tmp_path):
    # == lets 1, 1.0 and true stand for one another; a sidecar may not: a
    # flag must be a boolean and a count an integer that is not a boolean
    shutil.copy(fixture_path("c4"), tmp_path / "c4.txt")
    sidecar = tmp_path / "c4.expect.json"
    sidecar.write_text(
        '{"robust": 1, "generalized_robust": 1.0,'
        ' "counts": {"graver": true, "circuits": 1.0}}'
    )
    code, out, _ = run(capsys, "suite", "--format", "json", tmp_path)
    assert code == 4
    (record,) = json.loads(out)["instances"]
    assert record["expect_mismatch"] == {
        "robust": {"expected": 1, "actual": True},
        "generalized_robust": {"expected": 1.0, "actual": True},
        "counts.graver": {"expected": True, "actual": 1},
        "counts.circuits": {"expected": 1.0, "actual": 1},
    }
    # an unknown top-level key is a mismatch with actual null, as an
    # unknown count key is
    sidecar.write_text(
        '{"robust": true, "generalized_robust": true, "robustness": true,'
        ' "counts": {"graver": 1, "circuits": 1, "cycles": 1}}'
    )
    code, out, _ = run(capsys, "suite", "--format", "json", tmp_path)
    assert code == 4
    (record,) = json.loads(out)["instances"]
    assert record["expect_mismatch"] == {
        "robustness": {"expected": True, "actual": None},
        "counts.cycles": {"expected": 1, "actual": None},
    }
    sidecar.write_text(
        '{"robust": true, "generalized_robust": true,'
        ' "counts": {"graver": 1, "circuits": 1}}'
    )
    code, out, _ = run(capsys, "suite", "--format", "json", tmp_path)
    assert code == 0 and "expect_mismatch" not in out


def test_suite_echoes_sidecar_values_canonically(capsys, tmp_path):
    # The encoder takes one interpreter frame per nesting level, so a value
    # nested about as deep as the JSON reader goes still prints.
    deep = "[" * 800 + "]" * 800
    shutil.copy(fixture_path("c4"), tmp_path / "square.txt")
    (tmp_path / "square.expect.json").write_text(
        '{"robust": "é", "generalized_robust": [[], {}, {"k": [[]]}],'
        ' "counts": {"graver": NaN, "circuits": -Infinity,'
        f' "universal_markov": 1.5, "nope": {{"a": []}}, "deep": {deep}}}}}',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "suite", "--format", "json", tmp_path)
    assert code == 4
    _assert_canonical(out)
    assert '"expected": NaN' in out and '"expected": -Infinity' in out
    assert '"expected": "\\u00e9"' in out and '"counts.deep"' in out


def _captured_reports(monkeypatch) -> list[dict]:
    """Every report that ``cli._emit`` is handed, in call order."""
    reports = []
    real = cli._emit

    def emit(report, *rest):
        reports.append(report)
        return real(report, *rest)

    monkeypatch.setattr(cli, "_emit", emit)
    return reports


def test_reports_from_one_analysis_are_identical(capsys, monkeypatch):
    # the sets of one report share their element dicts, each binomial's
    # exponents and the annotation dicts themselves, and emitting JSON or
    # text must change none of the annotation dicts
    path = fixture_path("domino")
    analysis = toriclab.analyze_graph(load_graph(path))
    sets = (
        analysis.circuits,
        analysis.graver,
        analysis.universal_groebner,
        analysis.universal_markov,
    )
    annotations = copy.deepcopy([s.annotations for s in sets])
    monkeypatch.setattr(cli, "analyze_graph", lambda graph, force=False: analysis)
    reports = _captured_reports(monkeypatch)
    argv = ("analyze", "--oracle", "--samples", "2", "--format", "json", path)
    first = run(capsys, *argv)
    run(capsys, "analyze", path)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0
    _assert_canonical(first[1])
    assert [s.annotations for s in sets] == annotations
    report = {key: obj["elements"] for key, obj in reports[0]["sets"].items()}
    graver = report["graver"]
    assert all(
        el["tags"] is ann for el, ann in zip(graver, analysis.graver.annotations)
    )
    # the universal Groebner basis keeps every Graver element of the domino
    # in a list of its own; the universal Markov basis keeps two of three,
    # and the indispensable set both of those
    assert report["universal_groebner"] is not graver
    ugb = report["universal_groebner"]
    assert all(u is g for u, g in zip(ugb, graver, strict=True))
    markov = report["universal_markov"]
    assert len(markov) == 2 and all(any(m is g for g in graver) for m in markov)
    assert all(i is m for i, m in zip(report["indispensable"], markov, strict=True))
    # a circuit's tags carry its shape, so its element dict is its own, but
    # it holds its Graver element's exponent and degree objects
    by_text = {g["text"]: g for g in graver}
    for c in report["circuits"]:
        g = by_text[c["text"]]
        assert c is not g and c["tags"]["shape"]
        assert all(c[k] is g[k] for k in ("plus", "minus", "degree"))
    # nothing is shared between two reports
    assert reports[2]["sets"]["graver"]["elements"][0] is not graver[0]


def test_encoder_keeps_no_set_list(capsys, monkeypatch):
    # the sets share element dicts, never a list, so the encoder's memo
    # keeps no set's element list; each Graver element of the domino recurs
    # in the universal Groebner basis, so its text is kept
    documents = []

    class Document(cli._Document):
        def __init__(self):
            super().__init__()
            documents.append(self)

    monkeypatch.setattr(cli, "_Document", Document)
    reports = _captured_reports(monkeypatch)
    code, out, _ = run(capsys, "analyze", "--format", "json", fixture_path("domino"))
    assert code == 0
    _assert_canonical(out)
    ((report,), (document,)) = reports, documents
    kept = {node for node, _ in document.memo}
    sets = report["sets"]
    assert not kept & {id(obj["elements"]) for obj in sets.values()}
    graver = sets["graver"]["elements"]
    for key in ("universal_groebner", "universal_markov"):
        assert all(any(el is g for g in graver) for el in sets[key]["elements"])
    assert {id(g) for g in graver} <= kept
    # an element dict that only one set holds is not kept
    held = Counter(id(el) for obj in sets.values() for el in obj["elements"])
    assert all(held[node] > 1 for node in kept & held.keys())
