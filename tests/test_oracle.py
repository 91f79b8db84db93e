"""Brute-force toric oracle: fibers, bounded Graver, fiber graphs, Buchberger."""

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toriclab.oracle
from toriclab.bases import analyze_graph, fiber_bundle, graph_config
from toriclab.binomials import make_basis_set, make_binomial
from toriclab.corpus import random_connected_graphs
from toriclab.errors import ScaleGuardError
from toriclab.graphs import Graph, load_graph
from toriclab.oracle import (
    ConfigError,
    NegativeEntryError,
    OrderError,
    ToricConfig,
    WeightOrder,
    _batch_dtype,
    _narrowest_dtype,
    analyze_config,
    buchberger,
    candidate_degrees,
    config_from_rows,
    fiber,
    fiber_graphs,
    fibers,
    graver_bounded,
    markov_bundle,
    sample_groebner,
)

from conftest import (
    FIXTURES,
    binomial_from_vector,
    dumbbell_graph,
    fan_graph,
    fixture_path,
    grid_graph,
    hung_cycle_graph,
    support_minimal,
    theta_graph,
    triangle_chain_graph,
    wheel_graph,
    wide_graphs,
    windmill_graph,
)

N5_ROWS = json.loads(
    (Path(__file__).parent / "fixtures" / "matrix" / "n5.json").read_text()
)["matrix"]


_UNEQUAL = "configuration matrix rows have unequal lengths"
_NEGATIVE = "configuration entries must be nonnegative"
_EMPTY = "configuration matrix must be nonempty"
_TYPE = "configuration entries must be integers, got "

# (matrix, exception type, message); a matrix is checked in this order:
# list shapes, nonempty, then row by row its length and each entry's type
# and sign, then its columns
MALFORMED_MATRICES = [
    ([[1, -1], [0, 1]], NegativeEntryError, _NEGATIVE),
    ([[-1, 1.5]], NegativeEntryError, _NEGATIVE),
    ([[1.5, -1]], ConfigError, _TYPE + "1.5"),
    ([[1, -1], [1]], NegativeEntryError, _NEGATIVE),
    ([[1, 0], [1]], ConfigError, _UNEQUAL),
    ([[1, 1], [True]], ConfigError, _UNEQUAL),
    ([[1], []], ConfigError, _UNEQUAL),
    ([[0, 1.0], [0, 1]], ConfigError, _TYPE + "1.0"),
    ([[1, 0], [1, 0]], ConfigError, "column 2 of the configuration is zero"),
    ([[0, 0], [1, 0]], ConfigError, "column 2 of the configuration is zero"),
    ([[], [1]], ConfigError, _EMPTY),
    ([], ConfigError, _EMPTY),
    # malformed JSON matrices: rejected as they are, never coerced
    (5, ConfigError, "matrix must be a list of rows"),
    ([[1, 2], 7], ConfigError, "matrix row 2 is not a list, got 7"),
    ([[1], 7], ConfigError, "matrix row 2 is not a list, got 7"),
    ([[1, None], [1, 1]], ConfigError, _TYPE + "None"),
    ([[None]], ConfigError, _TYPE + "None"),
    ([[1.5, 2], [1, 1]], ConfigError, _TYPE + "1.5"),
    ([[True, 1], [1, 1]], ConfigError, _TYPE + "True"),
    ([["1", 1], [1, 1]], ConfigError, _TYPE + "'1'"),
    ([["1"]], ConfigError, _TYPE + "'1'"),
]


def test_config_validation():
    for rows, error, message in MALFORMED_MATRICES:
        with pytest.raises(ConfigError) as info:
            config_from_rows(rows)
        assert (type(info.value), str(info.value)) == (error, message), rows
    # the constructor checks what column supports can get wrong
    with pytest.raises(ConfigError, match=_EMPTY):
        ToricConfig(0, ())
    with pytest.raises(ConfigError, match=_EMPTY):
        ToricConfig(1, ())
    with pytest.raises(ConfigError, match="column 2 of the configuration is zero"):
        ToricConfig(2, (((1, 1),), ()))


def test_fiber_enumeration_total_degree():
    cfg = config_from_rows([[1, 1, 1]])
    assert fiber(cfg, (2,)) == (
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    )
    assert fiber(cfg, (0,)) == ((0, 0, 0),)


def test_fiber_of_k4_square_degree(graph_of):
    cfg = graph_config(graph_of("k4"))
    members = fiber(cfg, (1, 1, 1, 1))
    as_sets = {tuple(i for i, x in enumerate(m) if x) for m in members}
    assert as_sets == {(0, 1), (2, 3), (4, 5)}


def test_fiber_respects_multiplicity():
    cfg = config_from_rows([[2, 1]])
    assert fiber(cfg, (4,)) == ((0, 4), (1, 2), (2, 0))


@pytest.mark.parametrize(
    "name, count",
    [("c4", 1), ("k4", 3), ("domino", 3), ("bowtie", 1), ("hexchord", 3)],
)
def test_graver_bounded_counts(graph_of, name, count):
    cfg = graph_config(graph_of(name))
    assert len(graver_bounded(cfg, box=2)) == count


def test_graver_bounded_matches_walk_enumeration(graph_of, analysis_of):
    for name in ("tri_square_tri_opposite", "triangle_per_corner"):
        cfg = graph_config(graph_of(name))
        oracle = {(b.plus, b.minus) for b in graver_bounded(cfg, box=2)}
        walks = analysis_of(name).graver.element_set()
        assert oracle == walks


def test_graver_bounded_matches_walk_enumeration_past_the_corpus_cap():
    # box 2 is exact for graphs, so the brute-force Graver set must equal
    # the walk one past the acceptance corpus's 11 edges: on 60 corpus-
    # generator graphs of 12-14 edges on 7-9 vertices and on eight family
    # graphs of at most 14 edges, the most that box 2's cap admits
    drawn = random_connected_graphs(400, seed=1214, max_vertices=9, max_edges=14)
    sample = [g for g in drawn if len(g.edges) >= 12 and g.vertex_count >= 7][:60]
    assert len(sample) == 60
    assert {len(g.edges) for g in sample} == {12, 13, 14}
    assert {g.vertex_count for g in sample} == {7, 8, 9}
    families = [
        grid_graph(5),
        windmill_graph(4),
        hung_cycle_graph(2),
        theta_graph(3, 4, 5),
        dumbbell_graph(6),
        triangle_chain_graph(4),
        fan_graph(7),
        wheel_graph(7),
    ]
    for g in sample + families:
        oracle = {(b.plus, b.minus) for b in graver_bounded(graph_config(g), 2)}
        assert analyze_graph(g).graver.element_set() == oracle, g.digest()


def test_graver_box_one_n5():
    cfg = config_from_rows(N5_ROWS)
    quads = graver_bounded(cfg, box=1)
    assert [b.render("x") for b in quads] == [
        "x5*x6 - x7*x8",
        "x3*x4 - x7*x8",
        "x3*x4 - x5*x6",
        "x1*x2 - x7*x8",
        "x1*x2 - x5*x6",
        "x1*x2 - x3*x4",
    ]


def _graver_bounded_reference(config, box):
    """Plain-Python ``graver_bounded``: test every same-degree pair.

    Groups the box's exponent vectors by degree, keeps each pair inside a
    group whose supports are disjoint, then applies the same ranking and
    conformal-minimality filter as the oracle.
    """

    # Each degree entry is below ``base``, so the key is injective on degrees.
    base = box * max(sum(row) for row in config.rows) + 1
    weights = [
        sum(c * base**r for r, c in enumerate(column))
        for column in zip(*config.rows)
    ]
    groups = {}
    for u in itertools.product(range(box + 1), repeat=config.ncols):
        groups.setdefault(sum(w * x for w, x in zip(weights, u)), []).append(u)
    candidates = set()
    for members in groups.values():
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not any(x and y for x, y in zip(u, v)):
                    candidates.add((u, v) if u > v else (v, u))

    ranked = sorted(candidates, key=lambda pv: (sum(pv[0]) + sum(pv[1]), pv))
    accepted = []
    for plus, minus in ranked:
        if not any(
            (_lead_divides(ap, plus) and _lead_divides(am, minus))
            or (_lead_divides(am, plus) and _lead_divides(ap, minus))
            for ap, am in accepted
        ):
            accepted.append((plus, minus))
    return tuple(
        make_binomial(plus, minus, config.degree) for plus, minus in accepted
    )


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.txt"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_graver_bounded_matches_reference_on_fixtures(graph_of, name):
    cfg = graph_config(graph_of(name))
    for box in (1, 2):
        assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)
    if 4**cfg.ncols > 5_000_000:
        with pytest.raises(ScaleGuardError):
            graver_bounded(cfg, 3)
    elif 4**cfg.ncols <= 2**16:
        assert graver_bounded(cfg, 3) == _graver_bounded_reference(cfg, 3)
    else:
        # The reference needs minutes for a box this size.  A graph's Graver
        # elements have exponents at most 2, so box 3 must repeat box 2,
        # which the reference has just checked.
        assert graver_bounded(cfg, 3) == graver_bounded(cfg, 2)


def test_graver_bounded_matches_reference_on_n5():
    cfg = config_from_rows(N5_ROWS)
    for box in (1, 2):
        assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)


def test_graver_bounded_takes_entries_past_int32():
    cfg = config_from_rows([[2**40, 2**40, 1, 1], [1, 1, 1, 1]])
    assert graver_bounded(cfg, 2) == _graver_bounded_reference(cfg, 2)
    assert len(graver_bounded(cfg, 2)) == 2


@pytest.mark.parametrize(
    "rows, box",
    [
        # one row: the largest degree key is box * (row sum), so these sit
        # at the last key that fits in int64 and the first that does not
        ([[1, 1, 2**63 - 3]], 1),
        ([[1, 1, 2**63 - 2]], 1),
        ([[1, 1, 2**62 - 3, 1]], 2),
        ([[1, 1, 2**62 - 2, 1]], 2),
        # two rows, the last the more significant: the largest key is
        # 2 * s + 8 * (2 * s + 1) for the first row's sum s, so 2**63 - 18
        # and 2**63
        ([[1, 1, 2**63 // 18 - 4, 1], [1, 1, 1, 1]], 2),
        ([[1, 1, 2**63 // 18 - 3, 1], [1, 1, 1, 1]], 2),
    ],
)
def test_graver_bounded_around_the_int64_degree_key(rows, box):
    cfg = config_from_rows(rows)
    assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)
    assert graver_bounded(cfg, box)


@pytest.mark.parametrize(
    "rows, box",
    [
        # one row: the join's signed key reaches box * (row sum), here
        # 2**63 - 2, the last even key that fits in int64, and 2**63
        ([[1, 1, 2**62 - 4, 1]], 2),
        ([[1, 1, 2**62 - 3, 1]], 2),
        # two rows, the last the more significant: the key reaches
        # 2 * s + 8 * (4 * s + 1) = 34 * s + 8 for the first row's sum s,
        # which fits int64 up to s = (2**63 - 9) // 34
        ([[1, 1, (2**63 - 9) // 34 - 3, 1], [1, 1, 1, 1]], 2),
        ([[1, 1, (2**63 - 9) // 34 - 2, 1], [1, 1, 1, 1]], 2),
    ],
)
def test_graver_bounded_around_the_int64_signed_key(rows, box):
    cfg = config_from_rows(rows)
    assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)
    assert graver_bounded(cfg, box)


@pytest.mark.parametrize(
    "rows, box",
    [
        # one column: the left half is empty, and there is no kernel
        ([[3]], 1),
        ([[1], [2]], 3),
        # odd column counts, so the right half is the wider
        ([[1, 2, 3]], 3),
        ([[1, 1, 1, 0, 0], [0, 1, 2, 1, 3]], 2),
        ([[2, 0, 1, 1, 3, 1, 1], [1, 3, 0, 2, 1, 1, 2]], 1),
        # repeated columns: many kernel vectors at each degree
        ([[1] * 6], 2),
        ([[1, 1, 1, 2, 2], [1, 1, 1, 1, 1]], 3),
    ],
)
def test_graver_bounded_join_edge_cases(rows, box):
    cfg = config_from_rows(rows)
    assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)


def test_graver_bounded_of_a_tree_is_empty():
    # a spider: no even closed walk, so no kernel element at any box
    tree = Graph(6, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)))
    cfg = graph_config(tree)
    for box in (1, 2):
        assert graver_bounded(cfg, box) == ()
        assert _graver_bounded_reference(cfg, box) == ()


@st.composite
def _small_configs(draw, max_cols=6):
    nrows = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, max_cols))
    columns = [
        draw(
            st.lists(st.integers(0, 3), min_size=nrows, max_size=nrows).filter(
                any
            )
        )
        for _ in range(ncols)
    ]
    return config_from_rows([list(row) for row in zip(*columns)])


@given(_small_configs(), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_graver_bounded_matches_reference_on_random_configs(cfg, box):
    assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)


@given(_small_configs(max_cols=5), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_graver_bounded_matches_reference_up_to_box_3(cfg, box):
    assert graver_bounded(cfg, box) == _graver_bounded_reference(cfg, box)


@given(_small_configs(), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_markov_bundle_of_a_graver_set_cut_short_by_the_box(cfg, box):
    # a small box may miss Graver elements, and with them moves; the fiber
    # components must still be sound, so no minimal Markov element joins
    # two members that share a column
    markov_bundle(cfg, graver_bounded(cfg, box))


@st.composite
def _fiber_cases(draw):
    """A small configuration, perhaps with a zero row put in, and a degree."""
    rows = [list(row) for row in draw(_small_configs()).rows]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    degree = draw(
        st.lists(st.integers(-1, 4), min_size=len(rows), max_size=len(rows))
    )
    return config_from_rows(rows), tuple(degree)


@given(_fiber_cases())
@settings(max_examples=100, deadline=None)
def test_config_tables_match_their_definitions(case):
    cfg, _ = case
    assert cfg.column_support == tuple(
        tuple((i, a) for i, a in enumerate(column) if a)
        for column in zip(*cfg.rows)
    )
    assert cfg.last_columns == tuple(
        max((j for j, a in enumerate(row) if a), default=0) for row in cfg.rows
    )
    assert cfg.top == max(map(max, cfg.rows))


def _fiber_reference(cfg, degree):
    """Every vector under the per-column caps, in lex order, kept if A x = d."""
    caps = [
        min(max(d, 0) // c for d, c in zip(degree, col) if c)
        for col in zip(*cfg.rows)
    ]
    return tuple(
        x
        for x in itertools.product(*(range(cap + 1) for cap in caps))
        if cfg.degree(x) == degree
    )


@given(_fiber_cases())
@settings(max_examples=200, deadline=None)
def test_fiber_matches_reference_on_random_configs(case):
    cfg, degree = case
    assert fiber(cfg, degree) == _fiber_reference(cfg, degree)


@given(_small_configs(), st.data())
@settings(max_examples=150, deadline=None)
def test_degree_is_the_matrix_product(cfg, data):
    exponents = data.draw(
        st.lists(st.integers(0, 5), min_size=cfg.ncols, max_size=cfg.ncols)
    )
    assert cfg.degree(exponents) == tuple(
        sum(a * k for a, k in zip(row, exponents)) for row in cfg.rows
    )
    with pytest.raises(ConfigError, match="exponents"):
        cfg.degree(exponents + [0])


def test_fiber_of_a_zero_row():
    cfg = config_from_rows([[1, 1], [0, 0]])
    assert fiber(cfg, (1, 0)) == ((0, 1), (1, 0))
    assert fiber(cfg, (1, 1)) == ()


def test_fiber_of_many_columns_does_not_recurse():
    assert fiber(config_from_rows([[1] * 2000]), (0,)) == ((0,) * 2000,)


@pytest.mark.parametrize(
    "rows, degree",
    [
        # a matrix entry larger than every degree entry sets the field width
        ([[1, 100, 1], [1, 1, 2]], (3, 3)),
        ([[1, 100, 1], [1, 1, 2]], (101, 3)),
        ([[2, 1, 200], [0, 1, 1]], (4, 2)),
        # entries past 2**63, in the matrix and in the degree
        ([[1, 2**64, 1], [1, 0, 2]], (2**64 + 1, 1)),
        ([[1, 2**64, 1], [1, 0, 2]], (2**64 + 3, 3)),
        ([[2**70, 1, 1], [1, 2**65, 2**65]], (2**70 + 2, 2**66 + 1)),
        ([[1, 2**63], [1, 1]], (2**63 + 2, 3)),
    ],
)
def test_fiber_takes_wide_fields(rows, degree):
    cfg = config_from_rows(rows)
    assert fiber(cfg, degree) == _fiber_reference(cfg, degree)
    assert fiber(cfg, degree)


@st.composite
def _batch_cases(draw):
    """A ``_fiber_cases`` configuration and distinct degrees, some of them
    repeated."""
    cfg, _ = draw(_fiber_cases())
    degree = st.tuples(*[st.integers(-1, 4)] * cfg.nrows)
    distinct = draw(st.lists(degree, min_size=1, max_size=12, unique=True))
    repeated = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return cfg, draw(st.permutations(distinct + repeated))


def members_of(found):
    """The members of each fiber that ``fibers`` found, without their
    components."""
    return {d: members for d, (members, _) in found.items()}


@given(_batch_cases())
@settings(max_examples=200, deadline=None)
def test_batched_fibers_match_reference_on_random_configs(case):
    cfg, degrees = case
    with pytest.MonkeyPatch.context() as patch:
        # sweep every case in one batch, however few its degrees
        patch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", 1)
        assert members_of(fibers(cfg, degrees)) == {
            d: _fiber_reference(cfg, d) for d in degrees
        }


@given(_batch_cases())
@settings(max_examples=200, deadline=None)
def test_batched_components_match_the_union_find_on_random_configs(case):
    # degrees may be zero (one member, no support) or negative (no members)
    cfg, degrees = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", len(degrees) + 1)
        one_by_one = fiber_graphs(cfg, degrees)
        patch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", 1)
        assert fiber_graphs(cfg, degrees) == one_by_one


def test_fibers_reject_a_degree_of_the_wrong_length():
    cfg = config_from_rows([[1, 1, 0], [0, 1, 1]])
    degrees = [(1, 1), (2, 1), (0, 0), (1, 2), (1, 1, 1)]
    with pytest.raises(ConfigError):
        fibers(cfg, degrees)


@pytest.mark.parametrize(
    "bad",
    [1.7, 1.0, "1", True, None, np.True_, np.float64(1.0)],
    ids=["float", "whole-float", "str", "bool", "none", "np-bool", "np-float"],
)
def test_fibers_reject_a_degree_that_is_not_integer(bad):
    # degree entries are taken as matrix entries are: never coerced, so a
    # float is not rounded down and a string or bool is not read as a number
    cfg = config_from_rows([[1, 1, 0], [0, 1, 1]])
    with pytest.raises(ConfigError, match=re.escape(repr(bad))):
        fiber(cfg, (bad, 1))
    # also behind a degree of equal value that came first
    with pytest.raises(ConfigError, match=re.escape(repr(bad))):
        fibers(cfg, [(1, 1), (2, 1), (bad, 1)])
    # numpy integers are integers
    found = fibers(cfg, [(np.int64(1), np.uint8(1)), (1, 1)])
    assert list(found) == [(1, 1)]
    assert all(type(x) is int for x in next(iter(found)))
    assert found[1, 1][0] == fiber(cfg, (1, 1)) == ((0, 1, 0), (1, 0, 1))


# Each boundary of the dtype table, and the dtype that holds it.
DTYPE_BOUNDARIES = [
    (127, "int8"), (128, "int16"),
    (2**15 - 1, "int16"), (2**15, "int32"),
    (2**31 - 1, "int32"), (2**31, "int64"),
    (2**63 - 1, "int64"), (2**63, None),
]


@pytest.mark.parametrize("limit,name", DTYPE_BOUNDARIES)
def test_dtype_table_picks_as_iinfo_does(limit, name):
    # the narrowest signed integer dtype whose np.iinfo maximum holds limit
    signed = (np.int8, np.int16, np.int32, np.int64)
    fits = [np.dtype(t).name for t in signed if limit <= np.iinfo(t).max]
    assert name == (fits[0] if fits else None)
    # graver_bounded's choice for a box of limit / 2
    assert _narrowest_dtype(limit) == name
    # the batch's, where the limit is a matrix entry or a degree entry
    assert _batch_dtype(config_from_rows([[limit, 1]]), [(0,)]) == name
    assert _batch_dtype(config_from_rows([[1, 1]]), [(limit,), (0,)]) == name


@pytest.mark.parametrize("big", [200, 2**40, 2**63 - 1, 2**63, 2**70])
def test_batched_fibers_take_wide_entries(big, monkeypatch):
    # entries past int8, past int32, at and past the end of int64; six
    # degrees are fewer than the batch's crossover, so it is forced
    monkeypatch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", 1)
    cfg = config_from_rows([[1, big, 1], [1, 0, 2]])
    degrees = [(big, 0), (big + 1, 1), (2, 2), (3, 3), (1, 1), (0, 0)]
    assert members_of(fibers(cfg, degrees)) == {d: fiber(cfg, d) for d in degrees}
    assert fibers(cfg, degrees)[(big + 1, 1)][0] == ((1, 1, 0),)
    # every column reaches both rows, so the big degree's fiber is cut short
    small = config_from_rows([[1, 1], [1, 2]])
    degrees = [(big, 1), (1, 1), (2, 3), (0, 0)]
    assert members_of(fibers(small, degrees)) == {
        d: fiber(small, d) for d in degrees
    }


def _complete_graph(n):
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


# The benchmark's dense stratum, seeded here: K6, two 8-vertex 14-edge
# graphs, six 8-vertex and two 7-vertex 15-edge graphs.
DENSE_STRATUM = (
    [_complete_graph(6)]
    + wide_graphs(2, seed=1414, edges=14, vertices=(8,))
    + wide_graphs(6, seed=1515, edges=15, vertices=(8,))
    + wide_graphs(2, seed=715, edges=15, vertices=(7,))
)
# K5: ten Graver degrees, four of whose fibers have three components
K5 = _complete_graph(5)


@pytest.mark.parametrize(
    "graph",
    wide_graphs(8, seed=1212) + DENSE_STRATUM + [K5],
    ids=lambda g: g.digest()[:12],
)
def test_fiber_graphs_do_not_depend_on_the_sweep(graph, monkeypatch):
    # one numpy batch, which labels the components itself, sweeps of 5
    # degrees, and one ``fiber`` call per degree split by the union-find
    # must give the same fiber graphs
    cfg = graph_config(graph)
    degrees = candidate_degrees(analyze_graph(graph).graver.elements)
    assert len(degrees) > 5
    monkeypatch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", 1)
    batched = fiber_graphs(cfg, degrees)
    monkeypatch.setattr(toriclab.oracle, "_BATCH_MAX_DEGREES", 5)
    assert fiber_graphs(cfg, degrees) == batched
    monkeypatch.setattr(toriclab.oracle, "_BATCH_MIN_DEGREES", len(degrees) + 1)
    assert fiber_graphs(cfg, degrees) == batched


def test_sweep_comparison_meets_fibers_of_three_components():
    # the comparison above sees more than a two-way split
    for graph in (K5, DENSE_STRATUM[0]):
        degrees = candidate_degrees(analyze_graph(graph).graver.elements)
        graphs, _ = fiber_graphs(graph_config(graph), degrees)
        assert max(len(fg.components) for fg in graphs) == 3


def _keys(binomials):
    return {(b.plus, b.minus) for b in binomials}


@pytest.mark.parametrize(
    "graph", wide_graphs(8, seed=1212), ids=lambda g: g.digest()[:12]
)
def test_walk_sets_match_oracle_past_corpus_edge_cap(graph):
    # The acceptance corpus stops at 11 edges; these have 12.
    _assert_walk_sets_match_oracle(graph)


@pytest.mark.parametrize(
    "graph",
    [
        *wide_graphs(6, seed=1313, edges=13, vertices=(7, 8, 9)),
        *wide_graphs(6, seed=1414, edges=14, vertices=(7, 8, 9)),
    ],
    ids=lambda g: f"{len(g.edges)}e-{g.digest()[:12]}",
)
def test_walk_sets_match_oracle_at_13_and_14_edges(graph):
    # 3^14 is the last box under the scale guard at box 2
    _assert_walk_sets_match_oracle(graph)


def _assert_walk_sets_match_oracle(graph):
    """The walk-derived Graver, circuit, universal Markov and indispensable
    sets equal the box-2 oracle's."""
    analysis = analyze_graph(graph)
    bundle = fiber_bundle(graph, analysis)
    cfg = graph_config(graph)
    bounded = graver_bounded(cfg, 2)
    assert _keys(bounded) == analysis.graver.element_set()
    assert support_minimal(_keys(bounded)) == analysis.circuits.element_set()
    oracle = markov_bundle(cfg, bounded)
    assert (
        oracle.universal_markov.element_set()
        == analysis.universal_markov.element_set()
    )
    assert oracle.indispensable.element_set() == bundle.indispensable.element_set()


def test_graver_bounded_guards_scale():
    cfg = config_from_rows([[1] * 24])
    with pytest.raises(ScaleGuardError):
        graver_bounded(cfg, box=2)


# Both boxes are under the box cap, but their joins have 122,551,623 and
# 227,406,945 matches; the guard counts them from the two half-boxes
# before building any.
JOIN_TOO_LARGE = [
    pytest.param([list(range(1, 23))], 1, id="1..22-box1"),
    pytest.param([[1] * 14], 2, id="ones14-box2"),
]


@pytest.mark.parametrize("rows, box", JOIN_TOO_LARGE)
def test_graver_bounded_guards_the_join_matches(rows, box):
    with pytest.raises(ScaleGuardError, match=r"matches \(limit 2000000\)"):
        graver_bounded(config_from_rows(rows), box)


def test_k4_fiber_graph_betti(graph_of):
    cfg = graph_config(graph_of("k4"))
    bundle = markov_bundle(cfg, graver_bounded(cfg, box=2))
    betti = [fg for fg in bundle.graphs if fg.is_betti]
    assert len(betti) == 1
    fg = betti[0]
    assert fg.degree == (1, 1, 1, 1)
    assert len(fg.components) == 3
    assert fg.beta0 == 2
    assert not fg.indispensable_degree
    assert len(bundle.minimal_markov) == 2
    assert len(bundle.universal_markov) == 3
    assert bundle.indispensable == make_basis_set("indispensable", cfg.ncols, [])


def test_c4_fiber_graph_indispensable(graph_of):
    cfg = graph_config(graph_of("c4"))
    bundle = markov_bundle(cfg, graver_bounded(cfg, 2))
    (fg,) = [g for g in bundle.graphs if g.is_betti]
    assert fg.indispensable_degree
    assert [len(c) for c in fg.components] == [1, 1]
    assert len(bundle.minimal_markov) == 1
    assert len(bundle.indispensable) == 1


def _components_reference(members, moves):
    """Components under the moves, by relabelling one whole class per move."""
    label = list(range(len(members)))
    for i, u in enumerate(members):
        for p, q in moves:
            if all(x >= y for x, y in zip(u, p)):
                j = members.index(tuple(x - y + z for x, y, z in zip(u, p, q)))
                label = [label[i] if k == label[j] else k for k in label]
    groups = {}
    for i, k in enumerate(label):
        groups.setdefault(k, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


@pytest.mark.parametrize(
    "graph",
    [*(load_graph(fixture_path(name)) for name in FIXTURE_NAMES),
     *wide_graphs(8, seed=1212)],
    ids=lambda g: g.digest()[:12],
)
def test_fiber_components_match_reference(graph):
    # each fiber is split by the minimal Markov moves of the degrees before it
    bundle = markov_bundle(
        graph_config(graph), analyze_graph(graph).graver.elements
    )
    for fg in bundle.graphs:
        moves = [
            pair
            for b in bundle.minimal_markov
            if (sum(b.degree), b.degree) < (sum(fg.degree), fg.degree)
            for pair in ((b.plus, b.minus), (b.minus, b.plus))
        ]
        assert fg.components == _components_reference(fg.fiber, moves)


@pytest.mark.parametrize(
    "rows",
    [
        # the top degree at 2**k - 1 and 2**k: there the last column alone
        # is one component and the members on the other columns the other
        *([[1, 1, 2**k + d]] for k in (2, 5) for d in (-1, 0)),
        *([[1, 2**k + d]] for k in (5, 10) for d in (-1, 0)),
    ],
)
def test_fiber_components_at_a_field_width_boundary(rows):
    cfg = config_from_rows(rows)
    top = rows[0][-1]
    graphs, minimal = fiber_graphs(cfg, [(1,), (top // 2,), (top,)])
    assert graphs[-1].degree == (top,)
    assert len(graphs[-1].components) == 2
    for fg in graphs:
        moves = [
            pair
            for b in minimal
            if (sum(b.degree), b.degree) < (sum(fg.degree), fg.degree)
            for pair in ((b.plus, b.minus), (b.minus, b.plus))
        ]
        assert fg.components == _components_reference(fg.fiber, moves)


def test_n5_analysis_matches_known_structure():
    cfg = config_from_rows(N5_ROWS)
    ana = analyze_config(cfg, box=2)
    assert len(ana.graver) == 6
    assert len(ana.universal_markov) == 6
    assert len(ana.minimal_markov) == 3
    betti = [fg for fg in ana.graphs if fg.is_betti]
    assert [(fg.degree, fg.beta0) for fg in betti] == [((1, 1, 1, 1, 2), 3)]
    assert ana.indispensable == make_basis_set("indispensable", cfg.ncols, [])
    # the minimal basis is one spanning tree over the four quadric monomials
    monomials = set()
    for b in ana.minimal_markov:
        monomials.add(b.plus)
        monomials.add(b.minus)
    assert len(monomials) == 4


def test_weight_order_validation_and_orientation():
    with pytest.raises(OrderError):
        WeightOrder((1, 0, 2))
    with pytest.raises(OrderError):
        WeightOrder((1, -2, 2))
    order = WeightOrder((1, 2, 5))
    lead, trail = order.orient((0, 0, 1), (1, 1, 0))
    assert lead == (0, 0, 1) and trail == (1, 1, 0)
    # ties go to the lexicographically larger monomial
    tied = WeightOrder((1, 1, 2))
    lead, trail = tied.orient((1, 1, 0), (0, 0, 1))
    assert lead == (1, 1, 0)


def test_weight_order_rejects_cancelling_pair():
    order = WeightOrder((1, 1))
    assert order.orient((1, 0), (1, 0)) is None


def test_buchberger_k4_reduced_basis(graph_of):
    cfg = graph_config(graph_of("k4"))
    g1 = make_binomial((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), cfg.degree)
    g2 = make_binomial((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), cfg.degree)
    # e5*e6 heaviest: its S-pair produces the third quadric
    order = WeightOrder((1, 1, 1, 1, 9, 9))
    pairs = buchberger([g1, g2], order)
    assert len(pairs) == 2
    leads = {p for p, _ in pairs}
    assert leads == {(0, 0, 0, 0, 1, 1), (0, 0, 1, 1, 0, 0)} or leads == {
        (0, 0, 0, 0, 1, 1),
        (1, 1, 0, 0, 0, 0),
    }
    # normal forms are fully tail-reduced
    for _, trail in pairs:
        assert all(not _lead_divides(p, trail) for p, _ in pairs)


def _lead_divides(lead, mono):
    return all(a <= b for a, b in zip(lead, mono))


def test_sampled_groebner_covers_k4_ugb(graph_of, analysis_of):
    cfg = graph_config(graph_of("k4"))
    generators = analysis_of("k4").universal_markov.elements
    samples = sample_groebner(cfg, generators, samples=40, seed=7)
    union = set()
    for s in samples:
        assert len(s.elements) == 2  # every reduced basis of K4 has two elements
        union.update((b.plus, b.minus) for b in s.elements)
    assert union == analysis_of("k4").universal_groebner.element_set()


def test_sample_groebner_deterministic(graph_of, analysis_of):
    cfg = graph_config(graph_of("domino"))
    gens = analysis_of("domino").universal_markov.elements
    a = sample_groebner(cfg, gens, samples=6, seed=123)
    b = sample_groebner(cfg, gens, samples=6, seed=123)
    assert a == b
    c = sample_groebner(cfg, gens, samples=6, seed=124)
    assert a != c


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_candidate_degree_order_is_linear_extension(seed):
    # any degree listed after another is never componentwise below it
    vecs = [
        binomial_from_vector(v, lambda e: (sum(e),))
        for v in [(1, -1, 0), (2, 0, -2), (0, 1, -1), (1, 1, -2)]
    ]
    degrees = candidate_degrees(vecs)
    for i, d in enumerate(degrees):
        for later in degrees[i + 1 :]:
            assert not all(x <= y for x, y in zip(later, d))


@pytest.mark.parametrize(
    "name", ["c4", "k4", "bowtie", "domino", "tri_edge_tri", "hexchord"]
)
def test_lawrence_lifting_bases_are_the_lifted_graver_basis(
    graph_of, analysis_of, name
):
    # Sturmfels, Groebner Bases and Convex Polytopes, Thm 7.1: the Graver
    # basis of the Lawrence lifting [[A, 0], [I, I]] is A's Graver basis
    # lifted, u+ - u- to x^(u+, u-) - x^(u-, u+), and it is also the
    # universal Markov basis, every minimal one, and the indispensable set
    rows = graph_config(graph_of(name)).rows
    m = len(rows[0])
    lifted = config_from_rows(
        [list(row) + [0] * m for row in rows]
        + [[int(i == j) for j in range(m)] * 2 for i in range(m)]
    )
    expected = {
        (b.plus, b.minus)
        for b in (
            make_binomial(g.plus + g.minus, g.minus + g.plus, lifted.degree)
            for g in analysis_of(name).graver.elements
        )
    }
    bundle = analyze_config(lifted, 2)
    assert {(b.plus, b.minus) for b in bundle.graver} == expected
    assert bundle.universal_markov.element_set() == expected
    assert bundle.indispensable.element_set() == expected
    assert {(b.plus, b.minus) for b in bundle.minimal_markov} == expected
