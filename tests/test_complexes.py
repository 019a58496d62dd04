import pytest
from hypothesis import given, settings, strategies as st

from obstruction.complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    _key_order,
    complex_from_json,
    complex_to_json,
    obs_from_json,
    obs_key,
    obs_text,
    obs_to_json,
)
from obstruction.cli import main
from obstruction.tasks import (
    apply_action,
    binary_consensus_action,
    immediate_snapshot_action,
    initial_complex,
    initial_model,
    set_agreement_action,
)

from helpers import (
    assert_checked_facets,
    canonical_complex,
    cartesian_product,
    facet_with_values,
    product_facet,
    project_left,
    project_right,
    shared_colors,
)


def test_demo_complex_shape(demo_model):
    assert demo_model.complex.n == 2
    assert len(demo_model.complex.facets) == 5


def test_zero_dimensional_complex():
    c = canonical_complex(0, [Facet([Vertex(0, 7)])])
    assert len(c.facets) == 1
    assert c.facets[0][0].obs == 7


def test_duplicate_color_rejected():
    with pytest.raises(ValueError, match="duplicate colors"):
        Facet([Vertex(0, 1), Vertex(0, 2)])


def test_wrong_facet_size_rejected():
    good = Facet([Vertex(0, 0), Vertex(1, 0)])
    with pytest.raises(ValueError, match="do not match dimension"):
        canonical_complex(2, [good])


def test_empty_complex_rejected():
    with pytest.raises(ValueError):
        canonical_complex(1, [])


def test_shared_colors_demo(demo_model):
    x1 = facet_with_values(demo_model, (2, 1, 0))
    x2 = facet_with_values(demo_model, (2, 2, 1))
    assert shared_colors(x1, x2) == frozenset({0})


def test_shared_colors_reflexive(demo_model):
    for f in demo_model.complex.facets:
        assert shared_colors(f, f) == frozenset({0, 1, 2})


def test_shared_colors_disjoint():
    x = Facet([Vertex(0, 0), Vertex(1, 0)])
    y = Facet([Vertex(0, 1), Vertex(1, 1)])
    assert shared_colors(x, y) == frozenset()


def _complex_of_values(n, value_rows):
    return canonical_complex(
        n,
        [Facet(Vertex(a, row[a]) for a in range(n + 1)) for row in value_rows],
    )


def test_product_cardinality():
    c = _complex_of_values(1, [(0, 0), (1, 1), (2, 2), (3, 3)])
    d = _complex_of_values(1, [(5, 5), (6, 6), (7, 7)])
    p = cartesian_product(c, d)
    assert len(p.facets) == 12


def test_product_single_facets_pairs_observations():
    c = _complex_of_values(1, [(0, 1)])
    d = _complex_of_values(1, [(8, 9)])
    p = cartesian_product(c, d)
    assert len(p.facets) == 1
    assert p.facets[0][0].obs == (0, 8)
    assert p.facets[0][1].obs == (1, 9)


def test_product_with_consensus_actions_before_filtering():
    inputs = initial_complex(1, [0, 1])
    actions = binary_consensus_action(1).complex
    p = cartesian_product(inputs, actions)
    assert len(p.facets) == 8
    assert_checked_facets(inputs)


def test_product_matches_per_pair_product_facet():
    inputs = initial_complex(2, [0, 1, 2])
    views = immediate_snapshot_action(2, [0, 1]).complex
    decisions = set_agreement_action(2, 2, range(3)).complex
    paired = apply_action(initial_model(2, [0, 1]), immediate_snapshot_action(2, [0, 1])).complex
    for c, d in [(inputs, views), (views, decisions), (paired, inputs), (decisions, paired)]:
        p = cartesian_product(c, d)
        assert p == canonical_complex(c.n, [product_facet(x, y) for x in c.facets for y in d.facets])
        assert len(p.facets) == len(c.facets) * len(d.facets)
        assert_checked_facets(p)


def test_projections_invert_pairing():
    c = _complex_of_values(1, [(0, 0), (1, 1)])
    d = _complex_of_values(1, [(4, 4), (5, 5)])
    for x in c.facets:
        for y in d.facets:
            z = product_facet(x, y)
            assert project_left(z) == x
            assert project_right(z) == y


def test_consensus_product_right_projection():
    from obstruction.tasks import apply_action, initial_model

    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    decisions = {project_right(f) for f in model.complex.facets}
    expected = {
        Facet([Vertex(0, d), Vertex(1, d)]) for d in (0, 1)
    }
    assert decisions == expected


def test_product_shared_colors_decompose():
    c = _complex_of_values(1, [(0, 0), (0, 1), (1, 1)])
    d = _complex_of_values(1, [(4, 4), (4, 5)])
    p = cartesian_product(c, d)
    for z in p.facets:
        for w in p.facets:
            assert shared_colors(z, w) == shared_colors(
                project_left(z), project_left(w)
            ) & shared_colors(project_right(z), project_right(w))


def test_complex_json_round_trip(demo_model):
    doc = complex_to_json(demo_model.complex)
    again, _ = complex_from_json(doc)
    assert again == demo_model.complex
    assert complex_to_json(again) == doc
    assert_checked_facets(again)


def test_decoder_makes_one_vertex_per_distinct_vertex():
    # Color 0's view is spelled in two entry orders; color 1's value 5 and
    # color 0's plain 7 repeat across facets.
    doc = {
        "n": 1,
        "facets": [
            {"vertices": [{"color": 0, "obs": [[0, 1], [1, 0]]}, {"color": 1, "obs": 5}]},
            {"vertices": [{"color": 0, "obs": [[1, 0], [0, 1]]}, {"color": 1, "obs": 6}]},
            {"vertices": [{"color": 0, "obs": 7}, {"color": 1, "obs": 5}]},
            {"vertices": [{"color": 0, "obs": 7}, {"color": 1, "obs": 6}]},
        ],
    }
    c, _ = complex_from_json(doc)
    assert len(c.facets) == 4
    occurrences = [v for f in c.facets for v in f.vertices]
    assert len({id(v) for v in occurrences}) == len(c.vertices()) == 4
    first, second = [v for v in occurrences if v == Vertex(0, frozenset({(0, 1), (1, 0)}))]
    assert first is second
    assert_checked_facets(c)


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"color": True, "obs": 1}, "malformed vertex entry: 'color' must be of type int, got bool"),
        ({"color": 0.0, "obs": 1}, "malformed vertex entry: 'color' must be of type int, got float"),
        ({"color": 0, "obs": True}, "not an observation: True"),
        ({"color": 0, "obs": 1.0}, "not an observation: 1.0"),
        ({"color": 0}, "malformed vertex entry: missing 'obs'"),
    ],
    ids=["bool-color", "float-color", "bool-obs", "float-obs", "missing-obs"],
)
def test_decoder_checks_entries_equal_to_a_decoded_one(bad, message):
    # Each bad entry compares equal to (or lacks a field of) the well-formed
    # entry before it, whose decoding is already remembered.
    good = {"color": 0, "obs": 1}
    doc = {"n": 0, "facets": [{"vertices": [good]}, {"vertices": [bad]}]}
    with pytest.raises(ValueError) as err:
        complex_from_json(doc)
    assert str(err.value) == message


def test_waitfree_model_export_is_byte_identical(tmp_path, capsys):
    built, again = tmp_path / "wf2.json", tmp_path / "wf2b.json"
    assert main(["build", "I[round:waitfree]", "--n", "2", "--out", str(built)]) == 0
    assert main(["export", str(built), "--format", "json", "--out", str(again)]) == 0
    assert capsys.readouterr().out == ""
    assert again.read_bytes() == built.read_bytes()


def test_view_and_pair_observations_round_trip():
    view = frozenset({(0, 0), (1, 1)})
    pair = (0, view)
    nested_pair = (3, 4)
    for obs in (5, view, pair, nested_pair, frozenset()):
        assert obs_from_json(obs_to_json(obs)) == obs


@pytest.mark.parametrize(
    "obs", [[[0, 1], [0, 2]], [[0, 1], [0, 1]], [[1, 0], [0, 3], [1, [[0, 0]]]]]
)
def test_a_view_names_each_agent_once(obs):
    with pytest.raises(ValueError, match="view names an agent twice"):
        obs_from_json(obs)
    doc = {"n": 0, "facets": [{"vertices": [{"color": 0, "obs": obs}]}]}
    with pytest.raises(ValueError, match="view names an agent twice"):
        complex_from_json(doc)


def test_view_entries_are_written_in_agent_order():
    # One observation per agent: entries order by agent alone, whatever the
    # kinds of the observations.
    view = frozenset({(2, (0, 1)), (0, frozenset({(1, 4), (0, 3)})), (1, 5)})
    assert obs_text(view) == "{0:{0:3,1:4},1:5,2:(0,1)}"
    assert obs_to_json(view) == [[0, [[0, 3], [1, 4]]], [1, 5], [2, [0, 1]]]


def test_obs_key_orders_mixed_kinds():
    items = [frozenset({(0, 1)}), 3, (1, 2), 0]
    ordered = sorted(items, key=obs_key)
    assert ordered == [0, 3, frozenset({(0, 1)}), (1, 2)]


def test_obs_key_refuses_a_non_observation():
    with pytest.raises(TypeError, match=r"^not an observation: 1\.5$"):
        obs_key(1.5)


def test_facets_are_canonically_ordered(demo_model):
    keys = [f.key() for f in demo_model.complex.facets]
    assert keys == sorted(keys)


def test_complex_index_lookup(demo_model):
    for i, f in enumerate(demo_model.complex.facets):
        assert demo_model.complex.index(f) == i
    with pytest.raises(KeyError):
        demo_model.complex.index(Facet([Vertex(0, 9), Vertex(1, 9), Vertex(2, 9)]))


def test_facet_index_is_built_on_first_use():
    c = initial_complex(1, (0, 1))
    assert c._pos is None
    stranger = Facet([Vertex(0, 9), Vertex(1, 9)])
    assert stranger not in c and c._pos is not None
    with pytest.raises(KeyError, match=r"facet not in complex: Facet\(0:9 1:9\)"):
        c.index(stranger)
    assert [c.index(f) for f in c.facets] == list(range(len(c)))


# -- canonical order ---------------------------------------------------------


_VALUES = st.integers(0, 2)
_VIEWS = st.frozensets(st.tuples(st.integers(0, 2), _VALUES), max_size=2)
# Plain values, views of (agent, obs) pairs, and product pairs.
_OBSERVATIONS = _VALUES | _VIEWS | st.tuples(_VALUES | _VIEWS, _VALUES | _VIEWS)


@st.composite
def _facet_lists(draw, bad_colors=False):
    """(n, facets) with repeats made of equal but distinct vertex objects."""
    n = draw(st.integers(0, 2))

    def facet(colors):
        return Facet(Vertex(a, draw(_OBSERVATIONS)) for a in colors)

    facets = [facet(range(n + 1)) for _ in range(draw(st.integers(1, 6)))]
    for f in draw(st.lists(st.sampled_from(facets), max_size=3)):
        facets.append(Facet(Vertex(v.color, v.obs) for v in reversed(f.vertices)))
    if bad_colors:
        right = set(range(n + 1))
        wrong = st.sets(st.integers(0, n + 1), min_size=1).map(
            lambda colors: colors | {n + 1} if colors == right else colors
        )
        facets.extend(facet(sorted(colors)) for colors in draw(st.lists(wrong, min_size=1, max_size=3)))
    return n, draw(st.permutations(facets))


@settings(deadline=None)
@given(_facet_lists(), st.data())
def test_canonical_order_is_facet_key_order(case, data):
    n, facets = case
    distinct = list(dict.fromkeys(facets))
    shuffled = data.draw(st.permutations(sorted({v for f in distinct for v in f}, key=Vertex.key)))
    number = {v: i for i, v in enumerate(shuffled)}
    vertices, order, rows = _key_order(shuffled, [tuple(number[v] for v in f) for f in distinct])
    assert vertices == sorted(shuffled, key=Vertex.key)
    assert order == sorted(range(len(distinct)), key=lambda i: distinct[i].key())
    rank = {v: i for i, v in enumerate(vertices)}
    assert rows == [tuple(rank[v] for v in distinct[i]) for i in order]
    c = ChromaticComplex(n, rows, vertices)
    assert c.facets == tuple(sorted(distinct, key=Facet.key))
    assert c.vertex_id == rank


@settings(deadline=None)
@given(_facet_lists(bad_colors=True))
def test_first_wrongly_colored_facet_in_key_order_is_reported(case):
    n, facets = case
    expected = tuple(range(n + 1))
    first = next(
        f for f in sorted(set(facets), key=Facet.key) if tuple(v.color for v in f) != expected
    )
    colors = tuple(v.color for v in first)
    with pytest.raises(ValueError) as info:
        canonical_complex(n, facets)
    assert str(info.value) == (
        f"facet colors {colors} do not match dimension {n} (expected colors 0..{n})"
    )


def test_facet_sorts_unordered_vertices_and_refuses_repeats():
    f = Facet([Vertex(2, 5), Vertex(0, 3), Vertex(1, 4)])
    assert tuple(v.color for v in f) == (0, 1, 2)
    assert f == Facet([Vertex(0, 3), Vertex(1, 4), Vertex(2, 5)])
    assert hash(f) == hash(Facet([Vertex(0, 3), Vertex(1, 4), Vertex(2, 5)]))
    # A vertex listed twice is a repeated color, not one vertex.
    with pytest.raises(ValueError, match=r"duplicate colors in facet: \[0\]"):
        Facet([Vertex(2, 5), Vertex(0, 3), Vertex(1, 4), Vertex(0, 3)])
    with pytest.raises(ValueError, match=r"duplicate colors in facet: \[0\]"):
        Facet([Vertex(0, 0), Vertex(0, 0), Vertex(1, 1)])
    with pytest.raises(ValueError, match="empty facet"):
        Facet([])


def test_product_facet_needs_matching_colors():
    x = Facet([Vertex(0, 0), Vertex(1, 1)])
    with pytest.raises(KeyError, match="no vertex of color 1"):
        product_facet(x, Facet([Vertex(0, 4), Vertex(2, 5)]))


@pytest.mark.parametrize(
    "x_colors,y_colors,missing",
    [
        ((0, 1, 3), (0, 2, 3), 1),
        ((1, 2), (0, 1), 2),
        ((0, 1), (0, 1, 2), None),
        ((1, 3), (1, 3), None),
        ((0, 1, 2), (0, 1, 2), None),
    ],
)
def test_product_facet_pairs_vertices_of_equal_color(x_colors, y_colors, missing):
    x = Facet(Vertex(c, 10 * c) for c in x_colors)
    y = Facet(Vertex(c, 10 * c + 1) for c in y_colors)
    if missing is not None:
        with pytest.raises(KeyError, match=f"no vertex of color {missing}"):
            product_facet(x, y)
        return
    assert product_facet(x, y) == Facet(Vertex(c, (10 * c, 10 * c + 1)) for c in x_colors)
