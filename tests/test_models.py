import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from obstruction.adversaries import from_survivor_sets, waitfree
from obstruction.complexes import Facet, Vertex, complex_from_json
from obstruction.formulas import (
    FALSE,
    TRUE,
    and_,
    atom,
    common,
    distributed,
    know,
    not_,
    or_,
    parse,
)
from obstruction.generators import adversary_obstruction
from obstruction.models import (
    BLOCK_ID_CUTOVER,
    SimplicialModel,
    _atom_masks,
    complex_to_dot,
    induce_model,
    model_from_json,
    morphism_violation,
)
from obstruction.solver import random_positive_formula
from obstruction.tasks import (
    apply_action,
    binary_consensus_action,
    immediate_snapshot_action,
    initial_complex,
    initial_model,
    round_operator_action,
)

from conftest import build_demo_model
from helpers import (
    canonical_complex,
    common_reach,
    facet_with_values,
    holds,
    map_facet,
    model_to_json,
    naive_complex_from_json,
    naive_satisfies,
    pairwise_dot,
    pin_formula,
    project_left,
    shared_colors,
)


def someone_has(value):
    return or_(*(atom(a, value) for a in range(3)))


def test_labels_read_off_vertices(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    assert demo_model.inputs[demo_model.complex.index(x3)] == (0, 3, 2)


def test_single_facet_label():
    model = induce_model(canonical_complex(0, [Facet([Vertex(0, 7)])]), "obs")
    assert model.inputs == ((7,),)


def test_product_labels_use_left_half():
    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    for f, vector in zip(model.complex.facets, model.inputs):
        assert vector == tuple(v.obs for v in project_left(f).vertices)


def test_knowledge_at_demo_facets(demo_model):
    x1 = facet_with_values(demo_model, (2, 1, 0))
    x5 = facet_with_values(demo_model, (1, 2, 2))
    assert holds(demo_model, x1, know(0, someone_has(1)))
    assert not holds(demo_model, x5, know(2, someone_has(1)))


def test_distributed_at_demo_facets(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    assert holds(demo_model, x3, distributed({0, 1}, atom(1, 3)))
    assert not holds(demo_model, x3, distributed({0, 2}, atom(1, 3)))


def test_common_knowledge_at_demo_facet(demo_model):
    x5 = facet_with_values(demo_model, (1, 2, 2))
    assert holds(demo_model, x5, common({0, 1, 2}, someone_has(2)))


def test_false_fails_everywhere(demo_model):
    for f in demo_model.complex.facets:
        assert not holds(demo_model, f, FALSE)


def test_validity_of_common_knowledge(demo_model):
    assert demo_model.validity(common({0, 1, 2}, someone_has(2))).is_valid


def test_validity_counterexample_is_unique_demo_facet(demo_model):
    verdict = demo_model.validity(someone_has(1))
    assert not verdict.is_valid
    assert verdict.counterexample == facet_with_values(demo_model, (0, 3, 2))


def test_true_is_valid_everywhere(demo_model):
    assert demo_model.validity(TRUE).is_valid


def common_class(model, facet, agents) -> frozenset:
    """The facets `C[agents]` quantifies over at `facet`, read off the
    model's block ids of that partition."""
    ids = model._block_ids("common", frozenset(agents))
    mine = ids[model.complex.index(facet)]
    return frozenset(f for f, i in zip(model.complex.facets, ids) if i == mine)


def test_common_reach_spans_component(demo_model):
    x5 = facet_with_values(demo_model, (1, 2, 2))
    everything = frozenset(demo_model.complex.facets)
    assert common_class(demo_model, x5, {0, 1, 2}) == everything
    assert common_reach(demo_model, x5, {0, 1, 2}) == everything


def test_common_reach_without_agents_is_reflexive(demo_model):
    for f in demo_model.complex.facets:
        assert common_class(demo_model, f, set()) == frozenset({f})


def distributed_block(model, facet, agents):
    """The facets `D[agents]` quantifies over at `facet`: y is among them
    exactly when `D[agents] ~pin(y)` fails there (demo facets have distinct
    input vectors, so a pin holds at one facet only)."""
    return {
        y for y in model.complex.facets
        if not holds(model, facet, distributed(agents, not_(pin_formula(y))))
    }


def test_distributed_relation_demo_cases(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    x4 = facet_with_values(demo_model, (0, 1, 2))
    assert distributed_block(demo_model, x3, {0, 1}) == {x3}
    assert distributed_block(demo_model, x3, {0, 2}) == {x3, x4}


def test_distributed_relation_empty_group_is_universal(demo_model):
    x1 = facet_with_values(demo_model, (2, 1, 0))
    assert distributed_block(demo_model, x1, set()) == set(demo_model.complex.facets)


def test_agent_out_of_range_rejected(demo_model):
    with pytest.raises(ValueError, match="outside"):
        holds(demo_model, demo_model.complex.facets[0], know(5, FALSE))
    with pytest.raises(ValueError, match="outside"):
        demo_model.validity(atom(7, 0))


def test_agent_check_survives_cached_subformula_masks(demo_model):
    base = atom(0, 0)
    outside = know(5, base)
    demo_model.validity(base)
    with pytest.raises(ValueError, match="outside"):
        holds(demo_model, demo_model.complex.facets[0], outside)
    with pytest.raises(ValueError, match="outside"):
        demo_model.validity(outside)
    with pytest.raises(ValueError, match="outside"):
        demo_model.counterexamples(outside)


@pytest.mark.parametrize("agent", [-1, 3])
def test_relation_queries_reject_agents_outside_the_model(demo_model, agent):
    # A negative agent id is refused by the formula, one past n by the model.
    with pytest.raises(ValueError, match="nonnegative|outside"):
        demo_model.validity(common({0, agent}, FALSE))


@pytest.mark.parametrize("cap", [0, -3])
def test_counterexample_cap_below_one_rejected(demo_model, cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        demo_model.counterexamples(FALSE, cap)


def test_counterexample_cap_bounds_the_list(demo_model):
    assert demo_model.counterexamples(FALSE, 1) == [demo_model.complex.facets[0]]
    assert demo_model.counterexamples(FALSE, 99) == list(demo_model.complex.facets)


def test_singleton_distributed_equals_knowledge(demo_model):
    bodies = [someone_has(1), atom(1, 3), not_(atom(0, 0)), FALSE]
    for a in range(3):
        for body in bodies:
            for f in demo_model.complex.facets:
                assert holds(demo_model, f, know(a, body)) == holds(
                    demo_model, f, distributed({a}, body)
                )


def test_common_reach_monotone_in_agents(demo_model):
    groups = [set(), {0}, {0, 1}, {0, 1, 2}, {2}, {1, 2}]
    for f in demo_model.complex.facets:
        for small in groups:
            for big in groups:
                if small <= big:
                    assert common_class(demo_model, f, small) <= common_class(
                        demo_model, f, big
                    )


def test_indistinguishability_is_an_equivalence(demo_model):
    facets = demo_model.complex.facets
    for a in range(3):
        related = {
            (x, y) for x in facets for y in facets if a in shared_colors(x, y)
        }
        for x in facets:
            assert (x, x) in related
        for x, y in related:
            assert (y, x) in related
        for x, y in related:
            for y2, z in related:
                if y2 == y:
                    assert (x, z) in related


def test_memoized_evaluation_matches_naive(demo_model):
    from obstruction.tasks import immediate_snapshot_action

    models = [
        demo_model,
        apply_action(initial_model(1, [0, 1]), binary_consensus_action(1)),
        apply_action(initial_model(1, [0, 1]), immediate_snapshot_action(1, [0, 1])),
        apply_action(initial_model(2, [0, 1]), binary_consensus_action(2)),
    ]
    rng = random.Random(7)
    for model in models:
        agents = list(range(model.n + 1))
        values = sorted({v for vector in model.inputs for v in vector})
        for _ in range(60):
            phi = random_positive_formula(rng, agents, values, depth=rng.randint(1, 4))
            if rng.random() < 0.4:
                phi = not_(phi) if rng.random() < 0.5 else or_(phi, FALSE)
            for facet in model.complex.facets:
                assert holds(model, facet, phi) == naive_satisfies(model, facet, phi)


def _modal_cases(n: int) -> list:
    """`K`, `D` and `C` over every agent and over the groups ∅ (one `D` block,
    singleton `C` blocks), {0}, {0,1} and everyone, of bodies whose masks
    include no facet (false) and every facet (true)."""
    agents = range(n + 1)
    groups = [(), (0,), (0, 1), agents]
    bodies = [FALSE, TRUE, atom(0, 0), or_(atom(0, 1), atom(1, 0)), and_(atom(1, 1), not_(atom(n, 0)))]
    cases = []
    for body in bodies:
        cases += [know(a, body) for a in agents]
        cases += [op(g, body) for g in groups for op in (distributed, common)]
    return cases


BLOCK_MODELS = {
    "demo": build_demo_model,
    "is-n2": lambda: apply_action(initial_model(2, (0, 1)), immediate_snapshot_action(2, (0, 1))),
    "waitfree-n2": lambda: apply_action(
        initial_model(2, (0, 1)), round_operator_action(2, waitfree(2), range(3))
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_block_ids_agree_with_block_masks_and_naive(name, monkeypatch):
    masks = {}
    for cutover in (len(BLOCK_MODELS[name]().complex), 0):
        monkeypatch.setattr("obstruction.models.BLOCK_ID_CUTOVER", cutover)
        model = BLOCK_MODELS[name]()
        masks[cutover > 0] = [model._mask(phi) for phi in _modal_cases(model.n)]
        # Block masks are built exactly when the model is at or below the cut-over.
        assert bool(model._block_masks) == (cutover > 0)
    assert masks[False] == masks[True]
    # The naive evaluator searches the whole model per query: check a spread
    # of about a dozen facets.
    facets = model.complex.facets
    sample = range(0, len(facets), max(1, len(facets) // 12))
    for phi, mask in zip(_modal_cases(model.n), masks[False]):
        naive = [naive_satisfies(model, facets[i], phi) for i in sample]
        assert [bool(mask >> i & 1) for i in sample] == naive, phi


def test_block_ids_on_the_split_pair_protocol(monkeypatch):
    adversary = from_survivor_sets(3, [{0, 1}, {2, 3}])
    phi = adversary_obstruction(3, adversary)

    def build():
        protocol = round_operator_action(3, adversary, range(4))
        return apply_action(initial_model(3, range(4)), protocol)

    model = build()
    assert len(model.complex) == 16128 > BLOCK_ID_CUTOVER
    found = [model.complex.index(f) for f in model.counterexamples(phi, 10)]
    assert found and not model._block_masks
    monkeypatch.setattr("obstruction.models.BLOCK_ID_CUTOVER", len(model.complex))
    by_masks = build()
    assert [by_masks.complex.index(f) for f in by_masks.counterexamples(phi, 10)] == found
    # Each C class, read off the block ids, is a connected component of the
    # facets sharing a vertex of the group, found by search over vertex stars.
    start = model.complex.facets[found[0]]
    for group in [(), (0,), (0, 1), (1, 2), (0, 1, 2, 3)]:
        assert common_class(model, start, group) == common_reach(model, start, group)


def _bitwise_atom_masks(inputs) -> dict:
    """Reference for `models._atom_masks`: each facet's bit OR-ed into the
    mask of every atom it holds."""
    masks: dict = {}
    for i, vector in enumerate(inputs):
        for pair in enumerate(vector):
            masks[pair] = masks.get(pair, 0) | 1 << i
    return masks


def test_atom_masks_on_the_split_pair_protocol():
    adversary = from_survivor_sets(3, [{0, 1}, {2, 3}])
    model = apply_action(initial_model(3, range(4)), round_operator_action(3, adversary, range(4)))
    inputs = model.inputs
    assert len(set(inputs)) == 256  # the most that a byte per facet numbers
    # Equal vectors are one object.
    assert len({id(vector) for vector in inputs}) == 256
    assert _atom_masks(inputs) == _bitwise_atom_masks(inputs)


def test_atom_masks_beyond_a_byte_of_atom_sets():
    rng = random.Random(5)
    inputs = tuple(tuple(rng.randrange(-2, 4) for _ in range(4)) for _ in range(3000))
    assert len(set(inputs)) > 256
    assert _atom_masks(inputs) == _bitwise_atom_masks(inputs)
    # One input vector per facet: 6 ** 5 of them.
    inputs = initial_model(4, range(6)).inputs
    assert len(set(inputs)) == 7776
    assert _atom_masks(inputs) == _bitwise_atom_masks(inputs)


def test_empty_common_group_is_the_formula_itself(demo_model):
    bodies = [someone_has(1), atom(0, 2), not_(know(1, someone_has(2))), FALSE]
    for body in bodies:
        for f in demo_model.complex.facets:
            assert holds(demo_model, f, common((), body)) == holds(demo_model, f, body)
        assert demo_model.counterexamples(common((), body), 5) == demo_model.counterexamples(
            body, 5
        )


def test_empty_distributed_group_means_everywhere(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    assert not demo_model.validity(someone_has(1)).is_valid  # fails at x3 only
    for f in demo_model.complex.facets:
        assert holds(demo_model, f, someone_has(1)) == (f != x3)
        assert not holds(demo_model, f, distributed((), someone_has(1)))
        assert holds(demo_model, f, distributed((), someone_has(2)))
        assert holds(demo_model, f, not_(distributed((), someone_has(1))))


@st.composite
def _models_and_formulas(draw):
    """A small random chromatic model and formulas over its agents, with
    negated modal nodes and empty `C`/`D` groups among them."""
    n = draw(st.integers(0, 2))
    values = st.integers(0, 2)
    rows = draw(st.lists(st.tuples(*[values] * (n + 1)), min_size=2, max_size=7))
    facets = [Facet(Vertex(a, v) for a, v in enumerate(row)) for row in rows]
    model = induce_model(canonical_complex(n, facets), "obs")
    agents = st.integers(0, n)
    groups = st.just(frozenset()) | st.frozensets(agents, min_size=1)
    leaves = st.just(FALSE) | st.builds(atom, agents, values)
    formulas = st.recursive(
        leaves,
        lambda inner: st.builds(not_, inner)
        | st.builds(or_, inner, inner)
        | st.builds(and_, inner, inner)
        | st.builds(know, agents, inner)
        | st.builds(common, groups, inner)
        | st.builds(distributed, groups, inner),
        max_leaves=6,
    )
    drawn = draw(st.lists(formulas, min_size=1, max_size=4))
    phi = drawn[0]
    return model, drawn + [common((), phi), distributed((), phi), not_(know(0, phi))]


@settings(deadline=None)
@given(_models_and_formulas())
def test_mask_evaluation_matches_naive_on_random_models(case):
    model, formulas = case
    facets = model.complex.facets
    for phi in formulas:
        failing = [f for f in facets if not naive_satisfies(model, f, phi)]
        for f in facets:
            assert holds(model, f, phi) == (f not in failing)
        verdict = model.validity(phi)
        assert verdict.counterexample == (failing[0] if failing else None)
        assert model.counterexamples(phi, len(facets)) == failing
        assert model.counterexamples(phi, 2) == failing[:2]


def test_induce_model_rejects_non_integer_inputs():
    view = frozenset({(0, 0)})
    complex = canonical_complex(0, [Facet([Vertex(0, view)])])
    with pytest.raises(ValueError, match="not an integer"):
        induce_model(complex, "obs")
    with pytest.raises(ValueError, match="unknown projection"):
        induce_model(complex, "right")


def test_induce_model_names_the_first_bad_vertex_in_facet_order():
    # Facet order puts 1:{1:0} first, while Vertex.key order puts 0:{0:1} first.
    complex = canonical_complex(1, [
        Facet([Vertex(0, frozenset({(0, 1)})), Vertex(1, 1)]),
        Facet([Vertex(0, 0), Vertex(1, frozenset({(1, 0)}))]),
    ])
    with pytest.raises(ValueError, match=r"^input of vertex 1:\{1:0\} is not an integer value$"):
        induce_model(complex, "obs")


def test_induce_model_left_needs_product_vertices():
    with pytest.raises(ValueError, match="^vertex 0:0 is not a product vertex$"):
        induce_model(initial_complex(1, (0, 1)), "left")


def test_model_needs_one_input_vector_per_facet():
    with pytest.raises(ValueError, match="^one input vector per facet required$"):
        SimplicialModel(initial_complex(1, (0, 1)), ())


def test_identity_is_a_morphism(demo_model):
    identity = {v: v for v in demo_model.complex.vertices()}
    assert morphism_violation(identity, demo_model, demo_model) is None


def test_collapsing_distinct_labels_is_not_a_morphism(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    x4 = facet_with_values(demo_model, (0, 1, 2))
    delta = {v: v for v in demo_model.complex.vertices()}
    delta[x3[1]] = x4[1]  # send b3 to b1, collapsing X3 onto X4
    assert morphism_violation(delta, demo_model, demo_model) is not None
    assert "labeling" in morphism_violation(delta, demo_model, demo_model)


def test_partial_map_is_not_a_morphism(demo_model):
    delta = {v: v for v in list(demo_model.complex.vertices())[:-1]}
    assert "unmapped" in morphism_violation(delta, demo_model, demo_model)


def test_color_change_is_not_a_morphism():
    model = initial_model(0, [0, 1])
    v0, v1 = Vertex(0, 0), Vertex(0, 1)
    delta = {v0: Vertex(1, 0), v1: v1}
    assert "color" in morphism_violation(delta, model, model)


def test_facet_image_outside_the_target_is_not_a_morphism():
    model = initial_model(1, [0, 1])
    diagonal = induce_model(
        canonical_complex(1, [f for f in model.complex.facets if f[0].obs == f[1].obs]), "obs"
    )
    identity = {v: v for v in model.complex.vertices()}
    # Every vertex has an image in the target; the facet 0:0 1:1 does not.
    assert morphism_violation(identity, model, diagonal) == (
        "facet 0:0 1:1 maps outside the target complex"
    )
    # An image vertex the target lacks puts the first facet outside it.
    stray = dict(identity)
    stray[Vertex(1, 0)] = Vertex(1, 5)
    assert morphism_violation(stray, model, model) == (
        "facet 0:0 1:0 maps outside the target complex"
    )


def test_morphism_commutes_with_intersection(demo_model):
    identity = {v: v for v in demo_model.complex.vertices()}
    facets = demo_model.complex.facets
    for x in facets:
        for y in facets:
            meet = set(x.vertices) & set(y.vertices)
            image_meet = {identity[v] for v in meet}
            ix, iy = map_facet(identity, x), map_facet(identity, y)
            assert {v.color for v in image_meet} == {
                v.color for v in set(ix.vertices) & set(iy.vertices)
            }


def test_model_json_round_trip(demo_model):
    doc = model_to_json(demo_model)
    again = model_from_json(doc)
    assert again.complex == demo_model.complex
    assert again.inputs == demo_model.inputs


def test_product_model_json_round_trip():
    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    again = model_from_json(model_to_json(model))
    assert again.complex == model.complex
    assert again.inputs == model.inputs


def test_model_json_atoms_follow_the_listed_facets():
    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    doc = model_to_json(model)
    doc["facets"].reverse()
    doc["atoms"].reverse()
    again = model_from_json(doc)
    assert again.complex == model.complex and again.inputs == model.inputs
    # A facet listed twice is read once, and must carry the same atoms.
    doc["facets"].append(doc["facets"][0])
    doc["atoms"].append(doc["atoms"][0])
    assert model_from_json(doc).inputs == model.inputs
    doc["atoms"][-1] = next(a for a in doc["atoms"] if a != doc["atoms"][0])
    with pytest.raises(ValueError, match="recorded atoms disagree"):
        model_from_json(doc)


def test_model_json_refuses_an_action_document_before_its_facets():
    # The facets are not read: their malformed entry raises nothing.
    doc = {"n": 0, "facets": [{"vertices": [{"color": True}]}], "pre": {"0": "false"}}
    with pytest.raises(ValueError, match="got an action document"):
        model_from_json(doc)


def test_model_json_atoms_compare_as_sets(demo_model):
    doc = json.loads(json.dumps(model_to_json(demo_model)))
    # Each facet's atom pairs reversed, and its first pair repeated.
    doc["atoms"] = [pairs[::-1] + pairs[:1] for pairs in doc["atoms"]]
    assert model_from_json(doc).inputs == demo_model.inputs
    agent, value = doc["atoms"][0][0]
    doc["atoms"][0][0] = [agent, value + 1]
    with pytest.raises(ValueError, match="recorded atoms disagree"):
        model_from_json(doc)


# Round-tripped model documents, as JSON text, that the decoder is compared on.
_DECODER_MODELS = {
    "demo": build_demo_model(),
    "is2": apply_action(initial_model(2, [0, 1]), immediate_snapshot_action(2, [0, 1])),
    "waitfree2": apply_action(
        initial_model(2, [0, 1]), round_operator_action(2, waitfree(2), [0, 1])
    ),
}
_DECODER_DOCS = {name: json.dumps(model_to_json(m)) for name, m in _DECODER_MODELS.items()}


def _respelled_obs(obs, rng):
    """The JSON observation with each view's [agent, obs] entries shuffled."""
    if not isinstance(obs, list):
        return obs
    parts = [_respelled_obs(o, rng) for o in obs]
    if all(isinstance(e, list) and len(e) == 2 and type(e[0]) is int for e in obs):
        rng.shuffle(parts)
    return parts


def _respelled_entry(entry, rng):
    """The vertex entry with its observation respelled, maybe an extra key,
    and its keys in a random order."""
    items = [("color", entry["color"]), ("obs", _respelled_obs(entry["obs"], rng))]
    if rng.random() < 0.25:
        items.append(("note", rng.choice([0, 1.0, "x", None, [1]])))
    rng.shuffle(items)
    return dict(items)


def _int_leaves(obs, path=()):
    """Paths to the integer leaves of a JSON observation."""
    if isinstance(obs, list):
        return [p for i, o in enumerate(obs) for p in _int_leaves(o, path + (i,))]
    return [path]


def _changed_leaf(obs, path, change):
    """The observation with `change` applied to its leaf at `path`."""
    if not path:
        return change(obs)
    obs[path[0]] = _changed_leaf(obs[path[0]], path[1:], change)
    return obs


def _decoded(decode, doc):
    try:
        return decode(doc)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_DECODER_DOCS)),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from([None, "true", "1.0", "bool-color", "missing-obs"]),
    shape=st.sampled_from([None, "reversed", "repeated", "emptied"]),
)
def test_decoder_agrees_with_the_naive_decoder(name, seed, fault, shape):
    # The document is respelled entry by entry, its facets listed in another
    # order, and one vertex entry whose vertex was listed before is spoilt.
    # One facet may list its vertices against color order, be listed twice
    # with its atoms entry repeated, or list no vertices.
    rng = random.Random(seed)
    doc = json.loads(_DECODER_DOCS[name])
    order = list(range(len(doc["facets"])))
    rng.shuffle(order)
    doc["facets"] = [doc["facets"][i] for i in order]
    doc["atoms"] = [doc["atoms"][i] for i in order]
    i = rng.randrange(len(order))
    if shape == "reversed":
        doc["facets"][i]["vertices"].reverse()
    elif shape == "repeated":
        k = rng.randrange(len(order) + 1)
        doc["facets"].insert(k, {"vertices": list(doc["facets"][i]["vertices"])})
        doc["atoms"].insert(k, doc["atoms"][i])
    elif shape == "emptied":
        doc["facets"][i]["vertices"] = []
    rows = [f["vertices"] for f in doc["facets"]]
    seen, later = set(), []
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            spelling = json.dumps(entry)
            if spelling in seen:
                later.append((i, j))
            seen.add(spelling)
            row[j] = _respelled_entry(entry, rng)
    i, j = rng.choice(later)
    entry = rows[i][j]
    if fault == "bool-color":
        entry["color"] = bool(entry["color"])
    elif fault == "missing-obs":
        del entry["obs"]
    elif fault is not None:
        change = (lambda leaf: True) if fault == "true" else float
        path = rng.choice(_int_leaves(entry["obs"]))
        entry["obs"] = _changed_leaf(entry["obs"], path, change)

    expected = _decoded(naive_complex_from_json, doc)
    got = _decoded(complex_from_json, doc)
    if isinstance(expected, str):
        assert fault is not None or (shape == "emptied" and expected == "empty facet")
        assert got == expected == _decoded(model_from_json, doc)
        return
    assert fault is None
    (c, ids), (naive, naive_ids) = got, expected
    assert c == naive and c.vertices() == naive.vertices() and ids == naive_ids
    model, original = model_from_json(doc), _DECODER_MODELS[name]
    assert model.complex == original.complex and model.inputs == original.inputs


def test_dot_export_lists_facets_and_edges(demo_model):
    waitfree2 = apply_action(
        initial_model(2, [0, 1, 2]), round_operator_action(2, waitfree(2), range(3))
    )
    for model in (demo_model, waitfree2):
        dot = complex_to_dot(model.complex)
        assert "f0 --" in dot
        assert dot == pairwise_dot(model.complex)


def test_formula_evaluation_agrees_with_parse(demo_model):
    x3 = facet_with_values(demo_model, (0, 3, 2))
    assert holds(demo_model, x3, parse("D[{0,1}] input(1,3)"))
    assert not holds(demo_model, x3, parse("D[{0,2}] input(1,3)"))
