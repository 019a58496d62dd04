import gc
import json

import pytest

from obstruction.adversaries import from_survivor_sets, waitfree
from obstruction.complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    complex_from_json,
)
from obstruction.formulas import FALSE, ParseError, render
from obstruction.generators import (
    adversary_obstruction,
    verify_obstruction,
    waitfree_kset_obstruction,
)
from obstruction.tasks import (
    ActionModel,
    _view_action,
    action_from_json,
    apply_action,
    binary_consensus_action,
    decide_own_input_action,
    immediate_snapshot_action,
    initial_complex,
    initial_model,
    is_immediate,
    round_operator_action,
    set_agreement_action,
    view_vectors,
)

from helpers import (
    action_to_json,
    assert_checked_facets,
    canonical_complex,
    complex_to_json,
    facet_with_values,
    input_of,
    min_view,
    naive_product_update,
    ordered_set_partitions,
    output_of,
    partition_view_vectors,
    product_view_vectors,
    project_right,
    protocol_facet,
    reference_view_action,
    seen_agents,
    shared_colors,
    view_of,
)


# -- initial models ----------------------------------------------------------


def test_initial_model_counts():
    assert len(initial_model(1, [0, 1]).complex.facets) == 4
    assert len(initial_model(2, [0, 1, 2]).complex.facets) == 27


def test_initial_model_contains_uniform_assignment():
    model = initial_model(2, [0, 1])
    assert len(model.complex.facets) == 8
    facet_with_values(model, (0, 0, 0))


def test_initial_model_rejects_empty_inputs():
    with pytest.raises(ValueError, match="at least one"):
        initial_model(1, [])


@pytest.mark.parametrize("inputs", [[True, False], [1, True], [0, False, 2]])
def test_initial_model_rejects_bool_inputs(inputs):
    # A bool equals its int: it would merge with it and export as JSON
    # `false`, which `model_from_json` refuses to read back.
    with pytest.raises(TypeError, match="integers"):
        initial_model(1, inputs)


# -- ordered set partitions and snapshot views --------------------------------


def test_partition_counts():
    assert len(ordered_set_partitions(range(2))) == 3
    assert len(ordered_set_partitions(range(3))) == 13
    assert len(ordered_set_partitions(range(4))) == 75


def test_partitions_cover_and_are_disjoint():
    for partition in ordered_set_partitions(range(3)):
        union = set()
        for block in partition:
            assert block
            assert not (union & block)
            union |= block
        assert union == {0, 1, 2}


def test_snapshot_action_counts():
    assert len(immediate_snapshot_action(1, [0, 1]).complex.facets) == 3 * 4
    assert len(immediate_snapshot_action(2, [0, 1]).complex.facets) == 13 * 8


def test_snapshot_views_for_solo_first_writer():
    n = 2
    model = apply_action(initial_model(n, [0, 1]), immediate_snapshot_action(n, [0, 1]))
    # All-zero inputs, agent 0 alone in the first block.
    x1 = protocol_facet(model, (0, 0, 0), [{0}, {0, 1, 2}, {0, 1, 2}])
    assert view_of(x1, 0) == frozenset({(0, 0)})
    # Inputs 0,1,1 with the last block holding agent 0 alone.
    x4 = protocol_facet(model, (0, 1, 1), [{0, 1, 2}, {1, 2}, {1, 2}])
    assert view_of(x4, n) == frozenset({(1, 1), (2, 1)})


def test_single_block_view_is_everything():
    model = apply_action(initial_model(1, [0, 1]), immediate_snapshot_action(1, [0, 1]))
    f = protocol_facet(model, (0, 1), [{0, 1}, {0, 1}])
    for a in (0, 1):
        assert view_of(f, a) == frozenset({(0, 0), (1, 1)})


# -- consensus and set agreement ----------------------------------------------


def test_consensus_product_counts():
    one = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    assert len(one.complex.facets) == 6
    two = apply_action(initial_model(2, [0, 1]), binary_consensus_action(2))
    assert len(two.complex.facets) == 14


def test_consensus_mixed_inputs_admit_both_decisions():
    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    by_input = {}
    for f in model.complex.facets:
        by_input.setdefault(tuple(input_of(f, a) for a in (0, 1)), []).append(f)
    assert len(by_input[(0, 0)]) == 1
    assert len(by_input[(1, 1)]) == 1
    assert len(by_input[(0, 1)]) == 2
    assert len(by_input[(1, 0)]) == 2


def test_all_zero_inputs_pair_only_with_zero_decision():
    model = apply_action(initial_model(2, [0, 1]), binary_consensus_action(2))
    for f in model.complex.facets:
        if all(input_of(f, a) == 0 for a in range(3)):
            assert all(output_of(f, a) == 0 for a in range(3))


def test_set_agreement_action_counts():
    assert len(set_agreement_action(2, 1, range(3)).complex.facets) == 3
    assert len(set_agreement_action(2, 2, range(3)).complex.facets) == 27 - 6
    with pytest.raises(ValueError, match="out of range"):
        set_agreement_action(2, 0, range(3))
    with pytest.raises(ValueError, match="out of range"):
        set_agreement_action(2, 4, range(3))


def test_set_agreement_product_count():
    model = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, 1, range(3)))
    assert len(model.complex.facets) == 57


def test_outputs_bounded_and_drawn_from_inputs():
    for k in (1, 2):
        model = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, k, range(3)))
        for f in model.complex.facets:
            outputs = {output_of(f, a) for a in range(3)}
            inputs = {input_of(f, a) for a in range(3)}
            assert len(outputs) <= k
            assert outputs <= inputs


def test_output_constant_on_agreement_facets():
    model = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, 1, range(3)))
    for f in model.complex.facets:
        d = output_of(f, 0)
        assert all(output_of(f, a) == d for a in range(3))


# -- round operator ------------------------------------------------------------


def test_view_vectors_smallest_case():
    vectors = view_vectors(1, waitfree(1))
    assert set(vectors) == {
        (frozenset({0}), frozenset({0, 1})),
        (frozenset({0, 1}), frozenset({1})),
        (frozenset({0, 1}), frozenset({0, 1})),
    }
    # The incomparable pair is rejected by the containment requirement.
    assert (frozenset({0}), frozenset({1})) not in vectors


def test_view_vectors_match_product_then_filter_in_order():
    cases = [(n, waitfree(n)) for n in range(4)]
    cases.append((3, from_survivor_sets(3, [{0, 1}, {2, 3}])))
    cases.append((2, from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])))
    for n, adversary in cases:
        assert view_vectors(n, adversary) == product_view_vectors(n, adversary)


def test_view_vectors_require_survival():
    adv = from_survivor_sets(1, [{0, 1}])
    assert view_vectors(1, adv) == [(frozenset({0, 1}), frozenset({0, 1}))]


def test_view_vectors_reject_another_dimension():
    with pytest.raises(ValueError, match="^adversary dimension mismatch$"):
        view_vectors(2, waitfree(3))


def test_round_operator_equals_snapshot_for_two_agents():
    snapshot = apply_action(
        initial_model(1, [0, 1]), immediate_snapshot_action(1, [0, 1])
    )
    rounds = apply_action(
        initial_model(1, [0, 1]), round_operator_action(1, waitfree(1), [0, 1])
    )
    assert snapshot.complex == rounds.complex


def test_round_operator_strictly_extends_snapshot_for_three_agents():
    snapshot = apply_action(
        initial_model(2, [0, 1, 2]), immediate_snapshot_action(2, [0, 1, 2])
    )
    rounds = apply_action(
        initial_model(2, [0, 1, 2]), round_operator_action(2, waitfree(2), range(3))
    )
    snapshot_facets = set(snapshot.complex.facets)
    round_facets = set(rounds.complex.facets)
    assert snapshot_facets < round_facets
    # A valid round vector that breaks immediacy: 0 sees 1, but 1 saw more.
    vec = (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    assert vec in view_vectors(2, waitfree(2))
    assert not is_immediate(vec)


def test_snapshot_facets_are_exactly_the_immediate_round_facets():
    for n, inputs in ((1, [0, 1]), (2, [0, 1, 2])):
        snapshot = immediate_snapshot_action(n, inputs)
        rounds = round_operator_action(n, waitfree(n), inputs)
        immediate = {
            f
            for f in rounds.complex.facets
            if is_immediate([seen_agents(f, a) for a in range(n + 1)])
        }
        assert set(snapshot.complex.facets) == immediate


def test_snapshot_vectors_are_the_ordered_set_partition_vectors():
    for n in range(1, 5):
        immediate = [v for v in view_vectors(n, waitfree(n)) if is_immediate(v)]
        direct = partition_view_vectors(n)
        assert len(immediate) == len(direct)
        assert set(immediate) == set(direct)
        snapshot = immediate_snapshot_action(n, [0, 1])
        assert snapshot.complex == _view_action(n, direct, [0, 1], "is").complex


def test_wait_free_and_snapshot_counts_at_n4():
    vectors = view_vectors(4, waitfree(4))
    assert len(vectors) == 3451
    immediate = [v for v in vectors if is_immediate(v)]
    assert len(immediate) == len(ordered_set_partitions(range(5))) == 541
    model = apply_action(initial_model(4, [0, 1]), immediate_snapshot_action(4, [0, 1]))
    assert len(model.complex.facets) == 17_312


def test_min_view_cases():
    model = apply_action(
        initial_model(1, [0, 1]), round_operator_action(1, waitfree(1), [0, 1])
    )
    full = protocol_facet(model, (0, 1), [{0, 1}, {0, 1}])
    assert min_view(full) == frozenset({0, 1})
    skew = protocol_facet(model, (0, 1), [{0}, {0, 1}])
    assert min_view(skew) == frozenset({0})


def test_min_view_subsumes_a_survivor_set():
    for adv in (waitfree(2), from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])):
        model = apply_action(initial_model(2, [0, 1, 2]), round_operator_action(2, adv, range(3)))
        for f in model.complex.facets:
            assert adv.contains(min_view(f))


# -- products ------------------------------------------------------------------


def _imported_is_action():
    return action_from_json(action_to_json(immediate_snapshot_action(1, [0, 1])))


PRODUCT_CASES = {
    "is-n1": (1, [0, 1], lambda: immediate_snapshot_action(1, [0, 1])),
    "is-n2": (2, [0, 1], lambda: immediate_snapshot_action(2, [0, 1])),
    "round-n1": (1, [0, 1], lambda: round_operator_action(1, waitfree(1), [0, 1])),
    "round-n2": (2, [0, 1, 2], lambda: round_operator_action(2, waitfree(2), range(3))),
    "two-of-three-n2": (
        2,
        [0, 1, 2],
        lambda: round_operator_action(2, from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}]), range(3)),
    ),
    "bc-n1": (1, [0, 1], lambda: binary_consensus_action(1)),
    "bc-n2": (2, [0, 1], lambda: binary_consensus_action(2)),
    "sa1-n2": (2, [0, 1, 2], lambda: set_agreement_action(2, 1, range(3))),
    "sa2-n2": (2, [0, 1, 2], lambda: set_agreement_action(2, 2, range(3))),
    "sa-trivial-n1": (1, [0, 1], lambda: decide_own_input_action(1, [0, 1])),
    "imported-is-n1": (1, [0, 1], _imported_is_action),
    "is-n0": (0, [0, 1], lambda: immediate_snapshot_action(0, [0, 1])),
    "sa1-n0": (0, [0, 1], lambda: set_agreement_action(0, 1, [0, 1])),
    "round-n2-negative": (2, [7, -2, 0], lambda: round_operator_action(2, waitfree(2), [7, -2, 0])),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_matches_per_pair_reference(name):
    n, inputs, build = PRODUCT_CASES[name]
    model, action = initial_model(n, inputs), build()
    product = apply_action(model, action)
    expected = naive_product_update(model, action)
    assert product.complex == expected.complex
    assert product.inputs == expected.inputs
    assert_checked_facets(product.complex)


VIEW_ACTION_CASES = {
    **{
        f"is-n{n}": (n, [v for v in view_vectors(n, waitfree(n)) if is_immediate(v)], [0, 1])
        for n in (0, 1, 2, 3)
    },
    "waitfree-n2": (2, view_vectors(2, waitfree(2)), range(3)),
    "waitfree-n3": (3, view_vectors(3, waitfree(3)), [0, 1]),
    "two-of-three-n2": (
        2, view_vectors(2, from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])), range(3)
    ),
    "split-pair-n3": (3, view_vectors(3, from_survivor_sets(3, [{0, 1}, {2, 3}])), range(4)),
    "round-n2-negative": (2, view_vectors(2, waitfree(2)), (7, -2, 0)),
}


@pytest.mark.parametrize("name", sorted(VIEW_ACTION_CASES))
def test_view_action_matches_checked_reference(name):
    n, vectors, inputs = VIEW_ACTION_CASES[name]
    action = _view_action(n, vectors, inputs, name)
    expected = reference_view_action(n, vectors, inputs, name)
    c = action.complex
    assert c == expected.complex
    assert c.vertices() == expected.complex.vertices()
    assert list(c.vertex_id.items()) == list(expected.complex.vertex_id.items())
    # Formulas are interned and compare by identity, so each facet's
    # precondition is the very pin formula of its input facet.
    assert action.pre == expected.pre
    assert_checked_facets(action.complex)


def test_uniform_product_one_facet_per_action_point():
    model = initial_model(1, [0, 1])
    action = immediate_snapshot_action(1, [0, 1])
    product = apply_action(model, action)
    assert len(product.complex.facets) == len(action.complex.facets)
    rights = {project_right(f) for f in product.complex.facets}
    assert rights == set(action.complex.facets)


def test_product_models_are_pure_of_same_dimension():
    model = apply_action(initial_model(2, [0, 1]), binary_consensus_action(2))
    assert model.complex.n == 2
    for f in model.complex.facets:
        assert len(f.vertices) == 3


def test_product_update_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        apply_action(initial_model(1, [0, 1]), binary_consensus_action(2))


def test_empty_product_update_rejected():
    action = binary_consensus_action(1)
    doomed = ActionModel(action.complex, (FALSE,) * len(action.complex), "never")
    with pytest.raises(ValueError, match="empty product"):
        apply_action(initial_model(1, [0, 1]), doomed)


def test_trivial_task_pairs_each_input_with_itself():
    model = apply_action(initial_model(1, [0, 1]), decide_own_input_action(1, [0, 1]))
    assert len(model.complex.facets) == 4
    for f in model.complex.facets:
        for a in (0, 1):
            assert input_of(f, a) == output_of(f, a)


# -- facet accessors (test helpers) ----------------------------------------------


def test_view_accessor_rejects_decision_models():
    model = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
    f = model.complex.facets[0]
    with pytest.raises(ValueError, match="no view"):
        view_of(f, 0)


def test_input_accessor_rejects_plain_facets():
    with pytest.raises(ValueError, match="no input"):
        input_of(Facet([Vertex(0, 3)]), 0)


# -- relation structure vs the per-agent criteria --------------------------------


def _relation_matches_view_criterion(model):
    n = model.complex.n
    facets = model.complex.facets
    for f in facets:
        for g in facets:
            for a in range(n + 1):
                structural = a in shared_colors(f, g)
                criterion = seen_agents(f, a) == seen_agents(g, a) and all(
                    input_of(f, b) == input_of(g, b) for b in seen_agents(f, a)
                )
                assert structural == criterion


def test_snapshot_relation_matches_view_criterion():
    model = apply_action(initial_model(1, [0, 1]), immediate_snapshot_action(1, [0, 1]))
    _relation_matches_view_criterion(model)


def test_agreement_relation_matches_input_output_criterion():
    model = apply_action(initial_model(1, [0, 1]), set_agreement_action(1, 1, [0, 1]))
    facets = model.complex.facets
    for f in facets:
        for g in facets:
            for a in (0, 1):
                structural = a in shared_colors(f, g)
                criterion = input_of(f, a) == input_of(g, a) and output_of(
                    f, a
                ) == output_of(g, a)
                assert structural == criterion


# -- serialization ---------------------------------------------------------------


def test_action_json_round_trip():
    action = set_agreement_action(1, 1, [0, 1])
    doc = action_to_json(action)
    again = action_from_json(doc)
    assert again.complex == action.complex
    assert list(map(render, again.pre)) == list(map(render, action.pre))


def _reversed_document(doc: dict) -> dict:
    """The action document with its facets and their preconditions listed in
    reverse, each precondition still keyed to its own facet."""
    last = len(doc["facets"]) - 1
    return {
        **doc,
        "facets": doc["facets"][::-1],
        "pre": {str(last - int(i)): text for i, text in doc["pre"].items()},
    }


def test_action_json_preconditions_follow_the_listed_facets():
    action = binary_consensus_action(1)
    again = action_from_json(_reversed_document(action_to_json(action)))
    assert again.complex == action.complex
    assert again.pre == action.pre


def test_action_json_facet_listed_twice_needs_one_precondition():
    action = set_agreement_action(2, 2, range(3))
    doc = _reversed_document(action_to_json(action))
    doc["facets"].append(doc["facets"][0])
    doc["pre"][str(len(action.complex))] = doc["pre"]["0"]
    assert action_from_json(doc).pre == action.pre
    doc["pre"][str(len(action.complex))] = doc["pre"]["1"]
    with pytest.raises(ValueError, match=f"facet {len(action.complex)} is listed twice"):
        action_from_json(doc)


def _waitfree_round_document() -> tuple:
    """The wait-free n=1 round action and its round-tripped document, whose
    twelve facets share four preconditions."""
    action = round_operator_action(1, waitfree(1), [0, 1])
    return action, json.loads(json.dumps(action_to_json(action)))


def test_action_json_repeated_text_is_one_formula():
    action, doc = _waitfree_round_document()
    again = action_from_json(doc)
    assert again == action
    listings: dict[str, list[int]] = {}
    for i, text in doc["pre"].items():
        listings.setdefault(text, []).append(int(i))
    assert len(listings) == 4
    for ids in listings.values():
        assert len(ids) == 3
        assert all(again.pre[i] is again.pre[ids[0]] for i in ids)


def test_action_json_facet_listed_twice_may_respell_its_precondition():
    action, doc = _waitfree_round_document()
    last = str(len(doc["facets"]))
    doc["facets"].append(doc["facets"][0])
    doc["pre"][last] = " " + doc["pre"]["0"].replace(" ", "\n\t ") + " "
    assert action_from_json(doc) == action
    other = next(text for text in doc["pre"].values() if text != doc["pre"]["0"])
    doc["pre"][last] = other.replace(" ", "  ")
    with pytest.raises(ValueError, match=f"facet {last} is listed twice"):
        action_from_json(doc)


def test_action_json_malformed_text_at_the_last_listing():
    # The text before the spoilt tail was parsed at earlier listings.
    _, doc = _waitfree_round_document()
    last = str(len(doc["facets"]) - 1)
    text = doc["pre"][last]
    doc["pre"][last] = text + " )"
    with pytest.raises(ParseError, match="trailing input") as err:
        action_from_json(doc)
    assert err.value.position == len(text) + 1


def test_action_json_requires_preconditions():
    doc = action_to_json(binary_consensus_action(1))
    del doc["pre"]
    with pytest.raises(ValueError, match="preconditions"):
        action_from_json(doc)


def test_action_model_needs_one_precondition_per_facet():
    with pytest.raises(ValueError, match="^4 facets but 0 preconditions$"):
        ActionModel(initial_complex(1, (0, 1)), (), "x")


# -- factor-id order ------------------------------------------------------------

SPLIT_PAIR = from_survivor_sets(3, [{0, 1}, {2, 3}])

FACTOR_ORDER_CASES = {
    "is-n3-binary": (3, (0, 1), lambda: immediate_snapshot_action(3, (0, 1))),
    "waitfree-n2": (2, range(3), lambda: round_operator_action(2, waitfree(2), range(3))),
    "sa2-n3": (3, range(4), lambda: set_agreement_action(3, 2, range(4))),
    "split-pair-n3": (3, range(4), lambda: round_operator_action(3, SPLIT_PAIR, range(4))),
    "bc-n2": (2, (0, 1), lambda: binary_consensus_action(2)),
    "is-n0": (0, (0, 1), lambda: immediate_snapshot_action(0, (0, 1))),
    "sa1-n0": (0, (0, 1), lambda: set_agreement_action(0, 1, (0, 1))),
    "round-n2-negative": (2, (7, -2, 0), lambda: round_operator_action(2, waitfree(2), (7, -2, 0))),
}


@pytest.mark.parametrize("name", sorted(FACTOR_ORDER_CASES))
def test_product_in_factor_id_order_is_canonical(name):
    n, inputs, build = FACTOR_ORDER_CASES[name]
    p = apply_action(initial_model(n, inputs), build()).complex
    general = canonical_complex(n, list(p.facets))
    assert p.facets == general.facets
    assert p.vertices() == general.vertices()
    assert list(p.vertex_id.items()) == list(general.vertex_id.items())
    assert all(type(f) is Facet for f in p.facets)
    assert [p.index(f) for f in general.facets] == list(range(len(p)))


# -- vertex sharing ------------------------------------------------------------


def _is_product():
    return apply_action(initial_model(2, (0, 1)), immediate_snapshot_action(2, (0, 1)))

@pytest.mark.parametrize(
    "build",
    [
        lambda: apply_action(
            initial_model(2, range(3)), round_operator_action(2, waitfree(2), range(3))
        ),
        _is_product,
        lambda: apply_action(initial_model(2, range(3)), set_agreement_action(2, 2, range(3))),
        lambda: round_operator_action(2, waitfree(2), range(3)),
        lambda: immediate_snapshot_action(2, (0, 1)),
        lambda: set_agreement_action(2, 2, range(3)),
        lambda: decide_own_input_action(2, (0, 1)),
    ],
    ids=["round-product", "is-product", "sa2-product", "round", "is", "sa2", "trivial"],
)
def test_builders_share_one_object_per_vertex(build):
    c = build().complex
    assert len({id(v) for f in c.facets for v in f.vertices}) == len(c.vertices())


def test_json_round_trip_shares_one_object_per_vertex():
    original = _is_product().complex
    c, _ = complex_from_json(complex_to_json(original))
    assert c == original
    assert len({id(v) for f in c.facets for v in f.vertices}) == len(c.vertices())


# -- the row contract ------------------------------------------------------------


def _decoded_respelled():
    # One listing against color order and one listed twice: the decoder's
    # `Facet` route and its plain route meet in one complex.
    doc = complex_to_json(immediate_snapshot_action(2, (0, 1)).complex)
    doc["facets"] = doc["facets"][::-1] + doc["facets"][:1]
    doc["facets"][0] = {"vertices": doc["facets"][0]["vertices"][::-1]}
    return complex_from_json(doc)[0]


def _from_facets():
    facets = list(apply_action(initial_model(2, (0, 1)), binary_consensus_action(2)).complex.facets)
    return canonical_complex(2, facets[::-1] + facets[:3])


ROW_BUILDERS = {
    "initial": lambda: initial_complex(2, (2, 0, 1)),
    "is": lambda: immediate_snapshot_action(2, (0, 1)).complex,
    "round-waitfree": lambda: round_operator_action(2, waitfree(2), range(3)).complex,
    "round-split-pair": lambda: round_operator_action(3, SPLIT_PAIR, (0, 1)).complex,
    "sa2": lambda: set_agreement_action(2, 2, range(3)).complex,
    "bc": lambda: binary_consensus_action(2).complex,
    "trivial": lambda: decide_own_input_action(2, (0, 1)).complex,
    "product": lambda: _is_product().complex,
    "from-json": _decoded_respelled,
    "from-facets": _from_facets,
}


@pytest.mark.parametrize("name", sorted(ROW_BUILDERS))
def test_rows_are_sorted_distinct_vertex_ids_of_the_facets(name):
    c = ROW_BUILDERS[name]()
    assert c.rows == sorted(set(c.rows))
    assert c.rows == [tuple(map(c.vertex_id.__getitem__, f)) for f in c.facets]
    assert len(c) == len(c.rows)


@pytest.mark.parametrize("name", sorted(ROW_BUILDERS))
def test_facet_is_the_views_facet_with_or_without_the_view(name):
    c = ROW_BUILDERS[name]()
    bare = ChromaticComplex(c.n, c.rows, c.vertices())  # no view yet
    from_rows = [bare.facet(i) for i in range(len(bare))]
    assert bare._facets is None
    assert from_rows == list(c.facets) and all(type(f) is Facet for f in from_rows)
    assert all(c.facet(i) is f for i, f in enumerate(c.facets))


def test_product_and_refutation_build_no_facet_views(monkeypatch):
    initial = initial_model(2, range(3))
    task = apply_action(initial, set_agreement_action(2, 1, range(3)))
    protocol = apply_action(initial, round_operator_action(2, waitfree(2), range(3)))
    report = verify_obstruction(task, protocol, adversary_obstruction(2, waitfree(2)))
    assert report.task_verdict.is_valid and report.is_obstruction
    # A task the formula fails on reports its first failing facet alone.
    failing = apply_action(initial, set_agreement_action(2, 2, range(3)))
    report = verify_obstruction(failing, protocol, waitfree_kset_obstruction(2, 1))
    verdict = report.task_verdict
    assert verdict.counterexample == failing.complex.facet(47)
    assert verdict.counterexample.text() == "0:(0,1) 1:(1,0) 2:(2,0)"
    # The product update asks its input model by facet id.
    for c in (initial.complex, task.complex, protocol.complex, failing.complex):
        assert c._facets is None and c._vertex_id is None and c._pos is None

    # Building an action reads no view of any complex, its input complex's
    # included: preconditions are gathered through the rows.
    def unbuilt(self):
        raise AssertionError("an action builder read a facet view")

    monkeypatch.setattr(ChromaticComplex, "facets", property(unbuilt))
    monkeypatch.setattr(ChromaticComplex, "vertex_id", property(unbuilt))
    monkeypatch.setattr(ChromaticComplex, "_positions", unbuilt)
    actions = [
        immediate_snapshot_action(2, range(3)),
        round_operator_action(2, waitfree(2), range(3)),
        round_operator_action(3, SPLIT_PAIR, (0, 1)),
        set_agreement_action(2, 1, range(3)),
        set_agreement_action(2, 2, range(3)),
        decide_own_input_action(2, range(3)),
        binary_consensus_action(2),
    ]
    assert [a.name for a in actions] == ["is", "round", "round", "sa:1", "sa:2", "sa-trivial", "bc"]


# -- the collector pause ---------------------------------------------------------


def _waitfree_product():
    return apply_action(initial_model(2, range(3)), round_operator_action(2, waitfree(2), range(3)))


def test_product_build_sets_off_no_collection():
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()  # start from empty generation counts
    gc.callbacks.append(hook)
    try:
        _waitfree_product()
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_builders_leave_the_collector_as_they_found_it(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        _waitfree_product()
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_action(initial_model(1, (0, 1)), binary_consensus_action(2))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="out of range"):
            set_agreement_action(2, 4, range(3))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_products_and_actions_leave_no_cyclic_garbage():
    # The pause is safe only because construction makes no reference cycles.
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        built = [
            _waitfree_product(),
            apply_action(initial_model(2, range(3)), set_agreement_action(2, 2, range(3))),
            round_operator_action(2, waitfree(2), range(3)),
            set_agreement_action(2, 2, range(3)),
        ]
        del built
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
