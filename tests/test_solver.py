import random

import pytest

from obstruction.adversaries import from_survivor_sets, waitfree
from obstruction.complexes import Vertex
from obstruction.formulas import atom, know, not_
from obstruction.generators import binary_consensus_obstruction, verify_obstruction
from obstruction.models import morphism_violation
from obstruction.solver import (
    Solvability,
    find_morphism,
    knowledge_gain_check,
    random_positive_formula,
)
from obstruction.tasks import (
    apply_action,
    binary_consensus_action,
    decide_own_input_action,
    immediate_snapshot_action,
    initial_model,
    round_operator_action,
    set_agreement_action,
)

from helpers import (
    map_facet,
    naive_find_morphism,
    naive_knowledge_gain,
    project_left,
    shared_colors,
)


def snapshot_protocol(n=1, inputs=(0, 1)):
    return apply_action(initial_model(n, inputs), immediate_snapshot_action(n, inputs))


def consensus_task(n=1, inputs=(0, 1)):
    return apply_action(initial_model(n, inputs), binary_consensus_action(n))


def trivial_task(n=1, inputs=(0, 1)):
    return apply_action(initial_model(n, inputs), decide_own_input_action(n, inputs))


def test_consensus_unsolvable_by_snapshot():
    result = find_morphism(snapshot_protocol(), consensus_task())
    assert result.status is Solvability.UNSOLVABLE
    assert result.witness is None
    assert result.explored > 0


def test_search_is_deterministic():
    first = find_morphism(snapshot_protocol(), consensus_task())
    second = find_morphism(snapshot_protocol(), consensus_task())
    assert first.status is second.status
    assert first.explored == second.explored


def test_trivial_task_solvable_with_verified_witness():
    protocol = snapshot_protocol()
    task = trivial_task()
    result = find_morphism(protocol, task)
    assert result.status is Solvability.SOLVABLE
    witness = result.witness

    # Color preservation.
    assert all(v.color == image.color for v, image in witness.items())
    # Simpliciality: facets land on facets.
    for facet in protocol.complex.facets:
        assert map_facet(witness, facet) in task.complex.facets
    # Labeling preservation.
    for facet in protocol.complex.facets:
        image = task.complex.index(map_facet(witness, facet))
        assert task.inputs[image] == protocol.inputs[protocol.complex.index(facet)]
    # Input projection commutes.
    for facet in protocol.complex.facets:
        assert project_left(map_facet(witness, facet)) == project_left(facet)

    assert morphism_violation(witness, protocol, task) is None


def test_a_map_that_changes_inputs_changes_the_labeling():
    protocol, task = snapshot_protocol(), trivial_task()
    # Each facet lands on the task facet that decides its flipped inputs.
    flip = {
        v: Vertex(v.color, (1 - v.obs[0], 1 - v.obs[0]))
        for v in protocol.complex.vertices()
    }
    problem = morphism_violation(flip, protocol, task)
    assert problem.endswith("changes its labeling"), problem


def test_trivial_task_has_single_candidate_per_vertex():
    protocol = snapshot_protocol()
    result = find_morphism(protocol, trivial_task())
    # Every vertex has exactly one decision, so the search never backtracks.
    assert result.explored == len(protocol.complex.vertices())


def test_protocol_maps_onto_itself():
    protocol = snapshot_protocol()
    result = find_morphism(protocol, protocol)
    assert result.status is Solvability.SOLVABLE
    assert morphism_violation(result.witness, protocol, protocol) is None


def test_budget_exhaustion_reports_resource_limit():
    result = find_morphism(snapshot_protocol(), consensus_task(), budget=1)
    assert result.status is Solvability.RESOURCE_LIMIT
    assert result.explored == 1


def test_budget_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        find_morphism(snapshot_protocol(), consensus_task(), budget=0)


def test_non_product_models_rejected():
    plain = initial_model(1, [0, 1])
    with pytest.raises(ValueError, match="product update"):
        find_morphism(plain, consensus_task())
    with pytest.raises(ValueError, match="product update"):
        find_morphism(snapshot_protocol(), plain)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="agent set"):
        find_morphism(snapshot_protocol(1), consensus_task(2))


def test_round_protocol_cannot_reach_agreement_quickly():
    # Larger instance: accept either an exhaustive refutation or an honest
    # budget stop, and in the first case agree with the obstruction verdict.
    protocol = apply_action(
        initial_model(2, [0, 1, 2]), round_operator_action(2, waitfree(2), range(3))
    )
    task = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, 1, range(3)))
    result = find_morphism(protocol, task, budget=200_000)
    assert result.status in (Solvability.UNSOLVABLE, Solvability.RESOURCE_LIMIT)
    assert result.witness is None


def test_obstruction_and_search_verdicts_agree_for_two_agents():
    protocol = snapshot_protocol()
    task = consensus_task()
    report = verify_obstruction(task, protocol, binary_consensus_obstruction(1))
    assert report.is_obstruction
    assert find_morphism(protocol, task).status is Solvability.UNSOLVABLE


def test_obstruction_and_search_agree_on_all_small_instances():
    from obstruction.generators import adversary_obstruction

    initial = initial_model(1, [0, 1])
    pairs = [
        (
            apply_action(initial, immediate_snapshot_action(1, [0, 1])),
            consensus_task(),
            binary_consensus_obstruction(1),
        ),
        (
            apply_action(initial, round_operator_action(1, waitfree(1), [0, 1])),
            apply_action(initial, set_agreement_action(1, 1, [0, 1])),
            adversary_obstruction(1, waitfree(1)),
        ),
        (
            apply_action(initial, immediate_snapshot_action(1, [0, 1])),
            apply_action(initial, set_agreement_action(1, 1, [0, 1])),
            adversary_obstruction(1, waitfree(1)),
        ),
    ]
    for protocol, task, phi in pairs:
        report = verify_obstruction(task, protocol, phi)
        result = find_morphism(protocol, task)
        if report.is_obstruction:
            assert result.status is not Solvability.SOLVABLE
        assert result.status is Solvability.UNSOLVABLE


def test_witness_respects_intersections_up_to_inclusion():
    protocol = snapshot_protocol()
    task = trivial_task()
    witness = find_morphism(protocol, task).witness
    facets = protocol.complex.facets
    for x in facets:
        for y in facets:
            meet = set(x.vertices) & set(y.vertices)
            mapped = frozenset(witness[v].color for v in meet)
            assert mapped <= shared_colors(map_facet(witness, x), map_facet(witness, y))
    # Injective maps commute with intersection exactly.
    identity = {v: v for f in facets for v in f.vertices}
    for x in facets:
        for y in facets:
            meet_colors = frozenset(v.color for v in set(x.vertices) & set(y.vertices))
            assert meet_colors == shared_colors(
                map_facet(identity, x), map_facet(identity, y)
            )


def test_knowledge_gain_with_identity_map(demo_model):
    identity = {v: v for v in demo_model.complex.vertices()}
    formulas = [know(0, atom(0, 2)), not_(atom(1, 1)), atom(2, 2)]
    assert knowledge_gain_check(identity, demo_model, demo_model, formulas)


def test_knowledge_gain_on_discovered_witness():
    protocol = snapshot_protocol()
    task = trivial_task()
    witness = find_morphism(protocol, task).witness
    rng = random.Random(0)
    formulas = [
        random_positive_formula(rng, [0, 1], [0, 1], depth=3) for _ in range(100)
    ]
    assert all(phi.positive for phi in formulas)
    assert knowledge_gain_check(witness, protocol, task, formulas)


def test_knowledge_gain_rejects_non_positive_formula(demo_model):
    identity = {v: v for v in demo_model.complex.vertices()}
    bad = not_(know(0, atom(0, 2)))
    with pytest.raises(ValueError, match="not positive"):
        knowledge_gain_check(identity, demo_model, demo_model, [bad])


def test_knowledge_gain_rejects_corrupted_map(demo_model):
    broken = {v: Vertex(v.color, 9) for v in demo_model.complex.vertices()}
    with pytest.raises(ValueError, match="not a morphism"):
        knowledge_gain_check(broken, demo_model, demo_model, [atom(0, 2)])


def test_knowledge_gain_rejects_out_of_range_agents(demo_model):
    identity = {v: v for v in demo_model.complex.vertices()}
    with pytest.raises(ValueError, match="outside this model's range"):
        knowledge_gain_check(identity, demo_model, demo_model, [know(5, atom(0, 2))])


@pytest.mark.parametrize("name", ["is-vs-trivial", "is-vs-itself"])
def test_knowledge_gain_matches_point_form_reference(name):
    protocol, task = reference_instances()[name]
    witness = find_morphism(protocol, task).witness
    rng = random.Random(7)
    formulas = [
        random_positive_formula(rng, range(protocol.n + 1), [0, 1], depth=3)
        for _ in range(100)
    ]
    for phi in formulas:
        expected = naive_knowledge_gain(witness, protocol, task, [phi])
        assert knowledge_gain_check(witness, protocol, task, [phi]) is expected, phi
    assert knowledge_gain_check(witness, protocol, task, formulas)


def test_random_positive_formulas_are_deterministic():
    first = [
        random_positive_formula(random.Random(3), [0, 1], [0, 1], depth=3)
        for _ in range(5)
    ]
    second = [
        random_positive_formula(random.Random(3), [0, 1], [0, 1], depth=3)
        for _ in range(5)
    ]
    assert first == second


def sperner_instance():
    """IS vs 2-set agreement at n=2, inputs 0..2: unsolvable by Sperner's lemma."""
    initial = initial_model(2, [0, 1, 2])
    return (
        apply_action(initial, immediate_snapshot_action(2, [0, 1, 2])),
        apply_action(initial, set_agreement_action(2, 2, [0, 1, 2])),
    )


def reference_instances():
    """The (protocol, task) pairs searched by the tests above."""
    initial = initial_model(1, [0, 1])
    return {
        "is-vs-consensus": (snapshot_protocol(), consensus_task()),
        "is-vs-trivial": (snapshot_protocol(), trivial_task()),
        "is-vs-itself": (snapshot_protocol(), snapshot_protocol()),
        "round-n2-vs-sa1": (
            apply_action(
                initial_model(2, [0, 1, 2]), round_operator_action(2, waitfree(2), range(3))
            ),
            apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, 1, range(3))),
        ),
        "round-n1-vs-sa1": (
            apply_action(initial, round_operator_action(1, waitfree(1), [0, 1])),
            apply_action(initial, set_agreement_action(1, 1, [0, 1])),
        ),
        "is-n1-vs-sa1": (
            apply_action(initial, immediate_snapshot_action(1, [0, 1])),
            apply_action(initial, set_agreement_action(1, 1, [0, 1])),
        ),
    }


def search_outcome(result):
    decisions = None
    if result.witness is not None:
        decisions = {v: image.obs[1] for v, image in result.witness.items()}
    return result.status.value, result.explored, decisions


@pytest.mark.parametrize("name", sorted(reference_instances()))
def test_search_matches_plain_backtracking_at_every_budget(name):
    protocol, task = reference_instances()[name]
    for budget in (1, 2, 5, 17, 100, 10_000_000):
        expected = naive_find_morphism(protocol, task, budget)
        assert search_outcome(find_morphism(protocol, task, budget)) == expected, budget


def test_search_matches_plain_backtracking_on_sperner_instance():
    protocol, task = sperner_instance()
    expected = naive_find_morphism(protocol, task, 2_000)
    assert expected[:2] == ("resource-limit", 2_000)
    assert search_outcome(find_morphism(protocol, task, 2_000)) == expected


def test_sperner_instance_stops_at_the_budget():
    result = find_morphism(*sperner_instance(), budget=20_000)
    assert result.status is Solvability.RESOURCE_LIMIT
    assert result.explored == 20_000
    assert result.witness is None


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # Split-pair adversary at n=3, inputs 0..3: 16,128 facets and 1,856
    # protocol vertices, far more than the interpreter's recursion limit.
    inputs = [0, 1, 2, 3]
    split = from_survivor_sets(3, [{0, 1}, {2, 3}])
    protocol = apply_action(initial_model(3, inputs), round_operator_action(3, split, inputs))
    task = apply_action(initial_model(3, inputs), decide_own_input_action(3, inputs))
    assert len(protocol.complex.vertices()) == 1856
    result = find_morphism(protocol, task)
    assert result.status is Solvability.SOLVABLE
    assert result.explored == 1856
