from itertools import combinations, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from obstruction.adversaries import from_survivor_sets, waitfree
from obstruction.formulas import FALSE, atom, know, or_, parse
from obstruction.generators import (
    adversary_obstruction,
    adversary_obstruction_family,
    binary_consensus_obstruction,
    greatest_fixed_subset,
    report_to_json,
    verify_obstruction,
    waitfree_kset_obstruction,
)
from obstruction.models import Verdict
from obstruction.tasks import (
    apply_action,
    binary_consensus_action,
    immediate_snapshot_action,
    initial_model,
    round_operator_action,
    set_agreement_action,
)

from helpers import (
    holds,
    inductive_waitfree_obstruction,
    input_of,
    min_view,
    output_of,
    protocol_facet,
    seen_agents,
)


TWO_OF_THREE = [{0, 1}, {1, 2}, {0, 2}]


def brute_force_greatest_fixed(f, universe):
    universe = list(universe)
    best = None
    for bits in iter_product((0, 1), repeat=len(universe)):
        subset = frozenset(x for x, b in zip(universe, bits) if b)
        if subset and frozenset(f(x) for x in subset) == subset:
            if best is None or len(subset) > len(best):
                best = subset
    return best


def test_greatest_fixed_subset_examples():
    assert greatest_fixed_subset(lambda x: x, range(4)) == frozenset(range(4))
    assert greatest_fixed_subset(lambda x: 2, range(4)) == frozenset({2})
    table = {0: 1, 1: 0, 2: 0}
    assert greatest_fixed_subset(table.__getitem__, range(3)) == frozenset({0, 1})


def test_greatest_fixed_subset_empty_universe():
    with pytest.raises(ValueError):
        greatest_fixed_subset(lambda x: x, [])


def test_greatest_fixed_subset_exhaustive_small():
    for size in range(1, 5):
        universe = list(range(size))
        for table in iter_product(universe, repeat=size):
            f = lambda x: table[x]
            result = greatest_fixed_subset(f, universe)
            expected = brute_force_greatest_fixed(f, universe)
            assert result == expected
            # Every fixed subset sits inside the greatest one.
            for bits in iter_product((0, 1), repeat=size):
                subset = frozenset(x for x, b in zip(universe, bits) if b)
                if subset and frozenset(f(x) for x in subset) == subset:
                    assert subset <= result


@settings(max_examples=100)
@given(st.lists(st.integers(0, 4), min_size=5, max_size=5))
def test_greatest_fixed_subset_random_five(table):
    f = lambda x: table[x]
    assert greatest_fixed_subset(f, range(5)) == brute_force_greatest_fixed(f, range(5))


# -- consensus obstruction -----------------------------------------------------


def test_consensus_obstruction_shape_two_agents():
    phi = binary_consensus_obstruction(1)
    assert phi is parse("!(input(0,0) & input(1,0)) | C[{0,1}] (input(0,0) | input(1,0))")


def test_consensus_obstruction_positive():
    for n in (1, 2, 3):
        assert binary_consensus_obstruction(n).positive
    with pytest.raises(ValueError):
        binary_consensus_obstruction(0)


def test_consensus_obstruction_verdicts_n2():
    n = 2
    initial = initial_model(n, [0, 1])
    task = apply_action(initial, binary_consensus_action(n))
    protocol = apply_action(initial, immediate_snapshot_action(n, [0, 1]))
    phi = binary_consensus_obstruction(n)
    assert task.validity(phi).is_valid
    verdict = protocol.validity(phi)
    assert not verdict.is_valid
    solo_zero = protocol_facet(protocol, (0, 0, 0), [{0}, {0, 1, 2}, {0, 1, 2}])
    assert not holds(protocol, solo_zero, phi)


@pytest.mark.parametrize("cap", [0, -3])
def test_verify_obstruction_rejects_cap_below_one(cap):
    model = initial_model(1, [0, 1])
    with pytest.raises(ValueError, match="cap must be at least 1"):
        verify_obstruction(model, model, FALSE, cap=cap)


def test_verify_obstruction_rejects_models_of_different_dimensions():
    with pytest.raises(ValueError, match="^task and protocol must share the agent set$"):
        verify_obstruction(initial_model(1, [0, 1]), initial_model(2, [0, 1]), FALSE)


# -- wait-free k-agreement obstruction -------------------------------------------


def test_waitfree_obstruction_outer_groups():
    phi = waitfree_kset_obstruction(2, 1)
    guarded = [c for c in phi.children if c.kind == "dist"]
    assert [sorted(c.agents) for c in guarded] == [[0], [1], [2]]
    wider = waitfree_kset_obstruction(2, 2)
    guarded2 = [c for c in wider.children if c.kind == "dist"]
    assert [sorted(c.agents) for c in guarded2] == [[0], [1], [2], [0, 1], [0, 2], [1, 2]]


def test_waitfree_obstruction_positive_and_bounds():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            assert waitfree_kset_obstruction(n, k).positive
    with pytest.raises(ValueError):
        waitfree_kset_obstruction(2, 0)
    with pytest.raises(ValueError):
        waitfree_kset_obstruction(2, 3)


def test_waitfree_obstruction_valid_in_agreement_model():
    initial = initial_model(2, [0, 1, 2])
    task = apply_action(initial, set_agreement_action(2, 2, range(3)))
    assert task.validity(waitfree_kset_obstruction(2, 2)).is_valid


# -- adversarial obstruction ------------------------------------------------------


def test_adversary_obstruction_positive():
    for adv in (waitfree(2), from_survivor_sets(2, TWO_OF_THREE)):
        assert adversary_obstruction(2, adv).positive


def test_generated_formulas_never_quantify_over_nobody():
    def walk(phi, seen):
        if phi.uid in seen:
            return
        seen.add(phi.uid)
        if phi.kind in ("common", "dist"):
            assert phi.agents
        for child in phi.children:
            walk(child, seen)

    produced = [
        binary_consensus_obstruction(2),
        waitfree_kset_obstruction(2, 2),
        waitfree_kset_obstruction(3, 2),
        adversary_obstruction(2, waitfree(2)),
        adversary_obstruction(2, from_survivor_sets(2, TWO_OF_THREE)),
    ]
    for phi in produced:
        walk(phi, set())


def test_adversary_obstruction_needs_nontrivial_core():
    with pytest.raises(ValueError, match="core size"):
        adversary_obstruction(2, from_survivor_sets(2, [{0, 1, 2}]))


def test_adversary_obstruction_family_rejects_another_dimension():
    with pytest.raises(ValueError, match="^adversary dimension mismatch$"):
        adversary_obstruction_family(2, waitfree(3))


def test_full_group_case_collapses_to_false():
    for adv in (waitfree(2), from_survivor_sets(2, TWO_OF_THREE)):
        guarded, cases = adversary_obstruction_family(2, adv)
        full = frozenset({0, 1, 2})
        assert guarded[full] is FALSE
        assert cases[full] is FALSE


def test_two_of_three_singleton_cases_are_guarded():
    adv = from_survivor_sets(2, TWO_OF_THREE)
    guarded, cases = adversary_obstruction_family(2, adv)
    for a in range(3):
        single = guarded[frozenset({a})]
        assert single.kind == "dist"
        assert single.agents == frozenset({a})
        # Larger groups leave no surviving complement, so no nested guard remains.
        assert all(c.kind != "dist" for c in cases[frozenset({a})].children)


def test_generated_formulas_agree_with_naive_evaluation():
    from helpers import naive_satisfies

    initial = initial_model(1, [0, 1])
    agreement = apply_action(initial, set_agreement_action(1, 1, [0, 1]))
    rounds = apply_action(
        initial, round_operator_action(1, waitfree(1), [0, 1])
    )
    phi = adversary_obstruction(1, waitfree(1))
    for model in (agreement, rounds):
        for facet in model.complex.facets:
            assert holds(model, facet, phi) == naive_satisfies(model, facet, phi)


def test_waitfree_obstruction_is_the_inductive_formula():
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert waitfree_kset_obstruction(n, k) is inductive_waitfree_obstruction(n, k)
        assert adversary_obstruction(n, waitfree(n)) is waitfree_kset_obstruction(n, n)


def test_generalized_waitfree_matches_inductive_formula_semantically():
    initial = initial_model(2, [0, 1, 2])
    generalized = adversary_obstruction(2, waitfree(2))
    inductive = inductive_waitfree_obstruction(2, 2)
    models = [
        apply_action(initial, set_agreement_action(2, 1, range(3))),
        apply_action(initial, set_agreement_action(2, 2, range(3))),
        apply_action(initial, round_operator_action(2, waitfree(2), range(3))),
    ]
    for model in models:
        for facet in model.complex.facets:
            assert holds(model, facet, generalized) == holds(model, facet, inductive)


def test_agreement_outputs_admit_small_fixed_subset():
    for k in (1, 2):
        model = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, k, range(3)))
        for f in model.complex.facets:
            outputs = {a: output_of(f, a) for a in range(3)}
            fixed = greatest_fixed_subset(outputs.__getitem__, range(3))
            assert fixed
            assert len(fixed) <= k


def test_flat_minimum_view_facets_falsify_their_case():
    for adv in (waitfree(2), from_survivor_sets(2, TWO_OF_THREE)):
        _, cases = adversary_obstruction_family(2, adv)
        model = apply_action(initial_model(2, [0, 1, 2]), round_operator_action(2, adv, range(3)))
        checked = 0
        for f in model.complex.facets:
            if any(input_of(f, a) != a for a in range(3)):
                continue
            least = min_view(f)
            if not all(seen_agents(f, a) == least for a in least):
                continue
            case = cases[frozenset(range(3)) - least]
            assert not holds(model, f, case)
            checked += 1
        assert checked > 0


def test_known_value_follows_agreed_output():
    agents = range(3)
    for k in (1, 2):
        model = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, k, range(3)))
        groups = [
            frozenset(g) for size in (1, 2, 3) for g in combinations(agents, size)
        ]
        for f in model.complex.facets:
            for a in agents:
                for group in groups:
                    if output_of(f, a) not in group:
                        continue
                    claim = know(
                        a, or_(*(atom(b, j) for j in sorted(group) for b in agents))
                    )
                    assert holds(model, f, claim)


# -- obstruction verdicts -----------------------------------------------------------


def test_consensus_obstruction_report():
    n = 2
    initial = initial_model(n, [0, 1])
    task = apply_action(initial, binary_consensus_action(n))
    protocol = apply_action(initial, immediate_snapshot_action(n, [0, 1]))
    report = verify_obstruction(task, protocol, binary_consensus_obstruction(n))
    assert report.is_obstruction
    assert report.formula.positive
    assert report.task_verdict.is_valid
    first = protocol.complex.facets[report.counterexample_ids[0]]
    assert first == protocol.validity(report.formula).counterexample
    doc = report_to_json(report)
    assert doc["is_obstruction"] and doc["task_valid"] and doc["positive"]
    assert doc["protocol_counterexamples"]


def test_split_pair_adversary_with_four_agents():
    n = 3
    adv = from_survivor_sets(n, [{0, 1}, {2, 3}])
    assert adv.csize() == 2
    initial = initial_model(n, range(n + 1))
    rounds = apply_action(initial, round_operator_action(n, adv, range(n + 1)))
    phi = adversary_obstruction(n, adv)
    assert phi.positive
    agree_one = apply_action(initial, set_agreement_action(n, 1, range(n + 1)))
    report = verify_obstruction(agree_one, rounds, phi)
    assert report.is_obstruction
    agree_two = apply_action(initial, set_agreement_action(n, 2, range(n + 1)))
    loose = verify_obstruction(agree_two, rounds, phi)
    assert not loose.task_verdict.is_valid
    assert not loose.is_obstruction


def test_agreement_obstruction_counterexample_is_lazy_diagonal():
    initial = initial_model(2, [0, 1, 2])
    task = apply_action(initial, set_agreement_action(2, 1, range(3)))
    protocol = apply_action(initial, round_operator_action(2, waitfree(2), range(3)))
    phi = adversary_obstruction(2, waitfree(2))
    report = verify_obstruction(task, protocol, phi, cap=2000)
    assert report.is_obstruction
    everyone = {0, 1, 2}
    lazy = protocol_facet(protocol, (0, 1, 2), [everyone, everyone, everyone])
    assert protocol.complex.index(lazy) in report.counterexample_ids


def test_same_model_is_never_an_obstruction(demo_model):
    phi = or_(*(atom(a, 2) for a in range(3)))
    report = verify_obstruction(demo_model, demo_model, phi)
    assert not report.is_obstruction


def test_counterexample_cap_respected():
    initial = initial_model(2, [0, 1])
    task = apply_action(initial, binary_consensus_action(2))
    protocol = apply_action(initial, immediate_snapshot_action(2, [0, 1]))
    phi = FALSE
    report = verify_obstruction(task, protocol, phi, cap=3)
    assert report.counterexample_ids == (0, 1, 2)
    assert not report.is_obstruction  # fails validity in the task too


def test_verify_obstruction_reads_counterexample_ids_off_the_mask():
    initial = initial_model(2, [0, 1, 2])
    task = apply_action(initial, set_agreement_action(2, 1, range(3)))
    protocol = apply_action(initial, round_operator_action(2, waitfree(2), range(3)))
    facets = protocol.complex.facets
    for phi, count in [(adversary_obstruction(2, waitfree(2)), 1), (know(0, atom(1, 1)), 10)]:
        report = verify_obstruction(task, protocol, phi)
        # No facet was hashed to find its id.
        assert protocol.complex._pos is None
        ids = report.counterexample_ids
        assert [facets[i] for i in ids] == protocol.counterexamples(phi, 10)
        assert len(ids) == count


def test_verdict_shapes():
    assert Verdict().is_valid
    assert not Verdict(counterexample=object()).is_valid
