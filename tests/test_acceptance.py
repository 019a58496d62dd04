"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from itertools import product as iter_product

from obstruction.adversaries import from_survivor_sets, waitfree
from obstruction.generators import (
    adversary_obstruction,
    binary_consensus_obstruction,
    greatest_fixed_subset,
    verify_obstruction,
)
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
    view_vectors,
)

from conftest import build_demo_model
from helpers import (
    common_reach,
    facet_with_values,
    input_of,
    map_facet,
    ordered_set_partitions,
    project_left,
    protocol_facet,
    seen_agents,
    shared_colors,
)


class timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.bound, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.bound}s bound"
            )


def _passed(number, note, clock):
    print(f"acceptance {number} PASS ({clock.elapsed:.2f}s): {note}")


def test_criterion_1_demo_model_regressions():
    from obstruction.formulas import atom, common, distributed, know, or_

    with timer(1.0) as clock:
        model = build_demo_model()
        x1 = facet_with_values(model, (2, 1, 0))
        x3 = facet_with_values(model, (0, 3, 2))
        x5 = facet_with_values(model, (1, 2, 2))
        someone_one = or_(*(atom(a, 1) for a in range(3)))
        someone_two = or_(*(atom(a, 2) for a in range(3)))
        assert model.satisfies(x1, know(0, someone_one))
        assert not model.satisfies(x5, know(2, someone_one))
        assert model.satisfies(x3, distributed({0, 1}, atom(1, 3)))
        assert not model.satisfies(x3, distributed({0, 2}, atom(1, 3)))
        assert model.satisfies(x5, common({0, 1, 2}, someone_two))
    _passed(1, "five satisfaction assertions on the demo model", clock)


def test_criterion_2_consensus_impossibility_reproduction():
    with timer(30.0) as clock:
        for n, partitions in ((1, 3), (2, 13), (3, 75)):
            everyone = set(range(n + 1))
            initial = initial_model(n, [0, 1])
            consensus = apply_action(initial, binary_consensus_action(n))
            snapshot = apply_action(initial, immediate_snapshot_action(n, [0, 1]))
            assert len(snapshot.complex.facets) == 2 ** (n + 1) * partitions
            phi = binary_consensus_obstruction(n)

            assert phi.positive
            assert consensus.validity(phi).is_valid
            first_block_solo = [{0}] + [everyone] * n
            last_block_solo = [everyone] + [everyone - {0}] * n
            x1 = protocol_facet(snapshot, (0,) * (n + 1), first_block_solo)
            assert not snapshot.satisfies(x1, phi)

            # The four-step chain from all-zero to all-one inputs.
            mixed = (0,) + (1,) * n
            x2 = protocol_facet(snapshot, mixed, first_block_solo)
            x3 = protocol_facet(snapshot, mixed, [everyone] * (n + 1))
            x4 = protocol_facet(snapshot, mixed, last_block_solo)
            x5 = protocol_facet(snapshot, (1,) * (n + 1), last_block_solo)
            assert 0 in shared_colors(x1, x2)
            assert n in shared_colors(x2, x3)
            assert 0 in shared_colors(x3, x4)
            assert n in shared_colors(x4, x5)
            assert x5 in common_reach(snapshot, x1, everyone)
    _passed(2, "consensus obstruction for n=1,2,3 with the relation chain", clock)


def test_criterion_3a_waitfree_agreement_obstruction():
    with timer(60.0) as clock:
        n = 2
        adversary = waitfree(n)
        assert adversary.csize() == 3
        initial = initial_model(n, [0, 1, 2])
        rounds = apply_action(initial, round_operator_action(n, adversary, range(n + 1)))
        phi = adversary_obstruction(n, adversary)
        lazy_facet = protocol_facet(
            rounds, (0, 1, 2), [set(range(n + 1))] * (n + 1)
        )
        for k in (1, 2):
            agreement = apply_action(initial, set_agreement_action(n, k, range(n + 1)))
            report = verify_obstruction(agreement, rounds, phi, cap=10_000)
            assert report.formula.positive
            assert report.is_obstruction
            assert rounds.complex.index(lazy_facet) in report.counterexample_ids
    _passed(3, "wait-free agreement obstruction at n=2 for k=1,2", clock)


def test_criterion_3b_two_of_three_adversary_obstruction():
    with timer(60.0) as clock:
        n = 2
        adversary = from_survivor_sets(n, [{0, 1}, {1, 2}, {0, 2}])
        assert adversary.csize() == 2
        initial = initial_model(n, [0, 1, 2])
        rounds = apply_action(initial, round_operator_action(n, adversary, range(n + 1)))
        agreement = apply_action(initial, set_agreement_action(n, 1, range(n + 1)))
        report = verify_obstruction(
            agreement, rounds, adversary_obstruction(n, adversary), cap=10_000
        )
        assert report.formula.positive
        assert report.is_obstruction
    _passed(3, "two-of-three adversary obstruction at n=2 for k=1", clock)


def test_criterion_4_fixed_point_oracle():
    with timer(30.0) as clock:
        def brute_force(table, size):
            best = frozenset()
            for bits in iter_product((0, 1), repeat=size):
                subset = frozenset(x for x in range(size) if bits[x])
                if subset and frozenset(table[x] for x in subset) == subset:
                    if len(subset) > len(best):
                        best = subset
            return best

        checked = 0
        for size in (1, 2, 3, 4):
            for table in iter_product(range(size), repeat=size):
                fast = greatest_fixed_subset(lambda x: table[x], range(size))
                assert fast == brute_force(table, size)
                checked += 1
        assert checked == 1 + 4 + 27 + 256

        rng = random.Random(0)
        for _ in range(1000):
            table = [rng.randrange(5) for _ in range(5)]
            fast = greatest_fixed_subset(lambda x: table[x], range(5))
            assert fast == brute_force(table, 5)
    _passed(4, "greatest fixed subset matches brute force, 1288 cases", clock)


def test_criterion_5_combinatorial_counts():
    with timer(30.0) as clock:
        assert len(ordered_set_partitions(range(2))) == 3
        assert len(ordered_set_partitions(range(3))) == 13
        assert len(ordered_set_partitions(range(4))) == 75

        bc1 = apply_action(initial_model(1, [0, 1]), binary_consensus_action(1))
        assert len(bc1.complex.facets) == 6
        bc2 = apply_action(initial_model(2, [0, 1]), binary_consensus_action(2))
        assert len(bc2.complex.facets) == 14

        sa1 = apply_action(initial_model(2, [0, 1, 2]), set_agreement_action(2, 1, range(3)))
        assert len(sa1.complex.facets) == 57

        assert len(view_vectors(1, waitfree(1))) == 3

        snapshot = apply_action(
            initial_model(2, [0, 1, 2]), immediate_snapshot_action(2, [0, 1, 2])
        )
        rounds = apply_action(
            initial_model(2, [0, 1, 2]), round_operator_action(2, waitfree(2), range(3))
        )
        assert set(snapshot.complex.facets) < set(rounds.complex.facets)
    _passed(5, "partition, consensus, agreement, and round-operator counts", clock)


def test_criterion_6_morphism_search_cross_check():
    with timer(10.0) as clock:
        initial = initial_model(1, [0, 1])
        snapshot = apply_action(initial, immediate_snapshot_action(1, [0, 1]))
        consensus = apply_action(initial, binary_consensus_action(1))
        refused = find_morphism(snapshot, consensus)
        assert refused.status is Solvability.UNSOLVABLE
        report = verify_obstruction(
            consensus, snapshot, binary_consensus_obstruction(1)
        )
        assert report.is_obstruction

        trivial = apply_action(initial, decide_own_input_action(1, [0, 1]))
        solved = find_morphism(snapshot, trivial)
        assert solved.status is Solvability.SOLVABLE
        witness = solved.witness
        assert all(v.color == w.color for v, w in witness.items())
        for facet in snapshot.complex.facets:
            image = map_facet(witness, facet)
            assert image in trivial.complex
            label = snapshot.inputs[snapshot.complex.index(facet)]
            assert trivial.inputs[trivial.complex.index(image)] == label
            assert project_left(image) == project_left(facet)
        assert morphism_violation(witness, snapshot, trivial) is None
    _passed(6, "search refutes consensus and solves the trivial task at n=1", clock)


def test_criterion_7_knowledge_gain_on_witnesses():
    with timer(30.0) as clock:
        initial = initial_model(1, [0, 1])
        protocols = [
            apply_action(initial, immediate_snapshot_action(1, [0, 1])),
            apply_action(initial, round_operator_action(1, waitfree(1), [0, 1])),
        ]
        tasks = [
            apply_action(initial, decide_own_input_action(1, [0, 1])),
            apply_action(initial, set_agreement_action(1, 2, [0, 1])),
        ]
        witnesses = 0
        for protocol in protocols:
            for task in tasks:
                result = find_morphism(protocol, task)
                if result.status is not Solvability.SOLVABLE:
                    continue
                witnesses += 1
                rng = random.Random(0)
                formulas = [
                    random_positive_formula(rng, [0, 1], [0, 1], depth=3)
                    for _ in range(100)
                ]
                assert knowledge_gain_check(result.witness, protocol, task, formulas)
        assert witnesses >= 2
    _passed(7, f"knowledge preservation on {witnesses} witness morphisms", clock)


def test_criterion_8_relation_criteria_coincide():
    with timer(60.0) as clock:
        n = 2
        agents = range(n + 1)
        initial = initial_model(n, [0, 1, 2])

        def structural_keys(model):
            return [
                tuple(f[a] for a in agents) for f in model.complex.facets
            ]

        rounds = apply_action(initial, round_operator_action(n, waitfree(n), range(n + 1)))
        view_keys = [
            tuple(
                (
                    seen_agents(f, a),
                    tuple(input_of(f, b) for b in sorted(seen_agents(f, a))),
                )
                for a in agents
            )
            for f in rounds.complex.facets
        ]
        struct = structural_keys(rounds)
        size = len(rounds.complex.facets)
        for i in range(size):
            for j in range(size):
                for a in agents:
                    assert (struct[i][a] == struct[j][a]) == (
                        view_keys[i][a] == view_keys[j][a]
                    )

        for k in (1, 2):
            agreement = apply_action(initial, set_agreement_action(n, k, range(n + 1)))
            io_keys = [
                tuple((input_of(f, a), f[a].obs[1]) for a in agents)
                for f in agreement.complex.facets
            ]
            struct = structural_keys(agreement)
            size = len(agreement.complex.facets)
            for i in range(size):
                for j in range(size):
                    for a in agents:
                        assert (struct[i][a] == struct[j][a]) == (
                            io_keys[i][a] == io_keys[j][a]
                        )
    _passed(8, "shared-vertex relation equals the view and input/output criteria", clock)
