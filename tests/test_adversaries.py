import json
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from obstruction.adversaries import (
    adversary_from_json,
    from_survivor_sets,
    waitfree,
)


def closure(adv):
    agents = range(adv.n + 1)
    members = []
    for size in range(1, adv.n + 2):
        for combo in combinations(agents, size):
            if adv.contains(combo):
                members.append(frozenset(combo))
    return members


def test_waitfree_survivors():
    adv = waitfree(2)
    assert adv.survivors == frozenset({frozenset({a}) for a in range(3)})


def test_normalization_drops_supersets():
    adv = from_survivor_sets(2, [{0, 1}, {0, 1, 2}])
    assert adv.survivors == frozenset({frozenset({0, 1})})


def test_antichain_kept_as_is():
    sets = [{0, 1}, {1, 2}, {0, 2}]
    adv = from_survivor_sets(2, sets)
    assert adv.survivors == frozenset(frozenset(s) for s in sets)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="at least one"):
        from_survivor_sets(2, [])
    with pytest.raises(ValueError, match="nonempty"):
        from_survivor_sets(2, [set()])
    with pytest.raises(ValueError, match="outside"):
        from_survivor_sets(1, [{0, 5}])


def test_contains_waitfree_everything_nonempty():
    adv = waitfree(2)
    for size in range(1, 4):
        for combo in combinations(range(3), size):
            assert adv.contains(combo)


def test_contains_two_of_three():
    adv = from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])
    assert not adv.contains({0})
    assert adv.contains({0, 1})


def test_empty_set_never_contained():
    for adv in (waitfree(1), waitfree(3), from_survivor_sets(2, [{0}])):
        assert not adv.contains(set())


def test_contains_validates_range():
    with pytest.raises(ValueError, match="outside"):
        waitfree(1).contains({4})


def test_cores_waitfree():
    assert waitfree(2).cores() == frozenset({frozenset({0, 1, 2})})
    assert waitfree(2).csize() == 3


def test_cores_two_of_three():
    adv = from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])
    assert adv.cores() == frozenset(
        {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}
    )
    assert adv.csize() == 2


def test_cores_single_full_survivor():
    adv = from_survivor_sets(2, [{0, 1, 2}])
    assert adv.cores() == frozenset({frozenset({a}) for a in range(3)})
    assert adv.csize() == 1


def test_core_duality_against_closure():
    samples = [
        waitfree(2),
        waitfree(3),
        from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}]),
        from_survivor_sets(3, [{0, 1}, {2, 3}]),
        from_survivor_sets(3, [{0}, {1, 2, 3}]),
    ]
    for adv in samples:
        members = closure(adv)
        hitting = []
        for size in range(1, adv.n + 2):
            for combo in combinations(range(adv.n + 1), size):
                c = frozenset(combo)
                if all(c & p for p in members):
                    hitting.append(c)
        minimal = frozenset(c for c in hitting if not any(h < c for h in hitting))
        assert adv.cores() == minimal
        assert adv.csize() == min(len(c) for c in minimal)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n), min_size=1),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_normalization_idempotent(case):
    n, sets = case
    adv = from_survivor_sets(n, sets)
    again = from_survivor_sets(n, adv.survivors)
    assert again == adv
    # Normalization preserves membership.
    for size in range(1, n + 2):
        for combo in combinations(range(n + 1), size):
            assert adv.contains(combo) == any(
                frozenset(s) <= frozenset(combo) for s in sets
            )


def test_json_round_trip():
    adv = from_survivor_sets(3, [{0, 1}, {2, 3}])
    doc = {"n": adv.n, "survivor_sets": [sorted(s) for s in adv.survivors]}
    assert adversary_from_json(json.loads(json.dumps(doc))) == adv


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        adversary_from_json({"n": 2})


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "malformed adversary document: expected an object, got list"),
        (
            {"n": "x", "survivor_sets": []},
            "malformed adversary document: 'n' must be of type int, got str",
        ),
        (
            {"n": 2, "survivor_sets": [5]},
            "malformed adversary document: 'survivor_sets' must hold lists of ints, got 5",
        ),
    ],
    ids=["top-level-list", "n-not-int", "set-not-list"],
)
def test_json_names_the_malformed_field(doc, message):
    with pytest.raises(ValueError) as err:
        adversary_from_json(doc)
    assert str(err.value) == message
