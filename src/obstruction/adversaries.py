"""Superset-closed adversaries, kept as their minimal survivor sets.

Membership of a process set is decided by inclusion of some survivor set;
cores are the inclusion-minimal sets of processes meeting every survivor.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .complexes import _json_field


def subsets(pool: Iterable[int], sizes: Iterable[int]) -> list[frozenset[int]]:
    """The subsets of `pool` with each of the given sizes, in the order the
    sizes are given, and lexicographic within a size."""
    ordered = sorted(pool)
    return [frozenset(c) for size in sizes for c in combinations(ordered, size)]


@dataclass(frozen=True)
class Adversary:
    n: int
    survivors: frozenset[frozenset[int]]

    def contains(self, processes: Iterable[int]) -> bool:
        """True when the set of processes includes some survivor set."""
        p = frozenset(processes)
        if p and not 0 <= min(p) <= max(p) <= self.n:
            raise ValueError(f"processes {sorted(p)} outside 0..{self.n}")
        return any(s <= p for s in self.survivors)

    def cores(self) -> frozenset[frozenset[int]]:
        """All minimal process sets that intersect every survivor set."""
        hitting = [
            c for c in subsets(range(self.n + 1), range(1, self.n + 2))
            if all(c & s for s in self.survivors)
        ]
        return frozenset(c for c in hitting if not any(h < c for h in hitting))

    def csize(self) -> int:
        return min(len(c) for c in self.cores())


def from_survivor_sets(n: int, sets: Iterable[Iterable[int]]) -> Adversary:
    """Normalize the given survivor sets to the minimal antichain."""
    collected = [frozenset(s) for s in sets]
    if not collected:
        raise ValueError("at least one survivor set required")
    # Bounds, not the set of agents, so a refusal costs no more for a large n.
    for s in collected:
        if not s:
            raise ValueError("survivor sets must be nonempty")
        if not 0 <= min(s) <= max(s) <= n:
            raise ValueError(f"survivor set {sorted(s)} outside 0..{n}")
    # Repeats dropped, the quadratic filter sees at most 2^(n+1) sets.
    distinct = set(collected)
    minimal = frozenset(s for s in distinct if not any(t < s for t in distinct))
    return Adversary(n, minimal)


def waitfree(n: int) -> Adversary:
    """The adversary whose survivor sets are the singletons."""
    return from_survivor_sets(n, [{a} for a in range(n + 1)])


def adversary_from_json(data: dict) -> Adversary:
    what = "adversary document"
    n = _json_field(data, "n", int, what)
    sets = _json_field(data, "survivor_sets", list, what)
    for s in sets:
        if not isinstance(s, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in s
        ):
            raise ValueError(
                f"malformed {what}: 'survivor_sets' must hold lists of ints, got {s!r}"
            )
    return from_survivor_sets(n, sets)
