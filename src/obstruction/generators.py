"""Obstruction formula generators and the semantic obstruction verdict.

An obstruction for a (task, protocol) pair is a positive formula valid in
the task model yet falsified somewhere in the protocol model; exhibiting one
refutes solvability. The generators here target consensus and k-set
agreement; the agreement family is built by recursion over agent sets,
ordered by inverse inclusion, with nodes shared through formula interning.
The wait-free k-agreement obstruction is that family for the wait-free
adversary, restricted to groups of at most k agents.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from .adversaries import Adversary, subsets, waitfree
from .formulas import (
    FALSE,
    Formula,
    and_,
    atom,
    common,
    distributed,
    know,
    not_,
    or_,
    render,
)
from .models import SimplicialModel, Verdict

T = TypeVar("T")


def greatest_fixed_subset(f: Callable[[T], T], universe: Iterable[T]) -> frozenset[T]:
    """Largest nonempty subset mapped onto itself by `f` (iterated image)."""
    current = frozenset(universe)
    if not current:
        raise ValueError("empty universe")
    while True:
        image = frozenset(f(x) for x in current)
        if image == current:
            return current
        current = image


def binary_consensus_obstruction(n: int) -> Formula:
    """Either someone did not input 0, or 'someone input 0' is common knowledge."""
    if n < 1:
        raise ValueError("need at least two agents")
    agents = range(n + 1)
    return or_(
        not_(and_(*(atom(a, 0) for a in agents))),
        common(agents, or_(*(atom(a, 0) for a in agents))),
    )


def _values_known(group: frozenset[int], agents: range) -> Formula:
    """Some agent holds an input from `group`."""
    return or_(*(atom(b, j) for j in sorted(group) for b in agents))


def adversary_obstruction_family(
    n: int, adversary: Adversary
) -> tuple[dict[frozenset[int], Formula], dict[frozenset[int], Formula]]:
    """The agreement obstruction's per-group blocks `(guarded, cases)` for an
    adversary, built by inverse inclusion: groups by descending size.

    `cases[A]` says: outside A someone missed the diagonal, or someone
    outside A knows a value of A was input, or a strictly larger group
    already carries its own case distributedly. `guarded[A]`, for nonempty
    A, wraps the case in distributed knowledge of A, or collapses to false
    when the processes outside A cannot all survive. False branches are
    dropped from disjunctions before emission.
    """
    if adversary.n != n:
        raise ValueError("adversary dimension mismatch")
    agents = range(n + 1)
    everyone = frozenset(agents)
    guarded: dict[frozenset[int], Formula] = {}
    cases: dict[frozenset[int], Formula] = {}
    for group in subsets(agents, range(n + 1, -1, -1)):
        rest = sorted(everyone - group)
        parts = [not_(atom(a, a)) for a in rest]
        parts += [know(a, _values_known(group, agents)) for a in rest]
        parts += [guarded[group | extra] for extra in subsets(rest, range(1, len(rest) + 1))]
        cases[group] = or_(*[p for p in parts if p is not FALSE])
        if group:
            survives = adversary.contains(everyone - group)
            guarded[group] = distributed(group, cases[group]) if survives else FALSE
    return guarded, cases


def _cut(n: int, guarded: dict[frozenset[int], Formula], k: int) -> Formula:
    """Someone missed the diagonal, or some group of 1 to k agents carries
    its guarded case; false parts are dropped."""
    agents = range(n + 1)
    parts = [not_(atom(a, a)) for a in agents]
    parts += [guarded[g] for g in subsets(agents, range(1, k + 1))]
    return or_(*[p for p in parts if p is not FALSE])


def adversary_obstruction(n: int, adversary: Adversary) -> Formula:
    """The agreement obstruction for an adversary, cut below its minimum core size."""
    guarded, _ = adversary_obstruction_family(n, adversary)
    c = adversary.csize()
    if c < 2:
        raise ValueError(
            "no nontrivial agreement bound: minimum core size must be at least 2"
        )
    return _cut(n, guarded, c - 1)


def waitfree_kset_obstruction(n: int, k: int) -> Formula:
    """The wait-free adversary's obstruction, cut at groups of at most k agents."""
    if not 1 <= k <= n:
        raise ValueError(f"agreement bound {k} out of range 1..{n}")
    guarded, _ = adversary_obstruction_family(n, waitfree(n))
    return _cut(n, guarded, k)


@dataclass(frozen=True)
class ObstructionReport:
    formula: Formula
    task_verdict: Verdict
    counterexample_ids: tuple[int, ...]
    is_obstruction: bool


def verify_obstruction(
    task: SimplicialModel,
    protocol: SimplicialModel,
    phi: Formula,
    cap: int = 10,
) -> ObstructionReport:
    """Check positivity, validity in the task, and refutation in the protocol,
    which the ids of up to `cap` protocol facets falsifying `phi` witness."""
    if task.complex.n != protocol.complex.n:
        raise ValueError("task and protocol must share the agent set")
    task_verdict = task.validity(phi)
    ids = tuple(protocol._failing_ids(phi, cap))
    return ObstructionReport(
        formula=phi,
        task_verdict=task_verdict,
        counterexample_ids=ids,
        is_obstruction=phi.positive and task_verdict.is_valid and bool(ids),
    )


def report_to_json(report: ObstructionReport) -> dict:
    return {
        "formula": render(report.formula),
        "positive": report.formula.positive,
        "task_valid": report.task_verdict.is_valid,
        "protocol_counterexamples": list(report.counterexample_ids),
        "is_obstruction": report.is_obstruction,
    }
