"""Exhaustive search for task-solving decision maps, plus verification helpers.

Solving a task means mapping every protocol vertex to a task vertex of the
same color and input value so that protocol facets land on task facets.
Fixing color and input collapses the search to choosing one decision per
protocol vertex, which a depth-first scan with forward checking decides
exhaustively at small scale. Each protocol facet keeps a bitset of the task's
decision vectors for its inputs that still agree with the decisions fixed so
far; fixing a vertex ands one precomputed mask into each of its facets, and
a facet whose bitset empties prunes the branch.
"""

import random
from dataclasses import dataclass
from enum import Enum

from .complexes import Vertex
from .formulas import Formula, atom, and_, or_, not_, know, common, distributed
from .models import SimplicialModel, _bits, _morphism_images, morphism_violation


class Solvability(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    RESOURCE_LIMIT = "resource-limit"


@dataclass(frozen=True)
class SolvabilityResult:
    status: Solvability
    witness: dict | None
    explored: int


def _require_product(model: SimplicialModel, role: str) -> None:
    if not all(isinstance(v.obs, tuple) and len(v.obs) == 2 for v in model.complex.vertices()):
        raise ValueError(f"{role} model is not a product update model")


def find_morphism(
    protocol: SimplicialModel,
    task: SimplicialModel,
    budget: int = 10_000_000,
) -> SolvabilityResult:
    """Search for a solving map from the protocol onto the task.

    Returns an exhaustive verdict unless the node budget runs out first;
    a found witness is re-verified against all morphism conditions before
    being reported.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if protocol.complex.n != task.complex.n:
        raise ValueError("protocol and task must share the agent set")
    _require_product(protocol, "protocol")
    _require_product(task, "task")

    # Decisions per (color, input value), ascending: `vertices()` is canonical.
    decisions: dict[tuple[int, int], list] = {}
    for v in task.complex.vertices():
        decisions.setdefault((v.color, v.obs[0]), []).append(v.obs[1])

    # Allowed decision vectors per input vector of the task (facets are pure,
    # so position i is color i). masks[inputs][i][d] has bit j set when the
    # j-th allowed vector decides d at position i.
    decided = [v.obs[1] for v in task.complex.vertices()]
    allowed: dict[tuple, list[tuple]] = {}
    for row, inputs in zip(task.complex.rows, task.inputs):
        allowed.setdefault(inputs, []).append(tuple(map(decided.__getitem__, row)))
    masks: dict[tuple, list[dict]] = {}
    for inputs, vectors in allowed.items():
        table = masks[inputs] = [{} for _ in inputs]
        for j, vector in enumerate(vectors):
            for column, d in zip(table, vector):
                column[d] = column.get(d, 0) | 1 << j

    # live[i]: the allowed vectors of protocol facet i that agree with every
    # decision fixed so far; the facet can still be completed iff it is nonzero.
    # incidence[u]: the facets of vertex id u, each with its column of masks.
    vertices = protocol.complex.vertices()
    live: list[int] = []
    incidence: list[list[tuple[int, dict]]] = [[] for _ in vertices]
    no_vectors = [{}] * (protocol.complex.n + 1)
    for i, (row, inputs) in enumerate(zip(protocol.complex.rows, protocol.inputs)):
        live.append((1 << len(allowed.get(inputs, ()))) - 1)
        for u, column in zip(row, masks.get(inputs, no_vectors)):
            incidence[u].append((i, column))
    candidates = [decisions.get((v.color, v.obs[0]), []) for v in vertices]

    # Most constrained first; higher facet degree breaks ties for pruning
    # power, then the (stable) canonical vertex order.
    order = sorted(range(len(vertices)), key=lambda u: (len(candidates[u]), -len(incidence[u])))
    # Per depth: the facets of its vertex, and for each of its candidate
    # decisions the masks that fixing it ands into those facets' live sets.
    facet_ids = [[i for i, _ in incidence[u]] for u in order]
    narrowing = [
        [[column.get(d, 0) for _, column in incidence[u]] for d in candidates[u]]
        for u in order
    ]

    # Depth-first over `order` with an explicit stack: tried[k] counts the
    # candidates taken at depth k, saved[k] holds the live sets it overwrote.
    tried = [0] * len(order)
    saved: list[list[int]] = []
    explored = 0
    depth = 0
    while depth < len(order):
        ids = facet_ids[depth]
        k = tried[depth]
        if k == len(narrowing[depth]):
            if depth == 0:
                return SolvabilityResult(Solvability.UNSOLVABLE, None, explored)
            tried[depth] = 0
            depth -= 1
            for i, old in zip(facet_ids[depth], saved.pop()):
                live[i] = old
            continue
        if explored >= budget:
            return SolvabilityResult(Solvability.RESOURCE_LIMIT, None, explored)
        explored += 1
        tried[depth] = k + 1
        narrowed = [live[i] & m for i, m in zip(ids, narrowing[depth][k])]
        if all(narrowed):
            saved.append([live[i] for i in ids])
            for i, m in zip(ids, narrowed):
                live[i] = m
            depth += 1

    chosen = {u: candidates[u][tried[k] - 1] for k, u in enumerate(order)}
    witness = {
        v: Vertex(v.color, (v.obs[0], chosen[u])) for u, v in enumerate(vertices)
    }
    # A facet's input vector is read off its vertices, so a map that keeps
    # every facet's vector keeps every vertex's input.
    problem = morphism_violation(witness, protocol, task)
    if problem is not None:  # pragma: no cover - internal consistency guard
        raise RuntimeError(f"search produced an invalid witness: {problem}")
    return SolvabilityResult(Solvability.SOLVABLE, witness, explored)


def knowledge_gain_check(
    delta: dict[Vertex, Vertex],
    source: SimplicialModel,
    target: SimplicialModel,
    formulas,
) -> bool:
    """Positive truths must pull back along a morphism: target says, source says."""
    formulas = list(formulas)
    for phi in formulas:
        if not phi.positive:
            raise ValueError(f"formula is not positive: {phi}")
        source._validate_agents(phi)
        target._validate_agents(phi)
    problem, images = _morphism_images(delta, source, target)
    if problem is not None:
        raise ValueError(f"not a morphism: {problem}")
    # preimages[j]: the source facets that delta maps onto target facet j.
    preimages = [0] * len(target.complex)
    for i, j in enumerate(images):
        preimages[j] |= 1 << i
    for phi in formulas:
        pulled = 0
        for j in _bits(target._mask(phi)):
            pulled |= preimages[j]
        if pulled & ~source._mask(phi):
            return False
    return True


def random_positive_formula(
    rng: random.Random,
    agents,
    values,
    depth: int = 3,
) -> Formula:
    """Seeded generator of positive formulas over the given atom universe."""
    agents = sorted(agents)
    values = sorted(values)

    def leaf() -> Formula:
        return atom(rng.choice(agents), rng.choice(values))

    def propositional(d: int) -> Formula:
        if d == 0:
            return leaf()
        pick = rng.randrange(4)
        if pick == 0:
            return leaf()
        if pick == 1:
            return not_(propositional(d - 1))
        parts = [propositional(d - 1) for _ in range(2)]
        return and_(*parts) if pick == 2 else or_(*parts)

    def positive(d: int) -> Formula:
        if d == 0:
            return leaf()
        pick = rng.randrange(7)
        if pick == 0:
            return leaf()
        if pick == 1:
            return not_(propositional(d - 1))
        if pick == 2:
            return and_(positive(d - 1), positive(d - 1))
        if pick == 3:
            return or_(positive(d - 1), positive(d - 1))
        if pick == 4:
            return know(rng.choice(agents), positive(d - 1))
        group = frozenset(rng.sample(agents, rng.randrange(1, len(agents) + 1)))
        ctor = common if pick == 5 else distributed
        return ctor(group, positive(d - 1))

    return positive(depth)
