"""Initial models, protocol and task action models, and the product update.

Protocols and tasks are action models: complexes whose facets each carry a
precondition formula. Applying an action to an initial model keeps exactly
the product facets whose input half satisfies the action's precondition.

The one-round protocols built here index their facets by how much each agent
saw of the shared memory, and share one builder fed with view vectors:

* the adversarial round operator enumerates per-agent view sets that must
  include the agent itself, include a surviving process set, and be totally
  ordered by inclusion;
* the immediate snapshot protocol keeps the wait-free round's vectors that
  are also immediate (whoever an agent sees saw at most what it saw).
"""

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Sequence

from .adversaries import Adversary, subsets, waitfree
from .complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    complex_to_json,
    complex_from_json,
    _collector_paused,
    _key_order,
    _json_field,
    _product_facets,
)
from .formulas import Formula, and_, atom, or_, parse, render
from .models import SimplicialModel, induce_model


@dataclass(frozen=True)
class ActionModel:
    """A complex of action points, each guarded by a precondition: `pre[i]`
    guards `complex.facets[i]`. Action points with the same precondition
    share one interned formula object."""

    complex: ChromaticComplex
    pre: tuple[Formula, ...]
    name: str

    def __post_init__(self):
        if len(self.pre) != len(self.complex):
            raise ValueError(
                f"{len(self.complex)} facets but {len(self.pre)} preconditions"
            )


def pin_formula(facet: Facet) -> Formula:
    """Conjunction of atoms holding exactly at this input facet."""
    return and_(*(atom(v.color, v.obs) for v in facet))


def initial_complex(n: int, inputs: Iterable[int]) -> ChromaticComplex:
    given = list(inputs)
    if not given:
        raise ValueError("at least one input value required")
    # Values are plain ints: a bool equals its int, so it would merge with it
    # and export as JSON `true`/`false`, which no decoder reads back.
    if not all(type(v) is int for v in given):
        raise TypeError("input values must be integers")
    values = sorted(set(given))
    # Agent by agent, value by value is `Vertex.key` order, and the product
    # of each agent's range of positions lists the rows in sorted order.
    vertices = [Vertex(a, value) for a in range(n + 1) for value in values]
    m = len(values)
    rows = list(iter_product(*(range(a * m, a * m + m) for a in range(n + 1))))
    return ChromaticComplex(n, rows, vertices)


def initial_model(n: int, inputs: Iterable[int]) -> SimplicialModel:
    """The model of all input assignments over the given value set."""
    return induce_model(initial_complex(n, inputs), "obs")


# -- protocol action models ------------------------------------------------


@_collector_paused
def _view_action(n: int, vectors, inputs: Iterable[int], name: str) -> ActionModel:
    """One action facet per input facet and view vector, guarded by the input
    facet's pin; the vectors are distinct.

    Agent a's vertex holds the inputs of the agents in vector[a]. The
    distinct (agent, view) cells are numbered once, each input facet selects
    one vertex per cell, and the distinct vertices are numbered once. A
    vector lists one cell per agent, in agent order, so a facet is the tuple
    of its cells' vertex numbers, and `_key_order` sorts those tuples into
    the complex's rows. Every agent sees its own input, so no facet arises
    from two input facets.
    """
    cells: dict[tuple[int, frozenset[int]], int] = {}
    by_cell = [tuple(cells.setdefault(c, len(cells)) for c in enumerate(v)) for v in vectors]
    facets_in = initial_complex(n, inputs).facets
    numbers: dict[tuple[int, frozenset], int] = {}
    keys = []
    for x in facets_in:
        obs = [v.obs for v in x]
        # The number of this input facet's vertex in each cell.
        picks = [
            numbers.setdefault((a, frozenset([(b, obs[b]) for b in seen])), len(numbers))
            for a, seen in cells
        ]
        keys.extend([tuple(map(picks.__getitem__, v)) for v in by_cell])
    vertices, order, rows = _key_order(list(map(Vertex._make, numbers)), keys)
    guards = [pin_formula(x) for x in facets_in]
    width = len(by_cell)
    pre = tuple([guards[i // width] for i in order])
    return ActionModel(ChromaticComplex(n, rows, vertices), pre, name)


def view_vectors(n: int, adversary: Adversary) -> list[tuple[frozenset[int], ...]]:
    """Per-agent view sets: self-including, surviving, totally ordered by inclusion.

    Vectors grow agent by agent, keeping a view only when it is comparable
    with every view already chosen; the list is in `itertools.product` order
    of the per-agent options.
    """
    if adversary.n != n:
        raise ValueError("adversary dimension mismatch")
    agents = range(n + 1)
    nonempty = sorted(subsets(agents, range(1, n + 2)), key=sorted)
    surviving = [s for s in nonempty if adversary.contains(s)]
    options = [[s for s in surviving if a in s] for a in agents]
    vectors: list[tuple[frozenset[int], ...]] = [()]
    for choices in options:
        vectors = [
            vector + (view,)
            for vector in vectors
            for view in choices
            if all(seen <= view or view <= seen for seen in vector)
        ]
    return vectors


def is_immediate(vector: Sequence[frozenset[int]]) -> bool:
    """Snapshot immediacy: whoever you see has seen at most what you saw."""
    return all(
        vector[b] <= vector[a]
        for a in range(len(vector))
        for b in vector[a]
    )


def immediate_snapshot_action(n: int, inputs: Iterable[int]) -> ActionModel:
    """The wait-free round restricted to its immediate view vectors."""
    vectors = [v for v in view_vectors(n, waitfree(n)) if is_immediate(v)]
    return _view_action(n, vectors, inputs, "is")


def round_operator_action(n: int, adversary: Adversary, inputs: Iterable[int]) -> ActionModel:
    """One action facet per input facet and admissible view vector."""
    return _view_action(n, view_vectors(n, adversary), inputs, "round")


# -- task action models ------------------------------------------------------


def binary_consensus_action(n: int) -> ActionModel:
    """Two action points: everyone decides 0, or everyone decides 1."""
    agents = range(n + 1)
    # All 0 and all 1 are the first and last rows of the binary input complex.
    full = initial_complex(n, (0, 1))
    decisions = ChromaticComplex(n, [full.rows[0], full.rows[-1]], full.vertices())
    pre = tuple(or_(*(atom(a, d) for a in agents)) for d in (0, 1))
    return ActionModel(decisions, pre, "bc")


@_collector_paused
def set_agreement_action(n: int, k: int, values: Iterable[int]) -> ActionModel:
    """Decision vectors over at most k distinct values, each an input somewhere."""
    if not 1 <= k <= n + 1:
        raise ValueError(f"agreement bound {k} out of range 1..{n + 1}")
    agents = range(n + 1)
    full = initial_complex(n, values)
    decided = [v.obs for v in full.vertices()]
    rows = [row for row in full.rows if len(set(map(decided.__getitem__, row))) <= k]
    chosen = ChromaticComplex(n, rows, full.vertices())
    # Each decision must be some agent's input.
    pre = tuple(
        and_(*(or_(*(atom(b, v.obs) for b in agents)) for v in facet))
        for facet in chosen.facets
    )
    return ActionModel(chosen, pre, f"sa:{k}")


def decide_own_input_action(n: int, values: Iterable[int]) -> ActionModel:
    """The trivial task: every agent decides exactly its own input."""
    decisions = initial_complex(n, values)
    return ActionModel(decisions, tuple(map(pin_formula, decisions.facets)), "sa-trivial")


# -- product update ----------------------------------------------------------


@_collector_paused
def apply_action(model: SimplicialModel, action: ActionModel) -> SimplicialModel:
    """The product update: keep each (input, action) facet pair whose input
    satisfies the action's precondition, asking once per distinct precondition."""
    if model.complex.n != action.complex.n:
        raise ValueError("dimension mismatch between model and action")
    groups: dict[Formula, list[int]] = {}
    for j, pre in enumerate(action.pre):
        groups.setdefault(pre, []).append(j)

    def admitted(x) -> list[int]:
        """The ids of the action facets whose preconditions x satisfies."""
        return [j for pre, ys in groups.items() if model.satisfies(x, pre) for j in ys]

    rows, vertices = _product_facets(model.complex, action.complex, (
        (i, ys) for i, ys in enumerate(map(admitted, model.complex.facets)) if ys
    ))
    if not rows:
        raise ValueError("empty product update: preconditions exclude every pair")
    return induce_model(ChromaticComplex(model.complex.n, rows, vertices), "left")


# -- serialization -----------------------------------------------------------


def action_to_json(action: ActionModel) -> dict:
    doc = complex_to_json(action.complex)
    doc["name"] = action.name
    doc["pre"] = {str(i): render(phi) for i, phi in enumerate(action.pre)}
    return doc


def action_from_json(data: dict) -> ActionModel:
    """The action of a document whose `pre` entry `str(i)` guards its i-th
    listed facet, naming only agents 0..n; a facet listed twice must carry
    one precondition, and `pre` has no other entries."""
    complex, ids = complex_from_json(data)
    raw = data.get("pre")
    if not isinstance(raw, dict):
        raise ValueError("malformed action document: missing preconditions")
    pre: list[Formula | None] = [None] * len(complex)
    for i, j in enumerate(ids):
        text = raw.get(str(i))
        if not isinstance(text, str):
            raise ValueError(f"facet {i} lacks a precondition")
        phi = parse(text)  # interned: one object per formula
        if pre[j] is None:
            bad = sorted(a for a in phi.mentions if a > complex.n)
            if bad:
                raise ValueError(
                    f"facet {i}'s precondition names agents {bad} outside 0..{complex.n}"
                )
            pre[j] = phi
        elif pre[j] is not phi:
            raise ValueError(f"facet {i} is listed twice with different preconditions")
    if len(raw) > len(ids):
        listings = set(map(str, range(len(ids))))
        extra = next(key for key in raw if key not in listings)
        raise ValueError(f"precondition key {extra!r} names no listed facet")
    name = _json_field(data, "name", str, "action document") if "name" in data else "imported"
    return ActionModel(complex, tuple(pre), name)
