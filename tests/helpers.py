"""Shared test utilities: point queries at a `Facet` (`holds`) and input
pins (`pin_formula`), facet locators and point-form facet operations
(shared colors, per-pair product facets, projections, input, view and
decision values, least views), the canonical complex of loose facets, the
memo-free complex decoder, the complex, model and action documents as
dicts (the byte reference for the JSON writer), an independent naive
evaluator, common knowledge reach by search over vertex stars, the
per-pair product update, the view-action reference over checked `Facet`s,
point-form morphism and knowledge checks, the pairwise DOT export, the
plain backtracking reference for the decision-map search, ordered set
partitions, and direct constructions of what the package derives from
general code (round view vectors by product-then-filter, immediate
snapshot vectors from ordered set partitions, the inductive wait-free
k-agreement obstruction)."""

from itertools import combinations, product as iter_product

from obstruction.adversaries import Adversary
from obstruction.complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    _json_field,
    _product_facets,
    facet_texts,
    obs_from_json,
    obs_key,
    obs_to_json,
)
from obstruction.formulas import Formula, and_, atom, distributed, know, not_, or_, render
from obstruction.models import SimplicialModel, induce_model
from obstruction.tasks import ActionModel, initial_complex


def holds(model: SimplicialModel, facet: Facet, phi: Formula) -> bool:
    """Whether `phi` holds at `facet`, a facet of the model's complex: the
    package's evaluator, asked at the facet's id."""
    return model.satisfies(model.complex.index(facet), phi)


def pin_formula(facet: Facet) -> Formula:
    """Conjunction of the atoms holding exactly at this input facet: the
    reference for the view actions' and the trivial task's preconditions."""
    return and_(*(atom(v.color, v.obs) for v in facet))


def shared_colors(x: Facet, y: Facet) -> frozenset[int]:
    """Colors of the vertices the two facets have in common."""
    return frozenset(v.color for v in set(x) & set(y))


def product_facet(x: Facet, y: Facet) -> Facet:
    """Pair each vertex of x with y's vertex of the same color."""
    right = {w.color: w.obs for w in y}
    for v in x:
        if v.color not in right:
            raise KeyError(f"no vertex of color {v.color}")
    return Facet(Vertex(v.color, (v.obs, right[v.color])) for v in x)


def project_left(z: Facet) -> Facet:
    """First component of a product facet."""
    return Facet(Vertex(v.color, v.obs[0]) for v in z)


def project_right(z: Facet) -> Facet:
    """Second component of a product facet."""
    return Facet(Vertex(v.color, v.obs[1]) for v in z)


def cartesian_product(c: ChromaticComplex, d: ChromaticComplex) -> ChromaticComplex:
    """The package's `_product_facets` run on every pair of facets, in the
    factor-id order it hands `ChromaticComplex`."""
    return ChromaticComplex(c.n, *_product_facets(c, d, ((i, range(len(d))) for i in range(len(c)))))


def input_of(facet: Facet, agent: int) -> int:
    """Input value at the agent's vertex of a product facet."""
    obs = facet[agent].obs
    if isinstance(obs, tuple) and len(obs) == 2 and isinstance(obs[0], int):
        return obs[0]
    raise ValueError(f"vertex of color {agent} carries no input component")


def output_of(facet: Facet, agent: int) -> int:
    """Decision value at the agent's vertex of a decision-task product facet."""
    return facet[agent].obs[1]


def view_of(facet: Facet, agent: int) -> frozenset:
    """Snapshot view at the agent's vertex of a protocol (or action) facet."""
    obs = facet[agent].obs
    if isinstance(obs, tuple) and len(obs) == 2:
        obs = obs[1]
    if isinstance(obs, frozenset):
        return obs
    raise ValueError(f"vertex of color {agent} carries no view")


def seen_agents(facet: Facet, agent: int) -> frozenset[int]:
    """Agents whose writes appear in this agent's view."""
    return frozenset(b for b, _ in view_of(facet, agent))


def min_view(facet: Facet) -> frozenset[int]:
    """Agents seen by everybody: the least element of the view chain."""
    return frozenset.intersection(*(seen_agents(facet, a) for a in range(len(facet))))


def facet_with_values(model: SimplicialModel, values) -> Facet:
    """The facet whose per-color observations equal `values`."""
    target = tuple(values)
    for f in model.complex.facets:
        if tuple(v.obs for v in f.vertices) == target:
            return f
    raise AssertionError(f"no facet with values {target}")


def protocol_facet(model: SimplicialModel, inputs, seen_sets) -> Facet:
    """The product facet with the given input vector and per-agent seen sets."""
    n = model.complex.n
    wanted = [frozenset(s) for s in seen_sets]
    for f in model.complex.facets:
        if all(input_of(f, a) == inputs[a] for a in range(n + 1)) and all(
            seen_agents(f, a) == wanted[a] for a in range(n + 1)
        ):
            return f
    raise AssertionError(f"no facet with inputs {inputs} and views {seen_sets}")


def canonical_complex(n: int, facets) -> ChromaticComplex:
    """Reference for the canonical order: the complex of `Facet`s given in
    any order, maybe repeated, with the distinct facets sorted by `Facet.key`
    and the vertices by `Vertex.key`, handed to the one constructor, which
    checks their colors."""
    distinct = sorted(set(facets), key=Facet.key)
    vertices = sorted({v for f in distinct for v in f}, key=Vertex.key)
    number = {v: i for i, v in enumerate(vertices)}
    return ChromaticComplex(n, [tuple(number[v] for v in f) for f in distinct], vertices)


def naive_complex_from_json(data) -> tuple[ChromaticComplex, list[int]]:
    """`complex_from_json` without its memo: every vertex entry's fields are
    checked and its observation decoded at each listing."""
    n = _json_field(data, "n", int, "complex document")
    facets = [
        Facet(
            Vertex(
                _json_field(v, "color", int, "vertex entry"),
                obs_from_json(_json_field(v, "obs", None, "vertex entry")),
            )
            for v in _json_field(entry, "vertices", list, "facet entry")
        )
        for entry in _json_field(data, "facets", list, "complex document")
    ]
    c = canonical_complex(n, facets)
    return c, [c.index(f) for f in facets]


def complex_to_json(c: ChromaticComplex) -> dict:
    """The complex as a JSON document with one `{"color", "obs"}` entry per
    distinct vertex; the facets holding a vertex share its entry object.
    `json.dumps(doc, indent=2)` of it is the byte reference for the
    package's writer, `complexes.complex_to_json`."""
    entries = [{"color": v.color, "obs": obs_to_json(v.obs)} for v in c.vertices()]
    return {
        "n": c.n,
        "facets": [{"vertices": list(map(entries.__getitem__, row))} for row in c.rows],
    }


def model_to_json(model: SimplicialModel) -> dict:
    """`complex_to_json` plus each facet's atoms, as `[agent, value]` pairs in
    agent order: the document `export --format json` writes for a model."""
    doc = complex_to_json(model.complex)
    doc["atoms"] = [list(enumerate(vector)) for vector in model.inputs]
    return doc


def action_to_json(action: ActionModel) -> dict:
    """`complex_to_json` plus the action's name and each facet's rendered
    precondition keyed by its id: the document written for an action."""
    doc = complex_to_json(action.complex)
    doc["name"] = action.name
    doc["pre"] = {str(i): render(phi) for i, phi in enumerate(action.pre)}
    return doc


def naive_satisfies(model: SimplicialModel, facet: Facet, phi) -> bool:
    """Plain recursive evaluation straight off the definitions, no caches.

    Relations are recomputed from shared vertices on every query, so this is
    an independent cross-check for the memoized evaluator.
    """
    facets = model.complex.facets

    def related(x, agent):
        return [y for y in facets if agent in shared_colors(x, y)]

    def related_all(x, agents):
        return [y for y in facets if all(a in shared_colors(x, y) for a in agents)]

    def closure(x, agents):
        component = {x}
        changed = True
        while changed:
            changed = False
            for y in facets:
                if y in component:
                    continue
                if any(
                    a in shared_colors(z, y) for z in component for a in agents
                ):
                    component.add(y)
                    changed = True
        return component

    def ev(x, node):
        kind = node.kind
        if kind == "false":
            return False
        if kind == "atom":
            vector = model.inputs[model.complex.index(x)]
            return node.agent < len(vector) and vector[node.agent] == node.value
        if kind == "or":
            return any(ev(x, c) for c in node.children)
        if kind == "and":
            return all(ev(x, c) for c in node.children)
        if kind == "not":
            return not ev(x, node.children[0])
        if kind == "know":
            return all(ev(y, node.children[0]) for y in related(x, node.agent))
        if kind == "dist":
            return all(ev(y, node.children[0]) for y in related_all(x, node.agents))
        if kind == "common":
            return all(ev(y, node.children[0]) for y in closure(x, node.agents))
        raise AssertionError(kind)

    return ev(facet, phi)


def common_reach(model: SimplicialModel, facet: Facet, agents) -> frozenset[Facet]:
    """Reference for the classes of `C[agents]`: the facets reachable from
    `facet` by steps between facets that share a vertex of an agent in
    `agents`, found by search over vertex stars."""
    stars: dict[Vertex, list[Facet]] = {}
    for f in model.complex.facets:
        for v in f:
            stars.setdefault(v, []).append(f)
    seen, todo = {facet}, [facet]
    while todo:
        f = todo.pop()
        for a in agents:
            for g in stars[f[a]]:
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
    return frozenset(seen)


def map_facet(delta: dict[Vertex, Vertex], facet: Facet) -> Facet:
    """The image of a facet under a vertex map, as a new facet."""
    return Facet(delta[v] for v in facet.vertices)


def naive_product_update(model: SimplicialModel, action: ActionModel) -> SimplicialModel:
    """Reference for `tasks.apply_action`: one precondition query per
    (input facet, action facet) pair, keeping the pairs that pass."""
    kept = [
        product_facet(x, y)
        for x in model.complex.facets
        for y, pre in zip(action.complex.facets, action.pre)
        if naive_satisfies(model, x, pre)
    ]
    return induce_model(canonical_complex(model.complex.n, kept), "left")


def pairwise_dot(complex: ChromaticComplex) -> str:
    """Reference for `models.complex_to_dot`: one edge per pair of facets
    that share colors, found by testing every pair."""
    lines = ["graph model {", "  node [shape=box];"]
    facets = complex.facets
    for i, text in enumerate(facet_texts(complex)):
        lines.append(f'  f{i} [label="{text}"];')
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            agents = sorted(shared_colors(facets[i], facets[j]))
            if agents:
                label = ",".join(str(a) for a in agents)
                lines.append(f'  f{i} -- f{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_view_action(n: int, vectors, inputs, name: str) -> ActionModel:
    """Reference for `tasks._view_action`: each facet made through the
    checking `Facet` constructor from a table of (agent, view) vertices."""
    cells = [tuple(enumerate(vector)) for vector in vectors]
    distinct = {cell for vector in cells for cell in vector}
    shared: dict[Vertex, Vertex] = {}
    facets, pre = [], {}
    for x in initial_complex(n, inputs).facets:
        guard = pin_formula(x)
        at = {}
        for a, seen in distinct:
            v = Vertex(a, frozenset((b, x.vertices[b].obs) for b in seen))
            at[(a, seen)] = shared.setdefault(v, v)
        for vector in cells:
            facet = Facet(map(at.__getitem__, vector))
            facets.append(facet)
            pre[facet] = guard
    complex = canonical_complex(n, facets)
    return ActionModel(complex, tuple(map(pre.__getitem__, complex.facets)), name)


def assert_checked_facets(complex: ChromaticComplex) -> None:
    """Every facet equals, and hashes like, the checked `Facet` of its vertices
    and the plain tuple of them; every vertex equals, and hashes like, its
    plain (color, obs) pair."""
    for f in complex.facets:
        checked = Facet(f.vertices)
        assert f == checked and hash(f) == hash(checked), f
        assert f.vertices == checked.vertices
        plain = tuple(f)
        assert f == plain and hash(f) == hash(plain), f
    for v in complex.vertices():
        pair = (v.color, v.obs)
        assert v == pair and hash(v) == hash(pair), v


def naive_knowledge_gain(delta, source: SimplicialModel, target: SimplicialModel, formulas) -> bool:
    """Reference for `solver.knowledge_gain_check` on a morphism: every
    positive formula true at a facet's image is true at the facet, checked
    point by point with `naive_satisfies` on mapped facets."""
    return all(
        naive_satisfies(source, facet, phi)
        for facet in source.complex.facets
        for phi in formulas
        if naive_satisfies(target, map_facet(delta, facet), phi)
    )


def naive_find_morphism(protocol: SimplicialModel, task: SimplicialModel, budget: int):
    """Reference for `solver.find_morphism`: the same search order, checked plainly.

    Recursive backtracking that re-derives each touched facet's fixed
    positions and rescans its allowed decision vectors on every node. Returns
    (status, explored, decision per protocol vertex or None); only for small
    instances, since it recurses once per protocol vertex.
    """
    decisions = {}
    for v in task.complex.vertices():
        options = decisions.setdefault((v.color, v.obs[0]), [])
        if v.obs[1] not in options:
            options.append(v.obs[1])
    for options in decisions.values():
        options.sort(key=obs_key)

    allowed_by_input = {}
    for f in task.complex.facets:
        vector = tuple(v.obs[1] for v in f.vertices)
        allowed_by_input.setdefault(project_left(f), []).append(vector)

    vertices = sorted(protocol.complex.vertices(), key=Vertex.key)
    candidates = {v: decisions.get((v.color, v.obs[0]), []) for v in vertices}
    facets = protocol.complex.facets
    membership = {v: [] for v in vertices}
    for i, facet in enumerate(facets):
        for v in facet.vertices:
            membership[v].append(i)
    order = sorted(
        vertices, key=lambda v: (len(candidates[v]), -len(membership[v]), v.key())
    )
    assignment = {}
    explored = 0

    def consistent(facet_id):
        facet = facets[facet_id]
        fixed = [(i, assignment[v]) for i, v in enumerate(facet.vertices) if v in assignment]
        return any(
            all(vector[i] == d for i, d in fixed)
            for vector in allowed_by_input.get(project_left(facet), [])
        )

    def search(depth):
        nonlocal explored
        if depth == len(order):
            return True
        vertex = order[depth]
        for d in candidates[vertex]:
            if explored >= budget:
                raise OverflowError
            explored += 1
            assignment[vertex] = d
            if all(consistent(i) for i in membership[vertex]):
                if search(depth + 1):
                    return True
            del assignment[vertex]
        return False

    try:
        found = search(0)
    except OverflowError:
        return "resource-limit", explored, None
    if not found:
        return "unsolvable", explored, None
    return "solvable", explored, dict(assignment)


def _subsets(pool, sizes) -> list[frozenset[int]]:
    ordered = sorted(pool)
    return [frozenset(c) for size in sizes for c in combinations(ordered, size)]


def product_view_vectors(n: int, adversary: Adversary) -> list[tuple[frozenset[int], ...]]:
    """Reference for `tasks.view_vectors`: every per-agent choice of a
    self-including surviving view, then only the chains by inclusion."""
    agents = range(n + 1)
    nonempty = sorted(tuple(sorted(s)) for s in _subsets(agents, range(1, n + 2)))
    options = [
        [frozenset(s) for s in nonempty if a in s and adversary.contains(s)]
        for a in agents
    ]
    return [
        combo
        for combo in iter_product(*options)
        if all(
            combo[i] <= combo[j] or combo[j] <= combo[i]
            for i in agents
            for j in range(i + 1, n + 1)
        )
    ]


def ordered_set_partitions(items) -> list[tuple[frozenset[int], ...]]:
    """All ordered partitions into nonempty blocks, in lexicographic block order."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        blocks = sorted(
            c for size in range(1, len(remaining) + 1) for c in combinations(remaining, size)
        )
        for block in blocks:
            rest = tuple(x for x in remaining if x not in block)
            for tail in rec(rest):
                yield (frozenset(block),) + tail

    return list(rec(tuple(sorted(items))))


def partition_view_vectors(n: int) -> list[tuple[frozenset[int], ...]]:
    """Immediate snapshot view vectors, one per ordered set partition of the
    agents: every agent sees the writes of all blocks up to its own."""
    vectors = []
    for partition in ordered_set_partitions(range(n + 1)):
        seen: frozenset[int] = frozenset()
        vector = [seen] * (n + 1)
        for block in partition:
            seen |= block
            for a in block:
                vector[a] = seen
        vectors.append(tuple(vector))
    return vectors


def inductive_waitfree_obstruction(n: int, k: int) -> Formula:
    """Reference for `generators.waitfree_kset_obstruction`: the wait-free
    case built by its own recursion over growing agent groups."""
    agents = range(n + 1)
    memo: dict[frozenset[int], Formula] = {}

    def values_known(group):
        return or_(*(atom(b, j) for j in sorted(group) for b in agents))

    def guarded(group: frozenset[int]) -> Formula:
        if group not in memo:
            rest = sorted(set(agents) - group)
            parts = [not_(atom(a, a)) for a in rest]
            parts += [know(a, values_known(group)) for a in rest]
            parts += [
                guarded(group | extra)
                for extra in _subsets(rest, range(1, n + 1 - len(group)))
            ]
            memo[group] = distributed(group, or_(*parts))
        return memo[group]

    cases = [guarded(g) for g in _subsets(agents, range(1, k + 1))]
    return or_(*(not_(atom(a, a)) for a in agents), *cases)
