"""Kripke models induced from chromatic complexes, and formula satisfaction.

Worlds are facets; agent `a` cannot distinguish two worlds exactly when they
share their `a`-colored vertex. Atoms record input values, taken either from
the vertex observation itself or, for product models, from its left half.
"""

from dataclasses import dataclass

from .complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    complex_from_json,
    complex_to_json,
    shared_colors,
)
from .formulas import Formula, agents_of


@dataclass(frozen=True)
class Verdict:
    """Either valid, or refuted at the carried facet."""

    counterexample: Facet | None = None

    @property
    def is_valid(self) -> bool:
        return self.counterexample is None


class SimplicialModel:
    """An immutable model: a complex plus, per facet, its set of input atoms.

    Evaluation results and common-knowledge closures are memoized per node
    and facet; with interned formulas the caches stay coherent for the whole
    lifetime of the model.
    """

    def __init__(self, complex: ChromaticComplex, atoms: tuple[frozenset, ...]):
        if len(atoms) != len(complex.facets):
            raise ValueError("one atom set per facet required")
        self.complex = complex
        self._atoms = atoms
        # For each agent, group facets by their vertex of that color; the
        # groups are exactly the indistinguishability classes. Facets of a
        # complex hold colors 0..n in order, so agent a's vertex is at index a.
        self._classes: list[dict[Vertex, tuple[int, ...]]] = []
        for a in range(complex.n + 1):
            groups: dict[Vertex, list[int]] = {}
            for i, f in enumerate(complex.facets):
                groups.setdefault(f.vertices[a], []).append(i)
            self._classes.append({v: tuple(ids) for v, ids in groups.items()})
        self._eval_memo: dict[tuple[int, int], bool] = {}
        self._closure_memo: dict[tuple[tuple[int, ...], int], frozenset[int]] = {}
        self._checked_agents: set[int] = set()

    @property
    def n(self) -> int:
        return self.complex.n

    def agents(self) -> range:
        return range(self.complex.n + 1)

    def atoms_of(self, facet: Facet) -> frozenset:
        return self._atoms[self.complex.index(facet)]

    def indistinguishable(self, facet: Facet, agent: int) -> tuple[Facet, ...]:
        ids = self._classes[agent][facet.vertex(agent)]
        return tuple(self.complex.facets[i] for i in ids)

    # -- satisfaction ------------------------------------------------------

    def _validate_agents(self, phi: Formula) -> None:
        if phi.uid in self._checked_agents:
            return
        bad = sorted(a for a in agents_of(phi) if a < 0 or a > self.complex.n)
        if bad:
            raise ValueError(
                f"agent ids {bad} outside this model's range 0..{self.complex.n}"
            )
        self._checked_agents.add(phi.uid)

    def satisfies(self, facet: Facet, phi: Formula) -> bool:
        self._validate_agents(phi)
        return self._eval(phi, self.complex.index(facet))

    def _eval(self, phi: Formula, idx: int) -> bool:
        key = (phi.uid, idx)
        memo = self._eval_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind = phi.kind
        if kind == "false":
            result = False
        elif kind == "atom":
            result = (phi.agent, phi.value) in self._atoms[idx]
        elif kind == "or":
            result = any(self._eval(c, idx) for c in phi.children)
        elif kind == "and":
            result = all(self._eval(c, idx) for c in phi.children)
        elif kind == "not":
            result = not self._eval(phi.children[0], idx)
        elif kind == "know":
            facet = self.complex.facets[idx]
            ids = self._classes[phi.agent][facet.vertices[phi.agent]]
            child = phi.children[0]
            result = all(self._eval(child, j) for j in ids)
        elif kind == "dist":
            child = phi.children[0]
            result = all(self._eval(child, j) for j in self._related_ids(idx, phi.agents))
        elif kind == "common":
            child = phi.children[0]
            result = all(self._eval(child, j) for j in self._closure_ids(idx, phi.agents))
        else:  # pragma: no cover - exhaustive over kinds
            raise AssertionError(kind)
        memo[key] = result
        return result

    def _related_ids(self, idx: int, agents: frozenset[int]) -> tuple[int, ...]:
        if not agents:
            return tuple(range(len(self.complex.facets)))
        facet = self.complex.facets[idx]
        ordered = sorted(agents)
        ids = set(self._classes[ordered[0]][facet.vertices[ordered[0]]])
        for a in ordered[1:]:
            ids &= set(self._classes[a][facet.vertices[a]])
        return tuple(sorted(ids))

    def _closure_ids(self, idx: int, agents: frozenset[int]) -> frozenset[int]:
        key = (tuple(sorted(agents)), idx)
        hit = self._closure_memo.get(key)
        if hit is not None:
            return hit
        seen = {idx}
        frontier = [idx]
        while frontier:
            nxt = []
            for i in frontier:
                facet = self.complex.facets[i]
                for a in agents:
                    for j in self._classes[a][facet.vertices[a]]:
                        if j not in seen:
                            seen.add(j)
                            nxt.append(j)
            frontier = nxt
        component = frozenset(seen)
        agents_key = key[0]
        for i in component:
            self._closure_memo[(agents_key, i)] = component
        return component

    # -- queries -----------------------------------------------------------

    def validity(self, phi: Formula) -> Verdict:
        """Valid, or the first falsifying facet in canonical order."""
        self._validate_agents(phi)
        for idx, facet in enumerate(self.complex.facets):
            if not self._eval(phi, idx):
                return Verdict(facet)
        return Verdict()

    def counterexamples(self, phi: Formula, cap: int = 10) -> list[Facet]:
        """Up to `cap` falsifying facets, in canonical order."""
        if cap < 1:
            raise ValueError(f"counterexample cap must be at least 1, got {cap}")
        self._validate_agents(phi)
        found = []
        for idx, facet in enumerate(self.complex.facets):
            if not self._eval(phi, idx):
                found.append(facet)
                if len(found) >= cap:
                    break
        return found

    def _agent_set(self, agents) -> frozenset[int]:
        group = frozenset(agents)
        for a in group:
            if not 0 <= a <= self.complex.n:
                raise KeyError(f"no vertex of color {a}")
        return group

    def common_reach(self, facet: Facet, agents) -> frozenset[Facet]:
        """Facets reachable by chains of indistinguishability steps in `agents`."""
        ids = self._closure_ids(self.complex.index(facet), self._agent_set(agents))
        return frozenset(self.complex.facets[i] for i in ids)

    def distributed_related(self, facet: Facet, agents) -> frozenset[Facet]:
        """Facets sharing this facet's vertex for every agent in `agents`."""
        ids = self._related_ids(self.complex.index(facet), self._agent_set(agents))
        return frozenset(self.complex.facets[i] for i in ids)


def induce_model(complex: ChromaticComplex, projection: str = "obs") -> SimplicialModel:
    """Build the model whose atoms read input values off each facet.

    `projection` selects where the input value lives: `"obs"` for complexes
    whose observations are the values themselves, `"left"` for product
    complexes carrying (input, action) pairs.
    """
    if projection not in ("obs", "left"):
        raise ValueError(f"unknown projection {projection!r}")
    # Facets share vertices, and product facets share their input halves, so
    # each vertex's atom and each distinct atom set is made once.
    entries: dict[Vertex, tuple[int, int]] = {}
    shared: dict[frozenset, frozenset] = {}
    atom_sets = []
    for facet in complex.facets:
        for v in facet.vertices:
            if v in entries:
                continue
            value = v.obs
            if projection == "left":
                if not (isinstance(value, tuple) and len(value) == 2):
                    raise ValueError(f"vertex {v.text()} is not a product vertex")
                value = value[0]
            if not isinstance(value, int):
                raise ValueError(f"input of vertex {v.text()} is not an integer value")
            entries[v] = (v.color, value)
        atoms = frozenset(map(entries.__getitem__, facet.vertices))
        atom_sets.append(shared.setdefault(atoms, atoms))
    return SimplicialModel(complex, tuple(atom_sets))


def morphism_violation(
    delta: dict[Vertex, Vertex],
    source: SimplicialModel,
    target: SimplicialModel,
) -> str | None:
    """First reason `delta` fails to be a label-preserving simplicial map."""
    for v in sorted(source.complex.vertices(), key=Vertex.key):
        image = delta.get(v)
        if image is None:
            return f"vertex {v.text()} is unmapped"
        if image.color != v.color:
            return f"vertex {v.text()} maps to color {image.color}"
    for facet in source.complex.facets:
        image = Facet(delta[v] for v in facet.vertices)
        if image not in target.complex:
            return f"facet {facet.text()} maps outside the target complex"
        if target.atoms_of(image) != source.atoms_of(facet):
            return f"facet {facet.text()} changes its labeling"
    return None


def check_morphism(
    delta: dict[Vertex, Vertex],
    source: SimplicialModel,
    target: SimplicialModel,
) -> bool:
    """True when `delta` is color-preserving, simplicial, and label-preserving."""
    return morphism_violation(delta, source, target) is None


def map_facet(delta: dict[Vertex, Vertex], facet: Facet) -> Facet:
    return Facet(delta[v] for v in facet.vertices)


def model_to_json(model: SimplicialModel) -> dict:
    doc = complex_to_json(model.complex)
    doc["atoms"] = [
        sorted(model._atoms[i]) for i in range(len(model.complex.facets))
    ]
    return doc


def model_from_json(data: dict) -> SimplicialModel:
    complex = complex_from_json(data)
    kinds = {
        "pair" if isinstance(v.obs, tuple) else "plain"
        for f in complex.facets
        for v in f.vertices
    }
    if kinds == {"pair"}:
        projection = "left"
    elif kinds == {"plain"}:
        projection = "obs"
    else:
        raise ValueError("mixed observation kinds; cannot infer input projection")
    model = induce_model(complex, projection)
    if "atoms" in data:
        recorded = [frozenset(map(tuple, entry)) for entry in data["atoms"]]
        if tuple(recorded) != model._atoms:
            raise ValueError("recorded atoms disagree with the complex")
    return model


def complex_to_dot(complex: ChromaticComplex, name: str = "model") -> str:
    """Graphviz rendering of the adjacency graph, edges labeled by shared agents."""
    lines = [f"graph {name} {{", "  node [shape=box];"]
    facets = complex.facets
    for i, facet in enumerate(facets):
        lines.append(f'  f{i} [label="{facet.text()}"];')
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            agents = sorted(shared_colors(facets[i], facets[j]))
            if agents:
                label = ",".join(str(a) for a in agents)
                lines.append(f'  f{i} -- f{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_to_dot(model: SimplicialModel, name: str = "model") -> str:
    return complex_to_dot(model.complex, name)


def verdict_text(verdict: Verdict) -> str:
    if verdict.is_valid:
        return "valid"
    return f"counterexample: {verdict.counterexample.text()}"
