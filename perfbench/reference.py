"""Known-answer checkers that share no evaluation code with the package.

`ReferenceModel` evaluates a formula once for the whole model, as a bitset
over facet ids, straight from the vertices of the facets: an atom holds where
the agent's input value is the atom's value, `K[a]` keeps the `a`-classes
inside the child's set, `D[G]` the classes of the meet of G's partitions, and
`C[G]` the connected components of their union. It reads only `facets`,
`Vertex.color`, `Vertex.obs` and the formula nodes; it never calls
`SimplicialModel` satisfaction, so it can judge the package's verdicts.
"""


def _input(obs):
    """Input value of a vertex observation: the obs itself, or its left half."""
    return obs[0] if isinstance(obs, tuple) else obs


class ReferenceModel:
    def __init__(self, facets):
        self.facets = tuple(facets)
        self.size = len(self.facets)
        self.all = (1 << self.size) - 1
        self.atoms: dict[tuple[int, int], int] = {}
        self._keys = []  # per facet: one hashable key per agent's vertex
        for i, facet in enumerate(self.facets):
            keys = []
            for v in facet.vertices:
                atom = (v.color, _input(v.obs))
                self.atoms[atom] = self.atoms.get(atom, 0) | (1 << i)
                keys.append((v.color, v.obs))
            self._keys.append(tuple(keys))
        self._blocks: dict[tuple, list[int]] = {}
        self._memo: dict = {}  # keyed by node object, which keeps it alive

    def _partition(self, agents: tuple[int, ...]) -> list[int]:
        """Facet sets sharing the vertex of every agent in `agents`."""
        groups: dict[tuple, int] = {}
        for i, keys in enumerate(self._keys):
            key = tuple(keys[a] for a in agents)
            groups[key] = groups.get(key, 0) | (1 << i)
        return list(groups.values())

    def _components(self, agents: tuple[int, ...]) -> list[int]:
        """Connected components of the union of the agents' partitions."""
        parent = list(range(self.size))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a in agents:
            first: dict = {}
            for i, keys in enumerate(self._keys):
                j = first.setdefault(keys[a], i)
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        comps: dict[int, int] = {}
        for i in range(self.size):
            root = find(i)
            comps[root] = comps.get(root, 0) | (1 << i)
        return list(comps.values())

    def _blocks_for(self, kind: str, agents) -> list[int]:
        key = (kind, tuple(sorted(agents)))
        blocks = self._blocks.get(key)
        if blocks is None:
            if not key[1]:
                blocks = [self.all]
            elif kind == "common":
                blocks = self._components(key[1])
            else:
                blocks = self._partition(key[1])
            self._blocks[key] = blocks
        return blocks

    def mask(self, phi) -> int:
        """The set of facet ids where `phi` holds."""
        hit = self._memo.get(phi)
        if hit is not None:
            return hit
        kind = phi.kind
        if kind == "false":
            result = 0
        elif kind == "atom":
            result = self.atoms.get((phi.agent, phi.value), 0)
        elif kind == "or":
            result = 0
            for child in phi.children:
                result |= self.mask(child)
        elif kind == "and":
            result = self.all
            for child in phi.children:
                result &= self.mask(child)
        elif kind == "not":
            result = self.all & ~self.mask(phi.children[0])
        elif kind in ("know", "dist", "common"):
            agents = (phi.agent,) if kind == "know" else phi.agents
            inside = self.mask(phi.children[0])
            result = 0
            for block in self._blocks_for(kind, agents):
                if block & ~inside == 0:
                    result |= block
        else:
            raise ValueError(f"unknown formula kind {kind!r}")
        self._memo[phi] = result
        return result

    def holds_on_large_class(self, phi) -> bool:
        """Whether the `C[G]` node `phi` holds on a G-class of at least half the facets."""
        mask = self.mask(phi)
        return any(
            block & ~mask == 0 and 2 * block.bit_count() >= self.size
            for block in self._blocks_for("common", phi.agents)
        )

    def counterexample_ids(self, phi, cap: int = 10) -> list[int]:
        """The first `cap` facet ids, in canonical order, where `phi` fails."""
        missing = self.all & ~self.mask(phi)
        ids = []
        while missing and len(ids) < cap:
            low = missing & -missing
            ids.append(low.bit_length() - 1)
            missing ^= low
        return ids


def _vertex_key(v):
    return (v.color, v.obs)


def witness_problem(witness, protocol_facets, task_facets) -> str | None:
    """Why `witness` does not solve the task, or None when it does.

    A solving map sends each protocol vertex to a task vertex of the same
    color and the same input value, and every protocol facet onto a task facet.
    """
    targets = {tuple(_vertex_key(v) for v in f.vertices) for f in task_facets}
    for facet in protocol_facets:
        image = []
        for v in facet.vertices:
            w = witness.get(v)
            if w is None:
                return f"vertex {v.color}:{v.obs!r} is unmapped"
            if w.color != v.color or _input(w.obs) != _input(v.obs):
                return f"vertex {v.color}:{v.obs!r} changes color or input"
            image.append(_vertex_key(w))
        if tuple(image) not in targets:
            return "a protocol facet maps outside the task"
    return None


def knowledge_preserved(witness, source: ReferenceModel, target: ReferenceModel, formulas) -> bool:
    """Every formula true at a facet's image is true at the facet itself."""
    index = {tuple(_vertex_key(v) for v in f.vertices): i for i, f in enumerate(target.facets)}
    image_of = [
        index[tuple(_vertex_key(witness[v]) for v in f.vertices)] for f in source.facets
    ]
    for phi in formulas:
        src, tgt = source.mask(phi), target.mask(phi)
        for i, j in enumerate(image_of):
            if tgt >> j & 1 and not src >> i & 1:
                return False
    return True
