"""Kripke models induced from chromatic complexes, and formula satisfaction.

Worlds are facets; agent `a` cannot distinguish two worlds exactly when they
share their `a`-colored vertex. Each facet is labelled with its input vector,
read either from the vertex observations themselves or, for product models,
from their left halves; the atom `input(a, v)` holds where entry `a` is `v`.
"""

import operator
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, islice, repeat
from marshal import dumps
from typing import Iterable, Iterator

from .complexes import (
    JSON_KEY_VERSION,
    ChromaticComplex,
    Facet,
    Vertex,
    complex_from_json,
    facet_texts,
)
from .formulas import Formula

# Facet count above which `K`, `D` and `C` are evaluated from per-facet block
# ids rather than from one facet mask per block. A mask is as wide as the
# model, so building one per block costs time quadratic in the facet count;
# on small models the masks are the faster of the two.
BLOCK_ID_CUTOVER = 4096


@dataclass(frozen=True)
class Verdict:
    """Either valid, or refuted at the carried facet."""

    counterexample: Facet | None = None

    @property
    def is_valid(self) -> bool:
        return self.counterexample is None


class SimplicialModel:
    """An immutable model: a complex plus, per facet id, its input vector.

    `inputs[i][a]` is agent a's input at facet i; equal vectors are one tuple.

    Satisfaction is set-at-a-time (bitset): each formula node is evaluated
    once for the whole model, as a Python-int mask over facet ids with bit i
    set where the node holds at facet i. Masks are stored per formula uid and
    the partitions behind `K`, `D` and `C` per agent group: above
    `BLOCK_ID_CUTOVER` facets as one block id per facet, else as one mask
    per block. With interned formulas both stay coherent for the whole
    lifetime of the model.
    """

    def __init__(self, complex: ChromaticComplex, inputs: tuple[tuple[int, ...], ...]):
        if len(inputs) != len(complex):
            raise ValueError("one input vector per facet required")
        self.complex = complex
        self.inputs = inputs
        self._all = (1 << len(inputs)) - 1
        self._masks: dict[int, int] = {}
        self._atom_masks: dict[tuple[int, int], int] | None = None
        self._partitions: dict[tuple[str, frozenset[int]], list] = {}
        self._block_masks: dict[tuple[str, frozenset[int]], list[int]] = {}

    @property
    def n(self) -> int:
        return self.complex.n

    # -- satisfaction ------------------------------------------------------

    def _validate_agents(self, phi: Formula) -> None:
        bad = sorted(a for a in phi.mentions if a < 0 or a > self.complex.n)
        if bad:
            raise ValueError(
                f"agent ids {bad} outside this model's range 0..{self.complex.n}"
            )

    def satisfies(self, i: int, phi: Formula) -> bool:
        """Whether `phi` holds at facet id i, which must lie in
        `range(len(self.complex))`: the id is not checked."""
        # Masks are only made under a root whose agents were checked, and a
        # subformula mentions no agent its root does not, so a cached mask
        # implies checked agents.
        mask = self._masks.get(phi.uid)
        if mask is None:
            self._validate_agents(phi)
            mask = self._mask(phi)
        return bool(mask >> i & 1)

    def _mask(self, phi: Formula) -> int:
        """The set of facet ids where `phi` holds."""
        mask = self._masks.get(phi.uid)
        if mask is not None:
            return mask
        kind = phi.kind
        kids = [self._mask(c) for c in phi.children]
        if kind == "false":
            mask = 0
        elif kind == "atom":
            if self._atom_masks is None:
                self._atom_masks = _atom_masks(self.inputs)
            mask = self._atom_masks.get((phi.agent, phi.value), 0)
        elif kind == "or":
            mask = reduce(operator.or_, kids, 0)
        elif kind == "and":
            mask = reduce(operator.and_, kids, self._all)
        elif kind == "not":
            mask = self._all ^ kids[0]
        else:
            # K, D and C hold on the blocks of their partition that lie
            # inside the child's mask; K[a] is D[{a}].
            agents = frozenset((phi.agent,)) if kind == "know" else phi.agents
            kind = "dist" if kind == "know" else kind
            if len(self.inputs) > BLOCK_ID_CUTOVER:
                mask = _inside_blocks(self._block_ids(kind, agents), kids[0], self._all)
            else:
                mask = sum(b for b in self._blocks(kind, agents) if b & kids[0] == b)
        self._masks[phi.uid] = mask
        return mask

    def _block_keys(self, kind: str, agents: frozenset[int]) -> Iterable:
        """Per facet id, in order, the id of its block in the partition that
        `D[agents]` ("dist") or `C[agents]` ("common") quantifies over.

        `D` blocks are the facets sharing their vertex of every agent: for
        one agent, the id of its vertex, column a of the complex's rows; for
        more, the zip of those columns; for none, one block. `C` blocks are
        the connected components of the agents' partitions: roots of a
        union-find over vertex ids, or singletons for no agents.
        """
        rows = self.complex.rows
        if kind == "dist" and len(agents) == 1:
            (a,) = agents
            return map(operator.itemgetter(a), rows)
        columns = [self._block_ids("dist", frozenset((a,))) for a in sorted(agents)]
        if kind == "dist":
            return zip(*columns) if columns else repeat(0, len(rows))
        if not columns:
            return range(len(rows))
        parent = list(range(len(self.complex.vertices())))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for other in columns[1:]:
            for u, w in set(zip(columns[0], other)):
                parent[root(u)] = root(w)
        roots = {u: root(u) for u in set(columns[0])}
        return map(roots.__getitem__, columns[0])

    def _block_ids(self, kind: str, agents: frozenset[int]) -> list:
        """`_block_keys` as a list, kept per partition."""
        ids = self._partitions.get((kind, agents))
        if ids is None:
            ids = self._partitions[(kind, agents)] = list(self._block_keys(kind, agents))
        return ids

    def _blocks(self, kind: str, agents: frozenset[int]) -> list[int]:
        """The blocks of `_block_keys`' partition, as masks of facet ids."""
        blocks = self._block_masks.get((kind, agents))
        if blocks is None:
            masks: dict = {}
            for i, key in enumerate(self._block_keys(kind, agents)):
                masks[key] = masks.get(key, 0) | 1 << i
            blocks = self._block_masks[(kind, agents)] = list(masks.values())
        return blocks

    # -- queries -----------------------------------------------------------

    def _failing_ids(self, phi: Formula, cap: int) -> list[int]:
        """The ids of up to `cap` facets where `phi` fails, ascending."""
        if cap < 1:
            raise ValueError(f"counterexample cap must be at least 1, got {cap}")
        self._validate_agents(phi)
        return list(islice(_bits(self._all ^ self._mask(phi)), cap))

    def validity(self, phi: Formula) -> Verdict:
        """Valid, or the first falsifying facet in canonical order."""
        first = self._failing_ids(phi, 1)
        return Verdict(self.complex.facet(first[0]) if first else None)

    def counterexamples(self, phi: Formula, cap: int = 10) -> list[Facet]:
        """Up to `cap` falsifying facets, in canonical order."""
        return list(map(self.complex.facet, self._failing_ids(phi, cap)))


def _atom_masks(inputs: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], int]:
    """The facet mask of each atom `(agent, value)`, read as the binary digits
    of an int, highest facet id first, in time linear in the facets per atom.
    When at most 256 distinct input vectors occur, they are numbered, and each
    atom's digits are one byte translation of the column of vector numbers;
    else each facet writes its digit into the digits of every atom it holds."""
    vectors = dict.fromkeys(inputs)
    if len(vectors) > 256:
        # An atom's digits start as a copy of all zeros, made when first held.
        digits = defaultdict(bytearray(b"0" * len(inputs)).copy)
        last = len(inputs) - 1
        for i, vector in enumerate(inputs):
            for pair in enumerate(vector):
                digits[pair][last - i] = 49  # ord("1")
        return {pair: int(table, 2) for pair, table in digits.items()}
    # Per atom, the digit of each vector number: "1" for the vectors holding it.
    digits = defaultdict(bytearray(b"0" * 256).copy)
    for k, vector in enumerate(vectors):
        for pair in enumerate(vector):
            digits[pair][k] = 49
    ids = {vector: k for k, vector in enumerate(vectors)}
    column = bytes(map(ids.__getitem__, reversed(inputs)))
    return {pair: int(column.translate(table), 2) for pair, table in digits.items()}


# Byte maps between the digits of a binary numeral and one 0/1 byte per bit.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_BYTE_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _inside_blocks(ids: list, child: int, full: int) -> int:
    """The facets whose block, by the per-facet block `ids`, lies wholly inside
    `child`: all of `full` but the blocks holding a facet outside it. Each step
    is one C-level pass over a byte per facet, lowest facet id first."""
    width = len(ids)
    outside = format(full ^ child, f"0{width}b").encode().translate(_DIGIT_BYTES)[::-1]
    broken = set(compress(ids, outside))
    if not broken:
        return full
    hit = bytes(map(broken.__contains__, ids))
    return full ^ int(hit[::-1].translate(_BYTE_DIGITS), 2)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induce_model(complex: ChromaticComplex, projection: str) -> SimplicialModel:
    """Build the model whose input vectors are read off each facet.

    `projection` selects where the input value lives: `"obs"` for complexes
    whose observations are the values themselves, `"left"` for product
    complexes carrying (input, action) pairs.
    """
    if projection not in ("obs", "left"):
        raise ValueError(f"unknown projection {projection!r}")

    def check(v: Vertex) -> None:
        obs = v.obs
        if projection == "left":
            if not (isinstance(obs, tuple) and len(obs) == 2):
                raise ValueError(f"vertex {v.text()} is not a product vertex")
            obs = obs[0]
        if not isinstance(obs, int):
            raise ValueError(f"input of vertex {v.text()} is not an integer value")

    vertices = complex.vertices()
    try:
        for v in vertices:
            check(v)
    except ValueError:
        # Name the first offending vertex in facet order.
        for v in map(vertices.__getitem__, chain.from_iterable(complex.rows)):
            check(v)
        raise
    # Every vertex carries an integer input: its obs, or item 0 of a product
    # vertex's obs. It is read once per vertex, and the rows, each holding
    # the colors 0..n in order, are read in one C-level pass and regroup
    # n + 1 at a time into each facet's input vector. Equal vectors are
    # interned to one tuple.
    values = [v.obs[0] if projection == "left" else v.obs for v in vertices]
    inputs = map(values.__getitem__, chain.from_iterable(complex.rows))
    vectors = list(zip(*[inputs] * (complex.n + 1)))
    shared = {vector: vector for vector in set(vectors)}
    return SimplicialModel(complex, tuple(map(shared.__getitem__, vectors)))


def _morphism_images(
    delta: dict[Vertex, Vertex],
    source: SimplicialModel,
    target: SimplicialModel,
) -> tuple[str | None, list[int | None]]:
    """`morphism_violation`'s answer, with the facet images it checked (none
    when a vertex fails first): per source facet, the id of the target facet
    `delta` maps it onto, or None. Facets compare as rows of the target's
    vertex ids, one lookup per source vertex."""
    for v in source.complex.vertices():
        image = delta.get(v)
        if image is None:
            return f"vertex {v.text()} is unmapped", []
        if image.color != v.color:
            return f"vertex {v.text()} maps to color {image.color}", []
    ids = target.complex.vertex_id
    by_row = {row: j for j, row in enumerate(target.complex.rows)}
    image_id = [ids.get(delta[v]) for v in source.complex.vertices()]
    images = [by_row.get(tuple(map(image_id.__getitem__, row))) for row in source.complex.rows]
    for i, j in enumerate(images):
        if j is None or target.inputs[j] != source.inputs[i]:
            what = "maps outside the target complex" if j is None else "changes its labeling"
            return f"facet {source.complex.facet(i).text()} {what}", images
    return None, images


def morphism_violation(
    delta: dict[Vertex, Vertex],
    source: SimplicialModel,
    target: SimplicialModel,
) -> str | None:
    """First reason `delta` fails to be a label-preserving simplicial map."""
    return _morphism_images(delta, source, target)[0]


def is_action_document(data) -> bool:
    """Whether a loaded document is an action's: it carries preconditions."""
    return isinstance(data, dict) and "pre" in data


def _atom_pair(pair) -> tuple[int, int]:
    """An `atoms` [agent, value] pair as a tuple; TypeError unless two plain ints."""
    pair = tuple(pair)
    if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
        raise TypeError(f"not a pair of ints: {pair!r}")
    return pair


def model_from_json(data: dict) -> SimplicialModel:
    """The model of a document whose `atoms` entry i, when given, records the
    atoms of its i-th listed facet. An action document is refused."""
    if is_action_document(data):
        raise ValueError("expected a model document, got an action document (it has 'pre')")
    complex, ids = complex_from_json(data)
    # The first vertex's kind picks the projection; `induce_model` checks
    # every vertex against it.
    pairs = isinstance(complex.vertices()[0].obs, tuple)
    model = induce_model(complex, "left" if pairs else "obs")
    if "atoms" in data:
        atoms = data["atoms"]
        try:
            # Each distinct entry's set is built once, of pairs of plain ints:
            # `true` and `1.0` would compare equal to the value 1.
            keys = list(map(dumps, atoms, repeat(JSON_KEY_VERSION)))
            distinct = dict(zip(keys, atoms))
            sets = {key: frozenset(map(_atom_pair, entry)) for key, entry in distinct.items()}
            recorded = list(map(sets.__getitem__, keys))
        except TypeError:
            raise ValueError(
                "malformed model document: 'atoms' must hold one list of "
                "[agent, value] pairs per facet"
            ) from None
        labels = {vector: frozenset(enumerate(vector)) for vector in set(model.inputs)}
        if recorded != [labels[model.inputs[i]] for i in ids]:
            raise ValueError("recorded atoms disagree with the complex")
    return model


def complex_to_dot(complex: ChromaticComplex) -> str:
    """Graphviz rendering of the adjacency graph, edges labeled by shared agents.

    Facets are adjacent when they share a vertex, so each facet's edges to
    later facets are read off its vertices' stars (their facet ids,
    ascending), in color order, instead of testing every pair of facets.
    """
    lines = ["graph model {", "  node [shape=box];"]
    for i, text in enumerate(facet_texts(complex)):
        lines.append(f'  f{i} [label="{text}"];')
    rows = complex.rows
    stars: list[list[int]] = [[] for _ in complex.vertices()]
    for i, row in enumerate(rows):
        for u in row:
            stars[u].append(i)
    for i, row in enumerate(rows):
        shared: dict[int, list[str]] = {}
        # A row lists its vertices in color order.
        for color, u in enumerate(row):
            star = stars[u]
            for j in star[bisect_right(star, i):]:
                shared.setdefault(j, []).append(str(color))
        for j in sorted(shared):
            lines.append(f'  f{i} -- f{j} [label="{",".join(shared[j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
