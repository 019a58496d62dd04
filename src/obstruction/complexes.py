"""Pure chromatic simplicial complexes, their product facets and JSON form.

A vertex is the pair (color, observation) of one process; a facet is the
tuple of its vertices, one per color in color order; a complex is determined
by its set of facets. Both are plain tuples underneath, so hashing and
equality are the tuples' own and structural: two facets share an agent's
vertex exactly when that agent's color and observation coincide in both.

Tuple order compares frozenset views by inclusion, so vertices and facets are
never sorted by their natural order. The builders in this package share one
object per distinct vertex across the facets of a complex (products key
theirs by the factors' vertex ids). A complex
keeps its facets in `Facet.key` order, computed by ranking its distinct
vertices once by `Vertex.key` and comparing facets by their tuples of
integer ranks (`_key_order`, which the view-action builder and the JSON
decoder also call on their own numbered vertices, so neither builds a `Facet`
through its checks); a product complex takes both orders from its factors'
vertex ids instead (see `_product_facets`).
"""

from marshal import dumps
from operator import add
from typing import Iterable, NamedTuple, Sequence

# An observation is one of:
#   int                         -- a plain value (input or decision)
#   frozenset[(int, Obs)]       -- a view: the (agent, observation) pairs seen,
#                                  at most one per agent
#   (Obs, Obs)                  -- a vertex payload of a product complex
Obs = int | frozenset | tuple


def obs_key(obs: Obs) -> tuple:
    """Total-order key over observations, used for canonical sorting."""
    if isinstance(obs, int):
        return (0, obs)
    if isinstance(obs, frozenset):
        return (1, tuple(sorted((a, obs_key(o)) for a, o in obs)))
    if isinstance(obs, tuple) and len(obs) == 2:
        return (2, obs_key(obs[0]), obs_key(obs[1]))
    raise TypeError(f"not an observation: {obs!r}")


def obs_text(obs: Obs) -> str:
    """Compact textual form of an observation, stable across runs."""
    if isinstance(obs, int):
        return str(obs)
    if isinstance(obs, frozenset):
        return "{" + ",".join(f"{a}:{obs_text(o)}" for a, o in sorted(obs)) + "}"
    return f"({obs_text(obs[0])},{obs_text(obs[1])})"


def obs_to_json(obs: Obs):
    if isinstance(obs, int):
        return obs
    if isinstance(obs, frozenset):
        return [[a, obs_to_json(o)] for a, o in sorted(obs)]
    return [obs_to_json(obs[0]), obs_to_json(obs[1])]


def obs_from_json(data) -> Obs:
    if isinstance(data, bool):
        raise ValueError(f"not an observation: {data!r}")
    if isinstance(data, int):
        return data
    if isinstance(data, list):
        # A view is a list of [agent, obs] entries; anything else of length
        # two is a product pair. Pairs produced by this package always have
        # an integer value on the left, so the two shapes never collide.
        if all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], int) and not isinstance(e[0], bool)
            for e in data
        ):
            if len({e[0] for e in data}) != len(data):
                raise ValueError(f"view names an agent twice: {data!r}")
            return frozenset((e[0], obs_from_json(e[1])) for e in data)
        if len(data) == 2:
            return (obs_from_json(data[0]), obs_from_json(data[1]))
    raise ValueError(f"not an observation: {data!r}")


class Vertex(NamedTuple):
    """A colored vertex: one process together with what it observed."""

    color: int
    obs: Obs

    def key(self) -> tuple:
        return (self.color, obs_key(self.obs))

    def text(self) -> str:
        return f"{self.color}:{obs_text(self.obs)}"


class Facet(tuple):
    """A maximal simplex: the tuple of its vertices, one per color, sorted by color."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Vertex]):
        vs = tuple(vertices)
        colors = [v.color for v in vs]
        if colors != sorted(set(colors)):
            dup = sorted({c for c in colors if colors.count(c) > 1})
            if dup:
                raise ValueError(f"duplicate colors in facet: {dup}")
            vs = tuple(sorted(vs, key=lambda v: v.color))
        if not vs:
            raise ValueError("empty facet")
        return tuple.__new__(cls, vs)

    @property
    def vertices(self) -> "Facet":
        """The facet itself, read as its tuple of vertices."""
        return self

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple([v.color for v in self])

    def key(self) -> tuple:
        return tuple(v.key() for v in self)

    def text(self) -> str:
        return " ".join(v.text() for v in self)

    def __repr__(self) -> str:
        return f"Facet({self.text()})"


def _facet(vertices: tuple[Vertex, ...]) -> Facet:
    """A facet of vertices already holding the colors 0..n in order, made
    without `Facet`'s checks."""
    return tuple.__new__(Facet, vertices)


def _key_order(
    vertices: Sequence[Vertex], facets: Sequence[tuple[int, ...]]
) -> tuple[list[Vertex], list[int]]:
    """Canonical order from numbered vertices. `vertices` are distinct, in
    any order, and each entry of `facets` lists a distinct facet's vertices
    in color order by their positions in `vertices`. Returns the vertices in
    `Vertex.key` order and the positions in `facets` in `Facet.key` order.

    Vertex.key is injective, so comparing facets by the ranks of their
    vertices in Vertex.key order is the same as comparing Facet.key: the
    vertices are ranked once and the facets sorted as tuples of ints."""
    by_key = sorted(range(len(vertices)), key=list(map(Vertex.key, vertices)).__getitem__)
    rank = [0] * len(vertices)
    for r, i in enumerate(by_key):
        rank[i] = r
    keys = [tuple(map(rank.__getitem__, f)) for f in facets]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return list(map(vertices.__getitem__, by_key)), order


def _canonical(n: int, facets: Iterable[Facet]) -> tuple[list[Vertex], list[Facet]]:
    """The distinct vertices of `facets` in `Vertex.key` order and the distinct
    facets in `Facet.key` order, checked to hold the colors 0..n."""
    unique = list(set(facets))
    if not unique:
        raise ValueError("a complex needs at least one facet")
    distinct = list(set().union(*unique))
    number = {v: i for i, v in enumerate(distinct)}
    vertices, order = _key_order(
        distinct, [tuple(map(number.__getitem__, f)) for f in unique]
    )
    canon = list(map(unique.__getitem__, order))
    # A facet's colors are distinct, so n + 1 of them drawn from 0..n are
    # exactly 0..n; only a failing complex looks at each facet's colors.
    expected = tuple(range(n + 1))
    if not {v.color for v in vertices} <= set(expected) or set(map(len, canon)) != {n + 1}:
        bad = next(f for f in canon if f.colors != expected)
        raise ValueError(
            f"facet colors {bad.colors} do not match dimension {n} "
            f"(expected {expected})"
        )
    return vertices, canon


class ChromaticComplex:
    """A pure chromatic complex of dimension n, stored by its facets.

    Facets are deduplicated and kept in canonical `Facet.key` order, so
    indices are stable identifiers for export and reporting. The distinct
    vertices are kept in `Vertex.key` order, and `vertex_id` maps each to its
    position there. The facet-to-index map behind `index` and `in` is built
    on first use.
    """

    __slots__ = ("n", "facets", "vertex_id", "_vertices", "_pos")

    def __init__(
        self, n: int, facets: Iterable[Facet], vertices: tuple[Vertex, ...] | None = None
    ):
        """`vertices`, when given, are the facets' distinct vertices in
        `Vertex.key` order, and `facets` are then taken as they are: distinct,
        in `Facet.key` order and holding the colors 0..n. Only the product and
        view-action builders, which know both orders, pass them."""
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if vertices is None:
            vertices, facets = _canonical(n, facets)
        elif not facets:
            raise ValueError("a complex needs at least one facet")
        self.n = n
        self.facets: tuple[Facet, ...] = tuple(facets)
        self.vertex_id: dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self._vertices = tuple(vertices)
        self._pos: dict[Facet, int] | None = None

    def vertices(self) -> tuple[Vertex, ...]:
        """The distinct vertices in `Vertex.key` order, numbered by `vertex_id`."""
        return self._vertices

    def _positions(self) -> dict[Facet, int]:
        if self._pos is None:
            self._pos = {f: i for i, f in enumerate(self.facets)}
        return self._pos

    def index(self, facet: Facet) -> int:
        try:
            # Read the built map directly: point queries call this per query.
            return (self._pos or self._positions())[facet]
        except KeyError:
            raise KeyError(f"facet not in complex: {facet!r}") from None

    def __contains__(self, facet: Facet) -> bool:
        return facet in self._positions()

    def __len__(self) -> int:
        return len(self.facets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChromaticComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __repr__(self) -> str:
        return f"ChromaticComplex(n={self.n}, facets={len(self.facets)})"


def facet_texts(c: ChromaticComplex) -> list[str]:
    """`Facet.text()` of every facet in order, rendering each distinct vertex once."""
    texts = {v: v.text() for v in c.vertices()}
    return [" ".join(map(texts.__getitem__, f)) for f in c.facets]


def _product_facets(
    c: ChromaticComplex, d: ChromaticComplex, pairs
) -> tuple[list[Facet], tuple[Vertex, ...]]:
    """The product facets of x and each y, for each (x, ys) in `pairs`: x a
    facet of c, ys ids of facets of d, no pair twice, and c.n == d.n. Returns
    them in `Facet.key` order, with their distinct vertices in `Vertex.key`
    order, as `ChromaticComplex` takes them.

    A product vertex is keyed by its factors' vertex ids, `left id × width +
    right id`. Both factors number their vertices in `Vertex.key` order, and
    the color and the left observation come first in a product vertex's key,
    so these keys order product vertices as `Vertex.key` does, and sorting
    the facets' key tuples puts them in `Facet.key` order. Both factors hold
    the colors 0..n in order, so vertices pair by position, and each product
    vertex is made once."""
    left, right = c.vertices(), d.vertices()
    width = len(right)
    right_id = d.vertex_id.__getitem__
    rows = [tuple(map(right_id, y)) for y in d.facets]
    keys = []
    for x, ys in pairs:
        base = [c.vertex_id[u] * width for u in x]
        keys.extend([tuple(map(add, base, rows[j])) for j in ys])
    keys.sort()
    made = {}
    for key in sorted(set().union(*keys)):
        u, w = left[key // width], right[key % width]
        made[key] = Vertex(u.color, (u.obs, w.obs))
    # Each key is replaced by its facet in place, so the keys are freed as
    # the facets are made, and the two lists never coexist.
    vertex = made.__getitem__
    for i, key in enumerate(keys):
        keys[i] = _facet(tuple(map(vertex, key)))
    return keys, tuple(made.values())


def complex_to_json(c: ChromaticComplex) -> dict:
    """The complex as a JSON document with one `{"color", "obs"}` entry per
    distinct vertex. The facets holding a vertex share its entry object, so
    callers must not mutate an entry in place."""
    entries = {v: {"color": v.color, "obs": obs_to_json(v.obs)} for v in c.vertices()}
    return {
        "n": c.n,
        "facets": [{"vertices": list(map(entries.__getitem__, f))} for f in c.facets],
    }


# Decoders find a document's distinct JSON values by their `marshal` bytes at
# this version: equal bytes mean an equal value of equal types (1, 1.0 and
# true differ), and version 2 writes no back-references, so equal values
# give equal bytes.
JSON_KEY_VERSION = 2


def _json_field(doc, key: str, kind: type | None, what: str):
    """`doc[key]` of a JSON object, of type `kind` when given; a malformed
    document raises ValueError naming `what` it is."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"malformed {what}: missing {key!r}")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValueError(
            f"malformed {what}: {key!r} must be of type {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def complex_from_json(data: dict) -> tuple[ChromaticComplex, list[int]]:
    """The complex of a document, as `json.load` returns it, and the id of
    each facet the document lists, in document order and once per listing,
    for side tables keyed by document position."""
    n = _json_field(data, "n", int, "complex document")
    raw_facets = _json_field(data, "facets", list, "complex document")
    # Each distinct vertex entry is checked and decoded once, at its first
    # listing, and numbered by its vertex: equal vertices spelled differently
    # (a view's pairs in another order) share one number and one object.
    decoded: dict[bytes, int] = {}
    number: dict[Vertex, int] = {}
    made: list[Vertex] = []
    colors: list[int] = []

    def entry_number(v) -> int:
        key = dumps(v, JSON_KEY_VERSION)
        found = decoded.get(key)
        if found is None:
            vertex = Vertex(
                _json_field(v, "color", int, "vertex entry"),
                obs_from_json(_json_field(v, "obs", None, "vertex entry")),
            )
            found = decoded[key] = number.setdefault(vertex, len(made))
            if found == len(made):
                made.append(vertex)
                colors.append(vertex.color)
        return found

    def row(entry) -> tuple[int, ...]:
        return tuple(map(entry_number, _json_field(entry, "vertices", list, "facet entry")))

    # A facet listed with the colors 0..n in order is the tuple of its vertex
    # numbers; `index` numbers the distinct facets, `listed` each listing.
    index: dict[tuple[int, ...], int] = {}
    listed = []
    if n >= 0:
        expected = None
        for entry in raw_facets:
            numbers = row(entry)
            if len(numbers) != n + 1:
                break
            # Made once a facet lists n + 1 vertices: `n` is the document's.
            expected = expected or tuple(range(n + 1))
            if tuple(map(colors.__getitem__, numbers)) != expected:
                break
            listed.append(index.setdefault(numbers, len(index)))
        else:
            rows = list(index)
            vertices, order = _key_order(made, rows)
            ids = [0] * len(order)
            for i, j in enumerate(order):
                ids[j] = i
            vertex = made.__getitem__
            facets = [_facet(tuple(map(vertex, rows[j]))) for j in order]
            return ChromaticComplex(n, facets, vertices), list(map(ids.__getitem__, listed))
    # Any other document (n < 0, or a facet whose colors are not 0..n in
    # order) is read through `Facet` and `_canonical`, which sort its facets'
    # vertices by color or report what is wrong, in document order.
    facets = [Facet(map(made.__getitem__, row(entry))) for entry in raw_facets]
    c = ChromaticComplex(n, facets)
    return c, list(map(c.index, facets))
