"""Pure chromatic simplicial complexes, their product facets and JSON form.

A vertex is the pair (color, observation) of one process; a facet is the
tuple of its vertices, one per color in color order; a complex is determined
by its set of facets. Both are plain tuples underneath, so hashing and
equality are the tuples' own and structural: two facets share an agent's
vertex exactly when that agent's color and observation coincide in both.

Tuple order compares frozenset views by inclusion, so vertices and facets are
never sorted by their natural order. A complex is stored as its distinct
vertices in `Vertex.key` order and its rows: per facet, the tuple of its
vertices' positions in color order, the rows sorted, which is `Facet.key`
order. `ChromaticComplex` is built from exactly that, `(n, rows, vertices)`,
and checks the rows' colors; its `Facet` tuples, `vertex_id` and `index` are
views built on first use, which no builder reads: builders and queries work
on facet ids and rows. Builders put their rows in order themselves.
`_key_order` takes one sort key per numbered vertex, ordering the vertices
as `Vertex.key` does, ranks the vertices once and sorts the facets as tuples
of integer ranks. The JSON decoder passes each vertex's `Vertex.key`; the
view-action builder passes a cheaper key of plain ints that orders its
vertices the same way. A product complex takes both orders from its factors'
rows instead (see `_product_facets`), and a task complex filters the rows of
an input complex.
"""

import gc
from functools import wraps
from itertools import chain, islice
from marshal import dumps
from operator import add, itemgetter
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

    def key(self) -> tuple:
        return tuple(v.key() for v in self)

    def text(self) -> str:
        return " ".join(v.text() for v in self)

    def __repr__(self) -> str:
        return f"Facet({self.text()})"


def _collector_paused(fn):
    """`fn`, run with the cyclic garbage collector disabled; the collector is
    enabled again when `fn` returns or raises. When the collector is already
    off, `fn` runs as it is.

    For calls that build large data of tuples, lists and dicts without
    reference cycles: collections set off while it grows would scan it all
    and free nothing."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _key_order(
    keys: Sequence, rows: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Canonical order from numbered vertices. `keys[i]` is vertex i's sort
    key, distinct and ordering the vertices as `Vertex.key` does, and each
    entry of `rows` lists a distinct facet's vertices in color order by
    their numbers. Returns the vertex numbers in key order, the positions in
    `rows` in `Facet.key` order, and the rows in that order over the vertices
    renumbered by rank.

    The keys are injective, so comparing facets by the ranks of their
    vertices is the same as comparing `Facet.key`: the vertices are ranked
    once and the facets sorted as tuples of ints. Rows of one width, as in
    every complex that passes the color check, are renumbered as one flat
    column and regrouped."""
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(keys)
    for r, i in enumerate(by_key):
        rank[i] = r
    column = map(rank.__getitem__, chain.from_iterable(rows))
    widths = set(map(len, rows))
    if len(widths) == 1:
        ranked = list(zip(*[column] * widths.pop()))
    else:
        ranked = [tuple(islice(column, len(row))) for row in rows]
    order = sorted(range(len(ranked)), key=ranked.__getitem__)
    return by_key, order, list(map(ranked.__getitem__, order))


class ChromaticComplex:
    """A pure chromatic complex of dimension n, stored as its distinct
    vertices in `Vertex.key` order (`vertices()`) and `rows`: per facet id,
    the tuple of that facet's vertex positions, in color order. It is built
    from these two alone, already in order; the constructor checks colors.

    Rows are distinct and sorted, which is `Facet.key` order, so facet ids
    are stable identifiers for export and reporting. The `Facet` tuples
    (`facets`), the vertex-to-position map `vertex_id` and the facet-to-id
    map behind `index` are views, each built on first use; `facet` reads one
    facet without building the view. Models answer point queries by facet
    id, and nothing in the package calls `index`.
    """

    __slots__ = ("n", "rows", "_vertices", "_facets", "_vertex_id", "_pos")

    def __init__(self, n: int, rows: Iterable[tuple[int, ...]], vertices: Sequence[Vertex]):
        """`vertices` are distinct and in `Vertex.key` order; `rows` are the
        facets over them, each the tuple of its vertices' positions in color
        order, distinct, sorted, and using every vertex. Every row is checked
        to hold the colors 0..n."""
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        rows = list(rows)
        if not rows:
            raise ValueError("a complex needs at least one facet")
        # Vertices of color a fill column a exactly when every facet holds
        # the colors 0..n; only a failing complex looks at each facet's
        # colors, and the first such facet in row order is named.
        colors = [v.color for v in vertices]
        if set(map(len, rows)) != {n + 1} or any(
            {colors[u] for u in set(map(itemgetter(a), rows))} != {a} for a in range(n + 1)
        ):
            bad = next(
                row for row in rows
                if len(row) != n + 1 or any(colors[u] != a for a, u in enumerate(row))
            )
            raise ValueError(
                f"facet colors {tuple(map(colors.__getitem__, bad))} do not match "
                f"dimension {n} (expected colors 0..{n})"
            )
        self.n = n
        self.rows: list[tuple[int, ...]] = rows
        self._vertices = tuple(vertices)
        self._facets: tuple[Facet, ...] | None = None
        self._vertex_id: dict[Vertex, int] | None = None
        self._pos: dict[Facet, int] | None = None

    def vertices(self) -> tuple[Vertex, ...]:
        """The distinct vertices in `Vertex.key` order, numbered by `vertex_id`."""
        return self._vertices

    @property
    def facets(self) -> tuple[Facet, ...]:
        """The facets in id order, sharing one object per vertex."""
        if self._facets is None:
            vertex = self._vertices.__getitem__
            self._facets = tuple([tuple.__new__(Facet, map(vertex, row)) for row in self.rows])
        return self._facets

    def facet(self, i: int) -> Facet:
        """Facet `i`, from the view when it is built, else from its row."""
        if self._facets is not None:
            return self._facets[i]
        return tuple.__new__(Facet, map(self._vertices.__getitem__, self.rows[i]))

    @property
    def vertex_id(self) -> dict[Vertex, int]:
        """Each vertex's position in `vertices()`."""
        if self._vertex_id is None:
            self._vertex_id = {v: i for i, v in enumerate(self._vertices)}
        return self._vertex_id

    def _positions(self) -> dict[Facet, int]:
        if self._pos is None:
            self._pos = {f: i for i, f in enumerate(self.facets)}
        return self._pos

    def index(self, facet: Facet) -> int:
        try:
            return self._positions()[facet]
        except KeyError:
            raise KeyError(f"facet not in complex: {facet!r}") from None

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        # Every vertex lies on a row, so equal vertices and rows are equal facets.
        return (
            isinstance(other, ChromaticComplex)
            and self.n == other.n
            and self.rows == other.rows
            and self._vertices == other._vertices
        )

    def __repr__(self) -> str:
        return f"ChromaticComplex(n={self.n}, facets={len(self.rows)})"


def facet_texts(c: ChromaticComplex) -> list[str]:
    """`Facet.text()` of every facet in order, rendering each distinct vertex once."""
    texts = [v.text() for v in c.vertices()]
    return [" ".join(map(texts.__getitem__, row)) for row in c.rows]


def _product_facets(
    c: ChromaticComplex, d: ChromaticComplex, pairs
) -> tuple[list[tuple[int, ...]], list[Vertex]]:
    """The product facets of x and each y, for each (x, ys) in `pairs`: x the
    id of a facet of c, ys ids of facets of d, no pair twice, and c.n == d.n.
    Returns their rows in `Facet.key` order over their distinct vertices in
    `Vertex.key` order, as `ChromaticComplex` takes them.

    A product vertex is keyed by its factors' vertex ids, `left id × width +
    right id`. Both factors number their vertices in `Vertex.key` order, and
    the color and the left observation come first in a product vertex's key,
    so these keys order product vertices as `Vertex.key` does. Both factors'
    rows hold the colors 0..n in order, so vertices pair by position, and
    the keys of all pairs are collected in one flat column, n + 1 per pair,
    each product vertex made once. The column and the rows regrouped from it
    coexist until the function returns; the rows hold the keys' ranks, which
    rise with the keys, so sorting them gives `Facet.key` order."""
    left, right = c.vertices(), d.vertices()
    width = len(right)
    right_row = d.rows.__getitem__
    column: list[int] = []
    for x, ys in pairs:
        base = [u * width for u in c.rows[x]]
        column.extend(map(add, base * len(ys), chain.from_iterable(map(right_row, ys))))
    made = sorted(set(column))
    factors = [(left[key // width], right[key % width]) for key in made]
    vertices = [Vertex(u.color, (u.obs, w.obs)) for u, w in factors]
    rank = dict(zip(made, range(len(made))))
    rows = list(zip(*[map(rank.__getitem__, column)] * (c.n + 1)))
    rows.sort()
    return rows, vertices


def indented_json(value, pad: str = "") -> str:
    """`json.dumps(value, indent=2)` of an int or nested lists of ints, with
    every line after the first indented by `pad` more."""
    if type(value) is not list:
        return str(value)
    if not value:
        return "[]"
    inner = pad + "  "
    items = (",\n" + inner).join([indented_json(x, inner) for x in value])
    return f"[\n{inner}{items}\n{pad}]"


def complex_to_json(c: ChromaticComplex) -> list[str]:
    """The text `json.dumps(doc, indent=2)` writes for a document that opens
    with `"n"` and `"facets"`, in pieces, from its start through the end of
    the facets' list; the caller writes any further members and the closing
    brace. Each facet is `{"vertices": [entry, ...]}`, one `{"color", "obs"}`
    entry per vertex.

    Each distinct vertex's entry is rendered once, and each facet is one
    piece, the join of its row's entries."""
    pad = " " * 8  # a vertex entry's depth: document, facets, facet, vertices
    entries = [
        f'{{\n{pad}  "color": {v.color},\n'
        f'{pad}  "obs": {indented_json(obs_to_json(v.obs), pad + "  ")}\n{pad}}}'
        for v in c.vertices()
    ]
    between = '\n      ]\n    },\n    {\n      "vertices": [\n        '
    pieces = [f'{{\n  "n": {c.n},\n  "facets": [\n    {{\n      "vertices": [\n        ']
    for row in c.rows:
        pieces += (",\n        ".join(map(entries.__getitem__, row)), between)
    pieces[-1] = "\n      ]\n    }\n  ]"
    return pieces


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

    # A listing with the colors 0..len-1 in order is the tuple of its vertex
    # numbers; any other is read through `Facet`, which sorts its vertices
    # by color or reports what is wrong, in document order. `index` numbers
    # the distinct rows, `listed` each listing.
    index: dict[tuple[int, ...], int] = {}
    listed = []
    expected: tuple[int, ...] = ()
    for entry in raw_facets:
        row = tuple(map(entry_number, _json_field(entry, "vertices", list, "facet entry")))
        if len(row) > len(expected):
            expected = tuple(range(len(row)))
        if not row or tuple(map(colors.__getitem__, row)) != expected[:len(row)]:
            row = tuple(map(number.__getitem__, Facet(map(made.__getitem__, row))))
        listed.append(index.setdefault(row, len(index)))
    by_key, order, rows = _key_order(list(map(Vertex.key, made)), list(index))
    ids = [0] * len(order)
    for i, j in enumerate(order):
        ids[j] = i
    vertices = list(map(made.__getitem__, by_key))
    return ChromaticComplex(n, rows, vertices), list(map(ids.__getitem__, listed))
