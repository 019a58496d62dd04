"""Epistemic logic formulas as a hash-consed DAG.

Structurally identical subformulas are interned to a single node, so node
identity doubles as structural equality and per-node caches remain valid
across models. An empty disjunction is the false constant; an empty
conjunction is true, encoded as the negation of false.

Text grammar (used by :func:`parse` and :func:`render`)::

    phi := "false" | "input(" a "," v ")" | "!" phi
         | phi "&" phi | phi "|" phi
         | "K[" a "]" phi | "C[{" a "," ... "}]" phi | "D[{" a "," ... "}]" phi
         | "(" phi ")"

Agent ids `a` are nonnegative integers; input values `v` are integers and
may be negative. Prefix operators bind tightest, then "&", then "|"; the
binary operators associate to the left and are kept flattened, so rendering
and parsing are mutually inverse, except on `C`/`D` over an empty agent
group: `render` writes it as `C[{}]`/`D[{}]`, which `parse` refuses.
"""

import re
from itertools import count
from typing import Iterable

_TABLE: dict = {}
_UIDS = count()
_MODAL_KINDS = ("know", "common", "dist")
# One object per distinct agent set that nodes mention: few sets, many nodes.
_MENTIONS: dict[frozenset[int], frozenset[int]] = {}


class Formula:
    """One interned node of the formula DAG. Build via the module constructors.

    Besides its fields, a node records three facts about its subformula:
    `mentions`, the agent ids its atoms and modal operators name; `modal`,
    whether a modal operator occurs in it; `positive`, whether no modal
    operator occurs inside a negation.
    """

    __slots__ = (
        "uid", "kind", "agent", "value", "agents", "children",
        "mentions", "modal", "positive",
    )

    def __init__(self, kind, agent, value, agents, children):
        self.uid = next(_UIDS)
        self.kind = kind
        self.agent = agent
        self.value = value
        self.agents = agents
        self.children = children
        own = agents or (() if agent is None else (agent,))
        mentions = frozenset(own).union(*(c.mentions for c in children))
        self.mentions = _MENTIONS.setdefault(mentions, mentions)
        self.modal = kind in _MODAL_KINDS or any(c.modal for c in children)
        if kind == "not":
            self.positive = not children[0].modal
        else:
            self.positive = all(c.positive for c in children)

    def __repr__(self) -> str:
        return f"Formula<{render(self)}>"

    def __str__(self) -> str:
        return render(self)


def _intern(kind, agent=None, value=None, agents=None, children=()) -> Formula:
    key = (kind, agent, value, agents, children)
    node = _TABLE.get(key)
    if node is None:
        node = _TABLE.setdefault(key, Formula(kind, agent, value, agents, children))
    return node


def _check(phi) -> Formula:
    if not isinstance(phi, Formula):
        raise TypeError(f"expected a Formula, got {phi!r}")
    return phi


def _flatten(kind: str, parts: Iterable[Formula]) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for p in parts:
        _check(p)
        if p.kind == kind:
            out.extend(p.children)
        else:
            out.append(p)
    return tuple(out)


FALSE = _intern("false")


def _agent(agent: int) -> int:
    # Agents, and atoms' values, are plain ints: a bool equals its int, so it
    # would intern as that int's node and render as `True`, which `parse`
    # rejects.
    if type(agent) is not int:
        raise TypeError("agent ids must be integers")
    if agent < 0:
        raise ValueError("agent ids are nonnegative")
    return agent


def atom(agent: int, value: int) -> Formula:
    """The proposition that `agent` received input `value`."""
    if type(value) is not int:
        raise TypeError("input values must be integers")
    return _intern("atom", agent=_agent(agent), value=value)


def or_(*parts: Formula) -> Formula:
    children = _flatten("or", parts)
    if not children:
        return FALSE
    if len(children) == 1:
        return children[0]
    return _intern("or", children=children)


def and_(*parts: Formula) -> Formula:
    children = _flatten("and", parts)
    if not children:
        return TRUE
    if len(children) == 1:
        return children[0]
    return _intern("and", children=children)


def not_(phi: Formula) -> Formula:
    return _intern("not", children=(_check(phi),))


def know(agent: int, phi: Formula) -> Formula:
    return _intern("know", agent=_agent(agent), children=(_check(phi),))


def common(agents: Iterable[int], phi: Formula) -> Formula:
    return _intern("common", agents=frozenset(map(_agent, agents)), children=(_check(phi),))


def distributed(agents: Iterable[int], phi: Formula) -> Formula:
    return _intern("dist", agents=frozenset(map(_agent, agents)), children=(_check(phi),))


TRUE = not_(FALSE)


_LEVEL = {
    "false": 3,
    "atom": 3,
    "not": 2,
    "know": 2,
    "common": 2,
    "dist": 2,
    "and": 1,
    "or": 0,
}


def _group(agents: frozenset[int]) -> str:
    return "{" + ",".join(str(a) for a in sorted(agents)) + "}"


def _wrap(phi: Formula, min_level: int) -> str:
    s = render(phi)
    return s if _LEVEL[phi.kind] >= min_level else f"({s})"


def render(phi: Formula) -> str:
    kind = phi.kind
    if kind == "false":
        return "false"
    if kind == "atom":
        return f"input({phi.agent},{phi.value})"
    if kind == "not":
        return "!" + _wrap(phi.children[0], 2)
    if kind == "know":
        return f"K[{phi.agent}] " + _wrap(phi.children[0], 2)
    if kind == "common":
        return f"C[{_group(phi.agents)}] " + _wrap(phi.children[0], 2)
    if kind == "dist":
        return f"D[{_group(phi.agents)}] " + _wrap(phi.children[0], 2)
    if kind == "and":
        return " & ".join(_wrap(c, 2) for c in phi.children)
    return " | ".join(_wrap(c, 1) for c in phi.children)


class ParseError(ValueError):
    """Formula text that does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One token: an integer of decimal digits (`\d`, so '²' is no digit), a word,
# or a symbol. The text is tokens and whitespace up to its first other character.
_TOKEN = re.compile(r"-?\d+|\w+|[!&|(){}\[\],]")
_TEXT = re.compile(rf"(?:\s|{_TOKEN.pattern})*")


class _Parser:
    """Recursive descent over the token strings; "" stands for the end of input."""

    def __init__(self, text: str):
        end = _TEXT.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", end)
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0

    def fail(self, message: str):
        """Raise `message` at the current token, whose position is found again."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise ParseError(message, starts[self.i])

    def found(self) -> str:
        return repr(self.tokens[self.i] or "end of input")

    def symbol(self, symbol: str) -> None:
        if self.tokens[self.i] != symbol:
            self.fail(f"expected {symbol!r}, found {self.found()}")
        self.i += 1

    def number(self, agent: bool = True) -> int:
        token = self.tokens[self.i]
        if not token.lstrip("-").isdecimal():
            self.fail(f"expected a number, found {self.found()}")
        value = int(token)
        if agent and value < 0:
            self.fail(f"agent ids are nonnegative, found {value}")
        self.i += 1
        return value

    def agent_set(self) -> frozenset[int]:
        self.symbol("{")
        agents = [self.number()]
        while self.tokens[self.i] == ",":
            self.i += 1
            agents.append(self.number())
        self.symbol("}")
        return frozenset(agents)

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.tokens[self.i] == "|":
            self.i += 1
            parts.append(self.conjunction())
        return or_(*parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.tokens[self.i] == "&":
            self.i += 1
            parts.append(self.unary())
        return and_(*parts)

    def unary(self) -> Formula:
        token = self.tokens[self.i]
        if token == "!":
            self.i += 1
            return not_(self.unary())
        if token in ("K", "C", "D"):
            self.i += 1
            self.symbol("[")
            if token == "K":
                agent = self.number()
                self.symbol("]")
                return know(agent, self.unary())
            agents = self.agent_set()
            self.symbol("]")
            ctor = common if token == "C" else distributed
            return ctor(agents, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        token = self.tokens[self.i]
        if token == "false":
            self.i += 1
            return FALSE
        if token == "input":
            self.i += 1
            self.symbol("(")
            agent = self.number()
            self.symbol(",")
            value = self.number(agent=False)
            self.symbol(")")
            return atom(agent, value)
        if token != "(":
            self.fail(f"expected a formula, found {self.found()}")
        self.i += 1
        phi = self.disjunction()
        self.symbol(")")
        return phi


def parse(text: str) -> Formula:
    """Parse formula text into the interned DAG."""
    parser = _Parser(text)
    phi = parser.disjunction()
    if parser.tokens[parser.i]:
        parser.fail(f"trailing input {parser.found()}")
    return phi
