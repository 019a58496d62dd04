"""In-memory spans around the benchmark's calls into the obstruction modules.

`Tracer.install()` replaces public functions and methods with timing wrappers
at every module attribute that holds them, so calls made inside the package
(for example `cli.cmd_build` calling `tasks.apply_action`) are timed too.
`uninstall()` puts the originals back. The package sources are never edited.
"""

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "obstruction"

# (module, attribute or Class.method, span name). One span name may cover
# several functions; its self time is the sum over them.
TARGETS = [
    ("tasks", "initial_model", "tasks.initial"),
    ("tasks", "immediate_snapshot_action", "tasks.action"),
    ("tasks", "round_operator_action", "tasks.action"),
    ("tasks", "set_agreement_action", "tasks.action"),
    ("tasks", "binary_consensus_action", "tasks.action"),
    ("tasks", "decide_own_input_action", "tasks.action"),
    ("tasks", "apply_action", "tasks.product"),
    ("complexes", "ChromaticComplex.__init__", "complexes.canon"),
    ("complexes", "complex_to_json", "complexes.to_json"),
    ("complexes", "complex_from_json", "complexes.from_json"),
    ("models", "induce_model", "models.induce"),
    ("models", "SimplicialModel.validity", "models.validity"),
    ("models", "SimplicialModel.counterexamples", "models.counterexamples"),
    ("formulas", "parse", "formulas.parse"),
    ("formulas", "render", "formulas.render"),
    ("generators", "binary_consensus_obstruction", "generators.formula"),
    ("generators", "waitfree_kset_obstruction", "generators.formula"),
    ("generators", "adversary_obstruction", "generators.formula"),
    ("generators", "verify_obstruction", "generators.verify"),
    ("solver", "find_morphism", "solver.search"),
    ("solver", "knowledge_gain_check", "solver.knowledge_check"),
    ("cli", "cmd_build", "cli.build"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_export", "cli.export"),
    ("cli", "cmd_obstruct", "cli.obstruct"),
    ("cli", "cmd_solve", "cli.solve"),
]

# Point queries made tens of thousands of times per pass. They are timed and
# counted per calling span instead of one span per call, which keeps memory
# bounded; they must not call any other traced function.
LEAF_TARGETS = [
    ("models", "SimplicialModel.satisfies", "models.satisfies"),
]


def _facets(model) -> tuple[int, str]:
    return len(model.complex.facets), ""


def _dag_nodes(phi) -> tuple[int, str]:
    seen, todo = set(), [phi]
    while todo:
        node = todo.pop()
        if node.uid not in seen:
            seen.add(node.uid)
            todo.extend(node.children)
    return len(seen), ""


def _search(result) -> tuple[int, str]:
    return result.explored, result.status.value


# Work counted per span name, from the call's result.
COUNTS = {
    "tasks.action": _facets,
    "tasks.product": _facets,
    "generators.formula": _dag_nodes,
    "solver.search": _search,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    job: str
    count: int = 0  # work done, as given by COUNTS for this span name
    tag: str = ""


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    job: str = ""
    leaves: dict = field(default_factory=dict)  # (parent, name) -> [seconds, calls]
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, fn, name):
        tracer = self
        counter = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.count, span.tag = counter(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_leaf(self, fn, name):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = leaves.setdefault((stack[-1] if stack else -1, name), [0.0, 0])
                entry[0] += clock() - start
                entry[1] += 1

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        targets = [(t, self._wrap) for t in TARGETS] + [(t, self._wrap_leaf) for t in LEAF_TARGETS]
        for (module_name, attr, span_name), wrap in targets:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrap(original, span_name))
                continue
            original = getattr(owner, attr)
            wrapper = wrap(original, span_name)
            # Rebind every module attribute that holds the function, so that
            # `from .x import f` bindings are timed as well.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def extend(self, spans: list, leaves: dict) -> int:
        """Append the spans and leaf totals of another tracer, with their
        parent indices moved to this one; return the index of the first."""
        first = len(self.spans)
        for span in spans:
            self.spans.append(dataclasses.replace(span, parent=span.parent + first if span.parent >= 0 else -1))
        for (parent, name), (seconds, calls) in leaves.items():
            entry = self.leaves.setdefault((parent + first if parent >= 0 else -1, name), [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        return first

    def self_times(self, first: int = 0) -> dict:
        """Per span name over spans[first:]: self seconds, calls, summed count.

        Self time is a span's duration minus the time its child spans cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        totals: dict[str, list] = {}
        for span in spans[first:]:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for (parent, name), (seconds, calls) in self.leaves.items():
            if parent >= first:
                child_time[parent] += seconds
                entry = totals.setdefault(name, [0.0, 0, 0])
                entry[0] += seconds
                entry[1] += calls
        for i in range(first, len(spans)):
            span = spans[i]
            entry = totals.setdefault(span.name, [0.0, 0, 0])
            entry[0] += span.end - span.start - child_time[i]
            entry[1] += 1
            entry[2] += span.count
        return totals

    def dump(self, path) -> None:
        """Write JSON lines: each span (name, start, end, parent, job, count,
        tag), then each leaf total (name, parent, seconds, calls)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
            for (parent, name), (seconds, calls) in sorted(self.leaves.items()):
                handle.write(json.dumps(
                    {"name": name, "parent": parent, "seconds": seconds, "calls": calls}) + "\n")
