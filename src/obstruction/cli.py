"""Command-line surface for batch experiments.

Model specs name either the initial model ("initial"), an action model
("is", "bc", "sa:K", "sa-trivial", "round:FILE", "round:waitfree"), or a
product of the initial model with an action ("I[is]", "I[sa:1]", ...). In
solve and obstruct commands a bare action token is shorthand for its
product. A round protocol names its adversary in its spec, and
`obstruct --gen adversary` reads the adversary from there.

A spec is resolved in one place: `_token` reads its action token, `_inputs`
its default inputs, `_action` builds its action and `_products` applies the
actions, so that both products of solve and obstruct share one initial model.
One writer, `_write_built`, writes model and action documents in every
format; its JSON is `json.dumps(doc, indent=2)` byte for byte, written from
the complex's rows, and the small documents (check results, obstruction
reports, solve witnesses) go through `json.dumps` itself.

Exit codes: 0 affirmative, 1 negative verdict, 2 usage error,
3 resource limit.
"""

import argparse
import json
import random
import sys

from . import adversaries, generators, models, solver, tasks
from .complexes import _collector_paused, _json_field, complex_to_json, facet_texts, indented_json
from .formulas import ParseError, parse, render


def _int_at_least(low: int, what: str):
    """An argparse type for integers of at least `low`, `what` naming them."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _inputs_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.replace("{", "").replace("}", "").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad input list {text!r}")
    return values


def _joined_inputs(argv: list[str]) -> list[str]:
    """`argv` with each `--inputs VALUE`, the flag maybe abbreviated, written
    `--inputs=VALUE`: argparse takes a separate `-1,0` for an option."""
    joined = list(argv)
    for i in reversed(range(len(joined) - 1)):
        if len(joined[i]) > 2 and "--inputs".startswith(joined[i]):
            joined[i:i + 2] = [f"{joined[i]}={joined[i + 1]}"]
    return joined


def _token(spec: str) -> str | None:
    """The action token inside a spec, or None for the bare initial model."""
    if spec == "initial":
        return None
    if spec.startswith("I[") and spec.endswith("]"):
        return spec[2:-1]
    return spec


def _inputs(args, specs) -> tuple[int, ...]:
    """`--inputs`, else 0..n if a spec's token starts with `sa` or `round`, else 0, 1."""
    if args.inputs:
        return args.inputs
    if any((_token(spec) or "").startswith(("sa", "round")) for spec in specs):
        return tuple(range(args.n + 1))
    return (0, 1)


def _adversary(spec: str, n: int) -> adversaries.Adversary:
    """The adversary of a `round:FILE` or `round:waitfree` spec, bare or in I[...]."""
    head, colon, name = (_token(spec) or "").partition(":")
    if head != "round" or not colon:
        raise ValueError(f"{spec!r} names no adversary: use round:FILE or round:waitfree")
    if name == "waitfree":
        return adversaries.waitfree(n)
    try:
        with open(name) as handle:
            doc = json.load(handle)
        # The dimension before the sets: normalizing them costs far more.
        found = _json_field(doc, "n", int, "adversary document")
        if found == n:
            return adversaries.adversary_from_json(doc)
    except OSError as exc:
        raise ValueError(f"cannot read adversary file {name!r}: {exc}")
    except ValueError as exc:
        raise ValueError(f"bad adversary file {name!r}: {exc}")
    raise ValueError(f"adversary file {name!r} is for n={found}, not n={n}")


def _bound(token: str, name: str, missing: str) -> int | None:
    """K of `token` = `name:K`, or None if `token` names something other than `name`.

    A bare `name` raises `missing`."""
    head, colon, bound = token.partition(":")
    if head != name:
        return None
    if not colon:
        raise ValueError(missing)
    try:
        return int(bound)
    except ValueError:
        raise ValueError(f"bad agreement bound in {token!r}")


def _action(token: str, n: int, inputs, adversary=None) -> tasks.ActionModel:
    """The action of `token`; `adversary`, when given, is a round token's, already read."""
    if token == "is":
        return tasks.immediate_snapshot_action(n, inputs)
    if token == "bc":
        return tasks.binary_consensus_action(n)
    if token == "sa-trivial":
        return tasks.decide_own_input_action(n, inputs)
    k = _bound(token, "sa", f"spec {token!r} needs an agreement bound: sa:K")
    if k is not None:
        return tasks.set_agreement_action(n, k, inputs)
    if token.partition(":")[0] == "round":
        return tasks.round_operator_action(n, adversary or _adversary(token, n), inputs)
    raise ValueError(f"unknown model spec {token!r}")


def _products(args, *specs: str, read=None) -> list[models.SimplicialModel]:
    """Each spec's action applied to one initial model, in order; a spec is
    checked and its action built before its product. `read` maps a round
    token to its adversary when the command has read it already."""
    inputs = _inputs(args, specs)
    initial = None
    products = []
    for spec in specs:
        token = _token(spec)
        if token is None:
            raise ValueError(f"spec {spec!r} does not name a product model")
        action = _action(token, args.n, inputs, (read or {}).get(token))
        if initial is None:
            initial = tasks.initial_model(args.n, inputs)
        products.append(tasks.apply_action(initial, action))
    return products


def _emit(pieces: list[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as handle:
            handle.writelines(pieces)


def _write_built(built, fmt: str, out: str | None) -> None:
    """Write a model or an action model as json, dot or text; a text line per
    facet carries the facet's input atoms or its precondition."""
    c = built.complex
    is_model = isinstance(built, models.SimplicialModel)
    if fmt == "json":
        # `json.dumps(doc, indent=2)` of the document, written from the rows:
        # each distinct input vector or precondition is rendered once and
        # each facet's atoms or precondition is one piece.
        pieces = complex_to_json(c)
        if is_model:
            atoms = {
                vec: indented_json([[a, v] for a, v in enumerate(vec)], "    ")
                for vec in set(built.inputs)
            }
            pieces.append(',\n  "atoms": [\n    ')
            for vec in built.inputs:
                pieces += (atoms[vec], ",\n    ")
            pieces[-1] = "\n  ]\n}\n"
        else:
            texts = {phi: json.dumps(render(phi)) for phi in set(built.pre)}
            pieces.append(f',\n  "name": {json.dumps(built.name)},\n  "pre": {{\n    ')
            for i, phi in enumerate(built.pre):
                pieces += (f'"{i}": {texts[phi]}', ",\n    ")
            pieces[-1] = "\n  }\n}\n"
        _emit(pieces, out)
    elif fmt == "dot":
        _emit([models.complex_to_dot(c)], out)
    else:
        if is_model:
            head = f"n={c.n} facets={len(c)}"
            atoms = {
                vec: " ".join(f"input({a},{v})" for a, v in enumerate(vec))
                for vec in set(built.inputs)
            }
            labels = [f"[{atoms[vec]}]" for vec in built.inputs]
        else:
            head = f"n={c.n} name={built.name} facets={len(c)}"
            labels = [f"pre: {render(phi)}" for phi in built.pre]
        numbered = enumerate(zip(facet_texts(c), labels))
        lines = [f"f{i}: {text}  {label}" for i, (text, label) in numbered]
        _emit(["\n".join([head, *lines]) + "\n"], out)


def cmd_build(args) -> int:
    token = _token(args.spec)
    inputs = _inputs(args, [args.spec])
    if token is None:
        built = tasks.initial_model(args.n, inputs)
    elif args.spec.startswith("I["):
        [built] = _products(args, args.spec)
    else:
        built = _action(token, args.n, inputs)
    _write_built(built, args.format, args.out)
    return 0


def cmd_check(args) -> int:
    with open(args.model) as handle:
        model = models.model_from_json(json.load(handle))
    phi = parse(args.formula)
    failing = model._failing_ids(phi, 1)
    if args.format == "json":
        doc = {
            "formula": render(phi),
            "valid": not failing,
            "counterexample": failing[0] if failing else None,
        }
        _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    elif failing:
        _emit([f"counterexample: {model.complex.facet(failing[0]).text()}\n"], args.out)
    else:
        _emit(["valid\n"], args.out)
    return 1 if failing else 0


def cmd_obstruct(args) -> int:
    k = _bound(args.gen, "waitfree", "generator waitfree needs a bound: waitfree:K")
    read = {}
    if args.gen == "bc":
        phi = generators.binary_consensus_obstruction(args.n)
    elif k is not None:
        phi = generators.waitfree_kset_obstruction(args.n, k)
    elif args.gen == "adversary":
        adv = read[_token(args.protocol)] = _adversary(args.protocol, args.n)
        phi = generators.adversary_obstruction(args.n, adv)
    else:
        raise ValueError(f"unknown generator {args.gen!r}")

    task, protocol = _products(args, args.task, args.protocol, read=read)
    report = generators.verify_obstruction(task, protocol, phi)
    doc = generators.report_to_json(report)
    if args.format == "json":
        _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    else:
        lines = [
            f"formula: {doc['formula']}",
            f"positive: {doc['positive']}",
            f"task valid: {doc['task_valid']}",
            f"protocol counterexamples: {doc['protocol_counterexamples']}",
            f"obstruction: {doc['is_obstruction']}",
        ]
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if report.is_obstruction else 1


def cmd_solve(args) -> int:
    protocol, task = _products(args, args.protocol, args.task)
    result = solver.find_morphism(protocol, task, args.budget)
    print(f"status: {result.status.value}")
    print(f"explored: {result.explored}")
    if result.status is solver.Solvability.SOLVABLE:
        rng = random.Random(args.seed)
        agents = range(protocol.n + 1)
        values = sorted({v for vector in set(protocol.inputs) for v in vector})
        formulas = [
            solver.random_positive_formula(rng, agents, values, depth=3)
            for _ in range(100)
        ]
        preserved = solver.knowledge_gain_check(result.witness, protocol, task, formulas)
        print(f"knowledge preservation (100 formulas, seed {args.seed}): {preserved}")
        if args.out:
            doc = {
                "map": {
                    v.text(): result.witness[v].text() for v in protocol.complex.vertices()
                },
                "explored": result.explored,
                "transcript": {
                    "morphism": True,
                    "input_preserving": True,
                    "knowledge_preserving": preserved,
                    "seed": args.seed,
                },
            }
            _emit([json.dumps(doc, indent=2) + "\n"], args.out)
        return 0
    if result.status is solver.Solvability.UNSOLVABLE:
        return 1
    return 3


def cmd_export(args) -> int:
    with open(args.model) as handle:
        data = json.load(handle)
    if models.is_action_document(data):
        built = tasks.action_from_json(data)
    else:
        built = models.model_from_json(data)
    _write_built(built, args.format, args.out)
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstruction",
        description="Build epistemic models of one-round protocols and tasks, "
        "check formulas, verify obstructions, and decide solvability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p):
        p.add_argument(
            "--n", type=_int_at_least(0, "nonnegative"), required=True,
            help="dimension: agents are 0..n",
        )
        p.add_argument("--inputs", type=_inputs_arg, default=None, help="comma-separated input values")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_build = sub.add_parser("build", help="construct and export a model")
    p_build.add_argument("spec")
    common_flags(p_build)
    p_build.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="evaluate a formula over an exported model")
    p_check.add_argument("model")
    p_check.add_argument("--formula", required=True)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_obs = sub.add_parser("obstruct", help="generate a formula and verify the obstruction")
    p_obs.add_argument("task")
    p_obs.add_argument("protocol")
    p_obs.add_argument("--gen", required=True, help="bc | waitfree:K | adversary")
    common_flags(p_obs)
    p_obs.add_argument("--format", choices=("json", "text"), default="json")
    p_obs.set_defaults(func=cmd_obstruct)

    p_solve = sub.add_parser("solve", help="search for a solving decision map")
    p_solve.add_argument("protocol")
    p_solve.add_argument("task")
    common_flags(p_solve)
    p_solve.add_argument("--budget", type=_int_at_least(1, "positive"), default=10_000_000)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.set_defaults(func=cmd_solve)

    p_export = sub.add_parser("export", help="convert an exported model between formats")
    p_export.add_argument("model")
    p_export.add_argument("--out", default=None)
    p_export.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p_export.set_defaults(func=cmd_export)

    return parser


@_collector_paused
def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused. A command
    builds large data without reference cycles (tuples, JSON dicts and
    lists), holds it until it ends and then drops it, so a collection finds
    nothing to free; loading a document would otherwise set off one after
    another, about half the time `json.load` takes.
    """
    parser = _make_parser()
    args = parser.parse_args(_joined_inputs(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the model is too large", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
