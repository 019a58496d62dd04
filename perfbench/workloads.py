"""The four benchmark workloads and their known answers.

Each workload builds what it needs in `setup()` and then runs passes. A pass
is a fixed list of jobs; each job is one timed call into the package whose
result is checked afterwards, outside the timed region, against a known
answer. Every pass of a run runs the same jobs in the same order; short jobs
run LIGHT_REPEATS times per pass, so that each job's median time rests on
samples spread over the whole run. Only `evaluate` depends on the seed: its
`setup()` draws the formulas that every pass checks.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field

from obstruction import adversaries, cli, formulas, generators, models, solver, tasks

import clock
from reference import ReferenceModel, knowledge_preserved, witness_problem

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
LIGHT_REPEATS = 3


@dataclass
class Job:
    name: str
    start: float  # on the run's clock.Clock
    end: float
    problem: str | None  # None when the answer matched
    decided: bool = True
    sample: bool = True  # counted in the per-job latency percentiles
    scaled: float = 0.0  # seconds on the reference host, set once the clock has stopped

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Times jobs and checks their answers; one per pass."""

    timer: clock.Clock = field(default_factory=clock.Clock)
    tracer: object = None
    label: str = ""
    jobs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def job(self, name, run, check, decided=None, sample=True):
        if self.tracer is not None:
            self.tracer.job = f"{self.label}:{name}"
        start = self.timer.now()
        try:
            result = run()
        except Exception as exc:  # a raising job is a failed job, not a crash
            self.jobs.append(Job(name, start, self.timer.now(), f"raised {exc!r}", sample=sample))
            return None
        finally:
            if self.tracer is not None:  # calls between jobs make the inputs
                self.tracer.job = f"{self.label}:inputs"
        end = self.timer.now()
        try:
            problem = check(result)
            done = True if decided is None else decided(result)
        except Exception as exc:
            problem, done = f"check raised {exc!r}", True
        self.jobs.append(Job(name, start, end, problem, done, sample))
        return result


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def _product(n, inputs, action):
    return tasks.apply_action(tasks.initial_model(n, inputs), action)


# Actions are looked up on `tasks` at call time, so traced runs time them.
def SNAPSHOT(n, inputs):
    return tasks.immediate_snapshot_action(n, inputs)


def WAITFREE(n, inputs):
    return tasks.round_operator_action(n, adversaries.waitfree(n), inputs)


# -- refute ------------------------------------------------------------------

SPLIT_PAIR = adversaries.from_survivor_sets(3, [{0, 1}, {2, 3}])
TWO_OF_THREE = adversaries.from_survivor_sets(2, [{0, 1}, {1, 2}, {0, 2}])

# Protocol groups, as `obstruct` runs them: (label, n, inputs, protocol
# action, protocol facets, [(task label, task action, generator, verdict)]).
REFUTE = [
    (
        "split-pair-n3", 3, (0, 1, 2, 3),
        lambda: tasks.round_operator_action(3, SPLIT_PAIR, (0, 1, 2, 3)), 16128,
        [
            ("sa:1", lambda: tasks.set_agreement_action(3, 1, (0, 1, 2, 3)),
             lambda: generators.adversary_obstruction(3, SPLIT_PAIR), True),
            ("sa:2", lambda: tasks.set_agreement_action(3, 2, (0, 1, 2, 3)),
             lambda: generators.adversary_obstruction(3, SPLIT_PAIR), False),
        ],
    ),
    (
        "waitfree-n2", 2, (0, 1, 2),
        lambda: WAITFREE(2, (0, 1, 2)), 513,
        [
            ("sa:1", lambda: tasks.set_agreement_action(2, 1, (0, 1, 2)),
             lambda: generators.waitfree_kset_obstruction(2, 1), True),
            ("sa:2", lambda: tasks.set_agreement_action(2, 2, (0, 1, 2)),
             lambda: generators.waitfree_kset_obstruction(2, 2), True),
        ],
    ),
    (
        "two-of-three-n2", 2, (0, 1, 2),
        lambda: tasks.round_operator_action(2, TWO_OF_THREE, (0, 1, 2)), 270,
        [("sa:1", lambda: tasks.set_agreement_action(2, 1, (0, 1, 2)),
          lambda: generators.adversary_obstruction(2, TWO_OF_THREE), True)],
    ),
    (
        "is-n2", 2, (0, 1), lambda: SNAPSHOT(2, (0, 1)), 104,
        [("bc", lambda: tasks.binary_consensus_action(2),
          lambda: generators.binary_consensus_obstruction(2), True)],
    ),
    (
        "is-n3", 3, (0, 1), lambda: SNAPSHOT(3, (0, 1)), 1200,
        [("bc", lambda: tasks.binary_consensus_action(3),
          lambda: generators.binary_consensus_obstruction(3), True)],
    ),
]


def refute_group(n, inputs, protocol_action, task_specs):
    """One protocol model refuted against each task: (facets, verdicts)."""
    protocol = _product(n, inputs, protocol_action())
    verdicts = []
    for _, task_action, generate, _ in task_specs:
        task = _product(n, inputs, task_action())
        report = generators.verify_obstruction(task, protocol, generate())
        verdicts.append((report.is_obstruction, list(report.counterexample_ids)))
    return len(protocol.complex.facets), verdicts


class Refute:
    """Build protocol and task models, generate the formula, verify it."""

    def setup(self, root, seed):
        self.expected = load_expected()["refute"]

    def run_pass(self, rec):
        # Every group but the first, split-pair, is light.
        light = REFUTE[1:]
        for label, n, inputs, action, facets, task_specs in REFUTE + light * (LIGHT_REPEATS - 1):
            def check(result, label=label, facets=facets, task_specs=task_specs):
                built, verdicts = result
                if built != facets:
                    return f"{label}: {built} protocol facets, expected {facets}"
                for (task, _, _, obstruction), (got, ids) in zip(task_specs, verdicts):
                    want = self.expected[f"{label} {task}"]
                    if got != obstruction or ids != want:
                        return f"{label} vs {task}: obstruction={got} ids={ids}"
                return None

            rec.job(label, lambda: refute_group(n, inputs, action, task_specs), check)


# -- evaluate ----------------------------------------------------------------

# The models the formulas are checked on, with their atom values and the
# number of formulas checked on each per pass: 2,400 on IS n=3 hold nine
# heavy-tail formulas at their natural share, and several passes fit a 30 s run.
EVALUATE_MODELS = (("is-n3", (0, 1), 2400), ("waitfree-n2", (0, 1, 2), 600))
KNOWLEDGE_FORMULAS = 20
# Facet counts of the two models the formulas are checked on, then of the
# knowledge check's source and target.
EVALUATE_SIZES = [1200, 513, 1200, 16]
# Draws behind the natural stratum shares recorded in expected.json.
SHARE_DRAWS, SHARE_SEED = 100_000, 0


def stream_models() -> list:
    """The models of EVALUATE_MODELS, built."""
    return [
        _product(3, (0, 1), SNAPSHOT(3, (0, 1))),
        _product(2, (0, 1, 2), WAITFREE(2, (0, 1, 2))),
    ]


def stratum(ref, phi) -> str:
    """The cost class of a formula, judged by the reference evaluator.

    A `C[G]` node that holds on a G-class of at least half the facets makes
    the package's evaluator visit that class once for each of its facets, so
    formulas with such nodes carry the heavy tail. The stratum is their number
    (0, 1, or 2 and more) and whether the formula is valid.
    """
    large, seen, todo = 0, set(), [phi]
    while todo:
        node = todo.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        if node.kind == "common" and ref.holds_on_large_class(node):
            large += 1
        todo.extend(node.children)
    valid = not ref.counterexample_ids(phi, 1)
    return f"{min(large, 2)}-{'valid' if valid else 'falsifiable'}"


def natural_shares(ref, agents, values, draws=SHARE_DRAWS, seed=SHARE_SEED) -> dict:
    """Each stratum's share of `draws` formulas from `random_positive_formula`."""
    rng = random.Random(seed)
    counts = Counter(
        stratum(ref, solver.random_positive_formula(rng, agents, values, depth=3))
        for _ in range(draws)
    )
    return {key: counts[key] / draws for key in sorted(counts)}


def quotas(shares, total) -> dict:
    """Whole formula counts per stratum in proportion to `shares`, summing to
    `total`; the strata with the largest remainders get the leftover ones."""
    exact = {key: share * total for key, share in shares.items()}
    room = {key: int(value) for key, value in exact.items()}
    by_remainder = sorted(exact, key=lambda key: exact[key] - room[key], reverse=True)
    for key in by_remainder[: total - sum(room.values())]:
        room[key] += 1
    return room


def stratified_formulas(rng, agents, values, ref, shares, total) -> list:
    """`total` seeded formulas whose strata keep the generator's natural shares.

    Formulas come from `random_positive_formula` in the order drawn; a draw is
    kept while its stratum still has room. Within a stratum the formulas are
    the generator's own; only the number of heavy-tail formulas is fixed at
    its natural share instead of left to chance, so that the streams of
    different seeds cost about the same.
    """
    room = quotas(shares, total)
    chosen = []
    while any(room.values()):
        phi = solver.random_positive_formula(rng, agents, values, depth=3)
        key = stratum(ref, phi)
        if room.get(key):
            room[key] -= 1
            chosen.append(phi)
    return chosen


class Evaluate:
    """Seeded formulas checked as `check` does, and a knowledge-gain check."""

    def setup(self, root, seed):
        snapshot, waitfree = stream_models()
        trivial = _product(3, (0, 1), tasks.decide_own_input_action(3, (0, 1)))
        built = [snapshot, waitfree, snapshot, trivial]
        sizes = [len(m.complex.facets) for m in built]
        if sizes != EVALUATE_SIZES:
            raise RuntimeError(f"evaluate models have {sizes} facets, expected {EVALUATE_SIZES}")
        found = solver.find_morphism(snapshot, trivial)
        if found.status is not solver.Solvability.SOLVABLE:
            raise RuntimeError(f"no witness for the evaluate task: {found.status}")
        problem = witness_problem(found.witness, snapshot.complex.facets, trivial.complex.facets)
        if problem is not None:
            raise RuntimeError(f"evaluate witness is wrong: {problem}")
        self.complexes = [m.complex for m in built]
        self.refs = [ReferenceModel(c.facets) for c in self.complexes]
        self.witness = found.witness
        shares = load_expected()["evaluate"]
        rng = random.Random(seed)
        self.streams = [
            stratified_formulas(rng, range(built[i].n + 1), values, self.refs[i], shares[label], total)
            for i, (label, values, total) in enumerate(EVALUATE_MODELS)
        ]
        self.batch = [
            solver.random_positive_formula(rng, range(4), (0, 1), depth=3)
            for _ in range(KNOWLEDGE_FORMULAS)
        ]

    def run_pass(self, rec):
        # Every pass starts from cold models, as every CLI call does.
        fresh = rec.job(
            "induce",
            lambda: [models.induce_model(c, "left") for c in self.complexes],
            lambda built: None if [len(m.complex.facets) for m in built] == EVALUATE_SIZES
            else "induced models changed size",
            sample=False,
        )
        if fresh is None:
            return
        for (label, _, _), model, ref, stream in zip(EVALUATE_MODELS, fresh, self.refs, self.streams):
            for j, phi in enumerate(stream):
                text = formulas.render(phi)

                def run(model=model, text=text):
                    phi = formulas.parse(text)
                    return phi, model.validity(phi), model.counterexamples(phi, 10)

                def check(result, model=model, ref=ref, text=text):
                    phi, verdict, found = result
                    want = ref.counterexample_ids(phi)
                    ids = [model.complex.index(f) for f in found]
                    first = [] if verdict.is_valid else [model.complex.index(verdict.counterexample)]
                    if ids != want or first != want[:1]:
                        return f"{text}: counterexamples {ids}, first {first}, expected {want}"
                    return None

                rec.job(f"check {label} {j}", run, check)
        rec.job(
            "knowledge",
            lambda: solver.knowledge_gain_check(self.witness, fresh[2], fresh[3], self.batch),
            lambda kept: None if kept is True
            and knowledge_preserved(self.witness, self.refs[2], self.refs[3], self.batch)
            else f"knowledge_gain_check gave {kept}",
            sample=False,
        )


# -- decide ------------------------------------------------------------------

DECIDE_BUDGET = 20_000

# (label, n, inputs, protocol action, task action, allowed verdicts)
DECIDE = [
    ("sperner-is-sa2-n2", 2, (0, 1, 2), SNAPSHOT, lambda n, i: tasks.set_agreement_action(n, 2, i),
     {"unsolvable", "resource-limit"}),
    ("is-bc-n1", 1, (0, 1), SNAPSHOT, lambda n, i: tasks.binary_consensus_action(n), {"unsolvable"}),
    ("is-bc-n2", 2, (0, 1), SNAPSHOT, lambda n, i: tasks.binary_consensus_action(n), {"unsolvable"}),
    ("is-bc-n3", 3, (0, 1), SNAPSHOT, lambda n, i: tasks.binary_consensus_action(n), {"unsolvable"}),
    ("waitfree-sa1-n2", 2, (0, 1, 2), WAITFREE, lambda n, i: tasks.set_agreement_action(n, 1, i),
     {"unsolvable"}),
    ("is-trivial-n3", 3, (0, 1), SNAPSHOT, tasks.decide_own_input_action, {"solvable"}),
    ("waitfree-sa3-n3", 3, (0, 1), WAITFREE, lambda n, i: tasks.set_agreement_action(n, 3, i),
     {"solvable"}),
]


class Decide:
    """`find_morphism` under a fixed node budget on prebuilt instances."""

    def setup(self, root, seed):
        self.instances = [
            (label, _product(n, inputs, protocol(n, inputs)), _product(n, inputs, task(n, inputs)), allowed)
            for label, n, inputs, protocol, task, allowed in DECIDE
        ]

    def run_pass(self, rec):
        # Every instance but the first, the one that stops at the budget, is light.
        light = self.instances[1:]
        for label, protocol, task, allowed in self.instances + light * (LIGHT_REPEATS - 1):
            def check(result, label=label, protocol=protocol, task=task, allowed=allowed):
                status = result.status.value
                if status not in allowed:
                    return f"{label}: {status}, expected one of {sorted(allowed)}"
                if status == "solvable":
                    problem = witness_problem(result.witness, protocol.complex.facets, task.complex.facets)
                    if problem is not None:
                        return f"{label}: witness does not solve the task: {problem}"
                return None

            rec.job(
                label,
                lambda: solver.find_morphism(protocol, task, DECIDE_BUDGET),
                check,
                decided=lambda result: result.status is not solver.Solvability.RESOURCE_LIMIT,
            )


# -- cli ---------------------------------------------------------------------

# (label, argv with {d} for the pass's work directory, exit code, output file).
# Steps from CLI_LIGHT on only read the files built before them.
CLI_SCRIPT = [
    ("build", ["build", "I[is]", "--n", "3", "--inputs", "0,1", "--out", "{d}/is3.json"], 0, "is3.json"),
    ("build", ["build", "I[round:waitfree]", "--n", "3", "--inputs", "0,1", "--out", "{d}/wf3.json"],
     0, "wf3.json"),
    ("check", ["check", "{d}/wf3.json", "--format", "json", "--formula",
               "C[{0,1,2,3}] (input(0,0) | input(1,0) | input(2,0) | input(3,0))"], 1, None),
    ("export", ["export", "{d}/wf3.json", "--format", "json", "--out", "{d}/wf3-copy.json"], 0, "wf3-copy.json"),
    ("check", ["check", "{d}/is3.json", "--formula", "K[0] input(0,0) | K[0] input(0,1)"], 0, None),
    ("export", ["export", "{d}/is3.json", "--format", "text", "--out", "{d}/is3.txt"], 0, "is3.txt"),
    ("obstruct", ["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "2"], 0, None),
    ("obstruct", ["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "3", "--format", "text"], 0, None),
    ("solve", ["solve", "I[is]", "I[sa-trivial]", "--n", "2", "--out", "{d}/witness.json"], 0, "witness.json"),
    ("build", ["build", "I[sa:1]", "--n", "2", "--format", "dot", "--out", "{d}/sa1.dot"], 0, "sa1.dot"),
    ("build", ["build", "sa:1", "--n", "2"], 0, None),
]
CLI_LIGHT = 4


def run_cli(argv, workdir, out_name):
    """One in-process CLI call: (exit code, stdout bytes, output file bytes)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([arg.replace("{d}", workdir) for arg in argv])
    data = b""
    if out_name is not None:
        with open(os.path.join(workdir, out_name), "rb") as handle:
            data = handle.read()
    return code, buffer.getvalue().encode(), data


def output_digest(stdout: bytes, data: bytes) -> str:
    return hashlib.sha256(stdout + b"\0" + data).hexdigest()


class Cli:
    """A fixed script of in-process `obstruction` commands in a scratch directory."""

    def setup(self, root, seed):
        self.scratch = os.path.join(root, ".perfbench")
        self.expected = load_expected()["cli"]
        os.makedirs(self.scratch, exist_ok=True)

    def run_pass(self, rec):
        workdir = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        json_bytes = 0
        steps = list(enumerate(CLI_SCRIPT))
        try:
            for step, (label, argv, code, out_name) in steps + steps[CLI_LIGHT:] * (LIGHT_REPEATS - 1):
                def check(result, step=step, code=code):
                    got, stdout, data = result
                    if got != code or output_digest(stdout, data) != self.expected[step]:
                        return f"cli step {step} ({' '.join(argv)}): exit {got} or output bytes differ"
                    return None

                result = rec.job(f"{step}:{label}", lambda: run_cli(argv, workdir, out_name), check)
                if result is not None and (out_name or "").endswith(".json"):
                    json_bytes += len(result[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rec.counts["cli.json_bytes"] = json_bytes


WORKLOADS = {"refute": Refute, "evaluate": Evaluate, "decide": Decide, "cli": Cli}


def record_expected(root) -> dict:
    """Known answers that are recorded once, from the seed commit's outputs,
    and the natural stratum shares of the evaluate formulas."""
    refute = {}
    for label, n, inputs, action, _, task_specs in REFUTE:
        _, verdicts = refute_group(n, inputs, action, task_specs)
        for (task, *_), (_, ids) in zip(task_specs, verdicts):
            refute[f"{label} {task}"] = ids
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        digests = [
            output_digest(*run_cli(argv, workdir, out_name)[1:])
            for _, argv, _, out_name in CLI_SCRIPT
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    evaluate = {
        label: natural_shares(ReferenceModel(model.complex.facets), range(model.n + 1), values)
        for (label, values, _), model in zip(EVALUATE_MODELS, stream_models())
    }
    return {"refute": refute, "evaluate": evaluate, "cli": digests}
