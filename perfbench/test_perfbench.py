"""Tests of the benchmark's own checkers, tracer and failure counting.

    python3 -m pytest -q perfbench
"""

import dataclasses
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

from obstruction import adversaries, generators, models, solver, tasks  # noqa: E402
from obstruction.models import Verdict  # noqa: E402

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceModel, knowledge_preserved, witness_problem  # noqa: E402

helpers = pytest.importorskip("helpers")


def _product(n, inputs, action):
    return tasks.apply_action(tasks.initial_model(n, inputs), action)


SMALL_MODELS = [
    ("initial-n2", lambda: tasks.initial_model(2, (0, 1)), (0, 1)),
    ("is-n2", lambda: _product(2, (0, 1), tasks.immediate_snapshot_action(2, (0, 1))), (0, 1)),
    ("waitfree-n1", lambda: _product(1, (0, 1, 2), tasks.round_operator_action(
        1, adversaries.waitfree(1), (0, 1, 2))), (0, 1, 2)),
    ("sa2-n2", lambda: _product(2, (0, 1, 2), tasks.set_agreement_action(2, 2, (0, 1, 2))), (0, 1, 2)),
]


@pytest.mark.parametrize("label,build,values", SMALL_MODELS, ids=[m[0] for m in SMALL_MODELS])
def test_reference_evaluator_matches_naive_evaluator(label, build, values):
    model = build()
    ref = ReferenceModel(model.complex.facets)
    rng = random.Random(7)
    agents = range(model.n + 1)
    for _ in range(25):
        phi = solver.random_positive_formula(rng, agents, values, depth=3)
        mask = ref.mask(phi)
        for i, facet in enumerate(model.complex.facets):
            assert bool(mask >> i & 1) == helpers.naive_satisfies(model, facet, phi), (label, phi)


def test_witness_checker_rejects_a_broken_map():
    protocol = _product(1, (0, 1), tasks.immediate_snapshot_action(1, (0, 1)))
    task = _product(1, (0, 1), tasks.decide_own_input_action(1, (0, 1)))
    found = solver.find_morphism(protocol, task)
    assert witness_problem(found.witness, protocol.complex.facets, task.complex.facets) is None
    broken = dict(found.witness)
    vertex = min(broken, key=lambda v: v.key())
    image = broken[vertex]
    broken[vertex] = type(image)(image.color, (image.obs[0], 1 - image.obs[1]))
    assert witness_problem(broken, protocol.complex.facets, task.complex.facets) is not None


def test_reference_knowledge_check_agrees_with_solver():
    protocol = _product(2, (0, 1), tasks.immediate_snapshot_action(2, (0, 1)))
    task = _product(2, (0, 1), tasks.decide_own_input_action(2, (0, 1)))
    witness = solver.find_morphism(protocol, task).witness
    rng = random.Random(3)
    batch = [solver.random_positive_formula(rng, range(3), (0, 1), depth=3) for _ in range(30)]
    src, tgt = ReferenceModel(protocol.complex.facets), ReferenceModel(task.complex.facets)
    assert knowledge_preserved(witness, src, tgt, batch) is solver.knowledge_gain_check(
        witness, protocol, task, batch)


SMALL_REFUTE = [group for group in workloads.REFUTE if group[0] in ("waitfree-n2", "is-n2")]
# The first group runs once per pass, the others LIGHT_REPEATS times.
SMALL_JOBS = 1 + (len(SMALL_REFUTE) - 1) * workloads.LIGHT_REPEATS


def test_small_refute_groups_match_known_answers(monkeypatch):
    monkeypatch.setattr(workloads, "REFUTE", SMALL_REFUTE)
    result = run.run_one("refute", seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == SMALL_JOBS


def test_flipped_obstruction_verdict_is_counted_as_failed(monkeypatch):
    verify = generators.verify_obstruction

    def flipped(*args, **kwargs):
        report = verify(*args, **kwargs)
        return dataclasses.replace(report, is_obstruction=not report.is_obstruction)

    monkeypatch.setattr(workloads, "REFUTE", SMALL_REFUTE)
    monkeypatch.setattr(generators, "verify_obstruction", flipped)
    result = run.run_one("refute", seed=1, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == SMALL_JOBS


SMALL_STREAMS = (("is-n3", (0, 1), 40), ("waitfree-n2", (0, 1, 2), 20))


def test_flipped_validity_is_counted_as_failed(monkeypatch):
    validity = models.SimplicialModel.validity

    def flipped(self, phi):
        verdict = validity(self, phi)
        return Verdict(None if verdict.counterexample is not None else self.complex.facets[0])

    monkeypatch.setattr(workloads, "EVALUATE_MODELS", SMALL_STREAMS)
    workload = workloads.Evaluate()
    workload.setup(ROOT, seed=5)
    rec = workloads.Recorder()
    workload.run_pass(rec)
    checks = [job for job in rec.jobs if job.name.startswith("check")]
    assert all(job.problem is None for job in rec.jobs)
    monkeypatch.setattr(models.SimplicialModel, "validity", flipped)
    rec = workloads.Recorder()
    workload.run_pass(rec)
    flipped_checks = [job for job in rec.jobs if job.name.startswith("check")]
    assert len(flipped_checks) == len(checks) == 60
    assert all(job.problem is not None for job in flipped_checks)


def test_quotas_follow_shares_and_sum_to_the_total():
    shares = {"a": 0.9689, "b": 0.0269, "c": 0.0036, "d": 0.0006}
    assert workloads.quotas(shares, 2400) == {"a": 2325, "b": 65, "c": 9, "d": 1}
    assert sum(workloads.quotas(shares, 37).values()) == 37


def test_stream_keeps_the_recorded_natural_shares():
    shares = workloads.load_expected()["evaluate"]
    model = workloads.stream_models()[0]
    ref = ReferenceModel(model.complex.facets)
    measured = workloads.natural_shares(ref, range(4), (0, 1), draws=4000, seed=9)
    recorded = shares["is-n3"]
    assert set(measured) <= set(recorded)
    for key in ("0-falsifiable", "0-valid", "1-valid"):
        assert measured[key] == pytest.approx(recorded[key], abs=0.006), key
    stream = workloads.stratified_formulas(random.Random(2), range(4), (0, 1), ref, recorded, 400)
    counts = {}
    for phi in stream:
        key = workloads.stratum(ref, phi)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {k: v for k, v in workloads.quotas(recorded, 400).items() if v}


def test_traced_refute_groups_time_their_actions():
    tracer = tracing.Tracer()
    for label, n, inputs, action, _, task_specs in SMALL_REFUTE:
        first = len(tracer.spans)
        tracer.install()
        try:
            workloads.refute_group(n, inputs, action, task_specs)
        finally:
            tracer.uninstall()
        actions = [s for s in tracer.spans[first:] if s.name == "tasks.action"]
        assert len(actions) == 1 + len(task_specs), label


def test_tracer_times_nested_calls_and_restores_the_package():
    original = tasks.apply_action
    induce = models.induce_model
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tasks.induce_model is not induce  # a `from .models import` binding
        _product(1, (0, 1), tasks.immediate_snapshot_action(1, (0, 1)))
    finally:
        tracer.uninstall()
    assert tasks.apply_action is original and tasks.induce_model is induce
    times = tracer.self_times()
    assert times["tasks.product"][1] == 1 and times["tasks.product"][2] == 12
    assert times["models.induce"][1] == 2  # initial model and product
    product = next(s for s in tracer.spans if s.name == "tasks.product")
    children = [s for s in tracer.spans if s.parent == tracer.spans.index(product)]
    assert {s.name for s in children} == {"complexes.canon", "models.induce"}


def test_tracer_charges_point_queries_to_their_caller():
    initial = tasks.initial_model(1, (0, 1))
    action = tasks.binary_consensus_action(1)  # not uniform: evaluates preconditions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tasks.apply_action(initial, action)
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    assert times["models.satisfies"][1] == len(initial.complex.facets) * len(action.complex.facets)
    product = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans[1:] if s.parent == 0)
    assert times["tasks.product"][0] == pytest.approx(
        product.end - product.start - children - times["models.satisfies"][0])


class Grows:
    """A workload each of whose passes appends to the same list."""

    def __init__(self):
        self.seen = []

    def run_pass(self, rec):
        self.seen.append(len(self.seen))
        rec.job("grow", lambda: list(self.seen), lambda seen: None if seen == [0] else f"saw {seen}")


def test_every_pass_starts_from_the_set_up_heap():
    workload = Grows()
    for index in range(3):
        jobs, _, spans, rss = run.pass_in_child(workload, index, traced=False)
        assert [job.problem for job in jobs] == [None] and jobs[0].scaled > 0
        assert spans is None and rss > 0
    assert workload.seen == []


def test_traced_pass_sends_its_spans_back():
    workload = workloads.Refute()
    workload.setup(ROOT, seed=1)
    tracer = tracing.Tracer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "REFUTE", SMALL_REFUTE[1:])  # IS n=2 vs binary consensus, once
        jobs, _, (spans, leaves), _ = run.pass_in_child(workload, 1, traced=True)
    assert tracer.extend(spans, leaves) == 0 and len(jobs) == 1
    assert tracer.self_times()["tasks.action"][1] == 2
    assert all(span.job.startswith("pass1:") for span in tracer.spans)
    assert tracer.extend(spans, leaves) == len(spans)
    assert [s.parent for s in tracer.spans[len(spans):]] == [
        s.parent + len(spans) if s.parent >= 0 else -1 for s in spans]


def test_a_pass_that_dies_is_an_error():
    class Dies:
        def run_pass(self, rec):
            os._exit(3)

    with pytest.raises(RuntimeError, match="pass 0 failed"):
        run.pass_in_child(Dies(), 0, traced=False)


def test_clock_scales_by_the_samples_in_and_around_an_interval():
    timer = clock.Clock()
    timer.times, timer.loops = [0.0, 1.0, 2.0, 3.0], [0.001, 0.002, 0.004, 0.008]
    # The mean of the speeds REFERENCE_LOOP_S / loop, not of the loop times.
    assert timer.scaled(1.2, 1.7) == pytest.approx(0.5 * clock.REFERENCE_LOOP_S * (500 + 250) / 2)
    assert timer.scaled(0.5, 2.5) == pytest.approx(2.0 * clock.REFERENCE_LOOP_S * (1000 + 500 + 250 + 125) / 4)


def test_running_clock_samples_and_leaves_out_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    timer = clock.Clock()
    with timer:
        start, began = timer.now(), time.perf_counter()
        while time.perf_counter() < began + 0.2:
            pass
        end, wall = timer.now(), time.perf_counter() - began
    assert len(timer.loops) >= 5 and timer.paused > 0
    assert end - start == pytest.approx(wall - timer.paused, abs=0.005)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.percentiles(range(1000))[1:] == (989, "p99")
    assert run.percentiles(range(100))[1:] == (89, "p90")
    assert run.percentiles(range(12))[1:] == (11, "max")
