import gc
import json
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from obstruction import cli
from obstruction.cli import main
from obstruction.complexes import Vertex
from obstruction.models import model_to_json
from obstruction.tasks import (
    action_to_json,
    apply_action,
    immediate_snapshot_action,
    initial_model,
    set_agreement_action,
)

from conftest import build_demo_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_demo_model(path):
    with open(path, "w") as handle:
        json.dump(model_to_json(build_demo_model()), handle)
    return str(path)


def test_build_consensus_product(tmp_path, capsys):
    out = tmp_path / "model.json"
    code, _, _ = run(capsys, "build", "I[bc]", "--n", "1", "--inputs", "0,1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 1
    assert len(doc["facets"]) == 6


def test_build_agreement_product(tmp_path, capsys):
    out = tmp_path / "model.json"
    code, _, _ = run(capsys, "build", "I[sa:1]", "--n", "2", "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["facets"]) == 57


def test_build_single_facet_initial(capsys):
    code, stdout, _ = run(capsys, "build", "initial", "--n", "0", "--inputs", "5")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["facets"] == [{"vertices": [{"color": 0, "obs": 5}]}]


def test_build_action_model_includes_preconditions(capsys):
    code, stdout, _ = run(capsys, "build", "bc", "--n", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["pre"]["0"] == "input(0,0) | input(1,0)"
    assert doc["pre"]["1"] == "input(0,1) | input(1,1)"


def test_build_is_byte_deterministic(capsys):
    code1, first, _ = run(capsys, "build", "I[is]", "--n", "2", "--inputs", "0,1")
    code2, second, _ = run(capsys, "build", "I[is]", "--n", "2", "--inputs", "0,1")
    assert code1 == code2 == 0
    assert first == second


def test_build_dot_and_text_formats(capsys):
    code, dot, _ = run(capsys, "build", "I[bc]", "--n", "1", "--format", "dot")
    assert code == 0
    assert dot.startswith("graph") and "--" in dot
    code, text, _ = run(capsys, "build", "I[bc]", "--n", "1", "--format", "text")
    assert code == 0
    assert "facets=6" in text


def test_build_unknown_spec_is_usage_error(capsys):
    # A round spec is `round` itself or `round:...`, not any word starting so.
    for spec in ("mystery", "roundabout"):
        code, _, err = run(capsys, "build", spec, "--n", "1")
        assert code == 2
        assert f"unknown model spec {spec!r}" in err


def test_build_round_requires_adversary(capsys):
    code, _, err = run(capsys, "build", "round", "--n", "1")
    assert code == 2
    assert "round:FILE" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "is", "--n", "1"],
        ["solve", "I[is]", "I[bc]", "--n", "1"],
        ["obstruct", "I[sa:1]", "round:waitfree", "--gen", "adversary", "--n", "2"],
    ],
    ids=["build", "solve", "obstruct"],
)
def test_adversary_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--adversary", "waitfree"])
    assert err.value.code == 2
    assert "unrecognized arguments: --adversary" in capsys.readouterr().err


def test_build_has_no_k_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "sa", "--n", "2", "--k", "1"])
    assert err.value.code == 2


def test_build_bare_agreement_spec_needs_a_bound(capsys):
    code, _, err = run(capsys, "build", "sa", "--n", "2")
    assert code == 2
    assert "sa:K" in err


def test_check_valid_formula(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, out, _ = run(
        capsys,
        "check",
        model,
        "--formula",
        "C[{0,1,2}] (input(0,2) | input(1,2) | input(2,2))",
    )
    assert code == 0
    assert out.strip() == "valid"


def test_check_counterexample_lacks_value(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, out, _ = run(capsys, "check", model, "--formula", "input(1,3)", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["counterexample"] is not None


def test_check_false_fails_at_first_facet(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, out, _ = run(capsys, "check", model, "--formula", "false", "--format", "json")
    assert code == 1
    assert json.loads(out)["counterexample"] == 0


def test_check_reports_formula_errors(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, _, err = run(capsys, "check", model, "--formula", "input(0,")
    assert code == 2
    assert "formula error" in err


def test_check_reports_a_non_decimal_digit_as_a_formula_error(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, out, err = run(capsys, "check", model, "--formula", "input(0,²)")
    assert code == 2
    assert out == ""
    assert err == "formula error: expected a number, found '²' (at position 8)\n"


def test_check_agent_out_of_range(tmp_path, capsys):
    model = write_demo_model(tmp_path / "demo.json")
    code, _, err = run(capsys, "check", model, "--formula", "K[9] false")
    assert code == 2
    assert "outside" in err


def test_check_reports_the_first_failing_id_without_the_facet_map(tmp_path, capsys, monkeypatch):
    doc = str(tmp_path / "wf2.json")
    assert run(capsys, "build", "I[round:waitfree]", "--n", "2", "--out", doc)[0] == 0

    def no_index(self, facet):
        raise AssertionError("check must not hash a facet back to its id")

    monkeypatch.setattr("obstruction.complexes.ChromaticComplex.index", no_index)
    code, out, _ = run(capsys, "check", doc, "--formula", "input(0,0)", "--format", "json")
    assert code == 1
    assert json.loads(out)["counterexample"] == 171
    code, out, _ = run(capsys, "check", doc, "--formula", "input(0,0)")
    assert code == 1
    # Facet f171 of `export --format text`.
    assert out == "counterexample: 0:(1,{0:1}) 1:(0,{0:1,1:0}) 2:(0,{0:1,1:0,2:0})\n"


def test_obstruct_consensus(capsys):
    code, out, _ = run(
        capsys, "obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "2", "--format", "text"
    )
    assert code == 0
    assert "obstruction: True" in out


def test_obstruct_adversary_round(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "obstruct",
        "I[sa:1]",
        "round:waitfree",
        "--gen",
        "adversary",
        "--n",
        "2",
    )
    assert code == 0
    assert json.loads(out)["is_obstruction"] is True


def test_obstruct_adversary_generator_needs_a_round_protocol(capsys):
    code, out, err = run(capsys, "obstruct", "I[sa:1]", "I[is]", "--gen", "adversary", "--n", "2")
    assert code == 2
    assert out == ""
    assert "round:FILE" in err


def test_obstruct_reports_honest_negative(tmp_path, capsys):
    adv = tmp_path / "2of3.json"
    adv.write_text(json.dumps({"n": 2, "survivor_sets": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run(
        capsys,
        "obstruct",
        "I[sa:2]",
        f"round:{adv}",
        "--gen",
        "adversary",
        "--n",
        "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["is_obstruction"] is False
    assert doc["task_valid"] is False


def test_obstruct_waitfree_generator(capsys):
    code, out, _ = run(
        capsys,
        "obstruct",
        "I[sa:1]",
        "round:waitfree",
        "--gen",
        "waitfree:1",
        "--n",
        "2",
    )
    assert code == 0
    assert json.loads(out)["is_obstruction"] is True


def test_obstruct_unknown_generator(capsys):
    code, _, err = run(capsys, "obstruct", "I[bc]", "I[is]", "--gen", "what", "--n", "1")
    assert code == 2
    assert "unknown generator" in err


@pytest.mark.parametrize("gen", ["waitfreeXYZ:1", "waitfree_typo:2"])
def test_obstruct_generator_name_must_be_exact(capsys, gen):
    code, out, err = run(capsys, "obstruct", "I[sa:1]", "round:waitfree", "--gen", gen, "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: unknown generator {gen!r}\n"


def test_obstruct_bad_generator_bound_builds_no_model(capsys, monkeypatch):
    def no_build(*_):
        raise AssertionError("a model was built before the generator was resolved")

    monkeypatch.setattr("obstruction.tasks.apply_action", no_build)
    code, out, err = run(
        capsys, "obstruct", "I[sa:1]", "round:waitfree", "--gen", "waitfree:x", "--n", "2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: bad agreement bound in 'waitfree:x'\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["solve", "I[is]", "I[bc]", "--n", "1"], 1),
        (["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "2"], 0),
    ],
    ids=["solve", "obstruct"],
)
def test_both_products_share_one_initial_model(capsys, monkeypatch, argv, code):
    calls = []

    def counted(*args):
        calls.append(args)
        return initial_model(*args)

    monkeypatch.setattr("obstruction.tasks.initial_model", counted)
    exit_code, _, err = run(capsys, *argv)
    assert (exit_code, err, len(calls)) == (code, "", 1)


@pytest.mark.parametrize("argv", [
    ["solve", "initial", "I[bc]", "--n", "1"],
    ["solve", "I[bc]", "initial", "--n", "1"],
])
def test_a_bare_initial_spec_names_no_product(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: spec 'initial' does not name a product model\n"


def test_solve_trivial_task(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code, stdout, _ = run(
        capsys, "solve", "I[is]", "I[sa-trivial]", "--n", "1", "--out", str(out)
    )
    assert code == 0
    assert "status: solvable" in stdout
    assert "knowledge preservation (100 formulas, seed 0): True" in stdout
    doc = json.loads(out.read_text())
    assert doc["transcript"]["morphism"] is True
    assert len(doc["map"]) == 12


def test_solve_writes_map_in_vertex_key_order(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "I[is]", "I[sa-trivial]", "--n", "2", "--out", str(out))
    assert code == 0
    protocol = apply_action(initial_model(2, (0, 1, 2)), immediate_snapshot_action(2, (0, 1, 2)))
    vertices = sorted(protocol.complex.vertices(), key=Vertex.key)
    assert list(json.loads(out.read_text())["map"]) == [v.text() for v in vertices]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "initial", "--n", "-1"],
        ["obstruct", "I[sa:1]", "round:waitfree", "--gen", "waitfree:1", "--n", "-1"],
        ["solve", "I[is]", "I[bc]", "--n", "-1"],
    ],
    ids=["build", "obstruct", "solve"],
)
def test_negative_dimension_is_rejected_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    _, stderr = capsys.readouterr()
    assert stderr.endswith("error: argument --n: must be a nonnegative integer, got -1\n")


def test_solve_consensus_unsolvable(capsys):
    code, stdout, _ = run(capsys, "solve", "I[is]", "I[bc]", "--n", "1")
    assert code == 1
    assert "status: unsolvable" in stdout


def test_solve_witness_is_byte_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "solve", "I[is]", "I[sa-trivial]", "--n", "1", "--out", str(out)
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_solve_budget_limit(capsys):
    code, stdout, _ = run(capsys, "solve", "I[is]", "I[bc]", "--n", "1", "--budget", "1")
    assert code == 3
    assert "status: resource-limit" in stdout


def test_solve_rejects_bad_budget(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "I[is]", "I[bc]", "--n", "1", "--budget", "0"])
    assert err.value.code == 2


def test_solve_rejects_format(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "I[is]", "I[bc]", "--n", "1", "--format", "json"])
    assert err.value.code == 2


def test_obstruct_rejects_dot_format(capsys):
    with pytest.raises(SystemExit) as err:
        main(["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "2", "--format", "dot"])
    assert err.value.code == 2


def test_export_round_trips_between_formats(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "build", "I[bc]", "--n", "1", "--out", str(model_path))
    assert code == 0
    code, dot, _ = run(capsys, "export", str(model_path), "--format", "dot")
    assert code == 0
    assert dot.startswith("graph")
    code, text, _ = run(capsys, "export", str(model_path), "--format", "text")
    assert code == 0
    assert "facets=6" in text
    code, again, _ = run(capsys, "export", str(model_path), "--format", "json")
    assert code == 0
    assert json.loads(again) == json.loads(model_path.read_text())


def test_export_action_model(tmp_path, capsys):
    action_path = tmp_path / "action.json"
    code, _, _ = run(capsys, "build", "sa:1", "--n", "1", "--out", str(action_path))
    assert code == 0
    code, out, _ = run(capsys, "export", str(action_path), "--format", "text")
    assert code == 0
    assert "pre:" in out


def test_negative_inputs_round_trip(tmp_path, capsys):
    action, again = tmp_path / "action.json", tmp_path / "again.json"
    code, _, _ = run(capsys, "build", "sa:1", "--n", "1", "--inputs=-1,0", "--out", str(action))
    assert code == 0
    code, text, _ = run(capsys, "export", str(action), "--format", "text")
    assert code == 0
    assert "input(0,-1)" in text
    code, _, _ = run(capsys, "export", str(action), "--format", "json", "--out", str(again))
    assert code == 0
    assert again.read_bytes() == action.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "sa:1", "--n", "1"],
        ["build", "I[bc]", "--n", "1", "--format", "text"],
        ["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "1"],
        ["solve", "I[is]", "I[sa-trivial]", "--n", "1"],
    ],
    ids=["build-action", "build-product", "obstruct", "solve"],
)
def test_negative_inputs_read_in_both_spellings(capsys, argv):
    # argparse alone takes a separate `-1,0` for an option.
    separate = run(capsys, *argv, "--inputs", "-1,0")
    assert run(capsys, *argv, "--inputs=-1,0") == separate
    assert run(capsys, *argv, "--inp", "-1,0") == separate
    assert separate[0] in (0, 1) and separate[1]


def test_check_names_a_negative_input(tmp_path, capsys):
    model = tmp_path / "bc.json"
    code, _, _ = run(capsys, "build", "I[bc]", "--n", "1", "--inputs=-1,0", "--out", str(model))
    assert code == 0
    code, out, _ = run(capsys, "check", str(model), "--formula", "input(0,-1) | input(0,0)")
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "check", str(model), "--formula", "input(0,-1)")
    assert code == 1 and out.startswith("counterexample")


def test_export_reads_each_precondition_with_its_listed_facet(tmp_path, capsys):
    path = tmp_path / "bc.json"
    code, _, _ = run(capsys, "build", "bc", "--n", "1", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["facets"].reverse()
    doc["pre"] = {"0": doc["pre"]["1"], "1": doc["pre"]["0"]}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "export", str(path), "--format", "text")
    assert code == 0
    assert out.splitlines()[1:] == [
        "f0: 0:0 1:0  pre: input(0,0) | input(1,0)",
        "f1: 0:1 1:1  pre: input(0,1) | input(1,1)",
    ]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "nope.json", "--formula", "false")
    assert code == 2
    assert "error" in err


def _one_vertex_doc_with_atom_value(value):
    # The vertex's input is 1, which `true` and `1.0` compare equal to.
    return {"n": 0, "facets": [{"vertices": [{"color": 0, "obs": 1}]}], "atoms": [[[0, value]]]}


def _demo_doc_with_bad_atoms():
    doc = model_to_json(build_demo_model())
    doc["atoms"] = [[1]]
    return doc


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 1, "facets": [5]}, "malformed facet entry: expected an object, got int"),
        ({"n": "x", "facets": []}, "malformed complex document: 'n' must be of type int, got str"),
        ({"n": 0, "facets": 3}, "malformed complex document: 'facets' must be of type list, got int"),
        (_demo_doc_with_bad_atoms(), "malformed model document: 'atoms' must hold one list"),
        ([1, 2], "malformed complex document: expected an object, got list"),
        (_one_vertex_doc_with_atom_value(True), "malformed model document: 'atoms' must hold one list"),
        (_one_vertex_doc_with_atom_value(1.0), "malformed model document: 'atoms' must hold one list"),
    ],
    ids=[
        "facet-not-object", "n-not-int", "facets-not-list", "bad-atoms", "top-level-list",
        "atom-value-true", "atom-value-float",
    ],
)
def test_malformed_model_file_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path), "--formula", "false")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"n": -1, "facets": [{"vertices": [{"color": 0, "obs": 0}]}]},
            "dimension must be nonnegative",
        ),
        (
            # Plain and pair observations: the first vertex is plain, so the
            # pair vertex has no integer input.
            {"n": 1, "facets": [
                {"vertices": [{"color": 0, "obs": 0}, {"color": 1, "obs": [0, 1]}]},
            ]},
            "input of vertex 1:(0,1) is not an integer value",
        ),
    ],
    ids=["negative-dimension", "mixed-observation-kinds"],
)
def test_export_refuses_a_malformed_model(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export", str(path), "--format", "text")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_export_refuses_a_facet_listing_a_vertex_twice(tmp_path, capsys):
    path = tmp_path / "repeat.json"
    entry = {"color": 0, "obs": 0}
    facet = {"vertices": [entry, entry, {"color": 1, "obs": 1}]}
    path.write_text(json.dumps({"n": 1, "facets": [facet]}))
    code, out, err = run(capsys, "export", str(path), "--format", "text")
    assert (code, out, err) == (2, "", "error: duplicate colors in facet: [0]\n")


def test_export_refuses_a_huge_dimension_briefly_in_little_memory(tmp_path, capsys):
    # The refusal names the dimension, not every color it expects.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000, "facets": [{"vertices": [{"color": 0, "obs": 0}]}]}')
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "export", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        "error: facet colors (0,) do not match dimension 1000000 (expected colors 0..1000000)\n"
    )
    assert len(err.encode()) < 200
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "malformed adversary document: expected an object, got list"),
        (
            {"n": "x", "survivor_sets": []},
            "malformed adversary document: 'n' must be of type int, got str",
        ),
        (
            {"n": 2, "survivor_sets": [5]},
            "malformed adversary document: 'survivor_sets' must hold lists of ints, got 5",
        ),
    ],
    ids=["top-level-list", "n-not-int", "set-not-list"],
)
def test_malformed_adversary_file_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "adv.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "build", f"round:{path}", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: bad adversary file {str(path)!r}: {message}\n"


@pytest.mark.parametrize(
    "doc,message",
    [
        (None, "cannot read adversary file {path!r}: [Errno 2] No such file or directory"),
        (
            {"n": 3, "survivor_sets": [[0, 1], [2, 3]]},
            "adversary file {path!r} is for n=3, not n=2",
        ),
    ],
    ids=["missing", "other-dimension"],
)
def test_unusable_adversary_file_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "adv.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "build", f"round:{path}", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=str(path)))


def _action_doc(**fields):
    return {**action_to_json(set_agreement_action(1, 1, range(2))), **fields}


def _action_doc_with_a_view_naming_an_agent_twice():
    doc = json.loads(json.dumps(_action_doc()))  # entries are shared objects
    doc["facets"][0]["vertices"][0]["obs"] = [[0, 1], [0, 2]]
    return doc


def _action_doc_listing_a_facet_twice():
    doc = _action_doc()
    doc["facets"].append(doc["facets"][0])
    doc["pre"]["2"] = doc["pre"]["1"]
    return doc


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            _action_doc(name=[1, {"x": 2}]),
            "malformed action document: 'name' must be of type str, got list",
        ),
        (_action_doc(pre={}), "facet 0 lacks a precondition"),
        (
            _action_doc_listing_a_facet_twice(),
            "facet 2 is listed twice with different preconditions",
        ),
        (
            _action_doc_with_a_view_naming_an_agent_twice(),
            "view names an agent twice: [[0, 1], [0, 2]]",
        ),
        (
            _action_doc(pre={**_action_doc()["pre"], "1": "K[5] input(0,0)"}),
            "facet 1's precondition names agents [5] outside 0..1",
        ),
        (
            _action_doc(pre={**_action_doc()["pre"], "7": "false"}),
            "precondition key '7' names no listed facet",
        ),
        (
            _action_doc(pre={**_action_doc()["pre"], "x": 3}),
            "precondition key 'x' names no listed facet",
        ),
    ],
    ids=[
        "name-not-str", "pre-missing-facet", "facet-listed-twice", "view-agent-twice",
        "pre-agent-out-of-range", "pre-key-past-the-facets", "pre-key-not-a-number",
    ],
)
def test_malformed_action_file_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export", str(path), "--format", "text")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("command,code", [
    (["build", "bc", "--n", "1"], 0),
    (["solve", "I[is]", "I[bc]", "--n", "1"], 1),
    (["check", "MALFORMED", "--formula", "false"], 2),
])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled, command, code):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("[1, 2]")
    argv = [str(malformed) if arg == "MALFORMED" else arg for arg in command]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_check_refuses_an_action_document(tmp_path, capsys):
    # Read as a model, the action's decisions would pass for inputs.
    path = tmp_path / "sa1.json"
    assert run(capsys, "build", "sa:1", "--n", "1", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "check", str(path), "--formula", "input(0,0) | input(0,1)")
    assert code == 2
    assert out == ""
    assert err == "error: expected a model document, got an action document (it has 'pre')\n"


@pytest.mark.parametrize(
    "formula,obs",
    [
        ("!" * 3000 + "false", "0"),
        ("(" * 300 + "false" + ")" * 300, "0"),
        ("false", "[" * 3000 + "0" + "]" * 3000),
    ],
    ids=["negations", "parentheses", "deep-obs"],
)
def test_deeply_nested_input_is_usage_error(tmp_path, capsys, formula, obs):
    path = tmp_path / "model.json"
    path.write_text(
        '{"n": 0, "facets": [{"vertices": [{"color": 0, "obs": %s}]}], "atoms": [[[0, 0]]]}' % obs
    )
    code, out, err = run(capsys, "check", str(path), "--formula", formula)
    assert code == 2
    assert out == ""
    assert err == "error: input nests too deeply\n"


@pytest.mark.parametrize("text", ["", "{}"])
def test_empty_input_list_is_rejected_by_the_parser(capsys, text):
    with pytest.raises(SystemExit) as err:
        main(["build", "initial", "--n", "1", "--inputs", text])
    assert err.value.code == 2
    _, stderr = capsys.readouterr()
    assert stderr.endswith(f"error: argument --inputs: bad input list {text!r}\n")


def test_solve_beyond_the_recursion_limit(tmp_path, capsys):
    # 1,856 protocol vertices: the search must not recurse once per vertex.
    adv = tmp_path / "sp.json"
    adv.write_text(json.dumps({"n": 3, "survivor_sets": [[0, 1], [2, 3]]}))
    code, out, _ = run(
        capsys, "solve", f"I[round:{adv}]", "I[sa-trivial]", "--n", "3", "--inputs", "0,1,2,3"
    )
    assert code == 0
    assert out.startswith("status: solvable\nexplored: 1856\n")


# -- the JSON writer -----------------------------------------------------------


def json_dumps_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv,out_name",
    [
        (["build", "I[is]", "--n", "1"], None),
        (["build", "I[is]", "--n", "2", "--out", "{d}/is2.json"], "is2.json"),
        (["build", "I[round:waitfree]", "--n", "2"], None),
        (["build", "is", "--n", "2"], None),
        (["build", "sa:1", "--n", "2", "--out", "{d}/sa1.json"], "sa1.json"),
        (["build", "round:waitfree", "--n", "2"], None),
        (["obstruct", "I[bc]", "I[is]", "--gen", "bc", "--n", "2"], None),
        (["check", "{d}/model.json", "--format", "json", "--formula", "K[0] input(0,0)"], None),
        (["solve", "I[is]", "I[sa-trivial]", "--n", "2", "--out", "{d}/witness.json"], "witness.json"),
    ],
    ids=[
        "model-is1", "model-is2", "model-waitfree2", "action-is", "action-sa1",
        "action-waitfree", "obstruction-report", "check-json", "solve-witness",
    ],
)
def test_writer_matches_json_dumps_on_cli_documents(tmp_path, capsys, monkeypatch, argv, out_name):
    write_demo_model(tmp_path / "model.json")
    docs = []
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda doc: docs.append(doc) or dump(doc))
    code, stdout, _ = run(capsys, *[arg.replace("{d}", str(tmp_path)) for arg in argv])
    assert code in (0, 1)
    [doc] = docs
    written = (tmp_path / out_name).read_text() if out_name else stdout
    assert written == "".join(dump(doc)) == json_dumps_text(doc)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
containers = st.recursive(
    st.lists(scalars, max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@given(doc=json_values, shared=containers)
@example(doc='quote " backslash \\ newline \n tab \t héllo → \U0001F600', shared={"é": ["\"", "\n"]})
@example(doc=[1, -2.5, 1e300, float("inf"), True, False, None, {}, [], ()], shared=[{}, []])
def test_writer_matches_json_dumps(doc, shared):
    # `shared` is one object met at two depths and twice at the same depth.
    wrapped = {
        "doc": doc,
        "shared": shared,
        "nested": [shared, {"again": shared}, (shared,)],
        "empty": [{}, [], ()],
    }
    for value in (doc, wrapped):
        assert "".join(cli._dump(value)) == json_dumps_text(value)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{None: 0}]}, {"a": {(1, 2): 0}}])
def test_writer_rejects_non_string_keys(doc):
    # json.dumps would write 1 and None as the strings "1" and "null"; the
    # CLI's documents only have string keys, so the writer refuses others.
    with pytest.raises(TypeError, match="keys must be str"):
        cli._dump(doc)
