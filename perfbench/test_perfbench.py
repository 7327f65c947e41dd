"""Tests of the benchmark itself: every workload runs at tiny size with
every output checked, every checker rejects a deliberately corrupted
output, the tracer hooks in and out cleanly, and the benchmark refuses
to run where there are no sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, spans, workloads  # noqa: E402


def run_tiny(workload, tmp_path, seed=3):
    ops = next(workloads.rounds(workload, seed, tmp_path, tiny=True))
    outputs = []
    for op in ops:
        ok, out = workloads.execute(op)
        assert ok, (op.argv(), out)
        outputs.append(out)
    return ops, outputs, checks.Point(seed)


def edit_payload(text, line, fn):
    """Apply fn to the JSON payload on one line of a CLI output."""
    lines = text.splitlines()
    payload = json.loads(lines[line])
    fn(payload)
    lines[line] = json.dumps(payload)
    return "\n".join(lines) + "\n"


def bump_poly(s):
    """A printed polynomial or rational function plus 7*A^123 (or that
    over the denominator), still well formed."""
    if s.startswith("(") and ")/(" in s:
        num, den = s[1:-1].split(")/(")
        return f"({num} + 7*A^123)/({den})"
    return s + " + 7*A^123"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    ops, outputs, pt = run_tiny(workload, tmp_path)
    assert workloads.check_round(ops, outputs, pt) == []


# (command, corruption of one batch-small payload)
BATCH_CORRUPTIONS = [
    ("fraction", lambda p: p.update(p=p["p"] + 1)),
    ("fraction", lambda p: p.update(parity={"e/o": "o/o", "o/o": "o/e", "o/e": "e/o"}[p["parity"]])),
    ("canonical", lambda p: p.update(entries=p["entries"] + [1, 1])),
    ("parity", lambda p: p.update(parity="o/o" if p["parity"] != "o/o" else "e/o")),
    ("classify", lambda p: p.update(homotopy="WINDING_KNOT" if p["homotopy"] != "WINDING_KNOT"
                                    else "TRIVIAL_KNOT")),
    ("invariant", lambda p: p.update(C=p["C"] + "1")),
    ("bracket", lambda p: p.update(alpha=bump_poly(p["alpha"]))),
    ("bracket", lambda p: p.update(beta=bump_poly(p["beta"]))),
    ("bracket", lambda p: p.update(R=bump_poly(p["R"]))),
    ("bracket", lambda p: p.update(C="inf")),
    ("closure", lambda p: p["z"].update({"2": bump_poly(p["z"]["2"])})),
    ("closure", lambda p: p["chebyshev"].__setitem__(0, bump_poly(p["chebyshev"][0]))),
    ("colored", lambda p: p["ratios"].__setitem__(0, bump_poly(p["ratios"][0]))),
    ("colored", lambda p: p.update(gamma=[bump_poly(g) for g in p["gamma"]])),
    ("colored", lambda p: p.update(gamma=p["gamma"][:-1])),
    ("colored-closure", lambda p: p["z"].update({"0": bump_poly(p["z"]["0"])})),
    ("colored-closure", lambda p: p["chebyshev"].__setitem__(2, bump_poly(p["chebyshev"][2]))),
]


@pytest.fixture(scope="module")
def batch_round(tmp_path_factory):
    return run_tiny("batch-small", tmp_path_factory.mktemp("batch"))


@pytest.mark.parametrize("index", range(len(BATCH_CORRUPTIONS)))
def test_batch_checkers_reject_corrupted_output(batch_round, index):
    ops, outputs, pt = batch_round
    command, corrupt = BATCH_CORRUPTIONS[index]
    i = next(k for k, op in enumerate(ops) if op.command == command)
    bad = list(outputs)
    bad[i] = edit_payload(outputs[i], 1, corrupt)
    errors = workloads.check_round(ops, bad, pt)
    assert errors and all(e.startswith(workloads.notation(ops[i].lines[1])) for e in errors)


def test_batch_checker_rejects_a_missing_line_and_unreadable_output(batch_round):
    ops, outputs, pt = batch_round
    bad = list(outputs)
    bad[0] = "\n".join(outputs[0].splitlines()[1:])
    bad[1] = "not json"
    errors = workloads.check_round(ops, bad, pt)
    assert any("output lines" in e for e in errors)
    assert any("unreadable" in e for e in errors)


def test_colored_n1_relation_to_bracket_is_checked():
    """Gammas with consistent ratios that are not the bracket's fail only
    the n = 1 relations."""
    pt = checks.Point(5)
    payload = {"n": 1, "gamma": ["2", "2"], "ratios": ["1"]}
    errors = checks.check_colored((3, 1), payload, pt, 1)
    assert len(errors) == 2 and all("n=1" in e for e in errors)


def test_twist_runs_checkers_reject_corrupted_output(tmp_path):
    ops, outputs, pt = run_tiny("twist-runs", tmp_path)
    for command, corrupt in [("bracket", lambda p: p.update(alpha=bump_poly(p["alpha"]))),
                             ("invariant", lambda p: p.update(q=p["q"] + 2)),
                             ("closure", lambda p: p["z"].update({"0": bump_poly(p["z"]["0"])}))]:
        i = next(k for k, op in enumerate(ops) if op.command == command)
        bad = list(outputs)
        bad[i] = edit_payload(outputs[i], 0, corrupt)
        assert workloads.check_round(ops, bad, pt), command


def test_colored_pair_checkers_reject_corrupted_output(tmp_path):
    ops, outputs, pt = run_tiny("colored-cables", tmp_path)
    payloads = [json.loads(o) for o in outputs]
    for kind, command in [("mirror", "colored"), ("mirror", "colored-closure"),
                          ("fraction", "colored"), ("fraction", "colored-closure")]:
        i = next(k for k, op in enumerate(ops)
                 if op.command == command and op.pair[0] == kind and op.pair[2] == 1)
        assert ops[i - 1].pair[:2] == ops[i].pair[:2]
        first, second = payloads[i - 1], json.loads(json.dumps(payloads[i]))
        if command == "colored" and kind == "fraction":
            second["ratios"][0] = bump_poly(second["ratios"][0])
        elif command == "colored":
            second["gamma"] = [bump_poly(g) for g in second["gamma"]]
        else:
            # Corrupt both bases alike (z^0 = S_0), so that only the pair
            # check can see it.
            second["z"]["0"] = bump_poly(second["z"]["0"])
            second["chebyshev"][0] = bump_poly(second["chebyshev"][0])
            assert checks.check_colored_closure(ops[i].entries, second, pt, 2) == []
        check = checks.check_mirror_pair if kind == "mirror" else checks.check_fraction_pair
        assert check(first, payloads[i], pt, command) == []
        assert check(first, second, pt, command), (kind, command)
        bad = list(outputs)
        bad[i] = json.dumps(second)
        assert workloads.check_round(ops, bad, pt)


def test_colored_closure_bases_must_agree(tmp_path):
    ops, outputs, pt = run_tiny("colored-cables", tmp_path)
    i = next(k for k, op in enumerate(ops) if op.command == "colored-closure")
    payload = json.loads(outputs[i])
    payload["chebyshev"][0] = bump_poly(payload["chebyshev"][0])
    assert checks.check_colored_closure(ops[i].entries, payload, pt, 2)


def test_state_sum_checker_rejects_corrupted_output(tmp_path):
    ops, outputs, pt = run_tiny("state-sum", tmp_path)
    alpha, beta = outputs[0]["state"]
    for key, value in [("state", (alpha + 1, beta)),
                       ("fast", (alpha, beta * 2)),
                       ("state_closure", outputs[1]["state_closure"])]:
        bad = [dict(o) for o in outputs]
        bad[0][key] = value
        assert workloads.check_round(ops, bad, pt), key


def test_failed_operations_are_not_checked(tmp_path):
    ops, outputs, pt = run_tiny("twist-runs", tmp_path)
    assert workloads.check_round(ops, [None] * len(ops), pt) == []


def test_reference_matches_known_values():
    pt = checks.Point(11)
    assert checks.bracket_mod((1,), pt) == (checks.eval_poly("A", pt), checks.eval_poly("A^-1", pt))
    assert checks.fraction_of((-2, 3, 2)) == (12, 5)
    assert checks.fraction_of((1, -1, 3)) == (1, 0)
    for p in range(-30, 31):
        for q in range(1, 12):
            if checks.gcd(abs(p), q) != 1:
                continue
            entries = checks.canonical_entries(p, q)
            assert checks.fraction_of(entries) == (p, q)
            assert len(entries) % 2 == 1
            assert all(a * p >= 0 for a in entries)


def test_tracer_reports_layers_and_restores_the_program(tmp_path):
    import tanglekit.bracket
    import tanglekit.cli

    original = tanglekit.bracket.bracket_vector
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        assert tanglekit.cli.bracket_vector is not original
        ok, _ = workloads.execute(workloads.Op("bracket", (5, -3)))
        ok2, _ = workloads.execute(workloads.Op("oracle-check", (2, 3)))
    finally:
        tracer.uninstall()
    assert ok and ok2
    assert tanglekit.bracket.bracket_vector is original
    assert tanglekit.cli.bracket_vector is original
    m = tracer.layer_metrics(2)
    assert set(m) >= set(spans.LAYER_METRICS)
    # bracket; then the diagram, the fast path and the fast closure
    assert tracer.counts["tangles.moves"] == 8 + 3 * 5
    assert tracer.counts["oracle.states"] == 2 * 2 ** 5
    for name in ("cli.self_s", "bracket.self_s", "ring.mul_s", "oracle.kernel_s", "oracle.self_s"):
        assert m[name]["value"] > 0, name
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "bracket.bracket_vector", "kernel.resolve_states"} <= names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))


def test_missing_hook_is_reported_not_fatal():
    import tanglekit.tl

    gone = ("tl.gone", "tl.build", "tanglekit.tl", "no_such_function", True, None)
    tracer = spans.Tracer()
    try:
        assert tracer.install(spans.HOOKS + (gone,)) == ["tl.gone"]
        ok, _ = workloads.execute(workloads.Op("colored", (1,), n=1))
    finally:
        tracer.uninstall()
    assert ok
    assert tracer.missing_metrics() == ["tl.build_s"]
    assert not hasattr(tanglekit.tl.bni_basis, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "twist-runs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["twist-runs", "colored-cables", "state-sum"])
def test_rounds_draw_new_inputs_of_the_same_shape(workload, tmp_path):
    gen = workloads.rounds(workload, 4, tmp_path)
    first, second = next(gen), next(gen)
    assert [(op.command, op.n, sum(map(abs, op.entries))) for op in first] == \
        [(op.command, op.n, sum(map(abs, op.entries))) for op in second]
    assert all(a.entries != b.entries for a, b in zip(first, second))
