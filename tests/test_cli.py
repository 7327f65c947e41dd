"""Command-line interface: notation parsing, golden outputs, exit codes,
batch mode, argument errors, and the user-invocable oracle suite."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from tanglekit import cli, ring, threaded, tl
from tanglekit.annulus import (
    AnnulusElement,
    chebyshev_convert,
    closure_bases,
    colored_closure,
    colored_closure_bases,
)
from tanglekit.bracket import bracket_vector, c_invariant, coprime_ratio
from tanglekit.cli import (
    INFINITY_TANGLE,
    TangleNotationError,
    main,
    parse_tangle_notation,
)
from tanglekit.rationals import MAX_FRACTION_DIGITS, ExtRational, TwistVector, canonical_form
from tanglekit.tangles import (
    MAX_TWIST_TOTAL,
    PlanarTangleDiagram,
    RationalTangle,
    build_rational,
    to_twist_word,
)
from tanglekit.tl import colored_expand


SRC = str(Path(__file__).resolve().parents[1] / "src")


def source_env():
    """The environment with this checkout's source tree first on
    PYTHONPATH, so that a fresh interpreter imports the package from it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_module(*argv, **kwargs):
    """Run `python -m tanglekit.cli` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "tanglekit.cli", *argv],
                          env=source_env(), capture_output=True, **kwargs)


def run_cli_streams(*argv):
    """Invoke main() in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout."""
    code, out, _ = run_cli_streams(*argv)
    return code, out


# ---------------------------------------------------------------------------
# Tangle notation parsing
# ---------------------------------------------------------------------------

def test_parse_twist_vector():
    assert parse_tangle_notation("[3 2 -3]") == TwistVector((3, 2, -3))


def test_parse_tolerates_extra_whitespace():
    assert parse_tangle_notation("  [ 1   2 ]  ") == TwistVector((1, 2))


def test_parse_infinity_token():
    assert parse_tangle_notation("[inf]") is INFINITY_TANGLE


def test_parse_rejects_interior_zero():
    with pytest.raises(TangleNotationError, match="interior zero"):
        parse_tangle_notation("[3 0 2]")


def test_parse_end_zeros_are_allowed():
    assert parse_tangle_notation("[0 3]") == TwistVector((0, 3))
    assert parse_tangle_notation("[0]") == TwistVector((0,))


def test_parse_errors_carry_a_column():
    cases = {
        "3 2": "column 1",
        "[3 x]": "column 4",
        "[3": "column 3",
        "[]": "column 2",
        "[1] tail": "column 5",
        "[inf 2]": "column 2",
    }
    for text, where in cases.items():
        with pytest.raises(TangleNotationError, match=where):
            parse_tangle_notation(text)


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------

def test_fraction_golden_line():
    code, out = run_cli("fraction", "[-2 3 2]")
    assert code == 0
    assert out == '{"p":12,"q":5,"parity":"e/o"}\n'


def test_fraction_of_zero_tangle():
    code, out = run_cli("fraction", "[0]")
    assert code == 0
    assert out == '{"p":0,"q":1,"parity":"e/o"}\n'


def test_fraction_of_infinity_tangle():
    code, out = run_cli("fraction", "[inf]")
    assert code == 0
    assert json.loads(out) == {"p": 1, "q": 0, "parity": "o/e"}


def test_fraction_text_mode():
    code, out = run_cli("fraction", "[-2 3 2]", "--text")
    assert code == 0
    assert out == "12/5 (parity e/o)\n"


def test_closure_golden_line():
    code, out = run_cli("closure", "[1]")
    assert code == 0
    assert json.loads(out) == {
        "z": {"0": "-A^3 - A^-1", "2": "A^-1"},
        "chebyshev": ["-A^3", "0", "A^-1"],
    }


def test_bracket_fields():
    code, out = run_cli("bracket", "[1]")
    assert code == 0
    assert json.loads(out) == {"alpha": "A", "beta": "A^-1", "R": "A^2", "C": "1"}


def test_bracket_ratio_of_infinity_tangle():
    code, out = run_cli("bracket", "[inf]")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == "inf"
    assert payload["C"] == "inf"


def test_output_bytes_are_reproducible():
    runs = [run_module("fraction", "[-2 3 2]", check=True) for _ in range(2)]
    assert runs[0].stdout == b'{"p":12,"q":5,"parity":"e/o"}\n'
    assert runs[0].stdout == runs[1].stdout


PINNED_CORPUS = ("[0]", "[inf]", "[1]", "[-2]", "[3 2]", "[2 -1 2]", "[3 2 -3]",
                 "[1 1 1 1 1 1]", "[4 -3 0]", "[-5 3 2]", "[7 -6 7]", "[12 -11]")

# SHA-256 of stdout for PINNED_CORPUS as one --batch file, one digest per
# command line.  Every polynomial gcd is unique only up to a unit, so a
# reduction that kept a different unit would change these bytes.
PINNED_DIGESTS = {
    ("bracket",): "b2cff93f1b98c6443d9c27d85414f32fc9900494656eb9215deed1afc2f0975e",
    ("invariant",): "6fb53f6c0305a83eaccf04144de1d98bdf32bb125fb84d4c9dcd5e764d20a114",
    ("closure",): "61741fdac5576adf304ea1d027bac9f3d2f978c0290bc8a4ae0c9cc28ffe65e1",
    ("colored", "--n", "1"): "e894d4059b714df3eff86d4449d8871d7df60317128046498ed5e2c0b32318f9",
    ("colored", "--n", "2"): "8bdff8c9c33c61e45059c2a5efefe71c3f6169939036b46a1854f5f75721384b",
    ("colored", "--n", "3"): "05fa3d224751279ae2c37ecd4a2aa086b8cc369adb15dfb6f19c018cd6dbcf85",
    ("colored-closure", "--n", "1"): "a832bfd7e30651654014df44c13c6bd1ae06296507e6213d79b0eb49661bcb53",
    ("colored-closure", "--n", "2"): "3acd2cd12a5ac2c2de88374e6d91daf782aadc27c2b59650b3330e2588c291dd",
    ("colored-closure", "--n", "3"): "79de0d316a9d6ce18e03a6143c36782ba72d25c97c15b5078c19bac657a131b8",
    ("colored", "--n", "4"): "cb7b8fac828d0400f0c4f82df5b91c24771373ea48e6c8db3b6738d508298311",
    ("colored", "--n", "6"): "363e6e0dc796ac89348523e8e85d783cbe677c1076315459fbf3d52c72721bbc",
    ("colored-closure", "--n", "4"): "d42d16af89e35c6b611da4404838839c96e25290bac0dbae7997ed65ee5795ab",
    ("colored-closure", "--n", "6"): "90eb013f8779942dc82e9efe37722705ab9c3ef2d8cb4e06252e8cfbb4d6b2ff",
    ("bracket", "--text"): "a98e3a133c35f4eca3ca8c5ba2124113b121b2abef633805224ffb2b2a0d29e0",
    ("closure", "--text"): "ae34c5f7dd5bfdf9ba303fcbe47547990d39916909c3e9e9b7530a9b7c6a3e1b",
    ("closure", "--basis", "chebyshev", "--text"):
        "9cfd3b3d9bf9777e84c01fdda880baca093c7d852a20458d6ed5d0f7d922f836",
    ("colored-closure", "--n", "1", "--basis", "chebyshev"):
        "b65f29513102a0decb6b6e802efeb39870443044c5dec4276da1d015cb387f55",
    ("colored", "--n", "1", "--text"):
        "12b3e9f9cdb734a0c047fb92c9416b335e4baa879bb9170c5142882e02a736e4",
    ("classify",): "c604aae25f395bf74c20c26a2f19a651d68db900a26e77efe34fe0af6461ff58",
    ("fraction",): "49c638a27f70c9f166d3284d23316748f86d30ad0b4fce302113e58330473da8",
    ("canonical",): "bab93e07c521ef0497f487176027b69433892c625e8cb1d744c7588fc2ed7aad",
    ("parity",): "c7c36014503350a82831500e416f1dc5f3f450827862d2f6a26a72ec2dacc61c",
    ("fraction", "--text"): "ceba88cf6ed8325f39919de8a95d1c1b90fb05cb785139797c9a156d386dff4d",
    ("colored-closure", "--n", "2", "--basis", "chebyshev"):
        "72ebe81b91576518399388a2a8bfa5200e38c0e024cde2cf6ab611ca24a62ed0",
    ("colored-closure", "--n", "3", "--text"):
        "0fdd03e6eef4831a63fe64612a8eb835a09d455a56345113679e57b9ccaafb0c",
    ("colored-closure", "--n", "4", "--basis", "chebyshev", "--text"):
        "3763935f17ba6a0597a2ac08fe9baa85206e72c8e43c62a4f5f49615f728410d",
    ("closure", "--basis", "z"): "d7c4b49bd56afbec56ea2a4a8867aba1ad85758437d209d422f0823ec0f05dd9",
}


@pytest.mark.parametrize("command", list(PINNED_DIGESTS), ids=" ".join)
def test_stdout_is_pinned_on_a_fixed_corpus(tmp_path, command):
    batch = tmp_path / "corpus.txt"
    batch.write_text("\n".join(PINNED_CORPUS) + "\n")
    code, out = run_cli(command[0], "--batch", str(batch), *command[1:])
    # [inf] has no canonical twist vector: its line is the error line
    assert code == (2 if command == ("canonical",) else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]


# Periodic words whose kappa_1 and kappa_2 at width 2 share a factor of
# degree 12 to 72 in A^4 that is not cyclotomic, so each colored ratio
# divides both by a large gcd (ring._exact_quotient, the gcd's
# certificate).  SHA-256 of stdout for them as one --batch file.
PERIODIC_WORDS = tuple("[" + " ".join([a] * k) + "]"
                       for a, k in (("1", 12), ("1", 20), ("1", 50), ("2", 10), ("3", 5), ("3", 7)))

PERIODIC_DIGESTS = {
    ("colored", "--n", "2"): "01b0d49a838ea1ad13f197d817601535bb1bc2949e3d96ac8ac301f99e0f285c",
    ("colored-closure", "--n", "2"): "917004c5f527a8e3ec5b1a63588e6b487dfed1af249da2688b71050a1e230520",
}


@pytest.mark.parametrize("command", list(PERIODIC_DIGESTS), ids=" ".join)
def test_stdout_is_pinned_on_words_with_large_shared_factors(tmp_path, command):
    batch = tmp_path / "periodic.txt"
    batch.write_text("\n".join(PERIODIC_WORDS) + "\n")
    code, out = run_cli(command[0], "--batch", str(batch), *command[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PERIODIC_DIGESTS[command]


# ---------------------------------------------------------------------------
# Library-backed subcommands
# ---------------------------------------------------------------------------

def test_canonical_matches_library():
    code, out = run_cli("canonical", "[3 2 -3]")
    assert code == 0
    payload = json.loads(out)
    expected = canonical_form(ExtRational(-18, 7))
    assert tuple(payload["entries"]) == expected.entries
    assert (payload["p"], payload["q"]) == (-18, 7)


def test_canonical_rejects_infinity():
    code, out = run_cli("canonical", "[inf]")
    assert code == 2
    assert "error" in json.loads(out)


def test_parity_text_mode():
    code, out = run_cli("parity", "[1]", "--text")
    assert code == 0
    assert out == "o/o\n"


def test_invariant_matches_fraction():
    for notation in ("[1]", "[-2 3 2]", "[3 2 -3]", "[0]", "[inf]"):
        code_f, out_f = run_cli("fraction", notation)
        code_i, out_i = run_cli("invariant", notation)
        assert code_f == 0 and code_i == 0
        f = json.loads(out_f)
        c = json.loads(out_i)
        assert (c["p"], c["q"]) == (f["p"], f["q"])


def test_closure_basis_filter():
    code, out = run_cli("closure", "[1]", "--basis", "z")
    assert code == 0 and set(json.loads(out)) == {"z"}
    code, out = run_cli("closure", "[1]", "--basis", "chebyshev")
    assert code == 0 and set(json.loads(out)) == {"chebyshev"}


def test_classify_homotopy_anchors():
    expected = {
        "[inf]": "TWO_COMPONENT",
        "[-2 3 2]": "TRIVIAL_KNOT",
        "[1]": "WINDING_KNOT",
    }
    for notation, kind in expected.items():
        code, out = run_cli("classify", notation)
        assert code == 0
        assert json.loads(out)["homotopy"] == kind


def test_colored_matches_library():
    code, out = run_cli("colored", "[2]", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    gammas = colored_expand(build_rational(TwistVector((2,))), 1)
    assert payload["gamma"] == [str(g) for g in gammas]
    assert len(payload["ratios"]) == 1


def test_colored_vanishing_top_coordinate_is_reported_in_the_payload():
    # In a subprocess, because pytest's warning capture would hide a
    # warning leaking to stderr in-process.
    for n in ("1", "2"):
        for fmt in ("--json", "--text"):
            run = run_module("colored", "[inf]", "--n", n, fmt, text=True)
            assert (run.returncode, run.stderr) == (0, "")
            if fmt == "--json":
                payload = json.loads(run.stdout)
                assert payload["ratios"] == [] and payload["normalized_by"] == 0
            else:
                assert run.stdout.splitlines()[-1].startswith("normalized by gamma_0")
    code, out = run_cli("colored", "[2 1]", "--n", "2")
    assert code == 0 and "normalized_by" not in json.loads(out)


def test_colored_closure_matches_bracket_closure_at_width_one():
    code_c, out_c = run_cli("colored-closure", "[-2 3 2]", "--n", "1")
    code_z, out_z = run_cli("closure", "[-2 3 2]")
    assert code_c == 0 and code_z == 0
    colored = json.loads(out_c)
    plain = json.loads(out_z)
    assert colored["n"] == 1
    assert colored["z"] == plain["z"]
    assert colored["chebyshev"] == plain["chebyshev"]


def test_twist_word_closures_make_no_product_and_no_reduction(monkeypatch):
    # alpha*delta and alpha*delta + beta are sums of the replay's digits,
    # and the Chebyshev form of alpha*delta + beta*z^2 follows in closed
    # form; the width-1 colored coordinates and their ratio are shifts
    # and sums of alpha and beta
    counts = {"products": 0, "normalized": 0, "normalize_over": 0}
    mul, normalized, normalize_over = (ring.LaurentPoly.__mul__, ring.RatFunc.normalized,
                                       ring.normalize_over)

    def counting_mul(a, b):
        if isinstance(b, ring.LaurentPoly):
            counts["products"] += 1
        return mul(a, b)

    def counting_normalized(num, den):
        counts["normalized"] += 1
        return normalized(num, den)

    def counting_normalize_over(nums, den):
        counts["normalize_over"] += 1
        return normalize_over(nums, den)

    monkeypatch.setattr(ring.LaurentPoly, "__mul__", counting_mul)
    monkeypatch.setattr(ring.LaurentPoly, "__rmul__", counting_mul)
    monkeypatch.setattr(ring.RatFunc, "normalized", staticmethod(counting_normalized))
    for module in (ring, tl):
        monkeypatch.setattr(module, "normalize_over", counting_normalize_over)
    longest = f"[{MAX_TWIST_TOTAL // 2} {MAX_TWIST_TOTAL - MAX_TWIST_TOTAL // 2}]"
    for word in ("[3 -2 4 1]", longest):
        for argv in (("closure", word), ("colored-closure", "--n", "1", word)):
            code, out = run_cli(*argv)
            assert code == 0 and len(json.loads(out)["chebyshev"]) == 3
        code, out = run_cli("colored", "--n", "1", word)
        payload = json.loads(out)
        assert code == 0 and (len(payload["gamma"]), len(payload["ratios"])) == (2, 1)
    assert counts == {"products": 0, "normalized": 0, "normalize_over": 0}


def test_colored_closures_add_no_rational_functions(monkeypatch):
    # the closure is an integer combination of the replay numerators, and
    # its Chebyshev coordinates come back by integer back-substitution
    calls = []
    add = ring.RatFunc.__add__

    def counting_add(a, b):
        calls.append(1)
        return add(a, b)

    for n in (2, 3):
        tl._transfer_data(n)
    monkeypatch.setattr(ring.RatFunc, "__add__", counting_add)
    for n in ("2", "3"):
        for word in ("[2 1 2]", "[3 -2 4 1]", "[inf]", "[0]"):
            for fmt in ((), ("--text",)):
                code, _ = run_cli("colored-closure", "--n", n, word, *fmt)
                assert code == 0
    assert len(calls) == 0


def test_replay_reports_inexact_data_as_an_error(fresh_caches):
    # the replay coordinates are integral, so a bottom run that does not
    # divide exactly means the data are wrong: one corrupted entry of Q
    # ends as one JSON error line, not as a wrong gamma
    q = tl._transfer_data(2)[1]
    q[0][0] = q[0][0] + ring.LaurentPoly.one()
    code, out = run_cli("colored", "--n", "2", "[2 1 2]")
    assert code == 2
    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}
    assert "colored replay at cable width 2" in json.loads(out)["error"]


def test_replay_result_is_the_callers_own(fresh_caches):
    # a word with no runs must not hand out the cached start vector: a
    # caller that changes its result would change every later result at
    # that width
    for t in (RationalTangle.from_entries(0), RationalTangle.infinity()):
        kappas = tl.transfer_vector(t, 2)
        kappas[1] = ring.LaurentPoly.one() * 2
    code, out = run_cli("colored-closure", "--n", "2", "[0]")
    assert code == 0 and json.loads(out)["chebyshev"] == ["1", "0", "1", "0", "1"]
    code, out = run_cli("colored-closure", "--n", "2", "[inf]")
    assert code == 0 and json.loads(out)["chebyshev"] == ["A^4 + 1 + A^-4"]


def test_colored_rejects_bad_width(tmp_path):
    # a tangle argument is a twist word, so --n runs to the twist-word bound
    batch = tmp_path / "tangles.txt"
    batch.write_text("[1]\n[2 2]\n", encoding="utf-8")
    bound = tl.MAX_TWIST_WIDTH
    for n in ("0", str(bound + 1), "1000000000"):
        for command in ("colored", "colored-closure"):
            for source in (("[1]",), ("--batch", str(batch))):
                start = time.perf_counter()
                code, out, err = run_cli_streams(command, *source, "--n", n)
                assert time.perf_counter() - start < 1.0
                assert (code, err) == (2, "")
                [line] = out.splitlines()
                assert f"between 1 and {bound}, got {n}" in json.loads(line)["error"]


def test_width_help_names_the_twist_word_bound():
    for command in ("colored", "colored-closure"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"cable width (1..{tl.MAX_TWIST_WIDTH})" in out.getvalue()


# ---------------------------------------------------------------------------
# Equivalence commands and exit codes
# ---------------------------------------------------------------------------

def test_equiv_exit_zero_for_isotopic_pair():
    code, out = run_cli("equiv", "[-2 3 2]", "[3 -2 3]")
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "left": "12/5", "right": "12/5"}


def test_equiv_exit_one_for_distinct_pair():
    code, out = run_cli("equiv", "[2]", "[3]")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_schubert_exit_codes():
    code, out = run_cli("schubert", "[2 2]", "[2 1 1]")
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "left": "5/2", "right": "5/3"}
    code, out = run_cli("schubert", "[2 2]", "[5]")
    assert code == 1
    code, out = run_cli("schubert", "[0]", "[2 2]")
    assert code == 2


def test_parse_error_exits_two():
    code, out = run_cli("fraction", "[3 0 2]")
    assert code == 2
    assert "interior zero" in json.loads(out)["error"]


def test_missing_tangle_argument_exits_two():
    code, out = run_cli("fraction")
    assert code == 2
    assert "error" in json.loads(out)


def test_oversized_twist_run_is_refused_at_once():
    start = time.perf_counter()
    code, out = run_cli("bracket", "[100000]")
    assert time.perf_counter() - start < 5
    assert code == 2
    [line] = out.splitlines()
    assert "bound 2000" in json.loads(line)["error"]


@pytest.mark.parametrize("n", range(2, tl.MAX_TWIST_WIDTH + 1))
def test_colored_twist_bound_refuses_long_words_at_once(n):
    bound = tl.MAX_COLORED_TWISTS[n]
    assert bound < 2000
    for command in ("colored", "colored-closure"):
        for notation in (f"[{bound + 1}]", "[1000 1000]"):
            start = time.perf_counter()
            code, out, err = run_cli_streams(command, "--n", str(n), notation)
            assert time.perf_counter() - start < 1.0
            assert (code, err) == (2, "")
            [line] = out.splitlines()
            assert f"bound {bound} at cable width {n}" in json.loads(line)["error"]


def test_colored_width_one_bound_refuses_long_words_at_once():
    # width 1 is the bracket, held to the bracket's bound
    assert tl.MAX_COLORED_TWISTS[1] == MAX_TWIST_TOTAL == 2000
    for command in ("colored", "colored-closure"):
        code, out, err = run_cli_streams(command, "--n", "1", "[1000 1000]")
        assert (code, err) == (0, "") and "error" not in json.loads(out)
        for notation in ("[2001]", "[1000 1001]"):
            start = time.perf_counter()
            code, out, err = run_cli_streams(command, "--n", "1", notation)
            assert time.perf_counter() - start < 1.0
            assert (code, err) == (2, "")
            [line] = out.splitlines()
            assert "bound 2000" in json.loads(line)["error"]


@pytest.mark.parametrize("n, bound, accepted, refused", [
    (2, 3, "[2 1]", "[2 2]"),
    (3, 1, "[-1]", "[1 1]"),
])
def test_colored_twist_bound_accepts_words_at_the_bound(monkeypatch, n, bound,
                                                        accepted, refused):
    monkeypatch.setitem(tl.MAX_COLORED_TWISTS, n, bound)
    for command in ("colored", "colored-closure"):
        code, out = run_cli(command, "--n", str(n), accepted)
        assert code == 0 and "error" not in json.loads(out)
        code, out = run_cli(command, "--n", str(n), refused)
        assert code == 2
        assert f"bound {bound} at cable width {n}" in json.loads(out)["error"]


def _count_word_checks(monkeypatch) -> list:
    """The list of the names of tl.colored_twist_word, which sums the runs
    of a word, and of tangles.check_twist_total, which sums the entries
    of a vector or the runs of a raw word, appended at each call through
    any module that holds either."""
    from tanglekit import annulus, bracket, tangles

    calls = []
    for fn in (tl.colored_twist_word, tangles.check_twist_total):
        def counted(*args, fn=fn):
            calls.append(fn.__name__)
            return fn(*args)

        for module in (annulus, bracket, cli, tangles, tl):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_each_line_and_library_call_checks_its_word_once(monkeypatch):
    # a colored line checks the entries of its vector in to_twist_word and
    # the runs of its word in colored_twist_word, once each, also when the
    # line ends in an error; a raw word skips the vector's check
    calls = _count_word_checks(monkeypatch)
    once = ["colored_twist_word", "check_twist_total"]
    for n in range(1, tl.MAX_TWIST_WIDTH + 1):
        for command in ("colored", "colored-closure"):
            for notation in ("[3 2 -1]", f"[{tl.MAX_COLORED_TWISTS[n] + 1}]", "[1000 1000]"):
                calls.clear()
                run_cli(command, "--n", str(n), notation)
                assert calls == once, (command, n, notation)
    t = RationalTangle.from_entries(3, 2, -1)
    word = to_twist_word(t)
    for n in (1, 2, 3):
        for f in (tl.transfer_vector, tl.colored_expand, tl.colored_invariants,
                  colored_closure, colored_closure_bases):
            for arg, expected in ((t, once), (word, once[:1])):
                calls.clear()
                f(arg, n)
                assert calls == expected, (f.__name__, n, arg)
    for f in (bracket_vector, closure_bases):
        for arg in (t, word):
            calls.clear()
            f(arg)
            assert calls == ["check_twist_total"], (f.__name__, arg)


def _ones(count):
    return "[" + " ".join(["1"] * count) + "]"


# SHA-256 of stdout on 20,000 ones, whose fraction F(20001)/F(20000) has a
# 4,180-digit numerator; the two-tangle commands get the word twice.
LONG_FRACTION_DIGESTS = {
    ("fraction",): "942a4f67eeeda8faec3a66b37d790d0e7bc3e9437ae90fe89995d9ebfa7eae35",
    ("fraction", "--text"): "4fd9898f3b65fd7903816bb1a1ce74aa87d91fdf058c47a629fb69f75cfac7a9",
    ("canonical",): "f50dd1bed237c0b98092c12a595afd497ff3d70470d4bb7a07ba09aa05ea9720",
    ("parity",): "862847b4a63f108d237266bf37faa22ac9dd9c4c5e048312c6c397002498619b",
    ("classify",): "4e86f52394b62ef7c370d80b16ca7a1a4f7a6dbad25c5d0c0cb9105e3d180218",
    ("equiv",): "b3fe7e7a33b54f968043e1bcabde8e26ac69a5c1004d13ad5f70991a3be23846",
    ("schubert",): "b3fe7e7a33b54f968043e1bcabde8e26ac69a5c1004d13ad5f70991a3be23846",
}


@pytest.mark.parametrize("command", list(LONG_FRACTION_DIGESTS), ids=" ".join)
def test_fraction_commands_take_long_vectors_in_linear_steps(command):
    # one gcd per entry on growing integers took 7 to 12 s for fraction
    # and 21 s for canonical on this word
    ones = _ones(20000)
    tangles = [ones, ones] if command[0] in ("equiv", "schubert") else [ones]
    start = time.perf_counter()
    code, out, err = run_cli_streams(command[0], *tangles, *command[1:])
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_FRACTION_DIGESTS[command]


@pytest.mark.parametrize("command", ["fraction", "canonical", "parity", "classify",
                                     "equiv", "schubert"])
def test_fraction_digit_bound_refuses_long_vectors_at_once(command):
    tangles = [_ones(40000)] + (["[1]"] if command in ("equiv", "schubert") else [])
    start = time.perf_counter()
    code, out, err = run_cli_streams(command, *tangles)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (2, "")
    [line] = out.splitlines()
    assert f"bound of {MAX_FRACTION_DIGITS} digits" in json.loads(line)["error"]


# ---------------------------------------------------------------------------
# Batch mode
# ---------------------------------------------------------------------------

def test_batch_preserves_order_and_flags_bad_lines(tmp_path):
    batch = tmp_path / "tangles.txt"
    batch.write_text("[1]\n[2 2]\n\n[-2 3 2]\n[bad\n", encoding="utf-8")
    code, out = run_cli("fraction", "--batch", str(batch))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 4
    assert [json.loads(s).get("p") for s in lines[:3]] == [1, 5, 12]
    assert "error" in json.loads(lines[3])
    code, out = run_cli("fraction", "--batch", str(batch), "--text")
    assert code == 2
    lines = out.splitlines()
    assert lines[:3] == ["1 (parity o/o)", "5/2 (parity o/e)", "12/5 (parity e/o)"]
    assert list(json.loads(lines[3])) == ["error"]


def test_single_tangle_prints_what_a_batch_of_one_prints(tmp_path):
    batch = tmp_path / "tangles.txt"
    for notation in ("[3 2 -3]", "[inf]", "[3 0 2]"):
        batch.write_text(notation + "\n", encoding="utf-8")
        for command in ("fraction", "bracket", "closure", "classify"):
            for fmt in ("--json", "--text"):
                single = run_cli(command, notation, fmt)
                assert single == run_cli(command, "--batch", str(batch), fmt)


def test_endless_batch_input_is_refused_at_once():
    start = time.perf_counter()
    code, out, err = run_cli_streams("fraction", "--batch", "/dev/zero")
    assert time.perf_counter() - start < 5
    assert (code, err) == (2, "")
    [line] = out.splitlines()
    assert str(cli.MAX_BATCH_BYTES) in json.loads(line)["error"]
    with open("/dev/zero", "rb") as zeros:
        run = run_module("fraction", "--batch", "-", stdin=zeros, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (2, "")
    assert str(cli.MAX_BATCH_BYTES) in json.loads(run.stdout)["error"]
    run = run_module("fraction", "--batch", "-", input="[1]\n[2 2]\n", text=True, timeout=60)
    assert run.returncode == 0
    assert [json.loads(s)["p"] for s in run.stdout.splitlines()] == [1, 5]


def test_batch_bound_counts_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_BATCH_BYTES", 64)
    batch = tmp_path / "tangles.txt"
    body = "[1]\n" * 16
    batch.write_text(body, encoding="utf-8")
    code, out = run_cli("fraction", "--batch", str(batch))
    assert code == 0 and len(out.splitlines()) == 16
    batch.write_text(body + "\n", encoding="utf-8")
    code, out = run_cli("fraction", "--batch", str(batch))
    assert code == 2
    [line] = out.splitlines()
    assert "64 bytes" in json.loads(line)["error"]


def test_batch_rejects_jobs_below_one(tmp_path):
    batch = tmp_path / "tangles.txt"
    batch.write_text("[1]\n[2 2]\n", encoding="utf-8")
    for jobs in ("0", "-3"):
        code, out = run_cli("fraction", "--batch", str(batch), "--jobs", jobs)
        assert code == 2
        [line] = out.splitlines()
        assert "--jobs" in json.loads(line)["error"]


def test_closed_stdout_ends_the_batch_quietly(tmp_path):
    # far more output than the pipe holds, so the batch is still
    # printing when the reader goes away
    batch = tmp_path / "tangles.txt"
    batch.write_text("[3 2 -3]\n" * 5000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "tanglekit.cli", "fraction", "--batch", str(batch)],
        env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert json.loads(proc.stdout.readline())["p"] == -18
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_broken_redirected_stdout_leaves_the_process_stdout_alone():
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
        code = main(["fraction", "[1]"])
    assert (code, err.getvalue()) == (2, "")
    assert os.path.samestat(os.fstat(1), before)


# ---------------------------------------------------------------------------
# Argument errors and process state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, named", [
    (("fraction", "-inf"), "-inf"),
    (("colored", "--n", "abc", "[1]"), "--n"),
    ((), "command"),
    (("frobnicate", "[1]"), "frobnicate"),
    (("fraction", "[1]", "[2]"), "[2]"),
    (("fraction", "--json", "--text", "[1]"), "--text"),
    (("bracket", "--jobs", "2", "[1]"), "--jobs"),
    (("fraction", "--batch", os.devnull, "[1]"), "--batch"),
])
def test_argument_errors_are_one_json_line(argv, named):
    code, out, err = run_cli_streams(*argv)
    assert (code, err) == (2, "")
    [line] = out.splitlines()
    payload = json.loads(line)
    assert list(payload) == ["error"] and named in payload["error"]


def test_consecutive_calls_share_no_state(monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
    code, out = run_cli("closure", "[1]", "--basis", "z")
    assert code == 0 and set(json.loads(out)) == {"z"}
    code, out = run_cli("closure", "[1]")
    assert code == 0 and set(json.loads(out)) == {"z", "chebyshev"}
    code, out = run_cli("colored", "[1]", "--n", "2", "--text")
    assert code == 0 and out.startswith("gamma:")
    code, out = run_cli("colored", "[1]")
    assert code == 0 and json.loads(out)["n"] == 1


def test_cli_import_loads_no_process_pool():
    probe = ("import sys, tanglekit.cli; "
             "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_bracket_commands_load_no_recoupling():
    # recoupling is loaded at the first projector loop value or colored
    # twist word of width 2 or more; the bracket-level commands and
    # width 1 need neither
    probe = ("import contextlib, io, sys\n"
             "from tanglekit import cli\n"
             "for argv in (['bracket', '[3 2]'], ['closure', '[3 2]'], ['classify', '[3 2]'],\n"
             "             ['colored', '--n', '1', '[3 2]'], ['colored-closure', '--n', '1', '[3 2]']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             "    print(argv[0], code, 'tanglekit.recoupling' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split("\n")[:-1] == [
        f"{command} 0 False"
        for command in ("bracket", "closure", "classify", "colored", "colored-closure")
    ]


def test_command_lines_load_no_engine_or_diagram_builders():
    # the commands that run the closed forms compile neither the TL
    # engine nor the diagram builders, nor build the argparse parser;
    # oracle-check builds diagrams, but no projector, and the first engine
    # name asked of tl loads the engine
    probe = ("import contextlib, io, sys\n"
             "from tanglekit import cli\n"
             "def loaded():\n"
             "    return [m for m in ('engine', 'diagrams') if 'tanglekit.' + m in sys.modules]\n"
             "for argv in (['fraction', '[3 2]'], ['classify', '[3 2]'], ['bracket', '[3 2]'],\n"
             "             ['invariant', '[3 2]'], ['closure', '[3 2]'],\n"
             "             ['colored', '--n', '1', '[3 2]'], ['colored', '--n', '2', '[3 2]'],\n"
             "             ['colored', '--n', '3', '[3 2]'],\n"
             "             ['colored-closure', '--n', '2', '[3 2]'],\n"
             "             ['oracle-check', '--count', '3', '--max-crossings', '3']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             "    print(argv[0], code, *loaded())\n"
             "print(cli._build_parser.cache_info().misses)\n"
             "from tanglekit import tl\n"
             "tl.jones_wenzl\n"
             "print(*loaded())\n")
    run = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True)
    hot = ("fraction", "classify", "bracket", "invariant", "closure", "colored", "colored",
           "colored", "colored-closure")
    assert run.stdout.split("\n")[:-1] == [f"{command} 0" for command in hot] + [
        "oracle-check 0 diagrams", "0", "engine diagrams"]


def test_twist_word_commands_load_no_threaded_closure():
    # only a diagram's colored invariants need the threaded closure, so a
    # process that never asks for one does not compile it
    probe = ("import contextlib, io, sys\n"
             "from tanglekit import cli\n"
             "for argv in (['colored', '--n', '3', '[3 2]'], ['colored-closure', '--n', '2', '[3 2]'],\n"
             "             ['oracle-check', '--count', '3', '--max-crossings', '3']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             "    print(argv[0], code, 'tanglekit.threaded' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split("\n")[:-1] == [
        "colored 0 False", "colored-closure 0 False", "oracle-check 0 True"]


# ---------------------------------------------------------------------------
# The command table against argparse
# ---------------------------------------------------------------------------

_ARGV_COMMANDS = ("fraction", "canonical", "parity", "schubert", "bracket", "invariant",
                  "closure", "equiv", "classify", "colored", "colored-closure",
                  "oracle-check", "render-ascii")
_ARGV_VALUES = {
    "--batch": ("{batch}", "missing.txt", "-", "", "--json"),
    "--n": ("1", "2", "3", "0", "9", "abc", "-1", " 2", "+2", "2.0", ""),
    "--basis": ("z", "chebyshev", "x", "Z", "chebyshev "),
    "--max-crossings": ("3", "4", "99", "x"),
    "--count": ("1", "2", "0", "-5", "x"),
    "--seed": ("7", "-3", "s", "007"),
}
_ARGV_ODD = ("--", "-h", "--help", "--n=2", "--batch={batch}", "--ba", "--te", "--js",
             "--basis=z", "--max", "-x", "--nope", "-", "extra", "--count=1", "-n")
_ARGV_TANGLES = ("[1]", "[3 2]", "[-2 3 2]", "[inf]", "[0]", "[2 1 1]", "3 2", "[3 x]",
                 "", "[1 0 1]", "-[1]")


def _argv_corpus(seed, count, batch):
    """count random command lines over every command, from the seed: the
    command (now and then a bad or abbreviated one, or none) and up to
    four items in random order, each a tangle, a flag, an option with a
    good or bad value or none, or an odd token such as '--', '--n=2',
    '-h' or an abbreviation.  '{batch}' stands for the path batch."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.02:
            argv = []
        elif roll < 0.05:
            argv = [rng.choice(("colo", "frobnicate", "-h", "--help", "Bracket", "--n"))]
        else:
            argv = [rng.choice(_ARGV_COMMANDS)]
        items = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.35:
                items.append([rng.choice(_ARGV_TANGLES)])
            elif roll < 0.55:
                items.append([rng.choice(("--json", "--text"))])
            elif roll < 0.92:
                flag = rng.choice(list(_ARGV_VALUES))
                values = _ARGV_VALUES[flag]
                items.append([flag] + ([rng.choice(values)] if rng.random() < 0.95 else []))
            else:
                items.append([rng.choice(_ARGV_ODD)])
        rng.shuffle(items)
        argv += [token.replace("{batch}", batch) for item in items for token in item]
        corpus.append(argv)
    return corpus


def test_table_lines_get_the_namespace_argparse_gives():
    accepted = set()
    for argv in _argv_corpus(2027, 6000, "lines.txt"):
        args = cli._parse_line(argv)
        if args is not None:
            assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv
            accepted.add(argv[0])
    # every command has lines the table reads, not only the tangle ones
    assert accepted == set(_ARGV_COMMANDS)


def test_hot_command_lines_never_reach_argparse(tmp_path, monkeypatch):
    batch = tmp_path / "lines.txt"
    batch.write_text("[3 2]\n[1 1 1]\n")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda *args: pytest.fail("the line went to argparse"))
    cli._build_parser.cache_clear()
    for argv in (
        ("colored", "[3 2]", "--n", "2"),
        ("colored", "--n", "2", "[3 2]"),
        ("colored-closure", "[3 2]", "--n", "2"),
        ("colored-closure", "--n", "2", "[3 2]"),
        ("bracket", "[3 2]"),
        ("invariant", "[3 2]"),
        ("closure", "[3 2]"),
        ("closure", "--basis", "z", "--text", "[3 2]"),
        ("colored", "--batch", str(batch), "--n", "1"),
    ):
        code, out = run_cli(*argv)
        assert code == 0 and "error" not in out, argv
    # nor is the parser built for them
    assert cli._build_parser.cache_info().misses == 0


# ---------------------------------------------------------------------------
# Error contract under random input
# ---------------------------------------------------------------------------

_FUZZ_TOKENS = (
    "0", "1", "-1", "2", "-3", "+4", "7", "-12", "00", "-0", "+-2", "--1",
    "9" * 25, "-" + "8" * 40, "1000000", "1" + "0" * 5000, "inf", "-inf",
    "Inf", "nan", "1.5", "1e3", "0x1f", "\u0663", "\uff15", "\u00b2", "x",
    "[", "]", "[]", "", "\u2212" + "3", "\U0001d7d9",
)
_FUZZ_SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "")


def _fuzz_notation(rng):
    """Mostly well-formed bracket notation, with hostile tokens, spacing,
    brackets and trailing text mixed in."""
    space = lambda: rng.choice(_FUZZ_SPACES) if rng.random() < 0.3 else ""
    sep = lambda: rng.choice(_FUZZ_SPACES) if rng.random() < 0.2 else " "
    tokens = [rng.choice(_FUZZ_TOKENS) if rng.random() < 0.1
              else str(rng.randint(-6, 6) or 1) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.05:
        tokens = ["inf"]
    body = "".join(sep() + t for t in tokens).lstrip(" ")
    opening, closing, tail = "[", "]", ""
    if rng.random() < 0.15:
        opening = rng.choice(("", "[[", "(", "]", "-[", "--"))
    if rng.random() < 0.15:
        closing = rng.choice(("", "]]", ")", "["))
    if rng.random() < 0.1:
        tail = rng.choice(("x", " [1]", "\x00", "inf"))
    return space() + opening + space() + body + space() + closing + tail


_FUZZ_COMMANDS = (
    ("fraction",), ("canonical",), ("bracket",), ("closure",), ("colored", "--n", "1"),
)


def test_random_notation_keeps_the_error_contract():
    rng = random.Random(20261018)
    notations = [_fuzz_notation(rng) for _ in range(300)]
    for i, notation in enumerate(notations):
        # Every other notation comes without "--", so one that starts
        # with "-" is read as an option and must fail as an argument error.
        separator = ("--",) if i % 2 else ()
        for command in _FUZZ_COMMANDS:
            code, out, err = run_cli_streams(*command, *separator, notation)
            assert err == "", (command, notation, err)
            lines = out.splitlines()
            assert len(lines) == 1, (command, notation, out)
            payload = json.loads(lines[0])
            assert isinstance(payload, dict)
            if code == 0:
                assert "error" not in payload, (command, notation)
            else:
                assert code == 2 and list(payload) == ["error"], (command, notation)


def _parse_outcome(parse, notation):
    try:
        return "ok", parse(notation)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_notation_reads_as_the_tokenizer_reads_it():
    # a line read with one match must give what the tokenizer gives, and
    # every other line its error line, column included
    notations = ["[3-2]", "[3,2]", "[3]]", "[3", "[\u0663]", "[1_0]", "[+3 -0]", "[007 2]",
                 "[1 0 2]", "[-0 0 0 5]", "[0 0]", "[ 2\u3000-3\u00a0]", "\u2003[1\x1c2]\t",
                 "[1\u200b2]", "[\uff11]", "[inf]", " [ inf ] ", "[inf 1]", "[]", "[+-3]"]
    rng = random.Random(2028)
    notations += [_fuzz_notation(rng) for _ in range(600)]
    for notation in notations:
        expected = _parse_outcome(cli._parse_tokens, notation)
        assert _parse_outcome(parse_tangle_notation, notation) == expected, notation


def _dump(payload):
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _seeded_notations():
    rng = random.Random(2029)
    notations = ["[0]", "[inf]", "[2 0]", "[0 5]", "[1]", "[-3]", "[2 1 -2]", "[1 1 1 1 1 1]"]
    notations += ["[" + " ".join(str(rng.choice((1, -1)) * rng.randint(1, 9))
                                 for _ in range(rng.randint(1, 5))) + "]" for _ in range(60)]
    return notations


def _chebyshev_line(coords):
    return " + ".join(f"({x})*S_{k}" for k, x in reversed(list(enumerate(coords)))
                      if x != "0") or "0"


def test_width_one_payloads_are_the_strings_of_the_library_objects():
    # bracket, invariant, closure and colored-closure --n 1 write from the
    # replay's digits; each line must be the one the library objects give
    seen = set()
    for notation in _seeded_notations():
        t = cli._parse_tangle_arg(notation)
        v = bracket_vector(t)
        ratio, c = coprime_ratio(v), c_invariant(v)
        payload = {"alpha": str(v.alpha), "beta": str(v.beta),
                   "R": "inf" if ratio is None else str(ratio), "C": str(c)}
        assert run_cli("bracket", notation) == (0, _dump(payload))
        assert run_cli("bracket", notation, "--text") == (
            0, "".join(f"{k} = {x}\n" for k, x in payload.items()))
        assert run_cli("invariant", notation) == (0, _dump({"C": str(c), "p": c.p, "q": c.q}))
        assert run_cli("invariant", notation, "--text") == (0, f"{c}\n")
        # the closure alpha delta + beta z^2 and its back-substituted
        # coordinates, made apart from the digits of the replay
        e = AnnulusElement({0: v.alpha * ring.DELTA, 2: v.beta})
        cheb = chebyshev_convert(e)
        assert closure_bases(t) == (e, cheb)
        z = {str(k): str(e.coefficient(k)) for k in sorted(e.coeffs)}
        coords = [str(x) for x in cheb]
        for basis, fields, text in ((None, {"z": z, "chebyshev": coords}, str(e)),
                                    ("z", {"z": z}, str(e)),
                                    ("chebyshev", {"chebyshev": coords}, _chebyshev_line(coords))):
            option = ("--basis", basis) if basis else ()
            for command, head in ((("closure",), {}), (("colored-closure", "--n", "1"), {"n": 1})):
                assert run_cli(*command, notation, *option) == (0, _dump({**head, **fields}))
                assert run_cli(*command, notation, *option, "--text") == (0, text + "\n")
        if v.alpha and v.beta:
            low = v.beta.coeffs[v.beta.min_exp()]
            seen.add("monomial beta" if len(v.beta.coeffs) == 1 else
                     "negative beta" if low < 0 else "positive beta")
        seen.add(f"{len(coords)} Chebyshev coordinates")
    assert seen == {"monomial beta", "negative beta", "positive beta",
                    "1 Chebyshev coordinates", "3 Chebyshev coordinates"}


def test_closure_lines_are_the_strings_of_the_library_objects_at_every_width():
    # one writer serves closure and colored-closure at every width; each
    # line must be the strings of colored_closure_bases, or its error line
    # past the width's twist bound.  [1 -1] and [-1 1 5 -1 1] have
    # alpha = 0, [2 0] and [inf] beta = 0 at width 1.  A bottom run costs
    # about 10 ms at width 8, so from width 5 on only the fixed words are
    # written out in full.
    notations = _seeded_notations()
    fixed = set(notations[:8]) | {"[1 -1]", "[-1 1 5 -1 1]"}
    options = [(), ("--basis", "z"), ("--basis", "chebyshev")]
    for notation in notations + ["[1 -1]", "[-1 1 5 -1 1]"]:
        t = cli._parse_tangle_arg(notation)
        for n in range(1, tl.MAX_TWIST_WIDTH + 1):
            command = ("colored-closure", "--n", str(n), notation)
            try:
                tl.colored_twist_word(t, n)
            except ValueError as exc:
                for option in options:
                    for fmt in ((), ("--text",)):
                        assert run_cli(*command, *option, *fmt) == (
                            2, _dump({"error": str(exc)})), (command, option)
                continue
            if n > 4 and notation not in fixed:
                continue
            e, cheb = colored_closure_bases(t, n)
            z = {str(k): str(e.coefficient(k)) for k in sorted(e.coeffs)}
            coords = [str(x) for x in cheb]
            for option, fields, text in (((), {"z": z, "chebyshev": coords}, str(e)),
                                         (options[1], {"z": z}, str(e)),
                                         (options[2], {"chebyshev": coords},
                                          _chebyshev_line(coords))):
                assert run_cli(*command, *option) == (0, _dump({"n": n, **fields})), command
                assert run_cli(*command, *option, "--text") == (0, text + "\n"), command
        for option in options:
            code, out = run_cli("colored-closure", "--n", "1", notation, *option)
            payload = json.loads(out)
            del payload["n"]
            assert run_cli("closure", notation, *option) == (code, _dump(payload)), notation


def _colored_line(gammas, ratios, n):
    """The colored payload and text line of the library objects."""
    payload = {"n": n, "gamma": [str(g) for g in gammas], "ratios": [str(r) for r in ratios]}
    text = "gamma:  " + ", ".join(payload["gamma"]) + "\nratios: " + ", ".join(payload["ratios"])
    if len(ratios) < n:
        payload["normalized_by"] = len(ratios)
        text += f"\nnormalized by gamma_{len(ratios)} (top coordinate vanishes)"
    return payload, text


def test_colored_lines_are_the_strings_of_the_library_objects():
    # colored writes its lines from the digit forms of tl._colored_forms;
    # each line must be the strings of tl.colored_invariants, whose ratios
    # colored_ratios referees, or its error line past the width's twist
    # bound.  [inf], [0], [0 0], [1 -1] (beta, alpha or gamma_k = 0 at
    # some width) and one word over the bound run at every width, the
    # seeded words up to width 4, and from width 5 on a few short words (a
    # bottom run costs about 10 ms at width 8)
    short = ["[1]", "[-1]", "[3 2 -3]", "[2 -1 1]"]
    seen = set()
    for n in range(1, tl.MAX_TWIST_WIDTH + 1):
        fixed = ["[inf]", "[0]", "[0 0]", "[1 -1]", f"[{tl.MAX_COLORED_TWISTS[n] + 1}]"]
        for notation in fixed + (_seeded_notations() if n <= 4 else short):
            t = cli._parse_tangle_arg(notation)
            command = ("colored", "--n", str(n), notation)
            try:
                gammas, ratios = tl.colored_invariants(t, n)
            except ValueError as exc:
                for fmt in ((), ("--text",)):
                    assert run_cli(*command, *fmt) == (2, _dump({"error": str(exc)})), command
                seen.add("error")
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ratios == tl.colored_ratios(gammas), command
            payload, text = _colored_line(gammas, ratios, n)
            assert run_cli(*command) == (0, _dump(payload)), command
            assert run_cli(*command, "--text") == (0, text + "\n"), command
            seen.add("normalized_by" if len(ratios) < n else "full")
    assert seen == {"error", "normalized_by", "full"}


def test_random_notation_pairs_keep_the_error_contract():
    rng = random.Random(20261019)
    for i in range(150):
        left = _fuzz_notation(rng)
        right = left if rng.random() < 0.2 else _fuzz_notation(rng)
        separator = ("--",) if i % 2 else ()
        for command in ("equiv", "schubert"):
            code, out, err = run_cli_streams(command, *separator, left, right)
            assert err == "", (command, left, right, err)
            lines = out.splitlines()
            assert len(lines) == 1, (command, left, right, out)
            payload = json.loads(lines[0])
            assert isinstance(payload, dict)
            if code in (0, 1):
                assert payload["equivalent"] is (code == 0), (command, left, right)
            else:
                assert code == 2 and list(payload) == ["error"], (command, left, right)


# ---------------------------------------------------------------------------
# Oracle suite and rendering
# ---------------------------------------------------------------------------

def test_oracle_check_reports_clean_run():
    code, out = run_cli(
        "oracle-check", "--count", "6", "--max-crossings", "8", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 6
    assert payload["ok"] is True
    assert payload["failures"] == []


def _oracle_failures(monkeypatch, name, skew, diagrams):
    """The failed checks of oracle-check on four diagrams of at most three
    crossings, with cli.<name> skewed by skew on diagrams (diagrams true)
    or on twist words, as (check, width) pairs; the bracket and closure
    checks have no width, given as None."""
    real = getattr(cli, name)

    def skewed(t, *args):
        value = real(t, *args)
        return skew(value) if isinstance(t, PlanarTangleDiagram) == diagrams else value

    monkeypatch.setattr(cli, name, skewed)
    code, out = run_cli(
        "oracle-check", "--count", "4", "--max-crossings", "3", "--seed", "7"
    )
    payload = json.loads(out)
    assert code == 1 and payload["checked"] == 4
    return [(f["check"], f.get("n")) for f in payload["failures"]]


def test_oracle_check_reports_a_bracket_mismatch(monkeypatch):
    failures = _oracle_failures(monkeypatch, "bracket_of_diagram", lambda ab: ab[::-1], True)
    assert failures == [("bracket", None)] * 4


def test_oracle_check_reports_a_closure_mismatch(monkeypatch):
    failures = _oracle_failures(monkeypatch, "closure_bracket", lambda e: e.scale(2), True)
    assert failures == [("closure", None)] * 4


def test_oracle_check_reports_a_colored_mismatch(monkeypatch):
    # coordinates of the transfer replay that disagree with the threaded
    # closure surface in the colored check at both widths
    failures = _oracle_failures(monkeypatch, "colored_expand", lambda g: g + g, False)
    assert failures == [("colored", 2), ("colored", 3)] * 4


def test_oracle_check_reports_a_threaded_mismatch(monkeypatch):
    # the threaded closure of the diagram is the referee of the colored
    # check: a wrong referee fails it the same way
    failures = _oracle_failures(monkeypatch, "colored_expand", lambda g: g + g, True)
    assert failures == [("colored", 2), ("colored", 3)] * 4


def test_oracle_check_reports_a_colored_closure_mismatch(monkeypatch):
    # colored_expand reads the closure through the annulus module, so a
    # doubled closure here fails the colored-closure check alone
    failures = _oracle_failures(monkeypatch, "colored_closure", lambda e: e.scale(2), True)
    assert failures == [("colored-closure", 2), ("colored-closure", 3)] * 4


def test_oracle_check_reports_the_frontier_bound_as_one_error_line(monkeypatch):
    # past its state bound the frontier contraction is refused, and the
    # run ends as one JSON error line that names the bound
    monkeypatch.setattr(threaded, "MAX_FRONTIER_STATES", 3)
    code, out, err = run_cli_streams("oracle-check", "--count", "4", "--max-crossings", "3")
    assert (code, err) == (2, "")
    [line] = out.splitlines()
    assert json.loads(line) == {"error": "frontier contraction too large: more than 3 states"}


def test_oracle_check_validates_budget():
    code, out = run_cli("oracle-check", "--max-crossings", "99")
    assert code == 2
    assert "16" in json.loads(out)["error"]


def test_oracle_check_bounds_count():
    for count in ("-5", "0", str(10 ** 9)):
        start = time.perf_counter()
        code, out = run_cli("oracle-check", "--count", count, "--max-crossings", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        [line] = out.splitlines()
        error = json.loads(line)["error"]
        assert "10000" in error and count in error


def test_render_ascii_shows_twist_runs():
    code, out = run_cli("render-ascii", "[3 2 -3]")
    assert code == 0
    assert "right  +3  ///" in out
    assert "bottom +2  //" in out
    assert "\\\\\\" in out


def test_render_ascii_infinity():
    code, out = run_cli("render-ascii", "[inf]")
    assert code == 0
    assert "[inf]" in out


@pytest.mark.parametrize("notation, art", [
    ("[2 0]", "tangle [2 0]\nstart  [inf]\nbottom +2  //"),
    ("[0 2]", "tangle [0 2]\nstart  [inf]\nright  +2  //"),
    ("[0 0]", "tangle [0 0]\nstart  [inf]"),
    ("[-3]", "tangle [-3]\nstart  [0]\nright  -3  \\\\\\"),
])
def test_render_ascii_pins(notation, art):
    assert run_cli("render-ascii", notation) == (0, art + "\n")
    line = json.dumps({"ascii": art}, separators=(",", ":"))
    assert run_cli("render-ascii", "--json", notation) == (0, line + "\n")


@pytest.mark.parametrize("name, argv", [
    ("schubert_equivalent", ("schubert", "[2 2]", "[2 1 1]")),
    ("links_equivalent", ("equiv", "[2]", "[3]")),
    ("bracket_of_diagram", ("oracle-check", "--count", "1", "--max-crossings", "4")),
])
def test_any_exception_is_one_error_line(monkeypatch, name, argv):
    def broken(*args):
        raise TypeError("broken on purpose")

    monkeypatch.setattr(cli, name, broken)
    code, out, err = run_cli_streams(*argv)
    assert (code, err) == (2, "")
    [line] = out.splitlines()
    assert json.loads(line) == {"error": "broken on purpose"}
