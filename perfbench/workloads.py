"""The four workloads: their inputs, how an operation runs, and how a
round of outputs is checked.

Inputs come only from the workload seed.  Every run repeats rounds of
the same operations on new inputs until the run length is used up, so
each run attempts whole rounds.  Where the cost of an input depends on
its shape (total twist, number of entries, sign pattern), the shape of
each slot is fixed and the seed picks only the split of its total into
entries, mirror images and the order of a pair, so that figures from
different seeds and rounds compare.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import checks

WORKLOADS = ("twist-runs", "batch-small", "colored-cables", "state-sum")

# Four cheap commands and five dear ones: with an odd count the median
# call of a round is one call, not the mean of the cheap and the dear half.
BATCH_COMMANDS = ("fraction", "canonical", "parity", "classify",
                  "invariant", "bracket", "closure", "colored", "colored-closure")


@dataclass(frozen=True)
class Op:
    """One timed operation.

    command is a tanglekit subcommand, or "oracle-check" for the
    per-diagram work of that subcommand done in-process.  A batch
    operation carries the batch file and the twist vectors on its lines.
    pair = (kind, id, role) ties the two halves of a mirror pair
    ("mirror") or of a pair of tangles with equal fractions ("fraction").
    """

    command: str
    entries: tuple = ()
    n: int = 0
    batch: str = ""
    lines: tuple = ()
    pair: tuple = ()

    @property
    def tangles(self) -> int:
        return len(self.lines) if self.batch else 1

    def argv(self) -> list:
        argv = [self.command, "--batch", self.batch] if self.batch else [self.command, notation(self.entries)]
        return argv + (["--n", str(self.n)] if self.n else [])


def notation(entries) -> str:
    return "[" + " ".join(str(a) for a in entries) + "]"


# ---------------------------------------------------------------------------
# Running operations against the program
# ---------------------------------------------------------------------------

def execute(op: Op):
    """Run one operation; returns (ok, output).

    CLI operations call tanglekit.cli.main in-process with stdout
    captured; ok means exit code 0.  The oracle-check operation returns
    the program's objects for checking outside the timed region.  An
    exception escaping the program fails the operation, not the run.
    """
    try:
        return _execute(op)
    except Exception as exc:  # counted as a failed operation
        return False, f"{type(exc).__name__}: {exc}"


def _execute(op: Op):
    # Functions are looked up on their modules at call time, so that
    # tracing hooks installed there are seen.
    tk = importlib.import_module("tanglekit")
    if op.command == "oracle-check":
        t = tk.tangles.build_rational(op.entries)
        d = tk.tangles.rational_to_diagram(t)
        vec = tk.bracket.bracket_vector(t)
        state = tk.oracle.bracket_of_diagram(d)
        fast_closure = tk.annulus.closure_bracket(t)
        state_closure = tk.annulus.closure_bracket(d)
        return True, {"crossings": d.crossing_count, "fast": (vec.alpha, vec.beta),
                      "state": state, "fast_closure": fast_closure,
                      "state_closure": state_closure}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = importlib.import_module("tanglekit.cli").main(op.argv())
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    return code == 0, buf.getvalue()


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _finite(entries) -> bool:
    return checks.fraction_of(entries)[1] != 0


def _split(rng, total: int, m: int, least: int = 1) -> list:
    """Random composition of `total` into m parts, each at least `least`."""
    free = total - m * (least - 1)
    cuts = sorted(rng.sample(range(1, free), m - 1))
    return [b - a + least - 1 for a, b in zip([0] + cuts, cuts + [free])]


def _shape(rng, total: int, signs=None, first_at_least: int = 1) -> tuple:
    """Random twist vector with sum(|a|) == total and a finite fraction.

    With `signs`, the vector has that sign pattern, or its mirror image,
    and no part below a tenth of the total; otherwise 1 to 3 entries of
    random signs, the first at least `first_at_least`."""
    while True:
        if signs:
            flip = rng.choice((1, -1))
            parts = _split(rng, total, len(signs), max(1, total // 10))
            entries = tuple(flip * s * p for s, p in zip(signs, parts))
        else:
            m = rng.randint(1, min(3, total - first_at_least + 1))
            parts = _split(rng, total - first_at_least + 1, m)
            parts[0] += first_at_least - 1
            entries = tuple(rng.choice((1, -1)) * p for p in parts)
        if _finite(entries):
            return entries


def _fresh(draw, seen: set, tries: int = 50):
    """draw() until it gives an input not seen before in the run (or
    `tries` are used up); the shape is fixed, so a repeat of identical
    inputs is rare and never rewarded by a cache keyed on them."""
    for _ in range(tries):
        value = draw()
        if value not in seen:
            break
    seen.add(value)
    return value


# Slots of twist-runs: (subcommand, total twist, sign pattern).  Uniform
# signs give alternating diagrams with full-span brackets; the mixed-sign
# slots are the costlier non-alternating case.  Each call takes 30 to
# 200 ms on the reference VM (see README.md), so that a run holds a few
# hundred of them.  Every slot has two or three entries, so that it has
# thousands of variants.
TWIST_SLOTS = (
    ("bracket", 150, (1, 1)),
    ("invariant", 120, (1, 1)),
    ("closure", 80, (-1, 1, -1)),
    ("bracket", 80, (1, -1)),
    ("closure", 120, (1, 1)),
    ("invariant", 105, (1, 1, 1)),
)


def twist_runs_round(rng, seen: set, tiny=False) -> list:
    return [Op(command, _fresh(lambda: (command, _shape(rng, total // 10 if tiny else total, signs)),
                               seen)[1])
            for command, total, signs in TWIST_SLOTS]


def _batch_line(rng, k: int) -> tuple:
    """Line k of a batch file: 1 + k % 9 nonzero entries with |a| <= 5,
    total twist three times their number and a sign pattern fixed by k;
    the seed splits the twist into entries and mirrors the line or not.
    Every fifth line ends in a 0 entry.  Fixing the length, total twist
    and sign pattern of each line keeps the cost of a file the same for
    every seed."""
    m = 1 + k % 9
    signs = [1 if (i + k) % 3 else -1 for i in range(m)]
    while True:
        parts = [1] * m
        for _ in range(2 * m):
            parts[rng.choice([i for i in range(m) if parts[i] < 5])] += 1
        flip = rng.choice((1, -1))
        entries = tuple(flip * s * a for s, a in zip(signs, parts)) + ((0,) if k % 5 == 4 else ())
        if _finite(entries):
            return entries


BATCH_LINES = 30


def batch_small_round(rng, path: Path, tiny=False) -> list:
    """A new batch file at `path` each round; its short lines repeat from
    file to file, as short vectors must."""
    lines = tuple(_batch_line(rng, k) for k in range(12 if tiny else BATCH_LINES))
    path.write_text("".join(notation(e) + "\n" for e in lines), encoding="utf-8")
    return [Op(cmd, n=1 if cmd.startswith("colored") else 0, batch=str(path), lines=lines)
            for cmd in BATCH_COMMANDS]


def _fraction_partner(entries) -> tuple:
    """Split the innermost entry a (|a| >= 2) into (sgn a, a - sgn a):
    a = (a - sgn a) + 1/(sgn a), so the fraction and the total twist
    stay the same while the diagram changes."""
    a = entries[0]
    s = 1 if a > 0 else -1
    partner = (s, a - s) + tuple(entries[1:])
    assert checks.fraction_of(partner) == checks.fraction_of(entries)
    return partner


COLORED_N2_TWIST = 5


def colored_cables_round(rng, seen: set, tiny=False) -> list:
    """For each of colored and colored-closure at width 2, one pair of
    tangles with equal fractions and one mirror pair, every tangle of
    total twist 5 (3 when tiny).

    Width 3 runs in set-up only: one call there takes 1.5 to 10 s, too
    long to repeat often enough in a run for a steady figure, while its
    first calls (which build the 6-strand projector, the cabled basis and
    the crossing tiles) are most of set-up."""
    total = 3 if tiny else COLORED_N2_TWIST
    ops = []
    for command in ("colored", "colored-closure"):
        for kind in ("fraction", "mirror"):
            v = _fresh(lambda: (command, kind, _shape(rng, total, first_at_least=2)), seen)[2]
            other = _fraction_partner(v) if kind == "fraction" else tuple(-a for a in v)
            pair_id = len(ops) // 2
            ops.append(Op(command, v, n=2, pair=(kind, pair_id, 0)))
            ops.append(Op(command, other, n=2, pair=(kind, pair_id, 1)))
    return ops


# One diagram per crossing count, of three entries for even counts and of
# four for odd ones, in fixed sign patterns: the cost of a state sum
# depends a little on the diagram's shape.
STATE_SUM_CROSSINGS = (10, 11, 12, 13, 14)
STATE_SUM_SIGNS = ((1, 1, 1), (1, -1, 1, -1))


def state_sum_round(rng, seen: set, tiny=False) -> list:
    crossings = (5, 6) if tiny else STATE_SUM_CROSSINGS
    return [Op("oracle-check", _fresh(lambda: _shape(rng, c, STATE_SUM_SIGNS[c % 2]), seen))
            for c in crossings]


def rounds(workload: str, seed: int, outdir: Path, tiny=False):
    """The rounds of a run, each with new inputs of the same shapes."""
    rng = random.Random(f"{workload}-{seed}")
    seen = set()
    while True:
        if workload == "twist-runs":
            yield twist_runs_round(rng, seen, tiny)
        elif workload == "batch-small":
            yield batch_small_round(rng, outdir / f"batch-small-seed{seed}.txt", tiny)
        elif workload == "colored-cables":
            yield colored_cables_round(rng, seen, tiny)
        elif workload == "state-sum":
            yield state_sum_round(rng, seen, tiny)
        else:
            raise ValueError(f"unknown workload {workload!r}")


# One fixed warm-up tangle for each subcommand and width a workload uses.
# For the colored commands, [1] and [-1] between them touch both crossing
# tiles, so no cache is filled for the first time inside the timed region.
WARMUP = {
    "twist-runs": [Op(c, (3, 2, -3)) for c in ("bracket", "invariant", "closure")],
    "batch-small": [Op(c, (3, 2, -3), n=1 if c.startswith("colored") else 0) for c in BATCH_COMMANDS],
    "colored-cables": [Op(c, e, n=n) for n in (2, 3)
                       for c, e in (("colored", (1,)), ("colored-closure", (-1,)))],
    "state-sum": [Op("oracle-check", (3, 2, -3))],
}


# ---------------------------------------------------------------------------
# Checking a round of outputs
# ---------------------------------------------------------------------------

def _check_cli(op: Op, text: str, pt: checks.Point) -> tuple:
    """Errors for one CLI output, plus the parsed payload(s)."""
    if op.batch:
        payloads = [json.loads(line) for line in text.splitlines()]
        if len(payloads) != len(op.lines):
            return [f"{op.command}: {len(payloads)} output lines for {len(op.lines)} tangles"], None
        errors = []
        for entries, payload in zip(op.lines, payloads):
            errors += [f"{notation(entries)}: {e}" for e in check_payload(op.command, entries, payload, pt, op.n)]
        return errors, payloads
    payload = json.loads(text)
    return check_payload(op.command, op.entries, payload, pt, op.n), payload


def check_payload(command: str, entries, payload: dict, pt: checks.Point, n: int = 0) -> list:
    if "error" in payload:
        return [f"error payload {payload['error']!r}"]
    try:
        if command == "fraction":
            return checks.check_fraction(entries, payload)
        if command == "canonical":
            return checks.check_canonical(entries, payload)
        if command == "parity":
            return checks.check_parity(entries, payload)
        if command == "classify":
            return checks.check_classify(entries, payload)
        if command == "invariant":
            return checks.check_invariant(entries, payload)
        if command == "bracket":
            return checks.check_bracket(entries, payload, pt)
        if command == "closure":
            return checks.check_closure(entries, payload, pt)
        if command == "colored":
            return checks.check_colored(entries, payload, pt, n)
        if command == "colored-closure":
            return checks.check_colored_closure(entries, payload, pt, n)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{command}: malformed output ({type(exc).__name__}: {exc})"]
    raise ValueError(f"no checker for {command!r}")


def _check_oracle(op: Op, out: dict, pt: checks.Point) -> list:
    errors = []
    alpha, beta = checks.bracket_mod(op.entries, pt)
    if out["crossings"] != sum(abs(a) for a in op.entries):
        errors.append(f"diagram has {out['crossings']} crossings")
    if tuple(out["state"]) != tuple(out["fast"]):
        errors.append("state-sum bracket differs from the fast path")
    if out["state_closure"] != out["fast_closure"]:
        errors.append("state-summed closure differs from the fast path")
    got = tuple(checks.eval_poly(str(p), pt) for p in out["state"])
    if got != (alpha, beta):
        errors.append(f"state-sum bracket at A is {got}, skein reference {(alpha, beta)}")
    ref = checks.closure_mod(op.entries, pt)
    for k in range(5):
        value = checks.eval_ratfunc(str(out["state_closure"].coefficient(k)), pt)
        if value != ref.get(k, 0):
            errors.append(f"state-summed closure z^{k} at A differs from the skein reference")
    return [f"{notation(op.entries)}: {e}" for e in errors]


def check_round(ops: list, outputs: list, pt: checks.Point) -> list:
    """Errors found in one round; outputs[i] is the output of ops[i], or
    None when that operation failed (failures are counted, not checked)."""
    errors = []
    payloads = {}
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        if op.command == "oracle-check":
            errors += _check_oracle(op, out, pt)
            continue
        try:
            errs, payload = _check_cli(op, out, pt)
        except ValueError as exc:  # not JSON
            errs, payload = [f"{op.command} {notation(op.entries)}: unreadable output ({exc})"], None
        errors += errs
        if op.pair and payload is not None:
            payloads.setdefault(op.pair[:2], {})[op.pair[2]] = (op, payload)
    for (kind, _), halves in payloads.items():
        if len(halves) != 2:
            continue
        (op0, first), (op1, second) = halves[0], halves[1]
        what = f"{op0.command} n={op0.n} {notation(op0.entries)} / {notation(op1.entries)}"
        try:
            if kind == "mirror":
                errors += checks.check_mirror_pair(first, second, pt, what)
            else:
                errors += checks.check_fraction_pair(first, second, pt, what)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errors.append(f"{what}: malformed output ({type(exc).__name__}: {exc})")
    return errors
