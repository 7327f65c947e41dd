"""Command-line front end for the tanglekit library.

Subcommands fall into four groups:

* fraction arithmetic: ``fraction``, ``canonical``, ``parity``, ``schubert``
* bracket invariants: ``bracket``, ``invariant``
* solid-torus closures: ``closure``, ``equiv``, ``classify``, ``colored``,
  ``colored-closure``
* verification and display: ``oracle-check``, ``render-ascii``

Tangles are written in bracket notation, ``"[3 2 -3]"`` or ``"[inf]"``.
Output is compact JSON by default and ``--text`` switches to a readable
rendering; the output is a pure function of the arguments.  Errors,
argument errors included, are reported on stdout as one JSON line
``{"error": "..."}`` with exit code 2, under ``--text`` too; when the
reader closes stdout, the run stops and exits 2 without writing more.
The two equivalence commands exit 0 when equivalent and 1 when not, so
they can drive shell scripts.

A single-tangle subcommand reads either one tangle argument or, with
``--batch FILE``, one tangle per line; a single tangle is a batch of one.
Lines are evaluated in this process, in input order, one output line
each, and a bad line prints its error line and sets exit code 2 without
stopping the batch.

Every command and option is declared once, in the table ``_COMMANDS``.
A well-formed line is read straight off it: after the command, only
exact option strings of that command, their values and its positionals,
no option given twice and no value starting with ``-``.  Any other line
(``-h``, an abbreviation, ``--n=2``, ``--``, an argument error) goes to
argparse, whose parser is built from the same table on the first such
line; it renders the help and the error line.  Both readings give the
same Namespace.

Only the modules the command uses are compiled: the TL engine and the
diagram builders load on first use (see tl.py and tangles.py), and
oracle-check imports the builders itself.
"""

import argparse
import json
import os
import random
import re
import sys
from functools import cache, partial
from itertools import islice

from .annulus import (
    _closure_forms,
    _z_text,
    closure_bracket,
    colored_closure,
    homotopy_type,
    link_fraction,
    links_equivalent,
    solid_torus_closure,
)
from .bracket import _dense_c_invariant, _replay, bracket_vector
from .oracle import MAX_ORACLE_COUNT, MAX_ORACLE_CROSSINGS, bracket_of_diagram
from .rationals import TwistVector, canonical_form, parity, schubert_equivalent
from .ring import _dense_str, _quotient_str
from .tangles import RationalTangle, build_rational, to_twist_word
from .tl import (
    MAX_TWIST_WIDTH,
    _colored_forms,
    check_cable_width,
    colored_expand,
    colored_twist_word,
)


#: Largest --batch input read, in bytes; longer input is refused whole.
MAX_BATCH_BYTES = 1 << 24

#: oracle-check also compares the colored coordinates and the colored
#: closure of the transfer replay, at widths 2 and 3, with those of the
#: threaded closure of the diagram, on diagrams of at most this many
#: crossings.  The threaded closure builds no projector and reads no
#: replay data, so the two checks referee the replay's closed-form start
#: vectors and quarter turn, and the reading of its coordinates kappa_i
#: as Chebyshev coordinates of the closure; both sides divide by the
#: same bubble ratios c_i, which the tests check against bni_basis.  At
#: 4 crossings and width 3 both checks take at most 0.11 s.
ORACLE_COLORED_CROSSINGS = 4


# ---------------------------------------------------------------------------
# Tangle notation
# ---------------------------------------------------------------------------

class TangleNotationError(ValueError):
    """Raised for strings that do not parse as bracket tangle notation."""


INFINITY_TANGLE = RationalTangle.infinity()

#: A token: an integer (group 1) or any other run of non-space text.
_TOKEN = re.compile(r"([+-]?[0-9]+)(?!\S)|\S+")

#: A well-formed line of integer entries, group 1 between the brackets.
_ENTRIES = re.compile(r"\s*\[(\s*[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\s*)\]\s*")


def parse_tangle_notation(s: str):
    """Parse bracket notation into a TwistVector, or INFINITY_TANGLE.

    The grammar is ``'['`` followed by one or more whitespace-separated
    integers and a closing ``']'``; the single token ``inf`` denotes the
    infinity tangle.  Interior zero entries are rejected.  A line of
    integer entries with no interior zero is read with one match; any
    other line goes to _parse_tokens.
    """
    m = _ENTRIES.fullmatch(s)
    if m:
        entries = list(map(int, m[1].split()))
        if 0 not in entries[1:-1]:
            return TwistVector(entries)
    return _parse_tokens(s)


def _parse_tokens(s: str):
    """parse_tangle_notation token by token: the reading of ``inf`` and of
    every error line, with its column.  Tokens are converted as they are
    matched and only the integers are kept; a column is taken from a
    match only for an error.
    """
    def fail(msg, col):
        raise TangleNotationError(f"parse error: {msg} (column {col})")

    first = _TOKEN.search(s)
    i = first.start() if first else len(s)
    if s[i:i + 1] != "[":
        fail("expected '['", i + 1)
    close = s.find("]", i + 1)
    if close < 0:
        fail("expected ']'", len(s) + 1)
    tail = _TOKEN.search(s, close + 1)
    if tail:
        fail("unexpected text after ']'", tail.start() + 1)
    entries = []
    for m in _TOKEN.finditer(s, i + 1, close):
        text = m[1]
        if text is None:
            if m[0] != "inf":
                fail(f"expected an integer, got {m[0]!r}", m.start() + 1)
            if entries or _TOKEN.search(s, m.end(), close):
                fail("'inf' cannot combine with twist entries", m.start() + 1)
            return INFINITY_TANGLE
        entries.append(int(text))
    if not entries:
        fail("no entries between the brackets", close + 1)
    try:
        k = entries.index(0, 1, -1)
    except ValueError:
        return TwistVector(entries)
    col = next(islice(_TOKEN.finditer(s, i + 1, close), k, None)).start() + 1
    raise TangleNotationError(f"interior zero entry (column {col})")


def _parse_tangle_arg(s: str) -> RationalTangle:
    parsed = parse_tangle_notation(s)
    if isinstance(parsed, RationalTangle):
        return parsed
    return build_rational(parsed)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

#: Compact JSON of a payload; json.dumps would build a new encoder for
#: its non-default separators on every call.
_dump = json.JSONEncoder(separators=(",", ":")).encode


def _chebyshev_text(coords) -> str:
    """The text of the Chebyshev coordinates given as strings."""
    parts = []
    for k in range(len(coords) - 1, -1, -1):
        if coords[k] != "0":
            parts.append(f"({coords[k]})*S_{k}")
    return " + ".join(parts) if parts else "0"


def _closure_payload(forms, opts, payload):
    """The one writer of closure and colored-closure lines at every width:
    payload, filled in the requested basis (both when opts["basis"] is
    None) from the forms (zs, kappas) of annulus._closure_forms, and the
    text form, built only under --text (None otherwise).  The top z
    coefficient is the form of kappa_top, written once."""
    zs, kappas = forms
    basis, text = opts.get("basis"), None
    k_top, f_top = zs[-1]
    top = _dense_str(*f_top, 4)
    if basis != "chebyshev":
        z = payload["z"] = {str(k): top if f is f_top else _dense_str(*f, 4) for k, f in zs}
    if basis != "z":
        cheb = payload["chebyshev"] = ["0"] * (k_top + 1)
        for i, f in enumerate(kappas):
            if f:
                cheb[2 * i] = top if f is f_top else _dense_str(*f, 4)
    if opts.get("fmt") == "text":
        if basis == "chebyshev":
            text = _chebyshev_text(cheb)
        else:
            text = _z_text((int(k), c) for k, c in reversed(z.items()))
    return payload, text


# ---------------------------------------------------------------------------
# Per-tangle payload builders (shared by single and batch modes)
# ---------------------------------------------------------------------------

def _fraction_payload(notation, opts):
    f = _parse_tangle_arg(notation).fraction
    return {"p": f.p, "q": f.q, "parity": parity(f)}, f"{f} (parity {parity(f)})"


def _canonical_payload(notation, opts):
    f = _parse_tangle_arg(notation).fraction
    tv = canonical_form(f)
    return {"entries": list(tv.entries), "p": f.p, "q": f.q}, str(tv)


def _parity_payload(notation, opts):
    tag = parity(_parse_tangle_arg(notation).fraction)
    return {"parity": tag}, tag


def _bracket_payload(notation, opts):
    forms = _replay(_parse_tangle_arg(notation))
    (lo_a, da), (lo_b, db) = forms
    payload = {
        "alpha": _dense_str(lo_a, 1, da, 4),
        "beta": _dense_str(lo_b, 1, db, 4),
        # alpha and beta are coprime: the quotient takes no gcd (coprime_ratio)
        "R": _quotient_str((lo_a - lo_b, 1, da, db)) if db else "inf",
        "C": str(_dense_c_invariant(forms)),
    }
    return payload, "\n".join(f"{k} = {v}" for k, v in payload.items())


def _invariant_payload(notation, opts):
    c = _dense_c_invariant(_replay(_parse_tangle_arg(notation)))
    return {"C": str(c), "p": c.p, "q": c.q}, str(c)


def _closure_cmd_payload(notation, opts):
    return _closure_payload(_closure_forms(_parse_tangle_arg(notation), 1), opts, {})


def _classify_payload(notation, opts):
    link = solid_torus_closure(_parse_tangle_arg(notation))
    f = link_fraction(link)
    kind = homotopy_type(link).name
    payload = {"p": f.p, "q": f.q, "parity": parity(f), "homotopy": kind}
    return payload, f"{f} (parity {parity(f)}, {kind})"


def _colored_payload(notation, opts):
    n = opts["n"]
    # A vanishing top coordinate shows as fewer than n ratios, reported
    # in the payload: they then divide by gamma_k, k = len(ratios), the
    # last nonzero coordinate.
    gammas, ratios = _colored_forms(_parse_tangle_arg(notation), n, True)
    payload = {
        "n": n,
        "gamma": list(map(_quotient_str, gammas)),
        "ratios": list(map(_quotient_str, ratios)),
    }
    text = "gamma:  " + ", ".join(payload["gamma"])
    text += "\nratios: " + ", ".join(payload["ratios"])
    if len(ratios) < n:
        payload["normalized_by"] = len(ratios)
        text += f"\nnormalized by gamma_{len(ratios)} (top coordinate vanishes)"
    return payload, text


def _colored_closure_payload(notation, opts):
    n = opts["n"]
    word = colored_twist_word(_parse_tangle_arg(notation), n)
    return _closure_payload(_closure_forms(word, n), opts, {"n": n})


def _render_payload(notation, opts):
    """Coarse picture: one glyph run per twist region, in build order."""
    parsed = parse_tangle_notation(notation)
    if isinstance(parsed, RationalTangle):
        lines = ["tangle [inf]", "start  [inf]"]
    else:
        word = to_twist_word(build_rational(parsed))
        lines = [f"tangle {parsed}", f"start  [{word.start}]"]
        for kind, a in word.runs:
            label = "right" if kind == "R" else "bottom"
            glyph = "/" if a > 0 else "\\"
            lines.append(f"{label:<6} {a:+d}  {glyph * abs(a)}")
    art = "\n".join(lines)
    return {"ascii": art}, art


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _emit(args, payload, text):
    print(text if args.fmt == "text" else _dump(payload))


def _evaluate(build, notation, opts, fmt):
    """Exit code and output line for one tangle, from the payload builder
    build.  Any failure becomes the JSON error line, so one bad line
    cannot stop a batch."""
    try:
        payload, text = build(notation, opts)
    except Exception as exc:
        return 2, _dump({"error": str(exc)})
    return 0, text if fmt == "text" else _dump(payload)


def _read_batch(path):
    if path == "-":
        data = sys.stdin.buffer.read(MAX_BATCH_BYTES + 1)
    else:
        with open(path, "rb") as fh:
            data = fh.read(MAX_BATCH_BYTES + 1)
    if len(data) > MAX_BATCH_BYTES:
        raise ValueError(f"batch input exceeds the bound of {MAX_BATCH_BYTES} bytes")
    text = data.decode("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def _cmd_single(build, args) -> int:
    """Run a single-tangle command, whose table entry binds its payload
    builder build, on its tangle or on each line of its batch."""
    batch = getattr(args, "batch", None)
    if batch is not None:
        if args.tangle is not None:
            raise ValueError("give either a tangle argument or --batch FILE, not both")
        lines = _read_batch(batch)
    elif args.tangle is None:
        raise ValueError("a tangle argument or --batch FILE is required")
    else:
        lines = [args.tangle]
    opts = {"n": check_cable_width(getattr(args, "n", 1), MAX_TWIST_WIDTH),
            "basis": getattr(args, "basis", None), "fmt": args.fmt}
    code = 0
    for line in lines:
        rc, out = _evaluate(build, line, opts, args.fmt)
        print(out)
        code = max(code, rc)
    return code


def _cmd_schubert(args) -> int:
    a = _parse_tangle_arg(args.left).fraction
    b = _parse_tangle_arg(args.right).fraction
    eq = schubert_equivalent(a, b)
    payload = {"equivalent": eq, "left": str(a), "right": str(b)}
    _emit(args, payload, f"{a} and {b}: {'equivalent' if eq else 'not equivalent'}")
    return 0 if eq else 1


def _cmd_equiv(args) -> int:
    la = solid_torus_closure(_parse_tangle_arg(args.left))
    lb = solid_torus_closure(_parse_tangle_arg(args.right))
    eq = links_equivalent(la, lb)
    a, b = link_fraction(la), link_fraction(lb)
    payload = {"equivalent": eq, "left": str(a), "right": str(b)}
    _emit(args, payload, f"{a} and {b}: {'equivalent' if eq else 'not equivalent'}")
    return 0 if eq else 1


def _cmd_oracle_check(args) -> int:
    # loaded on first use, see its docstring
    from .diagrams import random_twist_vector, rational_to_diagram

    budget = args.max_crossings
    if not 1 <= budget <= MAX_ORACLE_CROSSINGS:
        raise ValueError(f"crossing budget must be between 1 and {MAX_ORACLE_CROSSINGS}")
    if not 1 <= args.count <= MAX_ORACLE_COUNT:
        raise ValueError(
            f"--count must be between 1 and {MAX_ORACLE_COUNT}, got {args.count}"
        )
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    attempts = 0
    while checked < args.count:
        attempts += 1
        if attempts > 200 * args.count:
            raise ValueError("could not sample enough diagrams within the crossing budget")
        tv = random_twist_vector(rng)
        t = build_rational(tv)
        d = rational_to_diagram(t)
        if d.crossing_count > budget:
            continue
        vec = bracket_vector(t)
        if bracket_of_diagram(d) != (vec.alpha, vec.beta):
            failures.append({"tangle": str(tv), "check": "bracket"})
        if closure_bracket(t) != closure_bracket(d):
            failures.append({"tangle": str(tv), "check": "closure"})
        if d.crossing_count <= ORACLE_COLORED_CROSSINGS:
            for n in (2, 3):
                if colored_expand(t, n) != colored_expand(d, n):
                    failures.append({"tangle": str(tv), "check": "colored", "n": n})
                if colored_closure(t, n) != colored_closure(d, n):
                    failures.append({"tangle": str(tv), "check": "colored-closure", "n": n})
        checked += 1
    payload = {
        "checked": checked,
        "max_crossings": budget,
        "seed": args.seed,
        "failures": failures,
        "ok": not failures,
    }
    text = f"checked {checked} diagrams with at most {budget} crossings: " + (
        "all fast paths agree with the state sum"
        if not failures
        else f"{len(failures)} disagreements"
    )
    _emit(args, payload, text)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The command-line grammar.  A positional or option is (name or flag,
# add_argument keywords); every option names its dest.  _FORMAT, the
# --json/--text pair, is one mutually exclusive group.
_TANGLE = ("tangle", {"nargs": "?",
                      "help": "tangle in bracket notation, e.g. '[3 2 -3]' or '[inf]'"})
_PAIR = (("left", {}), ("right", {}))
_BATCH = ("--batch", {"dest": "batch", "metavar": "FILE",
                      "help": "read one tangle per line from FILE ('-' for stdin)"})
_FORMAT = (
    ("--json", {"dest": "fmt", "action": "store_const", "const": "json",
                "help": "compact JSON output"}),
    ("--text", {"dest": "fmt", "action": "store_const", "const": "text",
                "help": "plain text output"}),
)
_WIDTH = ("--n", {"dest": "n", "type": int, "default": 1,
                  "help": f"cable width (1..{MAX_TWIST_WIDTH})"})
_BASIS = ("--basis", {"dest": "basis", "choices": ("z", "chebyshev"),
                      "help": "restrict output to one basis"})

#: name -> (help, positionals, options, default format, handler), in the
#: order of the help text.  The one declaration of every command and
#: option: _build_parser and _parse_line both read it.  The handler of a
#: single-tangle command is _cmd_single bound to its payload builder.
_COMMANDS = {
    "fraction": ("continued fraction p/q of a tangle, with parity",
                 (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _fraction_payload)),
    "canonical": ("canonical odd-length uniform-sign twist vector",
                  (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _canonical_payload)),
    "parity": ("parity class of the tangle fraction",
               (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _parity_payload)),
    "schubert": ("Schubert equivalence of two tangle fractions (exit 0/1)",
                 _PAIR, (_FORMAT,), "json", _cmd_schubert),
    "bracket": ("bracket coordinates alpha, beta with ratio and fraction invariants",
                (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _bracket_payload)),
    "invariant": ("tangle fraction recovered from the bracket coordinates",
                  (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _invariant_payload)),
    "closure": ("solid-torus closure in the z and Chebyshev bases",
                (_TANGLE,), (_BATCH, _FORMAT, _BASIS), "json",
                partial(_cmd_single, _closure_cmd_payload)),
    "equiv": ("isotopy equivalence of two solid-torus closures (exit 0/1)",
              _PAIR, (_FORMAT,), "json", _cmd_equiv),
    "classify": ("fraction, parity, and homotopy type of the closure",
                 (_TANGLE,), (_BATCH, _FORMAT), "json", partial(_cmd_single, _classify_payload)),
    "colored": ("colored coordinates gamma_i and their ratios",
                (_TANGLE,), (_BATCH, _FORMAT, _WIDTH), "json",
                partial(_cmd_single, _colored_payload)),
    "colored-closure": ("colored solid-torus closure in the z and Chebyshev bases",
                        (_TANGLE,), (_BATCH, _FORMAT, _WIDTH, _BASIS), "json",
                        partial(_cmd_single, _colored_closure_payload)),
    "oracle-check": (
        "verify the fast bracket, closure and colored paths against the state-sum oracle",
        (),
        (("--max-crossings", {"dest": "max_crossings", "type": int, "default": 10,
                              "help": f"crossing budget per diagram (1..{MAX_ORACLE_CROSSINGS})"}),
         ("--count", {"dest": "count", "type": int, "default": 25,
                      "help": f"number of random diagrams to check (1..{MAX_ORACLE_COUNT})"}),
         ("--seed", {"dest": "seed", "type": int, "default": 2026,
                     "help": "seed for the diagram sampler"}),
         _FORMAT),
        "json", _cmd_oracle_check),
    "render-ascii": ("coarse text picture of the twist regions",
                     (_TANGLE,), (_FORMAT,), "text", partial(_cmd_single, _render_payload)),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so that main reports them as one
    JSON error line instead of usage text on stderr.  Subparsers inherit
    the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, built on the first line that the
    table does not read (help, abbreviations, argument errors) and kept.
    The first build in a process took about 4 ms (2-vCPU x86 host,
    CPython 3.11), which a well-formed command line never pays."""
    parser = _ArgumentParser(
        prog="tanglekit",
        description="Exact invariants of rational 2-tangles and their "
                    "solid-torus closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options, fmt, handler) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for pname, kwargs in positionals:
            sp.add_argument(pname, **kwargs)
        for option in options:
            if option is _FORMAT:
                group = sp.add_mutually_exclusive_group()
                for flag, kwargs in option:
                    group.add_argument(flag, **kwargs)
            else:
                sp.add_argument(option[0], **option[1])
        sp.set_defaults(fmt=fmt, handler=handler)
    return parser


def _line_grammar():
    """command -> (positional names, how many are required, flag ->
    add_argument keywords, the Namespace values before any token)."""
    grammar = {}
    for name, (_, positionals, options, fmt, handler) in _COMMANDS.items():
        flags = {}
        for option in options:
            flags.update(option if option is _FORMAT else (option,))
        empty = {kwargs["dest"]: kwargs.get("default") for kwargs in flags.values()}
        empty.update({pname: None for pname, _ in positionals})
        empty.update(command=name, fmt=fmt, handler=handler)
        required = sum(kwargs.get("nargs") != "?" for _, kwargs in positionals)
        grammar[name] = ([pname for pname, _ in positionals], required, flags, empty)
    return grammar


_LINE_GRAMMAR = _line_grammar()


def _parse_line(argv):
    """The Namespace of a well-formed command line, equal to the one
    argparse gives, or None for any other line, which the parser of
    _build_parser then parses, renders help for or rejects.
    Well-formed: after the command, each token is an exact option string
    of that command, the value of the option before it, or the next
    positional; no dest is given twice, no value starts with '-', int
    values convert and choices hold."""
    if not argv or argv[0] not in _LINE_GRAMMAR:
        return None
    positionals, required, flags, values = _LINE_GRAMMAR[argv[0]]
    values = dict(values)
    seen = set()
    given = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if given == len(positionals):
                return None
            values[positionals[given]] = token
            given += 1
            continue
        kwargs = flags.get(token)
        if kwargs is None or kwargs["dest"] in seen:
            return None
        seen.add(kwargs["dest"])
        if "const" in kwargs:
            values[kwargs["dest"]] = kwargs["const"]
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        if kwargs.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[kwargs["dest"]] = value
    if given < required:
        return None
    return argparse.Namespace(**values)


def _discard_stdout():
    """Send what is left of stdout to the null device, so that neither
    a later print nor the flush at interpreter exit meets the closed
    pipe again.  A stdout without a file descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv=None) -> int:
    """Run one command line; any exception ends as the JSON error line
    with exit code 2, as a bad line of a batch does.  When the reader
    closes stdout, the run stops at once and exits 2 without writing
    anything more to either stream."""
    try:
        args = _parse_line(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 2
    except Exception as exc:
        print(_dump({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
