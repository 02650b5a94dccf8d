"""Command line: optimize / verify / recognize, reporting JSON.

Reports go to stdout as a single JSON document; diagnostics go to
stderr.  Exit status is 0 when every embedded check passes, 1 when some
check fails, 2 when an input check raises ``UsageError``, and 3 on any
other exception, from a command or from writing its report (a broken
invariant, or an int too long for ``str``), so a fault in the program
never reads as a failed check or a bad flag.  ``verify`` refuses an n
outside its suite's range and a nonpositive --samples before any suite
runs.  A ``recognize`` verdict is graph membership for r = 2 and the
majorization chain's realization for any other r; only r = 2 with
C(n, 2) <= 20 checks one against the other.  The witness is printed
once, as a JSON edge list, as ``realize_r_graph`` returns it, already in
the input's vertex labels.  The lattice-points suite walks no edge
sets: each even-sum candidate's "yes" from graphs
is a ``havel_hakimi`` witness whose degrees the suite recomputes, and
its "no" from the polytope is the inequality ``in_fhm_polytope`` names,
evaluated again at the candidate.
Every number in ``--costs`` or ``--seq`` meets one size rule: a run of
digits longer than ``str`` prints refuses the whole list before any
token is read (exit 2, one short line, no echo), and so does a cost
whose value is that long in fewer digits, such as "1e5000".
``optimize`` reads each cost as a reduced integer pair (p, q): a
``p/q`` token with ``int`` and one ``gcd``, any other token with
``Fraction``, which accepts or refuses it.  ``core.clear_ratios``
clears the pairs once to numerators C over D = lcm(q), and one
optimality certificate is built from C and D; the partition, the value
and the certificate checks are all read off it, and the costs are
echoed from the pairs with the certificate's own ratio printer,
``core.ratio_text``.  Past the reading of a token that is not ``p/q``,
only ``--oracle`` builds a ``Fraction`` per cost.
A list refused as malformed is echoed up to ``_ECHO_LIMIT`` characters.
Each command builds its report JSON-ready, and ``main`` writes it as it
stands with ``_report_text``, which prints the bytes of
``json.dumps(report, indent=2, sort_keys=True)``, the writer's oracle in
the tests: a rational becomes a string like "3/2" (an integer plainly,
like "4") once, where the report is built, and tuples print as lists.
The writer joins each list of one leaf type in one call, C for strs and
ints (measured in ``BENCH_29.json``).  Every leaf is exact: a leaf that
is not exactly a str, int, bool or None, a float or a ``Fraction``
included, and a dict key that is not a str raise ``TypeError``, and an
int too long for ``str`` raises ``ValueError``: each exits 3.  The
report is written and flushed inside the same ``try``, so a failed
write, such as to a full disk or a closed pipe, exits 3 too; part of
the report may already be out.  Stdout is then
pointed at ``os.devnull``, so that the flush at exit does not report the
failure again.  The certificate's base and coefficients are written
from its integers, one block mean per block, with no ``Fraction`` built
per entry.  The one randomized suite, volume3,
samples from ``random.Random(--seed)``, and --seed defaults to
``DEFAULT_SEED``, so identical flags give identical reports.
Each ``main`` call builds the top-level parser and only the subparser
that argv[0] names, from the one ``COMMANDS`` table, or all three when
argv[0] names no command (``-h``, a typo, no argv); every help and error
line is the full tree's, byte for byte.  The parser is built per call,
not cached, so a ``cmd_*`` rebound after the first call is the one that
runs.  A cached parser is cheaper still, but the benchmark keeps about
211 bytes per op, so more ops per run read as more memory:
``recognize-small`` peak RSS rose 54% with the parser built once per
process and 27% with a bare per-command parser, past its 20% bound.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from typing import Any, Callable, Sequence

from .core import bounded_partitions, clear_denominators, clear_ratios, ratio_text, sort_decreasing
from .hypergraph import (
    POSET_SIZE_BOUND,
    degree_sequence,
    enumerate_degree_partitions,
    havel_hakimi,
    is_r_graphical_partition,
    realize_r_graph,
)
from .optimize import MODES, brute_force_optimal_partition, optimality_certificate
from .polytope import (
    affine_rank,
    count_edges,
    dominating_sum_identity,
    dp3_volume,
    ds3_volume_estimate,
    facet_inequalities,
    in_fhm_polytope,
    irredundancy_witness,
    is_degree_sequence,
)
from .threshold import enumerate_threshold_partitions

DEFAULT_SEED = 1729
# a list refused as malformed is echoed up to this many characters, then "..."
_ECHO_LIMIT = 60
# the refusal of a number with more digits than str prints, by list
_TOO_LONG = {
    "cost": "a cost has a numerator or denominator with more digits than str prints",
    "integer": "an integer has more digits than str prints",
}
# a run of digits as int reads it: underscores may join digits and do not count as digits
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")

# A verify suite maps (n, seed, samples) to extra result fields and checks.
SuiteReport = tuple[dict[str, Any], list[dict[str, Any]]]
Suite = Callable[[int, int, int], SuiteReport]


class UsageError(ValueError):
    """Input the command refuses before it starts: exit 2, where any other exception exits 3."""


def jsonify(obj: Any) -> Any:
    """A check entry's expected or actual value, normalized: Fractions to "p/q" strings, tuples to lists.

    ``make_check`` compares the two values in this form, so that a tuple
    equals the list it prints as.  Reports are built JSON-ready and are
    not passed through here; the function stays a named step because
    ``bench/spans.py`` spans it.
    """
    # plain scalars first: Fraction's ABC metaclass makes isinstance slow
    # on each of a check's many ints
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def make_check(
    name: str,
    expected: Any,
    actual: Any,
    passed: bool | None = None,
    formula: str | None = None,
) -> dict[str, Any]:
    entry = {
        "name": name,
        "expected": jsonify(expected),
        "actual": jsonify(actual),
    }
    entry["pass"] = entry["expected"] == entry["actual"] if passed is None else bool(passed)
    if formula is not None:
        entry["formula"] = formula
    return entry


def _parse_list(text: str, parse: Callable[[str], Any], what: str) -> tuple:
    """Comma-separated tokens, each read by ``parse``; ``UsageError`` names ``what`` unless ``parse`` raised one.

    Before any token is read, a run of digits longer than ``str`` prints
    refuses the whole list, in one short message: ``int`` reads each
    such run, alone or inside ``Fraction``, and would refuse it.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0, no limit: Python before 3.10.7 has none
    # no run is longer than the text, so the scan only runs on a text longer than the limit
    if limit and len(text) > limit and any(len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(text)):
        raise UsageError(_TOO_LONG[what])
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        if all(tokens):
            return tuple(map(parse, tokens))
    except UsageError:
        raise
    except (ValueError, ZeroDivisionError):
        pass
    echo = repr(text) if len(text) <= _ECHO_LIMIT else f"{text[:_ECHO_LIMIT]!r}..."
    raise UsageError(f"malformed {what} list: {echo}")


def _cost_pair(token: str) -> tuple[int, int]:
    """The value of ``Fraction(token)`` as (p, q) in lowest terms, q >= 1.

    ``[+-]?digits(/digits)?`` in ASCII digits is read with ``int`` and one
    ``gcd``; ``Fraction(token)`` reads or refuses the rest.  Only the
    numerator takes a sign: ``int("-2")`` would accept the denominator of
    "1/-2", which ``Fraction`` refuses.  :func:`_parse_list` has refused
    every run of digits past the limit ``str`` prints, so what is left is
    a value past it in few digits, such as "1e5000", which is refused
    alike.
    """
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdecimal():
        if not slash:
            return int(num), 1
        if den.isascii() and den.isdecimal():
            p, q = int(num), int(den)
            if not q:
                raise ZeroDivisionError("a cost has denominator 0")
            g = gcd(p, q)
            return p // g, q // g
    value = Fraction(token)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise UsageError(_TOO_LONG["cost"])
    return value.numerator, value.denominator


def parse_cost_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated rationals, integers or p/q, each as a reduced pair (p, q) with q >= 1."""
    return _parse_list(text, _cost_pair, "cost")


def parse_int_seq(text: str) -> tuple[int, ...]:
    """Comma-separated integers."""
    return _parse_list(text, int, "integer")


def cmd_optimize(args: argparse.Namespace) -> dict[str, Any]:
    pairs = parse_cost_pairs(args.costs)
    mode = args.mode
    if args.oracle and len(pairs) > 16:
        raise UsageError("--oracle enumerates every vertex and is capped at n <= 16")
    # c = C/D is cleared once, here; the partition and the value are read off the certificate
    cert = optimality_certificate(*clear_ratios(pairs))
    partition = cert.optimizer(mode)
    value = cert.value(partition)
    support = sorted(cert.support)
    checks = [
        make_check(
            "certificate-reconstructs-costs",
            [],
            cert.misfits(),
            formula="c_t = base_t + alpha_(t-1) - alpha_t, alpha_0 = alpha_n = 0",
        ),
        make_check(
            "certificate-support-on-optimal-plateaus",
            [],
            [i for i in support if partition[i - 1] != partition[i]],
        ),
    ]
    if args.oracle:
        best, argmax = brute_force_optimal_partition([Fraction(p, q) for p, q in pairs])
        # threshold partitions are closed under componentwise max and min,
        # so the extreme optimizer is the column max (or min) of the argmax set
        pick = max if mode == "max" else min
        extreme = tuple(pick(col) for col in zip(*argmax))
        checks.append(make_check("oracle-value-agreement", best, value))
        checks.append(make_check("oracle-extreme-optimizer", extreme, partition))
        checks.append(make_check("oracle-argmax-contains-output", True, partition in argmax))
    base, coefficients = cert.text()
    return {
        "command": "optimize",
        "inputs": {"costs": [ratio_text(p, q) for p, q in pairs], "mode": mode, "oracle": bool(args.oracle)},
        "result": {
            "partition": partition,
            "value": str(value),
            "certificate": {
                "base": base,
                "coefficients": coefficients,
                "support": support,
            },
        },
        "checks": checks,
    }


def _edge_count_formula(n: int) -> int:
    """The paper's closed form for the edge count of the polytope, n >= 3."""
    return 2 ** (n - 2) * (2 * n - 3)


def _edge_count_check(n: int) -> dict[str, Any]:
    """The enumerated edge count against the closed form: counts and edges suites."""
    return make_check(
        "edge-count",
        _edge_count_formula(n),
        count_edges(n),
        formula="2^(n-2)*(2n-3)",
    )


def _facet_count_check(n: int, count: int) -> dict[str, Any]:
    """The length of the facet list against the closed form: counts and facets suites."""
    return make_check(
        "facet-count",
        (n * n - 3 * n + 12) // 2,
        count,
        formula="(n^2-3n+12)/2",
    )


def _suite_counts(n: int, seed: int, samples: int) -> SuiteReport:
    checks = [
        make_check(
            "vertex-count",
            2 ** (n - 1),
            len(enumerate_threshold_partitions(n)),
            formula="2^(n-1)",
        ),
        _edge_count_check(n),
    ]
    if n >= 4:
        checks.append(_facet_count_check(n, len(facet_inequalities(n))))
    checks.append(
        make_check(
            "dominating-sum-identity",
            2 ** (n - 1),
            dominating_sum_identity(n),
            formula="sum of dominating counts = 2^(n-1)",
        )
    )
    return {}, checks


def _suite_facets(n: int, seed: int, samples: int) -> SuiteReport:
    facets = facet_inequalities(n)
    vertices = enumerate_threshold_partitions(n)
    # one evaluation per (facet, vertex) gives both the violations and the tight sets
    violations = 0
    tight_sets = []
    for f in facets:
        values = [f.value(d) for d in vertices]
        violations += sum(v > f.rhs for v in values)
        tight_sets.append([d for d, v in zip(vertices, values) if v == f.rhs])
    min_rank = min(map(affine_rank, tight_sets))

    def violates_only(f, w):
        # w = W / D: g holds at w exactly when g.value(W) <= g.rhs * D
        vec, scale = clear_denominators(w)
        return all((g.value(vec) > g.rhs * scale) == (g == f) for g in facets)

    witnesses = sum(
        1 for f, tight in zip(facets, tight_sets) if violates_only(f, irredundancy_witness(n, f, tight))
    )
    return {}, [
        _facet_count_check(n, len(facets)),
        make_check("facet-validity-violations", 0, violations),
        make_check(
            "min-tight-affine-rank",
            n,
            min_rank,
            passed=min_rank >= n,
            formula="each facet is tight on >= n affinely independent vertices",
        ),
        make_check("facet-irredundancy-witnesses", len(facets), witnesses),
    ]


def _suite_edges(n: int, seed: int, samples: int) -> SuiteReport:
    checks = [_edge_count_check(n)]
    if n >= 4:
        checks.append(
            make_check(
                "edge-recurrence",
                _edge_count_formula(n),
                2 * _edge_count_formula(n - 1) + 2 ** (n - 1),
                formula="E(n) = 2 E(n-1) + 2^(n-1)",
            )
        )
    return {}, checks


def _suite_lattice_points(n: int, seed: int, samples: int) -> SuiteReport:
    # each even-sum candidate gets two certified verdicts: a "yes" from graphs needs a
    # witness with degrees d, and a "no" from the polytope needs an inequality that fails at d
    graphs = members = disagreements = 0
    for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1):
        if sum(d) % 2:
            continue
        witness = havel_hakimi(d)
        is_graph = witness is not None and degree_sequence(witness) == d
        membership = in_fhm_polytope(d)
        is_member = membership.member or all(f.satisfied(d) for f in membership.violations)
        graphs += is_graph
        members += is_member
        disagreements += is_graph != is_member
    return {}, [
        make_check(
            "lattice-point-count",
            graphs,
            members,
            formula="even-sum lattice points of the polytope = graph degree partitions",
        ),
        make_check("lattice-point-symmetric-difference", 0, disagreements),
    ]


def _suite_hypergraph(n: int, seed: int, samples: int) -> SuiteReport:
    checks = []
    verdicts = {}
    for r, max_total in ((3, 12), (2, 10)):
        truth = enumerate_degree_partitions(n, r)
        verdicts[r] = {d: is_r_graphical_partition(d, n, r) for d in bounded_partitions(n, max_total)}
        checks.append(
            make_check(
                f"r{r}-recognition-agreement",
                len(verdicts[r]),
                sum(v == (d in truth) for d, v in verdicts[r].items()),
                formula="majorized by an ideal partition <=> realizable",
            )
        )
    # graph membership decides the r = 2 verdicts too
    agree = sum(v == is_degree_sequence(d) for d, v in verdicts[2].items())
    checks.append(
        make_check("r2-matches-graph-membership", len(verdicts[2]), agree)
    )
    return {}, checks


def _suite_volume3(n: int, seed: int, samples: int) -> SuiteReport:
    exact = dp3_volume()
    estimate = ds3_volume_estimate(samples=samples, seed=seed)
    tolerance = Fraction(1, 25)
    result = {
        "exact_volume": str(exact),
        "scaled_volume": str(6 * exact),
        "samples": estimate.samples,
        "hits": estimate.hits,
        "estimate": str(estimate.estimate),
        "seed": seed,
    }
    checks = [
        make_check("exact-volume", Fraction(1, 3), exact, formula="|det| / 3!"),
        make_check(
            "ordered-to-unordered-scaling",
            Fraction(2),
            6 * exact,
            formula="3! * vol",
        ),
        make_check(
            "monte-carlo-within-tolerance",
            "|estimate - 2| <= 1/25",
            estimate.estimate,
            passed=abs(estimate.estimate - 2) <= tolerance,
        ),
    ]
    return result, checks


# suite -> (lowest n, highest n, suite function)
SUITES: dict[str, tuple[int, int, Suite]] = {
    "counts": (3, 10, _suite_counts),
    "facets": (4, 7, _suite_facets),
    "edges": (3, 10, _suite_edges),
    "lattice-points": (3, 10, _suite_lattice_points),
    "hypergraph": (4, 5, _suite_hypergraph),
    "volume3": (3, 3, _suite_volume3),
}


def cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    n, suite = args.n, args.suite
    lo, hi, run_suite = SUITES[suite]
    if not lo <= n <= hi:
        raise UsageError(f"suite {suite!r} supports {lo} <= n <= {hi}, got n={n}")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    extra, checks = run_suite(n, args.seed, args.samples)
    return {
        "command": "verify",
        "inputs": {"n": n, "suite": suite, "seed": args.seed, "samples": args.samples},
        "result": {"n": n, "suite": suite, **extra},
        "checks": checks,
    }


def cmd_recognize(args: argparse.Namespace) -> dict[str, Any]:
    seq = parse_int_seq(args.seq)
    if any(v < 0 for v in seq):
        raise UsageError("degrees must be nonnegative")
    n = len(seq)
    r = args.r
    if not 1 <= r <= n:
        raise UsageError(f"need 1 <= r <= n, got r={r}, n={n}")
    small_poset = comb(n, r) <= POSET_SIZE_BOUND
    if r != 2 and not small_poset:
        raise UsageError(
            f"recognition for r != 2 needs C(n, r) <= {POSET_SIZE_BOUND}, got {comb(n, r)}"
        )
    witness_edges = None
    witness = realize_r_graph(seq, n, r) if small_poset else None
    graphical = is_degree_sequence(seq) if r == 2 else witness is not None
    checks = []
    if r == 2 and small_poset:
        # polytope membership against majorization: the one pair of independent routes
        checks.append(make_check("realization-matches-verdict", graphical, witness is not None))
    if witness is not None:
        checks.append(make_check("witness-degrees-match-input", seq, degree_sequence(witness)))
        witness_edges = sorted(witness.edges)
    return {
        "command": "recognize",
        "inputs": {"seq": seq, "r": r, "n": n},
        "result": {
            "graphical": graphical,
            "degree_partition": sort_decreasing(seq),
            "witness_edges": witness_edges,
        },
        "checks": checks,
    }


def _optimize_arguments(opt: argparse.ArgumentParser) -> None:
    opt.add_argument("--costs", required=True, help='comma-separated rationals, e.g. "1,-1/2,2"')
    opt.add_argument("--mode", choices=MODES, default="max",
                     help="which extreme optimizer to report (both attain the maximum value)")
    opt.add_argument("--oracle", action="store_true",
                     help="cross-check against full vertex enumeration (n <= 16)")
    opt.set_defaults(run=cmd_optimize)


def _verify_arguments(ver: argparse.ArgumentParser) -> None:
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--samples", type=int, default=1_000_000,
                     help="volume3 only: Monte Carlo sample count (must be positive)")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="volume3 only: Monte Carlo seed")
    ver.set_defaults(run=cmd_verify)


def _recognize_arguments(rec: argparse.ArgumentParser) -> None:
    rec.add_argument("--seq", required=True, help='comma-separated degrees, e.g. "2,2,1,1"')
    rec.add_argument("--r", type=int, default=2, help="edge size (default 2)")
    rec.set_defaults(run=cmd_recognize)


# command -> (help line, the function that adds its arguments and its run=cmd_* default)
COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "optimize": ("optimize a linear functional over threshold partitions", _optimize_arguments),
    "verify": ("run a verification suite at a given n", _verify_arguments),
    "recognize": ("recognize an r-graph degree sequence", _recognize_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with ``command``'s subparser alone, or with all three when ``command`` names none.

    For an argv that starts with ``command``, the parser with one
    subparser prints every usage and error line as the full tree does,
    since its metavar names all three choices.  The full tree leaves the
    metavar unset: with it set, a missing or unknown command would be
    named by the metavar rather than as "command".
    """
    parser = argparse.ArgumentParser(
        prog="degpoly",
        description="Exact computations on degree partitions of graphs and hypergraphs.",
    )
    if command in COMMANDS:
        names = (command,)
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = tuple(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


# a leaf's printer, looked up by its exact type; a subclass, such as an IntEnum, has none
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _report_text(value: Any, newline: str = "\n") -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` prints, for a value of exact JSON types.

    A leaf must be exactly a str, int, bool or None, and a dict key a
    str; any other value, a float included, raises ``TypeError``.
    ``newline`` ends with the indent of the line ``value`` starts on.
    """
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_report_text(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        # a list of one leaf type is written in one join, in C for str and int
        leaf = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, value) if leaf is not None else [_report_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_report(text: str) -> None:
    """Print ``text`` to stdout and flush it; a failed write raises, with stdout pointed at ``os.devnull``.

    A stream whose flush failed may still hold bytes, and the interpreter
    flushes stdout again at exit; there they go to ``os.devnull``, so the
    failure is not reported a second time (with exit status 120).  Part of
    the text may already be out when the write fails.
    """
    try:
        print(text, flush=True)
    except OSError:
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor holds no bytes for exit
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # built per call, so that a cmd_* rebound after the first call is the one that runs
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        report = args.run(args)
        text = _report_text(report)
        passed = all(c["pass"] for c in report["checks"])
        # written here, so that a failed write, to a full disk or a closed pipe, exits 3
        _write_report(text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
