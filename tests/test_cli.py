"""The degpoly command line: JSON reports, exit codes, seeds."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly import core, hypergraph, polytope, runs
from degpoly.cli import COMMANDS, DEFAULT_SEED, SUITES, _report_text, build_parser, jsonify, main, make_check, parse_cost_pairs, parse_int_seq
from degpoly.optimize import optimality_certificate
from fractions import Fraction
from math import gcd, lcm
from python_o import SRC, run_under_python_O


# stdout and exit status of main() for fixed argv lists, recorded once; any
# byte change in a report fails test_golden_reports_byte_identical
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_optimize_reports_and_passes(capsys):
    code, report, _ = run(
        capsys, "optimize", "--costs", "1,-1,2", "--mode", "max", "--oracle"
    )
    assert code == 0
    assert report["command"] == "optimize"
    assert report["result"]["partition"] == [2, 2, 2]
    assert report["result"]["value"] == "4"
    assert report["result"]["certificate"]["base"] == ["1", "1/2", "1/2"]
    assert report["result"]["certificate"]["coefficients"] == ["0", "3/2"]
    assert all(check["pass"] for check in report["checks"])
    names = {check["name"] for check in report["checks"]}
    assert "oracle-value-agreement" in names
    assert "certificate-reconstructs-costs" in names


def test_optimize_min_mode(capsys):
    code, report, _ = run(capsys, "optimize", "--costs", "1,-1", "--mode", "min", "--oracle")
    assert code == 0
    assert report["result"]["partition"] == [0, 0]
    code, report, _ = run(capsys, "optimize", "--costs", "1,-1", "--mode", "max", "--oracle")
    assert report["result"]["partition"] == [1, 1]


def test_optimize_projects_once_per_op(capsys, monkeypatch):
    # the certificate's base is the projection the partition is read from,
    # and the certificate is built from one run of the integer PAVA kernel;
    # every projection, pava_oracle's included, goes through runs._pava_blocks
    calls = []
    real = runs._pava_blocks

    def counted(numerators):
        calls.append(len(numerators))
        return real(numerators)

    monkeypatch.setattr(runs, "_pava_blocks", counted)
    for mode in ("max", "min"):
        for extra in ((), ("--oracle",)):
            calls.clear()
            code, report, _ = run(capsys, "optimize", "--costs", "3,-1/2,2,0,-4,5/3", "--mode", mode, *extra)
            assert code == 0
            assert calls == [6], (mode, extra)


def test_optimize_clears_denominators_once_per_op(capsys, monkeypatch):
    # c = C/D is cleared once and C and D are passed on; only the oracle clears its own
    calls = []
    real = core.clear_denominators

    def counted(values, *scale):
        calls.append(values)
        return real(values, *scale)

    for name, module in list(sys.modules.items()):
        if name.startswith("degpoly") and getattr(module, "clear_denominators", None) is real:
            monkeypatch.setattr(module, "clear_denominators", counted)
    for mode in ("max", "min"):
        for extra, clears in (((), 1), (("--oracle",), 2)):
            calls.clear()
            code, report, _ = run(capsys, "optimize", "--costs", "3,-1/2,2,0,-4,5/3", "--mode", mode, *extra)
            assert code == 0
            assert len(calls) == clears, (mode, extra)


_RECONSTRUCTS = "certificate-reconstructs-costs"
_PLATEAUS = "certificate-support-on-optimal-plateaus"


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize(
    "block, delta, costs, code, failed",
    [
        (-1, -1, "3,-1/2,2,0,-4,5/3", 1, [_RECONSTRUCTS]),
        (-1, -1, "1,-1,2,-2,1/2,-1/2", 3, "internal error: certificate coefficients must be nonnegative\n"),
        (-1, -1, "1,3,2,0", 1, [_RECONSTRUCTS]),
        (0, 1, "3,-1/2,2,0,-4,5/3", 1, [_RECONSTRUCTS, _PLATEAUS]),
        (0, 1, "1,-1,2,-2,1/2,-1/2", 1, [_RECONSTRUCTS, _PLATEAUS]),
        (0, 1, "1,3,2,0", 1, [_RECONSTRUCTS]),
    ],
    ids=[f"{end}-{costs}" for end in ("last-1", "first+1") for costs in ("mixed", "alternating", "1,3,2,0")],
)
def test_a_wrong_block_total_from_the_kernel_is_caught(capsys, monkeypatch, mode, block, delta, costs, code, failed):
    # the last block's total one too small, or the first block's one too large:
    # every case fails a check (exit 1) or a certificate invariant (exit 3)
    real = runs._pava_blocks

    def patched(numerators):
        blocks = real(numerators)
        total, size = blocks[block]
        blocks[block] = (total + delta, size)
        return blocks

    monkeypatch.setattr(runs, "_pava_blocks", patched)
    got, report, err = run(capsys, "optimize", "--costs", costs, "--mode", mode)
    assert got == code
    if report is None:
        assert err == failed
    else:
        assert [check["name"] for check in report["checks"] if not check["pass"]] == failed


def test_optimize_fractional_costs(capsys):
    code, report, _ = run(capsys, "optimize", "--costs", "3/2,-1/2", "--oracle")
    assert code == 0
    assert report["inputs"]["costs"] == ["3/2", "-1/2"]


def test_verify_counts(capsys):
    code, report, _ = run(capsys, "verify", "--n", "5", "--suite", "counts")
    assert code == 0
    by_name = {check["name"]: check for check in report["checks"]}
    assert by_name["vertex-count"]["expected"] == 16
    assert by_name["vertex-count"]["formula"] == "2^(n-1)"
    assert by_name["edge-count"]["expected"] == 56
    assert by_name["facet-count"]["expected"] == 11


def test_verify_counts_n3_skips_facets(capsys):
    code, report, _ = run(capsys, "verify", "--n", "3", "--suite", "counts")
    assert code == 0
    assert "facet-count" not in {check["name"] for check in report["checks"]}


def test_verify_facets_and_edges(capsys):
    code, report, _ = run(capsys, "verify", "--n", "4", "--suite", "facets")
    assert code == 0
    assert all(check["pass"] for check in report["checks"])
    code, report, _ = run(capsys, "verify", "--n", "7", "--suite", "edges")
    assert code == 0
    by_name = {check["name"]: check for check in report["checks"]}
    assert by_name["edge-count"]["expected"] == 2**5 * 11


def test_verify_lattice_points(capsys):
    # n = 8 is past the reach of the 2^C(n, 2) walk; the certificates take it
    for n, count in ((4, 11), (8, 1213)):
        code, report, _ = run(capsys, "verify", "--n", str(n), "--suite", "lattice-points")
        assert code == 0
        assert all(check["pass"] for check in report["checks"])
        assert report["checks"][0]["actual"] == count


def test_lattice_points_refuse_n_past_10_before_any_work(capsys, monkeypatch):
    import degpoly.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "bounded_partitions", lambda *args, **kwargs: calls.append(args))
    code, report, err = run(capsys, "verify", "--n", "11", "--suite", "lattice-points")
    assert (code, report, err) == (2, None, "error: suite 'lattice-points' supports 3 <= n <= 10, got n=11\n")
    assert calls == []


def _lattice_checks(capsys, n):
    """Exit code and {name: (expected, actual)} of the lattice-points suite at n."""
    code, report, _ = run(capsys, "verify", "--n", str(n), "--suite", "lattice-points")
    return code, {check["name"]: (check["expected"], check["actual"]) for check in report["checks"]}


def test_lattice_points_catch_a_witness_with_a_wrong_degree(capsys, monkeypatch):
    # the suite recomputes each witness's degrees: one dropped edge is one disagreement
    import degpoly.cli as cli_module

    real = cli_module.havel_hakimi
    dropped = []

    def lossy(d):
        witness = real(d)
        if witness is None or not witness.edges or dropped:
            return witness
        dropped.append(d)
        return hypergraph.RGraph(witness.n, 2, witness.edges - {min(witness.edges)})

    monkeypatch.setattr(cli_module, "havel_hakimi", lossy)
    code, checks = _lattice_checks(capsys, 5)
    assert (code, len(dropped)) == (1, 1)
    assert checks == {"lattice-point-count": (30, 31), "lattice-point-symmetric-difference": (0, 1)}


def test_lattice_points_catch_a_flipped_membership(capsys, monkeypatch):
    import degpoly.cli as cli_module

    real = cli_module.in_fhm_polytope
    flipped = []

    def one_nonmember_accepted(d):
        verdict = real(d)
        if verdict.member or flipped:
            return verdict
        flipped.append(d)
        return polytope.FhmMembership(True, ())

    monkeypatch.setattr(cli_module, "in_fhm_polytope", one_nonmember_accepted)
    code, checks = _lattice_checks(capsys, 5)
    assert (code, len(flipped)) == (1, 1)
    assert checks == {"lattice-point-count": (31, 32), "lattice-point-symmetric-difference": (0, 1)}

    # a "no" stands only on an inequality that fails at the candidate: x_1 >= x_2 holds
    # at every partition, so citing it refuses no member
    def members_refused(d):
        verdict = real(d)
        if not verdict.member:
            return verdict
        return polytope.FhmMembership(False, (polytope.monotone_inequality(len(d), 1),))

    monkeypatch.setattr(cli_module, "in_fhm_polytope", members_refused)
    assert _lattice_checks(capsys, 5) == (
        0, {"lattice-point-count": (31, 31), "lattice-point-symmetric-difference": (0, 0)}
    )


def test_verify_hypergraph(capsys):
    code, report, _ = run(capsys, "verify", "--n", "4", "--suite", "hypergraph")
    assert code == 0
    names = {check["name"] for check in report["checks"]}
    assert names == {
        "r3-recognition-agreement",
        "r2-recognition-agreement",
        "r2-matches-graph-membership",
    }


def test_verify_volume3(capsys):
    code, report, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "40000"
    )
    assert code == 0
    assert report["result"]["exact_volume"] == "1/3"
    assert report["result"]["scaled_volume"] == "2"
    assert report["result"]["samples"] == 40000
    assert report["result"]["seed"] == DEFAULT_SEED
    # the estimate is printed once, as the exact string of 8 * hits / samples over the box [0, 2]^3
    estimate = report["result"]["estimate"]
    assert isinstance(estimate, str) and Fraction(estimate) == Fraction(8 * report["result"]["hits"], 40000)
    assert "estimate_float" not in report["result"]


def test_verify_volume3_seed_changes_estimate(capsys):
    _, first, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "20000",
        "--seed", "1",
    )
    _, again, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "20000",
        "--seed", "1",
    )
    _, other, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "20000",
        "--seed", "2",
    )
    assert first["result"]["hits"] == again["result"]["hits"]
    assert first["result"]["hits"] != other["result"]["hits"]


def test_seed_comes_from_the_flag_alone(capsys, monkeypatch):
    # the environment has no say: identical flags give identical reports
    monkeypatch.setenv("DEGPOLY_SEED", "7")
    _, report, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "10000",
        "--seed", "1",
    )
    assert report["inputs"]["seed"] == report["result"]["seed"] == 1
    _, report, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "10000"
    )
    assert report["result"]["seed"] == DEFAULT_SEED


def test_verify_out_of_range_n(capsys):
    code, report, err = run(capsys, "verify", "--n", "99", "--suite", "counts")
    assert code == 2
    assert report is None
    assert "3 <= n <= 10" in err


def test_recognize_graphical_with_witness(capsys):
    code, report, _ = run(capsys, "recognize", "--seq", "2,1,1")
    assert code == 0
    assert report["result"]["graphical"] is True
    assert report["result"]["degree_partition"] == [2, 1, 1]
    assert report["result"]["witness_edges"] == [[1, 2], [1, 3]]
    # the witness is printed once, as the edge list
    assert "witness_text" not in report["result"]
    assert {check["name"] for check in report["checks"]} == {
        "realization-matches-verdict",
        "witness-degrees-match-input",
    }


def test_recognize_unsorted_input_keeps_order(capsys):
    code, report, _ = run(capsys, "recognize", "--seq", "1,2,1")
    assert code == 0
    assert report["result"]["graphical"] is True
    assert [sum(1 for e in report["result"]["witness_edges"] if v in e) for v in (1, 2, 3)] == [1, 2, 1]


def test_recognize_non_graphical(capsys):
    code, report, _ = run(capsys, "recognize", "--seq", "3,1,0")
    assert code == 0
    assert report["result"]["graphical"] is False
    assert report["result"]["witness_edges"] is None
    assert all(check["pass"] for check in report["checks"])


def test_recognize_r3(capsys):
    code, report, _ = run(capsys, "recognize", "--seq", "2,2,1,1", "--r", "3")
    assert code == 0
    assert report["result"]["graphical"] is True
    assert report["result"]["witness_edges"] == [[1, 2, 3], [1, 2, 4]]
    code, report, _ = run(capsys, "recognize", "--seq", "3,1,1,1", "--r", "3")
    assert code == 0
    assert report["result"]["graphical"] is False


@pytest.mark.parametrize(
    "seq, r, sweeps, majorizations",
    [
        # r = 2: one membership sweep, and one majorizing-ideal lookup where
        # C(n, 2) <= 20 and none past it; an odd total needs neither
        ("2,1,1", 2, 1, 1),
        ("3,1,0", 2, 1, 1),
        ("2,1,0", 2, 0, 0),
        ("4,3,3,2,2,2,2", 2, 1, 0),
        ("6,1,1,1,1,1,1", 2, 1, 0),
        ("4,3,3,2,2,2,1", 2, 0, 0),
        # r = 3: the realization is the verdict, so one lookup and no sweep,
        # and neither for a total that 3 does not divide
        ("2,2,1,1", 3, 0, 1),
        ("3,1,1,1", 3, 0, 1),
        ("3,3,3,3,3,3", 3, 0, 1),
        ("2,1,1,1", 3, 0, 0),
    ],
)
def test_recognize_reaches_each_verdict_by_one_route(capsys, monkeypatch, seq, r, sweeps, majorizations):
    # the r = 2 verdict is in_koren_polytope's, which runs the sweep without in_fhm_polytope
    calls = {"_fhm_witness": 0, "_majorizing_ideal": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(polytope, "_fhm_witness")
    counted(hypergraph, "_majorizing_ideal")
    code, report, _ = run(capsys, "recognize", "--seq", seq, "--r", str(r))
    assert code == 0
    assert calls == {"_fhm_witness": sweeps, "_majorizing_ideal": majorizations}


def test_recognize_big_r3_rejected(capsys):
    code, report, err = run(capsys, "recognize", "--seq", ",".join("1" * 9), "--r", "3")
    assert code == 2
    assert "C(n, r)" in err


def test_recognize_big_r1_rejected_for_the_real_reason(capsys):
    # r = 1 also needs the small poset; only r = 2 has its own route
    code, report, err = run(capsys, "recognize", "--seq", ",".join("1" * 21), "--r", "1")
    assert code == 2 and report is None
    assert "recognition for r != 2 needs C(n, r) <= 20, got 21" in err


@pytest.mark.parametrize("r", [0, 4])
def test_recognize_refuses_r_outside_1_to_n(capsys, r):
    assert run(capsys, "recognize", "--seq", "1,1,0", "--r", str(r)) == (
        2,
        None,
        f"error: need 1 <= r <= n, got r={r}, n=3\n",
    )


def test_recognize_negative_degree(capsys):
    code, _, err = run(capsys, "recognize", "--seq", "2,-1")
    assert code == 2
    assert "nonnegative" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])  # missing --costs
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--costs", "1", "--seed", "3"])  # only verify takes --seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--seq", "1,1", "--seed", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--seq", "1,1", "--n", "2"])  # n is always len(seq)
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_inputs_exit_2(capsys):
    code, _, err = run(capsys, "optimize", "--costs", "1,,2")
    assert code == 2 and "malformed" in err
    code, _, err = run(capsys, "optimize", "--costs", "1/0")
    assert code == 2
    code, _, err = run(capsys, "recognize", "--seq", "a,b")
    assert code == 2 and "malformed" in err
    # a short token that no rational spelling matches is malformed, not too long
    assert run(capsys, "optimize", "--costs", "1.2.3") == (2, None, "error: malformed cost list: '1.2.3'\n")


@pytest.mark.parametrize("command, flag, what", [("recognize", "--seq", "integer"), ("optimize", "--costs", "cost")])
def test_a_long_malformed_list_is_echoed_in_part(capsys, command, flag, what):
    # 50,000 tokens, the last one malformed: exit 2, and the echo stops at a fixed prefix
    import degpoly.cli as cli_module

    text = ",".join(["1"] * 49_999 + ["a"])
    code, report, err = run(capsys, command, f"{flag}={text}")
    assert (code, report) == (2, None)
    assert len(err.encode()) < 200
    assert err == f"error: malformed {what} list: {text[:cli_module._ECHO_LIMIT]!r}...\n"
    # a list as long as the limit is echoed whole, as before
    whole = ("1," * cli_module._ECHO_LIMIT)[: cli_module._ECHO_LIMIT - 1] + "a"
    assert run(capsys, command, f"{flag}={whole}") == (2, None, f"error: malformed {what} list: {whole!r}\n")


def test_failed_check_exits_1(capsys, monkeypatch):
    # force a check failure by stubbing the volume tolerance comparison
    import degpoly.cli as cli_module

    real = cli_module.ds3_volume_estimate

    def skewed(samples, seed):
        est = real(samples=samples, seed=seed)
        return type(est)(samples=est.samples, hits=0, estimate=Fraction(0))

    monkeypatch.setattr(cli_module, "ds3_volume_estimate", skewed)
    code, report, _ = run(
        capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", "1000"
    )
    assert code == 1
    failed = [check for check in report["checks"] if not check["pass"]]
    assert failed and failed[0]["name"] == "monte-carlo-within-tolerance"


def test_argmax_not_closed_under_max_fails_only_the_extreme_check(capsys, monkeypatch):
    # the column max of a set that is no lattice is no optimizer: a failed check, not exit 3
    import degpoly.cli as cli_module

    monkeypatch.setattr(
        cli_module, "brute_force_optimal_partition", lambda costs: (Fraction(4), frozenset({(2, 2, 2), (3, 1, 1)}))
    )
    code, report, _ = run(capsys, "optimize", "--costs", "1,-1,2", "--oracle")
    assert code == 1
    failed = [check for check in report["checks"] if not check["pass"]]
    assert [(check["name"], check["expected"]) for check in failed] == [("oracle-extreme-optimizer", [3, 2, 2])]


def test_irredundancy_check_counts_only_true_witnesses(capsys, monkeypatch):
    # the zero vector satisfies every facet, so it witnesses none of them
    import degpoly.cli as cli_module

    monkeypatch.setattr(cli_module, "irredundancy_witness", lambda n, facet, tight: (Fraction(0),) * n)
    code, report, _ = run(capsys, "verify", "--n", "4", "--suite", "facets")
    assert code == 1
    failed = [check for check in report["checks"] if not check["pass"]]
    assert [check["name"] for check in failed] == ["facet-irredundancy-witnesses"]
    assert failed[0]["actual"] == 0


def test_dropped_facet_fails_only_the_facet_count(capsys, monkeypatch):
    # the report holds the one length check of the facet list
    import degpoly.cli as cli_module

    real = cli_module.facet_inequalities
    monkeypatch.setattr(cli_module, "facet_inequalities", lambda n: real(n)[:-1])
    for suite in ("counts", "facets"):
        code, report, _ = run(capsys, "verify", "--n", "5", "--suite", suite)
        assert code == 1
        failed = [check for check in report["checks"] if not check["pass"]]
        assert [(check["name"], check["actual"]) for check in failed] == [("facet-count", 10)]


def test_internal_error_exits_3_not_as_a_failed_check(capsys, monkeypatch):
    import degpoly.cli as cli_module

    def broken(n):
        raise AssertionError("the enumeration at n=3 holds repeated vertices")

    monkeypatch.setattr(cli_module, "count_edges", broken)
    code, report, err = run(capsys, "verify", "--n", "3", "--suite", "counts")
    assert code == 3
    assert report is None
    assert err == "internal error: the enumeration at n=3 holds repeated vertices\n"


@pytest.mark.parametrize("error", [AssertionError, TypeError])
@pytest.mark.parametrize(
    "dependency, argv",
    [
        ("optimality_certificate", ("optimize", "--costs", "1,-1,2")),
        ("is_degree_sequence", ("recognize", "--seq", "2,1,1", "--r", "2")),
        ("count_edges", ("verify", "--n", "3", "--suite", "edges")),
    ],
)
def test_internal_error_exits_3_from_every_command(capsys, monkeypatch, error, dependency, argv):
    # any exception but a refused input is the program's fault, not a failed check
    import degpoly.cli as cli_module

    def broken(*args, **kwargs):
        raise error(f"{dependency} broke")

    monkeypatch.setattr(cli_module, dependency, broken)
    code, report, err = run(capsys, *argv)
    assert (code, report, err) == (3, None, f"internal error: {dependency} broke\n")


# a value no report may hold, left in one by a command: the writer raises on each
_NOT_JSON_READY = {
    "command": (1, Fraction(1, 2)),
    "fraction-list": [Fraction(1, 2), Fraction(3, 2)],
    "set": {1, 2},
    "int-key": {1: "one"},
    # 5,000 digits is past the 4,300 that str prints by default
    "long-int-in-list": [1, 10**5000],
    # every leaf is exact: no float is written, a NaN least of all
    "float": 0.5,
    "nan": float("nan"),
}


def _leak(monkeypatch, where):
    """Make a verify suite or a command leave a value that is not JSON-ready in its report; return its argv."""
    import degpoly.cli as cli_module

    if where == "suite":
        monkeypatch.setitem(cli_module.SUITES, "edges", (3, 10, lambda n, seed, samples: ({"leak": Fraction(1, 2)}, [])))
        return ("verify", "--n", "3", "--suite", "edges")
    monkeypatch.setattr(cli_module, "cmd_recognize", lambda args: {"checks": [], "leak": _NOT_JSON_READY[where]})
    return ("recognize", "--seq", "2,1,1")


@pytest.mark.parametrize("where", ["suite", *_NOT_JSON_READY])
def test_a_report_that_is_not_json_ready_exits_3(capsys, monkeypatch, where):
    # reports are written as built: a value the writer refuses is the program's fault, not text
    code, report, err = run(capsys, *_leak(monkeypatch, where))
    assert (code, report) == (3, None)
    assert err.startswith("internal error: ") and err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [("optimize", "--costs=1,2"), ("recognize", "--seq=1,1")], ids=" ".join)
def test_a_failed_report_write_exits_3(argv):
    # every write to /dev/full fails with ENOSPC: the report is written and flushed inside main's try
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "degpoly.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert done.returncode == 3
    assert done.stderr.startswith("internal error: ") and done.stderr.count("\n") == 1


# a stdout that keeps what a failed flush could not write, as a buffered stream
# may, so that the interpreter's flush at exit writes it to the same descriptor again
_KEEPING_STDOUT = """
import os, sys
from degpoly.cli import main

class KeepingStdout:
    closed = False
    pending = b""

    def write(self, text):
        self.pending += text.encode()
        return len(text)

    def flush(self):
        while self.pending:
            self.pending = self.pending[os.write(1, self.pending):]

    def fileno(self):
        return 1

sys.stdout = KeepingStdout()
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
def test_a_failed_report_write_is_not_reported_again_at_exit():
    # without stdout pointed at os.devnull, the flush at exit fails again: a second report on stderr and exit 120
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-c", _KEEPING_STDOUT, "optimize", "--costs=1,2"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert done.returncode == 3
    assert done.stderr.startswith("internal error: ") and done.stderr.count("\n") == 1


def _reciprocal_primes(k, sign=""):
    """Costs 1/p (or -1/p, with ``sign="-"``) for the first k primes p, largest p first."""
    primes = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return ",".join(f"{sign}1/{p}" for p in reversed(primes))


@pytest.mark.parametrize("costs", [_reciprocal_primes(1400)], ids=["1400-primes"])
def test_a_report_too_long_to_print_exits_3(capsys, costs):
    # no cost has over 4,300 digits, but their common denominator does, and str() refuses it
    code, report, err = run(capsys, "optimize", f"--costs={costs}")
    assert (code, report) == (3, None)
    assert err.startswith("internal error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["max", "min"])
def test_a_long_common_denominator_alone_is_not_refused(capsys, mode):
    # D = lcm(q) has more digits than str prints, but -1/p already decreases: every block is one
    # entry, the base is the costs, the optimum is the empty graph, and no printed number is long
    costs = _reciprocal_primes(1400, sign="-")
    tokens = costs.split(",")
    assert lcm(*(int(t.split("/")[1]) for t in tokens)) >= 10**4300
    code, report, err = run(capsys, "optimize", f"--costs={costs}", "--mode", mode)
    assert (code, err) == (0, "")
    assert report["inputs"]["costs"] == report["result"]["certificate"]["base"] == tokens
    assert report["result"]["partition"] == [0] * 1400
    assert report["result"]["value"] == "0"


def test_a_cost_too_long_to_print_exits_2_however_spelled(capsys):
    # 10^5000 and 10^-5000 written out, where int refuses the digits, in exponent form,
    # which Fraction reads, and as decimals whose integer or fractional digits int would
    # refuse inside Fraction: one refusal for all, and none echoes the list
    zeros = "0" * 5000
    refusal = (2, None, "error: a cost has a numerator or denominator with more digits than str prints\n")
    spellings = (f"1{zeros},1", "1e5000,1", f"1/1{zeros}", "1e-5000", f"1.{zeros}1", f"1{zeros}.5,1", f"1_{zeros}")
    for costs in spellings:
        assert run(capsys, "optimize", f"--costs={costs}") == refusal, costs[:8]
    # one digit fewer is a cost like any other, underscores apart
    assert parse_cost_pairs(f"{'9' * 4300},1e4299,1_{zeros[:4299]}") == ((10**4300 - 1, 1), (10**4299, 1), (10**4299, 1))


def test_an_over_long_degree_exits_2_without_echo(capsys):
    # the size rule of --costs holds for --seq too: one short line, and the list is not echoed
    ones = "1" * 5000
    too_long = (2, None, "error: an integer has more digits than str prints\n")
    assert run(capsys, "recognize", f"--seq={ones},1") == too_long
    assert run(capsys, "recognize", f"--seq=1_{ones}") == too_long
    # the rule reads the whole list before any token, so it wins over a malformed token
    assert run(capsys, "recognize", f"--seq=a,{ones}") == too_long
    assert run(capsys, "optimize", f"--costs=a,{ones}") == (
        2,
        None,
        "error: a cost has a numerator or denominator with more digits than str prints\n",
    )
    # as many digits as str prints are read
    assert parse_int_seq(f"{'9' * 4300},1") == (10**4300 - 1, 1)


def test_value_error_past_input_validation_exits_3(capsys, monkeypatch):
    import degpoly.cli as cli_module

    # increasing blocks make Certificate refuse its base: a fault of the kernel, not of --costs
    monkeypatch.setattr(runs, "_pava_blocks", lambda numerators: [(t, 1) for t in sorted(numerators)])
    code, report, err = run(capsys, "optimize", "--costs", "1,2,3")
    assert (code, report, err) == (3, None, "internal error: certificate base must be weakly decreasing\n")

    def broken(d, n, r):
        raise ValueError(f"partition length {n + 1} differs from n={n}")

    monkeypatch.setattr(cli_module, "realize_r_graph", broken)
    code, report, err = run(capsys, "recognize", "--seq", "2,1,1")
    assert (code, report, err) == (3, None, "internal error: partition length 4 differs from n=3\n")

    def refused(n):
        raise ValueError(f"the edge count needs n >= 3, got n={n - 1}")

    monkeypatch.setattr(cli_module, "count_edges", refused)
    for suite in ("counts", "edges"):
        code, report, err = run(capsys, "verify", "--n", "3", "--suite", suite)
        assert (code, report, err) == (3, None, "internal error: the edge count needs n >= 3, got n=2\n")


def test_nonpositive_samples_are_refused_before_any_suite_work(capsys, monkeypatch):
    import degpoly.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "ds3_volume_estimate", lambda samples, seed: calls.append(samples))
    for samples in ("0", "-5"):
        code, report, err = run(capsys, "verify", "--n", "3", "--suite", "volume3", "--samples", samples)
        assert (code, report, err) == (2, None, "error: --samples must be positive\n")
    # refused for every suite, not only the one that samples
    code, report, err = run(capsys, "verify", "--n", "3", "--suite", "counts", "--samples", "0")
    assert (code, report, err) == (2, None, "error: --samples must be positive\n")
    assert calls == []


def test_oracle_cap_is_checked_before_any_projection(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(runs, "_pava_blocks", lambda numerators: calls.append(numerators))
    code, report, err = run(capsys, "optimize", "--costs", ",".join("1" * 17), "--oracle")
    assert (code, report, err) == (2, None, "error: --oracle enumerates every vertex and is capped at n <= 16\n")
    assert calls == []


@pytest.mark.parametrize("n", [4, 5])
def test_facets_suite_hands_each_facet_its_tight_vertices(capsys, monkeypatch, n):
    import degpoly.cli as cli_module
    from degpoly.threshold import enumerate_threshold_partitions

    calls = []
    real = cli_module.irredundancy_witness

    def recorded(n, facet, tight):
        calls.append((facet, tight))
        return real(n, facet, tight)

    monkeypatch.setattr(cli_module, "irredundancy_witness", recorded)
    code, _, _ = run(capsys, "verify", "--n", str(n), "--suite", "facets")
    assert code == 0
    assert [facet for facet, _ in calls] == list(cli_module.facet_inequalities(n))
    for facet, tight in calls:
        assert sorted(tight) == sorted(d for d in enumerate_threshold_partitions(n) if facet.tight(d))


# one passing argv per command
_FIRST_CALLS = {
    "optimize": ("optimize", "--costs=1,2"),
    "verify": ("verify", "--n", "3", "--suite", "edges"),
    "recognize": ("recognize", "--seq", "2,1,1"),
}


def test_rebound_command_is_honoured_after_first_call(capsys, monkeypatch):
    # a cmd_* rebound after the first call, as bench/spans.py does, is the one that runs:
    # the same command's (no parser kept per command) and every other's (no parser kept whole)
    import degpoly.cli as cli_module

    for first in _FIRST_CALLS.values():
        with monkeypatch.context() as patch:
            assert run(capsys, *first)[0] == 0
            for command, argv in _FIRST_CALLS.items():
                stub = {"command": command, "checks": [{"name": "stub", "pass": False}]}
                patch.setattr(cli_module, f"cmd_{command}", lambda args, stub=stub: stub)
                assert run(capsys, *argv)[:2] == (1, stub)


# argvs that parsing alone ends: help, usage errors and argparse's refusals
_PARSE_EXITS = {
    "no argv": (),
    "-h": ("-h",),
    "--help": ("--help",),
    "unknown command": ("nope",),
    "unknown option before the command": ("-x",),
    **{f"{command} -h": (command, "-h") for command in COMMANDS},
    "optimize without --costs": ("optimize",),
    "verify without --suite": ("verify", "--n", "4"),
    "recognize without --seq": ("recognize",),
    "optimize --seed": ("optimize", "--costs=1", "--seed", "3"),
    "verify --r": ("verify", "--n", "4", "--suite", "counts", "--r", "2"),
    "recognize --n": ("recognize", "--seq=1,1", "--n", "2"),
    "bad --mode": ("optimize", "--costs=1,2", "--mode", "mid"),
    "bad --suite": ("verify", "--n", "4", "--suite", "nope"),
    "bad --n": ("verify", "--n", "x", "--suite", "counts"),
    "bad --r": ("recognize", "--seq=1,1", "--r", "x"),
    "stray positional after the command": ("optimize", "--costs=1,2", "recognize"),
}


def _parse_exit(call):
    """(SystemExit code, stdout, stderr) of ``call()``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        call()
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_EXITS.values(), ids=_PARSE_EXITS)
def test_main_prints_what_the_full_parser_prints(monkeypatch, argv):
    # main builds only the subparser argv[0] names; every help and error byte and the status stay the full tree's
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_exit(lambda: build_parser().parse_args(list(argv)))
    assert _parse_exit(lambda: main(list(argv))) == full
    monkeypatch.setattr(sys, "argv", ["degpoly", *argv])
    assert _parse_exit(main) == full


def test_a_parser_for_one_command_registers_only_that_command():
    def commands(parser):
        (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        return list(sub.choices)

    assert commands(build_parser("recognize")) == ["recognize"]
    assert commands(build_parser()) == commands(build_parser("nope")) == ["optimize", "verify", "recognize"]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_reports_byte_identical(capsys, case):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def _oracle_text(tree):
    """The writer's oracle: the text the standard library prints for ``tree``."""
    return json.dumps(tree, indent=2, sort_keys=True)


_leaves = [
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028é😀')),
]
# lists of one leaf type take the writer's one-join route; bools mixed with ints do not
_flat_lists = st.one_of(*(st.lists(leaf) for leaf in _leaves), st.lists(st.booleans() | st.integers()))
_trees = st.recursive(
    st.one_of(*_leaves, _flat_lists),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_leaves[-1], kids, max_size=4),
    max_leaves=30,
)


@given(_trees)
def test_report_text_matches_json_dumps(tree):
    assert _report_text(tree) == _oracle_text(tree)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_report_text_matches_json_dumps_on_golden_reports(case):
    if case["stdout"]:
        tree = json.loads(case["stdout"])
        assert _report_text(tree) == _oracle_text(tree)
        assert _report_text(tree) + "\n" == case["stdout"]


_COSTS_256 = ",".join(f"{(37 * i) % 201 - 100}/{i % 10 + 1}" for i in range(256))
# one live report per shape: optimize in both modes, recognize on each route, every verify suite
_LIVE = {
    **{f"optimize n=256 {mode}": ("optimize", f"--costs={_COSTS_256}", "--mode", mode) for mode in ("max", "min")},
    "recognize n=200": ("recognize", "--seq=" + ",".join(str((7 * i) % 200) for i in range(200))),
    "recognize r=3": ("recognize", "--seq=3,3,2,2,2", "--r", "3"),
    **{f"verify {suite}": ("verify", "--suite", suite, "--n", str(lo), "--samples", "1000") for suite, (lo, _, _) in SUITES.items()},
}


@pytest.mark.parametrize("argv", _LIVE.values(), ids=_LIVE)
def test_report_text_matches_json_dumps_on_live_reports(argv):
    args = build_parser().parse_args(list(argv))
    report = args.run(args)
    assert _report_text(report) == _oracle_text(report)


def test_golden_reports_byte_identical_under_python_O():
    # invariants raise rather than assert, so stripping asserts changes no report
    script = (
        "import contextlib, io, json, sys\n"
        "from degpoly.cli import main\n"
        "replayed = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    replayed.append({'argv': argv, 'exit': code, 'stdout': out.getvalue()})\n"
        "print(json.dumps([sys.flags.optimize, replayed]))\n"
    )
    optimize, replayed = json.loads(run_under_python_O(script, "-B", stdin=json.dumps([case["argv"] for case in GOLDEN])))
    assert optimize == 1
    assert len(replayed) == len(GOLDEN)
    for case, got in zip(GOLDEN, replayed):
        assert got == case, " ".join(case["argv"])


def test_jsonify():
    assert jsonify(Fraction(3, 2)) == "3/2"
    assert jsonify(Fraction(4)) == "4"
    assert jsonify((1, Fraction(1, 3))) == [1, "1/3"]
    assert jsonify(None) is None
    assert jsonify(True) is True
    assert jsonify(7) == 7
    with pytest.raises(TypeError):
        jsonify(object())
    # a check compares exact values only
    with pytest.raises(TypeError):
        jsonify(0.5)
    # only check entries pass through, and none is a dict
    with pytest.raises(TypeError):
        jsonify({})


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# ties and zeros; small mixed denominators; strictly decreasing, so every block has one
# entry; and one distinct prime denominator per entry
_report_costs = (
    st.lists(st.integers(-2, 2), min_size=1, max_size=12)
    | st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))), min_size=1, max_size=12)
    | st.lists(st.integers(-9, 9), min_size=1, max_size=12, unique=True).map(lambda v: sorted(v, reverse=True))
    | st.permutations(_PRIMES).flatmap(
        lambda primes: st.lists(st.integers(-99, 99), min_size=1, max_size=len(primes)).map(
            lambda nums: [Fraction(a, p) for a, p in zip(nums, primes)]
        )
    )
)


@given(_report_costs, st.sampled_from(("max", "min")))
def test_optimize_report_prints_the_certificate_views(costs, mode):
    # the report's text comes from the certificate's integers; its Fraction views are the oracle
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["optimize", f"--costs={','.join(map(str, costs))}", "--mode", mode])
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    cert = optimality_certificate(costs)
    assert result["certificate"]["base"] == [str(b) for b in cert.base]
    assert result["certificate"]["coefficients"] == [str(a) for a in cert.coefficients]
    assert result["value"] == str(cert.value(cert.optimizer(mode)))


def test_make_check():
    check = make_check("x", Fraction(1, 2), Fraction(1, 2))
    assert check == {"name": "x", "expected": "1/2", "actual": "1/2", "pass": True}
    check = make_check("x", 1, 2, formula="f")
    assert check["pass"] is False and check["formula"] == "f"
    assert make_check("x", 0, 1, passed=True)["pass"] is True


def test_parse_costs():
    assert parse_cost_pairs("1,-1/2, 2,-6/4") == ((1, 1), (-1, 2), (2, 1), (-3, 2))
    with pytest.raises(ValueError):
        parse_cost_pairs("")
    with pytest.raises(ValueError):
        parse_cost_pairs("1;2")


def _fraction_pair_or_none(token):
    """Fraction(token) as (numerator, denominator), or None where Fraction refuses it or its value is too long for str."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None
    # "1e5000" fits the strategy's eight characters, and parse_cost_pairs refuses it by design
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        return None
    return value.numerator, value.denominator


def _cost_pair_or_none(token):
    """parse_cost_pairs on one token: (p, q) in lowest terms with q >= 1, or None where it refuses the token."""
    try:
        (pair,) = parse_cost_pairs(token)
    except ValueError:
        return None
    p, q = pair
    assert type(p) is int and type(q) is int and q >= 1 and gcd(p, q) == 1, pair
    return pair


# one token, no commas: characters a rational's spelling can hold, and well-formed p/q
_cost_tokens = st.text(alphabet="0123456789+-/.e_ ", max_size=8) | st.from_regex(
    r"\A ?[+-]?[0-9]{1,4}(/[+-]?[0-9]{1,4})? ?\Z"
)


@given(_cost_tokens)
def test_parse_costs_reads_each_token_as_fraction_does(token):
    # p/q tokens are read with int and one gcd; Fraction(token) is the oracle for every token
    assert _cost_pair_or_none(token) == _fraction_pair_or_none(token)


@pytest.mark.parametrize(
    "token, pair",
    [
        ("1e5000", None),
        ("1/-2", None),  # int("-2") would take the denominator's sign; Fraction refuses it
        ("1.5", (3, 2)),
        ("1e3", (1000, 1)),
        (" 3/4 ", (3, 4)),
        ("1/0", None),
        ("0/0", None),
        ("+-1", None),
        ("-6/4", (-3, 2)),
        ("+007", (7, 1)),
        ("1_000", (1000, 1)),
        ("0/5", (0, 1)),
        ("-0", (0, 1)),
    ],
)
def test_parse_costs_frozen_tokens(token, pair):
    assert _cost_pair_or_none(token) == _fraction_pair_or_none(token) == pair


def _echoed_costs(tokens, mode="max"):
    """The report's inputs.costs for ``optimize --costs`` of the tokens joined by commas."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["optimize", f"--costs={','.join(tokens)}", "--mode", mode])
    assert code == 0
    return json.loads(out.getvalue())["inputs"]["costs"]


_ECHO_SPELLINGS = ("-6/4", "+007", " 3/4 ", "0/5", "-0", "1.5", "1e3", "1_000")


def test_optimize_echoes_frozen_spellings_as_fraction_prints_them():
    # no golden argv pins reduction, signs, whitespace or non-p/q spellings in the echo
    expected = ["-3/2", "7", "3/4", "0", "0", "3/2", "1000", "1000"]
    assert [str(Fraction(t)) for t in _ECHO_SPELLINGS] == expected
    for mode in ("max", "min"):
        assert _echoed_costs(_ECHO_SPELLINGS, mode) == expected


@pytest.mark.parametrize(
    "argv, ascii_argv",
    [
        (("recognize", "--seq=\u0661,\u0661"), ("recognize", "--seq=1,1")),
        (("optimize", "--costs=\u0661/\u0662,2"), ("optimize", "--costs=1/2,2")),
    ],
    ids=["recognize", "optimize"],
)
def test_non_ascii_decimal_digits_read_as_int_and_fraction_read_them(capsys, argv, ascii_argv):
    # Arabic-Indic one and two: a token is whatever int() or Fraction() makes of it
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert main(list(ascii_argv)) == 0
    assert out == capsys.readouterr().out


# tokens Fraction accepts: p/q with a nonzero denominator, decimals and exponents, and the frozen spellings
_valid_cost_tokens = (
    st.from_regex(r"\A ?[+-]?[0-9]{1,4}(/0{0,2}[1-9][0-9]{0,3})? ?\Z")
    | st.from_regex(r"\A[+-]?[0-9]{1,3}(_[0-9]{1,2})?(\.[0-9]{1,3})?(e[+-]?[0-9])?\Z")
    | st.sampled_from(_ECHO_SPELLINGS)
)


@given(st.lists(_valid_cost_tokens, min_size=1, max_size=8), st.sampled_from(("max", "min")))
def test_optimize_echoes_each_cost_as_str_of_its_fraction(tokens, mode):
    assert _echoed_costs(tokens, mode) == [str(Fraction(t)) for t in tokens]
