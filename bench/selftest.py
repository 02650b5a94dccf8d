"""Self-tests of the benchmark: seeding, the oracles, and the report checks.

Run with ``python3 bench/selftest.py`` (or ``python3 -m pytest
bench/selftest.py``) from the root of a checkout.  The file name keeps
it out of the package's own test collection.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import combinations_with_replacement, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from degpoly import cli, optimize, polytope, runs  # noqa: E402
from degpoly.hypergraph import brute_force_r_graphical  # noqa: E402


def test_same_seed_same_argv_sequence():
    for workload in workloads.WORKLOADS.values():
        first = [op.argv for op in workloads.ops_for(workload, 7)]
        assert first == [op.argv for op in workloads.ops_for(workload, 7)], workload.name
        assert first != [op.argv for op in workloads.ops_for(workload, 8)], workload.name


def test_erdos_gallai_matches_is_degree_sequence():
    for n in range(1, 8):
        for seq in combinations_with_replacement(range(n + 1), n):
            assert oracles.erdos_gallai(seq) == polytope.is_degree_sequence(seq), seq
    for n in range(1, 5):
        for seq in product(range(n + 1), repeat=n):
            assert oracles.erdos_gallai(seq) == polytope.is_degree_sequence(seq), seq


def test_pava_matches_pava_oracle():
    rng = random.Random(11)
    for _ in range(400):
        costs = workloads.random_costs(rng, rng.randint(1, 40))
        assert tuple(oracles.pava_decreasing(costs)) == runs.pava_oracle(costs), costs


def test_degree_count_matches_optimal_partition():
    rng = random.Random(12)
    for _ in range(200):
        costs = workloads.random_costs(rng, rng.randint(1, 30))
        b = oracles.pava_decreasing(costs)
        for mode in ("max", "min"):
            want = optimize.optimal_threshold_partition(costs, mode)
            assert tuple(oracles.threshold_degrees(b, strict=mode == "min")) == want, (costs, mode)


def test_truth_set_matches_brute_force_on_verify_candidates():
    # the candidate families of `verify --suite hypergraph`: (r, largest total)
    for n in (4, 5):
        for r, max_total in ((3, 12), (2, 10)):
            truth = oracles.realizable_partitions(n, r)
            for d in workloads.decreasing_tuples(n, max_total, max_total):
                assert (d in truth) == brute_force_r_graphical(d, n, r), (d, n, r)


def _report(op: workloads.Op) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0, op.argv
    return json.loads(out.getvalue())


def test_checks_accept_reports_and_catch_tampering():
    tamper = {
        "optimize": lambda rep: rep["result"]["partition"].__setitem__(0, rep["result"]["partition"][0] - 1),
        "recognize-graphs": lambda rep: rep["result"].__setitem__("graphical", not rep["result"]["graphical"]),
        "recognize-small": lambda rep: rep["result"].__setitem__("graphical", not rep["result"]["graphical"]),
        "verify": lambda rep: rep["checks"][0].__setitem__("actual", -1),
    }
    for name, workload in workloads.WORKLOADS.items():
        ops = workloads.ops_for(workload, 3)
        for op in ops[:4]:
            report = _report(op)
            assert workload.check(op, report) is None, (name, op.argv[:3])
            tamper[name](report)
            assert workload.check(op, report) is not None, (name, op.argv[:3])


def test_recognize_small_mixes_verdicts():
    ops = workloads.ops_for(workloads.WORKLOADS["recognize-small"], 5)
    verdicts = {
        tuple(sorted(seq, reverse=True)) in workloads.truth_set(n, r) for n, r, seq in (op.data for op in ops)
    }
    assert verdicts == {True, False}


def test_recognize_graphs_mixes_verdicts():
    ops = workloads.ops_for(workloads.WORKLOADS["recognize-graphs"], 5)
    kinds = [oracles.erdos_gallai(op.data) for op in ops[:8]]
    assert kinds == [True, False, True, False] * 2


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
