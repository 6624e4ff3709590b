"""Each check of the benchmark rejects a known-wrong answer.

    python3 -m pytest -q perfbench

These tests do not import carmik: the checks judge plain data.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import oracles
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def census_check():
    return checks.CensusCheck(seed=1, root=ROOT)


def test_census_accepts_the_published_counts(census_check):
    for limit, count in ((10**4, 7), (10**5, 16), (10**6, 43)):
        rows = [list(r) for r in census_check.reference if r[0] <= limit]
        assert len(rows) == count
        assert census_check.check(limit, rows) == []
    assert census_check.self_problems == []


def test_census_rejects_a_dropped_row(census_check):
    rows = [list(r) for r in census_check.reference if r[0] <= 10**5]
    assert census_check.check(10**5, rows[:5] + rows[6:])
    # Off a power of ten only the own census can tell.
    rows = [list(r) for r in census_check.reference if r[0] <= 123_456]
    assert census_check.check(123_456, rows[:-1])


def test_census_rejects_a_changed_k(census_check):
    rows = [list(r) for r in census_check.reference if r[0] <= 10**4]
    assert rows[0] == [561, 2]
    rows[0] = [561, 4]
    problems = census_check.check(10**4, rows)
    assert any("gcd(p - 1) = 2" in p for p in problems)


def test_census_row_check_uses_the_factorization():
    assert checks.row_problems(561, 2) == ()
    assert checks.row_problems(561, 4)
    assert checks.row_problems(1105 * 9, 4)  # not squarefree
    assert checks.row_problems(3 * 5 * 7, 2)  # fails Korselt


def test_ap_rejects_a_prime_that_is_not_the_least_of_its_class():
    check = checks.ApScanCheck(seed=0, root=ROOT)
    l = check.moduli[0]
    b, p, _ = check.expected[l]
    assert check.check(l, dict(rows=[[l, b, p]], misses=[])) == []
    later = next(q for q in range(p + l, 10 * p, l) if check.flags[q])
    problems = check.check(l, dict(rows=[[l, b, later]], misses=[]))
    assert problems and all("not a prime of its class" not in m for m in problems)
    assert check.check(l, dict(rows=[[l, b, p]], misses=[[l, 1]]))
    composite = next(q for q in range(b, 10 * p, l) if not check.flags[q])
    assert any("not a prime of its class" in m
               for m in check.check(l, dict(rows=[[l, b, composite]], misses=[])))


def test_witness_must_multiply_to_one():
    m = 10**12 + 39  # prime
    sequence, planted = workloads.planted_sequence(1, 0, 0, "find", m, 14)
    assert oracles.product_mod(sequence, planted, m) == 1
    assert checks.solver_problems("find", sequence, planted, m, list(planted)) == []
    wrong = [i for i in range(14) if i not in planted][:3]
    assert checks.solver_problems("find", sequence, planted, m, wrong)
    assert checks.solver_problems("find", sequence, planted, m, None)
    assert checks.solver_problems("find", sequence, planted, m, [planted[0], planted[0]])


def test_enumeration_must_match_the_own_search():
    m = 10**12 + 39
    sequence, planted = workloads.planted_sequence(2, 0, 0, "enumerate", m, 12)
    expected = [list(s) for s in oracles.product_one_subsets(sequence, m)]
    assert list(planted) in expected
    assert checks.solver_problems("enumerate", sequence, planted, m, expected) == []
    assert checks.solver_problems("enumerate", sequence, planted, m, [])
    assert checks.solver_problems("enumerate", sequence, planted, m, expected + [[0]])


def test_korselt_oracle_self_check():
    assert oracles.korselt_products([3], [11, 17]) == {561: 2}
    assert checks.oracle_problems() == []


def test_no_certificate_next_to_a_non_empty_oracle_is_wrong():
    verdict = dict(stage="zero-sum-1", data=dict(family_size=1, threshold=100, bound_log=4.6))
    assert checks.verdict_problems(verdict, [5], [7, 11], 2) == []
    problems = checks.verdict_problems(verdict, [3], [11, 17], 2)
    assert any("Korselt oracle finds [561]" in p for p in problems)


def test_stage_error_must_carry_both_sides_of_its_guard():
    family = ([5], [7, 11])
    assert checks.verdict_problems(dict(stage="zero-sum-2", data=dict(
        family_size=2, threshold=None, bound_log=50.0)), *family, 2) == []
    assert checks.verdict_problems(dict(stage="zero-sum-1", data=dict(
        family_size=None, threshold=3, bound_log=1.0)), *family, 2)
    assert checks.verdict_problems(dict(stage="zero-sum-1", data=dict(
        family_size=5, threshold=3, bound_log=1.0)), *family, 2)
    assert checks.verdict_problems(dict(stage="assembly", data=dict(
        family_size=1, threshold=3, bound_log=1.0)), *family, 2)


def test_certificate_must_be_in_the_oracle():
    assert checks.verdict_problems(dict(certificates=[dict(n=561, factors=[3, 11, 17], k=2)]),
                                   [3], [11, 17], 2) == []
    assert checks.verdict_problems(dict(certificates=[dict(n=561, factors=[3, 11, 17], k=4)]),
                                   [3], [11, 17], 2)
    assert checks.verdict_problems(dict(certificates=[dict(n=1105, factors=[5, 13, 17], k=4)]),
                                   [5], [13, 17], 2)


def test_instance_check_rejects_a_broken_family():
    inst = dict(nu=2, q1=[7], q2=[11], k1=3, k2=1, p1=[[43, 7]], p2=[[23, 11]])
    assert checks.instance_problems(inst, 2) == []
    assert checks.instance_problems(dict(inst, p1=[[29, 7]]), 2)  # not d*k1*nu + 1
    assert checks.instance_problems(dict(inst, p2=[[47, 23]]), 2)  # 23 does not divide L2
    assert checks.instance_problems(dict(inst, k2=3, p2=[[67, 11]]), 2)  # gcd(42, 66) = 6
    assert checks.instance_problems(dict(inst, k1=1, p1=[[15, 7]]), 2)  # 15 is not prime


def test_tail_percentile_leaves_ten_calls_of_a_round_above():
    for per_round in (40, 77, 80, 200):
        q = run.tail_percentile(per_round)
        assert per_round * (100 - q) / 100 >= 10
        assert per_round * (100 - (q + 1)) / 100 < 10


def test_end_to_end_ignores_a_slow_minority_of_rounds():
    times = [0.001 * (i + 1) for i in range(40)]
    fast = dict(calls=["f"] * 40, times=times)
    slow = dict(calls=["f"] * 40, times=[2 * t for t in times])
    result = dict(rounds=[fast, slow, fast], peak_rss_mb=1.0)
    metrics, detail = run.end_to_end(result, [100, 100, 100], [0.01])
    assert metrics["call_p50_ms"]["value"] == pytest.approx(20.5)
    assert metrics["items_per_s"]["value"] == pytest.approx(100 / sum(times))
    assert detail["calls"] == 120 and detail["tail_percentile"] == 75
    with pytest.raises(SystemExit):
        run.end_to_end(dict(result, rounds=[fast, dict(fast, calls=["g"] * 40)]), [1, 1], [0.01])


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "call_p50_ms", "call_tail_ms", "peak_rss_mb"}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (unit, better) for name, unit, better, _, _ in tracing.PER_LAYER}
    name, unit, better = tracing.OVERHEAD_METRIC
    expected[name] = (unit, better)
    assert layer == expected


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = tracer._wrap("leaf", leaf, None)
    outer = tracer._wrap("outer", lambda: [wrapped_leaf() for _ in range(3)], None)
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["leaf"][0] == 3
    assert math.isclose(self_s + tracer.spans["leaf"][1], total, rel_tol=1e-9)
    assert tracer.edges[("outer", "leaf")][0] == 3
