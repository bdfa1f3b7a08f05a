"""Tests of the benchmark harness itself:

    python3 -m pytest perfbench/tests -q

The tests of perfbench.workloads need crownkit, from the checkout's src/.
"""

import json
import math
import os
import re
import subprocess

import pytest

from perfbench import cases, metrics, speed, trace

WORKLOADS = sorted(cases.ROUNDS)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_cases(workload):
    for index in (0, 1):
        first = json.dumps(cases.round_cases(workload, 7, index))
        again = json.dumps(cases.round_cases(workload, 7, index))
        assert first == again
    assert (json.dumps(cases.round_cases(workload, 7, 0))
            != json.dumps(cases.round_cases(workload, 8, 0)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_follows_the_stated_mix(workload):
    round1 = cases.round_cases(workload, 3, 1)
    assert [c["kind"] for c in round1] == cases.ROUNDS[workload]
    size = len(cases.ROUNDS[workload])
    assert [c["id"] for c in round1] == list(range(size, 2 * size))


def test_draws_cover_every_stratum():
    rows = [c["args"] for c in cases.round_cases("repn_sobolev", 5, 0)
            if c["kind"] == "row1"]
    lam_strata = sorted(int((r["lam"] - 0.25) / 2.25 * len(rows))
                        for r in rows)
    eps_strata = sorted(int((math.log10(r["eps"]) + 6.0) / 4.0 * len(rows))
                        for r in rows)
    assert lam_strata == list(range(len(rows)))
    assert eps_strata == list(range(len(rows)))


def test_mirrored_strata_are_antithetic():
    for seed in (1, 2):
        lams = [c["args"]["lam"] for c in cases.round_cases("repn_sobolev",
                                                             seed, 0)
                if c["kind"] == "row1"]
        assert sum(lams) == pytest.approx(len(lams) * (0.25 + 2.5) / 2.0)


def test_tail_percentile_leaves_ten_cases_beyond():
    for workload, kinds in cases.ROUNDS.items():
        pct = metrics.tail_percentile(len(kinds))
        assert len(kinds) * (1.0 - pct / 100.0) >= 10.0, workload
        assert len(kinds) * (1.0 - (pct + 1) / 100.0) < 10.0, workload


def test_benchmark_json_follows_the_contract():
    spec = metrics.declared()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in spec[section]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_printed_end_to_end_metrics_are_declared():
    values = metrics.end_to_end(
        latencies=[0.1, 0.2, 0.3, 0.4], attempted=5, failed=1,
        checks=[(1e-9, 1e-5), (0.0, 1e-5), (1e-4, 1e-2)],
        setup_samples=[0.3, 0.2, 0.25], peak_rss_mb=50.0, tail_pct=58)
    printed = metrics.emit(values, "end_to_end")
    declared = {m["name"]: m for m in metrics.declared()["end_to_end"]}
    assert set(printed) == set(declared)
    for name, metric in printed.items():
        assert metric["unit"] == declared[name]["unit"]
    assert printed["tol_headroom_digits"]["value"] == pytest.approx(2.0)
    assert printed["ok_ratio"]["value"] == pytest.approx(0.8)
    assert printed["cases_per_s"]["value"] == pytest.approx(4.0)


def test_times_are_read_at_the_speed_of_nearby_probes():
    ref = speed.REFERENCE_S
    probes = [ref] * 3 + [3 * ref] * 4
    assert speed.at_reference([1.0] * 7, probes) == pytest.approx(
        [1.0, 1.0, 1.0] + [1.0 / 3.0] * 4)


def test_printed_per_layer_metrics_are_declared():
    names = [m["name"] for m in metrics.declared()["per_layer"]]
    self_times = {n[:-2]: [1.0, 2.0, 4.0] for n in names if n.endswith("_s")}
    extras = {n: 1.0 for n in names if not n.endswith("_s")}
    printed = metrics.emit(metrics.per_layer(self_times, extras, names),
                           "per_layer")
    assert list(printed) == names
    assert printed[names[0]]["value"] == 2.0
    with pytest.raises(ValueError):
        metrics.emit({**metrics.per_layer(self_times, extras, names),
                      "undeclared_s": 1.0}, "per_layer")
    with pytest.raises(ValueError):
        metrics.emit(metrics.per_layer({}, extras, names), "per_layer")


def test_self_time_subtracts_children():
    tracer = trace.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.spans[0][1:3] = [0.0, 5.0]
    tracer.spans[1][1:3] = [1.0, 3.0]
    assert tracer.self_times() == {"outer": [3.0], "inner": [2.0]}
    assert tracer.spans[1][3] == 0


def test_headroom_reads_a_missing_gap_as_infinite():
    assert metrics.headroom_digits([(0.0, 1e-5)]) == pytest.approx(11.0)
    assert metrics.headroom_digits(
        [(1e-9, 1e-5), (math.inf, 1e-5)]) == pytest.approx(-21.0)


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    pytest.importorskip("crownkit")
    from perfbench import workloads
    return workloads


def test_reference_checks_run_one_by_one(monkeypatch):
    workloads = _workloads(monkeypatch)

    def good(a, ctx, tr):
        return [workloads.Check("good_gap", 1e-9, 1e-5)]

    def bad(a, ctx, tr):
        return [][0]

    monkeypatch.setitem(workloads._REFERENCE, "repn_sobolev",
                        [("good_gap", 1e-5, good, {}),
                         ("bad_gap", 1e-5, bad, {})])
    out = workloads.reference_checks("repn_sobolev", None, trace.NullTracer())
    assert out.failed and not out.malformed
    assert "bad_gap: IndexError" in out.error
    assert [(c.name, c.gap) for c in out.checks] == [("good_gap", 1e-9),
                                                     ("bad_gap", math.inf)]


def test_cli_failing_document_still_gives_its_gap(monkeypatch):
    workloads = _workloads(monkeypatch)
    doc = {"command": "doubling", "status": "fail", "outputs": {"gap": 3e-4}}
    monkeypatch.setattr(
        workloads, "run_child", lambda argv, ctx, capture=False:
        subprocess.CompletedProcess(argv, 2, json.dumps(doc), ""))
    checks = workloads._cli("doubling", {"lam": 1.0, "t": 2.0, "phi": 0.2},
                            None, trace.NullTracer())
    assert [(c.name, c.passed) for c in checks] == [
        ("cli_exit_0", False), ("cli_status_pass", False),
        ("doubling_gap", False)]
    assert checks[-1].gap == 3e-4
