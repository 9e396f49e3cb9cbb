"""Tests of the benchmark itself: seeded generation, output checking, span
arithmetic and the tracer's clean removal."""

import sys
import time

import pytest

import run
import tracer as tr

wl = run.import_program()
DATA = wl.load_data(run.ROOT / "src" / "prymcubic" / "data")


def _snapshot(job):
    return (job.kind, job.label, repr(job.data), job.expected)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [_snapshot(j) for j in wl.make_jobs(workload, 5, DATA, None)]
    again = [_snapshot(j) for j in wl.make_jobs(workload, 5, DATA, None)]
    assert first == again
    assert wl.round_order(first, 5, 0) == wl.round_order(first, 5, 0)
    assert wl.round_order(first, 5, 0) != wl.round_order(first, 6, 0)
    if workload != "trace_fp":  # trace_fp inputs do not depend on the seed
        assert first != [_snapshot(j) for j in wl.make_jobs(workload, 6, DATA, None)]


def test_normal_forms_are_lifted_from_f11():
    forms = wl.normal_form_rows(DATA["normal_forms"])
    rows, tag = forms["N5"]
    assert tag == "T5"
    assert rows[1][1] == [-1, 0, 0, 0]  # "10" over F_11


def _job(workload, label):
    return next(j for j in wl.make_jobs(workload, 1, DATA, None) if j.label == label)


def test_corrupted_tag_is_a_failure():
    job = _job("classify_fp", "N1@23")
    assert wl.run_job(job).status == "ok"
    job.expected = {"tag": "T2"}
    outcome = wl.run_job(job)
    assert outcome.status == "failed"
    assert "tag" in outcome.detail


def test_corrupted_count_is_a_failure():
    job = _job("trace_fp", "t1@23")
    outcome = wl.run_job(job)
    assert outcome.status == "ok"
    nc, ncover, nx = outcome.observed["counts"]
    job.expected = {"counts": [nc, ncover + 2, nx]}
    assert wl.run_job(job).status == "failed"


def test_refusal_must_be_the_recorded_one():
    job = _job("trace_fp", "t3@31")
    assert wl.run_job(job).status == "refused"
    job.expected = {"refusal": "OracleError"}
    assert wl.run_job(job).status == "refused"
    job.expected = {"counts": [0, 0, 0]}
    assert wl.run_job(job).status == "failed"


@pytest.mark.xfail(strict=True, reason="tritangent certificates of t3 over F_11 depend on "
                   "the coordinates: after x2 <-> x3 the sextic of the plane over the "
                   "line (1,9,4) is not certified a square")
def test_bijection_survives_swapping_two_coordinates():
    job = _job("trace_fp", "bij-t3@11")
    p, rows, qmat = job.data
    order = (0, 1, 3, 2)
    rows = [[[coeffs[k] for k in order] for coeffs in row] for row in rows]
    qmat = [[qmat[i][j] for j in order] for i in order]
    job.data = (p, rows, qmat)
    assert wl.run_job(job).status == "ok"


def test_self_times_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tr.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tr.self_times(start, end, parent)) == end[0] - start[0]


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "prymcubic" or name.startswith("prymcubic."):
            for attr, value in vars(module).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


def test_program_is_unchanged_after_a_traced_run():
    job = _job("classify_fp", "N2@23")
    before = _bindings()
    plain = wl.run_job(job).observed
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        tracer.start_job(job.id)
        t0 = time.perf_counter()
        traced = wl.run_job(job).observed
        wall = time.perf_counter() - t0
        tracer.start_job(-1)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert traced == plain
    table = tracer.layer_table()
    assert table["symmetroid.classify"][0] == 1
    assert tracer.job_ops[job.id] == tracer.ops[0] > 0
    assert 0 < sum(row[1] for row in table.values()) <= wall


def test_benchmark_json_lists_what_the_runs_report():
    bench = run.load_benchmark()
    assert [m["name"] for m in bench["per_layer"]] == tr.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb"}


def test_tail_has_ten_jobs_beyond_it():
    per_job = [float(i) for i in range(40)]
    value, percentile, beyond = run.tail(per_job)
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert sum(1 for v in per_job if v > value) == 10


def test_compare_verdicts():
    a = {s: 10.0 + 0.01 * s for s in range(10)}
    assert run.verdict(a, {s: v * 1.5 for s, v in a.items()}, "higher", 0.1) == "better"
    assert run.verdict(a, {s: v * 0.7 for s, v in a.items()}, "higher", 0.1) == "worse"
    assert run.verdict(a, {s: v * 0.97 for s, v in a.items()}, "higher", 0.1) == "within bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert run.verdict(a, noisy, "higher", 0.1) == "unresolved"
