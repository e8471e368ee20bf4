"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import random
import subprocess
import sys

import run

KSP_JOB = "ksp --ell 16 --nu 4"
VERIFY_JOB = "verify --ell 8,16,32 --max-nu 6 --max-k 5"


def _reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def test_self_times_nested_and_sibling_spans():
    spans = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],       # first child of root
        ["a1", 2.0, 3.0, 1, "j", None],      # nested inside a
        ["b", 5.0, 9.0, 0, "j", None],       # sibling of a
        ["b1", 5.5, 6.0, 3, "j", None],      # two siblings inside b
        ["b2", 7.0, 8.5, 3, "j", None],
    ]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]


def test_layer_values_sum_self_time_per_name_and_tag():
    spans = [
        ["eta.eta_pair", 0.0, 4.0, -1, "j", None],
        ["cyclotomic.inverse", 1.0, 2.0, 0, "j", "c8"],
        ["cyclotomic.inverse", 2.5, 3.0, 0, "j", "c16"],
        ["ktheory.matrix_A", 5.0, 6.0, -1, "j", None],
        ["ktheory.matrix_B", 6.0, 6.5, -1, "j", None],
    ]
    jobs = [{"spans": spans, "counts": {"cyclotomic.mul": 7},
             "table_hits": 3, "table_misses": 1}]
    values = run.layer_values(jobs)
    assert values["eta.eta_pair.calls"] == 1
    assert values["eta.eta_pair.self_s"] == 2.5
    assert values["cyclotomic.inverse.calls"] == 2
    assert values["cyclotomic.inverse.self_s"] == 1.5
    assert values["cyclotomic.inverse.self_s.c8"] == 1.0
    assert values["cyclotomic.inverse.self_s.c64"] is None
    assert values["cyclotomic.mul.calls"] == 7
    assert values["ktheory.matrix_blocks.self_s"] == 1.5
    assert values["eta.inverse_det_table.hit_ratio"] == 0.75
    assert values["verify.brute_force_span.self_s"] is None


def test_output_check_rejects_a_one_byte_change():
    reference = _reference()
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    out = subprocess.run([sys.executable, "-m", "qko", *KSP_JOB.split(), "--format", "json"],
                         capture_output=True, env=env, cwd=run.ROOT, check=True).stdout
    assert run.check_output(KSP_JOB, 0, out, reference) is None
    assert run.check_output(KSP_JOB, 1, out, reference) is not None
    for pos in (0, len(out) // 2, len(out) - 1):
        corrupted = out[:pos] + bytes([out[pos] ^ 1]) + out[pos + 1:]
        assert run.check_output(KSP_JOB, 0, corrupted, reference) is not None


def test_verify_check_allows_new_checks_but_not_lost_or_failing_ones():
    reference = _reference()
    names = reference["jobs"][VERIFY_JOB]["check_names"]

    def report(checks):
        return json.dumps({"checks": checks}).encode()

    passing = [{"name": n, "passed": True} for n in names]
    assert run.check_output(VERIFY_JOB, 0, report(passing), reference) is None
    extra = passing + [{"name": "new/check", "passed": True}]
    assert run.check_output(VERIFY_JOB, 0, report(extra), reference) is None
    assert run.check_output(VERIFY_JOB, 0, report(passing[1:]), reference) is not None
    failing = [dict(passing[0], passed=False)] + passing[1:]
    assert run.check_output(VERIFY_JOB, 0, report(failing), reference) is not None
    assert run.check_output(VERIFY_JOB, 0, b"not json", reference) is not None


def test_failed_job_is_counted_against_attempted():
    ok = {"job": KSP_JOB, "id": "u0-0", "wall_s": 1.0, "setup_s": 0.1, "maxrss_kb": 2048,
          "compute_s": 0.9}
    bad = {"job": KSP_JOB, "id": "u0-1", "wall_s": 1.0, "error": "stdout sha256 differs"}
    outcome = {"passes": {False: [[ok, bad]], True: []}, "speed": 1.0}
    result, _ = run.summarize("kgroup-cold", outcome, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_end_to_end_times_are_rescaled_by_host_speed():
    job = {"job": KSP_JOB, "id": "u0-0", "wall_s": 2.0, "setup_s": 0.1, "maxrss_kb": 2048,
           "compute_s": 1.8}
    outcome = {"passes": {False: [[job]], True: []}, "speed": 0.5}
    metrics = run.summarize("kgroup-cold", outcome, trace=False)[0]["metrics"]
    assert metrics["wall_s"]["value"] == 1.0
    assert metrics["setup_s"]["value"] == 0.05
    assert metrics["peak_rss_mb"]["value"] == 2.0
    units, elapsed = run.probe(0.01)
    assert units >= 1 and elapsed >= 0.01


def test_seeds_permute_job_order_but_keep_the_job_set():
    jobs = run.WORKLOADS["kgroup-cold"]
    orders = [tuple(run.job_order(jobs, random.Random(seed))) for seed in range(10)]
    assert all(sorted(order) == sorted(jobs) for order in orders)
    assert len(set(orders)) > 1
    assert orders[3] == tuple(run.job_order(jobs, random.Random(3)))


def test_every_workload_job_has_a_reference():
    reference = _reference()
    for jobs in run.WORKLOADS.values():
        for job in jobs:
            assert "sha256" in reference["jobs"][job] or "check_names" in reference["jobs"][job]


def test_traced_job_patches_every_binding(tmp_path):
    report_path = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-I", run.CHILD, str(report_path), "1", "t",
                           "--", "ksp", "--ell", "8", "--nu", "2", "--format", "json"],
                          capture_output=True, cwd=run.ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    names = {span[0] for span in report["spans"]}
    # ktheory imports eta_pair by name, and eta imports det_I_minus by name
    assert {"eta.eta_pair", "groups.det_I_minus", "cli.main", "cli.cmd_ksp"} <= names
    tags = {span[5] for span in report["spans"] if span[0] == "cyclotomic.inverse"}
    assert tags == {"c4"}
    assert report["counts"]["cyclotomic.mul"] > 0
    assert all(span[4] == "t" for span in report["spans"])


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    job = {"job": KSP_JOB, "id": "u0-0", "wall_s": 1.0, "setup_s": 0.1, "maxrss_kb": 2048,
           "compute_s": 0.9}
    outcome = {"passes": {False: [[job]], True: []}, "speed": 1.0}
    result, _ = run.summarize("kgroup-cold", outcome, trace=False)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_job_past_its_timeout_is_killed_and_failed(tmp_path):
    reference = _reference()
    result = run.run_job(KSP_JOB, "u0-0", False, 0.01, str(tmp_path), reference)
    assert result["error"].startswith("no exit within")
    result = run.run_job(KSP_JOB, "u0-1", False, 0.0, str(tmp_path), reference)
    assert "budget" in result["error"]
