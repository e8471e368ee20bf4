"""Cold-process benchmark of the ``qko`` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kgroup-cold --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``qko`` CLI jobs.  Every job runs in a fresh
interpreter, one at a time, so no cache carries over from one job to the next.
The list is run pass after pass, in an order drawn from the seed, for about
``--seconds``; the program itself sees nothing but its argv.  After each job a
fixed loop of the benchmark's own code measures the host's speed, and the
end-to-end times are rescaled to a fixed reference speed (see README.md).
Every job's output is checked against ``reference.json``.  The last line of
stdout is the result as one JSON object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = {
    "kgroup-cold": ["ksp --ell 16 --nu 4", "ksp --ell 32 --nu 4", "ksp --ell 64 --nu 4",
                    "ksp --ell 128 --nu 4", "ksp --ell 64 --nu 6",
                    "ko --ell 16 --k 3", "ko --ell 32 --k 3", "ko --ell 64 --k 3"],
    "verify-warm": ["verify --ell 8,16,32 --max-nu 6 --max-k 5"],
    "chartable-large": ["chartable --ell 128", "chartable --ell 256"],
}
# (lower rung, upper rung) of each workload's doubling of ell
LADDERS = {
    "kgroup-cold": ("ksp --ell 64 --nu 4", "ksp --ell 128 --nu 4"),
    "chartable-large": ("chartable --ell 128", "chartable --ell 256"),
}

JOB_TIMEOUT_S = 60.0      # a job still running after this counts as failed
RUN_BUDGET_S = 165.0      # no job runs past this, so a run ends within 180 s
MEMORY_LIMIT = 3 << 30    # address-space limit of each job, in bytes
PROBE_SHARE = 0.15        # after each job, probe the host's speed for this share of its time
PROBE_MIN_S = 0.2         # ... but for at least this long
REFERENCE_RATE = 3500.0   # probe units per second of the reference host speed

PER_LAYER = [
    "cyclotomic.inverse.calls", "cyclotomic.inverse.self_s",
    "cyclotomic.inverse.self_s.c4", "cyclotomic.inverse.self_s.c8",
    "cyclotomic.inverse.self_s.c16", "cyclotomic.inverse.self_s.c32",
    "cyclotomic.inverse.self_s.c64", "cyclotomic.mul.calls", "cyclotomic.add.calls",
    "groups.quaternion_group.self_s", "groups.char_value.calls", "groups.fs_indicator.self_s",
    "groups.decompose.calls", "groups.decompose.self_s", "groups.theta.self_s",
    "groups.delta_power.self_s", "groups.c_constant.calls", "groups.c_constant.self_s",
    "groups.det_I_minus.calls", "groups.det_I_minus.self_s", "groups.inner_product.self_s",
    "eta.eta_pair.calls", "eta.eta_pair.self_s", "eta.eta_lens_difference.self_s",
    "eta.inverse_det_table.hit_ratio",
    "ktheory.ksp_eta_matrix.self_s", "ktheory.ko_eta_matrix.self_s",
    "ktheory.matrix_blocks.self_s", "ktheory.ksp_group.self_s", "ktheory.ko_group.self_s",
    "abelian.quotient_group.calls", "abelian.quotient_group.self_s",
    "abelian.smith_normal_form.calls", "abelian.smith_normal_form.self_s",
    "verify.run_verification.self_s", "verify.brute_force_span.self_s",
    "cli.main.self_s", "cli.render_json.self_s",
    "trace.overhead_s", "growth_per_doubling",
]
MATRIX_BLOCKS = ("ktheory.matrix_A", "ktheory.matrix_B", "ktheory.matrix_C",
                 "ktheory.matrix_B_manifold")
_SELF_RE = re.compile(r"(?P<base>.+)\.self_s(?:\.(?P<tag>c\d+))?$")


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("hit_ratio") or metric == "growth_per_doubling":
        return "ratio"
    return "s"


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def job_order(jobs: list[str], rng: random.Random) -> list[str]:
    """The jobs of one pass, in an order drawn from the run's seeded generator."""
    return rng.sample(jobs, len(jobs))


def check_output(job: str, returncode: int, stdout: bytes, reference: dict) -> str | None:
    """Why the job's result is wrong, or None when it matches the reference."""
    if returncode != 0:
        return f"exit code {returncode}"
    expected = reference["jobs"][job]
    if "sha256" in expected:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != expected["sha256"]:
            return f"stdout sha256 {digest[:12]}... differs from the reference"
        return None
    try:
        checks = {c["name"]: c["passed"] for c in json.loads(stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        return "stdout is not a verify report"
    missing = [n for n in expected["check_names"] if n not in checks]
    failing = [n for n in expected["check_names"] if n in checks and checks[n] is not True]
    if missing or failing:
        return f"{len(missing)} reference checks missing, {len(failing)} not passing"
    return None


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def probe_unit() -> None:
    """One unit of the host-speed probe: a product of two polynomials with
    ``Fraction`` coefficients modulo x^8 + 1, kept in a dict by exponent.  It
    has the shape of the program's cyclotomic arithmetic but none of its code,
    so a change to the program cannot change the probe."""
    a = [Fraction(i + 1, 2 * i + 3) for i in range(8)]
    b = [Fraction(3 - i, i + 5) for i in range(8)]
    out: dict[int, Fraction] = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            term = x * y if k < 8 else -(x * y)
            out[k % 8] = out.get(k % 8, 0) + term


def probe(seconds: float) -> tuple[int, float]:
    """Probe units done in about ``seconds``, and the time they took."""
    start = time.perf_counter()
    units = 0
    while True:
        probe_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units, elapsed


def run_job(job: str, job_id: str, traced: bool, timeout: float, scratch: str,
            reference: dict) -> dict:
    """Run one job in a fresh interpreter and check its output."""
    result = {"job": job, "id": job_id}
    if timeout <= 0:
        return dict(result, error="run budget spent before the job could start")
    report_path = os.path.join(scratch, f"{job_id}.json")
    argv = [sys.executable, "-I", CHILD, report_path, "1" if traced else "0", job_id,
            "--", *job.split(), "--format", "json"]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, preexec_fn=_limit_memory)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return dict(result, wall_s=time.monotonic() - spawned,
                    error=f"no exit within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result["wall_s"] = time.monotonic() - spawned
    error = check_output(job, proc.returncode, stdout, reference)
    if error is None:
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            error = "the job wrote no timing report"
        else:
            result.update(report)
            result["setup_s"] = report["imported"] - spawned
    if error is not None:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        result["error"] = "; ".join([error] + tail)
    return result


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, *_), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_values(jobs: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks a metric with no work behind it."""
    calls: Counter[str] = Counter()
    own: Counter[str] = Counter()
    hits = misses = 0
    for job in jobs:
        spans = job.get("spans", [])
        for span, seconds in zip(spans, self_times(spans)):
            name, tag = span[0], span[5]
            calls[name] += 1
            own[name] += seconds
            if tag:
                calls[f"{name}.{tag}"] += 1
                own[f"{name}.{tag}"] += seconds
        calls.update(job.get("counts", {}))
        hits += job.get("table_hits", 0)
        misses += job.get("table_misses", 0)
    for name in MATRIX_BLOCKS:
        calls["ktheory.matrix_blocks"] += calls[name]
        own["ktheory.matrix_blocks"] += own[name]

    values: dict[str, float | None] = {}
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = calls[metric[:-len(".calls")]]
        elif (match := _SELF_RE.match(metric)):
            base = match["base"]
            key = f"{base}.{match['tag']}" if match["tag"] else base
            values[metric] = own[key] if calls[key] else None
    values["eta.inverse_det_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else None)
    return values


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warm_up(scratch: str) -> None:
    """Import the program once, untimed, so every timed job finds its bytecode."""
    subprocess.run([sys.executable, "-I", "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import qko.cli",
                    os.path.join(ROOT, "src")],
                   cwd=scratch, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=JOB_TIMEOUT_S, check=False)


def pin_to_one_cpu() -> int | None:
    """Keep this process and the jobs it spawns on one CPU, so that the speed
    probe measures the CPU the jobs run on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "commit": git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "cpu": pin_to_one_cpu()}
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[list[dict]]] = {False: [], True: []}
    probe_units, probe_s = probe(PROBE_MIN_S)

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        warm_up(scratch)
        start = time.monotonic()
        deadline = start + RUN_BUDGET_S
        while True:
            round_start = time.monotonic()
            for traced in kinds:
                index = len(passes[traced])
                done = []
                for n, job in enumerate(job_order(jobs, rng)):
                    job_id = f"{'t' if traced else 'u'}{index}-{n}"
                    timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
                    done.append(run_job(job, job_id, traced, timeout, scratch, reference))
                    if "error" not in done[-1]:
                        units, elapsed = probe(max(PROBE_MIN_S,
                                                   PROBE_SHARE * done[-1]["wall_s"]))
                        probe_units += units
                        probe_s += elapsed
                passes[traced].append(done)
            # start another round only if it should end within half a round of
            # the run's length, so that runs last about --seconds on average
            now = time.monotonic()
            last = now - round_start
            if now + last > min(start + seconds + last / 2, deadline):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    meta["passes"] = len(passes[False])
    meta["run_s"] = time.monotonic() - start
    meta["host_rate"] = probe_units / probe_s
    return {"meta": meta, "passes": passes, "speed": meta["host_rate"] / REFERENCE_RATE}


def list_wall(pass_list: list[list[dict]]) -> float:
    """Median over the passes of the time to run the whole job list."""
    return statistics.median(sum(job.get("wall_s", 0.0) for job in done)
                             for done in pass_list)


def growth(workload: str, untraced: list[list[dict]]) -> float | None:
    """Median compute time of the upper rung of the ell ladder over that of the lower."""
    if workload not in LADDERS:
        return None
    lower, upper = LADDERS[workload]
    jobs = [j for p in untraced for j in p if "compute_s" in j]
    low = [j["compute_s"] for j in jobs if j["job"] == lower]
    high = [j["compute_s"] for j in jobs if j["job"] == upper]
    if not low or not high:
        return None
    return statistics.median(high) / statistics.median(low)


def summarize(workload: str, outcome: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object, and the absent per-layer metrics with their reasons."""
    untraced, traced = outcome["passes"][False], outcome["passes"][True]
    all_jobs = [j for p in untraced + traced for j in p]
    failed = sum(1 for j in all_jobs if "error" in j)
    ok_jobs = [j for p in untraced for j in p if "error" not in j]
    absent = []
    if not trace:
        speed = outcome["speed"]
        metrics = {
            "wall_s": list_wall(untraced) * speed,
            "setup_s": (statistics.median(j["setup_s"] for j in ok_jobs) * speed
                        if ok_jobs else 0.0),
            "peak_rss_mb": max((j["maxrss_kb"] for j in ok_jobs), default=0) / 1024,
        }
    else:
        per_pass = [layer_values(p) for p in traced]
        metrics = {}
        for metric in per_pass[0]:
            samples = [v[metric] for v in per_pass if v[metric] is not None]
            metrics[metric] = statistics.median(samples) if samples else 0
            if not samples:
                absent.append(f"{metric}: no work on this workload")
        metrics["trace.overhead_s"] = list_wall(traced) - list_wall(untraced)
        ratio = growth(workload, untraced)
        metrics["growth_per_doubling"] = ratio if ratio is not None else 0
        if ratio is None:
            absent.append("growth_per_doubling: this workload has no doubling of ell")
    result = {"correct": failed == 0, "attempted": len(all_jobs), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    return result, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qko", "cli.py")):
        print(f"error: no qko sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, absent = summarize(args.workload, outcome, bool(args.trace))
    untraced = outcome["passes"][False]
    if not args.trace:
        ratio = growth(args.workload, untraced)
        if ratio is not None:
            print(f"growth_per_doubling {ratio:.4f} ratio")
        ok_jobs = [j for p in untraced for j in p if "error" not in j]
        if ok_jobs:
            print(f"raw wall_s {list_wall(untraced):.4f} s, raw setup_s "
                  f"{statistics.median(j['setup_s'] for j in ok_jobs):.4f} s, host speed "
                  f"{outcome['speed']:.4f} of the reference")
    for pass_list in outcome["passes"].values():
        for done in pass_list:
            for job in done:
                status = f"FAILED: {job['error']}" if "error" in job else "ok"
                print(f"job {job['id']} {job['job']!r} wall_s={job.get('wall_s', 0):.4f} "
                      f"compute_s={job.get('compute_s', 0):.4f} {status}")
    for line in absent:
        print(f"absent {line}")
    print("meta " + json.dumps(outcome["meta"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
