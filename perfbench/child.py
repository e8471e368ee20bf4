"""Run one ``qko`` CLI job in this fresh interpreter and report its timings.

Usage: python3 -I perfbench/child.py REPORT TRACE JOB -- QKO_ARGS...

The job's stdout is the program's own.  The report (a JSON object) goes to the
file REPORT: the monotonic clock when ``qko.cli`` finished importing, the
seconds spent in ``cli.main``, the process's peak RSS, the inverse-determinant
table's cache statistics and, with TRACE=1, the job's spans and call counts.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qko.cli  # noqa: E402

IMPORTED = time.monotonic()


def main() -> int:
    import json
    import resource

    report_path, trace, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE JOB -- QKO_ARGS...")
    if not os.path.abspath(qko.cli.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"qko imported from {qko.cli.__file__}, not from {ROOT}/src")
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        from tracer import Tracer

        tracer = Tracer(job)
        tracer.install()

    start = time.perf_counter()
    code = qko.cli.main(argv)
    compute = time.perf_counter() - start
    sys.stdout.flush()

    report = {
        "imported": IMPORTED,
        "compute_s": compute,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    # the inverse-determinant table of qko.eta, while it is an lru_cache
    table = getattr(sys.modules.get("qko.eta"), "_inverse_det_values", None)
    if hasattr(table, "cache_info"):
        info = table.cache_info()
        report["table_hits"], report["table_misses"] = info.hits, info.misses
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
