"""Run one ``inplay`` CLI command in this fresh process and report its costs.

Usage: child.py REPORT_JSON TRACE COMMAND_ID [-- CLI ARGS...]

Times ``import inplay.cli`` and ``cli.main(argv)`` separately and records
this process's peak resident memory.  With TRACE=1 the layers are wrapped
(see tracer.py) and the spans are written next to the report.  Without CLI
arguments only the import is timed.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    report_path, trace, command_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[5:] if len(sys.argv) > 4 and sys.argv[4] == "--" else []

    t0 = time.perf_counter()
    import inplay.cli as cli

    import_s = time.perf_counter() - t0
    report = {"import_s": import_s, "argv": argv}
    tracer = None
    if argv:
        if trace:
            from inplay import calibration, distributions, hedging, io, pricing

            from tracer import Tracer

            tracer = Tracer(
                {
                    "cli": cli,
                    "io": io,
                    "calibration": calibration,
                    "hedging": hedging,
                    "pricing": pricing,
                    "distributions": distributions,
                }
            )
            tracer.install()
        t1 = time.perf_counter()
        rc = cli.main(argv)
        report["main_s"] = time.perf_counter() - t1
        report["exit_code"] = rc
    else:
        rc = 0
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["cache"] = tracer.uninstall()
        report["counts"] = tracer.counts
        report["spans"] = report_path[: -len(".json")] + ".spans.npz"
        tracer.save(report["spans"], command_id)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
