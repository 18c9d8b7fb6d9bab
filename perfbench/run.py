"""inplay benchmark: the real CLI on seeded synthetic 90-minute matches.

Usage (from the repository root):

    python3 perfbench/run.py --workload calibrate_60s --seed 2 --seconds 30 --trace 0

For the chosen workload it generates the inputs from the seed (inputs.py),
then runs a closed loop with one client: one ``inplay`` command at a time,
each in a fresh process (child.py), the next starting only after the
previous one has exited, until ``--seconds`` have passed.  Every command's
outputs are checked (checks.py).  Extra import-only processes make
``setup_s`` a median over several fresh interpreters.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced (tracer.py) runs of the same command until the per-layer
percentiles have enough samples, and reports the per-layer metrics plus the
tracing overhead; traced and untraced outputs must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (quartiles, sample counts, input description, check
failures, environment stamp), which are also written to
``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from tracer import CACHES

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Each run must finish within 180 s; nothing new starts after this.
HARD_LIMIT_S = 150.0
# Fresh interpreters whose import time makes up setup_s, commands included.
SETUP_SAMPLES = 9
# A p90 needs 100 samples and a p99 1000 to leave ten samples beyond them.
MIN_SAMPLES = {
    "calibration.calibrate_snapshot": 100,
    "pricing.price": 1000,
    "pricing.greeks": 1000,
}


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": q[0], "p50": statistics.median(values), "p75": q[2]}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def env_stamp() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs CLI commands one at a time in fresh processes and checks them."""

    def __init__(self, workload, matches: list[tuple[dict, Path]], work: Path, deadline: float):
        self.workload = workload
        self.matches = matches
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.records: list[dict] = []
        self.reference: dict[int, dict] = {}

    def _argv(self, truth: dict, inputs: Path, out: Path) -> list[str]:
        quotes, events = str(inputs / "quotes.csv"), str(inputs / "events.csv")
        if self.workload.command == "calibrate":
            return ["calibrate", "--quotes", quotes, "--events", events,
                    "--step-s", str(self.workload.step_s), "--out", str(out / "series.csv")]
        lam = truth["lambda"]
        return ["hedge-replay", "--quotes", quotes, "--events", events,
                "--target", truth["target"],
                "--lambda-home", str(lam[0]), "--lambda-away", str(lam[1]),
                "--out-dir", str(out / "hedge")]

    def _spawn(self, report: Path, trace: bool, argv: list[str],
               command_id: int = -1) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0",
               str(command_id)]
        if argv:
            cmd += ["--", *argv]
        timeout = max(self.deadline + 25.0 - time.monotonic(), 1.0)
        return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=timeout)

    def fits(self, end: float, commands: int = 1) -> bool:
        """Whether that many more commands, each as long as the median one so
        far, end by ``end``.  The first command always runs."""
        walls = [r["wall_s"] for r in self.records]
        return not walls or time.monotonic() + commands * statistics.median(walls) <= end

    def probe_import(self) -> float:
        report = self.work / f"probe-{time.monotonic_ns()}.json"
        done = self._spawn(report, False, [])
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        return json.loads(report.read_text())["import_s"]

    def command(self, trace: bool, match: int) -> dict:
        """Run one CLI command on one match; return its record with check failures."""
        truth, inputs = self.matches[match]
        out = self.work / f"cmd-{len(self.records):03d}"
        out.mkdir()
        report_path = out / "report.json"
        argv = self._argv(truth, inputs, out)
        t0 = time.monotonic()
        rec = {"id": len(self.records), "match": match, "trace": trace,
               "snapshots": truth["snapshots"], "failures": []}
        self.records.append(rec)
        try:
            done = self._spawn(report_path, trace, argv, rec["id"])
        except subprocess.TimeoutExpired:
            rec["wall_s"] = time.monotonic() - t0
            rec["failures"].append("timed out; the child was killed")
            return rec
        rec["wall_s"] = time.monotonic() - t0
        if done.returncode != 0 or not report_path.exists():
            rec["failures"].append(
                f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"
            )
            return rec
        rec.update(json.loads(report_path.read_text()))
        if self.workload.command == "calibrate":
            files = [out / "series.csv"]
            rec["failures"] += checks.check_series(files[0], truth)
        else:
            files = sorted((out / "hedge").iterdir())
            rec["failures"] += checks.check_replay(out / "hedge", done.stdout, truth)
        digests = {p.name: _digest(p) for p in files}
        digests["stdout"] = hashlib.sha256(done.stdout.encode()).hexdigest()
        if match not in self.reference:
            self.reference[match] = digests
        elif digests != self.reference[match]:
            kind = "traced" if trace else "repeated"
            rec["failures"].append(f"{kind} command wrote different outputs: {digests}")
        return rec


def _layer_metrics(traced: list[dict], untraced_main_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced commands' spans and counts."""
    parts = []
    for rec in traced:
        with np.load(rec["spans"]) as spans:
            parts.append({key: spans[key] for key in spans.files})
    names = list(parts[0]["names"])
    offsets = np.cumsum([0] + [len(p["start"]) for p in parts[:-1]])
    name = np.concatenate([p["name"] for p in parts]).astype(np.int64)
    dur = np.concatenate([p["end"] - p["start"] for p in parts]).astype(np.float64) * 1e-9
    parent = np.concatenate(
        [np.where(p["parent"] >= 0, p["parent"] + off, -1) for p, off in zip(parts, offsets)]
    )
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    n_cmd = len(traced)

    def ix(span: str) -> int:
        return names.index(span)

    def mask(span: str) -> np.ndarray:
        return name == ix(span)

    def within(span: str) -> np.ndarray:
        """Index of the nearest enclosing span (or self) named ``span``, else -1."""
        k = ix(span)
        anc = np.where(name == k, np.arange(len(name)), parent)
        while True:
            safe = np.maximum(anc, 0)
            step = (anc >= 0) & (name[safe] != k)
            if not step.any():
                return anc
            anc = np.where(step, parent[safe], anc)

    def per_cmd_s(span: str) -> float:
        return float(dur[mask(span)].sum()) / n_cmd

    def self_s(span: str) -> float:
        return float(self_time[mask(span)].sum()) / n_cmd

    def calls(span: str) -> float:
        return float(mask(span).sum()) / n_cmd

    def pct(span: str, q: float, scale: float) -> float:
        d = dur[mask(span)]
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = {}
    for rec in traced:
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0 if not isinstance(value, list) else []) + value
    cache = {}
    for _, _, key in CACHES:
        hits = sum(rec["cache"][key][0] for rec in traced)
        misses = sum(rec["cache"][key][1] for rec in traced)
        cache[key] = ratio(hits, hits + misses)

    snap = mask("calibration.calibrate_snapshot")
    in_snap = within("calibration.calibrate_snapshot") >= 0
    in_replay = within("hedging.replay_hedge") >= 0
    price, greeks = mask("pricing.price"), mask("pricing.greeks")
    price_in_greeks = price & has_parent & (name[np.maximum(parent, 0)] == ix("pricing.greeks"))
    iters = counts["calibration.iterations"]
    traced_main = statistics.median(rec["main_s"] for rec in traced)

    m = {
        "io.load_timeline.s": (per_cmd_s("io.load_timeline"), "s"),
        "io.build_timeline.s": (per_cmd_s("io.build_timeline"), "s"),
        "io.quote_rows": (counts["io.quote_rows"] / n_cmd, "count"),
        "io.write.s": (per_cmd_s("io.write"), "s"),
        "calibration.calibrate_series.s": (per_cmd_s("calibration.calibrate_series"), "s"),
        "calibration.calibrate_snapshot.calls": (calls("calibration.calibrate_snapshot"), "count"),
        "calibration.calibrate_snapshot.ms_p50": (pct("calibration.calibrate_snapshot", 50, 1e3), "ms"),
        "calibration.calibrate_snapshot.ms_p90": (pct("calibration.calibrate_snapshot", 90, 1e3), "ms"),
        "calibration.iterations.p50": (float(np.median(iters)) if iters else 0.0, "count"),
        "calibration.price_calls_per_snapshot": (
            ratio(float((price & in_snap).sum()), float(snap.sum())), "count"),
        "calibration.greeks_calls_per_snapshot": (
            ratio(float((greeks & in_snap).sum()), float(snap.sum())), "count"),
        "calibration.converged_ratio": (
            ratio(counts["calibration.converged"], counts["calibration.fitted"]), "ratio"),
        "calibration.gap_ratio": (
            ratio(counts["calibration.gaps"], counts["calibration.series_points"]), "ratio"),
        "pricing.price.calls": (calls("pricing.price"), "count"),
        "pricing.price.self_s": (self_s("pricing.price"), "s"),
        "pricing.price.us_p50": (pct("pricing.price", 50, 1e6), "us"),
        "pricing.price.us_p99": (pct("pricing.price", 99, 1e6), "us"),
        "pricing.greeks.calls": (calls("pricing.greeks"), "count"),
        "pricing.greeks.self_s": (self_s("pricing.greeks"), "s"),
        "pricing.greeks.us_p50": (pct("pricing.greeks", 50, 1e6), "us"),
        "pricing.greeks.us_p99": (pct("pricing.greeks", 99, 1e6), "us"),
        "pricing.price_calls_per_greeks": (
            ratio(float(price_in_greeks.sum()), float(greeks.sum())), "count"),
        "pricing.skellam_table.hit_ratio": (cache["pricing.skellam_table"], "ratio"),
        "distributions.skellam_pmf_range.calls": (calls("distributions.skellam_pmf_range"), "count"),
        "distributions.skellam_pmf_range.self_s": (self_s("distributions.skellam_pmf_range"), "s"),
        "distributions.poisson_tail.calls": (calls("distributions.poisson_tail"), "count"),
        "distributions.poisson_tail.self_s": (self_s("distributions.poisson_tail"), "s"),
        "distributions.poisson_pmf_vector.hit_ratio": (
            cache["distributions.poisson_pmf_vector"], "ratio"),
        "distributions.cap_for_tail.hit_ratio": (cache["distributions.cap_for_tail"], "ratio"),
        "hedging.replay_hedge.s": (per_cmd_s("hedging.replay_hedge"), "s"),
        "hedging.replay_hedge.self_s": (self_s("hedging.replay_hedge"), "s"),
        "hedging.steps": (counts["hedging.steps"] / n_cmd, "count"),
        "hedging.flagged_ratio": (ratio(counts["hedging.flagged"], counts["hedging.steps"]), "ratio"),
        "hedging.greeks_calls_per_step": (
            ratio(float((greeks & in_replay).sum()), counts["hedging.steps"]), "count"),
        "trace.overhead_ratio": (traced_main / untraced_main_s, "ratio"),
    }
    samples = {
        "traced_commands": n_cmd,
        "spans": int(len(name)),
        **{f"{span}.samples": int(mask(span).sum()) for span in MIN_SAMPLES},
        "calibration.iterations.samples": len(iters),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, samples


def _span_counts(rec: dict) -> dict:
    with np.load(rec["spans"]) as spans:
        names = list(spans["names"])
        counts = np.bincount(spans["name"].astype(np.int64), minlength=len(names))
    return {n: int(c) for n, c in zip(names, counts)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "inplay" / "cli.py").is_file():
        print(f"no inplay sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    matches = []
    for i, match_seed in enumerate(inputs.match_seeds(workload, seed)):
        in_dir = work / f"inputs-{i}"
        matches.append((inputs.generate(workload, match_seed, in_dir), in_dir))
    runner = Runner(workload, matches, work, started + HARD_LIMIT_S)

    loop_start = time.monotonic()
    if args.trace == 0:
        while runner.fits(loop_start + args.seconds):
            runner.command(trace=False, match=len(runner.records) % len(matches))
    else:
        # Untraced and traced commands alternate on the first match, so the
        # overhead ratio compares neighbours in time and every output can be
        # compared byte for byte with the untraced one.
        seen = dict.fromkeys(MIN_SAMPLES, 0)
        while True:
            runner.command(trace=False, match=0)
            rec = runner.command(trace=True, match=0)
            if rec["failures"]:
                break
            for span, n in _span_counts(rec).items():
                if span in seen:
                    seen[span] += n
            enough = all(n == 0 or n >= MIN_SAMPLES[s] for s, n in seen.items())
            if not runner.fits(runner.deadline, 2) or (
                enough and not runner.fits(loop_start + args.seconds, 2)
            ):
                break

    records = runner.records
    failed = [r for r in records if r["failures"]]
    ok = [r for r in records if not r["failures"]]
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "closed_loop": "one client; one command per fresh process, strictly sequential",
        "env": env_stamp(),
        "inputs": [{k: truth[k] for k in ("seed", "goals", "ht_score", "target", "snapshots",
                                          "quote_rows", "quotes_bytes")}
                   for truth, _ in matches],
        "commands": len(records),
        "error_rate": len(failed) / len(records),
        "failures": [f for r in failed for f in r["failures"]][:20],
    }
    metrics: dict = {}
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if args.trace == 0 and ok:
        imports = [r["import_s"] for r in ok]
        while len(imports) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
            imports.append(runner.probe_import())
        series = {
            "snapshots_per_s": [r["snapshots"] / r["main_s"] for r in ok],
            "setup_s": imports,
            "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in ok],
        }
        details["quartiles"] = {k: _quartiles(v) for k, v in series.items()}
        units = {"snapshots_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": statistics.median(v), "unit": units[k]}
                   for k, v in series.items()}
        metrics["success_ratio"] = {"value": len(ok) / len(records), "unit": "ratio"}
    elif args.trace == 1 and untraced and traced:
        untraced_main_s = statistics.median(r["main_s"] for r in untraced)
        metrics, details["samples"] = _layer_metrics(traced, untraced_main_s)
        details["main_s"] = {"untraced": [r["main_s"] for r in untraced],
                             "traced": [r["main_s"] for r in traced]}

    correct = not failed and bool(metrics)
    (work / "result.json").write_text(json.dumps({**details, "metrics": metrics}, indent=1),
                                      encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
