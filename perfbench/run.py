"""splitmodel benchmark: time to verdict on fixed CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a fresh interpreter that runs the CLI from the checkout's
``src`` as ``python3 -m splitmodel`` would (see job.py).  Jobs run one after
another, so no in-process cache carries over between them.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass of the workload plus the kernel
timings and reports the per-layer metrics.  Every report is checked; the
last line of standard output is one JSON object with the result.  See
README.md beside this file for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from job import MODULES, RSS_MARKER
from traced import SPAN_GROUPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "splitmodel"

PINNED_SEED = 0
SETUP_PROBES = 9
# a run that has not finished by then is killed and fails
RUN_DEADLINE_S = 170

# A job is the CLI argument list and whether it takes the workload seed.
# Exhaustive jobs take none: the full enumeration is their input.
WORKLOADS = {
    # enumerate-and-reject over F_3; the F_p kernels dominate
    "census-exhaustive": (
        ("census --n 4 --s 2 --q 3 --strategy exhaustive --workers 1", False),
    ),
    # lattice transfer over k(u); no enumeration
    "lattice-sampled": (
        ("schubert --n 6 --s 3 --q 3 --strategy chart-sampled --budget 100",
         True),
    ),
    # build-then-check jobs: charts, function-field and dual-number
    # degenerations, flat lifts over k(pi), the only Buchberger runs
    "chart-degeneration-mix": (
        ("charts --n 8 --s 4 --budget 200", True),
        ("closure --s 3", True),
        ("flatlift --budget 100", True),
        ("groebner --s 4 --allow-long", False),
    ),
}

CENSUS_STRATA = {(0, 0): 90, (0, 2): 40, (2, 2): 120}
CENSUS_EXAMINED = 5290


# which end-to-end metric each layer should move, and where; printed beside
# the per-layer figures (longest matching prefix wins)
LAYER_MAP = {
    "points": "wall_s, items_per_s on census-exhaustive; partly the mix",
    "points.sample": "wall_s on chart-degeneration-mix",
    "linalg": "wall_s on census-exhaustive",
    "linalg.smith_form_local": "wall_s on lattice-sampled",
    "linalg.smith_local_ms": "wall_s on lattice-sampled",
    "frame": "wall_s on census-exhaustive",
    "frame.congruence_transform": "wall_s on the mix; a little on "
                                  "lattice-sampled; 0 on census-exhaustive",
    "rings": "wall_s on lattice-sampled",
    "rings.ff_mul_ns": "wall_s on census-exhaustive",
    "lattices": "wall_s on lattice-sampled; 0 elsewhere",
    "degenerations": "wall_s on chart-degeneration-mix",
    "charts": "wall_s on chart-degeneration-mix (under 2 % of it)",
    "cli": "setup_s, wall_s on every workload",
    "trace": "none: tracing cost and the unattributed rest",
    "splitmodel": "none: source size, not gated",
}

# calls that must read 0 because the workload bypasses the layer
BYPASSED = {
    "census-exhaustive": ("lattices.calls", "frame.congruence_transform.calls",
                          "degenerations.calls", "charts.calls"),
    "lattice-sampled": ("linalg.enumerate.calls",),
    "chart-degeneration-mix": ("linalg.enumerate.calls", "lattices.calls"),
}


class Job(NamedTuple):
    argv: tuple
    seeded: bool

    def args(self, seed):
        return self.argv + (("--seed", str(seed)) if self.seeded else ())


def jobs_of(workload):
    return [Job(tuple(text.split()), seeded)
            for text, seeded in WORKLOADS[workload]]


def pass_seed(seed, k):
    """Job seed of pass k: pass 0 replays the pinned seed, whose reports
    have golden digests; later passes take fresh inputs from the seed."""
    return PINNED_SEED if k == 0 else seed * 1000 + k


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def report_problems(args, code, out, golden):
    """Everything wrong with one job's exit code and report bytes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(out)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if report.get("failures") != 0:
        problems.append(f"failures {report.get('failures')!r}")
    key = " ".join(args)
    if key in golden and hashlib.sha256(out).hexdigest() != golden[key]:
        problems.append("digest differs from the golden report")
    command = report.get("config", {}).get("command")
    if command != args[0]:
        problems.append(f"report is for command {command!r}")
    elif command == "census":
        strata = {(r["h"], r["l"]): r["count"]
                  for r in report["census"]["strata"]}
        if strata != CENSUS_STRATA:
            problems.append(f"census strata {strata}")
        examined = report["census"]["params"]["examined"]
        if examined != CENSUS_EXAMINED:
            problems.append(f"census examined {examined}")
    elif command == "schubert":
        phi = report["phi"]
        if phi["passed"] != phi["z_points"]:
            problems.append(f"phi passed {phi['passed']} of {phi['z_points']}")
        if report["tau"]["problems"]:
            problems.append("tau problems")
    return problems


def items_of(report):
    """Verified items in one report: what the job decided."""
    command = report["config"]["command"]
    if command == "census":
        return report["census"]["params"]["examined"]
    if command == "schubert":
        transferred = sum(c["count"] for c in report["tau"]["cells"])
        return transferred + report["phi"]["z_points"]
    if command == "charts":
        return report["checked"]
    if command == "closure":
        return len(report["lifts"]) + len(report["witnesses"])
    if command == "flatlift":
        return sum(p["checked"] for p in report["profiles"])
    if command == "groebner":
        stages = report.get("substitution", {}).get("stages", [])
        return 2 + len(report.get("certificates", {})) + len(stages)
    raise ValueError(f"no item count for {command!r}")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Proc(NamedTuple):
    code: int
    out: bytes
    err: str
    wall_s: float
    started: float


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline("run deadline reached")


def spawn(argv, scratch):
    """Run one fresh interpreter to exit; return its output and wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))
    with tempfile.TemporaryFile(dir=scratch) as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            code = proc.wait()
            wall = time.monotonic() - started
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Proc(code, out, text, wall, started)


def split_peak_rss(err):
    """Split a job's standard error into its own text and the peak RSS in
    MB that job.py appends (None when missing)."""
    text, marker, kb = err.rpartition(RSS_MARKER)
    return (text, int(kb) / 1024) if marker else (err, None)


def setup_times(jobs, seed, scratch, count):
    """Spawn-to-handler time of `count` probes, cycling through the jobs."""
    times = []
    for i in range(count):
        args = jobs[i % len(jobs)].args(pass_seed(seed, 1))
        proc = spawn([str(HERE / "job.py"), "probe", *args], scratch)
        if proc.code != 0:
            raise RuntimeError(f"set-up probe failed: {proc.err.strip()}")
        times.append(float(proc.out.decode().strip()) - proc.started)
    return times


def run_pass(jobs, seed, k, scratch, golden, seen, trace_stats=None):
    """Run the workload's jobs once with pass k's seed.  Return a dict with
    the wall time, peak RSS, items and problems of the pass.  ``seen`` maps
    argument lists to report digests, for the byte-identity rerun check.
    When ``trace_stats`` is a list, the jobs are traced and their span
    statistics are appended to it."""
    traced = trace_stats is not None
    result = {"wall_s": 0.0, "rss_mb": 0.0, "items": 0, "problems": [],
              "jobs": len(jobs), "report_bytes": 0, "reports": [],
              "label": f"pass {k}{' traced' if traced else ''}, "
                       f"seed {pass_seed(seed, k)}"}
    for job in jobs:
        args = job.args(pass_seed(seed, k))
        if not traced:
            proc = spawn([str(HERE / "job.py"), "run", *args], scratch)
        else:
            stats = Path(scratch) / "trace.json"
            proc = spawn([str(HERE / "traced.py"), "trace", str(stats), *args],
                         scratch)
        result["wall_s"] += proc.wall_s
        err, rss_mb = split_peak_rss(proc.err)
        problems = report_problems(args, proc.code, proc.out, golden)
        if rss_mb is None:
            problems.append("no peak RSS reported")
        else:
            result["rss_mb"] = max(result["rss_mb"], rss_mb)
        digest = hashlib.sha256(proc.out).hexdigest()
        if seen.setdefault(args, digest) != digest:
            problems.append("report differs from an earlier run of the job")
        if not problems:
            report = json.loads(proc.out)
            result["items"] += items_of(report)
            result["report_bytes"] += len(proc.out)
            result["reports"].append(report)
            if traced:
                trace_stats.append(json.loads(stats.read_text()))
        result["problems"] += [f"{' '.join(args)}: {p}" for p in problems]
        if err.strip() and proc.code != 0:
            result["problems"].append(err.strip().splitlines()[-1])
    return result


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds, scratch, golden):
    jobs = jobs_of(workload)
    start = time.monotonic()
    setup = statistics.median(setup_times(jobs, seed, scratch, SETUP_PROBES))
    passes, seen = [], {}
    while True:
        passes.append(run_pass(jobs, seed, len(passes), scratch, golden, seen))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= 2 and elapsed + typical > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup,
        "items_per_s": statistics.median(
            p["items"] / (p["wall_s"] - p["jobs"] * setup) for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return metrics, passes


def sloc():
    counts = {f"{m}.sloc": len((PACKAGE / f"{m}.py").read_text().splitlines())
              for m in MODULES}
    counts["splitmodel.sloc"] = sum(
        len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    return counts


def layer_metrics(stats, traced, untraced):
    """Per-layer metrics from the merged span statistics of a traced pass."""
    entries, self_s = {}, {}
    for s in stats:
        for layer, n in s["entries"].items():
            entries[layer] = entries.get(layer, 0) + n
        for span, t in s["self_s"].items():
            self_s[span] = self_s.get(span, 0.0) + t
    metrics = {}
    for layer in (*SPAN_GROUPS, *MODULES):
        spans = SPAN_GROUPS.get(layer) or [
            s for s in self_s if s.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = entries.get(layer, 0)
        metrics[f"{layer}.self_s"] = sum((self_s.get(s, 0.0) for s in spans),
                                         0.0)
    examined = sum(s["validated"]["examined"] for s in stats)
    accepted = sum(s["validated"]["accepted"] for s in stats)
    metrics["points.examined"] = examined
    metrics["points.accept_ratio"] = accepted / examined if examined else 0.0
    for reason in ("isotropy", "spin"):
        metrics[f"points.rejected.{reason}"] = sum(
            s["validated"]["rejected"].get(reason, 0) for s in stats)
    metrics["charts.pairs_processed"] = sum(
        r[basis]["pairs_processed"] for r in traced["reports"]
        for basis in ("basis_special", "basis_generic") if basis in r)
    metrics["cli.report_bytes"] = traced["report_bytes"]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["trace.unattributed_s"] = traced["wall_s"] - sum(self_s.values())
    return metrics


def trace_problems(workload, metrics, stats):
    problems = []
    attributed = sum(sum(s["self_s"].values()) for s in stats)
    roots = sum(s["root_s"] for s in stats)
    if abs(attributed - roots) > 1e-6 * max(1.0, roots):
        problems.append(f"self times sum to {attributed}, root spans {roots}")
    if metrics["trace.unattributed_s"] < 0:
        problems.append("self times exceed the traced wall time")
    for name in BYPASSED[workload]:
        if metrics[name] != 0:
            problems.append(f"{name} is {metrics[name]} on a workload "
                            "predicted to bypass it")
    return problems


def per_layer(workload, seed, scratch, golden):
    jobs = jobs_of(workload)
    seen = {}
    untraced = run_pass(jobs, seed, 1, scratch, golden, seen)
    stats = []
    traced = run_pass(jobs, seed, 1, scratch, golden, seen, trace_stats=stats)
    kernel_out = Path(scratch) / "kernels.json"
    proc = spawn([str(HERE / "traced.py"), "kernels", str(kernel_out),
                  str(seed)], scratch)
    kernels = {"label": "kernels", "problems": [f"kernels exit code {proc.code}"]
               if proc.code else []}
    metrics = sloc()
    if not proc.code:
        result = json.loads(kernel_out.read_text())
        metrics.update(result["values"])
        kernels["problems"] += [f"kernel {k} answered wrong"
                                for k in result["wrong"]]
    if not traced["problems"]:
        metrics.update(layer_metrics(stats, traced, untraced))
        traced["problems"] += trace_problems(workload, metrics, stats)
    # the set-up probes here only fill the end-to-end lines of the table
    setup = statistics.median(setup_times(jobs, seed, scratch, 3))
    table = {
        "wall_s": untraced["wall_s"], "setup_s": setup,
        "items_per_s": untraced["items"]
        / (untraced["wall_s"] - untraced["jobs"] * setup),
        "peak_rss_mb": untraced["rss_mb"],
    }
    return metrics, [untraced, traced, kernels], table


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def layer_note(name):
    prefixes = [p for p in LAYER_MAP if name == p or name.startswith(p + ".")]
    return LAYER_MAP[max(prefixes, key=len)] if prefixes else ""


def print_table(title, values, units, notes=False):
    print(f"# {title}")
    for name, value in values.items():
        note = f"  -> {layer_note(name)}" if notes else ""
        print(f"{name:40s} {value:16.6f} {units[name]:6s}{note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        sys.exit(f"no splitmodel sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    golden = json.loads((HERE / "golden.json").read_text())

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    signal.signal(signal.SIGALRM, _on_alarm)
    # on SIGTERM, unwind through spawn() so that the running job is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    signal.alarm(RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics, attempts, table = per_layer(args.workload, args.seed,
                                                 scratch, golden)
            units = layer_units
        else:
            metrics, attempts = end_to_end(
                args.workload, args.seed, args.seconds, scratch, golden)
            table, units = metrics, e2e_units
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for a in attempts if a["problems"])
    for a in attempts:
        if "wall_s" in a:
            print(f"# {a['label']}: wall {a['wall_s']:.3f} s, "
                  f"{a['items']} items, peak RSS {a['rss_mb']:.1f} MB")
        for problem in a["problems"]:
            print(f"ERROR {a['label']}: {problem}")
    print_table(f"end to end, {args.workload}"
                + (" (one untraced pass)" if args.trace else
                   f" (median of {len(attempts)} passes, set-up of "
                   f"{SETUP_PROBES} probes)"), table, e2e_units)
    print(f"{'error_rate':40s} {failed / len(attempts):16.6f} "
          f"({failed} of {len(attempts)} runs failed)")
    if args.trace:
        if failed:
            # a failed pass leaves layers unmeasured; the result says so
            metrics.update({name: 0 for name in set(layer_units) - set(metrics)})
        print_table(f"per layer, {args.workload}",
                    {n: metrics[n] for n in layer_units}, layer_units,
                    notes=True)
    if set(metrics) != set(units):
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
