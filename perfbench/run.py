#!/usr/bin/env python3
"""Benchmark of prymcubic: three seeded workloads, each run as a closed loop
(one client, one process, one thread: the next job starts when the previous
one returns), every job's output checked.

    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --workload trace_fp --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --runs 10 --out A.jsonl     # seeds 1..10, all workloads
    python3 perfbench/run.py --compare A.jsonl B.jsonl   # verdict per metric
    python3 perfbench/run.py --record             # rewrite expected.json

perfbench/baseline.jsonl holds ten seeds of every workload measured at the
commit that added the benchmark (its environment is in each record).

A run prints a readable summary and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` a traced run
follows one untraced round and the metrics are the per-layer ones.  Spans
and the full layer table of a traced run go to perfbench/out/.

Run it from the root of a checkout: the program is imported from ./src.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 9
TAIL_BEYOND = 10

# On a shared machine the speed of one core can drift by +-20% over minutes,
# longer than a run, which would swamp the differences the benchmark is for.
# So every job and every set-up probe is preceded by reference_loop(), fixed
# pure-Python work outside the program, and a time t measured while the loop
# took r seconds is reported as t * REFERENCE_S / r: the time at the speed at
# which the loop takes REFERENCE_S.  Wall-clock figures are printed and
# recorded beside the reported ones.
REFERENCE_S = 0.0015
REF_WINDOW = 15


class BenchError(Exception):
    """The benchmark cannot run here."""


def reference_loop():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def reference_seconds():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def import_program():
    """Import prymcubic from ./src of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "prymcubic" / "__init__.py").is_file():
        raise BenchError("no program source at %s" % (src / "prymcubic"))
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import prymcubic
    if Path(prymcubic.__file__).resolve().parent != (src / "prymcubic").resolve():
        raise BenchError("prymcubic imported from %s, not %s" % (prymcubic.__file__, src))
    import workloads
    return workloads


def load_benchmark():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def load_expected():
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed):
    """Import, read the shipped data, make the seeded round of jobs."""
    wl = import_program()
    if workload not in wl.WORKLOADS:
        raise BenchError("unknown workload %r; choose from %s" % (workload, ", ".join(wl.WORKLOADS)))
    data = wl.load_data(ROOT / "src" / "prymcubic" / "data")
    jobs = wl.make_jobs(workload, seed, data, load_expected().get(workload))
    return wl, jobs


def probe_setup_seconds(workload, seed):
    """Wall times of SETUP_PROBES fresh processes that set up and exit, each
    with the reference loop's time just before it."""
    times = []
    for _ in range(SETUP_PROBES):
        ref = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0, ref))
    return times


# -- the closed loop ------------------------------------------------------------------


class Loop:
    """Whole rounds of the jobs, each in a seeded order, until `seconds` have
    passed (at least one round).  Every job runs right after one timing of
    the reference loop; `runs` keeps (job index, latency, reference time) in
    execution order."""

    def __init__(self, wl, jobs, seed, seconds, max_rounds=None, tracer=None):
        self.runs = []
        self.statuses = Counter()
        self.failures = {}
        self.refusals = {}
        self.observed = {}
        self.rounds = 0
        self.round_walls = []
        self.n_jobs = len(jobs)
        clock = time.perf_counter
        t0 = clock()
        while True:
            r0 = clock()
            for idx in wl.round_order(jobs, seed, self.rounds):
                job = jobs[idx]
                ref = reference_seconds()
                if tracer is not None:
                    tracer.start_job(idx)
                s = clock()
                outcome = wl.run_job(job)
                self.runs.append((idx, clock() - s, ref))
                self.statuses[outcome.status] += 1
                if outcome.status == "failed":
                    self.failures.setdefault(job.label, outcome.detail)
                elif outcome.status == "refused":
                    self.refusals[job.label] = outcome.detail
                self.observed.setdefault(job.label, outcome.observed)
            self.rounds += 1
            self.round_walls.append(clock() - r0)
            elapsed = clock() - t0
            if tracer is not None:
                tracer.start_job(-1)
            if elapsed >= seconds or self.rounds == max_rounds:
                break
        self.wall = elapsed
        self.attempted = self.rounds * len(jobs)
        self.failed = self.statuses["failed"]

    def per_job(self, wall_clock=False):
        """Each job's latencies over the rounds, in seconds: as measured, or
        at reference speed.  The speed at a job is the median reference time
        of the REF_WINDOW jobs run around it, since a single 1.5 ms timing
        jitters more than the machine's speed drifts."""
        out = [[] for _ in range(self.n_jobs)]
        refs = [r for _, _, r in self.runs]
        for k, (idx, latency, _) in enumerate(self.runs):
            if wall_clock:
                out[idx].append(latency)
            else:
                near = refs[max(0, k - REF_WINDOW // 2):k + REF_WINDOW // 2 + 1]
                out[idx].append(latency * REFERENCE_S / statistics.median(near))
        return out

    def jobs_per_s(self, wall_clock=False):
        """Correct jobs per second of job time at reference speed, or per
        second of the run's wall clock."""
        busy = self.wall if wall_clock else sum(map(sum, self.per_job()))
        return (self.attempted - self.failed) / busy

    def per_job_ms(self, wall_clock=False):
        """Each job's median latency over the rounds, in ms, sorted."""
        return sorted(1000 * statistics.median(ls) for ls in self.per_job(wall_clock))

    def speed(self):
        """Median machine speed relative to reference speed."""
        return statistics.median(REFERENCE_S / r for _, _, r in self.runs)


def tail(per_job):
    """Latency with TAIL_BEYOND jobs beyond it, its percentile, and how many
    jobs lie beyond.  Percentiles are over the distinct jobs of a round (each
    the median of its rounds), so the percentile depends on the workload and
    not on how many rounds the code under test manages in the run time."""
    n = len(per_job)
    if n <= TAIL_BEYOND:
        return per_job[-1], 100.0, 0
    return per_job[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tag_histogram(loop):
    return dict(sorted(Counter(o["tag"] for o in loop.observed.values() if "tag" in o).items()))


def summary_lines(workload, seed, loop, jobs):
    lines = ["%s seed %d: %d rounds x %d jobs in %.2f s" % (workload, seed, loop.rounds,
                                                           len(jobs), loop.wall)]
    lines.append("  fail_ratio    %.4f (%d of %d attempted failed)"
                 % (loop.failed / loop.attempted, loop.failed, loop.attempted))
    for label, detail in sorted(loop.failures.items()):
        lines.append("    FAILED %s: %s" % (label, detail))
    lines.append("  refusals      %d per round%s" % (len(loop.refusals), "".join(
        "\n    %s: %s" % kv for kv in sorted(loop.refusals.items()))))
    hist = tag_histogram(loop)
    if hist:
        lines.append("  tags/round    " + ", ".join("%s %d" % kv for kv in hist.items()))
    return lines


def end_to_end(wl, jobs, workload, seed, seconds):
    """An untraced run: end-to-end metrics and the run's record."""
    probes = probe_setup_seconds(workload, seed)
    setup_s = statistics.median(t * REFERENCE_S / r for t, r in probes)
    loop = Loop(wl, jobs, seed, seconds)
    per_job = loop.per_job_ms()
    tail_ms, tail_pct, beyond = tail(per_job)
    metrics = {
        "jobs_per_s": loop.jobs_per_s(),
        "job_p50_ms": statistics.median(per_job),
        "job_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {"jobs_per_s": loop.jobs_per_s(wall_clock=True),
            "job_p50_ms": statistics.median(loop.per_job_ms(wall_clock=True)),
            "job_tail_ms": tail(loop.per_job_ms(wall_clock=True))[0],
            "setup_s": statistics.median(t for t, _ in probes)}
    lines = summary_lines(workload, seed, loop, jobs)
    lines[1:1] = [
        "  machine speed x%.3f of reference; figures at reference speed (wall clock)"
        % loop.speed(),
        "  jobs_per_s    %.4f 1/s (%.4f)" % (metrics["jobs_per_s"], wall["jobs_per_s"]),
        "  job_p50_ms    %.2f ms (%.2f)" % (metrics["job_p50_ms"], wall["job_p50_ms"]),
        "  job_tail_ms   %.2f ms (%.2f) at p%.1f, %d of %d jobs beyond"
        % (tail_ms, wall["job_tail_ms"], tail_pct, beyond, len(jobs)),
        "  setup_s       %.4f s (%.4f), median of %d fresh processes"
        % (setup_s, wall["setup_s"], SETUP_PROBES),
        "  peak_rss_mb   %.1f MB" % metrics["peak_rss_mb"]]
    extra = {"tail_percentile": tail_pct, "tail_beyond": beyond,
             "fail_ratio": loop.failed / loop.attempted, "refused": loop.statuses["refused"],
             "refusals": sorted(loop.refusals), "tag_histogram": tag_histogram(loop),
             "rounds": loop.rounds, "jobs_per_round": len(jobs), "wall_s": loop.wall,
             "wall_clock": wall, "speed": loop.speed(), "round_walls": loop.round_walls,
             "setup_probes": probes, "runs": loop.runs}
    return loop, metrics, lines, extra


def traced(wl, jobs, workload, seed, seconds):
    """One untraced round for the overhead baseline, then a traced run."""
    import tracer as tr
    base = Loop(wl, jobs, seed, 0, max_rounds=1)
    tracer = tr.Tracer()
    tracer.install()
    try:
        loop = Loop(wl, jobs, seed, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics(loop.rounds, loop.wall, base.jobs_per_s(), loop.jobs_per_s())
    lines = summary_lines(workload, seed, loop, jobs)
    lines.append("  traced jobs_per_s %.4f vs untraced %.4f: overhead x%.2f"
                 % (loop.jobs_per_s(), base.jobs_per_s(), layer["trace.overhead"]))
    lines.append("  self time of all spans %.2f s of %.2f s wall (%.1f%%)"
                 % (layer["trace.self_share"] * loop.wall, loop.wall,
                    100 * layer["trace.self_share"]))
    lines += kind_breakdown(tracer, loop, jobs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (workload, seed)
    tracer.write_spans(OUT_DIR / ("spans-%s.txt.gz" % stem), [j.label for j in jobs])
    with open(OUT_DIR / ("layers-%s.json" % stem), "w", encoding="utf-8") as fh:
        json.dump({"rounds": loop.rounds, "wall_s": loop.wall,
                   "spans": {k: {"calls": c, "self_s": s, "errors": e}
                             for k, (c, s, e) in sorted(tracer.layer_table().items())}},
                  fh, indent=1, sort_keys=True)
    lines.append("  spans written to %s" % (OUT_DIR / ("spans-%s.txt.gz" % stem)))
    return loop, layer, lines, {"rounds": loop.rounds, "wall_s": loop.wall}


def kind_breakdown(tracer, loop, jobs):
    """Per job kind: wall time, FieldElement ops per second, and the layers
    holding the most self time."""
    by_job = tracer.by_job()
    ops = tracer.job_ops
    lines = ["  per job kind (all rounds):"]
    kinds = sorted({j.kind for j in jobs})
    for kind in kinds:
        ids = [j.id for j in jobs if j.kind == kind]
        latencies = loop.per_job(wall_clock=True)
        wall = sum(sum(latencies[i]) for i in ids)
        layers = Counter()
        for i in ids:
            layers.update(by_job.get(i, {}))
        top = ", ".join("%s %.0f%%" % (name, 100 * s / wall) for name, s in layers.most_common(4))
        lines.append("    %-10s %4d jobs %8.2f s  fields.ops %9.0f/s  self: %s"
                     % (kind, len(ids) * loop.rounds, wall,
                        sum(ops.get(i, 0) for i in ids) / wall, top))
    return lines


def run_one(args):
    wl, jobs = setup(args.workload, args.seed)
    setup_here = time.perf_counter() - PROCESS_START
    run = traced if args.trace else end_to_end
    loop, metrics, lines, extra = run(wl, jobs, args.workload, args.seed, args.seconds)
    lines.insert(1, "  (this process: %.3f s from start to the first job)" % setup_here)
    listed = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(args.seed),
                  "attempted": loop.attempted, "failed": loop.failed,
                  "metrics": {m["name"]: metrics[m["name"]] for m in listed}}
        record.update(extra)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


def run_all(args):
    """Every workload for seeds seed..seed+runs-1, each in its own process so
    that peak RSS belongs to one workload; a table of the results at the end."""
    wl = import_program()
    rows = []
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for workload in wl.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", str(Path(args.out).resolve())]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append((workload, seed, result))
            status = status or (0 if result["correct"] else 1)
    print()
    for workload, seed, result in rows:
        cells = ["%s %.4g %s" % (k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        print("%-12s seed %-3d fail_ratio %.4f  %s" % (
            workload, seed, result["failed"] / result["attempted"], "  ".join(cells)))
    return status


def record():
    """Write expected.json: every job's output at the default seed, except
    for the normal forms, whose tags come with normal_forms.json.  trace_fp
    inputs do not depend on the seed, so its outputs hold for every seed."""
    wl = import_program()
    data = wl.load_data(ROOT / "src" / "prymcubic" / "data")
    doc = {"environment": environment(DEFAULT_SEED)}
    for workload in wl.WORKLOADS:
        table = {}
        for job in wl.make_jobs(workload, DEFAULT_SEED, data, None):
            if job.kind == "normal":
                continue
            outcome = wl.run_job(job)
            if outcome.status == "failed":
                raise BenchError("%s %s failed: %s" % (workload, job.label, outcome.detail))
            table[job.label] = outcome.observed
        doc[workload] = {
            "seed": None if workload == "trace_fp" else DEFAULT_SEED,
            "refusals": sorted(k for k, v in table.items() if "refusal" in v),
            "tag_histogram": dict(sorted(Counter(
                v["tag"] for v in table.values() if "tag" in v).items())),
            "jobs": table,
        }
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % EXPECTED)
    return 0


# -- compare ---------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Compare run sets by seed: "better" needs B to win 9 of 10 seed pairs
    and to beat A's median by more than A's quartile spread; "worse" is a
    median worse by more than the bound; a spread wider than the bound is
    "unresolved" unless every B run beats every A run."""
    sign = 1 if better == "higher" else -1
    va, vb = list(a.values()), list(b.values())
    q1a, ma, q3a = quartiles(va)
    q1b, mb, q3b = quartiles(vb)
    if max((q3a - q1a) / ma, (q3b - q1b) / mb) > bound:
        beats_all = min(vb) > max(va) if sign > 0 else max(vb) < min(va)
        return "better" if beats_all else "unresolved"
    pairs = [s for s in a if s in b]
    wins = sum(1 for s in pairs if sign * (b[s] - a[s]) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > q3a - q1a:
        return "better"
    if sign * (mb - ma) / ma < -bound:
        return "worse"
    return "within bound"


def load_records(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def compare(path_a, path_b):
    a, b = load_records(path_a), load_records(path_b)
    print("%-12s %-12s %32s %32s  %s" % ("workload", "metric", "A median [q1, q3]",
                                        "B median [q1, q3]", "verdict"))
    for workload in sorted(set(a) | set(b)):
        for m in load_benchmark()["end_to_end"]:
            if workload not in a or workload not in b:
                print("%-12s %-12s only one side has runs" % (workload, m["name"]))
                continue
            va = {s: r["metrics"][m["name"]] for s, r in a[workload].items()}
            vb = {s: r["metrics"][m["name"]] for s, r in b[workload].items()}
            cells = []
            for v in (va, vb):
                q1, med, q3 = quartiles(list(v.values()))
                cells.append("%.4g [%.4g, %.4g] %s" % (med, q1, q3, m["unit"]))
            print("%-12s %-12s %32s %32s  %s" % (workload, m["name"], cells[0], cells[1],
                                                verdict(va, vb, m["better"], m["bound"])))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="run time of one run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append one JSON record per run to this file")
    p.add_argument("--runs", type=int, default=1,
                   help="without --workload: seeds seed..seed+runs-1 of every workload")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--record", action="store_true", help="rewrite expected.json")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        if args.setup_only:
            setup(args.workload, args.seed)
            return 0
        if args.record:
            return record()
        if args.workload:
            return run_one(args)
        return run_all(args)
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
