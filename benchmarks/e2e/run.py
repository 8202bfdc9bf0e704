"""End-to-end benchmark of the ``repro-trace`` CLI.

Times the real command as child processes, from spawn to exit, on four
workloads; checks every output against a ground truth that shares no
code with the analysis (:mod:`oracle`); reports wall times in reference
seconds (see README.md); and attributes the wall time of a separate
traced run to the repository's layers (:mod:`traced`).

One workload, last stdout line a JSON result::

    python3 benchmarks/e2e/run.py --workload html-report --seed 7 --seconds 10 --trace 0

Every workload in interleaved rounds, then traced passes of each::

    python3 benchmarks/e2e/run.py [--seed S] [--rounds N] [--json OUT] [--quick]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Everything is written under ``.bench_e2e/`` at the repository root and
removed afterwards, except the ``--json`` record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import oracle
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"

#: Median wall time of ``probe.py`` in quiet stretches on the machine the
#: benchmark was defined on (2-core VM, Python 3.11, numpy 2.4).
#: Dividing by the probe and multiplying by this constant turns seconds
#: into reference seconds: what the command would have taken there.
PROBE_REF_S = 0.34
SETUP_REPEATS = 3
DEFAULT_SEED = 20160816
DEFAULT_ROUNDS = 16
#: Per-layer metrics that come from traced set-up commands rather than
#: from the workload's own command.
SETUP_LAYERS = ("sim.generate_s", "sim.write_s", "cache.store_s", "cache.bytes_written")


@dataclass(frozen=True)
class TraceSpec:
    processes: int
    iterations: int

    @property
    def file_name(self) -> str:
        return f"cosmo-{self.processes}x{self.iterations}.rpt"


#: ``fig4`` is the paper's Fig. 4 configuration; ``large`` has 1.44x its
#: events, as many as three set-up simulations allow while a run still
#: fits its time budget.
TRACES = {"fig4": TraceSpec(100, 60), "large": TraceSpec(144, 60)}
#: ``--quick``: the smallest square grids on which the cloud covers six
#: distinct ranks (see ``oracle.hot_ranks``).
QUICK_TRACES = {"fig4": TraceSpec(49, 10), "large": TraceSpec(64, 10)}


@dataclass(frozen=True)
class Workload:
    name: str
    trace: str
    #: CLI arguments; ``{trace}`` and ``{cache}`` are filled in, and
    #: relative output paths land in the sample's own directory.
    args: tuple[str, ...]

    @property
    def primed(self) -> bool:
        return "{cache}" in self.args


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm-cache", "fig4", ("analyze", "{trace}", "--cache-dir", "{cache}")),
        Workload("html-report", "fig4",
                 ("analyze", "{trace}", "--html", "out.html", "--json", "out.json")),
        Workload("bulk-preflight", "large",
                 ("analyze", "{trace}", "--preflight", "--json", "out.json")),
        Workload("stream-monitor", "large", ("monitor", "{trace}")),
    )
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    """Environment for every child: one thread, fixed hashing, no telemetry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "repro", *map(str, args)]


@dataclass
class Run:
    """One finished child process."""

    code: int
    spawned: float
    exited: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.exited - self.spawned


class Bench:
    """Runs children one at a time and keeps the probe series.

    Every timed child is followed by a probe, so each sample sits
    between two probes; :meth:`timed` returns the sample's wall time
    divided by their mean, in reference seconds.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = child_env()
        self.probes: list[float] = []
        self.probe()

    def spawn(self, argv: list[str], cwd: Path) -> Run:
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            exited = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(
            code=proc.returncode,
            spawned=spawned,
            exited=exited,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=(cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
            stderr=(cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
        )

    def probe(self) -> float:
        run = self.spawn([sys.executable, str(HERE / "probe.py")], self.work)
        if run.code != 0:
            raise RuntimeError(f"probe failed: {run.stderr[-500:]}")
        self.probes.append(run.wall)
        return run.wall

    def timed(self, runs: list[Run]) -> float:
        """Reference seconds of ``runs`` (just finished), probing after them."""
        before = self.probes[-1]
        after = self.probe()
        return sum(r.wall for r in runs) * PROBE_REF_S * 2.0 / (before + after)

    def scratch(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))


@dataclass
class Sample:
    ref: float
    wall: float
    rss_mb: float
    ok: bool


@dataclass
class Job:
    """One workload's inputs, ground truth and collected samples."""

    workload: Workload
    trace: Path
    cache: Path
    truth: oracle.Truth
    setup_ref: list[float] = field(default_factory=list)
    setup_rss_mb: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def args(self) -> list[str]:
        return [a.format(trace=self.trace, cache=self.cache) for a in self.workload.args]

    def check(self, run: Run, cwd: Path) -> bool:
        """Oracle-check one run of the workload's command; count it."""
        args = self.workload.args
        problems = oracle.check_process(run.code, run.stderr)
        if args[0] == "monitor":
            problems += oracle.check_monitor(run.stdout, self.truth)
        else:
            problems += oracle.check_report(run.stdout, self.truth)
        if "--json" in args:
            problems += oracle.check_json(cwd / "out.json", self.truth)
        if "--html" in args:
            problems += oracle.check_html(cwd / "out.html", self.truth)
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
        return not problems


def _checked(run: Run, what: str) -> Run:
    if run.code != 0:
        raise RuntimeError(f"{what} exited {run.code}: {run.stderr[-800:]}")
    return run


def simulate_args(spec: TraceSpec, seed: int, out: Path) -> list[str]:
    return ["simulate", "cosmo_specs", "--processes", str(spec.processes),
            "--iterations", str(spec.iterations), "--seed", str(seed), "-o", str(out)]


def new_job(workload: Workload, spec: TraceSpec, seed: int, where: Path, sim: Run) -> Job:
    truth = oracle.Truth(
        oracle.hot_ranks(spec.processes, spec.iterations, seed),
        oracle.simulated_events(sim.stdout),
    )
    return Job(workload, where / spec.file_name, where / "cache", truth)


def set_up(bench: Bench, workload: Workload, seed: int, traces: dict, repeats: int) -> Job:
    """Simulate the workload's trace (and prime its cache) ``repeats`` times.

    Each repeat starts from an empty directory and is timed as one
    sample; the last repeat's files are the inputs of the timed runs.
    """
    spec = traces[workload.trace]
    setup_ref, setup_rss = [], []
    for _ in range(repeats):
        where = bench.scratch()
        sim = _checked(bench.spawn(cli(*simulate_args(spec, seed, where / spec.file_name)), where),
                       "simulate")
        job = new_job(workload, spec, seed, where, sim)
        runs = [sim]
        if workload.primed:
            prime = cli("analyze", job.trace, "--cache-dir", job.cache)
            runs.append(_checked(bench.spawn(prime, where), "priming"))
        setup_ref.append(bench.timed(runs))
        setup_rss.append(max(r.rss_mb for r in runs))
    job.setup_ref, job.setup_rss_mb = setup_ref, setup_rss
    return job


def sample(bench: Bench, job: Job) -> Sample:
    """Run the workload's command once, timed and oracle-checked."""
    cwd = bench.scratch()
    run = bench.spawn(cli(*job.args()), cwd)
    ref = bench.timed([run])
    ok = job.check(run, cwd)
    shutil.rmtree(cwd)
    return Sample(ref, run.wall, run.rss_mb, ok)


def measure(bench: Bench, jobs: list[Job], rounds: int | None, seconds: float | None) -> None:
    """Sample in rounds until ``rounds`` rounds or ``seconds`` have passed.

    Even rounds run the workloads in order, odd rounds in reverse, so no
    workload always follows the same neighbour.
    """
    start = time.perf_counter()
    done = 0
    while True:
        for job in jobs if done % 2 == 0 else jobs[::-1]:
            job.samples.append(sample(bench, job))
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break


def _stat(values: list[float], unit: str) -> dict:
    """Median with the samples' quartiles and the median's own quartiles.

    ``median_p25``/``median_p75`` come from 2000 bootstrap resamples:
    how far the median itself would move between runs like this one.
    """
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(values, k=len(values))) for _ in range(2000))
    return {"value": statistics.median(values), "unit": unit, "p25": q[0], "p75": q[2],
            "median_p25": medians[500], "median_p75": medians[1500], "n": len(values)}


def e2e_metrics(job: Job, units: dict[str, str]) -> dict:
    # Timings come from the samples that passed the oracle; when none
    # did, from all of them, so the record still has numbers.
    timed = [s for s in job.samples if s.ok] or job.samples
    wall = _stat([s.ref for s in timed], units["wall_p50_s"])
    wall["raw_p50"] = statistics.median(s.wall for s in timed)
    rss_max = max(job.setup_rss_mb)
    return {
        "wall_p50_s": wall,
        "peak_rss_mb": _stat([s.rss_mb for s in timed], units["peak_rss_mb"]),
        "setup_s": _stat(job.setup_ref, units["setup_s"]),
        "setup_rss_mb": {"value": rss_max, "unit": units["setup_rss_mb"], "p25": rss_max,
                         "p75": rss_max, "median_p25": rss_max, "median_p75": rss_max,
                         "n": len(job.setup_rss_mb)},
        "failed_frac": {"value": len(job.failures) / job.attempted, "unit": "ratio"},
    }


# -- traced runs ---------------------------------------------------------------


def import_profile(bench: Bench, args: list[str], cwd: Path) -> tuple[Path, dict[str, float]]:
    """Module list and per-package import share of one ``-X importtime`` run."""
    run = bench.spawn([sys.executable, "-X", "importtime", "-m", "repro", *args], cwd)
    top: list[str] = []
    per_package = dict.fromkeys(traced.PACKAGES, 0)
    for line in run.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        head, _cumulative, name = line.split("|", 2)
        self_us = head.partition(":")[2].strip()
        if not self_us.isdigit():
            continue  # the column header
        package = name.strip().split(".")[0]
        per_package[package if package in per_package else "other"] += int(self_us)
        if len(name) - len(name.lstrip()) == 1:  # nesting depth 0
            top.append(name.strip())
    total = sum(per_package.values()) or 1
    modules = cwd / "modules.txt"
    modules.write_text("\n".join(top), encoding="utf-8")
    return modules, {k: v / total for k, v in per_package.items()}


def traced_run(bench: Bench, args: list[str], modules: Path, split: dict, cwd: Path) -> tuple[Run, dict]:
    """One traced child; per-layer metrics with times in reference seconds."""
    spans = cwd / "spans.json"
    run = bench.spawn([sys.executable, str(HERE / "traced.py"), str(spans), str(modules), *args], cwd)
    scale = bench.timed([run]) / run.wall
    if not spans.exists():
        return run, {}
    metrics = traced.layer_metrics(spans.read_text(encoding="utf-8"), run.spawned, run.exited, split)
    return run, {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}


def trace_command(bench: Bench, args: list[str], cwd: Path, reset=None) -> tuple[Run, dict]:
    """Import profile plus one traced run of a set-up command.

    ``reset`` runs between the two, to undo what the first run wrote.
    """
    modules, split = import_profile(bench, args, cwd)
    if reset is not None:
        reset()
    run, metrics = traced_run(bench, args, modules, split, cwd)
    return _checked(run, f"traced {args[0]}"), metrics


def trace_workload(bench: Bench, workload: Workload, seed: int, traces: dict,
                   seconds: float) -> tuple[Job, dict]:
    """Traced set-up, then (untraced, traced) pairs of the command for ``seconds``.

    Per-layer values are medians over the traced passes; the untraced
    samples next to them measure the tracing overhead.
    """
    spec = traces[workload.trace]
    where = bench.scratch()
    sim, setup = trace_command(bench, simulate_args(spec, seed, where / spec.file_name), where)
    job = new_job(workload, spec, seed, where, sim)
    if workload.primed:
        prime = ["analyze", str(job.trace), "--cache-dir", str(job.cache)]
        _, primed = trace_command(bench, prime, where, reset=lambda: shutil.rmtree(job.cache))
        setup.update({k: primed[k] for k in ("cache.store_s", "cache.bytes_written")})
    modules, split = import_profile(bench, job.args(), bench.scratch())
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        job.samples.append(sample(bench, job))
        cwd = bench.scratch()
        run, metrics = traced_run(bench, job.args(), modules, split, cwd)
        if job.check(run, cwd) and metrics:
            passes.append(metrics)
        shutil.rmtree(cwd)
        if time.perf_counter() - start >= seconds:
            break
    if not passes:
        return job, dict.fromkeys((*traced.METRICS, "traced.overhead_frac"), 0)
    layers = {k: statistics.median(p[k] for p in passes) for k in traced.METRICS}
    for name in SETUP_LAYERS:
        layers[name] = setup[name]
    plain = statistics.median(s.ref for s in job.samples)
    layers["traced.overhead_frac"] = layers["traced.wall_s"] / plain - 1.0
    return job, layers


# -- modes ---------------------------------------------------------------------


def result_line(job: Job, metrics: dict, names: list[dict]) -> str:
    """The one-line JSON result of a single-workload run."""
    return json.dumps({
        "correct": not job.failures and job.attempted > 0,
        "attempted": job.attempted,
        "failed": len(job.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    })


def run_one(args, bench: Bench, bench_spec: dict, traces: dict) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        job, layers = trace_workload(bench, workload, args.seed, traces, args.seconds)
        for name, value in layers.items():
            print(f"{workload.name:<15} {name:<24} {value:.6g}")
        print(result_line(job, layers, bench_spec["per_layer"]))
        return 0
    job = set_up(bench, workload, args.seed, traces, SETUP_REPEATS)
    measure(bench, [job], rounds=None, seconds=args.seconds)
    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"]}
    metrics = e2e_metrics(job, units)
    print_metrics({workload.name: {"metrics": metrics}})
    for failure in job.failures[:5]:
        print(f"FAILED {workload.name}: {failure}", file=sys.stderr)
    print(result_line(job, {k: v["value"] for k, v in metrics.items()}, bench_spec["end_to_end"]))
    return 0


def print_metrics(workloads: dict) -> None:
    for name, doc in workloads.items():
        for metric, m in doc["metrics"].items():
            spread = f"  [p25 {m['p25']:.4g}, p75 {m['p75']:.4g}, n={m['n']}]" if "p25" in m else ""
            print(f"{name:<15} {metric:<13} {m['value']:>10.4f} {m['unit']:<6}{spread}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def run_set(args, bench: Bench, bench_spec: dict, traces: dict) -> int:
    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"]}
    jobs = [set_up(bench, w, args.seed, traces, SETUP_REPEATS) for w in WORKLOADS.values()]
    measure(bench, jobs, rounds=args.rounds, seconds=None)
    record = {"meta": {}, "workloads": {}}
    for job in jobs:
        doc = {"attempted": job.attempted, "failed": len(job.failures),
               "metrics": e2e_metrics(job, units), "failures": job.failures[:5]}
        traced_job, layers = trace_workload(bench, job.workload, args.seed, traces, args.seconds)
        doc["layers"] = layers
        doc["traced_failures"] = traced_job.failures[:5]
        record["workloads"][job.workload.name] = doc
    record["meta"] = {
        "git_sha": git_sha(),
        "seed": args.seed,
        "rounds": args.rounds,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "probe_p50_s": statistics.median(bench.probes),
        "probe_ref_s": PROBE_REF_S,
    }
    print_metrics(record["workloads"])
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    docs = record["workloads"].values()
    return 1 if any(doc["failed"] or doc["traced_failures"] for doc in docs) else 0


def compare(path_a: str, path_b: str, bench_spec: dict) -> int:
    """Print workload x metric verdicts of record B against record A."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    print(f"{'workload':<15} {'metric':<13} {'A':>10} {'B':>10} {'diff':>8}  verdict")
    failed = False
    for workload in a:
        for spec in bench_spec["end_to_end"] + [{"name": "failed_frac", "better": "lower", "bound": 0.0}]:
            ma, mb = a[workload]["metrics"][spec["name"]], b[workload]["metrics"][spec["name"]]
            va, vb = ma["value"], mb["value"]
            rel = (vb - va) / va if va else (0.0 if vb == va else float("inf"))
            worse = rel if spec["better"] == "lower" else -rel
            if spec["name"] == "failed_frac":
                verdict = "FAIL" if vb > va else "PASS"
            elif any((m["median_p75"] - m["median_p25"]) / m["value"] > spec["bound"] for m in (ma, mb)):
                verdict = "unresolved"
            else:
                verdict = "FAIL" if worse > spec["bound"] else "PASS"
            failed |= verdict == "FAIL"
            print(f"{workload:<15} {spec['name']:<13} {va:>10.4f} {vb:>10.4f} {100 * rel:>+7.1f}%  {verdict}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a single-workload run, and of each workload's "
                        "traced passes in a set (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of traced runs instead")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"rounds of the all-workload set (default {DEFAULT_ROUNDS})")
    parser.add_argument("--json", default=None, help="write the set's record here")
    parser.add_argument("--quick", action="store_true",
                        help="small traces, 2 rounds, 1 second of traced passes (self-test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    bench_spec = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench_spec)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seconds, rounds = (1, 2) if args.quick else (bench_spec["run_seconds"], DEFAULT_ROUNDS)
    args.seconds = seconds if args.seconds is None else args.seconds
    args.rounds = rounds if args.rounds is None else args.rounds
    traces = QUICK_TRACES if args.quick else TRACES
    # Turn SIGTERM into SystemExit, so the running child is killed and
    # reaped (see Bench.spawn) and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))  # oracle.hot_ranks reads the simulator's input
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as work:
            bench = Bench(Path(work))
            if args.workload:
                return run_one(args, bench, bench_spec, traces)
            return run_set(args, bench, bench_spec, traces)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
