"""curvekit benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 20 --trace 0

The curvekit under test is the one in ``./src``; the benchmark never
falls back to an installed copy and exits 1 when ``./src`` is missing.

Load model: closed loop, one client.  A request is one ``curvekit``
subprocess (``python -m curvekit.cli``), or one in-process library call
group in ``library-scale``; the next starts only after the previous one
has finished.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` reports per-layer metrics instead: start-up decomposition,
then alternating untraced and traced in-process rounds, with spans
recorded around every call into curvekit's public functions (see
``spans.py``).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are wall-clock on whatever machine runs this, with no CPU
pinning or cache control; the report states ``nproc`` and the Python
version.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import checks
import spans
import workloads

# Set-up runs SETUP_REPS times before measuring and SETUP_REPS times
# after; setup_s is the median of all of them.  Each set-up takes a
# fraction of a second, so timing them at both ends of the run keeps one
# short slow stretch of the machine from setting the median.
SETUP_REPS = 4
STARTUP_REPS = 5
REQUEST_TIMEOUT_S = 60
WORK_DIR = ".perfbench"


@dataclass
class Sample:
    tag: str
    wall_ns: int
    cpu_ns: int
    state: str
    reason: str
    out_bytes: int


def load_curvekit(root: str):
    src = os.path.join(root, "src")
    package = os.path.join(src, "curvekit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no curvekit sources under {src}; run from the repository root")
    # Byte-compile once, as an installed package would be, so a CLI
    # request does not recompile the sources when bytecode writing is off.
    if not compileall.compile_dir(package, quiet=1):
        sys.exit(f"perfbench: curvekit sources under {src} do not compile")
    sys.path.insert(0, src)
    import curvekit
    import curvekit.cli
    import curvekit.sampling

    if not os.path.abspath(curvekit.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"perfbench: imported curvekit from {curvekit.__file__}, not {src}")
    return curvekit


# -- executors ------------------------------------------------------------


class Spawner:
    """Runs ``python -m curvekit.cli`` children one at a time.

    CPU time comes from the change in the children's rusage; as only one
    child runs at a time it is that child's.  The children's ``ru_maxrss``
    is the largest any child has reached.
    """

    def __init__(self, root: str) -> None:
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv) -> tuple[int, bytes, bytes, int, int]:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter_ns()
        with subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
        ) as child:
            try:
                stdout, stderr = child.communicate(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                stdout, stderr = child.communicate()
        wall = time.perf_counter_ns() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return child.returncode, stdout, stderr, wall, int(cpu * 1e9)

    def cli(self, request, ledger) -> Sample:
        code, out, err, wall, cpu = self.spawn(["-m", "curvekit.cli", *request.argv])
        return judge_cli(request, ledger, code, out, err, wall, cpu)


class InProcess:
    """Runs CLI requests through ``curvekit.cli.main`` and library groups directly."""

    def __init__(self, ck, tracer: spans.Tracer | None = None) -> None:
        from click.testing import CliRunner

        self.ck = ck
        self.runner = CliRunner()
        self.tracer = tracer
        self.root_cli = tracer.name_id("cli.command") if tracer else -1
        self.root_lib = tracer.name_id("library.group") if tracer else -1

    def cli(self, request, ledger) -> Sample:
        root = self.tracer.open(self.root_cli) if self.tracer else -1
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        result = self.runner.invoke(self.ck.cli.main, list(request.argv), prog_name="curvekit")
        wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
        if self.tracer:
            self.tracer.close(root)
        err = result.stderr_bytes
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            err += "".join(traceback.format_exception(*result.exc_info)).encode()
        return judge_cli(request, ledger, result.exit_code, result.stdout_bytes, err, wall, cpu)

    def library(self, request, ledger) -> Sample:
        root = self.tracer.open(self.root_lib) if self.tracer else -1
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            result = request.call(self.ck)
        except Exception as exc:  # a request boundary: record and go on
            result = exc
        wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
        if self.tracer:
            self.tracer.close(root)
        if isinstance(result, Exception):
            state, reason, fingerprint = checks.FAILED, f"raised {result!r}", b""
        else:
            state, reason, fingerprint = request.judge(result)
        if state != checks.FAILED and not ledger.same(request, fingerprint):
            state, reason = checks.FAILED, "results differ on repeat"
        return Sample(request.tag, wall, cpu, state, reason, 0)


def judge_cli(request, ledger, code, out, err, wall, cpu) -> Sample:
    state, reason = checks.cli_outcome(
        request, code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace")
    )
    if state == checks.OK and not ledger.same(request, out):
        state, reason = checks.FAILED, "stdout differs on repeat"
    return Sample(request.tag, wall, cpu, state, reason, len(out))


def execute(executor, request, ledger) -> Sample:
    if request.call is not None:
        return executor.library(request, ledger)
    return executor.cli(request, ledger)


# -- measurement ----------------------------------------------------------


class SetUp:
    """Times one set-up: generate and write the inputs, then one unmeasured warm-up request."""

    def __init__(self, ck, name: str, seed: int, spawner: Spawner) -> None:
        self.ck, self.name, self.seed = ck, name, seed
        self.spawner = spawner
        self.inproc = InProcess(ck)
        self.times: list[int] = []

    def once(self, directory: str) -> workloads.Round:
        t0 = time.perf_counter_ns()
        rnd = workloads.BUILDERS[self.name](self.ck, workloads.Inputs(directory, self.seed))
        executor = self.inproc if rnd.in_process else self.spawner
        warm = execute(executor, rnd.requests[0], checks.RepeatLedger())
        self.times.append(time.perf_counter_ns() - t0)
        if warm.state == checks.FAILED:
            raise SystemExit(f"perfbench: warm-up request failed: {warm.reason}")
        return rnd

    def median_s(self) -> float:
        return statistics.median(self.times) / 1e9


def run_rounds(executor, rnd, ledger, seconds: float) -> list[Sample]:
    """Repeat the round until ``seconds`` pass."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        for request in rnd.requests:
            samples.append(execute(executor, request, ledger))
            if time.perf_counter() >= deadline:
                return samples


def library_peak_mb(ck, rnd) -> float:
    """Largest Python-heap peak of one library call group, in MB.

    The groups run in the benchmark's own process, whose resident set
    also holds the interpreter, click, the inputs and every sample, so
    its ``ru_maxrss`` would mostly measure the benchmark.  Instead each
    group runs once more, untimed, under ``tracemalloc``: the peak counts
    only what the group itself allocates.
    """
    peaks = []
    tracemalloc.start()
    try:
        for request in rnd.requests:
            gc.collect()  # so no garbage of the previous group is freed during this one
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                request.call(ck)
            except Exception:  # judged in the measured loop
                pass
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(samples, rnd, setup_s: float, peak_mb: float) -> tuple[dict, list[str]]:
    """Latencies over every request; throughput and CPU are medians over complete rounds."""
    walls = [s.wall_ns / 1e6 for s in samples]
    pct = rnd.tail_pct
    k = len(rnd.requests)
    rounds = [samples[i : i + k] for i in range(0, len(samples) - k + 1, k)] or [samples]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(walls), "ms"),
        "latency_tail_ms": (percentile(walls, pct), "ms"),
        "throughput_rps": (statistics.median(len(r) / sum(s.wall_ns for s in r) * 1e9 for r in rounds), "1/s"),
        "cpu_ms_per_request": (statistics.median(sum(s.cpu_ns for s in r) / len(r) / 1e6 for r in rounds), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    n = len(samples)
    failed = sum(s.state == checks.FAILED for s in samples)
    known = sum(s.state == checks.KNOWN for s in samples)
    notes = [
        f"requests: {n}; latency_tail_ms is p{pct:g} with {n - int(-(-n * pct // 100))} requests beyond it; "
        f"throughput_rps and cpu_ms_per_request are medians over {len(rounds)} rounds of {k}",
        f"failed_ratio: {failed / n:.6f} ({failed}/{n}); known_defect_ratio: {known / n:.6f} ({known}/{n})",
    ]
    notes += per_tag_table(samples)
    return metrics, notes


def per_tag_table(samples) -> list[str]:
    by_tag: dict[str, list[Sample]] = {}
    for s in samples:
        by_tag.setdefault(s.tag, []).append(s)
    lines = [f"{'request type':<22} {'count':>6} {'p50 ms':>10} {'cpu ms':>10} {'out B':>10}"]
    for tag, group in by_tag.items():
        lines.append(
            f"{tag:<22} {len(group):>6} "
            f"{statistics.median(s.wall_ns for s in group) / 1e6:>10.3f} "
            f"{sum(s.cpu_ns for s in group) / len(group) / 1e6:>10.3f} "
            f"{sum(s.out_bytes for s in group) // len(group):>10}"
        )
    return lines


# -- traced run -----------------------------------------------------------


def startup(spawner: Spawner) -> dict:
    """Start-up decomposition, medians of reps.

    Interpreter start and ``import curvekit.cli`` are wall times of bare
    subprocesses; ``-X importtime`` splits the import into click and
    curvekit's own modules (its totals include the instrumentation).
    """
    interp, imported, click_us, own_us = [], [], [], []
    for _ in range(STARTUP_REPS):
        interp.append(spawner.spawn(["-c", "pass"])[3] / 1e6)
        imported.append(spawner.spawn(["-c", "import curvekit.cli"])[3] / 1e6)
        code, _, err, _, _ = spawner.spawn(["-X", "importtime", "-c", "import curvekit.cli"])
        if code != 0:
            raise SystemExit("perfbench: importing curvekit.cli failed")
        cl, total = importtime_totals(err.decode())
        click_us.append(cl)
        own_us.append(total - cl)
    interp_ms = statistics.median(interp)
    return {
        "interp_start_ms": interp_ms,
        "import_ms": statistics.median(imported) - interp_ms,
        "import_click_ms": statistics.median(click_us) / 1e3,
        "import_curvekit_ms": statistics.median(own_us) / 1e3,
    }


def importtime_totals(stderr: str) -> tuple[int, int]:
    """(click cumulative us, curvekit top-level cumulative us) from -X importtime."""
    click_us, total_us = 0, 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2]
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        if module == "click" and not click_us:
            click_us = cumulative
        if depth == 1 and (module == "curvekit" or module.startswith("curvekit.")):
            total_us += cumulative
    return click_us, total_us


class TraceStats:
    """Per-layer sums over traced requests, plus the derived verify counts."""

    def __init__(self) -> None:
        self.layers: dict[str, list[int]] = {}
        self.requests = 0
        self.convex = 0
        self.by_size: dict[int, dict[str, int]] = {}
        self.verify = {"requests": 0, "perturb": 0, "checked": 0, "bootstrap": 0}
        self.round_counts: list[tuple] = []
        self.root_self_ns = 0
        self.root_total_ns = 0

    def add_round(self, tracer: spans.Tracer, marks) -> None:
        self_ns = tracer.self_times()
        counts: dict[str, int] = {}
        for request, lo, hi in marks:
            per: dict[str, list[int]] = {}
            tracer.aggregate(lo, hi, self_ns, per)
            self.root_self_ns += self_ns[lo]
            self.root_total_ns += tracer.end[lo] - tracer.start[lo]
            self.requests += 1
            for name, (calls, s, t) in per.items():
                row = self.layers.setdefault(name, [0, 0, 0])
                row[0] += calls
                row[1] += s
                row[2] += t
                counts[name] = counts.get(name, 0) + calls

            def calls(name):
                return per.get(name, (0,))[0]

            if request.argv[:1] == ("verify",):
                size = self.by_size.setdefault(request.n, {"annuity": 0, "checked": 0})
                size["annuity"] += calls("shape.annuity_point_classification")
                size["checked"] += calls("shape.ratio_monotonicity")
                if request.trials:
                    self.verify["requests"] += 1
                    self.verify["perturb"] += calls("sampling.perturb_swap_curve")
                    self.verify["checked"] += calls("shape.ratio_monotonicity")
                    self.verify["bootstrap"] += calls("bootstrap.bootstrap")
        counts["convex_verdicts"] = tracer.convex_verdicts
        self.convex += tracer.convex_verdicts
        self.round_counts.append(tuple(sorted(counts.items())))

    def metrics(self) -> dict:
        n = max(self.requests, 1)
        out = {}
        for name in spans.traced_names():
            calls, s, t = self.layers.get(name, (0, 0, 0))
            out[f"{name}.calls"] = (calls / n, "count")
            out[f"{name}.self_ms"] = (s / n / 1e6, "ms")
            out[f"{name}.total_ms"] = (t / n / 1e6, "ms")
        out["cli.command.self_ms"] = (self.layers.get("cli.command", (0, 0, 0))[1] / n / 1e6, "ms")
        classified = self.layers.get("shape.classify_triple", (0,))[0]
        out["shape.convex_ratio"] = (self.convex / classified if classified else 0.0, "ratio")
        v = self.verify
        evaluated = v["checked"] - v["requests"]
        out["verify.trials_evaluated"] = (evaluated / v["requests"] if v["requests"] else 0.0, "count")
        out["verify.trials_skipped"] = (
            (v["perturb"] - evaluated) / v["requests"] if v["requests"] else 0.0,
            "count",
        )
        out["bootstrap.calls_per_trial"] = (v["bootstrap"] / v["perturb"] if v["perturb"] else 0.0, "count")
        for size in (20, 30):
            got = self.by_size.get(size, {"annuity": 0, "checked": 0})
            per_check = got["annuity"] / got["checked"] if got["checked"] else 0.0
            out[f"verify.n{size}.annuity_calls_per_check"] = (per_check, "count")
        out["trace.layer_share"] = (
            1.0 - self.root_self_ns / self.root_total_ns if self.root_total_ns else 0.0,
            "ratio",
        )
        return out


def traced_run(ck, rnd, spawner: Spawner, seconds: float, work_dir: str) -> tuple[dict, list, bool, list[str]]:
    t_start = time.perf_counter()
    ledger = checks.RepeatLedger()
    samples: list[Sample] = []
    metrics: dict = {}
    cli = not rnd.in_process
    start = {"interp_start_ms": 0.0, "import_ms": 0.0, "import_click_ms": 0.0, "import_curvekit_ms": 0.0}
    sub_ms = 0.0
    if cli:
        start = startup(spawner)
        sub = [spawner.cli(r, ledger) for r in rnd.requests]
        samples += sub
        sub_ms = statistics.mean(s.wall_ns for s in sub) / 1e6
    plain = InProcess(ck)
    tracer = spans.Tracer()
    traced = InProcess(ck, tracer)
    stats = TraceStats()
    untraced_ns, traced_ns, out_bytes = [], [], []
    iteration_s = 0.0
    while len(traced_ns) < 2 or time.perf_counter() - t_start + iteration_s < seconds:
        t_iter = time.perf_counter()
        batch = [execute(plain, r, ledger) for r in rnd.requests]
        untraced_ns.append(sum(s.wall_ns for s in batch))
        samples += batch
        out_bytes += [s.out_bytes for s in batch]
        tracer.clear()
        marks, batch = [], []
        tracer.install()
        try:
            for r in rnd.requests:
                lo = len(tracer.start)
                batch.append(execute(traced, r, ledger))
                marks.append((r, lo, len(tracer.start)))
        finally:
            tracer.uninstall()
        traced_ns.append(sum(s.wall_ns for s in batch))
        samples += batch
        stats.add_round(tracer, marks)
        iteration_s = time.perf_counter() - t_iter
    tracer.write(os.path.join(work_dir, "spans.csv"))

    n_req = len(rnd.requests)
    inproc_ms = statistics.median(untraced_ns) / n_req / 1e6
    metrics.update({f"cli.{k}": (v, "ms") for k, v in start.items()})
    startup_ms = start["interp_start_ms"] + start["import_ms"]
    metrics["cli.startup_share"] = (startup_ms / sub_ms if cli else 0.0, "ratio")
    metrics["cli.output_bytes"] = (statistics.mean(out_bytes), "bytes")
    measured = sub_ms if cli else inproc_ms
    metrics["trace.accounted_ratio"] = ((startup_ms + inproc_ms) / measured, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_ns) / statistics.median(untraced_ns), "ratio")
    metrics.update(stats.metrics())
    n = len(samples)
    metrics["requests.failed_ratio"] = (sum(s.state == checks.FAILED for s in samples) / n, "ratio")
    metrics["requests.known_defect_ratio"] = (sum(s.state == checks.KNOWN for s in samples) / n, "ratio")

    repeatable = len(set(stats.round_counts)) == 1
    notes = [
        f"traced rounds: {len(traced_ns)}; untraced in-process rounds: {len(untraced_ns)}; "
        f"requests per round: {n_req}",
        f"call counts identical across traced rounds: {repeatable}",
        f"in-process request: {inproc_ms:.3f} ms untraced; subprocess request: {sub_ms:.3f} ms; "
        f"start-up: {startup_ms:.3f} ms",
    ]
    return metrics, samples, repeatable, notes


# -- entry point ----------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        sys.exit("perfbench: --seconds must be positive")
    root = os.getcwd()
    ck = load_curvekit(root)
    work_dir = os.path.join(root, WORK_DIR, args.workload)
    os.makedirs(work_dir, exist_ok=True)
    spawner = Spawner(root)
    print(
        f"curvekit benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}; nproc={os.cpu_count()} "
        f"python={platform.python_version()}; wall-clock, no CPU pinning or cache control"
    )
    setup = SetUp(ck, args.workload, args.seed, spawner)
    correct = True
    if args.trace:
        rnd = setup.once(work_dir)
        metrics, samples, repeatable, notes = traced_run(ck, rnd, spawner, args.seconds, work_dir)
        correct = repeatable
    else:
        for _ in range(SETUP_REPS):
            rnd = setup.once(work_dir)
        executor = InProcess(ck) if rnd.in_process else spawner
        samples = run_rounds(executor, rnd, checks.RepeatLedger(), args.seconds)
        for _ in range(SETUP_REPS):
            setup.once(work_dir)
        if rnd.in_process:
            peak_mb = library_peak_mb(ck, rnd)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics, notes = end_to_end(samples, rnd, setup.median_s(), peak_mb)
    failures = [s for s in samples if s.state == checks.FAILED]
    correct = correct and not failures
    for line in notes:
        print(line)
    for s in failures[:10]:
        print(f"FAILED {s.tag}: {s.reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
