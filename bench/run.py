#!/usr/bin/env python3
"""Certified-query benchmark for grouporders (stdlib only).

    python3 bench/run.py --workload cones --seed 1 --seconds 30 --trace 0

Run from the repository root.  The parent process only orchestrates; every
measurement happens in fresh child processes running this same file:

* ``setup``: import ``grouporders`` and run one warm-up query of each
  distinct shape.  These children plus the workload child give three set-up
  samples, or up to nine while they take under three seconds in all;
  ``setup_s`` is their median.
* ``run``: one client in a closed loop, one thread.  The seeded round of
  queries is generated before the library is imported, then repeated, in a
  new seeded order each round, until ``--seconds`` have passed and at least
  three rounds are done.  Every answer is checked independently between
  queries; each query runs under a ``signal.alarm`` budget.  With
  ``--trace 1`` one more round runs with the library's public functions
  wrapped, and the per-layer metrics come from that round's spans.

Times are reported at a fixed reference speed of the machine (see
:class:`Speed`): a shared 2-vCPU VM was seen to run the same code up to
1.7x slower for stretches as long as a run, which no choice among one run's
samples can undo.  The figures as measured are printed too, with the
slowdown the run met.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name, with its unit and sample count, and the environment.
Exit codes: 0 all answers correct, 1 a wrong answer or a failed child,
2 refused (``python -O``, unknown workload, library source missing).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (after the path set-up above)

MIN_ROUNDS = 3
SETUP_SAMPLES = (3, 9)  # fewest and most fresh-process set-ups per run
SETUP_SECONDS = 3.0     # take more than the fewest while they cost less than this
DEADLINE_S = 170  # the whole command must finish within 180 s
PROBE_EVERY_S = 0.2   # machine-speed probe between queries, at most this often
PROBE_RUNS = 3        # kernel runs per probe; the probe reads their median
PROBE_DEGREE = 4      # truncation degree of the probe's power series
PROBE_WINDOW_S = 0.5  # probes this close to a query give its speed factor
# Probe cost (median of PROBE_RUNS kernel runs) in the fast phases of a
# 2-vCPU "Intel(R) Xeon(R) Processor" VM under CPython 3.11.7.
PROBE_REFERENCE_S = 3.4e-4


def refuse(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


# --------------------------------------------------------------------------
# child side: queries under a budget


def _probe_kernel() -> int:
    """Fixed reference work in the library's style: a truncated product of
    power series over tuple-keyed dicts, as in a Magnus expansion, then
    big-integer fractions kept in lowest terms, as in exact elimination."""
    series = {(): 1}
    for letter in (1, 2, 3, 1, 3, 2, 2, 1, 3, 1):
        product: dict[tuple, int] = {}
        for key, c in series.items():
            product[key] = product.get(key, 0) + c
            if len(key) < PROBE_DEGREE:
                longer = key + (letter,)
                product[longer] = product.get(longer, 0) + c
        series = product
    num, den = 0, 1
    for i in range(1, 200):
        num, den = num * (i + 7) + i * den, den * (i + 7)
        g = math.gcd(num, den)
        num //= g
        den //= g
    return len(series) + num % 97


class Speed:
    """How fast the machine runs through a run, read from a fixed kernel
    timed between queries and, through :class:`Runner`, within long ones.

    The host lends this process a share of a CPU whose speed changes by up
    to 1.7x in phases lasting from a second to half a minute, often a whole
    run.  A phase slows the kernel as much as the queries around it, so a
    query's latency divided by :meth:`factor` is what it would take at the
    reference speed, whichever phase the run met.
    """

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0  # seconds spent probing, kept out of set-up time
        self.due = 0.0

    def probe(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start < self.due:
            return
        runs = []
        for _ in range(PROBE_RUNS):
            t = time.perf_counter()
            _probe_kernel()
            runs.append(time.perf_counter() - t)
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.costs.append(statistics.median(runs))
        self.spent += end - start
        self.due = end + PROBE_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """Median probe cost around [start, end] over the reference cost."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        return statistics.median(self.costs[lo:hi] or self.costs) / PROBE_REFERENCE_S

    def overall(self) -> float:
        return statistics.median(self.costs) / PROBE_REFERENCE_S


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query; BaseException so no library
    ``except Exception`` can swallow it."""


class Runner:
    """Runs one query at a time under its budget; ``tracer`` is set only for
    the traced round.  With a ``speed``, the machine is probed before each
    query and, from a CPU-time timer, every ``PROBE_EVERY_S`` within a long
    one; the latency leaves those probes out.  ``started`` is when the last
    query began."""

    def __init__(self, speed: Speed | None = None):
        self.armed = False
        self.tracer = None
        self.speed = speed
        self.started = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.signal(signal.SIGPROF, self._on_timer)

    def _on_alarm(self, signum, frame):
        if self.armed:
            raise QueryTimeout()

    def _on_timer(self, signum, frame):
        if self.armed and self.speed is not None:
            self.speed.probe(force=True)

    def execute(self, query):
        """(latency_s, status, answer, exc); status is ok, timeout or error."""
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        frame = tracer.enter(0) if tracer else None
        depth = len(tracer.stack) if tracer else 0
        status, answer, exc = "ok", None, None
        speed = self.speed
        if speed is not None:
            speed.probe()
            spent = speed.spent
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        signal.alarm(query.budget)
        self.armed = True
        start = self.started = time.perf_counter()
        try:
            answer = query.call()
            self.armed = False
        except QueryTimeout:
            status = "timeout"
        except query.declared as declared:
            exc = declared
        except Exception as error:  # an undeclared exception is a failed query
            status, exc = "error", error
        finally:
            self.armed = False
            signal.alarm(0)
            latency = time.perf_counter() - start
            if speed is not None:
                signal.setitimer(signal.ITIMER_PROF, 0)
                latency -= speed.spent - spent
            if tracer:
                tracer.unwind(depth)
                tracer.leave(frame)
        if status != "ok":
            latency = float(query.budget)
        return latency, status, answer, exc


def check(query, answer, exc) -> str | None:
    try:
        return query.check(answer, exc)
    except Exception as error:  # a malformed answer is a wrong answer
        return f"check raised {type(error).__name__}: {error}"



def import_library():
    sys.path.insert(0, str(SRC))
    import grouporders
    return grouporders


def warm_up(workload) -> tuple[object, float, float]:
    """Import the library and run the warm-up round; returns the module, the
    seconds it took (probes left out) and the machine's speed factor then."""
    specs = workload.warmup()
    speed = Speed()
    for _ in range(PROBE_RUNS):
        speed.probe(force=True)
    spent = speed.spent
    start = time.perf_counter()
    go = import_library()
    runner = Runner(speed)
    for query in workload.build(go, specs):
        runner.execute(query)
    end = time.perf_counter()
    seconds = end - start - (speed.spent - spent)
    for _ in range(PROBE_RUNS):
        speed.probe(force=True)
    return go, seconds, speed.factor(start, end)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile (one decimal) with at least ten samples beyond it."""
    return math.floor(1000 * (1 - 10 / n)) / 10 if n > 10 else 50.0


def summarize(queries, latencies) -> dict:
    """End-to-end figures from the latencies of the timed queries.

    A query's latency is the median of its repetitions, and
    ``query_p50_ms`` is the median of these.  For ``queries_per_s`` and
    ``query_tail_ms`` queries with the same ``Query.shape`` (random inputs of
    one size) all count at the median over that shape, so one unusually
    slow random input does not decide a run; queries without a shape stand
    for themselves.
    """
    timed = [(q, samples) for q, samples in zip(queries, latencies) if q.timed]
    pooled: dict[object, list[float]] = {}
    keys = [i if q.shape is None else q.shape for i, (q, _) in enumerate(timed)]
    own = [statistics.median(samples) for _, samples in timed]
    for key, latency in zip(keys, own):
        pooled.setdefault(key, []).append(latency)
    shape_median = {key: statistics.median(values) for key, values in pooled.items()}
    medians = [shape_median[key] for key in keys]
    ordered = sorted(medians)
    tail_p = tail_percentile(len(ordered))
    return {"queries_per_s": len(medians) / sum(medians),
            "query_p50_ms": 1000 * statistics.median(own),
            "query_tail_ms": 1000 * percentile(ordered, tail_p),
            "tail_percentile": tail_p,
            "count": len(medians)}


def layer_metrics(tracer, go, cache_before, traced_qps, untraced_qps) -> dict:
    from tracer import ROUTES, SPAN_NAMES
    metrics = {}
    for name in SPAN_NAMES:
        i = tracer.ids[name]
        metrics[f"{name}.calls"] = (tracer.calls[i], "count")
        metrics[f"{name}.self_s"] = (tracer.self_time[i], "s")
    signs = tracer.calls[tracer.ids["stdord.sign"]]
    witnesses = tracer.calls[tracer.ids["autact.ordering_witness"]]
    hits, misses = (a - b for a, b in zip(hall_cache_totals(go), cache_before))
    metrics["exactlin.rref.cells"] = (tracer.rref_cells, "count")
    metrics["series.magnus.terms"] = (tracer.magnus_terms, "count")
    metrics["series.magnus.calls_per_sign"] = (
        tracer.magnus_in_sign / signs if signs else 0.0, "ratio")
    metrics["hall.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                       "ratio")
    for route in ROUTES:
        metrics[f"stdord.separate.route.{route}"] = (tracer.routes[route], "count")
    metrics["autact.ordering_witness.attempts_per_witness"] = (
        tracer.witness_attempts / witnesses if witnesses else 0.0, "ratio")
    metrics["autact.ordering_witness.cap_failures"] = (tracer.cap_failures, "count")
    metrics["trace.overhead_ratio"] = (untraced_qps / traced_qps, "ratio")
    return metrics


def hall_cache_totals(go) -> tuple[int, int]:
    hits = misses = 0
    for value in vars(go.hall).values():
        if hasattr(value, "cache_info"):
            info = value.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


def child_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    specs = workload.generate(args.seed)
    go, setup_raw, setup_factor = warm_up(workload)
    queries = workload.build(go, specs)
    latencies = [[] for _ in queries]
    starts = [[] for _ in queries]
    counts = {"attempted": 0, "timeout": 0, "error": 0, "wrong": 0, "expected_timeout": 0}
    problems: list[str] = []

    def record(status, problem, query):
        counts["attempted"] += 1
        if status == "timeout" and query.timeout_expected:
            counts["expected_timeout"] += 1
        elif status != "ok":
            counts[status] += 1
            if status == "error":
                problems.append(f"{query.kind}: undeclared {problem!r}")
        elif problem is not None:
            counts["wrong"] += 1
            problems.append(f"{query.kind}: {problem}")

    speed = Speed()
    runner = Runner(speed)
    order = list(range(len(queries)))
    shuffle = random.Random(args.seed).shuffle
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for i in order:
            query = queries[i]
            if query.once and rounds:
                continue
            latency, status, answer, exc = runner.execute(query)
            latencies[i].append(latency)
            starts[i].append(runner.started if status == "ok" else None)
            problem = check(query, answer, exc) if status == "ok" else exc
            record(status, problem, query)
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
        rounds += 1
        shuffle(order)  # a query's repetitions fall at different points of a round
    for _ in range(PROBE_RUNS):
        speed.probe(force=True)  # the last queries get probes on both sides
    # A failed query stays at its budget latency; the rest are put at the
    # reference speed.
    corrected = [[lat if t is None else lat / speed.factor(t, t + lat)
                  for lat, t in zip(lats, ts)] for lats, ts in zip(latencies, starts)]
    result = {"setup_s": setup_raw / setup_factor, "setup_raw_s": setup_raw,
              "rounds": rounds, "round_size": len(queries),
              "counts": counts, "problems": problems[:10],
              "summary": summarize(queries, corrected),
              "raw_summary": summarize(queries, latencies),
              "speed_factor": speed.overall(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        runner.speed = None  # the traced round is compared raw with the last untraced one
        result["layers"], result["spans"] = traced_round(args, go, runner, queries,
                                                         latencies, record)
    return result


def traced_round(args, go, runner, queries, untraced_latencies, record):
    """One more round with the library wrapped; compared with the last
    untraced round over the queries that run every round."""
    import tracer as tracing
    repeated = [i for i, query in enumerate(queries) if not query.once]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    runner.tracer = tracer
    cache_before = hall_cache_totals(go)
    latencies = []
    try:
        for i in repeated:
            query = queries[i]
            tracer.query_id = i
            tracer.enabled = True
            latency, status, answer, exc = runner.execute(query)
            tracer.enabled = False
            latencies.append([latency])
            record(status, check(query, answer, exc) if status == "ok" else exc, query)
    finally:
        tracer.enabled = False
        tracing.uninstall(undo)
    subset = [queries[i] for i in repeated]
    traced = summarize(subset, latencies)
    untraced = summarize(subset, [untraced_latencies[i][-1:] for i in repeated])
    layers = layer_metrics(tracer, go, cache_before, traced["queries_per_s"],
                           untraced["queries_per_s"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    spans = tracer.write(path)
    return {k: list(v) for k, v in layers.items()}, {"file": str(path.relative_to(ROOT)),
                                                      "count": spans}


def child_main(args) -> None:
    if args.child == "prime":
        import_library()
        result = {}
    elif args.child == "setup":
        _, raw, factor = warm_up(WORKLOADS[args.workload])
        result = {"setup_s": raw / factor, "setup_raw_s": raw}
    else:
        result = child_run(args)
    print(json.dumps(result))


# --------------------------------------------------------------------------
# parent side


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {mode} child")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise TimeoutError(f"{mode} child ran past the deadline") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{mode} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(name, value, unit, note="") -> None:
    print(f"  {name:48s} {value:14.6f} {unit:6s} {note}")


def parent_main(args) -> int:
    if args.workload not in WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (SRC / "grouporders" / "__init__.py").is_file():
        refuse(f"library source not found under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    print("env " + json.dumps(environment()))
    try:
        spawn(args, "prime", deadline)  # compile the package once, untimed
        setups, raw_setups = [], []
        while not args.trace and len(setups) + 1 < SETUP_SAMPLES[1] and (
                len(setups) + 1 < SETUP_SAMPLES[0] or sum(raw_setups) < SETUP_SECONDS):
            setup = spawn(args, "setup", deadline)
            setups.append(setup["setup_s"])
            raw_setups.append(setup["setup_raw_s"])
        run = spawn(args, "run", deadline)
    except (RuntimeError, TimeoutError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    raw_setups.append(run["setup_raw_s"])
    counts, summary, raw = run["counts"], run["summary"], run["raw_summary"]
    failed = counts["timeout"] + counts["error"] + counts["wrong"]
    attempted = counts["attempted"]
    correct = counts["wrong"] == 0 and counts["error"] == 0
    print(f"workload {args.workload} seed {args.seed}: {run['rounds']} rounds of "
          f"{run['round_size']} queries, closed loop, 1 client; {attempted} attempted, "
          f"{failed} failed ({counts['timeout']} timeouts, {counts['error']} errors, "
          f"{counts['wrong']} wrong); {counts['expected_timeout']} recorded stretch-tier "
          f"timeouts")
    for problem in run["problems"]:
        print(f"  wrong: {problem}")
    if args.trace:
        layers = dict(run["layers"])
        layers["exactlin.classify_cone.timeouts"] = (counts["expected_timeout"], "count")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        for name, m in metrics.items():
            show(name, m["value"], m["unit"], "(one traced round)")
        print(f"  spans: {run['spans']['count']} written to {run['spans']['file']}")
    else:
        medians = (f"({summary['count']} timed queries, median of up to {run['rounds']} rounds, "
                   "median per shape)")
        metrics = {
            "queries_per_s": {"value": summary["queries_per_s"], "unit": "1/s"},
            "query_p50_ms": {"value": summary["query_p50_ms"], "unit": "ms"},
            "query_tail_ms": {"value": summary["query_tail_ms"], "unit": "ms"},
            "certified_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        show("queries_per_s", summary["queries_per_s"], "1/s", medians)
        show("query_p50_ms", summary["query_p50_ms"], "ms", medians)
        show("query_tail_ms", summary["query_tail_ms"], "ms",
             f"(p{summary['tail_percentile']} of {summary['count']} timed queries)")
        show("failed_ratio", failed / attempted, "ratio", f"({failed} of {attempted})")
        show("certified_ratio", 1 - failed / attempted, "ratio",
             f"({attempted - failed} of {attempted})")
        show("setup_s", statistics.median(setups), "s",
             f"(median of {len(setups)} fresh processes: "
             + ", ".join(f"{s:.3f}" for s in setups) + ")")
        show("peak_rss_mb", run["peak_rss_mb"], "MB", "(ru_maxrss of the workload process)")
        print(f"  times above are at the reference speed; the machine ran "
              f"{run['speed_factor']:.3f}x slower than it in this run.  As measured:")
        show("raw.queries_per_s", raw["queries_per_s"], "1/s")
        show("raw.query_p50_ms", raw["query_p50_ms"], "ms")
        show("raw.query_tail_ms", raw["query_tail_ms"], "ms")
        show("raw.setup_s", statistics.median(raw_setups), "s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("prime", "setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if sys.flags.optimize:
        refuse("refusing to measure under python -O: the library's certificate "
               "checks are assert statements that -O removes")
    if args.child:
        child_main(args)
        return 0
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
