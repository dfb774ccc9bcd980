"""Benchmark driver: one workload, one seed, closed loop, one client.

    python3 perfbench/run.py --workload embed-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Requests run back to back in whole cycles until the summed request time
reaches ``--seconds``.  Each output is checked after its timer stops.

On a shared 2-vCPU virtual machine the speed of the same code drifted by up
to a third between runs, so every reported time is scaled by the speed of a
fixed reference loop timed between requests (see ``reference``); the raw wall
times are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced, and prints the per-layer metrics derived from
the spans (written to ``.bench_out/``) plus the tracing overhead.  The last
line of stdout is the JSON result; the lines before it repeat the metrics
for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import NullTracer, Tracer, summarize

STARTED = time.perf_counter()

REF_VALUES = tuple(Fraction(k, 12) for k in range(1, 25))
# Time the reference loop takes at the speed all reported times refer to.
REF_NOMINAL_S = 0.0003
REF_WINDOW = 2  # a request's speed: median of the 2 * REF_WINDOW + 1 nearest loops

SETUP_CHILDREN = 4  # extra cold set-ups; setup_s is the median with our own
MIN_BEYOND_P90 = 10
# An untraced run also runs until it has this many requests per second of
# --seconds, so that a 20-second run has 100 requests and 10 beyond its p90.
MIN_REQUESTS_PER_S = 5

END_TO_END = {
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("spaces", "embedding", "hyperspace", "petals", "serialization", "cli")

# (name, unit, better): every --trace 1 run reports all of them; a metric of
# a layer the workload does not exercise reads 0.
PER_LAYER = [
    ("spaces.validate_ultrametric.valid.busy_s", "s", "lower"),
    ("spaces.validate_ultrametric.invalid.busy_s", "s", "lower"),
    ("spaces.validate_ultrametric.triples", "count", "higher"),
    ("spaces.validate_ultrametric.violations", "count", "higher"),
    *[(f"embedding.embed_space.n{n}.p50_ms", "ms", "lower") for n in (16, 24, 32, 48)],
    ("embedding.embed_space.points", "count", "higher"),
    ("embedding.extend_one_point.p50_ms", "ms", "lower"),
    ("serialization.space_from_json.busy_s", "s", "lower"),
    ("serialization.point_to_json.busy_s", "s", "lower"),
    *[
        (f"hyperspace.hausdorff_{alg}.{size}.p50_ms", "ms", "lower")
        for alg in ("supinf", "ballmin")
        for size in ("small", "large")
    ],
    ("hyperspace.pairs", "count", "higher"),
    ("hyperspace.candidates", "count", "higher"),
    ("petals.generate_heirs.busy_s", "s", "lower"),
    ("petals.generate_heirs.nodes", "count", "higher"),
    ("petals.heir_distance.calls", "count", "higher"),
    ("petals.heir_distance.busy_s", "s", "lower"),
    ("petals.build_petal_cover.busy_s", "s", "lower"),
    *[(f"model.{fn}.ns_per_call", "ns", "lower") for fn in ("delta", "seed_point", "ball_key")],
    *[
        (f"{fn}.{kind}.busy_s", "s", "lower")
        for fn in (
            "spaces.is_haloed",
            "spaces.is_avoidant",
            "embedding.check_one_point_injectivity",
        )
        for kind in ("random", "equilateral")
    ],
    ("spaces.is_avoidant.cache_hit_ratio", "ratio", "higher"),
    ("spaces.is_avoidant.cache_size", "count", "lower"),
    ("embedding.check_one_point_injectivity.cache_hit_ratio", "ratio", "higher"),
    ("embedding.check_one_point_injectivity.cache_size", "count", "lower"),
    *[
        (f"cli.{verb}.p50_ms", "ms", "lower")
        for verb in (
            "validate",
            "embed",
            "extend",
            "hausdorff",
            "heirs",
            "petal-distance",
            "certify-lp",
            "check",
        )
    ],
    ("cli.import_ms", "ms", "lower"),
    *[(f"verify.criterion_{k}.seconds", "s", "lower") for k in range(1, 11)],
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.share", "ratio", "lower") for layer in LAYERS],
    ("trace.overhead_ratio", "ratio", "lower"),
]

# The cached exhaustive searches, read through cache_info() while they exist.
CACHES = {
    "spaces.is_avoidant": ("spaces", "_avoidant_profile"),
    "embedding.check_one_point_injectivity": ("embedding", "_injectivity_profile"),
}


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls no
    library code: 576 comparisons of twelfths, as in the library's hot paths.
    The best of three short rounds, so that one interrupt or a cache still
    cold from the last request does not count as a slow machine."""
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        smaller = 0
        for a in REF_VALUES:
            for b in REF_VALUES[:8]:
                smaller += a < b
        rounds.append(time.perf_counter() - start)
    return 3 * min(rounds)


def speed() -> float:
    """Current speed: nominal over the median of nine reference times."""
    return REF_NOMINAL_S / statistics.median(reference() for _ in range(9))


class Phase:
    """Latencies, failures and work counts of one timed phase.

    ``refs[i]`` is the reference time just before request i (and after
    request i - 1).  A request's time is scaled by the nominal over the
    median of the reference times around it, which cancels the machine's
    drift; ``raw`` keeps the wall times.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.refs: list[float] = []
        self.cycle_ends: list[int] = []
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def fail(self, why: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def latencies(self, raw=False) -> list[float]:
        if raw:
            return self.raw
        r, w = self.refs, REF_WINDOW
        return [
            t * REF_NOMINAL_S / statistics.median(r[max(0, i - w) : i + w + 1])
            for i, t in enumerate(self.raw)
        ]

    def stats(self, raw=False) -> dict[str, float]:
        lat = self.latencies(raw)
        ordered = sorted(lat)
        bounds = zip([0] + self.cycle_ends, self.cycle_ends)
        return {
            # Per cycle, so that one stalled request moves one cycle, not the run.
            "req_per_s": statistics.median((hi - lo) / sum(lat[lo:hi]) for lo, hi in bounds),
            "req_p50_ms": statistics.median(lat) * 1000,
            "req_p90_ms": ordered[math.ceil(0.9 * len(lat)) - 1] * 1000,
        }


def run_phase(wl, stream: str, seconds: float, tracer, first=None, min_requests=0) -> Phase:
    """Whole cycles of requests until the summed request time reaches
    ``seconds`` and there are ``min_requests``; each output is checked after
    its timer stops."""
    phase = Phase()
    phase.refs.append(reference())
    index = 0
    while True:
        reqs = first if index == 0 and first is not None else wl.requests(stream, index)
        for req in reqs:
            tracer.request += 1
            start = time.perf_counter()
            try:
                out = tracer.call("request." + req.kind, req.run, tracer)
            except Exception as exc:  # a failed request is counted, not fatal
                phase.raw.append(time.perf_counter() - start)
                phase.refs.append(reference())
                phase.fail(f"{req.kind}: {type(exc).__name__}: {exc}")
                continue
            phase.raw.append(time.perf_counter() - start)
            phase.refs.append(reference())
            try:
                ok = req.check(out, phase)
            except Exception as exc:
                ok = False
                phase.fail(f"{req.kind}: check raised {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    phase.fail(f"{req.kind}: wrong output")
        index += 1
        phase.cycle_ends.append(len(phase.raw))
        if sum(phase.raw) >= seconds and len(phase.raw) >= min_requests:
            return phase


def cache_infos() -> dict:
    import urysohn

    infos = {}
    for metric, (module, fn) in CACHES.items():
        cached = getattr(getattr(urysohn, module), fn, None)
        if cached is not None and hasattr(cached, "cache_info"):
            infos[metric] = cached.cache_info()
    return infos


def model_ns_per_call(point_docs) -> dict[str, float]:
    """Per-call time of the model primitives over the workload's own points."""
    from urysohn import ball_key, delta, seed_point
    from urysohn.serialization import point_from_json

    points = [point_from_json(p) for p in point_docs]
    if len(points) < 2:
        return {}
    pairs = list(zip(points, points[1:] + points[:1]))
    radii = [(p, p.coords[-1][0] if p.coords else Fraction(1, 2)) for p in points]
    loops = {
        "delta": lambda: [delta(a, b) for a, b in pairs],
        "seed_point": lambda: [seed_point(p, r, 1) for p, r in radii],
        "ball_key": lambda: [ball_key(p, r) for p, r in radii],
    }
    reps = max(1, 20_000 // len(points))
    out = {}
    for name, loop in loops.items():
        trials = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                loop()
            trials.append((time.perf_counter() - start) / (reps * len(points)))
        out[f"model.{name}.ns_per_call"] = statistics.median(trials) * 1e9
    return out


def import_ms(env, root: Path) -> float:
    """Median wall time of a child that only imports urysohn.cli."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import urysohn.cli"],
            cwd=root, env=env, check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def child_setup_times(args, root: Path) -> list[dict]:
    """Set-up time of fresh processes doing only import, generation and
    warm-up, as this process did before its first timed request."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--trace", "0", "--setup-only",
            ],
            cwd=root, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def say(text: str) -> None:
    print(text, flush=True)


def end_to_end(args, root, wl, first, setup_own) -> tuple[dict, list[Phase]]:
    min_requests = MIN_REQUESTS_PER_S * args.seconds
    phase = run_phase(wl, "timed", args.seconds, NullTracer(), first, min_requests)
    if wl.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_own] + child_setup_times(args, root)
    metrics = {
        **phase.stats(),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    n = len(phase.raw)
    beyond = n - math.ceil(0.9 * n)
    say(f"req_p90_ms: {n} samples, {beyond} beyond the 90th percentile"
        + ("" if beyond >= MIN_BEYOND_P90 else f" (fewer than {MIN_BEYOND_P90}: run longer)"))
    raw = phase.stats(raw=True)
    raw["setup_s"] = statistics.median(s["raw_s"] for s in setups)
    say("unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    say("setup_s samples: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
    return metrics, [phase]


def traced(args, root, wl, first) -> tuple[dict, list[Phase]]:
    half = args.seconds / 2
    plain = run_phase(wl, "timed", half, NullTracer(), first)
    before = cache_infos()
    tracer = Tracer()
    phase = run_phase(wl, "traced", half, tracer)
    after = cache_infos()

    per_name, layer_self, request_time = summarize(tracer.spans)
    metrics = {}
    for name, _, _ in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if name in phase.counts:
            metrics[name] = phase.counts[name]
        elif name in phase.samples:
            metrics[name] = statistics.median(phase.samples[name])
        elif stat in ("calls", "busy_s", "p50_ms"):
            metrics[name] = per_name.get(stem, {}).get(stat, 0)
        elif stat == "self_s":
            metrics[name] = layer_self.get(stem, 0.0)
        elif stat == "share":
            metrics[name] = layer_self.get(stem, 0.0) / request_time
        else:
            metrics[name] = 0
    for metric in CACHES:
        if metric not in after:  # the cached search is gone: omit its metrics
            del metrics[f"{metric}.cache_hit_ratio"], metrics[f"{metric}.cache_size"]
            continue
        hits = after[metric].hits - before[metric].hits
        misses = after[metric].misses - before[metric].misses
        metrics[f"{metric}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
        metrics[f"{metric}.cache_size"] = after[metric].currsize
    metrics.update(model_ns_per_call(wl.points))
    if wl.name == "cli":
        metrics["cli.import_ms"] = import_ms(wl.env, root)
    untraced_rps, traced_rps = plain.stats()["req_per_s"], phase.stats()["req_per_s"]
    metrics["trace.overhead_ratio"] = untraced_rps / traced_rps - 1

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    say(f"untraced {untraced_rps:.4f} req/s, traced {traced_rps:.4f} req/s, "
        f"{len(tracer.spans)} spans in {trace_file.relative_to(root)}")
    return metrics, [plain, phase]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU for this process and its children, so that the reference loop
    # runs where the requests run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    src = root / "src"
    if not (src / "urysohn" / "__init__.py").is_file():
        print(f"no urysohn sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import urysohn
    import workloads

    if Path(urysohn.__file__).resolve().parent != (src / "urysohn").resolve():
        print(f"imported urysohn from {urysohn.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    try:
        first = wl.requests("timed", 0)
        wl.warm_up()
        setup_raw = time.perf_counter() - STARTED
        setup_own = {"setup_s": setup_raw * speed(), "raw_s": setup_raw}
        if args.setup_only:
            print(json.dumps(setup_own))
            return 0
        say(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, "
            f"python {platform.python_version()}, nproc {os.cpu_count()}")
        if args.trace:
            metrics, phases = traced(args, root, wl, first)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, phases = end_to_end(args, root, wl, first, setup_own)
            units = END_TO_END
    finally:
        wl.close()

    for why in (why for phase in phases for why in phase.failures):
        print(f"FAILED {why}", file=sys.stderr)
    attempted = sum(len(phase.raw) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for name, value in metrics.items():
        say(f"{name} {value:.6g} {units[name]}")
    say(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
