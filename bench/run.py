"""Benchmark of abinertia: one workload, one seed, one closed loop.

    python3 bench/run.py --workload rules --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout that holds this
file, never from an installed copy.  Inputs are generated from the seed,
one caller runs each operation after the previous one has finished, and
every output is checked after its round, outside the timed region.  The
last line of standard output is one JSON object: with ``--trace 0`` it
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones
(from traced rounds alternating with untraced ones, whose comparison is
printed as the tracing overhead).  See bench/README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 3
WARM_ROUND = 10 ** 6  # round numbers from here on feed the warm-up only
# The host's speed drifts by tens of percent over seconds (README, "Host
# speed"), and pure-Python code slows down in step with it.  A fixed
# reference loop, timed every half second between operations, tracks that
# speed; each time is reported at the speed where one pass of the loop
# takes REFERENCE_S, using the passes within REFERENCE_WINDOW_S of it.
REFERENCE_S = 0.02
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 2.0


def reference_pass() -> float:
    """Seconds taken by one pass of the fixed reference loop: integer
    arithmetic, then dict and tuple churn, as the library does both.
    The cyclic garbage collector is off during the pass, so the size of
    the library's live heap cannot move it."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i % 7
    d: dict = {}
    for i in range(8_000):
        d[(i % 97, str(i % 13))] = [i, (i, x)]
        if i % 3 == 0:
            d.pop((i % 89, str(i % 11)), None)
    spent = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return spent


class HostSpeed:
    """Reference passes over time, and the local slowness they imply."""

    def __init__(self) -> None:
        self.passes: list[tuple[float, float]] = []   # (midpoint, seconds)
        self.last = -math.inf

    def sample(self, force: bool = False) -> float:
        """Take a pass if half a second has gone by; returns its cost."""
        now = time.perf_counter()
        if not force and now - self.last < REFERENCE_EVERY_S:
            return 0.0
        spent = reference_pass()
        self.passes.append((now + spent / 2, spent))
        self.last = time.perf_counter()
        return self.last - now

    def slowness(self, t: float) -> float:
        """Mean pass time near t over REFERENCE_S (1 at the reference)."""
        near = [s for m, s in self.passes if abs(m - t) <= REFERENCE_WINDOW_S]
        if not near:
            near = [min(self.passes, key=lambda p: abs(p[0] - t))[1]]
        return statistics.mean(near) / REFERENCE_S


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_library() -> None:
    package = SRC / "abinertia"
    if not (package / "__init__.py").is_file():
        _fail(f"no library sources at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import abinertia
    if Path(abinertia.__file__).resolve().parent != package:
        _fail(f"imported abinertia from {abinertia.__file__}, not from {package}")


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)    # completed operations
    starts: list[float] = field(default_factory=list)   # and when each began
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    rss_mb: float = 0.0   # peak resident memory when min_ops was reached
    errors: list[str] = field(default_factory=list)     # failed operations
    problems: list[str] = field(default_factory=list)   # incorrect outputs


def measure(wl, seed: int, seconds: float, work: Path, first_ops, speed: HostSpeed,
            tracer=None) -> tuple[Phase, Phase | None]:
    """Whole rounds until `seconds` of operation time and the workload's
    minimum operation count are both reached.  With a tracer, odd rounds
    are traced and even ones not, each kind until it reaches both limits,
    so the two sets of rounds see the same drift of the host's speed."""
    plain = Phase()
    traced = Phase() if tracer is not None else None

    def enough(ph: Phase | None) -> bool:
        # failed operations count towards the minimum only to end a run
        # in which the program keeps refusing them
        return ph is None or (ph.busy >= seconds and (
            len(ph.times) >= wl.min_ops or ph.attempted >= 4 * wl.min_ops))

    k = 0
    speed.sample(force=True)
    while not (enough(plain) and enough(traced)):
        ops = first_ops if k == 0 else wl.make_round(seed, k, work)
        on = traced is not None and k % 2 == 1
        ph = traced if on else plain
        done = []
        if on:
            tracer.install()
        start = time.perf_counter()
        for op in ops:
            ph.attempted += 1
            if on:
                tracer.op = ph.attempted
            a = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a refused operation is counted, not fatal
                ph.failed += 1
                ph.errors.append(f"failed {op.kind}: {exc!r}")
            else:
                ph.times.append(time.perf_counter() - a)
                ph.starts.append(a)
                done.append((op, out))
            if on:
                tracer.op = -1
                tracer.ops += 1
            start += speed.sample()   # passes are not operation time
        ph.busy += time.perf_counter() - start
        if on:
            tracer.uninstall()
        for op, out in done:
            try:
                bad = op.check(out)
            except Exception as exc:
                bad = [f"check of {op.kind} raised {exc!r}"]
            ph.problems += [f"incorrect {op.kind}: {p}" for p in bad]
        ph.rounds += 1
        k += 1
        if not ph.rss_mb and len(ph.times) >= wl.min_ops:
            ph.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample(force=True)
    return plain, traced


def scaled_times(ph: Phase, speed: HostSpeed) -> list[float]:
    """Operation times at the reference speed, each by its local pass rate."""
    return [t / speed.slowness(a + t / 2) for a, t in zip(ph.starts, ph.times)]


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        _fail("the seed must be >= 0 and the run at least one second")

    _import_library()
    import tracing
    import workloads
    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")

    out_dir = BENCH / "out"
    work = out_dir / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: generate the first round and warm up on spare inputs
        setups = []
        speed = HostSpeed()
        speed.sample(force=True)
        for rep in range(SETUP_REPEATS):
            t = time.perf_counter()
            first_ops = wl.make_round(args.seed, 0, work)
            # warm-up inputs come from a fixed seed, so set-up costs the
            # same whatever the seed, and from rounds never timed
            for op in wl.make_round(0, WARM_ROUND + rep, work)[:wl.warm_ops]:
                try:
                    op.run()
                except workloads.OperationFailed:
                    pass  # warm-up inputs are not measured
            setups.append(time.perf_counter() - t)
            speed.sample(force=True)
        setup_s = (import_s + statistics.median(setups)) / statistics.mean(
            s for _, s in speed.passes) * REFERENCE_S

        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(wl, args.seed, args.seconds, work, first_ops, speed, tracer)
        phases = [ph for ph in (plain, traced) if ph is not None]
        if tracer is not None:
            trace_file = out_dir / f"trace-{wl.name}-{args.seed}.csv"
            tracer.write(trace_file)
            overhead = (statistics.mean(scaled_times(traced, speed))
                        / statistics.mean(scaled_times(plain, speed)) - 1)
            print(f"tracing overhead: {overhead:+.1%} on the mean operation time at the "
                  f"reference speed "
                  f"({len(traced.times)} traced against {len(plain.times)} untraced "
                  f"operations in alternating rounds); {len(tracer.start)} spans "
                  f"written to {trace_file.relative_to(BENCH.parent)}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        else:
            n = len(plain.times)
            scaled = scaled_times(plain, speed)
            busy = plain.busy * sum(scaled) / sum(plain.times)
            print(f"{wl.name}: {n} operations in {plain.rounds} rounds; op_tail_s is "
                  f"p{wl.tail_pct} with {n - math.ceil(wl.tail_pct / 100 * n)} samples "
                  f"beyond it; {len(speed.passes)} reference passes put the host at "
                  f"{REFERENCE_S * len(speed.passes) / sum(s for _, s in speed.passes):.3f} "
                  f"of the reference speed; as measured: ops_per_s {n / plain.busy:.4f}, "
                  f"op_p50_s {statistics.median(plain.times):.5f}")
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": n / busy, "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
                "op_tail_s": {"value": percentile(scaled, wl.tail_pct), "unit": "s"},
                "peak_rss_mb": {"value": plain.rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for ph in phases for p in ph.errors + ph.problems]
    for p in problems[:20]:
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not any(ph.problems for ph in phases),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
