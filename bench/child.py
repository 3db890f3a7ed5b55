"""One pass of a workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and a
pinned PYTHONHASHSEED.  It imports dp6, builds the pass's inputs (set-up),
then runs every operation closed-loop, checks each answer, and prints one
JSON object as its last line of output.

Untraced passes also time a fixed reference loop from a SIGALRM handler
throughout set-up and the timed part (`Speedometer`), so that run.py can state
every timing at a reference speed of the machine; the handler's time is taken
out of each measured time.

    python3 bench/child.py --workload W --seed N --trace 0|1 --spawned-at T
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

import workloads as W  # noqa: E402  (bench/ is on sys.path as the script dir)


def reference_loop():
    """A fixed piece of pure-Python work (dict and int operations, no
    container allocation, so it starts no garbage collection)."""
    d = {}
    for i in range(20000):
        k = i & 255
        d[k] = d.get(k, 0) + i * 3 // 7
    return d[0]


class Speedometer:
    """Times reference_loop from a SIGALRM handler, between the bytecodes of
    whatever runs, so that the samples follow the speed the host gives this
    process while the pass runs; `spent` is the handler's total wall time,
    to be subtracted from the times it interrupted.  Set-up lasts under a
    second, so it is sampled more often than the timed part."""

    SETUP_PERIOD_S = 0.04
    PERIOD_S = 0.25
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def tick(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self, period):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def take(self):
        """Stop, and hand over the samples taken since start (at least
        MIN_SAMPLES)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        while len(self.samples) < self.MIN_SAMPLES:
            self.tick()
        samples, self.samples = self.samples, []
        return samples


def environment():
    import platform

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES, "nproc": os.cpu_count(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def setup(workload, seed):
    """Import dp6 and build the pass's inputs; returns (dp6, ops, runner)."""
    import dp6
    import dp6.cli
    import dp6.scenario

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(dp6.__file__).startswith(src + os.sep):
        raise RuntimeError(f"dp6 imported from {dp6.__file__}, not from {src}")
    data = W.generate(workload, seed)
    load = dp6.scenario.load_scenario
    if workload in W.LIBRARY:
        towers = W.build_towers(load)
        ops = W.build_library_ops(dp6, workload, data, towers)
        return dp6, ops, lambda op: W.run_library_op(dp6, workload, *op)

    os.makedirs(OUT_DIR, exist_ok=True)
    if workload == "example-main":
        raw = W.example_scenario(dp6.cli.bundled_path("example-main"),
                                 data["shifts"])
        path = os.path.join(OUT_DIR, f"example-main-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2)
        cases = [("example-main", path, False, seed == 0)]
    else:
        cases = [(name, dp6.cli.bundled_path(name), strict, True)
                 for name, strict in data["cases"]]
    return dp6, cases, lambda case: run_cli_case(dp6, *case)


def run_cli_case(dp6, name, path, strict, has_golden):
    """Run one scenario through cli.run and compare its report and exit code
    with the golden ones, or check the example invariants where the seed
    redrew the scenario."""
    code, text = dp6.cli.run(path, strict=strict)
    case = W.case_name(name, strict)
    if not has_golden:
        problems = W.check_example_invariants(code, text)
        return not problems, text, "; ".join(problems) or None
    want_code, want_text = W.golden(case)
    if (code, text) != (want_code, want_text):
        return False, text, f"{case}: report or exit code differs from golden"
    return True, text, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    args = ap.parse_args(argv)

    # traced passes leave the speedometer off: its ticks would sit in spans
    speed = Speedometer()
    setup_reference = reference = []
    if not args.trace:
        speed.start(speed.SETUP_PERIOD_S)
    dp6, ops, runner = setup(args.workload, args.seed)
    tracer = None
    problems = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        setup_reference = speed.take()
    spent = speed.spent
    setup_s = time.monotonic() - args.spawned_at - spent
    if not args.trace:
        speed.start(speed.PERIOD_S)

    latencies, cpu_times, kinds, answers, failed = [], [], [], [], 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        c0, t0 = time.process_time(), time.perf_counter()
        s0 = speed.spent
        try:
            ok, answer, why = runner(op)
        except Exception:  # a crash is a failed operation, not a dead run
            ok, answer, why = False, "exception", traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        ticks = speed.spent - s0
        latencies.append(t1 - t0 - ticks)
        cpu_times.append(c1 - c0 - ticks)
        kinds.append(op[0]["kind"] if isinstance(op[0], dict) else "cli")
        answers.append(answer)
        if not ok:
            failed += 1
            problems.append(why)
    ticks = speed.spent - spent
    wall = time.perf_counter() - wall0 - ticks
    cpu = time.process_time() - cpu0 - ticks
    if not args.trace:
        reference = speed.take()

    result = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_reference_s": setup_reference, "reference_s": reference,
        "latencies_s": latencies, "cpu_times_s": cpu_times, "kinds": kinds,
        "attempted": len(ops), "failed": failed,
        "problems": [p for p in problems if p][:10],
        "digest": W.digest(answers), "env": environment(),
    }
    if args.workload in W.LIBRARY:
        recorded = W.recorded_digests()[args.workload].get(
            str(W.input_set(args.seed)))
        if recorded is None:
            result["problems"].append("no recorded answer digest for this seed")
            result["failed"] = result["attempted"]
        result["digest_expected"] = recorded
    if tracer is not None:
        result["trace"] = tracer.summary()
        import dp6.points

        result["trace"]["counts"]["points.composite_cache.entries"] = len(
            getattr(dp6.points, "_COMPOSITE_CACHE", ()))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz"))
        # after the timed part, so that nothing the check builds is reused
        probe = W.build_towers(dp6.scenario.load_scenario)["Z6"]
        result["problems"] += tracer.self_check(probe)
        tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
