"""dp6 benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One caller, closed loop: passes run one after another, each in a fresh
interpreter (bench/child.py) so caches start cold and no state leaks between
passes; a pass starts only when the previous one has ended.  Passes repeat,
at least twice, until the next one would end well past --seconds; every
metric is a median over passes.  Each untraced pass also times a fixed
reference loop throughout (child.Speedometer), and every timing
metric is scaled by the pass's reference-loop time to the reference speed
REFERENCE_LOOP_S: the host's speed drifts by tens of percent over minutes,
and the scaling takes that drift out.  The detail line carries the unscaled
times as raw_*.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json.  With --trace 1 the run alternates an untraced and
a traced pass and reports the per-layer metrics, the tracing overhead, and
whether tracing changed any report.  `--workload all` prints one row per
workload with every end-to-end metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

HASH_SEED = "0"
HARD_LIMIT_S = 170.0      # every run must end within 180 s
# Passes are scaled to the reference speed, so a pass slowed by the host
# counts as much as any other; two passes keep the longest workload's runs
# near --seconds.
MIN_PASSES = 2
# Time of child.reference_loop at the reference speed: the median of 200
# runs on the 2-core x86-64 VM the bounds were set on, rounded.  Every timing
# metric is stated at this speed (see speed_factor).
REFERENCE_LOOP_S = 0.005

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}
# Reported in the detail line and the table but not gated: ops_per_s is
# ops_per_pass / wall_s, and the rest are missing or zero on some workloads.
DETAIL_UNITS = {"ops_per_s": "1/s", "op_p90_ms": "ms", "reject_p50_ms": "ms",
                "fail_frac": "ratio"}

CALLS = ["ratfunc.cancel_pair", "ratfunc.cpoly_mul", "ratfunc.qomega_mul",
         "fieldtower.apply", "fieldtower.norm", "fieldtower.rad_mul",
         "fieldtower.composite_group", "fieldtower.norm_class",
         "curveconfig.induced_sigma_prime_action", "surface.make_surface",
         "surface.verify_cocycle", "points.twisted_orbit",
         "points.validate_point", "points.general_position",
         "points.composite_for", "sarkisov.link",
         "sarkisov.declared_point_handle"]
SELF_S = ["ratfunc.cancel_pair", "ratfunc.cpoly_mul", "fieldtower.apply",
          "fieldtower.norm", "fieldtower.rad_mul", "fieldtower.composite_group",
          "curveconfig.induced_sigma_prime_action", "curveconfig.config",
          "surface.make_surface", "surface.verify_cocycle",
          "surface.severi_brauer_data", "points.twisted_orbit", "sarkisov.link",
          "sarkisov.declared_point_handle", "sarkisov.is_birationally_rigid",
          "birgroup.explore_graph", "birgroup.psi_image",
          "birgroup.check_relation", "scenario.load_scenario"]
# ratio -> (numerator count, base calls)
RATIOS = {
    "ratfunc.cancel_pair.monomial_frac":
        ("ratfunc.cancel_pair.monomial", "ratfunc.cancel_pair"),
    "ratfunc.cancel_pair.omega_frac":
        ("ratfunc.cancel_pair.omega", "ratfunc.cancel_pair"),
    "points.composite_for.miss_frac":
        ("points.composite_for.misses", "points.composite_for"),
    "sarkisov.link.distinct_frac": ("sarkisov.link.distinct", "sarkisov.link"),
}
PROVENANCES = ("certificate", "valuation-proof", "residue-proof", "assumed",
               "none")


def per_layer_units():
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF_S})
    units.update({n: "ratio" for n in RATIOS})
    units["points.composite_cache.entries"] = "count"
    units.update({f"fieldtower.norm_class.{p}": "count" for p in PROVENANCES})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def spawn(workload, seed, trace, timeout):
    """Run one pass in a fresh interpreter; returns (result or None, error)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"pass exited {proc.returncode}: {proc.stderr[-800:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"pass printed no result: {proc.stdout[-300:]}"


def run_passes(workload, seed, seconds, traces, min_groups):
    """Repeat groups of passes (one per entry of traces) until the next group
    would end past --seconds by more than half a group, and at least
    min_groups times."""
    start = time.monotonic()
    groups, durations, errors = [], [], []
    while True:
        t0 = time.monotonic()
        group = []
        for trace in traces:
            left = HARD_LIMIT_S - (time.monotonic() - start)
            res, err = spawn(workload, seed, trace, left)
            group.append(res)
            if err:
                errors.append(err)
        groups.append(group)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        est = statistics.median(durations)
        if elapsed + est > HARD_LIMIT_S or (
                len(groups) >= min_groups and elapsed + est / 2 > seconds):
            return groups, errors


def median(xs):
    return statistics.median(xs) if xs else None


def check_passes(passes, errors):
    """Cross-pass checks; returns (attempted, failed, problems)."""
    problems = list(errors)
    attempted = failed = 0
    digests = set()
    for p in passes:
        if p is None:
            failed += 1
            attempted += 1
            continue
        attempted += p["attempted"]
        failed += p["failed"]
        problems += p["problems"]
        digests.add(p["digest"])
        want = p.get("digest_expected")
        if want is not None and p["digest"] != want:
            problems.append(f"answer digest {p['digest'][:12]} differs from "
                            f"the recorded {want[:12]}")
            failed += p["attempted"] - p["failed"]
    if len(digests) > 1:
        problems.append("passes with the same inputs gave different answers")
    return attempted, failed, problems


def speed_factor(p, samples="reference_s"):
    """What turns the pass's times into times at the reference speed:
    REFERENCE_LOOP_S over the harmonic mean of the pass's reference-loop
    times, i.e. the mean speed over the pass relative to the reference;
    `samples` picks those of the pass's set-up or of its timed part.  (The work done in a time T is T times the mean speed; on 30 passes of
    cli-small the median instead scaled by the 0.87th power of the speed and
    left twice the spread.)"""
    return REFERENCE_LOOP_S / statistics.harmonic_mean(p[samples])


def end_to_end(passes):
    """Medians over passes, at the reference speed.  Each pass's times are
    scaled by its speed_factor, which takes out the drift of the host's
    speed between passes and runs.  All passes of a run have the same
    inputs, so each operation's latency is taken as its median across
    passes; wall_s and cpu_s are the sums of those medians, which keeps a
    burst of load from a neighbour on the machine out of every metric but
    one pass.  The same metrics as measured, unscaled, go to the detail
    line as raw_*."""
    ok = [p for p in passes if p is not None]
    if not ok:
        return None, {}
    n = len(ok[0]["latencies_s"])
    kinds = ok[0]["kinds"]

    def summary(scale):
        lat = [median([p["latencies_s"][i] * scale(p) for p in ok]) * 1000
               for i in range(n)]
        cpu = [median([p["cpu_times_s"][i] * scale(p) for p in ok])
               for i in range(n)]
        return lat, {
            "setup_s": median([p["setup_s"] * scale(p, "setup_reference_s")
                               for p in ok]),
            "wall_s": sum(lat) / 1000,
            "cpu_s": sum(cpu),
            "op_p50_ms": median([t for t, k in zip(lat, kinds)
                                 if k != "reject"]),
        }

    lat, metrics = summary(speed_factor)
    metrics["peak_rss_mb"] = median([p["peak_rss_mb"] for p in ok])
    _, raw = summary(lambda p, samples=None: 1.0)
    factors = [speed_factor(p) for p in ok]
    extra = {"passes": len(ok), "ops_per_pass": n,
             "ops_per_s": n * 1000 / sum(lat),
             "speed_factor_min": min(factors),
             "speed_factor_max": max(factors),
             "reference_samples": sum(len(p["reference_s"]) for p in ok)}
    extra.update({f"raw_{k}": v for k, v in raw.items()})
    pooled = [t * 1000 * speed_factor(p) for p in ok
              for t, k in zip(p["latencies_s"], kinds) if k != "reject"]
    if len(pooled) >= 100:    # at least ten samples beyond the 90th percentile
        extra["op_p90_ms"] = statistics.quantiles(pooled, n=10)[-1]
        extra["op_p90_samples"] = len(pooled)
    rejected = [t for t, k in zip(lat, kinds) if k == "reject"]
    if rejected:
        extra["reject_p50_ms"] = median(rejected)
        extra["reject_samples"] = len(rejected)
    return metrics, extra


def per_layer(untraced, traced):
    """Per-layer metrics from the traced passes; problems if counts differ."""
    problems = []
    ok = [p for p in traced if p is not None]
    if not ok:
        return None, ["no traced pass completed"]
    summaries = [p["trace"] for p in ok]
    first = summaries[0]
    for s in summaries[1:]:
        if (s["calls"], s["counts"]) != (first["calls"], first["counts"]):
            problems.append("traced passes counted different work")
    calls, counts = first["calls"], first["counts"]
    metrics = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
    for n in SELF_S:
        metrics[f"{n}.self_s"] = median([s["self_s"].get(n, 0.0)
                                         for s in summaries])
    for name, (num, base) in RATIOS.items():
        metrics[name] = counts.get(num, 0) / calls[base] if calls.get(base) else 0.0
    metrics["points.composite_cache.entries"] = counts.get(
        "points.composite_cache.entries", 0)
    for p in PROVENANCES:
        metrics[f"fieldtower.norm_class.{p}"] = counts.get(
            f"fieldtower.norm_class.{p}", 0)
    plain = [p["wall_s"] for p in untraced if p is not None]
    metrics["trace.overhead_s"] = (
        median([p["wall_s"] for p in ok]) - median(plain) if plain else 0.0)
    digests = {p["digest"] for p in ok} | {p["digest"] for p in untraced if p}
    if len(digests) > 1:
        problems.append("tracing changed a report")
    return metrics, problems


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, detail)."""
    if trace:
        groups, errors = run_passes(workload, seed, seconds, (0, 1), 1)
        untraced = [g[0] for g in groups]
        traced = [g[1] for g in groups]
        attempted, failed, problems = check_passes(untraced + traced, errors)
        metrics, more = per_layer(untraced, traced)
        problems += more
        units = per_layer_units()
        extra = {"pairs": len(groups)}
    else:
        groups, errors = run_passes(workload, seed, seconds, (0,), MIN_PASSES)
        passes = [g[0] for g in groups]
        attempted, failed, problems = check_passes(passes, errors)
        metrics, extra = end_to_end(passes)
        units = END_TO_END
    if metrics is None:
        return None, {"problems": problems}
    env = next((p["env"] for g in groups for p in g if p), {})
    detail = dict(extra, workload=workload, seed=seed, trace=trace,
                  fail_frac=failed / attempted, problems=problems[:10],
                  env=dict(env, git_commit=git_commit()))
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    return result, detail


def table(seed, seconds):
    """Every end-to-end metric by name and unit, one row per workload."""
    units = dict(END_TO_END, **DETAIL_UNITS)
    head = ["workload"] + [f"{c}({u})" for c, u in units.items()]
    print("  ".join(f"{h:>16}" for h in head))
    all_ok = True
    for workload in W.WORKLOADS:
        result, detail = run(workload, seed, seconds, 0)
        if result is None:
            print(f"{workload:>16}  no pass completed: {detail['problems'][:2]}")
            all_ok = False
            continue
        vals = [result["metrics"][c]["value"] for c in END_TO_END]
        vals += [detail.get(c) for c in DETAIL_UNITS]
        print("  ".join([f"{workload:>16}"] + [
            f"{'-':>16}" if v is None else f"{v:>16.4f}" for v in vals]))
        all_ok &= result["correct"]
    return 0 if all_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    # exit through Python on SIGTERM so that subprocess.run kills the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "dp6", "__init__.py")):
        print(f"error: no dp6 sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return table(args.seed, args.seconds)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print("detail: " + json.dumps(detail))
    if result is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
