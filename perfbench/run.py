#!/usr/bin/env python3
"""The repository benchmark: three fixed-size simulations, timed from outside.

    python3 perfbench/run.py --workload session_steady --seed 2002 \\
        --seconds 30 --trace 0

Builds perfbench/ (which pulls in the p2ps library from src/) into
.bench_build/perfbench, then runs the workload in fresh harness processes:

* an untimed reference run of the same seed under a payload-invariant
  execution knob, whose result counters every timed run must reproduce
  (the output check; a mismatch is a failed run and its timings are
  dropped);
* with --trace 0, timed runs back to back for --seconds (at least one run;
  another starts only while the mean run still fits), plus construct-only
  processes for set-up time; it prints the medians of the end-to-end
  metrics;
* with --trace 1, one untimed-knob run, one run with telemetry attached
  and the layer drivers sized from that traced run; it prints the
  per-layer metrics with the operation sizes used.

--workload all runs the three workloads with their timed runs interleaved,
so a host-wide slowdown hits each of them. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for every metric, its unit and what should move it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "p2ps_perfbench"

WORKLOADS = ("session_steady", "message_steady", "sharded_parallel")
# Deterministic result counters the output check compares across knobs.
CHECKED = ("attempts", "admissions", "rejections", "messages_sent",
           "sessions_completed", "final_capacity")
# Construct-only processes per invocation: set-up samples beyond the one
# each timed run gives.
SETUP_SAMPLES = 7
# Whole-invocation wall-clock limit; every child gets what is left.
DEADLINE_S = 170.0

E2E_UNITS = {
    "attempts_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "sim.events": "count",
    "sim.peak_pending": "count",
    "sim.event_ns": "ns",
    "sim.timers_fired": "count",
    "sim.timer_ns": "ns",
    "sim.sub_windows": "count",
    "sim.window_sync_us": "us",
    "net.messages": "count",
    "net.batch_mean": "msgs",
    "net.mailbox_ns": "ns",
    "net.cross_shard_messages": "count",
    "net.cross_shard_messages_1t": "count",
    "net.exchange_ns": "ns",
    "net.pool_reuse_ratio": "ratio",
    "lookup.candidates_ns": "ns",
    "engine.directory_flushes": "count",
    "core.select_ns": "ns",
    "core.admit_ratio": "ratio",
    "util.rehydrate_ns": "ns",
    "workload.arrival_ns": "ns",
    "obs.step_s": "s",
    "obs.route_drain_s": "s",
    "obs.barrier_s": "s",
    "obs.merge_s": "s",
    "obs.imbalance": "ratio",
    "obs.unattributed_s": "s",
    "obs.trace_overhead_pct": "%",
    "obs.watchdog_trips": "count",
}


class HarnessError(RuntimeError):
    """One harness process failed; a timed run counts it as a failed run."""


class OutOfTime(RuntimeError):
    """The invocation used up DEADLINE_S; nothing more can be measured."""


class Bench:
    def __init__(self, seed):
        self.seed = seed
        self.started = time.monotonic()

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1.0:
            raise OutOfTime("benchmark ran out of its time limit")
        return left

    def harness(self, *args):
        """Runs one harness process; returns its JSON result line."""
        command = [str(BINARY), *map(str, args)]
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as e:
            raise OutOfTime(f"timed out: {' '.join(command)}") from e
        if done.returncode != 0:
            raise HarnessError(f"exit {done.returncode}: {' '.join(command)}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def run(self, workload, knob, telemetry=None):
        args = ["run", "--workload", workload, "--seed", self.seed,
                "--knob", knob]
        if telemetry is not None:
            args += ["--telemetry", telemetry]
        return self.harness(*args)

    def setup_sample(self, workload):
        return self.harness("run", "--workload", workload, "--seed", self.seed,
                            "--construct-only", "1")["setup_s"]


def build():
    """Configures (once) and builds the harness; returns the build type."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("perfbench: p2ps sources (src/) not found next to perfbench/")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "p2ps_perfbench",
                    "-j", str(min(os.cpu_count() or 1, 4))],
                   stdout=sys.stderr, env=env, check=True)
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        sys.exit(f"perfbench: refusing a non-optimised build ({build_type!r})")
    return build_type


def host_context(build_type):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10)
        revision = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        revision = ""
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "load_avg_before": list(os.getloadavg()),
            "build_type": build_type,
            "git_describe": revision or "unavailable (not a git checkout)"}


def check(reference, result):
    """The output check: True when every checked counter matches."""
    return all(result["counters"][k] == reference["counters"][k] for k in CHECKED)


class Timed:
    """Timed runs of one workload, checked against its reference run."""

    def __init__(self, bench, workload):
        self.bench = bench
        self.workload = workload
        self.reference = bench.run(workload, "reference")
        self.runs = []
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0

    def once(self):
        start = time.monotonic()
        self.attempted += 1
        try:
            result = self.bench.run(self.workload, "timed")
        except HarnessError as e:
            print(f"perfbench: {self.workload}: {e}", file=sys.stderr)
            result = None
        self.measured_s += time.monotonic() - start
        if result is not None and check(self.reference, result):
            self.runs.append(result)
        else:
            self.failed += 1

    def metrics(self):
        setups = [r["setup_s"] for r in self.runs]
        setups += [self.bench.setup_sample(self.workload)
                   for _ in range(SETUP_SAMPLES)]
        if not self.runs:
            raise HarnessError(f"{self.workload}: every timed run failed")
        values = {
            "attempts_per_s": statistics.median(
                r["counters"]["attempts"] / r["run_s"] for r in self.runs),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in self.runs),
            "peak_rss_mb": statistics.median(
                r["peak_rss_bytes"] / 2**20 for r in self.runs),
        }
        return {name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in values.items()}


def measure_e2e(bench, workloads, seconds):
    """Interleaved timed runs: each workload runs at least once and starts
    another run only while its mean run still fits in `seconds`."""
    timed = {w: Timed(bench, w) for w in workloads}
    rounds = 0
    while True:
        pending = [w for w in workloads if timed[w].attempted == 0 or
                   timed[w].measured_s * (1 + 1 / timed[w].attempted) <= seconds]
        if not pending:
            break
        shift = rounds % len(pending)
        for w in pending[shift:] + pending[:shift]:
            timed[w].once()
        rounds += 1
    return timed


def peak_timers_armed(telemetry):
    """The largest armed-timer population over the traced run's snapshots,
    or None when the workload arms no timers."""
    armed = [row["metrics"]["timers_armed"]
             for row in map(json.loads, telemetry.read_text().splitlines())
             if row["type"] == "snapshot" and "timers_armed" in row["metrics"]]
    return max(armed) if armed else None


def layer_sizes(traced, telemetry):
    """Layer-driver sizes read from the traced run. A size the workload
    lacks is left out and the driver runs at LayerSizes' neutral default."""
    shape, counters = traced["shape"], traced["counters"]
    sizes = {
        "pending": shape["peak_pending"],
        "timer-span-ms": shape["t_out_ms"],
        "peers": shape["peers"],
        "suppliers": shape["mean_suppliers"],
        "m": shape["m_candidates"],
        "attempts-per-requester": counters["attempts"] / shape["first_requests"],
        "arrivals": shape["requesters"],
        "arrival-window-ms": shape["arrival_window_ms"],
    }
    timers = peak_timers_armed(telemetry)
    if timers:
        sizes["timers"] = timers
    if "drains" in shape:
        sizes["batch-mean"] = shape["messages"] / shape["drains"]
    if "sub_windows" in shape:
        for key in ("shards", "threads", "fusion", "lookahead_ms", "sub_windows"):
            sizes[key.replace("_", "-")] = shape[key]
        sizes["msgs-per-shard-window"] = (
            shape["messages"] / (shape["sub_windows"] * shape["shards"]))
    return sizes


def describe_sizes(workload, layers, traced):
    """The operation sizes beside each timed layer metric, as the drivers
    report they ran them."""
    shape = traced["shape"]
    uses = {
        "sim.timer_ns": traced["telemetry"]["timers_fired"] > 0,
        "sim.window_sync_us": "sub_windows" in shape,
        "net.mailbox_ns": "drains" in shape,
        "net.exchange_ns": "sub_windows" in shape,
        "util.rehydrate_ns": workload == "sharded_parallel",
        "workload.arrival_ns": workload == "sharded_parallel",
    }
    s, derived = layers["sizes"], layers["derived_sizes"]
    described = {
        "sim.event_ns": {"pending": s["pending"], "event_list": "heap"},
        "sim.timer_ns": {"peak_armed_timers": s["timers"],
                         "span_ms": s["timer_span_ms"], "strategy": "wheel"},
        "sim.window_sync_us": {"shards": s["shards"], "threads": s["threads"],
                               "fusion": s["fusion"],
                               "lookahead_ms": s["lookahead_ms"],
                               "sub_windows_per_run": derived["sub_windows_per_run"]},
        "net.mailbox_ns": {"batch_mean": s["batch_mean"], "peers": s["peers"],
                           "groups_in_flight": derived["groups_in_flight"]},
        "net.exchange_ns": {"shards": s["shards"],
                            "msgs_per_shard_window": s["msgs_per_shard_window"],
                            "peers": s["peers"]},
        "lookup.candidates_ns": {"suppliers": s["suppliers"], "m": s["m"]},
        "core.select_ns": {"policy": "paper-dac", "offers": s["m"]},
        "util.rehydrate_ns": {"draws": derived["rehydration_draws"],
                              "draws_per_lookup": derived["draws_per_lookup"],
                              "attempts_per_requester":
                                  s["attempts_per_requester"]},
        "workload.arrival_ns": {"arrivals": s["arrivals"],
                                "window_ms": s["arrival_window_ms"],
                                "schedule": "lazy"},
    }
    for name, used in uses.items():
        described[name]["used_by_workload"] = used
    return described


def measure_layers(bench, workload):
    """One traced run and the layer drivers; returns (metrics, sizes, n, failed)."""
    reference = bench.run(workload, "reference")
    plain = bench.run(workload, "timed")
    telemetry = BUILD / f"telemetry-{workload}-{bench.seed}.jsonl"
    traced = bench.run(workload, "timed", telemetry=telemetry)
    checked = [plain, traced]
    one_thread = None
    if workload == "sharded_parallel":
        one_thread = bench.run(workload, "threads1")
        checked.append(one_thread)
    failed = sum(not check(reference, r) for r in checked)

    sizes = layer_sizes(traced, telemetry)
    args = ["layers", "--seed", bench.seed]
    for key, value in sizes.items():
        args += [f"--{key}", value]
    layers = bench.harness(*args)

    shape, counters = traced["shape"], traced["counters"]
    phases = traced.get("phases", {})
    covered = (phases.get("step_max_shard_s", 0.0) + phases.get("barrier_s", 0.0)
               + phases.get("merge_s", 0.0))
    reuses, allocations = shape.get("pool_reuses", 0), shape.get("pool_allocations", 0)
    values = {
        "sim.events": shape["events"],
        "sim.peak_pending": shape["peak_pending"],
        "sim.timers_fired": traced["telemetry"]["timers_fired"],
        "sim.sub_windows": shape.get("sub_windows", 0),
        "net.messages": counters["messages_sent"],
        "net.batch_mean": sizes.get("msgs-per-shard-window",
                                    sizes.get("batch-mean", 0.0)),
        "net.cross_shard_messages": shape.get("cross_shard_messages", 0),
        "net.cross_shard_messages_1t": (
            one_thread["shape"]["cross_shard_messages"] if one_thread else 0),
        "net.pool_reuse_ratio": (reuses / (reuses + allocations)
                                 if reuses + allocations else 0.0),
        "engine.directory_flushes": shape.get("directory_flushes", 0),
        "core.admit_ratio": counters["admissions"] / counters["attempts"],
        "obs.step_s": phases.get("step_s", 0.0),
        "obs.route_drain_s": phases.get("route_drain_s", 0.0),
        "obs.barrier_s": phases.get("barrier_s", 0.0),
        "obs.merge_s": phases.get("merge_s", 0.0),
        "obs.imbalance": phases.get("imbalance", 0.0),
        "obs.unattributed_s": traced["run_s"] - covered,
        "obs.trace_overhead_pct": (traced["run_s"] / plain["run_s"] - 1.0) * 100.0,
        "obs.watchdog_trips": traced["telemetry"]["watchdog_trips"],
    }
    values.update(layers["metrics"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    described = describe_sizes(workload, layers, traced)
    return metrics, described, len(checked), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    host = host_context(build())
    bench = Bench(options.seed)
    workloads = WORKLOADS if options.workload == "all" else (options.workload,)
    prefix = (lambda w, name: f"{w}.{name}") if len(workloads) > 1 else (
        lambda w, name: name)

    metrics, attempted, failed, sizes = {}, 0, 0, {}
    try:
        if options.trace:
            for w in workloads:
                layer_metrics, sizes[w], n, bad = measure_layers(bench, w)
                attempted, failed = attempted + n, failed + bad
                metrics.update({prefix(w, k): v for k, v in layer_metrics.items()})
        else:
            timed = measure_e2e(bench, workloads, options.seconds)
            for w in workloads:
                attempted += timed[w].attempted
                failed += timed[w].failed
                metrics.update({prefix(w, k): v
                                for k, v in timed[w].metrics().items()})
                print(f"{w:17s} error_rate {timed[w].failed / timed[w].attempted:.6g}"
                      f" ratio ({timed[w].failed} failed of {timed[w].attempted}"
                      " timed runs)")
    except (HarnessError, OutOfTime) as e:
        sys.exit(f"perfbench: {e}")

    host["load_avg_after"] = list(os.getloadavg())
    print(json.dumps({"host": host}))
    if sizes:
        print(json.dumps({"layer_sizes": sizes}))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
