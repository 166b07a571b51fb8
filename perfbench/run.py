#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload suite-sweep --seed 1 \
        --seconds 20 --trace 0

Builds rm-perfbench and rm-serve from source into .bench_build/
(first run only), runs one workload for --seconds, checks every
simulated output against perfbench/expected_cells.json and prints the
metrics: one line per metric, then one JSON object as the last line.
--trace 0 reports the end-to-end metrics; --trace 1 runs half the time
untraced and half with spans, reports the per-layer metrics and writes
a Chrome trace plus a layer table to .bench_build/traces/.

Exit status: 0 when every output checked out, 1 when any did not, 2
when the benchmark could not run (no result is printed then).

    python3 perfbench/run.py --capture-expected
rewrites perfbench/expected_cells.json from the current code.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["suite-sweep", "inspect-observed", "serve-closed"]
RUN_TIMEOUT_S = 170

# End-to-end metrics: name -> (unit, workloads where it is defined).
# On the other workloads the result still carries the name, with the
# constant 1.0 (printed as n/a), so that every run reports every name.
END_TO_END = {
    "setup_s": ("s", WORKLOADS),
    "sim_cycles_per_s": ("1/s", WORKLOADS),
    "p50_ms": ("ms", WORKLOADS),
    "tail_ms": ("ms", WORKLOADS),
    "req_per_s": ("1/s", ["serve-closed"]),
    "observe_overhead_x": ("x", ["inspect-observed"]),
    "profile_overhead_x": ("x", ["inspect-observed"]),
    "peak_rss_mb": ("MB", WORKLOADS),
    "ok_frac": ("frac", WORKLOADS),
    "paper_err_pp": ("pp", ["suite-sweep"]),
    "paper_err_tuned_pp": ("pp", ["suite-sweep"]),
}
NOT_DEFINED = 1.0

# The operation whose latency p50_ms / tail_ms describe.
MAIN_OP = {"suite-sweep": "pass", "inspect-observed": "observed",
           "serve-closed": "cold"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources (src/) are missing")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=900).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def run_benchmark(out, plan, seconds, trace):
    work = out / "work"
    work.mkdir(exist_ok=True)
    plan_path = work / f"plan-{plan['workload']}.json"
    raw_path = work / f"raw-{plan['workload']}.json"
    plan_path.write_text(json.dumps(plan))
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(out / "rm-perfbench"), "--plan", str(plan_path),
           "--out", str(raw_path), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(work),
           "--serve-bin", str(out / "rm-serve")]
    # A process group of its own, so a timeout can stop rm-perfbench
    # together with any rm-serve daemon it started.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"rm-perfbench ran past {RUN_TIMEOUT_S} s")
    if status != 0 or not raw_path.is_file():
        fail(f"rm-perfbench failed (exit {status})")
    return json.loads(raw_path.read_text())


def ms_of(ops, kind, phase="u"):
    return [o["ms"] for o in ops if o["kind"] == kind and o["phase"] == phase]


def total_cycles(ops):
    return sum(c[1] for o in ops for c in o["cells"])


def end_to_end(workload, raw, plan, expected):
    ops = raw["ops"]
    main = [o for o in ops if o["kind"] == MAIN_OP[workload]
            and o["phase"] == "u"]
    main_ms = [o["ms"] for o in main]
    tail = M.tail(main_ms)
    if tail is None:
        fail(f"only {len(main_ms)} {MAIN_OP[workload]} operations; "
             "run for more seconds")
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "p50_ms": statistics.median(main_ms),
        "tail_ms": tail[0],
        "peak_rss_mb": statistics.median(raw["sizes"]["peak_rss_kb"]) / 1024,
        "ok_frac": sum(o["ok"] for o in ops) / len(ops),
    }
    notes = {"tail_ms": f"p{tail[1]:.1f} of {tail[2]} samples, "
                        "10 beyond it"}
    # Simulated cycles of the main operations over their own host time
    # (for serve: the cold requests' round trips).
    values["sim_cycles_per_s"] = total_cycles(main) / (sum(main_ms) / 1000)
    if workload == "serve-closed":
        answered = [o for o in ops if o["phase"] == "u"
                    and o["kind"] in ("cold", "hit")]
        values["req_per_s"] = len(answered) / raw["loop_s"]["u"]
    if workload == "inspect-observed":
        bare = sum(ms_of(ops, "bare"))
        values["observe_overhead_x"] = sum(ms_of(ops, "observed")) / bare
        values["profile_overhead_x"] = sum(ms_of(ops, "profiled")) / bare
    if workload == "suite-sweep":
        cells = [tuple(c) for c in plan["cells"]]
        cycles = {cells[c[0]]: c[1] for c in main[0]["cells"]}
        averages = M.figure_averages(cycles, expected)
        values["paper_err_pp"] = M.paper_error(averages, M.PAPER_HELD_OUT)
        values["paper_err_tuned_pp"] = M.paper_error(averages, M.PAPER_TUNED)
        notes["paper_err_pp"] = ", ".join(
            f"{k} {averages[k]:.1f} vs {v}" for k, v in
            M.PAPER_HELD_OUT.items())
        notes["paper_err_tuned_pp"] = ", ".join(
            f"{k} {averages[k]:.1f} vs {v}" for k, v in
            M.PAPER_TUNED.items())
    out = {}
    for name, (unit, defined) in END_TO_END.items():
        if workload in defined:
            out[name] = (values[name], unit, notes.get(name, ""))
        else:
            out[name] = (NOT_DEFINED, unit, "n/a on this workload")
    return out


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(workload, raw, plan):
    """Per-layer metrics from the traced half of a --trace 1 run."""
    spans = raw["spans"]
    selfs = M.self_times(spans)
    cell_of = M.span_cells(spans)
    by_id = {s[0]: s for s in spans}
    cells = [tuple(c) for c in plan["cells"]]
    ops = raw["ops"]

    def dur(s):
        return (s[6] - s[5]) / 1000.0   # ms

    def named(name):
        return [s for s in spans if s[4] == name]

    def root(s):
        while s[1] in by_id:
            s = by_id[s[1]]
        return s

    v = {}
    v["workloads.build_ms"] = mean(dur(s) for s in named("workloads.build"))
    for layer, name in [("compiler", "compiler.compile"),
                        ("analysis", "analysis.lint")]:
        spans_l = named(name)
        parents = {s[1] for s in spans_l}
        v[f"{layer}.{name.split('.')[1]}_ms"] = mean(dur(s) for s in spans_l)
        parent_ms = sum(dur(by_id[p]) for p in parents)
        v[f"{layer}.cell_share"] = \
            sum(dur(s) for s in spans_l) / parent_ms if parent_ms else 0.0

    sims = named("sim.simulate")
    v["sim.cell_ms"] = mean(selfs[s[0]] / 1000.0 for s in sims)
    # Engine speed per policy: cycles over simulate self time. On
    # inspect-observed only the bare runs count (no sinks attached).
    engine = [s for s in sims if workload != "inspect-observed"
              or root(s)[4] == "inspect.bare"]
    cycles_of = {c[0]: c[1] for o in ops for c in o["cells"]}
    for p in M.POLICIES:
        mine = [s for s in engine if cells[cell_of[s[0]]][1] == p]
        secs = sum(selfs[s[0]] for s in mine) / 1e6
        cyc = sum(cycles_of[cell_of[s[0]]] for s in mine)
        v[f"sim.cycles_per_s.{p}"] = cyc / secs if secs else 0.0
    base = v["sim.cycles_per_s.baseline"]
    v["sim.regmutex_vs_baseline"] = \
        v["sim.cycles_per_s.regmutex"] / base if base else 0.0
    v["sim.rfv_vs_baseline"] = v["sim.cycles_per_s.rfv"] / base if base else 0.0

    stats = raw["cellstats"]
    v["sim.simulated_cycles"] = sum(s["cycles"] for s in stats)
    v["sim.instructions"] = sum(s["instructions"] for s in stats)
    slots = sum(s["schedulers"] * s["cycles"] for s in stats)
    kinds = ["scoreboard", "mem", "barrier", "acquire", "resource", "nowarp"]
    issued = sum(s["issued"] for s in stats)
    v["sim.slots.issued"] = issued / slots
    for k in kinds:
        v[f"sim.slots.{k}"] = sum(s[k] for s in stats) / slots
    v["sim.slots.unbooked"] = (slots - issued - sum(
        s[k] for s in stats for k in kinds)) / slots
    rmx = [s for s in stats if cells[s["cell"]][1] == "regmutex"]
    attempts = sum(s["acquire_attempts"] for s in rmx)
    v["regmutex.acquire_success_frac"] = sum(
        s["acquire_successes"] for s in rmx) / attempts if attempts else 1.0
    v["baselines.rfv_spills"] = sum(
        s["emergency_spills"] for s in stats if cells[s["cell"]][1] == "rfv")

    v["sim.snapshot_encode_ms"] = mean(
        dur(s) for s in named("sim.snapshot_encode"))
    v["sim.snapshot_decode_ms"] = mean(
        dur(s) for s in named("sim.snapshot_decode"))
    v["sim.snapshot_kb"] = mean(raw["sizes"].get("snapshot_bytes", [])) / 1024
    for name in ["chrome_trace", "stats_json", "registry_json",
                 "sampler_csv"]:
        v[f"obs.{name}_ms"] = mean(dur(s) for s in named(f"obs.{name}"))
    v["obs.trace_mb"] = mean(raw["sizes"].get("trace_bytes", [])) / 1e6

    # Sink and profiler cost: the observed / profiled simulate call's
    # self time over the bare one's, cell by cell.
    def sim_self_by_cell(kind):
        out = {}
        for s in sims:
            if root(s)[4] == kind:
                out.setdefault(cell_of[s[0]], []).append(selfs[s[0]] / 1000)
        return {c: mean(x) for c, x in out.items()}

    bare = sim_self_by_cell("inspect.bare")
    observed = sim_self_by_cell("inspect.observed")
    profiled = sim_self_by_cell("inspect.profiled")
    v["obs.sink_ms"] = mean(observed[c] - bare[c] for c in observed
                            if c in bare)
    v["obs.profile_ms"] = mean(profiled[c] - bare[c] for c in profiled
                               if c in bare) + mean(
        dur(s) for s in named("obs.profile_export"))

    passes = named("sweep.pass")
    v["core.sweep_busy_frac"] = sum(dur(s) for s in named("sweep.cell")) / (
        raw["threads"] * sum(dur(s) for s in passes)) if passes else 0.0
    v["core.journal_append_ms"] = mean(
        dur(s) for s in named("core.journal_append"))

    hits = ms_of(ops, "hit", "t")
    hit_tail = M.tail(hits)
    v["serve.hit_p50_ms"] = statistics.median(hits) if hits else 0.0
    v["serve.hit_tail_ms"] = hit_tail[0] if hit_tail else 0.0
    # Serving overhead: a cold round trip minus the same cell's own work
    # in-process (build, compile, lint, simulate, stats export).
    replay = {}
    for s in named("serve.replay_cell"):
        own = dur(s) - sum(dur(c) for c in spans if c[1] == s[0]
                           and c[4] == "core.journal_append")
        replay[cell_of[s[0]]] = own
    cold = {}
    for o in ops:
        if o["phase"] == "t" and o["kind"] == "cold":
            cold.setdefault(o["cells"][0][0], []).append(o["ms"])
    v["serve.overhead_ms"] = mean(statistics.median(cold[c]) - replay[c]
                                  for c in cold if c in replay)
    requests = named("serve.request")
    v["serve.codec_us"] = (sum(dur(s) for n in ("serve.encode", "serve.decode")
                               for s in named(n)) * 1000 / len(requests)
                           if requests else 0.0)
    answered = [o for o in ops if o["kind"] in ("cold", "hit")
                and o["phase"] in ("u", "t")]
    counters = raw["counters"]
    n = len(answered)
    v["serve.hit_frac"] = sum(o["kind"] == "hit" for o in answered) / n \
        if n else 0.0
    v["serve.coalesced_frac"] = counters.get("serve.coalesced", 0) / n \
        if n else 0.0
    v["serve.rejected_frac"] = counters.get("serve.rejected", 0) / n \
        if n else 0.0
    v["serve.retries"] = counters.get("serve.retries", 0)

    main_u = ms_of(ops, MAIN_OP[workload], "u")
    main_t = ms_of(ops, MAIN_OP[workload], "t")
    v["bench.trace_overhead_x"] = statistics.median(main_t) / \
        statistics.median(main_u) if main_u and main_t else 0.0
    return v


PER_LAYER_UNITS = [
    ("workloads.build_ms", "ms"), ("compiler.compile_ms", "ms"),
    ("compiler.cell_share", "frac"), ("analysis.lint_ms", "ms"),
    ("analysis.cell_share", "frac"), ("sim.cell_ms", "ms"),
    *[(f"sim.cycles_per_s.{p}", "1/s") for p in M.POLICIES],
    ("sim.regmutex_vs_baseline", "x"), ("sim.rfv_vs_baseline", "x"),
    ("sim.simulated_cycles", "count"), ("sim.instructions", "count"),
    *[(f"sim.slots.{k}", "frac") for k in
      ["issued", "scoreboard", "mem", "barrier", "acquire", "resource",
       "nowarp", "unbooked"]],
    ("regmutex.acquire_success_frac", "frac"),
    ("baselines.rfv_spills", "count"),
    ("sim.snapshot_encode_ms", "ms"), ("sim.snapshot_decode_ms", "ms"),
    ("sim.snapshot_kb", "KiB"), ("obs.sink_ms", "ms"),
    ("obs.chrome_trace_ms", "ms"), ("obs.trace_mb", "MB"),
    ("obs.stats_json_ms", "ms"), ("obs.registry_json_ms", "ms"),
    ("obs.sampler_csv_ms", "ms"), ("obs.profile_ms", "ms"),
    ("core.sweep_busy_frac", "frac"), ("core.journal_append_ms", "ms"),
    ("serve.hit_p50_ms", "ms"), ("serve.hit_tail_ms", "ms"),
    ("serve.overhead_ms", "ms"), ("serve.codec_us", "us"),
    ("serve.hit_frac", "frac"), ("serve.coalesced_frac", "frac"),
    ("serve.rejected_frac", "frac"), ("serve.retries", "count"),
    ("bench.trace_overhead_x", "x"),
]


def cell_accounting(spans):
    """Share of the sweep cells' time that their layer spans cover."""
    cells = {s[0]: s[6] - s[5] for s in spans if s[4] == "sweep.cell"}
    if not cells:
        return None
    inside = sum(s[6] - s[5] for s in spans if s[1] in cells)
    return inside / sum(cells.values())


def write_traces(out, workload, seed, raw, plan):
    """Chrome trace of the spans, plus the layer table as text."""
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    stem = traces / f"{workload}-seed{seed}"
    cells = plan["cells"]
    events = []
    for s in raw["spans"]:
        args = {"op": s[2], "parent": s[1]}
        if s[3] >= 0:
            args["cell"] = "/".join(cells[s[3]])
        events.append({"name": s[4], "ph": "X", "pid": 1, "tid": s[2],
                       "ts": s[5], "dur": s[6] - s[5], "args": args})
    Path(f"{stem}.trace.json").write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}))
    table = M.layer_table(raw["spans"])
    lines = [f"{'span':26} {'count':>7} {'total ms':>11} {'self ms':>11} "
             f"{'share':>7}"]
    for name, (count, total, own, share) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:26} {count:7d} {total / 1000:11.2f} "
                     f"{own / 1000:11.2f} {100 * share:6.2f}%")
    Path(f"{stem}.layers.txt").write_text("\n".join(lines) + "\n")
    return stem, lines


def capture_expected():
    out = build()
    target = HERE / "expected_cells.json"
    subprocess.run([str(out / "rm-perfbench"), "--capture-expected",
                    str(target)], check=True)
    log(f"wrote {target}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--expected", default=str(HERE / "expected_cells.json"),
                        help="committed outputs to check against")
    parser.add_argument("--capture-expected", action="store_true")
    args = parser.parse_args()
    if args.capture_expected:
        capture_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    out = build()
    expected = json.loads(Path(args.expected).read_text())
    plan = M.make_plan(args.workload, args.seed, expected)
    raw = run_benchmark(out, plan, args.seconds, args.trace)
    failures = M.check_ops(raw["ops"], plan["cells"],
                           M.expected_outputs(expected))
    for f in failures[:20]:
        log(f"perfbench: output check failed: {f}")

    print(f"perfbench {args.workload} seed {args.seed} "
          f"({args.seconds:g} s, trace {args.trace}, "
          f"{len(raw['ops'])} operations, {len(failures)} failed)")
    if args.trace:
        result = {}
        values = per_layer(args.workload, raw, plan)
        for name, unit in PER_LAYER_UNITS:
            result[name] = {"value": values[name], "unit": unit}
            print(f"  {name:32} {values[name]:16.6g} {unit}")
        stem, lines = write_traces(out, args.workload, args.seed, raw, plan)
        print("\n".join("  " + line for line in lines))
        accounted = cell_accounting(raw["spans"])
        if accounted is not None:
            print(f"  sweep cells: {100 * accounted:.2f}% of their time is "
                  "in compile, lint, simulate and stats export")
        print(f"  traces: {stem}.trace.json, {stem}.layers.txt")
    else:
        result = {}
        for name, (value, unit, note) in end_to_end(
                args.workload, raw, plan, expected).items():
            result[name] = {"value": value, "unit": unit}
            shown = "n/a" if note.startswith("n/a") else f"{value:.6g}"
            print(f"  {name:20} {shown:>14} {unit:5} {note}")
    log(f"perfbench: {time.monotonic() - started:.1f} s wall")
    print(json.dumps({"correct": not failures, "attempted": len(raw["ops"]),
                      "failed": len(failures), "metrics": result}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
