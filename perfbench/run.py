#!/usr/bin/env python3
"""End-to-end benchmark of the anonpath CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn
    python3 perfbench/run.py --smoke ...             # tiny sizes, seconds long

Run it from anywhere inside a checkout of the repository; it builds the CLI
and the layer driver (perfbench/driver.cpp) in Release under .bench_build/
and refuses any other build type.

--trace 0 runs the workload as real CLI jobs, one at a time, for about S
seconds, checks every output, and reports the end-to-end metrics. Their
times are scaled to a reference host speed, measured by a fixed loop
(perfbench/calibrate.cpp) that runs between the jobs.
--trace 1 runs the same CLI jobs, then the layer driver on the same inputs
(three times untraced, then once traced with one obs span per layer call),
and reports the per-layer metrics. perfbench/README.md says why each workload
exists and which metric each layer should move.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). The lines before it are a human-readable
report and the run's context record.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
CLI = BUILD / "anonpath" / "anonpath"
DRIVER = BUILD / "perfbench_driver"
SPAWN = BUILD / "perfbench_spawn"
CALIBRATE = BUILD / "perfbench_calibrate"

THREADS = 2          # per job: half of the 4-CPU reference host
MIN_JOBS = 4         # jobs per run, at least
# Before every job the cut command runs up to SETUP_REPS times, stopping
# once that batch took SETUP_BATCH_S: the set-up samples then span the whole
# run, like the jobs, instead of one burst at its start.
SETUP_REPS = 5
SETUP_BATCH_S = 0.2
# The untraced layer driver runs this many times and reports its median: one
# run of the same work varied by over 20% on a shared host.
DRIVER_REPS = 3
DEADLINE_S = 170.0   # a run (after the build) must end within 180 s
# Host-speed reference (calibrate.cpp): one sample per CALIBRATE_EVERY_S of
# the previous job, taken just before the next job, and WARMUP samples
# discarded at the start. One sample varies by tens of percent from one
# second to the next, so a run takes many. NOMINAL is a round figure near
# each loop's time on the 4-CPU host the benchmark was tuned on; it only
# sets the scale.
CALIBRATE_EVERY_S = 0.33
CALIBRATE_WARMUP = 3
NOMINAL = {"cache": 0.022, "memory": 0.014, "graph": 0.027}


class BenchError(Exception):
    """The benchmark cannot run here: it prints no result and exits 2."""


# ---- workloads ----------------------------------------------------------------

def campaign_args(seed, smoke, cut=False, threads=THREADS):
    messages, replicas = ("1", "1") if cut else (
        ("100", "4") if smoke else ("2000", "16"))
    return ["campaign", "--n", "30" if smoke else "100", "--c", "1,8",
            "--dist", "F:3", "--dist", "U:1,10", "--mode", "onion,crowds",
            "--messages", messages, "--replicas", replicas,
            "--threads", str(threads), "--seed", str(seed)]


def attack_args(stream):
    def args(seed, smoke, cut=False, threads=THREADS):
        rounds = "1" if cut else ("600" if smoke else "30000")
        return ["attack", "--attack", "sda",
                "--users", "20000" if smoke else "1000000",
                "--rounds", rounds, "--stream", stream,
                "--threads", str(threads), "--seed", str(seed)]
    return args


def plan_args(seed, smoke, cut=False, threads=THREADS):
    del threads  # planning is single-threaded
    args = ["plan", "--n", "2000" if smoke else "5000",
            "--topology", f"regular:4:{seed}", "--csr", "--components",
            "--routes", "1" if cut else "200"]
    if not cut:
        args += ["--routing", "kpaths:4"]
    return args + ["--seed", str(seed)]


def arg(args, flag):
    return args[args.index(flag) + 1]


def campaign_cells(args):
    cells = args.count("--dist")
    for flag in ("--n", "--c", "--mode"):
        cells *= len(arg(args, flag).split(","))
    return cells


def work_units(name, args):
    """Work one job does: simulated messages, rounds, or kpaths routes."""
    if name == "campaign":
        return campaign_cells(args) * int(arg(args, "--replicas")) * int(
            arg(args, "--messages"))
    return int(arg(args, "--rounds" if name.startswith("attack")
                   else "--routes"))


# name -> CLI argument builder. BENCHMARK.json holds the names, why each
# workload exists, and the metric names and units.
WORKLOADS = {
    "campaign": campaign_args,
    "attack-exact": attack_args("exact"),
    "attack-sketch": attack_args("sketch"),
    "plan-kpaths": plan_args,
}

# name -> (the calibration loop (calibrate.cpp) shaped like its CLI job,
# how far the job's time follows that loop's: time ~ slowness ** this).
# A loop is pure core or pure memory work and a job is a mix, so most jobs
# follow their loop less than one for one. The powers were read off runs on
# the 4-CPU host, each pairing the job's median time with the loop's
# (perfbench/README.md, "Host speed"); attack-sketch, whose count-min and
# reservoir passes are neither, follows the memory loop least.
CALIBRATION = {
    "campaign": ("cache", 1.0),
    "attack-exact": ("memory", 0.75),
    "attack-sketch": ("memory", 0.5),
    "plan-kpaths": ("graph", 0.75),
}


def load_spec():
    """BENCHMARK.json, checked against the workloads defined here."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {names} do not match "
                         f"{sorted(WORKLOADS)}")
    return spec


# ---- output checks --------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is right.

def campaign_error_rows(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0][-1:] != ["error"]:
        return 0
    return sum(1 for row in rows[1:] if row[-1])


def check_campaign(csv_text, reference_csv):
    problems = []
    rows = campaign_error_rows(csv_text)
    if rows:
        problems.append(f"{rows} campaign cell(s) report an error")
    if csv_text != reference_csv:
        problems.append("campaign CSV differs from the one-thread run")
    return problems


TARGET_RE = re.compile(r"^# target pair 0: sender \d+ -> receiver (\d+)$",
                       re.M)
# The sketch backend's own answer. The trajectory CSV always comes from the
# exact engine, so with --stream sketch this line is the only place the
# sketch session's final top receiver appears. Only the number is read,
# not the CLI's matches/DIFFERS verdict.
SKETCH_RE = re.compile(r"^# sketch posterior \(.*\): top receiver (\d+) ",
                       re.M)
TRAJECTORY_HEADER = "round,entropy_bits,top_mass,top_receiver,identified"


def attack_target(stderr_text):
    m = TARGET_RE.search(stderr_text)
    return int(m.group(1)) if m else None


def check_attack(csv_text, stderr_text, rounds, stream):
    """The final top receiver equals the target pair's receiver: the exact
    engine's on the trajectory CSV, and with --stream sketch also the sketch
    session's."""
    lines = csv_text.splitlines()
    target = attack_target(stderr_text)
    if target is None:
        return ["no '# target pair 0' line"]
    if len(lines) < 2 or lines[0] != TRAJECTORY_HEADER:
        return ["no trajectory CSV"]
    last = lines[-1].split(",")
    problems = []
    if len(last) != 5 or last[0] != str(rounds):
        problems.append(f"trajectory does not end at round {rounds}")
    elif last[3] != str(target):
        problems.append(f"final top receiver {last[3]} is not the target "
                        f"pair's receiver {target}")
    if stream == "sketch":
        m = SKETCH_RE.search(stderr_text)
        if m is None:
            problems.append("no '# sketch posterior' line")
        elif int(m.group(1)) != target:
            problems.append(f"sketch top receiver {m.group(1)} is not the "
                            f"target pair's receiver {target}")
    return problems


def plan_summary(stdout_text):
    """Components, reachable nodes and kpaths mean hops from plan output."""
    def find(pattern):
        m = re.search(pattern, stdout_text, re.M)
        return m.group(1) if m else None
    return {
        "components": find(r"^components: (\d+)"),
        "reachable": (find(r"^dijkstra from \d+: (\d+) reachable") or
                      find(r"^reachable: (\d+)")),
        "routes": find(r"^(\d+) kpaths\S* routes: mean hops"),
        "kpaths_hops": find(r"^\d+ kpaths\S* routes: mean hops ([0-9.]+)"),
        "shortest_hops": find(r"^\d+ shortest routes: mean hops ([0-9.]+)"),
    }


def check_plan(stdout_text, nodes, routes, reference):
    s = plan_summary(stdout_text)
    problems = []
    if s["components"] != "1":
        problems.append(f"{s['components']} components, expected 1")
    if s["reachable"] != str(nodes):
        problems.append(f"{s['reachable']} of {nodes} nodes reachable")
    if s["routes"] != str(routes):
        problems.append(f"{s['routes']} kpaths routes, expected {routes}")
    for key in ("kpaths_hops", "shortest_hops"):
        if s[key] is None or s[key] != reference[key]:
            problems.append(f"{key} {s[key]} differs from the layer "
                            f"driver's {reference[key]}")
    return problems


# ---- processes ----------------------------------------------------------------

class Deadline:
    def __init__(self, seconds):
        self.at = time.monotonic() + seconds

    def left(self):
        return self.at - time.monotonic()


class Finished(NamedTuple):
    """A command run to completion by the launcher (spawn.cpp)."""
    rc: int
    wall_s: float
    cpu_s: float       # user + system time
    rss_mb: float      # peak resident set
    out: str
    err: str


def run_process(argv, tag, deadline):
    """Runs argv to completion through the launcher, with stdout and stderr
    in files under RUNS. A command still running at the deadline is killed
    and waited for."""
    left = int(deadline.left())
    if left < 1:
        raise BenchError(f"no time left for {tag} (deadline {DEADLINE_S:.0f} s)")
    out_path, err_path = RUNS / f"{tag}.out", RUNS / f"{tag}.err"
    r = subprocess.run([str(SPAWN), str(left), str(out_path), str(err_path)]
                       + argv, capture_output=True, text=True, cwd=ROOT,
                       timeout=left + 10)
    m = re.fullmatch(r"exit=(-?\d+) wall_s=(\S+) cpu_s=(\S+) maxrss_kb=(\d+)\n",
                     r.stdout)
    if r.returncode != 0 or not m:
        raise BenchError(f"cannot run {argv[0]}: {r.stderr.strip()}")
    if deadline.left() <= 0:
        raise BenchError(f"{tag} ran past the {DEADLINE_S:.0f} s deadline")
    return Finished(int(m.group(1)), float(m.group(2)), float(m.group(3)),
                    int(m.group(4)) / 1024.0, out_path.read_text(),
                    err_path.read_text())


class Calibrator:
    """perfbench_calibrate running one loop, kept running for the whole run
    so that a sample costs one short loop and no process start. Use it with
    `with`: leaving the block closes its stdin and waits for it to end."""

    def __init__(self, loop):
        self.loop = loop
        self.proc = subprocess.Popen([str(CALIBRATE), loop],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        self.samples = {"wall": [], "cpu": []}
        try:
            for _ in range(CALIBRATE_WARMUP):
                self.read()
        except BaseException:
            self.close()
            raise

    def read(self):
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # it has exited; the empty answer below says so
        line = self.proc.stdout.readline()
        m = re.fullmatch(r"wall_s=(\S+) cpu_s=(\S+)\n", line)
        if not m:
            raise BenchError(f"perfbench_calibrate answered {line!r}")
        return float(m.group(1)), float(m.group(2))

    def sample(self, count):
        for _ in range(count):
            wall, cpu = self.read()
            self.samples["wall"].append(wall)
            self.samples["cpu"].append(cpu)

    def slowness(self, clock):
        """How much slower the host ran than at NOMINAL: the loop's median
        wall or CPU time over its nominal time. By wall time it also counts
        waiting for a CPU."""
        return statistics.median(self.samples[clock]) / NOMINAL[self.loop]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---- build and context ------------------------------------------------------------

def cmake_cache(key):
    text = (BUILD / "CMakeCache.txt").read_text()
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def build():
    if not all((ROOT / p).exists() for p in ("CMakeLists.txt", "src", "tools")):
        raise BenchError(f"{ROOT} holds no anonpath sources to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        build_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"])
    refuse_non_release()
    build_step(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])


def build_step(argv):
    log = RUNS / "build.log"
    with open(log, "wb") as out:
        rc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                            cwd=ROOT).returncode
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise BenchError(f"build step failed: {' '.join(argv)}")


def refuse_non_release():
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"{BUILD} is a '{build_type}' build; timings need "
                         "Release (delete the directory to reconfigure)")


SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".py", ".txt", ".json"}


def source_digest():
    """SHA-256 over the sources the benchmark builds and runs (the checkout
    may not be a git repository, so this stands in for the commit). Only
    source files count, so caches such as __pycache__ leave it unchanged."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "BENCHMARK.json"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in SOURCE_SUFFIXES
                        and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def context(seed):
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.*)$",
                      Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m.group(1) if m else cpu
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    for f in (BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = f"{ident.group(1)} {version.group(1)}"
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "cmake_build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "threads": THREADS, "commit": commit,
            "source_sha256": source_digest(), "seed": seed}


# ---- measuring ----------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and output problems, in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, what, found):
        self.problems += [f"{what}: {p}" for p in found]


def reference_output(name, seed, smoke, deadline, tally):
    """What every CLI job of the run is checked against (campaign: the
    one-thread CSV; plan: the layer driver's route summary)."""
    builder = WORKLOADS[name]
    if name == "campaign":
        ref = run_process([str(CLI)] + builder(seed, smoke, threads=1),
                          "reference", deadline)
        if ref.rc != 0:
            tally.problem("one-thread reference",
                          [f"exit {ref.rc}: {ref.err[-300:]}"])
        return ref.out
    if name == "plan-kpaths":
        _, _, text = run_driver(builder(seed, smoke), deadline, None)
        return plan_summary(text)
    return None


def check_job(name, args, out, err, reference):
    if name == "campaign":
        return check_campaign(out, reference)
    if name.startswith("attack"):
        return check_attack(out, err, int(arg(args, "--rounds")),
                            arg(args, "--stream"))
    return check_plan(out, int(arg(args, "--n")), int(arg(args, "--routes")),
                      reference)


def cli_jobs(name, seed, smoke, seconds, deadline, tally, reference,
             setups=None, calibrator=None):
    """Runs the workload's CLI job back to back, at least MIN_JOBS times, and
    starts another job while it would end within half a job of `seconds`.
    Checks each output. With a `setups` list, times a batch of cut commands
    into it before each job; with a calibrator, samples the host's speed
    before each job. Returns walls, RSS, and the last output."""
    args = WORKLOADS[name](seed, smoke)
    walls, rss = [], []
    cells = campaign_cells(args) if name == "campaign" else 0
    start = time.perf_counter()
    while len(walls) < MIN_JOBS or (
            time.perf_counter() - start + statistics.median(walls) / 2
            <= seconds):
        if setups is not None:
            setup_batch(name, seed, smoke, deadline, tally, setups)
        if calibrator is not None:
            calibrator.sample(max(1, round((walls[-1] if walls else 0)
                                           / CALIBRATE_EVERY_S)))
        job = run_process([str(CLI)] + args, f"job{len(walls)}", deadline)
        walls.append(job.wall_s)
        rss.append(job.rss_mb)
        if name == "campaign":
            tally.attempted += cells
            tally.failed += (cells if job.rc != 0
                             else campaign_error_rows(job.out))
        else:
            tally.attempted += 1
            tally.failed += job.rc != 0
        if job.rc != 0:
            tally.problem(f"job {len(walls)}",
                          [f"exit {job.rc}: {job.err[-300:]}"])
        else:
            tally.problem(f"job {len(walls)}",
                          check_job(name, args, job.out, job.err, reference))
    return walls, rss, job.out, job.err


def setup_batch(name, seed, smoke, deadline, tally, times):
    """Appends the CPU times (user + system) of a batch of cut commands (the
    job with its work axis at one unit) to `times`.

    CPU time rather than wall time: the cut campaign is a 2 ms process,
    mostly start-up, and on a shared host its wall time tripled when the
    other CPUs were busy, while its CPU time rose by about a fifth. On an
    idle host the two agree within a few percent for every workload."""
    start = time.perf_counter()
    for _ in range(SETUP_REPS):
        cut = run_process([str(CLI)] + WORKLOADS[name](seed, smoke, cut=True),
                          "setup", deadline)
        if cut.rc != 0:
            tally.problem("setup command", [f"exit {cut.rc}: {cut.err[-300:]}"])
        times.append(cut.cpu_s)
        if time.perf_counter() - start >= SETUP_BATCH_S:
            break


def end_to_end(name, seed, smoke, seconds, deadline, tally, report):
    """The end-to-end metrics. Times are scaled to the host speed at NOMINAL
    (see calibrate.cpp): the speed of a shared host drifts by tens of
    percent over minutes, and the same drift shows in the calibration
    loop, which runs between the jobs and uses no anonpath code. The jobs'
    wall times are scaled by the loop's wall time, the set-up CPU times
    by its CPU time, each to the workload's power in CALIBRATION."""
    reference = reference_output(name, seed, smoke, deadline, tally)
    setups = []
    loop, power = CALIBRATION[name]
    with Calibrator(loop) as calibrator:
        walls, rss, _, _ = cli_jobs(name, seed, smoke, seconds, deadline,
                                    tally, reference, setups, calibrator)
    slowness, cpu_slowness = (calibrator.slowness("wall"),
                              calibrator.slowness("cpu"))
    units = work_units(name, WORKLOADS[name](seed, smoke))
    rate = statistics.median(units / w for w in walls)
    setup = statistics.median(setups)
    ok = 1.0 - tally.failed / tally.attempted
    report.append(f"# host slowness {slowness:.4f} by wall time, "
                  f"{cpu_slowness:.4f} by CPU time (median of "
                  f"{len(calibrator.samples['wall'])} '{calibrator.loop}' "
                  f"loops; times scaled by slowness ** {power}); measured "
                  f"{rate:.6g} units/s, set-up {setup:.6g} CPU s")
    return {"units_per_ref_s": (rate * slowness ** power, len(walls)),
            "setup_s": (setup / cpu_slowness ** power, len(setups)),
            "peak_rss_mb": (statistics.median(rss), len(rss)),
            "success_ratio": (ok, tally.attempted)}


# ---- the traced run -------------------------------------------------------------

def run_driver(args, deadline, metrics_path):
    """Runs the layer driver on a CLI job's flags; returns (job seconds,
    its summary JSON, its result text)."""
    argv = [str(DRIVER)] + args + ["--out", str(RUNS / "driver.result")]
    if metrics_path is not None:
        argv += ["--metrics", str(metrics_path)]
    done = run_process(argv, "driver", deadline)
    if done.rc != 0:
        raise BenchError(f"layer driver failed (exit {done.rc}): "
                         f"{done.err[-500:]}")
    summary = json.loads(done.out.strip().splitlines()[-1])
    return summary["job_s"], summary, (RUNS / "driver.result").read_text()


def read_metrics(path):
    """Spans and counters/gauges from an anonpath-metrics v1 JSONL file."""
    spans, values = [], {}
    lines = path.read_text().splitlines()
    if json.loads(lines[0]) != {"format": "anonpath-metrics", "version": 1}:
        raise BenchError(f"{path} is not anonpath-metrics v1")
    for line in lines[1:]:
        rec = json.loads(line)
        if rec["kind"] == "span":
            spans.append(rec)
        elif rec["kind"] in ("counter", "gauge"):
            values[rec["name"]] = rec["value"]
    return spans, values


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, int(100 * (1 - 10 / n))) if n > 10 else 50


def layer_table(spans, cli_wall):
    """Rows of (name, calls, total s, self s, share of CLI wall)."""
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["ms"]
    rows = {}
    for s in spans:
        calls, total, own = rows.get(s["name"], (0, 0.0, 0.0))
        rows[s["name"]] = (calls + 1, total + s["ms"] / 1e3,
                           own + (s["ms"] - children.get(s["id"], 0.0)) / 1e3)
    return [(n, c, t, o, o / cli_wall) for n, (c, t, o) in rows.items()]


def driver_matches_cli(name, cli_out, cli_err, driver_summary, driver_text):
    """The traced run must reproduce the CLI's result."""
    if name == "campaign" or name == "attack-exact":
        same = driver_text == cli_out
        return [] if same else ["layer driver's output differs from the CLI's"]
    if name == "attack-sketch":
        target = attack_target(cli_err)
        last = driver_text.splitlines()[-1].split(",")
        if driver_summary.get("target_receiver") != target or \
                last[3] != str(target):
            return ["layer driver's sketch session did not find the CLI's "
                    f"target receiver {target}"]
        return []
    cli, drv = plan_summary(cli_out), plan_summary(driver_text)
    keys = ("components", "reachable", "routes", "kpaths_hops",
            "shortest_hops")
    return [] if all(cli[k] == drv[k] for k in keys) else [
        f"layer driver's plan {drv} differs from the CLI's {cli}"]


def per_layer(name, seed, smoke, seconds, deadline, tally, report):
    args = WORKLOADS[name](seed, smoke)
    reference = reference_output(name, seed, smoke, deadline, tally)
    walls, _, cli_out, cli_err = cli_jobs(name, seed, smoke, seconds,
                                          deadline, tally, reference)
    cli_wall = statistics.median(walls)
    untraced = []
    for _ in range(DRIVER_REPS):
        job_s, summary, text = run_driver(args, deadline, None)
        untraced.append(job_s)
        tally.problem("untraced layer driver",
                      driver_matches_cli(name, cli_out, cli_err, summary, text))
    untraced = statistics.median(untraced)
    metrics_path = RUNS / f"{name}.metrics.jsonl"
    traced, summary, text = run_driver(args, deadline, metrics_path)
    tally.problem("traced layer driver",
                  driver_matches_cli(name, cli_out, cli_err, summary, text))
    spans, values = read_metrics(metrics_path)

    def span_ms(span_name):
        return [s["ms"] for s in spans if s["name"] == span_name]

    def total_s(span_name):
        return sum(span_ms(span_name)) / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    # name -> (value, samples); layers this workload does not run are
    # filled in as idle by the caller.
    m = {}
    if name == "campaign":
        # run_simulation's own spans: sim.run_core is the event loop with
        # the adversary's capture, sim.score the posterior scoring.
        for layer, span_name in (("sim.capture", "sim.run_core"),
                                 ("anonymity.score", "sim.score")):
            ms = span_ms(span_name)
            m[layer + "_s"] = (sum(ms) / 1e3, len(ms))
            m[layer + "_ms.p50"] = (percentile(ms, 50), len(ms))
            m[layer + "_ms.tail"] = (percentile(ms, tail_percentile(len(ms))),
                                     len(ms))
        m["sim.adversary_events"] = (values["sim.adversary_events"], 1)
        hits, misses = values["attack.memo_hits"], values["attack.memo_misses"]
        m["anonymity.memo_hit_ratio"] = (ratio(hits, hits + misses), 1)
        onion = span_ms("crypto.onion")
        m["crypto.onion_ns_per_hop"] = (ratio(sum(onion) * 1e6,
                                              values["crypto.onion_layers"]),
                                        len(onion))
        m["crypto.onion_bytes_per_msg"] = (ratio(
            values["crypto.onion_bytes"], values["crypto.onion_messages"]), 1)
        m["stats.pool_efficiency"] = ((m["sim.capture_s"][0] +
                                       m["anonymity.score_s"][0]) /
                                      (THREADS * cli_wall), len(walls))
    elif name.startswith("attack"):
        messages = values["workload.messages"]
        for metric, span_name in (
                ("workload.population_s", "workload.population"),
                ("workload.round_gen_s", "workload.round_gen"),
                ("workload.accumulate_s", "workload.accumulate"),
                ("attack.ingest_s", "attack.ingest"),
                ("attack.posterior_s", "attack.posterior")):
            m[metric] = (total_s(span_name), len(span_ms(span_name)))
        m["workload.messages"] = (messages, 1)
        m["workload.accumulator_bytes"] = (
            values["workload.accumulator_bytes"], 1)
        m["attack.ingest_ns_per_msg"] = (
            ratio(m["attack.ingest_s"][0] * 1e9, messages),
            m["attack.ingest_s"][1])
        m["attack.state_bytes"] = (values["attack.state_bytes"], 1)
        m["attack.sketch.eviction_ratio"] = (ratio(
            values.get("attack.sketch.reservoir_evictions", 0), messages), 1)
    else:
        for metric, span_name in (("net.build_s", "net.build"),
                                  ("net.components_s", "net.components"),
                                  ("net.dijkstra_s", "net.dijkstra")):
            m[metric] = (total_s(span_name), len(span_ms(span_name)))
        yen = span_ms("net.yen")
        m["net.yen_ms.p50"] = (percentile(yen, 50), len(yen))
        for counter in ("net.nodes_settled", "net.edges_scanned",
                        "net.yen_spur_searches"):
            m[counter] = (values[counter], 1)
        m["net.spur_yield"] = (ratio(values["net.yen_paths"],
                                     values["net.yen_spur_searches"]), 1)
    # The campaign driver runs every simulation on one thread; the CLI
    # spreads them over THREADS, so compare against perfect scaling.
    scale = THREADS if name == "campaign" else 1
    unattributed = cli_wall - untraced / scale
    m["tools.unattributed_s"] = (unattributed, len(walls))
    m["obs.trace_overhead_ratio"] = ((traced - untraced) / untraced, 1)

    report.append(f"# {name}: CLI median wall {cli_wall:.3f} s over "
                  f"{len(walls)} jobs; layer driver {untraced:.3f} s "
                  f"untraced (median of {DRIVER_REPS}), {traced:.3f} s traced")
    report.append(f"# {'span':<28} {'calls':>6} {'total_s':>10} "
                  f"{'self_s':>10} {'share_of_cli_wall':>18}")
    for n, c, t, o, share in layer_table(spans, cli_wall):
        report.append(f"# {n:<28} {c:>6} {t:>10.4f} {o:>10.4f} {share:>18.3f}")
    report.append(f"# {'tools.unattributed_s':<28} {'':>6} {'':>10} "
                  f"{unattributed:>10.4f} {unattributed / cli_wall:>18.3f}")
    if name == "campaign":
        report.append("# (campaign spans are one-thread time against a "
                      f"{THREADS}-thread CLI wall; stats.pool_efficiency is "
                      "that cross-run ratio)")
    return m


# ---- main -----------------------------------------------------------------------

def run_workload(name, seed, smoke, seconds, trace, spec):
    """Returns (metrics {name: (value, samples, unit)}, tally, report)."""
    tally, report = Tally(), []
    deadline = Deadline(DEADLINE_S)
    if trace:
        measured = per_layer(name, seed, smoke, seconds, deadline, tally,
                             report)
        wanted = spec["per_layer"]
        report.append("# layers this workload does not run report 0, n=0")
    else:
        measured = end_to_end(name, seed, smoke, seconds, deadline, tally,
                              report)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: measured.get(m["name"], (0.0, 0)) + (m["unit"],)
               for m in wanted}
    unknown = set(measured) - set(metrics)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    return metrics, tally, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own test")
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be >= 0")
    try:
        spec = load_spec()
        build()
        names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        print("# context " + json.dumps(context(a.seed), sort_keys=True))
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            metrics, tally, report = run_workload(
                name, a.seed, a.smoke, a.seconds, a.trace, spec)
            print(f"# workload {name}: {why[name]}")
            for line in report:
                print(line)
            for metric, (value, n, unit) in metrics.items():
                print(f"{name:<14} {metric:<30} {value:>16.6g} {unit:<6} n={n}")
            for problem in tally.problems:
                print(f"# CHECK FAILED ({name}): {problem}")
            result["correct"] &= not tally.problems
            result["attempted"] += tally.attempted
            result["failed"] += tally.failed
            prefix = f"{name}." if a.workload == "all" else ""
            for metric, (value, _, unit) in metrics.items():
                result["metrics"][prefix + metric] = {"value": value,
                                                      "unit": unit}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
