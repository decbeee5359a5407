#!/usr/bin/env python3
"""The benchmark's own test: python3 perfbench/test_run.py (about 30 s).

It runs perfbench/run.py in --smoke mode (tiny sizes) and checks:
  * every metric BENCHMARK.json names is printed with its unit, in both
    modes and for every workload;
  * every output check fires when fed a doctored copy of a real output;
  * a non-Release build directory is refused;
  * a directory holding only the benchmark files exits nonzero without
    printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the module under test)

SEED = 5


def cli(args, tag):
    """Runs the real CLI on smoke-sized args; returns (stdout, stderr)."""
    done = run.run_process([str(run.CLI)] + args, tag, run.Deadline(60))
    assert done.rc == 0, done.err
    return done.out, done.err


def driver(args):
    _, summary, text = run.run_driver(args, run.Deadline(60), None)
    return summary, text


def smoke(trace):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "all",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)


class SmokeRun(unittest.TestCase):
    def check_report(self, trace, section):
        r = smoke(trace)
        self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])
        lines = r.stdout.splitlines()
        self.assertTrue(lines[0].startswith("# context "))
        context = json.loads(lines[0][len("# context "):])
        for key in ("nproc", "cpu", "compiler", "cmake_build_type", "threads",
                    "commit", "source_sha256", "seed"):
            self.assertIn(key, context)
        self.assertEqual(context["cmake_build_type"], "Release")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for metric in spec[section]:
                got = result["metrics"][f"{workload}.{metric['name']}"]
                self.assertEqual(got["unit"], metric["unit"])
                self.assertIsInstance(got["value"], (int, float))
                printed = [ln.split() for ln in lines
                           if ln.split()[:2] == [workload, metric["name"]]]
                self.assertEqual(len(printed), 1, (workload, metric["name"]))
                self.assertIn(metric["unit"], printed[0])
                self.assertTrue(printed[0][-1].startswith("n="))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_report(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_report(1, "per_layer")


class DoctoredOutputs(unittest.TestCase):
    """Each check passes on a real output and fails on a doctored one."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_campaign(self):
        args = run.campaign_args(SEED, smoke=True)
        out, _ = cli(args, "t-campaign")
        ref, _ = cli(run.campaign_args(SEED, smoke=True, threads=1), "t-ref")
        self.assertEqual(run.check_campaign(out, ref), [])
        header, first, *rest = out.splitlines(keepends=True)
        changed = first.replace(",1,", ",2,", 1)
        self.assertNotEqual(changed, first)
        self.assertTrue(run.check_campaign(header + changed + "".join(rest),
                                           ref))
        errored = [header.rstrip("\n") + ",error\n",
                   first.rstrip("\n") + ',"replica failed"\n'] + [
                       row.rstrip("\n") + ',""\n' for row in rest]
        errored = "".join(errored)
        self.assertEqual(run.campaign_error_rows(errored), 1)
        self.assertTrue(run.check_campaign(errored, errored))
        summary, text = driver(args)
        self.assertEqual(run.driver_matches_cli("campaign", out, "", summary,
                                                text), [])
        self.assertTrue(run.driver_matches_cli("campaign", changed, "",
                                               summary, text))

    def test_attack(self):
        for name, stream in (("attack-exact", "exact"),
                             ("attack-sketch", "sketch")):
            args = run.attack_args(stream)(SEED, smoke=True)
            rounds = int(run.arg(args, "--rounds"))
            out, err = cli(args, "t-" + name)
            self.assertEqual(run.check_attack(out, err, rounds, stream), [])
            target = run.attack_target(err)
            *head, last = out.splitlines()
            fields = last.split(",")
            fields[3] = str(target + 1)
            wrong = "\n".join(head + [",".join(fields)]) + "\n"
            self.assertTrue(run.check_attack(wrong, err, rounds, stream))
            self.assertTrue(run.check_attack("\n".join(head[:-1]) + "\n", err,
                                             rounds, stream))
            self.assertTrue(run.check_attack(out, "", rounds, stream))
            # The sketch backend's answer is on its own stderr line.
            sketch_lines = run.SKETCH_RE.findall(err)
            self.assertEqual(len(sketch_lines), stream == "sketch")
            if stream == "sketch":
                wrong_sketch = run.SKETCH_RE.sub(
                    lambda m: m.group(0).replace(
                        f"top receiver {target} ",
                        f"top receiver {target + 1} "), err)
                self.assertNotEqual(wrong_sketch, err)
                self.assertTrue(run.check_attack(out, wrong_sketch, rounds,
                                                 stream))
                no_sketch = "".join(
                    ln for ln in err.splitlines(keepends=True)
                    if not ln.startswith("# sketch posterior"))
                self.assertTrue(run.check_attack(out, no_sketch, rounds,
                                                 stream))
            summary, text = driver(args)
            self.assertEqual(run.driver_matches_cli(name, out, err, summary,
                                                    text), [])
            self.assertTrue(run.driver_matches_cli(
                name, out, err, dict(summary, target_receiver=target + 1),
                wrong))

    def test_plan(self):
        args = run.plan_args(SEED, smoke=True)
        nodes, routes = int(run.arg(args, "--n")), int(run.arg(args,
                                                               "--routes"))
        out, _ = cli(args, "t-plan")
        summary, text = driver(args)
        reference = run.plan_summary(text)
        self.assertEqual(run.check_plan(out, nodes, routes, reference), [])
        self.assertEqual(run.driver_matches_cli("plan-kpaths", out, "",
                                                summary, text), [])
        for old, new in (("components: 1,", "components: 2,"),
                         (f"{nodes} reachable", f"{nodes - 1} reachable"),
                         (f"{routes} kpaths", f"{routes - 1} kpaths"),
                         ("routes: mean hops", "routes: mean hops 1")):
            doctored = out.replace(old, new)
            self.assertNotEqual(doctored, out)
            self.assertTrue(run.check_plan(doctored, nodes, routes, reference),
                            new)
            self.assertTrue(run.driver_matches_cli("plan-kpaths", doctored,
                                                   "", summary, text), new)


class Calibration(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_workload_has_a_loop_that_answers_and_ends(self):
        self.assertEqual(set(run.CALIBRATION), set(run.WORKLOADS))
        for loop in sorted({loop for loop, _ in run.CALIBRATION.values()}):
            with run.Calibrator(loop) as calibrator:
                calibrator.sample(2)
                self.assertEqual(len(calibrator.samples["wall"]), 2)
                self.assertGreater(calibrator.slowness("wall"), 0)
                self.assertGreater(calibrator.slowness("cpu"), 0)
            self.assertEqual(calibrator.proc.returncode, 0, loop)

    def test_unknown_loop_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.Calibrator("no-such-loop")


class Refusals(unittest.TestCase):
    def test_non_release_build_is_refused(self):
        fake = run.ROOT / ".bench_build" / "test-debug"
        fake.mkdir(parents=True, exist_ok=True)
        (fake / "CMakeCache.txt").write_text(
            "CMAKE_BUILD_TYPE:STRING=Debug\n")
        saved, run.BUILD = run.BUILD, fake
        try:
            with self.assertRaises(run.BenchError):
                run.refuse_non_release()
        finally:
            run.BUILD = saved
            shutil.rmtree(fake)

    def test_benchmark_files_alone_fail_without_a_result(self):
        bare = run.ROOT / ".bench_build" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "campaign",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
