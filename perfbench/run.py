"""relroots benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``) it runs whole rounds of the workload, each in a
fresh process, for about ``--seconds`` seconds, times set-up six times in
fresh interpreters (half before the rounds, half after), checks every
round's outputs with ``oracles.py`` and prints the end-to-end metrics.
Every child runs on one vCPU, the one a ``SpeedProbe`` thread of this
process samples, and its times are scaled to the machine's reference
speed (see ``SpeedProbe``).
Traced (``--trace 1``) it runs one traced round and then, if time is left,
one untraced round, prints the tracing overhead, writes
``perfbench/out/trace_<workload>.json`` and prints the per-layer metrics.
Run it from anywhere; it reads ``src/`` next to this directory and writes
only under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 6
DEADLINE_S = 170  # every child still running then is killed

# the probe's chunk: one product of two sparse rational polynomials, the
# kind of arithmetic relroots spends its time on, written apart from it
PROBE_P = {(i, (3 * i) % 7): (Fraction(i + 1, 3) if i % 3 else i + 2)
           for i in range(25)}
PROBE_Q = {((5 * j) % 11, j): (Fraction(2 - j, 5) if j % 2 else j - 1)
           for j in range(25)}
PROBE_PERIOD_S = 0.05
# CPU seconds of one chunk at the reference speed: the mean chunk on a
# 2-vCPU Intel Xeon KVM guest (Python 3.11) in the fastest phase seen
PROBE_REF_S = 0.0018


class BenchError(RuntimeError):
    pass


def probe_chunk():
    out = {}
    for (a1, b1), c1 in PROBE_P.items():
        for (a2, b2), c2 in PROBE_Q.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


class SpeedProbe(threading.Thread):
    """Samples the speed of the vCPU that the benchmark's children run on.

    The speed of this machine drifts by up to 1.9 times in phases of ten
    seconds to a quarter of an hour, in CPU time as much as in wall time,
    and differently on each vCPU.  So every ``PROBE_PERIOD_S`` this thread,
    which shares its vCPU with the child being timed, times a fixed chunk of
    rational-polynomial arithmetic in thread CPU time.  ``scale(t0, t1)`` is
    ``PROBE_REF_S`` over the mean chunk time in ``[t0, t1]``: a child's CPU
    seconds times that scale are the seconds it would have taken at the
    reference speed.  The chunks take about 5 % of the vCPU; a child's
    CPU time leaves them out.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (start, end, CPU seconds of one chunk)
        self.halt = threading.Event()

    def run(self):
        while not self.halt.wait(PROBE_PERIOD_S):
            t0, c0 = time.perf_counter(), time.thread_time()
            probe_chunk()
            self.samples.append((t0, time.perf_counter(), time.thread_time() - c0))

    def scale(self, t0, t1):
        samples = list(self.samples)
        inside = [dt for s, e, dt in samples if t0 <= s and e <= t1]
        if len(inside) < 5:  # too short a child: the five nearest chunks
            mid = (t0 + t1) / 2
            near = sorted(samples, key=lambda x: abs(x[0] - mid))[:5]
            inside = [dt for _, _, dt in near]
        if not inside:
            raise BenchError("the speed probe took no samples")
        return PROBE_REF_S / statistics.fmean(inside)


class Runner:
    def __init__(self, workload, seed, probe):
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.inputs = workloads.make_inputs(workload, seed)
        self.inputs_path = OUT / ("%s-%d-inputs.json" % (workload, seed))
        self.inputs_path.write_text(json.dumps(self.inputs))
        self.attempted = 0
        self.failed = 0
        self.per_round = 0  # operations in one round

    def spawn(self, argv, tag):
        """Run one child to its end; (seconds, wall seconds, peak RSS in MB, log).

        The seconds are the child's CPU time (user and system) scaled to
        the reference speed by the probe; on one vCPU they are its wall
        time less the probe's share, at that speed.
        """
        log = OUT / ("%s-%s.log" % (self.workload, tag))
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + [str(a) for a in argv],
                                    cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        cpu = usage.ru_utime + usage.ru_stime
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 1) or (proc.returncode == 1
                                             and self.workload != "verify_all"):
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError("%s exited with %d:\n%s" % (argv[:3], proc.returncode, tail))
        scale = self.probe.scale(t0, t1)
        seconds = cpu * scale
        print("%s %s wall=%.3f cpu=%.3f scale=%.3f seconds=%.3f"
              % (self.workload, tag, t1 - t0, cpu, scale, seconds), file=sys.stderr)
        return seconds, t1 - t0, usage.ru_maxrss / 1024, log

    def setup_times(self, n):
        return [self.spawn([BENCH / "workloads.py", "setup", self.workload],
                           "setup")[0] for _ in range(n)]

    def one_round(self, trace_path=None):
        """Run, then check, one round; returns (seconds, wall seconds, peak RSS MB)."""
        tag = "traced" if trace_path else "round"
        out = OUT / ("%s-%d-%s.json" % (self.workload, self.seed, tag))
        if self.workload == "verify_all" and trace_path is None:
            argv = ["-m", "relroots.cli", "verify", "--suite", "all",
                    "--seed", self.seed, "--report", out]
        else:
            argv = [BENCH / "workloads.py", self.workload, self.inputs_path, out]
            if trace_path is not None:
                argv += ["--trace", trace_path]
        seconds, wall, rss, log = self.spawn(argv, tag)
        attempted, failed = getattr(self, "check_" + self.workload)(out, log)
        self.attempted += attempted
        self.failed += failed
        self.per_round = attempted
        return seconds, wall, rss

    # -- oracles -----------------------------------------------------------

    def check_verify_all(self, out, log):
        text = out.read_text()
        report = json.loads(text)
        n = len(report["cases"])
        problems = oracles.check_verify_report(report, oracles.lemma1_catalog())
        if "fail=0 " not in log.read_text():
            problems.append("summary line does not read fail=0")
        # determinism: lemma3 alone at the same seed gives the same cases, and
        # an earlier report at this seed in this checkout is byte-identical
        again = OUT / "verify_all-lemma3.json"
        self.spawn(["-m", "relroots.cli", "verify", "--suite", "lemma3",
                    "--seed", self.seed, "--report", again], "lemma3")
        alone = json.loads(again.read_text())["cases"]
        inside = [c for c in report["cases"] if c["id"].startswith("lemma3/")]
        if alone != inside:
            problems.append("lemma3 cases differ between --suite lemma3 and all")
        keep = OUT / ("verify_all-seed%d.json" % self.seed)
        if keep.exists() and keep.read_text() != text:
            problems.append("report differs from an earlier run at this seed")
        keep.write_text(text)
        for p in problems:
            print("FAIL verify_all: %s" % p, file=sys.stderr)
        return n, min(n, len(problems))

    def check_identities(self, out, log):
        result = json.loads(out.read_text())
        pairs = self.inputs["pairs"]
        bad = 0
        for (t, a, b), rows in zip(pairs, result["tables"]):
            table = {(i, j): c for i, j, c in rows}
            if not oracles.check_constant_table(
                    oracles.roots(*oracles.parse_type(t)), tuple(a), tuple(b), table):
                print("FAIL identities: constants %s %s %s" % (t, a, b), file=sys.stderr)
                bad += 1
        bad += abs(len(pairs) - len(result["tables"]))
        expected = workloads.expected_identity_cases(self.inputs)
        for cid, status in result["cases"]:
            if status != "pass":
                print("FAIL identities: %s %s" % (cid, status), file=sys.stderr)
                bad += 1
        bad += abs(expected - len(result["cases"]))
        n = len(pairs) + expected
        return n, min(n, bad)

    def check_finite_boundary(self, out, log):
        rows = json.loads(out.read_text())["groups"]
        want = {(t, p) for t, p in self.inputs["groups"]}
        bad = len(want) - len({(t, p) for t, p, _, _ in rows} & want)
        for t, p, order, index in rows:
            s, l = oracles.parse_type(t)
            if (order, index) != (oracles.adjoint_order(s, l, p),
                                  oracles.derived_index(s, l, p)):
                print("FAIL finite_boundary: %s/F%d order %d index %d"
                      % (t, p, order, index), file=sys.stderr)
                bad += 1
        return len(want), min(len(want), bad)

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds):
        """Median set-up and round figures; as many rounds as fill ``seconds``
        of wall time (at least one).

        Half the set-ups run before the rounds and half after, so that the
        median spans the run rather than one moment of a machine whose
        speed drifts.
        """
        setup = self.setup_times(SETUPS // 2)
        times, rss = [], []
        while True:
            t, wall, peak = self.one_round()
            times.append(t)
            rss.append(peak)
            if len(times) == 1:
                rounds = max(1, round(seconds / wall))
            if (len(times) >= rounds
                    or time.monotonic() + wall >= self.deadline):
                break
        setup += self.setup_times(SETUPS - len(setup))
        run_s = statistics.median(times)
        print("%s seed=%d samples=%d run_s=%s setup_s=%s peak_rss_mb=%s"
              % (self.workload, self.seed, len(times),
                 [round(t, 3) for t in times], [round(s, 3) for s in setup],
                 [round(r, 1) for r in rss]))
        return {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "cases_per_s": (self.per_round / run_s, "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def trace(self):
        path = OUT / ("trace_%s.json" % self.workload)
        traced, wall, _ = self.one_round(trace_path=path)
        data = json.loads(path.read_text())
        data.update(seed=self.seed, traced_run_s=traced)
        # the untraced round is no slower than the traced one
        if time.monotonic() + wall < self.deadline:
            plain, _, _ = self.one_round()
            data.update(untraced_run_s=plain, overhead_s=traced - plain)
            print("%s seed=%d tracing overhead: traced run_s %.3f - untraced "
                  "run_s %.3f = %.3f s (%+.0f%%)"
                  % (self.workload, self.seed, traced, plain, traced - plain,
                     100 * (traced - plain) / plain))
        else:
            print("%s seed=%d tracing overhead not measured: no time left for "
                  "an untraced round" % (self.workload, self.seed))
        path.write_text(json.dumps(data, indent=1))
        print("per-layer metrics in %s" % path.relative_to(ROOT))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        return {k: (v, units[k]) for k, v in data["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relroots" / "cli.py").is_file():
        print("error: no relroots sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # on SIGTERM, unwind through Runner.spawn, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the children inherit this vCPU, which the probe thread shares
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    runner = Runner(args.workload, args.seed, probe)
    try:
        metrics = runner.trace() if args.trace else runner.measure(args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        probe.halt.set()
        probe.join()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
