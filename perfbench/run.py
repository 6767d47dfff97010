#!/usr/bin/env python3
"""demkit benchmark: drives the real ``demkit`` CLI from outside the program.

    python3 perfbench/run.py --workload {scan,char,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record     # rewrite expected.json, manifest.json

One closed-loop client sends each request as a fresh ``python3 -m
demkit.cli`` process and starts the next one only after the previous one
has exited.  Requests are forked by ``spawner.py``, so that ``wait4`` gives
each one's own peak RSS.  The seed draws the request list: one request per
slot, in shuffled order; the requests in a slot cost about the same, so
every seed does a similar amount of work.  A run warms up with one untimed
request, then repeats passes over the list for ``--seconds``, timing a few
fresh interpreters' set-up before each pass.  Every request's stdout
SHA-256 and exit code are checked against ``expected.json``, which covers
every request any seed can draw.

Times are scaled to a fixed host speed.  A shared host's CPU speed drifts
by tens of percent over seconds, and the program's time drifts with it.
So between any two requests the client also runs a reference request: a
fresh interpreter that runs a fixed pure-Python loop, which like a demkit
request pays start-up and then computes.  Each request's wall time is
multiplied by ``REFERENCE_S`` over the mean of the reference times just
before and after it: the time the request would take on a host where the
reference takes ``REFERENCE_S``.  The reference does not use demkit, so a
change to the program moves the scaled times as it moves the raw ones.  The
human-readable lines give the raw figures and the host speed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
request under ``trace_launch.py``, which wraps the demkit functions that
the per-layer metrics name, and reports those metrics.  An untraced pass of the
same list measures the tracing overhead.

The last stdout line is one JSON object; the lines before it print every
metric by name and unit.  The exit code is 0 whenever a result is printed,
including runs where some request failed (``failed`` counts them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
LAUNCHER = os.path.join(HERE, "trace_launch.py")
SPAWNER = os.path.join(HERE, "spawner.py")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
MANIFEST_PATH = os.path.join(HERE, "manifest.json")
OUT_PATH = os.path.join(WORK, "stdout")
ERR_PATH = os.path.join(WORK, "stderr")
REFERENCE_ERR_PATH = os.path.join(WORK, "reference.stderr")

DEFAULT_SEED = 0
SCAN_JOBS = 2  # fixed, not os.cpu_count(), so every host runs the same work
SETUP_SAMPLES = 12  # at least; spread over the run, SETUP_PER_PASS before each pass
SETUP_PER_PASS = 3
REQUEST_TIMEOUT_S = 60.0
# Requests still running this long after a run starts are killed, so a hung
# program cannot hold a run past 180 s.
RUN_DEADLINE_S = 170.0
# The reference request: tuple keys, dict updates and integer arithmetic,
# like demkit's weight bookkeeping, but no demkit code.  Its argument is a
# number of processes that run the loop at once, as a scan's pool does.
REFERENCE_CODE = """\
import os, sys
def work():
    acc = {}
    for i in range(45000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3 // 7
children = []
for _ in range(int(sys.argv[1]) - 1):
    pid = os.fork()
    if pid == 0:
        work()
        os._exit(0)
    children.append(pid)
work()
for pid in children:
    os.waitpid(pid, 0)
"""
# Reported times are scaled to a host on which the reference takes this
# long; it takes about that on a 2-vCPU Xeon VM.
REFERENCE_S = 0.080

# ---------------------------------------------------------------------------
# workloads: a seed draws one request per slot and shuffles the list.  The
# alternatives in a slot are images of each other under a Dynkin diagram
# automorphism, so they give outputs of the same size at about the same
# cost, and the work of a pass hardly depends on the seed.  Slots without
# such a twin hold one request.


def _scan(system, height):
    return ("scan", "--system", system, "--height-bound", str(height), "--no-timing")


def _dem(system, level, weight):
    return ("char", "--system", system, "--level", str(level), "--weight", weight, "--graded")


def _kr(system, level, node):
    return ("char", "--system", system, "--level", str(level), "--kind", "kr",
            "--index", str(node), "--graded")


def _twins(make, system, level, weight):
    return [make(system, level, weight), make(system, level, ",".join(reversed(weight.split(","))))]


def _stab(system, lam, depth, n_max):
    return ("verify", "stabilization", "--system", system, "--level", "1", "--lambda", lam,
            "--max-grade", str(depth), "--n-max", str(n_max), "--no-timing", "--no-cache")


def _v(*args):
    return ("verify", *args, "--no-timing")


SLOTS = {
    # ~4.6 s per pass at --jobs 2, 646 certificates.  Scan cost depends
    # strongly on the box, so the seed only orders the three.
    "scan": [
        [_scan("A2", 2)],
        [_scan("B2", 2)],
        [_scan("A3", 1)],
    ],
    # 2.5k-15k terms each; the cold plus warm pass takes ~8 s.  No --kind
    # weyl, so no tensor_decompose and no Fraction solve runs here.
    "char": [
        _twins(_dem, "A2", 1, "8,9"),
        _twins(_dem, "A2", 2, "10,9"),
        _twins(_dem, "A3", 2, "5,5,2"),
        _twins(_dem, "A3", 1, "4,4,1"),
        _twins(_dem, "A4", 1, "2,2,1,1"),
        [_dem("B2", 1, "6,6")],
        [_dem("G2", 1, "3,3")],
        [_kr("B3", 8, 2)],
        [_kr("C3", 5, 2)],
        [_kr("D4", 6, 2)],
    ],
    # One request per claim kind, plus four more stabilization requests.
    # Every stabilization input reaches the affine oracle (exit 0); an
    # inconclusive one exits 4 before computing it and measures nothing.
    "verify": [
        [_v("demprop", "--system", "C3", "--level", "1", "--parts", "0,2,0;0,2,0",
            "--lambda", "1,0,0")],
        [_v("mapsdem", "--system", "A2", "--level", "1", "--parts", "1:1,0;1:0,1", "--lambda", lam)
         for lam in ("1,0", "0,1")],
        [_v("krdecom", "--system", "C3", "--level", "1", "--s-vector", "0,2,0", "--lambda", "1,0,0")],
        [_v("ev0", "--system", "B3", "--level", "1", "--lambda", "2,1,0")],
        [_v("twofold", "--system", "C3", "--level", "2", "--index", "3", "--lambda", "0,0,2",
            "--mu1", "0,0,1", "--mu2", "0,0,3")],
        [_v("genschurpos", "--system", "C3", "--level", "3", "--source-level", "2", "--index", "3",
            "--power", "1", "--lambda", "0,1,0", "--mu", "0,1,1")],
        # Checks a table lookup only; every rank costs about start-up time.
        [_v("minuscule", "--system", s) for s in ("B3", "C3", "D4", "E6")],
        [_stab("A3", lam, 2, 3) for lam in ("0,0,1", "1,0,0")],
        [_stab("B3", "0,0,1", 1, 3)],
        [_stab("C3", "0,1,0", 1, 3)],
        [_stab("B2", "0,0", 3, 4)],
        [_stab("G2", "1,0", 3, 4)],
    ],
}

# Layer -> the end-to-end metrics it should move, and where it works.
LAYER_MAP = {
    "cli": {"moves": ["latency_gmean_ms", "cache.hit_latency_p50_ms"],
            "most_work": ["char", "verify"], "little_work": ["scan"]},
    "rootsystem": {"moves": ["setup_s", "throughput_ops_per_s on scan", "wall_s on verify"],
                   "most_work": ["scan", "verify"], "little_work": ["char"]},
    "charalg": {"moves": ["cache.miss_latency_p50_ms", "cache.hit_latency_p50_ms",
                          "throughput_ops_per_s on scan"],
                "most_work": ["char", "scan"], "little_work": []},
    "affine": {"moves": ["cache.miss_latency_p50_ms on char", "wall_s on verify"],
               "most_work": ["char", "verify"], "little_work": ["scan"]},
    "finite": {"moves": ["throughput_ops_per_s on scan", "wall_s on verify"],
               "most_work": ["scan"], "little_work": ["char"]},
    "theorems": {"moves": ["throughput_ops_per_s on scan", "wall_s on verify"],
                 "most_work": ["scan", "verify"], "little_work": ["char"]},
    "cache": {"moves": ["cache.hit_latency_p50_ms", "cache.miss_latency_p50_ms"],
              "most_work": ["char"], "little_work": ["scan", "verify"]},
}

# Wrapped functions each workload must call at least once in a traced run;
# a zero count means a wrapper is bypassed or the workload lost its path.
MUST_CALL = {
    "scan": ["cli.main", "rootsystem.root_system", "rootsystem.RootSystem.dominance_gap",
             "rootsystem.RootSystem.dominates", "rootsystem.RootSystem.dominant_representative",
             "charalg.GradedCharacter.__mul__", "charalg.GradedCharacter.is_w_invariant",
             "finite.weyl_character", "finite.tensor_decompose", "finite.surjection_exists",
             "theorems.schur_scan", "theorems.Certificate.to_json"],
    "char": ["cli.main", "rootsystem.root_system", "affine.demazure_operator",
             "affine.demazure_character", "affine.kr_character", "affine.straighten",
             "charalg.GradedCharacter.to_jsonl", "charalg.GradedCharacter.from_jsonl",
             "cache.CharacterCache.load", "cache.CharacterCache.store"],
    "verify": ["cli.main", "rootsystem.root_system", "rootsystem.RootSystem.weight_norm2",
               "rootsystem.RootSystem.dominance_gap", "affine.demazure_operator",
               "affine.demazure_character", "affine.straighten",
               "affine.affine_irreducible_character_truncated", "finite.weyl_character",
               "finite.tensor_decompose", "finite.surjection_exists",
               "theorems.verify_demprop", "theorems.verify_mapsdem", "theorems.verify_krdecom",
               "theorems.verify_ev0", "theorems.verify_twofold", "theorems.verify_genschurpos",
               "theorems.verify_stabilization", "theorems.verify_minuscule",
               "theorems.Certificate.to_json"],
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_ops_per_s", "ops/s"),
    ("latency_gmean_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# (metric, wrapped function, statistic) read straight from the spans.
SPAN_METRICS = [
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("rootsystem.root_system.self_ms", "rootsystem.root_system", "self_ms"),
    ("rootsystem.dominance_gap.calls", "rootsystem.RootSystem.dominance_gap", "calls"),
    ("rootsystem.dominance_gap.self_ms", "rootsystem.RootSystem.dominance_gap", "self_ms"),
    ("rootsystem.dominates.calls", "rootsystem.RootSystem.dominates", "calls"),
    ("rootsystem.weight_norm2.calls", "rootsystem.RootSystem.weight_norm2", "calls"),
    ("rootsystem.weight_norm2.self_ms", "rootsystem.RootSystem.weight_norm2", "self_ms"),
    ("rootsystem.dominant_representative.calls",
     "rootsystem.RootSystem.dominant_representative", "calls"),
    ("charalg.GradedCharacter.__mul__.calls", "charalg.GradedCharacter.__mul__", "calls"),
    ("charalg.GradedCharacter.__mul__.self_ms", "charalg.GradedCharacter.__mul__", "self_ms"),
    ("charalg.GradedCharacter.is_w_invariant.self_ms",
     "charalg.GradedCharacter.is_w_invariant", "self_ms"),
    ("charalg.GradedCharacter.to_jsonl.self_ms", "charalg.GradedCharacter.to_jsonl", "self_ms"),
    ("charalg.GradedCharacter.to_jsonl.bytes", "charalg.GradedCharacter.to_jsonl", "bytes"),
    ("charalg.GradedCharacter.from_jsonl.self_ms", "charalg.GradedCharacter.from_jsonl", "self_ms"),
    ("charalg.GradedCharacter.from_jsonl.terms", "charalg.GradedCharacter.from_jsonl", "terms"),
    ("affine.demazure_operator.calls", "affine.demazure_operator", "calls"),
    ("affine.demazure_operator.self_ms", "affine.demazure_operator", "self_ms"),
    ("affine.demazure_operator.terms_out", "affine.demazure_operator", "terms_out"),
    ("affine.demazure_character.calls", "affine.demazure_character", "calls"),
    ("affine.demazure_character.self_ms", "affine.demazure_character", "self_ms"),
    ("affine.straighten.calls", "affine.straighten", "calls"),
    ("affine.straighten.self_ms", "affine.straighten", "self_ms"),
    ("affine.affine_irreducible_character_truncated.calls",
     "affine.affine_irreducible_character_truncated", "calls"),
    ("affine.affine_irreducible_character_truncated.self_ms",
     "affine.affine_irreducible_character_truncated", "self_ms"),
    ("finite.weyl_character.calls", "finite.weyl_character", "calls"),
    ("finite.weyl_character.self_ms", "finite.weyl_character", "self_ms"),
    ("finite.tensor_decompose.calls", "finite.tensor_decompose", "calls"),
    ("finite.tensor_decompose.self_ms", "finite.tensor_decompose", "self_ms"),
    ("finite.surjection_exists.calls", "finite.surjection_exists", "calls"),
    ("finite.surjection_exists.self_ms", "finite.surjection_exists", "self_ms"),
    *[(f"theorems.verify_{c}.self_ms", f"theorems.verify_{c}", "self_ms")
      for c in ("demprop", "mapsdem", "krdecom", "ev0", "twofold", "genschurpos",
                "stabilization", "minuscule")],
    ("theorems.Certificate.to_json.self_ms", "theorems.Certificate.to_json", "self_ms"),
    ("cache.CharacterCache.load.calls", "cache.CharacterCache.load", "calls"),
    ("cache.CharacterCache.load.hits", "cache.CharacterCache.load", "hits"),
    ("cache.CharacterCache.load.self_ms", "cache.CharacterCache.load", "self_ms"),
    ("cache.CharacterCache.store.calls", "cache.CharacterCache.store", "calls"),
    ("cache.CharacterCache.store.self_ms", "cache.CharacterCache.store", "self_ms"),
    ("cache.CharacterCache.store.bytes", "cache.CharacterCache.store", "bytes"),
]

DERIVED_METRICS = [
    ("finite.weyl_character.distinct_ratio", "ratio"),
    ("finite.tensor_decompose.calls_per_cert", "ratio"),
    ("theorems.schur_scan.serial_s", "s"),
    ("theorems.schur_scan.parallel_efficiency", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.miss_latency_p50_ms", "ms"),
    ("cache.hit_latency_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

_STAT_UNIT = {"calls": "count", "self_ms": "ms", "bytes": "bytes", "terms": "count",
              "terms_out": "count", "hits": "count"}

PER_LAYER = [(name, _STAT_UNIT[stat]) for name, _, stat in SPAN_METRICS] + DERIVED_METRICS


def draw_requests(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(slot) for slot in SLOTS[workload]]
    rng.shuffle(picks)
    return picks


def request_key(args):
    return " ".join(args)


def workload_systems(workload):
    """Every root system the workload's requests can use, for any seed."""
    return sorted({r[r.index("--system") + 1] for slot in SLOTS[workload] for r in slot})


# ---------------------------------------------------------------------------
# running one request


class Outcome:
    def __init__(self, args, reply, spans):
        self.args = args
        self.code = os.waitstatus_to_exitcode(reply["status"])
        self.latency_s = reply["scaled_s"]
        self.raw_latency_s = reply["latency_s"]
        self.rss_mb = reply["maxrss_kb"] / 1024.0
        self.timed_out = reply["timed_out"]
        self.spans = spans
        with open(OUT_PATH, "rb") as fh:
            stdout = fh.read()
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.last_line = stdout.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        with open(ERR_PATH, "rb") as fh:
            self.stderr_tail = fh.read()[-2000:].decode(errors="replace")


def child_env():
    env = dict(os.environ)
    # The cache location comes only from flags, so no run reads or writes
    # the user's cache.
    env.pop("DEMKIT_CACHE", None)
    env.pop("XDG_CACHE_HOME", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Client:
    """Closed-loop client: one request in flight, each in a new process
    forked by ``spawner.py``.

    With ``jobs`` = 1, the spawner and so every request and reference
    request run on one CPU, so the reference measures the CPU the requests
    use.  A scan with a pool is not pinned, and its reference runs ``jobs``
    loops at once."""

    def __init__(self, deadline, jobs=1):
        self.env = child_env()
        self.deadline = deadline
        self.jobs = jobs
        self.reference_s = None  # the last reference time, taken after the last request
        self.reference_log = []
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        pin_args = [str(cpus[-1])] if jobs == 1 and cpus else []
        self.spawner = subprocess.Popen([sys.executable, "-S", SPAWNER, *pin_args],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        env=self.env, cwd=ROOT, text=True)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, args, extra=(), traced=False):
        argv = list(args) + list(extra)
        spans_path = os.path.join(WORK, "spans.json")
        if traced:
            cmd = [sys.executable, LAUNCHER, spans_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "demkit.cli", *argv]
        reply = self.spawn(cmd)
        spans = None
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)
                os.unlink(spans_path)
            except (OSError, ValueError):
                spans = {}
        return Outcome(args, reply, spans)

    def spawn(self, cmd):
        """Run ``cmd`` to completion; stdout and stderr go to OUT_PATH and
        ERR_PATH.  Returns the spawner's reply, with ``scaled_s``: the
        latency scaled by the reference times just before and after."""
        before = self.reference_s or self.measure_reference()
        reply = self.spawn_raw(cmd)
        after = self.measure_reference()
        reply["scaled_s"] = reply["latency_s"] * REFERENCE_S / ((before + after) / 2)
        return reply

    def measure_reference(self):
        reply = self.spawn_raw([sys.executable, "-c", REFERENCE_CODE, str(self.jobs)],
                               os.devnull, REFERENCE_ERR_PATH)
        if reply["status"] != 0 or reply["timed_out"]:
            with open(REFERENCE_ERR_PATH, encoding="utf-8", errors="replace") as fh:
                sys.exit(f"error: the reference request failed:\n{fh.read()[-2000:]}")
        self.reference_s = reply["latency_s"]
        self.reference_log.append(self.reference_s)
        return self.reference_s

    def spawn_raw(self, cmd, out_path=OUT_PATH, err_path=ERR_PATH):
        timeout = max(1.0, min(REQUEST_TIMEOUT_S, self.deadline - time.monotonic()))
        request = {"argv": cmd, "stdout": out_path, "stderr": err_path, "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            sys.exit("error: the spawner process died")
        return json.loads(reply)


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self):
        self.outcomes = []  # (phase, Outcome)
        self.failures = []
        self.wall_s = 0.0  # the sum of the requests' scaled latencies
        self.raw_wall_s = 0.0
        self.ops = 0
        self.certs = 0

    def fail(self, outcome, reason):
        self.failures.append(f"{request_key(outcome.args)}: {reason}")


def check(p, phase, outcome, expected, workload):
    """Check one request's output and count its ops; returns ops."""
    want = expected.get(request_key(outcome.args))
    if outcome.timed_out:
        p.fail(outcome, "timed out")
        return 0
    if want is None:
        p.fail(outcome, "no recorded digest")
        return 0
    if outcome.code != want["exit"]:
        tail = outcome.stderr_tail.strip().splitlines()[-1:]
        p.fail(outcome, f"exit {outcome.code}, expected {want['exit']} {tail}")
        return 0
    if outcome.digest != want["sha256"]:
        p.fail(outcome, f"{phase} stdout digest differs from the recorded one")
        return 0
    if workload != "scan":
        return 1
    try:
        summary = json.loads(outcome.last_line)
    except ValueError:
        p.fail(outcome, "no scan summary")
        return 0
    if summary.get("refuted") != 0:
        p.fail(outcome, f"scan refuted {summary.get('refuted')} tuples")
    return summary.get("total", 0)


def run_pass(client, workload, requests, expected, traced=False, jobs=SCAN_JOBS):
    p = Pass()
    if workload == "char":
        # One pass: the list against a fresh cache directory (all misses),
        # then the same list again (all hits).
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
        try:
            cold = {}
            for phase in ("cold", "warm"):
                for args in requests:
                    o = client.run(args, ("--cache-dir", cache_dir), traced)
                    p.outcomes.append((phase, o))
                    p.ops += check(p, phase, o, expected, workload)
                    if phase == "cold":
                        cold[args] = o.digest
                    elif o.digest != cold[args]:
                        p.fail(o, "warm output differs from cold output")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    else:
        extra = ("--jobs", str(jobs)) if workload == "scan" else ()
        for args in requests:
            o = client.run(args, extra, traced)
            p.outcomes.append(("run", o))
            p.ops += check(p, "run", o, expected, workload)
    # The client's own work between requests (checks, reference loops) is
    # left out: the pass is as long as its requests, one after another.
    p.wall_s = sum(o.latency_s for _, o in p.outcomes)
    p.raw_wall_s = sum(o.raw_latency_s for _, o in p.outcomes)
    p.certs = 0 if workload == "char" else p.ops
    return p


def setup_samples(client, systems, n):
    """Wall times of ``n`` fresh interpreters that import demkit and build
    the workload's root systems: the start-up every CLI call pays.  The
    spawner times them: ``subprocess`` polls a child that has a timeout in
    steps of up to 50 ms, which would quantize a ~0.1 s figure."""
    code = f"import demkit\nfor name in {systems!r}:\n    demkit.root_system(name)\n"
    samples = []
    for _ in range(n):
        reply = client.spawn([sys.executable, "-c", code])
        if reply["status"] != 0 or reply["timed_out"]:
            with open(ERR_PATH, encoding="utf-8", errors="replace") as fh:
                sys.exit(f"error: demkit set-up failed:\n{fh.read()[-2000:]}")
        samples.append(reply["scaled_s"])
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def request_latencies(passes, phase=None, raw=False):
    """Each distinct request's (of one phase, if given) mean latency over
    the passes, in seconds."""
    per_request = {}
    for p in passes:
        for ph, o in p.outcomes:
            if phase in (None, ph):
                per_request.setdefault((ph, o.args), []).append(
                    o.raw_latency_s if raw else o.latency_s)
    return [statistics.fmean(v) for v in per_request.values()]


def latency_p50_ms(passes, phase=None, raw=False):
    """Median of request_latencies(), and the number of requests."""
    latencies = request_latencies(passes, phase, raw)
    return _median(latencies) * 1e3, len(latencies)


def latency_gmean_ms(passes):
    """Geometric mean of request_latencies(), and the number of requests.
    Like a median, it weighs a short request as much as a long one.  Unlike
    a median over a few dozen requests, it does not rest on the one or two
    requests in the middle, whose own noise would decide the figure."""
    latencies = request_latencies(passes)
    return statistics.geometric_mean(latencies) * 1e3, len(latencies)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_s, passes):
    # The mean over passes, not the median: a run holds only a few passes,
    # and the CPU speed of a shared host can drift over tens of seconds, so
    # averaging the whole run is steadier than picking its middle pass.
    wall = statistics.fmean(p.wall_s for p in passes)
    latency, requests = latency_gmean_ms(passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_ops_per_s": sum(p.ops for p in passes) / sum(p.wall_s for p in passes),
        "latency_gmean_ms": latency,
        "peak_rss_mb": max(o.rss_mb for p in passes for _, o in p.outcomes),
    }
    notes = {"latency_gmean_ms": f"n={requests} requests x {len(passes)} passes",
             "wall_s": f"n={len(passes)} passes"}
    return metrics, notes


def sum_spans(p):
    total = {}
    for _, o in p.outcomes:
        for fn, st in (o.spans or {}).items():
            acc = total.setdefault(fn, {})
            for k, v in st.items():
                acc[k] = acc.get(k, 0) + v
    for st in total.values():
        st["self_ms"] = st.get("self_s", 0.0) * 1e3
    return total


def per_layer(traced, plain, parallel):
    """Per-layer metrics of one traced pass, with the untraced pass of the
    same list (and, for scan, the --jobs pass) it is compared against."""
    spans = sum_spans(traced)

    def stat(fn, key):
        return spans.get(fn, {}).get(key, 0)

    m = {name: stat(fn, key) for name, fn, key in SPAN_METRICS}
    weyl_calls = stat("finite.weyl_character", "calls")
    m["finite.weyl_character.distinct_ratio"] = (
        stat("finite.weyl_character", "distinct") / weyl_calls if weyl_calls else 0.0)
    m["finite.tensor_decompose.calls_per_cert"] = (
        stat("finite.tensor_decompose", "calls") / traced.certs if traced.certs else 0.0)
    loads = stat("cache.CharacterCache.load", "calls")
    m["cache.hit_ratio"] = stat("cache.CharacterCache.load", "hits") / loads if loads else 0.0
    m["cache.miss_latency_p50_ms"] = latency_p50_ms([plain], "cold")[0]
    m["cache.hit_latency_p50_ms"] = latency_p50_ms([plain], "warm")[0]
    serial = plain.wall_s if parallel is not None else 0.0
    m["theorems.schur_scan.serial_s"] = serial
    m["theorems.schur_scan.parallel_efficiency"] = (
        serial / (SCAN_JOBS * parallel.wall_s) if parallel is not None else 0.0)
    m["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    return m, spans


# ---------------------------------------------------------------------------
# entry points


def require_program():
    if not os.path.isfile(os.path.join(SRC, "demkit", "cli.py")):
        sys.exit(f"error: no demkit sources under {SRC}")


def load_expected():
    if not os.path.isfile(EXPECTED_PATH):
        sys.exit(f"error: missing {EXPECTED_PATH}; run with --record")
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def repeat_for(seconds, step):
    """Call ``step`` until about ``seconds`` have passed.  Another call starts
    only while half of the previous one still fits, so runs end near the
    target whatever a call costs."""
    results = []
    t0 = time.monotonic()
    last = 0.0
    while not results or time.monotonic() - t0 + last / 2 < seconds:
        t_step = time.monotonic()
        results.append(step())
        last = time.monotonic() - t_step
    return results


def timed_run(client, workload, requests, expected, seconds, passes):
    systems = workload_systems(workload)
    setup = []

    def step():
        # Set-up samples are taken between passes, across the whole run, so
        # that like wall_s they do not hang on one moment of the host's speed.
        setup.extend(setup_samples(client, systems, SETUP_PER_PASS))
        return run_pass(client, workload, requests, expected)

    timed = repeat_for(seconds, step)
    setup.extend(setup_samples(client, systems, SETUP_SAMPLES - len(setup)))
    passes += timed
    metrics, notes = end_to_end(statistics.median(setup), timed)
    notes["setup_s"] = f"n={len(setup)} interpreters"
    units = dict(END_TO_END)
    lines = [f"{name} {metrics[name]:.6g} {unit} {notes.get(name, '')}".rstrip()
             for name, unit in END_TO_END]
    for name, phase in [("latency_p50_ms", None)] + (
            [("miss_latency_p50_ms", "cold"), ("hit_latency_p50_ms", "warm")]
            if workload == "char" else []):
        value, requests = latency_p50_ms(timed, phase)
        lines.append(f"{name} {value:.6g} ms n={requests} requests x {len(timed)} passes")
    lines.append(f"raw wall_s {statistics.fmean(p.raw_wall_s for p in timed):.6g} s, raw "
                 f"latency_p50_ms {latency_p50_ms(timed, raw=True)[0]:.6g} ms (unscaled)")
    log = client.reference_log
    lines.append(f"host speed: reference median {statistics.median(log) * 1e3:.4g} ms, "
                 f"quartiles {[round(q * 1e3, 2) for q in statistics.quantiles(log, n=4)]} ms, "
                 f"nominal {REFERENCE_S * 1e3:g} ms, n={len(log)}")
    return metrics, units, lines


def traced_run(client, workload, requests, expected, seconds, passes):
    def step():
        # Scan runs serially here: pool workers leave through os._exit and
        # would lose their spans.
        traced = run_pass(client, workload, requests, expected, traced=True, jobs=1)
        plain = run_pass(client, workload, requests, expected, jobs=1)
        parallel = None
        if workload == "scan":
            parallel = run_pass(client, workload, requests, expected)
            if [o.digest for _, o in plain.outcomes] != [o.digest for _, o in parallel.outcomes]:
                plain.failures.append("serial and --jobs scan streams differ")
        passes.extend(p for p in (traced, plain, parallel) if p is not None)
        m, spans = per_layer(traced, plain, parallel)
        for fn in MUST_CALL[workload]:
            if not spans.get(fn, {}).get("calls"):
                traced.failures.append(f"wrapper {fn} saw zero calls")
        return m

    rows = repeat_for(seconds, step)
    metrics = {name: _median([r[name] for r in rows]) for name, _ in PER_LAYER}
    lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    return metrics, dict(PER_LAYER), lines


def bench(workload, seed, seconds, trace):
    require_program()
    expected = load_expected()
    os.makedirs(WORK, exist_ok=True)
    client = Client(time.monotonic() + RUN_DEADLINE_S, SCAN_JOBS if workload == "scan" else 1)
    requests = draw_requests(workload, seed)
    try:
        # Untimed warm-up: compiles bytecode and loads the files once.
        passes = [run_pass(client, workload, requests[:1], expected)]
        run = traced_run if trace else timed_run
        metrics, units, lines = run(client, workload, requests, expected, seconds, passes)
    finally:
        client.close()

    attempted = sum(len(p.outcomes) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    lines.append(f"fail_frac {len(failures) / attempted:.6g} ratio "
                 f"(failed {len(failures)} of {attempted} requests)")
    for line in lines:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def record():
    """Run every request any seed can draw once and store its stdout digest
    and exit code, then write manifest.json."""
    require_program()
    os.makedirs(WORK, exist_ok=True)
    client = Client(float("inf"), SCAN_JOBS)
    try:
        expected = {}
        for workload, slots in SLOTS.items():
            for slot in slots:
                for args in slot:
                    extra = ("--jobs", str(SCAN_JOBS)) if workload == "scan" else ()
                    if workload == "char":
                        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
                        extra = ("--cache-dir", cache_dir)
                    o = client.run(args, extra)
                    if workload == "char":
                        shutil.rmtree(cache_dir, ignore_errors=True)
                    if o.code != 0:
                        sys.exit(f"error: {request_key(args)} exited {o.code}:\n"
                                 f"{o.stderr_tail}")
                    expected[request_key(args)] = {"sha256": o.digest, "exit": o.code}
                    print(f"{o.latency_s:7.3f} s  {request_key(args)}", file=sys.stderr)
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        write_manifest(client, expected)
    finally:
        client.close()


def write_manifest(client, expected):
    """Facts BENCHMARK.json has no keys for: per-workload sizes at the
    default seed, the host, and which layer should move which metric."""
    workloads = {}
    for workload in SLOTS:
        requests = draw_requests(workload, DEFAULT_SEED)
        p = run_pass(client, workload, requests, expected)
        if p.failures:
            sys.exit("error: " + "; ".join(p.failures))
        workloads[workload] = {
            "default_seed": DEFAULT_SEED,
            "requests_per_pass": len(p.outcomes),
            "ops_per_pass": p.ops,
            "op": "certificate" if workload != "char" else "emitted character",
            "default_requests": [request_key(r) for r in requests],
        }
    manifest = {
        "generated_by": "python3 perfbench/run.py --record",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scan_jobs": SCAN_JOBS,
        "client": "closed loop, one client, one request in flight, each a new process",
        "time_scale": f"request times are scaled to a host on which the reference request "
                      f"takes {REFERENCE_S} s; see run.py",
        "workloads": workloads,
        "layer_map": LAYER_MAP,
    }
    with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json and manifest.json")
    args = parser.parse_args()
    if args.record:
        record()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
