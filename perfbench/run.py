#!/usr/bin/env python3
"""The repository benchmark: builds ctxrank, generates a world, runs one
workload against the real ctxrank/ctxrankd binaries and prints one JSON
result line. See perfbench/README.md.

    python3 perfbench/run.py --workload text-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Everything it makes stays under the
checkout: the build in .bench_build (or $CARGO_TARGET_DIR), run scratch in
.bench_work.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

WORKLOADS = ("text-cold", "text-zipf", "pattern-zipf", "ingest-live")
# The world every workload runs on: the repository's default generated
# world (154 terms, 5,000 papers). The world generator's term count swings
# from 62 to 296 across seeds, so --seed drives the query streams and the
# sampled checks, not the world's shape.
WORLD_SEED = 42
WORLD_PAPERS = {"text-cold": 5000, "text-zipf": 5000, "pattern-zipf": 5000,
                "ingest-live": 1000}
# Daemon shape of the Zipf workloads (README "Daemons and thread budget").
ZIPF_SHARDS = 2
ZIPF_CACHE = 8192  # workload.h kCacheEntries

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_qps": "queries/s",
    "search_p50_us": "us",
    "search_p95_us": "us",
    "server_rss_mb": "MiB",
    "index_bytes": "bytes",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout=600):
    """Runs a command to completion; raises BenchError on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode,
                                                  proc.stdout[-4000:]))
    return proc.stdout


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the program and the perfbench tool."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no ctxrank sources next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", out, "-j", str(nproc()), "--target", "ctxrank",
         "ctxrankd", "perfbench"], timeout=1800)
    return {name: os.path.join(out, sub, name) for name, sub in
            (("ctxrank", "tools"), ("ctxrankd", "tools"), ("perfbench", ""))}


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON result in:\n" + text[-2000:])


class Daemon:
    """A ctxrankd child process; stopped (and waited for) on exit."""

    def __init__(self, binary, args, logfile):
        self.log = open(logfile, "w")
        self.proc = subprocess.Popen([binary] + args + ["--port", "0"], cwd=ROOT,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.logfile = logfile
        self.port = None

    def wait_ready(self, timeout=150):
        """Returns once /healthz answers 200 (the first answered request)."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError("ctxrankd exited:\n" + open(self.logfile).read())
            if time.monotonic() > deadline:
                raise BenchError("ctxrankd did not start")
            with open(self.logfile) as f:
                for line in f:
                    if line.startswith("ctxrankd listening on "):
                        self.port = int(line.split()[3].split(":")[1])
            if self.port is None:
                time.sleep(0.005)
        url = "http://127.0.0.1:%d/healthz" % self.port
        while True:
            try:
                with urllib.request.urlopen(url, timeout=10) as r:
                    if r.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("ctxrankd never became healthy")
            time.sleep(0.005)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for ctxrankd")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def file_bytes(paths):
    return float(sum(os.path.getsize(p) for p in paths))


def setup(workload, bins, world, work, threads):
    """The timed set-up: raw world files to a daemon answering requests.
    Returns (daemon, setup seconds, snapshot files written, assignment)."""
    t = str(threads)
    ctxrank = bins["ctxrank"]
    if workload == "ingest-live":
        # The held-out tail is input generation, not set-up.
        base = os.path.join(work, "base")
        os.makedirs(base)
        run([bins["perfbench"], "prepare-ingest", "--world", world,
             "--seconds", str(ARGS.seconds), "--work", base])
        snap = os.path.join(work, "compact.snap")
        t0 = time.monotonic()
        daemon = Daemon(bins["ctxrankd"], ["--ingest", base, "--compact-snapshot",
                                           snap, "--threads", t, "--inline", "1"],
                        os.path.join(work, "ctxrankd.log"))
        daemon.wait_ready()
        return daemon, time.monotonic() - t0, [snap], None
    data = os.path.join(work, "data")
    shutil.copytree(world, data)
    t0 = time.monotonic()
    cset = "pattern" if workload == "pattern-zipf" else "text"
    snap = os.path.join(work, cset + ".snap")
    run([ctxrank, "index", "--data", data, "--set", cset, "--threads", t])
    if workload == "text-cold":
        run([ctxrank, "snapshot", "save", "--data", data, "--set", cset,
             "--function", cset, "--out", snap, "--threads", t])
        files = [snap]
        args = ["--snapshot", snap, "--threads", t, "--inline", "1"]
    else:
        run([ctxrank, "snapshot", "save_shards", "--data", data, "--set", cset,
             "--function", cset, "--shards", str(ZIPF_SHARDS), "--out", snap,
             "--threads", t])
        files = ["%s.shard%d-of-%d" % (snap, i, ZIPF_SHARDS)
                 for i in range(ZIPF_SHARDS)]
        args = ["--snapshot", snap, "--shards", str(ZIPF_SHARDS), "--cache",
                str(ZIPF_CACHE), "--threads", t, "--inline", "1"]
    assignment = os.path.join(data, cset + "_assignment.txt")
    daemon = Daemon(bins["ctxrankd"], args, os.path.join(work, "ctxrankd.log"))
    daemon.wait_ready()
    return daemon, time.monotonic() - t0, files, assignment


def end_to_end(bins, world, work, threads):
    daemon, setup_s, files, assignment = setup(ARGS.workload, bins, world,
                                               work, threads)
    try:
        if assignment is not None:
            built = last_json(run([bins["perfbench"], "check-build", "--world",
                                   world, "--data", os.path.dirname(assignment),
                                   "--workload", ARGS.workload]))
            log("build checks: %s" % json.dumps(built))
        cmd = [bins["perfbench"], "drive", "--workload", ARGS.workload, "--seed",
               str(ARGS.seed), "--seconds", str(ARGS.seconds), "--port",
               str(daemon.port), "--world", world]
        if assignment is not None:
            cmd += ["--assignment", assignment]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        client = last_json(proc.stdout)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    log("client: %s" % json.dumps(client))
    if not client.get("correct") or proc.returncode != 0:
        raise BenchError("check failed: %s" % client.get("error", "client error"))
    values = {
        "setup_s": setup_s,
        "search_qps": client.get("search_qps_window", client["search_qps"]),
        "search_p50_us": client["search_p50_us"],
        "search_p95_us": client["search_p95_us"],
        "server_rss_mb": rss,
        "index_bytes": file_bytes(files),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return client["attempted"], client["failed"], metrics


def generate(bins, out, papers, threads):
    os.makedirs(out)
    run([bins["ctxrank"], "generate", "--out", out, "--seed", str(WORLD_SEED),
         "--papers", str(papers), "--threads", str(threads)])
    return out


def traced(bins, world, work, threads):
    spans_dir = os.path.join(ROOT, ".bench_work", "traces")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (ARGS.workload, ARGS.seed))
    ingest_world = generate(bins, os.path.join(work, "ingest-world"),
                            WORLD_PAPERS["ingest-live"], threads)
    proc = subprocess.run(
        [bins["perfbench"], "layers", "--workload", ARGS.workload, "--seed",
         str(ARGS.seed), "--seconds", str(ARGS.seconds), "--world", world,
         "--ingest-world", ingest_world, "--work", work, "--spans", spans,
         "--threads", str(threads)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or not result.pop("correct", False):
        raise BenchError("traced run failed: %s" % result.get("error", "?"))
    attempted = result.pop("attempted")
    failed = result.pop("failed")
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result.items()}
    log("spans written to %s" % spans)
    return attempted, failed, metrics


def main():
    bins = build()
    threads = nproc()
    selftest = subprocess.run([bins["perfbench"], "selftest"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
    if selftest.returncode != 0:
        raise BenchError("check self-test failed:\n" + selftest.stdout)
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (ARGS.workload, ARGS.seed,
                                                           os.getpid()))
    os.makedirs(work)
    try:
        world = generate(bins, os.path.join(work, "world"),
                         WORLD_PAPERS[ARGS.workload], threads)
        if ARGS.trace:
            attempted, failed, metrics = traced(bins, world, work, threads)
        else:
            attempted, failed, metrics = end_to_end(bins, world, work, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


if __name__ == "__main__":
    ARGS = parse_args()
    # A SIGTERM unwinds through the finally blocks, so the daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
