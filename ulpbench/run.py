#!/usr/bin/env python3
"""The repository benchmark: one user-level process per connection.

Builds the server (server.ml: lib/net + lib/proc + lib/fiber_rt at the
runtime's defaults) and the closed-loop client (client.ml: blocking
sockets, no runtime code) from source with dune, runs one workload and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The timed window (--seconds) is split over many short server lives,
each with its own warm-up, and a metric is the median over lives of
its per-life value.
With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 half the lives run untraced and half traced, and the
metrics are the per-layer ones from the traced lives' spans and
counters, plus the tracing overhead.  The line before it is a record of
the host, the runtime configuration the server resolved, and every
correctness check that failed.  README.md explains the workloads and
what each metric should move.

Usage, from the repository root:

    python3 ulpbench/run.py --workload tenant_owc --seed 1 --seconds 20 --trace 0
"""

import argparse
import array
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)

# why each workload was chosen: BENCHMARK.json and README.md.  tenant_echo
# runs, but BENCHMARK.json leaves it out: on a 2-core host its throughput
# varies 2x between server lives, too widely for a regression bound.
WORKLOADS = ("tenant_echo", "tenant_churn", "tenant_owc")

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("success_frac", "frac", "higher"),
    ("cpu_per_req_us", "us", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

PER_LAYER = [
    ("fiber.parks_per_req", "count", "lower"),
    ("fiber.wakes_per_req", "count", "lower"),
    ("fiber.inj_drains_per_req", "count", "lower"),
    ("fiber.spins_per_req", "count", "lower"),
    ("fiber.steal_fail_rate", "frac", "lower"),
    ("fiber.active_workers_p50", "count", "lower"),
    ("blt_rt.calls", "count", "higher"),
    ("blt_rt.coupled_us_p50", "us", "lower"),
    ("blt_rt.coupled_us_p99", "us", "lower"),
    ("blt_rt.body_us_p50", "us", "lower"),
    ("blt_rt.handoff_us_p50", "us", "lower"),
    ("blt_rt.kcs", "count", "lower"),
    ("blt_rt.kc_failures", "count", "lower"),
    ("reactor.polls_per_req", "count", "lower"),
    ("reactor.wakeups_per_req", "count", "lower"),
    ("reactor.timers_fired", "count", "lower"),
    ("reactor.errors", "count", "lower"),
    ("tcp.handler_us_p50", "us", "lower"),
    ("tcp.accept_retries", "count", "lower"),
    ("tcp.failed", "count", "lower"),
    ("proc.spawns", "count", "higher"),
    ("proc.spawn_us_p50", "us", "lower"),
    ("proc.waitpid_us_p50", "us", "lower"),
    ("proc_io.adopt_us_p50", "us", "lower"),
    ("proc_io.write_all_us_p50", "us", "lower"),
    ("server.service_us_p50", "us", "lower"),
    ("server.service_self_us_p50", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# The timed window is split over many short server lives: on a small
# host one life's throughput depends on how the OS happened to place its
# worker domains, reactor threads and client threads (one life can read
# 25k and the next 45k req/s), so a run reports medians over many lives.
LIFE_WINDOW_S = 0.25
WARMUP_S = 0.25  # per life: lazy set-up (executor threads, domains) ends before timing
LINE_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 60.0
RUN_DIR = ".bench_run"  # everything a run leaves behind, under the checkout


class BenchError(Exception):
    pass


# ---- percentiles --------------------------------------------------------

# A percentile is reported only when at least MIN_BEYOND samples lie
# beyond it (pct.ml applies the same rule to spans).
MIN_BEYOND = 10
LEVELS = [("p50", 1, 2), ("p90", 9, 10), ("p99", 99, 100), ("p99.9", 999, 1000),
          ("p99.99", 9999, 10000), ("p99.999", 99999, 100000)]


def rank(n, num, den):
    """Samples at or below the num/den percentile of n (nearest rank)."""
    return max(1, (n * num + den - 1) // den)


def supported(n, num, den):
    return n - rank(n, num, den) >= MIN_BEYOND


def highest(n):
    """The highest LEVELS entry n samples support, or None."""
    best = None
    for level in LEVELS:
        if supported(n, level[1], level[2]):
            best = level
    return best


def percentile(ascending, num, den):
    if not ascending:
        raise ValueError("no samples")
    return ascending[min(len(ascending), rank(len(ascending), num, den)) - 1]


# ---- /proc arithmetic -------------------------------------------------


def cpu_seconds(stat_text, clk_tck):
    """utime + stime, in seconds, from the text of /proc/<pid>/stat.

    The command name (field 2) is parenthesised and may itself hold
    spaces and parentheses, so fields are counted from the last ')'.
    """
    fields = stat_text[stat_text.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / clk_tck


def cpu_per_req_us(windows, completed):
    """Server CPU over the timed windows, given as (before, after) CPU
    seconds, per request completed in them, in us."""
    if completed <= 0:
        raise ValueError("no completed requests in the window")
    if any(after < before for before, after in windows):
        raise ValueError("CPU time went backwards")
    return sum(after - before for before, after in windows) * 1e6 / completed


def read_cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        return cpu_seconds(f.read(), os.sysconf("SC_CLK_TCK"))


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/%d/status" % pid)


def fd_count(pid):
    return len(os.listdir(f"/proc/{pid}/fd"))


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs
    (the 'steal' column of /proc/stat); 0 where not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    except OSError:
        return 0.0


def read_sys(path):
    try:
        with open(path) as f:
            return " ".join(f.read().split())
    except OSError:
        return None


def fs_type(path):
    """Filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(
                    mnt
                ) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


# ---- child processes --------------------------------------------------


class Child:
    """A child speaking a line protocol on stdin/stdout."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr
        )
        self.pid = self.proc.pid
        self.buf = b""

    def send(self, line):
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    def readline(self, timeout=LINE_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("timed out waiting for a line from pid %d" % self.pid)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError("pid %d closed its stdout" % self.pid)
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def expect(self, prefix):
        line = self.readline()
        if not line.startswith(prefix):
            raise BenchError("expected %r from pid %d, got %r" % (prefix, self.pid, line))
        return line

    def finish(self):
        """Close stdin, collect the rest of stdout, reap; last line."""
        self.proc.stdin.close()
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("pid %d did not exit" % self.pid)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                self.buf += chunk
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise BenchError("pid %d exited with %d" % (self.pid, code))
        lines = self.buf.decode().strip().splitlines()
        if not lines:
            raise BenchError("pid %d printed no report" % self.pid)
        return json.loads(lines[-1])

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


# ---- one run ------------------------------------------------------------


def server_argv(bins, workload, trace, data_dir, spans):
    return [
        bins["server"],
        "--workload", workload,
        "--trace", str(trace),
        "--data-dir", data_dir,
        "--spans", spans,
    ]


def start_server(argv):
    """Exec the server; return it with the seconds until it listens."""
    t0 = time.perf_counter()
    srv = Child(argv)
    try:
        port = int(srv.expect("LISTEN").split()[1])
    except BaseException:
        srv.kill()
        raise
    return srv, port, time.perf_counter() - t0


def run_life(bins, args, threads, trace, life, violations):
    """One server life: exec, warm up, one timed window, drain, check."""
    run_dir = os.path.abspath(RUN_DIR)
    data_dir = os.path.join(run_dir, "owc")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    spans = os.path.join(run_dir, "spans", "%s-%d.tsv" % (args.workload, life))
    argv = server_argv(bins, args.workload, trace, data_dir, spans)
    lat_path = os.path.join(run_dir, "latencies.bin")
    srv = cli = None
    try:
        srv, port, setup = start_server(argv)
        fds_before = fd_count(srv.pid)
        cli = Child(
            [
                bins["client"],
                "--port", str(port),
                "--workload", args.workload,
                "--seed", str(args.seed * 1000 + life),
                "--threads", str(threads),
                "--lat-out", lat_path,
            ]
        )
        time.sleep(WARMUP_S)
        srv.send("mark")
        srv.expect("MARK")
        cpu0 = read_cpu_seconds(srv.pid)
        cli.send("measure")
        time.sleep(LIFE_WINDOW_S)
        cli.send("stop")
        srv.send("mark")
        srv.expect("MARK")
        cpu1 = read_cpu_seconds(srv.pid)
        rss_mb = vm_hwm_mb(srv.pid)
        client = cli.finish()
        raw = array.array("q")
        with open(lat_path, "rb") as f:
            raw.frombytes(f.read())
        if sys.byteorder == "big":
            raw.byteswap()
        lat = sorted(raw)
        srv.send("idle")
        _, active, live = srv.expect("IDLE").split()
        fds_after = fd_count(srv.pid)
        srv.send("quit")
        server = srv.finish()
    finally:
        for c in (cli, srv):
            if c is not None:
                c.kill()

    def check(ok, what):
        if not ok:
            violations.append("%s (trace %d, life %d)" % (what, trace, life))

    check(client["failed"] == 0, "client saw %d failed requests: %s" % (client["failed"], client["errors"]))
    check(len(lat) == client["lat_n"], "%d latencies written, %d reported" % (len(lat), client["lat_n"]))
    check(server["tenant_failures"] == 0,
          "%d tenants exited abnormally: %s" % (server["tenant_failures"], server["first_error"]))
    check(server["tcp_failed"] == 0, "%d handlers raised" % server["tcp_failed"])
    check(server["accepted"] == client["conns"],
          "server accepted %d connections, client attempted %d" % (server["accepted"], client["conns"]))
    check(server["spawns"] == server["accepted"],
          "%d ULPs spawned for %d connections" % (server["spawns"], server["accepted"]))
    check(int(active) == 0 and int(live) == 1 and server["live_procs_after"] == 1,
          "not idle after the run: %s active connections, %s / %d live ULPs"
          % (active, live, server["live_procs_after"]))
    check(fds_after == fds_before, "server fds %d before the window, %d after" % (fds_before, fds_after))
    want_kcs = threads if args.workload == "tenant_owc" else 0
    check(server["kcs"] == want_kcs, "%d original KCs used, expected %d" % (server["kcs"], want_kcs))
    if args.workload == "tenant_owc":
        for entry in client["last"]:
            path = os.path.join(data_dir, "tenant_%d" % entry["key"])
            try:
                with open(path, "rb") as f:
                    got = hashlib.md5(f.read()).hexdigest()
            except OSError as e:
                got = str(e)
            check(got == entry["md5"], "tenant %d file holds %s, expected last payload %s"
                  % (entry["key"], got, entry["md5"]))
    tr = server["trace"]
    if tr is not None:
        check(tr["unfinished"] == 0, "%d spans never finished" % tr["unfinished"])
        check(tr["not_nested"] == 0, "%d child spans outside their parent" % tr["not_nested"])
        check(tr["negative_self"] == 0, "%d spans with negative self time" % tr["negative_self"])
        calls = tr["spans"]["blt_rt.coupled"]["count"]
        check((calls > 0) == (args.workload == "tenant_owc"),
              "%d coupled calls on %s" % (calls, args.workload))

    return {
        "client": client,
        "server": server,
        "setup_s": setup,
        "rss_mb": rss_mb,
        "cpu_window_s": (cpu0, cpu1),
        "lat_ns": lat,
    }


# ---- metrics ------------------------------------------------------------


def metrics_of(values, table):
    """values: name -> per-life values, or one value for the whole run.
    An empty list (only in a run already failed) reads 0."""
    def value(v):
        if not isinstance(v, list):
            return v
        return statistics.median(v) if v else 0.0

    return {n: {"value": value(values[n]), "unit": u} for n, u, _ in table}


def life_throughput(life):
    return life["client"]["w_completed"] / life["client"]["window_s"]


def throughput(lives):
    return statistics.median(life_throughput(l) for l in lives)


def p99_lives(lives):
    """The p99 of each life that has enough samples for one, in us."""
    return [percentile(l["lat_ns"], 99, 100) / 1e3 for l in lives
            if supported(len(l["lat_ns"]), 99, 100)]


def latency_p99(lives):
    """The median over lives of their p99s.  When the host slows most
    lives below the samples a p99 needs, the p99 of all the run's
    samples instead; None if even those are too few."""
    per_life = p99_lives(lives)
    if len(per_life) * 2 >= len(lives):
        return statistics.median(per_life), "median of lives"
    pooled = sorted(x for l in lives for x in l["lat_ns"])
    if not supported(len(pooled), 99, 100):
        return None, "unsupported"
    return percentile(pooled, 99, 100) / 1e3, "pooled"


def end_to_end(lives, p99):
    """Medians over lives, which a stall confined to a few lives cannot
    move; only the failure fraction pools every request."""
    attempted = sum(l["client"]["attempted"] for l in lives)
    failed = sum(l["client"]["failed"] for l in lives)
    values = {
        "throughput_rps": [life_throughput(l) for l in lives],
        "latency_p50_us": [percentile(l["lat_ns"], 1, 2) / 1e3 for l in lives if l["lat_ns"]],
        "latency_p99_us": p99,
        "success_frac": 1.0 - failed / attempted,
        "cpu_per_req_us": [cpu_per_req_us([l["cpu_window_s"]], l["client"]["w_completed"])
                           for l in lives if l["client"]["w_completed"] > 0],
        "rss_peak_mb": [l["rss_mb"] for l in lives],
        "setup_s": [l["setup_s"] for l in lives],
    }
    return metrics_of(values, END_TO_END)


def layers_of_life(life):
    """The per-layer values of one traced server life."""
    s = life["server"]
    w = s["window"]
    sched = w["sched"] or {}
    reqs = max(1, w["served"])
    tr = s["trace"]
    spans = tr["spans"]

    def p(name, key="p50_us"):
        v = spans[name][key]
        return 0.0 if v is None else v  # no such calls in this workload

    return {
        "fiber.parks_per_req": sched.get("parks", 0) / reqs,
        "fiber.wakes_per_req": sched.get("wakes", 0) / reqs,
        "fiber.inj_drains_per_req": sched.get("inj_drains", 0) / reqs,
        "fiber.spins_per_req": sched.get("spins", 0) / reqs,
        "fiber.steal_fail_rate": sched.get("steal_fail_rate", 0.0),
        "fiber.active_workers_p50": sched.get("active_workers_p50", 0),
        "blt_rt.calls": spans["blt_rt.coupled"]["count"],
        "blt_rt.coupled_us_p50": p("blt_rt.coupled"),
        "blt_rt.coupled_us_p99": p("blt_rt.coupled", "p99_us"),
        "blt_rt.body_us_p50": p("blt_rt.body"),
        "blt_rt.handoff_us_p50": tr["handoff_p50_us"] or 0.0,
        "blt_rt.kcs": s["kcs"],
        "blt_rt.kc_failures": s["kc_failures"],
        "reactor.polls_per_req": w["polls"] / reqs,
        "reactor.wakeups_per_req": w["wakeups"] / reqs,
        "reactor.timers_fired": w["timers_fired"],
        "reactor.errors": w["reactor_errors"],
        "tcp.handler_us_p50": p("tcp.handler"),
        "tcp.accept_retries": s["accept_retries"],
        "tcp.failed": s["tcp_failed"],
        "proc.spawns": s["spawns"],
        "proc.spawn_us_p50": p("proc.spawn"),
        "proc.waitpid_us_p50": p("proc.waitpid"),
        "proc_io.adopt_us_p50": p("proc_io.adopt"),
        "proc_io.write_all_us_p50": p("proc_io.write_all"),
        "server.service_us_p50": p("server.service"),
        "server.service_self_us_p50": p("server.service", "self_p50_us"),
    }


def per_layer(base, traced):
    per_life = [layers_of_life(l) for l in traced]
    values = {n: [v[n] for v in per_life] for n in per_life[0]}
    values["trace.overhead_frac"] = 1.0 - throughput(traced) / throughput(base)
    return metrics_of(values, PER_LAYER)


# ---- main ---------------------------------------------------------------


def check_checkout():
    """The benchmark builds the repository's libraries from source."""
    needed = ["dune-project", "lib/fiber_rt/dune", "lib/net/dune", "lib/proc/dune",
              os.path.join(BENCH_DIR, "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise SystemExit("run.py: not a repository checkout (missing %s); "
                         "run it from the repository root" % ", ".join(missing))
    if shutil.which("dune") is None:
        raise SystemExit("run.py: dune is not on PATH")


def build():
    targets = ["%s/%s.exe" % (BENCH_DIR, n) for n in ("server", "client")]
    r = subprocess.run(["dune", "build", "--root", ".", *targets],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(3)
    return {n: os.path.abspath("_build/default/%s/%s.exe" % (BENCH_DIR, n))
            for n in ("server", "client")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv):
    args = parse_args(argv)
    check_checkout()
    bins = build()
    os.makedirs(os.path.join(RUN_DIR, "spans"), exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    n_lives = max(1, round(args.seconds / LIFE_WINDOW_S))
    violations = []
    steal0 = steal_seconds()

    def lives(trace, n):
        return [run_life(bins, args, threads, trace, i, violations) for i in range(n)]

    try:
        if args.trace == 0:
            base = lives(0, n_lives)
            # one life may see no completion when the hypervisor
            # deschedules the host for its whole window; a run may not
            if not any(l["client"]["w_completed"] for l in base):
                violations.append("no request completed in any window")
            p99, p99_from = latency_p99(base)
            if p99 is None:
                violations.append("too few latency samples for a p99")
            metrics = end_to_end(base, p99 or 0.0)
            runs = base
        else:
            p99_from = None
            # half the lives untraced, half traced: a traced run takes
            # as long as an untraced one
            base = lives(0, max(1, n_lives // 2))
            traced = lives(1, max(1, n_lives - n_lives // 2))
            metrics = per_layer(base, traced)
            runs = base + traced
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
    srv = runs[-1]["server"]
    samples = [len(l["lat_ns"]) for l in runs]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": threads,
            "ocaml": srv["ocaml"],
            "kernel": os.uname().release,
            "ip_local_port_range": read_sys("/proc/sys/net/ipv4/ip_local_port_range"),
            "tcp_tw_reuse": read_sys("/proc/sys/net/ipv4/tcp_tw_reuse"),
            "owc_fs": fs_type(RUN_DIR),
        },
        "runtime": {k: srv[k] for k in ("backend", "domains", "shards", "listeners", "reuseport")},
        "client_threads": threads,
        "server_lives": len(runs),
        "life_window_s": LIFE_WINDOW_S,
        "warmup_s": WARMUP_S,
        "latency_samples": sum(samples),
        "latency_samples_per_life_min": min(samples),
        "latency_highest_pct_per_life": (highest(min(samples)) or ("none",))[0],
        "latency_p99_from": p99_from,
        "steal_s": steal_seconds() - steal0,
        "violations": violations,
    }
    print(json.dumps(record))
    attempted = sum(r["client"]["attempted"] for r in runs)
    failed = sum(r["client"]["failed"] for r in runs)
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
