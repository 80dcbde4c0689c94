"""Open-loop wire benchmark for the Youtopia server.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  It builds bin/youtopia_server.exe
with dune, starts the real server on an ephemeral loopback port with the
travel dataset and a WAL at flush durability and preloads it over the
wire.  It does that SETUPS times, timing
each; the last SEGMENTS servers each replay a seeded open-loop schedule
(see workloads.py) for a share of --seconds from CONNS client connections.
Every outcome and the final table state are checked, and the samples of
all segments are pooled into one JSON line.

The client is written against docs/PROTOCOL.md rather than linked to
Net.Client, so the benchmark is no part of the repository's dune build and
sees the server only as a remote user does.

--trace 0 reports the end-to-end metrics: median outcome latency over the
measured windows, server CPU time per operation, and the median set-up
time.  --trace 1 replays the same schedules with a PING probe interleaved,
snapshots the server's admin counters around each replay, writes every
request's spans to perfbench/.out/, and reports per-layer figures instead.
"""

import argparse
import gc
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import wire  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Op  # noqa: E402

SERVER = os.path.join("_build", "default", "bin", "youtopia_server.exe")
OUT = os.path.join("perfbench", ".out")
WARMUP_S = 1.0  # schedule time before the measured window opens
SETUPS = 11  # timed set-ups per run; set-up time is their median
SEGMENTS = 5  # of those servers, how many replay a share of the run
DATASET_SEED = 1  # travel dataset: the same for every run, so only the schedule varies
DRAIN_S = 20.0  # how long outcomes may trail the last due operation
PING_RATE = 50  # probes per second on the control connection, traced runs


class BenchError(Exception):
    pass


def clock():
    return time.perf_counter()


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/youtopia_server.ml")):
        raise BenchError("not at the root of a Youtopia checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    proc = subprocess.run(
        cmd + ["build", "--root", ".", "./bin/youtopia_server.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.isfile(SERVER):
        raise BenchError("dune build failed")


class Conn:
    def __init__(self, port, user):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.reader = wire.Reader()
        self.out = bytearray(wire.hello(user))
        self.inflight = {}
        self.welcomed = False

    def flush(self):
        try:
            n = self.sock.send(self.out)
        except BlockingIOError:
            return
        del self.out[:n]


class Server:
    """One server process plus the client connections driving it."""

    def __init__(self, seed, wal, durability, cpus):
        self.wal = wal
        if os.path.exists(wal):
            os.remove(wal)
        self.proc = subprocess.Popen(
            [SERVER, "--travel", "--seed", str(seed), "--port", "0",
             "--wal", wal, "--durability", durability],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError("server did not start: %r" % line)
        port = int(line.rsplit(":", 1)[1].split()[0])
        self.conns = [Conn(port, "user%d" % i) for i in range(wl.CONNS)]
        self.control = Conn(port, "bench")
        self.all = self.conns + [self.control]
        self.by_fd = {c.sock.fileno(): c for c in self.all}
        self.rid = 0
        self.unanswered = 0
        self.parked = set()  # qids of REG'd schedule queries not yet pushed
        self.pushes = {}  # qid -> (time, notification), first push only

    def cpu_s(self):
        """User + system CPU seconds the server process has used."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        for c in getattr(self, "all", []):
            c.sock.close()
        if os.path.exists(self.wal):
            os.remove(self.wal)

    def send(self, op, conn, now):
        self.rid += 1
        conn.inflight[self.rid] = op
        if op.kind == "PING":
            conn.out += wire.ping(self.rid, "p")
        elif op.kind == "ADMIN":
            conn.out += wire.admin(self.rid, op.sql)
        else:
            conn.out += wire.submit(self.rid, op.sql)
        op.sent = now
        self.unanswered += 1
        conn.flush()

    def handle(self, conn, frame, t):
        kind, rid, val = frame
        if kind == "WELCOME":
            conn.welcomed = True
            return
        if kind == "PUSH":
            qid = val["qid"]
            if qid not in self.pushes:
                self.pushes[qid] = (t, val)
                self.parked.discard(qid)
            return
        op = conn.inflight.pop(rid, None)
        if op is None:
            raise BenchError("%s for unknown request %s: %r" % (kind, rid, val))
        self.unanswered -= 1
        op.done, op.kind, op.val = t, kind, val
        if kind == "RESULT" and op.query:
            tag, v = val
            if tag == "REG":
                op.qid = v
                if v not in self.pushes:
                    self.parked.add(v)
            elif tag == "ANS":
                op.qid, op.answer, op.answer_t = v["qid"], v, t

    def pump(self, timeout, t0):
        """Wait up to [timeout] for socket activity and handle it."""
        writers = [c.sock for c in self.all if c.out]
        readers = [c.sock for c in self.all]
        r, w, _ = select.select(readers, writers, [], max(0.0, timeout))
        for s in w:
            self.by_fd[s.fileno()].flush()
        for s in r:
            conn = self.by_fd[s.fileno()]
            try:
                data = s.recv(1 << 18)
            except BlockingIOError:
                continue
            if not data:
                raise BenchError("server closed a connection")
            t = clock() - t0
            conn.reader.feed(data)
            for frame in conn.reader.frames():
                if frame[0] == "ERROR" and frame[1] == 0:
                    raise BenchError("connection error: %s" % frame[2])
                self.handle(conn, frame, t)

    def run(self, ops, drain=DRAIN_S):
        """Replay [ops] (sorted by due) open-loop; returns when every
        outcome is in or [drain] seconds after the last due time."""
        t0 = clock()
        i, n = 0, len(ops)
        limit = (ops[-1].due if ops else 0.0) + drain
        while True:
            now = clock() - t0
            while i < n and ops[i].due <= now:
                op = ops[i]
                self.send(op, self.control if op.conn is None else self.conns[op.conn], now)
                i += 1
            if i == n and self.unanswered == 0 and not self.parked:
                break
            if now > limit:
                break
            self.pump(ops[i].due - now if i < n else limit - now, t0)
        for op in ops:
            if op.query and op.qid in self.pushes:
                pt, note = self.pushes[op.qid]
                if op.answer_t is None or pt < op.answer_t:
                    op.answer_t = pt
                if op.answer is None:
                    op.answer = note

    def handshake(self):
        t0 = clock()
        for c in self.all:
            c.flush()
        while not all(c.welcomed for c in self.all):
            if clock() - t0 > DRAIN_S:
                raise BenchError("handshake timed out")
            self.pump(0.1, t0)

    def script(self, sqls, conns=None):
        """Run SQL scripts spread over [conns]; raise on any error."""
        conns = conns if conns is not None else [None]
        ops = [Op(0.0, conns[j % len(conns)], sql) for j, sql in enumerate(sqls)]
        self.run(ops)
        for op in ops:
            if op.kind != "RESULT":
                raise BenchError("%s failed: %s -> %r" % (op.sql[:60], op.kind, op.val))
        return ops

    def admin(self, what):
        op = Op(0.0, None, what)
        op.kind = "ADMIN"
        self.run([op])
        if op.kind != "STATS":
            raise BenchError("ADMIN %s failed: %r" % (what, op.val))
        out = {}
        for line in op.val.split("\n"):
            key, sep, value = line.partition("=" if "=" in line else ":")
            try:
                out[key.strip().replace(" ", "_")] = float(value)
            except ValueError:
                pass
        return out


def setup(seed, wal, durability, cpus):
    """Start and preload one server; returns (server, seconds taken)."""
    t0 = clock()
    server = Server(seed, wal, durability, cpus)
    try:
        server.handshake()
        scripts = wl.preload_scripts()
        server.script(scripts[:1])
        server.script(scripts[1:], conns=list(range(wl.CONNS)))
    except BaseException:
        server.stop()
        raise
    return server, clock() - t0


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.999999) - 1))]


def outcome_ms(ops):
    """Per measured operation, ms from when its outcome became possible to
    when the client had it: the RESULT of a plain statement, the answer
    (inline or pushed) of an entangled query."""
    return [
        ((op.answer_t - op.ready) if op.query else (op.done - op.due)) * 1e3
        for op in ops
        if op.due >= WARMUP_S and op.done is not None
        and (not op.query or op.answer_t is not None)
    ]


def pin():
    """Keep this client on one CPU and return the others for the server, so
    neither preempts the other: on a 2-core host that steadies latency more
    than leaving both free.  With one CPU both share it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return set(cpus)
    os.sched_setaffinity(0, {cpus[-1]})
    return set(cpus[:-1])


def counters(server):
    """The server's admin counters, plus the total of its submit times."""
    c = server.admin("server") | server.admin("stats")
    c["submit_us_total"] = c.get("submit_latency_mean_us", 0.0) * c.get("submits", 0.0)
    return c


def per_layer(ops, lat, pings, delta, seconds):
    """Client-side span statistics plus the deltas of the server's admin
    counters across the replays.  The tail percentile is here, not among
    the gated end-to-end metrics: on a shared 2-core host its run-to-run
    spread exceeds any bound worth gating on."""
    measured = [op for op in ops if op.due >= WARMUP_S]

    def d(key):
        return delta.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    acks = [op.done - op.due for op in measured if op.done is not None]
    answers = [op.answer_t - op.ready for op in measured if op.query and op.answer_t is not None]
    lags = [op.sent - op.due for op in ops if op.sent is not None]
    rtts = [p.done - p.sent for p in pings if p.done is not None]
    # ops completed inside the measured windows, whose total is [seconds]
    completed = sum(1 for op in measured if op.done is not None and op.done <= op.horizon)
    m = {
        "latency_p99_ms": (quantile(lat, 0.99), "ms"),
        "gen_lag_p99_us": (quantile(lags, 0.99) * 1e6, "us"),
        "ping_rtt_p50_us": (statistics.median(rtts) * 1e6 if rtts else 0.0, "us"),
        "ack_p50_us": (statistics.median(acks) * 1e6 if acks else 0.0, "us"),
        "answer_p50_us": (statistics.median(answers) * 1e6 if answers else 0.0, "us"),
        "server_submit_mean_us": (ratio(d("submit_us_total"), d("submits")), "us"),
        "ops_per_s": (ratio(completed, seconds), "1/s"),
        "batch_size_mean": (ratio(d("batched_requests"), d("batches")), "count"),
        "batches": (d("batches"), "count"),
        "wal_flushes": (d("wal_flushes"), "count"),
        "engine_write_waits": (d("engine_write_waits"), "count"),
        "engine_read_waits": (d("engine_read_waits"), "count"),
        "fastpath_commits": (d("fastpath_commits"), "count"),
        "fastpath_rejects": (d("fastpath_rejects"), "count"),
        "latch_waits": (d("latch_waits"), "count"),
        "coord_pokes": (d("coord_pokes"), "count"),
        "dirty_retries_per_poke": (ratio(d("coord_dirty_retries"), d("coord_pokes")), "count"),
        "tuple_probes": (d("coord_tuple_probes"), "count"),
        "tuple_hits": (d("coord_tuple_hits"), "count"),
        "tuple_fallbacks": (d("coord_tuple_fallbacks"), "count"),
        "match_attempts": (d("match_attempts"), "count"),
        "search_steps_per_match": (ratio(d("search_steps"), d("match_attempts")), "count"),
        "plan_cache_hit_ratio": (ratio(
            d("plan_cache_hits"), d("plan_cache_hits") + d("plan_cache_misses")), "ratio"),
        "pushes": (d("pushes"), "count"),
        "bytes_out_per_submit": (ratio(d("bytes_out"), d("submits")), "B"),
        "loop_iterations_per_frame": (ratio(d("loop_iterations"), d("frames_in")), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(path, segments):
    """One JSON line per span; spans of one request share its id.  Times
    are from the start of the request's segment."""
    with open(path, "w") as f:
        for seg, (ops, pings) in enumerate(segments):
            for i, op in enumerate(ops):
                f.write(json.dumps({
                    "id": "%d.%d" % (seg, i), "span": "request", "parent": None,
                    "segment": seg, "conn": op.conn, "sql": op.sql[:80],
                    "due_us": op.due * 1e6,
                    "start_us": op.sent * 1e6 if op.sent is not None else None,
                    "end_us": op.done * 1e6 if op.done is not None else None,
                    "result": op.kind,
                }) + "\n")
                if op.query:
                    f.write(json.dumps({
                        "id": "%d.%d" % (seg, i), "span": "answer", "parent": "request",
                        "segment": seg, "qid": op.qid, "start_us": op.ready * 1e6,
                        "end_us": op.answer_t * 1e6 if op.answer_t is not None else None,
                    }) + "\n")
            for p in pings:
                f.write(json.dumps({
                    "id": "ping", "span": "ping", "parent": None, "segment": seg,
                    "start_us": p.sent * 1e6 if p.sent is not None else None,
                    "end_us": p.done * 1e6 if p.done is not None else None,
                }) + "\n")


def segment(server, name, rng, seconds, trace):
    """Replay one seeded schedule on [server] and check its outcomes.
    Returns (ops, pings, server CPU seconds, counter deltas, problems)."""
    horizon = WARMUP_S + seconds
    ops = sorted(wl.make(name, rng, horizon), key=lambda op: op.due)
    for op in ops:
        op.horizon = horizon
    ping_rng = random.Random(rng.random())  # drawn either way: same schedules
    pings = []
    if trace:
        pings = [Op(t, None, "") for t in wl.arrivals(ping_rng, PING_RATE, horizon)]
        for p in pings:
            p.kind = "PING"
    before = counters(server) if trace else {}
    cpu0 = server.cpu_s()
    server.run(sorted(ops + pings, key=lambda op: op.due))
    cpu = server.cpu_s() - cpu0
    after = counters(server) if trace else {}
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    problems = wl.check_ops(name, ops)
    for sql, rows in wl.final_checks(name, ops):
        (op,) = server.script([sql])
        if op.val[0] != "SQL" or sorted(wire.sql_rows(op.val[1])) != sorted(rows):
            problems.append("final state: %s" % sql)
    return ops, pings, cpu, delta, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.RATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    server_cpus = pin()
    os.makedirs(OUT, exist_ok=True)
    rng = random.Random("%s:%d" % (args.workload, args.seed))
    gc.disable()
    wal = os.path.join(OUT, "%s-%d.wal" % (args.workload, args.seed))

    # Every set-up is timed; the last SEGMENTS servers each replay their own
    # share of the measured time, so one server's luck (thread placement,
    # heap growth) weighs a fifth of the result, not all of it.
    setup_times, segments, cpu, delta, problems = [], [], 0.0, {}, []
    for k in range(SETUPS):
        server, dt = setup(DATASET_SEED, wal, wl.DURABILITY, server_cpus)
        setup_times.append(dt)
        try:
            if k >= SETUPS - SEGMENTS:
                ops, pings, c, d, p = segment(
                    server, args.workload, rng, args.seconds / SEGMENTS, args.trace)
                segments.append((ops, pings))
                cpu += c
                problems += p
                for key, v in d.items():
                    delta[key] = delta.get(key, 0.0) + v
        finally:
            server.stop()

    ops = [op for seg_ops, _ in segments for op in seg_ops]
    pings = [p for _, seg_pings in segments for p in seg_pings]
    failed = sum(
        1 for op in ops
        if op.kind != "RESULT" or (op.query and op.answer_t is None)
    )
    for p in problems[:10]:
        print("incorrect: " + p, file=sys.stderr)

    lat = outcome_ms(ops)
    if not lat:
        raise BenchError("no operation completed")
    if args.trace:
        write_trace(os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed)), segments)
        metrics = per_layer(ops, lat, pings, delta, args.seconds)
    else:
        metrics = {
            "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "cpu_per_op_us": {"value": cpu / len(ops) * 1e6, "unit": "us"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
