"""Seeded traffic mixes for the wire benchmark.

Every workload is an open-loop schedule: requests arrive as one Poisson
process at a fixed rate, independent of how fast the server answers, the
way independent front-end users arrive.  A request is due at a time; the
generator sends it then, whatever is still outstanding.  Latency is taken
from when an outcome became possible (the due time of the last request it
needed), so a stalled server is charged for the queue it builds.

Each mix follows a workload the repository's own benchmark harness already
runs (bench/main.ml), moved onto an open loop:

- pairs:  NET's travel pair workload: two-way entangled flight queries to
          a random city, each half from a different connection; the first
          half parks, the second closes the group (matcher, answer
          relations, push fan-out).
- writes: BATCH's blind INSERTs into Flights, one for each counter
          UPDATE on a key drawn with Scenarios.Scengen's default Zipf
          skew, at flush durability (fast-path classifier, per-key latches, WAL
          append, batching executor; every INSERT pokes the coordinator,
          which re-checks BATCH's parked pairs).
- reads:  the read-path experiment's point SELECTs on a 512-row table
          (shared engine lock, planner, executor); bypasses batching, the
          WAL and the coordinator.

Consecutive arrivals of the one Poisson stream make up a pair, so the only
timing parameter of a workload is its rate.

Every server is preloaded the same way (the Items table and BATCH's 16
parked ghost pairs), so set-up time is comparable across workloads."""

import bisect

import wire

CONNS = 8  # client connections: NET, BATCH --fast and the read experiment
ITEMS = 512  # rows of Items(id, val = 7 * id), as in the read experiment
PARKED = 16  # BATCH's parked pairs over a flightless destination
ZIPF_SKEW = 1.1  # Scenarios.Scengen.create's default skew
# Flights 100..131 of the travel dataset go round-robin over these cities
# (lib/travel/datagen.ml), whatever the dataset seed.
CITIES = ["Paris", "Rome", "London", "Berlin", "Madrid", "Athens", "Oslo", "Vienna"]
N_FLIGHTS = 32

# Offered load, in arrivals per second: half the highest rate at which the
# workload kept its p99 latency under 10 ms in a sweep on a 2-core host
# (3200, 9600 and at least 12800; CHANGES.md records the sweep).  At a
# quarter of it the runs spread wider: an idle server pays more wake-ups.
RATES = {"pairs": 1600, "writes": 4800, "reads": 6400}

# WAL durability: every commit is written through, none fsynced (BATCH's
# flush rows).  At fsync durability the write mix's median latency rose
# tenfold in runs where the shared disk stalled (CHANGES.md), which no
# bound on a regression gate can absorb.
DURABILITY = "flush"


class Op:
    """One request in a schedule, and what became of it."""

    __slots__ = (
        "due", "conn", "sql", "query", "ready", "meta",
        "sent", "done", "kind", "val", "qid", "answer", "answer_t", "horizon",
    )

    def __init__(self, due, conn, sql, query=False, meta=None):
        self.due = due
        self.conn = conn
        self.sql = sql
        self.query = query  # an entangled query: its outcome is an answer
        self.ready = due  # when its outcome became possible
        self.meta = meta
        self.sent = self.done = self.answer_t = self.horizon = None
        self.kind = self.val = self.qid = self.answer = None


def pair_sql(me, partner, dest):
    """Travel.Workload.pair_sql."""
    return (
        "SELECT '%s', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM "
        "Flights WHERE dest = '%s') AND ('%s', fno) IN ANSWER FlightRes CHOOSE 1"
        % (me, dest, partner)
    )


def preload_scripts():
    """SQL scripts that bring a fresh travel server to the common state."""
    scripts = ["CREATE TABLE Items (id INT PRIMARY KEY, val INT)"]
    for lo in range(0, ITEMS, 128):
        rows = ", ".join("(%d, %d)" % (i, 7 * i) for i in range(lo, lo + 128))
        scripts.append("INSERT INTO Items VALUES " + rows)
    scripts.append(
        "; ".join(pair_sql("parked%d" % i, "ghost%d" % i, "Nowhere") for i in range(PARKED))
    )
    return scripts


def arrivals(rng, rate, horizon):
    t = rng.expovariate(rate)
    while t < horizon:
        yield t
        t += rng.expovariate(rate)


def grouped(rng, rate, horizon, k):
    """Consecutive arrivals in groups of [k]; a trailing partial group is
    dropped."""
    group = []
    for t in arrivals(rng, rate, horizon):
        group.append(t)
        if len(group) == k:
            yield group
            group = []


def two_conns(rng):
    a = rng.randrange(CONNS)
    b = (a + 1 + rng.randrange(CONNS - 1)) % CONNS
    return a, b


def make_pairs(rng, horizon):
    ops = []
    for i, (ta, tb) in enumerate(grouped(rng, RATES["pairs"], horizon, 2)):
        city = rng.randrange(len(CITIES))
        ca, cb = two_conns(rng)
        a_name, b_name = "pairA%d" % i, "pairB%d" % i
        a = Op(ta, ca, pair_sql(a_name, b_name, CITIES[city]), query=True)
        b = Op(tb, cb, pair_sql(b_name, a_name, CITIES[city]), query=True)
        a.ready = b.ready = tb
        a.meta, b.meta = (a_name, city, b), (b_name, city, a)
        ops += [a, b]
    return ops


class Zipf:
    """Ranks 0..n-1 with weight 1 / (rank + 1) ** s (Scengen.zipf_cdf)."""

    def __init__(self, n, s=ZIPF_SKEW):
        acc, self.cdf = 0.0, []
        for i in range(n):
            acc += 1.0 / (i + 1) ** s
            self.cdf.append(acc)

    def draw(self, rng):
        return bisect.bisect_left(self.cdf, rng.random() * self.cdf[-1])


def make_writes(rng, horizon):
    zipf, ops = Zipf(ITEMS), []
    for i, t in enumerate(arrivals(rng, RATES["writes"], horizon)):
        conn = rng.randrange(CONNS)
        if i % 2 == 0:
            k, d = zipf.draw(rng), 1 + rng.randrange(9)
            sql = "UPDATE Items SET val = val + %d WHERE id = %d" % (d, k)
            ops.append(Op(t, conn, sql, meta=("add", k, d)))
        else:
            sql = "INSERT INTO Flights VALUES (%d, 'Lima', 'Atlantis', %d, 99.0, 4)" % (
                100000 + i, i % 30)
            ops.append(Op(t, conn, sql, meta=("ins", None, None)))
    return ops


def make_reads(rng, horizon):
    ops = []
    for t in arrivals(rng, RATES["reads"], horizon):
        k = rng.randrange(ITEMS)
        sql = "SELECT val FROM Items WHERE id = %d" % k
        ops.append(Op(t, rng.randrange(CONNS), sql, meta=["(%d)" % (7 * k)]))
    return ops


def make(name, rng, horizon):
    if name == "pairs":
        return make_pairs(rng, horizon)
    if name == "writes":
        return make_writes(rng, horizon)
    return make_reads(rng, horizon)


# ---------------------------------------------------------------- checks


def answer_row(op):
    """The single (name, fno) FlightRes tuple an answered query got."""
    rows = op.answer["answers"] if op.answer else []
    if len(rows) != 1 or rows[0][0] != "FlightRes" or len(rows[0][1]) != 2:
        return None
    return rows[0][1]


def check_ops(name, ops):
    """Problems with individual outcomes (empty when all are right)."""
    bad = []
    for op in ops:
        if op.query:
            row = answer_row(op)
            me, city, partner = op.meta
            ok = (
                row is not None
                and row[0] == me
                and 100 <= row[1] < 100 + N_FLIGHTS
                and (row[1] - 100) % len(CITIES) == city
                and answer_row(partner) is not None
                and answer_row(partner)[1] == row[1]
            )
        elif name == "reads":
            ok = op.kind == "RESULT" and op.val[0] == "SQL" and wire.sql_rows(op.val[1]) == op.meta
        else:
            ok = op.kind == "RESULT" and op.val == ("SQL", "1 row(s) affected")
        if not ok:
            bad.append("%s: %s -> %r" % (name, op.sql[:60], op.answer or op.val))
    return bad


def final_checks(name, ops):
    """(sql, expected rows) that must hold once every write is in."""
    if name != "writes":
        return []
    vals = [7 * i for i in range(ITEMS)]
    inserts = 0
    for op in ops:
        tag, k, d = op.meta
        if tag == "add":
            vals[k] += d
        else:
            inserts += 1
    return [
        ("SELECT id, val FROM Items", ["(%d, %d)" % (i, v) for i, v in enumerate(vals)]),
        ("SELECT COUNT(*) FROM Flights WHERE dest = 'Atlantis'", ["(%d)" % inserts]),
    ]
