"""Q_global (repro/gthinker/qglobal.py) without Spark: the queue's order
and termination, its TCP transport, and the stage executor's cleanup on
a stub SparkSession. Every thread is joined with a timeout, so a hang
fails the test instead of stalling the suite."""
import socket
import struct
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.apps import run_app_spark
from repro.gthinker.engine import run_spark
from repro.gthinker.qglobal import ROOT, SUB, Client, QGlobal, Server, _deal

JOIN_S = 10.0


def root(v):
    return [ROOT, [v], []]


def in_thread(fn, *args):
    """Run ``fn(*args)`` in a thread; returns (thread, output list)."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    t.start()
    return t, out


def now(fn, *args):
    """``fn(*args)``, which must return without blocking."""
    t, out = in_thread(fn, *args)
    assert joined(t), f"{fn.__name__} blocked"
    return out[0]


def joined(t, timeout=JOIN_S):
    t.join(timeout)
    return not t.is_alive()


def no_server_threads():
    return not [t for t in threading.enumerate() if t.name.startswith("qglobal-")]


class TestQueue:
    def test_own_list_then_biggest_subtask_then_largest_unclaimed_list(self):
        q = QGlobal([[root(0), root(1)], [root(2)], [root(3), root(4), root(5)]])
        assert now(q.pull, 0) == [root(0), root(1)]
        q.push(1, [([7], [1, 2]), ([8], [1, 2, 3, 4]), ([9], [1])])
        assert now(q.pull, 0) == [[SUB, [8], [1, 2, 3, 4]]]
        assert now(q.pull, 0) == [[SUB, [7], [1, 2]]]
        assert now(q.pull, 0) == [[SUB, [9], [1]]]
        assert now(q.pull, 0) == [root(3)]  # one row of list 2, the largest
        assert now(q.pull, 0) == [root(4)]  # list 2 still has more rows than list 1
        assert now(q.pull, 2) == [root(5)]  # a partition's first pull: what is left of its list
        assert now(q.pull, 0) == [root(2)]
        # partition 1's list was taken: it waits, like 2, while 0 holds a row
        waiters = [in_thread(q.pull, j) for j in (1, 2)]
        assert not any(joined(t, 0.2) for t, _ in waiters)
        assert now(q.pull, 0) == []
        for t, out in waiters:
            assert joined(t) and out == [[]]

    def test_own_subtasks_last_in_first_out_before_stealing(self):
        """A partition goes on with what it pushed last (Q_local); an
        idle one takes the biggest subtask left, whoever pushed it."""
        q = QGlobal([[root(0)], [root(1)]])
        assert now(q.pull, 0) == [root(0)]
        assert now(q.pull, 1) == [root(1)]
        q.push(0, [([1], [1, 2, 3]), ([2], [1])])
        q.push(1, [([3], [1, 2])])
        q.push(0, [([4], [1, 2, 3, 4])])
        assert now(q.pull, 1) == [[SUB, [3], [1, 2]]]  # its own
        assert now(q.pull, 1) == [[SUB, [4], [1, 2, 3, 4]]]  # stolen: the biggest
        assert now(q.pull, 0) == [[SUB, [2], [1]]]  # its own, last pushed first
        assert now(q.pull, 1) == [[SUB, [1], [1, 2, 3]]]
        t, out = in_thread(q.pull, 0)
        assert not joined(t, 0.2)  # partition 1 holds a row
        assert now(q.pull, 1) == []
        assert joined(t) and out == [[]]

    def test_waiter_wakes_on_push(self):
        q = QGlobal([[root(0)], []])
        assert now(q.pull, 0) == [root(0)]
        t, out = in_thread(q.pull, 1)
        assert not joined(t, 0.2)  # partition 0 holds a row
        q.push(0, [([0], [1, 2])])
        assert joined(t)
        assert out == [[[SUB, [0], [1, 2]]]]

    def test_stop_only_when_empty_and_no_partition_busy(self):
        q = QGlobal([[root(0)], [], []])
        assert now(q.pull, 0) == [root(0)]
        waiters = [in_thread(q.pull, j) for j in (1, 2)]
        assert not any(joined(t, 0.2) for t, _ in waiters)
        q.push(0, [([0], [1])])  # partition 0's row made subtasks
        q.push(0, [([0], [2])])
        for t, out in waiters:
            assert joined(t)
            assert out[0][0][0] == SUB
        waiters = [in_thread(q.pull, j) for j in (1, 2)]  # both subtasks done
        assert not any(joined(t, 0.2) for t, _ in waiters)  # partition 0 still busy
        assert now(q.pull, 0) == []
        for t, out in waiters:
            assert joined(t)
            assert out == [[]]
        assert not q.failed

    def test_second_start_of_a_partition_fails_the_job(self):
        q = QGlobal([[root(0)], [root(1)]])
        q.connect(0)
        q.connect(1)
        assert now(q.pull, 1) == [root(1)]
        t, out = in_thread(q.pull, 0)  # partition 0 starts pulling
        assert joined(t)
        q.connect(0)  # and runs again
        assert q.failed
        assert now(q.pull, 1) == []


def test_stress_every_row_runs_once():
    """More partitions than cores pull and push at once, with the
    interpreter switching threads often: every row and every subtask
    is pulled exactly once, and every partition gets "stop"."""
    n, depth = 8, 6
    q = QGlobal(_deal([root(v) for v in range(16)], n))
    pulled = [[] for _ in range(n)]

    def partition(j):
        while rows := q.pull(j):
            for _, s, e in rows:
                pulled[j].append(tuple(s))
                if len(s) < depth:  # two children, |ext| shrinking with depth
                    q.push(j, [(s + [b], list(range(depth - len(s)))) for b in (0, 1)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=partition, args=(j,), daemon=True) for j in range(n)]
        for t in threads:
            t.start()
        assert all(joined(t, 60) for t in threads)
    finally:
        sys.setswitchinterval(old)
    every = [s for rows in pulled for s in rows]
    assert len(every) == len(set(every)) == 16 * (2 ** depth - 1)
    assert not q.failed


class TestTransport:
    def test_rows_round_trip_and_every_thread_joins(self):
        server = Server(QGlobal([[root(0), root(1)], [root(2)]]), "127.0.0.1")
        try:
            with Client(server.address, server.token, 0) as a, \
                    Client(server.address, server.token, 1) as b:
                assert now(a.pull) == [root(0), root(1)]
                a.push([(frozenset({0}), frozenset({3, 4}))])
                assert now(b.pull) == [root(2)]
                sub = now(b.pull)
                assert sub[0][0] == SUB and sorted(sub[0][2]) == [3, 4]
                t, out = in_thread(a.pull)
                assert not joined(t, 0.2)  # b holds the subtask
                assert now(b.pull) == []
                assert joined(t) and out == [[]]
        finally:
            server.close()
        assert not server.queue.failed
        assert no_server_threads()

    def test_disconnect_while_holding_rows_fails_without_hanging(self):
        server = Server(QGlobal([[root(0)], [root(1)]]), "127.0.0.1")
        try:
            a = Client(server.address, server.token, 0)
            assert now(a.pull) == [root(0)]
            with Client(server.address, server.token, 1) as b:
                assert now(b.pull) == [root(1)]
                t, out = in_thread(b.pull)
                assert not joined(t, 0.2)
                a.close()  # partition 0 dies holding its row
                assert joined(t)
                assert out == [[]]
        finally:
            server.close()
        assert server.queue.failed
        assert no_server_threads()

    def test_wrong_token_is_dropped(self):
        q = QGlobal([[root(0)]])
        server = Server(q, "127.0.0.1")
        try:
            with socket.create_connection(server.address) as s:
                body = b"[0]"
                s.sendall(bytes(len(server.token)) + struct.pack(">I", len(body)) + body)
                s.settimeout(JOIN_S)
                assert s.recv(1) == b""  # closed without an answer
            assert now(q.pull, 0) == [root(0)]  # nobody claimed partition 0
            silent = socket.create_connection(server.address)  # never sends a byte
        finally:
            server.close()  # returns though a connection is still open
        silent.close()
        assert not server.queue.failed
        assert no_server_threads()

    def test_closed_server_answers_stop(self):
        server = Server(QGlobal([[root(0)], []]), "127.0.0.1")
        try:
            a = Client(server.address, server.token, 0)
            assert now(a.pull) == [root(0)]
            with Client(server.address, server.token, 1) as b:
                t, out = in_thread(b.pull)
                assert not joined(t, 0.2)
                closer, _ = in_thread(server.close)  # the driver gives up
                assert joined(t) and out == [[]]
                a.close()
                assert joined(closer)
        finally:
            server.close()
        assert no_server_threads()


@pytest.mark.parametrize("bad", [b"", b"\x00\x00"])
def test_cut_short_messages_end_the_connection(bad):
    server = Server(QGlobal([[root(0)]]), "127.0.0.1")
    try:
        with socket.create_connection(server.address) as s:
            s.sendall(server.token + bad)
    finally:
        server.close()
    assert not server.queue.failed
    assert no_server_threads()


class ExecutorLost(Exception):
    pass


class StubSession:
    """A SparkSession stand-in for :func:`run_stage`, its own
    ``sparkContext``: its stage runs partition 0 in-process, then fails
    as if another partition's executor were lost. It has no
    ``getConf``, so the stage reads only ``spark.conf``."""

    defaultParallelism = 2

    def __init__(self, **conf):
        values = {"spark.driver.host": "127.0.0.1", **conf}
        self.conf = SimpleNamespace(get=lambda k, d=None: values.get(k, d))
        self.sparkContext = self
        self.broadcasts = []

    def broadcast(self, value):
        bc = SimpleNamespace(value=value, unpersisted=False)
        bc.unpersist = lambda: setattr(bc, "unpersisted", True)
        self.broadcasts.append(bc)
        return bc

    def parallelize(self, parts, n):
        return SimpleNamespace(map=lambda f: SimpleNamespace(collect=lambda: self._fail(f)))

    def _fail(self, partition):
        partition(0)
        raise ExecutorLost


K5 = GlobalGraph.from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)])
STAGES = {  # every caller of run_stage, on a graph with rows to run
    "run_spark": lambda spark, n=2: run_spark(spark, K5, 0.9, 3, strategy="base", parallelism=n),
    "run_app_spark": lambda spark, n=2: run_app_spark(spark, K5, "tc", parallelism=n),
}


@pytest.mark.parametrize("caller", STAGES)
def test_failed_stage_unpersists_and_joins(caller):
    spark = StubSession()
    with pytest.raises(ExecutorLost):
        STAGES[caller](spark)
    assert [bc.unpersisted for bc in spark.broadcasts] == [True]
    assert no_server_threads()


@pytest.mark.parametrize("caller", STAGES)
def test_speculation_refused_before_broadcast(caller):
    spark = StubSession(**{"spark.speculation": "true"})
    with pytest.raises(ValueError, match="spark.speculation"):
        STAGES[caller](spark)
    assert spark.broadcasts == []


@pytest.mark.parametrize("parallelism", [0, -1])
@pytest.mark.parametrize("caller", STAGES)
def test_parallelism_below_one_refused_before_broadcast(caller, parallelism):
    spark = StubSession()
    with pytest.raises(ValueError, match=f"parallelism must be >= 1 or None, got {parallelism}"):
        STAGES[caller](spark, parallelism)
    assert spark.broadcasts == []
