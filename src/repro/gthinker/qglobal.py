"""Q_global of one Spark job: the driver holds it, partitions pull from it.

In G-thinker every worker keeps a global task queue beside its threads'
local ones, serves big tasks first, and lets an idle thread take work
from it (§5). Here one job is one RDD stage (:func:`run_stage`, the
only Spark stage executor), and the driver holds its Q_global
(:class:`QGlobal`):

* the driver deals the rows, sorted as the caller wants them, into n
  lists (:func:`_deal`); a partition's first pull returns its own list;
* a partition pushes every subtask as soon as a τ_time timeout or a
  τ_split split creates it. A pull returns one subtask: the last one
  the partition itself pushed (its Q_local, LIFO, so it goes on deep
  into the subtree whose vertices it has just touched), or else the
  biggest |ext| any partition pushed (big tasks first, and task
  stealing);
* with no subtask left, a pull takes one row from the largest list no
  partition has claimed yet, so a partition whose task starts late
  strands nothing, and more partitions than cores cannot deadlock;
* a pull waits while any partition holds rows, and returns "stop" (no
  rows) once no subtask and no unclaimed row is left and no partition
  is busy.

Transport (:class:`Server` on the driver, :class:`Client` in the
partition): TCP on the driver host, ``TCP_NODELAY``, one thread per
connection. A client first sends the job's random token, which is
checked with ``hmac.compare_digest`` before anything else is read; a
wrong one closes the connection. Every later message is a 4-byte length
and a JSON list of ints and int lists; nothing read from a socket is
unpickled. A partition whose connection closes while it holds rows, or
that connects a second time (a retried or speculative attempt), fails
the job: every waiter gets "stop" and :attr:`QGlobal.failed` is set.
"""
from __future__ import annotations

import heapq
import hmac
import json
import secrets
import socket
import struct
import sys
import threading
import time
import zipimport
from collections import deque
from contextlib import closing

__all__ = ["ROOT", "SUB", "Client", "QGlobal", "Server", "run_stage"]

ROOT, SUB = 0, 1  # a task row is [kind, S ids, ext ids]; a root row is [ROOT, [v], []]
_PULL, _PUSH = 0, 1  # client messages: [_PULL] and [_PUSH, [S, ext], ...]
_LEN = struct.Struct(">I")


class QGlobal:
    """The queue of one stage, over ``lists[j]``, partition j's dealt rows.
    Thread-safe; :meth:`pull` blocks."""

    def __init__(self, lists: list[list]):
        self._lists = [deque(rows) for rows in lists]
        self._unclaimed = set(range(len(lists)))
        self._seen: set[int] = set()  # partitions that have connected
        # Each subtask is in _subtasks until pulled, and in both its
        # pusher's stack and the heap; an entry already pulled through
        # the other one is skipped when it comes up.
        self._subtasks: dict[int, tuple] = {}  # arrival number -> (S, ext)
        self._pushed: list[list[int]] = [[] for _ in lists]  # arrival numbers, by pusher
        self._heap: list[tuple[int, int]] = []  # (-|ext|, arrival number)
        self._arrivals = 0
        self._busy: set[int] = set()  # partitions holding rows they pulled
        self.failed = False
        self._stopped = False
        self._cond = threading.Condition()

    def connect(self, part: int) -> None:
        """Partition ``part`` starts; a second start of it fails the job,
        since its first attempt's candidates are lost."""
        with self._cond:
            if part in self._seen or not 0 <= part < len(self._lists):
                self._fail()
            self._seen.add(part)

    def push(self, part: int, subtasks) -> None:
        """Queue the ``(S, ext)`` subtasks partition ``part`` created."""
        with self._cond:
            for s, e in subtasks:
                k = self._arrivals
                self._arrivals += 1
                self._subtasks[k] = (s, e)
                self._pushed[part].append(k)
                heapq.heappush(self._heap, (-len(e), k))
            self._cond.notify(len(subtasks))

    def pull(self, part: int) -> list:
        """The next rows for partition ``part``, which has finished the
        ones it pulled before; ``[]`` means stop."""
        with self._cond:
            self._busy.discard(part)
            if part in self._unclaimed:
                self._unclaimed.discard(part)
                own = list(self._lists[part])
                self._lists[part].clear()
                if own:
                    self._busy.add(part)
                    return own
            while not (self.failed or self._stopped):
                if self._subtasks:
                    stack = self._pushed[part]
                    while stack and stack[-1] not in self._subtasks:
                        stack.pop()
                    if stack:
                        k = stack.pop()
                    else:
                        while self._heap[0][1] not in self._subtasks:
                            heapq.heappop(self._heap)
                        k = heapq.heappop(self._heap)[1]
                    s, e = self._subtasks.pop(k)
                    self._busy.add(part)
                    return [[SUB, s, e]]
                left = [j for j in self._unclaimed if self._lists[j]]
                if left:
                    j = max(left, key=lambda i: (len(self._lists[i]), -i))
                    self._busy.add(part)
                    return [self._lists[j].popleft()]
                if not self._busy:
                    self._stopped = True
                    self._cond.notify_all()
                    break
                self._cond.wait()
            return []

    def drop(self, part: int) -> None:
        """Partition ``part``'s connection closed: if it held rows, fail."""
        with self._cond:
            if part in self._busy:
                self._fail()

    def close(self) -> None:
        """Answer every pull, now and later, with stop."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def _fail(self) -> None:
        self.failed = True
        self._cond.notify_all()


def _send(sock: socket.socket, msg) -> None:
    body = json.dumps(msg, separators=(",", ":")).encode()
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv(rfile):
    """One message, or None at end of stream."""
    head = rfile.read(_LEN.size)
    if len(head) < _LEN.size:
        return None
    body = rfile.read(_LEN.unpack(head)[0])
    return json.loads(body)


class Server:
    """Serves a :class:`QGlobal` on ``host``, port chosen by the OS.
    :meth:`close` stops it and joins every thread it started."""

    def __init__(self, queue: QGlobal, host: str):
        self.queue = queue
        self.token = secrets.token_bytes(16)
        self._sock = socket.create_server((host, 0))
        self.address = self._sock.getsockname()[:2]
        self._conns: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closing = False
        self._acceptor = threading.Thread(target=self._accept, name="qglobal-accept")
        self._acceptor.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                t = threading.Thread(target=self._serve, args=(conn,), name="qglobal-conn")
                self._conns.append(conn)
                self._threads.append(t)
            t.start()

    def _serve(self, conn: socket.socket) -> None:
        part = None
        rfile = conn.makefile("rb")
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not hmac.compare_digest(rfile.read(len(self.token)), self.token):
                return
            hello = _recv(rfile)
            if hello is None:
                return
            part = hello[0]
            self.queue.connect(part)
            while (msg := _recv(rfile)) is not None:
                if msg[0] == _PULL:
                    _send(conn, self.queue.pull(part))
                else:
                    self.queue.push(part, msg[1:])
        except (OSError, ValueError):  # reset, or a message cut short
            pass
        finally:
            if part is not None:
                self.queue.drop(part)
            rfile.close()
            conn.close()

    def close(self) -> None:
        with self._lock:
            self._closing = True
        try:  # wake the acceptor, which then sees _closing
            socket.create_connection(self.address).close()
        except OSError:
            pass
        self._acceptor.join()
        self._sock.close()
        self.queue.close()
        with self._lock:
            conns, threads = list(self._conns), list(self._threads)
        for conn in conns:  # wake a thread still reading; let replies out
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for t in threads:
            t.join()


class Client:
    """Partition ``part``'s end of the queue; a context manager."""

    def __init__(self, address: tuple[str, int], token: bytes, part: int):
        self._sock = socket.create_connection(address)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._sock.sendall(token)
        _send(self._sock, [part])

    def pull(self) -> list:
        _send(self._sock, [_PULL])
        rows = _recv(self._rfile)
        if rows is None:
            raise ConnectionError("Q_global closed the connection")
        return rows

    def push(self, subtasks) -> None:
        _send(self._sock, [_PUSH] + [[list(s), list(e)] for s, e in subtasks])

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _deal(rows: list, n: int) -> list[list]:
    """Deal ``rows`` round-robin into ``n`` slots: row i goes to slot
    i mod n, at position i // n. On cost-sorted rows every slot gets
    one of the n biggest tasks, then one of the next n, and so on."""
    return [rows[j::n] for j in range(n)]


def _drop_zip_finders() -> None:
    """Forget every zip importer in ``sys.path_importer_cache``. Call it
    only at the end of a Spark partition body: PySpark runs
    ``importlib.invalidate_caches()`` before each task, and a cached
    ``zipimporter`` then re-reads its archive's whole directory. The
    entries are deleted, not set to None (None means "no finder here");
    an import that needs one again rebuilds it from
    ``zipimport._zip_directory_cache`` without reading the archive."""
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def run_stage(spark, parallelism: int | None, payload, rows: list, body) -> list[tuple]:
    """One RDD stage of n = min(``parallelism`` or the default, len(``rows``))
    partitions, on the SparkSession ``spark``, over a Q_global of ``rows``
    dealt in the order given. Partition j runs ``body(payload, its
    Client)``, ``payload`` being broadcast, then :func:`_drop_zip_finders`.
    Returns ``(body's value, wall seconds)`` per partition, in partition
    order. Refuses ``parallelism < 1`` (``None`` means the default) and
    ``spark.speculation`` (read from ``spark.conf``) before broadcasting;
    raises ``RuntimeError`` if a partition lost its connection while it
    held rows. The broadcast is unpersisted and the server closed however
    the stage ends."""
    if parallelism is not None and parallelism < 1:
        raise ValueError(f"parallelism must be >= 1 or None, got {parallelism}")
    if spark.conf.get("spark.speculation", "false").lower() == "true":
        raise ValueError("a Q_global stage cannot run with spark.speculation on: a killed "
                         "speculative attempt would take the task rows it holds with it")
    sc = spark.sparkContext
    n = min(parallelism or sc.defaultParallelism, len(rows))
    bc = sc.broadcast(payload)
    try:
        with closing(Server(QGlobal(_deal(rows, n)), spark.conf.get("spark.driver.host"))) as server:
            address, token = server.address, server.token

            def partition(part):
                """Partition ``part``'s one element is its index."""
                t_entry = time.perf_counter()
                with Client(address, token, part) as queue:
                    out = body(bc.value, queue)
                _drop_zip_finders()
                return out, time.perf_counter() - t_entry

            parts = sc.parallelize(range(n), n).map(partition).collect()
    finally:
        bc.unpersist()
    if server.queue.failed:
        raise RuntimeError("a partition lost its Q_global connection while it held task rows")
    return parts
