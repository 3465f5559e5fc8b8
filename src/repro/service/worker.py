"""Worker processes: a :class:`~repro.api.Session` served from a child process.

Each :class:`~repro.service.pool.WorkerPool` worker drives one
:class:`ProcessSession`: a Session-shaped proxy (``iter_solutions``,
``last_report``, ``close``) whose engine work runs in a long-lived child
process that owns the warm session.  The pool's thread only supervises its
child, so engine search no longer shares the server's GIL with HTTP request
handling, and two workers get two cores.

Protocol, over a :func:`multiprocessing.Pipe`, plain data only:

* parent → child: ``Problem.to_dict()`` per job, ``None`` to exit;
* child → parent: ``("solution", Solution.to_dict())`` as each regex is
  found, then ``("report", RunReport.to_dict())`` — or
  ``("error", traceback)`` if the run raised.

Cancellation crosses in a :class:`multiprocessing.Event`, cleared before each
job; the child's schedulers see it through a :class:`CancelToken`
subclass.  The parent waits on the pipe *and* the child's sentinel, so a child
that dies mid-job fails that job at once, and the next job starts a fresh
child.  A child that has not answered within ``grace`` seconds of its job
being cancelled (the pool watchdog cancels wedged jobs) is killed the same
way, which is what returns a wedged worker to service.

Children come from the ``forkserver`` start method (never ``fork`` from the
multi-threaded server) with the pipeline API preloaded, and are
non-daemonic, so a child may itself run the ``process-pool`` scheduler.
"""

from __future__ import annotations

import atexit
import functools
import os
import signal
import threading
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple

from repro.api.problem import Problem
from repro.api.results import RunReport, Solution
from repro.api.schedulers import CancelToken
from repro.api.session import Session

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: How often a supervising thread looks at its job's cancel token while it
#: waits for the child (the cancel-to-child latency bound).
POLL_SECONDS = 0.05

#: How long :meth:`ProcessSession.close` lets a child exit on its own (it
#: finishes its job's current scheduler slice first) before killing it.
STOP_SECONDS = 2.0

#: Sessions with a possibly live child, closed at interpreter exit: the
#: children are non-daemonic, and multiprocessing's own exit hook would
#: otherwise wait forever for a child idling on its pipe (see :func:`_context`).
_LIVE: "weakref.WeakSet[ProcessSession]" = weakref.WeakSet()


@functools.lru_cache(maxsize=None)
def _context() -> Any:
    """The forkserver context, set up on the first child start.

    :mod:`multiprocessing` is imported here rather than at server start-up.
    The exit hook is registered after multiprocessing's own, so it runs
    first (atexit is last-in, first-out) and stops the children that hook
    would otherwise wait for.
    """
    import multiprocessing
    import multiprocessing.util  # noqa: F401  (registers its exit hook)

    atexit.register(_close_live_sessions)
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.api", "repro.service.worker"])
    return context


class WorkerError(RuntimeError):
    """The child failed the job: it raised, died, or ignored cancellation."""


class _EventToken(CancelToken):
    """A :class:`CancelToken` over a cross-process Event."""

    def __init__(self, event: Any) -> None:
        super().__init__()
        self._event = event

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def _serve(conn: Connection, event: Any, factory: Callable[[], Session]) -> None:
    """Child main loop: build the session on the first job, then serve jobs."""
    # A process group of its own: Ctrl-C at the server's terminal does not
    # reach it (shutdown is the parent's call), and the parent can stop it
    # together with any processes it starts (the process-pool scheduler's).
    os.setpgrp()
    cancel = _EventToken(event)
    session: Optional[Session] = None
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent is gone
            return
        if message is None:
            return
        try:
            if session is None:
                session = factory()
            for solution in session.iter_solutions(Problem.from_dict(message), cancel):
                conn.send(("solution", solution.to_dict()))
            assert session.last_report is not None
            conn.send(("report", session.last_report.to_dict()))
        except Exception:
            try:
                conn.send(("error", traceback.format_exc(limit=8)))
            except OSError:
                return


def _close_live_sessions() -> None:
    for session in list(_LIVE):
        session.close()


def _kill_tree(process: Any) -> None:
    """SIGKILL the child's process group, so its own children die with it.

    A dead child's group is signalled too: processes it started outlive it.
    """
    try:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:  # not (yet) leading a group of its own
            if process.exitcode is None:
                process.kill()
    except ProcessLookupError:
        pass


def _memory_mb(pid: Optional[int]) -> Tuple[Optional[float], Optional[float]]:
    """``(VmRSS, VmHWM)`` of ``pid`` in MiB; ``None`` where ``/proc`` has none."""
    if pid is None:
        return None, None
    values: Dict[str, float] = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    values[key] = int(rest.split()[0]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return values.get("VmRSS"), values.get("VmHWM")


class ProcessSession:
    """A warm session living in a child process, driven like a :class:`Session`.

    ``factory`` must be picklable (a module-level function or a
    :func:`functools.partial` of one): it is sent to the child, which calls
    it once to build its session.  The child is started on the first job and
    restarted on the job after it died or was killed.
    """

    def __init__(self, factory: Callable[[], Session], grace: float):
        self.factory = factory
        #: Seconds a cancelled job's child has to answer before it is killed.
        self.grace = grace
        #: Report of the most recent run (None when the run failed).
        self.last_report: Optional[RunReport] = None
        self.jobs = 0
        self.restarts = 0
        self._process: Any = None
        self._conn: Optional[Connection] = None
        self._event: Any = None
        self._spawned = False
        self._closed = False
        self._lock = threading.Lock()

    # -- the child -----------------------------------------------------------

    def _child(self) -> Tuple[Any, Connection]:
        """The live child and its pipe end, starting one if there is none."""
        with self._lock:
            process, conn = self._process, self._conn
        if process is not None:
            assert conn is not None
            if process.is_alive():
                return process, conn
            self._reap(process, conn)  # died between jobs
        with self._lock:
            if self._closed:
                raise WorkerError("worker session is closed")
            context = _context()
            if self._event is None:
                self._event = context.Event()
            conn, child_conn = context.Pipe()
            process = context.Process(
                target=_serve,
                args=(child_conn, self._event, self.factory),
                name="regel-worker",
                daemon=False,
            )
            process.start()
            child_conn.close()
            if self._spawned:
                self.restarts += 1
            self._spawned = True
            self._process, self._conn = process, conn
        _LIVE.add(self)
        return process, conn

    def _reap(self, process: Any, conn: Connection) -> None:
        """Kill ``process`` and its group, and forget it if it is current."""
        _kill_tree(process)
        process.join(5.0)
        conn.close()
        with self._lock:
            if self._process is process:
                self._process = self._conn = None

    def _fail(self, process: Any, conn: Connection, reason: str) -> WorkerError:
        self._reap(process, conn)
        return WorkerError(
            f"worker process {process.pid} {reason} (exit code {process.exitcode})"
        )

    def _receive(
        self, process: Any, conn: Connection, cancel: CancelToken
    ) -> Tuple[str, Any]:
        """The child's next message, forwarding cancellation while waiting."""
        from multiprocessing.connection import wait

        cancelled_at: Optional[float] = None
        while True:
            if cancelled_at is None and cancel.cancelled:
                self._event.set()
                cancelled_at = time.monotonic()
            ready = wait([conn, process.sentinel], timeout=POLL_SECONDS)
            if conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise self._fail(process, conn, "died mid-job") from None
            if ready:
                raise self._fail(process, conn, "died mid-job")
            if cancelled_at is not None and time.monotonic() - cancelled_at > self.grace:
                raise self._fail(
                    process,
                    conn,
                    f"did not stop within {self.grace:.1f}s of cancellation;"
                    " killed as wedged",
                )

    # -- the Session surface -------------------------------------------------

    def iter_solutions(
        self, problem: Problem, cancel: Optional[CancelToken] = None
    ) -> Iterator[Solution]:
        """Yield the child's solutions as it finds them; see :class:`Session`.

        Raises :class:`WorkerError` if the child fails the job.  Closing the
        stream early discards the child (the next job starts a fresh one).
        """
        cancel = cancel if cancel is not None else CancelToken()
        process, conn = self._child()
        self._event.clear()
        self.last_report = None
        try:
            conn.send(problem.to_dict())
        except OSError:
            raise self._fail(process, conn, "died before its job was sent") from None
        self.jobs += 1
        while True:
            kind, payload = self._receive(process, conn, cancel)
            if kind == "error":
                raise WorkerError(f"worker process {process.pid} failed:\n{payload}")
            if kind == "report":
                self.last_report = RunReport.from_dict(payload)
                return
            try:
                yield Solution.from_dict(payload)
            except GeneratorExit:
                # Closed mid-job: the rest of this job's messages would
                # reach the next job, so the child goes with them.
                self._reap(process, conn)
                raise

    def stats(self) -> Dict[str, Any]:
        """Pid, job and restart counts, and memory of the current child."""
        with self._lock:
            pid = self._process.pid if self._process is not None else None
        rss, peak = _memory_mb(pid)
        return {
            "pid": pid,
            "jobs": self.jobs,
            "restarts": self.restarts,
            "rss_mb": rss,
            "peak_rss_mb": peak,
        }

    def close(self) -> None:
        """Stop the child: cancel its job, ask it to exit, then kill its group."""
        with self._lock:
            self._closed = True
            process, conn = self._process, self._conn
            self._process = self._conn = None
        _LIVE.discard(self)
        if process is None or conn is None:
            return
        self._event.set()
        try:
            conn.send(None)
        except OSError:
            pass
        process.join(STOP_SECONDS)
        _kill_tree(process)
        process.join(STOP_SECONDS)
        conn.close()
