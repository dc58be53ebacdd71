"""Shared helpers of the benchmark: locating the program, statistics,
provenance and process resources.

The benchmark runs from the root of a checkout and imports the
program from ``src/`` (it is pure Python; there is nothing to build).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for FDBP files, plan stores and server logs; removed
#: at the end of every run and listed in the root ``.gitignore``.
WORK_PARENT = ROOT / ".bench_build"

#: Candidate tail percentiles, highest first.  There is no p95 or p99:
#: at this scale they measured the host, not the program.  Over eight
#: served-hot runs p99 spread by 46% of its median and p90 by 10%;
#: CPU stolen by the virtual machine's host comes in bursts that delay
#: one or two reads in a hundred by milliseconds.
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or raise if there is no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(
            f"no program at {SRC / 'repro'}: run from the root of a "
            "full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child interpreters running the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def make_workdir() -> Path:
    WORK_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_PARENT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_PARENT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# -- statistics -------------------------------------------------------------


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of sorted samples."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, with its sample counts.
    ``None`` when there are too few samples for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return {
                "value": nearest_rank(ordered, pct),
                "percentile": pct,
                "samples": n,
                "beyond": beyond,
            }
    return None


def latency_summary(seconds: Sequence[float]) -> Dict[str, object]:
    """p50 and tail of latencies given in seconds, reported in ms."""
    ms = [s * 1000.0 for s in seconds]
    out: Dict[str, object] = {"samples": len(ms)}
    if ms:
        out["p50_ms"] = statistics.median(ms)
    out["tail"] = tail(ms)
    return out


# -- one phase's measurements ---------------------------------------------


class Run:
    """Timings, failures and (traced) per-read sizes of one phase.

    Its figures are medians over the whole run, so a spell in which
    the host takes CPU away does not move them unless it covers half
    of the run: percentiles over every read and throughput from the
    median cycle (a fixed set of operations), or, when the same
    operations repeat round after round, figures over each operation's
    median time.  Every figure is at the reference host speed: each
    operation's time is divided by the host's slowdown while it ran
    (:meth:`CpuPicker.slowdown`).
    """

    def __init__(self) -> None:
        #: Busy time of each whole cycle measured; a cycle is a fixed
        #: set of ``cycle_ops`` operations.
        self.cycles: List[float] = []
        self.cycle_ops = 0
        #: Operation -> its timings, when operations repeat.
        self.by_op: Dict[object, List[float]] = {}
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.busy = 0.0
        #: :attr:`busy` at the reference host speed.
        self.busy_ref = 0.0
        self.wall_busy = 0.0
        #: The host's slowdown during each operation.
        self.slowdowns: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.enumerate_s = 0.0
        self.singletons = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def timed(
        self,
        seconds: float,
        write: bool = False,
        wall: Optional[float] = None,
        op: object = None,
        slowdown: float = 1.0,
    ) -> None:
        """Record one operation that took ``seconds`` while the host ran
        ``slowdown`` times slower than the reference; ``wall`` is its
        wall time when ``seconds`` was measured on another clock, ``op``
        names it when it is repeated."""
        ref = seconds / slowdown
        (self.writes if write else self.reads).append(ref)
        if op is not None:
            self.by_op.setdefault(op, []).append(ref)
        self.busy += seconds
        self.busy_ref += ref
        self.wall_busy += seconds if wall is None else wall
        self.slowdowns.append(slowdown)

    def cycle_done(self, busy_before: float, ops: int) -> None:
        """Close a whole cycle of ``ops`` operations that started when
        :attr:`busy_ref` was ``busy_before``."""
        self.cycles.append(self.busy_ref - busy_before)
        self.cycle_ops = ops

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def figures(self) -> Dict[str, object]:
        """``throughput_ops_s``, ``read_p50_ms`` and ``read_tail`` (see
        :func:`tail`)."""
        if self.by_op:
            medians = [statistics.median(t) for t in self.by_op.values()]
            reads = latency_summary(medians)
            throughput = len(medians) / sum(medians)
        else:
            reads = latency_summary(self.reads)
            if self.cycles:
                throughput = self.cycle_ops / statistics.median(self.cycles)
            else:
                throughput = self.ops / self.busy_ref if self.busy else 0.0
        return {
            "throughput_ops_s": throughput,
            "read_p50_ms": reads.get("p50_ms"),
            "read_tail": reads["tail"],
        }


# -- resources and provenance -----------------------------------------------


#: Iterations of the pure-Python loop that probes a CPU's speed
#: (~2 ms on the reference machine).
PROBE_LOOP = 20_000
#: Wall seconds between two picks of a CPU.
REPICK_S = 0.05
#: The probe's time on the chosen CPU at the reference host speed:
#: the median on the 2-vCPU machine the benchmark was sized on.
#: Timed figures are reported at this speed (see :meth:`CpuPicker.slowdown`).
PROBE_REFERENCE_S = 0.0013
#: Probes up to an operation's start that its slowdown takes the
#: median of, with any taken while it ran.
SLOWDOWN_PROBES = 5


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class CpuPicker:
    """Keeps the benchmark, and the processes it hands over, bound to
    the one CPU the host runs fastest at the moment.

    On the shared host the benchmark was sized on, each virtual CPU
    switches between a fast and a slow speed (a fixed loop took ~1.5
    times as long in the slow spells) in spells of seconds, and the two CPUs do so independently
    (correlation -0.05 over 150 paired samples).  A run bound to one
    CPU therefore measured that CPU's spells.  :meth:`pick` probes
    every allowed CPU with the same loop and moves every thread of the
    followed processes to the fastest; callers pick before each timed
    operation, outside its timing, and a pick at most every
    :data:`REPICK_S` probes again.

    One CPU for all: a served read is a round trip between the client
    and the server process, and on one CPU each hop is a context switch
    rather than a cross-CPU wake-up that waits whenever the host has
    taken the other CPU away.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pids = [os.getpid()]
        self.cpu = self.cpus[-1]
        self.last = -math.inf
        self._lock = threading.Lock()
        self.probes = 0
        self.moves = 0
        #: The chosen CPU's probe time at each probe.
        self.speeds: List[float] = []

    def follow(self, pid: int) -> None:
        """Bind ``pid``'s threads with the benchmark's from now on."""
        self.pids.append(pid)
        self._bind()

    def pick(self) -> int:
        """Bind to the fastest CPU now (re-probed at most every
        :data:`REPICK_S`); returns it."""
        with self._lock:
            if time.perf_counter() - self.last < REPICK_S:
                return self.cpu
            speeds = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # the calling thread only
                speeds[cpu] = _probe()
            self.probes += 1
            best = min(speeds, key=speeds.get)
            self.speeds.append(speeds[best])
            if best != self.cpu:
                self.moves += 1
            self.cpu = best
            self._bind()
            self.last = time.perf_counter()
            return best

    def mark(self) -> int:
        """Pick, and return a position for :meth:`slowdown`: call it
        right before timing an operation."""
        self.pick()
        return len(self.speeds) - 1

    def slowdown(self, mark: int) -> float:
        """How many times slower than the reference the host ran the
        chosen CPU since ``mark``: the median probe time from the last
        probe before ``mark`` to now (more than one only when a
        :class:`Repicker` probed meanwhile), over
        :data:`PROBE_REFERENCE_S`.

        The host's speed moves by up to half within seconds, and a
        whole run can fall in a slow spell; dividing each operation's
        time by the slowdown while it ran reports it at one host speed.
        The probe runs none of the program, so a change to the program
        moves the divided times as much as the raw ones.
        """
        start = max(0, mark + 1 - SLOWDOWN_PROBES)
        return statistics.median(self.speeds[start:]) / PROBE_REFERENCE_S

    def _bind(self) -> None:
        live = []
        for pid in self.pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:  # the process has ended
                continue
            live.append(pid)
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {self.cpu})
                except (ProcessLookupError, PermissionError):
                    pass  # the thread has ended
        self.pids = live


#: The benchmark's one picker (see :class:`CpuPicker`).
PICKER = CpuPicker()


class Repicker:
    """Picks a CPU every :data:`REPICK_S` from a thread of its own,
    also in the middle of an operation (one local-explore join runs
    for ~20 s).  For timing in process CPU time, :meth:`cpu_time`
    leaves this thread's own CPU time out.

        with Repicker() as clock:
            start = clock.cpu_time()
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._own_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Repicker":
        PICKER.pick()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(REPICK_S):
            with self._lock:
                start = time.thread_time()
                PICKER.pick()
                self._own_s += time.thread_time() - start

    def cpu_time(self) -> float:
        """Process CPU time, less the picking thread's."""
        with self._lock:
            return time.process_time() - self._own_s


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux) of
    this process, or with ``children`` of the largest child process
    already waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int, params: Dict[str, object]) -> Dict[str, object]:
    """The stamp every result document carries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "workload": params,
    }
