"""Per-layer spans recorded from outside the program.

The traced run replaces public functions of each layer with timing
wrappers (the program itself is not edited).  A span's *self time* is
its duration minus the time of the spans it encloses on the same
thread, so nested layers -- an executor call that factorises, say --
are not counted twice.  Totals stay in memory and are read when the
run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Timed layers, named ``<module>.<what>`` after ``src/repro/``.
LAYERS = (
    "query.parse",
    "optimiser.ftree",
    "optimiser.fplan",
    "core.factorise",
    "ops.fplan_execute",
    "ops.project",
    "ivm.catchup",
    "exec.execute",
    "net.pack",
    "net.unpack",
    "relational.mutate",
    "persist.load",
)
#: Plain sums recorded next to the spans.
COUNTS = ("net.result_bytes", "ivm.delta_rows")


class Tracer:
    """Span totals per layer: ``[calls, total s, self s]``."""

    def __init__(self) -> None:
        # Every key exists from the start, so a snapshot taken from a
        # signal handler never sees the dict change size.
        self.totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in LAYERS
        }
        self.counts: Dict[str, float] = {name: 0 for name in COUNTS}
        # Re-entrant: a signal handler may snapshot while the same
        # (main) thread is inside ``record``.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, elapsed: float, children: float = 0.0) -> None:
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.record(name, elapsed, children)
            if on_result is not None:
                on_result(result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            out = {
                name: {"calls": e[0], "total_s": e[1], "self_s": e[2]}
                for name, e in self.totals.items()
            }
            out["counts"] = dict(self.counts)
        return out


def window(
    end: Dict[str, Dict[str, float]], start: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Totals recorded between two snapshots."""
    out = {}
    for name, values in end.items():
        out[name] = {k: v - start[name][k] for k, v in values.items()}
    return out


# -- which calls each process has timed -----------------------------------


def _evaluation_layers(tracer: Tracer) -> None:
    """Layers below the query text, shared by server and local runs."""
    import repro.ivm.cache
    import repro.ops
    import repro.persist
    from repro.engine import FDB
    from repro.exec.executor import SerialExecutor
    from repro.optimiser.fplan import FPlan

    def delta_rows(result) -> None:
        if result is not None:
            tracer.add("ivm.delta_rows", result[1])

    tracer.wrap(FDB, "optimal_tree", "optimiser.ftree")
    tracer.wrap(FDB, "plan_for", "optimiser.fplan")
    tracer.wrap(FDB, "factorise_query", "core.factorise")
    tracer.wrap(FPlan, "execute", "ops.fplan_execute")
    tracer.wrap(repro.ops, "project", "ops.project")
    # repro.ivm.cache imports apply_deltas by name; wrap that binding.
    tracer.wrap(repro.ivm.cache, "apply_deltas", "ivm.catchup", delta_rows)
    tracer.wrap(SerialExecutor, "execute", "exec.execute")
    tracer.wrap(repro.persist, "load", "persist.load")


def install_server(tracer: Tracer) -> None:
    """The ``repro serve`` process: evaluation, parse, pack, writes."""
    import repro.net.protocol
    import repro.net.server
    from repro.relational.database import Database

    def payload_bytes(packed) -> None:
        tracer.add("net.result_bytes", len(packed[1]))

    _evaluation_layers(tracer)
    # The server imports parse_query by name.
    tracer.wrap(repro.net.server, "parse_query", "query.parse")
    tracer.wrap(
        repro.net.protocol, "pack_result", "net.pack", payload_bytes
    )
    tracer.wrap(Database, "extend_rows", "relational.mutate")
    tracer.wrap(Database, "delete_rows", "relational.mutate")


def install_client(tracer: Tracer) -> None:
    """The benchmark process of a served run: the client's own parse
    and the result decode (on the client's reader thread)."""
    import repro.net.client
    import repro.net.protocol

    tracer.wrap(repro.net.client, "parse_query", "query.parse")
    tracer.wrap(repro.net.protocol, "unpack_result", "net.unpack")


def install_local(tracer: Tracer) -> None:
    """The local-explore process: everything runs here."""
    import repro.query.parser

    _evaluation_layers(tracer)
    tracer.wrap(repro.query.parser, "parse_query", "query.parse")
