"""The served workloads: a ``repro serve`` child process and one
closed-loop ``RemoteSession`` connection.

served-hot reads a Zipf mix of the template pool; served-mutate
mixes reads over the join templates with appends and deletes.  Both
run in cycles of fixed work and measure whole cycles.  Each operation
is timed from the request to the last of the first 20 rows; its answer
is checked afterwards, outside the timed window, so the loop measures
``seconds`` of busy time and the checks come on top.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import json
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import PICKER, ROOT, Run, peak_rss_mb, program_env
from oracle import FIRST_ROWS, ShadowOracle
import spans
import workloads

from repro import persist
from repro.net import RemoteSession

HERE = Path(__file__).resolve().parent
#: Timed server launches per run (after one unrecorded warm-up launch
#: that pays for bytecode compilation); setup_s is their median.
SETUP_LAUNCHES = 7
PR_SET_PDEATHSIG = 1
CLIENT_TIMEOUT = 30.0
START_TIMEOUT = 60.0
_ADDRESS = re.compile(r" on ([0-9.]+):(\d+) ")


class ServerError(RuntimeError):
    pass


def _die_with_parent() -> None:
    """In the server child before exec: have the kernel send it
    SIGTERM when the benchmark process ends, however it ends."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro serve --db`` child with a fresh plan store.

    ``setup_s`` is the time from launching it to the first answered
    hello.  With ``spans_path`` it runs under ``traced_serve.py``,
    which times the server's layers and writes their totals there.
    """

    def __init__(
        self, fdbp: Path, workdir: Path, spans_path: Optional[Path] = None
    ) -> None:
        self.workdir = workdir
        self.spans_path = spans_path
        plan_store = tempfile.mkdtemp(prefix="plans-", dir=workdir)
        serve = [
            "serve",
            "--db",
            str(fdbp),
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--plan-store",
            plan_store,
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [
                sys.executable,
                str(HERE / "traced_serve.py"),
                str(spans_path),
                *serve,
            ]
        self.log = open(workdir / "server.log", "ab")
        mark = PICKER.mark()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=_die_with_parent,
        )
        PICKER.follow(self.proc.pid)
        try:
            address = self._address(start + START_TIMEOUT)
            self.client = RemoteSession(address, timeout=CLIENT_TIMEOUT)
        except BaseException:
            self._kill()
            raise
        self.setup_s = time.perf_counter() - start
        self.slowdown = PICKER.slowdown(mark)

    def _address(self, deadline: float):
        out = self.proc.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("server did not report its address")
            ready, _, _ = select.select([out], [], [], remaining)
            if not ready:
                continue
            line = out.readline().decode(errors="replace")
            if not line:
                raise ServerError(
                    f"server exited with {self.proc.wait()} before serving;"
                    f" see {self.workdir / 'server.log'}"
                )
            match = _ADDRESS.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def mark(self) -> Dict:
        """Ask a traced server for its span totals so far."""
        mark = Path(str(self.spans_path) + ".mark")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10
        while not mark.exists():
            if time.perf_counter() > deadline:
                raise ServerError("traced server did not write its mark")
            time.sleep(0.002)
        return json.loads(mark.read_text())

    def stop(self) -> Optional[Dict]:
        """SIGTERM (the server drains), wait, and return the traced
        server's final span totals."""
        self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            raise ServerError("server did not drain within 30 s")
        finally:
            self.log.close()
        if self.proc.returncode != 0:
            raise ServerError(f"server exited with {self.proc.returncode}")
        if self.spans_path is not None:
            return json.loads(self.spans_path.read_text())
        return None

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()
        self.log.close()


def launch_series(
    fdbp: Path, workdir: Path
) -> Tuple[List[float], float, Server]:
    """One unrecorded warm-up launch, then :data:`SETUP_LAUNCHES`
    timed ones; the last stays up and is returned with the launch
    times at the reference host speed and the host's median
    slowdown."""
    Server(fdbp, workdir).stop()
    samples, slowdowns = [], []
    for i in range(SETUP_LAUNCHES):
        server = Server(fdbp, workdir)
        samples.append(server.setup_s / server.slowdown)
        slowdowns.append(server.slowdown)
        if i < SETUP_LAUNCHES - 1:
            server.stop()
    return samples, statistics.median(slowdowns), server


def _read(run: Run, client, sql: str, timed: bool):
    """One read: SQL out, answer back, count and the first rows."""
    run.attempted += 1
    mark = PICKER.mark()
    start = time.perf_counter()
    try:
        result = client.run(sql)
        got = time.perf_counter()
        fr = result.factorised
        count = result.count()
        if fr is not None:
            first = list(itertools.islice(fr.rows(), FIRST_ROWS))
        else:
            first = result.rows()[:FIRST_ROWS]
    except Exception as exc:  # NetError, a server-side error: a failed read
        run.fail(f"read failed: {type(exc).__name__}: {exc}")
        return None
    end = time.perf_counter()
    if timed:
        run.timed(end - start, slowdown=PICKER.slowdown(mark))
        run.enumerate_s += end - got
    return result, count, first


def _checked_read(run, client, oracle, index, query, sql, timed, sizes):
    answer = _read(run, client, sql, timed)
    if answer is None:
        return
    result, count, first = answer
    full = None
    if oracle.needs_full_rows(index, query):
        full = (
            set(result.factorised.rows())
            if result.factorised is not None
            else set(result.rows())
        )
    problem = oracle.check(index, query, count, first, full)
    if problem is not None:
        run.fail(f"{sql}: {problem}")
    if sizes and timed and result.factorised is not None:
        run.singletons += result.factorised.size()


def _write(run: Run, oracle: ShadowOracle, client, op) -> None:
    kind, relation = op[0], op[1]
    if kind == "append":
        rows = op[2]
    else:
        live = oracle.db[relation].rows
        rows = op[2].sample(live, min(workloads.DELETE_ROWS, len(live)))
    run.attempted += 1
    mark = PICKER.mark()
    start = time.perf_counter()
    try:
        if kind == "append":
            receipt = client.extend_rows(relation, rows)
        else:
            receipt = client.delete_rows(relation, rows)
    except Exception as exc:  # NetError, a server-side error: a failed write
        run.fail(f"{kind} failed: {type(exc).__name__}: {exc}")
        return
    run.timed(
        time.perf_counter() - start,
        write=True,
        slowdown=PICKER.slowdown(mark),
    )
    if kind == "append":
        expected = oracle.append(relation, rows)
    else:
        expected = oracle.delete(relation, rows)
    if receipt.get("count") != expected:
        run.fail(f"{kind} {relation}: {receipt.get('count')} rows, "
                 f"shadow {expected}")


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _session_counters(client) -> Dict[str, int]:
    return dict(client.stats()["session"])


def phase(
    workload: str,
    scale,
    seed: int,
    seconds: float,
    fdbp: Path,
    workdir: Path,
    traced: bool,
) -> Dict:
    """One served phase: set up, warm up, measure, check, stop."""
    db = persist.load(str(fdbp))
    if workload == "served-hot":
        templates = workloads.served_templates(db, scale)
        cycles = workloads.hot_cycles(len(templates), seed)
    else:
        templates = workloads.mutate_templates(db, scale)
        arities = {n: len(db[n].attributes) for n in db.names}
        cycles = workloads.mutate_cycles(
            db.names, len(templates), scale.domain, arities, seed
        )
    sqls = [str(q) for q in templates]
    oracle = ShadowOracle(db)
    run = Run()
    out: Dict = {}
    client_tracer = None
    if traced:
        spans_path = workdir / "server-spans.json"
        server = Server(fdbp, workdir, spans_path=spans_path)
    else:
        (
            out["setup_samples_s"], out["setup_slowdown"], server
        ) = launch_series(fdbp, workdir)
    try:
        client = server.client
        # First touch of every template (plans and results cached).
        for i, query in enumerate(templates):
            _checked_read(run, client, oracle, i, query, sqls[i], False, False)
        before = _session_counters(client)
        # Keep the benchmark's own long-lived state (shadow database,
        # oracle, SQLite copy) out of the collector's timed-window work.
        gc.collect()
        gc.freeze()
        if traced:
            client_tracer = spans.Tracer()
            spans.install_client(client_tracer)
            server_mark = server.mark()
            client_mark = client_tracer.snapshot()
        wall_cap = time.perf_counter() + 4 * seconds + 30
        while run.busy < seconds and time.perf_counter() < wall_cap:
            cycle = next(cycles)
            busy = run.busy_ref
            for op in cycle:
                if op[0] == "read":
                    i = op[1]
                    _checked_read(
                        run, client, oracle, i, templates[i], sqls[i], True,
                        traced,
                    )
                else:
                    _write(run, oracle, client, op)
            run.cycle_done(busy, len(cycle))
        if traced:
            client_window = spans.window(client_tracer.snapshot(), client_mark)
        after = _session_counters(client)
    finally:
        if client_tracer is not None:
            client_tracer.uninstall()
        gc.unfreeze()
        oracle.close()
        server_final = server.stop()
    out["peak_rss_mb"] = peak_rss_mb(children=True)
    out["run"] = run
    out["plan_hit_ratio"] = _ratio(
        after["plan_hits"] - before["plan_hits"],
        after["plan_misses"] - before["plan_misses"],
    )
    out["result_hit_ratio"] = _ratio(
        after["result_hits"] - before["result_hits"],
        after["result_misses"] - before["result_misses"],
    )
    if traced:
        out["layers"] = [
            spans.window(server_final, server_mark),
            client_window,
        ]
        out["load"] = server_final["persist.load"]
    return out
