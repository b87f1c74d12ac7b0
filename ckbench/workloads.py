"""The three workloads.  Each drives one public verb from this process.

* ``analyze-5k`` -- ``analyze_side_effects`` on one flat scale-free
  5000-procedure program: a cold lap (source -> summary, after
  ``clear_arena_cache``) then a warm lap on the cached arena.  No
  payload, cache, IPC or protocol work, so front-end, arena and solver
  changes show here and persist/server changes must not.
* ``batch-corpus`` -- ``run_batch`` over a generated corpus of flat and
  nested programs with a pool as wide as the CPU count: a cold pass
  into an empty cache, then a warm pass in which every file is a hit.
  The only workload on the multi-level GMOD path, the pool, payload
  building and cache writes (cold) and reads (warm).  A warm pass never
  runs the analyzer, so solver gains must not show there.
* ``ide-session`` -- a ``ck-analyze serve`` daemon and one client in a
  closed loop: full-source ``update``s on a 600-procedure session, each
  followed by eight rounds of a ``who_modifies`` and a ``proc`` query.
  The only path through the incremental engine, the dependency index
  and the wire protocol; the ~7 MB reply dominates the update.

Each workload has ``prepare`` (inputs and references: harness time),
``setup`` (what a user pays before the first answer: ``setup_s``),
``cycle`` (the timed operations) and ``close``.
"""

from __future__ import annotations

import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from ckbench.inputs import (
    REPO_ROOT,
    Renamer,
    analyze_input,
    batch_input,
    ide_input,
    read_text,
    renamed_corpus,
)
from ckbench.measure import auto_plan, child_env, fresh_import_s, pool_width, timed_s
from ckbench.reference import References


class Analyze5k:
    name = "analyze-5k"
    #: Reported end-to-end metric -> the samples it is the median of.
    metrics = {"cold_ms": "cold_ms", "warm_ms": "warm_ms"}

    def prepare(self, harness) -> None:
        self.path, meta = analyze_input(harness.sizes)
        harness.note_generation(meta)
        self.refs = References([self.path], live=True, corrupt=harness.corrupt)
        harness.reference_s += self.refs.solve_s
        base = read_text(self.path)
        self.renamer = Renamer([base], harness.seed)
        self.text = self.renamer.rename(base)
        self.backend = None

    def setup(self, harness) -> None:
        # The pipeline imports the bit-plane backend (and NumPy) on its
        # first call: a fresh process pays for it, so setup does too.
        imports = fresh_import_s(["repro.core.pipeline", "repro.core.bitplane"])
        import repro.core.bitplane  # noqa: F401

        self.cycle(harness, warmup=True)
        harness.setup_s = statistics.median(imports) + sum(harness.warmup_ms) / 1000.0

    def cycle(self, harness, warmup: bool = False) -> None:
        from repro.core.arena import clear_arena_cache
        from repro.core.pipeline import analyze_side_effects

        check = lambda summary: self.refs.check_live(self.path, summary)  # noqa: E731
        clear_arena_cache()
        cold = harness.op(
            "cold_ms", lambda: analyze_side_effects(self.text), check, warmup
        )
        if cold is None:
            return
        self.backend = cold.backend
        harness.op(
            "warm_ms", lambda: analyze_side_effects(cold.resolved), check, warmup
        )

    def plan(self) -> Optional[str]:
        """The ``backend="auto"`` plan the cold laps ran."""
        return self.backend

    def close(self, harness) -> None:
        from repro.core.arena import clear_arena_cache

        clear_arena_cache()


class BatchCorpus:
    name = "batch-corpus"
    metrics = {"cold_ms": "cold_ms", "warm_ms": "warm_ms"}

    def prepare(self, harness) -> None:
        paths, meta = batch_input(harness.sizes)
        harness.note_generation(meta)
        self.refs = References(paths, live=False, corrupt=harness.corrupt)
        harness.reference_s += self.refs.solve_s
        self.corpus, self.renamer, spent = renamed_corpus(paths, harness.seed)
        harness.generation_now_s += spent
        self.base_of = {os.path.basename(path): path for path in paths}
        self.width = pool_width()
        self.cache_dir = os.path.join(harness.run_dir, "summary-cache")

    def setup(self, harness) -> None:
        # Imports alone are short, so take more of them for a steady median.
        imports = fresh_import_s(["repro.service.batch", "repro.core.bitplane"], repeats=9)
        # Imported here so every forked pool worker starts with it, in
        # every cold pass alike.
        import repro.core.bitplane  # noqa: F401

        harness.setup_s = statistics.median(imports)

    def _check(self, report, cold: Optional[Dict]) -> Optional[str]:
        """Check a pass.  A cold pass (``cold`` None) is checked against
        the legacy references; a warm pass must return exactly the
        payloads of the checked cold pass before it (``cold``, by path)."""
        if len(report.results) != len(self.base_of):
            return "%d results for %d files" % (len(report.results), len(self.base_of))
        cached = cold is not None
        for record in report.results:
            if not record.ok:
                return "%s: %s %s" % (record.path, record.status, record.error)
            if record.cached != cached:
                return "%s: cached=%s, expected %s" % (record.path, record.cached, cached)
            if cached:
                if record.result != cold[record.path]:
                    return "%s: cached payload differs from the checked one" % record.path
                continue
            reason = self.refs.check_payload(
                self.base_of[os.path.basename(record.path)],
                record.result["summary"],
                self.renamer.unrename,
                record.result["ops"],
            )
            if reason is not None:
                return "%s: %s" % (record.path, reason)
        return None

    def cycle(self, harness, warmup: bool = False) -> None:
        from repro.service.batch import run_batch

        shutil.rmtree(self.cache_dir, ignore_errors=True)

        def run():
            return run_batch(self.corpus, jobs=self.width, cache_dir=self.cache_dir)

        cold = harness.op("cold_ms", run, lambda r: self._check(r, None), warmup)
        if cold is None:
            return
        payloads = {record.path: record.result for record in cold.results}
        harness.op("warm_ms", run, lambda r: self._check(r, payloads), warmup)

    def plan(self) -> str:
        """The ``backend="auto"`` plan of the largest file."""
        largest = max(self.base_of.values(), key=os.path.getsize)
        return auto_plan(read_text(largest))

    def close(self, harness) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _expected_answer(summary: Dict, select: str, name: str):
    """What the daemon must answer to a query, from its update reply."""
    if select == "proc":
        return dict(summary["procedures"][name], name=name)
    return {
        "variable": name,
        "kind": "mod",
        "procedures": sorted(
            proc for proc, entry in summary["procedures"].items() if name in entry["gmod"]
        ),
        "sites": [site["site_id"] for site in summary["call_sites"] if name in site["mod"]],
    }


class _Daemon:
    """A ``ck-analyze serve --port 0`` process, or (traced runs) an
    in-process ``ServerThread`` so the layer wrappers see its calls."""

    def __init__(self, in_process: bool, log_path: str):
        self.proc = None
        self.thread = None
        if in_process:
            from repro.server.daemon import ServerConfig, ServerThread

            self.thread = ServerThread(ServerConfig(port=0)).start()
            self.port = self.thread.port
            return
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(),
            cwd=REPO_ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        if "listening on" not in line:
            self.proc.kill()
            self.stop()
            raise RuntimeError("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self.log.close()
            self.proc = None


class IdeSession:
    name = "ide-session"
    # The update analyses new source, the query reads the session's
    # summary: they are this workload's cold and warm operations.
    metrics = {"cold_ms": "update_ms", "warm_ms": "query_ms"}
    session = "ide"
    query_rounds = 8
    setups = 3  # Daemon start + session open, repeated for a median.

    def prepare(self, harness) -> None:
        self.paths, meta = ide_input(harness.sizes)
        harness.note_generation(meta)
        self.refs = References(self.paths, live=False, corrupt=harness.corrupt)
        harness.reference_s += self.refs.solve_s
        base = [read_text(path) for path in self.paths]
        self.renamer = Renamer(base, harness.seed)
        self.states = [self.renamer.rename(text) for text in base]
        self.updates = meta["updates"]
        self.hub = meta["hub"]
        # The globals the edits write to the hub: their writers change.
        self.variables = sorted({update["variable"] for update in self.updates})
        self.other_procs = sorted({update["proc"] for update in self.updates} - {self.hub})
        self.step = 0
        self.daemon: Optional[_Daemon] = None
        self.client = None
        self.stats: List[Dict] = []

    def _open(self, harness) -> None:
        from repro.server.client import ServerClient

        self.daemon = _Daemon(
            harness.trace, os.path.join(harness.run_dir, "daemon.log")
        )
        # The default cap (4 MiB) is below this reply; see the defect.
        self.client = ServerClient(self.daemon.port, max_payload=1 << 30, timeout=120.0)
        reply = self.client.analyze(self.states[0], session=self.session)
        self.reply = reply
        reason = self.refs.check_payload(self.paths[0], reply["summary"], self.renamer.unrename)
        harness.record_check("session_open", reason)

    def _close_daemon(self) -> None:
        client, daemon = self.client, self.daemon
        self.client = self.daemon = None
        try:
            if client is not None:
                try:
                    client.shutdown()
                finally:
                    client.close()
        finally:
            if daemon is not None:
                daemon.stop()

    def setup(self, harness) -> None:
        from repro.server.protocol import encode

        times = []
        for attempt in range(1 if harness.trace else self.setups):
            if attempt:
                self._close_daemon()
            times.append(timed_s(lambda: self._open(harness)))
        harness.setup_s = statistics.median(times)
        reply_bytes = len(encode(self.reply))
        self.client.max_payload = 2 * reply_bytes
        harness.extra["session_reply_bytes"] = reply_bytes
        harness.extra["defects"] = [self._reproduce_defect(reply_bytes)]
        # The daemon imports its update path on first use: one untimed
        # update round moves that out of the samples.
        self.step = 0
        self.cycle(harness, warmup=True)

    def _reproduce_defect(self, reply_bytes: int) -> Dict:
        """Known defect, reproduced and left for a fix in ``src/``."""
        from repro.server.client import ServerClient
        from repro.server.protocol import MAX_PAYLOAD_DEFAULT, ProtocolError

        outcome = "reply decoded (defect not reproduced)"
        probe = ServerClient(self.daemon.port, timeout=120.0)
        try:
            probe.request_raw("analyze", source=self.states[0])
        except ProtocolError as error:
            outcome = "ProtocolError: %s" % str(error)[:80]
        except (OSError, ValueError) as error:
            outcome = "%s: %s" % (type(error).__name__, str(error)[:80])
        finally:
            probe.close()
        return {
            "id": "client-default-max-payload",
            "what": "ServerClient's default max_payload (%d B) is below the "
            "%d B session reply; the truncated line is reported as "
            "'request is not valid JSON'" % (MAX_PAYLOAD_DEFAULT, reply_bytes),
            "observed": outcome,
            "workaround": "client cap sized to 2x the measured reply",
        }

    def cycle(self, harness, warmup: bool = False) -> None:
        self.step += 1
        state = self.step % len(self.states)
        update = self.updates[(self.step - 1) % len(self.updates)]
        client = self.client

        def check_update(reply):
            self.stats.append(reply["update_stats"])
            return self.refs.check_payload(
                self.paths[state], reply["summary"], self.renamer.unrename
            )

        reply = harness.op(
            "update_ms",
            lambda: client.update(self.session, self.states[state]),
            check_update,
            warmup,
        )
        if reply is None:
            return
        summary = reply["summary"]
        # Query rounds, each a who_modifies and a proc query, make one
        # op: a round trip takes a few ms, too short to time steadily
        # alone on this host.
        asks = []
        procs = [update["proc"], self.hub] + self.other_procs
        for index in range(self.query_rounds):
            variable = self.variables[index % len(self.variables)]
            proc = procs[index % len(procs)]
            asks.append(("who_modifies", "variable", self.renamer.name(variable)))
            asks.append(("proc", "proc", self.renamer.name(proc)))

        def queries():
            results = []
            trips: Dict[str, List[float]] = {"who_modifies": [], "proc": []}
            for select, field, name in asks:
                started = time.perf_counter()
                results.append(client.query(self.session, select, **{field: name})["result"])
                trips[select].append(time.perf_counter() - started)
            # The op's sample: the two kinds' median round trips, averaged.
            # Each kind is a mode of its own (~4 ms vs ~1 ms), and a
            # median shrugs off the odd trip that waits on the host.
            return results, statistics.mean(statistics.median(t) for t in trips.values())

        def check_queries(answers):
            results, _ = answers
            for (select, _, name), result in zip(asks, results):
                if result != _expected_answer(summary, select, name):
                    return "%s %s disagrees with the update reply" % (select, name)
            return None

        harness.op("query_ms", queries, check_queries, warmup, lambda answers: answers[1])

    def plan(self) -> str:
        """The ``backend="auto"`` plan of the session's program."""
        return auto_plan(self.states[0])

    def close(self, harness) -> None:
        self._close_daemon()
        if self.stats:
            harness.extra["update_stats_median"] = {
                key: statistics.median(s[key] for s in self.stats)
                for key in ("region_procs", "reuse_fraction", "affected_procs")
            }


WORKLOADS = {cls.name: cls for cls in (Analyze5k, BatchCorpus, IdeSession)}
