"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop driven from this process: the next
operation starts only when the previous one finished.  Each returns a
:class:`Measurement`; ``run.py`` turns it into the result line.  Only
the standard library is imported at module level, so ``probe.py`` can
time the ``repro`` imports as part of set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIB = 1024 * 1024

FLEET_BOARDS = 8
CAMPAIGN_VICTIMS = 256
"""Victims per campaign: 32 per board, 16 waves of 2.  Large enough
that the seed's model mix moves victims/s by a few percent, and that
the fabric coordinator's shutdown (up to one 0.5 s ``serve_forever``
poll, paid by the operator) is a small share of a run."""
CORPUS_VICTIMS_PER_MODEL = 24
"""Ingest corpus: one single-model campaign per model of the mix, so
every seed gives the same number of dumps of each heap size."""
DEFENSE_VICTIMS = 96
"""Victims per profile; each sweep attacks 2 x 96 plus 2 probes."""
DEFENSE_PROFILES = ("zero_on_free", "pinned_xen")
FABRIC_WORKERS = 2
SETUP_SAMPLES = 5
"""Fresh-interpreter set-ups per run; ``setup_s`` is their median."""

INGEST_IN_FLIGHT = 4
"""Jobs the uploader keeps in flight: below the daemon's queue capacity
(8), so the bounded queue never refuses."""
INGEST_ZERO_COPIES = 16
"""Byte-identical zero-on-free dumps per pass over the corpus."""
INGEST_LARGE_MIB = (2, 3)
"""Sizes of the section-mix dumps, one of each per pass."""
INGEST_TENANT = "bench"
JOB_TIMEOUT_S = 60.0


class Divergence(Exception):
    """An output check failed; the run must not be recorded."""


@dataclass
class Measurement:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    """Metric name -> (value, number of samples behind it)."""
    notes: dict = field(default_factory=dict)
    process_spans: list = field(default_factory=list)
    """Span lists and counters other processes recorded (the daemon)."""


def fresh_dir(scratch: Path, name: str) -> Path:
    """An empty directory under *scratch*."""
    path = scratch / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(samples: list[float], pct: int) -> float:
    """Inclusive-method percentile (``pct`` in 1..99)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mib() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def campaign_spec(seed: int):
    """The vulnerable 8-board fleet the campaign workloads attack."""
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        boards=FLEET_BOARDS, victims=CAMPAIGN_VICTIMS, wave_size=2, seed=seed
    )


def defense_spec(seed: int):
    """The fleet the defense sweep hardens, profile by profile."""
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        boards=FLEET_BOARDS, victims=DEFENSE_VICTIMS, wave_size=2, seed=seed
    )


# -- set-up ------------------------------------------------------------------


def setup_once(workload: str, seed: int, scratch: Path) -> float:
    """Do one workload's set-up in this process; returns seconds.

    Called by ``probe.py`` right after interpreter start, so the
    ``repro`` imports are part of what is timed.  Generating the
    workload's inputs (the spec) is not.
    """
    started = time.perf_counter()
    from repro.campaign import (
        CampaignRuntime,
        FabricCoordinator,
        prepare_offline,
    )

    if workload == "defense_sweep":
        from repro.defense.arena import prepare_weight_probe

        spec = defense_spec(seed)
        prepare_offline(spec)
        prepare_weight_probe(input_hw=spec.input_hw)
        return time.perf_counter() - started
    spec = campaign_spec(seed)
    prep = prepare_offline(spec)
    if workload == "campaign":
        CampaignRuntime(spec, scratch / "run", executor="inprocess", prep=prep)
        return time.perf_counter() - started
    coordinator = FabricCoordinator(spec, scratch / "run", prep=prep)
    coordinator.serve()
    elapsed = time.perf_counter() - started
    coordinator.close()
    return elapsed


def probe_setup(workload: str, seed: int, scratch: Path) -> list[float]:
    """``setup_s`` samples, each from a fresh interpreter."""
    samples = []
    for index in range(SETUP_SAMPLES):
        probe_dir = fresh_dir(scratch, f"probe{index}")
        completed = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({completed.returncode}): "
                f"{completed.stderr.strip()[-2000:]}"
            )
        samples.append(float(completed.stdout.split()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


# -- the timed loop ------------------------------------------------------------


@dataclass
class Iteration:
    """One timed operation batch: wall seconds, work done, failures."""

    wall: float
    victims: int
    dumps: int
    mib: float
    failed: int


def timed_loop(seconds: float, run_once, tracer=None) -> dict[bool, list]:
    """Repeat *run_once* for *seconds*; returns iterations by traced-ness.

    With a *tracer*, every second iteration runs with the layers
    wrapped, so traced and untraced iterations interleave under the
    same machine conditions and their difference prices the tracing.
    """
    from tracing import install_layers

    iterations: dict[bool, list[Iteration]] = {False: [], True: []}
    started = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - started < seconds
        or (tracer is not None and not iterations[True])
    ):
        traced = tracer is not None and index % 2 == 1
        if traced:
            install_layers(tracer)
        try:
            iterations[traced].append(run_once())
        finally:
            if traced:
                tracer.restore()
        index += 1
    return iterations


def clocked_loop(seconds: float, run_once, tracer=None):
    """:func:`timed_loop`, with every wave clocked when not traced."""
    if tracer is not None:
        return timed_loop(seconds, run_once, tracer), []
    with WaveClock() as clock:
        return timed_loop(seconds, run_once), clock.samples


class WaveClock:
    """Wall time of every board wave of the campaigns run inside it.

    A wave's latency runs from the moment its board starts the wave
    (``BoardWorker.iter_waves`` resumed) until the board hands the
    wave's outcomes on: what a board's consumer (the runtime's
    journal, a fabric worker's upload) waits for each time.  A run
    holds hundreds of waves, so their p50 and p99 are steady where
    those of a few whole campaigns are not.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "WaveClock":
        from repro.campaign.worker import BoardWorker

        self.original = original = BoardWorker.iter_waves
        samples = self.samples

        def iter_waves(worker, *args, **kwargs):
            waves = original(worker, *args, **kwargs)
            try:
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(waves)
                    except StopIteration:
                        return
                    samples.append(time.perf_counter() - started)
                    yield item
            finally:
                waves.close()

        BoardWorker.iter_waves = iter_waves
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.campaign.worker import BoardWorker

        BoardWorker.iter_waves = self.original


def throughput_metrics(iterations: list[Iteration],
                       waves: list[float]) -> dict:
    """victims/s, dumps/s, MiB/s over *iterations*; latency per wave."""
    wall = sum(item.wall for item in iterations)
    count = len(iterations)
    waves_ms = [seconds * 1000 for seconds in waves]
    return {
        "victims_per_s": (sum(i.victims for i in iterations) / wall, count),
        "dumps_per_s": (sum(i.dumps for i in iterations) / wall, count),
        "mib_per_s": (sum(i.mib for i in iterations) / wall, count),
        "latency_p50_ms": (statistics.median(waves_ms), len(waves_ms)),
        "latency_p99_ms": (percentile(waves_ms, 99), len(waves_ms)),
    }


def overhead_metrics(iterations: dict[bool, list], per: str) -> dict:
    """Traced minus untraced time per operation (ms and percent)."""

    def per_op(items):
        return statistics.median(
            item.wall / getattr(item, per) for item in items
        ) * 1000

    plain, traced = per_op(iterations[False]), per_op(iterations[True])
    samples = len(iterations[False]) + len(iterations[True])
    return {
        "trace.overhead_ms": (traced - plain, samples),
        "trace.overhead_pct": (100.0 * (traced - plain) / plain, samples),
    }


def leak_failures(outcomes) -> int:
    """Victims of the vulnerable fleet whose attack did not leak."""
    return sum(1 for o in outcomes if o.failed_step or not o.succeeded)


def outcome_counts(outcomes) -> dict:
    """Per-victim simulated counts read straight off the outcomes."""
    victims = max(len(outcomes), 1)
    return {
        "attack.devmem_reads": (
            sum(o.devmem_reads for o in outcomes) / victims, len(outcomes)),
        "attack.scraped_mib": (
            sum(o.nbytes for o in outcomes) / victims / MIB, len(outcomes)),
        "petalinux.frames_scrubbed_sync": (
            sum(o.frames_scrubbed_sync for o in outcomes) / victims,
            len(outcomes)),
    }


# -- campaign and campaign_fabric ---------------------------------------------


def offline_prep(spec, tracer):
    """``prepare_offline``, traced when the run is (for ``campaign.prep``)."""
    from repro.campaign import engine
    from tracing import install_layers

    if tracer is None:
        return engine.prepare_offline(spec)
    install_layers(tracer)
    try:
        return engine.prepare_offline(spec)
    finally:
        tracer.restore()


def run_runtime(spec, prep, run_dir: Path):
    """``repro campaign run``: one journaled, spooled campaign."""
    from repro.campaign import CampaignRuntime

    runtime = CampaignRuntime(spec, run_dir, executor="inprocess", prep=prep)
    started = time.perf_counter()
    report = runtime.run()
    wall = time.perf_counter() - started
    return report, wall, runtime.run_dir.report_path.read_bytes()


def run_fabric(spec, prep, run_dir: Path, scratch: Path):
    """The same campaign served to two worker threads over localhost.

    Timed from the first worker dial through ``close()``: the operator
    pays the coordinator's shutdown.
    """
    from repro.campaign import FabricCoordinator, FabricWorker

    spools = [fresh_dir(scratch, f"worker{index}")
              for index in range(FABRIC_WORKERS)]
    coordinator = FabricCoordinator(spec, run_dir, prep=prep)
    host, port = coordinator.serve()
    try:
        started = time.perf_counter()
        workers = [
            FabricWorker(
                host, port, worker_id=f"bench{index}", spool_dir=spool,
                poll_interval=None, heartbeat=False,
            )
            for index, spool in enumerate(spools)
        ]
        errors: list[BaseException] = []

        def work(worker) -> None:
            try:
                worker.run()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(worker,)) for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        report = coordinator.run_until_complete(timeout=120)
    finally:
        coordinator.close()
    wall = time.perf_counter() - started
    return report, wall, coordinator.run_dir.report_path.read_bytes()


def campaign_workload(seed, seconds, scratch, tracer, fabric: bool):
    """``campaign`` (fabric=False) or ``campaign_fabric`` (fabric=True).

    Before timing, the *other* path runs the same spec once; every
    timed report must be byte-identical to it.  That run also warms
    the process (scan tables, numpy), so the first timed iteration is
    not a cold one.
    """
    measurement = Measurement()
    if tracer is None:
        setup = probe_setup("campaign_fabric" if fabric else "campaign",
                            seed, scratch)
        measurement.metrics["setup_s"] = (statistics.median(setup), len(setup))
    spec = campaign_spec(seed)
    prep = offline_prep(spec, tracer)
    if fabric:
        _, _, reference = run_runtime(spec, prep, fresh_dir(scratch, "twin"))
    else:
        _, _, reference = run_fabric(
            spec, prep, fresh_dir(scratch, "twin"), scratch)
    shutil.rmtree(scratch / "twin")
    outcomes_seen = []

    def run_once() -> Iteration:
        run_dir = fresh_dir(scratch, "iteration") / "run"
        if fabric:
            report, wall, report_bytes = run_fabric(spec, prep, run_dir, scratch)
        else:
            report, wall, report_bytes = run_runtime(spec, prep, run_dir)
        if report_bytes != reference:
            raise Divergence(
                "report.json differs between the in-process runtime and "
                "the fabric for the same spec (or between repeats)"
            )
        shutil.rmtree(run_dir.parent)
        outcomes_seen.extend(report.outcomes)
        return Iteration(
            wall=wall,
            victims=report.victims,
            dumps=sum(1 for o in report.outcomes if o.nbytes),
            mib=sum(o.nbytes for o in report.outcomes) / MIB,
            failed=leak_failures(report.outcomes),
        )

    iterations, waves = clocked_loop(seconds, run_once, tracer)
    every = iterations[False] + iterations[True]
    measurement.attempted = sum(item.victims for item in every)
    measurement.failed = sum(item.failed for item in every)
    if tracer is None:
        measurement.metrics.update(
            throughput_metrics(iterations[False], waves))
        measurement.metrics["peak_rss_mib"] = (peak_rss_mib(), 1)
    else:
        measurement.metrics.update(overhead_metrics(iterations, "victims"))
        measurement.metrics.update(outcome_counts(outcomes_seen))
        measurement.notes["traced_ops"] = sum(
            item.victims for item in iterations[True])
    measurement.notes["report_bytes"] = len(reference)
    return measurement


# -- defense_sweep ------------------------------------------------------------


def defense_workload(seed, seconds, scratch, tracer):
    """``run_defense_arena`` over zero-on-free and pinned Xen.

    The arena preps offline inside every call; that prep is timed by
    wrapping the arena's own references to the prep functions and is
    subtracted, so victims/s excludes set-up like every workload.
    The arena's per-profile campaign reports are observed through its
    public ``summarize_run`` to check each victim.
    """
    import repro.defense.arena as arena
    from repro.campaign import engine

    measurement = Measurement()
    if tracer is None:
        setup = probe_setup("defense_sweep", seed, scratch)
        measurement.metrics["setup_s"] = (statistics.median(setup), len(setup))
    spec = defense_spec(seed)
    prep_seconds: list[float] = []
    reports: list = []
    prepare_weight_probe = arena.prepare_weight_probe
    summarize_run = arena.summarize_run

    def timed_prep(*args, **kwargs):
        started = time.perf_counter()
        try:
            return engine.prepare_offline(*args, **kwargs)
        finally:
            prep_seconds.append(time.perf_counter() - started)

    def timed_probe_prep(*args, **kwargs):
        started = time.perf_counter()
        try:
            return prepare_weight_probe(*args, **kwargs)
        finally:
            prep_seconds.append(time.perf_counter() - started)

    def observed_summary(profile, report, hook, match):
        reports.append((profile.name, report))
        return summarize_run(profile, report, hook, match)

    arena.prepare_offline = timed_prep
    arena.prepare_weight_probe = timed_probe_prep
    arena.summarize_run = observed_summary
    reference: list = []
    outcomes_seen: list = []

    def sweep() -> Iteration:
        prep_seconds.clear()
        reports.clear()
        started = time.perf_counter()
        matrix = arena.run_defense_arena(
            spec, DEFENSE_PROFILES, weight_theft=True)
        wall = time.perf_counter() - started - sum(prep_seconds)
        rows = {row.profile: row for row in matrix.rows}
        for row in matrix.rows:
            if row.residue_bytes or row.window_hit_rate:
                raise Divergence(f"{row.profile}: residue leaked")
            if row.identification_rate or row.image_recovery_rate:
                raise Divergence(f"{row.profile}: victim data recovered")
        pinned = rows["pinned_xen"]
        if pinned.bytes_scraped or pinned.weight_theft_match:
            raise Divergence("pinned_xen: bytes were scraped")
        failed = 0
        outcomes = []
        for profile, report in reports:
            for outcome in report.outcomes:
                refused = outcome.failed_step == "step 3 (extract)"
                if (profile == "pinned_xen") != refused:
                    failed += 1
            outcomes.extend(report.outcomes)
        # Simulated counts and row contents must repeat exactly.
        shape = [
            (o.job_id, o.failed_step, o.nbytes, o.devmem_reads, o.pages_read,
             o.residue_nbytes, o.frames_scrubbed_sync)
            for o in outcomes
        ] + [
            (row.profile, row.victims, row.bytes_scraped, row.residue_bytes,
             row.frames_scrubbed_sync, row.frames_scrubbed_async,
             row.scrub_backlog, row.weight_theft_match)
            for row in matrix.rows
        ]
        if not reference:
            reference.append(shape)
        elif shape != reference[0]:
            raise Divergence("defense sweep counts changed between repeats")
        outcomes_seen.extend(outcomes)
        probes = len(DEFENSE_PROFILES)
        return Iteration(
            wall=wall,
            victims=len(outcomes) + probes,
            dumps=sum(1 for o in outcomes if o.nbytes) + 1,
            mib=sum(o.nbytes for o in outcomes) / MIB,
            failed=failed,
        )

    sweep()  # warm-up; also pins the reference counts
    iterations, waves = clocked_loop(seconds, sweep, tracer)
    every = iterations[False] + iterations[True]
    measurement.attempted = sum(item.victims for item in every)
    measurement.failed = sum(item.failed for item in every)
    if tracer is None:
        measurement.metrics.update(
            throughput_metrics(iterations[False], waves))
        measurement.metrics["peak_rss_mib"] = (peak_rss_mib(), 1)
    else:
        measurement.metrics.update(overhead_metrics(iterations, "victims"))
        measurement.metrics.update(outcome_counts(outcomes_seen))
        measurement.notes["traced_ops"] = sum(
            item.victims for item in iterations[True])
    return measurement


# -- ingest -------------------------------------------------------------------


def section_mix_dump(mib: int, tokens: list[str], rng) -> bytes:
    """A multi-MiB dump with the section mix of a victim heap.

    Zeroed slack, quantized int8 weights, random runtime structures,
    metadata strings carrying one model's signature tokens, and a
    solid marker block, repeated; an odd tail exercises the partial
    trailing window.
    """
    import numpy as np

    text = b"".join(token.encode() + b"\x00" for token in tokens)
    text = (text * (48 * 1024 // max(len(text), 1) + 1))[: 48 * 1024]
    parts, size = [], 0
    while size < mib * MIB:
        for chunk in (
            bytes(256 * 1024),
            rng.integers(-12, 13, size=512 * 1024, dtype=np.int8).tobytes(),
            rng.integers(0, 256, size=192 * 1024, dtype=np.uint8).tobytes(),
            text,
            b"\xff" * (32 * 1024),
        ):
            parts.append(chunk)
            size += len(chunk)
    parts.append(rng.integers(0, 256, size=777, dtype=np.uint8).tobytes())
    return b"".join(parts)


def build_corpus(seed: int, scratch: Path):
    """The ingest corpus: distinct dumps plus the per-pass upload list.

    - the scraped dumps of one campaign per model of the default mix
      (``CORPUS_VICTIMS_PER_MODEL`` victims each, every dump unique);
    - a zero-on-free dump: the all-zero bytes a scrubbed heap of the
      largest model scrapes to, uploaded ``INGEST_ZERO_COPIES`` times
      per pass, so dedup and the zero fast path are exercised;
    - one multi-MiB section-mix dump per size in ``INGEST_LARGE_MIB``.
    """
    from dataclasses import replace

    import numpy as np

    from repro.campaign import DumpSpool, prepare_offline_cached, run_campaign

    spec = campaign_spec(seed)
    profiles, database = prepare_offline_cached(spec)
    vulnerable: list[bytes] = []
    for model in spec.model_mix:
        spool = DumpSpool(fresh_dir(scratch, "corpus"))
        run_campaign(
            replace(spec, model_mix=(model,),
                    victims=CORPUS_VICTIMS_PER_MODEL),
            profiles, database, executor="inprocess", spool=spool)
        vulnerable += [spool.read(digest) for digest in spool.digests()]
    shutil.rmtree(scratch / "corpus")
    rng = np.random.default_rng(seed)
    models = database.model_names()
    large = [
        section_mix_dump(
            mib, sorted(database.signature(models[index % len(models)]).tokens),
            rng)
        for index, mib in enumerate(INGEST_LARGE_MIB)
    ]
    zero = bytes(max(len(data) for data in vulnerable))
    distinct = vulnerable + [zero] + large
    per_pass = (
        list(range(len(vulnerable)))
        + [len(vulnerable)] * INGEST_ZERO_COPIES
        + [len(vulnerable) + 1 + index for index in range(len(large))]
    )
    return distinct, per_pass, database


def check_reference_twins(distinct: list[bytes], database) -> None:
    """Fast map_dump and match must equal their reference twins."""
    from repro.analysis.reference import reference_map_dump, reference_match
    from repro.service.analysis import CARVE_PRESETS

    cartographer = CARVE_PRESETS["default"].cartographer()
    for index, data in enumerate(distinct):
        if cartographer.map_dump(data) != reference_map_dump(data):
            raise Divergence(f"corpus dump {index}: map_dump diverged")
        if database.match(data) != reference_match(database, data):
            raise Divergence(f"corpus dump {index}: match diverged")


class Daemon:
    """The analysis daemon in its own process (``daemon.py``)."""

    def __init__(self, scratch: Path, name: str, trace: bool) -> None:
        self.dir = fresh_dir(scratch, name)
        command = [sys.executable, str(HERE / "daemon.py"),
                   "--spool", str(self.dir / "spool"),
                   "--report", str(self.dir / "report.json")]
        if trace:
            command += ["--spans", str(self.dir / "spans.jsonl")]
        self.draining = False
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "TMPDIR": str(self.dir)},
        )
        banner = self.process.stdout.readline().split()
        self.setup_s = time.perf_counter() - started
        if not banner or banner[0] != "listening":
            self.process.kill()
            self.process.wait()
            raise RuntimeError("analysis daemon did not start")
        self.host, self.port = banner[1], int(banner[2])

    def drain(self) -> None:
        """Ask the daemon to drain (SIGTERM), once."""
        if not self.draining:
            self.draining = True
            self.process.send_signal(signal.SIGTERM)

    def stop(self) -> dict:
        """Drain, wait, and return the daemon's exit record."""
        self.drain()
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(
                f"analysis daemon exited with {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])


async def drive_ingest(daemon, distinct, per_pass, seed, seconds):
    """One uploader and one subscriber connection, closed loop.

    The uploader keeps ``INGEST_IN_FLIGHT`` dumps in flight; a dump's
    latency runs from sending ``put_dump`` until its delta arrives on
    the subscription.  Each pass over the corpus is shuffled from the
    seed.  No pass starts after *seconds*; once the in-flight dumps
    land, the daemon is told to drain and the subscription ends.
    """
    import numpy as np

    from repro.service.client import AsyncServiceClient

    rng = np.random.default_rng(seed + 1)
    loop = asyncio.get_running_loop()
    results: dict[int, asyncio.Future] = {}
    subscriber = await AsyncServiceClient.connect(daemon.host, daemon.port)
    uploader = await AsyncServiceClient.connect(daemon.host, daemon.port)
    deltas: list[dict] = []
    stream = subscriber.subscribe()

    async def listen() -> None:
        async for event in stream:
            if event.get("event") in ("delta", "job_failed"):
                deltas.append(event)
                future = results.setdefault(
                    event["job_id"], loop.create_future())
                future.set_result((time.perf_counter(), event))

    # A delta published before the subscription registers still
    # arrives: the daemon replays its backlog to new subscribers.
    listener = asyncio.create_task(listen())
    slots = asyncio.Semaphore(INGEST_IN_FLIGHT)
    latencies: list[float] = []
    stats = {"attempted": 0, "failed": 0, "dumps": 0, "bytes": 0}
    finishers: list[asyncio.Task] = []

    async def finish(job_id: int, sent: float, nbytes: int) -> None:
        try:
            arrived, event = await asyncio.wait_for(
                results.setdefault(job_id, loop.create_future()),
                JOB_TIMEOUT_S)
        except asyncio.TimeoutError:
            stats["failed"] += 1
        else:
            if event["event"] == "delta":
                latencies.append(arrived - sent)
                stats["dumps"] += 1
                stats["bytes"] += nbytes
            else:
                stats["failed"] += 1
        finally:
            slots.release()

    # Whole passes only: every pass carries the same mix of small,
    # zero and multi-MiB dumps, so cutting one short would make the
    # measured mix depend on where the clock ran out.
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for index in rng.permutation(per_pass):
            data = distinct[index]
            await slots.acquire()
            stats["attempted"] += 1
            sent = time.perf_counter()
            stored = await uploader.put_dump(INGEST_TENANT, data)
            job = stored.get("ok") and await uploader.request(
                "submit", tenant=INGEST_TENANT, sha256=stored["sha256"])
            if not job or not job.get("ok"):
                stats["failed"] += 1
                slots.release()
                continue
            finishers.append(asyncio.create_task(
                finish(job["job_id"], sent, len(data))))
    await asyncio.gather(*finishers)
    window = time.perf_counter() - started
    await uploader.close()
    daemon.drain()
    await asyncio.wait_for(listener, JOB_TIMEOUT_S)
    await subscriber.close()
    return deltas, latencies, stats, window


def ingest_session(scratch, name, distinct, per_pass, seed, seconds,
                   tracer=None):
    """Start a daemon, drive it for *seconds*, drain it, collect.

    With a *tracer*, the daemon traces its own layers into a spans
    file and this process traces the client side.
    """
    from tracing import install_layers

    daemon = Daemon(scratch, name, trace=tracer is not None)
    try:
        if tracer is not None:
            install_layers(tracer)
        try:
            deltas, latencies, stats, window = asyncio.run(drive_ingest(
                daemon, distinct, per_pass, seed, seconds))
        finally:
            if tracer is not None:
                tracer.restore()
        record = daemon.stop()
    except BaseException:
        if daemon.process.poll() is None:
            daemon.process.kill()
            daemon.process.wait()
        raise
    return {
        "setup_s": daemon.setup_s, "deltas": deltas, "latencies": latencies,
        "stats": stats, "window": window, "daemon": record,
        "daemon_report": (daemon.dir / "report.json").read_text(),
        "spans": daemon.dir / "spans.jsonl" if tracer is not None else None,
    }


def ingest_workload(seed, seconds, scratch, tracer):
    """The analysis daemon ingesting seed-generated campaign dumps."""
    from tracing import read_spans

    from repro.service.analysis import (
        AnalysisConfig,
        AnalysisReport,
        DumpAnalysis,
        analyze_dump,
    )

    measurement = Measurement()
    distinct, per_pass, database = build_corpus(seed, scratch)
    check_reference_twins(distinct, database)
    batch = AnalysisReport()
    config = AnalysisConfig(database=database)
    for data in distinct:
        batch.add(analyze_dump(data, config))
    expected = batch.to_json()

    sessions = []
    if tracer is None:
        setup = []
        for index in range(SETUP_SAMPLES - 1):
            daemon = Daemon(scratch, f"probe{index}", trace=False)
            setup.append(daemon.setup_s)
            daemon.stop()
        sessions.append(ingest_session(
            scratch, "daemon", distinct, per_pass, seed, seconds))
        setup.append(sessions[0]["setup_s"])
        measurement.metrics["setup_s"] = (statistics.median(setup), len(setup))
    else:
        for traced in (False, True):
            sessions.append(ingest_session(
                scratch, f"daemon{int(traced)}", distinct, per_pass, seed,
                seconds / 2, tracer if traced else None))

    for session in sessions:
        streamed = AnalysisReport()
        for event in session["deltas"]:
            if event["event"] == "delta":
                streamed.add(DumpAnalysis.from_payload(event["analysis"]))
        # Every session uploads whole passes, so it covers the corpus.
        if streamed.to_json() != expected:
            raise Divergence("streamed deltas differ from batch analyze_dump")
        if session["daemon_report"] != expected:
            raise Divergence("daemon's final report differs from its deltas")
        stats = session["stats"]
        measurement.attempted += stats["attempted"]
        measurement.failed += stats["failed"]
    measurement.notes["corpus_distinct"] = len(distinct)
    measurement.notes["corpus_per_pass"] = len(per_pass)

    if tracer is None:
        session = sessions[0]
        stats, latencies = session["stats"], session["latencies"]
        window = session["window"]
        samples = len(latencies)
        measurement.metrics.update({
            "victims_per_s": (stats["dumps"] / window, samples),
            "dumps_per_s": (stats["dumps"] / window, samples),
            "mib_per_s": (stats["bytes"] / MIB / window, samples),
            "latency_p50_ms": (statistics.median(latencies) * 1000, samples),
            "latency_p99_ms": (percentile(latencies, 99) * 1000, samples),
            "peak_rss_mib": (
                peak_rss_mib() + session["daemon"]["peak_rss_mib"], 2),
        })
    else:
        plain, traced = sessions
        per_dump = [s["window"] / max(s["stats"]["dumps"], 1) * 1000
                    for s in sessions]
        samples = plain["stats"]["dumps"] + traced["stats"]["dumps"]
        measurement.metrics["trace.overhead_ms"] = (
            per_dump[1] - per_dump[0], samples)
        measurement.metrics["trace.overhead_pct"] = (
            100.0 * (per_dump[1] - per_dump[0]) / per_dump[0], samples)
        measurement.notes["traced_ops"] = traced["stats"]["dumps"]
        measurement.process_spans.append(read_spans(traced["spans"]))
    return measurement
