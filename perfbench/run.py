"""Serve-path benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Measures ``instameasure serve`` -- the path a user runs -- on one workload
(see ``perfbench/workloads.py`` and ``perfbench/README.md``):

* ``--trace 0`` launches ``python -m repro serve`` as a child process for
  each daemon lifetime, feeds it from a separate generator process
  (``perfbench/load.py``) and reports the end-to-end metrics;
* ``--trace 1`` drives an in-process ``MeasurementDaemon`` with the same
  arguments, alternating untraced and traced lifetimes, and reports the
  per-layer metrics, the tracing overhead and the unattributed share.

Every lifetime's served estimates are compared with a scalar-engine
reference; a mismatch fails the run (exit 1).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from load import ControlClient

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LOAD = Path(__file__).resolve().parent / "load.py"

#: Mean operator think time between control requests (all workloads).
THINK_MS = 1.0

#: The printed latency tail.  A p99 needs 1000 samples (ten beyond it),
#: and the closed-loop workloads yield only ~30-80 answers per second
#: because each request waits out a step; the p95 has ten beyond it at
#: 200.  Query latency and the staleness tail are printed, not scored:
#: they swing with the host's speed by more than a regression bound can
#: absorb (see README).  The p99 is printed too when a run has the
#: samples.
TAIL = 95
MIN_SAMPLES = 200

#: Stop starting lifetimes this long into a run, even if short of
#: samples: the whole run must end well inside 180 s.
HARD_CAP_SECONDS = 120.0

#: Generous per-step timeout (a stuck daemon fails the run, not hangs it).
STEP_TIMEOUT = 60.0

#: The open loop is invalid when its p99 send ran later than this: the
#: generator fell behind its schedule instead of hiccuping once.
MAX_LATENESS_P99_MS = 20.0


class BenchError(Exception):
    """The run cannot be scored (environment or protocol failure)."""


# -- small helpers ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def median(values) -> float:
    return percentile(values, 50)


def control(client: ControlClient, line: str):
    """One control request whose ``err`` reply fails the run."""
    ok, payload = client.request(line)
    if not ok:
        raise BenchError(f"control {line!r} answered {payload!r}")
    return payload


class Child:
    """A child process whose stdout lines are read by a helper thread."""

    def __init__(self, argv, env=None, stdin=False) -> None:
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.stderr: "list[str]" = []
        threading.Thread(target=self._pump, daemon=True).start()
        threading.Thread(target=self._drain_stderr, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip("\n"))

    def next_line(self, timeout: float = STEP_TIMEOUT) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(
                f"{self.proc.args[:4]} gave no output in {timeout}s"
            ) from None
        if line is None:
            self.proc.wait(timeout=10)
            raise BenchError(
                f"{self.proc.args[:4]} exited {self.proc.returncode}: "
                + " | ".join(self.stderr[-5:])
            )
        return line

    def wait_prefix(self, prefix: str) -> str:
        while True:
            line = self.next_line()
            if line.startswith(prefix):
                return line

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def event(self, name: str) -> dict:
        while True:
            message = json.loads(self.next_line())
            if message.get("event") == name:
                return message

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def compare(served: dict, reference: dict) -> int:
    """Flows whose served estimate differs from the reference (or is
    missing on either side)."""
    keys = set(served) | set(reference)
    return sum(1 for key in keys if served.get(key) != reference.get(key))


# -- one run -------------------------------------------------------------------


class Run:
    def __init__(self, workload, inputs, directory: Path, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.directory = directory
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.lifetimes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.samples: "dict[str, list[float]]" = {
            "query_ms": [],
            "staleness_ms": [],
            "lateness_ms": [],
        }

    # -- shared pieces ---------------------------------------------------------

    def fresh_capture(self, index: int) -> "tuple[Path, Path]":
        from workloads import write_capture

        life = self.directory / f"life{index}"
        shutil.rmtree(life, ignore_errors=True)
        life.mkdir(parents=True)
        capture = life / "capture.impl"
        write_capture(capture)
        return capture, life / "checkpoints"

    def start_generator(self, capture: Path) -> "tuple[Child, int | None]":
        argv = [sys.executable, str(LOAD), "--stream", self.inputs.stream_path]
        argv += ["--think-ms", str(THINK_MS), "--seed", str(self.seed)]
        argv += ["--keys", ",".join(str(key) for key in self.inputs.keys)]
        if self.workload.feed == "tcp":
            argv += ["--mode", "tcp", "--rate", str(self.workload.rate)]
        else:
            argv += ["--mode", "file", "--capture", str(capture)]
        generator = Child(argv, stdin=True)
        return generator, generator.event("ready")["port"]

    def absorb(self, result: dict) -> None:
        """Fold one generator's samples and counts into the run."""
        self.samples["query_ms"] += result["query_ms"]
        self.samples["staleness_ms"] += result["staleness_ms"]
        self.samples["lateness_ms"] += result["lateness_ms"]
        self.attempted += result["requests"]
        self.failed += result["failed_requests"]

    def check(self, served: dict) -> None:
        wrong = compare(served, self.inputs.reference)
        self.mismatched += wrong
        self.failed += wrong
        self.attempted += max(len(self.inputs.reference), 1)

    def count_packets(self, served: int) -> None:
        """Score the measured stream: its whole chunks.  The partial last
        chunk is cut only when the daemon stops, and a stop does not wait
        for records still in flight, so it is outside the measurement."""
        self.attempted += self.inputs.aligned
        self.failed += max(0, self.inputs.aligned - served)

    def enough_samples(self) -> bool:
        return (
            len(self.samples["query_ms"]) >= MIN_SAMPLES
            and len(self.samples["staleness_ms"]) >= MIN_SAMPLES
        )


class ServeRun(Run):
    """End-to-end lifetimes of ``python -m repro serve`` child processes."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ingest_pps: "list[float]" = []
        self.setup_s: "list[float]" = []
        self.recover_s: "list[float]" = []
        self.peak_rss_mb: "list[float]" = []

    def spawn(
        self, source: str, checkpoints: Path
    ) -> "tuple[Child, ControlClient, float]":
        """Start serve; returns it, a control client and the seconds from
        spawn until ``ping`` answered."""
        argv = [sys.executable, "-m", "repro", "serve"]
        argv += self.workload.serve_args(source, str(checkpoints))
        begin = time.monotonic()
        daemon = Child(argv, env=self.env)
        client = ControlClient(daemon.wait_prefix("control ").split()[1])
        control(client, "ping")
        return daemon, client, time.monotonic() - begin

    def warm_up(self) -> None:
        """One untimed start/stop: compiled modules and the page cache are
        warm for every timed lifetime, as on a host that runs serve."""
        capture, _ = self.fresh_capture(0)
        argv = [sys.executable, "-m", "repro", "serve", str(capture), "--follow"]
        daemon = Child(argv + ["--control-port", "0"], env=self.env)
        try:
            client = ControlClient(daemon.wait_prefix("control ").split()[1])
            control(client, "ping")
            control(client, "stop")
            client.close()
            daemon.wait_prefix("served ")
        finally:
            daemon.kill()
            shutil.rmtree(capture.parent)

    def lifetime(self) -> None:
        inputs, workload = self.inputs, self.workload
        self.lifetimes += 1
        capture, checkpoints = self.fresh_capture(self.lifetimes)
        generator, port = self.start_generator(capture)
        daemons: "list[Child]" = []
        try:
            source = f"tcp://127.0.0.1:{port}" if port is not None else str(capture)
            daemon, client, setup = self.spawn(source, checkpoints)
            daemons.append(daemon)
            ready = time.monotonic()
            rss = []
            if inputs.crash_at is not None:
                generator.send(
                    {"cmd": "serve", "addr": client.addr, "upto": inputs.crash_at,
                     "until": inputs.crash_at}
                )
                generator.event("reached")
                rss.append(daemon.peak_rss_mb())
                client.close()
                daemon.kill()  # SIGKILL
                daemon, client, recover = self.spawn(source, checkpoints)
                daemons.append(daemon)
                daemon.wait_prefix("recovered from checkpoint")
                self.recover_s.append(recover)
            generator.send(
                {"cmd": "serve", "addr": client.addr, "upto": inputs.total,
                 "until": inputs.aligned}
            )
            end = generator.event("reached")["t_end"]
            rss.append(daemon.peak_rss_mb())
            served = {
                int(key): (packets, bytes_)
                for key, packets, bytes_ in control(client, "top 1000000000")
            }
            self.check(served)
            control(client, "stop")
            client.close()
            summary = daemon.wait_prefix("served ")
            self.count_packets(int(summary.split()[1].replace(",", "")))
            generator.send({"cmd": "finish"})
            self.absorb(generator.event("result"))
            self.ingest_pps.append(inputs.aligned / (end - ready))
            self.setup_s.append(setup)
            self.peak_rss_mb.append(max(rss))
        finally:
            for child in daemons + [generator]:
                child.kill()
            shutil.rmtree(capture.parent)

    def metrics(self) -> dict:
        return {
            "ingest_pps": (median(self.ingest_pps), "pkt/s"),
            "setup_s": (median(self.setup_s), "s"),
            "peak_rss_mb": (median(self.peak_rss_mb), "MiB"),
            "staleness_p50_ms": (percentile(self.samples["staleness_ms"], 50), "ms"),
        }

    def notes(self) -> "list[str]":
        lines = [
            f"lifetimes {self.lifetimes}: ingest_pps {_spread(self.ingest_pps)}",
            f"setup_s per lifetime {_spread(self.setup_s)}",
        ]
        for name in ("query_ms", "staleness_ms"):
            values = self.samples[name]
            line = (
                f"{name}: n={len(values)}, p50 {median(values):.4g} ms, "
                f"p{TAIL} {percentile(values, TAIL):.4g} ms"
            )
            if len(values) >= 1000:  # ten samples beyond the p99
                line += f", p99 {percentile(values, 99):.4g} ms"
            lines.append(line)
        if self.recover_s:
            lines.append(
                f"recover_s {median(self.recover_s):.4f} s "
                f"(n={len(self.recover_s)}, restart after SIGKILL)"
            )
        return lines


class TracedRun(Run):
    """In-process daemon lifetimes, alternately untraced and traced."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from tracing import Tracer, install_layers

        self.tracer = Tracer()
        install_layers(self.tracer)
        self.pps = {False: [], True: []}
        self.traced: "list[dict]" = []

    def start_daemon(self, capture, port, checkpoints):
        from repro.pipeline import PacketRecordChunkSource, SocketChunkSource
        from repro.service import ControlServer, MeasurementDaemon
        from workloads import CHUNK

        workload = self.workload
        if port is not None:
            source = SocketChunkSource("127.0.0.1", port, chunk_size=CHUNK)
        else:
            source = PacketRecordChunkSource(
                str(capture), chunk_size=CHUNK, follow=True
            )
        daemon = MeasurementDaemon(
            source,
            config=workload.engine_config(),
            num_shards=workload.shards,
            checkpoint_dir=(
                str(checkpoints) if workload.checkpoint_every is not None else None
            ),
            checkpoint_every=workload.checkpoint_every or 50,
            load_policy="none",
        )
        daemon.start()
        return daemon, ControlServer(daemon, port=0)

    def stop_daemon(self, daemon, server) -> None:
        daemon.stop()
        if not daemon.wait(timeout=STEP_TIMEOUT):
            raise BenchError("in-process daemon did not stop")
        server.close()
        if daemon.error is not None:
            raise BenchError(f"ingest failed: {daemon.error!r}")

    def lifetime(self, traced: bool) -> None:
        from repro.pipeline import ShardedStreamingMeasurer
        from repro.service import CheckpointStore

        inputs, workload, tracer = self.inputs, self.workload, self.tracer
        self.lifetimes += 1
        capture, checkpoints = self.fresh_capture(self.lifetimes)
        generator, port = self.start_generator(capture)
        gc.collect()
        windows, replayed = [], 0
        running = []  # every in-process daemon, stopped on any exit
        try:
            tracer.enabled = traced
            daemon, server = self.start_daemon(capture, port, checkpoints)
            running.append((daemon, server))
            ready = time.monotonic_ns()
            if inputs.crash_at is not None:
                generator.send(
                    {"cmd": "serve", "addr": _addr(server), "upto": inputs.crash_at,
                     "until": inputs.crash_at}
                )
                crashed = int(generator.event("reached")["t_end"] * 1e9)
                windows.append((ready, crashed))
                # What a SIGKILL leaves: the checkpoints written so far.
                survived = checkpoints.with_name("survived")
                shutil.copytree(checkpoints, survived)
                tracer.enabled = False  # the clean stop below is not measured
                self.stop_daemon(daemon, server)
                shutil.rmtree(checkpoints)
                survived.rename(checkpoints)
                replayed = inputs.crash_at - int(
                    CheckpointStore(checkpoints).latest().meta["position"]
                )
                tracer.enabled = traced
                ready = time.monotonic_ns()
                daemon, server = self.start_daemon(capture, port, checkpoints)
                running.append((daemon, server))
            generator.send(
                {"cmd": "serve", "addr": _addr(server), "upto": inputs.total,
                 "until": inputs.aligned}
            )
            end = int(generator.event("reached")["t_end"] * 1e9)
            windows.append((ready, end))
            tracer.enabled = False
            self.check(daemon.measurer.estimates())
            load_factor = daemon.measurer.wsaf_size / (
                (1 << workload.wsaf_bits) * workload.shards
            )
            if workload.checkpoint_every is None:
                # No checkpoint runs in the stream: checkpoint and restore
                # the final state once (outside the timed windows) so the
                # snapshot and checkpoint layers are measured here too.
                tracer.enabled = traced
                store = CheckpointStore(checkpoints)
                store.save(daemon.measurer.snapshot_shards(), meta={})
                ShardedStreamingMeasurer.from_snapshots(store.load(store.latest()))
                tracer.enabled = False
            self.stop_daemon(daemon, server)
            self.count_packets(daemon.packets)
            generator.send({"cmd": "finish"})
            self.absorb(generator.event("result"))
        finally:
            tracer.enabled = False
            for daemon, server in running:
                daemon.stop()
                daemon.wait(timeout=STEP_TIMEOUT)
                server.close()
            generator.kill()
            shutil.rmtree(capture.parent)
        wall = sum(hi - lo for lo, hi in windows) / 1e9
        self.pps[traced].append(inputs.aligned / wall)
        if traced:
            self.traced.append(
                {
                    "windows": windows,
                    "packets": inputs.aligned,
                    "load_factor": load_factor,
                    "replayed": replayed,
                }
            )

    def metrics(self) -> dict:
        from tracing import layer_metrics

        metrics = layer_metrics(self.tracer.spans, self.traced)
        overhead = median(self.pps[False]) / median(self.pps[True]) - 1.0
        metrics["trace.overhead"] = (overhead, "ratio")
        return metrics

    def notes(self) -> "list[str]":
        return [
            f"untraced ingest_pps {_spread(self.pps[False])}",
            f"traced ingest_pps {_spread(self.pps[True])}",
            f"spans recorded: {len(self.tracer.spans)}",
        ]


def _addr(server) -> str:
    host, port = server.address
    return f"{host}:{port}"


def _spread(values) -> str:
    if not values:
        return "n=0"
    return (
        f"median {median(values):.6g} min {min(values):.6g} "
        f"max {max(values):.6g} n={len(values)}"
    )


# -- entry point -----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="serve-path benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC} to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, build_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    directory = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    stamp = provenance()
    print(f"provenance {json.dumps(stamp)}")
    print(f"workload {workload.name}: {workload.why}")
    started = time.monotonic()
    inputs = build_inputs(workload, args.seed, str(directory))
    print(
        f"inputs: {inputs.total:,} packets ({inputs.aligned:,} in whole chunks), "
        f"{len(inputs.reference):,} reference flows, "
        f"built in {time.monotonic() - started:.1f} s"
    )

    try:
        if args.trace:
            run = TracedRun(workload, inputs, directory, args.seed)
            begin = time.monotonic()
            traced = False
            while True:
                run.lifetime(traced)
                traced = not traced
                elapsed = time.monotonic() - begin
                both = run.traced and run.pps[False]
                if both and elapsed >= min(args.seconds, HARD_CAP_SECONDS):
                    break
            run.tracer.uninstall()
            run.tracer.dump(str(directory / "spans.jsonl"))
        else:
            run = ServeRun(workload, inputs, directory, args.seed)
            run.warm_up()
            begin = time.monotonic()
            while True:
                run.lifetime()
                elapsed = time.monotonic() - begin
                if elapsed >= args.seconds and run.enough_samples():
                    break
                if elapsed >= HARD_CAP_SECONDS:
                    break
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        os.remove(inputs.stream_path)

    lateness = run.samples["lateness_ms"]
    if lateness:
        print(
            f"generator lateness: p50 {percentile(lateness, 50):.3f} ms, "
            f"p99 {percentile(lateness, 99):.3f} ms, max {max(lateness):.3f} ms"
        )
        if percentile(lateness, 99) > MAX_LATENESS_P99_MS:
            print(
                "error: the open-loop generator fell behind its schedule; "
                "the run is invalid",
                file=sys.stderr,
            )
            return 3
    if not args.trace and not run.enough_samples():
        print(
            f"error: fewer than {MIN_SAMPLES} query or staleness samples; "
            f"no p{TAIL} can be reported",
            file=sys.stderr,
        )
        return 3

    for line in run.notes():
        print(line)
    metrics = run.metrics()
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    correct = run.mismatched == 0
    if not correct:
        print(f"MISMATCH: {run.mismatched} flows differ from the scalar reference")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (directory / "result.json").write_text(
        json.dumps(
            dict(
                result,
                provenance=stamp,
                workload=workload.name,
                seed=args.seed,
                samples=run.samples,
            )
        )
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
