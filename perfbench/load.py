"""Load generator for the serve-path benchmark (a separate process).

It plays the two outside parties a running ``instameasure serve`` has:

* the **feeder**, which delivers packet records -- by appending them to
  the capture the daemon tails (closed loop: everything is written at
  once and the daemon drains it as fast as it can), or by streaming them
  over TCP on a fixed schedule (open loop: record ``i`` is due at
  ``t0 + i / rate`` whether or not the daemon keeps up);
* the **operator**, one control client on a persistent connection that
  alternates ``query <key>`` and ``stats`` with a think time drawn
  uniformly from ``[0, 2 * think]`` (seeded): a constant pause would
  phase-lock the requests to the daemon's chunk steps, so that one verb
  always waits out a step and the other never does.

The process uses at most two threads (the open-loop feeder and the
operator) and only the standard library, so it starts fast and competes
little with the daemon.  It is driven over stdin/stdout, one JSON object
per line:

    <- {"event": "ready", "port": P}   (P: the feed's listening port, tcp mode)
    -> {"cmd": "serve", "addr": "H:P", "upto": K, "until": U}
       deliver records [previous, K), run the operator against the
       daemon at H:P until ``stats`` reports position >= U
    <- {"event": "reached", "position": ..., "t_end": ...}
    -> {"cmd": "finish"}
    <- {"event": "result", ...samples...}

All times are ``time.monotonic()``, the system-wide monotonic clock, so
the orchestrating process can compare them with its own.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import threading
import time

#: pcap-lite geometry (see ``repro.traffic.pcaplite``): a 16-byte header,
#: then fixed 24-byte records.
HEADER_BYTES = 16
RECORD_BYTES = 24

#: A control request not answered within this many seconds is a failure.
REQUEST_TIMEOUT = 10.0

#: Open-loop send granularity: the feeder wakes this often and sends
#: every record that has come due.
SEND_TICK = 0.001


class ControlClient:
    """Line-protocol client on one persistent connection."""

    def __init__(self, addr: str) -> None:
        self.addr = addr
        host, _, port = addr.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=REQUEST_TIMEOUT)
        self.stream = self.sock.makefile("rwb")

    def request(self, line: str):
        """Send one request; returns ``(ok, payload)``."""
        self.stream.write(line.encode("ascii") + b"\n")
        self.stream.flush()
        reply = self.stream.readline().decode("utf-8", "replace").strip()
        if reply.startswith("ok "):
            return True, json.loads(reply[3:])
        return False, reply

    def close(self) -> None:
        try:
            self.stream.close()
            self.sock.close()
        except OSError:
            pass


class Generator:
    def __init__(self, args: argparse.Namespace) -> None:
        with open(args.stream, "rb") as handle:
            self.header = handle.read(HEADER_BYTES)
            self.blob = handle.read()
        self.total = len(self.blob) // RECORD_BYTES
        self.mode = args.mode
        self.capture = args.capture
        self.rate = args.rate
        self.think = args.think_ms / 1e3
        self.rng = random.Random(args.seed)
        self.keys = [int(key) for key in args.keys.split(",")]
        self.delivered = 0
        # Due time of each delivered span, as (end_record, due) for the
        # closed loop (every record of an append is due when it lands).
        self.appends: "list[tuple[int, float]]" = []
        self.t0: "float | None" = None  # open-loop schedule origin
        self.query_ms: "list[float]" = []
        self.stats_ms: "list[float]" = []
        self.staleness_ms: "list[float]" = []
        self.lateness_ms: "list[float]" = []
        self.requests = 0
        self.failed_requests = 0
        self.listener: "socket.socket | None" = None
        self.feed: "socket.socket | None" = None
        if self.mode == "tcp":
            self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.listener.bind(("127.0.0.1", 0))
            self.listener.listen(1)

    # -- due times -------------------------------------------------------------

    def due(self, record: int) -> float:
        """When record ``record`` was due at the daemon."""
        if self.mode == "tcp":
            return self.t0 + record / self.rate
        for end, due in self.appends:
            if record < end:
                return due
        raise ValueError(f"record {record} was never delivered")

    # -- feeders ---------------------------------------------------------------

    def append(self, upto: int) -> None:
        with open(self.capture, "ab") as handle:
            due = time.monotonic()
            handle.write(self.blob[self.delivered * RECORD_BYTES : upto * RECORD_BYTES])
        self.appends.append((upto, due))
        self.delivered = upto

    def paced(self, upto: int) -> None:
        """Send records on the fixed schedule until ``upto`` are out."""
        sent = self.delivered
        while sent < upto:
            now = time.monotonic()
            due_count = min(upto, int((now - self.t0) * self.rate) + 1)
            if due_count > sent:
                # Lateness: how long the oldest record of this send was
                # already due when it went out.
                self.lateness_ms.append((now - self.due(sent)) * 1e3)
                self.feed.sendall(
                    self.blob[sent * RECORD_BYTES : due_count * RECORD_BYTES]
                )
                sent = due_count
            time.sleep(SEND_TICK)
        self.delivered = upto

    # -- the operator ------------------------------------------------------------

    def operate(self, addr: str, until: int) -> "tuple[int, float]":
        """Alternate query/stats until stats shows ``until`` packets."""
        client = ControlClient(addr)
        turn = 0
        try:
            while True:
                if turn % 2 == 0:
                    line = f"query {self.keys[(turn // 2) % len(self.keys)]}"
                else:
                    line = "stats"
                turn += 1
                self.requests += 1
                sent = time.monotonic()
                try:
                    ok, payload = client.request(line)
                except (OSError, ValueError):
                    ok, payload = False, None
                got = time.monotonic()
                if not ok:
                    self.failed_requests += 1
                    client.close()
                    client = ControlClient(addr)
                    continue
                if line == "stats":
                    self.stats_ms.append((got - sent) * 1e3)
                    position = int(payload["position"])
                    if position > 0:
                        self.staleness_ms.append((got - self.due(position - 1)) * 1e3)
                    if position >= until:
                        return position, got
                else:
                    self.query_ms.append((got - sent) * 1e3)
                time.sleep(self.rng.uniform(0.0, 2.0 * self.think))
        finally:
            client.close()

    # -- commands ----------------------------------------------------------------

    def serve(self, addr: str, upto: int, until: int) -> dict:
        feeder = None
        if self.mode == "file":
            self.append(upto)
        else:
            if self.feed is None:
                self.feed, _ = self.listener.accept()
                self.feed.sendall(self.header)
            if self.t0 is None:
                self.t0 = time.monotonic()
            feeder = threading.Thread(target=self.paced, args=(upto,), daemon=True)
            feeder.start()
        position, t_end = self.operate(addr, until)
        if feeder is not None:
            feeder.join()
        return {"event": "reached", "position": position, "t_end": t_end}

    def result(self) -> dict:
        return {
            "event": "result",
            "query_ms": self.query_ms,
            "stats_ms": self.stats_ms,
            "staleness_ms": self.staleness_ms,
            "lateness_ms": self.lateness_ms,
            "requests": self.requests,
            "failed_requests": self.failed_requests,
            "delivered": self.delivered,
        }

    def close(self) -> None:
        for sock in (self.feed, self.listener):
            if sock is not None:
                sock.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["file", "tcp"], required=True)
    parser.add_argument("--stream", required=True, help="pcap-lite file to deliver")
    parser.add_argument("--capture", help="capture the daemon tails (file mode)")
    parser.add_argument("--rate", type=float, help="open-loop packets/s (tcp mode)")
    parser.add_argument("--think-ms", type=float, required=True, help="mean")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keys", required=True, help="comma-separated key64s")
    args = parser.parse_args()

    generator = Generator(args)

    def emit(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    try:
        listener = generator.listener
        port = listener.getsockname()[1] if listener else None
        emit({"event": "ready", "port": port})
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "serve":
                emit(
                    generator.serve(command["addr"], command["upto"], command["until"])
                )
            elif command["cmd"] == "finish":
                emit(generator.result())
                return 0
    finally:
        generator.close()
    return 1


if __name__ == "__main__":
    sys.exit(main())
