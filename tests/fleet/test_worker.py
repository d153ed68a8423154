"""The worker serve loop on an in-process socketpair (no subprocess)."""

from __future__ import annotations

import socket
import threading

import repro.campaign.scheduler as scheduler
from repro.campaign.units import enumerate_units
from repro.fleet.frames import FrameStream
from repro.fleet.worker import Worker


def _next_result(stream: FrameStream):
    while True:
        kind, payload = stream.recv(timeout=10.0)
        if kind != "heartbeat":
            return kind, payload


def test_oversized_result_fails_the_unit_not_the_worker(monkeypatch):
    real = scheduler.execute_unit
    monkeypatch.setattr(
        scheduler, "execute_unit",
        lambda unit: b"x" * 4096 if unit.label.endswith("#big")
        else real(unit),
    )
    big, small = enumerate_units(["sleep:0#big", "sleep:0#small"])
    ours, theirs = socket.socketpair()
    exit_code = []
    thread = threading.Thread(
        target=lambda: exit_code.append(
            Worker(max_frame_bytes=1024).run(theirs)),
        daemon=True,
    )
    thread.start()
    stream = FrameStream(ours, max_bytes=1 << 20)
    try:
        assert stream.recv(timeout=10.0)[0] == "hello"
        stream.send("welcome", {"worker_id": 0, "cache_dir": None,
                                "heartbeat_interval": 60.0,
                                "observe": False})

        stream.send("assign", {"unit": big, "attempt": 1})
        kind, outcome = _next_result(stream)
        assert kind == "result"
        assert (outcome.key, outcome.status) == (big.key, "failed")
        assert outcome.result is None
        assert "bytes exceeds the 1024-byte frame limit" in outcome.error

        stream.send("assign", {"unit": small, "attempt": 1})
        kind, outcome = _next_result(stream)
        assert kind == "result"
        assert (outcome.key, outcome.status) == (small.key, "ran")
        assert outcome.result == {"slept": 0.0, "unit": small.label}

        stream.send("shutdown", {})
        assert _next_result(stream)[0] == "goodbye"
        thread.join(timeout=10.0)
        assert exit_code == [0]
    finally:
        stream.close()
