"""End-to-end serving SLOs over real TCP (the ``serve`` marker suite).

Replays the canonical seeded bursty plan against a live gateway —
exactly what ``python -m repro serve --bench`` and the CI serve-smoke
job run — and asserts the serving floors.
"""

from __future__ import annotations

import pytest

from repro.serve.bench import run_bench

pytestmark = pytest.mark.serve

#: Floors on the seeded bursty replay.  Bursts aim concurrent identical
#: requests at fresh keys, so at least half of all answered requests
#: must coalesce onto a shared computation; the warm replay must be
#: answered from cache with a bounded tail (generous for loaded CI
#: runners — the typical p99 over local TCP is ~2 ms).
SERVE_MIN_COALESCE_RATE = 0.5
SERVE_MIN_WARM_HIT_RATE = 0.9
SERVE_MAX_WARM_HIT_P99_US = 200_000.0


class TestSeededReplay:
    def test_cold_and_warm_pass_meet_the_floors(self, tmp_path):
        report = run_bench(cache_dir=str(tmp_path))
        cold, warm = report["cold"], report["warm"]

        # zero failed requests on both passes
        assert cold["failures"] == 0
        assert warm["failures"] == 0
        # answers are bit-identical per key, coalesced or hit alike
        assert cold["sha_conflicts"] == []
        assert warm["sha_conflicts"] == []

        # cold pass: bursts of identical requests collapse — at most
        # one execution per distinct key in the canonical 4-burst plan
        assert cold["coalesce_rate"] >= SERVE_MIN_COALESCE_RATE
        assert cold["served"]["executed"] <= 4

        # warm pass: everything from cache, bounded tail
        assert warm["hit_rate"] >= SERVE_MIN_WARM_HIT_RATE
        assert warm["latency_us"]["hit"]["p99"] <= SERVE_MAX_WARM_HIT_P99_US
        assert warm["served"]["executed"] == 0
        assert warm["throughput_rps"] > 0
