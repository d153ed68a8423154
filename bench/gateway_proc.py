"""A ``repro.serve.Gateway`` in a process of its own.

Started by the benchmark as ``python gateway_proc.py CACHE_DIR DB WORKERS``
(``DB`` may be ``-`` for a gateway without a results index).  Prints the
bound port on the first line of stdout, serves until stdin reaches end of
file, then stops the gateway and exits.
"""

from __future__ import annotations

import asyncio
import sys

from repro.serve import Gateway, ServeConfig


async def serve(cache_dir: str, results_db: str, workers: int) -> None:
    gateway = Gateway(ServeConfig(
        cache_dir=cache_dir,
        results_db=None if results_db == "-" else results_db,
        pool_workers=workers,
    ))
    _host, port = await gateway.start_server()
    print(port, flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.read
        )
    finally:
        await gateway.stop()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1], sys.argv[2], int(sys.argv[3])))
