"""The server child process: ``python -m moodbench.serverproc``.

Servers under test run here, never in the generator's process, so the
clients do not share a GIL with the server.  Builds the Section 3.1 object
base at product-default capacities (buffer 512 pages, objcache 4096, plan
cache 256, tracing on, reclusterer off), runs ANALYZE, starts listening,
prints one JSON line with the address, and serves until stdin closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from moodbench import require_repro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m moodbench.serverproc")
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--shards", type=int, default=0)
    args = parser.parse_args(argv)
    require_repro()
    from repro import MoodDatabase
    from repro.bench.paperdb import build_paper_database
    from repro.server import (
        MoodServer, RouterConfig, ServerConfig, ShardedServer,
    )

    if args.shards:
        server = ShardedServer(RouterConfig(
            shards=args.shards,
            worker_options={"build_paper": True, "scale": args.scale,
                            "analyze": True},
        ))
        host, port = server.start()
        shards = [list(backend.address) for backend in server.backends]
    else:
        db = MoodDatabase()
        build_paper_database(db, scale=args.scale)
        db.analyze()
        server = MoodServer(db, ServerConfig())
        host, port = server.start()
        shards = []
    print(json.dumps({"host": host, "port": port, "shards": shards,
                      "pid": os.getpid()}), flush=True)
    try:
        sys.stdin.read()        # the parent closes stdin to stop us
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
