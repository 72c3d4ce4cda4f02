"""Command-line entry point: run a compile server.

Usage::

    python -m repro.serve                         # loopback, port 8731
    python -m repro.serve --port 0                # ephemeral port
    python -m repro.serve --cache-dir /ci/cache --workers 8
    python -m repro.serve --upstream http://ci-cache:8731

``--upstream`` layers this server's local cache directory in front of
one or more remote cache servers (read-through/write-through; several
upstreams shard by fingerprint prefix), so servers themselves can
front a bigger shared store.

The server binds loopback by default.  Job payloads and cache uploads
are pickles -- bind ``--host`` beyond loopback only on networks whose
clients you would let run code on this machine (the same trust the
on-disk cache already extends to its directory's writers).
"""

from __future__ import annotations

import argparse
import sys

from repro.flow.cache import CompileCache, LocalDirBackend
from repro.serve.backends import RemoteBackend, TieredBackend
from repro.serve.server import CompileServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve fingerprint-cached synthesis compiles over "
        "HTTP (see docs/cli.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: %(default)s; see the trust note "
        "in the module help before exposing further)",
    )
    parser.add_argument(
        "--port", type=int, default=8731,
        help="bind port; 0 picks an ephemeral free port "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="on-disk compile cache backing the service "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--memory-only", action="store_true",
        help="no disk store: serve from the in-memory LRU only",
    )
    parser.add_argument(
        "--upstream", action="append", default=[], metavar="URL",
        help="shared cache server(s) behind this one; the local cache "
        "dir fronts them read-through/write-through, several upstreams "
        "shard by fingerprint prefix (repeatable)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="bound of the compile pool (default: %(default)s)",
    )
    parser.add_argument(
        "--max-memory-entries", type=int, default=512, metavar="N",
        help="in-memory LRU bound (default: %(default)s)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="no per-request log lines",
    )
    return parser


def build_cache(args) -> CompileCache:
    """The service cache an argument set describes."""
    if args.memory_only:
        if args.upstream:
            return CompileCache(
                backend=RemoteBackend(args.upstream),
                max_memory_entries=args.max_memory_entries,
            )
        return CompileCache(max_memory_entries=args.max_memory_entries)
    if args.upstream:
        backend = TieredBackend(
            LocalDirBackend(args.cache_dir), RemoteBackend(args.upstream)
        )
        return CompileCache(
            backend=backend, max_memory_entries=args.max_memory_entries
        )
    return CompileCache(
        args.cache_dir, max_memory_entries=args.max_memory_entries
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        build_parser().error(f"--workers must be >= 1, got {args.workers}")
    server = CompileServer(
        cache=build_cache(args),
        workers=args.workers,
        host=args.host,
        port=args.port,
        verbose=not args.quiet,
    )
    where = (
        "memory-only"
        if args.memory_only and not args.upstream
        else args.cache_dir
    )
    if args.upstream:
        where += f" -> {', '.join(args.upstream)}"
    # The smoke tests and wrapper scripts grep this line for the
    # resolved (possibly ephemeral) URL; keep its shape stable.
    print(
        f"serving on {server.url} (workers={args.workers}, "
        f"cache={where})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
