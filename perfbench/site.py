"""Site launcher: one hospital site as a real TCP process.

    python3 perfbench/site.py --site hospital-0 --workload site_query [--trace FILE]

Boots the workload's deterministic 3-site platform (every site process
builds the same one, as ``repro.rpc.site_server`` does), serves the named
site's RPC method surface on an ephemeral loopback port, prints
``LISTENING host port`` and serves until stdin reaches EOF.  With
``--trace`` the data and analytics probes are installed before the
platform is built and the spans are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--site", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", default="", help="write spans here at exit")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from probes import Recorder, install_site_probes

        recorder = Recorder(args.site)
        install_site_probes(recorder)

    from repro.rpc.demo import build_site_server
    from repro.rpc.runtime import EventLoopThread
    from workloads import WORKLOADS, build_site_platform

    platform = build_site_platform(WORKLOADS[args.workload])
    server = build_site_server(platform, args.site)
    loop = EventLoopThread(name=f"{args.site}-rpc")
    try:
        host, port = loop.run(server.start("127.0.0.1", 0), timeout_s=10.0)
        print(f"LISTENING {host} {port}", flush=True)
        while sys.stdin.readline():
            pass  # serve until the supervisor closes our stdin
        loop.run(server.close(), timeout_s=10.0)
    finally:
        loop.close()
        if recorder is not None:
            recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
