"""The analysis daemon for the ``ingest`` workload, in its own process.

Runs :class:`repro.service.daemon.AnalysisService` until SIGTERM, like
``repro serve analysis`` with its defaults (2 analysis threads, queue
capacity 8), but with tenant quotas set so they never bind: the workload prices ingest, not the token bucket.  Prints
``listening HOST PORT`` once bound, writes the final aggregate report
after the drain, and prints one JSON line with its peak RSS on exit.
With ``--spans`` it also traces its own layers into that file.

    python3 perfbench/daemon.py --spool DIR --report FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

UNBOUNDED = 1e15


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spool", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)

    from repro.campaign.schedule import DEFAULT_MODEL_MIX
    from repro.service.daemon import AnalysisService, serve_forever
    from repro.service.quotas import TenantQuotaConfig

    service = AnalysisService(
        args.spool,
        DEFAULT_MODEL_MIX,
        32,
        quota_config=TenantQuotaConfig(
            upload_bytes_per_sec=UNBOUNDED,
            upload_burst_bytes=UNBOUNDED,
            jobs_per_sec=UNBOUNDED,
            jobs_burst=UNBOUNDED,
        ),
    )

    def on_listening(host: str, port: int) -> None:
        print(f"listening {host} {port}", flush=True)

    report = asyncio.run(serve_forever(service, on_listening=on_listening))
    Path(args.report).write_text(report.to_json())
    if tracer is not None:
        tracer.restore()
        tracer.write(args.spans)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mib": peak, "dumps": len(report)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
