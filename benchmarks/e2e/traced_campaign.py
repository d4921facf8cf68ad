"""Child process: one campaign run in-process with the layers traced.

Runs the spec cold (``run_campaign(spec, n_workers=1, cache=ResultCache(dir))``
on an empty directory), renders the report the way the CLI does, then runs it
again on the now-populated cache.  Prints nothing; writes the CLI-identical
report JSON to ``--json`` and the cold/warm span aggregates to ``--out``.
"""

import argparse
import json
import sys
import time

_T0 = time.perf_counter()

import layers  # noqa: E402

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--json", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = layers.Tracer()
    with tracer.span("runtime.import"):
        unresolved = layers.install(tracer)
    import repro.campaign as campaign

    def run_once() -> str:
        with open(args.spec) as handle:
            spec = campaign.CampaignSpec.from_json(handle.read())
        result = campaign.run_campaign(
            spec, n_workers=1, cache=campaign.ResultCache(args.cache_dir)
        )
        # Grouped and rendered as the CLI does with its default ``--group-by``.
        report = campaign.CampaignReport(result).to_dict()
        return json.dumps(report, indent=2, sort_keys=True)

    with tracer.span("runtime.main"):
        cold_report = run_once()
    cold_wall = time.perf_counter() - _T0
    cold = layers.aggregate(tracer.drain(), cold_wall)

    t1 = time.perf_counter()
    with tracer.span("runtime.main"):
        warm_report = run_once()
    warm = layers.aggregate(tracer.drain(), time.perf_counter() - t1)

    with open(args.json, "w") as handle:
        handle.write(cold_report)
    with open(args.out, "w") as handle:
        json.dump(
            {
                "cold": cold,
                "warm": warm,
                "warm_matches_cold": warm_report == cold_report,
                "unresolved_layers": unresolved,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
