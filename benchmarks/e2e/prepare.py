"""Child process: the benchmark's set-up, run to completion and nothing more.

Imports the program, builds the campaign spec through ``CampaignSpec`` and
writes its JSON, then assembles the stream's matrix, captures its solver
states and constructs its pipelines.  The driver times this process from
outside; that time is ``setup_s``.
"""

import json
import sys

from ckpt_stream import build_inputs


def main(argv) -> int:
    config, spec_out = json.loads(argv[1]), argv[2]
    from repro.campaign import CampaignSpec

    with open(spec_out, "w") as handle:
        handle.write(CampaignSpec(**config["campaign"]).to_json())
    build_inputs(**config["stream"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
