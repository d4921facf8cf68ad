"""The benchmark's workloads: one campaign grid and one checkpoint stream each.

Every workload runs both surfaces of the program — ``python -m
repro.campaign`` on a grid, and the checkpoint pipeline on a stream of CG
states — so every end-to-end metric exists on every workload.  What differs
is where the work is: the three ``campaign-*`` workloads put it in a grid
that stresses one group of layers and probe the pipeline at that grid's own
state size; ``ckpt-stream`` puts it in a multi-MiB stream and runs a small
grid of the stream's two exact schemes through the engine.  The one-line reasons are in
``BENCHMARK.json``; the sizing notes are in ``README.md``.

All campaign grids stay at ``grid_n <= 20``: above that, BLAS threads times
worker processes oversubscribe the host and ``--workers N`` wall time swings
by 3-10x (README, "Findings"), which no bounded metric survives.

Every grid pins a short explicit checkpoint interval.  Under Young's interval
half of the simulated overhead is the rework after failures, which is
heavy-tailed: across ten seeds the mean ``overhead_fraction`` of these grids
spread by 30-200 %, and the real work per run with it.  With checkpoints
every 40-200 simulated seconds a failure loses little, the overhead is mostly
checkpoint cost (what payload and costing changes move), and both the
simulated overhead and the work per run stay within about 5 % across seeds.
"""

from __future__ import annotations

from typing import Dict

#: Checkpointing schemes of the stream, in the order they run.
SCHEMES = ("traditional", "lossless", "lossy-sz", "lossy-zfp")
#: Schemes whose rates and sizes enter the end-to-end stream metrics.
COMPRESSING = SCHEMES[1:]
#: Pointwise-relative bound of the lossy schemes (and of their output check).
ERROR_BOUND = 1e-4

#: ``stream_share`` is the part of ``--seconds`` spent on stream passes; the
#: rest goes to campaign sample rounds.
WORKLOADS: Dict[str, dict] = {
    "campaign-solve": {
        "campaign": {
            "methods": ["jacobi", "gmres", "cg"],
            "schemes": ["traditional"],
            "process_counts": [256, 1024, 2048],
            "mttis": [7200.0],
            "checkpoint_intervals": [200.0],
            "repetitions": 3,
            "grid_n": 20,
        },
        "stream": {"grid_n": 20, "states": 12},
        "stream_share": 0.15,
    },
    "campaign-ckpt": {
        "campaign": {
            "methods": ["cg"],
            "schemes": ["lossless", "lossy"],
            "compressors": ["sz", "zfp"],
            "write_modes": ["blocking", "async"],
            "store_backends": ["chunked", "disk"],
            "mttis": [7200.0],
            "checkpoint_intervals": [40.0],
            "repetitions": 1,
            "grid_n": 16,
        },
        "stream": {"grid_n": 16, "states": 12},
        "stream_share": 0.15,
    },
    "campaign-seeds": {
        "campaign": {
            "methods": ["jacobi"],
            "schemes": ["traditional"],
            "failure_models": ["poisson", "weibull", "bursty"],
            "recovery_levels": ["pfs", "fti"],
            "mttis": [1800.0],
            "checkpoint_intervals": [150.0],
            "repetitions": 16,
            "grid_n": 16,
        },
        "stream": {"grid_n": 16, "states": 12},
        "stream_share": 0.15,
    },
    "ckpt-stream": {
        "campaign": {
            # Exact schemes only: a lossy restart of CG is close to a fresh
            # solve, so with a dozen cells the iterations per run swung by
            # 30 % across seeds.  ``campaign-ckpt`` carries the lossy cells.
            "methods": ["cg"],
            "schemes": ["traditional", "lossless"],
            "process_counts": [1024],
            "mttis": [3600.0],
            "checkpoint_intervals": [40.0],
            "repetitions": 6,
            "grid_n": 20,
        },
        "stream": {"grid_n": 72, "states": 12},
        "stream_share": 0.35,
    },
}

#: ``--scale smoke``: the same shapes, small enough for a tier-1 test.
_SMOKE = {
    "campaign-solve": ({"grid_n": 8, "repetitions": 1}, {"grid_n": 8, "states": 3}),
    "campaign-ckpt": ({"grid_n": 8}, {"grid_n": 8, "states": 3}),
    "campaign-seeds": ({"grid_n": 8, "repetitions": 2}, {"grid_n": 8, "states": 3}),
    "ckpt-stream": ({"grid_n": 8, "repetitions": 1}, {"grid_n": 16, "states": 4}),
}


def workload(name: str, seed: int, scale: str = "full") -> dict:
    """The named workload's campaign fields and stream configuration.

    ``seed`` becomes ``CampaignSpec.seed`` (failure traces, problem seed) and
    the stream's seed (``poisson_system(seed=)`` and the warm-in offset).
    """
    base = WORKLOADS[name]
    campaign = dict(base["campaign"], name=name, kind="ft", seed=int(seed))
    stream = dict(base["stream"], seed=int(seed))
    if scale == "smoke":
        campaign_over, stream_over = _SMOKE[name]
        campaign.update(campaign_over)
        stream.update(stream_over)
    elif scale != "full":
        raise ValueError(f"unknown scale {scale!r}; choose 'full' or 'smoke'")
    return {"campaign": campaign, "stream": stream, "stream_share": base["stream_share"]}
