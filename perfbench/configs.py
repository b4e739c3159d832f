"""Detector and pool settings of the benchmark's workloads.

Kept apart from the drivers so that ``launcher.py ready`` can build the
in-process pools while importing nothing but the program: its timing is
the workloads' ``setup_s``.
"""

from __future__ import annotations

from repro.core.detector import DetectorConfig
from repro.service.pool import PoolConfig
from repro.service.sharding import ShardingConfig

#: Magnitude detector settings shared by every magnitude workload.
MAGNITUDE_WINDOW = 128
EVAL_INTERVAL = 8
#: Event detector window of the routed workload.
EVENT_WINDOW = 64

LOCKSTEP_POOL = PoolConfig(
    mode="magnitude",
    detector_config=DetectorConfig(
        window_size=MAGNITUDE_WINDOW,
        evaluation_interval=EVAL_INTERVAL,
    ),
)

#: The paper's NAS-FT detector settings (window 256, lags up to 128).
SHARDED_POOL = PoolConfig(
    mode="magnitude",
    detector_config=DetectorConfig(
        window_size=256,
        max_lag=128,
        min_depth=0.2,
        evaluation_interval=EVAL_INTERVAL,
    ),
)
SHARDING = ShardingConfig(workers=2, pipeline_depth=8)
