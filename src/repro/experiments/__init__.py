"""Experiment runners that regenerate every table and figure.

Each module maps to paper artifacts, and each artifact has a benchmark
named after it (``benchmarks/test_fig4_sampling_fraction.py``,
``benchmarks/test_table5_ncm_devices.py``, ...):

- :mod:`~repro.experiments.tables` — Tables 2, 3, 4,
- :mod:`~repro.experiments.sampling_study` — Figs. 4, 6,
- :mod:`~repro.experiments.ncm_study` — Fig. 8, Table 5,
- :mod:`~repro.experiments.mitigation_study` — Figs. 9, 10,
- :mod:`~repro.experiments.optimizer_study` — Figs. 11-13, Table 6,
- :mod:`~repro.experiments.speedup` — the headline speedup claim,
- :mod:`~repro.experiments.slices` — the 2-parameter slice protocol,
- :mod:`~repro.experiments.configs` — scaled experiment sizes.
"""

from .configs import DEFAULT, FIG4_NOISE, FIG9_NOISE, NCM_QPU1, NCM_QPU2, SMOKE, ExperimentScale
from .mitigation_study import run_mitigation_study
from .ncm_study import run_fig8_sweep, run_table5
from .optimizer_study import (
    run_endpoint_distance_study,
    run_optimizer_choice,
    run_table6_initialization,
)
from .sampling_study import run_fig4_sweep, run_fig6_sycamore
from .slices import SliceSpec, random_slice, slice_generator
from .speedup import measure_speedup
from .tables import run_table2, run_table3, run_table4, slice_reconstruction_error

__all__ = [
    "DEFAULT",
    "FIG4_NOISE",
    "FIG9_NOISE",
    "NCM_QPU1",
    "NCM_QPU2",
    "SMOKE",
    "ExperimentScale",
    "run_mitigation_study",
    "run_fig8_sweep",
    "run_table5",
    "run_endpoint_distance_study",
    "run_optimizer_choice",
    "run_table6_initialization",
    "run_fig4_sweep",
    "run_fig6_sycamore",
    "SliceSpec",
    "random_slice",
    "slice_generator",
    "measure_speedup",
    "run_table2",
    "run_table3",
    "run_table4",
    "slice_reconstruction_error",
]
