"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to one artifact of the paper's evaluation section:

* :mod:`repro.experiments.setup`    -- the common experimental setup
  (Section 6.1): OTA + orthogonal-hypercube DOE -> train/test datasets;
* :mod:`repro.experiments.figure3`  -- error/complexity trade-off curves;
* :mod:`repro.experiments.table1`   -- models under 10 % train and test error;
* :mod:`repro.experiments.table2`   -- the PM model sequence;
* :mod:`repro.experiments.figure4`  -- CAFFEINE vs posynomial comparison;
* :mod:`repro.experiments.ablation` -- extensions: grammar / multi-objective
  ablations against plain GP.

The drivers take finished runs as ``results=`` and run only what is
missing, as one plain :class:`~repro.core.session.Session`; Session options
(``jobs``, a column cache, checkpoints) belong to the caller's own Session,
as in ``python -m repro``.  The benchmark harness under ``benchmarks/``
calls these drivers with reduced budgets and prints the same rows/series
the paper reports.
"""

from repro.experiments.setup import (
    OtaDatasets,
    generate_ota_datasets,
)
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.ablation import AblationResult, run_ablation

__all__ = [
    "OtaDatasets",
    "generate_ota_datasets",
    "Figure3Result",
    "run_figure3",
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Figure4Result",
    "run_figure4",
    "AblationResult",
    "run_ablation",
]
