"""repro: reproduction of the IISWC 2007 POWER5 bioinformatics study.

The package splits into:

* :mod:`repro.bio` — the BioPerf sequence-analysis applications;
* :mod:`repro.isa` — a PowerPC-like mini-ISA with ``max``/``isel``;
* :mod:`repro.kernels` — the hot DP kernels written for the mini-ISA;
* :mod:`repro.compiler` — IR + if-conversion (the gcc patch of SIV-B);
* :mod:`repro.uarch` — the POWER5-like trace-driven core model;
* :mod:`repro.perf` — profiling and workload characterisation;
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

import logging

__version__ = "0.1.0"

# Library logging (fallbacks, degraded paths) is silent unless the
# application configures a handler for the ``repro`` hierarchy.
logging.getLogger("repro").addHandler(logging.NullHandler())
