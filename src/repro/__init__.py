"""repro — a faithful reproduction of "Parallel Programming in
Actor-Based Applications via OpenCL" (MIDDLEWARE 2015).

Subpackages:

* ``repro.kir`` / ``repro.kernelc`` — kernel IR and the OpenCL-C-subset
  language every kernel is compiled from.
* ``repro.opencl`` — the simulated OpenCL substrate (platforms,
  contexts, queues, buffers, runtime compilation, deterministic cost
  model).
* ``repro.ensemble`` + ``repro.runtime`` — the Ensemble actor language,
  its compiler (including ``opencl`` actor kernel extraction) and VM.
* ``repro.actors`` — the Pythonic actor API (the public interface).
* ``repro.openacc`` — the pragma-based comparison baseline.
* ``repro.apps`` — the paper's five evaluation applications, each in
  five functionally-equivalent variants.
* ``repro.metrics`` / ``repro.harness`` — Table 1 and Figure 3
  regeneration.
"""

__version__ = "1.0.0"

from . import errors  # noqa: F401
from .config import RuntimeConfig, configure, current_config  # noqa: F401
