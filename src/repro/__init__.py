"""repro — a Python reproduction of "UPC++: A High-Performance
Communication Framework for Asynchronous Computation" (Bachan et al.,
IPDPS 2019) over a deterministic discrete-event machine simulator.

Subpackages
-----------
- ``repro.sim``       deterministic DES kernel + cooperative SPMD runtime
- ``repro.gasnet``    the GASNet-EX substitute (wire model, segments, AMs)
- ``repro.upcxx``     the paper's contribution: the UPC++ v1.0 library
- ``repro.upcxx_v01`` the 2014 predecessor API (events/asyncs)
- ``repro.mpisim``    the Cray-MPICH-like MPI baseline
- ``repro.apps``      the evaluated motifs (DHT, sparse solver, KV service)
- ``repro.bench``     per-figure benchmark drivers
- ``repro.util``      units, stats, records, tracing, metrics, telemetry

Start with ``import repro.upcxx as upcxx`` and ``upcxx.run_spmd``; see
README.md and docs/guide.md.
"""

__version__ = "1.0.0"
