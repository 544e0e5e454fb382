"""The modelled cluster that redraws the paper's Figs. 1-4 and Tables 3-4.

The mini-app is the rest of :mod:`repro`; this package holds the
stand-ins for Piz Daint, MareNostrum 4, MPI and Extrae, and the parent
codes' Table 3/4 rows.  No run, service or job path imports it — the
benches, the examples and ``repro scaling`` / ``repro tables`` do.
Import each name from its module (``repro.model.cluster.ClusterModel``):
machines and networks (``machine``, ``comm``), the Table 5 geometries
(``workloads``), the step model and its trace (``cost_model``, ``codes``,
``cluster``, ``calibration``, ``scaling``), decomposition and load
balancing (``decomposition``, ``halo``, ``selfsched``, ``overlap``),
checkpoint intervals (``interval``, ``failures``) and the Table 1-4
renderers (``feature_tables``).
"""
