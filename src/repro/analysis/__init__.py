"""Measurement utilities: cost accounting.

Recovery timing is read from a flight-recorder trace by
:func:`repro.obs.timeline.reconstruct`.
"""

from repro.analysis.metrics import CostSnapshot, MetricsCollector

__all__ = [
    "CostSnapshot",
    "MetricsCollector",
]
