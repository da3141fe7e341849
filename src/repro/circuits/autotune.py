"""Leftover of the retired MCAM kernel autotuner: one documented no-op.

:meth:`~repro.circuits.MCAMArray.row_conductances_batch` picks its
conductance kernel by one static size rule, so there is no kernel table,
no timing and no process-global state left to clear.
:func:`clear_kernel_table` stays only because the ``fewshot_fig7``
workload in ``perfbench/`` imports it; this module goes with the next
change to that benchmark.
"""

from __future__ import annotations


def clear_kernel_table() -> None:
    """Do nothing: kernel choice is a static size rule with no table."""


__all__ = ["clear_kernel_table"]
