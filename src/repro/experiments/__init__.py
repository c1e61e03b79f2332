"""Experiment runners reproducing every table and figure of the paper."""

from repro.experiments.config import (
    DEFAULT,
    FULL,
    PAPER_IMU_ONLY,
    PAPER_TABLE2,
    PAPER_TABLE3,
    SMOKE,
    ExperimentScale,
    get_scale,
)
from repro.experiments.runners import (
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Table1Result,
    Table2Result,
    Table3Result,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.reporting import (
    ascii_frame,
    format_fig5,
    format_table1,
    format_table2,
    format_table3,
)

__all__ = [
    "ExperimentScale", "SMOKE", "DEFAULT", "FULL", "get_scale",
    "PAPER_TABLE2", "PAPER_TABLE3", "PAPER_IMU_ONLY",
    "run_table1", "run_table2", "run_table3",
    "run_fig2", "run_fig3", "run_fig4", "Table1Result", "Table2Result",
    "Table3Result", "Fig2Result", "Fig3Result", "Fig4Result",
    "format_table1", "format_table2", "format_table3", "format_fig5",
    "ascii_frame",
]
