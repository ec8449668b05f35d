"""Experiments: configs, the runner, and the paper's tables/figures.

A PEP 562 facade like :mod:`repro`: a cell loads ``config`` and ``runner``;
the figure grids, sweeps, result cache and worker pool (and the
``multiprocessing`` … behind them) load when a name of theirs is asked for.
"""

from typing import TYPE_CHECKING

from .. import _facade

if TYPE_CHECKING:  # what the facade resolves to, for mypy / ruff / editors
    from .cache import (
        CACHE_DIR_ENV,
        CACHE_SCHEMA_VERSION,
        DEFAULT_CACHE_DIR,
        ResultCache,
        config_key,
        default_cache_dir,
    )
    from .config import (
        HIGH_LOAD_UTILISATION,
        LOW_LOAD_UTILISATION,
        SCHEDULER_NAMES,
        CostConfig,
        ExperimentConfig,
        RuntimeConfig,
        SchedulerConfig,
        bench_scale,
        medium_scale,
        paper_scale,
        production_scale,
    )
    from .figures import (
        ELASTIC_SCHEDULE,
        ElasticFigureResult,
        Figure3Result,
        FigureResult,
        figure3_failure_rate,
        figure4_zipf_high,
        figure5_uniform_high,
        figure6_zipf_low,
        figure7_uniform_low,
        figure_elastic,
    )
    from .parallel import CellReport, resolve_jobs, run_cells
    from .runner import (
        ExperimentResult,
        System,
        build_system,
        make_scheduler,
        run_experiment,
        start_repartitioning,
    )
    from .sweeps import (
        MetricStats,
        SweepResult,
        format_sweep_comparison,
        sweep_seeds,
    )
    from .tables import PAPER_GAINS, SP_TABLE, format_table1, setpoint_for

__getattr__, __dir__ = _facade(__name__, globals(), {
    "cache": "CACHE_DIR_ENV CACHE_SCHEMA_VERSION DEFAULT_CACHE_DIR "
    "ResultCache config_key default_cache_dir",
    "config": "HIGH_LOAD_UTILISATION LOW_LOAD_UTILISATION SCHEDULER_NAMES "
    "CostConfig ExperimentConfig RuntimeConfig SchedulerConfig bench_scale "
    "medium_scale paper_scale production_scale",
    "figures": "ELASTIC_SCHEDULE ElasticFigureResult Figure3Result "
    "FigureResult figure3_failure_rate figure4_zipf_high figure5_uniform_high "
    "figure6_zipf_low figure7_uniform_low figure_elastic",
    "parallel": "CellReport resolve_jobs run_cells",
    "runner": "ExperimentResult System build_system make_scheduler "
    "run_experiment start_repartitioning",
    "sweeps": "MetricStats SweepResult format_sweep_comparison sweep_seeds",
    "tables": "PAPER_GAINS SP_TABLE format_table1 setpoint_for",
})

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CellReport",
    "CostConfig",
    "DEFAULT_CACHE_DIR",
    "ELASTIC_SCHEDULE",
    "ElasticFigureResult",
    "ResultCache",
    "config_key",
    "default_cache_dir",
    "resolve_jobs",
    "run_cells",
    "ExperimentConfig",
    "ExperimentResult",
    "Figure3Result",
    "FigureResult",
    "HIGH_LOAD_UTILISATION",
    "LOW_LOAD_UTILISATION",
    "MetricStats",
    "PAPER_GAINS",
    "RuntimeConfig",
    "SCHEDULER_NAMES",
    "SP_TABLE",
    "SchedulerConfig",
    "SweepResult",
    "System",
    "bench_scale",
    "build_system",
    "figure3_failure_rate",
    "figure4_zipf_high",
    "figure_elastic",
    "figure5_uniform_high",
    "figure6_zipf_low",
    "figure7_uniform_low",
    "format_sweep_comparison",
    "format_table1",
    "make_scheduler",
    "medium_scale",
    "paper_scale",
    "production_scale",
    "run_experiment",
    "setpoint_for",
    "start_repartitioning",
    "sweep_seeds",
]
