"""SOAP — Scheduling Online dAta Partitioning for distributed OLTP.

A from-scratch Python reproduction of *"Online Data Partitioning in
Distributed Database Systems"* (Chen, Zhou, Cao — EDBT 2015): a
simulated shared-nothing OLTP cluster (storage, 2PL locking, 2PC,
routing) plus the paper's contribution — five strategies for deploying
a repartition plan online (ApplyAll, AfterAll, Feedback, Piggyback,
Hybrid) — and the full evaluation harness regenerating the paper's
tables and figures.

Quick start::

    from repro.experiments import bench_scale, run_experiment

    result = run_experiment(bench_scale(scheduler="Hybrid"))
    print(result.summary)

This is a PEP 562 facade: ``import repro`` — which every ``import
repro.x.y`` starts with — loads nothing, and a name is imported from
its submodule when first asked for.  To export a new name, add it to
the ``_facade`` table, to ``__all__`` and to the ``TYPE_CHECKING`` imports.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # what the facade resolves to, for mypy / ruff / editors
    from . import (
        cluster,
        control,
        core,
        experiments,
        faults,
        locking,
        metrics,
        partitioning,
        routing,
        sim,
        storage,
        txn,
        workload,
    )
    from .errors import (
        ConfigError,
        DeadlockAbort,
        InjectedFault,
        LockTimeout,
        NodeDownError,
        PartitioningError,
        ReproError,
        RoutingError,
        StorageError,
        TransactionAborted,
        TwoPhaseAbort,
    )
    from .faults import (
        FaultEvent,
        FaultInjector,
        FaultScheduleConfig,
        parse_fault_schedule,
    )
    from .types import AccessMode, Priority, TxnKind, TxnStatus

__version__ = "1.0.0"


def _facade(
    package: str, namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``: a submodule
    in ``exports`` and each name it is listed as defining there is
    imported when first asked for, then kept in ``namespace``."""
    submodule_of = {
        name: submodule
        for submodule, names in exports.items()
        for name in (submodule, *names.split())
    }

    def __getattr__(name: str) -> Any:
        submodule = submodule_of.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *submodule_of})

    return __getattr__, __dir__


__getattr__, __dir__ = _facade(__name__, globals(), {
    **dict.fromkeys(
        "cluster control core experiments locking metrics partitioning "
        "routing sim storage txn workload".split(), ""
    ),
    "errors": "ConfigError DeadlockAbort InjectedFault LockTimeout "
    "NodeDownError PartitioningError ReproError RoutingError StorageError "
    "TransactionAborted TwoPhaseAbort",
    "faults": "FaultEvent FaultInjector FaultScheduleConfig "
    "parse_fault_schedule",
    "types": "AccessMode Priority TxnKind TxnStatus",
})

__all__ = [
    "AccessMode",
    "ConfigError",
    "DeadlockAbort",
    "FaultEvent",
    "FaultInjector",
    "FaultScheduleConfig",
    "InjectedFault",
    "LockTimeout",
    "NodeDownError",
    "PartitioningError",
    "Priority",
    "ReproError",
    "RoutingError",
    "StorageError",
    "TransactionAborted",
    "TwoPhaseAbort",
    "TxnKind",
    "TxnStatus",
    "__version__",
    "cluster",
    "control",
    "core",
    "experiments",
    "faults",
    "locking",
    "parse_fault_schedule",
    "metrics",
    "partitioning",
    "routing",
    "sim",
    "storage",
    "txn",
    "workload",
]
