"""The bundled repro-lint rule set.

Importing this package registers every rule with
:data:`repro.analysis.core.REGISTRY`:

* ``RPR001`` — no ambient nondeterminism on simulation paths
* ``RPR002`` — cache-key completeness for ``ExperimentConfig``
* ``RPR003`` — ``MapEpoch`` / live-map immutability outside the store
* ``RPR004`` — ``__slots__`` required on hot-path classes
* ``RPR005`` — RNG streams must be injected, never constructed ad hoc
* ``RPR007`` — cluster membership mutated only through the Cluster API
"""

from . import (  # noqa: F401
    cache_key,
    determinism,
    epoch,
    membership,
    slots,
)
