"""RPR001/RPR005 — determinism on simulation paths.

Bit-identical serial/parallel runs (and the result cache built on top
of them) hold only because every stochastic choice flows through the
named, seeded streams in :mod:`repro.sim.random` and no simulation
code ever consults the host: wall clocks, ambient process RNG state,
OS entropy, or hash-order iteration.  These rules make that a compile
error instead of a figure that quietly stops reproducing.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..core import (
    Finding,
    ImportMap,
    ModuleContext,
    Rule,
    finding_factory,
    path_in_scope,
    register,
)

#: Simulation-path scope: everything here must be deterministic given
#: the experiment seed.
SIM_SCOPE = (
    "src/repro/sim/",
    "src/repro/locking/",
    "src/repro/core/session.py",
    "src/repro/txn/",
    "src/repro/routing/",
    "src/repro/partitioning/",
    "src/repro/faults.py",
)

#: The stream registry itself is the one place allowed to touch the
#: ``random`` module directly.
STREAM_REGISTRY = ("src/repro/sim/random.py",)

#: Calls that read ambient host state; the message explains the fix.
BANNED_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "host clock",
    "time.monotonic_ns": "host clock",
    "time.perf_counter": "host clock",
    "time.perf_counter_ns": "host clock",
    "time.process_time": "host clock",
    "time.sleep": "real sleep (use Environment.timeout)",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host clock + MAC",
    "uuid.uuid4": "OS entropy",
}

#: Any call under these module prefixes reads ambient entropy.
BANNED_PREFIXES = ("secrets.",)

#: ``random.Random``/``SystemRandom`` construction is RPR005's domain;
#: everything else on the module (``random.random()``, ``random.seed``,
#: ...) mutates or reads the shared ambient generator.
AD_HOC_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})


def _iteration_targets(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.expr]]:
    """(reporting node, iterated expression) for every loop/comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield node, gen.iter
        elif isinstance(node, ast.DictComp):
            for gen in node.generators:
                yield node, gen.iter


def _is_set_expression(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


@register
class AmbientNondeterminismRule(Rule):
    """No wall clocks, ambient RNG, OS entropy, or set-order iteration
    inside simulation-path modules."""

    code = "RPR001"
    name = "no-ambient-nondeterminism"
    description = (
        "Simulation paths must be a pure function of the experiment seed: "
        "no wall-clock reads, module-level random.* calls, OS entropy, or "
        "iteration over sets (hash-order dependent). All randomness flows "
        "through named streams in repro.sim.random."
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        if not path_in_scope(ctx.path, SIM_SCOPE):
            return
        if path_in_scope(ctx.path, STREAM_REGISTRY):
            return
        make = finding_factory(ctx.path, self.code)
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            reason = BANNED_CALLS.get(resolved)
            if reason:
                yield make(
                    node,
                    f"call to {resolved}() reads ambient state ({reason}); "
                    "simulation code must derive everything from the "
                    "experiment seed and virtual clock",
                )
                continue
            if any(resolved.startswith(p) for p in BANNED_PREFIXES):
                yield make(
                    node,
                    f"call to {resolved}() reads OS entropy; use a named "
                    "stream from repro.sim.random",
                )
                continue
            if (
                resolved.startswith("random.")
                and resolved not in AD_HOC_CONSTRUCTORS
            ):
                yield make(
                    node,
                    f"module-level {resolved}() uses the ambient shared "
                    "generator; draw from an injected named stream "
                    "(repro.sim.random.RandomStreams) instead",
                )
        for report_node, iterated in _iteration_targets(ctx.tree):
            if _is_set_expression(iterated):
                yield make(
                    iterated,
                    "iteration order over a set depends on hash seeding; "
                    "sort it (or iterate a list/dict) so runs are "
                    "reproducible",
                )


@register
class AdHocRngRule(Rule):
    """RNG streams are injected, never constructed at the point of use."""

    code = "RPR005"
    name = "rng-stream-discipline"
    description = (
        "Components take an injected random.Random stream; constructing "
        "random.Random()/SystemRandom()/numpy generators ad hoc detaches "
        "the draw sequence from the master seed and breaks serial/parallel "
        "equivalence. Only repro.sim.random may construct streams."
    )

    #: Everything under ``src/repro`` — the whole system runs inside the
    #: deterministic harness, not just the sim kernel.
    scope = ("src/repro/",)

    CONSTRUCTORS = AD_HOC_CONSTRUCTORS | frozenset(
        {
            "numpy.random.RandomState",
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "numpy.random.seed",
            "np.random.RandomState",
            "np.random.default_rng",
            "np.random.seed",
        }
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        if not path_in_scope(ctx.path, self.scope):
            return
        if path_in_scope(ctx.path, STREAM_REGISTRY):
            return
        make = finding_factory(ctx.path, self.code)
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in self.CONSTRUCTORS:
                yield make(
                    node,
                    f"ad-hoc {resolved}() construction; accept an injected "
                    "stream (see repro.sim.random.RandomStreams.stream) so "
                    "draws stay tied to the master seed",
                )
