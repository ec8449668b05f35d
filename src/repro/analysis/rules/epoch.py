"""RPR003 — ``MapEpoch`` and live-map immutability outside the store.

A published :class:`~repro.routing.epoch.MapEpoch` is a snapshot other
transactions are actively routing against; mutating one (or mutating
the store's live :class:`PartitionMap` without going through a staged
publish) silently invalidates every pinned reader.  Only
``repro/routing/epoch.py`` — the store itself — may do either.

Detection is a lightweight local type inference: names bound from
``<store>.pin()``, ``<store>.current_epoch``, or annotated ``MapEpoch``
are treated as epoch snapshots; attribute assignment through them (or
directly through a ``.current_epoch`` chain) is flagged, as is any call
of a map-mutating method on a ``.live_map`` attribute chain.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Union

from ..core import (
    Finding,
    ModuleContext,
    Rule,
    finding_factory,
    path_in_scope,
    register,
)

SCOPE = ("src/repro/",)
EPOCH_MODULE = ("src/repro/routing/epoch.py",)

#: Methods that mutate a PartitionMap (or a dict backing one).
MAP_MUTATORS = frozenset(
    {
        "assign",
        "assign_many",
        "assign_unmapped",
        "add_replica",
        "remove_replica",
        "move",
        "set_replicas",
        "remove",
        "clear",
        "update",
        "pop",
        "popitem",
        "setdefault",
    }
)

_Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _direct_children(scope: _Scope) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _mentions_map_epoch(annotation: ast.expr) -> bool:
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name) and sub.id == "MapEpoch":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "MapEpoch":
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if "MapEpoch" in sub.value:
                return True
    return False


def _epoch_names(scope: _Scope) -> set[str]:
    """Names in ``scope`` inferred to hold MapEpoch snapshots."""
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]:
            if arg.annotation is not None and _mentions_map_epoch(
                arg.annotation
            ):
                names.add(arg.arg)
    for node in _direct_children(scope):
        if isinstance(node, ast.Assign):
            value = node.value
            is_epoch = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "pin"
            ) or (
                isinstance(value, ast.Attribute)
                and value.attr == "current_epoch"
            )
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if is_epoch:
                        names.add(target.id)
                    else:
                        names.discard(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and _mentions_map_epoch(
                node.annotation
            ):
                names.add(node.target.id)
    return names


def _attr_root_is_epoch(expr: ast.expr, epoch_names: set[str]) -> bool:
    """Whether an attribute target's base is an inferred epoch value."""
    base = expr
    while isinstance(base, ast.Attribute):
        if base.attr == "current_epoch":
            return True
        base = base.value
    if isinstance(base, ast.Call):
        return (
            isinstance(base.func, ast.Attribute) and base.func.attr == "pin"
        )
    return isinstance(base, ast.Name) and base.id in epoch_names


@register
class EpochImmutabilityRule(Rule):
    """Published epochs and the live map are mutated only by the store."""

    code = "RPR003"
    name = "epoch-immutability"
    description = (
        "MapEpoch snapshots are immutable once published: no attribute "
        "assignment on pinned/current epochs, and no map-mutating method "
        "calls through .live_map, anywhere outside repro/routing/epoch.py. "
        "All placement changes go through EpochStage + publish()."
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        if not path_in_scope(ctx.path, SCOPE):
            return
        if path_in_scope(ctx.path, EPOCH_MODULE):
            return
        make = finding_factory(ctx.path, self.code)
        scopes: list[_Scope] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            epoch_names = _epoch_names(scope)
            for node in _direct_children(scope):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and _attr_root_is_epoch(
                        target.value, epoch_names
                    ):
                        yield make(
                            node,
                            f"assignment to '.{target.attr}' on a MapEpoch "
                            "snapshot; published epochs are immutable — "
                            "stage changes through "
                            "PartitionMapStore.begin_stage()/publish()",
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MAP_MUTATORS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "live_map"
                ):
                    yield make(
                        node,
                        f"mutating call '.live_map.{node.func.attr}()' "
                        "outside the store; the live map is published-"
                        "epoch state — stage the change and publish it",
                    )
