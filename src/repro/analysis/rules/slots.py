"""RPR004 — ``__slots__`` required on hot-path classes.

The sim kernel allocates an object per event occurrence and the storage
layer an object per tuple/log record; at paper scale that is millions
of instances per run.  A stray ``__dict__`` per instance costs both
memory and attribute-lookup time, so every class in the designated
hot-path modules must declare ``__slots__`` (directly, or via
``@dataclass(slots=True)``).

Exception/Enum/Protocol classes are exempt — they are not allocated on
the hot path and CPython constrains slotting them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import (
    Finding,
    ModuleContext,
    Rule,
    finding_factory,
    path_in_scope,
    register,
)

#: Modules whose classes are allocated per event, record or planned key.
HOT_PATH_MODULES = (
    "src/repro/partitioning/operations.py",
    "src/repro/sim/events.py",
    "src/repro/storage/partition_store.py",
    "src/repro/storage/record.py",
    "src/repro/storage/wal.py",
)

#: Base-class names that exempt a class (not hot-path allocations, or
#: slotting is constrained by the runtime).
EXEMPT_BASES = frozenset(
    {
        "Exception",
        "BaseException",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Protocol",
        "ABC",
        "NamedTuple",
        "TypedDict",
    }
)


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
        elif isinstance(base, ast.Subscript):  # Generic[T], Protocol[...]
            target = base.value
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            target = deco.func
            is_dataclass = (
                isinstance(target, ast.Name) and target.id == "dataclass"
            ) or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"
            )
            if is_dataclass and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            ):
                return True
    return False


@register
class SlotsRequiredRule(Rule):
    """Hot-path classes declare ``__slots__``."""

    code = "RPR004"
    name = "slots-on-hot-path"
    description = (
        "Classes in hot-path modules (events, records, WAL entries) must "
        "declare __slots__ or use @dataclass(slots=True); a per-instance "
        "__dict__ on something allocated millions of times per run costs "
        "memory and attribute-lookup speed."
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        if not path_in_scope(ctx.path, HOT_PATH_MODULES):
            return
        make = finding_factory(ctx.path, self.code)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _base_names(node) & EXEMPT_BASES:
                continue
            if node.name.endswith(("Error", "Exception")):
                continue
            if not _declares_slots(node):
                yield make(
                    node,
                    f"hot-path class '{node.name}' has no __slots__; "
                    "declare them (or @dataclass(slots=True)) so "
                    "per-instance __dict__ allocation stays off the "
                    "event/record path",
                )
