"""Source hygiene: every module of agorasim reads the names it keeps.

A branch deleted from a module can leave behind a module-level alias bound
only for it (an enum member bound once for the per-message path, a shared
verdict) or an import nothing reads any more. Nothing fails when that
happens, so this test looks: each module-level `_private` name, and each
import outside `__init__.py` (whose imports are the package's exports), must
be read somewhere in its own module.

A record's field can outlive its reader the same way: written at every open
and read by nothing. So each field of the agent's dataclasses must be read
as an attribute somewhere in the package.

The message path reads a `NegotiationMessage` by position: its sort keys
are `itemgetter`s and each reader unpacks the whole tuple. Reordering the
fields would then read the wrong ones without an error, so the field order
is pinned here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import agorasim

SOURCES = sorted(Path(agorasim.__file__).resolve().parent.glob("*.py"))


def _targets(node):
    """The names an assignment target binds."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _targets(element)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)


def kept_names(body, imports):
    """(name, line) for each name bound at module level in `body` that the
    module must read: every `_private` name it assigns or defines, and, when
    `imports` holds, every name it imports (`from __future__` aside)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if imports and not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    yield (alias.asname or alias.name).partition(".")[0], node.lineno
            continue
        if isinstance(node, (ast.If, ast.Try)):
            nested = [*node.body, *node.orelse]
            if isinstance(node, ast.Try):
                nested += [*node.finalbody, *(s for h in node.handlers for s in h.body)]
            yield from kept_names(nested, imports)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name for target in node.targets for name in _targets(target)]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names = list(_targets(node.target))
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unread(source, imports=True):
    """The names of `source` that kept_names lists and no expression reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted({
        f"{name} (line {line})"
        for name, line in kept_names(tree.body, imports)
        if name not in read
    })


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_kept_name_is_read(path):
    source = path.read_text(encoding="utf-8")
    assert unread(source, imports=path.name != "__init__.py") == []


def test_an_orphaned_alias_is_found():
    # An alias whose only reader was a deleted branch, an import likewise,
    # and names that are read, in each of the ways the check follows.
    source = (
        "import math\n"
        "from enum import Enum\n"
        "from typing import Optional\n"
        "class Kind(Enum):\n"
        "    A = 1\n"
        "    B = 2\n"
        "_A = Kind.A\n"
        "_B = Kind.B\n"
        "_LOW, _HIGH = 0.0, 1.0\n"
        "def _helper(x: Optional[int]) -> bool:\n"
        "    return x is _A and _LOW < _HIGH\n"
        "def public():\n"
        "    return _helper(None)\n"
    )
    assert unread(source) == ["_B (line 8)", "math (line 1)"]
    assert unread(source, imports=False) == ["_B (line 8)"]


@pytest.mark.parametrize("module, name", [
    # Replaced by the field readers, which fetch and check a field in one step.
    ("simulation", "_get"),
    # Replaced by one `str.translate` that deletes the characters the line
    # scanner's layout allows.
    ("yamlload", "_OUTSIDE"),
    # Replaced by the loaders' own `construct_object`, now that the second
    # tier is the loader itself rather than a second loader class.
    ("yamlload", "_with_scalar_errors"),
])
def test_replaced_helpers_stay_deleted(module, name):
    assert not hasattr(importlib.import_module(f"agorasim.{module}"), name)


def dataclass_fields(source):
    """(class, field, line) for each annotated field of each @dataclass in
    `source`, ClassVars aside."""
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or not any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            ):
                yield node.name, item.target.id, item.lineno


def attributes_read(sources):
    """Every attribute name loaded in `sources`, by `x.name` or by
    `attrgetter("name", ...)`. Storing into it, `x.name[key] = value`, is
    a write."""
    read = set()
    for source in sources:
        nodes = list(ast.walk(ast.parse(source)))
        stored_into = {
            id(node.value) for node in nodes
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        }
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in stored_into
            ):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "attrgetter"
            ):
                read.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return read


def unread_fields(source, sources):
    read = attributes_read(sources)
    return sorted(
        f"{cls}.{name} (line {line})"
        for cls, name, line in dataclass_fields(source)
        if name not in read
    )


def test_every_agent_field_is_read():
    source = (Path(agorasim.__file__).resolve().parent / "agent.py").read_text(encoding="utf-8")
    assert {"SessionEntry", "AgentState"} <= {cls for cls, _, _ in dataclass_fields(source)}
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_fields(source, sources) == []


def test_a_field_written_but_never_read_is_found():
    # A memo filled at every open and consulted by nothing, beside fields
    # read by attribute and by attrgetter.
    source = (
        "from dataclasses import dataclass, field\n"
        "from operator import attrgetter\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class State:\n"
        "    tactic: int\n"
        "    session: str\n"
        "    openings: dict = field(default_factory=dict)\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "@dataclass(frozen=True)\n"
        "class Verdict:\n"
        "    ok: bool\n"
        "_SESSION = attrgetter('session')\n"
        "def step(state, verdict):\n"
        "    state.openings[state.tactic] = verdict.ok\n"
    )
    assert unread_fields(source, [source]) == ["State.openings (line 8)"]


def test_the_message_path_reads_messages_by_position():
    from agorasim.agent import _SESSION_ROUND
    from agorasim.core import (
        DELIVERY_ORDER, CommenceInfo, MessageKind, NegotiationMessage, OfferPackage,
    )

    assert NegotiationMessage._fields == (
        "session", "sender", "receiver", "round", "sent_at", "kind", "package",
        "reason", "commence",
    )
    # No two fields equal, so a key reading the wrong one gives another tuple.
    msg = NegotiationMessage(
        session="s-1", sender="a", receiver="b", round=2, sent_at=7,
        kind=MessageKind.OFFER, package=OfferPackage({"price": 1.5}), reason="r",
        commence=CommenceInfo("vm", ("price",), 9, "a", "b", "b"),
    )
    assert len(set(map(repr, msg))) == len(msg)
    assert DELIVERY_ORDER(msg) == (msg.sent_at, msg.session, msg.sender, msg.round)
    assert _SESSION_ROUND(msg) == (msg.session, msg.round)
