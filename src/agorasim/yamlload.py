"""YAML loading for scenario files: plain data built straight from parser events.

`yaml.load(text, Loader=...)` with either loader here returns what
`yaml.load(text, Loader=yaml.SafeLoader)` returns, or raises a YAMLError of
the same class at the same line, but it never builds PyYAML's node tree. One
loop reads the parser's events and keeps an explicit stack of open
collections, so nesting costs no Python recursion; a document nested deeper
than MAX_DEPTH collections is a ComposerError at the collection that crosses
it.

An untagged plain scalar's tag is resolved by PyYAML's Resolver once per
distinct text in a document, and every non-string tag is constructed by
SafeConstructor's own constructors, so the values are SafeLoader's; a scalar
they cannot construct (`!!int x`, `!!int ''`) is a ConstructorError at its
line, where SafeLoader lets a bare ValueError, KeyError or IndexError escape.
Untagged, unanchored collections are filled in place. Only tags, anchors and
aliases, `<<` merges, `=` keys, unhashable keys and scalars that fail to
construct take the slower path: their collections keep a `_Node` per child,
enough to apply SafeConstructor's rules to them.

SafeLoader constructs in rounds, one nesting level per round, and raises the
first error it meets; which error that is depends on where the failing node
sits. So a construction error is not raised where it is found: it is kept
with its position, `(depth, path)`, relative to the collection that holds it,
and a collection keeps only the least one. The least error at the root is
raised once the document has been read to its end, after any parser or
composer error (which PyYAML raises before constructing anything). A path
element is `(1, offset)` for a child at that character offset (an !!omap item
adds which part of the item), `(0, order, element)` for a pair merged in
through `<<`, and `(-1, key)` for an error SafeLoader raises before it visits
a collection's children.

Where SafeLoader's own result depends on the order it happens to construct in,
the loader refuses the document instead: a `<<` whose source is a collection
that encloses it ("found a recursive merge"; SafeLoader recurses without end
on some of these and fills in others later) and a scalar-tagged mapping whose
`=` keys lead back to itself. SafeLoader also retags an `=` key as a string in
place, so an anchored `=` key read again through an alias as a value may
construct in SafeLoader and fail here.
"""

from __future__ import annotations

from typing import Any, Optional

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (
    AliasEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.parser import Parser
from yaml.reader import Reader
from yaml.resolver import Resolver
from yaml.scanner import Scanner

MAX_DEPTH = 500

_STR = "tag:yaml.org,2002:str"
_SEQ = "tag:yaml.org,2002:seq"
_MAP = "tag:yaml.org,2002:map"
_SET = "tag:yaml.org,2002:set"
_OMAP = "tag:yaml.org,2002:omap"
_PAIRS = "tag:yaml.org,2002:pairs"
_MERGE = "tag:yaml.org,2002:merge"
_VALUE = "tag:yaml.org,2002:value"
_SCALAR_TAGS = frozenset(SafeConstructor.yaml_constructors) - {_SEQ, _MAP, _SET, _OMAP, _PAIRS, None}

# Frame modes: a collection filled in place, or one that keeps a _Node per
# child. _MERGE_VALUE is a mapping filled in place whose next child is the
# value of a `<<` key.
_FAST_SEQ, _FAST_MAP, _SLOW, _MERGE_VALUE = 0, 1, 2, 3

_MISS = object()
_NO_KEY = object()
_BAD_KEY = object()  # stands in for a key that failed; the document fails anyway

Failure = tuple  # (depth, path, error)


def _shift(fail: Optional[Failure], element: tuple) -> Optional[Failure]:
    """A child's least error, seen from its parent."""
    if fail is None:
        return None
    return fail[0] + 1, (element,) + fail[1], fail[2]


def _least(a: Optional[Failure], b: Optional[Failure]) -> Optional[Failure]:
    if a is None:
        return b
    if b is None or (a[0], a[1]) <= (b[0], b[1]):
        return a
    return b


def _at_start(key: tuple, error: yaml.YAMLError) -> Failure:
    """An error raised as SafeLoader starts on a collection's children."""
    return 1, ((-1, key),), error


class _Node:
    """A node that an alias, a tag or a merge needs more of than its value.

    `items` holds the children of a collection: `(element, node)` for a
    sequence, `(key element, key node, value element, value node)` for a
    mapping. `flat` is a mapping's pairs after SafeLoader's merge step, and
    the least merge error, set once the mapping is complete.
    """

    __slots__ = ("kind", "tag", "mark", "value", "fail", "raw", "items", "flat", "open")

    def __init__(self, kind: str, tag: str, mark: Any) -> None:
        self.kind = kind
        self.tag = tag
        self.mark = mark
        self.value: Any = None
        self.fail: Optional[Failure] = None
        self.raw: Optional[str] = None
        self.items: Optional[list] = None
        self.flat: Optional[tuple] = None
        self.open = False


class _EventBuilder(SafeConstructor, Resolver):
    """Builds the one document of a stream from parser events (see module doc)."""

    def __init__(self) -> None:
        SafeConstructor.__init__(self)
        Resolver.__init__(self)
        self._plain_values: dict[str, Any] = {}
        self._anchors: dict[str, _Node] = {}

    def get_single_data(self) -> Any:
        self.get_event()  # StreamStartEvent
        if self.check_event(StreamEndEvent):
            self.get_event()
            return None
        self.get_event()  # DocumentStartEvent
        data, fail, mark = self._build_root()
        self.get_event()  # DocumentEndEvent
        if not self.check_event(StreamEndEvent):
            event = self.get_event()
            raise ComposerError(
                "expected a single document in the stream", mark,
                "but found another document", event.start_mark,
            )
        self.get_event()
        if fail is not None:
            raise fail[2]
        return data

    def _build_root(self) -> tuple[Any, Optional[Failure], Any]:
        """Reads the events of one node, the root; returns its value, its
        least construction error and its start mark."""
        get_event = self.get_event
        plain_values = self._plain_values
        stack: list[tuple] = []
        holder: list = []
        # The open collection: its container (or _Node), pending mapping key,
        # mode, least error so far, start mark, and merges (filled mappings).
        cont: Any = holder
        key: Any = _NO_KEY
        mode = _FAST_SEQ
        fail: Optional[Failure] = None
        mark: Any = None
        merges: Optional[list] = None
        root_mark = self.peek_event().start_mark
        while True:
            event = get_event()
            cls = event.__class__
            node = None
            if cls is ScalarEvent:
                if mode < _SLOW and event.tag is None and event.anchor is None:
                    if event.implicit[0]:
                        value = plain_values.get(event.value, _MISS)
                        if value is _MISS:
                            value = self._plain(event)
                            if value.__class__ is _Node:
                                node = value
                    else:
                        value = event.value
                else:
                    node = self._scalar(event)
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                if len(stack) >= MAX_DEPTH:
                    raise ComposerError(
                        None, None, "document is nested too deeply", event.start_mark
                    )
                stack.append((cont, key, mode, fail, mark, merges))
                mark = event.start_mark
                key, fail, merges = _NO_KEY, None, None
                if mode < _SLOW and event.tag is None and event.anchor is None:
                    if cls is MappingStartEvent:
                        cont, mode = {}, _FAST_MAP
                    else:
                        cont, mode = [], _FAST_SEQ
                else:
                    cont, mode = self._open(event, cls is MappingStartEvent), _SLOW
                continue
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                if mode == _SLOW:
                    node = cont
                    self._finish(node)
                    cont, key, mode, fail, mark, merges = stack.pop()
                else:
                    value = cont
                    child_fail, child_mark = fail, mark
                    if merges is not None:
                        child_fail = _least(child_fail, self._merge_into(value, merges, mark))
                    cont, key, mode, fail, mark, merges = stack.pop()
                    if mode == _FAST_MAP and key is _NO_KEY:
                        # A list or dict is never a valid key.
                        child_fail = (0, (), ConstructorError(
                            "while constructing a mapping", mark,
                            "found unhashable key", child_mark,
                        ))
                        value = _BAD_KEY
                    if child_fail is not None:
                        fail = _least(fail, _shift(child_fail, (1, child_mark.index)))
            else:  # AliasEvent
                node = self._anchors.get(event.anchor)
                if node is None:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}", event.start_mark
                    )
            if node is not None:
                offset = event.start_mark.index if cls is AliasEvent else node.mark.index
                key, mode, fail, merges = self._put(
                    cont, key, mode, fail, mark, merges, (1, offset), node
                )
            elif mode == _FAST_SEQ:
                cont.append(value)
            elif key is _NO_KEY:
                key = value
            else:
                cont[key] = value
                key = _NO_KEY
            if cont is holder:
                return holder[0], fail, root_mark

    # -- scalars -----------------------------------------------------------

    def _construct_scalar(self, tag: str, raw: str, mark: Any) -> tuple[Any, Optional[Failure]]:
        """SafeLoader's value for a scalar with this tag, or its error."""
        if tag == _STR:
            return raw, None
        if tag not in _SCALAR_TAGS:
            if tag == _SEQ:
                error = ConstructorError(None, None, "expected a sequence node, but found scalar", mark)
                return [], _at_start((), error)
            if tag in (_OMAP, _PAIRS):
                return [], _at_start((), _ordered_error(tag, mark, "scalar"))
            if tag in (_MAP, _SET):
                error = ConstructorError(None, None, "expected a mapping node, but found scalar", mark)
                return ({} if tag == _MAP else set()), _at_start((), error)
            return None, (0, (), _undefined(tag, mark))
        try:
            return self.yaml_constructors[tag](self, ScalarNode(tag, raw, mark, mark)), None
        except ConstructorError as exc:
            return None, (0, (), exc)
        except (ValueError, LookupError, AttributeError):
            return None, (0, (), ConstructorError(None, None, f"cannot construct a {tag} value", mark))

    def _plain(self, event: ScalarEvent) -> Any:
        """An untagged plain scalar met for the first time in this document:
        its value, cached, or a _Node when it is special or fails."""
        raw = event.value
        tag = self.resolve(ScalarNode, raw, (True, False))
        value, fail = self._construct_scalar(tag, raw, event.start_mark)
        if fail is None and tag != _MERGE and tag != _VALUE:
            self._plain_values[raw] = value
            return value
        return self._scalar(event)

    def _scalar(self, event: ScalarEvent) -> _Node:
        tag = event.tag
        if tag is None or tag == "!":
            tag = self.resolve(ScalarNode, event.value, event.implicit)
        node = _Node("scalar", tag, event.start_mark)
        node.raw = event.value
        node.value, node.fail = self._construct_scalar(tag, event.value, event.start_mark)
        self._anchor(event, node)
        return node

    def _as_scalar(self, tag: str, node: _Node) -> tuple[Any, Optional[Failure]]:
        """Constructs a scalar tag on any node, as SafeConstructor does: a
        mapping stands for the value of its first `=` key."""
        target, seen = node, set()
        while target.kind == "mapping" and id(target) not in seen:
            seen.add(id(target))
            for _, key, _, value in target.items:
                if key.tag == _VALUE:
                    target = value
                    break
            else:
                break
        if target.kind != "scalar":
            return None, (0, (), ConstructorError(
                None, None, f"expected a scalar node, but found {target.kind}", target.mark
            ))
        return self._construct_scalar(tag, target.raw, node.mark)

    # -- collections -------------------------------------------------------

    def _anchor(self, event: Any, node: _Node) -> None:
        anchor = event.anchor
        if anchor is None:
            return
        first = self._anchors.get(anchor)
        if first is not None:
            raise ComposerError(
                f"found duplicate anchor {anchor!r}; first occurrence", first.mark,
                "second occurrence", event.start_mark,
            )
        self._anchors[anchor] = node

    def _open(self, event: Any, is_mapping: bool) -> _Node:
        tag = event.tag
        if tag is None or tag == "!":
            tag = _MAP if is_mapping else _SEQ
        node = _Node("mapping" if is_mapping else "sequence", tag, event.start_mark)
        node.items = []
        node.open = True
        # The container exists before its children, so that an alias to an
        # enclosing collection gets the same object, as in SafeLoader.
        if tag in (_SEQ, _OMAP, _PAIRS):
            node.value = []
        elif tag == _MAP:
            node.value = {}
        elif tag == _SET:
            node.value = set()
        self._anchor(event, node)
        return node

    def _put(self, cont: Any, key: Any, mode: int, fail: Optional[Failure], mark: Any,
             merges: Optional[list], element: tuple, node: _Node) -> tuple:
        """Adds a _Node child to the open collection; returns its new pending
        key, mode, least error and merges."""
        if mode == _SLOW:
            if cont.kind == "sequence":
                cont.items.append((element, node))
            elif key is _NO_KEY:
                key = (element, node)
            else:
                cont.items.append((key[0], key[1], element, node))
                key = _NO_KEY
        elif mode == _FAST_SEQ:
            cont.append(node.value)
            fail = _least(fail, _shift(node.fail, element))
        elif mode == _MERGE_VALUE:
            merges = (merges or []) + [(key, node)]
            key, mode = _NO_KEY, _FAST_MAP
        elif key is not _NO_KEY:
            cont[key] = node.value
            fail = _least(fail, _shift(node.fail, element))
            key = _NO_KEY
        elif node.tag == _MERGE:
            key, mode = element, _MERGE_VALUE
        else:
            key, key_fail = self._key(node, mark)
            fail = _least(fail, _shift(key_fail, element))
        return key, mode, fail, merges

    def _key(self, node: _Node, mark: Any) -> tuple[Any, Optional[Failure]]:
        """A mapping key as SafeConstructor constructs it, or its error."""
        if node.tag == _VALUE:
            # flatten_mapping retags an `=` key as a string.
            value, fail = self._as_scalar(_STR, node)
        else:
            value, fail = node.value, node.fail
        if fail is not None and fail[0] == 0:
            return _BAD_KEY, fail
        if isinstance(value, (list, dict, set)):
            return _BAD_KEY, (0, (), ConstructorError(
                "while constructing a mapping", mark, "found unhashable key", node.mark
            ))
        return value, fail

    def _flatten(self, merges: list, mark: Any) -> tuple[list, Optional[tuple]]:
        """SafeConstructor.flatten_mapping: the merged pairs, as `(key element,
        key node, value element, value node)` in order, and the least merge
        error `(order key, error)`."""
        pairs: list = []
        fail = None

        def failed(order: tuple, error: yaml.YAMLError) -> None:
            nonlocal fail
            if fail is None or order < fail[0]:
                fail = (order, error)

        for merge_key, source in merges:
            if source.open:
                failed((merge_key, 0, ()), ConstructorError(
                    "while constructing a mapping", mark, "found a recursive merge", source.mark
                ))
                continue
            if source.kind == "scalar":
                failed((merge_key, 0, ()), ConstructorError(
                    "while constructing a mapping", mark,
                    "expected a mapping or list of mappings for merging, but found scalar",
                    source.mark,
                ))
                continue
            group = [(0, source)] if source.kind == "mapping" else []
            if source.kind == "sequence":
                for i, (_, item) in enumerate(source.items):
                    if item.kind != "mapping":
                        failed((merge_key, i, ()), ConstructorError(
                            "while constructing a mapping", mark,
                            f"expected a mapping for merging, but found {item.kind}", item.mark,
                        ))
                        break
                    group.append((i, item))
            # Pairs of a later `<<` come later; in a merged list the earlier
            # mappings come later, so that they win.
            for i, item in reversed(group):
                if item.open:
                    failed((merge_key, i, ()), ConstructorError(
                        "while constructing a mapping", mark, "found a recursive merge", item.mark
                    ))
                    continue
                item_pairs, item_fail = item.flat
                if item_fail is not None:
                    failed((merge_key, i, item_fail[0]), item_fail[1])
                order = (merge_key, -i)
                pairs.extend(
                    ((0, order, k_el), k_node, (0, order, v_el), v_node)
                    for k_el, k_node, v_el, v_node in item_pairs
                )
        return pairs, fail

    def _fill_mapping(self, target: Any, pairs: list, mark: Any) -> Optional[Failure]:
        """Sets `target[key] = value` (or adds the key, for a set) for each
        pair; returns the least error among the pairs."""
        fail = None
        add = target.add if isinstance(target, set) else None
        for k_el, k_node, v_el, v_node in pairs:
            key, key_fail = self._key(k_node, mark)
            fail = _least(fail, _shift(key_fail, k_el))
            fail = _least(fail, _shift(v_node.fail, v_el))
            if key is _BAD_KEY:
                continue
            if add is not None:
                add(key)
            else:
                target[key] = v_node.value
        return fail

    def _merge_into(self, mapping: dict, merges: list, mark: Any) -> Optional[Failure]:
        """Applies a filled mapping's `<<` keys: merged pairs go first, so
        the mapping's own keys win. Returns the least error they add."""
        pairs, flat_fail = self._flatten(merges, mark)
        own = dict(mapping)
        mapping.clear()
        fail = self._fill_mapping(mapping, pairs, mark)
        mapping.update(own)
        if flat_fail is not None:
            fail = _least(fail, _at_start(flat_fail[0], flat_fail[1]))
        return fail

    def _finish(self, node: _Node) -> None:
        """Sets a complete collection _Node's value and least error."""
        tag, kind = node.tag, node.kind
        if kind == "mapping":
            merges = [(k_el, v_node) for k_el, k_node, _, v_node in node.items
                      if k_node.tag == _MERGE]
            pairs, flat_fail = self._flatten(merges, node.mark) if merges else ([], None)
            pairs.extend(item for item in node.items if item[1].tag != _MERGE)
            node.flat = (pairs, flat_fail)
        node.open = False
        if tag in _SCALAR_TAGS:
            if kind == "sequence":
                node.fail = (0, (), ConstructorError(
                    None, None, "expected a scalar node, but found sequence", node.mark
                ))
            else:
                node.value, node.fail = self._as_scalar(tag, node)
        elif tag not in (_SEQ, _MAP, _SET, _OMAP, _PAIRS):
            node.fail = (0, (), _undefined(tag, node.mark))
        elif tag in (_MAP, _SET):
            if kind == "sequence":
                node.fail = _at_start((), ConstructorError(
                    None, None, "expected a mapping node, but found sequence", node.mark
                ))
            else:
                pairs, flat_fail = node.flat
                if flat_fail is not None:
                    node.fail = _at_start(flat_fail[0], flat_fail[1])
                else:
                    node.fail = self._fill_mapping(node.value, pairs, node.mark)
        elif kind == "mapping":
            if tag == _SEQ:
                error = ConstructorError(
                    None, None, "expected a sequence node, but found mapping", node.mark
                )
            else:
                error = _ordered_error(tag, node.mark, "mapping")
            node.fail = _at_start((), error)
        elif tag == _SEQ:
            fail = None
            for element, child in node.items:
                node.value.append(child.value)
                fail = _least(fail, _shift(child.fail, element))
            node.fail = fail
        else:
            node.fail = self._fill_pairs(node)

    def _fill_pairs(self, node: _Node) -> Optional[Failure]:
        """SafeConstructor's !!omap and !!pairs: a sequence of one-pair
        mappings, each pair kept as a tuple, in order."""
        fail = None
        for (_, offset), item in node.items:
            if item.kind != "mapping":
                problem = f"expected a mapping of length 1, but found {item.kind}"
            elif len(item.items) != 1:
                problem = f"expected a single mapping item, but found {len(item.items)} items"
            else:
                _, k_node, _, v_node = item.items[0]
                fail = _least(fail, _shift(k_node.fail, (1, offset, 1)))
                fail = _least(fail, _shift(v_node.fail, (1, offset, 2)))
                node.value.append((k_node.value, v_node.value))
                continue
            error = ConstructorError(_ORDERED_CONTEXT[node.tag], node.mark, problem, item.mark)
            return _least(fail, (1, ((1, offset, 0),), error))
        return fail


def _undefined(tag: str, mark: Any) -> ConstructorError:
    return ConstructorError(None, None, f"could not determine a constructor for the tag {tag!r}", mark)


_ORDERED_CONTEXT = {
    _OMAP: "while constructing an ordered map",
    _PAIRS: "while constructing pairs",
}


def _ordered_error(tag: str, mark: Any, found: str) -> ConstructorError:
    return ConstructorError(_ORDERED_CONTEXT[tag], mark, f"expected a sequence, but found {found}", mark)


class PureLoader(_EventBuilder, Reader, Scanner, Parser):
    """The event builder on PyYAML's pure-Python reader, scanner and parser."""

    def __init__(self, stream: str) -> None:
        Reader.__init__(self, stream)
        Scanner.__init__(self)
        Parser.__init__(self)
        _EventBuilder.__init__(self)


if hasattr(yaml, "CSafeLoader"):

    class LibyamlLoader(_EventBuilder, yaml.cyaml.CParser):
        """The event builder on libyaml's parser."""

        def __init__(self, stream: str) -> None:
            yaml.cyaml.CParser.__init__(self, stream)
            _EventBuilder.__init__(self)
