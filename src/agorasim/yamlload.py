"""YAML loading for scenario files: plain data built straight from parser events.

`yaml.load(text, Loader=...)` with either loader here returns what
`yaml.load(text, Loader=yaml.SafeLoader)` returns, or raises a YAMLError of
the same class at the same line.

An untagged, unanchored document, as scenario files are, is built by one
loop over the parser's events with an explicit stack of open collections,
without PyYAML's node tree. Each distinct plain scalar text is resolved and
constructed by SafeConstructor once per document, and its value shared.

The first event the loop does not build (a tag, an anchor or alias, a plain
scalar that resolves to `<<` or `=` or fails to construct, a collection used
as a mapping key) hands the document to PyYAML's own loader on the same
parser, `library`, which reads the text again. A scalar it cannot construct
(`!!int x`, `!!int ''`) is a ConstructorError at its line, where SafeLoader
lets a bare ValueError, KeyError or IndexError escape.

Nesting deeper than MAX_DEPTH open collections is a ComposerError at the
collection that crosses it. The loop enforces the cap and, before a
hand-over, reads the rest of the document under it, raising the composer's
undefined-alias and duplicate-anchor errors in event order; so the library
loader never composes a deeper document. PyYAML's pure composer recurses and
may run out of stack a little short of the cap; that too is a ComposerError.
PureLoader's scanner, quadratic in open flow brackets, stops at the cap with
a ScannerError.
"""

from __future__ import annotations

from typing import Any

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent,
                         SequenceEndEvent, StreamEndEvent)
from yaml.nodes import ScalarNode
from yaml.parser import Parser
from yaml.reader import Reader
from yaml.resolver import Resolver
from yaml.scanner import Scanner, ScannerError

MAX_DEPTH = 500

_STR = "tag:yaml.org,2002:str"
_MISS = object()
_NO_KEY = object()
_LIBRARY = object()  # the document goes to the library loader


def _too_deep(mark: Any) -> ComposerError:
    return ComposerError(None, None, "document is nested too deeply", mark)


def _with_scalar_errors(base: type) -> type:
    class Library(base):
        """PyYAML's loader, except that a scalar it cannot construct is a
        ConstructorError at the scalar's line."""

        def construct_object(self, node: Any, deep: bool = False) -> Any:
            try:
                return super().construct_object(node, deep=deep)
            except (ValueError, LookupError, AttributeError):
                raise ConstructorError(
                    None, None, f"cannot construct a {node.tag} value", node.start_mark
                ) from None

    return Library


class _EventBuilder(SafeConstructor, Resolver):
    """Builds the one document of a stream from parser events (see module doc)."""

    library: type  # PyYAML's loader on the same parser

    def __init__(self, document: str) -> None:
        SafeConstructor.__init__(self)
        Resolver.__init__(self)
        self._document = document
        self._plain_values: dict[str, Any] = {}
        self._deepest: Any = None  # where _drain went deepest

    def get_single_data(self) -> Any:
        self.get_event()  # StreamStartEvent
        if self.check_event(StreamEndEvent):
            self.get_event()
            return None
        self.get_event()  # DocumentStartEvent
        root_mark = self.peek_event().start_mark
        data = self._build_root()
        self.get_event()  # DocumentEndEvent
        if not self.check_event(StreamEndEvent):
            raise ComposerError(
                "expected a single document in the stream", root_mark,
                "but found another document", self.get_event().start_mark,
            )
        self.get_event()
        if data is not _LIBRARY:
            return data
        loader = self.library(self._document)
        try:
            return loader.get_single_data()
        except RecursionError:
            raise _too_deep(self._deepest) from None
        finally:
            loader.dispose()

    def _build_root(self) -> Any:
        """Reads the events of the root node; returns its value, or _LIBRARY
        once it has read a document the loop does not build."""
        get_event = self.get_event
        plain_values = self._plain_values
        stack: list[tuple] = []
        holder: list = []
        cont: Any = holder  # the open collection
        key: Any = _NO_KEY  # its pending mapping key
        is_seq = True
        while True:
            event = get_event()
            cls = event.__class__
            if cls is ScalarEvent:
                if event.tag is not None or event.anchor is not None:
                    return self._drain(event, len(stack))
                if event.implicit[0]:
                    value = plain_values.get(event.value, _MISS)
                    if value is _MISS:
                        value = self._plain(event.value)
                        if value is _MISS:
                            return self._drain(event, len(stack))
                else:
                    value = event.value
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                value = cont
                cont, key, is_seq = stack.pop()
            else:  # a collection start, or an alias: its anchor is the name it reads
                if (event.anchor is not None or event.tag is not None
                        or (not is_seq and key is _NO_KEY)):  # a collection as a key
                    return self._drain(event, len(stack))
                if len(stack) >= MAX_DEPTH:
                    raise _too_deep(event.start_mark)
                stack.append((cont, key, is_seq))
                key = _NO_KEY
                if cls is MappingStartEvent:
                    cont, is_seq = {}, False
                else:
                    cont, is_seq = [], True
                continue
            if is_seq:
                cont.append(value)
            elif key is _NO_KEY:
                key = value
            else:
                cont[key] = value
                key = _NO_KEY
            if cont is holder:
                return holder[0]

    def _plain(self, raw: str) -> Any:
        """An untagged plain scalar's value, cached; _MISS when it resolves to
        a tag without a constructor (`<<`, `=`) or fails to construct."""
        tag = self.resolve(ScalarNode, raw, (True, False))
        if tag == _STR:
            value = raw
        else:
            try:
                value = self.yaml_constructors[tag](self, ScalarNode(tag, raw))
            except (yaml.YAMLError, ValueError, LookupError, AttributeError):
                return _MISS
        self._plain_values[raw] = value
        return value

    def _drain(self, event: Any, depth: int) -> Any:
        """Reads the rest of the document from `event` on, `depth` collections
        deep, with the composer's checks and the depth cap; returns _LIBRARY."""
        anchors: dict[str, Any] = {}
        deepest, self._deepest = depth, event.start_mark
        while True:
            cls = event.__class__
            if cls is MappingEndEvent or cls is SequenceEndEvent:
                depth -= 1
            elif cls is AliasEvent:
                if event.anchor not in anchors:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}", event.start_mark
                    )
            else:
                anchor = event.anchor
                if anchor is not None:
                    if anchor in anchors:
                        raise ComposerError(
                            f"found duplicate anchor {anchor!r}; first occurrence", anchors[anchor],
                            "second occurrence", event.start_mark,
                        )
                    anchors[anchor] = event.start_mark
                if cls is not ScalarEvent:
                    if depth >= MAX_DEPTH:
                        raise _too_deep(event.start_mark)
                    depth += 1
                    if depth > deepest:
                        deepest, self._deepest = depth, event.start_mark
            if depth == 0:
                return _LIBRARY
            event = self.get_event()


class PureLoader(_EventBuilder, Reader, Scanner, Parser):
    """The event builder on PyYAML's pure-Python reader, scanner and parser."""

    library = _with_scalar_errors(yaml.SafeLoader)

    def __init__(self, stream: str) -> None:
        Reader.__init__(self, stream)
        Scanner.__init__(self)
        Parser.__init__(self)
        _EventBuilder.__init__(self, stream)

    def fetch_flow_collection_start(self, TokenClass: type) -> None:
        if self.flow_level >= MAX_DEPTH:
            raise ScannerError(None, None, "document is nested too deeply", self.get_mark())
        super().fetch_flow_collection_start(TokenClass)


if hasattr(yaml, "CSafeLoader"):

    class LibyamlLoader(_EventBuilder, yaml.cyaml.CParser):
        """The event builder on libyaml's parser."""

        library = _with_scalar_errors(yaml.CSafeLoader)

        def __init__(self, stream: str) -> None:
            yaml.cyaml.CParser.__init__(self, stream)
            _EventBuilder.__init__(self, stream)
