"""YAML loading for scenario files: plain data read in two tiers.

`yaml.load(text, Loader=...)` with either loader here returns what
`yaml.load(text, Loader=yaml.SafeLoader)` returns, or raises a YAMLError of
the same class at the same line.

A document in the block layout that scenario files use, as `marketgen` and
the shipped scenarios write them, is read from its lines, without the parser:
printable ASCII only; block mappings and sequences, each line one `key:
value`, `key:` opening a deeper block, `- key: value` opening a compact
mapping, or `- value`; values that are plain tokens (letters, digits and
`_ . + -`) or one-line flow mappings of them (`{id: price, min: 10}`); blank
lines, full-line comments and ` #` comments. Each distinct plain scalar, and
each distinct `key: value` part of a flow mapping, is built once per document
and shared (each line still gets a dict of its own): a decimal (`-`, digits
with no leading zero, a fraction) as `int(text)` or `float(text)`, which is
what the resolver and SafeConstructor make of it, any other token by them.
Anything else (a quote, a tab, CR or `& * ! ? | >` anywhere, comments
included; a line opening with `---` or `...`; a flow sequence, a nested flow
collection, a scalar or flow mapping spread over several lines, an indentless
sequence, a line deeper than its block allows, a token that does not
construct, nesting past MAX_DEPTH) sends the whole document to the second
tier; the line scanner raises no error itself. A `str.translate` that deletes
the layout's characters finds any other before a line is read.

The second tier is PyYAML's own composer and SafeConstructor on the loader's
parser, which read the text once; on libyaml's parser, too, the composer is
PyYAML's pure-Python one, as libyaml's has no depth cap. The composer raises
its undefined-alias, duplicate-anchor and second-document errors in event
order. A scalar the constructor cannot build (`!!int x`, `!!int ''`) is a
ConstructorError at its line, where SafeLoader lets a bare ValueError,
KeyError or IndexError escape.

Nesting deeper than MAX_DEPTH open collections is a ComposerError at the
collection that crosses it, raised as the composer takes its event.
MAX_DEPTH sits well inside the stack of PyYAML's composer, which recurses
about two frames per level and ran out of stack short of 500 levels. Should
it still run out, perhaps inside the parser, which then loses its place, the
events are read again from the start under the cap, and the error names the
deepest collection. The pure scanner, quadratic in open flow brackets, needs
no cap of its own: it reads at most 1024 characters, or to the end of a line
and one token on, ahead of the parser, so the cap stops it within that
distance of the crossing.
"""

from __future__ import annotations

import re
from typing import Any

import yaml
from yaml.composer import Composer, ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import CollectionEndEvent, CollectionStartEvent, DocumentEndEvent
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

MAX_DEPTH = 200

_STR = "tag:yaml.org,2002:str"
_MISS = object()
_NO_KEY = object()
_EVENTS = object()  # the document goes to the second tier

# Deletes the characters of the line scanner's layout: a newline and printable
# ASCII but the quotes and indicators it has no use for. A character left (a
# tab, CR, another YAML line break, one the reader rejects, a quote even in a
# comment) sends the document to the second tier, found in one pass where the
# scanner would find it only on reaching its line.
_LAYOUT = str.maketrans("", "", "\n" + "".join(
    c for c in map(chr, range(32, 127)) if c not in "\"'&*!?|>"
))
# A plain scalar token: letters, digits and `_ . + -`, but not a lone `-` (a
# sequence entry) nor a `---` or `...` that may mark a document.
_TOKEN = re.compile(r"(?!-$|---|\.\.\.)[-\w.+]+")
# A decimal: int(text) or float(text), as the resolver and SafeConstructor
# build it. A `+`, leading zero, `_`, bare dot or exponent is left to them.
_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?")
# The longest key read; the parser refuses a simple key past 1024 characters.
_KEY_LENGTH = 128
# A line's content after its indent, less any ` #` comment: an optional `- `
# entry, an optional `key:`, a value.
_LINE = re.compile(r"(- +)?(?:([-\w.+]{1,%d}):(?: +|$))?(.*)" % _KEY_LENGTH)

# A line's value: none (a `key:` that opens a block), a scalar, or a flow
# mapping of scalars. Block collections stop one short of MAX_DEPTH, so that
# a flow mapping in one never crosses it.
_EMPTY, _PLAIN, _FLAT_MAP = range(3)
_BLOCK_DEPTH = MAX_DEPTH - 1


def _too_deep(mark: Any) -> ComposerError:
    return ComposerError(None, None, "document is nested too deeply", mark)


class _LineLoader(SafeConstructor, Resolver):
    """Builds the one document of a stream from its lines, else has PyYAML's
    composer and constructor read it with the depth cap (see module doc)."""

    def __init__(self, document: str) -> None:
        self._document = document
        self._plain_values: dict[str, Any] = {}
        self._parts: dict[str, tuple] = {}  # a flow mapping part's (key, value)
        # Open collections in the second tier; the most, and where first.
        self._depth = self._deepest = 0
        self._deepest_mark: Any = None

    def get_single_data(self) -> Any:
        data = self._scan_lines()
        if data is not _EVENTS:
            return data
        try:
            return super().get_single_data()
        except RecursionError:
            pass
        # Out of stack, perhaps inside the parser (see module doc).
        events = type(self)(self._document)
        try:
            while not isinstance(events.get_event(), DocumentEndEvent):
                pass
        finally:
            events.dispose()
        raise _too_deep(events._deepest_mark)

    def get_event(self) -> Any:
        event = super().get_event()
        if isinstance(event, CollectionStartEvent):
            depth = self._depth = self._depth + 1
            if depth > self._deepest:
                self._deepest, self._deepest_mark = depth, event.start_mark
            if depth > MAX_DEPTH:
                raise _too_deep(event.start_mark)
        elif isinstance(event, CollectionEndEvent):
            self._depth -= 1
        return event

    def construct_object(self, node: Any, deep: bool = False) -> Any:
        try:
            return super().construct_object(node, deep=deep)
        except (ValueError, LookupError, AttributeError):
            raise ConstructorError(
                None, None, f"cannot construct a {node.tag} value", node.start_mark
            ) from None

    def _scan_lines(self) -> Any:
        """Builds the document from its lines when it keeps to the block
        layout (see module doc); _EVENTS when it does not."""
        document = self._document
        if (not isinstance(document, str) or document.translate(_LAYOUT)
                or "\n---" in document or "\n..." in document):
            return _EVENTS
        # Each distinct line content's record, but a flow mapping's: its dict
        # goes into the data, and most such lines are distinct. Kept, those
        # records would count toward the collector's thresholds through the
        # load, and add a gen-1 pass to it on sparse-market.
        records: dict[str, Any] = {}
        holder: dict = {}
        # The open block collections under the top one, as (indent,
        # collection, is_seq); the holder of the root at indent -1 is first.
        stack: list[tuple] = []
        indent_top, cont, is_seq = -1, holder, False
        pending: Any = (holder, None, -1)  # a `key:` awaiting its value, and its column
        lines = document.split("\n")
        lines.reverse()
        while lines:
            line = lines.pop()  # so that each line's text is freed once read
            content = line.lstrip(" ")
            if not content or content[0] == "#":
                continue
            indent = len(line) - len(content)
            record = records.get(content)
            if record is None:
                record = self._line_record(content)
                if record is None:
                    return _EVENTS
                if record[2] != _FLAT_MAP:
                    records[content] = record
            dash, key, kind, value = record
            if pending is not None:
                owner, owner_key, column = pending
                pending = None
                if indent > column:  # the line opens the key's block
                    if len(stack) >= _BLOCK_DEPTH or not dash and key is _NO_KEY:
                        return _EVENTS
                    stack.append((indent_top, cont, is_seq))
                    indent_top, cont, is_seq = indent, [] if dash else {}, bool(dash)
                    owner[owner_key] = cont
                elif dash and indent == column:  # an indentless sequence
                    return _EVENTS
                else:
                    owner[owner_key] = None
            while indent < indent_top:
                indent_top, cont, is_seq = stack.pop()
            if indent != indent_top:
                return _EVENTS
            column = indent
            target = cont
            if is_seq:
                if not dash:
                    return _EVENTS
                if key is _NO_KEY:
                    if kind == _EMPTY:
                        return _EVENTS
                    cont.append(value)
                    continue
                if len(stack) >= _BLOCK_DEPTH:  # `- key:` opens a compact mapping
                    return _EVENTS
                column += dash
                target = {}
                cont.append(target)
                stack.append((indent_top, cont, is_seq))
                indent_top, cont, is_seq = column, target, False
            elif dash or key is _NO_KEY:
                return _EVENTS
            if kind == _EMPTY:
                pending = (target, key, column)
            else:
                target[key] = value
        if pending is not None:
            if pending[0] is holder:  # no content
                return _EVENTS
            pending[0][pending[1]] = None
        return holder[None]

    def _line_record(self, content: str) -> Any:
        """(width of the `- ` entry or 0, key, value kind, value) of a line's
        content after its indent; None when it is outside the layout."""
        cut = content.find("#")
        if cut >= 0:
            if content[cut - 1] != " ":
                return None
            content = content[:cut]
        dash, key, text = _LINE.fullmatch(content.rstrip(" ")).groups()
        dash = len(dash) if dash else 0
        if key is None:
            key = _NO_KEY
        else:
            key = self._scalar(key)
            if key is _MISS:
                return None
        if not text:
            return dash, key, _EMPTY, None
        if text[0] == "{":
            pairs = self._flat_map(text)
            return None if pairs is None else (dash, key, _FLAT_MAP, pairs)
        value = self._scalar(text)
        return None if value is _MISS else (dash, key, _PLAIN, value)

    def _scalar(self, text: str) -> Any:
        """A plain scalar token's value, cached; _MISS for any other text."""
        value = self._plain_values.get(text, _MISS)
        if value is _MISS and _TOKEN.fullmatch(text):
            value = self._plain(text)
        return value

    def _flat_map(self, text: str) -> Any:
        """The one-line flow mapping `text` of scalars, as a dict, which the
        cyclic collector does not track; None when it is outside the layout."""
        inner = text[1:-1]
        if text[-1] != "}" or "[" in inner or "]" in inner or "{" in inner or "}" in inner:
            return None
        parts = self._parts
        pairs: dict = {}
        for part in inner.split(",") if inner.strip(" ") else ():
            pair = parts.get(part)
            if pair is None:
                key, colon, value = part.partition(":")
                key = key.lstrip(" ")
                if value[:1] != " " or len(key) > _KEY_LENGTH:
                    return None
                pair = parts[part] = self._scalar(key), self._scalar(value.strip(" "))
                if _MISS in pair:  # the document goes to the second tier
                    return None
            key, value = pair
            pairs[key] = value
        return pairs

    def _plain(self, raw: str) -> Any:
        """An untagged plain scalar's value, cached; _MISS when it resolves to
        a tag without a constructor (`<<`, `=`) or fails to construct (an int
        past int()'s digit limit among them)."""
        try:
            if _DECIMAL.fullmatch(raw):
                value = float(raw) if "." in raw else int(raw)
            elif (tag := self.resolve(ScalarNode, raw, (True, False))) == _STR:
                value = raw
            else:
                value = self.yaml_constructors[tag](self, ScalarNode(tag, raw))
        except (yaml.YAMLError, ValueError, LookupError, AttributeError):
            return _MISS
        self._plain_values[raw] = value
        return value


class PureLoader(_LineLoader, yaml.SafeLoader):
    """The scenario loader on PyYAML's pure-Python reader, scanner and parser."""

    def __init__(self, stream: str) -> None:
        yaml.SafeLoader.__init__(self, stream)
        _LineLoader.__init__(self, stream)


if hasattr(yaml, "CSafeLoader"):

    class LibyamlLoader(_LineLoader, Composer, yaml.CSafeLoader):
        """The scenario loader on libyaml's parser, and PyYAML's composer:
        libyaml's own composer has no depth cap."""

        def __init__(self, stream: str) -> None:
            yaml.CSafeLoader.__init__(self, stream)
            Composer.__init__(self)
            _LineLoader.__init__(self, stream)
