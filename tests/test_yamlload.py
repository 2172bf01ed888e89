"""The scenario loader against PyYAML's own SafeLoader, on both parsers."""

import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, event, given, settings, strategies as st
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.parser import Parser

from agorasim import yamlload

LOADERS = [yamlload.PureLoader]
if hasattr(yamlload, "LibyamlLoader"):
    LOADERS.append(yamlload.LibyamlLoader)


def _with_scalar_errors(base: type) -> type:
    class Reference(base):
        """PyYAML's loader, except that a scalar it cannot construct
        (`!!int x`) is a ConstructorError at the scalar's line instead of a
        bare ValueError or KeyError, as in the scenario loader."""

        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep=deep)
            except (ValueError, LookupError, AttributeError):
                raise ConstructorError(None, None, "cannot construct", node.start_mark) from None

    return Reference


# Each loader is compared with PyYAML's composer and constructor on the same
# parser, so that only the building differs.
REFERENCE = {yamlload.PureLoader: _with_scalar_errors(yaml.SafeLoader)}
if hasattr(yamlload, "LibyamlLoader"):
    REFERENCE[yamlload.LibyamlLoader] = _with_scalar_errors(yaml.CSafeLoader)


def outcome(document: str, loader: type) -> tuple:
    """The data's repr (NaN and recursive values compare by it), or the
    error class and line."""
    try:
        return "ok", repr(yaml.load(document, Loader=loader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return type(exc).__name__, mark.line + 1 if mark is not None else None


SCALARS = [
    "12", "-3", "0x1F", "017", "0b101", "1_000", "1:30", "1.5", "1.0e+3", ".inf", "-.inf",
    ".nan", "._", "0x_", "true", "no", "on", "null", "~", "''", "abc", "'12'", '"x y"', "=",
    "2001-01-01", "2001-13-45", "! 12", "!!str 12", "!!int 12", "!!int x", "!!int ''",
    "!!float 3", "!!bool maybe", "!!null x", "!!binary aGk=", "!foo bar", "!!seq x", "!!set x",
]
# Collection tags: mostly none; every tag SafeConstructor knows, and one it does not.
TAGS = [None] * 8 + ["!", "!!seq", "!!map", "!!set", "!!omap", "!!pairs", "!!str", "!foo"]

scalars = st.sampled_from(SCALARS).map(lambda text: ("scalar", text))
# An alias names the k-th most recent anchor; k = 8 names no anchor at all.
aliases = st.integers(0, 8).map(lambda k: ("alias", k))


def anchored(nodes):
    # Two anchors in three draw their name from a pool of two, so that a
    # document with several anchors usually repeats a name (a duplicate
    # anchor); the third gets a name of its own (None).
    anchors = st.tuples(st.just("anchor"), st.sampled_from(["p", "q", None]), nodes)
    return st.one_of(nodes, anchors)


def tree_strategy(leaves, tags, rich: bool):
    """Documents over these scalar leaves and collection tags. Only in a rich
    one do mappings take `<<` merges and collections carry anchors."""

    def collections(children):
        sequences = st.tuples(st.just("seq"), st.sampled_from(tags), st.lists(children, max_size=4))
        pair = st.tuples(st.one_of(leaves, leaves, aliases, children), children)
        if not rich:
            mappings = st.tuples(st.just("map"), st.sampled_from(tags), st.lists(pair, max_size=4))
            return st.one_of(sequences, mappings)
        merge = st.tuples(st.just(("scalar", "<<")), st.one_of(aliases, children))
        mappings = st.tuples(
            st.just("map"), st.sampled_from(tags), st.lists(st.one_of(pair, pair, merge), max_size=4)
        )
        return anchored(st.one_of(sequences, mappings))

    return st.recursive(st.one_of(anchored(leaves), aliases), collections, max_leaves=12)


trees = tree_strategy(scalars, TAGS, rich=True)
# Untagged collections of untagged scalars, where only scalars carry
# anchors: the second tier's composer raises their anchor and alias errors
# in event order.
plain_trees = tree_strategy(
    st.sampled_from([text for text in SCALARS if not text.startswith("!")]).map(
        lambda text: ("scalar", text)
    ),
    [None],
    rich=False,
)


def render(tree) -> str:
    """Flow YAML, one collection item per line, so that lines differ."""
    anchors: list[str] = []

    def node(tree, indent: int) -> str:
        kind = tree[0]
        if kind == "anchor":
            _, name, inner = tree
            if name is None:
                name = f"a{len(anchors)}"
            anchors.append(name)
            return f"&{name} {node(inner, indent)}"
        if kind == "scalar":
            return tree[1]
        if kind == "alias":
            if tree[1] == 8:
                return "*nowhere "
            return f"*{anchors[-1 - tree[1] % len(anchors)]} " if anchors else "abc"
        tag = f"{tree[1]} " if tree[1] else ""
        pad = "\n" + " " * (indent + 1)
        if kind == "seq":
            items = [node(child, indent + 1) for child in tree[2]]
            return tag + "[" + ",".join(pad + item for item in items) + "]"
        pairs = [f"? {node(k, indent + 1)} : {node(v, indent + 1)}" for k, v in tree[2]]
        return tag + "{" + ",".join(pad + pair for pair in pairs) + "}"

    return node(tree, 0) + "\n"


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(tree=st.one_of(trees, plain_trees), second_document=st.booleans())
def test_matches_safe_loader(loader, tree, second_document):
    document = render(tree) + ("---\nx\n" if second_document else "")
    try:
        expected = outcome(document, REFERENCE[loader])
    except RecursionError:
        # SafeLoader merges some self-merging mappings without end.
        assume(False)
    assert outcome(document, loader) == expected


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
class TestExamples:
    @pytest.mark.parametrize("document, expected", [
        # Explicit keys win wherever the `<<` stands.
        ("b: &b {x: 1, y: 2}\nd: {x: 9, <<: *b}\n", {"x": 9, "y": 2}),
        ("b: &b {x: 1, y: 2}\nd: {<<: *b, x: 9}\n", {"x": 9, "y": 2}),
        # In a merged list the earlier mappings win.
        ("b: {}\nd: {<<: [{x: 1}, {x: 2, y: 3}]}\n", {"x": 1, "y": 3}),
        # A later `<<` wins over an earlier one.
        ("b: {}\nd: {<<: {x: 1}, <<: {x: 2}}\n", {"x": 2}),
        # A mapping merged into itself adds nothing.
        ("b: {}\nd: &d {<<: *d}\n", {}),
    ])
    def test_merge_precedence(self, loader, document, expected):
        data = yaml.load(document, Loader=loader)
        assert data["d"] == expected
        assert list(data["d"]) == list(yaml.load(document, Loader=yaml.SafeLoader)["d"])

    def test_recursive_alias(self, loader):
        data = yaml.load("a: &a [1, *a]\nm: &m {k: *m}\n", Loader=loader)
        assert data["a"][1] is data["a"]
        assert data["m"]["k"] is data["m"]

    @pytest.mark.parametrize("document, line", [
        ("a: &x 1\nb: &x 2\n", 2),
        ("a: 1\nb: *nope\n", 2),
        ("a: 1\n---\nb: 2\n", 2),
    ])
    def test_composer_errors_at_their_line(self, loader, document, line):
        with pytest.raises(ComposerError) as exc:
            yaml.load(document, Loader=loader)
        assert exc.value.problem_mark.line + 1 == line

    def test_first_error_in_safe_loader_order(self, loader):
        # SafeLoader constructs one nesting level at a time, so the shallower
        # bad scalar on line 3 fails before the deeper one on line 1.
        document = "a: [!!int x]\nb: 1\nc: !!int y\n"
        with pytest.raises(ConstructorError) as exc:
            yaml.load(document, Loader=loader)
        assert exc.value.problem_mark.line + 1 == 3

    @pytest.mark.parametrize("above, line, problem", [
        # The composer meets the alias before the crossing.
        ("*nope", 1, "found undefined alias 'nope'"),
        # Constructor errors come after composition.
        ("!!int x", 2 + yamlload.MAX_DEPTH, "document is nested too deeply"),
    ])
    def test_error_above_a_too_deep_collection(self, loader, above, line, problem):
        # `b`'s value opens levels 2 to MAX_DEPTH + 1, one bracket a line.
        document = f"a: {above}\nb:\n" + " [\n" * yamlload.MAX_DEPTH
        with pytest.raises(ComposerError) as exc:
            yaml.load(document, Loader=loader)
        assert exc.value.problem_mark.line + 1 == line
        assert exc.value.problem == problem

    def test_empty_int_is_an_error_at_its_line(self, loader):
        # SafeLoader itself raises IndexError here.
        with pytest.raises(ConstructorError) as exc:
            yaml.load("a: 1\nb: !!int ''\n", Loader=loader)
        assert exc.value.problem_mark.line + 1 == 2


def stack_height() -> int:
    """The number of frames on the caller's stack."""
    frame, frames = sys._getframe(1), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    return frames


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_pure_composer_out_of_stack_is_a_depth_error(loader):
    # PyYAML's pure composer, which both loaders' second tier runs, recurses
    # about two frames per level, so a caller already deep in the stack can
    # make it run out within the cap.
    document = "[\n" * yamlload.MAX_DEPTH + "]" * yamlload.MAX_DEPTH + "\n"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_height() + yamlload.MAX_DEPTH)
    try:
        with pytest.raises(ComposerError) as exc:
            yaml.load(document, Loader=loader)
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.problem == "document is nested too deeply"
    # The bracket that opens the deepest level.
    assert exc.value.problem_mark.line + 1 == yamlload.MAX_DEPTH


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_out_of_stack_anywhere_names_the_deepest_collection(loader):
    # The stack may run out in the parser under the composer, which then
    # loses its place in the events. Block mappings, one a line, and on the
    # last line the flow sequence that opens level MAX_DEPTH.
    depth = yamlload.MAX_DEPTH
    document = "".join(" " * i + "k:\n" for i in range(depth - 1)) + " " * (depth - 1) + "[1]\n"
    outcomes = set()
    limit = sys.getrecursionlimit()
    height = stack_height()
    try:
        for room in range(40, 2 * depth + 40, 20):
            sys.setrecursionlimit(height + room)
            try:
                yaml.load(document, Loader=loader)
                outcomes.add("ok")
            except ComposerError as exc:
                outcomes.add((exc.problem, exc.problem_mark.line + 1))
    finally:
        sys.setrecursionlimit(limit)
    # With room enough the document loads; with too little, wherever the
    # stack runs out, the error names the deepest collection.
    assert ("document is nested too deeply", depth) in outcomes
    assert outcomes <= {"ok", ("document is nested too deeply", depth)}


def test_second_tier_reads_each_event_once(monkeypatch):
    # market-10x5.yaml's flow sequences send it to the second tier.
    text = (Path(__file__).parents[1] / "scenarios" / "market-10x5.yaml").read_text(encoding="utf-8")
    events = len(list(yaml.parse(text)))
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    read = []
    get_event = Parser.get_event

    def spy(self):
        read.append(True)
        return get_event(self)

    monkeypatch.setattr(Parser, "get_event", spy)
    assert yaml.load(text, Loader=yamlload.PureLoader) == expected
    assert len(read) == events


# The line scanner's layout, and near misses of it. Scalars come from SCALARS,
# mostly from the plain tokens among them that construct: the scanner reads
# those, and hands a document with any other scalar, a flow sequence or a
# nested flow collection to the second tier.
READABLE = ["12", "-3", "0x1F", "017", "0b101", "1_000", "1.5", "1.0e+3", ".inf", "-.inf",
            ".nan", "true", "no", "on", "null", "abc", "2001-01-01",
            # Decimals, which the scanner builds without the resolver, and
            # near misses of their pattern, which still go through it.
            "-0", "0.50", "-0.0", "00.5", "1.", ".5", "+1", "+1.5", "10.19", "4000",
            "18446744073709551615"]
layout_scalars = st.sampled_from(READABLE * 8 + SCALARS)
MISSES = ["continuation", "tab", "quote", "long-key", "document-start", "document-end"]

flow_nodes = st.recursive(
    layout_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(lambda items: ("[", items)),
        st.lists(st.tuples(layout_scalars, children), max_size=3).map(
            lambda pairs: ("{", pairs)
        ),
    ),
    max_leaves=6,
)
# A block collection's indent past its parent's key or entry: 1 to 4
# spaces; a sequence under a key may also be indentless (0).
map_offsets = st.integers(1, 4)
seq_offsets = st.sampled_from([0, 1, 2, 2, 3, 4])


def collections(children):
    pairs = st.lists(st.tuples(layout_scalars, children), min_size=1, max_size=3)
    mappings = st.tuples(st.just("map"), map_offsets, pairs)
    items = st.lists(st.one_of(flow_nodes, mappings), min_size=1, max_size=3)
    # A sequence's entries are `-` and 1 to 3 spaces.
    sequences = st.tuples(st.just("seq"), seq_offsets, st.integers(1, 3), items)
    return st.one_of(mappings, sequences)


# Block collections; a mapping's value may also be empty (None).
block_nodes = st.recursive(
    collections(st.one_of(flow_nodes, st.none())),
    lambda children: collections(st.one_of(flow_nodes, st.none(), children)),
    max_leaves=10,
)


def render_lines(root, separator: str, used: set) -> list[str]:
    """The block layout of `root`, one line per key or entry; `used` gathers
    the scalar texts, whether a sequence was indentless (0) and whether a
    flow sequence ("[") or a nested flow collection ("nested") was written."""
    lines: list[str] = []

    def inline(node, top: bool = True) -> str:
        if isinstance(node, str):
            used.add(node)
            return node
        if not top:
            used.add("nested")
        if node[0] == "[":
            used.add("[")
            return "[" + separator.join(inline(item, False) for item in node[1]) + "]"
        return "{" + separator.join(f"{inline(k)}: {inline(v, False)}" for k, v in node[1]) + "}"

    def value(head: str, node, column: int) -> None:
        if node is None:
            lines.append(head)
        elif isinstance(node, tuple) and node[0] in ("map", "seq"):
            lines.append(head)
            if node[0] == "seq" and node[1] == 0:
                used.add(0)
            block(node, column + node[1])
        else:
            lines.append(f"{head} {inline(node)}")

    def mapping(pairs, column: int, first_head: str) -> None:
        for i, (key, node) in enumerate(pairs):
            head = first_head if i == 0 else " " * column
            value(f"{head}{inline(key)}:", node, column)

    def block(node, column: int) -> None:
        if node[0] == "map":
            mapping(node[2], column, " " * column)
            return
        _, _, gap, items = node
        for item in items:
            entry = " " * column + "-" + " " * gap
            if isinstance(item, tuple) and item[0] == "map":  # a compact mapping
                mapping(item[2], column + 1 + gap, entry)
            else:
                lines.append(entry + inline(item))

    block(root, 0)
    return lines


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(root=block_nodes, separator=st.sampled_from([", ", ",", " , "]), data=st.data())
def test_line_scanner_matches_safe_loader(loader, root, separator, data):
    used: set = set()
    lines = render_lines(root, separator, used)
    decorated = []
    for line in lines:
        filler = data.draw(st.sampled_from(["", "", "", "", "  # c", "# c: [d]", "   "]))
        if filler.startswith("#"):  # a comment line, at any indent
            decorated.append(" " * data.draw(st.integers(0, 6)) + filler)
            filler = ""
        decorated.append(line + filler)
    miss = data.draw(st.sampled_from([None] * 10 + MISSES))
    if miss is not None:
        at = data.draw(st.integers(0, len(decorated) - 1))
        line = decorated[at]
        if miss == "continuation":  # a line deeper than its block allows
            depth = len(line) - len(line.lstrip(" "))
            decorated.insert(at + 1, " " * (depth + data.draw(st.integers(1, 4))) + "more")
        elif miss == "tab":
            decorated[at] = line.replace(" ", "\t", 1) if " " in line else "\t" + line
        elif miss == "quote":
            decorated[at] = re.sub(r"[-\w.+]+", lambda m: f"'{m.group()}'", line, count=1)
        elif miss == "long-key":  # past the parser's 1024 characters for a simple key
            decorated[at] = re.sub(r"[-\w.+]+(?=:)", "k" * 1100, line, count=1)
        elif miss == "document-start":
            decorated.insert(at, "---")
        else:
            decorated.append("...")
    document = "\n".join(decorated) + "\n"
    expected = outcome(document, REFERENCE[loader])
    assert outcome(document, loader) == expected
    builder = loader(document)
    try:
        scanned = builder._scan_lines()
    finally:
        builder.dispose()
    event("read from its lines" if scanned is not yamlload._EVENTS else "to the second tier")
    if scanned is not yamlload._EVENTS:
        assert ("ok", repr(scanned)) == expected
    elif miss is None and used <= set(READABLE):
        pytest.fail(f"the scanner did not read {document!r}")


# A decimal's pattern, with the forms around it: signs, leading zeros,
# underscores, bare dots and exponents.
decimal_like = st.from_regex(
    r"[-+]?(0|[1-9][0-9]{0,3}|0[0-9_]{1,3}|[1-9][0-9_]{1,4})?(\.[0-9_]{0,3})?([eE][-+]?[0-9]{1,3})?",
    fullmatch=True,
)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=200, deadline=None)
@given(token=decimal_like)
def test_decimal_like_tokens_match_safe_loader(loader, token):
    # By repr, so that -0.0 keeps its sign and 0.50 stays a float.
    document = f"k: {token}\n"
    assert outcome(document, loader) == outcome(document, REFERENCE[loader])


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("token", READABLE)
def test_only_strict_decimals_skip_the_resolver(loader, token, monkeypatch):
    resolved = []
    resolve = yamlload._LineLoader.resolve
    monkeypatch.setattr(yamlload._LineLoader, "resolve", lambda self, kind, value, implicit: (
        resolved.append(value) or resolve(self, kind, value, implicit)
    ))
    builder = loader(f"k: {token}\n")
    try:
        scanned = builder._scan_lines()
    finally:
        builder.dispose()
    assert repr(scanned) == repr(yaml.load(f"k: {token}\n", Loader=yaml.SafeLoader))
    strict = re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?", token) is not None
    assert (token in resolved) is not strict


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("digits", ["1" * 5000, "1" * 5000 + ".5"], ids=["int", "float"])
def test_decimal_past_the_int_digit_limit(loader, digits):
    # int() refuses a decimal of more than 4300 digits with a bare ValueError,
    # which SafeLoader lets escape; here it is a ConstructorError at its line.
    # float() has no such limit.
    document = f"a: 1\nk: {digits}\n"
    expected = outcome(document, REFERENCE[loader])
    assert outcome(document, loader) == expected
    if "." not in digits:
        assert expected == ("ConstructorError", 2)


# The pattern that once screened documents for the line scanner: any
# character but a newline and printable ASCII, and the quotes and indicators
# that the layout has no use for.
OLD_SCREEN = re.compile("[^\n%s]" % re.escape(
    "".join(c for c in map(chr, range(32, 127)) if c not in "\"'&*!?|>")
))


@pytest.mark.parametrize("char", [*map(chr, range(128)), "\u00e9", "\u2028", "\ufeff"], ids=ord)
def test_screen_refuses_what_the_pattern_refused(char):
    # Inside a comment, followed by another, so that every character the
    # screen lets through, a newline among them, leaves a valid line.
    document = f"k: v  # a{char}# b\n"
    scanned = yamlload._LineLoader(document)._scan_lines()
    assert (scanned is not yamlload._EVENTS) == (OLD_SCREEN.search(document) is None)
