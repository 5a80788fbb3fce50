"""Line-oriented textual behaviour-tree format.

One node per line: ``indent [name ":"] spec ["->" machine]`` with ``#``
comments.  Indentation depth encodes the parent-child relationship; the
indent unit (one tab, or K spaces) is inferred from the first indented
line of a document.  A machine context set on a line applies to its whole
subtree unless overridden further down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .core import (
    FailureIsRunning,
    Inverter,
    Parallel,
    ParallelPolicy,
    Selector,
    Sequence,
    TreeNode,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResolveError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class ParsedLine:
    indent_level: int
    node_name: Optional[str]
    node_spec: str
    machine_context: Optional[str]
    source_line: int


@dataclass
class ParsedNode:
    line: ParsedLine
    children: list["ParsedNode"] = field(default_factory=list)


@dataclass
class TreeDocument:
    root: ParsedNode


_CONTEXT_RE = re.compile(r"->\s*(\S*)\s*$")
_IDENT_RE = re.compile(r"^\S+$")


def _split_indent(raw: str, lineno: int):
    i = 0
    while i < len(raw) and raw[i] in " \t":
        i += 1
    indent = raw[:i]
    if " " in indent and "\t" in indent:
        raise ParseError("mixed tabs and spaces in indentation", lineno)
    return indent, raw[i:]


def parse_line(raw: str, lineno: int = 1,
               indent_unit: Optional[str] = None) -> Optional[ParsedLine]:
    """Parse one physical line; returns None for blank and comment lines."""
    raw = raw.rstrip("\r\n")
    indent, body = _split_indent(raw, lineno)
    hash_pos = body.find("#")
    if hash_pos >= 0:
        body = body[:hash_pos]
    body = body.strip()
    if not body:
        return None

    context = None
    m = _CONTEXT_RE.search(body)
    if m:
        context = m.group(1)
        if not context:
            raise ParseError("'->' with empty machine context", lineno)
        if not _IDENT_RE.match(context):
            raise ParseError(f"invalid machine context {context!r}", lineno)
        body = body[:m.start()].strip()

    name = None
    if ":" in body:
        name, _, spec = body.partition(":")
        name = name.strip()
        spec = spec.strip()
        if not name:
            raise ParseError("empty node name before ':'", lineno)
    else:
        spec = body
    if not spec:
        raise ParseError("empty node specification", lineno)
    if not _IDENT_RE.match(spec):
        raise ParseError(f"node specification must be one token, got {spec!r}",
                         lineno)

    level = _indent_depth(indent, indent_unit, lineno)
    return ParsedLine(indent_level=level, node_name=name, node_spec=spec,
                      machine_context=context, source_line=lineno)


def _indent_depth(indent: str, unit: Optional[str], lineno: int) -> int:
    if not indent:
        return 0
    if unit is None:
        # Standalone parse: a tab counts as one level, spaces count singly.
        return len(indent)
    if "\t" in unit:
        if " " in indent:
            raise ParseError("file is tab-indented but line uses spaces", lineno)
        return len(indent)
    if "\t" in indent:
        raise ParseError("file is space-indented but line uses tabs", lineno)
    if len(indent) % len(unit) != 0:
        raise ParseError(
            f"indentation of {len(indent)} spaces is not a multiple of the "
            f"inferred unit ({len(unit)} spaces)", lineno)
    return len(indent) // len(unit)


def parse_document(text: Union[str, bytes]) -> TreeDocument:
    """Parse a whole document into a ParsedNode tree.

    Totality: any input either yields a TreeDocument or raises ParseError
    carrying a line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    # First pass: find the indent unit from the first indented line.
    unit = None
    raw_lines = text.split("\n")
    for lineno, raw in enumerate(raw_lines, start=1):
        indent, body = _split_indent(raw.rstrip("\r"), lineno)
        stripped = body.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if indent and unit is None:
            unit = "\t" if "\t" in indent else indent
            break

    root: Optional[ParsedNode] = None
    stack: list[ParsedNode] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = parse_line(raw, lineno, indent_unit=unit)
        if line is None:
            continue
        node = ParsedNode(line)
        if line.indent_level == 0:
            if root is not None:
                raise ParseError("multiple root nodes (indent 0)", lineno)
            root = node
            stack = [node]
            continue
        if root is None:
            raise ParseError("first node must be at indent level 0", lineno)
        parent_level = stack[-1].line.indent_level
        if line.indent_level > parent_level + 1:
            raise ParseError(
                f"indent jumps from level {parent_level} to "
                f"{line.indent_level}", lineno)
        while stack and stack[-1].line.indent_level >= line.indent_level:
            stack.pop()
        stack[-1].children.append(node)
        stack.append(node)

    if root is None:
        raise ParseError("document contains no nodes", len(raw_lines))
    return TreeDocument(root=root)


# ---------------------------------------------------------------------------
# Registry and resolution
# ---------------------------------------------------------------------------

# A factory takes (name, children, context) where children are already
# resolved TreeNodes, and returns a TreeNode.  Subtree factories ignore
# children (and reject non-empty child lists).

Factory = Callable[[str, list, Optional[str]], TreeNode]


def _composite(ctor):
    def make(name, children, context):
        return ctor(name=name, children=children, context=context)
    return make


def _parallel(policy_fn):
    def make(name, children, context):
        return Parallel(name=name, children=children, context=context,
                        policy=policy_fn())
    return make


class NodeRegistry:
    """Maps node_spec strings to node factories."""

    def __init__(self):
        self._factories: dict[str, Factory] = {}
        self.register("Sequence", _composite(
            lambda name, children, context: Sequence(
                name, children, context, memory=True)))
        self.register("SequenceWithoutMemory", _composite(
            lambda name, children, context: Sequence(
                name, children, context, memory=False)))
        self.register("Selector", _composite(Selector))
        self.register("ParallelSuccessOnOne",
                      _parallel(ParallelPolicy.SucceedOnOne))
        self.register("ParallelSuccessOnAll",
                      _parallel(ParallelPolicy.SucceedOnAll))
        # "first" = the status of child 0 decides (used for the
        # scenario-completion gate at the top of the planner trees).
        self.register("ParallelSuccessOnFirst",
                      _parallel(lambda: ParallelPolicy.SucceedOnChild(0)))
        self.register("Inverter", _composite(Inverter))
        self.register("FailureIsRunning", _composite(FailureIsRunning))

    def register(self, spec: str, factory: Factory) -> None:
        self._factories[spec] = factory

    def lookup(self, spec: str) -> Optional[Factory]:
        fac = self._factories.get(spec)
        if fac is not None:
            return fac
        m = re.match(r"^ParallelSuccessOnChild(\d+)$", spec)
        if m:
            idx = int(m.group(1))
            return _parallel(lambda: ParallelPolicy.SucceedOnChild(idx))
        return None

    def __contains__(self, spec):
        return self.lookup(spec) is not None


def resolve(doc: TreeDocument, registry: NodeRegistry) -> TreeNode:
    """Build an executable tree from a parsed document.

    Machine contexts propagate down to every node that does not set its
    own; subtree factories are expanded in place and their nodes inherit
    the expanding line's context.
    """
    root = _resolve_node(doc.root, registry, inherited=None)
    root.validate()
    for node in root.iter_subtree():
        node.validate()
    return root


def _resolve_node(pnode: ParsedNode, registry: NodeRegistry,
                  inherited: Optional[str]) -> TreeNode:
    line = pnode.line
    context = line.machine_context or inherited
    factory = registry.lookup(line.node_spec)
    if factory is None:
        raise ResolveError(f"unknown node spec {line.node_spec!r}",
                           line.source_line)
    children = [_resolve_node(c, registry, context) for c in pnode.children]
    name = line.node_name or f"{line.node_spec}_{line.source_line}"
    try:
        node = factory(name, children, context)
    except ResolveError:
        raise
    except Exception as exc:
        raise ResolveError(
            f"factory for {line.node_spec!r} failed: {exc}", line.source_line)
    if not isinstance(node, TreeNode):
        raise ResolveError(
            f"factory for {line.node_spec!r} returned {type(node).__name__}",
            line.source_line)
    node.spec_name = line.node_spec
    _fill_context(node, context)
    return node


def _fill_context(node: TreeNode, context: Optional[str]) -> None:
    if node.context is None:
        node.context = context
    for child in node.children:
        _fill_context(child, node.context)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def spec_of(node: TreeNode) -> str:
    """The spec token a node serializes to."""
    explicit = getattr(node, "spec_name", None)
    if explicit:
        return explicit
    if isinstance(node, Sequence):
        return "Sequence" if node.memory else "SequenceWithoutMemory"
    if isinstance(node, Selector):
        return "Selector"
    if isinstance(node, Parallel):
        p = node.policy
        if isinstance(p, ParallelPolicy.SucceedOnOne):
            return "ParallelSuccessOnOne"
        if isinstance(p, ParallelPolicy.SucceedOnAll):
            return "ParallelSuccessOnAll"
        return f"ParallelSuccessOnChild{p.index}"
    if isinstance(node, (Inverter, FailureIsRunning)):
        return type(node).__name__
    return type(node).__name__


def serialize(node: TreeNode) -> str:
    """Render a tree back to the textual format (tab-indented).

    parse + resolve of the output yields a tree isomorphic to the input
    (names, kinds, contexts, child order).
    """
    lines: list[str] = []
    _serialize_into(node, 0, None, lines)
    return "\n".join(lines) + "\n"


def _serialize_into(node: TreeNode, level: int, inherited: Optional[str],
                    lines: list[str]) -> None:
    arrow = ""
    if node.context is not None and node.context != inherited:
        arrow = f" -> {node.context}"
    lines.append("\t" * level + f"{node.name}: {spec_of(node)}{arrow}")
    for child in node.children:
        _serialize_into(child, level + 1, node.context or inherited, lines)
