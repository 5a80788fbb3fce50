"""Behaviour tree engine: composites, decorators, leaves, blackboard.

Trees are ticked from the root once per planner iteration.  Every node
returns exactly one of Success / Failure / Running per tick.  Parallel
children are ticked sequentially in child order; "concurrent" is logical,
which keeps runs reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


class NodeStatus(enum.Enum):
    SUCCESS = "Success"
    FAILURE = "Failure"
    RUNNING = "Running"

    def __repr__(self):
        return self.value


SUCCESS = NodeStatus.SUCCESS
FAILURE = NodeStatus.FAILURE
RUNNING = NodeStatus.RUNNING


class StructureError(Exception):
    """Raised when a node violates its arity rules (checked before ticking)."""


class BlackboardTypeError(TypeError):
    """A key was overwritten with a value of a different type."""


class _Absent:
    __slots__ = ()

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


#: Sentinel distinguishing "key never written" from any stored value.
ABSENT = _Absent()


class Blackboard:
    """Namespaced key/value store shared by all nodes of one tree.

    Keys are monomorphic per run: overwriting a key with a value of a
    different type is an error.  Writes are last-writer-wins.
    """

    def __init__(self):
        self._data: dict = {}

    def write(self, key: str, value) -> None:
        if not key:
            raise ValueError("blackboard key must be non-empty")
        old = self._data.get(key, ABSENT)
        if old is not ABSENT and type(old) is not type(value):
            raise BlackboardTypeError(
                f"key {key!r} holds {type(old).__name__}, "
                f"refusing overwrite with {type(value).__name__}"
            )
        self._data[key] = value

    def read(self, key: str, default=ABSENT):
        return self._data.get(key, default)


@dataclass
class TickContext:
    """Per-tick environment handed down the tree."""

    blackboard: Blackboard = field(default_factory=Blackboard)
    sim_time: float = 0.0


class TreeNode:
    """Base node.  Subclasses implement _tick; arity is validated first."""

    min_children = 0
    max_children = 0

    def __init__(self, name: str = "", children: Iterable["TreeNode"] = (),
                 context: Optional[str] = None):
        self.name = name or type(self).__name__
        self.children: list[TreeNode] = list(children)
        self.context = context
        self.last_status: Optional[NodeStatus] = None

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        n = len(self.children)
        if n < self.min_children:
            raise StructureError(
                f"{type(self).__name__} {self.name!r} needs at least "
                f"{self.min_children} children, has {n}")
        if self.max_children is not None and n > self.max_children:
            raise StructureError(
                f"{type(self).__name__} {self.name!r} allows at most "
                f"{self.max_children} children, has {n}")

    # -- execution ---------------------------------------------------------

    def tick(self, ctx: TickContext) -> NodeStatus:
        self.validate()
        status = self._tick(ctx)
        if not isinstance(status, NodeStatus):
            raise TypeError(f"{self.name}: _tick returned {status!r}")
        self.last_status = status
        return status

    def _tick(self, ctx: TickContext) -> NodeStatus:
        raise NotImplementedError

    def halt(self) -> None:
        """Clear memory cursors / running state in this subtree.

        Never touches the blackboard.
        """
        self._halt_self()
        for child in self.children:
            child.halt()

    def _halt_self(self) -> None:
        pass

    def iter_subtree(self):
        yield self
        for child in self.children:
            yield from child.iter_subtree()


class Sequence(TreeNode):
    """Ticks children in order; halts at the first non-Success child.

    With memory enabled (the default used by the planner trees) a Running
    episode resumes at the running child instead of restarting from the
    first child.  Failure or Success of the sequence resets the cursor.
    """

    min_children = 1
    max_children = None

    def __init__(self, name="", children=(), context=None, memory=True):
        super().__init__(name, children, context)
        self.memory = memory
        self.cursor = 0

    def _tick(self, ctx):
        start = self.cursor if self.memory else 0
        for i in range(start, len(self.children)):
            status = self.children[i].tick(ctx)
            if status is RUNNING:
                self.cursor = i
                return RUNNING
            if status is FAILURE:
                self.cursor = 0
                return FAILURE
        self.cursor = 0
        return SUCCESS

    def _halt_self(self):
        self.cursor = 0


class Selector(TreeNode):
    """Ticks children in order until one returns Running or Success."""

    min_children = 1
    max_children = None

    def _tick(self, ctx):
        for child in self.children:
            status = child.tick(ctx)
            if status is not FAILURE:
                return status
        return FAILURE


class ParallelPolicy:
    """Aggregation policies for Parallel nodes."""

    class SucceedOnOne:
        def __repr__(self):
            return "SucceedOnOne"

    class SucceedOnAll:
        def __repr__(self):
            return "SucceedOnAll"

    class SucceedOnChild:
        def __init__(self, index: int):
            self.index = index

        def __repr__(self):
            return f"SucceedOnChild({self.index})"


def aggregate_parallel(statuses: list[NodeStatus], policy) -> NodeStatus:
    """Combine child statuses according to a parallel policy."""
    if not statuses:
        raise ValueError("parallel aggregation needs at least one status")
    if isinstance(policy, ParallelPolicy.SucceedOnChild):
        if policy.index >= len(statuses):
            raise StructureError(
                f"SucceedOnChild index {policy.index} out of range "
                f"for {len(statuses)} children")
        if any(s is FAILURE for s in statuses):
            return FAILURE
        return statuses[policy.index]
    if isinstance(policy, ParallelPolicy.SucceedOnOne):
        if any(s is SUCCESS for s in statuses):
            return SUCCESS
        if all(s is FAILURE for s in statuses):
            return FAILURE
        return RUNNING
    if isinstance(policy, ParallelPolicy.SucceedOnAll):
        if any(s is FAILURE for s in statuses):
            return FAILURE
        if all(s is SUCCESS for s in statuses):
            return SUCCESS
        return RUNNING
    raise TypeError(f"unknown parallel policy {policy!r}")


class Parallel(TreeNode):
    """Ticks all children every tick and aggregates by policy.

    Children that are already resolved are still ticked; see the module
    docstring for the sequential-tick determinism rationale.
    """

    min_children = 1
    max_children = None

    def __init__(self, name="", children=(), context=None, policy=None):
        super().__init__(name, children, context)
        self.policy = policy if policy is not None else ParallelPolicy.SucceedOnAll()

    def validate(self):
        super().validate()
        if (isinstance(self.policy, ParallelPolicy.SucceedOnChild)
                and self.policy.index >= len(self.children)):
            raise StructureError(
                f"Parallel {self.name!r}: SucceedOnChild index "
                f"{self.policy.index} >= child count {len(self.children)}")

    def _tick(self, ctx):
        statuses = [child.tick(ctx) for child in self.children]
        return aggregate_parallel(statuses, self.policy)


def decorate(child_status: NodeStatus, kind: str) -> NodeStatus:
    """Apply a decorator mapping to a child status."""
    if kind == "Inverter":
        if child_status is SUCCESS:
            return FAILURE
        if child_status is FAILURE:
            return SUCCESS
        return RUNNING
    if kind == "FailureIsRunning":
        return RUNNING if child_status is FAILURE else child_status
    raise ValueError(f"unknown decorator kind {kind!r}")


class Decorator(TreeNode):
    min_children = 1
    max_children = 1

    kind = "Decorator"

    def _tick(self, ctx):
        return decorate(self.children[0].tick(ctx), self.kind)


class Inverter(Decorator):
    kind = "Inverter"


class FailureIsRunning(Decorator):
    """Maps child Failure to Running.

    Placed between a machine subtree and the top parallel node so that a
    failed skill leads to re-planning instead of the whole tree being
    reinitialized.
    """

    kind = "FailureIsRunning"


class Condition(TreeNode):
    """Leaf checking a predicate; returns Success or Failure only."""

    min_children = 0
    max_children = 0

    def __init__(self, name="", predicate: Callable[[TickContext], bool] = None,
                 context=None):
        super().__init__(name, (), context)
        self.predicate = predicate

    def _tick(self, ctx):
        if self.predicate is None:
            raise StructureError(f"Condition {self.name!r} has no predicate")
        return SUCCESS if self.predicate(ctx) else FAILURE


class Task(TreeNode):
    """Leaf forwarding activation to a skill binding.

    The binding carries the protocol state (activate / monitor / cancel);
    the node just delegates and reports the binding's status.
    """

    min_children = 0
    max_children = 0

    def __init__(self, name="", binding=None, context=None):
        super().__init__(name, (), context)
        self.binding = binding

    def _tick(self, ctx):
        if self.binding is None:
            raise StructureError(f"Task {self.name!r} has no skill binding")
        return self.binding.tick(self, ctx)

    def _halt_self(self):
        if self.binding is not None and hasattr(self.binding, "halt"):
            self.binding.halt(self)
