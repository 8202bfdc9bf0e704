"""Call-path tree aggregation.

Aggregates invocation tables into a call tree keyed by region path
(``main → iterate → solve``), the structure HPCToolkit-style viewers
display.  Used by the report generator to show *where* a hotspot
function is called from, and by tests as an independent check of the
replay's parent links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .._record import field, record

if TYPE_CHECKING:
    from ..trace.trace import Trace
    from .replay import InvocationTable

__all__ = ["CallPathNode", "CallTree", "build_call_tree"]


@record(slots=True)
class CallPathNode:
    """One node of the aggregated call tree."""

    region: int
    name: str
    count: int = 0
    inclusive_sum: float = 0.0
    exclusive_sum: float = 0.0
    children: dict[int, "CallPathNode"] = field(default_factory=dict)

    def child(self, region: int, name: str) -> "CallPathNode":
        node = self.children.get(region)
        if node is None:
            node = CallPathNode(region=region, name=name)
            self.children[region] = node
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "CallPathNode"]]:
        """Depth-first traversal yielding ``(depth, node)`` pairs."""
        yield depth, self
        for key in sorted(self.children):
            yield from self.children[key].walk(depth + 1)


class CallTree:
    """Aggregated call tree of a trace (all processes merged).

    The virtual root has ``region == -1``; its children are the
    top-level regions of each process (typically ``main``).
    """

    def __init__(self, root: CallPathNode) -> None:
        self.root = root

    def paths(self) -> dict[tuple[str, ...], CallPathNode]:
        """Flatten to ``path-of-names → node`` (excluding the root)."""
        out: dict[tuple[str, ...], CallPathNode] = {}

        def rec(node: CallPathNode, prefix: tuple[str, ...]) -> None:
            for child in node.children.values():
                path = prefix + (child.name,)
                out[path] = child
                rec(child, path)

        rec(self.root, ())
        return out

    def format(self, max_depth: int | None = None, time_unit: str = "s") -> str:
        """Render an indented text view of the tree."""
        lines = []
        for depth, node in self.root.walk():
            if node.region < 0:
                continue
            d = depth - 1
            if max_depth is not None and d > max_depth:
                continue
            lines.append(
                f"{'  ' * d}{node.name}  "
                f"[count={node.count}, incl={node.inclusive_sum:.6g}{time_unit}, "
                f"excl={node.exclusive_sum:.6g}{time_unit}]"
            )
        return "\n".join(lines)


def _accumulate(trace: Trace, table: InvocationTable, root: CallPathNode) -> None:
    """Insert one process' invocations into the shared tree."""
    if len(table) == 0:
        return
    # Rows are ordered parents-first, so each row's node can be resolved
    # from its parent's already-resolved node.
    nodes: list[CallPathNode] = [None] * len(table)  # type: ignore[list-item]
    regions = table.region
    parents = table.parent
    names = trace.regions
    for i in range(len(table)):
        parent_idx = parents[i]
        base = root if parent_idx < 0 else nodes[parent_idx]
        node = base.child(int(regions[i]), names[int(regions[i])].name)
        node.count += 1
        node.inclusive_sum += float(table.inclusive[i])
        node.exclusive_sum += float(table.exclusive[i])
        nodes[i] = node


def build_call_tree(
    trace: Trace, tables: dict[int, InvocationTable]
) -> CallTree:
    """Aggregate the call tree of ``trace`` across all processes from
    its invocation ``tables``."""
    root = CallPathNode(region=-1, name="<root>")
    for rank in sorted(tables):
        _accumulate(trace, tables[rank], root)
    return CallTree(root)
