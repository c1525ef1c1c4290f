"""DOT rendering of the expressiveness hierarchy between the ten fragments.

Solid edges point from a strictly more expressive fragment to a weaker one
(fresh letters allowed in translations); dashed edges carry the weak
(same-alphabet) relation.  The three Krom fragments are equally expressive
once fresh letters are allowed, so they share a cluster.  Nodes, cluster
and edges come from the table beside the replay catalogue in
`expressiveness`, where each edge names the results it rests on.
"""

from __future__ import annotations

from .expressiveness import _HIERARCHY

__all__ = ["hierarchy_dot"]


def hierarchy_dot() -> str:
    """The fragment hierarchy as a DOT digraph (fixed, byte-stable text)."""
    cluster, _ = _HIERARCHY["cluster"]
    labels = {n: n.replace("Box", "□").replace("Dia", "◇") for n in _HIERARCHY["nodes"]}
    lines = [
        "digraph fragment_hierarchy {",
        '  // solid edge: "is more expressive"',
        '  // dashed edge: "is weakly more expressive"',
        "  rankdir=TB;",
        "  node [shape=plaintext];",
        "  subgraph cluster_krom_equal {",
        '    label="≡";',
    ]
    lines += [f'    {node} [label="{labels[node]}"];' for node in cluster]
    lines.append("  }")
    lines += [f'  {node} [label="{label}"];' for node, label in labels.items()
              if node not in cluster]
    lines += [f"  {src} -> {dst} [style={style}];" for src, dst, style, _ in _HIERARCHY["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"
