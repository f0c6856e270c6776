"""Graphviz DOT export of schema/pruned graph dumps with path highlighting.

Nodes are styled by provenance: question keys, image keys, recruited
neighbors, and ground-truth answers each get their own fill color. Only
forward relations are drawn (every connection exists in both directions in
the dumps; drawing both would double every arrow). Inference paths, when
given, are overlaid as thick red edges.
"""

from __future__ import annotations

from typing import Optional, Sequence

NODE_COLORS = {
    "question": "#3C7DC3",
    "image": "#7F69AF",
    "neighbor": "#88A9C0",
    "ground-truth": "#F47C64",
}

_TYPE_CLASS = {"Q": "question", "V": "image", "N1": "neighbor", "N2": "neighbor"}


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    dump: dict,
    paths: Optional[Sequence[tuple[list[str], float]]],
    max_paths: int,
) -> str:
    """Render one dumped graph (and optionally its top paths) as DOT text.

    ``paths`` entries are ``[n0, r0, n1, r1, ..., nk]`` surface sequences with
    a score, matching the inference output format. The dump's edges are
    distinct, as ``schema.check_dump`` requires.
    """
    gt = set(dump.get("gt", []))
    lines = [
        "digraph schema {",
        "  rankdir=LR;",
        '  node [style=filled, fontcolor=white, fontsize=10, shape=ellipse];',
        "  edge [color=\"#9a9a9a\", fontsize=8];",
    ]
    for surface, type_name in dump["nodes"]:
        cls = "ground-truth" if surface in gt else _TYPE_CLASS.get(type_name, "neighbor")
        lines.append(f"  {_quote(surface)} [fillcolor=\"{NODE_COLORS[cls]}\"];")

    highlighted = set()
    for flat, _score in list(paths or [])[:max_paths]:
        for i in range(0, len(flat) - 2, 2):
            head, rel, tail = flat[i], flat[i + 1], flat[i + 2]
            if rel.startswith("rev_"):
                head, rel, tail = tail, rel[4:], head
            highlighted.add((head, rel, tail))

    forward = [(h, r, t) for h, r, t, _ in dump["edges"] if not r.startswith("rev_")]
    for head, rel, tail in forward:
        attrs = [f"label={_quote(rel)}"]
        if (head, rel, tail) in highlighted:
            attrs += ['color="#CC3311"', "penwidth=2.2", "fontcolor=\"#CC3311\""]
        lines.append(f"  {_quote(head)} -> {_quote(tail)} [{', '.join(attrs)}];")
    # A paths file from another run can step along edges this dump lacks.
    for head, rel, tail in sorted(highlighted - set(forward)):
        lines.append(
            f"  {_quote(head)} -> {_quote(tail)} "
            f"[label={_quote(rel)}, color=\"#CC3311\", penwidth=2.2];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
