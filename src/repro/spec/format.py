"""Rendering specs back to the Table-1 syntax.

``format_spec`` produces the one-line form (root node plus ``^``-joined
dependency constraints); ``tree`` produces the indented multi-line form
that ``spack spec`` prints, annotated with hashes and splice markers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .spec import Spec

__all__ = ["format_spec", "format_node", "tree"]


def format_node(spec: "Spec", show_arch: bool = True) -> str:
    """Render a single node without its dependencies."""
    parts = []
    parts.append(spec.name if spec.name is not None else "")
    if spec.abstract_hash is not None:
        parts.append(f"/{spec.abstract_hash}")
    concrete_version = spec.versions.concrete
    if concrete_version is not None:
        parts.append(f"@{concrete_version}")
    elif not spec.versions.is_any:
        parts.append(f"@{spec.versions}")
    variant_text = str(spec.variants)
    if variant_text:
        if variant_text.startswith(("+", "~")):
            parts.append(variant_text)
        else:
            parts.append(" " + variant_text)
    if show_arch and (spec.os or spec.target):
        if spec.os and spec.target and "-" not in spec.os + spec.target:
            parts.append(f" arch={spec.os}-{spec.target}")
        else:  # arch= splits on '-', so keep dashed names apart
            if spec.os:
                parts.append(f" os={spec.os}")
            if spec.target:
                parts.append(f" target={spec.target}")
    if spec.namespace != "builtin":
        parts.append(f" namespace={spec.namespace}")
    if spec.external:
        parts.append(" [external]")
    return "".join(parts).strip()


def format_spec(spec: "Spec", deps: bool = True, show_arch: bool = False) -> str:
    """One-line rendering: root, then build deps (%), then link-run (^)."""
    from .spec import DEPTYPE_BUILD, DEPTYPE_LINK_RUN

    text = format_node(spec, show_arch=show_arch)
    if not deps:
        return text
    pieces = [text]
    seen = {spec.name}
    for node in spec.traverse(root=False):
        if node.name in seen:
            continue
        seen.add(node.name)
        edge = None
        for parent in spec.traverse():
            e = parent.dependency_edge(node.name)
            if e is not None:
                edge = e
                break
        sigil = "^"
        if edge is not None and edge.deptypes == frozenset([DEPTYPE_BUILD]):
            sigil = "%"
        pieces.append(f"{sigil}{format_node(node, show_arch=show_arch)}")
    return " ".join(p for p in pieces if p)


def tree(spec: "Spec", hashes: bool = True, indent: int = 0) -> str:
    """Indented multi-line rendering of the full DAG.

    Spliced nodes are marked with ``[spliced, build spec: <hash>]`` so the
    provenance structure of Figure 2 is visible in output.
    """
    lines = []
    _tree_lines(spec, 0, hashes, lines, set())
    pad = " " * indent
    return "\n".join(pad + line for line in lines)


def _tree_lines(spec: "Spec", depth: int, hashes: bool, lines: list, seen: set) -> None:
    prefix = "    " * depth
    text = format_node(spec, show_arch=True)
    if hashes:
        text = f"[{spec.dag_hash(7)}] {text}"
    if spec.spliced:
        text += f"  [spliced, build spec: {spec.build_spec.dag_hash(7)}]"
    lines.append(prefix + text)
    key = spec.dag_hash()
    if key in seen:
        return
    seen.add(key)
    for edge in spec.edges():
        _tree_lines(edge.spec, depth + 1, hashes, lines, seen)
