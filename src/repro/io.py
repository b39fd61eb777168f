"""Graph serialization: weighted edge lists and JSON.

A downstream user adopting the library needs to run the constructions on
their own networks; these helpers read/write :class:`WeightedGraph` in
two interchange formats:

* **edge list** — one ``u v weight`` triple per line, ``#`` comments,
  isolated vertices as single-token lines (the format `networkx` and most
  graph tools speak);
* **JSON** — ``{"vertices": [...], "edges": [[u, v, w], ...]}`` with
  native types preserved for int/str vertex ids.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.graphs.weighted_graph import WeightedGraph

PathLike = Union[str, Path]


def _vertex_token(v) -> str:
    """``str(v)``, validated to survive the edge-list round trip.

    Raises
    ------
    ValueError
        If the rendering is empty, contains whitespace (would split into
        extra tokens), or contains ``#`` (would be truncated as a
        comment) — any of which :func:`read_edge_list` mis-parses.
        Use :func:`write_json` for such vertex ids.
    """
    token = str(v)
    if not token or "#" in token or any(ch.isspace() for ch in token):
        raise ValueError(
            f"vertex id {v!r} cannot be written as an edge list: its string "
            f"form {token!r} is empty or contains whitespace/'#' and would "
            f"not round-trip through read_edge_list; use write_json instead"
        )
    return token


def write_edge_list(graph: WeightedGraph, path: PathLike) -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    Raises
    ------
    ValueError
        If any vertex id's string form would not survive the round trip
        (empty, whitespace, or ``#`` — see :func:`_vertex_token`).
    """
    lines = []
    isolated = [v for v in graph.vertices() if graph.degree(v) == 0]
    for v in sorted(isolated, key=repr):
        lines.append(f"{_vertex_token(v)}\n")
    for u, v, w in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
        lines.append(f"{_vertex_token(u)} {_vertex_token(v)} {w!r}\n")
    with open(path, "w") as fh:
        fh.write(f"# n={graph.n} m={graph.m}\n")
        fh.writelines(lines)


def _parse_token(token: str):
    """Vertex ids: ints where possible, strings otherwise."""
    try:
        return int(token)
    except ValueError:
        return token


def read_edge_list(path: PathLike) -> WeightedGraph:
    """Read a graph written by :func:`write_edge_list` (or compatible).

    Raises
    ------
    ValueError
        On malformed lines (wrong token count, non-numeric weight) and on
        edges :meth:`WeightedGraph.add_edge` refuses (a self-loop, or a
        weight that is not positive and finite), naming the line.
    """
    g = WeightedGraph()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) == 1:
                g.add_vertex(_parse_token(tokens[0]))
            elif len(tokens) == 3:
                u, v, w = tokens
                try:
                    weight = float(w)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad weight {w!r}"
                    ) from exc
                try:
                    g.add_edge(_parse_token(u), _parse_token(v), weight)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v w' or 'v', got {line!r}"
                )
    return g


def write_json(graph: WeightedGraph, path: PathLike) -> None:
    """Write ``graph`` as JSON (vertices + weighted edge triples)."""
    data = {
        "vertices": sorted(graph.vertices(), key=repr),
        "edges": [
            [u, v, w]
            for u, v, w in sorted(
                graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))
            )
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def read_json(path: PathLike) -> WeightedGraph:
    """Read a graph written by :func:`write_json`.

    Raises
    ------
    ValueError
        If the document lacks the expected keys.
    """
    with open(path) as fh:
        data = json.load(fh)
    if "vertices" not in data or "edges" not in data:
        raise ValueError(f"{path}: not a repro graph JSON document")
    g = WeightedGraph(data["vertices"])
    for u, v, w in data["edges"]:
        g.add_edge(u, v, float(w))
    return g
