"""Versioned on-disk formats: graphs, color lists, colorings.

One self-describing JSON family, written canonically (sorted keys, two
space indent, trailing newline) so files are line-diffable and byte-stable
under read-then-write round-trips.  Incidence keys are "v:e" strings to
avoid ambiguous pair encodings.

Reading is strict: every key is a canonical decimal integer (or two joined
by ":"), no object repeats a key, and a graph has at most
``MAX_VERTEX_COUNT`` vertices, so one short line cannot make the reader
allocate without bound.
"""

from __future__ import annotations

import json
import re
from itertools import repeat
from typing import Dict, Mapping, Tuple, Union

from .errors import FormatError, InputError
from .graph import PART_A, PART_B, BipartiteGraph, Incidence, Multigraph, build_multigraph

FORMAT_VERSION = 1

# Well above the 250,000 vertices of a subdivided 100,000-vertex cubic graph.
MAX_VERTEX_COUNT = 1_000_000

_NUMBER = "(?:0|[1-9][0-9]*)"
_EDGE_KEY = re.compile(_NUMBER)
_INCIDENCE_KEY = re.compile(f"{_NUMBER}:{_NUMBER}")
_EDGE_KEYS = re.compile(f"(?:{_NUMBER}\n)*")
_INCIDENCE_KEYS = re.compile(f"(?:{_NUMBER}:{_NUMBER}\n)*")


_CONTAINERS = frozenset((dict, list, tuple))


def _items(obj):
    return obj.values() if type(obj) is dict else obj


def _flat(obj, separator: str) -> str:
    """``obj`` in one C-encoder call, with ``separator`` between items at every depth."""
    return json.dumps(obj, sort_keys=True, separators=(separator, ": "))


def _encode(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it on
    a line that ``nl``, a newline and an indent, starts; keys are strings.

    With ``indent`` the json module encodes in Python.  A container of
    scalars is one C call instead, with the newline and the indent in its
    item separator, and so is a list of nonempty containers of scalars.
    There, every item of a child ends in a scalar, so a separator right
    after a closing bracket is one between two children; it is re-indented
    by ``str.replace``.  No JSON string holds a raw newline, so the
    separators match nothing inside one.  Only other nesting recurses.
    """
    if type(obj) not in _CONTAINERS or not obj:
        return json.dumps(obj)
    inner = nl + "  "
    kinds = set(map(type, _items(obj)))
    if kinds.isdisjoint(_CONTAINERS):
        body = _flat(obj, "," + inner)
    elif (
        type(obj) is not dict
        and kinds <= _CONTAINERS
        and all(obj)
        and all(_CONTAINERS.isdisjoint(map(type, _items(x))) for x in obj)
    ):
        deep = inner + "  "
        body = _flat(obj, "," + deep)
        for close in "]}":
            for open_ in "[{":
                body = body.replace(
                    close + "," + deep + open_, inner + close + "," + inner + open_ + deep
                )
        body = body[:2] + deep + body[2:-2] + inner + body[-2:]
    elif type(obj) is dict:
        body = "{" + ("," + inner).join(
            f"{json.dumps(k)}: {_encode(obj[k], inner)}" for k in sorted(obj)
        ) + "}"
    else:
        body = "[" + ("," + inner).join([_encode(x, inner) for x in obj]) + "]"
    return body[0] + inner + body[1:-1] + nl + body[-1]


def _dump(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(doc, "\n") + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is a format error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def _load(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise FormatError(f"unsupported format_version {version!r}")
    return doc


def _int(value, what: str) -> int:
    """``value`` itself if it is a JSON integer; floats and booleans are rejected."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


_JSON_NAMES = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _member(obj: dict, name: str, kind: type, where: str):
    """``obj[name]``, which must be present and a JSON value of type ``kind``."""
    if name not in obj:
        raise FormatError(f"{where} has no {name!r} field")
    value = obj[name]
    if type(value) is not kind:
        raise FormatError(
            f"{name!r} in {where} must be {_JSON_NAMES[kind]}, got {_JSON_NAMES[type(value)]}"
        )
    return value


# -- graphs ------------------------------------------------------------------


def graph_to_text(g: Union[Multigraph, BipartiteGraph]) -> str:
    if isinstance(g, BipartiteGraph):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "bipartite",
            "vertex_count": g.graph.vertex_count,
            "edges": [list(pair) for pair in g.graph.edges],
            "parts": {"A": g.a_vertices(), "B": g.b_vertices()},
        }
    else:
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "multigraph",
            "vertex_count": g.vertex_count,
            "edges": [list(pair) for pair in g.edges],
        }
    return _dump(doc)


def graph_from_text(text: str) -> Union[Multigraph, BipartiteGraph]:
    doc = _load(text)
    kind = doc.get("kind")
    if kind not in ("multigraph", "bipartite"):
        raise FormatError(f"unknown graph kind {kind!r}")
    n = _member(doc, "vertex_count", int, "the graph document")
    edges = _member(doc, "edges", list, "the graph document")
    for i, pair in enumerate(edges):
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not int
            or type(pair[1]) is not int
        ):
            raise FormatError(f"edge {i} must be a list of two integers")
    if n < 0:
        raise FormatError(f"vertex_count must be non-negative, got {n}")
    if n > MAX_VERTEX_COUNT:
        raise FormatError(f"vertex_count {n} is above the cap of {MAX_VERTEX_COUNT}")
    try:
        g = build_multigraph(n, edges)
    except InputError as exc:
        raise FormatError(f"graph document does not encode a valid graph: {exc}") from exc
    if kind == "multigraph":
        return g
    parts = _member(doc, "parts", dict, "a bipartite graph document")
    part_a, part_b = (_part(parts, name) for name in "AB")
    if part_a | part_b != set(range(n)) or part_a & part_b:
        raise FormatError("parts must partition the vertex set")
    labels = [PART_A if v in part_a else PART_B for v in range(n)]
    try:
        return BipartiteGraph(g, labels)
    except InputError as exc:
        raise FormatError(f"graph document violates its bipartite labeling: {exc}") from exc


def _part(parts: dict, name: str) -> set:
    """The vertices of part ``name``; a vertex listed twice is a format error."""
    vertices = set()
    for v in _member(parts, name, list, "'parts'"):
        v = _int(v, f"a vertex of part {name}")
        if v in vertices:
            raise FormatError(f"vertex {v} appears twice in part {name}")
        vertices.add(v)
    return vertices


# -- color lists -------------------------------------------------------------


def _parse_keys(keys, incidence: bool) -> list:
    """The keys of one object as edge ids, or as incidences for "v:e" keys.

    Every number must be canonical, ``0|[1-9][0-9]*``, so no two keys can
    name the same edge or incidence.  One regex pass over the keys joined
    by newlines checks them all, which costs far less than a match per
    key; the newline count rules out a key that holds a newline itself.
    """
    if not keys:
        return []
    text = "\n".join(keys) + "\n"
    every, one = (_INCIDENCE_KEYS, _INCIDENCE_KEY) if incidence else (_EDGE_KEYS, _EDGE_KEY)
    if every.fullmatch(text) is None or text.count("\n") != len(keys):
        bad = next(k for k in keys if one.fullmatch(k) is None)
        form = '"v:e" with canonical integers' if incidence else 'a canonical integer such as "3"'
        raise FormatError(f"key must be {form}, got {bad!r}")
    try:
        nums = list(map(int, text.replace(":", "\n").split()))
    except ValueError as exc:  # a number past sys.get_int_max_str_digits()
        raise FormatError(f"key holds a number too long to read: {exc}") from exc
    if not incidence:
        return nums
    # tuple.__new__ builds each key in C; Incidence(...) runs a Python __new__
    return list(map(tuple.__new__, repeat(Incidence), zip(nums[0::2], nums[1::2])))


def lists_to_text(lists: Mapping, incidence: bool = False) -> str:
    body = {}
    for key, colors in lists.items():
        name = f"{key.vertex}:{key.edge}" if incidence else str(int(key))
        body[name] = sorted(int(c) for c in colors)
    return _dump({"format_version": FORMAT_VERSION, "lists": body})


def lists_from_text(text: str, incidence: bool = False) -> dict:
    """The lists of one document, each an ascending tuple of its distinct
    colors; equal lists share one tuple."""
    doc = _load(text)
    body = doc.get("lists")
    if not isinstance(body, dict):
        raise FormatError("missing lists object")
    shared: dict = {}  # each distinct list -> its first tuple
    keyed = {}
    for key, v in zip(_parse_keys(body, incidence), body.values()):
        if type(v) is not list:
            raise FormatError(f"list of {key} must be a list, got {_JSON_NAMES[type(v)]}")
        colors = tuple(sorted({_int(c, "a color") for c in v}))
        if colors and colors[0] < 0:
            raise FormatError(f"list of {key} holds a negative color {colors[0]}")
        keyed[key] = shared.setdefault(colors, colors)
    return keyed


# -- colorings ---------------------------------------------------------------


def coloring_to_text(colors: Mapping, mode: str) -> str:
    if mode not in ("strong", "incidence"):
        raise FormatError(f"unknown mode {mode!r}")
    body = {}
    for key, c in colors.items():
        name = f"{key.vertex}:{key.edge}" if mode == "incidence" else str(int(key))
        body[name] = int(c)
    return _dump({"format_version": FORMAT_VERSION, "mode": mode, "colors": body})


def coloring_from_text(text: str) -> Tuple[str, Dict]:
    doc = _load(text)
    mode = doc.get("mode")
    if mode not in ("strong", "incidence"):
        raise FormatError(f"unknown mode {mode!r}")
    body = doc.get("colors")
    if not isinstance(body, dict):
        raise FormatError("missing colors object")
    keys = _parse_keys(body, mode == "incidence")
    colors = {k: _int(c, "a color") for k, c in zip(keys, body.values())}
    for k, c in colors.items():
        if c < 0:
            raise FormatError(f"{k} has a negative color {c}")
    return mode, colors


# -- small path helpers ------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
