"""Malformed documents through the CLI: every call ends in a documented exit code.

Graph, list and coloring documents are drawn as small JSON objects whose
fields are right, wrong in type, out of range or missing, or as text that
is not JSON at all.  ``color``, ``verify`` and ``oracle`` run on them in
both modes, in process through ``cli.main``; an exception escaping
``main`` fails the test, as does exit 3, which would mean a bug.
"""

import json
import os
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongcolor import cli

small_ints = st.integers(min_value=-1, max_value=8)
_MISSING = object()  # a field left out of its object
junk = st.one_of(
    st.just(_MISSING),
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
    st.lists(small_ints, max_size=2),
)


def mostly(valid, bad=junk):
    """Usually a draw from ``valid``; one draw in ten comes from ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else valid)


def document(**fields):
    """A JSON object with these fields, each usually valid."""
    return st.fixed_dictionaries({k: mostly(v) for k, v in fields.items()})


def container(items):
    """Up to six items, each usually valid."""
    return st.lists(mostly(items), max_size=6)


def _present(x):
    """``x`` with every missing field or item left out."""
    if isinstance(x, dict):
        return {k: _present(v) for k, v in x.items() if v is not _MISSING}
    if isinstance(x, list):
        return [_present(v) for v in x if v is not _MISSING]
    return x


edge_keys = st.integers(0, 8).map(str)
incidence_keys = st.tuples(st.integers(0, 6), st.integers(0, 8)).map("{0[0]}:{0[1]}".format)
bad_keys = st.sampled_from(["03", "-1", "+1", " 1", "1_0", "x", "0:", ":0", "1:02", "1:0:0"])
colors = st.integers(min_value=-1, max_value=8)


def keyed(values):
    """A body of one key form, the edge or the incidence one, with now and then a bad key."""
    return st.sampled_from([edge_keys, incidence_keys]).flatmap(
        lambda good: st.dictionaries(mostly(good, bad_keys), values, max_size=10)
    )


graph_docs = document(
    format_version=st.just(1),
    kind=st.sampled_from(["multigraph", "bipartite"]),
    vertex_count=st.integers(min_value=4, max_value=7),
    edges=container(st.sampled_from(list(combinations(range(4), 2))).map(list)),
    parts=document(A=container(small_ints), B=container(small_ints)),
)
list_docs = document(format_version=st.just(1), lists=keyed(mostly(st.lists(colors, max_size=8))))
coloring_docs = document(
    format_version=st.just(1),
    mode=st.sampled_from(["strong", "incidence"]),
    colors=keyed(mostly(colors)),
)


def texts(docs):
    """A document as JSON, or now and then short text that is usually not JSON."""
    return st.integers(0, 7).flatmap(
        lambda i: st.text(max_size=12) if i == 0 else docs.map(lambda d: json.dumps(_present(d)))
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# a small search budget keeps oracle calls quick; exceeding it is exit 4
@mock.patch.dict(os.environ, {"STRONGCOLOR_ORACLE_MAX_NODES": "20000"})
@settings(max_examples=150, deadline=None)
@given(
    graph=texts(graph_docs),
    lists=texts(list_docs),
    coloring=texts(coloring_docs),
    k=st.integers(min_value=-1, max_value=8),
)
def test_malformed_documents_exit_cleanly(workdir, graph, lists, coloring, k):
    paths = {}
    for name, text in (("graph", graph), ("lists", lists), ("coloring", coloring)):
        paths[name] = str(workdir / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    g, L, c = paths["graph"], paths["lists"], paths["coloring"]
    calls = [["verify", g, c], ["verify", g, c, "--lists", L]]
    for mode in ("strong", "incidence"):
        calls += [
            ["color", g, "--mode", mode, "--uniform", str(k)],
            ["color", g, "--mode", mode, "--lists", L],
            ["oracle", g, "--mode", mode, "--uniform", str(k)],
            ["oracle", g, "--mode", mode, "--lists", L],
            ["oracle", g, "--mode", mode, "--min-colors"],
        ]
    for argv in calls:
        assert cli.main(argv) in (0, 1, 2, 4), argv
