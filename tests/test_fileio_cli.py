import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongcolor as sc
from strongcolor import cli, fileio
from strongcolor.graph import Incidence


# the child process imports the same package as the tests, also when only
# pytest's own `pythonpath` setting put it on sys.path
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(sc.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "strongcolor", *map(str, args)],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


class TestGraphFiles:
    def test_multigraph_round_trip(self, tmp_path):
        g = sc.named("petersen")
        text = fileio.graph_to_text(g)
        back = fileio.graph_from_text(text)
        assert back.edges == g.edges and back.vertex_count == g.vertex_count
        # canonical writer: write(read(text)) is byte-identical
        assert fileio.graph_to_text(back) == text

    def test_bipartite_round_trip(self, k23):
        text = fileio.graph_to_text(k23)
        back = fileio.graph_from_text(text)
        assert isinstance(back, sc.BipartiteGraph)
        assert back.part_of == k23.part_of and back.graph.edges == k23.graph.edges
        assert fileio.graph_to_text(back) == text

    def test_bad_version(self):
        with pytest.raises(sc.FormatError):
            fileio.graph_from_text('{"format_version": 99, "kind": "multigraph"}')

    def test_not_json(self):
        with pytest.raises(sc.FormatError):
            fileio.graph_from_text("not json at all")

    def test_parts_must_partition(self):
        doc = {
            "format_version": 1,
            "kind": "bipartite",
            "vertex_count": 2,
            "edges": [[0, 1]],
            "parts": {"A": [0], "B": []},
        }
        with pytest.raises(sc.FormatError):
            fileio.graph_from_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vertex_count", 4.9),
            ("vertex_count", True),
            ("vertex_count", "4"),
            ("vertex_count", -3),
            ("edges", [[0.2, 1], [1, 2]]),
            ("edges", [[0, 1], [1, 2.0]]),
        ],
    )
    def test_only_json_integers(self, field, value):
        doc = {"format_version": 1, "kind": "multigraph", "vertex_count": 4, "edges": []}
        doc[field] = value
        with pytest.raises(sc.FormatError):
            fileio.graph_from_text(json.dumps(doc))

    def test_part_vertices_must_be_integers(self, k23):
        doc = json.loads(fileio.graph_to_text(k23))
        doc["parts"]["A"][0] = 0.0
        with pytest.raises(sc.FormatError):
            fileio.graph_from_text(json.dumps(doc))


class TestListsAndColoringFiles:
    def test_lists_round_trip(self):
        L = sc.random_lists(range(5), 6, 12, 3)
        text = fileio.lists_to_text(L.lists)
        back = fileio.lists_from_text(text)
        assert back.lists == L.lists
        assert fileio.lists_to_text(back.lists) == text

    @pytest.mark.parametrize("incidence", [False, True])
    def test_negative_color_rejected(self, incidence):
        key = "0:0" if incidence else "0"
        text = json.dumps({"format_version": 1, "lists": {key: [1, -2, 3]}})
        with pytest.raises(sc.FormatError):
            fileio.lists_from_text(text, incidence=incidence)

    @pytest.mark.parametrize("incidence", [False, True])
    @pytest.mark.parametrize("color", [1.9, "2", True])
    def test_non_integer_list_color_rejected(self, incidence, color):
        key = "0:0" if incidence else "0"
        text = json.dumps({"format_version": 1, "lists": {key: [color, 3, 4]}})
        with pytest.raises(sc.FormatError, match="must be an integer"):
            fileio.lists_from_text(text, incidence=incidence)

    @pytest.mark.parametrize("incidence", [False, True])
    def test_non_integer_coloring_rejected(self, incidence):
        key = "0:0" if incidence else "0"
        mode = "incidence" if incidence else "strong"
        text = json.dumps({"format_version": 1, "mode": mode, "colors": {key: 1.5}})
        with pytest.raises(sc.FormatError, match="must be an integer"):
            fileio.coloring_from_text(text)

    @pytest.mark.parametrize("incidence", [False, True])
    def test_negative_coloring_rejected(self, incidence):
        key = "0:0" if incidence else "0"
        mode = "incidence" if incidence else "strong"
        text = json.dumps({"format_version": 1, "mode": mode, "colors": {key: -1}})
        with pytest.raises(sc.FormatError, match="negative color"):
            fileio.coloring_from_text(text)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(sc.FormatError):
            fileio.write_text(str(tmp_path / "missing" / "x.json"), "{}")

    def test_incidence_lists_round_trip(self):
        lists = {Incidence(0, 1): frozenset({1, 2, 3}), Incidence(2, 1): frozenset({4, 5})}
        text = fileio.lists_to_text(lists, incidence=True)
        back = fileio.lists_from_text(text, incidence=True)
        assert back == lists

    def test_strong_coloring_round_trip(self):
        colors = {0: 3, 1: 5, 7: 1}
        text = fileio.coloring_to_text(colors, "strong")
        mode, back = fileio.coloring_from_text(text)
        assert mode == "strong" and back == colors
        assert fileio.coloring_to_text(back, mode) == text

    def test_incidence_coloring_round_trip(self):
        colors = {Incidence(4, 2): 6, Incidence(0, 0): 1}
        text = fileio.coloring_to_text(colors, "incidence")
        mode, back = fileio.coloring_from_text(text)
        assert mode == "incidence" and back == colors


@pytest.fixture
def k23_file(tmp_path, k23):
    path = tmp_path / "k23.graph"
    path.write_text(fileio.graph_to_text(k23))
    return path


@pytest.fixture
def k4_partial_lists(tmp_path):
    """The k4 graph file plus an incidence lists file naming one incidence only."""
    gpath = tmp_path / "k4.graph"
    gpath.write_text(fileio.graph_to_text(sc.named("k4")))
    lists_path = tmp_path / "partial.json"
    lists_path.write_text(
        fileio.lists_to_text({Incidence(0, 0): range(1, 7)}, incidence=True)
    )
    return gpath, lists_path


class TestCliColor:
    def test_k23_uniform_six(self, tmp_path, k23_file):
        out = tmp_path / "out.colors"
        r = run_cli("color", k23_file, "--uniform", 6, "--out", out)
        assert r.returncode == 0, r.stderr
        mode, colors = fileio.coloring_from_text(out.read_text())
        assert mode == "strong"
        assert sorted(colors.values()) == [1, 2, 3, 4, 5, 6]

    def test_k23_uniform_five_precondition(self, k23_file):
        r = run_cli("color", k23_file, "--uniform", 5)
        assert r.returncode == 1

    def test_petersen_incidence_stats(self, tmp_path):
        gpath = tmp_path / "petersen.graph"
        gpath.write_text(fileio.graph_to_text(sc.named("petersen")))
        out = tmp_path / "p.colors"
        r = run_cli("color", gpath, "--mode", "incidence", "--uniform", 6, "--stats", "--out", out)
        assert r.returncode == 0, r.stderr
        stats = json.loads(r.stderr)
        assert stats["long_cycle_extensions"] >= 1
        mode, colors = fileio.coloring_from_text(out.read_text())
        assert mode == "incidence" and len(set(colors.values())) <= 6

    def test_stdout_holds_only_the_coloring(self, k23_file):
        r = run_cli("color", k23_file, "--uniform", 6, "--stats", "--out", "-")
        assert r.returncode == 0, r.stderr
        mode, colors = fileio.coloring_from_text(r.stdout)
        assert mode == "strong" and len(colors) == 6
        assert "peeled_edges" in json.loads(r.stderr)

    def test_unwritable_out(self, tmp_path, k23_file):
        r = run_cli("color", k23_file, "--uniform", 6, "--out", tmp_path / "missing" / "x.json")
        assert r.returncode == 2
        assert r.stderr.startswith("error: cannot write")
        assert "Traceback" not in r.stderr

    def test_negative_colors_rejected(self, tmp_path, k23_file):
        lists_path = tmp_path / "lists.json"
        lists_path.write_text(fileio.lists_to_text({e: range(-6, 0) for e in range(6)}))
        r = run_cli("color", k23_file, "--lists", lists_path)
        assert r.returncode == 2
        assert "negative color" in r.stderr

    def test_malformed_graph(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("{broken")
        assert run_cli("color", bad, "--uniform", 6).returncode == 2

    def test_negative_vertex_count(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text(json.dumps(
            {"format_version": 1, "kind": "multigraph", "vertex_count": -3, "edges": []}
        ))
        r = run_cli("color", bad, "--uniform", 6)
        assert r.returncode == 2
        assert "vertex_count must be non-negative" in r.stderr

    def test_lists_file_input(self, tmp_path, k23_file):
        lists_path = tmp_path / "lists.json"
        L = sc.random_lists(range(6), 6, 12, 11)
        lists_path.write_text(fileio.lists_to_text(L.lists))
        out = tmp_path / "out.colors"
        r = run_cli("color", k23_file, "--lists", lists_path, "--out", out)
        assert r.returncode == 0, r.stderr


class TestCliVerify:
    def make_colored(self, tmp_path, k23, tamper=False, outside=False):
        gpath = tmp_path / "g.graph"
        gpath.write_text(fileio.graph_to_text(k23))
        colors = {e: e + 1 for e in range(6)}
        if tamper:
            colors[3] = colors[0]
        if outside:
            colors[0] = 99
        cpath = tmp_path / "c.colors"
        cpath.write_text(fileio.coloring_to_text(colors, "strong"))
        return gpath, cpath

    def test_valid_silent(self, tmp_path, k23):
        gpath, cpath = self.make_colored(tmp_path, k23)
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 0 and r.stdout == ""

    def test_tampered_names_the_pair(self, tmp_path, k23):
        gpath, cpath = self.make_colored(tmp_path, k23, tamper=True)
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 1
        assert "(0, 3)" in r.stdout

    def test_color_outside_list(self, tmp_path, k23):
        gpath, cpath = self.make_colored(tmp_path, k23, outside=True)
        lists_path = tmp_path / "lists.json"
        lists_path.write_text(
            fileio.lists_to_text({e: range(1, 7) for e in range(6)})
        )
        r = run_cli("verify", gpath, cpath, "--lists", lists_path)
        assert r.returncode == 1
        assert "list" in r.stdout

    def test_partial_incidence_lists(self, tmp_path, k4_partial_lists):
        # incidences missing from the lists file have empty lists
        gpath, lists_path = k4_partial_lists
        cpath = tmp_path / "k4.colors"
        assert run_cli("color", gpath, "--mode", "incidence", "--uniform", 6,
                       "--out", cpath).returncode == 0
        r = run_cli("verify", gpath, cpath, "--lists", lists_path)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stdout.startswith("list ")

    def test_truncated_coloring_rejected(self, tmp_path):
        gpath = tmp_path / "cubic.graph"
        assert run_cli("gen", "cubic", "--n", 10, "--seed", 1, "--out", gpath).returncode == 0
        cpath = tmp_path / "cubic.colors"
        assert run_cli("color", gpath, "--mode", "incidence", "--uniform", 6,
                       "--out", cpath).returncode == 0
        mode, colors = fileio.coloring_from_text(cpath.read_text())
        for inc in sorted(colors)[:5]:
            del colors[inc]
        cpath.write_text(fileio.coloring_to_text(colors, mode))
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 1
        assert r.stdout.splitlines() == [line for line in r.stdout.splitlines()
                                         if line.startswith("uncolored ")]
        assert len(r.stdout.splitlines()) == 5

    def test_truncated_strong_coloring_rejected(self, tmp_path, k23):
        gpath, cpath = self.make_colored(tmp_path, k23)
        _, colors = fileio.coloring_from_text(cpath.read_text())
        del colors[5]
        cpath.write_text(fileio.coloring_to_text(colors, "strong"))
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 1
        assert r.stdout == "uncolored (5,): edge 5 has no color\n"

    @pytest.mark.parametrize("mode", ["strong", "incidence"])
    def test_negative_colors_rejected(self, tmp_path, k23, mode):
        gpath, cpath = self.make_colored(tmp_path, k23)
        keys = k23.graph.incidences() if mode == "incidence" else range(6)
        cpath.write_text(fileio.coloring_to_text({key: -1 for key in keys}, mode))
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 2
        assert "negative color" in r.stderr and "Traceback" not in r.stderr

    def test_fractional_colors_rejected(self, tmp_path, k23):
        # every color shifted by +0.5 is still a proper coloring, but not of integers
        gpath, cpath = self.make_colored(tmp_path, k23)
        doc = json.loads(cpath.read_text())
        doc["colors"] = {k: c + 0.5 for k, c in doc["colors"].items()}
        cpath.write_text(json.dumps(doc))
        r = run_cli("verify", gpath, cpath)
        assert r.returncode == 2
        assert "must be an integer" in r.stderr and "Traceback" not in r.stderr

    def test_parse_error(self, tmp_path, k23):
        gpath, _ = self.make_colored(tmp_path, k23)
        bad = tmp_path / "bad.colors"
        bad.write_text("nope")
        assert run_cli("verify", gpath, bad).returncode == 2


class TestCliInProcess:
    def test_calls_match_fresh_processes(self, tmp_path, capsys):
        """One process, several calls: each matches what a fresh process returns."""
        g = sc.named("petersen")
        gpath = tmp_path / "petersen.graph"
        gpath.write_text(fileio.graph_to_text(g))
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        good = tmp_path / "good.colors"
        good.write_text(fileio.coloring_to_text(coloring, "incidence"))
        coloring[Incidence(1, 0)] = coloring[Incidence(0, 0)]
        bad = tmp_path / "bad.colors"
        bad.write_text(fileio.coloring_to_text(coloring, "incidence"))
        calls = [
            ["color", gpath, "--uniform", "six"],
            ["verify", gpath, bad],
            ["verify", gpath, good],
            ["color", gpath, "--mode", "incidence", "--uniform", "6"],
        ]
        codes = []
        for argv in calls:
            argv = [str(a) for a in argv]
            codes.append(cli.main(argv))
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [2, 1, 0, 0]
        assert cli.build_parser() is cli.build_parser()


class TestCliGen:
    def test_fixture(self, tmp_path):
        out = tmp_path / "k4.graph"
        assert run_cli("gen", "k4", "--out", out).returncode == 0
        g = fileio.graph_from_text(out.read_text())
        assert g.edge_count == 6

    def test_cubic_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        assert run_cli("gen", "cubic", "--n", 12, "--seed", 5, "--out", a).returncode == 0
        assert run_cli("gen", "cubic", "--n", 12, "--seed", 5, "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bipartite(self, tmp_path):
        out = tmp_path / "b.graph"
        assert run_cli("gen", "bipartite", "--na", 9, "--nb", 7, "--seed", 1, "--out", out).returncode == 0
        g = fileio.graph_from_text(out.read_text())
        g.validate_23()

    def test_unknown_family(self, tmp_path):
        assert run_cli("gen", "mystery", "--out", tmp_path / "x").returncode == 2

    def test_bad_size(self, tmp_path):
        assert run_cli("gen", "cubic", "--n", 5, "--out", tmp_path / "x").returncode == 2


class TestCliOracle:
    def test_min_colors_k23(self, k23_file):
        r = run_cli("oracle", k23_file, "--min-colors")
        assert r.returncode == 0 and r.stdout.strip() == "6"

    def test_uniform_five_infeasible(self, k23_file):
        r = run_cli("oracle", k23_file, "--uniform", 5)
        assert r.returncode == 1 and "infeasible" in r.stdout

    def test_uniform_six_feasible(self, k23_file):
        r = run_cli("oracle", k23_file, "--uniform", 6)
        assert r.returncode == 0 and "feasible" in r.stdout

    def test_budget_gate(self, tmp_path):
        gpath = tmp_path / "big.graph"
        gpath.write_text(fileio.graph_to_text(sc.subdivide(sc.named("petersen")).bipartite))
        env = dict(CLI_ENV, STRONGCOLOR_ORACLE_MAX_EDGES="10")
        r = subprocess.run(
            [sys.executable, "-m", "strongcolor", "oracle", str(gpath), "--uniform", "6"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 4

    @pytest.mark.parametrize("var", ["STRONGCOLOR_ORACLE_MAX_EDGES", "STRONGCOLOR_ORACLE_MAX_NODES"])
    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_budget_variable(self, k23_file, monkeypatch, capsys, var, value):
        monkeypatch.setenv(var, value)
        assert cli.main(["oracle", str(k23_file), "--uniform", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and var in err

    def test_partial_incidence_lists_infeasible(self, k4_partial_lists):
        gpath, lists_path = k4_partial_lists
        r = run_cli("oracle", gpath, "--mode", "incidence", "--lists", lists_path)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stdout.strip() == "infeasible"

    def test_incidence_min_colors(self, tmp_path):
        gpath = tmp_path / "k4.graph"
        gpath.write_text(fileio.graph_to_text(sc.named("k4")))
        r = run_cli("oracle", gpath, "--min-colors", "--mode", "incidence")
        assert r.returncode == 0 and r.stdout.strip() == "4"


class TestCliStress:
    def test_hundred_instances_pass(self):
        r = run_cli("stress", "--count", 100, "--seed", 7, "--size", 12)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "ok=100" in r.stdout and "rate=100.0%" in r.stdout

    def test_small_lists_rejected(self):
        r = run_cli("stress", "--count", 10, "--seed", 7, "--size", 8, "--k", 5)
        assert r.returncode == 1
        assert "ok=0" in r.stdout

    def test_summary_deterministic(self):
        a = run_cli("stress", "--count", 30, "--seed", 11, "--size", 10)
        b = run_cli("stress", "--count", 30, "--seed", 11, "--size", 10)
        strip = lambda s: s.stdout.rsplit(" wall=", 1)[0]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("var", ["STRONGCOLOR_ORACLE_MAX_EDGES", "STRONGCOLOR_ORACLE_MAX_NODES"])
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_budget_variable(self, monkeypatch, capsys, var, value):
        # the oracle cross-check reads the budget; a bad value is exit 2, not a failed instance
        monkeypatch.setenv(var, value)
        assert cli.main(["stress", "--count", "3", "--seed", "7", "--size", "8"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_cubic_family(self):
        r = run_cli("stress", "--count", 20, "--seed", 3, "--size", 10, "--family", "cubic")
        assert r.returncode == 0, r.stdout + r.stderr


def _lists_doc(body: str) -> str:
    return '{"format_version": 1, "lists": {%s}}' % body


def _coloring_doc(mode: str, body: str) -> str:
    return '{"format_version": 1, "mode": "%s", "colors": {%s}}' % (mode, body)


SIX = "[1, 2, 3, 4, 5, 6]"
BAD_EDGE_KEYS = ["03", " 1_0 ", "+1", "-1", "1 ", "", "1.0", "0x1", "٣", "1\n2"]
BAD_INCIDENCE_KEYS = ["03:1", "1:03", " 1:2", "1: 2", "+1:2", "1:-2", "1_0:2", "1:2:3",
                      "1", ":1", "١:2", "1:2\n3:4"]


class TestCanonicalKeys:
    """Keys are 0|[1-9][0-9]* (or two such joined by ":"); no object repeats a key."""

    @pytest.mark.parametrize("key", BAD_EDGE_KEYS)
    def test_edge_list_key(self, key):
        with pytest.raises(sc.FormatError, match="canonical"):
            fileio.lists_from_text(_lists_doc(f'{json.dumps(key)}: {SIX}'))

    @pytest.mark.parametrize("key", BAD_EDGE_KEYS)
    def test_strong_coloring_key(self, key):
        with pytest.raises(sc.FormatError, match="canonical"):
            fileio.coloring_from_text(_coloring_doc("strong", f'{json.dumps(key)}: 1'))

    @pytest.mark.parametrize("key", BAD_INCIDENCE_KEYS)
    def test_incidence_list_key(self, key):
        with pytest.raises(sc.FormatError, match="canonical"):
            fileio.lists_from_text(_lists_doc(f'{json.dumps(key)}: {SIX}'), incidence=True)

    @pytest.mark.parametrize("key", BAD_INCIDENCE_KEYS)
    def test_incidence_coloring_key(self, key):
        with pytest.raises(sc.FormatError, match="canonical"):
            fileio.coloring_from_text(_coloring_doc("incidence", f'{json.dumps(key)}: 1'))

    @pytest.mark.parametrize("incidence", [False, True])
    def test_canonical_keys_read(self, incidence):
        keys = ["0:0", "10:20", "7:0"] if incidence else ["0", "10", "205"]
        lists = fileio.lists_from_text(
            _lists_doc(", ".join(f'"{k}": {SIX}' for k in keys)), incidence=incidence
        )
        got = set(lists) if incidence else set(lists.lists)
        want = {Incidence(*map(int, k.split(":"))) if incidence else int(k) for k in keys}
        assert got == want

    @pytest.mark.parametrize("incidence", [False, True])
    def test_aliased_key_does_not_overwrite(self, incidence):
        # "3" and "03" used to read as one key, and the later list won
        keys = ('"1:3"', '"1:03"') if incidence else ('"3"', '"03"')
        text = _lists_doc(f"{keys[0]}: {SIX}, {keys[1]}: [7, 8, 9, 10, 11, 12]")
        with pytest.raises(sc.FormatError):
            fileio.lists_from_text(text, incidence=incidence)

    @pytest.mark.parametrize("incidence", [False, True])
    def test_repeated_list_key(self, incidence):
        key = '"0:0"' if incidence else '"0"'
        with pytest.raises(sc.FormatError, match="appears twice"):
            fileio.lists_from_text(_lists_doc(f"{key}: {SIX}, {key}: {SIX}"), incidence=incidence)

    @pytest.mark.parametrize("mode, key", [("strong", '"0"'), ("incidence", '"0:0"')])
    def test_repeated_coloring_key(self, mode, key):
        with pytest.raises(sc.FormatError, match="appears twice"):
            fileio.coloring_from_text(_coloring_doc(mode, f"{key}: 1, {key}: 2"))

    @pytest.mark.parametrize("text", [
        '{"format_version": 1, "format_version": 1, "kind": "multigraph",'
        ' "vertex_count": 2, "edges": [[0, 1]]}',
        '{"format_version": 1, "kind": "bipartite", "vertex_count": 2, "edges": [[0, 1]],'
        ' "parts": {"A": [0], "B": [1], "B": [1]}}',
    ])
    def test_repeated_graph_key(self, text):
        with pytest.raises(sc.FormatError, match="appears twice"):
            fileio.graph_from_text(text)

    @pytest.mark.parametrize("mode, key", [("strong", "03"), ("incidence", "0:+1")])
    def test_cli_verify_rejects_key(self, tmp_path, capsys, k23_file, mode, key):
        cpath = tmp_path / "c.colors"
        cpath.write_text(_coloring_doc(mode, f'"{key}": 1'))
        assert cli.main(["verify", str(k23_file), str(cpath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "canonical" in err

    @pytest.mark.parametrize("mode, key", [("strong", "0"), ("incidence", "0:0")])
    def test_cli_color_rejects_repeated_list_key(self, tmp_path, capsys, k23_file, mode, key):
        lpath = tmp_path / "lists.json"
        lpath.write_text(_lists_doc(f'"{key}": {SIX}, "{key}": {SIX}'))
        assert cli.main(["color", str(k23_file), "--mode", mode, "--lists", str(lpath)]) == 2
        assert "appears twice" in capsys.readouterr().err


class _Allocated(Exception):
    """Raised by a stand-in for a call that would allocate by its argument."""


def _refuse(*args, **kwargs):
    raise _Allocated


class TestSizeCaps:
    """Oversized counts are rejected before the call that would allocate them."""

    @staticmethod
    def graph_text(n: int) -> str:
        return json.dumps({"format_version": 1, "kind": "multigraph", "vertex_count": n,
                           "edges": []})

    def test_vertex_count_cap(self, monkeypatch):
        monkeypatch.setattr(fileio, "build_multigraph", _refuse)
        with pytest.raises(sc.FormatError, match="above the cap"):
            fileio.graph_from_text(self.graph_text(fileio.MAX_VERTEX_COUNT + 1))
        # a subdivided 100,000-vertex cubic graph has 250,000 vertices
        for n in (250_000, fileio.MAX_VERTEX_COUNT):
            with pytest.raises(_Allocated):
                fileio.graph_from_text(self.graph_text(n))

    def test_vertex_count_cap_cli(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(fileio, "build_multigraph", _refuse)
        gpath = tmp_path / "huge.graph"
        gpath.write_text(self.graph_text(10 ** 12))
        assert cli.main(["color", str(gpath), "--uniform", "6"]) == 2
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["color", "oracle"])
    @pytest.mark.parametrize("mode", ["strong", "incidence"])
    def test_uniform_cap(self, monkeypatch, capsys, k23_file, command, mode):
        monkeypatch.setattr(cli.ListAssignment, "uniform", _refuse)
        monkeypatch.setattr(cli, "uniform_incidence_lists", _refuse)
        argv = [command, str(k23_file), "--mode", mode, "--uniform"]
        assert cli.main(argv + [str(cli.MAX_UNIFORM_COLORS + 1)]) == 2
        assert f"at most {cli.MAX_UNIFORM_COLORS}" in capsys.readouterr().err
        with pytest.raises(_Allocated):
            cli.main(argv + [str(cli.MAX_UNIFORM_COLORS)])
