"""Command-line entry points, exercised in-process."""

import json

import pytest

from degraphs.cli import main
from degraphs.fixtures import fixture
from degraphs.graph import SignedColoredGraph


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStandard:
    def test_emit_and_check(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run(capsys, ["standard", "3,2"])
        assert code == 0
        G = SignedColoredGraph.from_text(out)
        assert len(G.sigma) == 5
        path = tmp_path / "g.json"
        path.write_text(out)
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        assert out.count("PASS") == 6

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, ["standard", "2,3"])
        assert code == 2 and "error" in err


class TestCheck:
    def test_fig6_axiom6_fails(self, capsys, monkeypatch):
        text = fixture("fig6").to_text()
        code, out, _ = run(capsys, ["check", "-", "--axiom", "6"], text, monkeypatch)
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys, monkeypatch):
        text = fixture("fig1").to_text()
        code, out, _ = run(
            capsys, ["check", "-", "--axiom", "1", "--format", "json"], text, monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == [{"check": "1", "holds": True, "witnesses": []}]

    def test_lsp_flags(self, capsys, monkeypatch):
        text = fixture("fig19").to_text()
        code, out, _ = run(
            capsys, ["check", "-", "--lsp", "4", "--lsp", "6", "--axiom4a"],
            text, monkeypatch,
        )
        assert code == 1
        assert "LSP4: PASS" in out and "LSP6: FAIL" in out and "4a: FAIL" in out


class TestBadInput:
    """Malformed graph files are usage errors (exit 2) with a message naming
    the field, never a traceback or a check verdict."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "error: top level: expected a JSON object, got 5"),
            ('{"n": "x", "N": 3, "vertices": [], "edges": []}',
             "error: top level: field 'n' must be an integer"),
            ('{"n": 3, "N": 3, "vertices": [{"id": "a"}], "edges": []}',
             "error: vertex entry 0: missing field 'sigma'"),
            ('{"n": 3, "N": 3, "vertices": [{"id": "a", "sigma": "++"}, '
             '{"id": "a", "sigma": "++"}], "edges": []}',
             "error: vertex entry 1: duplicate vertex id 'a'"),
        ],
    )
    def test_check_rejects(self, capsys, monkeypatch, text, message):
        code, out, err = run(capsys, ["check", "-"], text, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    def test_replay_log_missing(self, capsys, tmp_path):
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig4c").to_text())
        code, _, err = run(
            capsys, ["transform", str(graph_path), "--replay", str(tmp_path / "none.json")]
        )
        assert code == 2 and "error:" in err and "none.json" in err


class TestReplayRejects:
    @pytest.mark.parametrize(
        "log, message",
        [
            ("[]", "error: log: expected a JSON object, got []"),
            ('"color"', 'error: log: expected a JSON object, got "color"'),
            ('{"steps": "x"}', "error: log: field 'steps' must be a list, got \"x\""),
            ('{"steps": [3]}', "error: log step 0: expected a JSON object, got 3"),
            ('{"steps": [{"kind": "phi", "anchor": "b1"}]}',
             "error: log step 0: missing field 'color'"),
            ('{"steps": [{"kind": "phi", "color": "3", "anchor": "b1"}]}',
             "error: log step 0: field 'color' must be an integer, got \"3\""),
            ('{"steps": [{"kind": "phi", "color": 3, "anchor": 7}]}',
             "error: log step 0: field 'anchor' must be a string, got 7"),
            ('{"steps": [{"color": 3, "anchor": "b1"}]}',
             "error: log step 0: missing field 'kind'"),
            ('{"steps": [{"kind": "rho", "color": 3, "anchor": "b1"}]}',
             "error: log step 0: unknown kind 'rho'"),
            ('{"steps": [{"kind": "phi", "color": 3, "anchor": "b1", "variant": true}]}',
             "error: log step 0: field 'variant' must be an integer, got true"),
            ('{"steps": [{"kind": "phi", "color": 3, "anchor": "b1", "variant": 0},'
             ' {"kind": "phi", "color": 3, "anchor": "m1", "variant": -1}]}',
             "error: log step 1: field 'variant' must not be negative, got -1"),
            ('{"steps": [{"kind": "theta", "color": 3, "anchor": "zz"}]}',
             "error: anchor 'zz' is not a vertex"),
        ],
        ids=[
            "top-level-list", "top-level-string", "steps-not-list", "step-not-object",
            "missing-color", "color-string", "anchor-integer", "missing-kind",
            "unknown-kind", "variant-boolean", "negative-variant", "unknown-anchor",
        ],
    )
    def test_bad_log(self, capsys, tmp_path, log, message):
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig8").to_text())
        log_path = tmp_path / "log.json"
        log_path.write_text(log)
        out_path = tmp_path / "out.json"
        code, out, err = run(
            capsys,
            ["transform", str(graph_path), "--replay", str(log_path), "--out", str(out_path)],
        )
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == message + "\n"


class TestExpand:
    def test_fig8(self, capsys, monkeypatch):
        text = fixture("fig8").to_text()
        code, out, _ = run(capsys, ["expand", "-"], text, monkeypatch)
        assert code == 0
        assert out.splitlines()[0] == "s[3,2]+s[3,1,1]+s[2,2,1]"

    def test_graded_output_with_stats(self, capsys, monkeypatch):
        G = fixture("fig9")
        stats = {v: 3 for v in G.vertices()}
        G2 = SignedColoredGraph(G.n, G.N, G.sigma, G.edge_triples(), stats)
        code, out, _ = run(capsys, ["expand", "-"], G2.to_text(), monkeypatch)
        assert code == 0
        assert "graded: q^3*s[3,2] + q^3*s[3,1,1] + q^3*s[2,2,1]" in out

    def test_nonsymmetric_reports_residual(self, capsys, monkeypatch):
        G = SignedColoredGraph(4, 4, {"a": (1, 1, -1)}, [])
        code, out, _ = run(capsys, ["expand", "-"], G.to_text(), monkeypatch)
        assert code == 1 and "RESIDUAL" in out


class TestTransform:
    def test_pipeline_writes_output_and_log(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "result.json"
        log_path = tmp_path / "steps.json"
        text = fixture("fig8").to_text()
        code, _, err = run(
            capsys,
            ["transform", "-", "--out", str(out_path), "--log", str(log_path)],
            text,
            monkeypatch,
        )
        assert code == 0
        assert "certified: True" in err
        result = SignedColoredGraph.from_text(out_path.read_text())
        assert result == fixture("fig9")
        doc = json.loads(log_path.read_text())
        assert len(doc["steps"]) == 4

    def test_replay(self, capsys, monkeypatch, tmp_path):
        graph_path = tmp_path / "in.json"
        out_path = tmp_path / "out.json"
        log_path = tmp_path / "log.json"
        graph_path.write_text(fixture("fig12").to_text())
        code, _, _ = run(
            capsys,
            ["transform", str(graph_path), "--out", str(out_path), "--log", str(log_path)],
        )
        assert code == 0
        replay_out = tmp_path / "replayed.json"
        code, _, _ = run(
            capsys,
            ["transform", str(graph_path), "--replay", str(log_path), "--out", str(replay_out)],
        )
        assert code == 0
        assert replay_out.read_text() == out_path.read_text()

    def test_abort_writes_offender(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "result.json"
        text = fixture("fig19").to_text()
        code, _, err = run(
            capsys, ["transform", "-", "--out", str(out_path)], text, monkeypatch
        )
        assert code == 1
        assert "ABORT" in err
        bad = SignedColoredGraph.from_text((tmp_path / "result.json.failed.json").read_text())
        assert len(bad.sigma) > 0


class TestAnalyze:
    def test_fig8_color3(self, capsys, monkeypatch):
        text = fixture("fig8").to_text()
        code, out, _ = run(capsys, ["analyze", "-", "--color", "3"], text, monkeypatch)
        assert code == 0
        assert "W  = ['b1', 'm1', 't3', 't4']" in out

    def test_conjecture_probe(self, capsys, monkeypatch):
        text = fixture("fig1").to_text()
        code, out, _ = run(
            capsys, ["analyze", "-", "--conjecture-4prime"], text, monkeypatch
        )
        assert code == 0
        assert "none" in out


class TestIso:
    def test_isomorphic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        G = fixture("fig1")
        a.write_text(G.to_text())
        mapping = {v: f"x{k}" for k, v in enumerate(G.vertices())}
        b.write_text(G.relabel(mapping).to_text())
        code, out, _ = run(capsys, ["iso", str(a), str(b)])
        assert code == 0 and "->" in out

    def test_not_isomorphic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(fixture("fig4a").to_text())
        b.write_text(fixture("fig4b").to_text())
        code, out, _ = run(capsys, ["iso", str(a), str(b)])
        assert code == 1 and "NONE" in out


class TestFixturesCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "list"])
        assert code == 0 and "fig8: 16 vertices" in out

    def test_show_round_trip(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "show", "fig4c"])
        assert code == 0
        assert SignedColoredGraph.from_text(out) == fixture("fig4c")

    def test_verify(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "verify", "--skip-large"])
        assert code == 0 and "all expectations hold" in out


class TestExport:
    def test_dot(self, capsys, monkeypatch):
        text = fixture("fig4c").to_text()
        code, out, _ = run(capsys, ["export-dot", "-"], text, monkeypatch)
        assert code == 0
        assert out.startswith("graph G {") and '[label="2"]' in out
