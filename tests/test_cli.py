"""Command-line entry points, exercised in-process."""

import json
from pathlib import Path

import pytest

from degraphs import cli
from degraphs.cli import main
from degraphs.fixtures import FIXTURES, fixture
from degraphs.graph import SignedColoredGraph
from degraphs.standard import build_standard_deg

DATA = Path(__file__).resolve().parent / "data"


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

    @pytest.mark.parametrize("command", ["check", "expand", "transform"])
    @pytest.mark.parametrize("n, N", [(0, 0), (-1, -1)])
    def test_type_below_one_rejected(self, capsys, monkeypatch, command, n, N):
        """Such a file once passed `check` with six PASS lines while `expand`
        and `transform` failed on a window outside the signatures."""
        text = json.dumps({"n": n, "N": N, "vertices": [], "edges": []})
        code, out, err = run(capsys, [command, "-"], text, monkeypatch)
        assert code == 2
        assert out == ""
        assert err == f"error: need 1 <= n <= N, got ({n},{N})\n"

    def test_replay_log_missing(self, capsys, tmp_path):
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig4c").to_text())
        code, _, err = run(
            capsys, ["transform", str(graph_path), "--replay", str(tmp_path / "none.json")]
        )
        assert code == 2 and "error:" in err and "none.json" in err

    @pytest.mark.parametrize(
        "option, message",
        [
            (None, "transform requires the input graph"),
            ("--log", "transform requires the input graph"),
            ("--replay", "replay requires the input graph"),
        ],
    )
    def test_transform_without_graph(self, capsys, tmp_path, option, message):
        """Without a graph, transform once died on open(None) with a
        traceback; it stops with one line and exit 2, writing nothing."""
        argv = ["transform"] + ([option, str(tmp_path / "log.json")] if option else [])
        assert run(capsys, argv) == (2, "", message + "\n")
        assert not any(tmp_path.iterdir())


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
             "error: log step 0: anchor 'zz' is not a vertex"),
            ('{"steps": [{"kind": "theta", "color": 99, "anchor": "b1"}]}',
             "error: log step 0: color 99 outside 1 < i < n = 5"),
            ('{"steps": [{"kind": "psi", "color": -3, "anchor": "b1"}]}',
             "error: log step 0: color -3 outside 1 < i < n = 5"),
            ('{"steps": [{"kind": "phi", "color": 3, "anchor": "b1"},'
             ' {"kind": "psi", "color": 3, "anchor": "zz"}]}',
             "error: log step 1: anchor 'zz' is not a vertex"),
            ('{"steps": [{"kind": "gamma", "color": 4, "anchor": "b1", "variant": 2}]}',
             "error: log step 0: gamma takes no variant, got 2"),
            ('{"steps": [], "aborted": "yes"}',
             "error: log: field 'aborted' must be a boolean, got \"yes\""),
        ],
        ids=[
            "top-level-list", "top-level-string", "steps-not-list", "step-not-object",
            "missing-color", "color-string", "anchor-integer", "missing-kind",
            "unknown-kind", "variant-boolean", "negative-variant", "unknown-anchor",
            "theta-color-too-high", "psi-color-negative", "bad-second-step",
            "gamma-variant", "aborted-string",
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


    def test_theta_variant(self, capsys, tmp_path):
        """fig6's run is one split; the same log with a variant on it is
        rejected rather than replayed as if the variant were 0."""
        G = fixture("fig6")
        graph_path = tmp_path / "in.json"
        graph_path.write_text(G.to_text())
        log_path = tmp_path / "log.json"
        code, _, _ = run(capsys, ["transform", str(graph_path), "--log", str(log_path)])
        assert code == 0
        doc = json.loads(log_path.read_text())
        assert [s["kind"] for s in doc["steps"]] == ["theta"]
        doc["steps"][0]["variant"] = 5
        log_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["transform", str(graph_path), "--replay", str(log_path)])
        assert code == 2 and out == ""
        assert err == "error: log step 0: theta takes no variant, got 5\n"


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

    def test_graded_output_names_a_component_that_is_not_standard(self, capsys, monkeypatch):
        """fig8, one component matching no G_lam, beside a relabelled
        G_(3,2): the graded line keeps the standard one and a warning names
        the other instead of dropping it silently."""
        F = fixture("fig8")
        T = build_standard_deg((3, 2))
        T = T.relabel({v: f"s:{v}" for v in T.vertices()})
        stats = {**dict.fromkeys(F.sigma, 1), **dict.fromkeys(T.sigma, 2)}
        G = SignedColoredGraph(
            F.n, F.N, {**F.sigma, **T.sigma}, F.edge_triples() + T.edge_triples(), stats
        )
        code, out, _ = run(capsys, ["expand", "-"], G.to_text(), monkeypatch)
        assert code == 0
        assert out.splitlines() == [
            "2*s[3,2]+s[3,1,1]+s[2,2,1]",
            f"warning: component at {min(F.sigma)} is not a standard graph",
            "graded: q^2*s[3,2]",
        ]

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

    def test_uncapped_draw_certifies_and_replays(self, capsys, tmp_path):
        """A 167-vertex scrambled union whose split at color 5 leaves defects
        at colors 6 and 7; replaying its log gives the same graph."""
        graph_path = str(DATA / "r5-draw05-n8k4.json")
        out_path = tmp_path / "out.json"
        log_path = tmp_path / "log.json"
        code, _, err = run(
            capsys,
            ["transform", graph_path, "--out", str(out_path), "--log", str(log_path)],
        )
        assert code == 0
        assert "certified: True" in err
        replay_out = tmp_path / "replayed.json"
        code, _, _ = run(
            capsys,
            ["transform", graph_path, "--replay", str(log_path), "--out", str(replay_out)],
        )
        assert code == 0
        assert replay_out.read_text() == out_path.read_text()
        assert json.loads(log_path.read_text())["policy"] == "default"

    def test_policy_flag_is_a_usage_error(self, capsys, tmp_path):
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig8").to_text())
        with pytest.raises(SystemExit) as exit_info:
            main(["transform", str(graph_path), "--policy", "x"])
        assert exit_info.value.code == 2
        assert "--policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--log", "LOG"], "--replay takes no --log"),
            (["--stop-at", "99"], "--replay takes no --stop-at"),
            (["--stop-at", "2"], "--replay takes no --stop-at"),
            (["--stop-at", "2", "--log", "LOG"], "--replay takes no --log or --stop-at"),
        ],
    )
    def test_replay_rejects_pipeline_options(self, capsys, tmp_path, options, message):
        """A replay once dropped ``--log`` and ``--stop-at`` without a word,
        writing no log and accepting any stop; it stops with one line and
        exit 2, writing nothing."""
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig12").to_text())
        log_path = tmp_path / "log.json"
        assert run(capsys, ["transform", str(graph_path), "--log", str(log_path)])[0] == 0
        out_path, new_log = tmp_path / "out.json", tmp_path / "new-log.json"
        options = [str(new_log) if o == "LOG" else o for o in options]
        argv = ["transform", str(graph_path), "--replay", str(log_path), "--out", str(out_path)]
        assert run(capsys, argv + options) == (2, "", f"error: {message}\n")
        assert not out_path.exists() and not new_log.exists()

    @pytest.mark.parametrize("stop_at", ["99", "5", "0", "-4"])
    def test_stop_at_out_of_range(self, capsys, tmp_path, stop_at):
        graph_path = tmp_path / "in.json"
        graph_path.write_text(fixture("fig8").to_text())
        out_path = tmp_path / "out.json"
        code, out, err = run(
            capsys, ["transform", str(graph_path), "--stop-at", stop_at, "--out", str(out_path)]
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err == f"error: stop_at {stop_at} outside 1 <= stop_at <= n - 1 = 4\n"

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

    @pytest.mark.parametrize("color", ["99", "-3", "1", "5"])
    def test_color_out_of_range(self, capsys, monkeypatch, color):
        text = fixture("fig8").to_text()
        code, out, err = run(capsys, ["analyze", "-", "--color", color], text, monkeypatch)
        assert code == 2 and out == ""
        assert err == f"error: color {color} outside 1 < i < n = 5\n"

    def test_conjecture_probe(self, capsys, monkeypatch):
        text = fixture("fig1").to_text()
        code, out, _ = run(
            capsys, ["analyze", "-", "--conjecture-4prime"], text, monkeypatch
        )
        assert code == 0
        assert "none" in out

    @pytest.mark.parametrize("color", ["3", "99"])
    def test_conjecture_probe_rejects_color(self, capsys, monkeypatch, color):
        """The probe reads the fixtures, not the graph, and once dropped
        ``--color`` without a word."""
        text = fixture("fig8").to_text()
        argv = ["analyze", "-", "--color", color, "--conjecture-4prime"]
        assert run(capsys, argv, text, monkeypatch) == (
            2, "", "error: --conjecture-4prime takes no --color\n"
        )


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

    def test_show_unknown_name(self, capsys):
        """The message prints plain, not inside the quotes of str(KeyError)."""
        code, out, err = run(capsys, ["fixtures", "show", "nope"])
        assert (code, out) == (2, "")
        assert err == f"error: unknown fixture 'nope'; have {sorted(FIXTURES)}\n"


class TestExport:
    def test_dot(self, capsys, monkeypatch):
        text = fixture("fig4c").to_text()
        code, out, _ = run(capsys, ["export-dot", "-"], text, monkeypatch)
        assert code == 0
        assert out.startswith("graph G {") and '[label="2"]' in out


class TestParserReuse:
    """One parser serves every call in a process; nothing one call parses
    reaches the next."""

    @pytest.fixture
    def graph_path(self, tmp_path):
        """A dual equivalence graph, so every check passes."""
        path = tmp_path / "g.json"
        path.write_text(fixture("fig9").to_text())
        return str(path)

    def test_check_options_do_not_carry_over(self, capsys, monkeypatch, graph_path):
        monkeypatch.setattr(cli, "_parser", None)
        code, bare, _ = run(capsys, ["check", graph_path])
        assert code == 0 and len(bare.splitlines()) == 6
        code, out, _ = run(capsys, ["check", graph_path, "--axiom", "4"])
        assert code == 0 and len(out.splitlines()) == 1
        assert run(capsys, ["check", graph_path]) == (0, bare, "")
        code, out, _ = run(capsys, ["check", graph_path, "--format", "json"])
        assert code == 0 and len(json.loads(out)) == 6
        assert run(capsys, ["check", graph_path]) == (0, bare, "")

    def test_replay_does_not_carry_over(self, capsys, tmp_path):
        graph_path = str(tmp_path / "g.json")
        Path(graph_path).write_text(fixture("fig12").to_text())
        out, log, again = (str(tmp_path / f) for f in ("out.json", "log.json", "again.json"))
        code, _, err = run(capsys, ["transform", graph_path, "--out", out, "--log", log])
        assert code == 0 and "certified: True" in err
        code, _, err = run(capsys, ["transform", graph_path, "--replay", log, "--out", again])
        assert code == 0 and err == ""
        Path(out).unlink()
        code, _, err = run(capsys, ["transform", graph_path, "--out", out])
        assert code == 0 and "certified: True" in err
        assert Path(out).read_text() == Path(again).read_text()

    def test_usage_error_then_valid_call(self, capsys, graph_path):
        _, bare, _ = run(capsys, ["check", graph_path])
        for argv in (["check"], ["check", graph_path, "--axiom", "9"], ["nope"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "usage: degraphs" in capsys.readouterr().err
            assert run(capsys, ["check", graph_path]) == (0, bare, "")

    def test_parser_is_built_once(self, capsys, monkeypatch, graph_path):
        built = []

        def counting_build_parser():
            built.append(1)
            return real_build_parser()

        real_build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in [["check", graph_path], ["expand", graph_path]] * 5:
            assert run(capsys, argv)[0] == 0
        assert len(built) == 1
