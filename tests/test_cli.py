import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import gridletters
from gridletters import pipeline, render
from gridletters.cli import main
from gridletters.graphs import family, format_graph
from gridletters.gridding import find_gridding

X_TEXT = "-1 1\n1 -1\n"
FAN_TEXT = "-1 1 1\n0 -1 -1\n"


def _no_render(*args, **kwargs):
    raise AssertionError("rendered a drawing without --svg")


@pytest.fixture()
def x_file(tmp_path):
    path = tmp_path / "x.mat"
    path.write_text(X_TEXT)
    return str(path)


@pytest.fixture()
def fan_file(tmp_path):
    path = tmp_path / "fan.mat"
    path.write_text(FAN_TEXT)
    return str(path)


class TestLettericity:
    def test_p4(self, tmp_path, capsys):
        path = tmp_path / "p4.graph"
        path.write_text(format_graph(family("path", 4)))
        assert main(["lettericity", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "2"
        assert "word:" in out

    def test_k1(self, tmp_path, capsys):
        path = tmp_path / "k1.graph"
        path.write_text(format_graph(family("complete", 1)))
        assert main(["lettericity", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("not a graph\n")
        assert main(["lettericity", str(path)]) == 2
        assert capsys.readouterr().err

    def test_size_printed_before_the_witness_walk(self, tmp_path):
        # The 5-letter witness walk on 5K2 runs far longer than the deadline;
        # the decided size must reach stdout first.
        path = tmp_path / "5k2.graph"
        path.write_text(format_graph(family("mK2", 5)))
        env = dict(os.environ, PYTHONPATH=str(Path(gridletters.__file__).parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridletters", "lettericity", str(path)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 20)
            assert ready, "no output within 20 s"
            assert proc.stdout.readline() == "5\n"
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


class TestInvgraph:
    def test_2413(self, capsys):
        assert main(["invgraph", "--perm", "2413"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "4"
        assert "1 3" in out


class TestGridCheck:
    def test_member(self, x_file, capsys):
        assert main(["grid-check", "--perm", "524361", "--matrix", x_file]) == 0
        out = capsys.readouterr().out
        assert "column divisions: 1 3 7" in out

    def test_not_member(self, x_file, capsys):
        assert main(["grid-check", "--perm", "2143", "--matrix", x_file]) == 1
        assert "NOT" in capsys.readouterr().out

    def test_perm_from_file(self, x_file, tmp_path, capsys):
        perm_path = tmp_path / "p.perm"
        perm_path.write_text("5 2 4 3 6 1\n")
        assert main(["grid-check", "--perm", str(perm_path), "--matrix", x_file]) == 0


class TestGeomCheck:
    def test_3142_not_member(self, x_file, capsys):
        assert main(["geom-check", "--perm", "3142", "--matrix", x_file]) == 1
        assert "NOT a member" in capsys.readouterr().out

    def test_6437251_member_with_coordinates(self, fan_file, capsys):
        assert main(["geom-check", "--perm", "6437251", "--matrix", fan_file]) == 0
        out = capsys.readouterr().out
        assert "member of Geom(M)" in out
        assert "entry 1" in out

    def test_single_point(self, tmp_path, capsys):
        m = tmp_path / "one.mat"
        m.write_text("1\n")
        assert main(["geom-check", "--perm", "1", "--matrix", str(m)]) == 0

    def test_bad_scale_before_any_work(self, fan_file, capsys):
        assert main(
            ["geom-check", "--perm", "3 6 4 5 7 2 1", "--matrix", fan_file, "--scale", "0"]
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "scale" in err

    def test_no_svg_renders_nothing(self, fan_file, monkeypatch, capsys):
        monkeypatch.setattr(render, "render_drawing", _no_render)
        assert main(["geom-check", "--perm", "6437251", "--matrix", fan_file]) == 0


class TestGeometrize:
    def test_3142_with_svg(self, x_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code = main(
            ["geometrize", "--perm", "3142", "--matrix", x_file, "--k-max", "2", "--svg", str(svg)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "output matrix" in out
        assert svg.read_text().startswith("<svg ")

    def test_ungriddable_is_negative_verdict(self, x_file, capsys):
        assert main(["geometrize", "--perm", "214365", "--matrix", x_file, "--k-max", "3"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_letter_budget_below_one_is_an_input_error(self, x_file, capsys):
        assert main(["geometrize", "--perm", "3142", "--matrix", x_file, "--k-max", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "k_max >= 1" in err

    def test_bad_scale_before_any_work(self, x_file, capsys):
        argv = ["geometrize", "--perm", "3142", "--matrix", x_file, "--k-max", "2"]
        assert main([*argv, "--scale", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_no_svg_renders_nothing(self, x_file, monkeypatch, capsys):
        monkeypatch.setattr(render, "render_drawing", _no_render)
        assert main(["geometrize", "--perm", "3142", "--matrix", x_file, "--k-max", "2"]) == 0


class TestExperiment:
    def test_small_run(self, x_file, capsys):
        code = main(
            ["experiment", "--n-max", "3", "--matrix", x_file, "--letters", "2", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("perm\t")
        assert "all verified" in out

    def test_verify_past_the_oracle_cap_fails_before_the_sweep(
        self, x_file, monkeypatch, capsys
    ):
        calls = []

        def counting_find_gridding(pi, m):
            calls.append(pi)
            return find_gridding(pi, m)

        monkeypatch.setattr(pipeline, "find_gridding", counting_find_gridding)
        code = main(
            ["experiment", "--n-max", "10", "--matrix", x_file, "--letters", "3", "--verify"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "capped at length 9" in err
        assert calls == []

    @pytest.mark.parametrize("n_max, letters", [("3", "0"), ("-1", "3")])
    def test_letter_cap_below_one_or_negative_length_is_an_input_error(
        self, x_file, capsys, n_max, letters
    ):
        assert main(["experiment", "--n-max", n_max, "--matrix", x_file, "--letters", letters]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "need r >= 1 and n_max >= 0" in err


class TestRender:
    def test_figure_to_file(self, fan_file, tmp_path):
        svg = tmp_path / "fig.svg"
        assert main(["render", "--target", "figure", "--matrix", fan_file, "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg ")

    def test_hasse_stdout(self, fan_file, capsys):
        assert main(["render", "--target", "hasse", "--matrix", fan_file, "--perm", "6437251"]) == 0
        assert capsys.readouterr().out.startswith("<svg ")

    def test_hasse_not_a_member(self, x_file, capsys):
        assert main(["render", "--target", "hasse", "--matrix", x_file, "--perm", "3142"]) == 1
        assert capsys.readouterr().out == "no gridding with consistent local orders\n"

    def test_hasse_needs_a_partial_multiplication_matrix(self, tmp_path, capsys):
        path = tmp_path / "non_pmm.mat"
        path.write_text("1 -1\n1 1\n")
        assert main(["render", "--target", "hasse", "--matrix", str(path), "--perm", "3142"]) == 2
        assert "partial multiplication matrix" in capsys.readouterr().err

    def test_gridding_absent(self, x_file, capsys):
        assert main(["render", "--target", "gridding", "--matrix", x_file, "--perm", "2143"]) == 1

    def test_unknown_target_is_a_usage_error(self, fan_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--target", "bogus", "--matrix", fan_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gridletters render")
        assert "invalid choice: 'bogus' (choose from figure, drawing, gridding, hasse)" in err

    def test_missing_matrix_file(self, capsys):
        assert main(["render", "--target", "figure", "--matrix", "/nonexistent.mat"]) == 2

    def test_missing_perm_for_drawing(self, fan_file, capsys):
        assert main(["render", "--target", "drawing", "--matrix", fan_file]) == 2
        assert "--perm is required" in capsys.readouterr().err

    def test_deterministic_output(self, fan_file, capsys):
        main(["render", "--target", "figure", "--matrix", fan_file])
        first = capsys.readouterr().out
        main(["render", "--target", "figure", "--matrix", fan_file])
        assert capsys.readouterr().out == first
