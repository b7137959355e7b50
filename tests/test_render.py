import re

import pytest

from gridletters.geometry import local_orders, realize
from gridletters.gridding import GriddedPermutation, grid_matrix, pmm_signs
from gridletters.perm import parse_permutation
from gridletters.render import RenderSpec, render, render_hasse

P = parse_permutation

TAG = re.compile(r"<(\w+)")


def tags_of(svg):
    return set(TAG.findall(svg))


def structural_check(svg):
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<svg ") == 1
    assert tags_of(svg) <= {"svg", "line", "circle", "text", "path"}


@pytest.fixture()
def fan_realization(fan_matrix):
    gp = GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))
    return realize(gp, pmm_signs(fan_matrix))


class TestFigure:
    def test_five_segments(self, fan_matrix):
        svg = render(RenderSpec("figure"), fan_matrix)
        structural_check(svg)
        thick = [ln for ln in svg.splitlines() if 'stroke-width="2.000"' in ln]
        assert len(thick) == 5

    def test_empty_matrix_is_grid_only(self):
        svg = render(RenderSpec("figure"), grid_matrix([[0]]))
        structural_check(svg)
        assert "circle" not in svg
        assert 'stroke-width="2.000"' not in svg


class TestDrawing:
    def test_points_and_arrows(self, fan_realization):
        svg = render(RenderSpec("drawing"), fan_realization)
        structural_check(svg)
        assert svg.count("<circle") == 7
        assert svg.count("<path") == 5  # one arrowhead per column and row
        assert ">7</text>" in svg  # value labels


class TestGridding:
    def test_division_lines_and_points(self, fan_realization):
        gp = fan_realization.gridded
        svg = render(RenderSpec("gridding"), gp)
        structural_check(svg)
        assert svg.count("<circle") == 7
        # Two interior column divisions and one interior row division.
        assert svg.count('stroke="gray"') == 3


class TestHasse:
    def test_seven_nodes_six_edges(self, fan_realization, fan_matrix):
        lo = local_orders(fan_realization.gridded, pmm_signs(fan_matrix))
        svg = render_hasse(lo, RenderSpec("hasse"))
        structural_check(svg)
        assert svg.count("<circle") == 7
        # The union poset's transitive reduction has exactly six covers.
        assert svg.count("<line") == 6

    def test_cyclic_orders_rejected(self, x_matrix):
        from gridletters.gridding import all_griddings

        gp = all_griddings(P("3142"), x_matrix)[0]
        lo = local_orders(gp, pmm_signs(x_matrix))
        with pytest.raises(ValueError):
            render_hasse(lo, RenderSpec("hasse"))


class TestSpecAndDispatch:
    def test_bad_spec(self):
        with pytest.raises(ValueError):
            RenderSpec("diagram")
        with pytest.raises(ValueError):
            RenderSpec("figure", scale=0)

    def test_kind_mismatch(self, fan_matrix):
        with pytest.raises(ValueError):
            render(RenderSpec("drawing"), fan_matrix)

    def test_deterministic(self, fan_matrix):
        a = render(RenderSpec("figure"), fan_matrix)
        b = render(RenderSpec("figure"), fan_matrix)
        assert a == b
