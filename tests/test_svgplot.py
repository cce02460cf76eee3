"""The SVG emitter: every coordinate mapped and formatted in one pass gives
the bytes of mapping and formatting each vertex on its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrange import EmptyInput
from blockrange.svgplot import Scene

from helpers import render_by_vertex

# magnitudes from 1e-9 to 1e9, either sign
_coords = st.builds(lambda s, e: s * 10.0**e, st.floats(-1.0, 1.0), st.floats(-9.0, 9.0))
_items = st.tuples(
    st.sampled_from(["polygon", "points"]),
    st.lists(st.builds(complex, _coords, _coords), min_size=1, max_size=30),
    st.sampled_from(["region", "fill", "accent", "cloud", "unknown"]),
)


def _scene(items) -> Scene:
    scene = Scene()
    for kind, pts, style in items:
        (scene.add_polygon if kind == "polygon" else scene.add_points)(pts, style)
    return scene


class TestRender:
    @settings(max_examples=200, deadline=None)
    @given(items=st.lists(_items, min_size=1, max_size=4),
           offset=st.builds(complex, _coords, _coords),
           repeats=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([None, "accent"])),
                            max_size=12))
    def test_one_pass_matches_the_vertex_loop(self, items, offset, repeats):
        # a repeat draws a polygon or cloud again, as decompose draws the
        # one late group that its levels share: the same array in its own
        # style, or an equal copy in another
        items = [(kind, np.array(pts) + offset, style) for kind, pts, style in items]
        for i, style in repeats:
            kind, pts, own = items[i % len(items)]
            items.append((kind, pts.copy() if style else pts, style or own))
        assert _scene(items).render() == render_by_vertex(items)

    def test_both_axes_polygon_and_cloud(self):
        items = [("polygon", np.array([-1 - 1j, 2 - 1j, 2 + 3j]), "fill"),
                 ("points", np.array([0.5, 1e-9j, -0.25 + 2j]), "cloud")]
        svg = _scene(items).render()
        assert svg == render_by_vertex(items)
        assert svg.count("<line ") == 2
        assert svg.count("<polygon ") == 1 and svg.count("<circle ") == 3

    @pytest.mark.parametrize("z", [1e9 + 1e9j, -3e15, 2e300j])
    def test_one_point_far_from_the_origin(self, z):
        # the span floor grows with the coordinates, so a drawing narrower
        # than their float spacing still has a scale
        svg = _scene([("points", np.array([z]), "cloud")]).render()
        assert svg.count("<circle ") == 1 and 'cx="320.000" cy="320.000"' in svg

    def test_empty_scene_rejected(self):
        with pytest.raises(EmptyInput):
            Scene().add_polygon([]).render()
