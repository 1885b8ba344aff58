import pytest

import polyom as pm


def cubic_config():
    return pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27)])


def test_svg_structure():
    svg = pm.render_svg(cubic_config(), 2)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert 'width="640" height="480"' in svg
    assert svg.count("<circle ") == 4
    assert svg.count("<path ") == 2
    # one index label per point, no annotation block
    assert svg.count("<text ") == 4
    assert ">1</text>" in svg and ">4</text>" in svg


def test_deterministic_bytes():
    a = pm.render_svg(cubic_config(), 2, samples=64)
    b = pm.render_svg(cubic_config(), 2, samples=64)
    assert a == b


def test_curve_count_tracks_degree():
    cfg = pm.random_config(7, 3, seed=5)
    assert pm.render_svg(cfg, 3).count("<path ") == 4
    assert pm.render_svg(cfg, 1).count("<path ") == 6


def test_annotation_block():
    svg = pm.render_svg(cubic_config(), 2, annotate=True)
    assert "chi(1,2,3,4)=+" in svg
    longer = pm.render_svg(pm.random_config(6, 2, seed=0), 2, annotate=True)
    assert longer.count("chi(") == 3


def test_annotation_skipped_when_no_tuples():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 4)])
    svg = pm.render_svg(cfg, 2, annotate=True)
    assert "chi(" not in svg
    assert svg.count("<path ") == 1


def test_custom_dimensions_and_samples():
    svg = pm.render_svg(cubic_config(), 2, width=100, height=80, samples=2)
    assert 'width="100" height="80"' in svg
    path = [line for line in svg.splitlines() if line.startswith("<path")][0]
    assert path.count("L") == 1  # two samples: one M, one L


def test_no_float_artifacts():
    # an exact-arithmetic pipeline formats short decimals, never the long
    # tails binary floats produce
    svg = pm.render_svg(cubic_config(), 2)
    for token in svg.split('"'):
        if token.startswith("M"):
            for part in token.replace("M", " ").replace("L", " ").split():
                for coord in part.split(","):
                    assert len(coord.split(".")[-1]) == 2


def test_validation():
    with pytest.raises(pm.InputError):
        pm.render_svg(pm.PointConfig([(0, 0), (1, 1)]), 2)
    with pytest.raises(pm.InputError):
        pm.render_svg(cubic_config(), 2, samples=1)
    for width, height in ((0, 480), (640, -1), (0, 0)):
        with pytest.raises(pm.InputError) as info:
            pm.render_svg(cubic_config(), 2, width=width, height=height)
        assert str(info.value) == f"need a width and height of at least 1, got {width}x{height}"
    assert 'width="1" height="1"' in pm.render_svg(cubic_config(), 2, width=1, height=1)
