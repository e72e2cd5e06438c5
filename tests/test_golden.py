"""Golden digests: output bytes pinned against fixed sha256 values.

The byte-stability tests elsewhere compare a run with itself; these pin
the bytes themselves, so a refactor of the field, the generator or the
verifier that changes any output byte fails here.  Re-pin only when an
output format change is intended.
"""

import hashlib

import pytest

from apollonian.cli import main
from apollonian.jsonio import export_json, import_json
from apollonian.packing import PackingConfig, generate
from apollonian.render import RenderOptions, render_svg

WINDOW_D4_JSON = "3d6e0d3c83ac5767f1744c18d6d3d5c69e28c0b4d46bb692fd6a29edc4a67b0e"
WINDOW_D4_SVG_CURVATURE = "fc78c664db6221fe5ffe30ccf330c8909bc54fa2d8a250f96d7c530e157f3346"
BELT_D3_FLOAT_JSON = "46328258140fe5c85de4f78725c5bb9fb7ea1d4fa27a46ac29257e7d5155fe30"
# Irrational symbols: the numeric views (decimal_str, approx) of elements
# with t-terms, which the window and belt digests never reach.
HALFPLANE_D3_JSON = "1f881616966ff3c14df7eac76632e7781cba69be0a469d9a59f8cfadbddbf31b"
HALFPLANE_D3_SVG_SYMBOL = "6e461ef780864e78fc5cf5752fb7df79fa6ba681e03054055a2ae969ac6be227"
SPIRAL_D3_FLOAT_JSON = "8611ceb9ced558effb2f80e1ca219f4bd6f9bf0aca4b0faeb3f995a1c6fcab56"
# Float labels: the float formatting path of both label modes.
HALFPLANE_D3_FLOAT_SVG_SYMBOL = "bd119d65f5f609706d1ba65c6ca703ddc9224714292b0e6099b030c4b7ee62fe"
WINDOW_D4_FLOAT_SVG_CURVATURE = "e2c3ebeb8cc55861fb578263c8eabc9f09723d6cb6de19ce384db637f5ad010f"


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def window_d4_json():
    return export_json(generate(PackingConfig(seed="window", max_depth=4)))


def test_window_d4_exact_json(window_d4_json):
    assert sha256(window_d4_json) == WINDOW_D4_JSON


def test_window_d4_svg_curvature_labels(window_d4_json):
    svg = render_svg(import_json(window_d4_json), RenderOptions(label_mode="curvature"))
    assert sha256(svg) == WINDOW_D4_SVG_CURVATURE


def test_belt_d3_float_json():
    doc = export_json(generate(PackingConfig(seed="belt", max_depth=3, mode="float")))
    assert sha256(doc) == BELT_D3_FLOAT_JSON


@pytest.fixture(scope="module")
def halfplane_d3_json():
    return export_json(generate(PackingConfig(seed="halfplane_golden", max_depth=3)))


def test_halfplane_d3_exact_json(halfplane_d3_json):
    assert sha256(halfplane_d3_json) == HALFPLANE_D3_JSON


def test_halfplane_d3_svg_symbol_labels(halfplane_d3_json):
    svg = render_svg(import_json(halfplane_d3_json), RenderOptions(label_mode="symbol"))
    assert sha256(svg) == HALFPLANE_D3_SVG_SYMBOL


def test_spiral_d3_float_json():
    # The float seed is the approx of the exact, irrational seed symbols.
    doc = export_json(generate(PackingConfig(seed="plane_spiral", max_depth=3, mode="float")))
    assert sha256(doc) == SPIRAL_D3_FLOAT_JSON


def test_halfplane_d3_float_svg_symbol_labels():
    p = generate(PackingConfig(seed="halfplane_golden", max_depth=3, mode="float"))
    svg = render_svg(p, RenderOptions(label_mode="symbol"))
    assert sha256(svg) == HALFPLANE_D3_FLOAT_SVG_SYMBOL


def test_window_d4_float_svg_curvature_labels():
    p = generate(PackingConfig(seed="window", max_depth=4, mode="float"))
    svg = render_svg(p, RenderOptions(label_mode="curvature"))
    assert sha256(svg) == WINDOW_D4_FLOAT_SVG_CURVATURE


def test_cli_writes_the_pinned_bytes(tmp_path):
    window_json = tmp_path / "window.json"
    window_svg = tmp_path / "window.svg"
    belt_json = tmp_path / "belt.json"
    assert main(["generate", "--seed", "window", "--depth", "4", "--out", str(window_json)]) == 0
    assert main(
        ["render", "--in", str(window_json), "--out", str(window_svg), "--labels", "curvature"]
    ) == 0
    assert main(
        ["generate", "--seed", "belt", "--depth", "3", "--mode", "float", "--out", str(belt_json)]
    ) == 0
    assert sha256(window_json.read_bytes()) == WINDOW_D4_JSON
    assert sha256(window_svg.read_bytes()) == WINDOW_D4_SVG_CURVATURE
    assert sha256(belt_json.read_bytes()) == BELT_D3_FLOAT_JSON
