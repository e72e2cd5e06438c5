"""Serialization, SVG output, and the command-line pipeline."""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from apollonian import chains, cli
from apollonian.cli import main
from apollonian.jsonio import FORMAT_VERSION, ParseError, export_json, import_json
from apollonian.descartes import Quadruple
from apollonian.disks import DiskSymbol
from apollonian.packing import BUILTIN_SEEDS, Packing, PackingConfig, builtin_seed, generate
from apollonian.render import EmptyPacking, RenderOptions, render_svg


from test_packing import inverted_seed, up_to_depth

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, timeout=120):
    """Run the CLI in a fresh interpreter, so a traceback or a hang shows."""
    return subprocess.run(
        [sys.executable, "-m", "apollonian.cli", *args],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def float_xr(value):
    """A mutation that swaps in a float document with `value` as disks[1].xr."""

    def mutate(doc):
        p = generate(PackingConfig(seed="plane_spiral", max_depth=2, mode="float"))
        doc.clear()
        doc.update(json.loads(export_json(p)))
        doc["disks"][1]["xr"] = value

    return mutate


def json_dumps_layout(text):
    """The document `text` holds, as json.dumps(indent=2, sort_keys=True) writes it."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def window_packing():
    return generate(PackingConfig(seed="window", max_depth=3))


@pytest.fixture(scope="module")
def golden_depth_six():
    return generate(PackingConfig(seed="halfplane_golden", max_depth=6))


@pytest.fixture(scope="module")
def belt_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("belt") / "belt.json"
    path.write_text(export_json(generate(PackingConfig(seed="belt", max_depth=2))))
    return path


@pytest.fixture(scope="module")
def float_packing():
    return generate(PackingConfig(seed="plane_spiral", max_depth=2, mode="float"))


class TestJson:
    def test_round_trip_bytes(self, window_packing):
        text = export_json(window_packing)
        again = export_json(import_json(text))
        assert text == again

    def test_round_trip_bytes_float(self, float_packing):
        text = export_json(float_packing)
        assert export_json(import_json(text)) == text

    def test_schema_shape(self, window_packing):
        doc = json.loads(export_json(window_packing))
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["mode"] == "exact"
        assert doc["seed_name"] == "window"
        assert len(doc["seed"]) == 4
        first = doc["disks"][0]
        assert set(first) == {"xr", "yr", "beta", "gamma", "approx", "depth"}
        assert set(first["approx"]) == {"cx", "cy", "r"}
        assert doc["classification"]["tag"] == "A"
        assert doc["stats"]["disk_count"] == len(doc["disks"])

    def test_lines_have_null_approx(self):
        p = generate(PackingConfig(seed="belt", max_depth=1))
        doc = json.loads(export_json(p))
        nulls = [d for d in doc["disks"] if d["approx"] is None]
        assert len(nulls) == 2
        for entry in nulls:
            assert entry["beta"].startswith("0 +")

    def test_import_preserves_exactness(self, window_packing):
        restored = import_json(export_json(window_packing))
        assert restored.disks == window_packing.disks
        assert restored.quadruples == window_packing.quadruples
        assert restored.disk_depths == window_packing.disk_depths

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(format_version=2), "format_version"),
            (lambda d: d.update(mode="symbolic"), "mode"),
            (lambda d: d.update(disks=[]), "disks"),
            (lambda d: d["disks"][0].pop("beta"), "disks[0]"),
            (lambda d: d["disks"][0].update(beta="2 + nonsense"), "disks[0].beta"),
            (lambda d: d["quadruples"][0].update(disks=[0, 1, 2, 999]), "quadruples[0]"),
            (lambda d: d["quadruples"][0].update(disks=[0, 1, 2, True]), "quadruples[0].disks"),
            (lambda d: d["quadruples"][0].update(depth=True), "quadruples[0].depth"),
            (lambda d: d["disks"][1].update(depth=-3), "disks[1].depth"),
            (lambda d: d.update(viewport=[None, 0, 1, 1]), "viewport"),
            (lambda d: d.update(viewport=["0", 0, 1, 1]), "viewport"),
            (lambda d: d.update(viewport=[True, 0, 1, 1]), "viewport"),
            (lambda d: d.update(viewport=[0, 0, float("inf"), 1]), "viewport"),
            (lambda d: d.update(viewport=[0, float("nan"), 1, 1]), "viewport[1]"),
            (lambda d: d.update(viewport=[0, 0, 1, 10**400]), "viewport[3]"),
            (float_xr(math.inf), "disks[1].xr"),
            (float_xr(math.nan), "disks[1].xr"),
            (float_xr(10**400), "disks[1].xr"),
        ],
    )
    def test_parse_errors_name_the_path(self, window_packing, tmp_path, capsys, mutate, fragment):
        doc = json.loads(export_json(window_packing))
        mutate(doc)
        text = json.dumps(doc)
        with pytest.raises(ParseError) as err:
            import_json(text)
        assert fragment in str(err.value)
        path = tmp_path / "p.json"
        path.write_text(text)
        for command in (["verify"], ["render", "--out", str(tmp_path / "p.svg")]):
            assert main([*command, "--in", str(path)]) == 2
            assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: [d], "top level"),
            (lambda d: {**d, "seed": d["seed"][:3]}, "seed"),
            (lambda d: {**d, "seed_name": 7}, "seed_name"),
            (lambda d: {**d, "disks": [d["disks"][0], "disk", *d["disks"][2:]]}, "disks[1]"),
            (lambda d: {**d, "seed": [{**d["seed"][0], "beta": 1}, *d["seed"][1:]]}, "seed[0].beta"),
            (lambda d: {**d, "quadruples": {}}, "quadruples"),
            (lambda d: {**d, "quadruples": [d["quadruples"][0], [0, 1, 2, 3]]}, "quadruples[1]"),
            (lambda d: {**d, "viewport": [0, 0, 1]}, "viewport"),
        ],
    )
    def test_structural_errors_name_the_path(self, window_packing, tmp_path, capsys, mutate, path):
        text = json.dumps(mutate(json.loads(export_json(window_packing))))
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: "):
            import_json(text)
        doc_path = tmp_path / "p.json"
        doc_path.write_text(text)
        assert main(["verify", "--in", str(doc_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "stats", [{"disk_count": "abc", "per_depth": {}}, None], ids=["garbage", "missing"]
    )
    def test_stats_derived_on_import(self, window_packing, stats):
        text = export_json(window_packing)
        doc = json.loads(text)
        if stats is None:
            del doc["stats"]
        else:
            doc["stats"] = stats
        assert export_json(import_json(json.dumps(doc))) == text

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("seed", [*BUILTIN_SEEDS, *(f"inverted {n}" for n in BUILTIN_SEEDS)])
    def test_export_is_json_dumps_layout(self, seed, mode):
        if seed.startswith("inverted "):
            seed = inverted_seed(seed.split()[1], Fraction(18, 7))
        p = generate(PackingConfig(seed=seed, max_depth=4, mode=mode))
        for depth in range(5):
            text = export_json(up_to_depth(p, depth))
            assert text == json_dumps_layout(text)

    def test_export_layout_of_edge_documents(self, window_packing):
        capped = generate(PackingConfig(seed="window", max_depth=4, max_curvature=20))
        doc = json.loads(export_json(window_packing))
        doc["viewport"] = [-1.5, -1.25, 1.5, 1e-300]
        with_viewport = import_json(json.dumps(doc))
        doc["quadruples"] = []
        no_rows = import_json(json.dumps(doc))
        odd = DiskSymbol(math.inf, math.nan, -math.inf, 0.0)
        seed = Quadruple(tuple(d.approx() for d in builtin_seed("window").disks))
        hand_built = Packing(
            mode="float",
            seed=seed,
            seed_name=None,
            disks=[*seed.disks, odd, DiskSymbol(1e308, -0.0, 2.5, math.nan)],
            disk_depths=[0, 0, 0, 0, 1, 1],
            quadruples=[],
        )
        for p in (capped, with_viewport, no_rows, hand_built):
            text = export_json(p)
            assert text == json_dumps_layout(text)
        assert '"quadruples": [],' in export_json(no_rows)
        assert '"xr": Infinity,' in export_json(hand_built)

    def test_not_json(self):
        with pytest.raises(ParseError):
            import_json("not json at all {")


class TestRender:
    def test_deterministic_bytes(self, window_packing):
        options = RenderOptions(label_mode="curvature")
        assert render_svg(window_packing, options) == render_svg(window_packing, options)

    def test_well_formed_svg(self, window_packing):
        payload = render_svg(window_packing)
        text = payload.decode("utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") > 20

    def test_zero_curvature_drawn_as_line(self):
        p = generate(PackingConfig(seed="belt", max_depth=2))
        payload = render_svg(p, RenderOptions(viewport=(-1.5, -1.0, 1.5, 3.0)))
        assert payload.count(b"<line") == 2

    def test_negative_curvature_unfilled(self, window_packing):
        payload = render_svg(window_packing).decode("utf-8")
        assert 'fill="none"' in payload.splitlines()[3]  # boundary drawn first

    def test_min_px_prunes(self, window_packing):
        small = render_svg(window_packing, RenderOptions(min_px=20.0))
        full = render_svg(window_packing, RenderOptions(min_px=0.25))
        assert small.count(b"<circle") < full.count(b"<circle")

    def test_labels(self, window_packing):
        payload = render_svg(window_packing, RenderOptions(label_mode="curvature"))
        assert b">2<" in payload or b">3<" in payload

    def test_viewport_off_content_raises(self, window_packing):
        with pytest.raises(EmptyPacking):
            render_svg(window_packing, RenderOptions(viewport=(50.0, 50.0, 51.0, 51.0)))

    def test_bad_viewport_rejected(self, window_packing):
        with pytest.raises(ValueError):
            render_svg(window_packing, RenderOptions(viewport=(1.0, 0.0, -1.0, 2.0)))

    @pytest.mark.parametrize(
        "options",
        [
            RenderOptions(viewport=(-math.inf, -1.0, math.inf, 1.0)),
            RenderOptions(viewport=(-1e-320, -1e-320, 1e-320, 1e-320)),
            RenderOptions(viewport=(1e308, 0.0, 1.7e308, 1.0)),
            RenderOptions(width_px=0),
            RenderOptions(width_px=-5),
        ],
    )
    def test_canvas_needs_a_finite_scale(self, window_packing, options):
        with pytest.raises(ValueError, match="canvas"):
            render_svg(window_packing, options)

    @pytest.mark.parametrize("size", [1e-10, 1e-12])
    def test_fitted_viewport_at_any_scale(self, size):
        # The float window seed shrunk by `size` fills the canvas as at size 1.
        def radii_px(factor):
            disks = [d.approx() for d in builtin_seed("window")]
            seed = tuple(DiskSymbol(d.xr, d.yr, d.beta / factor, d.gamma * factor) for d in disks)
            p = generate(PackingConfig(seed=Quadruple(seed), max_depth=3, mode="float"))
            svg = render_svg(p)
            return sorted(float(r) for r in re.findall(rb' r="([0-9.]+)"', svg))

        assert radii_px(size) == radii_px(1.0)

    @pytest.mark.parametrize("h", [1e-3, 1e-10, 1e-12])
    def test_line_is_clipped_at_any_scale(self, golden_depth_six, h):
        # A box of half-side h around the zigzag limit (1/sqrt(5), 0): the
        # axis crosses it at every scale.
        x = 0.4472135954999579
        payload = render_svg(golden_depth_six, RenderOptions(viewport=(x - h, -h, x + h, h)))
        assert payload.count(b"<line") == 1

    def test_non_finite_pixels_are_refused(self, golden_depth_six):
        # A box of half-side 1e-305 at the origin has the finite scale 4e307,
        # at which the large chain disks have no finite pixel geometry.
        with pytest.raises(ValueError, match=r"disk \d+: pixel center or radius is not finite"):
            render_svg(golden_depth_six, RenderOptions(viewport=(-1e-305, -1e-305, 1e-305, 1e-305)))

    def test_exact_disk_past_the_float_range_is_refused(self):
        seed = inverted_seed("window", Fraction(1, 10**160))
        p = generate(PackingConfig(seed=seed, max_depth=1))
        with pytest.raises(ValueError, match="^disk 0: a component is too large for a float$"):
            render_svg(p)

    def test_float_packing_renders(self, float_packing):
        payload = render_svg(float_packing)
        assert payload.count(b"<circle") >= 4


class TestCli:
    def test_seeds(self, capsys):
        assert main(["seeds"]) == 0
        out = capsys.readouterr().out
        for name in ("window", "belt", "halfplane_golden", "plane_spiral"):
            assert name in out

    def test_generate_render_verify_classify(self, tmp_path, capsys):
        out_json = tmp_path / "packing.json"
        out_svg = tmp_path / "packing.svg"
        assert main(["generate", "--seed", "window", "--depth", "3", "--out", str(out_json)]) == 0
        assert main(["render", "--in", str(out_json), "--out", str(out_svg), "--labels", "curvature"]) == 0
        assert out_svg.read_bytes().startswith(b'<?xml version="1.0"')
        assert main(["verify", "--in", str(out_json)]) == 0
        assert main(["classify", "--in", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "type: A" in out
        assert "OK" in out

    def test_generate_float_with_cap(self, tmp_path):
        out_json = tmp_path / "float.json"
        code = main(
            [
                "generate", "--seed", "belt", "--depth", "3",
                "--max-curvature", "25", "--mode", "float",
                "--out", str(out_json),
            ]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["mode"] == "float"
        assert all(d["beta"] <= 25 for d in doc["disks"])

    def test_generate_requires_bound(self, tmp_path, capsys):
        code = main(["generate", "--seed", "window", "--out", str(tmp_path / "x.json")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("seed", ["belt", "halfplane_golden", "plane_spiral"])
    def test_generate_cap_alone_exits_2(self, tmp_path, seed):
        out_json = tmp_path / "cap.json"
        result = run_cli(
            "generate", "--seed", seed, "--max-curvature", "10", "--out", str(out_json), timeout=10
        )
        assert result.returncode == 2
        assert "negative-curvature" in result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert not out_json.exists()

    @pytest.mark.parametrize("cap", ["1e400", "inf"])
    def test_float_cap_without_a_float_value_exits_2(self, tmp_path, cap):
        out_json = tmp_path / "cap.json"
        result = run_cli(
            "generate", "--seed", "window", "--depth", "2", "--max-curvature", cap,
            "--mode", "float", "--out", str(out_json),
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stdout + result.stderr
        assert not out_json.exists()

    def test_generate_bad_cap_exits_2(self, tmp_path, capsys):
        out_json = tmp_path / "x.json"
        args = ["--seed", "window", "--depth", "1", "--max-curvature", "abc", "--out", str(out_json)]
        assert main(["generate", *args]) == 2
        assert capsys.readouterr().err == "generate: bad --max-curvature 'abc'\n"
        assert not out_json.exists()

    def test_negative_depth_exits_2(self, tmp_path):
        out_json = tmp_path / "neg.json"
        result = run_cli("generate", "--seed", "window", "--depth", "-3", "--out", str(out_json))
        assert result.returncode == 2
        assert "max_depth" in result.stderr
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--viewport=-inf,-1,inf,1"],
            ["--viewport=-1e-320,-1e-320,1e-320,1e-320"],
            ["--width", "0"],
            ["--width", "-5"],
            ["--viewport", "1,2,3"],
        ],
    )
    def test_render_needs_a_finite_scale(self, belt_path, tmp_path, args):
        out_svg = tmp_path / "p.svg"
        result = run_cli("render", "--in", str(belt_path), "--out", str(out_svg), *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert not out_svg.exists()

    @pytest.mark.parametrize("box", ["1,2,3,x", "1,2,3,"])
    def test_render_names_a_bad_viewport(self, belt_path, tmp_path, capsys, box):
        out_svg = tmp_path / "p.svg"
        assert main(["render", "--in", str(belt_path), "--out", str(out_svg), "--viewport", box]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --viewport needs 4 numbers xmin,ymin,xmax,ymax, got {box!r}\n"
        assert not out_svg.exists()

    def test_render_never_writes_a_non_finite_number(self, tmp_path):
        out_json = tmp_path / "hp.json"
        out_svg = tmp_path / "hp.svg"
        main(["generate", "--seed", "halfplane_golden", "--depth", "4", "--out", str(out_json)])
        box = "--viewport=-1e-305,-1e-305,1e-305,1e-305"
        result = run_cli("render", "--in", str(out_json), "--out", str(out_svg), box)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: disk ") and result.stderr.count("\n") == 1
        assert not out_svg.exists()

    @pytest.mark.parametrize("command", ["render", "chain"])
    def test_negative_digits_exits_2(self, tmp_path, command):
        out_json = tmp_path / "hp.json"
        out_svg = tmp_path / "hp.svg"
        main(["generate", "--seed", "halfplane_golden", "--depth", "3", "--out", str(out_json)])
        if command == "render":
            args = ["--in", str(out_json), "--out", str(out_svg), "--labels", "curvature", "--digits", "-1"]
        else:
            args = ["--kind", "zigzag", "--from", "0", "--to", "2", "--digits", "-2"]
        result = run_cli(command, *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert [line for line in result.stderr.splitlines() if "error:" in line] == [
            f"apollonian {command}: error: argument --digits: must be at least 0, got {args[-1]}"
        ]
        assert not out_svg.exists()

    def test_unknown_seed_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--seed", "bogus", "--depth", "1", "--out", str(tmp_path / "x.json")])
        capsys.readouterr()
        assert code == 2

    def test_verify_corrupted_exits_1(self, tmp_path, capsys):
        out_json = tmp_path / "p.json"
        main(["generate", "--seed", "window", "--depth", "2", "--out", str(out_json)])
        doc = json.loads(out_json.read_text())
        doc["disks"][3]["beta"] = "1 + 0*t + 0*t^2 + 0*t^3"
        out_json.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(out_json)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_malformed_viewport_exits_2(self, tmp_path, capsys):
        out_json = tmp_path / "p.json"
        main(["generate", "--seed", "window", "--depth", "1", "--out", str(out_json)])
        doc = json.loads(out_json.read_text())
        doc["viewport"] = [None, 0, 1, 1]
        out_json.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(out_json)]) == 2
        captured = capsys.readouterr()
        assert "viewport" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_render_overflowing_coefficient_exits_2(self, tmp_path):
        out_json = tmp_path / "p.json"
        main(["generate", "--seed", "window", "--depth", "1", "--out", str(out_json)])
        doc = json.loads(out_json.read_text())
        doc["disks"][1]["xr"] = "1e999 + 0*t + 0*t^2 + 0*t^3"
        out_json.write_text(json.dumps(doc))
        result = run_cli("render", "--in", str(out_json), "--out", str(tmp_path / "p.svg"))
        assert result.returncode == 2
        assert "disk 1" in result.stderr
        assert "Traceback" not in result.stdout + result.stderr

    def test_verify_float_prints_residuals(self, float_packing, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(export_json(float_packing))
        assert main(["verify", "--in", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("max_")]
        assert [line.split(": ")[0] for line in lines] == [
            "max_norm_residual", "max_extended_residual", "max_tangency_residual"
        ]
        assert all(re.fullmatch(r"max_\w+: \d\.\d{3}e[+-]\d+", line) for line in lines)

    def test_verify_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["verify", "--in", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 2

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # Exit 1 is reserved for verify's violations; a bug gets one line.
        def broken(args):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(cli, "_cmd_verify", broken)
        assert main(["verify", "--in", str(tmp_path / "p.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom on two lines\n"
        assert "Traceback" not in captured.err

    def test_chain_zigzag(self, capsys):
        assert main(["chain", "--kind", "zigzag", "--from", "-2", "--to", "3", "--digits", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["n", "xr", "yr", "beta", "gamma", "cx", "cy", "r"]
        assert len(lines) == 7
        row0 = dict(zip(lines[0].split("\t"), lines[3].split("\t")))
        assert row0["n"] == "0"
        assert row0["r"] == "0.50000000"

    def test_chain_spiral(self, capsys):
        assert main(["chain", "--kind", "spiral", "--from", "0", "--to", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split("\t")[7] == "1.000000"  # unit base disk radius

    def test_chain_error_leaves_stdout_empty(self, capsys, monkeypatch):
        zigzag_disk = chains.zigzag_disk

        def fails_on_second_row(n):
            if n == 1:
                raise ValueError("row 1 cannot be written")
            return zigzag_disk(n)

        monkeypatch.setattr(chains, "zigzag_disk", fails_on_second_row)
        assert main(["chain", "--kind", "zigzag", "--from", "0", "--to", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 1 cannot be written\n"

    def test_chain_bad_range(self, capsys):
        assert main(["chain", "--kind", "zigzag", "--from", "2", "--to", "0"]) == 2
        capsys.readouterr()

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "phi = 1.618033988750" in out
        assert "turn_angle_deg = 51.82729237" in out
        assert "FAIL" not in out

    def test_render_with_viewport_and_size(self, tmp_path):
        out_json = tmp_path / "p.json"
        out_svg = tmp_path / "p.svg"
        main(["generate", "--seed", "halfplane_golden", "--depth", "2", "--out", str(out_json)])
        code = main(
            [
                "render", "--in", str(out_json), "--out", str(out_svg),
                "--viewport=-0.5,-0.1,1.2,1.2", "--width", "400", "--height", "300",
            ]
        )
        assert code == 0
        payload = out_svg.read_bytes()
        assert b'width="400" height="300"' in payload
        assert payload.count(b"<line") == 1
