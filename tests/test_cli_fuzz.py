"""Hypothesis fuzz of the CLI on mutated packing documents and options.

Each document example takes an exact or float depth-2 document of
`window` or `halfplane_golden`, replaces, deletes or retypes a few of
its values, and runs `verify`, `classify` and `render` through
`cli.main` in process.  The option examples run `render` on the same
documents unmutated with drawn `--viewport`, `--width`, `--height`,
`--min-px` and `--digits`, and `generate` with drawn `--seed`, `--mode`,
`--max-curvature` and `--depth`.  Bad input must exit 2 with a one-line
error and write no output file: the CLI never exits 3, never prints a
traceback, exits 1 only when verify finds violations, and never writes
a non-finite number into an SVG.
"""

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian.cli import main
from apollonian.jsonio import export_json, import_json
from apollonian.packing import BUILTIN_SEEDS, PackingConfig, generate, verify_packing

# SVG attributes that hold numbers; `dominant-baseline` and the colours do not.
NUMERIC_ATTRIBUTES = ("x", "y", "cx", "cy", "r", "x1", "y1", "x2", "y2", "font-size")

# Stands for a 5,000-digit JSON number, which json.dumps refuses to write.
RAW_HUGE_INT = "@raw-huge-int@"

# Zero denominators, non-reduced fractions, non-canonical spellings and
# 5,000-digit coefficients.
COEFFICIENTS = ("1/0", "0/0", "NaN", "inf", "2/4", "-6/4", "3/-4", "1e5", "0x10")
COEFFICIENTS += ("9" * 5000, "1/" + "7" * 5000)
TERMS = ("0", "0*t", "0*t^2", "0*t^3")


def field_string(coefficient, k):
    """A canonical-looking field element with `coefficient` as its t^k term."""
    terms = list(TERMS)
    terms[k] = coefficient + TERMS[k][1:]
    return " + ".join(terms)


BAD_VALUES = st.one_of(
    st.builds(field_string, st.integers(-9, 9).map(str) | st.sampled_from(COEFFICIENTS), st.integers(0, 3)),
    st.floats(),
    st.integers(),
    st.sampled_from(
        [
            1e308,
            5e-324,
            10**400,
            -(10**400),
            RAW_HUGE_INT,
            "",
            "t",
            None,
            True,
            [],
            {},
            [0, 1, 2],
            [0, 0, 5e-324, 5e-324],
            [-1e308, -1e308, 1e308, 1e308],
            [1, 1, 1, 1],
        ]
    ),
    st.text(max_size=12),
)

RETYPES = (str, lambda v: [v], lambda v: {"value": v})


def paths(node, prefix=()):
    """The key path of every value below `node`, containers included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(data, doc):
    """Replace, delete or retype the value at one path."""
    *parents, key = data.draw(st.sampled_from(list(paths(doc))))
    container = doc
    for k in parents:
        container = container[k]
    op = data.draw(st.sampled_from(("replace", "delete", "retype")))
    if op == "replace":
        container[key] = data.draw(BAD_VALUES)
    elif op == "delete":
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(RETYPES))(container[key])


@pytest.fixture(scope="module")
def documents():
    return [
        export_json(generate(PackingConfig(seed=seed, max_depth=2, mode=mode)))
        for seed in ("window", "halfplane_golden")
        for mode in ("exact", "float")
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(args):
    """cli.main(args) in process: exit code and stderr (argparse exits by SystemExit)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_finite_svg(svg):
    for element in ET.parse(svg).getroot().iter():
        for name in NUMERIC_ATTRIBUTES:
            if name in element.attrib:
                assert math.isfinite(float(element.attrib[name])), (name, element.attrib)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_on_mutated_documents(documents, workdir, data):
    doc = json.loads(data.draw(st.sampled_from(documents)))
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            mutate(data, doc)
    text = json.dumps(doc, indent=2).replace(json.dumps(RAW_HUGE_INT), "9" * 5000)
    source, svg = workdir / "in.json", workdir / "out.svg"
    source.write_text(text)
    svg.unlink(missing_ok=True)
    labels = data.draw(st.sampled_from(("none", "curvature", "symbol")))
    for args in (
        ["verify", "--in", str(source)],
        ["classify", "--in", str(source)],
        ["render", "--in", str(source), "--out", str(svg), "--labels", labels],
    ):
        code, err = run(args)
        assert code in (0, 1, 2), (args, err)
        assert "Traceback" not in err and "internal error" not in err, (args, err)
        if args[0] == "verify" and code != 2:
            assert code == (0 if verify_packing(import_json(text))["ok"] else 1)
        assert code != 1 or args[0] == "verify"
        if args[0] == "render" and code == 0:
            assert_finite_svg(svg)


# Junk option values.  They hold no decimal digit, so none is a large
# --digits count or --max-curvature.
JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e", "--", "0x"]) | st.text(
    st.characters(blacklist_categories=("Nd",)), max_size=6
)
FLOATS = st.floats(-3, 3) | st.floats()
VIEWPORTS = st.one_of(
    st.lists(FLOATS, min_size=4, max_size=4),
    st.lists(st.floats(-3, 3), min_size=3, max_size=5),
).map(lambda box: ",".join(map(repr, box)))
# Caps at most 100: the only caps drawn without a depth, since a cap
# alone is a real budget (exact 1e400 on window is about 10^520 disks).
SMALL_CAPS = st.one_of(
    st.sampled_from(["0", "-1", "100", "1e2", "55/2", "3/-4", "1/0", "-1/0"]),
    st.fractions(max_value=100, max_denominator=10**6).map(str),
)
ANY_CAPS = SMALL_CAPS | st.sampled_from(["1e400", "-1e400", "1e-400", "9" * 400, "1/" + "7" * 400])


def option(data, name, values):
    """`--name=value` or nothing; one value in three is junk."""
    kind = data.draw(st.sampled_from(("absent", "value", "value", "junk")))
    if kind == "absent":
        return []
    return [f"--{name}={data.draw(values if kind == 'value' else JUNK)}"]


def assert_clean_exit(args, code, err, out):
    assert code in (0, 2), (args, err)
    assert "Traceback" not in err and "internal error" not in err, (args, err)
    assert out.exists() == (code == 0), (args, code, err)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_render_options(documents, workdir, data):
    source, svg = workdir / "render_in.json", workdir / "render_out.svg"
    source.write_text(data.draw(st.sampled_from(documents)))
    svg.unlink(missing_ok=True)
    args = ["render", "--in", str(source), "--out", str(svg)]
    args += ["--labels", data.draw(st.sampled_from(("none", "curvature", "symbol")))]
    args += option(data, "viewport", VIEWPORTS)
    args += option(data, "width", st.integers(-2, 3000).map(str))
    args += option(data, "height", st.integers(-2, 3000).map(str))
    args += option(data, "min-px", FLOATS.map(repr))
    # Label digits stay small: each is a certified decimal digit to compute.
    args += option(data, "digits", st.integers(-3, 30).map(str))
    code, err = run(args)
    assert_clean_exit(args, code, err, svg)
    if code == 0:
        assert_finite_svg(svg)


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_generate_options(workdir, data):
    out = workdir / "generate_out.json"
    out.unlink(missing_ok=True)
    args = ["generate", "--out", str(out), "--seed", data.draw(st.sampled_from(BUILTIN_SEEDS + ("", "nope")))]
    args += option(data, "mode", st.sampled_from(("exact", "float")))
    depth = option(data, "depth", st.integers(-2, 3).map(str))
    args += depth + option(data, "max-curvature", ANY_CAPS if depth else SMALL_CAPS)
    code, err = run(args)
    assert_clean_exit(args, code, err, out)
