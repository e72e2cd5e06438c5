"""Command-line interface.

Subcommands cover the full pipeline: list seeds, generate a packing,
render it to SVG, verify the stored invariants, classify it, print
tangent-chain tables, and dump the named constants.  Exit codes: 0 on
success, 1 when `verify` finds violations, 2 on usage or input errors,
3 on an internal error (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import chains
from .field import FieldElement, decimal_str, PHI, TAU, SQRT5, SQRT_PHI, SQRT_TAU, RHO, RHO_BAR, OMEGA
from .disks import DiskSymbol, center_radius
from .jsonio import export_json, import_json
from .packing import BUILTIN_SEEDS, Packing, PackingConfig, classify, generate, verify_packing
from .render import RenderOptions, render_svg

_SEED_BLURBS = {
    "window": "unit disk split by two half-disks and their gap filler (type A)",
    "belt": "strip between two parallel half-planes filled with unit disks (type B)",
    "halfplane_golden": "half-plane with the golden zigzag chain on its edge (type C)",
    "plane_spiral": "whole plane tiled by the golden logarithmic spiral (type D)",
}


def _digits(text: str) -> int:
    """A --digits value: a count of decimal places, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apollonian",
        description="Exact-arithmetic Apollonian disk packings with unbounded chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seeds = sub.add_parser("seeds", help="list builtin seed configurations")
    p_seeds.set_defaults(run=_cmd_seeds)

    p_gen = sub.add_parser("generate", help="expand a seed into a packing JSON file")
    p_gen.add_argument("--seed", required=True, help="builtin seed name")
    p_gen.add_argument("--depth", type=int, default=None, help="maximum reflection depth")
    p_gen.add_argument(
        "--max-curvature",
        default=None,
        help="drop disks with curvature above this rational bound, e.g. 100 or 55/2",
    )
    p_gen.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(run=_cmd_generate)

    p_render = sub.add_parser("render", help="draw a packing JSON file as SVG")
    p_render.add_argument("--in", dest="infile", required=True, help="input JSON path")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--viewport", default=None, help="xmin,ymin,xmax,ymax")
    p_render.add_argument("--width", type=int, default=800)
    p_render.add_argument("--height", type=int, default=800)
    p_render.add_argument("--labels", choices=("none", "curvature", "symbol"), default="none")
    p_render.add_argument("--digits", type=_digits, default=4, help="decimal digits in labels")
    p_render.add_argument(
        "--min-px", type=float, default=0.25, help="skip circles smaller than this radius"
    )
    p_render.set_defaults(run=_cmd_render)

    p_verify = sub.add_parser("verify", help="re-check all invariants of a packing file")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.set_defaults(run=_cmd_verify)

    p_classify = sub.add_parser("classify", help="report the curvature taxonomy verdict")
    p_classify.add_argument("--in", dest="infile", required=True)
    p_classify.set_defaults(run=_cmd_classify)

    p_chain = sub.add_parser("chain", help="print a tangent-chain table (TSV)")
    p_chain.add_argument("--kind", choices=("zigzag", "spiral"), required=True)
    p_chain.add_argument("--from", dest="start", type=int, required=True)
    p_chain.add_argument("--to", dest="stop", type=int, required=True)
    p_chain.add_argument("--digits", type=_digits, default=6)
    p_chain.set_defaults(run=_cmd_chain)

    p_constants = sub.add_parser("constants", help="print the named constants and identity checks")
    p_constants.set_defaults(run=_cmd_constants)
    return parser


def _read_packing(path: str) -> Packing:
    with open(path, "r", encoding="utf-8") as handle:
        return import_json(handle.read())


def _cmd_seeds(args: argparse.Namespace) -> int:
    for name in BUILTIN_SEEDS:
        print(f"{name}\t{_SEED_BLURBS[name]}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    max_curvature = None
    if args.max_curvature is not None:
        try:
            max_curvature = Fraction(args.max_curvature)
        except (ValueError, ZeroDivisionError):
            print(f"generate: bad --max-curvature {args.max_curvature!r}", file=sys.stderr)
            return 2
    packing = generate(
        PackingConfig(
            seed=args.seed,
            max_depth=args.depth,
            max_curvature=max_curvature,
            mode=args.mode,
        )
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(export_json(packing))
    print(f"{args.seed}: {len(packing.disks)} disks, {len(packing.quadruples)} quadruples -> {args.out}")
    return 0


def _parse_viewport(text: str):
    try:
        x0, y0, x1, y1 = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"--viewport needs 4 numbers xmin,ymin,xmax,ymax, got {text!r}") from None
    return (x0, y0, x1, y1)


def _cmd_render(args: argparse.Namespace) -> int:
    packing = _read_packing(args.infile)
    viewport = _parse_viewport(args.viewport) if args.viewport else None
    options = RenderOptions(
        viewport=viewport,
        width_px=args.width,
        height_px=args.height,
        label_mode=args.labels,
        decimal_digits=args.digits,
        min_px=args.min_px,
    )
    payload = render_svg(packing, options)
    with open(args.out, "wb") as handle:
        handle.write(payload)
    print(f"{args.infile} -> {args.out} ({len(payload)} bytes)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_packing(_read_packing(args.infile))
    print(f"mode: {report['mode']}")
    print(f"disks: {report['disk_count']}, quadruples: {report['quadruple_count']}")
    for key in ("norm_violations", "extended_violations", "tangency_violations"):
        print(f"{key}: {len(report[key])}")
    if report["mode"] == "float":
        for key in ("max_norm_residual", "max_extended_residual", "max_tangency_residual"):
            print(f"{key}: {report[key]:.3e}")
    print("OK" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(_read_packing(args.infile))
    print(f"type: {verdict.tag}")
    print(f"min_curvature: {verdict.min_curvature:.6f}")
    print(f"zero_curvature_disks: {verdict.zero_curvature_disks}")
    print(f"infimum_attained: {verdict.infimum_attained}")
    print(f"note: {verdict.note}")
    return 0


def _symbol_row(d: DiskSymbol, digits: int) -> List[str]:
    # Chain disks have curvature 2 phi^(2n) or rho^-n, never 0, so each has a center.
    row = [v.to_string() for v in d.components()]
    return row + [decimal_str(v, digits) for v in center_radius(d)]


def _cmd_chain(args: argparse.Namespace) -> int:
    if args.stop < args.start:
        print("chain: --to must be >= --from", file=sys.stderr)
        return 2
    disk = chains.zigzag_disk if args.kind == "zigzag" else chains.spiral_disk
    # Every row is built before the table is printed, so an error leaves stdout empty.
    rows = ["\t".join(("n", "xr", "yr", "beta", "gamma", "cx", "cy", "r"))]
    for n in range(args.start, args.stop + 1):
        rows.append("\t".join([str(n)] + _symbol_row(disk(n).symbol, args.digits)))
    print("\n".join(rows))
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    named = (
        ("phi", PHI),
        ("tau", TAU),
        ("sqrt5", SQRT5),
        ("sqrt_phi", SQRT_PHI),
        ("sqrt_tau", SQRT_TAU),
        ("rho", RHO),
        ("rho_bar", RHO_BAR),
        ("omega_re", OMEGA.re),
        ("omega_im", OMEGA.im),
    )
    for name, value in named:
        print(f"{name} = {decimal_str(value, 12)}  [{value.to_string()}]")
    angle = chains.turn_angle_checks()
    print(f"turn_angle_deg = {angle['theta_degrees']:.8f}")
    wedge = chains.zigzag_wedge_lines()
    print(f"wedge_cos = {decimal_str(wedge['wedge_cos'], 12)}")
    print(f"half_wedge_cos = {decimal_str(wedge['half_wedge_cos'], 12)}")
    checks = (
        ("rho_squared_recurrence", RHO * RHO == 2 * PHI * RHO - 1),
        ("rho_times_conjugate_is_one", RHO * RHO_BAR == FieldElement(1)),
        ("kepler_right_triangle", chains.kepler_triangle_ok()),
        ("sextic_factorization", chains.sextic_factorization_ok()),
        ("turn_angle_cos_is_tau", bool(angle["real_part_is_tau"])),
    )
    for name, ok in checks:
        print(f"{name}: {'OK' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        # ParseError, UnknownSeed, InvalidSeed and EmptyPacking are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "verify found violations"; a bug is neither that nor bad input.
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
