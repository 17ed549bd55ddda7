"""Command-line interface.

Subcommands: generate, visible, dim, energy, sweep, verify-bound,
constants, render.  Exit codes: 0 success, 1 validation error (bad
arguments or bad input values), 2 runtime error (I/O or internal failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import fractals, harness, measurelab, visibility


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract here is 1 for
    # anything the user can fix.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    p = _Parser(prog="fracvis",
                description="Visibility and dimension experiments on "
                            "planar fractal curves.")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", type=str, default=None,
                   help="output file or directory (subcommand dependent)")
    p.add_argument("--config", type=str, default=None,
                   help="JSON experiment config file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational output")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a curve file")
    g.add_argument("--kind", required=True, choices=list(fractals.FAMILIES))
    g.add_argument("--target-dim", type=float)
    g.add_argument("--level", type=int, default=5)
    takers = {}  # param -> [its kind, then "family: default" per family]
    for family, (_, _, table) in fractals.FAMILIES.items():
        for name, (kind, default) in table.items():
            takers.setdefault(name, [kind]).append(f"{family}: " + (
                "required" if default is None else f"default {default}"))
    for name, (kind, *help_) in takers.items():
        shape = ({"type": kind[0], "nargs": "+"} if isinstance(kind, list)
                 else {"type": kind[0], "nargs": len(kind)}
                 if isinstance(kind, tuple) else {"type": kind})
        g.add_argument(f"--{name}", **shape, help="; ".join(help_))

    v = sub.add_parser("visible", help="exact visible set from a viewpoint")
    v.add_argument("--curve", required=True)
    v.add_argument("--x", type=float, required=True)
    v.add_argument("--y", type=float, required=True)

    d = sub.add_parser("dim", help="box-counting dimension of a curve file")
    d.add_argument("--curve", required=True)
    d.add_argument("--scale-min", type=float, default=None)
    d.add_argument("--scale-max", type=float, default=None)
    d.add_argument("--n-scales", type=int, default=None)

    e = sub.add_parser("energy", help="energy-based dimension of a curve file")
    e.add_argument("--curve", required=True)

    s = sub.add_parser("sweep", help="run a viewpoint sweep from --config")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--no-render", action="store_true",
                   help="skip SVG output")

    vb = sub.add_parser("verify-bound",
                        help="recompute aggregates from a results.csv")
    vb.add_argument("--results", required=True)
    vb.add_argument("--d-hat", type=float, required=True)
    vb.add_argument("--tol", type=float, default=harness.BOUND_TOL_DEFAULT)
    vb.add_argument("--s-threshold", type=float, default=1.5)

    c = sub.add_parser("constants",
                       help="mass-distribution constant chain for (s, xi, ...)")
    c.add_argument("--s", type=float, required=True)
    c.add_argument("--xi", type=float, required=True)
    c.add_argument("--m", type=float, default=12.0)
    c.add_argument("--d-minus", type=float, default=1.0)
    c.add_argument("--d-plus", type=float, default=1.0)
    c.add_argument("--r1", type=float, default=1.0)

    r = sub.add_parser("render", help="render SVGs from sweep outputs")
    r.add_argument("--results", required=True)
    r.add_argument("--report", required=True)
    r.add_argument("--curve", required=True)

    return p


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _write_or_print(args, text: str, default_name: str) -> None:
    if args.out is None:
        print(text)
        return
    out = Path(args.out)
    if out.is_dir():
        out = out / default_name
    out.write_text(text + "\n", encoding="utf-8")
    _emit(args, f"wrote {out}")


def _cmd_generate(args) -> int:
    # --level and --seed always have a value, so they go only to the families
    # that read them; CurveSpec refuses every other flag a family ignores.
    _, reads, _ = fractals.FAMILIES[args.kind]
    always = {"level": args.level, "seed": args.seed}
    given = {name: getattr(args, name) for _, _, table
             in fractals.FAMILIES.values() for name in table}
    spec = fractals.CurveSpec(
        args.kind, args.target_dim,
        params={name: v for name, v in given.items() if v is not None},
        **{name: v for name, v in always.items() if name in reads})
    curve = fractals.generate(spec)
    _write_or_print(args, fractals.curve_to_json(curve), "curve.json")
    return 0


def _cmd_visible(args) -> int:
    curve = fractals.read_curve(args.curve)
    vs = visibility.visible_set(curve, (args.x, args.y))
    _write_or_print(args, visibility.visible_set_to_json(vs), "visible.json")
    _emit(args, f"pieces: {len(vs.segments)}  total_length: {vs.total_length!r}")
    return 0


def _cmd_dim(args) -> int:
    curve = fractals.read_curve(args.curve)
    window = None
    if args.scale_min is not None or args.scale_max is not None:
        if args.scale_min is None or args.scale_max is None:
            raise ValueError("give both --scale-min and --scale-max or neither")
        window = (args.scale_min, args.scale_max)
    est = measurelab.box_dimension(curve, scale_window=window,
                                   n_scales=args.n_scales)
    _write_or_print(args, fractals.json_text(est.to_dict()), "dim.json")
    return 0


def _cmd_energy(args) -> int:
    curve = fractals.read_curve(args.curve)
    est = measurelab.energy_dimension(curve, seed=args.seed)
    _write_or_print(args, fractals.json_text(est.to_dict()),
                    "energy.json")
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ValueError("sweep needs --config")
    config = harness.ExperimentConfig.from_json(
        Path(args.config).read_text(encoding="utf-8")
    )
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    report = harness.run_sweep(config, workers=args.workers,
                               render=not args.no_render)
    _emit(
        args,
        f"fraction_within: {report.fraction_within!r}  "
        f"max_dim_visible: {report.max_dim_visible!r}  "
        f"outputs in {config.output_dir}",
    )
    return 0


def _cmd_verify_bound(args) -> int:
    report = harness.verify_bound(args.results, args.d_hat, args.tol,
                                  args.s_threshold)
    _write_or_print(args, report.to_json(), "report.json")
    return 0


def _cmd_constants(args) -> int:
    consts = measurelab.mass_bound_constants(
        args.s, args.xi, args.m, args.d_minus, args.d_plus, args.r1
    )
    _write_or_print(args, fractals.json_text(consts.to_dict()),
                    "constants.json")
    return 0


def _cmd_render(args) -> int:
    curve = fractals.read_curve(args.curve)
    rows = harness.read_results_csv(args.results)
    report = harness.BoundReport.read(args.report)
    out = Path(args.out) if args.out is not None else Path(".")
    # The sweep draws its first error-free row's visible set; a CSV keeps
    # only that row's viewpoint, so the set is computed again.
    shown = next((r for r in rows if not r.error_flag), None)
    scene = (None if shown is None
             else visibility.visible_set(curve, (shown.vp_x, shown.vp_y)))
    paths = harness.render_svg(curve, rows, report, out, scene=scene)
    _emit(args, "wrote " + " ".join(str(p) for p in paths))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "visible": _cmd_visible,
    "dim": _cmd_dim,
    "energy": _cmd_energy,
    "sweep": _cmd_sweep,
    "verify-bound": _cmd_verify_bound,
    "constants": _cmd_constants,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"fracvis: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"fracvis: runtime error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
