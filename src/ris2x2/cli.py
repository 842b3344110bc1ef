"""Command line front end: outage / throughput sweeps, constants, verify.

``outage`` and ``throughput`` reproduce the reference curves as CSV (one
row per grid point and scheme, columns exactly snr_db, scheme, analytic,
mc, ci95) with an optional self-contained SVG rendering of the same rows;
the rows are those of :func:`ris2x2.acceptance.curve_rows`, which verify
checks.  Both analytic columns are Mellin-Barnes line integrals; the
paper's closed forms are what ``verify`` checks against the oracles.
``gain`` prints the compensation gain and mode-gap constants with Monte
Carlo confirmation, and ``verify`` runs the acceptance checks.

Option precedence: command line flags > config file (key=value lines) >
built-in defaults, which mirror the reference figures (threshold 0 dB,
average SNR from -5 to 25 dB in 1 dB steps).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import analytic, montecarlo
from .acceptance import AcceptanceSettings, curve_rows, format_report, run_acceptance
from .montecarlo import ALL_SCHEME_LABELS, parse_scheme
from .sampling import RngState
from .special import QuadratureError

__all__ = ["ExperimentConfig", "main"]

# Largest SNR grid a sweep accepts (0.01 dB steps over 100 dB).
_MAX_GRID_POINTS = 10_001

# dB range of the SNR bounds and the threshold: inside it 10^(v/10) is a
# positive, finite, normal float (10^-307.6 and 10^308.2).
_DB_RANGE = (-3076.0, 3082.0)


@dataclass(frozen=True)
class ExperimentConfig:
    snr_db_min: float = -5.0
    snr_db_max: float = 25.0
    snr_db_step: float = 1.0
    threshold_db: float = 0.0
    trials: int = 1_000_000
    seed: int = 1729
    schemes: tuple = ALL_SCHEME_LABELS
    out: str = ""
    svg: bool = False

    def validate(self):
        for name in ("snr_db_min", "snr_db_max", "snr_db_step", "threshold_db"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = _DB_RANGE
        for name in ("snr_db_min", "snr_db_max", "threshold_db"):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(
                    f"{name} must be within [{lo:g}, {hi:g}] dB, got {getattr(self, name)}"
                )
        if self.snr_db_min > self.snr_db_max:
            raise ValueError("snr_db_min must be <= snr_db_max")
        if self.snr_db_step <= 0.0:
            raise ValueError("snr_db_step must be positive")
        points = self._grid_points()
        if points > _MAX_GRID_POINTS:
            raise ValueError(
                f"SNR grid would have {points:.3g} points; at most {_MAX_GRID_POINTS}"
            )
        montecarlo._require_count("trials", self.trials, 100)
        RngState(self.seed)  # ValueError unless a seed in [0, 2^64)
        if not self.schemes:
            raise ValueError("scheme list must not be empty")
        labels = [parse_scheme(name).label for name in self.schemes]
        if len(set(labels)) < len(labels):
            raise ValueError(f"scheme list names a scheme twice: {', '.join(labels)}")
        if self.svg and Path(self.out).suffix == ".svg":
            raise ValueError(f"out {self.out!r} would be overwritten by the svg chart")

    def _grid_points(self) -> float:
        """Grid size as a float, so that a huge grid is sized, not built."""
        return np.floor((self.snr_db_max - self.snr_db_min) / self.snr_db_step + 1e-9) + 1

    def snr_grid_db(self):
        count = int(self._grid_points())
        return [self.snr_db_min + k * self.snr_db_step for k in range(count)]


def _read_config_file(path: str) -> dict:
    """The sweep options of a file of key=value lines, by _FIELD_PARSERS."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line: {raw!r}")
        key = key.strip()
        if key in values:
            raise ValueError(f"repeated config key: {key}")
        values[key] = value.strip()
    unknown = set(values) - set(_FIELD_PARSERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {k: _FIELD_PARSERS[k](v) for k, v in values.items()}


def _parse_svg(text: str) -> bool:
    """The svg flag of a config file: 1/0, true/false, yes/no or on/off in
    any case."""
    key = text.lower()
    if key in ("1", "true", "yes", "on"):
        return True
    if key in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"svg must be 1/0, true/false, yes/no or on/off, not {text!r}")


def _parse_schemes(text: str) -> tuple:
    return tuple(x.strip() for x in text.split(",") if x.strip())


_parse_schemes.help = "comma-separated: j{1|2}i{1|2}[-cmp] and alt"

# The sweep options: each an ExperimentConfig field, a config key and, with
# "_" as "-", a flag, parsed by its entry (the flag --svg is a switch).
_FIELD_PARSERS = {
    "snr_db_min": float,
    "snr_db_max": float,
    "snr_db_step": float,
    "threshold_db": float,
    "trials": int,
    "seed": int,
    "schemes": _parse_schemes,
    "out": str,
    "svg": _parse_svg,
}


def _build_config(args, **defaults) -> ExperimentConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _FIELD_PARSERS and v is not None}
    cfg = ExperimentConfig(**{**defaults, **file_values, **flags})
    cfg.validate()
    return cfg


def _format_value(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _write_csv(path: str, rows):
    text = "snr_db,scheme,analytic,mc,ci95\n" + "".join(
        f"{_format_value(r[0])},{r[1]},{_format_value(r[2])},"
        f"{_format_value(r[3])},{_format_value(r[4])}\n"
        for r in rows
    )
    Path(path).write_bytes(text.encode("ascii"))


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#17becf",
)


def _write_svg(path: str, rows, log_y: bool, title: str):
    """Minimal static SVG line chart of the CSV rows (mc column)."""
    width, height = 840, 560
    left, right, top, bottom = 70, 180, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    by_scheme = {}
    for snr_db, scheme, _ana, mc, _ci in rows:
        by_scheme.setdefault(scheme, []).append((snr_db, mc))
    xs = sorted({r[0] for r in rows})
    ys = [
        y for pts in by_scheme.values() for _x, y in pts if not log_y or y > 0.0
    ]
    if not ys:
        ys = [1e-6, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if log_y:
        y_lo = np.floor(np.log10(min(ys)))
        y_hi = np.ceil(np.log10(max(max(ys), 1e-300)))
        if y_hi <= y_lo:
            y_hi = y_lo + 1
    else:
        y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0

    def px(x):
        return left + plot_w * (x - x_lo) / max(x_hi - x_lo, 1e-12)

    def py(y):
        t = (np.log10(y) - y_lo) / (y_hi - y_lo) if log_y else (y - y_lo) / (y_hi - y_lo)
        return top + plot_h * (1.0 - t)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    for k in range(7):
        x = x_lo + (x_hi - x_lo) * k / 6
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - bottom + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{x:g}</text>'
        )
    for k in range(6):
        if log_y:
            yv = 10.0 ** (y_lo + (y_hi - y_lo) * k / 5)
            label = f"1e{int(round(np.log10(yv)))}"
        else:
            yv = y_lo + (y_hi - y_lo) * k / 5
            label = f"{yv:.3g}"
        parts.append(
            f'<text x="{left - 6}" y="{py(yv):.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{label}</text>'
        )
    for idx, (scheme, pts) in enumerate(by_scheme.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        drawable = [(x, y) for x, y in pts if not log_y or y > 0.0]
        if drawable:
            path_d = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in drawable)
            parts.append(
                f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = top + 16 * (idx + 1)
        parts.append(
            f'<line x1="{width - right + 10}" y1="{ly - 4}" x2="{width - right + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{scheme}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">average SNR (dB)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def cmd_curve(args) -> int:
    """``outage`` or ``throughput`` (by ``args.command``): the rows of
    :func:`acceptance.curve_rows` as CSV (and SVG).  The analytic column is
    the Mellin-Barnes outage or throughput, and the statistics pass runs
    after it, so a contour that fails costs no trials."""
    kind = args.command
    cfg = _build_config(args, out=kind + ".csv")
    threshold = 10.0 ** (cfg.threshold_db / 10.0)
    rows = curve_rows(
        partial(montecarlo.channel_statistics, cfg.seed, cfg.trials),
        cfg.schemes,
        cfg.snr_grid_db(),
        threshold,
        kind,
    )
    _write_csv(cfg.out, rows)
    if cfg.svg:
        outage = kind == "outage"
        title = "Average throughput (nats/s/Hz)"
        if outage:
            title = f"Outage probability, threshold {cfg.threshold_db:g} dB"
        _write_svg(str(Path(cfg.out).with_suffix(".svg")), rows, log_y=outage, title=title)
    print(f"wrote {cfg.out}" + (" (+svg)" if cfg.svg else ""))
    return 0


def cmd_gain(args) -> int:
    cfg = _build_config(args)
    stats = montecarlo.channel_statistics(cfg.seed, cfg.trials)
    gain = montecarlo.gain_ratio(stats)
    gap_ratio = montecarlo.mode_gap_ratio(stats)
    derived_db, reported_db = analytic.consecutive_mode_gap_db()
    print(
        f"compensation SNR gain: analytic {analytic.snr_gain_linear():.6f} "
        f"({analytic.snr_gain_db():.4f} dB); MC ratio {gain.value:.6f} "
        f"+- {gain.ci_half_width:.6f} ({cfg.trials} trials)"
    )
    print(
        f"consecutive-mode gap: derived {derived_db:.4f} dB (mean ratio 7); "
        f"quoted reference {reported_db:.4f} dB (display only); "
        f"MC mean ratio {gap_ratio:.4f}"
    )
    return 0


def cmd_verify(args) -> int:
    settings = (
        AcceptanceSettings.smoke() if args.level == "smoke" else AcceptanceSettings.full()
    )
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    results = run_acceptance(settings)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _add_flags(parser: argparse.ArgumentParser, names=tuple(_FIELD_PARSERS)):
    for name in names:
        flag, parse = "--" + name.replace("_", "-"), _FIELD_PARSERS[name]
        if parse is _parse_svg:
            parser.add_argument(flag, action="store_const", const=True)
        else:
            parser.add_argument(flag, type=parse, help=getattr(parse, "help", None))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ris2x2",
        description="Two-tile surface assisted 2x2 link: outage and throughput analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, what in (
        ("outage", "outage probability vs average SNR"),
        ("throughput", "average throughput vs average SNR"),
    ):
        p_curve = sub.add_parser(kind, help=what)
        _add_flags(p_curve)
        p_curve.add_argument("--config", type=str, default=None)
        p_curve.set_defaults(fn=cmd_curve)

    p_gain = sub.add_parser("gain", help="print gain/gap constants with MC checks")
    _add_flags(p_gain, ("trials", "seed"))
    p_gain.set_defaults(fn=cmd_gain, config=None)  # gain reads no config file

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    p_ver.add_argument("--level", choices=("smoke", "full"), default="smoke")
    _add_flags(p_ver, ("seed",))
    p_ver.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
