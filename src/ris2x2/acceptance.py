"""Acceptance checks tying the analytic results to their oracles.

Each criterion is a function producing one :class:`CheckResult`; the
registry is shared by the ``verify`` CLI subcommand and the test suite.
Expensive inputs (the Monte Carlo statistics passes) are computed once per
run through a lazy :class:`AcceptanceContext`.

Statistical tolerances scale as 1/sqrt(trials), so a quick smoke run
stays as meaningful as the full one.  C5 and C6 check the rows of
:func:`curve_rows`, the same rows ``ris2x2 outage`` and ``ris2x2 throughput``
write.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, montecarlo
from .altopt import optimal_configuration
from .linalg2 import svd2
from .montecarlo import ALL_SCHEME_LABELS, AltScheme, EmpiricalCdf, TrialStats, parse_scheme
from .sampling import RngState, eigen_realizations, haar_angles
from .sysmodel import MODES, Mode, alignment_factors, instantaneous_snr

__all__ = [
    "AcceptanceSettings",
    "AcceptanceContext",
    "CheckResult",
    "CRITERIA",
    "curve_rows",
    "run_acceptance",
    "format_report",
]

# C6 compares the Mellin throughput with its quadrature oracle to this
# relative tolerance on the six distinct modes at oracle_snr_db.
_ORACLE_REL_TOL = 1e-8
# Outage threshold of C5 (dB), C4's absolute tolerance of the closed
# forms, its relative tolerances of the Mellin outage against the oracle and
# against a move of its contour, C6's relative tolerance of the (2,2)
# closed forms and its bound on the paired alt gap at or below 10 dB (nats).
_THRESHOLD_DB = 0.0
_CLOSED_FORM_ABS_TOL = 1e-6
_MELLIN_REL_TOL = 1e-8
_CONTOUR_SHIFT_REL_TOL = 1e-10
# distance below the leading pole of C4's second contour
_SHIFTED_CONTOUR = 0.15
_CLOSED_VS_ANALYTIC_REL_TOL = 1e-4
_ALT_GAP_NATS = 0.1
# C8 checks the optimum's configuration and a relative-phase sweep on the
# first _OPTIMUM_SAMPLE trials, one phase at a time so that memory stays that
# of _OPTIMUM_SAMPLE matrices; 64 phases take about 0.05 s.
_OPTIMUM_SAMPLE = 1000
_PHASE_GRID = 64
# C10 compares the default chunk of the statistics pass
# (montecarlo._CHUNK_SIZE trials) with this one on a pass of this many
# trials, at both levels: every value must be the same whatever the chunk
# size, as a kernel that reused a stale buffer or rounded differently with
# the array length (a sum whose blocking follows it, say) would not be.
_SMALL_CHUNK = 1 << 11
_CHUNK_CHECK_TRIALS = 40_000


@dataclass(frozen=True)
class AcceptanceSettings:
    trials: int = 1_000_000
    seed: int = 1729
    snr_db: tuple = tuple(float(s) for s in range(-5, 26))
    closed_form_grid: tuple = (1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
    mellin_grid: tuple = tuple(10.0**k for k in range(-6, 3))
    throughput_snr_db: tuple = tuple(float(s) for s in range(-5, 26))
    oracle_snr_db: tuple = (-5.0, 5.0, 15.0, 25.0)

    def __post_init__(self):
        RngState(self.seed)  # ValueError unless a seed in [0, 2^64)
        montecarlo._require_count("trials", self.trials, 100)  # C10's estimate_outage needs 100
        positive = ("closed_form_grid", "mellin_grid")
        for name in ("snr_db", *positive, "throughput_snr_db", "oracle_snr_db"):
            grid = np.asarray(getattr(self, name), dtype=np.float64)
            if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
                raise ValueError(f"{name} must be a nonempty sequence of finite numbers")
            if name in positive and not np.all(grid > 0.0):
                raise ValueError(f"{name} must be positive")

    # statistical tolerances go as 1/sqrt(trials): 0.002, 0.01 and 0.02 at 10^6
    ks_tol = property(lambda self: 2.0 / math.sqrt(self.trials))
    mean_rel_tol = property(lambda self: 10.0 / math.sqrt(self.trials))
    gap_rel_tol = property(lambda self: 20.0 / math.sqrt(self.trials))

    @classmethod
    def full(cls) -> "AcceptanceSettings":
        return cls()

    @classmethod
    def smoke(cls) -> "AcceptanceSettings":
        return cls(
            trials=10_000,
            snr_db=tuple(float(s) for s in range(-5, 26, 5)),
            closed_form_grid=(1e-2, 0.25, 2.0),
            mellin_grid=(1e-6, 1e-2, 2.0, 1e2),
            throughput_snr_db=(-5.0, 5.0, 15.0, 25.0),
            oracle_snr_db=(5.0,),
        )


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    expected: str
    observed: str
    tolerance: str
    seconds: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"[{status}] C{self.criterion} {self.name}: expected {self.expected}, "
            f"observed {self.observed}, tolerance {self.tolerance} "
            f"({self.seconds:.1f}s)"
        )
        if self.note:
            text += f" -- {self.note}"
        return text


class AcceptanceContext:
    """Lazily computed shared inputs of the criteria."""

    def __init__(self, settings: AcceptanceSettings):
        self.settings = settings
        self._haar = None
        self._stats = None

    @property
    def haar_z(self):
        """(z_plain, z_comp) of the first columns of independent Haar pairs.

        Each column is formed from its angles as (e^{j theta11} cos theta12,
        e^{j theta22} sin theta12), the expressions of
        :func:`linalg2.unitary_from_angles`, without the whole unitary."""
        if self._haar is None:
            s = self.settings

            def first_column(stream):
                a = haar_angles(RngState(s.seed, stream), s.trials)
                column = np.empty((s.trials, 2, 1), dtype=np.complex128)
                column[:, 0, 0] = np.exp(1j * a.theta11) * np.cos(a.theta12)
                column[:, 1, 0] = np.exp(1j * a.theta22) * np.sin(a.theta12)
                return column

            v, w = first_column(101), first_column(102)
            self._haar = tuple(z[:, 0, 0] for z in alignment_factors(v, w))
        return self._haar

    @property
    def stats(self) -> TrialStats:
        if self._stats is None:
            s = self.settings
            self._stats = montecarlo.channel_statistics(s.seed, s.trials)
        return self._stats


def _timed(criterion, name, expected, tolerance, fn):
    start = time.perf_counter()
    passed, observed, note = fn()
    return CheckResult(
        criterion=criterion,
        name=name,
        passed=passed,
        expected=expected,
        observed=observed,
        tolerance=tolerance,
        seconds=time.perf_counter() - start,
        note=note,
    )


def check_gain(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        z_plain, z_comp = ctx.haar_z
        gain = analytic.snr_gain_linear()
        ratio = float(z_comp.mean() / z_plain.mean())
        rel = abs(ratio / gain - 1.0)
        mean_ok = abs(float(z_comp.mean()) / analytic.mean_z(True) - 1.0)
        ok = rel <= s.mean_rel_tol and mean_ok <= s.mean_rel_tol
        return (
            ok,
            f"MC ratio {ratio:.5f} (rel dev {rel:.2e}), E[z_comp] dev {mean_ok:.2e}",
            f"analytic {gain:.6f} = {analytic.snr_gain_db():.4f} dB",
        )

    return _timed(
        1,
        "compensation SNR gain",
        "1 + pi^2/16 = 1.61685",
        f"rel {ctx.settings.mean_rel_tol}",
        run,
    )


def check_z_laws(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        z_plain, z_comp = ctx.haar_z
        ks_c = EmpiricalCdf(z_comp).ks_distance(
            lambda z: analytic.z_factor_cdf(z, True)
        )
        ks_p = EmpiricalCdf(z_plain).ks_distance(
            lambda z: analytic.z_factor_cdf(z, False)
        )
        worst = max(ks_c, ks_p)
        return (
            worst <= s.ks_tol,
            f"KS comp {ks_c:.5f}, plain {ks_p:.5f}",
            "",
        )

    return _timed(
        2,
        "alignment-factor CDFs",
        "KS below tolerance for both laws",
        f"KS < {s.ks_tol}",
        run,
    )


def check_eigenvalue_laws(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        stats = ctx.stats
        ks1 = EmpiricalCdf(stats.lam[:, 0]).ks_distance(
            lambda y: analytic.eigenvalue_cdf(y, "largest")
        )
        ks2 = EmpiricalCdf(stats.lam[:, 1]).ks_distance(
            lambda y: analytic.eigenvalue_cdf(y, "smallest")
        )
        m1 = abs(float(stats.lam[:, 0].mean()) / 3.5 - 1.0)
        m2 = abs(float(stats.lam[:, 1].mean()) / 0.5 - 1.0)
        ok = max(ks1, ks2) <= s.ks_tol and max(m1, m2) <= s.mean_rel_tol
        return (
            ok,
            f"KS ({ks1:.5f}, {ks2:.5f}), mean rel dev ({m1:.2e}, {m2:.2e})",
            "",
        )

    return _timed(
        3,
        "squared-singular-value laws",
        "KS and means match (7/2, 1/2)",
        f"KS < {s.ks_tol}, means rel {s.mean_rel_tol}",
        run,
    )


_DISTINCT_MODES = (
    Mode(1, 1, True),
    Mode(1, 2, True),
    Mode(2, 2, True),
    Mode(1, 1, False),
    Mode(1, 2, False),
    Mode(2, 2, False),
)


def check_closed_forms(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        worst = 0.0
        worst_at = ""
        worst_rel = 0.0
        worst_rel_at = ""
        worst_shift = 0.0
        shifted = 0
        grid = np.array(s.mellin_grid)
        for mode in _DISTINCT_MODES:
            oracle = {
                x: analytic.outage_quadrature(mode, x)
                for x in set(s.closed_form_grid) | set(s.mellin_grid)
            }
            for x in s.closed_form_grid:
                diff = abs(analytic.outage_closed_form(mode, x) - oracle[x])
                if diff > worst:
                    worst = diff
                    worst_at = f"{mode.label} @ x={x:g}"
            reference = np.array([oracle[x] for x in s.mellin_grid])
            rel = np.abs(analytic.outage(mode, grid) / reference - 1.0)
            if rel.max() >= worst_rel:
                worst_rel = float(rel.max())
                worst_rel_at = f"{mode.label} @ x={grid[rel.argmax()]:g}"
            # the same integral on two contours, where each certifies it
            pole = analytic.diversity_order(mode)
            mid, mid_ok = analytic._outage_line(mode, 0.5 * pole, np.log(grid))
            near, near_ok = analytic._outage_line(mode, pole - _SHIFTED_CONTOUR, np.log(grid))
            dev = np.abs(mid / near - 1.0)[mid_ok & near_ok]
            shifted += dev.size
            # a mode with no point certified on both contours fails the check
            worst_shift = max(worst_shift, float(dev.max()) if dev.size else np.inf)
        points = len(_DISTINCT_MODES) * grid.size
        ok = (
            worst <= _CLOSED_FORM_ABS_TOL
            and worst_rel <= _MELLIN_REL_TOL
            and worst_shift <= _CONTOUR_SHIFT_REL_TOL
        )
        return (
            ok,
            f"worst |closed - quadrature| = {worst:.2e} ({worst_at}); Mellin vs "
            f"quadrature rel dev {worst_rel:.2e} ({worst_rel_at}); contour shift rel "
            f"dev {worst_shift:.2e}",
            f"shift compared at {shifted} of {points} points; the others are too "
            "close to cancellation on the c = p/2 contour",
        )

    return _timed(
        4,
        "closed-form and Mellin outage vs quadrature oracle",
        "six closed forms match the 2-D quadrature; Mellin matches it in "
        "relative terms and does not move with its contour (c = p/2 vs p - 0.15)",
        f"abs {_CLOSED_FORM_ABS_TOL} / rel {_MELLIN_REL_TOL} / shift rel "
        f"{_CONTOUR_SHIFT_REL_TOL}",
        run,
    )


def curve_rows(stats, names, snr_db, threshold: float, kind: str):
    """(snr_db, label, analytic, mc, ci95) rows of an outage or throughput
    sweep, SNR-major, with analytic None for the optimized scheme; each
    name is parsed by :func:`montecarlo.parse_scheme` and its row carries
    the scheme's label.

    The analytic column is the Mellin-Barnes outage or throughput, one call
    per mode over the whole grid; the paper's closed forms are checked by
    C4 and C6, not written here.  One statistics pass serves every grid
    point; ``threshold`` is the linear outage threshold (unused for
    throughput).  ``stats`` is a stored pass, or a function that runs one,
    ``stats(consume=None)`` with the signature of
    :func:`montecarlo.channel_statistics` past its seed and trials.  That
    function is called once the analytic column is complete, so a contour
    that fails does so before any trial is drawn.  Outage streams the pass
    through one :class:`montecarlo.OutageCounter` of every scheme (a stored
    pass is counted as a single chunk); throughput stores the pass and
    reduces the schemes over the whole grid on a thread each.  These are
    the CSV rows of ``ris2x2 outage`` and ``ris2x2 throughput`` and the
    rows C5 and C6 check.
    """
    if kind not in ("outage", "throughput"):
        raise ValueError(f"unknown curve kind: {kind!r}")
    outage = kind == "outage"
    snr_db = list(snr_db)
    schemes = [parse_scheme(name) for name in names]
    gamma_bars = [10.0 ** (db / 10.0) for db in snr_db]

    def analytic_column(scheme):
        if isinstance(scheme, AltScheme):
            return [None] * len(gamma_bars)
        if outage:
            return analytic.outage(scheme, threshold / np.array(gamma_bars)).tolist()
        return analytic.throughput(scheme, np.array(gamma_bars)).tolist()

    ana = [analytic_column(scheme) for scheme in schemes]
    if outage:
        counter = montecarlo.OutageCounter(schemes, gamma_bars, threshold)
        if callable(stats):
            stats(consume=counter)
        else:
            counter(0, stats)
        mc = counter.estimates()
    else:
        if callable(stats):
            stats = stats()
        mc = montecarlo._thread_map(
            lambda scheme: montecarlo.throughput_from_stats(stats, scheme, gamma_bars), schemes
        )
    return [
        (db, scheme.label, ana[k][p], mc[k][p].value, mc[k][p].ci_half_width)
        for p, db in enumerate(snr_db)
        for k, scheme in enumerate(schemes)
    ]


def _worst_ci_ratio(rows):
    """Largest |analytic - mc| / (3 ci95) over the mode rows, and where
    (a Wilson interval is at least z^2/(2n) wide, so no outage ci95 is 0)."""
    worst, worst_at = 0.0, ""
    for db, name, ana, mc, ci in rows:
        if ana is None:
            continue
        ratio = abs(ana - mc) / (3.0 * ci)
        if ratio > worst:
            worst, worst_at = ratio, f"{name} @ {db:g} dB"
    return worst, worst_at


def check_outage_curves(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        th = 10.0 ** (_THRESHOLD_DB / 10.0)
        rows = curve_rows(ctx.stats, ALL_SCHEME_LABELS, s.snr_db, th, "outage")
        worst_ratio, worst_at = _worst_ci_ratio(rows)
        p = {(db, name): mc for db, name, _ana, mc, _ci in rows}
        order_ok = all(
            all(p[db, f"{m.label}-cmp"] <= p[db, m.label] for m in MODES if not m.compensated)
            and p[db, "alt"] <= p[db, "j1i1-cmp"] <= p[db, "j1i1"]
            for db in s.snr_db
        )
        ok = worst_ratio <= 1.0 and order_ok
        return (
            ok,
            f"worst |analytic-MC| = {worst_ratio:.3f} x (3 CI) ({worst_at}), "
            f"orderings {'hold' if order_ok else 'VIOLATED'}",
            "",
        )

    return _timed(
        5,
        "outage curve reproduction",
        "analytic within 3 CI of MC at every grid point; orderings hold",
        "3 * Wilson CI",
        run,
    )


def check_throughput_curves(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        stats = ctx.stats
        rows = curve_rows(stats, ALL_SCHEME_LABELS, s.throughput_snr_db, 0.0, "throughput")
        worst_ratio, _ = _worst_ci_ratio(rows)
        cell = {(db, name): (ana, mc, ci) for db, name, ana, mc, ci in rows}
        closed_forms = (
            ("j2i2", analytic.throughput_closed_r22),
            ("j2i2-cmp", analytic.throughput_closed_r22_cmp),
        )
        worst_closed = 0.0
        max_gap_low = 0.0
        max_gap_high = 0.0
        bound_ok = True
        g_cmp = montecarlo.scheme_snr_factor(stats, Mode(1, 1, True))
        for snr_db in s.throughput_snr_db:
            gbar = 10.0 ** (snr_db / 10.0)
            for name, closed in closed_forms:
                dev = abs(closed(gbar) / cell[snr_db, name][0] - 1.0)
                worst_closed = max(worst_closed, dev)
            _ana, alt, alt_ci = cell[snr_db, "alt"]
            bound_ok = bound_ok and cell[snr_db, "j1i1-cmp"][0] <= alt + 3.0 * alt_ci
            # paired over the same trials, so the gap carries no MC noise of
            # the alt estimate on its own
            gap = float(np.mean(np.log1p(gbar * stats.alt_factor) - np.log1p(gbar * g_cmp)))
            if snr_db <= 10.0:
                max_gap_low = max(max_gap_low, gap)
            else:
                max_gap_high = max(max_gap_high, gap)
        worst_oracle = 0.0
        worst_oracle_at = ""
        gbars = 10.0 ** (np.array(s.oracle_snr_db) / 10.0)
        for mode in _DISTINCT_MODES:
            oracle = analytic.throughput_quadrature(mode, gbars)
            rel = np.abs(analytic.throughput(mode, gbars) / oracle - 1.0)
            if rel.max() >= worst_oracle:
                worst_oracle = float(rel.max())
                worst_oracle_at = f"{mode.label} @ {s.oracle_snr_db[rel.argmax()]:g} dB"
        ok = (
            worst_ratio <= 1.0
            and worst_closed <= _CLOSED_VS_ANALYTIC_REL_TOL
            and worst_oracle <= _ORACLE_REL_TOL
            and bound_ok
            and max_gap_low < _ALT_GAP_NATS
        )
        return (
            ok,
            f"worst |analytic-MC| = {worst_ratio:.3f} x (3 CI), closed-form rel dev "
            f"{worst_closed:.2e}, Mellin vs quadrature oracle rel dev "
            f"{worst_oracle:.2e} ({worst_oracle_at}), paired alt gap <=10dB "
            f"{max_gap_low:.4f}",
            f"gap above 10 dB reaches {max_gap_high:.4f} nats (reported only)",
        )

    return _timed(
        6,
        "throughput curve reproduction",
        "Mellin, quadrature oracle, closed forms and MC mutually agree; "
        "optimized bound tight",
        f"3 CI / rel {_CLOSED_VS_ANALYTIC_REL_TOL} / oracle rel {_ORACLE_REL_TOL} "
        f"/ gap {_ALT_GAP_NATS}",
        run,
    )


def check_mean_orderings(ctx: AcceptanceContext) -> CheckResult:
    def run():
        stats = ctx.stats
        notes = []
        ok = True
        for compensated in (False, True):
            g = {
                (j, i): montecarlo.scheme_snr_factor(stats, Mode(i, j, compensated))
                for j in (1, 2)
                for i in (1, 2)
            }
            n = stats.trials

            def sep(a, b):
                d = a - b
                return float(d.mean()), float(d.std(ddof=1) / np.sqrt(n))

            top, se_top = sep(g[(1, 1)], g[(2, 1)])
            mid, se_mid = sep(g[(2, 1)], g[(1, 2)])
            bot, se_bot = sep(g[(1, 2)], g[(2, 2)])
            tag = "comp" if compensated else "plain"
            if not (top > 3 * se_top and bot > 3 * se_bot and abs(mid) <= 3 * se_mid):
                ok = False
            notes.append(
                f"{tag}: top {top:.4f}>{3*se_top:.4f}, middle |{mid:.5f}|<="
                f"{3*se_mid:.5f}, bottom {bot:.4f}>{3*se_bot:.4f}"
            )
        return ok, "; ".join(notes), ""

    return _timed(
        7,
        "mean-SNR orderings",
        "strict outer ordering, equal middle modes (3 SE)",
        "3 standard errors",
        run,
    )


def check_joint_optimum(ctx: AcceptanceContext) -> CheckResult:
    def run():
        stats = ctx.stats
        alt = stats.alt_factor
        g_cmp = montecarlo.scheme_snr_factor(stats, Mode(1, 1, True))
        g_unc = montecarlo.scheme_snr_factor(stats, Mode(1, 1, False))
        slack = 1e-12
        alt_low = int(np.count_nonzero(alt < g_cmp * (1.0 - slack)))
        cmp_low = int(np.count_nonzero(g_cmp < g_unc * (1.0 - slack)))

        # the optimum against its own configuration and a relative-phase sweep,
        # on channels with the pass's Gram matrices: sigma(G Phi H) depends
        # on G and H only through G^H G and H H^H
        n = min(stats.trials, _OPTIMUM_SAMPLE)
        ch = eigen_realizations(RngState(stats.seed, stats.stream), n)
        alt = alt[:n]
        phasors, a, b = optimal_configuration(ch)
        config = instantaneous_snr(ch.g, ch.h, phasors, a, b, 1.0)
        config_dev = float(np.max(np.abs(config / alt - 1.0)))
        sweep = np.zeros(n)
        for t in 2.0 * np.pi * np.arange(_PHASE_GRID) / _PHASE_GRID:
            tiles = np.array([1.0, np.exp(1j * t)])
            sweep = np.maximum(sweep, svd2(ch.g * tiles @ ch.h).sigma[:, 0] ** 2)
        grid_excess = float(np.max(sweep / alt - 1.0))
        ok = (
            alt_low == 0
            and cmp_low == 0
            and config_dev <= slack
            and grid_excess <= slack
        )
        return (
            ok,
            f"alt<cmp on {alt_low} trials, cmp<plain on {cmp_low} trials; "
            f"on {n} trials |alt/|b^H G Phi H a|^2 - 1| <= {config_dev:.1e}, "
            f"max over {_PHASE_GRID} grid phases of sigma_max^2/alt - 1 = {grid_excess:.1e}",
            f"{stats.trials} trials",
        )

    return _timed(
        8,
        "joint optimum dominance",
        "alt >= compensated (1,1) >= plain (1,1) on 100% of trials; alt equals its "
        "configuration's SNR and no grid phase beats it",
        "1e-12 relative slack",
        run,
    )


def check_mode_gap(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        stats = ctx.stats
        g11 = montecarlo.scheme_snr_factor(stats, Mode(1, 1))
        g21 = montecarlo.scheme_snr_factor(stats, Mode(1, 2))
        ratio = float(g11.mean() / g21.mean())
        derived_db, reported_db = analytic.consecutive_mode_gap_db()
        ok = abs(ratio / 7.0 - 1.0) <= s.gap_rel_tol
        return (
            ok,
            f"MC ratio {ratio:.4f} (target 7)",
            f"derived {derived_db:.3f} dB; quoted reference {reported_db:.3f} dB "
            "(displayed, never asserted)",
        )

    return _timed(
        9,
        "consecutive-mode gap",
        "mean-SNR ratio 7 = 8.451 dB",
        f"rel {s.gap_rel_tol}",
        run,
    )


def check_determinism(ctx: AcceptanceContext) -> CheckResult:
    s = ctx.settings

    def run():
        trials = min(s.trials, 100_000)
        mode = Mode(2, 2, False)
        runs = [
            montecarlo.estimate_outage(
                mode, 10.0, 1.0, trials, s.seed, workers=w
            )
            for w in (1, 4, 16)
        ]
        repeat = montecarlo.estimate_outage(mode, 10.0, 1.0, trials, s.seed)
        a = montecarlo.channel_statistics(s.seed, _CHUNK_CHECK_TRIALS)
        # the outage sweep's counts, streamed at both chunk sizes, against
        # the stored pass; every streamed chunk must equal its slice of it
        schemes = [parse_scheme(name) for name in ALL_SCHEME_LABELS]
        gamma_bars = [10.0 ** (db / 10.0) for db in s.snr_db]
        th = 10.0 ** (_THRESHOLD_DB / 10.0)
        streamed, chunks_equal = [], []
        for kwargs in ({}, {"chunk_size": _SMALL_CHUNK, "workers": 4}):
            counter = montecarlo.OutageCounter(schemes, gamma_bars, th)

            def consume(lo, chunk, counter=counter):
                counter(lo, chunk)
                chunks_equal.append(
                    all(
                        np.array_equal(getattr(a, f)[lo : lo + chunk.trials], getattr(chunk, f))
                        for f in montecarlo._COLUMNS
                    )
                )

            montecarlo.channel_statistics(s.seed, _CHUNK_CHECK_TRIALS, consume=consume, **kwargs)
            streamed.append(counter.estimates())
        stored = [montecarlo.outage_from_stats(a, scheme, gamma_bars, th) for scheme in schemes]
        same = (
            all(r == runs[0] for r in runs)
            and repeat == runs[0]
            and all(chunks_equal)
            and streamed[0] == streamed[1] == stored
        )
        return (
            same,
            "bit-identical across reruns, worker counts 1/4/16, and chunk sizes "
            f"2^{math.log2(montecarlo._CHUNK_SIZE):g}/2^{math.log2(_SMALL_CHUNK):g} over "
            f"{_CHUNK_CHECK_TRIALS} trials; streamed outage counts "
            "equal the stored pass's",
            "",
        )

    return _timed(
        10,
        "determinism",
        "bit-identical estimates at fixed seed",
        "exact equality",
        run,
    )


CRITERIA = (
    check_gain,
    check_z_laws,
    check_eigenvalue_laws,
    check_closed_forms,
    check_outage_curves,
    check_throughput_curves,
    check_mean_orderings,
    check_joint_optimum,
    check_mode_gap,
    check_determinism,
)


def run_acceptance(settings: AcceptanceSettings):
    ctx = AcceptanceContext(settings)
    return [fn(ctx) for fn in CRITERIA]


def format_report(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} criteria passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
