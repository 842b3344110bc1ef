"""Monte Carlo estimation harness and empirical-distribution utilities.

A single vectorized pass over channel draws produces every per-trial
statistic the figures need, 9 doubles: the squared singular values of G
and H, the matched and crossed alignment factors z with and without
compensation, and the jointly optimized SNR factor.  All are gauge
invariant, so they come from the Gram matrices G^H G and H H^H and one
leading eigenvector of each, without a singular basis.  Since the scheme
SNRs scale linearly with gamma_bar, one pass serves a whole SNR sweep.

Trial t is a pure function of (seed, stream, t) (see sampling).  The pass
allocates its output arrays once and each chunk of trials (2^15 by
default, so that the temporaries of a few threads stay small) writes its
own slice, so memory is the statistics plus a few chunks' temporaries.
Reductions use numpy's pairwise summation, so estimates are bit-for-bit
identical regardless of chunking or worker count.

A sweep reduces each scheme once: its per-trial factor is formed once,
sorted once for outage counts (the trials in outage at any gamma_bar are
a prefix of the sorted factors) and reused at every grid point for
throughput.  Proportions carry 95% Wilson intervals (sane coverage near
zero outage), means carry normal-theory intervals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .altopt import joint_optimum
from .linalg2 import abs_det2, gram2, hermitian_eigen2
from .sampling import RngState, channel_matrices
from .sysmodel import MODES, Mode, leading_z_factors

# perfbench/child.py wraps these names here; the pass calls none of them
from .altopt import optimize_batch  # noqa: F401
from .sampling import channel_realizations  # noqa: F401
from .sysmodel import mode_z_factors  # noqa: F401

__all__ = [
    "AltScheme",
    "ALT",
    "Scheme",
    "McEstimate",
    "TrialStats",
    "parse_scheme",
    "trial_statistics",
    "scheme_label",
    "channel_statistics",
    "scheme_snr_factor",
    "outage_from_stats",
    "throughput_from_stats",
    "estimate_outage",
    "estimate_throughput",
    "wilson_halfwidth",
    "EmpiricalCdf",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class AltScheme:
    """The jointly optimized benchmark scheme (closed form, see altopt)."""


ALT = AltScheme()
Scheme = Mode | AltScheme


def parse_scheme(name: str) -> Scheme:
    """Parse 'j{1|2}i{1|2}[-cmp]' or 'alt'."""
    name = name.strip().lower()
    if name == "alt":
        return ALT
    base, _, suffix = name.partition("-")
    if (
        len(base) == 4
        and base[0] == "j"
        and base[2] == "i"
        and base[1] in "12"
        and base[3] in "12"
        and suffix in ("", "cmp")
    ):
        return Mode(tx=int(base[3]), rx=int(base[1]), compensated=suffix == "cmp")
    raise ValueError(f"unknown scheme name: {name!r}")


def scheme_label(scheme: Scheme) -> str:
    return "alt" if isinstance(scheme, AltScheme) else scheme.label


ALL_SCHEME_LABELS = tuple(m.label for m in MODES) + ("alt",)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with a 95% confidence half-width."""

    value: float
    ci_half_width: float
    trials: int
    seed: int


@dataclass(frozen=True)
class TrialStats:
    """Per-trial channel statistics; SNR of mode (i,j) at average SNR
    gamma_bar is gamma_bar * lam[:, j-1] * om[:, i-1] * z[:, k], with k = 0
    for the matched modes (i = j) and k = 1 for the crossed ones."""

    seed: int
    stream: int
    trials: int
    lam: np.ndarray  # (n, 2) squared singular values of G, descending
    om: np.ndarray  # (n, 2) squared singular values of H, descending
    z_plain: np.ndarray  # (n, 2) fixed-surface alignment factors [matched, crossed]
    z_comp: np.ndarray  # (n, 2) compensated alignment factors [matched, crossed]
    alt_factor: np.ndarray  # (n,) optimized SNR / gamma_bar
    alt_iterations: None = None  # always None; read by perfbench/child.py
    alt_converged: None = None  # always None; read by perfbench/child.py


def _chunk_ranges(trials: int, chunk_size: int):
    return [
        (lo, min(lo + chunk_size, trials)) for lo in range(0, trials, chunk_size)
    ]


def trial_statistics(g: np.ndarray, h: np.ndarray):
    """(lam, om, z_plain, z_comp, alt_factor) of stacked channel pairs, the
    per-trial columns of :class:`TrialStats`, from the Gram matrices
    G^H G and H H^H and the two determinants; no singular basis is formed.
    """
    a, b = gram2(g), gram2(h, left=True)
    det_g, det_h = abs_det2(g), abs_det2(h)
    lam1, lam2, vx, vy, v_norm2 = hermitian_eigen2(*a, det_g)
    om1, om2, wx, wy, w_norm2 = hermitian_eigen2(*b, det_h)
    z_plain, z_comp = leading_z_factors(vx, vy, v_norm2, wx, wy, w_norm2)
    return (
        np.stack([lam1, lam2], axis=-1),
        np.stack([om1, om2], axis=-1),
        z_plain,
        z_comp,
        joint_optimum(a, b, det_g * det_h),
    )


def channel_statistics(
    seed: int,
    trials: int,
    stream: int = 0,
    workers: int = 1,
    chunk_size: int = 1 << 15,
) -> TrialStats:
    """One vectorized statistics pass over ``trials`` channel draws.

    The output arrays are allocated once; the trial range is split into
    fixed chunks, each of which writes its own slice, and chunks may be
    evaluated by a thread pool.  The output is independent of ``workers``
    and ``chunk_size``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = RngState(seed, stream)
    columns = [np.empty((trials, 2)) for _ in range(4)] + [np.empty(trials)]

    def fill(lo, hi):
        for out, value in zip(columns, trial_statistics(*channel_matrices(state, hi - lo, lo))):
            out[lo:hi] = value

    ranges = _chunk_ranges(trials, chunk_size)
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda r: fill(*r), ranges))
    else:
        for lo, hi in ranges:
            fill(lo, hi)
    return TrialStats(seed, stream, trials, *columns)


def scheme_snr_factor(stats: TrialStats, scheme: Scheme) -> np.ndarray:
    """Per-trial SNR / gamma_bar of a scheme."""
    if isinstance(scheme, AltScheme):
        return stats.alt_factor
    z = stats.z_comp if scheme.compensated else stats.z_plain
    j = scheme.rx - 1
    i = scheme.tx - 1
    return stats.lam[:, j] * stats.om[:, i] * z[:, int(i != j)]


def wilson_halfwidth(hits: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = hits / trials
    denom = 1.0 + z * z / trials
    return float(
        z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    )


def _gamma_bars(gamma_bar):
    """(1-D float64 array, was-scalar flag) of one average SNR or a sequence."""
    g = np.asarray(gamma_bar, dtype=np.float64)
    if g.ndim > 1:
        raise ValueError("gamma_bar must be a scalar or a 1-D sequence")
    if not np.all((g >= 0.0) & (g < np.inf)):
        raise ValueError("gamma_bar must be nonnegative and finite")
    return np.atleast_1d(g), g.ndim == 0


def _estimate(stats: TrialStats, value: float, half: float) -> McEstimate:
    return McEstimate(
        value=value, ci_half_width=half, trials=stats.trials, seed=stats.seed
    )


def _count_at_most(f_sorted: np.ndarray, g, gamma_th: float) -> int:
    """Number of sorted factors f with fl(g * f) <= gamma_th.

    Rounding is monotone, so those factors are a prefix of ``f_sorted``.  A
    binary search for gamma_th / g lands within a rounding step of its end,
    and whole runs of equal factors are then stepped across until the
    predicate holds exactly.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        k = int(np.searchsorted(f_sorted, gamma_th / g, side="right"))
    while k < f_sorted.size and g * f_sorted[k] <= gamma_th:
        k = int(np.searchsorted(f_sorted, f_sorted[k], side="right"))
    while k > 0 and not g * f_sorted[k - 1] <= gamma_th:
        k = int(np.searchsorted(f_sorted, f_sorted[k - 1], side="left"))
    return k


def outage_from_stats(stats: TrialStats, scheme: Scheme, gamma_bar, gamma_th: float):
    """Fraction of trials with gamma_bar * factor <= gamma_th.

    ``gamma_bar`` is one average SNR (one estimate is returned) or a 1-D
    sequence (a list of estimates, one per value).  The scheme factor is
    formed and sorted once; each count is exact.
    """
    gammas, scalar = _gamma_bars(gamma_bar)
    if np.isnan(gamma_th):
        raise ValueError("gamma_th must not be NaN")
    f_sorted = np.sort(scheme_snr_factor(stats, scheme))
    out = []
    for g in gammas:
        hits = _count_at_most(f_sorted, g, gamma_th)
        out.append(
            _estimate(stats, hits / stats.trials, wilson_halfwidth(hits, stats.trials))
        )
    return out[0] if scalar else out


def throughput_from_stats(stats: TrialStats, scheme: Scheme, gamma_bar):
    """Sample mean of ln(1 + gamma_bar * factor), with ``gamma_bar`` one
    average SNR or a 1-D sequence as in :func:`outage_from_stats`.  The
    scheme factor is formed once."""
    gammas, scalar = _gamma_bars(gamma_bar)
    f = scheme_snr_factor(stats, scheme)
    vals = np.empty_like(f)
    out = []
    for g in gammas:
        np.log1p(np.multiply(g, f, out=vals), out=vals)
        half = _Z95 * float(vals.std(ddof=1)) / np.sqrt(stats.trials)
        out.append(_estimate(stats, float(vals.mean()), half))
    return out[0] if scalar else out


def estimate_outage(
    scheme: Scheme,
    gamma_bar: float,
    gamma_th: float,
    trials: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Fraction of i.i.d. channel draws whose scheme SNR is <= gamma_th."""
    if trials < 100:
        raise ValueError("trials must be >= 100")
    stats = channel_statistics(seed, trials, stream=stream, workers=workers)
    return outage_from_stats(stats, scheme, gamma_bar, gamma_th)


def estimate_throughput(
    scheme: Scheme,
    gamma_bar: float,
    trials: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Sample mean of ln(1 + gamma) over i.i.d. channel draws."""
    if trials < 100:
        raise ValueError("trials must be >= 100")
    stats = channel_statistics(seed, trials, stream=stream, workers=workers)
    return throughput_from_stats(stats, scheme, gamma_bar)


class EmpiricalCdf:
    """Right-continuous step CDF of a sample."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        self.sorted = np.sort(samples)
        self.n = samples.size

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.searchsorted(self.sorted, x, side="right") / self.n
        return out if out.ndim else float(out)

    def ks_distance(self, reference) -> float:
        """sup-norm distance to a reference CDF (vectorized callable)."""
        ref = np.asarray(reference(self.sorted), dtype=np.float64)
        i = np.arange(1, self.n + 1)
        upper = np.max(np.abs(i / self.n - ref))
        lower = np.max(np.abs((i - 1) / self.n - ref))
        return float(max(upper, lower))
