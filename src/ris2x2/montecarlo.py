"""Monte Carlo estimation harness and empirical-distribution utilities.

A single vectorized pass over channel draws produces every per-trial
statistic the figures need (squared singular values, the eight alignment
factors, optionally the jointly optimized SNR factor).  Since the scheme
SNRs scale linearly with gamma_bar, one pass serves a whole SNR sweep.

Trial t is a pure function of (seed, stream, t) (see sampling), chunks are
assembled in trial order, and reductions use numpy's pairwise summation,
so estimates are bit-for-bit identical regardless of chunking or worker
count.  Proportions carry 95% Wilson intervals (sane coverage near zero
outage), means carry normal-theory intervals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .altopt import optimize_batch  # perfbench/child.py wraps this name here
from .sampling import RngState, channel_realizations
from .sysmodel import MODES, Mode, mode_z_factors

__all__ = [
    "AltScheme",
    "ALT",
    "Scheme",
    "McEstimate",
    "TrialStats",
    "parse_scheme",
    "scheme_label",
    "channel_statistics",
    "scheme_snr_factor",
    "outage_from_stats",
    "throughput_from_stats",
    "estimate_outage",
    "estimate_throughput",
    "wilson_halfwidth",
    "EmpiricalCdf",
    "empirical_cdf",
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
    gamma_bar is gamma_bar * lam[:, j-1] * om[:, i-1] * z[:, j-1, i-1]."""

    seed: int
    stream: int
    trials: int
    lam: np.ndarray  # (n, 2) squared singular values of G, descending
    om: np.ndarray  # (n, 2) squared singular values of H, descending
    z_plain: np.ndarray  # (n, 2, 2) fixed-surface alignment factors [j, i]
    z_comp: np.ndarray  # (n, 2, 2) compensated alignment factors [j, i]
    alt_factor: np.ndarray | None  # (n,) optimized SNR / gamma_bar
    alt_iterations: None = None  # always None; read by perfbench/child.py
    alt_converged: None = None  # always None; read by perfbench/child.py


def _chunk_ranges(trials: int, chunk_size: int):
    return [
        (lo, min(lo + chunk_size, trials)) for lo in range(0, trials, chunk_size)
    ]


def _stats_chunk(state, lo, hi, include_alt):
    ch = channel_realizations(state, hi - lo, start=lo)
    lam = ch.svd_g.sigma**2
    om = ch.svd_h.sigma**2
    z_plain, z_comp = mode_z_factors(ch)
    alt = optimize_batch(ch).snr_factor if include_alt else None
    return lam, om, z_plain, z_comp, alt


def channel_statistics(
    seed: int,
    trials: int,
    stream: int = 0,
    include_alt: bool = False,
    workers: int = 1,
    chunk_size: int = 1 << 17,
) -> TrialStats:
    """One vectorized statistics pass over ``trials`` channel draws.

    Work is split into fixed chunks of the trial range; chunks may be
    evaluated by a thread pool, and results are assembled in trial order,
    so the output is independent of ``workers`` and ``chunk_size``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = RngState(seed, stream)
    ranges = _chunk_ranges(trials, chunk_size)
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda r: _stats_chunk(state, r[0], r[1], include_alt), ranges)
            )
    else:
        parts = [_stats_chunk(state, lo, hi, include_alt) for lo, hi in ranges]
    lam = np.concatenate([p[0] for p in parts])
    om = np.concatenate([p[1] for p in parts])
    z_plain = np.concatenate([p[2] for p in parts])
    z_comp = np.concatenate([p[3] for p in parts])
    alt_factor = np.concatenate([p[4] for p in parts]) if include_alt else None
    return TrialStats(
        seed=seed,
        stream=stream,
        trials=trials,
        lam=lam,
        om=om,
        z_plain=z_plain,
        z_comp=z_comp,
        alt_factor=alt_factor,
    )


def scheme_snr_factor(stats: TrialStats, scheme: Scheme) -> np.ndarray:
    """Per-trial SNR / gamma_bar of a scheme."""
    if isinstance(scheme, AltScheme):
        if stats.alt_factor is None:
            raise ValueError("statistics pass was run without include_alt")
        return stats.alt_factor
    z = stats.z_comp if scheme.compensated else stats.z_plain
    j = scheme.rx - 1
    i = scheme.tx - 1
    return stats.lam[:, j] * stats.om[:, i] * z[:, j, i]


def wilson_halfwidth(hits: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = hits / trials
    denom = 1.0 + z * z / trials
    return float(
        z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    )


def outage_from_stats(
    stats: TrialStats, scheme: Scheme, gamma_bar: float, gamma_th: float
) -> McEstimate:
    snr = gamma_bar * scheme_snr_factor(stats, scheme)
    hits = int(np.count_nonzero(snr <= gamma_th))
    return McEstimate(
        value=hits / stats.trials,
        ci_half_width=wilson_halfwidth(hits, stats.trials),
        trials=stats.trials,
        seed=stats.seed,
    )


def throughput_from_stats(
    stats: TrialStats, scheme: Scheme, gamma_bar: float
) -> McEstimate:
    vals = np.log1p(gamma_bar * scheme_snr_factor(stats, scheme))
    half = _Z95 * float(vals.std(ddof=1)) / np.sqrt(stats.trials)
    return McEstimate(
        value=float(vals.mean()),
        ci_half_width=half,
        trials=stats.trials,
        seed=stats.seed,
    )


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
    stats = channel_statistics(
        seed,
        trials,
        stream=stream,
        include_alt=isinstance(scheme, AltScheme),
        workers=workers,
    )
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
    stats = channel_statistics(
        seed,
        trials,
        stream=stream,
        include_alt=isinstance(scheme, AltScheme),
        workers=workers,
    )
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


def empirical_cdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)
