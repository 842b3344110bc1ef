"""Monte Carlo estimation harness and empirical-distribution utilities.

A single vectorized pass over random trials produces every per-trial
statistic the figures need, 9 doubles: the squared singular values of G
and H, the matched and crossed alignment factors z with and without
compensation, and the jointly optimized SNR factor.  All are gauge
invariant, so they come from the eigenvalues of each Gram matrix, G^H G
and H H^H, the moduli of its unit leading eigenvector and the one
relative phase of the two eigenvectors, without a singular basis or a
complex number.  The pass draws those directly from their laws
(:func:`sampling.eigen_draws`: 11 uniforms, 4 logarithms and one phase
per trial), never the channels or the Gram matrices, so it solves no
eigenproblem; :func:`trial_statistics` is the one core, and callers
holding channel matrices reduce them to its inputs through
:func:`linalg2.channel_eigen`.  Since the scheme SNRs scale linearly
with gamma_bar, one pass serves a whole SNR sweep.

Trial t is a pure function of (seed, t) (see sampling).  The pass
is one loop over fixed chunks of trials (2^14 by default), run in turn or
on a thread pool with one worker per available CPU, that hands each
chunk's statistics to a consumer.  A chunk of 2^14 trials was the
fastest of 2^13..2^15 for the 10^6-trial outage sweep on a 2-vCPU host,
and 2^15 needed 18 MB more memory.  There are two consumers.  Storing copies each
chunk into one preallocated :class:`TrialStats` of the whole pass; the
acceptance checks need it for their distribution tests, and throughput
is reduced from it.  :class:`OutageCounter` keeps only integer counts:
per chunk it sorts a copy of each scheme's factor (the trials in outage
at any gamma_bar are a prefix of the sorted factors), counts every
(scheme, gamma_bar) exactly and adds the counts to its total.  A
streamed outage sweep therefore holds a few chunks per worker, whatever
the number of trials, and integer sums make its estimates independent
of chunking and worker count.  Throughput uses numpy's pairwise
summation over the stored pass, whose result does not depend on how the
pass was chunked either; each scheme's factor is formed once and reused
at every grid point.  An estimate is an
:class:`McEstimate`, its value and the half-width of its 95% interval:
Wilson for proportions (sane coverage near zero outage), normal theory
for means.  :data:`SCHEMES` maps each scheme label (the eight modes
'j{1|2}i{1|2}[-cmp]' and the joint optimum 'alt') to its scheme.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .altopt import joint_optimum
from .sampling import RngState, _is_integer, eigen_draws
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
    "OutageCounter",
    "SCHEMES",
    "parse_scheme",
    "trial_statistics",
    "channel_statistics",
    "scheme_snr_factor",
    "gain_ratio",
    "mode_gap_ratio",
    "outage_from_stats",
    "throughput_from_stats",
    "estimate_outage",
    "estimate_throughput",
    "wilson_halfwidth",
    "EmpiricalCdf",
]

_Z95 = 1.959963984540054

# Default trials per chunk of the statistics pass (see the module docstring).
_CHUNK_SIZE = 1 << 14

# Sorted samples per evaluation of the reference CDF in a KS distance; the
# laws' temporaries span a few such blocks whatever the sample size.
_KS_BLOCK = 1 << 16


@dataclass(frozen=True)
class AltScheme:
    """The jointly optimized benchmark scheme (closed form, see altopt)."""

    label = "alt"


ALT = AltScheme()
Scheme = Mode | AltScheme

# Every scheme by its label: the eight modes, then the joint optimum.
SCHEMES = {s.label: s for s in (*MODES, ALT)}
ALL_SCHEME_LABELS = tuple(SCHEMES)


def parse_scheme(name: str) -> Scheme:
    """The scheme of a label of :data:`SCHEMES`, 'j{1|2}i{1|2}[-cmp]' or
    'alt', in any case and with surrounding blanks."""
    if not isinstance(name, str):
        raise ValueError(f"scheme name must be a string, not {name!r}")
    key = name.strip().lower()
    if key not in SCHEMES:
        raise ValueError(f"unknown scheme name: {key!r}")
    return SCHEMES[key]


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with a 95% confidence half-width."""

    value: float
    ci_half_width: float


@dataclass(frozen=True)
class TrialStats:
    """Per-trial channel statistics; SNR of mode (i,j) at average SNR
    gamma_bar is gamma_bar * lam[:, j-1] * om[:, i-1] * z[:, k], with k = 0
    for the matched modes (i = j) and k = 1 for the crossed ones.  Trial t
    of a pass is a pure function of (seed, t); the statistics hold the
    trials' values, not the key they were drawn with."""

    trials: int
    lam: np.ndarray  # (n, 2) squared singular values of G, descending
    om: np.ndarray  # (n, 2) squared singular values of H, descending
    z_plain: np.ndarray  # (n, 2) fixed-surface alignment factors [matched, crossed]
    z_comp: np.ndarray  # (n, 2) compensated alignment factors [matched, crossed]
    alt_factor: np.ndarray  # (n,) optimized SNR / gamma_bar
    alt_iterations: None = None  # always None; read by perfbench/child.py
    alt_converged: None = None  # always None; read by perfbench/child.py


_COLUMNS = ("lam", "om", "z_plain", "z_comp", "alt_factor")


def _cpu_count() -> int:
    """CPUs this process may run on: the default number of worker threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _require_count(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is an integer (a bool is not) of at
    least ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _thread_map(fn, items, workers=None):
    """[fn(x) for x in items], on a pool of ``workers`` threads (default:
    the available CPUs) when there is more than one item.  numpy releases
    the GIL inside the array work, so the threads run in parallel."""
    items = list(items)
    workers = _cpu_count() if workers is None else workers
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def trial_statistics(g, h, cos, sin):
    """(lam, om, z_plain, z_comp, alt_factor), the per-trial columns of
    :class:`TrialStats`, from g = (l1, l2, c, s), the eigenvalues of
    G^H G and the moduli of its unit leading eigenvector, h the same of
    H H^H, and the cosine and sine of the relative phase of the two
    eigenvectors, as :func:`sampling.eigen_draws` draws them; no singular
    basis and no complex number is formed.  Channel matrices reduce to
    these through :func:`linalg2.channel_eigen`, so
    ``trial_statistics(*channel_eigen(g, h))`` is the pass on given
    channels.
    """
    (lam1, lam2, cg, sg), (om1, om2, ch, sh) = g, h
    z_plain, z_comp = leading_z_factors(cg, sg, ch, sh, cos, sin)
    # each column contiguous, as the counter reads them one at a time
    return (
        np.moveaxis(np.stack([lam1, lam2]), 0, -1),
        np.moveaxis(np.stack([om1, om2]), 0, -1),
        z_plain,
        z_comp,
        joint_optimum((lam1, lam2), (om1, om2), z_comp[..., 0]),
    )


def channel_statistics(
    seed: int,
    trials: int,
    workers: int | None = None,
    chunk_size: int = _CHUNK_SIZE,
    consume=None,
) -> TrialStats | None:
    """One vectorized statistics pass over eigen draws 0..trials-1 of
    stream 0 of ``seed``.

    The trial range is split into fixed chunks of ``chunk_size`` trials
    (2^14 by default), evaluated in turn or by a pool of ``workers``
    threads (default: the CPUs this process may run on).  Each chunk's
    statistics, a :class:`TrialStats` of its own trials, go to
    ``consume(lo, chunk)``, ``lo`` being the index of its first trial;
    chunks arrive in any order and from several threads at once.  With no
    consumer, the chunks are copied into one preallocated
    :class:`TrialStats` of the whole pass, which is returned; with one,
    None is returned and the pass holds only the chunks in flight.  No
    value depends on ``workers`` or ``chunk_size``.
    """
    _require_count("trials", trials, 1)
    _require_count("chunk_size", chunk_size, 1)
    if workers is not None:
        _require_count("workers", workers, 1)
    state = RngState(seed)
    stats = None
    if consume is None:
        stats = TrialStats(trials, *[np.empty((trials, 2)) for _ in range(4)], np.empty(trials))

        def consume(lo, chunk):
            for name in _COLUMNS:
                getattr(stats, name)[lo : lo + chunk.trials] = getattr(chunk, name)

    def run(lo):
        n = min(chunk_size, trials - lo)
        columns = trial_statistics(*eigen_draws(state, n, lo))
        consume(lo, TrialStats(n, *columns))

    _thread_map(run, range(0, trials, chunk_size), workers)
    return stats


def scheme_snr_factor(stats: TrialStats, scheme: Scheme) -> np.ndarray:
    """Per-trial SNR / gamma_bar of a scheme: a new array, or for the joint
    optimum the stored alt column itself."""
    if isinstance(scheme, AltScheme):
        return stats.alt_factor
    z = stats.z_comp if scheme.compensated else stats.z_plain
    j = scheme.rx - 1
    i = scheme.tx - 1
    return stats.lam[:, j] * stats.om[:, i] * z[:, int(i != j)]


def gain_ratio(stats: TrialStats) -> McEstimate:
    """The compensation SNR gain of a pass: the mean compensated over the
    mean fixed-surface matched alignment factor.  Its 95% half-width is the
    delta method's for a ratio r of correlated means, the standard error of
    the mean of z_comp - r z_plain over the mean of z_plain, so a pass of
    fewer than 2 trials raises ValueError."""
    if stats.trials < 2:
        raise ValueError("the gain interval needs a pass of at least 2 trials")
    zc, zp = stats.z_comp[:, 0], stats.z_plain[:, 0]
    mean_plain = zp.mean()
    ratio = float(zc.mean() / mean_plain)
    resid = np.multiply(ratio, zp)
    np.subtract(zc, resid, out=resid)
    se = float(resid.std(ddof=1)) / float(np.sqrt(stats.trials))
    return McEstimate(ratio, _Z95 * se / float(mean_plain))


def mode_gap_ratio(stats: TrialStats) -> float:
    """The consecutive-mode gap of a pass: the mean SNR factor of j1i1 over
    that of j2i1 (7 in theory)."""
    top = scheme_snr_factor(stats, Mode(1, 1)).mean()
    return float(top / scheme_snr_factor(stats, Mode(1, 2)).mean())


def wilson_halfwidth(hits: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must be in [0, trials], not {hits} of {trials}")
    p = hits / trials
    z = _Z95
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


def _count_at_most(f_sorted: np.ndarray, gammas: np.ndarray, gamma_th: float) -> np.ndarray:
    """Number of sorted factors f with fl(g * f) <= gamma_th, for each g of
    ``gammas``.

    Rounding is monotone, so those factors are a prefix of ``f_sorted``.  A
    binary search for gamma_th / g lands within a rounding step of its end.
    Where the predicate then holds just past the end or fails just before
    it, whole runs of equal factors are stepped across until it holds
    exactly.
    """
    n = f_sorted.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts = np.searchsorted(f_sorted, gamma_th / gammas, side="right")
    off = (counts < n) & (gammas * f_sorted[np.minimum(counts, n - 1)] <= gamma_th)
    off |= (counts > 0) & ~(gammas * f_sorted[np.maximum(counts - 1, 0)] <= gamma_th)
    for p in np.flatnonzero(off):
        g, k = gammas[p], int(counts[p])
        while k < n and g * f_sorted[k] <= gamma_th:
            k = int(np.searchsorted(f_sorted, f_sorted[k], side="right"))
        while k > 0 and not g * f_sorted[k - 1] <= gamma_th:
            k = int(np.searchsorted(f_sorted, f_sorted[k - 1], side="left"))
        counts[p] = k
    return counts


class OutageCounter:
    """Exact outage counts of ``schemes`` over ``gamma_bar``, one chunk of
    trials at a time: the consumer a streamed outage sweep hands to
    :func:`channel_statistics`, or called once on a stored pass as
    ``counter(0, stats)``.

    ``hits[k, p]`` is the number of trials so far with
    fl(gamma_bar[p] * f) <= gamma_th, f the factor of scheme k.  Each
    chunk's factors are formed and sorted once and counted exactly at every
    grid point; integer sums do not depend on the order in which chunks
    arrive, so the counts are the same at any chunk size or worker count.
    ``gamma_bar`` is one average SNR or a 1-D sequence, as in
    :func:`outage_from_stats`.
    """

    def __init__(self, schemes, gamma_bar, gamma_th: float):
        self.schemes = list(schemes)
        self.gamma_bars, self._scalar = _gamma_bars(gamma_bar)
        if np.isnan(gamma_th):
            raise ValueError("gamma_th must not be NaN")
        self.gamma_th = gamma_th
        self.hits = np.zeros((len(self.schemes), self.gamma_bars.size), dtype=np.int64)
        self.trials = 0
        self._lock = threading.Lock()

    def __call__(self, lo: int, chunk: TrialStats):
        # a sorted copy: the alt factor is the chunk's own column
        counts = [
            _count_at_most(np.sort(scheme_snr_factor(chunk, s)), self.gamma_bars, self.gamma_th)
            for s in self.schemes
        ]
        with self._lock:
            for row, c in zip(self.hits, counts):
                row += c
            self.trials += chunk.trials

    def estimates(self):
        """Per scheme, its estimate at each gamma_bar (a list), or the one
        estimate of a scalar gamma_bar."""
        out = [
            [
                McEstimate(h / self.trials, wilson_halfwidth(h, self.trials))
                for h in row.tolist()
            ]
            for row in self.hits
        ]
        return [row[0] for row in out] if self._scalar else out


def outage_from_stats(stats: TrialStats, scheme: Scheme, gamma_bar, gamma_th: float):
    """Fraction of trials with gamma_bar * factor <= gamma_th.

    ``gamma_bar`` is one average SNR (one estimate is returned) or a 1-D
    sequence (a list of estimates, one per value).  This is an
    :class:`OutageCounter` of the one scheme applied to the stored pass as
    a single chunk; each count is exact.
    """
    counter = OutageCounter([scheme], gamma_bar, gamma_th)
    counter(0, stats)
    return counter.estimates()[0]


def throughput_from_stats(stats: TrialStats, scheme: Scheme, gamma_bar):
    """Sample mean of ln(1 + gamma_bar * factor), with ``gamma_bar`` one
    average SNR or a 1-D sequence as in :func:`outage_from_stats`.  The
    scheme factor is formed once.  The interval needs a sample standard
    deviation, so a pass of fewer than 2 trials raises ValueError."""
    if stats.trials < 2:
        raise ValueError("throughput needs a pass of at least 2 trials")
    gammas, scalar = _gamma_bars(gamma_bar)
    f = scheme_snr_factor(stats, scheme)
    vals = np.empty_like(f)
    out = []
    for g in gammas:
        np.log1p(np.multiply(g, f, out=vals), out=vals)
        half = _Z95 * float(vals.std(ddof=1)) / float(np.sqrt(stats.trials))
        out.append(McEstimate(float(vals.mean()), half))
    return out[0] if scalar else out


def estimate_outage(
    scheme: Scheme,
    gamma_bar: float,
    gamma_th: float,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> McEstimate:
    """Fraction of i.i.d. channel draws whose scheme SNR is <= gamma_th,
    counted chunk by chunk without storing the pass."""
    _require_count("trials", trials, 100)
    counter = OutageCounter([scheme], gamma_bar, gamma_th)
    channel_statistics(seed, trials, workers=workers, consume=counter)
    return counter.estimates()[0]


def estimate_throughput(
    scheme: Scheme,
    gamma_bar: float,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> McEstimate:
    """Sample mean of ln(1 + gamma) over i.i.d. channel draws."""
    _require_count("trials", trials, 100)
    stats = channel_statistics(seed, trials, workers=workers)
    return throughput_from_stats(stats, scheme, gamma_bar)


class EmpiricalCdf:
    """Right-continuous step CDF of a sample."""

    def __init__(self, samples):
        # one copy, sorted flat; NaN sorts to the end
        self.sorted = np.sort(np.asarray(samples, dtype=np.float64), axis=None)
        self.n = self.sorted.size
        if self.n == 0:
            raise ValueError("need at least one sample")
        if np.isnan(self.sorted[-1]):
            raise ValueError("samples must not be NaN")

    def __call__(self, x):
        """The CDF at x (a scalar or an array), NaN where x is NaN."""
        x = np.asarray(x, dtype=np.float64)
        out = np.searchsorted(self.sorted, x, side="right") / self.n
        out = np.where(np.isnan(x), np.nan, out)
        return out if out.ndim else float(out)

    def ks_distance(self, reference) -> float:
        """sup-norm distance to a reference CDF (vectorized callable),
        evaluated on :data:`_KS_BLOCK` sorted samples at a time."""
        # the step rises from (i - 1)/n to i/n at the i-th sample, and for
        # a > b, max(|a - F|, |b - F|) = max(a - F, F - b) (monotone rounding)
        worst = []
        for lo in range(0, self.n, _KS_BLOCK):
            block = self.sorted[lo : lo + _KS_BLOCK]
            ref = np.asarray(reference(block), dtype=np.float64)
            steps = np.arange(lo, lo + block.size + 1) / self.n
            worst += [np.max(steps[1:] - ref), np.max(ref - steps[:-1])]
        return float(np.max(worst))
