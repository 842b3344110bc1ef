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

Trial t is a pure function of (seed, stream, t) (see sampling).  The pass
is one loop over fixed chunks of trials (2^14 by default), run in turn or
on a thread pool with one worker per available CPU, that hands each
chunk's statistics to a consumer.  It allocates nothing per chunk: each
worker takes one :class:`workspace.Workspace` on its first chunk, and the
draw, the z factors and the joint optimum write every chunk into those
same arrays through numpy's ``out=``, so memory is not unmapped and
faulted in again chunk after chunk.  A chunk's arrays are therefore
valid only while its consumer runs; the pass drops the buffers when it
returns: 21 arrays, none complex, 36 float64 columns, 4.7 MB per worker
at the default 2^14 trials.  That size was the fastest of 2^13..2^15 for
the 10^6-trial outage sweep on a 2-vCPU host, and 2^15 needed 18 MB more
memory (measured with an earlier 9.4 MB complex workspace).  There
are two consumers.  Storing copies each chunk into one preallocated
:class:`TrialStats` of the whole pass; the acceptance checks need it for
their distribution tests, and throughput is reduced from it.
:class:`OutageCounter` keeps only integer counts: per chunk it forms each
scheme's factor in one buffer of its thread and sorts it in place (the
trials in outage at any gamma_bar are a prefix of the sorted factors),
counts every (scheme, gamma_bar) exactly and adds the counts to its
total.  A streamed outage sweep therefore holds its workers' buffers,
whatever the number of trials, and integer sums make its estimates
independent of chunking and worker count.  Throughput uses
numpy's pairwise summation over the stored pass, whose result does not
depend on how the pass was chunked either; each scheme's factor is formed
once and reused at every grid point.  An estimate is an
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
from .workspace import Workspace

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


def _thread_workspace(local: threading.local) -> Workspace:
    """The calling thread's workspace in ``local``, made on first use."""
    work = getattr(local, "work", None)
    if work is None:
        work = local.work = Workspace()
    return work


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


def trial_statistics(g, h, cos, sin, work=None):
    """(lam, om, z_plain, z_comp, alt_factor), the per-trial columns of
    :class:`TrialStats`, from g = (l1, l2, c, s), the eigenvalues of
    G^H G and the moduli of its unit leading eigenvector, h the same of
    H H^H, and the cosine and sine of the relative phase of the two
    eigenvectors, as :func:`sampling.eigen_draws` draws them; no singular
    basis and no complex number is formed.  Channel matrices reduce to
    these through :func:`linalg2.channel_eigen`, so
    ``trial_statistics(*channel_eigen(g, h))`` is the pass on given
    channels.  Every array returned lives in ``work`` (see
    :mod:`workspace`).
    """
    work = Workspace() if work is None else work
    shape = np.shape(cos)
    (lam1, lam2, cg, sg), (om1, om2, ch, sh) = g, h
    z_plain, z_comp = leading_z_factors(cg, sg, ch, sh, cos, sin, work.scope("z"))
    # each column contiguous, as the counter reads them one at a time
    return (
        np.moveaxis(np.stack([lam1, lam2], out=work.empty("lam", (2, *shape))), 0, -1),
        np.moveaxis(np.stack([om1, om2], out=work.empty("om", (2, *shape))), 0, -1),
        z_plain,
        z_comp,
        joint_optimum((lam1, lam2), (om1, om2), z_comp[..., 0], work.scope("alt")),
    )


def channel_statistics(
    seed: int,
    trials: int,
    stream: int = 0,
    workers: int | None = None,
    chunk_size: int = _CHUNK_SIZE,
    consume=None,
) -> TrialStats | None:
    """One vectorized statistics pass over ``trials`` eigen draws.

    The trial range is split into fixed chunks of ``chunk_size`` trials
    (2^14 by default), evaluated in turn or by a pool of ``workers``
    threads (default: the CPUs this process may run on).  Each worker
    allocates one :class:`workspace.Workspace` on its first chunk, sized
    for min(chunk_size, trials) trials, and every later chunk it runs
    draws and computes into the same arrays; they are released when the
    pass returns.  Each chunk's statistics, a :class:`TrialStats` of its
    own trials, go to ``consume(lo, chunk)``, ``lo`` being the index of its
    first trial; chunks arrive in any order and from several threads at
    once.  The chunk's arrays are valid only during that call: the
    worker's next chunk overwrites them, so a consumer copies what it
    keeps.  With no consumer, the chunks are copied into one preallocated
    :class:`TrialStats` of the whole pass, which is returned; with one,
    None is returned and the pass holds only its workers' buffers.  No
    value depends on ``workers`` or ``chunk_size``.
    """
    _require_count("trials", trials, 1)
    _require_count("chunk_size", chunk_size, 1)
    if workers is not None:
        _require_count("workers", workers, 1)
    state = RngState(seed, stream)
    stats = None
    if consume is None:
        stats = TrialStats(
            seed, stream, trials, *[np.empty((trials, 2)) for _ in range(4)], np.empty(trials)
        )

        def consume(lo, chunk):
            for name in _COLUMNS:
                getattr(stats, name)[lo : lo + chunk.trials] = getattr(chunk, name)

    buffers = threading.local()  # one workspace per worker thread

    def run(lo):
        n = min(chunk_size, trials - lo)
        work = _thread_workspace(buffers)
        columns = trial_statistics(*eigen_draws(state, n, lo, work), work)
        consume(lo, TrialStats(seed, stream, n, *columns))

    _thread_map(run, range(0, trials, chunk_size), workers)
    return stats


def scheme_snr_factor(stats: TrialStats, scheme: Scheme, out=None) -> np.ndarray:
    """Per-trial SNR / gamma_bar of a scheme, written to ``out`` when it is
    given (else a new array, or the stored alt column itself)."""
    if isinstance(scheme, AltScheme):
        if out is None:
            return stats.alt_factor
        np.copyto(out, stats.alt_factor)
        return out
    z = stats.z_comp if scheme.compensated else stats.z_plain
    j = scheme.rx - 1
    i = scheme.tx - 1
    out = np.multiply(stats.lam[:, j], stats.om[:, i], out=out)
    return np.multiply(out, z[:, int(i != j)], out=out)


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
    with np.errstate(divide="ignore", invalid="ignore"):
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
        self._buffers = threading.local()  # each thread's factor buffer

    def __call__(self, lo: int, chunk: TrialStats):
        f = _thread_workspace(self._buffers).empty("factor", (chunk.trials,))
        counts = []
        for s in self.schemes:
            scheme_snr_factor(chunk, s, out=f).sort()
            counts.append(_count_at_most(f, self.gamma_bars, self.gamma_th))
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
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if np.isnan(samples).any():
            raise ValueError("samples must not be NaN")
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
