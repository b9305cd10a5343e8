"""Sample-level simulation of pilot training, MMSE estimation and MRC.

Validates the analytic power decomposition against empirical statistics.
All arrays carry a leading trial axis. Channels are iid circular complex
Gaussian (unit variance per entry, split evenly between real and imaginary
parts); pilot transmission is simulated directly in the despread domain,
which is equivalent to multiplying by an orthonormal pilot matrix and saves
a K x K product per trial.

The empirical decomposition at BS j, slot i samples only what the combiner
there reads: BS j's channels to every user, shape (T, K, L, M), the despread
pilot noise of slot i at BS j and the receiver noise at BS j, (T, M) each,
and the symbols, (T, L, K).  Every inner product still comes from sampled
M-vectors, so the check stays independent of the analytic formulas.

Randomness is explicit: functions take a ``numpy.random.Generator``, and the
trial-level driver derives one child stream per batch from the seed.  A
batch holds at most 256 trials and at most ``_BATCH_BYTES`` of sampled
arrays; its size depends only on (trials, K, L, M), so results are
reproducible for any worker count.  Batches run on threads (numpy releases
the GIL while it draws), as many at once as ``workers``, the usable CPUs and
the batch count allow, and never more than ``_BATCH_BYTES`` of batches in
flight.  Each thread draws into buffers the caller allocated for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import PowerDecomposition, check_indices
from .estimation import ChannelState

__all__ = [
    "complex_normal",
    "empirical_power_decomposition",
    "MAX_TRIALS",
]

_BATCH = 256              # trials per batch, at most
_BATCH_BYTES = 32 << 20   # complex128 bytes sampled by all batches in flight, at most
MAX_TRIALS = 10 ** 7      # trials of one empirical decomposition, at most


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Circular complex Gaussian samples with the given per-entry variance.

    Real and imaginary parts are drawn interleaved in one call into ``out``,
    a C-contiguous complex128 array of ``shape`` (allocated when not given)
    viewed as float pairs, so the draw allocates nothing beyond its result.
    """
    if out is None:
        out = np.empty(shape, np.complex128)
    z = out.view(np.float64).reshape(*shape, 2)
    rng.standard_normal(out=z)
    z *= math.sqrt(var / 2.0)
    return out


@dataclass(frozen=True)
class _TrialStats:
    """Per-trial scalars needed for the power decomposition at one (j, i)."""

    inner: np.ndarray    # (T, K, L): g_hat_jij^H g_jkl
    noise: np.ndarray    # (T,): g_hat_jij^H n_j
    symbols: np.ndarray  # (T, L, K)


def _antennas(M: float) -> int:
    """The antenna count as the integer number of sampled entries."""
    if not (M >= 1 and float(M).is_integer()):
        raise ValueError(f"Monte Carlo needs an integer antenna count M >= 1, got M={M!r}")
    return int(M)


def _bytes_per_trial(K: int, L: int, m: int) -> int:
    """Bytes sampled per trial: channels, pilot noise, receiver noise and
    symbols."""
    return 16 * (K * L * m + 2 * m + L * K)


def _batch_counts(trials: int, K: int, L: int, m: int) -> list[int]:
    """Trials per batch: at most _BATCH, and at most _BATCH_BYTES of sampled
    arrays."""
    size = min(_BATCH, max(1, _BATCH_BYTES // _bytes_per_trial(K, L, m)))
    counts = [size] * (trials // size)
    if trials % size:
        counts.append(trials % size)
    return counts


def _lanes(workers: int | None, counts: list[int], per_trial: int) -> int:
    """Batches run at once: at most ``workers`` (``None``: no cap), the
    batch count, ``os.cpu_count()`` and as many full batches as fit in
    _BATCH_BYTES together, but at least one."""
    fit = _BATCH_BYTES // (counts[0] * per_trial)
    cap = len(counts) if workers is None else min(workers, len(counts))
    return max(1, min(cap, os.cpu_count() or 1, fit))


def _run_lanes(fn, lanes: int) -> None:
    """Call ``fn(t)`` for every lane ``t`` in ``range(lanes)``: inline when
    there is one lane, otherwise on one thread per lane.  The first lane's
    exception, if any, is raised in the caller once every lane has ended."""
    if lanes <= 1:
        fn(0)
        return
    # imported here: a run with one lane never needs it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        futures = [pool.submit(fn, t) for t in range(lanes)]
    for future in futures:
        future.result()


def _one_batch(state: ChannelState, j: int, i: int, seed, buffers,
               inner: np.ndarray, noise: np.ndarray, symbols: np.ndarray) -> None:
    """Draw one batch of ``len(inner)`` trials from ``seed`` and write its
    inner products, noise projections and symbols into ``inner``, ``noise``
    and ``symbols``.

    The batch's channels, reference vector and noise go into leading slices
    of ``buffers``, its lane's (channels, reference, scratch) arrays, so a
    batch allocates nothing of size M.
    """
    count = len(inner)
    rng = np.random.default_rng(seed)
    p = state.params
    K, L = p.K, p.L
    g, ref, scratch = (buf[:count] for buf in buffers)
    m = ref.shape[1]
    complex_normal(rng, g.shape, out=g)
    g *= np.sqrt(state.beta[j])[None, :, :, None]
    # despread pilot of slot i at BS j, then ref = conj(g_hat_jij)
    g[:, i].sum(axis=1, out=ref)
    ref *= math.sqrt(p.rho_p)
    ref += complex_normal(rng, ref.shape, out=scratch)
    np.conj(ref, out=ref)
    ref *= state.stats.alpha_own[j, i]
    col = ref[:, :, None]
    complex_normal(rng, symbols.shape, out=symbols)
    n = complex_normal(rng, (count, 1, m), out=scratch.reshape(count, 1, m))
    np.matmul(g.reshape(count, K * L, m), col, out=inner.reshape(count, K * L, 1))
    np.matmul(n, col, out=noise.reshape(count, 1, 1))


def _decompose(stats: _TrialStats, state: ChannelState, i: int,
               omega: list[int]) -> PowerDecomposition:
    """The four power terms from the per-trial scalars at slot i."""
    rho_u = state.params.rho_u
    mean_inner = stats.inner.mean(axis=0)  # (K, L)
    desired = rho_u * float((np.abs(mean_inner[i, omega]) ** 2).sum())
    centered = stats.inner[:, i, :] - mean_inner[i, :][None, :]
    est_err_term = math.sqrt(rho_u) * (centered * stats.symbols[:, :, i]).sum(axis=1)
    mask = np.ones(state.K, dtype=bool)
    mask[i] = False
    cross = stats.inner[:, mask, :] * stats.symbols.transpose(0, 2, 1)[:, mask, :]
    other_term = math.sqrt(rho_u) * cross.sum(axis=(1, 2))
    return PowerDecomposition(
        desired=desired,
        est_error=float(est_err_term.var()),
        other_users=float(other_term.var()),
        noise=float(stats.noise.var()),
    )


def empirical_power_decomposition(state: ChannelState, j: int, i: int, omega,
                                  trials: int, seed: int,
                                  workers: int | None = None) -> PowerDecomposition:
    """Empirical counterpart of the analytic power split at BS j, slot i.

    The desired power is the squared magnitude of the trial-mean coherent
    component summed over the decoded set ``omega``; the other three terms
    are empirical variances of the estimation-error interference, other-user
    interference and noise contributions to the combiner output.

    Requires at least 1000 trials for meaningful confidence, at most
    ``MAX_TRIALS``, and an integer antenna count M >= 1.  Work is split into
    batches whose sizes depend only on (trials, K, L, M), each with an
    independently derived RNG stream, so the result depends only on ``seed``
    and ``trials``, not on ``workers``.

    Batches run on threads, lane t taking batches t, t + n, ... of n lanes.
    ``workers`` caps the threads (default ``None``: all usable CPUs), and
    the lanes' buffers together hold at most ``_BATCH_BYTES``, so a shape
    whose batch fills more than half of it runs on one lane, inline.
    """
    if trials < 1000:
        raise ValueError(
            f"need at least 1000 trials for statistical confidence, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials are allowed, got {trials}")
    check_indices(state, j, i)
    omega = sorted(set(omega))
    if any(l < 0 or l >= state.L for l in omega):
        raise ValueError(f"omega {omega} has entries out of range for L={state.L}")

    m = _antennas(state.params.M)
    K, L = state.K, state.L
    counts = _batch_counts(trials, K, L, m)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    lanes = _lanes(workers, counts, _bytes_per_trial(K, L, m))
    size = counts[0]
    buffers = [(np.empty((size, K, L, m), np.complex128),
                np.empty((size, m), np.complex128),
                np.empty((size, m), np.complex128)) for _ in range(lanes)]
    stats = _TrialStats(inner=np.empty((trials, K, L), np.complex128),
                        noise=np.empty(trials, np.complex128),
                        symbols=np.empty((trials, L, K), np.complex128))

    def lane(t: int) -> None:
        for b in range(t, len(counts), lanes):
            lo, hi = b * size, b * size + counts[b]
            _one_batch(state, j, i, seeds[b], buffers[t], stats.inner[lo:hi],
                       stats.noise[lo:hi], stats.symbols[lo:hi])

    _run_lanes(lane, lanes)
    return _decompose(stats, state, i, omega)
