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
reproducible for any worker count.  A shape whose single trial samples more
than ``_BATCH_BYTES`` is refused before anything is allocated.

Batches run on lanes: lane 0 on the calling thread, the others on their own
threads (numpy releases the GIL while it draws).  Each lane draws into
buffers the caller allocated for it: a batch's channels and reference
vector, plus a small scratch through which the noise is drawn a few trials
at a time.  There are as many lanes as ``workers``, the usable CPUs and the
batch count allow, and never more than fit together in ``_BATCH_BYTES``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import PowerDecomposition, check_indices, check_omega, power_terms
from .estimation import ChannelState

__all__ = [
    "complex_normal",
    "empirical_power_decomposition",
    "MAX_TRIALS",
]

_BATCH = 256              # trials per batch, at most
_BATCH_BYTES = 32 << 20   # complex128 bytes of one batch, and of all lanes' buffers, at most
_SCRATCH_BYTES = 256 << 10  # complex128 bytes of noise per draw, at most (or one M-vector)
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
    symbols.

    Part of the output contract: it sizes the batches, and the batch plan
    fixes which RNG stream draws each trial.  Lane memory is counted by
    :func:`_lane_bytes` instead.
    """
    return 16 * (K * L * m + 2 * m + L * K)


def _batch_counts(trials: int, K: int, L: int, m: int) -> list[int]:
    """Trials per batch: at most _BATCH, and at most _BATCH_BYTES of sampled
    arrays.

    Part of the output contract: batch b draws from the b-th stream spawned
    from the seed, so changing this plan changes every result.
    """
    size = min(_BATCH, max(1, _BATCH_BYTES // _bytes_per_trial(K, L, m)))
    counts = [size] * (trials // size)
    if trials % size:
        counts.append(trials % size)
    return counts


def _max_antennas(K: int, L: int) -> int:
    """The largest M whose single trial samples at most _BATCH_BYTES."""
    return (_BATCH_BYTES // 16 - L * K) // (K * L + 2)


def _lane_shapes(size: int, K: int, L: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of one lane's complex128 buffers for batches of ``size``
    trials: channels, reference vectors, and a noise scratch of as many
    M-vectors as _SCRATCH_BYTES holds (at least one, at most a batch)."""
    rows = min(size, max(1, _SCRATCH_BYTES // (16 * m)))
    return (size, K, L, m), (size, m), (rows, m)


def _lane_bytes(size: int, K: int, L: int, m: int) -> int:
    """Bytes of one lane's buffers: everything a batch holds at once except
    the per-trial results, which live in the caller's arrays."""
    return 16 * sum(math.prod(shape) for shape in _lane_shapes(size, K, L, m))


def _lanes(workers: int | None, counts: list[int], lane_bytes: int) -> int:
    """Batches run at once: at most ``workers`` (``None``: no cap), the
    batch count, ``os.cpu_count()`` and as many lanes of ``lane_bytes`` as
    fit in _BATCH_BYTES together, but at least one."""
    fit = _BATCH_BYTES // lane_bytes
    cap = len(counts) if workers is None else min(workers, len(counts))
    return max(1, min(cap, os.cpu_count() or 1, fit))


def _run_lanes(fn, lanes: int) -> None:
    """Call ``fn(t)`` for every lane ``t`` in ``range(lanes)``: lane 0 on the
    calling thread, every other lane on a thread of its own.  Once every
    lane has ended, the exception of the lowest failing lane, if any, is
    raised in the caller."""
    errors = [None] * lanes

    def run(t: int) -> None:
        try:
            fn(t)
        except BaseException as exc:  # re-raised below, after every join
            errors[t] = exc

    threads = [threading.Thread(target=run, args=(t,)) for t in range(1, lanes)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _one_batch(state: ChannelState, j: int, i: int, seed, buffers,
               inner: np.ndarray, noise: np.ndarray, symbols: np.ndarray) -> None:
    """Draw one batch of ``len(inner)`` trials from ``seed`` and write its
    inner products, noise projections and symbols into ``inner``, ``noise``
    and ``symbols``.

    The batch's channels and reference vectors go into leading slices of
    ``buffers``, its lane's (channels, reference, scratch) arrays.  The pilot
    and receiver noise are drawn through the scratch, as many trials at a
    time as it holds; filling one stream in pieces gives the values of one
    fill, so the draws (channels, pilot noise, symbols, receiver noise) and
    the result are those of the whole batch at once.  A batch allocates
    nothing of size M.
    """
    count = len(inner)
    rng = np.random.default_rng(seed)
    p = state.params
    K, L = p.K, p.L
    g, ref = (buf[:count] for buf in buffers[:2])
    scratch = buffers[2]
    rows, m = scratch.shape
    chunks = [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]
    complex_normal(rng, g.shape, out=g)
    g *= np.sqrt(state.beta[j])[None, :, :, None]
    # despread pilot of slot i at BS j, then ref = conj(g_hat_jij)
    g[:, i].sum(axis=1, out=ref)
    ref *= math.sqrt(p.rho_p)
    for lo, hi in chunks:
        ref[lo:hi] += complex_normal(rng, (hi - lo, m), out=scratch[:hi - lo])
    np.conj(ref, out=ref)
    ref *= state.stats.alpha_own[j, i]
    col = ref[:, :, None]
    complex_normal(rng, symbols.shape, out=symbols)
    np.matmul(g.reshape(count, K * L, m), col, out=inner.reshape(count, K * L, 1))
    for lo, hi in chunks:
        n = complex_normal(rng, (hi - lo, 1, m), out=scratch[:hi - lo].reshape(hi - lo, 1, m))
        np.matmul(n, col[lo:hi], out=noise[lo:hi].reshape(hi - lo, 1, 1))


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

    Requires an integer ``trials`` of at least 1000 for meaningful
    confidence and at most ``MAX_TRIALS``, a nonnegative integer ``seed``
    (a fresh draw of OS entropy would break reproducibility), and an
    integer antenna count M >= 1 whose single trial samples at most
    ``_BATCH_BYTES``; a state whose analytic terms overflow
    is refused before any draw, as its sampled terms would.  Work is split into
    batches whose sizes depend only on (trials, K, L, M), each with an
    independently derived RNG stream, so the result depends only on ``seed``
    and ``trials``, not on ``workers``.

    Batches run on lanes, lane t taking batches t, t + n, ... of n lanes;
    lane 0 runs on the calling thread.  ``workers``, a positive integer,
    caps the lanes (default ``None``: all usable CPUs), and the lanes' buffers together hold at most
    ``_BATCH_BYTES``, so a shape whose lane fills more than half of it runs
    on one lane, inline.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if workers is not None and (not isinstance(workers, (int, np.integer))
                                or isinstance(workers, bool) or workers < 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if trials < 1000:
        raise ValueError(
            f"need at least 1000 trials for statistical confidence, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials are allowed, got {trials}")
    check_indices(state, j, i)
    omega = check_omega(state, omega)

    m = _antennas(state.params.M)
    K, L = state.K, state.L
    if m > _max_antennas(K, L):
        raise ValueError(
            f"Monte Carlo at L={L}, K={K} samples at most M={_max_antennas(K, L)} antennas "
            f"(one trial within {_BATCH_BYTES} bytes), got M={state.params.M:g}")
    power_terms(state, j, i, omega)  # raises if the terms overflow
    counts = _batch_counts(trials, K, L, m)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    size = counts[0]
    shapes = _lane_shapes(size, K, L, m)
    lanes = _lanes(workers, counts, _lane_bytes(size, K, L, m))
    buffers = [tuple(np.empty(shape, np.complex128) for shape in shapes)
               for _ in range(lanes)]
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
