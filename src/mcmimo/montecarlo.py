"""Sample-level check of the power decomposition at one BS and pilot slot.

The combiner at BS j, slot i is the MMSE estimate alpha_own[j, i] v of
the despread pilot v = sqrt(rho_p) sum_l g_jil + n_p.  It reads only the
inner products of v with BS j's channels g_jkl and receiver noise n, and
the symbols.  Those scalars are drawn exactly, without the M-vectors:

* Slot i's channels and pilot noise are the columns of X S, where
  X = [h_ji1 ... h_jiL, n_p] is M x (L + 1) with i.i.d. CN(0, 1) entries and
  S = diag(sqrt(beta_ji1), ..., sqrt(beta_jiL), 1); v = X S w with
  w = (sqrt(rho_p), ..., sqrt(rho_p), 1).  Their inner products depend on X
  only through R in X = QR.  By the rotation invariance of i.i.d. Gaussian
  vectors (Bartlett's decomposition of a complex Wishart matrix), R has
  r = min(M, L + 1) rows of independent entries: R_kk = sqrt(Gamma(M - k, 1))
  and R_kc ~ CN(0, 1) for c > k, zeros below the diagonal.  With y = R S w,
  v^H g_jil = y^H (R S)[:, l] and ||v||^2 = ||y||^2.
* Every other vector the combiner reads (users k != i and the receiver
  noise) is independent of v, so given ||v|| its inner product with v is an
  independent CN(0, beta_jkl ||v||^2) draw (CN(0, ||v||^2) for the noise).

So the check stays independent of the analytic formulas of
:func:`~mcmimo.bounds.power_terms`, and a trial costs
O(min(M, L + 1) L + K L) draws at any M.

A batch holds R trials-last, as an (r, L + 1, trials) array, so each sum
(y = R S w, the inner products y^H (R S)[:, l] and ||y||^2) is a short loop
of elementwise adds over whole trial vectors, in index order.  No product
goes through BLAS and no sum through a numpy reduction, and the complex
products y^H (R S) are formed from float multiplies and adds, so the bytes
depend neither on the BLAS kernel nor on the CPU's fused multiply-add, nor
on numpy's reduction blocking or the batch length (a final batch may hold a
single trial).

The antenna count must be an integer in [1, ``MAX_ANTENNAS``]: above 2^53
float64 no longer holds every integer, so an integer count cannot be
checked; and far above it (M near 1e30) the own inner products' fluctuations
fall below the rounding of their mean, so ``est_error`` would be rounding
noise.

Randomness is explicit: one ``numpy.random.default_rng(seed)`` stream,
drawn batch by batch; a batch's size depends only on (L, M) and bounds its
R factors to ``_BATCH_BYTES``.  The per-trial record, ``trials x (2 K L + 1)``
complex numbers, is bounded by ``_RECORD_BYTES`` before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PowerDecomposition, check_indices, check_omega, power_terms
from .estimation import ChannelState

__all__ = [
    "complex_normal",
    "empirical_power_decomposition",
    "MAX_ANTENNAS",
    "MAX_TRIALS",
]

_BATCH_BYTES = 1 << 20    # complex128 bytes of one batch's R factors, at most
_RECORD_BYTES = 1 << 30   # bytes of the per-trial record, at most
MAX_TRIALS = 10 ** 7      # trials of one empirical decomposition, at most
MAX_ANTENNAS = 2 ** 53    # antennas of one empirical decomposition, at most


def complex_normal(rng: np.random.Generator, shape,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Circular complex Gaussian samples of unit variance, CN(0, 1).

    Real and imaginary parts are drawn interleaved in one call into ``out``,
    a C-contiguous complex128 array of ``shape`` (allocated when not given)
    viewed as float pairs, so the draw allocates nothing beyond its result.
    Any other ``out`` is refused before anything is drawn.
    """
    shape = tuple(shape)
    if out is None:
        out = np.empty(shape, np.complex128)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.complex128
              and out.shape == shape and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(
            f"out must be a writable C-contiguous complex128 array of shape {shape}")
    z = out.view(np.float64).reshape(*shape, 2)
    rng.standard_normal(out=z)
    z *= math.sqrt(0.5)
    return out


@dataclass(frozen=True)
class _TrialStats:
    """Per-trial scalars needed for the power decomposition at one (j, i)."""

    inner: np.ndarray    # (T, K, L): g_hat_jij^H g_jkl
    noise: np.ndarray    # (T,): g_hat_jij^H n_j
    symbols: np.ndarray  # (T, L, K)


def _antennas(M: float) -> int:
    """The antenna count as an integer."""
    if not (1 <= M <= MAX_ANTENNAS and float(M).is_integer()):
        raise ValueError("Monte Carlo needs an integer antenna count "
                         f"1 <= M <= 2**53, got M={M!r}")
    return int(M)


def _batch_size(L: int, m: int) -> int:
    """Trials per batch: as many as hold at most _BATCH_BYTES of R factors,
    but at least one.

    Part of the output contract: the stream is drawn batch by batch, so
    changing this size changes every result.
    """
    return max(1, _BATCH_BYTES // (16 * min(m, L + 1) * (L + 1)))


def _one_batch(rng: np.random.Generator, state: ChannelState, j: int, i: int, m: int,
               inner: np.ndarray, noise: np.ndarray, symbols: np.ndarray) -> None:
    """Draw ``len(inner)`` trials from ``rng`` and write their inner
    products, noise projections and symbols into ``inner``, ``noise`` and
    ``symbols``.  The draws are R's upper entries, its diagonal, the cross
    products, the noise projections and the symbols, in that order.

    R is held trials-last, so every sum below is a loop of elementwise adds
    over whole trial vectors, in index order; R's zeros below the diagonal
    are skipped, as adding them would change no bit."""
    count = len(inner)
    p = state.params
    K, L = p.K, p.L
    r = min(m, L + 1)
    scale = np.append(np.sqrt(state.beta[j, i]), 1.0)  # diagonal of S
    weight = scale * np.append(np.full(L, math.sqrt(p.rho_p)), 1.0)  # S w
    rows, cols = np.triu_indices(r, 1, L + 1)
    diag = np.arange(r)
    R = np.zeros((r, L + 1, count), np.complex128)
    R[rows, cols] = complex_normal(rng, (count, len(rows))).T
    R[diag, diag] = np.sqrt(rng.standard_gamma(float(m) - diag, size=(count, r))).T
    y = R[:, 0] * weight[0]  # (r, count); column c is nonzero in rows 0..c only
    for c in range(1, L + 1):
        y[:c + 1] += R[:c + 1, c] * weight[c]
    # conj(y) R, (L, count), from float multiplies and adds: each product is
    # rounded before it is added, so no fused multiply-add changes a bit;
    # R[k, l] is zero for k > l
    yr, yi, Rr, Ri = y.real, y.imag, R.real, R.imag
    products = np.zeros((L, count), np.complex128)
    for k in range(r):
        products.real[k:] += yr[k] * Rr[k, k:L] + yi[k] * Ri[k, k:L]
        products.imag[k:] += yr[k] * Ri[k, k:L] - yi[k] * Rr[k, k:L]
    alpha = state.stats.alpha_own[j, i]
    inner[:, i] = products.T * (alpha * scale[:L])
    squares = y.real ** 2 + y.imag ** 2
    norm_sq = squares[0].copy()
    for k in range(1, r):
        norm_sq += squares[k]
    norm = alpha * np.sqrt(norm_sq)  # ||g_hat_jij||
    others = np.arange(K) != i
    cross = complex_normal(rng, (count, K - 1, L))
    inner[:, others] = cross * norm[:, None, None] * np.sqrt(state.beta[j, others])
    noise[:] = complex_normal(rng, (count,)) * norm
    complex_normal(rng, symbols.shape, out=symbols)


def _sample(state: ChannelState, j: int, i: int, trials: int, seed: int) -> _TrialStats:
    """Per-trial scalars at BS j, slot i: ``trials`` draws from one stream."""
    K, L = state.K, state.L
    m = _antennas(state.params.M)
    size = _batch_size(L, m)
    rng = np.random.default_rng(seed)
    stats = _TrialStats(inner=np.empty((trials, K, L), np.complex128),
                        noise=np.empty(trials, np.complex128),
                        symbols=np.empty((trials, L, K), np.complex128))
    for lo in range(0, trials, size):
        hi = min(lo + size, trials)
        _one_batch(rng, state, j, i, m, stats.inner[lo:hi], stats.noise[lo:hi],
                   stats.symbols[lo:hi])
    return stats


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
                                  trials: int, seed: int) -> PowerDecomposition:
    """Empirical counterpart of the analytic power split at BS j, slot i.

    The desired power is the squared magnitude of the trial-mean coherent
    component summed over the decoded set ``omega``; the other three terms
    are empirical variances of the estimation-error interference, other-user
    interference and noise contributions to the combiner output.

    Requires an integer ``trials`` of at least 1000 for meaningful
    confidence and at most ``MAX_TRIALS``, whose record of
    ``trials x (2 K L + 1)`` complex numbers fits in ``_RECORD_BYTES``; a
    nonnegative integer ``seed`` (a fresh draw of OS entropy would break
    reproducibility); and an integer antenna count 1 <= M <= ``MAX_ANTENNAS``.
    A state whose analytic terms overflow is refused before any draw, as its
    sampled terms would.  The result depends only on the state, ``seed`` and
    ``trials``.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if trials < 1000:
        raise ValueError(
            f"need at least 1000 trials for statistical confidence, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials are allowed, got {trials}")
    check_indices(state, j, i)
    omega = check_omega(state, omega)
    _antennas(state.params.M)
    K, L = state.K, state.L
    most = _RECORD_BYTES // (16 * (2 * K * L + 1))
    if trials > most:
        raise ValueError(
            f"Monte Carlo at L={L}, K={K} records at most {most} trials "
            f"({_RECORD_BYTES} bytes), got {trials}")
    power_terms(state, j, i, omega)  # raises if the terms overflow
    return _decompose(_sample(state, j, i, trials, seed), state, i, omega)
