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
M-vectors, so the check stays independent of the analytic formulas.  The
full-network helpers (``sample_channels`` ... ``mrc_outputs``) remain for
simulating every BS at once.

Randomness is explicit: functions take a ``numpy.random.Generator``, and the
trial-level driver derives one child stream per batch from the seed.  A
batch holds at most 256 trials and at most ``_BATCH_BYTES`` of sampled
arrays; its size depends only on (trials, K, L, M), so results are
reproducible for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import PowerDecomposition, check_indices
from .estimation import ChannelState, EstimationStats
from .parallel import parallel_map

__all__ = [
    "complex_normal",
    "sample_channels",
    "despread_pilots",
    "mmse_estimate",
    "estimate_for_cell",
    "mrc_outputs",
    "empirical_power_decomposition",
    "MAX_TRIALS",
]

_BATCH = 256              # trials per batch, at most
_BATCH_BYTES = 32 << 20   # complex128 bytes sampled per batch, at most
MAX_TRIALS = 10 ** 7      # trials of one empirical decomposition, at most


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circular complex Gaussian samples with the given per-entry variance.

    Real and imaginary parts are drawn interleaved in one call and viewed
    as complex128, so the draw allocates nothing beyond its result.
    """
    z = rng.standard_normal((*shape, 2))
    z *= math.sqrt(var / 2.0)
    return z.view(np.complex128).reshape(shape)


def sample_channels(beta: np.ndarray, m: int, rng: np.random.Generator,
                    count: int = 1) -> np.ndarray:
    """Channel vectors g[t, j, k, l, :] = sqrt(beta[j,k,l]) * h, h ~ CN(0, I_m)."""
    h = complex_normal(rng, (count, *beta.shape, m))
    return np.sqrt(beta)[None, :, :, :, None] * h


def despread_pilots(g: np.ndarray, rho_p: float, rng: np.random.Generator) -> np.ndarray:
    """Despread pilot observations r[t, j, k, :] = sqrt(rho_p) sum_l g + noise."""
    signal = math.sqrt(rho_p) * g.sum(axis=3)
    return signal + complex_normal(rng, signal.shape)


def mmse_estimate(r: np.ndarray, stats: EstimationStats) -> np.ndarray:
    """Own-channel MMSE estimates g_hat[t, j, k, :] = alpha_own[j,k] * r."""
    return stats.alpha_own[None, :, :, None] * r


def estimate_for_cell(g_hat: np.ndarray, beta: np.ndarray, j: int, k: int,
                      l: int) -> np.ndarray:
    """Cross-channel estimate: the own estimate rescaled by beta_jkl / beta_jkj."""
    return (beta[j, k, l] / beta[j, k, j]) * g_hat[:, j, k, :]


def mrc_outputs(g: np.ndarray, g_hat: np.ndarray, x: np.ndarray, rho_u: float,
                rng: np.random.Generator | None = None,
                noise: np.ndarray | None = None) -> np.ndarray:
    """Combiner outputs yhat[t, j, i] = g_hat_jij^H y_j for all BSs and slots.

    ``x[t, l, k]`` are the transmitted symbols.  Receiver noise is drawn from
    ``rng`` unless an explicit ``noise`` array of shape (t, L, m) is given.
    """
    count, L, K, _, m = g.shape
    if noise is None:
        if rng is None:
            raise ValueError("mrc_outputs needs either rng or an explicit noise array")
        noise = complex_normal(rng, (count, L, m))
    # y[t, j, :] = sqrt(rho_u) * sum_{l,k} g[t,j,k,l,:] x[t,l,k] + n
    y = math.sqrt(rho_u) * np.einsum("tjklm,tlk->tjm", g, x) + noise
    return np.einsum("tjim,tjm->tji", g_hat.conj(), y)


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


def _batch_counts(trials: int, K: int, L: int, m: int) -> list[int]:
    """Trials per batch: at most _BATCH, and at most _BATCH_BYTES of sampled
    channels, pilot noise, receiver noise and symbols."""
    bytes_per_trial = 16 * (K * L * m + 2 * m + L * K)
    size = min(_BATCH, max(1, _BATCH_BYTES // bytes_per_trial))
    counts = [size] * (trials // size)
    if trials % size:
        counts.append(trials % size)
    return counts


def _one_batch(state: ChannelState, j: int, i: int, m: int, task):
    """Inner products, noise projections and symbols of one ``(count,
    seed)`` batch task.

    A function of its own so that one batch's samples are freed before the
    next batch is drawn, which keeps the peak at one batch's budget.
    """
    count, seed = task
    rng = np.random.default_rng(seed)
    p = state.params
    K, L = p.K, p.L
    g = complex_normal(rng, (count, K, L, m))
    g *= np.sqrt(state.beta[j])[None, :, :, None]
    # despread pilot of slot i at BS j, then ref = conj(g_hat_jij)
    ref = g[:, i].sum(axis=1)
    ref *= math.sqrt(p.rho_p)
    ref += complex_normal(rng, (count, m))
    np.conj(ref, out=ref)
    ref *= state.stats.alpha_own[j, i]
    ref = ref[:, :, None]
    x = complex_normal(rng, (count, L, K))
    n = complex_normal(rng, (count, 1, m))
    inner = (g.reshape(count, K * L, m) @ ref).reshape(count, K, L)
    return inner, (n @ ref).reshape(count), x


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
                                  workers: int = 1) -> PowerDecomposition:
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
    counts = _batch_counts(trials, state.K, state.L, m)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    parts = parallel_map(partial(_one_batch, state, j, i, m), list(zip(counts, seeds)),
                         workers)
    inner, nterm, sym = zip(*parts)
    stats = _TrialStats(inner=np.concatenate(inner), noise=np.concatenate(nterm),
                        symbols=np.concatenate(sym))
    return _decompose(stats, state, i, omega)
