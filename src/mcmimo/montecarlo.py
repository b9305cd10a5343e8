"""Sample-level simulation of pilot training, MMSE estimation and MRC.

Validates the analytic power decomposition against empirical statistics.
All arrays carry a leading trial axis. Channels are iid circular complex
Gaussian (unit variance per entry, split evenly between real and imaginary
parts); pilot transmission is simulated directly in the despread domain,
which is equivalent to multiplying by an orthonormal pilot matrix and saves
a K x K product per trial.

Randomness is explicit: functions take a ``numpy.random.Generator``, and the
trial-level driver derives one child stream per fixed-size batch from the
seed, so results are reproducible for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PowerDecomposition
from .estimation import ChannelState, EstimationStats
from .parallel import parallel_map, pool_size

__all__ = [
    "complex_normal",
    "sample_channels",
    "despread_pilots",
    "mmse_estimate",
    "estimate_for_cell",
    "mrc_outputs",
    "empirical_power_decomposition",
]

_BATCH = 256


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circular complex Gaussian samples with the given per-entry variance."""
    scale = math.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


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


def _run_batches(state: ChannelState, j: int, i: int, seeds, counts) -> _TrialStats:
    p = state.params
    m = int(p.M)
    inner = []
    nterm = []
    sym = []
    for seed, count in zip(seeds, counts):
        rng = np.random.default_rng(seed)
        g = sample_channels(state.beta, m, rng, count)
        r = despread_pilots(g, p.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        x = complex_normal(rng, (count, p.L, p.K))
        n = complex_normal(rng, (count, p.L, m))
        ref = g_hat[:, j, i, :].conj()
        inner.append(np.einsum("tm,tklm->tkl", ref, g[:, j]))
        nterm.append(np.einsum("tm,tm->t", ref, n[:, j]))
        sym.append(x)
    return _TrialStats(inner=np.concatenate(inner), noise=np.concatenate(nterm),
                       symbols=np.concatenate(sym))


def empirical_power_decomposition(state: ChannelState, j: int, i: int, omega,
                                  trials: int, seed: int,
                                  workers: int = 1) -> PowerDecomposition:
    """Empirical counterpart of the analytic power split at BS j, slot i.

    The desired power is the squared magnitude of the trial-mean coherent
    component summed over the decoded set ``omega``; the other three terms
    are empirical variances of the estimation-error interference, other-user
    interference and noise contributions to the combiner output.

    Requires at least 1000 trials for meaningful confidence.  Work is split
    into fixed-size batches with independently derived RNG streams, so the
    result depends only on ``seed`` and ``trials``, not on ``workers``.
    """
    if trials < 1000:
        raise ValueError(
            f"need at least 1000 trials for statistical confidence, got {trials}")
    omega = sorted(set(omega))
    if any(l < 0 or l >= state.L for l in omega):
        raise ValueError(f"omega {omega} has entries out of range for L={state.L}")

    counts = [_BATCH] * (trials // _BATCH)
    if trials % _BATCH:
        counts.append(trials % _BATCH)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))

    size = pool_size(workers, len(counts))
    if size > 1:
        chunks = np.array_split(np.arange(len(counts)), size)
        args = [(state, j, i, [seeds[b] for b in chunk], [counts[b] for b in chunk])
                for chunk in chunks]
        results = parallel_map(_run_batches_star, args, size)
        stats = _TrialStats(
            inner=np.concatenate([r.inner for r in results]),
            noise=np.concatenate([r.noise for r in results]),
            symbols=np.concatenate([r.symbols for r in results]))
    else:
        stats = _run_batches(state, j, i, seeds, counts)

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


def _run_batches_star(args):
    return _run_batches(*args)
