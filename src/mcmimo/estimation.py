"""Closed-form MMSE channel-estimation statistics from large-scale fading.

With shared pilots across cells, the despread pilot observation for slot k
at BS j is r_jk = sum_l sqrt(rho_p) g_jkl + noise.  The MMSE estimate of the
own-cell channel is g_hat_jkj = alpha[j,k,j] * r_jk with

    alpha[j, k, l] = sqrt(rho_p) * beta[j,k,l] / (1 + rho_p * sum_l1 beta[j,k,l1]).

The estimate and the estimation error are orthogonal, so their per-antenna
variances add up to the channel gain beta[j,k,j].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CellLayout, SystemParams, build_fading

__all__ = ["EstimationStats", "ChannelState", "mmse_coeffs", "check_fading"]


@dataclass(frozen=True, eq=False)
class EstimationStats:
    """Per-link MMSE coefficients and estimate/error variances.

    ``alpha`` has shape (L, K, L); ``est_var`` and ``err_var`` have shape
    (L, K) and hold the per-antenna variances of the own-channel estimate and
    of the estimation error.
    """

    alpha: np.ndarray
    est_var: np.ndarray
    err_var: np.ndarray

    @property
    def alpha_own(self) -> np.ndarray:
        """alpha[j, k, j] as a read-only (L, K) view."""
        return _own(self.alpha)


def _own(x: np.ndarray) -> np.ndarray:
    """x[..., j, k, j] of (..., L, K, L) links as a read-only (..., L, K) view."""
    return x.diagonal(0, -3, -1).swapaxes(-1, -2)


def mmse_coeffs(beta: np.ndarray, params: SystemParams) -> EstimationStats:
    """MMSE estimation statistics for a fading tensor, or for a stack of
    them along leading axes (every array then gains those axes)."""
    beta = np.asarray(beta, dtype=float)
    sp = math.sqrt(params.rho_p)
    denom = 1.0 + params.rho_p * beta.sum(axis=-1)  # (..., L, K)
    alpha = sp * beta / denom[..., None]
    beta_own, alpha_own = _own(beta), _own(alpha)
    est_var = sp * beta_own * alpha_own
    err_var = beta_own * (1.0 - sp * alpha_own)
    return EstimationStats(alpha=alpha, est_var=est_var, err_var=err_var)


def check_fading(beta: np.ndarray) -> None:
    """Reject fading gains that are not finite and strictly positive."""
    if not (np.isfinite(beta).all() and (beta > 0).all()):
        raise ValueError("beta entries must be finite and strictly positive")


def _checked_beta(beta, params: SystemParams) -> np.ndarray:
    """``beta`` as floats, checked for the shape of ``params`` and by :func:`check_fading`."""
    beta = np.asarray(beta, dtype=float)
    expected = (params.L, params.K, params.L)
    if beta.shape != expected:
        raise ValueError(f"beta must have shape {expected}, got {beta.shape}")
    check_fading(beta)
    return beta


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Deterministic channel statistics bundle: params, fading and MMSE stats.

    This is the common input to the rate-bound, region and simulation layers.
    Its fields are immutable, and it is safe to share across workers.  Each
    state also keeps a memo of what is formed from it: the read-only
    coherent powers of each pilot and noise floors (see
    :func:`~mcmimo.bounds.state_powers`), the symmetric-rate reports of
    all four schemes per pilot (see :func:`~mcmimo.symrate.symmetric_rates`),
    and the subset-sum table of the last (BS, pilot) a region was built at,
    one 2^L table at most (see :mod:`~mcmimo.regions`); so the solvers and
    region builders of one state form each once; :meth:`with_m` starts an
    empty memo.
    """

    params: SystemParams
    beta: np.ndarray
    stats: EstimationStats

    def __post_init__(self):
        object.__setattr__(self, "beta", _checked_beta(self.beta, self.params))
        object.__setattr__(self, "_powers", {})

    @classmethod
    def from_beta(cls, beta: np.ndarray, params: SystemParams) -> "ChannelState":
        """The state of ``beta``, checked once, by the constructor, before its
        MMSE statistics are formed."""
        state = cls(params=params, beta=beta, stats=None)
        object.__setattr__(state, "stats", mmse_coeffs(state.beta, params))
        return state

    @classmethod
    def from_layout(cls, layout: CellLayout, params: SystemParams) -> "ChannelState":
        return cls.from_beta(build_fading(layout, params), params)

    def with_m(self, m: float) -> "ChannelState":
        """Same fading with a different antenna count (stats are M-free)."""
        return ChannelState(params=self.params.with_m(m), beta=self.beta, stats=self.stats)

    @property
    def L(self) -> int:
        return self.params.L

    @property
    def K(self) -> int:
        return self.params.K
