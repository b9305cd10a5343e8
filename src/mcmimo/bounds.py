"""Closed-form achievable-rate lower bounds after MRC.

Each BS j observes, for pilot slot i, a scalar multiple-access channel over
the L co-pilot users.  With Gaussian signaling and a worst-case uncorrelated
Gaussian effective noise, jointly decoding the users in a set ``omega`` while
treating the rest as noise yields, for every subset ``theta`` of ``omega``,
the achievable sum-rate bound

    sum_{l in theta} R_l <= C( N(theta) / (N(omega^c) + F) ),

where ``N(S) = M * sqrt(rho_p) * rho_u * sum_{l in S} beta_jil * alpha_jil``
is the coherently combined power of the users in S, and
``F = sum_{l,k} rho_u * beta_jkl + 1`` is the non-coherent interference plus
noise floor.  Rates are in bits per channel use (base-2 logs).

This one bound gives every rate of every scheme; the schemes differ only in
the (omega, theta) pairs they keep: TIN has omega = theta = {j}, SD has
omega = all cells, S-SND has omega = all cells and theta containing j, and
SND takes any omega containing j.  Cell sets are int bitmasks (bit l stands
for cell l).  :func:`subset_sum` gives N of a mask and :func:`mac_bound`
turns N values into bounds; the region builders and the solvers all sum in
its order and call :func:`mac_bound`, so their rates agree to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import ChannelState
from .network import SystemParams

__all__ = [
    "PowerDecomposition",
    "capacity",
    "coherent_power",
    "coherent_powers",
    "noise_floor",
    "noise_floors",
    "state_powers",
    "state_floors",
    "subset_sum",
    "mac_bound",
    "power_terms",
    "tin_rate_asymptotic",
    "mu_coefficient",
]

_LN2 = math.log(2.0)


def capacity(snr) -> float:
    """Shannon rate log2(1 + snr) in bits."""
    return np.log1p(snr) / _LN2


@dataclass(frozen=True)
class PowerDecomposition:
    """The four power terms of the combined signal: desired coherent power,
    channel-estimation-error interference, other-user interference, noise."""

    desired: float
    est_error: float
    other_users: float
    noise: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.desired, self.est_error, self.other_users, self.noise)

    @property
    def total_noise(self) -> float:
        return self.est_error + self.other_users + self.noise


def _check_index(name: str, index, size: int, axis: str) -> None:
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise ValueError(f"{name} index must be an integer, got {index!r}")
    if not 0 <= index < size:
        raise ValueError(f"{name} index {index} out of range for {axis}={size}")


def check_bs(state, j: int) -> None:
    """Reject a BS index outside [0, L) of a channel state (or of its
    ``SystemParams``); numpy would read a negative one from the end.  It
    must be a Python or NumPy integer: numpy reads ``True`` as a mask and
    refuses ``1.0``."""
    _check_index("BS", j, state.L, "L")


def check_pilot(state, i: int) -> None:
    """Reject a pilot index outside [0, K), as :func:`check_bs` does."""
    _check_index("pilot", i, state.K, "K")


def check_indices(state, j: int, i: int) -> None:
    """:func:`check_bs` of ``j`` and :func:`check_pilot` of ``i``."""
    check_bs(state, j)
    check_pilot(state, i)


def check_omega(state, omega) -> list:
    """The decoded set ``omega`` as sorted distinct cell indices in [0, L),
    each a Python or NumPy integer, as in :func:`check_indices`."""
    try:
        omega = list(omega)
    except TypeError:
        raise ValueError(f"omega must be an iterable of cell indices, got {omega!r}") from None
    if not all(isinstance(l, (int, np.integer)) and not isinstance(l, bool) for l in omega):
        raise ValueError(f"omega entries must be integers, got {omega}")
    omega = sorted(set(omega))
    if any(l < 0 or l >= state.L for l in omega):
        raise ValueError(f"omega {omega} has entries out of range for L={state.L}")
    return omega


def coherent_powers(m, params: SystemParams, beta: np.ndarray, alpha: np.ndarray,
                    i: int) -> np.ndarray:
    """N({l}) seen by every BS j in pilot slot i, as ``coh[..., j, l]``.

    ``beta`` and ``alpha`` are (..., L, K, L) fading and MMSE tensors and
    ``m`` one antenna count, or one per leading index.  Each entry is
    ``((M sqrt(rho_p)) rho_u) beta_jil alpha_jil``, multiplied in that order.

    Finite inputs whose product overflows raise ``ValueError``, since a rate
    read off such powers would be ``nan``.  numpy's floating-point status
    check on each multiply is the test, so it costs no pass over the result
    and no numpy warning is emitted.  The inputs themselves are finite:
    ``SystemParams``, ``ChannelState`` and the sweep's M axis check them.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            scale = np.multiply(m, math.sqrt(params.rho_p)) * params.rho_u
            return scale[..., None, None] * beta[..., i, :] * alpha[..., i, :]
    except FloatingPointError:
        raise ValueError("coherent power M sqrt(rho_p) rho_u beta alpha overflows: "
                         "M, rho_p or rho_u is too large") from None


def noise_floors(beta: np.ndarray, rho_u: float) -> np.ndarray:
    """The floor F of every BS j, sum_{l,k} rho_u beta_jkl + 1, as an
    (..., L) array from (..., L, K, L) fading.  Each sum runs over a
    contiguous K*L row, the order in which ``beta[j].sum()`` adds.  A floor
    that overflows raises ``ValueError``, as in :func:`coherent_powers`."""
    beta = np.ascontiguousarray(beta)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return rho_u * beta.reshape(*beta.shape[:-2], -1).sum(axis=-1) + 1.0
    except FloatingPointError:
        raise ValueError("noise floor rho_u sum(beta) + 1 overflows: "
                         "rho_u is too large") from None


def memo(state: ChannelState, key, form):
    """The state's memo entry ``key``, formed by ``form()`` on first use.
    Entries are immutable, so threads that race on a key each form an
    equal value and all read the first one stored.  A ``form`` that raises
    leaves no entry."""
    value = state._powers.get(key)
    if value is None:
        value = state._powers.setdefault(key, form())
    return value


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def state_floors(state: ChannelState) -> np.ndarray:
    """The noise floors ``floor[j]`` of every BS j of a state: its
    :func:`noise_floors`, formed once per state and kept on it as a
    read-only array (the second half of :func:`state_powers`, which an M
    sweep reads without the coherent powers at the state's own M)."""
    return memo(state, "floor",
                lambda: _read_only(noise_floors(state.beta, state.params.rho_u)))


def state_powers(state: ChannelState, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The coherent powers ``coh[j, l]`` of every BS j in pilot slot i and
    the noise floors ``floor[j]`` of a state: its :func:`coherent_powers`
    and :func:`noise_floors`, formed once per state (the powers once per
    pilot) and kept on the state as read-only arrays.  The caller checks
    ``i``.  A state whose powers overflow keeps nothing and raises on every
    call."""
    p = state.params
    coh = memo(state, i, lambda: _read_only(
        coherent_powers(p.M, p, state.beta, state.stats.alpha, i)))
    return coh, state_floors(state)


def coherent_power(state: ChannelState, j: int, i: int) -> np.ndarray:
    """Per-cell coherent power N({l}) = M sqrt(rho_p) rho_u beta_jil alpha_jil,
    a read-only row of :func:`state_powers`."""
    check_indices(state, j, i)
    return state_powers(state, i)[0][j]


def noise_floor(state: ChannelState, j: int) -> float:
    """Non-coherent interference plus noise floor sum_{l,k} rho_u beta_jkl + 1,
    read off :func:`state_powers`."""
    check_bs(state, j)
    return float(state_floors(state)[j])


def subset_sum(coh, mask: int) -> float:
    """N(mask): the sum of ``coh[l]`` over the set bits l of ``mask``.

    The terms are added from the highest index down.  Every bound sums in
    this one order, which is what makes a solver's rate equal, to the bit,
    the value read off the matching region.
    """
    total = 0.0
    while mask:
        top = mask.bit_length() - 1
        total += coh[top]
        mask ^= 1 << top
    return total


def mac_bound(n_theta, n_noise, floor: float):
    """The multiple-access sum-rate bound C(N(theta) / (N(omega^c) + F)) in
    bits, from the :func:`subset_sum` values of theta and of the cells
    outside omega.

    Scalars give a scalar; sequences are evaluated elementwise with one
    vectorized log.
    """
    return capacity(np.divide(n_theta, np.add(n_noise, floor)))


def power_terms(state: ChannelState, j: int, i: int, omega) -> PowerDecomposition:
    """Analytic power split of the combined output at BS j, pilot slot i.

    ``desired`` is the squared mean of the coherent components of the decoded
    set ``omega`` (scales as M^2); the three noise terms scale as M.  Terms
    that overflow raise ``ValueError``, as in :func:`coherent_powers`.
    """
    check_indices(state, j, i)
    omega = check_omega(state, omega)
    p = state.params
    beta = state.beta
    b_own = beta[j, i, j]
    a_own = state.stats.alpha[j, i, j]
    m = np.float64(p.M)  # numpy scalars, so an overflow sets the status errstate reads
    mask = np.arange(state.K) != i
    try:
        with np.errstate(over="raise", invalid="raise"):
            desired = m ** 2 * p.rho_p * p.rho_u * float(
                (beta[j, i, omega] ** 2).sum()) * a_own ** 2
            scale = m * math.sqrt(p.rho_p) * b_own * a_own
            est_error = scale * p.rho_u * float(beta[j, i, :].sum())
            other_users = scale * p.rho_u * float(beta[j, mask, :].sum())
    except FloatingPointError:
        raise ValueError("power terms overflow: M, rho_p or rho_u is too large") from None
    return PowerDecomposition(desired=float(desired), est_error=float(est_error),
                              other_users=float(other_users), noise=float(scale))


def tin_rate_asymptotic(state: ChannelState, j: int, i: int) -> float:
    """Large-M limit of the TIN rate: C(beta_own^2 / sum_other beta^2).

    Unbounded (returns ``inf``) for a single-cell network where no co-pilot
    interference exists.
    """
    check_indices(state, j, i)
    if state.L == 1:
        return math.inf
    b = state.beta[j, i, :]
    others = np.delete(b, j)
    return float(capacity(b[j] ** 2 / (others ** 2).sum()))


def mu_coefficient(state: ChannelState, j: int, i: int) -> float:
    """SINR-per-squared-gain coefficient: with full joint decoding, the
    sum-rate bound for theta is log2(1 + mu * sum_{l in theta} beta_jil^2)."""
    check_indices(state, j, i)
    p = state.params
    b_sum = float(state.beta[j, i, :].sum())
    return p.M * p.rho_p * p.rho_u / (noise_floor(state, j) * (1.0 + p.rho_p * b_sum))
