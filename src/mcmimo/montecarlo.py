"""Sample-level check of the power decomposition at one BS and pilot slot.

The combiner at BS j, slot i is the MMSE estimate alpha_own[j, i] v of the
despread pilot v = sqrt(rho_p) sum_l g_jil + n_p.  It reads only the inner
products of v with BS j's channels and receiver noise, and the symbols,
and those are drawn exactly, without the M-vectors.  Slot i's channels and
pilot noise are the columns of X S, X = [h_ji1 ... h_jiL, n_p] i.i.d.
CN(0, 1), S = diag(sqrt(beta_ji1), ..., 1), and v = X s with s = S w,
w = (sqrt(rho_p), ..., 1).  For a real orthogonal U with first column
s / ||s||, X' = X U is again i.i.d. CN(0, 1), v = ||s|| x'_0 and
x_l = sum_c U_lc x'_c.  So v^H g_jil depends on X' only through the first
row of its Bartlett factor: ||x'_0||^2 = G ~ Gamma(M, 1) and, given x'_0,
x'_0^H x'_c = sqrt(G) z_c with z_1..z_L i.i.d. CN(0, 1).  Then
v^H g_jil = ||s|| sqrt(beta_jil) sqrt(G) (U_l0 sqrt(G) + sum_c U_lc z_c)
and ||v|| = ||s|| sqrt(G), at every M >= 1.  Every other vector read is
independent of v: given ||v||, its inner product with v is a
CN(0, beta_jkl ||v||^2) draw.  So, given ||v|| and the other users'
symbols x_lk, O = sum_{k != i, l} g_hat_jij^H g_jkl x_lk is
CN(0, ||g_hat_jij||^2 sum beta_jkl |x_lk|^2), each |x_lk|^2 an Exp(1)
variate.  A trial costs one gamma variate, (K - 1) L exponentials and
2 L + 2 complex normals at any M, and rests on no formula of
:func:`~mcmimo.bounds.power_terms`.

A batch holds its scalars trials-last, as contiguous float planes of real
and imaginary parts, forms complex products from rounded float products,
and adds in index order, so neither BLAS nor a fused multiply-add touches a
bit.  It is folded into running sums, each a reduction of one contiguous
trial vector, which the four terms are read off.  Shifting the own inner
products by the first batch's mean keeps est_error free of cancellation up
to ``MAX_ANTENNAS``, above which an integer M is no float64.

One ``numpy.random.default_rng(seed)`` stream is drawn batch by batch.  A
batch's size depends only on (L, K) and bounds its fold's scalars and its
exponentials to ``_BATCH_BYTES``.  It lives in one buffer of at most 3.625
``_BATCH_BYTES`` (at L = K = 1) at any trial count.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import PowerDecomposition, check_indices, check_omega, power_terms
from .estimation import ChannelState

__all__ = [
    "complex_normal",
    "empirical_power_decomposition",
    "MAX_ANTENNAS",
    "MAX_TRIALS",
]

_BATCH_BYTES = 1 << 20    # bytes of a batch's fold scalars and exponentials
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


def _antennas(M: float) -> int:
    """The antenna count as an integer."""
    if not (1 <= M <= MAX_ANTENNAS and float(M).is_integer()):
        raise ValueError("Monte Carlo needs an integer antenna count "
                         f"1 <= M <= 2**53, got M={M!r}")
    return int(M)


def _batch_size(L: int, K: int) -> int:
    """Trials per batch, at least one, with at most _BATCH_BYTES of the
    2 L + 2 complex scalars a trial's fold reads and its (K - 1) L
    exponential variates.

    Part of the output contract: the stream is drawn batch by batch, so
    changing this size changes every result.
    """
    return max(1, _BATCH_BYTES // (16 * (2 * L + 2) + 8 * (K - 1) * L))


def _scratch(L: int, K: int) -> int:
    """Scratch floats per trial, used in turn by the L normals and their
    products; by the later draws; by the fold."""
    return max(8 * L + 12, (K - 1) * L)


def _carve(buffer: np.ndarray, *shapes):
    """Consecutive C-contiguous views of ``buffer``, one per shape."""
    at = 0
    for shape in shapes:
        size = math.prod(shape)
        yield buffer[at:at + size].reshape(shape)
        at += size


def _rotation(s) -> list[list[float]]:
    """A real orthogonal matrix U, as rows, whose first column is s / ||s||
    for a vector s with s[0] > 0.  U = 2 q q^T / (q^T q) - I with
    q = e_0 + s / ||s||, whose q[0] > 1 cancels nothing; its first column,
    q - e_0, is s / ||s|| itself."""
    norm = math.sqrt(sum(x * x for x in s))
    u = [x / norm for x in s]
    q = [1.0 + u[0], *u[1:]]
    half = sum(x * x for x in q) / 2.0
    return [[u[l]] + [q[l] * q[c] / half - (l == c) for c in range(1, len(q))]
            for l in range(len(q))]


def _one_batch(rng: np.random.Generator, m: int, weights: np.ndarray, gain: float,
               others: np.ndarray, scratch: np.ndarray, planes: np.ndarray):
    """Draw a batch, using ``scratch``: a gamma variate G and L normals z a
    trial; noise and symbols in one call; a row of exponentials E per entry
    of ``others`` and a normal a trial for O, if there are others.  Return
    its planes (index 0 real, 1 imaginary) carved from ``planes``: ``own``
    (2, L, count), g_hat_jij^H g_jil = sqrt(G) (sum_c weights[l, c] z_c +
    weights[l, 0] sqrt(G)), c = 1..L in order; ``other`` (2, count), O;
    ``noise`` (2, count), g_hat_jij^H n_j; ``symbols`` (2, L, count), x_li."""
    L = len(weights)
    count = len(planes) // (4 * L + 5)
    norm, own, other, noise, symbols = _carve(planes, (count,), (2, L, count), (2, count),
                                              (2, count), (2, L, count))
    np.sqrt(rng.standard_gamma(float(m), out=norm), out=norm)
    z = complex_normal(rng, (count, L),
                       out=scratch[:2 * count * L].view(np.complex128).reshape(count, L))
    z = z.view(np.float64).reshape(count, L, 2).T  # (2, L, count): part, c, trial
    by = scratch[2 * count * L:4 * count * L].reshape(2, L, count)
    np.multiply(weights[:, 1, None], z[:, None, 0], out=own)
    for c in range(2, L + 1):
        own += np.multiply(weights[:, c, None], z[:, None, c - 1], out=by)
    own[0] += np.multiply(weights[:, 0, None], norm, out=by[0])
    own *= norm
    norm *= gain  # ||g_hat_jij||
    rest = complex_normal(rng, (count * (L + 1),), out=scratch[
        :2 * count * (L + 1)].view(np.complex128)).view(np.float64)
    np.multiply(rest[:2 * count].reshape(count, 2).T, norm, out=noise)
    symbols[...] = rest[2 * count:].reshape(count, L, 2).T
    other[...] = 0.0  # no other user at K = 1
    if len(others):
        exps = rng.standard_exponential(out=scratch[:len(others) * count].reshape(-1, count))
        spread = np.add.reduce(np.multiply(exps, others, out=exps), axis=0, out=other[0])
        norm *= np.sqrt(spread, out=spread)  # ||g_hat_jij|| sqrt(sum_r others[r] E_r)
        z_o = complex_normal(rng, (count,), out=scratch[:2 * count].view(np.complex128))
        np.multiply(z_o.view(np.float64).reshape(count, 2).T, norm, out=other)
    return own, other, noise, symbols


def _batches(state: ChannelState, j: int, i: int, trials: int, seed: int):
    """The planes of ``trials`` draws at BS j, slot i, batch by batch, each
    with its scratch; a batch overwrites the last one's.  With s = S w and
    alpha = alpha_own[j, i], gain = alpha ||s||, weights[l, c] = gain
    sqrt(beta_jil) U_lc for U = _rotation(s), and others the beta_jkl, k != i."""
    L, K = state.L, state.K
    m = _antennas(state.params.M)
    scale = np.sqrt(state.beta[j, i]).tolist()  # diagonal of S but its last entry, 1
    s = [b * math.sqrt(state.params.rho_p) for b in scale] + [1.0]
    gain = float(state.stats.alpha_own[j, i]) * math.sqrt(sum(x * x for x in s))
    weights = np.array([[gain * b * u for u in row] for b, row in zip(scale, _rotation(s))])
    others = np.delete(state.beta[j], i, axis=0).reshape(-1, 1)
    size = min(trials, _batch_size(L, K))
    head, tail = _scratch(L, K), 4 * L + 5
    rng = np.random.default_rng(seed)
    buffer = np.empty(size * (head + tail))
    for lo in range(0, trials, size):
        count = min(size, trials - lo)
        scratch = buffer[:count * head]
        yield (*_one_batch(rng, m, weights, gain, others, scratch,
                           buffer[count * head:count * (head + tail)]), scratch)


def _moments(own: np.ndarray, other: np.ndarray, noise: np.ndarray, symbols: np.ndarray,
             shift: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """A batch's sums over its trials.  With d = a - shift for the own inner
    products a and slot i's symbols x: the sums of d, x and conj(E) x_l,
    for E = sum_l d_l x_l (2 L each); of E, the other-user term O and the
    noise N, then of their parts' squares (6 each); then of x_l conj(x_m)
    (L^2 real parts, then L^2 imaginary).  Real parts come first."""
    _, L, count = own.shape
    rows = len(scratch) // count - 6 * L - 12
    work, terms = _carve(scratch, (6 * L + 12, count), (rows, count))
    d, x, ex = work[:6 * L].reshape(3, 2, L, count)
    first = work[6 * L:6 * L + 6].reshape(3, 2, count)  # E, O, N
    np.subtract(own, shift[:, :, None], out=d)
    x[...] = symbols
    by = terms[:2 * L].reshape(2, L, count)
    _row_sum(np.multiply(d, x, out=by), np.subtract, first[0, 0])  # dr xr - di xi
    _row_sum(np.multiply(d, x[::-1], out=by), np.add, first[0, 1])  # dr xi + di xr
    np.multiply(x, first[0, 0], out=ex)  # xr Er, xi Er
    np.multiply(x, first[0, 1], out=by)  # xr Ei, xi Ei
    ex[0] += by[1]
    ex[1] -= by[0]
    first[1] = other
    first[2] = noise
    np.multiply(first, first, out=work[6 * L + 6:].reshape(3, 2, count))
    re, im = [], []
    step = len(terms) // (2 * L)  # rows l at a time, as the scratch allows
    for l in range(0, L, step):
        x_l = x[:, l:l + step, None]
        by = terms[:2 * x_l.shape[1] * L].reshape(2, -1, L, count)
        np.multiply(x_l, x[:, None], out=by)  # xr_l xr_m, xi_l xi_m
        re.append(np.add.reduce(np.add(by[0], by[1], out=by[0]), axis=-1).ravel())
        np.multiply(x_l, x[::-1, None], out=by)  # xr_l xi_m, xi_l xr_m
        im.append(np.add.reduce(np.subtract(by[1], by[0], out=by[0]), axis=-1).ravel())
    return np.concatenate([np.add.reduce(work, axis=1), *re, *im])


def _row_sum(parts: np.ndarray, combine, out: np.ndarray) -> None:
    """``out`` = combine(parts[0], parts[1]) summed over rows in order."""
    np.add.reduce(combine(parts[0], parts[1], out=parts[0]), axis=0, out=out)


def _sample(state: ChannelState, j: int, i: int, trials: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift (2, L), the first batch's mean own inner products, and the
    sums of :func:`_moments` over ``trials`` draws at BS j, slot i."""
    shift, sums = None, 0.0
    for own, other, noise, symbols, scratch in _batches(state, j, i, trials, seed):
        if shift is None:
            shift = own.sum(axis=-1) / own.shape[-1]
        sums = sums + _moments(own, other, noise, symbols, shift, scratch)
    return shift, sums


def _decompose(shift: np.ndarray, sums: np.ndarray, trials: int, state: ChannelState,
               omega: list[int]) -> PowerDecomposition:
    """The four power terms from the sums of ``trials`` trials.  The mean
    own inner products are shift + delta, delta = mean(d), so the
    estimation-error term is E - sum_l delta_l x_l, whose second moment is
    E's less its cross moments with x plus a quadratic form in delta."""
    L, rho_u = state.L, state.params.rho_u
    mean = [v / trials for v in sums.tolist()]

    def cplx(at, n):
        return [complex(*z) for z in zip(mean[at:at + n], mean[at + n:at + 2 * n])]

    delta, x, ex = cplx(0, L), cplx(2 * L, L), cplx(4 * L, L)
    e, o, n = (complex(*z) for z in zip(mean[6 * L:6 * L + 6:2], mean[6 * L + 1:6 * L + 6:2]))
    e2, o2, n2 = (a + b for a, b in zip(mean[6 * L + 6:6 * L + 12:2],
                                         mean[6 * L + 7:6 * L + 12:2]))
    e -= sum(dl * xl for dl, xl in zip(delta, x))
    e2 -= 2.0 * sum((dl * el).real for dl, el in zip(delta, ex))
    xx = cplx(6 * L + 12, L * L)
    e2 += sum((delta[l] * delta[m].conjugate() * xx[l * L + m]).real
              for l in range(L) for m in range(L))
    own = [complex(*z) + dl for z, dl in zip(zip(*shift.tolist()), delta)]
    return PowerDecomposition(
        desired=rho_u * sum(abs(own[l]) ** 2 for l in omega),
        est_error=rho_u * max(0.0, e2 - abs(e) ** 2),
        other_users=rho_u * max(0.0, o2 - abs(o) ** 2),
        noise=max(0.0, n2 - abs(n) ** 2),
    )


def empirical_power_decomposition(state: ChannelState, j: int, i: int, omega,
                                  trials: int, seed: int) -> PowerDecomposition:
    """Empirical counterpart of the analytic power split at BS j, slot i.

    The desired power is the squared magnitude of the trial-mean coherent
    component summed over the decoded set ``omega``; the other three terms
    are empirical variances of the estimation-error interference, other-user
    interference and noise contributions to the combiner output.

    Requires an integer ``trials`` of at least 1000 for meaningful
    confidence and at most ``MAX_TRIALS``; a nonnegative integer ``seed``
    (a fresh draw of OS entropy would break reproducibility); and an integer
    antenna count 1 <= M <= ``MAX_ANTENNAS``.  A state whose analytic terms
    overflow is refused before any draw, as its sampled terms would.  The
    result depends only on the state, ``seed`` and ``trials``.
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
    power_terms(state, j, i, omega)  # raises if the terms overflow
    return _decompose(*_sample(state, j, i, trials, seed), trials, state, omega)
