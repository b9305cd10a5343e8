"""Sample-level check of the power decomposition at one BS and pilot slot.

The combiner at BS j, slot i is the MMSE estimate alpha_own[j, i] v of the
despread pilot v = sqrt(rho_p) sum_l g_jil + n_p.  It reads only the inner
products of v with BS j's channels and receiver noise, and the symbols,
and those are drawn exactly, without the M-vectors.  Slot i's channels and
pilot noise are the columns of X S, X = [h_ji1 ... h_jiL, n_p] i.i.d.
CN(0, 1), S = diag(sqrt(beta_ji1), ..., 1), and v = X S w with
w = (sqrt(rho_p), ..., 1).  Their inner products depend on X only through R
in X = QR, whose r = min(M, L + 1) rows hold independent entries
(Bartlett): R_kk = sqrt(Gamma(M - k, 1)), R_kc ~ CN(0, 1) for c > k.  With
y = R S w, v^H g_jil = y^H (R S)[:, l] and ||v|| = ||y||.  Every other
vector read is independent of v: given ||v||, its inner product with v is
a CN(0, beta_jkl ||v||^2) draw.  So a trial costs O(min(M, L + 1) L + K L)
draws at any M, and rests on no formula of :func:`~mcmimo.bounds.power_terms`.

A batch holds its scalars trials-last, as contiguous float planes of real
and imaginary parts, forms complex products from rounded float products,
and adds in index order, so neither BLAS nor a fused multiply-add touches a
bit.  It is folded into running sums, each a reduction of one contiguous
trial vector, which the four terms are read off.  Shifting the own inner
products by the first batch's mean keeps est_error free of cancellation up
to ``MAX_ANTENNAS``, above which an integer M is no float64.

One ``numpy.random.default_rng(seed)`` stream is drawn batch by batch.  A
batch's size depends only on (L, K, M) and bounds its R factors and the
scalars its fold reads to ``_BATCH_BYTES`` each.  It lives in one buffer of
at most 5 ``_BATCH_BYTES`` (4.5 at L = K = M = 1) at any trial count.
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

_BATCH_BYTES = 1 << 20    # complex128 bytes of a batch's R factors, or of its fold's inputs
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


def _batch_size(L: int, K: int, m: int) -> int:
    """Trials per batch, at least one, with at most _BATCH_BYTES of R
    factors, min(m, L + 1) (L + 1) complex numbers a trial, and of the
    scalars the fold reads, 2 K L + 1 a trial.

    Part of the output contract: the stream is drawn batch by batch, so
    changing this size changes every result.
    """
    return max(1, _BATCH_BYTES // (16 * max(min(m, L + 1) * (L + 1), 2 * K * L + 1)))


def _scratch(L: int, K: int, r: int) -> int:
    """Scratch floats per trial, used in turn by R's upper entries (then
    products), its diagonal, R and y; by the later draws; by the fold."""
    upper = r * (L + 1) - r * (r + 1) // 2
    return max(max(2 * upper, 4 * L) + r + 2 * r * (L + 2), 2 * (2 * K * L + 1 - L),
               6 * L + 12 + 2 * max(K - 1, 1) * L)


def _carve(buffer: np.ndarray, *shapes):
    """Consecutive C-contiguous views of ``buffer``, one per shape."""
    at = 0
    for shape in shapes:
        size = math.prod(shape)
        yield buffer[at:at + size].reshape(shape)
        at += size


def _one_batch(rng: np.random.Generator, state: ChannelState, j: int, i: int, m: int,
               scratch: np.ndarray, planes: np.ndarray):
    """Draw a batch, using ``scratch``: R's upper entries, its diagonal,
    then the cross products, noise and symbols in one call.  Return its
    planes (index 0 real, 1 imaginary) carved from ``planes``: ``inner``
    (2, K, L, count), g_hat_jij^H g_jkl with user i last; ``noise``
    (2, count), g_hat_jij^H n_j; ``symbols`` (2, K, L, count), x_lk in the
    same user order.  Sums skip R's zeros, which would change no bit."""
    p = state.params
    K, L = p.K, p.L
    r = min(m, L + 1)
    count = len(planes) // (4 * K * L + 3)
    rows, cols = zip(*[(k, c) for k in range(r) for c in range(k + 1, L + 1)])
    n = len(rows)
    upper = complex_normal(rng, (count, n),
                           out=scratch[:2 * count * n].view(np.complex128).reshape(count, n))
    by = scratch[:4 * L * count].reshape(2, 2, L, count)  # over the upper entries, once in R
    gammas, R, y = _carve(scratch[count * max(2 * n, 4 * L):], (count, r),
                          (2, r, L + 1, count), (2, r, count))
    norm, inner, noise, symbols = _carve(planes, (count,), (2, K, L, count), (2, count),
                                         (2, K, L, count))
    diag = np.arange(r)
    np.sqrt(rng.standard_gamma(float(m) - diag, out=gammas), out=gammas)
    root_beta = np.sqrt(state.beta[j])  # (K, L)
    alpha = state.stats.alpha_own[j, i]
    scale = root_beta[i].tolist()  # diagonal of S but its last entry, 1
    weight = [s * math.sqrt(p.rho_p) for s in scale] + [1.0]  # S w
    R[...] = 0.0
    R[:, rows, cols] = upper.view(np.float64).reshape(count, n, 2).T
    R[0, diag, diag] = gammas.T
    np.multiply(R[:, :, 0], weight[0], out=y)  # column c is nonzero in rows 0..c only
    column = by.reshape(-1)[:2 * r * count].reshape(2, r, count)
    for c in range(1, L + 1):
        y[:, :c + 1] += np.multiply(R[:, :c + 1, c], weight[c], out=column[:, :c + 1])
    products = inner[:, K - 1]  # conj(y) R; R[k, l] is zero for k > l
    products[...] = 0.0
    for k in range(min(r, L)):
        by_re = np.multiply(R[:, k, k:L], y[0, k], out=by[0, :, k:])  # yr Rr, yr Ri
        by_im = np.multiply(R[::-1, k, k:L], y[1, k], out=by[1, :, k:])  # yi Ri, yi Rr
        products[0, k:] += np.add(by_re[0], by_im[0], out=by_re[0])
        products[1, k:] += np.subtract(by_re[1], by_im[1], out=by_re[1])
    products *= np.array([alpha * s for s in scale])[:, None]
    np.multiply(y, y, out=y)
    np.add(y[0, 0], y[1, 0], out=norm)
    for k in range(1, r):
        norm += y[0, k] + y[1, k]
    np.sqrt(norm, out=norm)
    norm *= alpha  # ||g_hat_jij||
    rest = complex_normal(rng, (count * (2 * K * L + 1 - L),),
                          out=scratch[:2 * count * (2 * K * L + 1 - L)].view(np.complex128))
    rest = rest.view(np.float64)
    cut = 2 * count * (K - 1) * L
    np.multiply(rest[:cut].reshape(count, K - 1, L, 2).transpose(3, 1, 2, 0), norm,
                out=inner[:, :K - 1])
    inner[:, :K - 1] *= root_beta[np.arange(K) != i, :, None]
    np.multiply(rest[cut:cut + 2 * count].reshape(count, 2).T, norm, out=noise)
    x = rest[cut + 2 * count:].reshape(count, L, K, 2).transpose(3, 2, 1, 0)
    symbols[:, :i], symbols[:, i:K - 1], symbols[:, K - 1] = x[:, :i], x[:, i + 1:], x[:, i]
    return inner, noise, symbols


def _batches(state: ChannelState, j: int, i: int, trials: int, seed: int):
    """The planes of ``trials`` draws at BS j, slot i, batch by batch, each
    with its scratch; a batch overwrites the last one's."""
    L, K = state.L, state.K
    m = _antennas(state.params.M)
    size = min(trials, _batch_size(L, K, m))
    head, tail = _scratch(L, K, min(m, L + 1)), 4 * K * L + 3
    rng = np.random.default_rng(seed)
    buffer = np.empty(size * (head + tail))
    for lo in range(0, trials, size):
        count = min(size, trials - lo)
        scratch = buffer[:count * head]
        yield (*_one_batch(rng, state, j, i, m, scratch,
                           buffer[count * head:count * (head + tail)]), scratch)


def _moments(inner: np.ndarray, noise: np.ndarray, symbols: np.ndarray,
             shift: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """A batch's sums over its trials.  With d = a - shift for the own inner
    products a and slot i's symbols x: the sums of d, x and conj(E) x_l,
    for E = sum_l d_l x_l (2 L each); of E, the other-user term O and the
    noise N, then of their parts' squares (6 each); then of x_l conj(x_m)
    (L^2 real parts, then L^2 imaginary).  Real parts come first."""
    _, K, L, count = inner.shape
    rows = len(scratch) // count - 6 * L - 12
    work, terms = _carve(scratch, (6 * L + 12, count), (rows, count))
    d, x, ex = work[:6 * L].reshape(3, 2, L, count)
    first = work[6 * L:6 * L + 6].reshape(3, 2, count)  # E, O, N
    np.subtract(inner[:, K - 1], shift[:, :, None], out=d)
    x[...] = symbols[:, K - 1]
    by = terms[:2 * L].reshape(2, L, count)
    _row_sum(np.multiply(d, x, out=by), np.subtract, first[0, 0])  # dr xr - di xi
    _row_sum(np.multiply(d, x[::-1], out=by), np.add, first[0, 1])  # dr xi + di xr
    np.multiply(x, first[0, 0], out=ex)  # xr Er, xi Er
    np.multiply(x, first[0, 1], out=by)  # xr Ei, xi Ei
    ex[0] += by[1]
    ex[1] -= by[0]
    cross = inner[:, :K - 1].reshape(2, -1, count)
    sym = symbols[:, :K - 1].reshape(2, -1, count)
    by = terms[:2 * (K - 1) * L].reshape(2, -1, count)
    _row_sum(np.multiply(cross, sym, out=by), np.subtract, first[1, 0])
    _row_sum(np.multiply(cross, sym[::-1], out=by), np.add, first[1, 1])
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
    """``out`` = combine(parts[0], parts[1]) summed over rows in order;
    zero for no rows."""
    np.add.reduce(combine(parts[0], parts[1], out=parts[0]), axis=0, out=out)


def _sample(state: ChannelState, j: int, i: int, trials: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift (2, L), the first batch's mean own inner products, and the
    sums of :func:`_moments` over ``trials`` draws at BS j, slot i."""
    shift, sums = None, 0.0
    for inner, noise, symbols, scratch in _batches(state, j, i, trials, seed):
        if shift is None:
            shift = inner[:, -1].sum(axis=-1) / inner.shape[-1]
        sums = sums + _moments(inner, noise, symbols, shift, scratch)
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
