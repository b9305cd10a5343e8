"""Cell geometry, distance-based large-scale fading, and canonical layouts.

Conventions used throughout the package:

* positions are 2-D ``(x, y)`` coordinates in meters,
* cell, user and BS indices are 0-based,
* ``beta[j, k, l]`` is the large-scale gain from user ``k`` of cell ``l``
  to the BS of cell ``j``.

Canonical layouts place all ``K`` users of a cell at a single point on the
cell edge, which gives a conservative (cell-edge) rate estimate.  Arbitrary
per-user positions are supported through :class:`CellLayout`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_LINKS",
    "SystemParams",
    "CellLayout",
    "pathloss",
    "build_fading",
    "fading_stack",
    "layout_stack",
    "two_cell_layout",
    "three_cell_layout",
]

MAX_LINKS = 1 << 18  # BS-user links of one network, L * L * K, at most


def _check_links(L: int, K: int) -> None:
    """Refuse a network of more than ``MAX_LINKS`` BS-user links (L BSs
    each hearing L cells of K users), before its fading or anything sized
    by it is allocated."""
    if L * L * K > MAX_LINKS:
        raise ValueError(f"a network of L={L} cells with K={K} users each has "
                         f"{L * L * K} BS-user links; at most {MAX_LINKS} are allowed")


@dataclass(frozen=True)
class SystemParams:
    """Scalar network parameters.

    Attributes:
        L: number of cells (one BS per cell).
        K: users per cell.
        M: BS antenna count.  Stored as a positive real so that threshold
           searches may interpolate between integer antenna counts.
        rho_u: linear uplink transmit SNR.
        rho_p: linear pilot SNR.
        alpha_pl: path-loss exponent.
        d0: path-loss reference distance in meters.
    """

    L: int
    K: int
    M: float
    rho_u: float
    rho_p: float
    alpha_pl: float = 2.0
    d0: float = 100.0

    def __post_init__(self):
        if not isinstance(self.L, int) or isinstance(self.L, bool) or self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L!r}")
        if not isinstance(self.K, int) or isinstance(self.K, bool) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        for name in ("M", "rho_u", "rho_p", "alpha_pl", "d0"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M!r}")
        if not self.rho_u > 0:
            raise ValueError(f"rho_u must be positive, got {self.rho_u!r}")
        if not self.rho_p > 0:
            raise ValueError(f"rho_p must be positive, got {self.rho_p!r}")
        if self.alpha_pl < 0:
            raise ValueError(f"alpha_pl must be >= 0, got {self.alpha_pl!r}")
        if not self.d0 > 0:
            raise ValueError(f"d0 must be positive, got {self.d0!r}")
        for name in ("M", "rho_u", "rho_p", "alpha_pl", "d0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        _check_links(self.L, self.K)

    def with_m(self, m: float) -> "SystemParams":
        """Copy of the parameters with a different antenna count."""
        return SystemParams(self.L, self.K, m, self.rho_u, self.rho_p,
                            self.alpha_pl, self.d0)


@dataclass(frozen=True, eq=False)
class CellLayout:
    """BS and user positions.

    ``bs`` has shape (L, 2); ``users`` has shape (L, K, 2) where
    ``users[l, k]`` is the position of user k in cell l.
    """

    bs: np.ndarray
    users: np.ndarray

    def __post_init__(self):
        bs, users = np.asarray(self.bs), np.asarray(self.users)
        for name, points in (("bs", bs), ("user", users)):
            # JSON's true, false, null, strings and objects are no coordinates
            if points.dtype.kind not in "iuf":
                raise ValueError(f"{name} positions must be numbers")
        bs, users = bs.astype(float, copy=False), users.astype(float, copy=False)
        if bs.ndim != 2 or bs.shape[1] != 2:
            raise ValueError(f"bs positions must have shape (L, 2), got {bs.shape}")
        if users.ndim != 3 or users.shape[2] != 2:
            raise ValueError(f"user positions must have shape (L, K, 2), got {users.shape}")
        if users.shape[0] != bs.shape[0]:
            raise ValueError(
                f"layout has {bs.shape[0]} BSs but user positions for {users.shape[0]} cells")
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "users", users)

    @property
    def num_cells(self) -> int:
        return self.bs.shape[0]

    @property
    def users_per_cell(self) -> int:
        return self.users.shape[1]

    def to_dict(self) -> dict:
        return {
            "bs_positions": self.bs.tolist(),
            "user_positions": self.users.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CellLayout":
        try:
            return cls(np.asarray(d["bs_positions"]), np.asarray(d["user_positions"]))
        except KeyError as exc:
            raise ValueError(f"layout dict is missing key {exc.args[0]!r}") from None


def pathloss(d, d0: float, alpha_pl: float):
    """Distance-based gain ``(d0 / d) ** alpha_pl``.

    Accepts scalars or arrays.  Distances must be strictly positive (not
    NaN).
    """
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):
        raise ValueError("pathloss requires strictly positive distances")
    if not d0 > 0:
        raise ValueError("pathloss requires a strictly positive reference distance d0")
    out = _gain(d, d0, alpha_pl)
    return float(out) if out.ndim == 0 else out


def _gain(d: np.ndarray, d0: float, alpha_pl: float) -> np.ndarray:
    """:func:`pathloss` of distances and a reference distance already known
    to be positive."""
    return (d0 / d) ** alpha_pl


def build_fading(layout: CellLayout, params: SystemParams) -> np.ndarray:
    """Large-scale fading tensor ``beta[j, k, l]`` for a layout.

    Every entry is the pathloss gain over the BS-to-user distance.  Raises if
    the layout dimensions disagree with ``params`` or if a user sits exactly
    on a BS.
    """
    return fading_stack(layout.bs[None], layout.users[None], params)[0]


def fading_stack(bs: np.ndarray, users: np.ndarray, params: SystemParams) -> np.ndarray:
    """Fading tensors of G layouts in one pass, from their (G, L, 2) BS and
    (G, L, K, 2) user positions, as a (G, L, K, L) array whose row g is
    :func:`build_fading` of layout g."""
    if bs.shape[1] != params.L:
        raise ValueError(f"layout has {bs.shape[1]} cells but params.L = {params.L}")
    if users.shape[2] != params.K:
        raise ValueError(f"layout has {users.shape[2]} users per cell but "
                         f"params.K = {params.K}")
    # numpy's status check on each operation catches an overflow, at no
    # extra pass over the data
    with np.errstate(over="raise", invalid="raise"):
        try:
            # diff[g, j, l, k] = user k of cell l relative to BS j
            diff = users[:, None, :, :, :] - bs[:, :, None, None, :]
            # np.linalg.norm of real input, without its wrapper and conj copy
            dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))  # [g, j, l, k]
        except FloatingPointError:
            raise ValueError("a BS-to-user distance overflows: "
                             "positions are too large") from None
        if (dist <= 0.0).any():
            raise ValueError("a user is co-located with a BS; distances must be positive")
        try:
            beta = _gain(dist, params.d0, params.alpha_pl)
        except FloatingPointError:
            raise ValueError("a pathloss gain overflows: a user is too close to a BS") from None
    return np.ascontiguousarray(beta.transpose(0, 1, 3, 2))  # -> [g, j, k, l]


def _trig(angle_deg):
    """cos and sin of an angle in degrees, from ``math`` trig on each value,
    as numpy's trig can differ in the last bit: of a number, or of each
    entry of an array."""
    if not isinstance(angle_deg, np.ndarray):
        phi = math.radians(angle_deg)
        return math.cos(phi), math.sin(phi)
    phi = [math.radians(a) for a in angle_deg.tolist()]
    return np.array([math.cos(a) for a in phi]), np.array([math.sin(a) for a in phi])


def _check_recipes(*checks) -> None:
    """Raise the error of the first failing recipe, as checking one recipe
    after the other would.  ``checks`` are (bad, value, message) in the
    order one recipe is checked; ``bad`` and ``value`` are a truth value
    and a number that hold for every recipe, or (G,) arrays with one entry
    per recipe; ``message`` formats the failing value."""
    first = None
    for bad, value, message in checks:
        if bad is False:
            continue
        if not isinstance(bad, np.ndarray):
            if bad:  # fails every recipe, the first one included
                if first is None or first[0] > 0:
                    first = (0, message.format(value))
                break
        elif bad.any():
            g = int(bad.argmax())
            if first is None or g < first[0]:
                first = (g, message.format(float(value[g])))
    if first is not None:
        raise ValueError(first[1])


_BAD_X = "cell radius 'x' must be positive, got {!r}"
_BAD_SPACING = "BS spacing 'spacing' must be positive, got {!r}"
_BAD_THETA = "'theta_deg' must be in [0, 360], got {!r}"
_BAD_ANGLE = "math domain error"  # what math.cos raises for an infinite angle


def _mirrored_pair(center_a, center_b, radius, angle_deg):
    """User points for two cells that mirror each other across their bisector.

    The angle is measured at each BS from the ray pointing toward the other
    BS, so 0 deg places the user between the BSs and 180 deg on the outer
    edge.  Both cells use the same angle, mirrored, which keeps the layout
    symmetric.
    """
    cos, sin = _trig(angle_deg)
    ux = radius * cos
    uy = radius * sin
    pa = (center_a[0] + ux, center_a[1] + uy)
    pb = (center_b[0] - ux, center_b[1] + uy)
    return pa, pb


def _two_cell_points(x, spacing, user_angle_deg=180.0):
    """BS points and one user point per cell of :func:`two_cell_layout`."""
    _check_recipes((x <= 0, x, _BAD_X), (spacing <= 0, spacing, _BAD_SPACING),
                   (abs(user_angle_deg) == math.inf, user_angle_deg, _BAD_ANGLE))
    bs = ((0.0, 0.0), (spacing, 0.0))
    return bs, _mirrored_pair(*bs, x, user_angle_deg)


def _three_cell_points(x, spacing=None, theta_deg=90.0, outer_angle_deg=180.0):
    """BS points and one user point per cell of :func:`three_cell_layout`."""
    if spacing is None:
        spacing = 2.0 * x
    _check_recipes((x <= 0, x, _BAD_X), (spacing <= 0, spacing, _BAD_SPACING),
                   # not 0 <= theta_deg <= 360, nan included
                   ((theta_deg < 0.0) | (theta_deg > 360.0) | (theta_deg != theta_deg),
                    theta_deg, _BAD_THETA),
                   (abs(outer_angle_deg) == math.inf, outer_angle_deg, _BAD_ANGLE))
    bs = ((0.0, 0.0), (spacing, 0.0), (2.0 * spacing, 0.0))
    p_left, p_right = _mirrored_pair(bs[0], bs[2], x, outer_angle_deg)
    cos, sin = _trig(theta_deg)
    p_mid = (spacing - x * cos, x * sin)
    return bs, (p_left, p_mid, p_right)


_RECIPES = {"two_cell": (2, _two_cell_points), "three_cell": (3, _three_cell_points)}


def _point_array(points, G: int | None) -> np.ndarray:
    """The (G, n, 2) array of n points: with G None, of one layout whose
    coordinates are numbers; else of G layouts, each coordinate a number
    or a (G,) array."""
    if G is None:
        return np.array([points], dtype=float)
    out = np.empty((G, len(points), 2))
    for l, (px, py) in enumerate(points):
        out[:, l, 0] = px
        out[:, l, 1] = py
    return out


def layout_stack(kind: str, users_per_cell: int, **recipe) -> tuple[np.ndarray, np.ndarray]:
    """BS positions (G, L, 2) and user positions (G, L, K, 2) of G canonical
    layouts.

    ``kind`` is ``two_cell`` or ``three_cell``, and ``recipe`` holds the
    keyword arguments of :func:`two_cell_layout` or
    :func:`three_cell_layout` other than ``users_per_cell``, which are
    this function's G = 1 views.  Each argument is a number, or a (G,)
    array of one value per layout (a sweep's moving axis).  The layouts
    are formed with numpy's + - * on those arrays, which round as Python's
    float operations do, and ``math`` trig on each value of a moving angle,
    as numpy's trig can differ in the last bit; so row g equals the layout
    built from the numbers of recipe g to the bit.  The recipe's checks
    run on every layout, and an error names the first failing one.
    """
    if kind not in _RECIPES:
        raise ValueError(f"unknown layout kind {kind!r}")
    if not isinstance(users_per_cell, numbers.Integral):
        raise ValueError(f"users_per_cell must be an integer, got {users_per_cell!r}")
    if isinstance(users_per_cell, bool) or users_per_cell < 1:
        raise ValueError("users_per_cell must be >= 1")
    L, points = _RECIPES[kind]
    _check_links(L, users_per_cell)
    G = None
    for value in recipe.values():
        if isinstance(value, np.ndarray):
            G = len(value)
    if G is None:
        bs, users = points(**recipe)
    else:
        # numpy warns where Python's float operations overflow silently
        with np.errstate(over="ignore", invalid="ignore"):
            bs, users = points(**recipe)
    users = _point_array(users, G)
    # each user point repeated K times in a row is the (G, L, K, 2) array
    users = users.repeat(users_per_cell, axis=1).reshape(len(users), L, users_per_cell, 2)
    return _point_array(bs, G), users


def two_cell_layout(x: float, spacing: float, user_angle_deg: float = 180.0,
                    users_per_cell: int = 1) -> CellLayout:
    """Symmetric two-cell layout: BSs ``spacing`` apart, users at radius ``x``.

    All users of a cell are co-located at distance ``x`` from their BS, at
    ``user_angle_deg`` measured from the ray toward the other BS (mirrored in
    the second cell).  The default 180 deg puts users on the outer cell edge,
    so the cross-cell distance is ``spacing + x``; 0 deg ("facing") gives a
    cross distance of ``spacing - x``.
    """
    bs, users = layout_stack("two_cell", users_per_cell, x=x, spacing=spacing,
                             user_angle_deg=user_angle_deg)
    return CellLayout(bs[0], users[0])


def three_cell_layout(x: float, spacing: float | None = None, theta_deg: float = 90.0,
                      outer_angle_deg: float = 180.0, users_per_cell: int = 1) -> CellLayout:
    """Three collinear cells with a movable middle-cell user position.

    BSs sit on a horizontal axis ``spacing`` apart (default ``2 * x``, i.e.
    adjacent circles of radius ``x``).  Outer-cell users are co-located at
    radius ``x`` and angle ``outer_angle_deg`` from the ray toward the middle
    BS; the default 180 deg is the outermost edge point, the farthest from
    all BSs.  Middle-cell users sit on the cell edge at ``theta_deg`` measured
    from the ray toward BS 0, so theta = 0 is nearest cell 0 and theta = 180
    nearest cell 2.  The layout for theta and 360 - theta is mirror-identical.
    """
    bs, users = layout_stack("three_cell", users_per_cell, x=x, spacing=spacing,
                             theta_deg=theta_deg, outer_angle_deg=outer_angle_deg)
    return CellLayout(bs[0], users[0])
