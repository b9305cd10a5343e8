import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcmimo import (CellLayout, SystemParams, build_fading, pathloss,
                    three_cell_layout, two_cell_layout)
from mcmimo import network
from mcmimo.network import MAX_LINKS, fading_stack


def params_for(layout, **kw):
    defaults = dict(L=layout.bs.shape[0], K=layout.users.shape[1], M=100.0,
                    rho_u=30.0, rho_p=120.0, alpha_pl=2.0, d0=100.0)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestPathloss:
    @pytest.mark.parametrize("d,expected", [(100.0, 1.0), (200.0, 0.25), (400.0, 0.0625)])
    def test_reference_values(self, d, expected):
        assert pathloss(d, 100.0, 2.0) == pytest.approx(expected, rel=1e-15)

    def test_strictly_decreasing(self):
        d = np.linspace(50.0, 5000.0, 200)
        g = pathloss(d, 100.0, 2.7)
        assert np.all(np.diff(g) < 0)

    def test_flat_for_zero_exponent(self):
        assert pathloss(123.0, 100.0, 0.0) == 1.0

    @pytest.mark.parametrize("bad_d", [0.0, -5.0, math.nan, [50.0, math.nan]])
    def test_nonpositive_distance_rejected(self, bad_d):
        with pytest.raises(ValueError, match="distances"):
            pathloss(bad_d, 100.0, 2.0)

    @pytest.mark.parametrize("bad_d0", [0.0, math.nan])
    def test_nonpositive_reference_rejected(self, bad_d0):
        with pytest.raises(ValueError, match="reference distance"):
            pathloss(50.0, bad_d0, 2.0)


class TestBuildFading:
    def test_hand_computed_two_cell(self):
        # BSs at (0,0) and (800,0); one user per cell straight above its BS.
        layout = CellLayout(
            bs=np.array([[0.0, 0.0], [800.0, 0.0]]),
            users=np.array([[[0.0, 400.0]], [[800.0, 400.0]]]),
        )
        beta = build_fading(layout, params_for(layout))
        # own link: 400 m -> (100/400)^2
        assert beta[0, 0, 0] == pytest.approx(0.0625, rel=1e-14)
        # cross link distance from plain geometry
        d_cross = math.hypot(800.0, 400.0)
        assert beta[0, 0, 1] == pytest.approx((100.0 / d_cross) ** 2, rel=1e-14)
        # mirrored layout: swapping BS and cell indices leaves beta invariant
        assert beta[1, 0, 1] == pytest.approx(beta[0, 0, 0], rel=1e-14)
        assert beta[1, 0, 0] == pytest.approx(beta[0, 0, 1], rel=1e-14)

    def test_single_cell_at_reference_distance(self):
        layout = CellLayout(bs=np.array([[0.0, 0.0]]), users=np.array([[[100.0, 0.0]]]))
        beta = build_fading(layout, params_for(layout))
        assert beta[0, 0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_colocated_user_rejected(self):
        layout = CellLayout(bs=np.array([[0.0, 0.0], [500.0, 0.0]]),
                            users=np.array([[[0.0, 0.0]], [[400.0, 0.0]]]))
        with pytest.raises(ValueError, match="co-located"):
            build_fading(layout, params_for(layout))

    def test_dimension_mismatch_rejected(self):
        layout = two_cell_layout(300.0, 700.0, users_per_cell=2)
        with pytest.raises(ValueError, match="params.K"):
            build_fading(layout, params_for(layout, K=3))
        with pytest.raises(ValueError, match="params.L"):
            build_fading(layout, params_for(layout, L=3, K=2))


def norm_fading(bs, users, params):
    """The fading stack as ``pathloss(np.linalg.norm(diff))``, transposed to
    [g, j, k, l]."""
    diff = users[:, None, :, :, :] - bs[:, :, None, None, :]
    with np.errstate(over="raise", invalid="raise"):
        gain = pathloss(np.linalg.norm(diff, axis=-1), params.d0, params.alpha_pl)
    return np.ascontiguousarray(gain.transpose(0, 1, 3, 2))


@st.composite
def position_stacks(draw):
    """(G, L, 2) BS and (G, L, K, 2) user positions at a scale from meters
    to positions whose squared distances overflow."""
    G, L, K = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6, 1e150, 1e160]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    bs = draw(arrays(float, (G, L, 2), elements=unit)) * scale
    users = draw(arrays(float, (G, L, K, 2), elements=unit)) * scale
    return bs, users


class TestFadingStack:
    @settings(max_examples=150)
    @given(position_stacks(), st.floats(0.0, 6.0), st.floats(1.0, 500.0))
    def test_equals_pathloss_of_norm_to_the_byte(self, positions, alpha_pl, d0):
        bs, users = positions
        G, L, K, _ = users.shape
        params = SystemParams(L=L, K=K, M=100.0, rho_u=30.0, rho_p=120.0,
                              alpha_pl=alpha_pl, d0=d0)
        try:
            want = norm_fading(bs, users, params)
        except FloatingPointError:
            with pytest.raises(ValueError) as exc:
                fading_stack(bs, users, params)
            assert str(exc.value) in ("a BS-to-user distance overflows: positions are too large",
                                      "a pathloss gain overflows: a user is too close to a BS")
            return
        except ValueError:  # a user on a BS
            with pytest.raises(ValueError, match="co-located"):
                fading_stack(bs, users, params)
            return
        got = fading_stack(bs, users, params)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bs, user, message", [
        ([0.0, 0.0], [1e200, 0.0], "a BS-to-user distance overflows: positions are too large"),
        ([1e308, 0.0], [-1e308, 0.0],
         "a BS-to-user distance overflows: positions are too large"),
        ([0.0, 0.0], [1e-156, 0.0], "a pathloss gain overflows: a user is too close to a BS"),
    ])
    def test_overflow_is_one_value_error(self, bs, user, message):
        params = SystemParams(L=1, K=1, M=100.0, rho_u=30.0, rho_p=120.0)
        with pytest.raises(ValueError) as exc:
            fading_stack(np.array([[bs]]), np.array([[[user]]]), params)
        assert str(exc.value) == message


class TestTwoCellLayout:
    def test_facing_users_meet_between_bss(self):
        # angle 0 points at the other BS: own distance x, cross distance d - x
        for x, d, cross in [(400.0, 800.0, 400.0), (250.0, 500.0, 250.0),
                            (200.0, 500.0, 300.0)]:
            layout = two_cell_layout(x, d, user_angle_deg=0.0)
            own = np.linalg.norm(layout.users[0, 0] - layout.bs[0])
            other = np.linalg.norm(layout.users[0, 0] - layout.bs[1])
            assert own == pytest.approx(x, rel=1e-12)
            assert other == pytest.approx(cross, rel=1e-12)

    def test_default_outer_edge(self):
        layout = two_cell_layout(400.0, 800.0)
        own = np.linalg.norm(layout.users[0, 0] - layout.bs[0])
        cross = np.linalg.norm(layout.users[0, 0] - layout.bs[1])
        assert own == pytest.approx(400.0, rel=1e-12)
        assert cross == pytest.approx(1200.0, rel=1e-12)

    def test_mirror_symmetry_of_fading(self):
        layout = two_cell_layout(300.0, 700.0, user_angle_deg=120.0, users_per_cell=3)
        beta = build_fading(layout, params_for(layout))
        np.testing.assert_allclose(beta[0, :, 0], beta[1, :, 1], rtol=1e-13)
        np.testing.assert_allclose(beta[0, :, 1], beta[1, :, 0], rtol=1e-13)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            two_cell_layout(-1.0, 500.0)
        with pytest.raises(ValueError, match="spacing"):
            two_cell_layout(100.0, 0.0)


class TestThreeCellLayout:
    def test_collinear_theta_zero(self):
        layout = three_cell_layout(400.0, 800.0, theta_deg=0.0)
        mid = layout.users[1, 0]
        assert np.linalg.norm(mid - layout.bs[0]) == pytest.approx(400.0, rel=1e-12)
        assert np.linalg.norm(mid - layout.bs[2]) == pytest.approx(1200.0, rel=1e-12)

    def test_collinear_theta_180_mirrors_zero(self):
        layout = three_cell_layout(400.0, 800.0, theta_deg=180.0)
        mid = layout.users[1, 0]
        assert np.linalg.norm(mid - layout.bs[2]) == pytest.approx(400.0, rel=1e-12)
        assert np.linalg.norm(mid - layout.bs[0]) == pytest.approx(1200.0, rel=1e-12)

    def test_theta_90_distances(self):
        # middle user sits straight above the middle BS; outer-BS distance
        # follows from the right triangle with legs (spacing, x)
        layout = three_cell_layout(400.0, 800.0, theta_deg=90.0)
        mid = layout.users[1, 0]
        expected = math.hypot(800.0, 400.0)
        assert np.linalg.norm(mid - layout.bs[0]) == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(mid - layout.bs[2]) == pytest.approx(expected, rel=1e-12)

    def test_outer_users_on_farthest_edge(self):
        layout = three_cell_layout(400.0, 800.0)
        assert np.allclose(layout.users[0, 0], [-400.0, 0.0])
        assert np.allclose(layout.users[2, 0], [2000.0, 0.0])

    def test_default_spacing_is_twice_radius(self):
        layout = three_cell_layout(300.0)
        assert np.linalg.norm(layout.bs[1] - layout.bs[0]) == pytest.approx(600.0)

    def test_theta_mirror_symmetry(self):
        for theta in (30.0, 75.0, 145.0):
            la = three_cell_layout(400.0, 800.0, theta_deg=theta, users_per_cell=2)
            lb = three_cell_layout(400.0, 800.0, theta_deg=360.0 - theta, users_per_cell=2)
            ba = build_fading(la, params_for(la))
            bb = build_fading(lb, params_for(lb))
            np.testing.assert_allclose(ba, bb, rtol=1e-13)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            three_cell_layout(400.0, 800.0, theta_deg=400.0)


class TestSystemParams:
    @pytest.mark.parametrize("field,value", [
        ("L", 0), ("K", -1), ("M", 0.0), ("rho_u", 0.0), ("rho_p", -2.0),
        ("alpha_pl", -0.5), ("d0", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        kwargs = dict(L=2, K=4, M=64, rho_u=30.0, rho_p=120.0, alpha_pl=2.0,
                      d0=100.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("field", ["M", "rho_u", "rho_p", "alpha_pl", "d0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        kwargs = dict(L=2, K=4, M=64, rho_u=30.0, rho_p=120.0, alpha_pl=2.0,
                      d0=100.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)


class TestLinkLimit:
    """A network's L * L * K BS-user links are bounded before its fading,
    layouts or anything else sized by them is allocated."""

    @staticmethod
    def message(L, K):
        return (f"a network of L={L} cells with K={K} users each has {L * L * K} "
                f"BS-user links; at most {MAX_LINKS} are allowed")

    def test_rings_of_160_cells_and_4_users_pass(self):
        assert SystemParams(L=160, K=4, M=3e4, rho_u=30.0, rho_p=120.0).K == 4
        assert SystemParams(L=2, K=MAX_LINKS // 4, M=64, rho_u=30.0, rho_p=120.0)

    @pytest.mark.parametrize("L, K", [(2, 10 ** 9), (5000, 4), (5000, 1),
                                      (2, MAX_LINKS // 4 + 1)])
    def test_params_refused(self, L, K):
        with pytest.raises(ValueError) as exc:
            SystemParams(L=L, K=K, M=64, rho_u=30.0, rho_p=120.0)
        assert str(exc.value) == self.message(L, K)

    @pytest.mark.parametrize("build, L", [(two_cell_layout, 2), (three_cell_layout, 3)])
    def test_layouts_refused_before_allocation(self, build, L, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated a layout past the link limit")

        monkeypatch.setattr(network, "_point_array", fail)
        monkeypatch.setattr(np, "repeat", fail)
        with pytest.raises(ValueError) as exc:
            build(400.0, 800.0, users_per_cell=10 ** 9)
        assert str(exc.value) == self.message(L, 10 ** 9)


class TestLayoutSerialization:
    def test_round_trip(self):
        layout = three_cell_layout(350.0, 900.0, theta_deg=42.0, users_per_cell=2)
        again = CellLayout.from_dict(layout.to_dict())
        np.testing.assert_array_equal(layout.bs, again.bs)
        np.testing.assert_array_equal(layout.users, again.users)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="user_positions"):
            CellLayout.from_dict({"bs_positions": [[0.0, 0.0]]})


class TestExplicitPositions:
    BS = [[0.0, 0.0], [500.0, 0.0]]
    USERS = [[[100.0, 0.0]], [[600.0, 0.0]]]

    @classmethod
    def positions(cls, which, value):
        """The BS and user position lists with one coordinate of ``which``
        replaced by ``value``."""
        bs, users = copy.deepcopy(cls.BS), copy.deepcopy(cls.USERS)
        if which == "bs":
            bs[0][1] = value
        else:
            users[1][0][1] = value
        return bs, users

    @pytest.mark.parametrize("which", ["bs", "user"])
    @pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_booleans_in_lists_are_no_numbers(self, which, value):
        # np.asarray makes [0, True] the int array [0, 1]
        with pytest.raises(ValueError) as exc:
            CellLayout(*self.positions(which, value))
        assert str(exc.value) == f"{which} positions must be numbers"

    @pytest.mark.parametrize("convert", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("which", ["bs", "user"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, which, value, convert):
        with pytest.raises(ValueError) as exc:
            CellLayout(*map(convert, self.positions(which, value)))
        assert str(exc.value) == f"{which} positions must be finite"

    def test_arrays_are_not_scanned(self, monkeypatch):
        # a sweep rebuilds layouts from arrays, whose dtype tells already
        def fail(points):
            raise AssertionError("scanned an array entry by entry")

        monkeypatch.setattr(network, "_holds_bool", fail)
        layout = CellLayout(np.array(self.BS), np.array(self.USERS, dtype=np.int64))
        assert layout.users.dtype == np.float64
        with pytest.raises(ValueError, match="bs positions must be numbers"):
            CellLayout(np.array([[True, False], [False, True]]), np.array(self.USERS))


class TestBooleanCounts:
    # bool is an int subclass: True would count as one cell, user or antenna row
    @pytest.mark.parametrize("key", ["L", "K"])
    def test_system_params_reject_booleans(self, key):
        kw = dict(L=2, K=2, M=100.0, rho_u=30.0, rho_p=120.0)
        kw[key] = True
        with pytest.raises(ValueError, match=f"{key} must be a positive integer, got True"):
            SystemParams(**kw)

    @pytest.mark.parametrize("field", ["M", "rho_u", "rho_p", "alpha_pl", "d0"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "1e4", None, 1j, [100.0]])
    def test_system_params_reject_booleans_and_non_numbers(self, field, value):
        kw = dict(L=2, K=2, M=100.0, rho_u=30.0, rho_p=120.0)
        kw[field] = value
        with pytest.raises(ValueError) as exc:
            SystemParams(**kw)
        assert str(exc.value) == f"{field} must be a real number, got {value!r}"

    def test_system_params_accept_numpy_and_int_reals(self):
        p = SystemParams(L=2, K=2, M=np.int64(64), rho_u=np.float32(30.0), rho_p=120,
                         alpha_pl=np.float64(2.0), d0=100)
        assert (p.M, p.rho_u, p.rho_p, p.alpha_pl, p.d0) == (64, 30.0, 120, 2.0, 100)

    @pytest.mark.parametrize("build", [two_cell_layout, three_cell_layout])
    def test_layouts_reject_boolean_users_per_cell(self, build):
        with pytest.raises(ValueError, match="users_per_cell must be >= 1"):
            build(400.0, 800.0, users_per_cell=True)

    @pytest.mark.parametrize("value", [2.5, 2.0, np.True_, "2"])
    def test_layouts_reject_non_integer_users_per_cell(self, value, monkeypatch):
        # each once raised a TypeError from np.repeat or from <
        def fail(*args, **kwargs):
            raise AssertionError("allocated a layout for a non-integer user count")

        monkeypatch.setattr(network, "_point_array", fail)
        with pytest.raises(ValueError) as exc:
            two_cell_layout(400.0, 800.0, users_per_cell=value)
        assert str(exc.value) == f"users_per_cell must be an integer, got {value!r}"
        monkeypatch.undo()
        assert two_cell_layout(400.0, 800.0, users_per_cell=np.int64(2)).users.shape == (2, 2, 2)
