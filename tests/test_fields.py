import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from frontlab.fields import pchip_far_fields


def reference(x, y, left, right, xq):
    """scipy's PCHIP inside [x[0], x[-1]], the far-field constants outside."""
    inside = PchipInterpolator(x, y)(np.clip(xq, x[0], x[-1]))
    return np.where(xq < x[0], left, np.where(xq > x[-1], right, inside))


class TestPchipMatchesScipy:
    @pytest.mark.parametrize("field, left", [("phi", 1.0), ("dphi", 0.0)])
    @pytest.mark.parametrize("offset", [0.0, 0.0123456789, -7.31])
    def test_wave_profiles_bit_for_bit(self, tw_min, field, left, offset):
        y = getattr(tw_min, field)
        xq = tw_min.x - offset  # the seed's shifted nodes; 0: the nodes
        got = pchip_far_fields(tw_min.x, y, left, 0.0)(xq)
        assert np.array_equal(got, reference(tw_min.x, y, left, 0.0, xq))

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_runs_and_sign_changes_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        # steps of -1, 0 or 1 give flat runs and sign changes between
        # uneven nodes; the ends, on unit spacing, force both end clamps
        middle = 5.0 + np.cumsum(rng.integers(-1, 2, 30))
        y = np.concatenate([[0.0, 1.0, 5.0], middle,
                            middle[-1] + np.array([-9.0, -4.0, -5.0])])
        h = np.concatenate([[1.0, 1.0], rng.uniform(0.2, 2.0, 31),
                            [1.0, 1.0]])
        x = np.concatenate([[0.0], np.cumsum(h)])
        scipy_fn = PchipInterpolator(x, y)
        assert scipy_fn(x[0], nu=1) == 0.0  # the estimate's sign flipped
        assert scipy_fn(x[-1], nu=1) == 3.0 * (y[-1] - y[-2])  # overshoot
        xq = np.concatenate([rng.uniform(x[0] - 3.0, x[-1] + 3.0, 2000), x])
        got = pchip_far_fields(x, y, -2.0, 7.0)(xq)
        assert np.array_equal(got, reference(x, y, -2.0, 7.0, xq))

    def test_far_fields_outside_the_window(self, tw_min):
        fn = pchip_far_fields(tw_min.x, tw_min.phi, 1.0, 0.0)
        x0, x1 = tw_min.x[0], tw_min.x[-1]
        below = np.array([-np.inf, x0 - 100.0, np.nextafter(x0, -np.inf)])
        above = np.array([np.nextafter(x1, np.inf), x1 + 100.0, np.inf])
        assert np.all(fn(below) == 1.0)
        assert np.all(fn(above) == 0.0)
