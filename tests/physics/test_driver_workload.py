"""Tests for the physics driver and workload estimation."""

import numpy as np
import pytest

from repro.dynamics.state import PT_REFERENCE
from repro.physics.driver import (
    ColumnSet,
    PhysicsParams,
    block_physics,
    run_physics,
)
from repro.physics.workload import column_flops


@pytest.fixture
def cols(rng):
    ncol, k = 30, 5
    return ColumnSet(
        pt=PT_REFERENCE + rng.standard_normal((ncol, k)),
        q=0.01 * rng.random((ncol, k)),
        lat_rad=rng.uniform(-1.4, 1.4, ncol),
        lon_rad=rng.uniform(0, 6.28, ncol),
    )


class TestColumnSet:
    def test_from_block_roundtrip(self, rng):
        nlat, nlon, k = 4, 6, 3
        pt = rng.standard_normal((nlat, nlon, k))
        q = rng.standard_normal((nlat, nlon, k))
        lat = rng.uniform(-1, 1, nlat)
        lon = rng.uniform(0, 6, nlon)
        cs = ColumnSet.from_block(pt, q, lat, lon)
        assert cs.ncol == nlat * nlon
        np.testing.assert_array_equal(
            cs.pt.reshape(nlat, nlon, k), pt
        )
        # Column (j, i) carries lat[j], lon[i] (lat-major flattening).
        assert cs.lat_rad[nlon + 2] == lat[1]
        assert cs.lon_rad[nlon + 2] == lon[2]

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ColumnSet(
                pt=np.zeros((3, 2)),
                q=np.zeros((4, 2)),
                lat_rad=np.zeros(3),
                lon_rad=np.zeros(3),
            )

    def test_subset(self, cols):
        idx = np.array([0, 5, 7])
        sub = ColumnSet(pt=cols.pt[idx], q=cols.q[idx],
                        lat_rad=cols.lat_rad[idx], lon_rad=cols.lon_rad[idx])
        assert sub.ncol == 3
        np.testing.assert_array_equal(sub.pt[1], cols.pt[5])


class TestDriver:
    def test_deterministic(self, cols):
        r1 = run_physics(cols, 0.3, 12)
        r2 = run_physics(cols, 0.3, 12)
        np.testing.assert_array_equal(r1.tend_pt, r2.tend_pt)
        np.testing.assert_array_equal(r1.flops, r2.flops)

    def test_flops_match_workload_estimator(self, cols):
        """The driver's accounting and the LB estimator must agree —
        otherwise the balancer would chase the wrong quantity."""
        params = PhysicsParams()
        result = run_physics(cols, 0.4, 9, params)
        estimate = column_flops(cols, 0.4, 9, params)
        np.testing.assert_allclose(result.flops, estimate)

    def test_day_night_cost_difference(self, rng):
        k = 5
        base = dict(
            pt=np.full((2, k), PT_REFERENCE),
            q=np.full((2, k), 1e-3),
            lat_rad=np.zeros(2),
            lon_rad=np.array([0.0, np.pi]),  # noon vs midnight at t=0.5
        )
        cs = ColumnSet(**base)
        result = run_physics(cs, 0.5, 0)
        assert result.flops[0] > result.flops[1]

    def test_block_interface_consistent(self, rng):
        nlat, nlon, k = 5, 8, 4
        pt = PT_REFERENCE + rng.standard_normal((nlat, nlon, k))
        q = 0.01 * rng.random((nlat, nlon, k))
        lat = rng.uniform(-1, 1, nlat)
        lon = rng.uniform(0, 6, nlon)
        tp, tq, fl = block_physics(pt, q, lat, lon, 0.3, 2)
        cs = ColumnSet.from_block(pt, q, lat, lon)
        ref = run_physics(cs, 0.3, 2)
        np.testing.assert_array_equal(tp.reshape(-1, k), ref.tend_pt)
        np.testing.assert_array_equal(fl.ravel(), ref.flops)

    def test_total_flops(self, cols):
        result = run_physics(cols, 0.2, 1)
        assert result.total_flops == pytest.approx(result.flops.sum())

    def test_tendencies_finite(self, cols):
        result = run_physics(cols, 0.7, 30)
        assert np.isfinite(result.tend_pt).all()
        assert np.isfinite(result.tend_q).all()
