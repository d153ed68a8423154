"""The finite-difference tendency kernel (AGCM/Dynamics inner loop).

Computes the time tendencies of all prognostic variables on one
halo-padded block.  The discretisation is the classic C-grid scheme:

* flux-form continuity for the layer mass field ``pt`` (conserves the
  global integral exactly; the meridional flux is weighted by the face
  cosine, which vanishes at the poles and closes the domain);
* momentum equations with Coriolis, geopotential gradient
  (``PHI_SCALE * pt / PT_REFERENCE``) and centred advection;
* advective transport for the humidity tracer ``q``;
* a weak del-squared diffusion for numerical stability (configurable);
* ``ps`` relaxes with the layer-mean mass tendency.

Everything is a vectorised numpy operation over the padded block, written
into a reusable :class:`TendencyWorkspace` — the "production" kernel.
The deliberately *unoptimised* variants the paper's single-node study
starts from live in :mod:`repro.perf.advection_opt`.

The virtual machine does not charge this kernel's own arithmetic: it
charges ``AGCM_FLOPS_PER_POINT_LAYER`` (1550), the calibrated workload of
the full UCLA AGCM Dynamics, per grid point and layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import constants as c
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.state import PHI_SCALE, PT_REFERENCE


#: Calibrated per-point-layer workload of the full UCLA AGCM Dynamics,
#: charged to the virtual machine.  The full model evaluates far more than
#: the reduced kernel (full primitive equations, vertical differencing,
#: energy conversion, moist terms); 1550 reproduces the paper's measured
#: serial rate (8702 s/simulated-day for the 144 x 90 x 9 grid on a
#: ~6 Mflop/s Paragon node implies ~1800 flops per point-layer-step for
#: Dynamics including its filter).  See DESIGN.md's substitution notes.
AGCM_FLOPS_PER_POINT_LAYER = 1550.0


@dataclass(frozen=True)
class DynamicsParams:
    """Tunable parameters of the dynamical core."""

    #: Horizontal del-squared diffusion coefficient [m^2/s].
    diffusion: float = 8.0e4

    #: Geopotential scale (gravity-wave speed squared) [m^2/s^2].
    phi_scale: float = PHI_SCALE


class TendencyWorkspace:
    """Scratch memory of :func:`compute_tendencies` for one interior shape.

    Four interior-shaped arrays plus the two flux buffers.  The kernel
    leaves nothing in them that a later call reads, so one workspace may
    serve any number of blocks of its shape, one call after another —
    in a simulated run, every rank of one tile shape, because the kernel
    never yields.
    """

    def __init__(self, nlat: int, nlon: int, nlayers: int):
        self.shape = (nlat, nlon, nlayers)
        self.scratch = tuple(np.empty(self.shape) for _ in range(4))
        #: Zonal mass flux through the east faces, interior rows only.
        self.fx = np.empty((nlat, nlon + 1, nlayers))
        #: Meridional mass flux through the north faces, interior columns.
        self.fy = np.empty((nlat + 1, nlon, nlayers))


# Interior points of a halo-1 padded array and their four neighbours.
_C = (slice(1, -1), slice(1, -1))
_E = (slice(1, -1), slice(2, None))
_W = (slice(1, -1), slice(None, -2))
_N = (slice(2, None), slice(1, -1))
_S = (slice(None, -2), slice(1, -1))


def compute_tendencies(
    padded: Dict[str, np.ndarray],
    geom: LocalGeometry,
    params: DynamicsParams = DynamicsParams(),
    workspace: Optional[TendencyWorkspace] = None,
) -> Dict[str, np.ndarray]:
    """Tendencies of all prognostics on the interior of a padded block.

    Parameters
    ----------
    padded:
        ``{"u", "v", "pt", "q": (n+2, m+2, K), "ps": (n+2, m+2, 1)}``
        halo-1 padded local fields.
    geom:
        The block's :class:`LocalGeometry` (padded-row metrics).
    workspace:
        A :class:`TendencyWorkspace` of the block's interior shape to
        reuse; without one the call makes its own.

    Returns
    -------
    dict of interior-shaped tendency arrays, same keys as ``padded``,
    each freshly allocated (the caller owns them).

    Every intermediate is written with ``out=`` into the workspace, so a
    call streams through a handful of cache-resident arrays instead of
    allocating one per operator.  Each element still sees the IEEE
    operations of the textbook expression (quoted beside each group) in
    the same order; ``tests/dynamics/test_tendencies.py`` holds that
    expression form as the byte-for-byte oracle.
    """
    u, v, pt, q = padded["u"], padded["v"], padded["pt"], padded["q"]
    shape = (u.shape[0] - 2, u.shape[1] - 2, u.shape[2])
    if workspace is None:
        workspace = TendencyWorkspace(*shape)
    elif workspace.shape != shape:
        raise ValueError(
            f"workspace of shape {workspace.shape} given a block of {shape}"
        )
    s, t, w, _ = scratch = workspace.scratch
    fx, fy = workspace.fx, workspace.fy
    g = geom.stencil
    dy = geom.dy
    two_dy = 2.0 * dy
    dy_sq = dy ** 2
    # Latitude-scaled diffusion coefficient (see LocalGeometry.diff_scale).
    nu = params.diffusion * g.diff_scale
    phi_fac = params.phi_scale / PT_REFERENCE

    # ---- continuity: flux-form mass transport -------------------------
    # fx = u * (0.5 * (pt + pt_east)) at the east face of every padded
    # column but the last; dpt = -((fx - fx_west) / dx + div_y).
    np.add(pt[1:-1, :-1], pt[1:-1, 1:], out=fx)
    fx *= 0.5
    fx *= u[1:-1, :-1]
    dpt = np.subtract(fx[:, 1:], fx[:, :-1])
    dpt /= g.dx_c
    # fy = v * (0.5 * (pt + pt_north)) * cos_n through the north face of
    # every padded row but the last: the face cosine is zero at the poles
    # and closes the domain.  div_y = (fy - fy_south) / (cos * dy).
    np.add(pt[:-1, 1:-1], pt[1:, 1:-1], out=fy)
    fy *= 0.5
    fy *= v[:-1, 1:-1]
    fy *= g.cos_n
    np.subtract(fy[1:], fy[:-1], out=s)
    s /= g.cos_dy
    dpt += s
    np.negative(dpt, out=dpt)
    # pt diffusion stabilises the mass field.
    _add_diffusion(pt, g.dx_c_sq, dy_sq, nu, scratch, dpt)

    # ---- u momentum (u points = east faces) ----------------------------
    # du = f*v4 - phi_fac*(pt_east - pt)/dx - (u*du_dx + v4*du_dy) + diff
    np.add(v[_C], v[_E], out=w)  # v4: the four v points around a u point
    w += v[_S]
    w += v[:-2, 2:]
    w *= 0.25
    du = np.multiply(g.f_c, w)
    np.subtract(pt[_E], pt[_C], out=s)
    s *= phi_fac
    s /= g.dx_c
    du -= s
    np.subtract(u[_E], u[_W], out=s)
    s /= g.two_dx_c
    s *= u[_C]
    np.subtract(u[_N], u[_S], out=t)
    t /= two_dy
    t *= w
    s += t
    du -= s
    _add_diffusion(u, g.dx_c_sq, dy_sq, nu, scratch, du)

    # ---- v momentum (v points = north faces) ---------------------------
    # dv = -f_n*u4 - phi_fac*(pt_north - pt)/dy - (u4*dv_dx + v*dv_dy) + diff
    np.add(u[_C], u[_W], out=w)  # u4: the four u points around a v point
    w += u[_N]
    w += u[2:, :-2]
    w *= 0.25
    dv = np.multiply(g.neg_f_n, w)
    np.subtract(pt[_N], pt[_C], out=s)
    s *= phi_fac
    s /= dy
    dv -= s
    np.subtract(v[_E], v[_W], out=s)
    s /= g.two_dx_n
    s *= w
    np.subtract(v[_N], v[_S], out=t)
    t /= two_dy
    t *= v[_C]
    s += t
    dv -= s
    _add_diffusion(v, g.dx_n_sq, dy_sq, nu, scratch, dv)
    # No flow through the poles: zero the tendency where the face cosine
    # vanishes (the top row of the northernmost block).
    if g.polar.size:
        dv[g.polar] = 0.0

    # ---- humidity tracer (advective form at centres) --------------------
    # dq = -(u_ctr*(q_east - q_west)/(2 dx) + v_ctr*(q_north - q_south)/(2 dy))
    np.add(u[_C], u[_W], out=w)
    w *= 0.5
    np.subtract(q[_E], q[_W], out=s)
    s *= w
    s /= g.two_dx_c
    np.add(v[_C], v[_S], out=w)
    w *= 0.5
    np.subtract(q[_N], q[_S], out=t)
    t *= w
    t /= two_dy
    dq = np.add(s, t)
    np.negative(dq, out=dq)
    _add_diffusion(q, g.dx_c_sq, dy_sq, nu, scratch, dq)

    # ---- surface pressure proxy -------------------------------------------
    dps = surface_pressure_tendency(dpt)

    return {"u": du, "v": dv, "pt": dpt, "q": dq, "ps": dps}


def _add_diffusion(p, dx_sq, dy_sq, nu, scratch, out) -> None:
    """``out += nu * laplacian5(p)``: the five-point del-squared of
    :func:`repro.dynamics.operators.laplacian5`, ``2 * centre`` formed
    once for both directions."""
    s, t, _, two_c = scratch
    np.multiply(p[_C], 2.0, out=two_c)
    np.subtract(p[_E], two_c, out=s)
    s += p[_W]
    s /= dx_sq
    np.subtract(p[_N], two_c, out=t)
    t += p[_S]
    t /= dy_sq
    s += t
    s *= nu
    out += s


def surface_pressure_tendency(dpt: np.ndarray) -> np.ndarray:
    """The ``ps`` closure: relaxation with the layer-mean mass tendency.

    The one place the tendency kernel couples the vertical.  Factored out
    so the 3-D decomposition can evaluate it on pillar-assembled full-K
    columns with the exact same reduction (same values, same layer order,
    same numpy pairwise mean) as the serial and 2-D paths — keeping the
    3-D program bit-identical.  ``dpt`` must carry **all** model layers
    on axis 2, ordered bottom to top.
    """
    return (c.P_REFERENCE / PT_REFERENCE) * dpt.mean(axis=2, keepdims=True)


def dynamics_flops(npoints: int, nlayers: int) -> float:
    """Flops charged for one tendency evaluation on ``npoints`` columns.

    Uses the calibrated full-AGCM workload, not the reduced kernel's own
    arithmetic count (see :data:`AGCM_FLOPS_PER_POINT_LAYER`).
    """
    return AGCM_FLOPS_PER_POINT_LAYER * npoints * nlayers


def dynamics_mem_bytes(npoints: int, nlayers: int) -> float:
    """Approximate memory traffic of one tendency evaluation [bytes].

    Five prognostic arrays read plus five tendency arrays written, with a
    ~3x reuse factor for the stencil neighbours.
    """
    return 8.0 * npoints * nlayers * (5 + 5) * 3.0
