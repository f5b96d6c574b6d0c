"""Global extension of the corner map to the whole unit cube.

The building block g is a homeomorphism of [0,1]^d that is the identity
on the cube's boundary and the canonical homothety onto the insertion
cube Q_eta on the concentric core I = (1-2/M)[0,1]^d.  Between the two
it interpolates along max-norm rays: every u outside the core lies on
the segment from its radial boundary projection x to the core point
ghat(x), and its image moves to the matching parameter on the segment
from x to (gtilde . ghat)(x).

The extension f_global maps an (n, d) array of float points and follows
each point's base-M address into the sampled tree: while the address
survives it inherits the corner map's rewriting; at the first dead
letter the remaining address either lands next to a surviving boundary
cell (pure rescale) or in a fully boundary-dead cell, where one
localized copy of g absorbs it.  Addresses are exact integers read from
each float's integer ratio, the longest surviving prefixes come from one
sorted lookup per level, and their rewritten corners from level_table.

Floats are binary64; the unit-cube check uses a 1e-12 tolerance, and
points lying exactly on the cube boundary short-circuit to the identity
so the boundary is fixed exactly.  Off the g branch every output
coordinate is the exact image rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import Params, corner_nums, label_offsets
from .percolation import _find_sorted
from .substitution import FlaggedTree, level_table

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class GeomConfig:
    """Float geometry of g for fixed parameters.

    core_ratio is the side of the concentric core I (the union of the
    interior cells); eta_corner/eta_scale define the homothety onto
    Q_eta, which sits inside I because eta starts with an interior label.
    """

    params: Params
    core_ratio: float = field(init=False)
    inner_half: float = field(init=False)
    eta_corner: np.ndarray = field(init=False)
    eta_scale: float = field(init=False)

    def __post_init__(self) -> None:
        pr = self.params
        den = pr.m**pr.k  # Q_eta is the cell of eta: corner numerators over M^K
        nums = corner_nums(pr, pr.eta)
        object.__setattr__(self, "core_ratio", 1.0 - 2.0 / pr.m)
        object.__setattr__(self, "inner_half", 0.5 * (1.0 - 2.0 / pr.m))
        object.__setattr__(
            self, "eta_corner", np.array([c / den for c in nums], dtype=np.float64)
        )
        object.__setattr__(self, "eta_scale", 1 / den)


def _check_unit_cube(U: np.ndarray, tol: float) -> np.ndarray:
    # one min/max pass; written so that NaN, which fails every
    # comparison, is refused too
    if U.size and not (U.min() >= -tol and U.max() <= 1.0 + tol):
        raise DomainError("point outside [0,1]^d beyond tolerance")
    return np.clip(U, 0.0, 1.0)


def _row_max_abs(a: np.ndarray) -> np.ndarray:
    """max_j |a[:, j]| of an (n, d) array, by a loop over its d columns:
    numpy reduces a short axis 1 far slower, and the maximum is exact."""
    r = np.abs(a[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(r, np.abs(a[:, j]), out=r)
    return r


def g_batch(cfg: GeomConfig, points) -> np.ndarray:
    """Apply g to an (n, d) array of points."""
    U = np.asarray(points, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != cfg.params.d:
        raise DomainError(f"expected shape (n, {cfg.params.d}), got {U.shape}")
    U = _check_unit_cube(U, _EDGE_TOL)

    diff = U - 0.5
    r = _row_max_abs(diff)
    # both branches over every row; the outer one divides by r = 0 at the
    # centre, a lane the inner branch takes
    inner = cfg.eta_corner + cfg.eta_scale * U
    rr = r[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 0.5 + diff / (2.0 * rr)
        t = np.maximum(0.5 * cfg.params.m * (1.0 - 2.0 * rr), 0.0)
        gx = cfg.eta_corner + cfg.eta_scale * (0.5 + cfg.core_ratio * (x - 0.5))
        out = np.where(rr <= cfg.inner_half, inner, (1.0 - t) * x + t * gx)

    on_edge = (U[:, 0] == 0.0) | (U[:, 0] == 1.0)
    for j in range(1, U.shape[1]):
        on_edge |= (U[:, j] == 0.0) | (U[:, j] == 1.0)
    out[on_edge] = U[on_edge]  # boundary fixed exactly, by branch, last
    return out


def f_global(ftree: FlaggedTree, points, resolution: int) -> np.ndarray:
    """Extension of the corner map to an (n, d) array of float points, at
    a finite address resolution.

    A point's address is followed while it survives in the tree.  If it
    survives all the way, the image is the rewritten prefix's cell offset
    plus the raw residual rescaled (the point is indistinguishable from
    the limit set at this resolution).  Past the first dead letter, the
    dead tail is appended un-rewritten; when additionally every boundary
    child of the last surviving prefix died, the localized g on the
    rewritten prefix's cell absorbs the whole remainder.
    """
    if not (1 <= resolution <= ftree.depth):
        raise PreconditionError(
            f"resolution {resolution} outside 1..depth={ftree.depth}"
        )
    params = ftree.params
    m, d = params.m, params.d
    U = np.asarray(points, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != d:
        raise DomainError(f"expected shape (n, {d}), got {U.shape}")
    U = _check_unit_cube(U, _EDGE_TOL)
    out = U.copy()  # rows on the boundary are fixed exactly, by branch
    rows = np.flatnonzero(~np.any((U == 0.0) | (U == 1.0), axis=1))

    # u = a/b exactly, and N = ceil(u M^res) - 1 is the address as one
    # base-M integer; a point on a grid face goes to the smaller offset
    ab = np.array(
        [c.as_integer_ratio() for c in U[rows].ravel().tolist()], dtype=object
    ).reshape(-1, d, 2)
    a, b = ab[..., 0], ab[..., 1]
    top = m**resolution
    N = (a * top - 1) // b

    # longest surviving prefix: its length n and node idx, found by one
    # lookup per level in the ascending mask positions parent M^d + label - 1
    positions = ftree.positions
    label_of = label_offsets(m, d)[1]
    md = params.alphabet_size
    cur = np.zeros(rows.size, dtype=np.int64)
    n = np.zeros(rows.size, dtype=np.int64)
    idx = np.zeros(rows.size, dtype=np.int64)
    for k in range(1, resolution + 1):
        digits = ((N // m ** (resolution - k)) % m).astype(np.int64)
        lab = label_of[np.ravel_multi_index(tuple(digits.T), (m,) * d)]
        # -1 marks a dead prefix; the negative positions it makes never match
        cur = _find_sorted(positions[k], cur * md + lab - 1)
        hit = cur >= 0
        n[hit] = k
        idx[hit] = cur[hit]

    # the rewritten prefix's cell: corner numerators img over M^t
    img = np.zeros((rows.size, d), dtype=object)
    t = np.zeros(rows.size, dtype=np.int64)
    absorb = np.zeros(rows.size, dtype=bool)
    for level in np.unique(n).tolist():
        sel = np.flatnonzero(n == level)
        img[sel] = level_table(ftree, level, idx[sel])[1]
        t[sel] = ftree.tilde_lengths[level][idx[sel]]
        if level < resolution:  # full survival is a pure rescale
            absorb[sel] = ftree.flags[level][idx[sel]]

    mn = (m ** n.astype(object))[:, None]
    mt = (m ** t.astype(object))[:, None]
    P = N // (top // mn)  # the prefix cell's corner over M^n
    # img/M^t + (u M^n - P)/M^t, one int/int quotient: correctly rounded
    out[rows] = (((img - P) * b + a * mn) / (mt * b)).astype(np.float64)
    if absorb.any():
        z = ((a * mn - P * b) / b)[absorb].astype(np.float64)
        corner = (img / mt)[absorb].astype(np.float64)
        scale = (1 / mt)[absorb].astype(np.float64)
        out[rows[absorb]] = corner + scale * g_batch(GeomConfig(params), z)
    return out
