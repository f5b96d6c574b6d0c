"""Global extension of the corner map to the whole unit cube.

The building block g is a homeomorphism of [0,1]^d that is the identity
on the cube's boundary and the canonical homothety onto the insertion
cube Q_eta on the concentric core I = (1-2/M)[0,1]^d.  Between the two
it interpolates along max-norm rays: every u outside the core lies on
the segment from its radial boundary projection x to the core point
ghat(x), and its image moves to the matching parameter on the segment
from x to (gtilde . ghat)(x).

The extension f_global follows a float point's base-M address into the
sampled tree: while the address survives it inherits the corner map's
rewriting; at the first dead letter the remaining address either lands
next to a surviving boundary cell (pure rescale) or in a fully
boundary-dead cell, where one localized copy of g absorbs it.

Floats are binary64; the unit-cube check uses a 1e-12 tolerance, and
points lying exactly on the cube boundary short-circuit to the identity
so the boundary is fixed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import (
    Params,
    Word,
    box_of_word,
    offset_to_label,
    pi_finite,
)
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
        eta_box = box_of_word(pr, pr.eta)
        side = eta_box.side()
        one_m = Fraction(1, pr.m)
        for c in eta_box.corner.as_fractions():
            if c < one_m or c + side > 1 - one_m:
                raise DomainError("insertion cube must keep distance 1/M from the boundary")
        object.__setattr__(self, "core_ratio", 1.0 - 2.0 / pr.m)
        object.__setattr__(self, "inner_half", 0.5 * (1.0 - 2.0 / pr.m))
        object.__setattr__(
            self, "eta_corner", np.array(eta_box.corner.to_floats(), dtype=np.float64)
        )
        object.__setattr__(self, "eta_scale", float(side))


def _check_unit_cube(U: np.ndarray, tol: float) -> np.ndarray:
    if np.any(U < -tol) or np.any(U > 1.0 + tol):
        raise DomainError("point outside [0,1]^d beyond tolerance")
    return np.clip(U, 0.0, 1.0)


def g_batch(cfg: GeomConfig, points) -> np.ndarray:
    """Apply g to an (n, d) array of points."""
    U = np.asarray(points, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != cfg.params.d:
        raise DomainError(f"expected shape (n, {cfg.params.d}), got {U.shape}")
    U = _check_unit_cube(U, _EDGE_TOL)
    out = np.empty_like(U)

    on_edge = np.any((U == 0.0) | (U == 1.0), axis=1)
    out[on_edge] = U[on_edge]  # boundary fixed exactly, by branch

    diff = U - 0.5
    r = np.max(np.abs(diff), axis=1)
    inner = (~on_edge) & (r <= cfg.inner_half)
    out[inner] = cfg.eta_corner + cfg.eta_scale * U[inner]

    outer = ~(on_edge | inner)
    if np.any(outer):
        rr = r[outer][:, None]
        x = 0.5 + diff[outer] / (2.0 * rr)
        t = np.maximum(0.5 * cfg.params.m * (1.0 - 2.0 * rr), 0.0)
        gx = cfg.eta_corner + cfg.eta_scale * (0.5 + cfg.core_ratio * (x - 0.5))
        out[outer] = (1.0 - t) * x + t * gx
    return out


def g(cfg: GeomConfig, u) -> np.ndarray:
    """g at a single point (shape (d,))."""
    return g_batch(cfg, np.asarray(u, dtype=np.float64)[None, :])[0]


def madic_address(
    params: Params, point, digits: int
) -> tuple[Word, tuple[Fraction, ...]]:
    """Base-M address of a point to a fixed number of digits, plus the
    exact residual inside the last cell.

    Points on a grid face belong to two cells; the tie resolves toward
    the smaller offset, which leaves a residual coordinate of exactly 1.
    Accepts floats (converted exactly) or Fractions.
    """
    if digits < 0:
        raise DomainError(f"digits must be >= 0, got {digits}")
    v = [Fraction(c) for c in point]
    if any(c < 0 or c > 1 for c in v):
        raise DomainError("point outside [0,1]^d")
    word = []
    m = params.m
    for _ in range(digits):
        offs = []
        for k in range(params.d):
            scaled = v[k] * m
            dig = max(0, ceil(scaled) - 1)
            offs.append(dig)
            v[k] = scaled - dig
        word.append(offset_to_label(params, tuple(offs)))
    return tuple(word), tuple(v)


def f_global(ftree: FlaggedTree, u, resolution: int) -> np.ndarray:
    """Extension of the corner map to any float point, at a finite
    address resolution.

    The point's address is followed while it survives in the tree.  If
    it survives all the way, the image is the rewritten prefix's cell
    offset plus the raw residual rescaled (the point is indistinguishable
    from the limit set at this resolution).  Past the first dead letter,
    the dead tail is appended un-rewritten; when additionally every
    boundary child of the last surviving prefix died, the localized g on
    the rewritten prefix's cell absorbs the whole remainder.
    """
    if not (1 <= resolution <= ftree.depth):
        raise PreconditionError(
            f"resolution {resolution} outside 1..depth={ftree.depth}"
        )
    params = ftree.params
    uu = np.asarray(u, dtype=np.float64)
    if uu.shape != (params.d,):
        raise DomainError(f"expected shape ({params.d},), got {uu.shape}")
    uu = _check_unit_cube(uu, _EDGE_TOL)
    if np.any((uu == 0.0) | (uu == 1.0)):
        return uu.copy()  # boundary fixed exactly, by branch

    word, residual = madic_address(params, uu, resolution)
    # longest surviving prefix of the address, capped at the resolution
    n = 0
    idx = 0
    for lab in word:
        nxt = ftree.tree.child_index(n, idx, lab)
        if nxt is None:
            break
        n += 1
        idx = nxt

    # the rewritten prefix's cell: corner numerators over M^t, side M^-t
    t = int(ftree.tilde_lengths[n][idx])
    scale = Fraction(1, params.m**t)
    base = tuple(c * scale for c in level_table(ftree, n, [idx])[1][0].tolist())
    tail = word[n:]
    tail_corner = pi_finite(params, tail).as_fractions()
    tail_scale = Fraction(1, params.m ** len(tail))
    z = tuple(c + tail_scale * r for c, r in zip(tail_corner, residual))

    if n < resolution:
        nb = params.n_boundary
        lo, hi = ftree.tree.child_range(n, idx)
        child_labels = ftree.tree.labels[n + 1][lo:hi]
        boundary_child_alive = bool(np.any(child_labels <= nb))
    else:
        boundary_child_alive = True  # full survival: pure rescale branch

    if boundary_child_alive:
        return np.array(
            [float(b + scale * zk) for b, zk in zip(base, z)], dtype=np.float64
        )
    cfg = GeomConfig(params)
    gz = g(cfg, np.array([float(zk) for zk in z], dtype=np.float64))
    basef = np.array([float(b) for b in base], dtype=np.float64)
    return basef + float(scale) * gz
