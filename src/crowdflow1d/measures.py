"""Domains, capped densities and quantile representations.

A measure lives on a radial segment ``[a, R]`` equipped with the weight
``w(r) = 2*half_angle*r`` (mass of a thin annular sector) or with the flat
weight ``w(r) = 1``.  Densities are taken with respect to ``w(r) dr`` and
are capped at one; on domains with an absorbing exit at ``r = a`` an extra
atom of mass may sit on the exit.  Quantile functions represent the same
measure by the positions of uniformly spaced mass samples, with the exit
atom appearing as a plateau at ``a`` (never as a density spike).
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from functools import cache
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainMismatchError,
    FeasibilityError,
    MassMismatchError,
    MonotonicityError,
)

DENSITY_TOL = 1e-9


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` in two ufunc calls, bit for bit.

    The bound goes first: on a tie ``np.maximum`` and ``np.minimum``
    return their second argument, so a zero keeps its sign as in
    ``np.clip``.
    """
    return np.minimum(hi, np.maximum(lo, x))


def _last_of_ties(x, atol):
    """Mask of the last entry of each run of nondecreasing ``x`` whose
    steps are at most ``atol``: the entries followed by a larger step,
    and the last entry."""
    keep = np.empty(x.size, dtype=bool)
    np.greater(x[1:] - x[:-1], atol, out=keep[:-1])
    keep[-1] = True
    return keep


@contextmanager
def _csv_file(path_or_buf, mode="r"):
    """Open a path (``str``, ``bytes`` or ``os.PathLike``) for CSV rows and
    close it afterwards; a file-like buffer is used as given and left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, mode, newline="") as f:
            yield f
    else:
        yield path_or_buf


@dataclass(frozen=True)
class Domain1D:
    """Radial segment ``[a, R]`` with its integration weight.

    Parameters
    ----------
    a : float
        Inner radius (the exit door when ``has_exit``). Nonnegative.
    R : float
        Outer radius, ``R > a``.
    weight_kind : {"radial", "flat"}
        ``"radial"`` uses ``w(r) = 2*half_angle*r``; ``"flat"`` uses
        ``w(r) = 1``.
    half_angle : float, optional
        Sector opening parameter for the radial weight. Required iff
        ``weight_kind == "radial"``.
    has_exit : bool
        Whether ``r = a`` absorbs mass.
    """

    a: float
    R: float
    weight_kind: str = "flat"
    half_angle: float | None = None
    has_exit: bool = False

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise FeasibilityError(f"inner radius must be >= 0, got {self.a}")
        if not (self.a < self.R < np.inf):
            raise FeasibilityError(f"need a finite R > a, got a={self.a}, R={self.R}")
        if self.weight_kind == "radial":
            if self.half_angle is None or not (0.0 < self.half_angle < np.inf):
                raise FeasibilityError("radial weight needs a finite half_angle > 0")
        elif self.weight_kind == "flat":
            if self.half_angle is not None:
                raise FeasibilityError("flat weight takes no half_angle")
        else:
            raise FeasibilityError(f"unknown weight_kind {self.weight_kind!r}")

    @property
    def diameter(self):
        return self.R - self.a

    def weight(self, r):
        """Weight ``w(r)``, vectorized."""
        r = np.asarray(r, dtype=float)
        if self.weight_kind == "radial":
            return 2.0 * self.half_angle * r
        return np.ones_like(r)

    def cumweight(self, r):
        """Exact ``W(r) = integral of w from a to r`` (capacity of [a, r])."""
        r = np.asarray(r, dtype=float)
        if self.weight_kind == "radial":
            return self.half_angle * (r * r - self.a * self.a)
        return r - self.a

    def inv_cumweight(self, z):
        """Inverse of :meth:`cumweight` on ``[0, W(R)]``."""
        z = np.asarray(z, dtype=float)
        if self.weight_kind == "radial":
            return np.sqrt(self.a * self.a + np.maximum(z, 0.0) / self.half_angle)
        return self.a + z

    @property
    def total_weight(self):
        """Capacity ``W(R)`` of the whole segment."""
        return float(self.cumweight(self.R))


@dataclass
class Measure1D:
    """Piecewise-constant capped density plus an optional exit atom.

    ``rho[i]`` is the density (w.r.t. ``w(r) dr``) on the cell
    ``[edges[i], edges[i+1])``.  Values are treated as immutable after
    construction.

    Parameters
    ----------
    domain : Domain1D
    edges : ndarray, shape (n+1,)
        Strictly increasing cell edges spanning ``[a, R]``.
    rho : ndarray, shape (n,)
        Cell densities in ``[0, 1]``.
    exit_mass : float
        Mass sitting on the exit. Must be 0 unless ``domain.has_exit``.
    """

    domain: Domain1D
    edges: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    exit_mass: float = 0.0

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or rho.shape != (edges.size - 1,):
            raise FeasibilityError("edges must be (n+1,) and rho (n,)")
        if not (edges[1:] - edges[:-1] > 0.0).all():
            raise MonotonicityError("cell edges must be strictly increasing")
        d = self.domain
        if not (abs(edges[0] - d.a) < 1e-9 and abs(edges[-1] - d.R) < 1e-9):
            raise DomainMismatchError(
                f"edges span [{edges[0]}, {edges[-1]}], domain is [{d.a}, {d.R}]"
            )
        if not ((rho >= -DENSITY_TOL) & (rho <= 1.0 + DENSITY_TOL)).all():
            raise FeasibilityError(
                f"density outside [0, 1]: min={rho.min()}, max={rho.max()}"
            )
        if not (0.0 <= self.exit_mass < np.inf):
            raise FeasibilityError(f"exit_mass must be finite and >= 0, got {self.exit_mass}")
        if self.exit_mass > 0.0 and not d.has_exit:
            raise FeasibilityError("exit_mass > 0 on a domain without exit")
        if edges.flags.writeable:
            # a read-only copy: the caller's array stays writeable
            edges = edges.copy()
            edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rho", _clip(rho, 0.0, 1.0))
        self.rho.flags.writeable = False

    # -- construction helpers ------------------------------------------

    @classmethod
    def uniform(cls, domain, value, n_cells, exit_mass=0.0):
        """Constant density ``value`` on the whole segment."""
        edges = CellGeometry(domain, n_cells).edges
        return cls(domain, edges, np.full(n_cells, float(value)), exit_mass)

    @classmethod
    def from_density(cls, domain, fn, n_cells, exit_mass=0.0):
        """Cell-average a density function ``fn(r)`` (w.r.t. ``w dr``).

        Averages use :func:`cell_integrals`, a fixed 5-point Gauss rule per
        cell weighted by ``w``; exact for polynomial profiles of low degree.
        """
        cells = CellGeometry(domain, n_cells)
        cell_mass = cell_integrals(domain, cells.edges, fn)
        dW = cells.dW
        rho = np.where(dW > 0.0, cell_mass / np.where(dW > 0.0, dW, 1.0), 0.0)
        return cls(domain, cells.edges, np.clip(rho, 0.0, 1.0), exit_mass)

    @classmethod
    def random_feasible(cls, domain, n_cells, rng, exit_mass=None):
        """Random probability measure with density in ``[0, 1]``.

        Draws rough cell values ``raw`` and rescales them by ``c`` (with
        the cap enforced by clipping) so that the interior mass is
        ``1 - exit_mass``.  Requires the domain capacity to exceed 1.

        The mass ``sum min(raw*c, 1)*dW`` is nondecreasing in ``c`` and
        linear between the values where a cell fills up.  One sort of
        ``raw`` finds the piece that holds the target, and ``c`` is that
        piece's root.  The rounding left over goes into the cells of most
        capacity that have room for it.
        """
        if exit_mass is None:
            exit_mass = float(rng.uniform(0.0, 0.3)) if domain.has_exit else 0.0
        target = 1.0 - exit_mass
        if domain.total_weight <= target:
            raise FeasibilityError("domain capacity too small for unit mass")
        cells = CellGeometry(domain, n_cells)
        dW = cells.dW
        raw = rng.uniform(0.05, 1.0, size=n_cells)
        # cells by decreasing raw fill up in that order: while the first k
        # are full the mass is full[k] + c*rest[k], up to c = 1/r[k]
        by = np.argsort(raw)[::-1]
        r, w = raw[by], dW[by]
        full = np.concatenate(([0.0], np.cumsum(w)[:-1]))
        rest = np.cumsum((r * w)[::-1])[::-1]
        k = min(int(np.searchsorted(full + rest / r, target, side="right")), n_cells - 1)
        rho = np.clip(raw * ((target - full[k]) / rest[k]), 0.0, 1.0)
        # absorb the last bit of rounding into the largest cells with room
        gap = target - float(rho @ dW)
        order = np.argsort(dW)[::-1]
        for i in order:
            room = (1.0 - rho[i]) * dW[i] if gap > 0 else rho[i] * dW[i]
            take = np.clip(gap, -room, room)
            rho[i] += take / dW[i]
            gap -= take
            if abs(gap) < 1e-15:
                break
        return cls(domain, cells.edges, rho, exit_mass)

    # -- basic queries --------------------------------------------------

    def cell_weights(self):
        """Capacity ``W`` of each cell."""
        return self.domain.cumweight(self.edges[1:]) - self.domain.cumweight(
            self.edges[:-1]
        )

    def cell_masses(self):
        return self.rho * self.cell_weights()

    def total_mass(self):
        return float(self.exit_mass + self.cell_masses().sum())

    def cdf(self, r):
        """Cumulative mass on ``exit + [a, r]``, right-continuous at a."""
        r = np.asarray(r, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.cell_masses())])
        idx = np.clip(np.searchsorted(self.edges, r, side="right") - 1, 0, len(self.rho) - 1)
        frac = self.domain.cumweight(np.clip(r, self.edges[0], self.edges[-1]))
        frac = frac - self.domain.cumweight(self.edges[idx])
        out = self.exit_mass + cum[idx] + self.rho[idx] * np.clip(frac, 0.0, None)
        return np.where(r >= self.edges[-1], self.total_mass(), out)

    def interface_estimate(self):
        """Right edge of the outermost saturated cell.

        Returns ``a`` when no cell reaches density 0.999.  A cell cut by
        the domain boundary can render slightly below that even when the
        block is saturated, so the scan runs from the outside in rather
        than stopping at the first unsaturated cell.
        """
        sat = np.nonzero(self.rho >= 0.999)[0]
        if sat.size == 0:
            return float(self.edges[0])
        return float(self.edges[sat[-1] + 1])

    # -- serialization ---------------------------------------------------

    def to_csv(self, path_or_buf):
        """Write rows ``r_left,r_right,rho`` and a trailing exit_mass row.

        Floats are written with ``repr`` so a round trip is bit-exact.
        """
        with _csv_file(path_or_buf, "w") as f:
            wr = csv.writer(f)
            wr.writerow(["r_left", "r_right", "rho"])
            edges = list(map(repr, self.edges.tolist()))
            wr.writerows(zip(edges[:-1], edges[1:], map(repr, self.rho.tolist())))
            wr.writerow(["exit_mass", repr(float(self.exit_mass)), ""])

    @classmethod
    def from_csv(cls, path_or_buf, domain):
        with _csv_file(path_or_buf) as f:
            rows = list(csv.reader(f))
        if not rows or rows[0][:3] != ["r_left", "r_right", "rho"]:
            raise FeasibilityError("bad header in measure CSV")
        exit_mass = 0.0
        lefts, rights, rho = [], [], []
        for line, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            try:
                if row[0] == "exit_mass":
                    exit_mass = float(row[1])
                    continue
                left, right, value = map(float, row[:3])
            except (IndexError, ValueError):
                raise FeasibilityError(f"measure CSV line {line} is not a cell row "
                                       f"or an exit_mass row: {','.join(row)!r}") from None
            lefts.append(left)
            rights.append(right)
            rho.append(value)
        if not rho:
            raise FeasibilityError("measure CSV has no cell rows")
        edges = np.array(lefts + [rights[-1]])
        if not np.allclose(edges[1:-1], np.array(rights[:-1]), rtol=0, atol=0):
            raise FeasibilityError("cells in CSV are not contiguous")
        return cls(domain, edges, np.array(rho), exit_mass)

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


@dataclass
class QuantileFn:
    """Positions ``Q(s_j)`` of uniformly spaced mass samples.

    Samples sit at midpoints ``s_j = (j + 1/2)/n`` so each carries the
    same mass ``1/n``.  The first ``exit_plateau`` samples sit exactly at
    the exit ``r = a``.
    """

    domain: Domain1D
    q: np.ndarray = field(repr=False)
    exit_plateau: int = 0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if (q[1:] - q[:-1] < -1e-12).any():
            raise MonotonicityError("quantile samples must be nondecreasing")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def n(self):
        return self.q.size


def quantile_of(m, n_samples=4096):
    """Sample the quantile function of a probability measure.

    Parameters
    ----------
    m : Measure1D
        Must have total mass 1 within ``1e-9``.
    n_samples : int
        Number of midpoint samples, an integer of at least 2.

    Returns
    -------
    QuantileFn
    """
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 2):
        raise FeasibilityError(f"need an integer of at least 2 quantile samples, got {n_samples!r}")
    tm = m.total_mass()
    if not abs(tm - 1.0) <= 1e-9:
        raise MassMismatchError(f"total mass {tm} is not 1")
    s = (np.arange(n_samples) + 0.5) / n_samples
    masses = m.cell_masses()
    cum = m.exit_mass + np.concatenate([[0.0], np.cumsum(masses)])
    cum[-1] = tm  # guard rounding in the last edge
    idx = np.searchsorted(cum[1:], s * tm, side="left")
    idx = np.clip(idx, 0, len(masses) - 1)
    rho = m.rho[idx]
    need = s * tm - cum[idx]
    zcell = m.domain.cumweight(m.edges[idx])
    q = m.domain.inv_cumweight(zcell + need / np.where(rho > 0, rho, 1.0))
    q = np.where(s * tm <= m.exit_mass, m.domain.a, q)
    exit_plateau = int(np.searchsorted(s * tm, m.exit_mass, side="left"))
    q[:exit_plateau] = m.domain.a
    q = np.maximum.accumulate(np.clip(q, m.domain.a, m.domain.R))
    return QuantileFn(m.domain, q, exit_plateau)


class CellGeometry:
    """``n_cells`` equal cells on a domain; every equal-cell grid is built here.

    Holds the edges, the midpoints, the capacities ``W`` at the edges and
    the cell capacities, all read-only, so that one instance can serve
    every step of a run and every measure built on these cells can share
    its ``edges``.
    """

    def __init__(self, domain, n_cells):
        if not (isinstance(n_cells, (int, np.integer)) and n_cells >= 1):
            raise FeasibilityError(f"n_cells must be an integer of at least 1, got {n_cells!r}")
        self.domain = domain
        self.n_cells = n_cells
        self.edges = np.linspace(domain.a, domain.R, n_cells + 1)
        self.mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.z_edges = np.asarray(domain.cumweight(self.edges))
        self.dW = self.z_edges[1:] - self.z_edges[:-1]
        for arr in (self.edges, self.mids, self.z_edges, self.dW):
            arr.flags.writeable = False


@cache
def _gauss_rule():
    """The 5-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built on first use rather than at import: ``leggauss`` solves an
    eigenvalue problem, and loading LAPACK for it costs a run that never
    integrates about 1 MB of memory.
    """
    nodes, wts = np.polynomial.legendre.leggauss(5)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def cell_integrals(domain, edges, fn):
    """Integral of ``fn`` against ``w dr`` on each cell of ``edges``, by a
    5-point Gauss rule per cell; ``fn`` gets one ``(n_cells, 5)`` array and
    must keep its shape."""
    nodes, wts = _gauss_rule()
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(fn(r), dtype=float) * domain.weight(r)
    return half * (vals * wts[None, :]).sum(axis=1)


def bin_quantiles_to_cells(q, plateau, cells):
    """Cell masses of the measure encoded by midpoint quantile samples.

    Works in capacity coordinates ``z = W(r)``, where the sampled inverse
    CDF of any uniform stretch is linear in ``s``, and extrapolates the
    half-sample tails; mass is conserved exactly.  A lone interior sample
    ``z`` takes the tails of saturated neighbours: its mass ``ds = 1/n``
    fills ``[z - ds/2, z + ds/2]`` at density one, which the solver's box
    ``ds/2 <= z <= W(R) - ds/2`` keeps inside the domain.  Returns
    ``(cells.edges, cell_mass, exit_mass)`` with no cap enforcement.
    """
    domain = cells.domain
    n = q.size
    m = plateau if domain.has_exit else 0
    exit_mass = m / n
    edges = cells.edges
    if m >= n:
        return edges, np.zeros(cells.n_cells), 1.0
    zi = np.asarray(domain.cumweight(_clip(q[m:], domain.a, domain.R)))
    # the samples' (z, s) between the two extrapolated half-sample tails;
    # a lone sample's neighbours sit as saturated ones would, ds away
    half = 0.5 / n
    zz, ss = np.empty(zi.size + 2), np.empty(zi.size + 2)
    zz[1:-1] = zi
    zz[0], zz[-1] = zi[0] - 2.0 * half, zi[-1] + 2.0 * half
    lo_gap, hi_gap = zz[2] - zz[1], zz[-2] - zz[-3]
    zz[0] = max(zi[0] - lo_gap * 0.5, 0.0)
    zz[-1] = min(zi[-1] + hi_gap * 0.5, domain.total_weight)
    ss[1:-1] = (np.arange(m, n) + 0.5) / n
    ss[0] = max(ss[1] - half, exit_mass)
    ss[-1] = ss[-2] + half
    atol = 1e-14 * max(1.0, domain.total_weight)
    # collapse duplicate positions keeping the largest s (right-continuous CDF)
    keep = _last_of_ties(zz, atol)
    zz, ss = zz[keep], ss[keep]
    cdf_edges = np.interp(cells.z_edges, zz, ss, left=exit_mass, right=1.0)
    cdf_edges[0] = exit_mass
    cdf_edges[-1] = 1.0
    np.maximum.accumulate(cdf_edges, out=cdf_edges)
    return edges, cdf_edges[1:] - cdf_edges[:-1], exit_mass


def density_of(qf, n_cells=2048, cells=None):
    """Push the uniform law on [0, 1] through a quantile function.

    The sampled quantile is read as piecewise linear between samples; the
    plateau at ``a`` (on exit domains) becomes the exit atom.  Binning
    conserves mass exactly, so the result is a probability measure; the
    density cap can be exceeded only by rounding, which
    :func:`_spill_excess` moves into room nearby.  ``cells`` is the
    :class:`CellGeometry` of the ``n_cells`` cells if the caller has one;
    the measure then shares its ``edges``.

    Returns
    -------
    Measure1D
    """
    if cells is None:
        cells = CellGeometry(qf.domain, n_cells)
    edges, cell_mass, exit_mass = bin_quantiles_to_cells(qf.q, qf.exit_plateau, cells)
    dW = cells.dW
    rho = cell_mass / dW
    over = np.maximum(rho - 1.0, 0.0) @ dW
    if over > 1e-6:
        raise FeasibilityError(f"quantile samples overfill cells by {over}")
    rho = _spill_excess(rho, dW) if over > 0.0 else rho
    return Measure1D(qf.domain, edges, rho, exit_mass)


def _spill_excess(rho, dW):
    """Cap ``rho`` at one, moving excess mass into room in its own run.

    ``g = cumsum(cell_mass - dW)``, i.e. ``F(z) - z`` at the edges, must not
    increase: in each run of occupied cells, take its running maximum from
    the right clamped by its value at the run's first edge.  A run with
    more excess than room passes the rest to the empty cell after it
    (before it, at ``R``), else raises :class:`FeasibilityError`.
    """
    n = rho.size
    gap = rho * dW - dW
    occupied = rho > 0.0
    # room beyond twice the excess is never used; clipping it bounds rounding and walls runs apart
    wall = 2.0 * np.maximum(gap, 0.0).sum()
    g = np.empty(n + 1)
    g[0] = 0.0
    np.where(occupied, np.maximum(gap, -wall), -wall).cumsum(out=g[1:])
    # edge i starts a run when cell i is occupied and cell i - 1 is not
    start = np.empty(n + 1, dtype=bool)
    start[0], start[n] = occupied[0], False
    np.greater(occupied[1:], occupied[:-1], out=start[1:n])
    pin = np.minimum.accumulate(np.where(start, g, np.inf))
    capped = np.minimum(np.maximum.accumulate(g[::-1])[::-1], pin)
    shift = np.maximum(capped, g[-1]) - g
    out = rho + (shift[1:] - shift[:-1]) / dW
    if shift[0] > 0.0 or (out[~occupied] > 1.0).any():
        raise FeasibilityError("binned mass exceeds the capacity of the cells it occupies")
    return np.minimum(out, 1.0)
