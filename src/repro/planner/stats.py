"""O(1) operand statistics the cost model scores schedules from.

The planner must be far cheaper than the work it routes, so everything
here derives from quantities a :class:`~repro.tensor.coo.SparseTensor`
already knows in O(1): non-zero counts, mode extents and the linearized
capacities of the contract/free index spaces. The only estimate is the
partial-product count, which models Y's groups as uniformly spread over
the contract key space LN(C) — the same estimate the PR 6 planner-lite
guard used, now kept as one field of a frozen statistics record.

:func:`contraction_stats` with ``exact=True`` replaces the group
estimate with the true distinct-contract-key count (one O(nnz_Y) pass
via :func:`repro.tensor.linearize.linearize`); the calibration fitter
uses it, the hot path never does.

The record is a frozen dataclass with a lossless ``to_dict`` /
``from_dict`` round trip so the decision-regression corpus can freeze
operand statistics as plain JSON fixtures without materializing
tensors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.core.plan import ContractionPlan
from repro.errors import LinearizationOverflowError
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import linearize, ln_capacity

__all__ = ["ContractionStats", "contraction_stats"]


def _capacity(dims: Sequence[int], clamp: int) -> int:
    """|LN(dims)|, clamped to *clamp* when the product overflows int64."""
    try:
        return int(ln_capacity(tuple(dims)))
    except LinearizationOverflowError:
        return int(clamp)


@dataclass(frozen=True)
class ContractionStats:
    """Frozen O(1) characterization of one contraction signature."""

    nnz_x: int
    nnz_y: int
    x_shape: Tuple[int, ...]
    y_shape: Tuple[int, ...]
    cx: Tuple[int, ...]
    cy: Tuple[int, ...]
    #: |LN(C)| — size of the contracted index space (clamped at overflow)
    contract_capacity: int
    #: |LN(Fy)| — the dense-workspace extent codegen would allocate
    fy_capacity: int
    #: |LN(Fx)| (clamped) — bounds the distinct output sub-tensors
    fx_capacity: int
    #: distinct contract keys of Y (estimated, or exact when measured)
    groups: int
    #: whether ``groups`` was measured (one O(nnz_Y) pass) or estimated
    exact_groups: bool = False

    # ------------------------------------------------------------------
    @property
    def nfx(self) -> int:
        return len(self.x_shape) - len(self.cx)

    @property
    def nfy(self) -> int:
        return len(self.y_shape) - len(self.cy)

    @property
    def contract_density(self) -> float:
        """Occupancy of the contracted index space by Y's groups."""
        return self.groups / self.contract_capacity if self.contract_capacity else 0.0

    @property
    def est_products(self) -> int:
        """Expected partial products: every X non-zero probes HtY once;
        a hit streams the matched group's ``nnz_y / groups`` fiber."""
        return self.nnz_x * self.nnz_y // max(self.groups, 1)

    @property
    def est_created(self) -> int:
        """Expected Z_local entries: products, capped by the output key
        space (each distinct (Fx, Fy) key is created at most once)."""
        out_capacity = self.fx_capacity * self.fy_capacity
        if out_capacity <= 0:  # overflowed clamps multiplied
            return self.est_products
        return min(self.est_products, out_capacity)

    @property
    def sort_x_units(self) -> float:
        """n·log2(n) units of the stage-1 X sort."""
        n = self.nnz_x
        return n * math.log2(n) if n > 1 else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (lossless; see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ContractionStats":
        """Rebuild from :meth:`to_dict` output (tuples from lists)."""
        return cls(
            nnz_x=int(d["nnz_x"]),
            nnz_y=int(d["nnz_y"]),
            x_shape=tuple(int(v) for v in d["x_shape"]),
            y_shape=tuple(int(v) for v in d["y_shape"]),
            cx=tuple(int(v) for v in d["cx"]),
            cy=tuple(int(v) for v in d["cy"]),
            contract_capacity=int(d["contract_capacity"]),
            fy_capacity=int(d["fy_capacity"]),
            fx_capacity=int(d["fx_capacity"]),
            groups=int(d["groups"]),
            exact_groups=bool(d.get("exact_groups", False)),
        )

    def fingerprint(self) -> Tuple:
        """Hashable identity for the decision cache."""
        return (
            self.nnz_x, self.nnz_y, self.x_shape, self.y_shape,
            self.cx, self.cy, self.groups, self.exact_groups,
        )


def contraction_stats(
    x: SparseTensor,
    y: SparseTensor,
    plan: ContractionPlan,
    *,
    exact: bool = False,
) -> ContractionStats:
    """Statistics of ``Z = X ×_{cx}^{cy} Y`` for the cost model.

    The default is pure O(1) arithmetic on counts and extents. With
    ``exact=True`` the distinct-contract-key count of Y is measured
    (one linearize + ``np.unique`` pass — what
    ``scripts/calibrate_planner.py`` feeds the fitter); the planner's
    hot path never pays that.
    """
    contract_capacity = _capacity(plan.contract_dims, y.nnz)
    if exact and y.nnz:
        keys = linearize(y.indices[:, list(plan.cy)], plan.contract_dims)
        groups = int(np.unique(keys).shape[0])
    else:
        groups = max(min(int(y.nnz), contract_capacity), 1)
    return ContractionStats(
        nnz_x=int(x.nnz),
        nnz_y=int(y.nnz),
        x_shape=tuple(x.shape),
        y_shape=tuple(y.shape),
        cx=plan.cx,
        cy=plan.cy,
        contract_capacity=contract_capacity,
        fy_capacity=_capacity(plan.fy_dims, y.nnz),
        fx_capacity=_capacity(plan.fx_dims, x.nnz),
        groups=max(groups, 1) if y.nnz else 0,
        exact_groups=bool(exact and y.nnz),
    )
