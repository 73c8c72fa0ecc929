"""``hypre_CSRMatrix`` with the AmgT mBSR extension arrays.

The paper's integration adds the four mBSR arrays (``AmgT_mBSR_BlcPtr``
etc.) to HYPRE's CSR matrix structure so one object can serve both the CSR
components (coarsening, coarsest solve) and the mBSR kernels.  The
conversion ``AmgT_CSR2mBSR`` fills the extension lazily, and precision
casts of the tile values are cached per floating-point format for the
mixed-precision schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.convert import ConversionStats, csr_to_mbsr
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.spmv import SpMVPlan

__all__ = ["HypreCSRMatrix"]


@dataclass
class HypreCSRMatrix:
    """A CSR matrix optionally carrying its mBSR twin (AmgT extension)."""

    csr: CSRMatrix
    #: The AmgT_mBSR_* arrays, filled by :meth:`amgt_csr2mbsr`.
    mbsr: MBSRMatrix | None = None
    #: Stats of the conversion that produced :attr:`mbsr` (None until run).
    conversion_stats: ConversionStats | None = None
    #: Optional :class:`~repro.kernels.setup_cache.SetupPlanCache`; when
    #: set (the AmgT backend threads its own), :meth:`amgt_csr2mbsr` reuses
    #: the cached tile layout of same-pattern matrices, paying only the
    #: value fill.
    setup_cache: object = None
    #: Per-precision casts of the mBSR tile values (mixed-precision cache).
    _casts: dict[Precision, MBSRMatrix] = field(default_factory=dict, repr=False)

    @classmethod
    def wrap(cls, mat) -> "HypreCSRMatrix":
        if isinstance(mat, HypreCSRMatrix):
            return mat
        if isinstance(mat, CSRMatrix):
            return cls(csr=mat)
        if isinstance(mat, MBSRMatrix):
            return cls(csr=mat.to_csr(), mbsr=mat)
        raise TypeError(f"cannot wrap {type(mat).__name__} as HypreCSRMatrix")

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def has_mbsr(self) -> bool:
        return self.mbsr is not None

    def amgt_csr2mbsr(self) -> tuple[MBSRMatrix, ConversionStats | None]:
        """Fill the mBSR extension (no-op when already present).

        Returns the mBSR matrix and, when a conversion actually ran, its
        stats; the second element is None on a cache hit so callers charge
        the conversion cost exactly once (the point of the unified format).
        """
        if self.mbsr is not None:
            return self.mbsr, None
        if self.setup_cache is not None:
            # Pattern-keyed conversion: a template hit reuses the tile
            # layout and returns reduced (value-fill-only) stats.
            self.mbsr, stats = self.setup_cache.csr2mbsr(self.csr)
        else:
            self.mbsr, stats = csr_to_mbsr(self.csr, return_stats=True)
        self.conversion_stats = stats
        from repro.check import runtime as check_runtime

        if check_runtime.is_active():
            from repro.check import oracle

            oracle.verify_conversion(self.csr, self.mbsr)
        return self.mbsr, stats

    @property
    def operator_cache(self):
        """The mBSR twin's :class:`~repro.kernels.cache.OperatorCache`.

        Holds everything the solve phase reuses per operator: the SpMV
        plan, the per-precision quantised/widened tile arrays, the tile
        popcounts and the block-row expansion.  Casts produced by
        :meth:`mbsr_at_precision` share the structural state lazily
        through their own caches but the plan/popcounts live here, on the
        canonical mBSR form.
        """
        base, _ = self.amgt_csr2mbsr()
        return base.cache

    def mbsr_at_precision(self, precision: Precision) -> MBSRMatrix:
        """mBSR tile values cast to *precision* (cached).

        The returned matrix shares the index/bitmap arrays with the
        canonical form; its operator cache additionally receives the
        widened compute tiles so repeated kernel calls skip the per-call
        ``astype`` pair entirely.
        """
        base, _ = self.amgt_csr2mbsr()
        if precision == Precision.FP64 and base.dtype == np.float64:
            return base
        cached = self._casts.get(precision)
        if cached is None:
            cached = base.astype(precision.np_dtype)
            # The cast shares the structure arrays; hand it the canonical
            # form's pattern key so plan-cache lookups on any precision of
            # an operator hash the structure once, and its SpMV pass
            # layouts.
            cached.cache.seed_pattern_key(base.cache.pattern_key)
            cached.cache.seed_layouts(base.cache.layout_pool)
            self._casts[precision] = cached
        return cached

    def spmv_plan(self, allow_tensor_cores: bool) -> SpMVPlan:
        """Cached SpMV preprocessing (Sec. IV.D.1), reused across calls."""
        return self.operator_cache.spmv_plan(allow_tensor_cores)
