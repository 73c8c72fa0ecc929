"""Device specifications (paper Table I).

Each :class:`DeviceSpec` captures the per-precision peak throughput of the
scalar cores ("CUDA"/"stream" cores) and the matrix units ("tensor"/"matrix"
cores), memory bandwidth, and the feature flags the AmgT data flow branches
on: whether the matrix unit supports the 8x8x4 FP64 MMA shape AmgT needs
(true on NVIDIA, false on MI210, whose matrix-core input shapes forced the
paper to fall back to scalar cores), and whether FP16 is usable in the
mixed-precision schedule (false on MI210, where the paper uses FP32 on the
coarse levels instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.counters import Precision

__all__ = ["DeviceSpec", "A100", "H100", "MI210", "get_device", "list_devices"]


@dataclass(frozen=True)
class DeviceSpec:
    """Performance-relevant description of one GPU."""

    name: str
    vendor: str
    scalar_cores: int
    #: Peak TFlops of the scalar cores per precision.
    cuda_tflops: dict[Precision, float]
    #: Peak TFlops of the tensor/matrix cores per precision.
    tensor_tflops: dict[Precision, float]
    #: Memory bandwidth in TB/s.
    mem_bw_tbs: float
    #: Device memory in GB (capacity checks only).
    mem_gb: float
    #: True when the matrix unit supports the 8x8x4 (FP64) / 16x8x8 shapes
    #: AmgT's fragment assembly targets.  MI210's shapes do not fit, so AmgT
    #: runs its kernels on scalar cores there (Sec. V.F).
    mma_shape_compatible: bool = True
    #: True when FP16 kernels are available to the mixed-precision schedule.
    fp16_supported: bool = True
    #: Fixed per-kernel-launch overhead in microseconds.  Real launches
    #: cost ~5us; the reproduction runs matrices 30-100x smaller than the
    #: paper's, so the overhead is scaled down by the same factor to keep
    #: the body-to-latency ratio of the paper's testbed (otherwise every
    #: kernel would be latency-bound and all solver ratios would compress
    #: to 1).  The latency floor of coarse-grid kernels in Fig. 8 is still
    #: reproduced, just at the scaled magnitude.
    launch_overhead_us: float = 0.3
    #: Sustained fraction of peak that irregular sparse kernels achieve.
    #: Sparse workloads reach a small, kernel-dependent slice of peak; the
    #: calibration constants live in the cost model, this is a device-wide
    #: derating applied on top.
    efficiency: float = 1.0
    notes: str = ""

    def scalar_flops_per_us(self, prec: Precision) -> float:
        """Peak scalar flops per microsecond at *prec*."""
        return self.cuda_tflops[prec] * 1e6 * self.efficiency

    def tensor_flops_per_us(self, prec: Precision) -> float:
        """Peak matrix-unit flops per microsecond at *prec*."""
        return self.tensor_tflops[prec] * 1e6 * self.efficiency

    def bytes_per_us(self) -> float:
        return self.mem_bw_tbs * 1e6

    @property
    def storage_itemsize(self) -> int | None:
        """Per-value bytes the AmgT kernels charge for matrix traffic, or
        None for the executing precision's own size.  A device without a
        usable low-precision data path (MI210) computes the coarse levels
        in FP32 but keeps the matrices FP64-resident, so its kernels pay
        FP64 memory traffic — which is why the paper finds AmgT (FP64)
        and AmgT (Mixed) nearly identical there (Sec. V.F)."""
        return None if self.fp16_supported else 8


# Table I of the paper.  FP32 scalar numbers double as the TF32 tensor rates
# feeding nothing here — AmgT uses FP64/FP32/FP16 only.
A100 = DeviceSpec(
    name="A100",
    vendor="NVIDIA",
    scalar_cores=6912,
    cuda_tflops={Precision.FP64: 9.7, Precision.FP32: 19.5, Precision.FP16: 78.0},
    tensor_tflops={Precision.FP64: 19.5, Precision.FP32: 156.0, Precision.FP16: 312.0},
    mem_bw_tbs=1.94,
    mem_gb=80.0,
    mma_shape_compatible=True,
    fp16_supported=True,
    notes="Ampere, PCIe, 80 GB",
)

H100 = DeviceSpec(
    name="H100",
    vendor="NVIDIA",
    scalar_cores=16896,
    cuda_tflops={Precision.FP64: 33.5, Precision.FP32: 66.9, Precision.FP16: 133.8},
    tensor_tflops={Precision.FP64: 66.9, Precision.FP32: 494.7, Precision.FP16: 989.4},
    mem_bw_tbs=2.02,
    mem_gb=64.0,
    mma_shape_compatible=True,
    fp16_supported=True,
    notes="Hopper, SXM5, 64 GB",
)

MI210 = DeviceSpec(
    name="MI210",
    vendor="AMD",
    scalar_cores=6656,
    cuda_tflops={Precision.FP64: 22.6, Precision.FP32: 22.6, Precision.FP16: 181.0},
    tensor_tflops={Precision.FP64: 45.3, Precision.FP32: 45.3, Precision.FP16: 181.0},
    mem_bw_tbs=1.6,
    mem_gb=64.0,
    # AMD matrix-core input shapes are incompatible with AmgT's 8x8x4
    # fragment assembly, so AmgT uses the standard compute cores (Sec. V.F).
    mma_shape_compatible=False,
    # Limited FP16 programming support: mixed precision uses FP32 coarse
    # levels on this device.
    fp16_supported=False,
    notes="CDNA2, PCIe, 64 GB",
)

_REGISTRY: dict[str, DeviceSpec] = {d.name: d for d in (A100, H100, MI210)}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name (``'A100'``, ``'H100'``, ``'MI210'``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_devices() -> list[str]:
    return sorted(_REGISTRY)
