"""Per-layer numbers of the traced round, with in-run reconciliation.

Host clock: every span of the traced round is charged its *self* time
(duration minus its children's) and mapped to the layer that owns it.  A
span this module does not know inherits its parent's layer, so a span
added inside a layer later keeps its time in that layer.  The benchmark's
own root span per case (kind ``bench``) keeps what no program span
covers: ``bench.unattributed_frac``.

Simulated clock: the H100-priced kernel records of the AmgT solvers,
summed per phase, per level and per kernel class with ``math.fsum``.

Both partitions are checked before any number is reported; a mismatch
raises :class:`ReconciliationError`.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.gpu.counters import MMA_FLOPS
from repro.obs import names as obs_names

__all__ = [
    "ReconciliationError",
    "host_layers",
    "registry_layers",
    "sim_layers",
    "sim_totals",
]

#: Deepest level reported on its own; deeper levels fold into it.
MAX_LEVEL = 6

HOST_LAYERS = (
    "amg.setup.self_ms",
    "kernels.spgemm.host_ms",
    "formats.conversion.host_ms",
    "kernels.spmv.host_ms",
    "amg.smoother.host_ms",
    "amg.cycle.host_ms",
    "tape.replay.host_ms",
    "tape.record.host_ms",
    "solvers.krylov.self_ms",
)
UNATTRIBUTED = "bench.unattributed"

_KERNEL_LAYERS = {
    "spgemm": "kernels.spgemm.host_ms",
    "spmv": "kernels.spmv.host_ms",
    "csr2mbsr": "formats.conversion.host_ms",
    "mbsr2csr": "formats.conversion.host_ms",
    "csr2bsr": "formats.conversion.host_ms",
    "smoother": "amg.smoother.host_ms",
}
_NAMED_LAYERS = {
    "AmgTSolver.setup": "amg.setup.self_ms",
    "tape.record": "tape.record.host_ms",
    "AmgTSolver.solve_krylov": "solvers.krylov.self_ms",
    "pcg": "solvers.krylov.self_ms",
    "gmres": "solvers.krylov.self_ms",
    "bicgstab": "solvers.krylov.self_ms",
}
#: Spans whose time belongs to whichever solve path ran beneath them.
_SOLVE_ENTRIES = {"AmgTSolver.solve", "AmgTSolver.solve_multi"}
_CONVERSIONS = {"csr2mbsr", "mbsr2csr", "csr2bsr"}


class ReconciliationError(RuntimeError):
    """A layer partition does not add up to the total it splits."""


def _interpreted(span) -> bool:
    return any(
        s.kind == "level" or (s.kind == "cycle" and not s.attrs.get("taped"))
        for s in span.walk()
    )


def _layer(span, parent_layer: str) -> str:
    kind, name = span.kind, span.name
    if kind == "bench":
        return UNATTRIBUTED
    if kind == "kernel" and name in _KERNEL_LAYERS:
        return _KERNEL_LAYERS[name]
    if kind == "phase" and name == "setup":
        return "amg.setup.self_ms"
    if (kind == "phase" and name == "solve") or name in _SOLVE_ENTRIES:
        return "amg.cycle.host_ms" if _interpreted(span) else "tape.replay.host_ms"
    if kind == "cycle":
        return "tape.replay.host_ms" if span.attrs.get("taped") else "amg.cycle.host_ms"
    if kind == "level":
        return "amg.cycle.host_ms"
    return _NAMED_LAYERS.get(name, parent_layer)


def host_layers(roots) -> dict:
    """Self time per layer (ms) over the case root spans, reconciled.

    Per root, the integer-ns self times of all its spans must sum to the
    root's wall time, and no span may be shorter than its children.
    """
    ns: dict[str, int] = defaultdict(int)
    inclusive: dict[str, int] = defaultdict(int)
    wall = 0
    for root in roots:
        root_ns: dict[str, int] = defaultdict(int)
        stack = [(root, UNATTRIBUTED)]
        while stack:
            span, parent_layer = stack.pop()
            layer = _layer(span, parent_layer)
            self_ns = span.wall_ns - sum(c.wall_ns for c in span.children)
            if self_ns < 0:
                raise ReconciliationError(f"span {span.name!r} is shorter than its children")
            root_ns[layer] += self_ns
            if span.kind == "bench" and span is not root:
                inclusive[span.name] += span.wall_ns
            stack.extend((c, layer) for c in span.children)
        if sum(root_ns.values()) != root.wall_ns:
            raise ReconciliationError(
                f"{root.name}: self times sum to {sum(root_ns.values())} ns, "
                f"root wall is {root.wall_ns} ns"
            )
        wall += root.wall_ns
        for layer, v in root_ns.items():
            ns[layer] += v
    out = {layer: ns[layer] / 1e6 for layer in HOST_LAYERS}
    out["amg.reuse.exact_ms"] = inclusive["bench.resetup.exact"] / 1e6
    out["amg.reuse.patch_ms"] = inclusive["bench.resetup.patch"] / 1e6
    out["bench.unattributed_frac"] = ns[UNATTRIBUTED] / wall if wall else 0.0
    return out


def _by_label(snapshot: dict, name: str, label: str) -> dict:
    out: dict = defaultdict(float)
    for sample in snapshot.get(name, {}).get("samples", []):
        out[sample["labels"].get(label)] += sample.get("value", 0.0)
    return out


def _total(snapshot: dict, name: str) -> float:
    return sum(s.get("value", 0.0) for s in snapshot.get(name, {}).get("samples", []))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def registry_layers(snapshot: dict) -> dict:
    """Cache, reuse and tape counters of the traced round."""
    op = _by_label(snapshot, obs_names.OPERATOR_CACHE_REQUESTS, "result")
    plan = _by_label(snapshot, obs_names.SETUP_CACHE_REQUESTS, "result")
    reuse = _by_label(snapshot, obs_names.SETUP_REUSE, "outcome")
    reuse_total = sum(reuse.values())
    return {
        "kernels.operator_cache.hit_ratio": _ratio(op["hit"], op["hit"] + op["miss"]),
        "kernels.setup_cache.hit_ratio": _ratio(plan["hit"], plan["hit"] + plan["miss"]),
        "amg.reuse.exact_frac": _ratio(reuse["exact"], reuse_total),
        "amg.reuse.patched_frac": _ratio(reuse["patched"], reuse_total),
        "amg.reuse.fallback_frac": _ratio(reuse["fallback"], reuse_total),
        "tape.records": _total(snapshot, obs_names.TAPE_RECORDS),
        "tape.replay_cycles": _total(snapshot, obs_names.TAPE_REPLAY_CYCLES),
    }


def _kernel_class(kernel: str) -> str:
    if kernel == "spgemm":
        return "spgemm"
    if kernel in ("spmv", "spmm"):
        return "spmv"
    if kernel in _CONVERSIONS:
        return "conversion"
    return "other"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def sim_totals(records) -> float:
    return math.fsum(r.sim_time_us for r in records)


def sim_layers(records) -> dict:
    """Simulated µs per phase, level and kernel class; counted work.

    Every record lands in exactly one (phase, level) and one
    (phase, class) cell; the cell sums must reproduce each phase total,
    and the phase totals the grand total, to rounding.
    """
    level_us: dict = defaultdict(list)
    class_us: dict = defaultdict(list)
    phase_us: dict = defaultdict(list)
    for r in records:
        level = "unleveled" if r.level < 0 else f"L{min(r.level, MAX_LEVEL)}"
        level_us[r.phase, level].append(r.sim_time_us)
        class_us[r.phase, _kernel_class(r.kernel)].append(r.sim_time_us)
        phase_us[r.phase].append(r.sim_time_us)
    total = sim_totals(records)
    if sum(len(v) for v in level_us.values()) != len(records):
        raise ReconciliationError("records lost in the per-level split")
    phase_tot = {p: math.fsum(v) for p, v in phase_us.items()}
    for p, tot in phase_tot.items():
        for cells in (level_us, class_us):
            parts = math.fsum(math.fsum(v) for (q, _), v in cells.items() if q == p)
            if not _close(parts, tot):
                raise ReconciliationError(f"{p}: cells sum to {parts} us, phase is {tot} us")
    if not _close(math.fsum(phase_tot.values()), total):
        raise ReconciliationError("phase totals do not sum to the simulated total")

    out = {}
    for phase in ("setup", "solve"):
        for lvl in [f"L{i}" for i in range(MAX_LEVEL + 1)] + ["unleveled"]:
            out[f"gpu.{phase}.{lvl}_us"] = math.fsum(level_us.get((phase, lvl), []))
    out["gpu.setup.spgemm_us"] = math.fsum(class_us.get(("setup", "spgemm"), []))
    out["gpu.setup.conversion_us"] = math.fsum(class_us.get(("setup", "conversion"), []))
    out["gpu.setup.other_us"] = math.fsum(class_us.get(("setup", "other"), []))
    out["gpu.solve.spmv_us"] = math.fsum(class_us.get(("solve", "spmv"), []))
    out["gpu.solve.other_us"] = math.fsum(class_us.get(("solve", "other"), []))

    spgemm = [r for r in records if r.kernel == "spgemm"]
    spmv = [r for r in records if r.kernel in ("spmv", "spmm")]
    tc_pairs = sum(r.detail.get("tc_pairs", 0) for r in spgemm)
    all_pairs = tc_pairs + sum(r.detail.get("cuda_pairs", 0) for r in spgemm)
    tc_spmv = sum(str(r.detail.get("path", "")).startswith("tc") for r in spmv)
    nbytes = sum(r.counters.total_bytes for r in records)
    mma = sum(r.counters.total_mma for r in records)
    flops = sum(r.counters.total_scalar_flops for r in records)
    out.update({
        "kernels.spgemm.calls": len(spgemm),
        "kernels.spgemm.tc_frac": _ratio(tc_pairs, all_pairs),
        "formats.conversion.calls": sum(r.kernel in _CONVERSIONS for r in records),
        "kernels.spmv.calls": len(spmv),
        "kernels.spmv.tc_frac": _ratio(tc_spmv, len(spmv)),
        "kernels.bytes_computed": nbytes,
        "kernels.mma_issues": mma,
        "kernels.scalar_flops": flops,
        "kernels.flops_per_byte": _ratio(mma * MMA_FLOPS + flops, nbytes),
    })
    return out
