"""Calibrated cost model of a lightweight mobile device.

The paper measured local skyline processing on an HP iPAQ h6365
(200 MHz TI OMAP1510, 64 MB) running SuperWaba (Section 5.1), then
*estimated* those local costs inside the MANET simulation and added them
to the simulated communication delays to obtain total response time
(Section 5.2.3). We replicate that methodology: this module converts
operation counts (or analytic estimates of them) into simulated seconds
on such a device.

Per-operation costs are order-of-magnitude figures for an interpreted
runtime on a 200 MHz ARM-class CPU (a SuperWaba-style VM executes a few
million simple bytecodes per second, putting one tuple fetch or float
comparison in the microseconds); Figure 5 only requires *relative*
behaviour (byte-ID comparisons cheaper than float comparisons, hybrid
cheaper than flat), which holds for any constants with
``id_compare < value_compare``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dominance import ComparisonCounter
from ..core.local import LocalSkylineResult

__all__ = ["DeviceCostModel", "PDA_2006", "estimate_comparisons"]


@dataclass(frozen=True)
class DeviceCostModel:
    """Per-operation costs in seconds on the modelled device.

    Attributes:
        id_compare: One small-integer ID comparison.
        value_compare: One raw (float) value comparison.
        distance_check: One Euclidean range check (two multiplies + add).
        tuple_fetch: Fetching one tuple for the scan.
        indirection: One pointer dereference (domain/ring storage).
    """

    id_compare: float = 3.0e-6
    value_compare: float = 12.0e-6
    distance_check: float = 8.0e-6
    tuple_fetch: float = 6.0e-6
    indirection: float = 10.0e-6

    def __post_init__(self) -> None:
        for name in ("id_compare", "value_compare", "distance_check",
                     "tuple_fetch", "indirection"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def time_for_counter(
        self, counter: ComparisonCounter, scanned: int = 0, indirections: int = 0
    ) -> float:
        """Seconds for an *actual* operation count (faithful paths)."""
        return (
            counter.id_comparisons * self.id_compare
            + counter.value_comparisons * self.value_compare
            + counter.distance_checks * self.distance_check
            + scanned * self.tuple_fetch
            + indirections * self.indirection
        )

    def time_for_result(self, result: LocalSkylineResult, dims: int) -> float:
        """Seconds for a simulated device's local skyline run, from its
        result record.

        The vectorised path every simulated device runs fills in no
        operation counters, so the work is the analytic estimate, priced
        as the hybrid layout's ID comparisons (Section 5.2.3). Skipped
        runs are charged only their short-circuit cost (Figure 4's
        point): an MBR rejection is one rectangle test, a filter
        domination is an O(n) bound comparison — regardless of any
        metric-only skyline sizes the result may carry.
        """
        if result.skipped == "mbr":
            return self.distance_check
        if result.skipped == "dominated":
            return self.distance_check + dims * self.value_compare
        est = estimate_comparisons(
            result.in_range, result.unreduced_size, dims
        )
        return (
            result.scanned * self.tuple_fetch
            + result.scanned * self.distance_check
            + est * self.id_compare * dims
        )


def estimate_comparisons(in_range: int, skyline_size: int, dims: int) -> float:
    """Expected window-dominance comparisons of an SFS-style scan.

    The window only holds confirmed skyline members and grows from 0 to
    ``skyline_size`` over the scan; on average each scanned tuple is
    compared against about half the final window, and a dominated tuple
    stops early. ``in_range * (skyline_size / 2)`` is the standard
    back-of-envelope; exactness is irrelevant because the cost model is
    itself calibrated.
    """
    if in_range < 0 or skyline_size < 0 or dims < 1:
        raise ValueError("arguments must be non-negative (dims >= 1)")
    return in_range * max(skyline_size, 1) / 2.0


#: The paper's evaluation device (HP iPAQ h6365, SuperWaba runtime).
PDA_2006 = DeviceCostModel()


def calibrate(
    reference: DeviceCostModel = PDA_2006,
    slowdown: float = 1.0,
) -> DeviceCostModel:
    """Scale a cost model to a faster or slower device.

    ``slowdown`` multiplies every per-operation cost: 2.0 models a device
    half as fast as the reference, 0.1 a device ten times faster. Useful
    for sensitivity analyses ("would BF still win on a 2 GHz phone?").
    """
    if slowdown <= 0:
        raise ValueError("slowdown must be > 0")
    return DeviceCostModel(
        id_compare=reference.id_compare * slowdown,
        value_compare=reference.value_compare * slowdown,
        distance_check=reference.distance_check * slowdown,
        tuple_fetch=reference.tuple_fetch * slowdown,
        indirection=reference.indirection * slowdown,
    )


def calibrate_from_wall_time(
    measured_seconds: float,
    counter: ComparisonCounter,
    scanned: int = 0,
    indirections: int = 0,
    reference: DeviceCostModel = PDA_2006,
) -> DeviceCostModel:
    """Fit a cost model so the reference operation mix matches a measured
    wall time.

    Runs the relative per-operation ratios of ``reference`` through the
    observed operation counts, then rescales everything so the model
    reproduces ``measured_seconds`` exactly for that run. This is how a
    user targets their *own* hardware: run one local skyline with the
    faithful path, time it, and calibrate.
    """
    if measured_seconds <= 0:
        raise ValueError("measured_seconds must be > 0")
    predicted = reference.time_for_counter(
        counter, scanned=scanned, indirections=indirections
    )
    if predicted <= 0:
        raise ValueError("operation counts are empty; nothing to fit")
    return calibrate(reference, slowdown=measured_seconds / predicted)
