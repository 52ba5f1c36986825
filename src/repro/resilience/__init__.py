"""Query-resilience layer: failover, orphan suppression, graded completion.

Policy and report types live here and are re-exported by
:mod:`repro.protocol`; the invariant checkers the chaos harness uses are
in :mod:`repro.resilience.invariants` (imported lazily by callers — they
pull in the protocol stack, which itself depends on this package's
policy types).
"""

from .policy import ResiliencePolicy
from .report import CompletionReport, build_completion_report

__all__ = ["ResiliencePolicy", "CompletionReport", "build_completion_report"]
