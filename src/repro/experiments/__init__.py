"""Experiment harness: one module per table/figure of the evaluation.

| Paper result | Module |
|---|---|
| Fig. 7a/7b/7c (routing server scalability) | :mod:`repro.experiments.routing_server` |
| Table 3 / Table 4 (deployments)            | :mod:`repro.experiments.scenarios` |
| Fig. 9 / Table 5 (FIB state)               | :mod:`repro.experiments.fib_state` |
| Fig. 11 (handover delay CDF)               | :mod:`repro.experiments.handover` |
| Fig. 12 (permille drops on egress)         | :mod:`repro.experiments.drops` |
| Sec. 5.3 (enforcement point ablation)      | :mod:`repro.experiments.enforcement` |
| Sec. 5.4 (policy update strategies)        | :mod:`repro.experiments.policy_update` |
| Sec. 3.2.2 (default-route ablation)        | :mod:`repro.experiments.initial_delay` |
| Sec. 2 (centralized WLC motivation)        | :mod:`repro.experiments.wlc_ablation` |
| Fabric wireless (WLC in control plane)     | :mod:`repro.experiments.wireless_handover` |

Every module exposes a ``run_*`` function returning plain dict/list
results plus a ``format_*`` helper that prints the same rows/series the
paper's figure draws.  The claim tests under ``tests/claims/`` wrap
these.
"""

from repro.experiments import reporting

__all__ = ["reporting"]
