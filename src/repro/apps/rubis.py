"""RUBiS-like three-tier online auction benchmark.

Models the paper's RUBiS (EJB version) deployment of Fig. 5: a web
server, two load-balanced application servers and a database server,
each in its own VM, driven by an HTTP client emulating the NASA
web-server trace.

Performance model (per 1 s step): each tier is an M/M/1 station whose
service rate is the tier's effective CPU divided by its per-request
CPU demand.  The end-to-end response time is the base network/think
overhead plus the sum of tier sojourn times (the app tier counts once
— requests are split evenly across the two app servers).  The client
reports an exponentially smoothed average response time, the SLO
metric of Figs. 7/9; the SLO is violated when it exceeds 200 ms.

The database tier carries the highest per-request demand, so it is the
first to saturate under a workload ramp — the paper's bottleneck
component — and it is also where the paper injects the memory-leak and
CPU-hog faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppComponent, DistributedApplication
from repro.apps.slo import SLOTracker
from repro.apps.workload import Workload
from repro.sim.engine import Simulator
from repro.sim.vm import VirtualMachine

__all__ = ["RubisApp", "TierProfile", "DEFAULT_TIER_PROFILES"]

#: Response time reported when a tier has fully saturated, seconds.
_MAX_RESPONSE = 1.0

_RHO_CLAMP = 0.995

#: Time constant of the client-side moving average, seconds.
_SMOOTHING_WINDOW = 10.0


@dataclass(frozen=True)
class TierProfile:
    """Static profile of one RUBiS tier component."""

    name: str
    cpu_cost: float          # core-seconds per request at this tier
    base_memory_mb: float
    kb_in_per_req: float
    kb_out_per_req: float
    disk_kb_per_req: float = 0.0
    #: Fraction of application requests this component serves.
    load_share: float = 1.0


#: Tuned so that at the nominal ~200 req/s and 1-core VMs the DB tier
#: runs at ~72% utilization (the clear bottleneck, with enough headroom
#: that a memory leak degrades response time *gradually* before the
#: SLO breaks) and the end-to-end response time sits near 45-60 ms,
#: far below the 200 ms SLO.
DEFAULT_TIER_PROFILES: Tuple[TierProfile, ...] = (
    TierProfile("web", cpu_cost=0.0015, base_memory_mb=320.0,
                kb_in_per_req=2.0, kb_out_per_req=9.0),
    TierProfile("app1", cpu_cost=0.0022, base_memory_mb=480.0,
                kb_in_per_req=1.5, kb_out_per_req=3.0, load_share=0.5),
    TierProfile("app2", cpu_cost=0.0022, base_memory_mb=480.0,
                kb_in_per_req=1.5, kb_out_per_req=3.0, load_share=0.5),
    TierProfile("db", cpu_cost=0.0036, base_memory_mb=700.0,
                kb_in_per_req=1.0, kb_out_per_req=4.0,
                disk_kb_per_req=12.0),
)


class RubisApp(DistributedApplication):
    """The RUBiS three-tier application on four VMs."""

    BOTTLENECK_TIER = "db"

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        vms: Sequence[VirtualMachine],
        profiles: Sequence[TierProfile] = DEFAULT_TIER_PROFILES,
        response_time_slo: float = 0.200,
        base_overhead: float = 0.015,
    ) -> None:
        if len(vms) != len(profiles):
            raise ValueError(
                f"need one VM per tier: {len(profiles)} tiers, {len(vms)} VMs"
            )
        slo = SLOTracker(
            lambda rt_ms: rt_ms > response_time_slo * 1000.0, name="rubis"
        )
        super().__init__(sim, workload, slo)
        self.response_time_slo = response_time_slo
        self.base_overhead = base_overhead
        self.profiles: Dict[str, TierProfile] = {}
        for profile, vm in zip(profiles, vms):
            self.profiles[profile.name] = profile
            self.add_component(
                AppComponent(
                    name=profile.name,
                    vm=vm,
                    cpu_cost=profile.cpu_cost,
                    base_memory_mb=profile.base_memory_mb,
                )
            )
        #: Exponentially smoothed client-observed response time, seconds.
        self.avg_response_time = base_overhead
        self.last_request_rate = 0.0
        self.last_instant_response = base_overhead
        self.last_tier_times: Dict[str, float] = {}
        #: Per-tier request backlog.  A tier pushed past capacity
        #: accumulates queued requests that must drain after capacity
        #: is restored — the reason a reactive fix still leaves a tail
        #: of elevated response times.
        self.backlog: Dict[str, float] = {name: 0.0 for name in self.profiles}
        #: Client concurrency bound per tier, requests (waiting clients
        #: beyond this time out and retry later).
        self.backlog_cap = 450.0
        #: Per tier: load share, then network in, network out, disk read
        #: and (a quarter of it) disk write in KB per request.
        self._tier_table = np.array([
            (p.load_share, p.kb_in_per_req, p.kb_out_per_req,
             p.disk_kb_per_req, p.disk_kb_per_req)
            for p in self.profiles.values()
        ])

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def advance(self, now: float, dt: float) -> Tuple[float, Optional[bool]]:
        rate = self.workload.rate(now)
        arrivals = rate * self._tier_table[:, 0]
        self._register(arrivals)
        tier_times: Dict[str, float] = {}
        for name, arrival, capacity in zip(
            self.profiles, arrivals.tolist(), self._capacities().tolist()
        ):
            # Backlog dynamics: demand beyond capacity queues up (bounded
            # by client concurrency) and must drain once capacity returns.
            queue = self.backlog[name]
            excess = (arrival - capacity) * dt
            queue = min(max(0.0, queue + excess), self.backlog_cap)
            self.backlog[name] = queue
            waiting = queue / capacity if capacity > 0 else _MAX_RESPONSE
            tier_times[name] = min(
                self._sojourn(arrival, capacity) + waiting, _MAX_RESPONSE
            )
        kbps = arrivals[:, np.newaxis] * self._tier_table[:, 1:]
        kbps[:, 3] *= 0.25
        self._report(kbps)

        # Web and DB serve every request; the app tier counts once with
        # the two servers' times averaged (even load balancing).
        app_time = 0.5 * (tier_times["app1"] + tier_times["app2"])
        response = (
            self.base_overhead + tier_times["web"] + app_time + tier_times["db"]
        )
        response = min(response, _MAX_RESPONSE)

        alpha = min(1.0, dt / _SMOOTHING_WINDOW)
        self.avg_response_time += alpha * (response - self.avg_response_time)
        self.last_request_rate = rate
        self.last_instant_response = response
        self.last_tier_times = tier_times

        # The reported SLO metric is the average response time in ms.
        return self.avg_response_time * 1000.0, None

    def _sojourn(self, arrival: float, capacity: float) -> float:
        """M/M/1 sojourn time for one tier, clamped at saturation."""
        if capacity <= 0:
            return _MAX_RESPONSE
        rho = arrival / capacity
        if rho >= _RHO_CLAMP:
            return _MAX_RESPONSE
        service = 1.0 / capacity
        return min(service / (1.0 - rho), _MAX_RESPONSE)

    def slo_metric_name(self) -> str:
        return "average response time (ms)"
