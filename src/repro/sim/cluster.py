"""Cluster inventory and placement.

Mirrors the NCSU VCL setup in the paper: a pool of identical hosts,
one application VM per host plus a set of idle spare hosts that live
migration can target.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.host import Host, VCL_HOST_SPEC
from repro.sim.hypervisor import Hypervisor
from repro.sim.resources import ResourceError, ResourceSpec
from repro.sim.vm import VirtualMachine, VMTable

__all__ = ["Cluster"]


class Cluster:
    """A pool of hosts plus the hypervisor control plane; every VM it
    creates is a row of its one :class:`VMTable`."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self.hypervisor = Hypervisor(sim)
        self.table = VMTable()
        self._hosts: Dict[str, Host] = {}
        self._vms: Dict[str, VirtualMachine] = {}

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def vms(self) -> List[VirtualMachine]:
        return list(self._vms.values())

    def add_host(self, name: str, capacity: ResourceSpec = VCL_HOST_SPEC) -> Host:
        if name in self._hosts:
            raise ResourceError(f"duplicate host name {name}")
        host = Host(name, capacity)
        self._hosts[name] = host
        return host

    def add_hosts(self, count: int, prefix: str = "host",
                  capacity: ResourceSpec = VCL_HOST_SPEC) -> List[Host]:
        """Add ``count`` hosts, numbering past any existing ones so
        repeated calls (multi-tenant placements) never collide."""
        start = len(self._hosts)
        return [
            self.add_host(f"{prefix}{start + i + 1}", capacity)
            for i in range(count)
        ]

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def vm(self, name: str) -> VirtualMachine:
        return self._vms[name]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def create_vm(self, name: str, spec: ResourceSpec, host: Host) -> VirtualMachine:
        if name in self._vms:
            raise ResourceError(f"duplicate VM name {name}")
        vm = VirtualMachine(name, spec, self.table)
        host.place(vm)
        self._vms[name] = vm
        return vm

    def place_one_vm_per_host(
        self, names: Iterable[str], spec: ResourceSpec, spares: int = 2,
        host_prefix: str = "host",
    ) -> List[VirtualMachine]:
        """Paper layout: each application VM on its own host plus spares.

        Creates exactly enough hosts for the named VMs, then ``spares``
        additional empty hosts that migrations can target.
        """
        names = list(names)
        hosts = self.add_hosts(len(names) + spares, prefix=host_prefix)
        return [
            self.create_vm(name, spec, host) for name, host in zip(names, hosts)
        ]

    def idle_hosts(self) -> List[Host]:
        """Hosts with no VMs, in name order (deterministic)."""
        return sorted(
            (h for h in self._hosts.values() if not h.vms), key=lambda h: h.name
        )

    def find_migration_target(
        self, vm: VirtualMachine, required: Optional[ResourceSpec] = None
    ) -> Optional[Host]:
        """Pick a host the VM fits on, preferring idle hosts.

        PREPARE migrates a faulty VM "to a host with desired resources"
        [15]: ``required`` is the allocation the VM is expected to grow
        to after arriving (defaults to its current spec), so the chosen
        host is guaranteed to have room for the post-migration scale-up
        — not merely for the VM as it is now.
        """
        needed = required if required is not None else vm.spec
        for host in self.idle_hosts():
            if host is not vm.host and host.can_fit(needed):
                return host
        candidates = [
            h for h in self._hosts.values()
            if h is not vm.host and h.can_fit(needed)
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda h: (-h.free().cpu_cores, h.name))
        return candidates[0]
