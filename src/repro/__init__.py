"""DD-POLICE: defending unstructured P2P systems from overlay
flooding-based DDoS.

Reproduction of Liu, Liu, Wang & Xiao, *Defending P2Ps from Overlay
Flooding-based DDoS*, ICPP 2007. The package provides:

* :mod:`repro.core` -- the DD-POLICE protocol (indicators, buddy groups,
  Neighbor_Traffic messages, bad-peer recognition);
* :mod:`repro.overlay` -- a message-level Gnutella-style overlay with
  flooding search, topology generation, bandwidth and content models;
* :mod:`repro.fluid` -- a vectorized fluid-flow engine for paper-scale
  experiments (20,000 peers);
* :mod:`repro.attack`, :mod:`repro.churn`, :mod:`repro.workload`,
  :mod:`repro.testbed` -- the attack, dynamics, workload, and physical
  testbed models of Sections 2 and 3.5;
* :mod:`repro.baselines` -- the naive rate cutoff and probabilistic
  packet-marking traceback comparators;
* :mod:`repro.experiments`, :mod:`repro.metrics` -- the harness that
  regenerates every evaluation figure.

Quickstart
----------
>>> from repro import FluidConfig, FluidSimulation
>>> sim = FluidSimulation(FluidConfig(n=500, num_agents=3, defense="ddpolice"))
>>> rows = sim.run(minutes=10)
>>> rows[-1].success_rate > 0
True
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module. The names resolve on first access
#: (PEP 562), so ``import repro.<module>`` loads only that module's own
#: imports and never the whole package.
_EXPORTS = {
    "DDPoliceConfig": "repro.core.config",
    "DDPoliceEngine": "repro.core.police",
    "deploy_ddpolice": "repro.core.police",
    "general_indicator": "repro.core.indicators",
    "single_indicator": "repro.core.indicators",
    "is_bad_peer": "repro.core.indicators",
    "FluidConfig": "repro.fluid.model",
    "FluidSimulation": "repro.fluid.model",
    "DESConfig": "repro.experiments.runner",
    "run_des_experiment": "repro.experiments.runner",
    "OverlayNetwork": "repro.overlay.network",
    "NetworkConfig": "repro.overlay.network",
    "TopologyConfig": "repro.overlay.topology",
    "generate_topology": "repro.overlay.topology",
    "Simulator": "repro.simkit.engine",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
