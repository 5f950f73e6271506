"""Shared helpers for the fluid-engine tests."""

from typing import Dict, Tuple

import numpy as np

from repro.fluid.graphstate import GraphState


def edge_rates(state: GraphState, rates: Dict[Tuple[int, int], float]) -> np.ndarray:
    """Per-edge rate array aligned with ``state.edge_arrays()`` from a
    hand-written ``{(src, dst): rate}`` dict; unnamed edges carry 0.0 and a
    key that is not a live directed edge is a ``KeyError``."""
    src, dst, _, _ = state.edge_arrays()
    index = {edge: e for e, edge in enumerate(zip(src.tolist(), dst.tolist()))}
    out = np.zeros(len(src))
    for edge, rate in rates.items():
        out[index[edge]] = rate
    return out


def police_step(police, state: GraphState, flows: Dict[Tuple[int, int], float]) -> int:
    """One ``FluidPolice`` round at minute 1 on hand-written rates, without
    link loss (sent == delivered)."""
    rates = edge_rates(state, flows)
    return police.step(1.0, state, rates, rates)
