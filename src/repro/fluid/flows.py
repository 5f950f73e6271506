"""Vectorized per-minute query-flow propagation.

State for one minute: a directed edge set, per-node good-query issue
rates, per-edge attack injections, per-node processing capacities, and
per-node access-link bandwidths. Flows are propagated hop by hop up to
the TTL:

* age-0 flow is the injection (a flooded query is copied onto every
  outgoing edge of its source; per-neighbor attack queries are injected
  on their single target edge);
* a transmission on edge v->w is shaped by the sender's upstream link
  (``omega[v] = min(1, up_v / out-demand_v)``) and dropped at the
  receiver's downstream link (``iota[w] = min(1, down_w / in-load_w)``);
* arrivals at v of age h are ``A_h[v] = sum of delivered f_h over
  in-edges``; every arrival costs processing work (duplicates included --
  the GUID check happens after the message has been received), so the
  processed fraction is ``rho[v] = min(1, C_v / I_v)`` with ``I_v`` the
  total arrival rate across all ages;
* of the processed arrivals, the novel fraction ``sigma_h`` survives
  duplicate suppression and is forwarded on every out-edge except the
  reverse of its arrival edge:
  ``f_{h+1}[v->w] = (A_h[v] - d_h[w->v]) * sigma_h * rho[v]``.

``rho``/``omega``/``iota`` couple hops (drops upstream reduce load
downstream), so the propagation runs inside a damped fixed-point loop --
a handful of iterations converge to <0.1% residual on the graphs used
here.

Good and attack flows propagate as two classes sharing the loss factors;
only good flow contributes to success metrics, but both load capacity
and both appear in the per-edge counts DD-POLICE monitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError


def build_edge_arrays(
    adjacency: Dict[int, Set[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge arrays (src, dst, rev) from an adjacency dict.

    Every undirected link {u, v} yields the two directed edges u->v and
    v->u; ``rev[e]`` is the index of e's reverse. Nodes absent from
    ``adjacency`` simply have no edges.

    Edges are ordered by (src, dst), so ``src`` is non-decreasing and the
    per-source edges form contiguous slices (the CSR property
    :func:`edge_slice_index` exploits). The construction is vectorized --
    neighbor sets are flattened once at C speed, one argsort over packed
    (src, dst) keys yields the canonical order, and one argsort of the
    swapped (dst, src) keys yields the reverse-edge permutation.
    """
    counts = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=len(adjacency))
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty.copy(), empty.copy(), empty.copy()
    nodes = np.fromiter(adjacency.keys(), dtype=np.int64, count=len(adjacency))
    src = np.repeat(nodes, counts)
    dst = np.fromiter(chain.from_iterable(adjacency.values()), dtype=np.int64, count=total)
    if src.min() < 0 or dst.min() < 0:
        raise ConfigError("node ids must be non-negative")
    span = int(max(src.max(), dst.max())) + 1
    keys = src * span + dst
    order = np.argsort(keys, kind="stable")
    src, dst, keys = src[order], dst[order], keys[order]
    if np.any(src == dst):
        u = int(src[int(np.argmax(src == dst))])
        raise ConfigError(f"self-loop at node {u}")
    # A set holds each neighbor once, so every key (and every swapped key)
    # is distinct: no sort kind can order them differently. Edge i's
    # reverse carries swapped key keys[i], so sorting the swapped keys
    # lists the reverses in edge order -- that argsort is the inverse of
    # rev, and rev, an involution, is its own inverse.
    swapped = dst * span + src
    rev = np.argsort(swapped)
    if not np.array_equal(swapped[rev], keys):
        missing = ~np.isin(swapped, keys)
        e = int(np.argmax(missing))
        raise ConfigError(f"asymmetric adjacency at edge ({int(src[e])}, {int(dst[e])})")
    return src, dst, rev


def edge_slice_index(src: np.ndarray, n: int) -> np.ndarray:
    """CSR-style index over (src,dst)-sorted edges: ``indptr`` of length
    ``n + 1`` such that node ``u``'s outgoing edges occupy
    ``slice(indptr[u], indptr[u + 1])``.

    Replaces per-node ``src == u`` mask scans (O(E) each) with O(1)
    slices; out-degrees are ``np.diff(indptr)``.
    """
    if src.size and np.any(src[1:] < src[:-1]):
        raise ConfigError("src must be non-decreasing (build_edge_arrays order)")
    return np.searchsorted(src, np.arange(n + 1, dtype=np.int64))


@dataclass
class FlowResult:
    """Outcome of one minute's flow propagation."""

    #: Per-directed-edge delivered query rate (queries/min), by class --
    #: what the receiving side's In_query counter sees.
    edge_good: np.ndarray
    edge_attack: np.ndarray
    #: Per-directed-edge *sent* rate -- what the sending side's Out_query
    #: counter sees: shaped by the sender's own upstream link (messages
    #: that left its NIC) but not by the receiver's inbound loss. Under
    #: congestion sent > delivered; Neighbor_Traffic reports carry sent
    #: counts while the suspect could only forward what it received,
    #: which is how saturated systems bias g(j,t) downward and let
    #: attackers slip past large cut thresholds.
    edge_sent_total: np.ndarray
    #: Per-node processed fraction in [0, 1] (processing capacity).
    rho: np.ndarray
    #: Per-node upstream shaping / downstream drop fractions in [0, 1].
    omega: np.ndarray
    iota: np.ndarray
    #: Per-node total arrival rate (offered processing load, queries/min).
    offered: np.ndarray
    #: Per-hop system-wide novel processed *good* arrivals (queries/min),
    #: index h-1 for hop h; drives reach/success estimates.
    good_processed_per_hop: np.ndarray
    #: Per-hop processed-flow-weighted path quality: the expected
    #: ``rho * omega * iota`` at the nodes that handled good queries at
    #: hop h. A QueryHit returning through hop-h nodes survives each with
    #: ~this probability, so responses die in exactly the congestion that
    #: kills forward progress (Section 3.6's failed-response mechanism).
    good_path_quality_per_hop: np.ndarray
    #: Total injected rates (queries/min).
    good_injected: float
    attack_injected: float
    iterations: int

    @property
    def edge_total(self) -> np.ndarray:
        """Per-edge total (good + attack) -- the Q counts of Section 2.2."""
        return self.edge_good + self.edge_attack

    @property
    def total_messages_per_min(self) -> float:
        """Delivered query transmissions per minute across all links."""
        return float(self.edge_total.sum())

    @property
    def dropped_fraction(self) -> float:
        """Fraction of offered arrivals dropped for processing capacity."""
        total = float(self.offered.sum())
        if total <= 0:
            return 0.0
        processed = float((self.offered * self.rho).sum())
        return 1.0 - processed / total


def propagate_flows(
    src: np.ndarray,
    dst: np.ndarray,
    rev: np.ndarray,
    n: int,
    *,
    good_rate: np.ndarray,
    attack_edge_inject: np.ndarray,
    capacity: np.ndarray,
    ttl: int,
    sigma: np.ndarray,
    upstream_qpm: Optional[np.ndarray] = None,
    downstream_qpm: Optional[np.ndarray] = None,
    max_iterations: int = 10,
    damping: float = 0.5,
    tolerance: float = 1e-3,
) -> FlowResult:
    """Run the capacity/bandwidth fixed point and return converged flows.

    Parameters
    ----------
    src, dst, rev:
        Directed edge arrays from :func:`build_edge_arrays`.
    n:
        Node-id space size (arrays are indexed 0..n-1).
    good_rate:
        Per-node good-query issue rate (queries/min); flooded to all
        neighbors.
    attack_edge_inject:
        Per-*edge* attack injection (queries/min): distinct queries
        entering directly on specific edges (the per-neighbor pattern).
    capacity:
        Per-node processing capacity (queries/min).
    ttl:
        Maximum path length in hops.
    sigma:
        Novelty schedule ``sigma[0..ttl]`` from
        :func:`repro.fluid.coverage.novelty_schedule`.
    upstream_qpm / downstream_qpm:
        Per-node access-link rates in queries/min (Section 3.5's Saroiu
        assignment). ``None`` means unconstrained.
    """
    E = len(src)
    if len(dst) != E or len(rev) != E:
        raise ConfigError("edge arrays must have equal length")
    if good_rate.shape != (n,) or capacity.shape != (n,):
        raise ConfigError("good_rate/capacity must be shape (n,)")
    if attack_edge_inject.shape != (E,):
        raise ConfigError("attack_edge_inject must be shape (E,)")
    if len(sigma) < ttl + 1:
        raise ConfigError(f"sigma must cover hops 0..{ttl}")
    if np.any(good_rate < 0) or np.any(attack_edge_inject < 0):
        raise ConfigError("rates must be non-negative")
    if np.any(capacity <= 0):
        raise ConfigError("capacities must be positive")
    if not (0 < damping <= 1):
        raise ConfigError("damping must be in (0, 1]")
    if max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    up = np.full(n, np.inf) if upstream_qpm is None else np.asarray(upstream_qpm, float)
    down = (
        np.full(n, np.inf) if downstream_qpm is None else np.asarray(downstream_qpm, float)
    )
    if up.shape != (n,) or down.shape != (n,):
        raise ConfigError("bandwidth arrays must be shape (n,)")
    if np.any(up <= 0) or np.any(down <= 0):
        raise ConfigError("bandwidths must be positive")

    # Both classes ride one stacked ``[good | attack]`` layout: flows are
    # length-2E vectors and arrivals length-2n (attack node ids offset by
    # n, attack edge ids by E), so a hop costs one bincount and one
    # gather/scale/clamp chain for the two classes together. The three
    # load sums and loss factors are stacked the same way, as the rows
    # ``(offered, out-demand, in-load)`` and ``(rho, omega, iota)``.
    # No per-element expression and no bincount accumulation order differs
    # from running everything separately: each part only ever lands in
    # its own bins.
    src2 = np.concatenate([src, src + n])
    dst2 = np.concatenate([dst, dst + n])
    rev2 = np.concatenate([rev, rev + E])
    src_dst = np.concatenate([src, dst + n])
    inj2 = np.concatenate([good_rate[src], attack_edge_inject])
    inj_tot = inj2[:E] + inj2[E:]
    out_demand0 = np.bincount(src, weights=inj_tot, minlength=n)
    limit = np.stack([capacity, up, down])
    hop_sigma = [float(x) for x in sigma[: ttl + 1]]
    loss = np.ones((3, n))
    sent2 = np.empty(2 * E)  # per hop: [pre-link demand | what left the NIC]
    demand, left_nic = sent2[:E], sent2[E:]

    for iteration in range(1, max_iterations + 1):
        rho, omega, iota = loss
        quality = rho * omega * iota
        # Loss factors are fixed within one pass; gather them per edge once.
        omega_src = omega[src]
        link = omega_src * iota[dst]  # per-edge delivery factor
        link2 = np.concatenate([link, link])
        rho_src = rho[src]
        rho_src2 = np.concatenate([rho_src, rho_src])

        d2 = inj2 * link2
        F2 = d2.copy()
        F_sent = inj_tot * omega_src
        load = np.zeros((3, n))
        offered, link_load = load[0], load[1:].reshape(-1)  # views
        load[1] = out_demand0
        load[2] = np.bincount(dst, weights=F_sent, minlength=n)
        processed = np.zeros((ttl, n))  # novel processed good arrivals per hop

        for hop in range(1, ttl + 1):
            A2 = np.bincount(dst2, weights=d2, minlength=2 * n)
            s = hop_sigma[hop]
            # Every delivered message consumes processing (the Section 2.3
            # measurement charges per *received* query -- duplicates are
            # detected only after the node has spent work on them).
            offered += A2[:n] + A2[n:]
            np.multiply(A2[:n] * s, rho, out=processed[hop - 1])
            if hop == ttl:
                break
            # Forwarded demand leaving each node (pre-link):
            # (A_h[src] - d_h[rev]) * sigma_h * rho[src], clamped at 0.
            f2 = A2[src2] - d2[rev2]
            f2 *= s
            f2 *= rho_src2
            np.maximum(f2, 0.0, out=f2)
            np.add(f2[:E], f2[E:], out=demand)
            np.multiply(demand, omega_src, out=left_nic)
            F_sent += left_nic
            link_load += np.bincount(src_dst, weights=sent2, minlength=2 * n)
            np.multiply(f2, link2, out=d2)
            F2 += d2

        # A subnormal load overflows ``limit / load`` to inf: min(1, inf) = 1.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            loss_new = np.where(load > 0, np.minimum(1.0, limit / load), 1.0)
        delta = float(np.abs(loss_new - loss).max()) if n else 0.0
        loss = damping * loss_new + (1.0 - damping) * loss
        if delta < tolerance:
            break

    # Rows of a C-contiguous matrix sum exactly like the 1-D vectors.
    good_hops = processed.sum(axis=1)
    good_quality = np.ones(ttl)
    np.divide(
        (processed * quality).sum(axis=1), good_hops, out=good_quality,
        where=good_hops > 0,
    )
    rho, omega, iota = loss
    return FlowResult(
        edge_good=F2[:E],
        edge_attack=F2[E:],
        edge_sent_total=F_sent,
        rho=rho,
        omega=omega,
        iota=iota,
        offered=offered,
        good_processed_per_hop=good_hops,
        good_path_quality_per_hop=good_quality,
        good_injected=float(good_rate.sum()),
        attack_injected=float(attack_edge_inject.sum()),
        iterations=iteration,
    )
