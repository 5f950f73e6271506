"""DD-POLICE detection over fluid per-edge counts.

Gathers, from the per-minute per-edge query counts the fluid engine
produces, the evidence the message-level engine collects by messages --
warning threshold, buddy group, each member's report -- and judges it
through the same verdict kernel (:mod:`repro.core.decision`).

Faithfulness notes:

* buddy groups come from the suspect's *published* neighbor list
  (:meth:`GraphState.known_neighbors`), which is up to one exchange
  period stale -- new neighbors are invisible (their traffic inflates g),
  departed members report zero (their ghost membership deflates g);
* compromised peers answer with their configured
  :class:`~repro.attack.cheating.CheatStrategy`; a SILENT or offline
  member is a missing report, which the kernel treats per Section 3.4;
* a suspect convicted by an observer loses that one edge; a peer cut by
  *all* its neighbors drops out and must rejoin through bootstrap (the
  model marks it offline so the churn process re-admits it later).

The naive-cutoff baseline is included here as well so the large-scale
comparison benches can swap defenses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.attack.cheating import CheatStrategy, apply_cheat
from repro.core.config import DDPoliceConfig
from repro.core.decision import judge, judge_rate_cutoff, reduce_reports
from repro.errors import ConfigError
from repro.fluid.graphstate import GraphState
from repro.metrics.errors import JudgmentLog


def _edge_arrays_for(state: GraphState, *per_edge: np.ndarray):
    """``state.edge_arrays()``, after checking that every ``per_edge`` array
    is aligned with it.

    Alignment is what makes "the edge exists and both ends are online"
    structural; an array of another length -- one computed before an edge
    mutation, say -- is rejected.
    """
    arrays = state.edge_arrays()
    for arr in per_edge:
        if arr.shape != arrays[0].shape:
            raise ConfigError(
                f"per-edge array of shape {arr.shape} does not match the "
                f"{len(arrays[0])} directed edges of state.edge_arrays()"
            )
    return arrays


@dataclass
class FluidPoliceStats:
    """Per-run protocol accounting."""

    investigations: int = 0
    convictions: int = 0
    edges_cut: int = 0
    peers_expelled: int = 0
    traffic_messages: int = 0  # Neighbor_Traffic messages exchanged


class FluidPolice:
    """Minute-step DD-POLICE evaluator."""

    def __init__(
        self,
        config: DDPoliceConfig,
        bad_peers: Set[int],
        *,
        cheat_strategy: CheatStrategy = CheatStrategy.SILENT,
        judgment_log: Optional[JudgmentLog] = None,
        record_clears: bool = False,
    ) -> None:
        self.config = config
        self.bad_peers = set(bad_peers)
        self.cheat_strategy = cheat_strategy
        self.judgments = judgment_log if judgment_log is not None else JudgmentLog()
        self.stats = FluidPoliceStats()
        self.record_clears = record_clears

    # ------------------------------------------------------------------
    def _reports(self, state: GraphState, members, live, discarded):
        """The ``(Out_query, In_query)`` report of every member that
        answers; a member yielding nothing is a missing report."""
        for m in members:
            counts = live.get(m)
            if counts is None:
                if not state.online[m]:
                    continue  # offline: no answer within the window
                counts = (0, 0)  # stale membership: honest zeros
            # DD-POLICE-r (r > 1): members are cross-validated with
            # *their* buddy groups over the wider radius. A member that
            # is itself a suspect (crossed the warning at any of its own
            # neighbors) cannot vouch for this suspect -- its report is
            # discarded, defeating pairwise collusion.
            if m in discarded:
                continue
            if m in self.bad_peers:
                counts = apply_cheat(self.cheat_strategy, *counts)
                if counts is None:
                    continue
            yield counts

    def step(
        self,
        minute: float,
        state: GraphState,
        delivered: np.ndarray,
        sent: np.ndarray,
    ) -> int:
        """Run one detection round; returns edges cut this minute.

        ``delivered`` and ``sent`` are per-edge rates aligned with
        ``state.edge_arrays()``: delivered counts are the receiver-side
        In_query view, sent counts the sender-side Out_query view
        (pre-link-loss; pass ``delivered`` twice when link loss is not
        modelled).
        """
        wide = self.config.radius > 1

        # 1. Gather suspects: (suspect -> observers that crossed warning),
        # both ascending because edges are (src, dst)-sorted.
        src, dst, rev, indptr = _edge_arrays_for(state, delivered, sent)
        hot = np.flatnonzero(delivered > self.config.warning_threshold_qpm)
        suspects: Dict[int, List[int]] = {}
        for j, i in zip(src[hot].tolist(), dst[hot].tolist()):
            if i not in self.bad_peers:  # compromised peers don't police
                suspects.setdefault(j, []).append(i)
        if not suspects:
            return 0

        # True integer counts per directed edge j->m, from m's side: what m
        # received from j (its In_query) and what m *sent* to j (its own
        # Out_query counter, pre-link-loss). rint is Python's half-even round.
        ptr = indptr.tolist()
        neighbor = dst.tolist()
        true_in = np.rint(delivered).astype(np.int64).tolist()
        true_out = np.rint(sent[rev]).astype(np.int64).tolist()

        # 2. Decide every investigation against the *pre-step* state: the
        # protocol's report exchange and decisions all happen inside the
        # same 5-second window, so a peer expelled this round still
        # testified for the others.
        pending_cuts: List[Tuple[int, int]] = []  # (observer, suspect)
        for suspect, observers in suspects.items():
            self.stats.investigations += 1
            lo, hi = ptr[suspect], ptr[suspect + 1]
            live = dict(zip(neighbor[lo:hi], zip(true_out[lo:hi], true_in[lo:hi])))
            members = set(state.known_neighbors(suspect))
            members.discard(suspect)
            # Each observer is a live neighbor, hence a group member even
            # if the published list hasn't caught up.
            members.update(observers)
            group = reduce_reports(
                len(members),
                self._reports(state, members, live, suspects if wide else ()),
            )
            # Message accounting: every responding member broadcasts to
            # the other members once per round (5 s dedup collapses the
            # per-observer requests).
            self.stats.traffic_messages += group.answered * max(0, len(members) - 1)

            convicted = False
            for i in observers:
                # An observer judges with its own true counts; they are
                # already in the totals unless its report was discarded.
                # A minute step has no window to extend: an undecided
                # verdict stands as an abstention.
                verdict = judge(
                    self.config, group, i, suspect, *live[i],
                    own_counted=not (wide and i in suspects),
                )
                guilty = verdict.convicted
                if guilty:
                    convicted = True
                    pending_cuts.append((i, suspect))
                if guilty or self.record_clears:
                    self.judgments.record(verdict.judgment(minute))
            if convicted:
                self.stats.convictions += 1

        # 3. Apply all cuts after every decision is made.
        cut_count = 0
        expelled: Set[int] = set()
        for i, suspect in pending_cuts:
            state.remove_edge(i, suspect)
            cut_count += 1
            self.stats.edges_cut += 1
            # Fully isolated peers fall off the overlay and must
            # re-bootstrap: model as churn departure.
            if not state.adjacency[suspect] and suspect not in expelled:
                state.online[suspect] = False
                expelled.add(suspect)
                self.stats.peers_expelled += 1
        return cut_count


class FluidNaiveCutoff:
    """Naive rate-cutoff baseline at fluid scale (cf. baselines.naive)."""

    def __init__(
        self,
        cutoff_qpm: float,
        bad_peers: Set[int],
        *,
        judgment_log: Optional[JudgmentLog] = None,
    ) -> None:
        if cutoff_qpm <= 0:
            raise ConfigError("cutoff_qpm must be positive")
        self.cutoff_qpm = cutoff_qpm
        self.bad_peers = set(bad_peers)
        self.judgments = judgment_log if judgment_log is not None else JudgmentLog()
        self.stats = FluidPoliceStats()

    def step(self, minute: float, state: GraphState, delivered: np.ndarray) -> int:
        """Cut every edge delivering over the cutoff (``delivered`` is
        aligned with ``state.edge_arrays()``); returns edges cut."""
        src, dst, _, _ = _edge_arrays_for(state, delivered)
        hot = np.flatnonzero(delivered > self.cutoff_qpm)
        cut = 0
        for j, i, f in zip(src[hot].tolist(), dst[hot].tolist(), delivered[hot].tolist()):
            # The reverse direction may have cut this link a moment ago.
            if i in self.bad_peers or j not in state.adjacency[i]:
                continue
            self.judgments.record(
                judge_rate_cutoff(self.cutoff_qpm, i, j, f).judgment(minute)
            )
            state.remove_edge(i, j)
            cut += 1
            self.stats.edges_cut += 1
            if not state.adjacency[j]:
                state.online[j] = False
                self.stats.peers_expelled += 1
        return cut
