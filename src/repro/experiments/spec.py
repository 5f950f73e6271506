"""Declarative experiment specs, the backend table, and the shared pipeline.

This module makes experiments *data*. An :class:`ExperimentSpec` is a
frozen, JSON-serializable description of one experiment -- scenario id,
scale, trial count, sweep grid, defense (police) layer, workload layer
and table selectors -- decoupled from the engine that executes it. Each
size is stated once: population and duration in ``scale``, ``trials`` at
the top, agent counts and every sweep axis in ``grid``, rates in
``workload``; no scenario keeps a private copy, so an accepted ``--set``
always reaches the run and the manifest records the sizes that ran. The
engines are the rows of the :class:`Backend` table at the end of this
module:

* ``fluid`` -- the per-minute fluid-flow model (:mod:`repro.fluid`),
  used for every paper figure at scale;
* ``des``   -- the message-level discrete-event runner
  (:mod:`repro.experiments.runner`), used for the fault sweep and for
  cross-validating fluid results at small N;
* ``des-soa`` / ``live`` -- the batched struct-of-arrays engine and the
  real-socket UDP testbed behind the same contract.

All consume the backend-neutral :class:`Case` (one simulation run) and
return a :class:`CaseResult`, each through a thin adapter into the one
reduction :func:`case_result`; scenario drivers in
:mod:`repro.experiments.library` expand a spec into a keyed case plan,
fan it out through :func:`repro.exec.pmap` (``workers=1`` stays
byte-identical), and aggregate.

Specs round-trip through canonical JSON (:func:`spec_to_jsonable` /
:func:`spec_from_jsonable`) and support dotted-path overrides validated
against the dataclass tree (:func:`apply_overrides`) -- unknown keys and
invariant violations raise :class:`~repro.errors.ConfigError` naming the
offending path, *before* any worker process starts.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import typing
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.attack.adaptive import ADAPTIVE_STRATEGIES, AdaptiveConfig
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError, MetricsError
from repro.exec import pmap
from repro.experiments.scenarios import SCALES, Scale
from repro.faults.plan import FaultPlan
from repro.live.spec import LIVE_TIERS, LiveSpec
from repro.obs.manifest import config_sha256, jsonable_config
from repro.simkit.rng import derive_seed


# ---------------------------------------------------------------------------
# layer dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """Workload layer: how good peers and agents generate traffic.

    Every backend reads the good-peer issue rate ``queries_per_minute``
    and the per-agent rate ``attack_rate_qpm`` (the paper's 0.3 and
    Q_d = 20,000 queries/min). ``cheat_strategy`` names a
    :class:`~repro.attack.cheating.CheatStrategy` value.
    """

    queries_per_minute: float = 0.3
    attack_rate_qpm: float = 20_000.0
    cheat_strategy: str = "silent"
    #: Per-peer processing capacity (queries/min); the paper's Section
    #: 2.3 anchor. Both backends honor it, so scaled-down cross-backend
    #: runs can keep the attack/capacity *ratio* instead of the paper's
    #: absolute rates.
    capacity_qpm: float = 10_000.0

    def __post_init__(self) -> None:
        if self.capacity_qpm <= 0:
            raise ConfigError("capacity_qpm must be positive")
        if self.queries_per_minute <= 0:
            raise ConfigError("queries_per_minute must be positive")
        if self.attack_rate_qpm <= 0:
            raise ConfigError("attack_rate_qpm must be positive")
        try:
            CheatStrategy(self.cheat_strategy)
        except ValueError:
            valid = ", ".join(s.value for s in CheatStrategy)
            raise ConfigError(
                f"unknown cheat_strategy {self.cheat_strategy!r} (valid: {valid})"
            )

    @property
    def cheat(self) -> CheatStrategy:
        return CheatStrategy(self.cheat_strategy)


#: The evidence profiles the fault sweep and the robustness matrix
#: compare: ``paper`` is the spec's police layer as stated (the literal
#: Section 3.3 rule), ``hardened`` its :meth:`DDPoliceConfig.with_hardening`.
PROFILES: Tuple[str, ...] = ("paper", "hardened")


@dataclass(frozen=True)
class GridSpec:
    """Sweep grid layer: the x-axes of the figure scenarios.

    The registered specs set their sweep tuples explicitly; an empty
    ``cut_thresholds``/``periods_min``/``adversaries``/``topologies`` is
    taken verbatim (an empty sweep), empty ``profiles`` means every
    profile, and empty ``agent_counts``, zero ``agents``, and zero
    ``minutes`` mean "derive from the scale".
    """

    #: Figures 9-11 agent counts; empty = the paper densities at scale.
    agent_counts: Tuple[int, ...] = ()
    #: Figures 12-14 agent density (the paper's 100/20,000 = 0.5%).
    agent_fraction: float = 0.005
    #: Explicit agent count; 0 = derive the count from ``agent_fraction``
    #: at the active scale (the two message-level sweeps need it explicit).
    agents: int = 0
    #: Cut thresholds swept by Figures 12-14.
    cut_thresholds: Tuple[float, ...] = ()
    #: Periodic exchange periods in minutes (Section 3.7.1).
    periods_min: Tuple[int, ...] = ()
    #: Evidence profiles (see :data:`PROFILES`) compared by the fault
    #: sweep and the robustness matrix; empty = all of them.
    profiles: Tuple[str, ...] = ()
    #: Robustness-matrix adversary strategies.
    adversaries: Tuple[str, ...] = ()
    #: Robustness-matrix overlay topology models.
    topologies: Tuple[str, ...] = ()
    #: Fault-sweep control-plane loss probabilities.
    loss_fractions: Tuple[float, ...] = ()
    #: Fault-sweep fail-stop crash counts (good peers, one minute into
    #: the attack).
    crash_counts: Tuple[int, ...] = ()
    #: Simulated minutes; 0 = derive from the scale.
    minutes: int = 0

    #: Valid robustness-matrix axis values (checked at spec-parse time so
    #: a typo'd ``--set grid.adversaries=...`` fails before any run).
    _MATRIX_TOPOLOGIES = ("ba", "waxman", "random", "two_tier", "hard_cutoff", "bittorrent")

    def __post_init__(self) -> None:
        if any(k < 0 for k in self.agent_counts):
            raise ConfigError("agent_counts must be non-negative")
        if not (0.0 < self.agent_fraction <= 1.0):
            raise ConfigError("agent_fraction must be in (0, 1]")
        if self.agents < 0:
            raise ConfigError("agents must be non-negative")
        if any(ct <= 0 for ct in self.cut_thresholds):
            raise ConfigError("cut_thresholds must be positive")
        if any(p < 1 for p in self.periods_min):
            raise ConfigError("periods_min must be >= 1")
        for adv in self.adversaries:
            if adv not in ADAPTIVE_STRATEGIES:
                raise ConfigError(
                    f"adversaries: unknown strategy {adv!r} "
                    f"(valid: {', '.join(ADAPTIVE_STRATEGIES)})"
                )
        for topo in self.topologies:
            if topo not in self._MATRIX_TOPOLOGIES:
                raise ConfigError(
                    f"topologies: unknown model {topo!r} "
                    f"(valid: {', '.join(self._MATRIX_TOPOLOGIES)})"
                )
        for profile in self.profiles:
            if profile not in PROFILES:
                raise ConfigError(
                    f"profiles: unknown profile {profile!r} "
                    f"(valid: {', '.join(PROFILES)})"
                )
        if any(not (0.0 <= p <= 1.0) for p in self.loss_fractions):
            raise ConfigError("loss_fractions must be in [0, 1]")
        if any(c < 0 for c in self.crash_counts):
            raise ConfigError("crash_counts must be non-negative")
        if self.minutes < 0:
            raise ConfigError("minutes must be non-negative")


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: everything but the engine.

    ``scenario`` names a registered scenario driver (see
    :mod:`repro.experiments.library`); ``backend`` names a registered
    :class:`Backend`. ``tables`` selects which of the scenario's output
    tables to render (empty = all). The remaining fields are the
    override layers: ``scale``, ``police`` (defense), ``workload``, and
    the sweep ``grid``. ``scale`` and ``live`` default to the ``bench``
    tier, the one ``--scale bench`` selects.
    """

    name: str
    scenario: str
    title: str = ""
    backend: str = "fluid"
    seed: int = 0
    trials: int = 1
    scale: Scale = SCALES["bench"]
    police: DDPoliceConfig = DDPoliceConfig()
    workload: WorkloadSpec = WorkloadSpec()
    #: Adaptive-adversary layer (robustness matrix; "static" elsewhere).
    adversary: AdaptiveConfig = AdaptiveConfig()
    #: Real-socket swarm sizing (``live`` backend only; others ignore it).
    live: LiveSpec = LIVE_TIERS["bench"]
    grid: GridSpec = GridSpec()
    tables: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("spec name must be non-empty")
        if not self.scenario:
            raise ConfigError("spec scenario must be non-empty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # k > n is a spec bug, not a runtime surprise: reject it here so
        # a bad --set override dies at parse time, naming the path.
        n = self.scale.n_peers
        if self.grid.agents > n:
            raise ConfigError(
                f"grid.agents: cannot compromise {self.grid.agents} of "
                f"{n} peers (k must not exceed scale.n_peers)"
            )
        for k in self.grid.agent_counts:
            if k > n:
                raise ConfigError(
                    f"grid.agent_counts: cannot compromise {k} of "
                    f"{n} peers (k must not exceed scale.n_peers)"
                )
        # The message-level sweeps plant exactly grid.agents attackers
        # among good peers, so there the count is explicit and 0 < k < n.
        if self.scenario in ("fault-sweep", "robustness-matrix") and not (
            0 < self.grid.agents < n
        ):
            raise ConfigError(
                f"grid.agents: scenario {self.scenario!r} needs 0 < k < n "
                f"(got k={self.grid.agents}, scale.n_peers={n})"
            )
        if self.scenario == "fault-sweep" and not (
            self.grid.loss_fractions and self.grid.crash_counts
        ):
            raise ConfigError(
                "grid.loss_fractions and grid.crash_counts must be non-empty "
                "for the fault sweep"
            )


def spec_sha256(spec: ExperimentSpec) -> str:
    """SHA-256 of the spec's canonical JSON form (the provenance key)."""
    return config_sha256(spec)


def scenario_sha256(spec: ExperimentSpec) -> str:
    """Hash of the spec *minus* presentation fields (name/title/tables).

    Two specs with the same scenario hash run the exact same
    simulations, so scenario results can be shared between them (e.g.
    fig9/fig10/fig11 all project the one agent sweep).
    """
    return config_sha256(replace(spec, name="_", title="", tables=()))


# ---------------------------------------------------------------------------
# spec <-> JSON round-trip
# ---------------------------------------------------------------------------

def spec_to_jsonable(spec: ExperimentSpec) -> Dict[str, Any]:
    """Canonical JSON-able form of a spec (dicts/lists/primitives)."""
    return jsonable_config(spec)


def _finite(value: float, path: str) -> float:
    """``value`` if finite; no spec float means anything as nan or inf."""
    if not math.isfinite(value):
        raise ConfigError(f"{path}: {value!r} is not a finite number")
    return value


def _convert(value: Any, target: Any, path: str) -> Any:
    """Convert a JSON value into the typed field ``target`` at ``path``."""
    origin = typing.get_origin(target)
    if origin is Union:  # Optional[T]
        args = [a for a in typing.get_args(target) if a is not type(None)]
        if value is None:
            return None
        return _convert(value, args[0], path)
    if origin is tuple:
        item = typing.get_args(target)[0]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_convert(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(target, type) and issubclass(target, enum.Enum):
        try:
            return target(value)
        except ValueError:
            valid = ", ".join(repr(m.value) for m in target)
            raise ConfigError(f"{path}: {value!r} is not one of {valid}")
    if dataclasses.is_dataclass(target):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        return build_dataclass(target, value, path=path)
    if target is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return _finite(float(value), path)
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {target!r}")


def build_dataclass(cls: type, doc: Mapping[str, Any], *, path: str = "") -> Any:
    """Rebuild dataclass ``cls`` from a JSON mapping, strictly typed.

    Unknown keys raise :class:`ConfigError` listing the valid field
    names; ``__post_init__`` invariant violations are re-raised with the
    offending path prefixed.
    """
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(repr(f'{path}.{k}' if path else k) for k in unknown)}; "
            f"valid keys under {path or cls.__name__!r}: {', '.join(names)}"
        )
    kwargs = {
        name: _convert(doc[name], hints[name], f"{path}.{name}" if path else name)
        for name in names
        if name in doc
    }
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        prefix = f"{path}: " if path else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def spec_from_jsonable(doc: Mapping[str, Any]) -> ExperimentSpec:
    """Inverse of :func:`spec_to_jsonable` (strict: unknown keys raise)."""
    return build_dataclass(ExperimentSpec, doc, path="spec")


# ---------------------------------------------------------------------------
# dotted-path overrides
# ---------------------------------------------------------------------------

def parse_assignments(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse ``["a.b=1", ...]`` CLI assignments into an ordered mapping."""
    out: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(
                f"bad --set assignment {pair!r} (expected dotted.path=value)"
            )
        out[key] = value.strip()
    return out


def _coerce(text: Any, target: Any, path: str) -> Any:
    """Coerce a CLI string into the typed field ``target``."""
    if not isinstance(text, str):
        # Programmatic override with a real value: strict-convert it.
        return _convert(
            jsonable_config(text) if dataclasses.is_dataclass(text) else text,
            target,
            path,
        )
    origin = typing.get_origin(target)
    if origin is Union:  # Optional[T]
        args = [a for a in typing.get_args(target) if a is not type(None)]
        if text.lower() in ("none", "null"):
            return None
        return _coerce(text, args[0], path)
    if origin is tuple:
        item = typing.get_args(target)[0]
        parts = [p.strip() for p in text.split(",") if p.strip()]
        return tuple(_coerce(p, item, path) for p in parts)
    if isinstance(target, type) and issubclass(target, enum.Enum):
        try:
            return target(text)
        except ValueError:
            valid = ", ".join(repr(m.value) for m in target)
            raise ConfigError(f"{path}: {text!r} is not one of {valid}")
    if dataclasses.is_dataclass(target):
        raise ConfigError(
            f"{path} is a config section, not a value; set one of its "
            f"fields ({', '.join(f.name for f in dataclasses.fields(target))})"
        )
    if target is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{path}: {text!r} is not a boolean (true/false)")
    if target is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{path}: {text!r} is not an integer")
    if target is float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{path}: {text!r} is not a number")
        return _finite(value, path)
    if target is str:
        return text
    raise ConfigError(f"{path}: unsupported field type {target!r}")


def _set_path(obj: Any, parts: Sequence[str], value: Any, path: str) -> Any:
    """Rebuild ``obj`` with ``parts`` (a dotted path) replaced by value."""
    name, rest = parts[0], parts[1:]
    hints = typing.get_type_hints(type(obj))
    names = [f.name for f in dataclasses.fields(obj)]
    if name not in names:
        where = path.rsplit(".", len(rest) + 1)[0] if "." in path else "the spec"
        raise ConfigError(
            f"unknown key {path!r}: no field {name!r} under {where}; "
            f"valid keys: {', '.join(names)}"
        )
    if rest:
        child = getattr(obj, name)
        if not dataclasses.is_dataclass(child):
            raise ConfigError(
                f"{path}: {name!r} is a plain value, not a config section"
            )
        new_child = _set_path(child, rest, value, path)
    else:
        new_child = _coerce(value, hints[name], path)
    try:
        return replace(obj, **{name: new_child})
    except ConfigError as exc:
        raise ConfigError(f"invalid --set {path}: {exc}") from exc


def apply_overrides(
    spec: ExperimentSpec, overrides: Mapping[str, Any]
) -> ExperimentSpec:
    """Apply dotted-path overrides to a spec, validating every step.

    Values may be CLI strings (coerced by field type: ``int``/``float``/
    ``bool``/enums; comma-separated lists for tuple fields) or real
    Python values. Unknown paths and dataclass invariant violations
    raise :class:`ConfigError` naming the offending dotted path.
    """
    for key, value in overrides.items():
        parts = [p for p in key.split(".") if p]
        if not parts:
            raise ConfigError(f"empty --set path {key!r}")
        spec = _set_path(spec, parts, value, key)
    return spec


def override_paths(cls: type = ExperimentSpec, prefix: str = "") -> List[str]:
    """Every settable dotted path of a spec (leaves of the tree)."""
    out: List[str] = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        target = hints[f.name]
        dotted = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(target) and isinstance(target, type):
            out.extend(override_paths(target, f"{dotted}."))
        else:
            out.append(dotted)
    return out


# ---------------------------------------------------------------------------
# backend-neutral cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One simulation run, described independently of the engine."""

    n: int
    minutes: int
    seed: int
    num_agents: int = 0
    attack_start_min: int = 0
    defense: str = "none"
    #: DD-POLICE parameters. ``exchange_period_s`` is the one statement
    #: of the neighbor-list exchange period: des and live exchange at it,
    #: and fluid republishes every ``exchange_period_s // 60`` minutes,
    #: or every minute under ``ExchangePolicy.EVENT_DRIVEN`` (it rejects
    #: a period that is not whole minutes).
    police: DDPoliceConfig = DDPoliceConfig()
    workload: WorkloadSpec = WorkloadSpec()
    #: Fault schedule (``des`` backend only; the others reject it).
    faults: FaultPlan = FaultPlan()
    #: Message-level topology attachment parameter override (None =
    #: default); the fluid backend ignores it and floods the default BA.
    ba_m: Optional[int] = None
    #: Topology model override (None = default BA), honoured by every
    #: backend through :func:`topology_config`.
    topology: Optional[str] = None
    #: Adaptive-adversary behaviour (DES backend only).
    adaptive: AdaptiveConfig = AdaptiveConfig()
    #: First minute of the steady-state window; None skips steady means.
    settle_min: Optional[int] = None
    #: JSONL trace file the case appends to (des and fluid only).
    trace_path: Optional[str] = None
    #: Real-socket swarm sizing (``live`` backend only; others ignore it).
    live: LiveSpec = LiveSpec()

    def __post_init__(self) -> None:
        if self.minutes < 1:
            raise ConfigError(f"minutes must be >= 1, got {self.minutes}")
        if not (0 <= self.num_agents <= self.n):
            raise ConfigError(
                f"num_agents: cannot compromise {self.num_agents} of "
                f"{self.n} peers (k must not exceed n)"
            )
        if self.defense not in ("none", "ddpolice", "naive"):
            raise ConfigError(f"unknown defense: {self.defense!r}")


@dataclass(frozen=True)
class CaseResult:
    """What every backend reports back for one case.

    Built by :func:`case_result` alone, so every field means the same on
    every backend.
    """

    #: Per-minute (minute, success-rate) samples: the time axis is in
    #: simulated minutes on every backend (the producer converts).
    rows: Tuple[Tuple[float, float], ...]
    #: (traffic k-msgs/min, response s, success) means over the
    #: steady-state window, when ``settle_min`` was given.
    steady: Optional[Tuple[float, float, float]]
    false_negative: int
    false_positive: int
    #: Mean online population (the exchange-overhead model); None on
    #: every backend but fluid, which alone reports it.
    online_mean: Optional[float]
    #: Total churn events (the event-driven overhead model); None on
    #: every backend but fluid, which alone reports it.
    churn_events: Optional[int]
    #: Mean seconds from attack start to each attacker's first
    #: disconnection, *censored*: an attacker never caught contributes
    #: the full remaining run (duration - attack_start), so total
    #: evasion reads as the worst possible latency rather than
    #: vanishing from the mean. None when the case had no attackers.
    detection_latency_s: Optional[float] = None
    caught_attackers: int = 0
    total_attackers: int = 0


# ---------------------------------------------------------------------------
# the one reduction: raw engine outputs -> CaseResult
# ---------------------------------------------------------------------------

#: One reported minute: (minute, traffic k-msgs, mean response s or None
#: when no query succeeded, success rate).
Minute = Tuple[float, float, Optional[float], float]


def case_key(case: Case) -> str:
    """Names one case (seed, agents, defense) in errors and artifacts."""
    return f"case-{case.seed}-k{case.num_agents}-{case.defense}"


def first_cuts(cuts: Iterable[Tuple[int, float]]) -> Dict[int, float]:
    """Each suspect's earliest time in ``(suspect, seconds)`` cut pairs."""
    first: Dict[int, float] = {}
    for suspect, t in cuts:
        if suspect not in first or t < first[suspect]:
            first[suspect] = t
    return first


def _judged_cuts(log: Any, seconds_per_unit: float = 1.0) -> Dict[int, float]:
    """:func:`first_cuts` of a judgment log's executed cuts (None = no log)."""
    if log is None:
        return {}
    return first_cuts(
        (int(j.suspect), j.time * seconds_per_unit)
        for j in log.judgments
        if j.disconnected
    )


def case_result(
    case: Case,
    minutes: Sequence[Minute],
    first_cut: Mapping[int, float],
    bad: Collection[int],
) -> CaseResult:
    """Reduce one run's raw outputs to the :class:`CaseResult` contract.

    The one reduction behind every backend, so a quantity means the same
    on each: ``minutes`` are the reported per-minute samples,
    ``first_cut`` maps each cut suspect to its earliest executed cut (in
    simulated seconds), ``bad`` holds the ground-truth attacker ids.

    * the steady window is ``settle_min <= minute <= case.minutes``; its
      response mean is over the minutes that have a response;
    * fn/fp follow :meth:`~repro.metrics.errors.JudgmentLog.error_counts`
      and are 0/0 without a defense (no judgments were made);
    * the detection latency is the censored mean over the attackers in
      ascending id order: one never cut counts the whole attack span.

    Raises :class:`~repro.errors.MetricsError` when the steady window
    holds no reported minute. ``online_mean`` / ``churn_events`` stay
    None (not reported); fluid's adapter fills them in.
    """
    steady: Optional[Tuple[float, float, float]] = None
    if case.settle_min is not None:
        window = [m for m in minutes if case.settle_min <= m[0] <= case.minutes]
        if not window:
            raise MetricsError(
                f"{case_key(case)}: the run reported minutes "
                f"{[m[0] for m in minutes]}, none in the steady-state window "
                f"{case.settle_min}..{case.minutes}"
            )
        response = [r for _, _, r, _ in window if r is not None]
        steady = (
            sum(t for _, t, _, _ in window) / len(window),
            sum(response) / len(response) if response else 0.0,
            sum(s for _, _, _, s in window) / len(window),
        )
    if case.defense == "none":
        fn = fp = 0
    else:
        fn = len([s for s in first_cut if s not in bad])
        fp = len([b for b in bad if b not in first_cut])
    latency: Optional[float] = None
    if bad:
        start = case.attack_start_min * 60.0
        censored = case.minutes * 60.0 - start
        samples = [
            max(0.0, first_cut[b] - start) if b in first_cut else censored
            for b in sorted(bad)
        ]
        latency = sum(samples) / len(samples)
    return CaseResult(
        rows=tuple((m[0], m[3]) for m in minutes),
        steady=steady,
        false_negative=fn,
        false_positive=fp,
        online_mean=None,
        churn_events=None,
        detection_latency_s=latency,
        caught_attackers=len([b for b in bad if b in first_cut]),
        total_attackers=len(bad),
    )


# ---------------------------------------------------------------------------
# backends: each adapts a case to its engine and the engine's run to
# :func:`case_result`'s inputs
# ---------------------------------------------------------------------------

def _fluid_config(case: Case) -> Any:
    """The :class:`FluidConfig` of one case; rejects what fluid cannot run.

    The one producer of a ``FluidConfig`` in the experiment layer.
    """
    from repro.fluid.model import FluidConfig

    # The fluid model simulates the *static* flooder and aggregates
    # Neighbor_Traffic without per-report collusion semantics -- reject
    # matrix-only features loudly rather than run a simulation that
    # silently ignores them.
    if case.adaptive.strategy != "static":
        raise ConfigError(
            f"backend 'fluid' cannot simulate adaptive strategy "
            f"{case.adaptive.strategy!r} (DES only)"
        )
    if case.workload.cheat is CheatStrategy.COLLUDE:
        raise ConfigError(
            "backend 'fluid' cannot simulate cheat_strategy 'collude' (DES only)"
        )
    if case.faults.enabled:
        raise ConfigError("backend 'fluid' cannot inject fault schedules (DES only)")
    return FluidConfig(
        n=case.n,
        # ba_m stays message-level only: fig9-11 pin ba_m=1 for the DES,
        # and their fluid tables run the default BA overlay.
        topology=topology_config(replace(case, ba_m=None), case.n),
        seed=case.seed,
        num_agents=case.num_agents,
        attack_start_min=case.attack_start_min,
        defense=case.defense,
        police=case.police,
        queries_per_minute=case.workload.queries_per_minute,
        attack_rate_qpm=case.workload.attack_rate_qpm,
        capacity_qpm=case.workload.capacity_qpm,
        cheat_strategy=case.workload.cheat,
        trace_path=case.trace_path,
    )


def _fluid_case_task(case: Case) -> CaseResult:
    """One fluid-model case (pure, picklable): build config, run, reduce.

    Fluid judgments are stamped in minutes; the cuts become seconds here.
    """
    from repro.fluid.model import FluidSimulation

    sim = FluidSimulation(_fluid_config(case))
    try:
        sim.run(case.minutes)
    finally:
        sim.close_trace()
    result = case_result(
        case,
        [
            (r.minute, r.traffic_cost_kqpm, r.response_time_s, r.success_rate)
            for r in sim.rows
        ],
        _judged_cuts(sim.judgments, 60.0),
        sim.bad_peers,
    )
    return replace(
        result,
        online_mean=sim.mean_over(1, "online") if case.minutes > 1 else 0.0,
        churn_events=sim.state.joins + sim.state.leaves,
    )


def topology_config(case: Case, n: int) -> Any:
    """The overlay of one case at ``n`` peers.

    The des backends build it at ``case.n``, the live swarm at its capped
    node count, so both run the same graph for the same case.
    """
    from repro.overlay.topology import TopologyConfig

    kwargs: Dict[str, Any] = dict(n=n, seed=case.seed)
    if case.ba_m is not None:
        kwargs["ba_m"] = case.ba_m
    if case.topology is not None:
        kwargs["model"] = case.topology
    return TopologyConfig(**kwargs)


def network_config(case: Case) -> Any:
    """The :class:`NetworkConfig` of one case on every message-level substrate.

    The des backends put it in their :class:`DESConfig`; a live node is
    its peer's network and carries it as its ``config``. So flood TTL,
    seen-cache bound and per-peer capacity are stated once for both.
    """
    from repro.overlay.network import NetworkConfig

    return NetworkConfig(processing_qpm_good=case.workload.capacity_qpm)


def _des_config(case: Case, **network: Any) -> Any:
    """The :class:`DESConfig` of one message-level case.

    The one builder behind the ``des`` and ``des-soa`` backends, so a
    :class:`Case` field cannot reach one and miss the other; ``network``
    overrides fields of :func:`network_config`.
    """
    from repro.experiments.runner import DESConfig
    from repro.workload.generator import WorkloadConfig

    net = replace(network_config(case), **network)
    # The accounting publishes a minute only once its grace window has
    # passed, so the run's last minute(s) never become rows: reject a
    # steady-state window that opens past them before simulating.
    reported = case.minutes - net.metrics_grace_minutes
    if case.settle_min is not None and case.settle_min > reported:
        raise ConfigError(
            f"a {case.minutes}-minute message-level run reports minutes "
            f"1..{reported}: no steady-state window from minute "
            f"{case.settle_min} on (simulate more minutes)"
        )
    return DESConfig(
        n=case.n,
        duration_s=case.minutes * 60.0,
        seed=case.seed,
        topology=topology_config(case, case.n),
        network=net,
        workload=WorkloadConfig(
            queries_per_minute=case.workload.queries_per_minute, seed=case.seed
        ),
        num_agents=case.num_agents,
        attack_start_s=case.attack_start_min * 60.0,
        attack_rate_qpm=case.workload.attack_rate_qpm,
        cheat_strategy=case.workload.cheat,
        adaptive=case.adaptive,
        defense=case.defense,
        police=case.police,
        faults=case.faults,
        trace_path=case.trace_path,
    )


def _des_case_result(case: Case, run: Any) -> CaseResult:
    """Reduce a finished message/SoA run (the two expose the same
    accounting/judgment surface by design); the rows' second timestamps
    become minutes here, once."""
    return case_result(
        case,
        [
            (
                m.time_s / 60.0,
                m.messages / 1000.0,
                m.mean_response_time_s,
                m.success_rate,
            )
            for m in run.accounting.rows
        ],
        _judged_cuts(run.judgments),
        {int(p) for p in run.bad_peers},
    )


def _des_case_task(case: Case) -> CaseResult:
    """One message-level case (pure, picklable): build config, run, reduce."""
    from repro.experiments.runner import run_des_experiment

    return _des_case_result(case, run_des_experiment(_des_config(case)))


def _soa_case_task(case: Case) -> CaseResult:
    """One batched SoA case (pure, picklable): build config, run, reduce.

    Hop-latency jitter is pinned to zero -- the wave-batched engine
    coalesces same-timestamp deliveries, which requires the deterministic
    hop grid. Unsupported feature combinations (churn, faults, the naive
    defense, non-silent cheats, ...) are rejected loudly by the engine itself.
    """
    from repro.overlay.soa_network import run_soa_experiment

    cfg = _des_config(case, hop_latency_jitter_s=0.0)
    return _des_case_result(case, run_soa_experiment(cfg))


def _live_case_task(case: Case) -> CaseResult:
    """One real-socket swarm case (pure, picklable): spawn, babysit, reduce.

    The heavy import stays lazy so ``pmap`` workers that never run a
    live case don't pay for (or require) the asyncio/socket machinery.
    Unsupported feature combinations (faults, adaptive adversaries, the
    naive defense, collusion) are rejected loudly by the runner.
    """
    from repro.live.runner import run_live_case

    return run_live_case(case)


@dataclass(frozen=True)
class Backend:
    """One execution engine for :class:`Case` lists."""

    name: str
    #: Module-level pure function mapping a case to its result (must be
    #: picklable so :func:`repro.exec.pmap` can ship it to workers).
    task_fn: Callable[[Case], CaseResult]
    description: str = ""
    #: A run is a function of its case alone, so equal cases may share
    #: one run. False on ``live``: its runs are samples of real sockets.
    repeatable: bool = True


_BACKENDS: Dict[str, Backend] = {
    b.name: b
    for b in (
        Backend(
            name="fluid",
            task_fn=_fluid_case_task,
            description="per-minute fluid-flow model (paper figures at scale)",
        ),
        Backend(
            name="des",
            task_fn=_des_case_task,
            description="message-level discrete-event runner (small N, faults)",
        ),
        Backend(
            name="des-soa",
            task_fn=_soa_case_task,
            description="batched struct-of-arrays flood engine (100k-1M peers)",
        ),
        Backend(
            name="live",
            task_fn=_live_case_task,
            description="real-socket UDP testbed (node processes on localhost)",
            repeatable=False,
        ),
    )
}


def lookup(table: Mapping[str, Any], kind: str, name: str) -> Any:
    """``table[name]``; an unknown name lists the registered ones."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(
            f"unknown {kind} {name!r} (registered: {', '.join(sorted(table))})"
        )


def get_backend(name: str) -> Backend:
    """Look a backend up by name; unknown names list the valid ones."""
    return lookup(_BACKENDS, "backend", name)


def list_backends() -> List[Backend]:
    """All registered backends, sorted by name."""
    return [_BACKENDS[k] for k in sorted(_BACKENDS)]


def run_cases(
    cases: Sequence[Case],
    *,
    backend: str = "fluid",
    workers: Optional[int] = None,
) -> List[CaseResult]:
    """Execute cases on a backend through the parallel executor.

    Results are in case order and bit-identical for any worker count
    (the :func:`repro.exec.pmap` contract). On a repeatable backend each
    distinct case runs once and its equal cases share that result; on
    ``live`` every entry runs.
    """
    engine = get_backend(backend)
    cases = list(cases)
    if not engine.repeatable:
        return pmap(engine.task_fn, cases, workers=workers)
    distinct = list(dict.fromkeys(cases))
    results = dict(zip(distinct, pmap(engine.task_fn, distinct, workers=workers)))
    return [results[case] for case in cases]


# ---------------------------------------------------------------------------
# shared trial/aggregation helpers
# ---------------------------------------------------------------------------

def trial_seed(seed0: int, trial: int) -> int:
    """Seed of independent trial ``trial`` under base seed ``seed0``."""
    return derive_seed(seed0, "trial", trial)


def mean(values: Sequence[float]) -> float:
    """Mean of a non-empty sample list (the per-trial aggregation)."""
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# spec lookup
# ---------------------------------------------------------------------------

def _specs() -> Mapping[str, ExperimentSpec]:
    # The spec table lives beside the scenario drivers in
    # repro.experiments.library, which imports this module: resolve it
    # at call time, not at module load.
    from repro.experiments.library import SPECS

    return SPECS


def get_spec(name: str) -> ExperimentSpec:
    """Look a registered spec up by name; unknown names list the valid ones."""
    return lookup(_specs(), "spec", name)


def list_specs() -> List[ExperimentSpec]:
    """All registered specs, sorted by name."""
    specs = _specs()
    return [specs[k] for k in sorted(specs)]
