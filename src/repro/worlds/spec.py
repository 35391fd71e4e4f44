"""Declarative world specifications for the scenario-sweep harness.

A *world* is one fully parameterised serving scenario: a topology family and
size, a churn regime, a traffic mix, a resistance backend and the estimator
configuration of the dynamic engine.  :class:`WorldSpec` is the declarative
record of all of that — JSON round-trippable, hashable into a stable name,
and buildable into a concrete seeded :class:`repro.Graph`.

:class:`WorldSampler` is the GraphWorld-style generative layer on top: given
axes of families, sizes, churn regimes, traffic mixes and backends it draws
reproducible random worlds (one child seed per world, derived from the
sampler's master seed), which is how the sweep maps the engine's
accuracy/latency/ESS envelope instead of benchmarking a handful of
hand-picked configs.

Topology families
-----------------

==================  =====================================================
family              generator
==================  =====================================================
``power_law``       :func:`repro.graph.generators.barabasi_albert`
``power_law_cluster``  :func:`repro.graph.generators.powerlaw_cluster`
``lattice``         :func:`repro.graph.generators.grid_graph`
``small_world``     :func:`repro.graph.generators.watts_strogatz`
``expander``        :func:`repro.graph.generators.random_regular` (d >= 4)
``k_regular``       :func:`repro.graph.generators.random_regular`
``planted_community``  :func:`repro.graph.generators.planted_partition`
``ring``            :func:`repro.graph.generators.cycle_graph`
==================  =====================================================

``ring`` is deliberately popping-hostile: the lockstep Wilson kernel bails
to its scalar finish there, so ring worlds keep that path under regression.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.resilience.faults import FAULT_REGIMES, FaultPlan
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_integer


def _power_law(n: int, params: Dict[str, object], seed) -> Graph:
    return generators.barabasi_albert(n, int(params.get("m", 3)), seed=seed)


def _power_law_cluster(n: int, params: Dict[str, object], seed) -> Graph:
    return generators.powerlaw_cluster(n, int(params.get("m", 3)),
                                       float(params.get("p", 0.3)), seed=seed)


def _lattice(n: int, params: Dict[str, object], seed) -> Graph:
    rows = int(params.get("rows", max(2, round(n ** 0.5))))
    cols = max(2, n // rows)
    return generators.grid_graph(rows, cols)


def _small_world(n: int, params: Dict[str, object], seed) -> Graph:
    return generators.watts_strogatz(n, int(params.get("k", 4)),
                                     float(params.get("p", 0.1)), seed=seed)


def _expander(n: int, params: Dict[str, object], seed) -> Graph:
    degree = int(params.get("d", 6))
    if degree < 4:
        raise InvalidParameterError(
            f"expander worlds need degree >= 4 for expansion, got {degree}"
        )
    if (n * degree) % 2:
        n += 1  # a d-regular graph needs n*d even
    return generators.random_regular(n, degree, seed=seed)


def _k_regular(n: int, params: Dict[str, object], seed) -> Graph:
    degree = int(params.get("d", 4))
    if (n * degree) % 2:
        n += 1
    return generators.random_regular(n, degree, seed=seed)


def _planted_community(n: int, params: Dict[str, object], seed) -> Graph:
    return generators.planted_partition(
        n, int(params.get("communities", 4)),
        float(params.get("p_in", 0.25)), float(params.get("p_out", 0.01)),
        seed=seed,
    )


def _ring(n: int, params: Dict[str, object], seed) -> Graph:
    return generators.cycle_graph(max(3, n))


#: family name -> builder(n, params, seed) returning a connected Graph.
TOPOLOGIES: Dict[str, Callable[[int, Dict[str, object], object], Graph]] = {
    "power_law": _power_law,
    "power_law_cluster": _power_law_cluster,
    "lattice": _lattice,
    "small_world": _small_world,
    "expander": _expander,
    "k_regular": _k_regular,
    "planted_community": _planted_community,
    "ring": _ring,
}

#: churn regime names understood by :mod:`repro.worlds.churn`.
CHURN_REGIMES: Tuple[str, ...] = (
    "none", "bursty_joins", "adversarial_deletions", "reweight_storm", "mixed",
)

#: traffic mix -> (reads per burst, churn events per burst).
TRAFFIC_MIXES: Dict[str, Tuple[int, int]] = {
    "read_heavy": (4, 2),
    "mixed": (2, 4),
    "write_heavy": (1, 8),
}

BACKENDS: Tuple[str, ...] = ("dense", "sparse", "auto")
MODES: Tuple[str, ...] = ("engine", "service", "sharded")


@dataclass(frozen=True)
class ChurnSpec:
    """One churn regime instance: which driver, how much, how intense.

    ``events`` is the total mutation budget of the world (split into bursts
    by the traffic mix); ``intensity`` is the regime's own dial — the
    log-range of a reweight storm's factors, the attachment count of bursty
    joins, the hub-bias strength of adversarial deletions.
    """

    regime: str = "mixed"
    events: int = 32
    intensity: float = 1.0

    def validate(self) -> "ChurnSpec":
        if self.regime not in CHURN_REGIMES:
            raise InvalidParameterError(
                f"unknown churn regime {self.regime!r} (expected one of "
                f"{CHURN_REGIMES})"
            )
        check_integer("events", self.events, minimum=0)
        if self.intensity <= 0.0:
            raise InvalidParameterError(
                f"churn intensity must be positive, got {self.intensity}"
            )
        return self


@dataclass(frozen=True)
class TrafficSpec:
    """Traffic shape of a world: read/write mix and monitored group size."""

    mix: str = "mixed"
    group_size: int = 3

    def validate(self) -> "TrafficSpec":
        if self.mix not in TRAFFIC_MIXES:
            raise InvalidParameterError(
                f"unknown traffic mix {self.mix!r} (expected one of "
                f"{sorted(TRAFFIC_MIXES)})"
            )
        check_integer("group_size", self.group_size, minimum=1)
        return self

    @property
    def reads_per_burst(self) -> int:
        return TRAFFIC_MIXES[self.mix][0]

    @property
    def burst_size(self) -> int:
        return TRAFFIC_MIXES[self.mix][1]


@dataclass(frozen=True)
class EstimatorSpec:
    """Engine estimator configuration plus the world's accuracy gate."""

    pool_size: int = 24
    ess_floor: float = 0.5
    eps: float = 0.3
    max_samples: int = 48
    forest_tolerance: float = 0.5
    exact_tolerance: float = 1e-6

    def validate(self) -> "EstimatorSpec":
        check_integer("pool_size", self.pool_size, minimum=1)
        if not 0.0 <= self.ess_floor <= 1.0:
            raise InvalidParameterError(
                f"ess_floor must lie in [0, 1], got {self.ess_floor}"
            )
        for name in ("eps", "forest_tolerance", "exact_tolerance"):
            value = getattr(self, name)
            if value <= 0.0:
                raise InvalidParameterError(
                    f"{name} must be positive, got {value}"
                )
        check_integer("max_samples", self.max_samples, minimum=1)
        return self


@dataclass(frozen=True)
class FaultSpec:
    """Fault regime of a world (the chaos axis of the sweep harness).

    ``regime`` names one of :data:`repro.resilience.FAULT_REGIMES`
    (``"none"`` keeps the world fault-free and its name/JSON unchanged);
    ``rate``/``limit``/``magnitude`` are forwarded to
    :meth:`repro.resilience.FaultPlan.for_regime`, so a faulted spec is a
    complete reproduction recipe for its failure schedule too.
    """

    regime: str = "none"
    rate: float = 0.25
    limit: int = 4
    magnitude: float = 1e-4

    def validate(self) -> "FaultSpec":
        if self.regime not in FAULT_REGIMES:
            raise InvalidParameterError(
                f"unknown fault regime {self.regime!r} (expected one of "
                f"{FAULT_REGIMES})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidParameterError(
                f"fault rate must lie in [0, 1], got {self.rate}"
            )
        check_integer("limit", self.limit, minimum=1)
        if self.magnitude <= 0.0:
            raise InvalidParameterError(
                f"fault magnitude must be positive, got {self.magnitude}"
            )
        return self

    @property
    def active(self) -> bool:
        return self.regime != "none"

    def plan(self, seed: int) -> FaultPlan:
        """Materialise the deterministic fault schedule for one world seed."""
        return FaultPlan.for_regime(self.regime, rate=self.rate,
                                    limit=self.limit,
                                    magnitude=self.magnitude, seed=seed)


@dataclass(frozen=True)
class WorldSpec:
    """One declarative serving scenario of the sweep harness.

    ``topology`` names a family from :data:`TOPOLOGIES`; ``params`` carries
    the family's shape knobs (``m``, ``d``, ``p_in``, ...).  ``mode``
    selects the execution front end: ``"engine"`` drives a synchronous
    :class:`repro.dynamic.DynamicCFCM` directly, ``"service"`` runs the same
    world through :class:`repro.service.AsyncCFCMService` (single writer,
    concurrent reads), and ``"sharded"`` drives a ``DynamicCFCM`` on the
    sharded backend split into ``shards`` parts, with ``backend`` as the
    inner backend of every shard (the ``shards`` axis is ignored by the
    other modes).  ``seed`` pins graph
    construction, churn draws and estimator sampling, so a spec is a
    complete reproduction recipe.
    """

    topology: str = "power_law"
    n: int = 96
    params: Dict[str, object] = field(default_factory=dict)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    backend: str = "dense"
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    mode: str = "engine"
    shards: int = 2
    faults: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0

    def validate(self) -> "WorldSpec":
        if self.topology not in TOPOLOGIES:
            raise InvalidParameterError(
                f"unknown topology family {self.topology!r} (expected one of "
                f"{sorted(TOPOLOGIES)})"
            )
        check_integer("n", self.n, minimum=4)
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {self.backend!r} (expected one of {BACKENDS})"
            )
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"unknown mode {self.mode!r} (expected one of {MODES})"
            )
        check_integer("shards", self.shards, minimum=1)
        self.churn.validate()
        self.traffic.validate()
        self.estimator.validate()
        self.faults.validate()
        return self

    # ------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        """Stable human-readable identifier used in tables and artifacts.

        Fault-free worlds keep the historical six-axis name, so every
        pre-chaos artifact and doc reference stays valid; faulted worlds
        append ``-f<regime>``.  Sharded worlds fold the shard count into the
        mode segment (``sharded3``) so specs differing only in shards do not
        collide.
        """
        mode = (f"{self.mode}{self.shards}" if self.mode == "sharded"
                else self.mode)
        base = (f"{self.topology}-n{self.n}-{self.churn.regime}"
                f"-{self.traffic.mix}-{self.backend}-{mode}-s{self.seed}")
        if self.faults.active:
            return f"{base}-f{self.faults.regime}"
        return base

    # ------------------------------------------------------------- building
    def build_graph(self) -> Graph:
        """Materialise the world's seed topology (always connected)."""
        self.validate()
        graph = TOPOLOGIES[self.topology](self.n, dict(self.params), self.seed)
        if graph.n < self.traffic.group_size + 2:
            raise InvalidParameterError(
                f"world {self.name!r} built only {graph.n} nodes, too few for "
                f"a monitored group of {self.traffic.group_size}"
            )
        return graph

    # ----------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serialisable, ``from_dict`` inverse)."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorldSpec":
        data = dict(payload)
        churn = ChurnSpec(**data.pop("churn", {}))
        traffic = TrafficSpec(**data.pop("traffic", {}))
        estimator = EstimatorSpec(**data.pop("estimator", {}))
        faults = FaultSpec(**data.pop("faults", {}))
        spec = cls(churn=churn, traffic=traffic, estimator=estimator,
                   faults=faults, **data)
        return spec.validate()

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        return cls.from_dict(json.loads(text))


class WorldSampler:
    """Draw reproducible random worlds over configurable axes.

    Each call to :meth:`sample` derives one child seed per world from the
    sampler's master generator, so a fixed master seed yields the same
    worlds in the same order regardless of how the batch is consumed —
    the GraphWorld contract that makes sweep tables comparable across runs.
    """

    def __init__(self,
                 topologies: Tuple[str, ...] = ("power_law", "lattice",
                                                "small_world", "expander",
                                                "planted_community"),
                 sizes: Tuple[int, ...] = (64, 96, 128),
                 churn_regimes: Tuple[str, ...] = ("bursty_joins",
                                                   "adversarial_deletions",
                                                   "reweight_storm", "mixed"),
                 traffic_mixes: Tuple[str, ...] = ("read_heavy", "mixed",
                                                   "write_heavy"),
                 backends: Tuple[str, ...] = ("dense", "sparse"),
                 events: int = 24,
                 estimator: Optional[EstimatorSpec] = None,
                 seed: RandomState = None):
        for topology in topologies:
            if topology not in TOPOLOGIES:
                raise InvalidParameterError(
                    f"unknown topology family {topology!r}"
                )
        for regime in churn_regimes:
            if regime not in CHURN_REGIMES:
                raise InvalidParameterError(f"unknown churn regime {regime!r}")
        self.topologies = tuple(topologies)
        self.sizes = tuple(int(s) for s in sizes)
        self.churn_regimes = tuple(churn_regimes)
        self.traffic_mixes = tuple(traffic_mixes)
        self.backends = tuple(backends)
        self.events = check_integer("events", events, minimum=0)
        self.estimator = estimator if estimator is not None else EstimatorSpec()
        self.rng = as_rng(seed)

    def _choice(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    def sample_one(self) -> WorldSpec:
        """Draw one world spec (advances the master generator)."""
        spec = WorldSpec(
            topology=self._choice(self.topologies),
            n=int(self._choice(self.sizes)),
            churn=ChurnSpec(regime=self._choice(self.churn_regimes),
                            events=self.events),
            traffic=TrafficSpec(mix=self._choice(self.traffic_mixes)),
            backend=self._choice(self.backends),
            estimator=self.estimator,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        return spec.validate()

    def sample(self, count: int) -> Tuple[WorldSpec, ...]:
        """Draw ``count`` world specs."""
        check_integer("count", count, minimum=0)
        return tuple(self.sample_one() for _ in range(count))
