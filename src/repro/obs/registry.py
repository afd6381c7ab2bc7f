"""Metrics registry: counters, gauges, and histograms with labels.

The instrument model follows the Prometheus client conventions the
serving world standardised on — a *registry* owns named metric
families, a family with label names hands out per-label-set children
via :meth:`~Metric.labels`, and the text exposition format in
:mod:`repro.obs.export` renders the whole registry.

Two properties matter more here than in a web service:

* **Determinism.** Instruments hold plain floats and dicts; nothing
  reads a clock or draws randomness, so a metrics snapshot taken after
  a deterministic run is itself deterministic (reprolint OBS001 keeps
  it that way). Families and children render in sorted order.
* **Branchless disabled mode.** :data:`NULL_REGISTRY` hands out
  singleton no-op instruments, so instrumented code holds an attribute
  whose methods do nothing — no ``if enabled`` at any call site, which
  is what keeps the obs-disabled hot loop inside the bench budget.
"""

from __future__ import annotations

from typing import Iterator, Sequence

#: Default latency-ish bucket boundaries (seconds); chosen to cover
#: both per-case wall clock and per-run flight durations at any scale.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0, 600.0,
)

LabelValues = tuple[str, ...]


class Counter:
    """Monotonically increasing count (one child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bucket_bounds[i]``;
    the implicit ``+Inf`` bucket is ``count``.
    """

    __slots__ = ("bucket_bounds", "bucket_counts", "count", "total")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.bucket_bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bucket_bounds):
            if value <= bound:
                self.bucket_counts[i] += 1


class NullCounter(Counter):
    """No-op counter; every instrumented call is a cheap pass."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


Instrument = Counter | Gauge | Histogram

_KINDS: dict[str, type[Instrument]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class Family:
    """One named metric family: its help text, kind, and children.

    A family without label names has exactly one child (the empty
    label tuple); families with labels create children on first use of
    each label-value combination.
    """

    __slots__ = ("name", "kind", "help", "label_names", "children", "_buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._buckets = tuple(buckets)
        self.children: dict[LabelValues, Instrument] = {}
        if not label_names:
            self.children[()] = self._make()

    def _make(self) -> Instrument:
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    @property
    def default(self) -> Instrument:
        """The unlabelled child (only valid without label names)."""
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "use .labels(...)"
            )
        return self.children[()]

    def labels(self, **labels: str) -> Instrument:
        """Child instrument for one label-value combination."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        values = tuple(str(labels[k]) for k in self.label_names)
        child = self.children.get(values)
        if child is None:
            child = self.children[values] = self._make()
        return child

    def samples(self) -> Iterator[tuple[LabelValues, Instrument]]:
        """Children in sorted label order (deterministic export)."""
        for values in sorted(self.children):
            yield values, self.children[values]


class MetricsRegistry:
    """Owns metric families; get-or-create by name, kind-checked."""

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}"
                )
            return family
        family = Family(name, kind, help, tuple(label_names), buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Family:
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Family:
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        return self._register(name, "histogram", help, labels, buckets)

    def families(self) -> list[Family]:
        """All families in sorted name order (deterministic export)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Family | None:
        return self._families.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Convenience: current value of a counter/gauge child."""
        family = self._families[name]
        child = family.labels(**labels) if labels else family.default
        if isinstance(child, Histogram):
            raise ValueError(f"metric {name!r} is a histogram; read its fields")
        return child.value


class _NullFamily(Family):
    """Family whose every child is the same no-op instrument."""

    __slots__ = ("_null",)

    def __init__(self, kind: str) -> None:
        super().__init__(name=f"null_{kind}", kind=kind, help="", label_names=())
        null_kinds: dict[str, Instrument] = {
            "counter": NullCounter(),
            "gauge": NullGauge(),
            "histogram": NullHistogram(),
        }
        self._null = null_kinds[kind]
        self.children[()] = self._null

    @property
    def default(self) -> Instrument:
        return self._null

    def labels(self, **labels: str) -> Instrument:
        return self._null


class NullRegistry(MetricsRegistry):
    """Registry for disabled mode: every family is a shared no-op.

    Instrumented code does ``registry.counter(...).labels(...).inc()``
    unconditionally; with this registry the chain terminates in a pass
    statement, so there is no observer branch anywhere in the hot path.
    """

    def __init__(self) -> None:
        super().__init__()
        self._nulls = {kind: _NullFamily(kind) for kind in _KINDS}

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        return self._nulls[kind]

    def families(self) -> list[Family]:
        return []


#: The shared disabled-mode registry (no-op, allocation-free to use).
NULL_REGISTRY = NullRegistry()

#: Process-global default registry, in the Prometheus-client tradition:
#: harness-side code that wants "the" registry without plumbing uses
#: this; tests swap it with :func:`set_default_registry`.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
