"""First-class workloads: the mutable registry and the workload parser.

A :class:`Workload` mirrors the :class:`repro.dse.evaluate.Design` protocol
on the network side: one named, content-fingerprinted (layer specs +
per-layer density assignments) network with its reference metadata, built
lazily from a factory or wrapped around a prebuilt
:class:`~repro.workloads.models.Network`.  The six Table IV benchmarks are
the built-in presets of the global :data:`WORKLOADS` registry
(:class:`BenchmarkInfo` is a thin back-compat wrapper over
:class:`Workload`); :meth:`WorkloadRegistry.register` adds user networks
programmatically, and :func:`parse_workload` resolves any workload token
uniformly:

* a registry name, case-insensitive (``"ResNet50"``);
* a ``name:override`` token re-deriving sparsity
  (``"BERT:weight_sparsity=0.9"``, ``"AlexNet:act_density=0.5"``);
* a path to a declarative WorkloadSpec JSON file
  (``"examples/workloads/tinycnn.json"``, overridable the same way);
* a :class:`Workload`, :class:`~repro.workloads.spec.WorkloadSpec`, or bare
  :class:`~repro.workloads.models.Network` object, passed through.

Unknown names suggest the closest registered match (difflib), in the same
style as :func:`repro.dse.explorer.design_space` errors.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Union

from repro.config import ModelCategory
from repro.workloads.models import (
    Network,
    alexnet,
    assign_densities,
    bert_base,
    googlenet,
    inception_v3,
    mobilenet_v2,
    resnet50,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> registry)
    from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Workload:
    """One first-class workload: a network plus its reference metadata.

    ``factory`` builds the network lazily (the Table IV presets);
    ``source`` carries a prebuilt network instead (spec-built and derived
    workloads).  The built network is memoized per instance -- repeated
    ``.network`` accesses (benchmark loops, suite assembly) never rebuild.

    ``weight_sparsity`` / ``act_sparsity`` are the reference ratios the
    workload's sparse variants target (Table IV columns for the presets);
    ``accuracy`` and ``dense_latency_cycles`` are published reference
    numbers for the reproduction tables (empty / 0 for user workloads).
    """

    name: str
    factory: Callable[[], Network] | None = None
    weight_sparsity: float = 0.0
    act_sparsity: float = 0.0
    accuracy: str = ""
    dense_latency_cycles: float = 0.0
    source: Network | None = None

    def __post_init__(self) -> None:
        if (self.factory is None) == (self.source is None):
            raise ValueError(
                f"workload {self.name!r} needs exactly one of factory= or "
                f"source= (got factory={self.factory!r}, source={self.source!r})"
            )

    @cached_property
    def network(self) -> Network:
        """The built network (memoized per instance)."""
        if self.source is not None:
            return self.source
        return self.factory()

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the built network (memoized on the network)."""
        return self.network.fingerprint

    def categories(self) -> tuple[ModelCategory, ...]:
        """Model categories this workload can exercise.

        Every workload runs dense and weight-sparse; the activation-sparse
        categories need nonzero activation sparsity (BERT's GeLU keeps
        activations dense, so it cannot exercise A-side skipping).
        """
        cats = [ModelCategory.DENSE, ModelCategory.B]
        if self.act_sparsity > 0.0:
            cats += [ModelCategory.A, ModelCategory.AB]
        return tuple(cats)

    def describe(self) -> dict:
        """JSON-shaped summary record (what ``repro workloads list --json``
        emits)."""
        network = self.network
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "layers": len(network.layers),
            "macs": network.macs,
            "weight_sparsity": self.weight_sparsity,
            "act_sparsity": self.act_sparsity,
            "categories": [c.value for c in self.categories()],
        }


@dataclass(frozen=True)
class BenchmarkInfo(Workload):
    """One row of Table IV (thin back-compat wrapper over :class:`Workload`)."""


#: What :func:`parse_workload` accepts: a workload, a spec, a bare network,
#: or a token string (registry name, ``name:override``, or a JSON path).
WorkloadLike = Union[Workload, "WorkloadSpec", Network, str]


class WorkloadRegistry:
    """A mutable, name-keyed collection of workloads.

    Lookup is case-insensitive; registration preserves display case.  The
    global :data:`WORKLOADS` instance is pre-populated with the Table IV
    presets; :meth:`register` adds user workloads for the current process
    (worker processes resolve tokens themselves, so pass :class:`Workload`
    objects -- not bare registered names -- through
    ``Session.evaluate(networks=...)`` if you need a programmatically
    registered workload in a parallel run; workload objects pickle fine).
    """

    def __init__(self, workloads: tuple[Workload, ...] = ()) -> None:
        self._entries: dict[str, Workload] = {}
        for workload in workloads:
            self.register(workload)

    def register(
        self, workload: "Workload | Network | WorkloadSpec", *, replace: bool = False
    ) -> Workload:
        """Add a workload (or a network / spec, coerced) to the registry."""
        workload = _coerce(workload)
        key = workload.name.lower()
        if not replace and key in self._entries:
            raise ValueError(
                f"workload {workload.name!r} is already registered; pass "
                f"replace=True to overwrite it"
            )
        self._entries[key] = workload
        return workload

    def unregister(self, name: str) -> None:
        """Remove a workload by (case-insensitive) name."""
        try:
            del self._entries[name.strip().lower()]
        except KeyError:
            raise KeyError(self._unknown(name)) from None

    def get(self, name: str) -> Workload:
        """Look a workload up by (case-insensitive) name."""
        try:
            return self._entries[name.strip().lower()]
        except KeyError:
            raise KeyError(self._unknown(name)) from None

    def names(self) -> list[str]:
        return [workload.name for workload in self._entries.values()]

    def suite_for(self, category: ModelCategory) -> list[Workload]:
        """Registered workloads that exercise a given model category."""
        return [w for w in self._entries.values() if category in w.categories()]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.strip().lower() in self._entries

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def _unknown(self, name: str) -> str:
        close = difflib.get_close_matches(
            name.strip().lower(), list(self._entries), n=3, cutoff=0.6
        )
        hint = ""
        if close:
            shown = [self._entries[key].name for key in close]
            hint = f"; did you mean {' or '.join(shown)}?"
        return (
            f"unknown workload {name!r}{hint} "
            f"(registered: {', '.join(self.names())}; or pass a WorkloadSpec "
            f"JSON path)"
        )


def _coerce(obj: "Workload | Network | WorkloadSpec") -> Workload:
    """Coerce a workload-ish object (not a token string) to a Workload."""
    if isinstance(obj, Workload):
        return obj
    if isinstance(obj, Network):
        return Workload(
            name=obj.name,
            source=obj,
            weight_sparsity=obj.weight_sparsity,
            act_sparsity=obj.act_sparsity,
        )
    build = getattr(obj, "build", None)
    if callable(build):  # WorkloadSpec, without importing it (cycle guard)
        return build()
    raise TypeError(
        f"cannot use {obj!r} as a workload: expected a Workload, Network, "
        f"WorkloadSpec, or token string"
    )


BENCHMARKS: tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo("AlexNet", alexnet, 0.89, 0.53, "57.3% (top-1)", 1.0e6),
    BenchmarkInfo("GoogleNet", googlenet, 0.82, 0.37, "68.2% (top-1)", 2.2e6),
    BenchmarkInfo("ResNet50", resnet50, 0.81, 0.43, "76.1% (top-1)", 4.8e6),
    BenchmarkInfo("InceptionV3", inception_v3, 0.79, 0.46, "75.1% (top-1)", 6.9e6),
    BenchmarkInfo("MobileNetV2", mobilenet_v2, 0.81, 0.52, "67.5% (top-1)", 2.2e6),
    BenchmarkInfo("BERT", bert_base, 0.82, 0.00, "81.0%/81.4% (MNLI)", 5.3e6),
)

#: The global registry: Table IV presets built in, user workloads via
#: :meth:`WorkloadRegistry.register`.
WORKLOADS = WorkloadRegistry(BENCHMARKS)


def benchmark(name: str) -> Workload:
    """Look a workload up by (case-insensitive) name in the global registry."""
    return WORKLOADS.get(name)


def benchmark_names() -> list[str]:
    return WORKLOADS.names()


def suite_for(category: ModelCategory) -> list[BenchmarkInfo]:
    """Table IV presets that exercise a given model category.

    Deliberately scoped to the built-in presets (not the whole registry):
    this is the default evaluation suite, and user-registered workloads
    only participate when named explicitly.
    """
    return [info for info in BENCHMARKS if category in info.categories()]


#: Override keys a ``name:override`` token accepts, with their semantics.
_OVERRIDE_KEYS = ("weight_sparsity", "act_sparsity", "weight_density",
                  "act_density", "name")


def _apply_overrides(base: Workload, text: str, token: str) -> Workload:
    """Derive a workload from ``base`` per a ``k=v[,k=v...]`` override string.

    ``weight_sparsity`` / ``act_sparsity`` re-run the analytical density
    solver over the base network's layer specs at the new network-level
    ratios; ``weight_density`` / ``act_density`` pin a uniform per-layer
    density on the respective side afterwards; ``name`` renames the derived
    workload (default: the full token, so labels stay self-describing).
    """
    overrides: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        if not sep or not value.strip():
            raise ValueError(
                f"bad workload override {part!r} in {token!r}: expected "
                f"key=value with key one of {', '.join(_OVERRIDE_KEYS)}"
            )
        if key not in _OVERRIDE_KEYS:
            close = difflib.get_close_matches(key, _OVERRIDE_KEYS, n=1, cutoff=0.6)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"unknown workload override {key!r} in {token!r}{hint} "
                f"(accepted: {', '.join(_OVERRIDE_KEYS)})"
            )
        overrides[key] = value.strip()
    if not overrides:
        raise ValueError(f"workload token {token!r} has an empty override list")

    def _ratio(key: str, default: float) -> float:
        if key not in overrides:
            return default
        value = float(overrides[key])
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{key} must be in [0, 1], got {value} in {token!r}")
        return value

    network = base.network
    weight_sparsity = _ratio("weight_sparsity", base.weight_sparsity)
    act_sparsity = _ratio("act_sparsity", base.act_sparsity)
    layers = list(network.layers)
    if "weight_sparsity" in overrides or "act_sparsity" in overrides:
        layers = assign_densities(
            [layer.spec for layer in layers], weight_sparsity, act_sparsity
        )
    if "weight_density" in overrides:
        density = _ratio("weight_density", 1.0)
        layers = [
            type(layer)(spec=layer.spec, weight_density=density,
                        act_density=layer.act_density)
            for layer in layers
        ]
    if "act_density" in overrides:
        density = _ratio("act_density", 1.0)
        layers = [
            type(layer)(spec=layer.spec, weight_density=layer.weight_density,
                        act_density=density)
            for layer in layers
        ]
    name = overrides.get("name", token)
    derived = Network(name=name, layers=tuple(layers))
    return Workload(
        name=name,
        source=derived,
        weight_sparsity=derived.weight_sparsity,
        act_sparsity=derived.act_sparsity,
        accuracy=base.accuracy,
    )


def _looks_like_path(token: str) -> bool:
    return token.endswith(".json") or "/" in token or "\\" in token


@lru_cache(maxsize=256)
def _spec_workload_cached(path: str, mtime_ns: int, size: int) -> Workload:
    from repro.workloads.spec import WorkloadSpec

    return WorkloadSpec.load(path).build()


def _load_spec_workload(path: Path) -> Workload:
    """Load-and-build a WorkloadSpec path, memoized per file content.

    ``EvalSettings.suite`` resolves its tokens on every call (they must
    stay cheap, picklable strings for the worker processes), so without
    memoization a sweep would re-read the JSON and re-run the density
    solver for every (design, category) evaluation.  Keying on
    (path, mtime, size) keeps edits visible: touching the file is a cache
    miss, and the built ``Workload`` -- whose ``network`` is memoized per
    instance -- is shared by every later resolution.
    """
    stat = path.stat()
    return _spec_workload_cached(str(path), stat.st_mtime_ns, stat.st_size)


def anchor_workload_tokens(
    tokens: object, base: Path | str
) -> object:
    """Re-anchor relative WorkloadSpec paths in a token list onto ``base``.

    Experiment/search spec loaders call this with the spec file's parent
    directory so a spec can reference workload JSON files relative to
    *itself* (``"../workloads/tinycnn.json"``) and keep working from any
    working directory.  Only string tokens whose path half resolves under
    ``base`` are rewritten; everything else (names, absolute paths, tokens
    resolvable from the current directory, non-string workloads) passes
    through untouched.
    """
    if not isinstance(tokens, (list, tuple)):
        return tokens
    base = Path(base)
    anchored = []
    for token in tokens:
        if isinstance(token, str):
            head, sep, overrides = token.partition(":")
            path = Path(head)
            if (
                _looks_like_path(head)
                and not path.is_absolute()
                and not path.exists()
                and (base / head).exists()
            ):
                token = str(base / head) + sep + overrides
        anchored.append(token)
    return type(tokens)(anchored)


def parse_workload(token: WorkloadLike) -> Workload:
    """Resolve any workload token into a :class:`Workload`, uniformly.

    Accepted: :class:`Workload` / :class:`~repro.workloads.spec.WorkloadSpec`
    / :class:`~repro.workloads.models.Network` objects (passed through or
    built), registry names (case-insensitive), paths to WorkloadSpec JSON
    files, and ``base:key=value[,key=value...]`` override tokens where
    ``base`` is itself a name or a path (see module docstring).  Unknown
    names raise ``ValueError`` naming the closest registered match.
    """
    if not isinstance(token, str):
        return _coerce(token)
    text = token.strip()
    if not text:
        raise ValueError("empty workload token")
    if text in WORKLOADS:
        return WORKLOADS.get(text)
    base_text, sep, override_text = text.partition(":")
    base_text = base_text.strip()
    if _looks_like_path(base_text):
        path = Path(base_text)
        if not path.exists():
            raise ValueError(
                f"workload spec file {base_text!r} does not exist "
                f"(tokens ending in .json or containing a path separator "
                f"are resolved as WorkloadSpec JSON paths)"
            )
        base = _load_spec_workload(path)
    else:
        try:
            base = WORKLOADS.get(base_text)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if not sep:
        return base
    return _apply_overrides(base, override_text, text)
