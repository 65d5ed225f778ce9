"""Core model for expected utility networks.

An expected utility network is an undirected graph over a finite, ordered set
of discrete variables, with two independent arc layers: one for probability
("prob") and one for utility ("util").  Each variable carries one positive
ratio table per layer.  The table for variable ``i`` in a layer stores the
ceteris paribus ratio of the joint measure when ``i`` moves away from its
reference value, conditioned on the values of the below-index neighbours of
``i`` in that layer, with every above-index neighbour pinned at its reference
value.  The product of the per-variable tables along the ordering recovers
the joint measure up to the value it takes at the global reference state, so
a network is a compact, strictly positive parameterisation of a probability
measure and a utility function at once.

Every table in this module is exact: the ratio tables enumerate the joint,
and the (p, p * u) tables the queries read are summed from the factors by
bucket elimination over a cover of cliques.  Every read that could span the state
space is guarded by a cap (default one million states, overridable via the
``EUN_STATE_CAP`` environment variable or per call).  Networks are
immutable once built; all reads are pure and cached reads are safe under
concurrent initialisation (racing first readers may each build a value, and
all of them get the one stored first).
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, TypeVar

import numpy as np

__all__ = [
    "PROB",
    "UTIL",
    "LAYERS",
    "DEFAULT_STATE_CAP",
    "STATE_CAP_ENV",
    "EunError",
    "ValidationError",
    "StateCapError",
    "EmptyEventError",
    "SeparationError",
    "NumericRangeError",
    "VariableSpec",
    "EUNGraph",
    "RestrictedPotential",
    "Space",
    "Assignment",
    "Event",
    "Network",
    "ReconstructedJoint",
    "MantlePotential",
    "ImapViolation",
    "ImapReport",
    "build_network",
    "joint_ratio",
    "reconstruct_joint",
    "full_mantle_potential",
    "ratio_spread",
    "validate_imap",
    "derive_restricted_potentials",
    "resolve_state_cap",
]

PROB = "prob"
UTIL = "util"
LAYERS = (PROB, UTIL)

DEFAULT_STATE_CAP = 1_000_000
STATE_CAP_ENV = "EUN_STATE_CAP"
_INTP_MAX = int(np.iinfo(np.intp).max)  # the largest flat index a state can have

_T = TypeVar("_T")


class EunError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(EunError, ValueError):
    """A network, document, or argument failed structural validation."""


class StateCapError(EunError):
    """An operation would enumerate more states than the configured cap."""


class EmptyEventError(EunError, ValueError):
    """An event operation required a non-empty event or intersection."""


class SeparationError(EunError, ValueError):
    """A graph-separation precondition does not hold."""


class NumericRangeError(EunError):
    """A sum over the joint ratio tables left float range (inf, NaN or 0)."""


def resolve_state_cap(cap: int | None = None) -> int:
    """Return the effective state cap: explicit value, else env var, else default.

    An explicit cap must be a positive Python or numpy integer; a bool or a
    float is rejected, not truncated.
    """
    if cap is not None:
        if isinstance(cap, (bool, np.bool_)) or not hasattr(cap, "__index__") or cap < 1:
            raise ValidationError("state cap must be a positive integer")
        return operator.index(cap)
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{STATE_CAP_ENV} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValidationError(f"{STATE_CAP_ENV} must be positive, got {value}")
        return value
    return DEFAULT_STATE_CAP


def _require_cap(count: int, state_cap: int | None, doing: str) -> None:
    """Raise StateCapError when ``count`` states exceed the effective cap."""
    cap = resolve_state_cap(state_cap)
    if count > cap:
        raise StateCapError(f"{doing} {count} states exceeds the cap of {cap}")


def _check_layer(layer: str) -> str:
    if layer not in LAYERS:
        raise ValidationError(f"unknown layer {layer!r}, expected one of {LAYERS}")
    return layer


@dataclass(frozen=True)
class VariableSpec:
    """A discrete variable: name, ordered domain labels, and reference label.

    The reference label defaults to the first domain label.  Domains of size
    one are rejected, a variable that cannot move carries no information.
    """

    name: str
    domain: tuple[str, ...]
    reference: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("variable name must be a non-empty string")
        domain = tuple(self.domain)
        object.__setattr__(self, "domain", domain)
        if len(domain) < 2:
            raise ValidationError(f"variable {self.name!r}: domain must have at least 2 values")
        if len(set(domain)) != len(domain):
            raise ValidationError(f"variable {self.name!r}: domain labels must be unique")
        if any(not isinstance(v, str) or not v for v in domain):
            raise ValidationError(f"variable {self.name!r}: domain labels must be non-empty strings")
        ref = self.reference if self.reference is not None else domain[0]
        if ref not in domain:
            raise ValidationError(
                f"variable {self.name!r}: reference value {ref!r} absent from domain"
            )
        object.__setattr__(self, "reference", ref)

    @property
    def size(self) -> int:
        return len(self.domain)

    @property
    def reference_index(self) -> int:
        return self.domain.index(self.reference)

    def value_index(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise ValidationError(
                f"variable {self.name!r}: assignment value {label!r} outside domain {self.domain}"
            ) from None


def _normalize_arc(pair: Sequence[str]) -> tuple[str, str]:
    a, b = pair
    if a == b:
        raise ValidationError(f"self-loop arc on {a!r} is not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class EUNGraph:
    """Two undirected arc layers over a shared node set.

    Arcs are stored as sorted name pairs.  ``nodes`` lists every node the
    graph knows about, including isolated ones; arc endpoints are always
    members.  Each layer's adjacency map is built once, with the graph.
    """

    prob_arcs: frozenset[tuple[str, str]]
    util_arcs: frozenset[tuple[str, str]]
    nodes: frozenset[str]
    _adjacent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacent = {}
        for layer, arcs in ((PROB, self.prob_arcs), (UTIL, self.util_arcs)):
            adj: dict[str, set[str]] = {n: set() for n in self.nodes}
            for x, y in arcs:
                adj.setdefault(x, set()).add(y)
                adj.setdefault(y, set()).add(x)
            adjacent[layer] = {n: frozenset(out) for n, out in adj.items()}
        object.__setattr__(self, "_adjacent", adjacent)

    @classmethod
    def of(
        cls,
        prob_arcs: Iterable[Sequence[str]] = (),
        util_arcs: Iterable[Sequence[str]] = (),
        nodes: Iterable[str] = (),
    ) -> "EUNGraph":
        p = frozenset(_normalize_arc(a) for a in prob_arcs)
        u = frozenset(_normalize_arc(a) for a in util_arcs)
        ns = set(nodes)
        for x, y in itertools.chain(p, u):
            ns.add(x)
            ns.add(y)
        return cls(p, u, frozenset(ns))

    def neighbors(self, layer: str, name: str) -> frozenset[str]:
        if name not in self.nodes:
            raise ValidationError(f"unknown variable {name!r} in graph query")
        return self._adjacent[_check_layer(layer)][name]

    def below_neighbors(self, layer: str, name: str, ordering: Sequence[str]) -> tuple[str, ...]:
        """Neighbours of ``name`` that precede it in ``ordering``, in that order."""
        mantle = self.neighbors(layer, name)
        return tuple(n for n in ordering[: ordering.index(name)] if n in mantle)

    def separating(
        self,
        layer: str,
        a: frozenset[str],
        b: frozenset[str],
        c: frozenset[str],
    ) -> bool:
        """Breadth-first check that every path from ``a`` to ``b`` meets ``c``.

        Assumes the three sets are checked elsewhere (disjoint, known names).
        """
        adj = self._adjacent[_check_layer(layer)]
        seen = set(a)
        frontier = list(a)
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt in c or nxt in seen:
                    continue
                if nxt in b:
                    return False
                seen.add(nxt)
                frontier.append(nxt)
        return True


class RestrictedPotential:
    """One variable's ceteris paribus ratio table in one layer.

    ``table`` has one axis for the variable itself followed by one axis per
    below-index neighbour (the ``parents``), in ordering index order.  Rows
    where the variable sits at its reference value are identically 1, every
    entry is strictly positive and finite, and the table covers the full
    cross product of the domains involved.
    """

    __slots__ = ("var", "layer", "parents", "table")

    def __init__(
        self,
        var: str,
        layer: str,
        parents: tuple[str, ...],
        table: np.ndarray,
        *,
        reference_index: int | None = None,
    ) -> None:
        _check_layer(layer)
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 1 + len(parents):
            raise ValidationError(
                f"potential for {var!r}/{layer}: table has {arr.ndim} axes, "
                f"expected {1 + len(parents)} (variable plus parents)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"potential for {var!r}/{layer}: non-finite entry")
        if not np.all(arr > 0.0):
            raise ValidationError(f"potential for {var!r}/{layer}: non-positive potential entry")
        if reference_index is not None:
            ref_slice = arr[reference_index]
            if not np.all(ref_slice == 1.0):
                raise ValidationError(
                    f"potential for {var!r}/{layer}: non-unit reference row "
                    f"(entries at the reference value must equal 1 exactly)"
                )
        arr = arr.copy()
        arr.flags.writeable = False
        self.var = var
        self.layer = layer
        self.parents = tuple(parents)
        self.table = arr

    @classmethod
    def _checked(
        cls, var: str, layer: str, parents: tuple[str, ...], table: np.ndarray
    ) -> "RestrictedPotential":
        """A potential over a ``table`` its caller has checked already: read-only,
        finite, positive, one axis per parent and a unit reference row."""
        pot = cls.__new__(cls)
        pot.var, pot.layer, pot.parents, pot.table = var, layer, parents, table
        return pot

    @classmethod
    def identity(
        cls, spec: VariableSpec, parent_specs: Sequence[VariableSpec], layer: str
    ) -> "RestrictedPotential":
        shape = (spec.size,) + tuple(p.size for p in parent_specs)
        return cls(
            spec.name,
            layer,
            tuple(p.name for p in parent_specs),
            np.ones(shape),
            reference_index=spec.reference_index,
        )

    @classmethod
    def from_entries(
        cls,
        spec: VariableSpec,
        parent_specs: Sequence[VariableSpec],
        layer: str,
        entries: Mapping[tuple[str, ...], float],
    ) -> "RestrictedPotential":
        """Build a table from ``(value, *parent_values) -> ratio`` entries.

        Rows for the reference value of the variable may be omitted, they are
        implied to be 1.  Every non-reference row must be present.
        """
        shape = (spec.size,) + tuple(p.size for p in parent_specs)
        table = np.ones(shape)
        covered = np.zeros(shape, dtype=bool)
        for key, ratio in entries.items():
            key = tuple(key)
            if len(key) != 1 + len(parent_specs):
                raise ValidationError(
                    f"potential for {spec.name!r}/{layer}: entry key {key!r} has wrong arity"
                )
            vi = spec.value_index(key[0])
            pis = tuple(p.value_index(k) for p, k in zip(parent_specs, key[1:]))
            table[(vi,) + pis] = float(ratio)
            covered[(vi,) + pis] = True
        # Coverage is counted apart from the values, so a NaN entry is
        # reported as non-finite, not as missing.
        covered[spec.reference_index] = True
        if not covered.all():
            raise ValidationError(
                f"potential for {spec.name!r}/{layer}: potential table incomplete "
                f"(missing rows for some value combination)"
            )
        return cls(
            spec.name, layer, tuple(p.name for p in parent_specs), table,
            reference_index=spec.reference_index,
        )

    def value(self, value_label: str, parent_labels: Mapping[str, str], space: "Space") -> float:
        """Look one entry up by labels.  Convenience for tests and debugging."""
        spec = space.spec(self.var)
        vi = spec.value_index(value_label)
        pis = tuple(
            space.spec(p).value_index(parent_labels[p]) for p in self.parents
        )
        return float(self.table[(vi,) + pis])

    def __repr__(self) -> str:  # pragma: no cover
        return f"RestrictedPotential({self.var!r}, {self.layer!r}, parents={self.parents!r})"


class Space:
    """The ordered variable system a network (and its events) lives on."""

    __slots__ = ("specs", "names", "shape", "reference_indexes", "_index")

    def __init__(self, specs: Sequence[VariableSpec]) -> None:
        specs = tuple(specs)
        names = tuple(s.name for s in specs)
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        self.specs = specs
        self.names = names
        self.shape = tuple(s.size for s in specs)
        self.reference_indexes = tuple(s.reference_index for s in specs)
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Space):
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    @property
    def state_count(self) -> int:
        return math.prod(self.shape)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def spec(self, name: str) -> VariableSpec:
        return self.specs[self.index(name)]

    def partial_indexes(self, partial: Mapping[str, str]) -> dict[int, int]:
        """Map a name->label partial assignment to axis->value-index form."""
        out: dict[int, int] = {}
        for name, label in partial.items():
            i = self.index(name)
            out[i] = self.specs[i].value_index(label)
        return out

    def assignment(self, values: Mapping[str, str]) -> "Assignment":
        """Build a full assignment from a name->label mapping."""
        if set(values) != set(self.names):
            missing = set(self.names) - set(values)
            extra = set(values) - set(self.names)
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if extra:
                parts.append(f"unknown {sorted(extra)}")
            raise ValidationError("assignment does not cover the variables: " + ", ".join(parts))
        idx = tuple(self.specs[i].value_index(values[n]) for i, n in enumerate(self.names))
        return Assignment(self, idx)

    def reference_assignment(self) -> "Assignment":
        return Assignment(self, self.reference_indexes)


@dataclass(frozen=True)
class Assignment:
    """A full joint realisation, one value per variable, stored by index."""

    space: Space
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.space):
            raise ValidationError("assignment length does not match the variable count")
        for i, v in enumerate(self.values):
            if not 0 <= v < self.space.shape[i]:
                raise ValidationError(
                    f"assignment value index {v} outside domain of {self.space.names[i]!r}"
                )

    @property
    def labels(self) -> dict[str, str]:
        return {
            n: self.space.specs[i].domain[self.values[i]]
            for i, n in enumerate(self.space.names)
        }

    def __getitem__(self, name: str) -> str:
        i = self.space.index(name)
        return self.space.specs[i].domain[self.values[i]]


class Event:
    """A set of joint states, held in one of two forms.

    A cylinder fixes some variables at single values and leaves the rest
    free; it is held as its axis->value map.  Any other event is a state set,
    held as a sorted, unique ``np.intp`` array of flat indexes into the
    row-major joint table.  An event caches nothing.  Size, intersection,
    equality and hashing never enumerate a cylinder; a union that involves a
    cylinder, a complement, and a cylinder's ``states()``, ``assignments()``
    or ``flat_indexes()`` build its flat indexes under the state cap.  Empty
    events can arise from set operations; measure operations reject them.
    """

    __slots__ = ("space", "_partial", "_indexes")

    def __init__(
        self,
        space: Space,
        *,
        partial: dict[int, int] | None = None,
        states: Iterable[tuple[int, ...]] | None = None,
    ) -> None:
        if (partial is None) == (states is None):
            raise ValueError("exactly one of partial/states must be given")
        self.space = space
        self._partial = _checked_partial(space, partial) if partial is not None else None
        self._indexes = _flat_of(space, states) if states is not None else None

    @classmethod
    def _make(cls, space: Space, partial: dict | None, indexes: np.ndarray | None) -> "Event":
        """An event from its stored form, taken as given: set operations' route."""
        event = object.__new__(cls)
        event.space, event._partial, event._indexes = space, partial, indexes
        return event

    @classmethod
    def cylinder(cls, space: Space, partial: Mapping[str, str]) -> "Event":
        return cls._make(space, space.partial_indexes(partial), None)

    @classmethod
    def true(cls, space: Space) -> "Event":
        return cls._make(space, {}, None)

    @classmethod
    def from_assignments(
        cls, space: Space, assignments: Iterable[Assignment | Mapping[str, str]]
    ) -> "Event":
        rows = [a if isinstance(a, Assignment) else space.assignment(a) for a in assignments]
        if any(a.space != space for a in rows):
            raise ValidationError("assignment belongs to a different variable system")
        return cls(space, states=[a.values for a in rows])

    @property
    def is_cylinder(self) -> bool:
        return self._partial is not None

    @property
    def fixed(self) -> dict[int, int] | None:
        """The axis->value map for cylinder events, else None."""
        return dict(self._partial) if self._partial is not None else None

    @property
    def size(self) -> int:
        if self._partial is not None:
            return math.prod(n for i, n in enumerate(self.space.shape) if i not in self._partial)
        return len(self._indexes)

    @property
    def is_empty(self) -> bool:
        # Every domain is non-empty, so no cylinder is.
        return self._partial is None and not self._indexes.size

    def _members(self, state_cap: int | None = None) -> np.ndarray:
        """The sorted flat indexes; a cylinder's are built under the state cap."""
        if self._partial is None:
            return self._indexes
        _require_cap(self.size, state_cap, "materialising")
        _require_cap(self.space.state_count, _INTP_MAX, "flat-indexing")
        flat = np.zeros(1, dtype=np.intp)
        for i, n in enumerate(self.space.shape):
            values = self._partial[i] if i in self._partial else np.arange(n)
            flat = (flat[:, None] * n + values).reshape(-1)
        return flat

    def states(self, state_cap: int | None = None) -> frozenset[tuple[int, ...]]:
        """The explicit state set, derived on demand (cap-guarded for cylinders)."""
        coords = np.unravel_index(self._members(state_cap), self.space.shape)
        return frozenset(zip(*(c.tolist() for c in coords)))

    def assignments(self) -> tuple[Assignment, ...]:
        """The member states as Assignment objects, sorted for determinism."""
        coords = np.unravel_index(self._members(), self.space.shape)
        return tuple(Assignment(self.space, s) for s in zip(*(c.tolist() for c in coords)))

    def fixed_variables(self) -> dict[str, str]:
        """Variables taking a single value across the whole event."""
        if self.is_empty:
            raise EmptyEventError("empty event has no fixed variables")
        fixed = self._partial
        if fixed is None:
            coords = np.unravel_index(self._indexes, self.space.shape)
            fixed = {i: int(c[0]) for i, c in enumerate(coords) if (c == c[0]).all()}
        names, specs = self.space.names, self.space.specs
        return {names[i]: specs[i].domain[v] for i, v in sorted(fixed.items())}

    def _require_same_space(self, other: "Event") -> None:
        if self.space != other.space:
            raise ValidationError("events belong to different variable systems")

    def __and__(self, other: "Event") -> "Event":
        self._require_same_space(other)
        if self._partial is not None and other._partial is not None:
            merged = _merged(self._partial, other._partial)
            if merged is None:
                return Event._make(self.space, None, np.empty(0, dtype=np.intp))
            return Event._make(self.space, merged, None)
        if self._partial is None and other._partial is None:
            both = np.intersect1d(self._indexes, other._indexes, assume_unique=True)
            return Event._make(self.space, None, both)
        # The meet keeps the members of the state set that take the cylinder's
        # fixed values: no cylinder is materialised, so no cap applies.
        cylinder, members = (self, other) if self._partial is not None else (other, self)
        coords = np.unravel_index(members._indexes, self.space.shape)
        inside = np.ones(members.size, dtype=bool)
        for ax, v in cylinder._partial.items():
            inside &= coords[ax] == v
        return Event._make(self.space, None, members._indexes[inside])

    def __or__(self, other: "Event") -> "Event":
        """The union: a state set unless both are the same cylinder, with a
        cylinder operand's flat indexes built under the environment's state cap."""
        self._require_same_space(other)
        if self._partial is not None and self._partial == other._partial:
            return self
        both = np.concatenate((self._members(), other._members()))
        return Event._make(self.space, None, _unique_sorted(both))

    def complement(self, state_cap: int | None = None) -> "Event":
        """Every state outside the event, a state set built under the state cap."""
        _require_cap(self.space.state_count, state_cap, "complement over")
        members = self._members(state_cap)
        outside = np.ones(self.space.state_count, dtype=bool)
        outside[members] = False
        return Event._make(self.space, None, np.flatnonzero(outside))

    def __invert__(self) -> "Event":
        return self.complement()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        # Equal finite sets have the size of their meet, which enumerates no cylinder.
        return self.space == other.space and self.size == other.size == (self & other).size

    def __hash__(self) -> int:
        # Equal events have equal sizes, whichever form each is held in.
        return hash((self.space, self.size))

    def flat_indexes(self) -> np.ndarray:
        """Sorted flat indexes into the row-major joint table.

        A state set returns a read-only view of its stored array; a cylinder
        builds a new one under the environment's state cap and does not keep it.
        """
        flat = self._members().view()
        flat.flags.writeable = False
        return flat

    def __repr__(self) -> str:  # pragma: no cover
        if self._partial is not None:
            return f"Event.cylinder({self.fixed_variables()!r})"
        return f"Event({self.size} states)"


def _merged(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """The axis->value map of two cylinders' meet, or None where they clash."""
    merged = dict(a)
    for i, v in b.items():
        if merged.setdefault(i, v) != v:
            return None
    return merged


def _checked_partial(space: Space, partial: Mapping[int, int]) -> dict[int, int]:
    """A cylinder's axis->value map, each axis one of the space's and each
    value an index inside that axis's domain."""
    out = {}
    for axis, value in partial.items():
        if axis not in range(len(space)):
            raise ValidationError(f"axis {axis!r} outside a space of {len(space)} variables")
        if value not in range(space.shape[axis]):
            raise ValidationError(
                f"value index {value!r} outside the domain of {space.names[axis]!r} "
                f"({space.shape[axis]} values)"
            )
        out[int(axis)] = int(value)
    return out


def _flat_of(space: Space, states: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Sorted, unique flat indexes of explicit states, each checked against
    the space: one value index per variable, inside its domain."""
    _require_cap(space.state_count, _INTP_MAX, "flat-indexing")
    rows = list(states)
    n = len(space)
    for s in rows:
        if len(s) != n:
            raise ValidationError(f"state {s!r} has {len(s)} values for {n} variables")
    values = np.array(rows).reshape(len(rows), n)
    if rows and values.dtype.kind not in "iu":
        raise ValidationError("state values must be integer value indexes")
    outside = ((values < 0) | (values >= np.array(space.shape))).any(axis=1)
    if outside.any():
        bad = rows[int(np.argmax(outside))]
        raise ValidationError(f"state {bad!r} has a value index outside its domain")
    return _unique_sorted(np.ravel_multi_index(values.T.astype(np.intp), space.shape))


def _unique_sorted(flat: np.ndarray) -> np.ndarray:
    """The distinct flat indexes in order; a stable sort merges sorted runs in one pass."""
    flat = np.sort(flat, kind="stable")
    return np.concatenate((flat[:-1][flat[1:] != flat[:-1]], flat[-1:]))


class ReconstructedJoint(NamedTuple):
    """Normalised probability table and utility ratio table, ordering-shaped."""

    p: np.ndarray
    u: np.ndarray


def _mask(axes: Iterable[int]) -> int:
    """The bit mask of ``axes``."""
    mask = 0
    for ax in axes:
        mask |= 1 << ax
    return mask


def _axes(mask: int) -> tuple[int, ...]:
    """The axes of a bit mask, in index order."""
    return tuple(ax for ax in range(mask.bit_length()) if mask >> ax & 1)


class _Bucket(NamedTuple):
    """One step of bucket elimination: the bit masks of the axes its
    operands span and of the variables it sums out, and its operands,
    indexes into the terms followed by the earlier buckets' results."""

    scope: int
    summed: int
    operands: tuple[int, ...]


def _eliminate(
    tables: Sequence[np.ndarray], buckets: Sequence[_Bucket], shape: Sequence[int], log: bool
) -> np.ndarray:
    """Run ``buckets`` over the term tables of :meth:`Network._terms`: the
    sums of their product, both halves, over the variables the last bucket
    keeps, in the terms' layout; with ``log``, the tables hold logs, and so
    does the result.

    A bucket multiplies its operands and sums out its summed axes; in log
    space it adds them and takes the log of their exp summed, each sum
    against the largest entry it adds up, so no exp over- or underflows
    where the result is in range.  A variable that no bucket sums out and
    the last bucket does not keep counts its domain size.
    """
    combine = np.add if log else np.multiply
    values = list(tables)
    *steps, root = buckets
    done = root.scope
    for spans, summed, operands in steps:
        done |= summed
        total = values[operands[0]]
        if len(operands) > 1:
            # One row-major buffer of the bucket's shape takes the products
            # in place, one operand after another.
            halves = max(len(values[i]) for i in operands)
            lengths = [n if spans >> ax & 1 else 1 for ax, n in enumerate(shape)]
            total = combine(total, values[operands[1]], out=np.empty((halves, *lengths)))
            for i in operands[2:]:
                combine(total, values[i], out=total)
        for i in operands:
            if i >= len(tables):
                values[i] = None  # a result is the operand of one bucket only
        axes = tuple(1 + ax for ax in _axes(summed))  # after the halves' axis
        if log:
            top = np.maximum.reduce(total, axes, keepdims=True)
            # the bucket's own buffer, not a term, takes the shift in place
            shifted = np.subtract(total, top, out=total if len(operands) > 1 else None)
            total = np.log(np.add.reduce(np.exp(shifted, out=shifted), axes, keepdims=True))
            total += top
        else:
            total = np.add.reduce(total, axes, keepdims=True)
        values.append(total)
    count = math.prod(n for ax, n in enumerate(shape) if not done >> ax & 1)
    kept = [n if root.scope >> ax & 1 else 1 for ax, n in enumerate(shape)]
    # The root fills the p half, copies it, and only then multiplies in the
    # utility tables, whose p half is ones, so each half takes each table once.
    out = np.empty((2, *kept))
    p, pu = out
    p.fill(math.log(count) if log else float(count))
    terms = [values[i] for i in root.operands if i < len(tables)]
    for t in terms:
        if len(t) == 1:
            combine(p, t[0], out=p)
    pu[...] = p
    for i in root.operands:
        if i >= len(tables):
            combine(out, values[i], out=out)
    for t in terms:
        if len(t) == 2:
            combine(pu, t[1], out=pu)
    return out


class _Table(NamedTuple):
    """A stacked (p, p * u) pair over ``axes``, in index order, and its
    totals: S_p and S_u of the sure event."""

    pair: np.ndarray
    sp: float
    su: float
    axes: tuple[int, ...]


def _totals(pair: np.ndarray) -> list[float]:
    """Each half of a stacked pair summed over every other axis, the same
    reduction as a read of the sure event on the pair."""
    return np.add.reduce(pair, tuple(range(1, pair.ndim))).tolist()


class MantlePotential(NamedTuple):
    """A full-mantle ratio table: variable, conditioning names, table."""

    var: str
    given: tuple[str, ...]
    table: np.ndarray


@dataclass(frozen=True)
class ImapViolation:
    variable: str
    layer: str
    deviation: float
    witness: dict[str, str]


@dataclass(frozen=True)
class ImapReport:
    tolerance: float
    violations: tuple[ImapViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# Per axis count, the transpose that moves a table's first axis last.
_FIRST_AXIS_LAST = [(*range(1, k), 0) for k in range(64)]


class Network:
    """An immutable expected utility network.

    Built through :func:`build_network`.  All public reads are pure; the
    factor terms and one (p, p * u) table per scope mask are computed on
    demand and cached, so concurrent readers are safe.  Every question
    reads the table of its scope (:meth:`_table`): a clique's, or one that
    spans cliques, is summed from the factors, any other scope's in one sum
    over the other axes of the table of the smallest clique that holds it.
    The per-layer ratio tables are a reference reader that no query reads,
    built on each call.
    """

    def __init__(
        self,
        space: Space,
        graph: EUNGraph,
        potentials: Mapping[str, Mapping[str, RestrictedPotential]],
    ) -> None:
        self.space = space
        self.graph = graph
        self._potentials = {layer: dict(potentials[layer]) for layer in LAYERS}
        self._lock = threading.Lock()
        self._cache: dict[str, object] = {}
        # the tables of :meth:`_table`, by scope mask, and the entries of
        # those that are not a clique's
        self._tables: dict[int, _Table] = {}
        self._scope_entries = 0

    # -- structure reads ---------------------------------------------------

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.space.names

    @property
    def state_count(self) -> int:
        return self.space.state_count

    def potential(self, layer: str, name: str) -> RestrictedPotential:
        _check_layer(layer)
        try:
            return self._potentials[layer][name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def mantle(self, layer: str, name: str) -> frozenset[str]:
        """All neighbours of ``name`` in the given layer."""
        self.space.index(name)
        return self.graph.neighbors(layer, name)

    def below_neighbors(self, layer: str, name: str) -> tuple[str, ...]:
        """Below-index neighbours in ordering index order."""
        return self.graph.below_neighbors(layer, name, self.space.names)

    # -- event and assignment helpers --------------------------------------

    def cylinder(self, partial: Mapping[str, str]) -> Event:
        return Event.cylinder(self.space, partial)

    def true_event(self) -> Event:
        return Event.true(self.space)

    def assignment(self, values: Mapping[str, str]) -> Assignment:
        return self.space.assignment(values)

    def reference_assignment(self) -> Assignment:
        return self.space.reference_assignment()

    # -- cached numeric tables ---------------------------------------------

    def _cached(self, key: str, build: Callable[[], _T]) -> _T:
        """The value cached under ``key``, built by ``build()`` on first use.

        ``build`` runs outside the lock, so racing first readers may each
        build; the first value stored wins and every reader returns it.
        """
        value = self._cache.get(key)
        if value is None:
            value = build()
            with self._lock:
                value = self._cache.setdefault(key, value)
        return value  # type: ignore[return-value]

    def _factors(self, layer: str) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Per-variable (axes, ratio table) pairs, cached: the variable, then its parents."""
        index, pots = self.space._index.__getitem__, self._potentials[layer]
        return self._cached(f"factors/{layer}", lambda: [
            ((i, *map(index, pot.parents)), pot.table)
            for i, pot in enumerate(map(pots.__getitem__, self.space.names))
        ])

    def ratio_tables(self, layer: str, state_cap: int | None = None) -> np.ndarray:
        """The full joint ratio table of one layer (value 1 at the reference
        state), built on each call: a reference reader, which no query reads.

        Adds up the logs of the layer's :meth:`_terms` tables, the ratios in
        a probability term's one half and in a utility term's second half,
        left to right along the ordering: the same summation order as the
        scalar path in :func:`joint_ratio` (the two can still differ by an
        ulp at the final exponentiation).  The cap is checked first.
        """
        halves = 1 if _check_layer(layer) == PROB else 2
        _require_cap(self.state_count, state_cap, "enumeration over")
        total = np.zeros(self.space.shape)
        for t in self._terms()[1]:
            if len(t) == halves:
                total += np.log(t[-1])
        # An overflow or underflow is left as inf or 0 for the readers to report.
        with np.errstate(over="ignore", under="ignore"):
            np.exp(total, out=total)
        total.flags.writeable = False
        return total

    def _cliques(self) -> tuple[int, ...]:
        """The bit masks of the cliques of the cover, the maximal cliques
        of a chordal graph that holds both layers' graphs, fewest entries
        first; cached.

        Every factor of either layer lies in one of them, and a clique's
        marginal tables answer every question whose axes it holds.  The
        variables are eliminated along the reverse ordering, the last one
        first: each one and its remaining neighbours, the below-index ones,
        form a clique, and those neighbours are joined.  A clique is maximal
        unless an earlier one holds it.  Where those cliques together would
        hold at least as many entries as the joint, the cover is the one
        clique of every axis instead, as it is when one clique holds every
        variable.  Cap-free.
        """

        def build() -> tuple[int, ...]:
            shape, n = self.space.shape, len(self.space)
            # Bit masks of each variable's below-index neighbours in either
            # layer: the parents in its factors.
            below = [0] * n
            for layer in LAYERS:
                for (v, *parents), _ in self._factors(layer):
                    below[v] |= _mask(parents)
            masks: list[int] = []
            for v in range(n - 1, -1, -1):
                rest = below[v]
                mask = rest | 1 << v
                if not any(mask & m == mask for m in masks):
                    masks.append(mask)
                while rest:
                    u = rest.bit_length() - 1
                    rest ^= 1 << u
                    below[u] |= rest
            sized = [(math.prod(shape[ax] for ax in _axes(m)), m) for m in masks]
            if sum(entries for entries, _ in sized) >= math.prod(shape):
                return ((1 << n) - 1,)
            sized.sort(key=operator.itemgetter(0))
            return tuple(mask for _, mask in sized)

        return self._cached("cliques", build)

    def _terms(self) -> tuple[list[int], list[np.ndarray]]:
        """Both layers' ratio tables as elimination terms, identity tables
        left out: each term's axes as a bit mask, and its table; cached.
        Cap-free.

        A term's table has an axis for the p half and the p * u half, then
        one axis per variable of the space in index order, of length 1 for
        a variable it lacks.  A probability table counts in both halves (its
        first axis has length 1), a utility table only in the p * u half:
        its p half is a table of ones.  The utility terms are views of one
        buffer, filled by one copy, whose p half is one row of ones.
        """

        def build() -> tuple[list[int], list[np.ndarray]]:
            shape, masks, tables = self.space.shape, [], []
            util: list[tuple[list[int], np.ndarray]] = []
            ones = [1] * len(shape)
            for layer in LAYERS:
                for axes, ratios in self._factors(layer):
                    # A table whose last entry is not 1 is no identity table.
                    if ratios.item(-1) == 1.0 and ratios.max() == 1.0 == ratios.min():
                        continue
                    mask, full = 0, ones.copy()
                    for ax in axes:
                        mask |= 1 << ax
                        full[ax] = shape[ax]
                    masks.append(mask)
                    # The variable's axis comes first and is its highest one.
                    ratios = ratios.transpose(_FIRST_AXIS_LAST[ratios.ndim])
                    if layer == UTIL:
                        util.append((full, ratios))
                    else:
                        tables.append(ratios.reshape(1, *full))
            if util:
                buffer = np.empty((2, sum(view.size for _, view in util)))
                buffer[0] = 1.0
                np.concatenate([view for _, view in util], axis=None, out=buffer[1])
                start = 0
                for full, view in util:
                    stop = start + view.size
                    tables.append(buffer[:, start:stop].reshape(2, *full))
                    start = stop
            return masks, tables

        return self._cached("terms", build)

    def _clique_tree(self) -> tuple[tuple[int, ...], ...]:
        """Each clique's neighbours in a clique tree of :meth:`_cliques`, by
        position; cached.  Cap-free.

        A spanning tree of the cliques with the most shared variables over
        its links (Prim's, from the first clique, the lowest position on a
        tie).  For the maximal cliques of a chordal graph that makes the
        cliques that hold a variable a subtree.
        """

        def build() -> tuple[tuple[int, ...], ...]:
            family = self._cliques()
            links: list[list[int]] = [[] for _ in family]
            # Each clique outside the tree: its most shared variables with a
            # clique inside, and that clique.
            best = {k: (-1, 0) for k in range(1, len(family))}
            last = 0
            while best:
                for k, (shared, _) in best.items():
                    here = (family[k] & family[last]).bit_count()
                    if here > shared:
                        best[k] = (here, last)
                last = max(best, key=lambda k: (best[k][0], -k))
                via = best.pop(last)[1]
                links[last].append(via)
                links[via].append(last)
            return tuple(tuple(link) for link in links)

        return self._cached("clique_tree", build)

    def _schedule(self, scope: int) -> list[_Bucket]:
        """The buckets that sum every variable outside the ``scope`` mask
        out of :meth:`_terms`, then the bucket that keeps exactly the scope.

        The clique tree is rooted at the clique that holds the most of the
        scope's axes (the first in :meth:`_cliques` order on a tie), the
        scope's own clique where it is one, and walked leaves first: each
        clique, the root included, sums out its variables that are neither
        in its parent nor in the scope, taking every term and earlier result
        that mentions them.  A scope variable rides up inside the results,
        so a bucket spans at most its clique and the scope.  A pure function
        of the network and the scope, whatever is cached.  The scope of
        every axis sums nothing out, so it is the last bucket alone, over
        every term in index order.  Cap-free.
        """
        masks, family, tree = self._terms()[0], self._cliques(), self._clique_tree()
        root = max(range(len(family)), key=lambda k: ((family[k] & scope).bit_count(), -k))
        # each clique's variables shared with its parent; the root has none
        shared = {root: 0}
        visits = [root]
        for k in visits:
            for j in tree[k]:
                if j not in shared:
                    shared[j] = family[k]
                    visits.append(j)
        live = dict(enumerate(masks))
        buckets: list[_Bucket] = []
        for k in reversed(visits):
            private = family[k] & ~shared[k] & ~scope
            operands = [i for i, mask in live.items() if mask & private] if private else []
            if not operands:
                continue
            spans = 0
            for i in operands:
                spans |= live.pop(i)
            live[len(masks) + len(buckets)] = spans & ~private
            buckets.append(_Bucket(spans, spans & private, tuple(operands)))
        buckets.append(_Bucket(scope, 0, tuple(live)))
        return buckets

    def _clique_holding(self, scope: int) -> int | None:
        """The mask of the clique of the cover with the fewest entries that
        holds the ``scope`` mask, or None where the scope spans cliques.

        A pure function of the graph, the ordering and the scope, so a
        question reads the same table whatever was asked or cached before.
        """
        for clique in self._cliques():
            if clique & scope == scope:
                return clique
        return None

    def _table(self, scope: int, state_cap: int) -> _Table:
        """The stacked (p, p * u) pair over exactly the axes of the ``scope``
        mask, and its totals, S_p and S_u of the sure event; cached under
        the mask.

        The pair's halves hold the sums of the probability ratios, and of
        the products of both layers' ratios, over every variable outside
        the scope, so the table of every axis is the joint's pair.  Where
        the scope is a clique of the cover or spans cliques, the pair is
        summed from the factors by bucket elimination along
        :meth:`_schedule`, so no table made holds more than a clique of the
        cover and the scope times the two halves; where a product or a sum
        over- or underflows, the same buckets run again in log space.  Any
        other scope is one numpy sum of the table of its
        :meth:`_clique_holding` over the clique's other axes, so the table
        is a pure function of the network and the mask.  A clique's table
        and the table of every axis are always kept; the others kept hold at
        most ``state_cap`` entries together, and one built past that bound
        is returned and not kept.  The cap is checked against the joint on
        every call, cached or not.
        """
        _require_cap(self.state_count, state_cap, "enumeration over")
        table = self._tables.get(scope)
        if table is not None:
            return table
        shape, clique, axes = self.space.shape, self._clique_holding(scope), _axes(scope)
        # An overflow is left as inf for the readers to report, and the log
        # space redo's exp rounds an underflow to 0 or a subnormal, whatever
        # numpy's error state is.
        with np.errstate(over="ignore", under="ignore"):
            if clique in (None, scope):
                tables, buckets = self._terms()[1], self._schedule(scope)
                try:
                    with np.errstate(over="raise", under="raise"):
                        pair = _eliminate(tables, buckets, shape, log=False)
                except FloatingPointError:
                    logs = _eliminate([np.log(t) for t in tables], buckets, shape, log=True)
                    pair = np.exp(logs, out=logs)
                pair = pair.reshape(2, *(shape[ax] for ax in axes))
            else:
                held = self._table(clique, state_cap)
                pair = held.pair.sum(
                    axis=tuple(1 + i for i, ax in enumerate(held.axes) if not scope >> ax & 1)
                )
            pair.flags.writeable = False
            table = _Table(pair, *_totals(pair), axes)
        size = 0 if scope in (clique, (1 << len(shape)) - 1) else pair.size
        with self._lock:
            if scope in self._tables:
                return self._tables[scope]
            if size == 0 or self._scope_entries + size <= state_cap:
                self._tables[scope] = table
                self._scope_entries += size
        return table

    def imap_report(self, tolerance: float = 1e-9, state_cap: int | None = None) -> ImapReport:
        """The :func:`validate_imap` report, cached at the default tolerance;
        every call first checks the audit's largest window against the cap."""
        _require_cap(_audit_windows(self)[1], state_cap, "an audit window over")
        if tolerance == 1e-9:
            return self._cached("imap", lambda: validate_imap(self, tolerance, state_cap=state_cap))
        return validate_imap(self, tolerance, state_cap=state_cap)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}({len(self.space)} variables, "
            f"{len(self.graph.prob_arcs)} prob arcs, {len(self.graph.util_arcs)} util arcs)"
        )


def _structure(
    specs: Sequence[VariableSpec], ordering: Sequence[str], graph: EUNGraph
) -> tuple[Space, EUNGraph]:
    """Check names, ordering and arc ends; return the ordered space and graph.

    The returned graph's nodes are exactly the ordering; it is ``graph``
    itself when they already are.
    """
    if not specs:
        raise ValidationError("a network needs at least one variable")
    by_name = {}
    for spec in specs:
        if spec.name in by_name:
            raise ValidationError(f"duplicate variable {spec.name!r}")
        by_name[spec.name] = spec
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(by_name):
        raise ValidationError(
            "ordering must be a permutation of the variable names, "
            f"got {ordering!r} over {sorted(by_name)}"
        )
    space = Space([by_name[n] for n in ordering])

    unknown = {n for arc in itertools.chain(graph.prob_arcs, graph.util_arcs) for n in arc}
    unknown -= set(ordering)
    if unknown:
        raise ValidationError(f"unknown variable in an arc: {sorted(unknown)}")
    if graph.nodes != frozenset(ordering):
        graph = EUNGraph(graph.prob_arcs, graph.util_arcs, frozenset(ordering))
    return space, graph


def build_network(
    specs: Sequence[VariableSpec],
    ordering: Sequence[str],
    graph: EUNGraph,
    potentials: Iterable[RestrictedPotential] = (),
) -> Network:
    """Validate the parts and assemble an immutable network.

    ``ordering`` is a permutation of the variable names and fixes the index
    of every variable.  Each potential must condition on exactly the
    below-index neighbours of its variable in its layer, in index order.
    Missing potentials default to the identity table over the correct
    conditioning set, so a graph with no potentials at all is the uniform
    probability and constant utility over the space.
    """
    space, graph = _structure(specs, ordering, graph)
    expected_parents = {
        layer: {name: graph.below_neighbors(layer, name, space.names) for name in space.names}
        for layer in LAYERS
    }

    tables: dict[str, dict[str, RestrictedPotential]] = {PROB: {}, UTIL: {}}
    for pot in potentials:
        if pot.var not in space.names:
            raise ValidationError(f"potential for unknown variable {pot.var!r}")
        if pot.var in tables[pot.layer]:
            raise ValidationError(f"duplicate potential for {pot.var!r}/{pot.layer}")
        want = expected_parents[pot.layer][pot.var]
        if pot.parents != want:
            raise ValidationError(
                f"potential for {pot.var!r}/{pot.layer}: conditioning set mismatch with graph, "
                f"expected parents {want!r}, got {pot.parents!r}"
            )
        spec = space.spec(pot.var)
        shape = (spec.size,) + tuple(space.spec(p).size for p in want)
        if pot.table.shape != shape:
            raise ValidationError(
                f"potential for {pot.var!r}/{pot.layer}: table shape {pot.table.shape} "
                f"does not match domains {shape}"
            )
        if not np.all(pot.table[spec.reference_index] == 1.0):
            raise ValidationError(
                f"potential for {pot.var!r}/{pot.layer}: non-unit reference row"
            )
        tables[pot.layer][pot.var] = pot

    for layer in LAYERS:
        for name in space.names:
            if name not in tables[layer]:
                parent_specs = [space.spec(p) for p in expected_parents[layer][name]]
                tables[layer][name] = RestrictedPotential.identity(
                    space.spec(name), parent_specs, layer
                )

    return Network(space, graph, tables)


def _as_values(network: Network, x: Assignment | Mapping[str, str]) -> tuple[int, ...]:
    if isinstance(x, Assignment):
        if x.space != network.space:
            raise ValidationError("assignment belongs to a different variable system")
        return x.values
    return network.space.assignment(x).values


def joint_ratio(network: Network, layer: str, x: Assignment | Mapping[str, str]) -> float:
    """The joint measure at ``x`` relative to the reference state.

    Computed as the chain product of the per-variable restricted tables along
    the ordering: each factor reads the variable's value, its below-index
    neighbours at their values in ``x``, and leaves every above-index
    neighbour implicitly at its reference value.  The product is accumulated
    in log space, left to right; a ratio that over- or underflows raises
    NumericRangeError.
    """
    _check_layer(layer)
    values = _as_values(network, x)
    total = 0.0
    for axes, table in network._factors(layer):
        total += math.log(table[tuple(values[a] for a in axes)])
    with np.errstate(over="ignore", under="ignore"):  # reported just below
        out = float(np.exp(total))
    if not 0.0 < out < math.inf:
        state = {s.name: s.domain[v] for s, v in zip(network.space.specs, values)}
        raise NumericRangeError(f"the {layer} joint ratio at {state} leaves float range")
    return out


def _require_in_range(table: np.ndarray, what: str) -> None:
    """Raise NumericRangeError on an inf, 0 or NaN entry of a ratio table."""
    if not (table.min() > 0.0 and table.max() < math.inf):
        raise NumericRangeError(f"{what} holds an inf or 0 entry: its ratios over- or underflow")


def reconstruct_joint(network: Network, state_cap: int | None = None) -> ReconstructedJoint:
    """Enumerate the full joint: normalised p table and u ratio table.

    The probability table sums to 1; the utility table is expressed relative
    to the utility of the reference state.  Axes follow the ordering.  This
    is the oracle backbone for everything else in the package: every other
    numeric operation must agree with sums over these tables.
    """
    pr, ur = (network.ratio_tables(layer, state_cap) for layer in LAYERS)
    for layer, table in zip(LAYERS, (pr, ur)):
        _require_in_range(table, f"the {layer} ratio table")
    # An overflowing sum is reported just below; a p entry below float
    # range rounds to 0 or a subnormal.
    with np.errstate(over="ignore", under="ignore"):
        total = pr.sum()
        p = pr / total
    if not total < math.inf:
        raise NumericRangeError(f"the {PROB} ratio table sums to inf: its ratios overflow")
    p.flags.writeable = False
    return ReconstructedJoint(p=p, u=ur)


def ratio_spread(
    table: np.ndarray, moved: Mapping[int, int], free: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Ratio of a positive table against its ``moved`` axes, and its spread.

    The ratio divides every entry by the entry with each axis in ``moved``
    set to the index it maps to.  The spread is ``(hi - lo) / lo`` of that
    ratio across the ``free`` axes, one entry per configuration of the other
    axes: zero where the ratio does not depend on the free axes.
    """
    idx: list[object] = [slice(None)] * table.ndim
    for ax, v in moved.items():
        idx[ax] = slice(v, v + 1)
    ratio = table / table[tuple(idx)]
    hi = ratio.max(axis=tuple(free))
    lo = ratio.min(axis=tuple(free))
    return ratio, (hi - lo) / lo


def _ratio_window(
    factors: Sequence[tuple[tuple[int, ...], np.ndarray]], space: Space,
    moved: list[int], kept: list[int], base: Sequence[int] | None = None,
) -> np.ndarray:
    """The ratio over the ``kept`` axes, whose leading axes are ``moved``, read
    off the ``(axes, positive table)`` factors: the product over the factors
    that mention a moved axis of f(kept axes, the rest at ``base``) / f(the
    same, the moved axes at reference).  ``base`` holds a value index per
    axis, the reference state by default.  The other factors cancel from the
    ratio.  Checked for float range."""
    refs = space.reference_indexes
    base = refs if base is None else base
    ratio = np.ones(tuple(space.shape[a] for a in kept))
    moved_set = set(moved)
    for axes, table in (f for f in factors if not moved_set.isdisjoint(f[0])):
        sub = table[tuple(slice(None) if a in kept else base[a] for a in axes)]
        here = [a for a in axes if a in kept]
        # In ``kept`` order, with length-1 axes for the kept axes the factor lacks.
        sub = sub.transpose(sorted(range(len(here)), key=lambda k: kept.index(here[k])))
        sub = sub.reshape([space.shape[a] if a in here else 1 for a in kept])
        at_ref = tuple(refs[a] if a in here else 0 for a in moved)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # reported just below
            ratio *= sub / sub[at_ref]
    names = ", ".join(repr(space.names[a]) for a in moved)
    _require_in_range(ratio, f"the ratio window of {names}")
    return ratio


def _mantle_window(network: Network, layer: str, i: int) -> tuple[list[int], list[int]]:
    """Variable i's window, i then the other axes of the factors that mention
    it in index order, and the positions of its non-mantle axes in it."""
    mantle = {network.space.index(m) for m in network.mantle(layer, network.space.names[i])}
    scope = {a for axes, _ in network._factors(layer) if i in axes for a in axes}
    kept = [i] + sorted(scope - {i})
    return kept, [k for k, a in enumerate(kept) if k and a not in mantle]


def _audit_windows(network: Network) -> tuple[list[tuple[str, int, list[int], list[int]]], int]:
    """The ``(layer, i, kept, free)`` windows :func:`validate_imap` builds,
    and the state count of the largest (1 if none); cached, cap-free."""

    def build() -> tuple[list[tuple[str, int, list[int], list[int]]], int]:
        every = ((layer, i, *_mantle_window(network, layer, i)) for layer in LAYERS
                 for i in range(len(network.space)))
        windows = [w for w in every if w[3]]
        sizes = (math.prod(network.space.shape[a] for a in w[2]) for w in windows)
        return windows, max(sizes, default=1)

    return network._cached("imap_windows", build)


def full_mantle_potential(
    network: Network, layer: str, var: str, tolerance: float = 1e-9, strict: bool = True,
    state_cap: int | None = None,
) -> MantlePotential:
    """The ratio table of ``var`` conditioned on its whole mantle.

    Read off ``var``'s window (see :func:`validate_imap`) with its non-mantle
    variables at their reference values.  If the ratio varies across
    non-mantle completions beyond ``tolerance`` (relative), strict mode
    raises; loose mode returns the reference-completion table anyway.
    """
    _check_layer(layer)
    i = network.space.index(var)
    kept, free = _mantle_window(network, layer, i)
    _require_cap(math.prod(network.space.shape[a] for a in kept), state_cap, "a window over")
    refs = network.space.reference_indexes
    ratio = _ratio_window(network._factors(layer), network.space, [i], kept)
    deviation = float(ratio_spread(ratio, {0: refs[i]}, free)[1].max()) if free else 0.0
    if strict and deviation > tolerance:
        raise ValidationError(
            f"full-mantle potential for {var!r}/{layer}: non-mantle dependence detected "
            f"(relative deviation {deviation:.3e} exceeds {tolerance:.1e})"
        )
    # The variable's own axis first, mantle axes follow in index order.
    pick = tuple(refs[a] if k in free else slice(None) for k, a in enumerate(kept))
    table = np.ascontiguousarray(ratio[pick])
    table.flags.writeable = False
    given = tuple(network.space.names[a] for k, a in enumerate(kept) if k and k not in free)
    return MantlePotential(var=var, given=given, table=table)


def validate_imap(
    network: Network, tolerance: float = 1e-9, state_cap: int | None = None
) -> ImapReport:
    """Check that each layer's graph is an independence map.

    For every variable and layer, the full-window ratio of the variable (its
    joint ratio against the same state with the variable moved to its
    reference value) must depend only on the variable's declared mantle.
    The factors that do not mention the variable cancel from it, so it is
    read off its window: the variable, its mantle and the below-neighbours
    of its above-neighbours.  Windows with no non-mantle axis are skipped;
    the largest one built must pass the cap.  A dependence beyond the
    relative tolerance is a violation.  Its witness is the first assignment
    of the variable and its mantle, in row-major order over them in
    ordering order, whose spread is within 1e-12 relative of the maximum.
    """
    windows, largest = _audit_windows(network)
    _require_cap(largest, state_cap, "an audit window over")
    space = network.space
    violations = []
    for layer, i, kept, free in windows:
        ratio = _ratio_window(network._factors(layer), space, [i], kept)
        rel = ratio_spread(ratio, {0: space.reference_indexes[i]}, free)[1]
        deviation = float(rel.max())
        if deviation > tolerance:
            # ``rel`` runs over i, then its mantle: put i at its index position.
            axes = sorted(a for k, a in enumerate(kept) if k not in free)
            rel = np.moveaxis(rel, 0, axes.index(i))
            values = np.argwhere(rel >= deviation * (1.0 - 1e-12))[0]  # row-major: the first
            witness = {space.names[a]: space.specs[a].domain[v] for a, v in zip(axes, values)}
            violations.append(ImapViolation(space.names[i], layer, deviation, witness))
    return ImapReport(tolerance=tolerance, violations=tuple(violations))


def _factor_potentials(
    factors: Sequence[tuple[tuple[int, ...], np.ndarray]],
    space: Space, graph: EUNGraph, layer: str,
) -> list[RestrictedPotential]:
    """Restricted potentials of the product of ``(axes, positive table)`` factors.

    Variable i's table is its :func:`_ratio_window` over (i, pa), so a
    variable that no factor mentions gets the identity table.
    """
    out = []
    for i, name in enumerate(space.names):
        parents = graph.below_neighbors(layer, name, space.names)
        ratio = _ratio_window(factors, space, [i], [i] + [space.index(p) for p in parents])
        ref = space.reference_indexes[i]
        out.append(RestrictedPotential(name, layer, parents, ratio, reference_index=ref))
    return out


def derive_restricted_potentials(
    table: np.ndarray,
    space: Space,
    graph: EUNGraph,
    layer: str,
) -> list[RestrictedPotential]:
    """Read restricted potentials off a positive joint table.

    For each variable the potential entry at (value, below-neighbour values)
    is the ratio of the joint at that configuration, with every other
    variable at its reference value, against the same configuration with the
    variable itself moved to its reference value.  The input table may be
    unnormalised; ratios are scale free (NumericRangeError if one leaves float range).
    """
    _check_layer(layer)
    arr = np.asarray(table, dtype=float)
    if arr.shape != space.shape:
        raise ValidationError(
            f"joint table shape {arr.shape} does not match the variable domains {space.shape}"
        )
    if not (np.all(arr > 0.0) and np.all(np.isfinite(arr))):
        raise ValidationError("joint table must be strictly positive and finite")

    graph = EUNGraph(graph.prob_arcs, graph.util_arcs, frozenset(space.names))
    return _factor_potentials([(tuple(range(len(space))), arr)], space, graph, layer)
