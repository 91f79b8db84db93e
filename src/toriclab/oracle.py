"""Generic toric machinery for a nonnegative integer configuration.

Everything here works from the matrix alone and knows nothing about graphs.
It exists so the combinatorial computations elsewhere in the package can be
checked against an independent implementation: bounded-box Graver
enumeration, fiber graphs with their connected components, and random-order
reduced Groebner bases via a binomial Buchberger loop.  ``markov_bundle``
reads the minimal and universal Markov bases and the indispensable elements
off the fiber graphs at a Graver set's degrees; the graph pipeline
(``bases.fiber_bundle``, on the walk-derived Graver set) and the matrix
oracle (``analyze_config``, on the bounded Graver set) both go through it.
A fiber is enumerated by a sweep over the columns, the fibers at many
degrees by one batched numpy sweep, and each is split into components by a
flood fill through the moves found at smaller degrees; none of it recurses.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import add, ge, sub
from typing import Sequence

import numpy as np

from .binomials import (
    BasisSet,
    Binomial,
    make_basis_set,
    make_binomial,
)
from .errors import InternalInvariantError, ScaleGuardError

# Hard cap on the number of exponent vectors graver_bounded will materialize.
_MAX_BOX_ROWS = 5_000_000

# Inclusive range of the random weights sample_groebner draws.
_WEIGHT_RANGE = (1, 100)

# Distinct degrees from which ``fibers`` sweeps them in one numpy batch.  On
# the benchmark's graphs (median per call over the graphs with that many
# Graver degrees), the batch takes 1.6x the time of one ``fiber`` call per
# degree at 3 degrees, about the same at 4, 0.8x at 5 and 0.25x at 12-49.
_BATCH_MIN_DEGREES = 4
# The batch stores rows in the narrowest of these that holds every entry;
# past int64 ``fibers`` falls back to ``fiber``, on Python integers.
_BATCH_DTYPES = tuple(
    (t, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64)
)
# Degrees per numpy sweep.  Sweeping the 2,641 Graver degrees of a 24-edge
# graph at once raised the peak RSS of ``check`` from 125 to 172 MB; in
# sweeps of 256 it is 133 MB, and no slower.
_BATCH_MAX_DEGREES = 256


class ConfigError(ValueError):
    pass


class NegativeEntryError(ConfigError):
    """The matrix has a negative entry; only nonnegative gradings are supported."""


class OrderError(ValueError):
    """A term-order weight vector was rejected."""


@dataclass(frozen=True)
class ToricConfig:
    """A nonnegative integer matrix, one column per variable.

    Columns must be nonzero so every fiber is finite.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ConfigError("configuration matrix must be nonempty")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ConfigError("configuration matrix rows have unequal lengths")
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise ConfigError(
                        f"configuration entries must be integers, got {entry!r}"
                    )
                if entry < 0:
                    raise NegativeEntryError(
                        "configuration entries must be nonnegative"
                    )
        for j in range(width):
            if all(row[j] == 0 for row in self.rows):
                raise ConfigError(f"column {j + 1} of the configuration is zero")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(row[j] for row in self.rows) for j in range(self.ncols)
        )

    def degree(self, exponents: Sequence[int]) -> tuple[int, ...]:
        if len(exponents) != self.ncols:
            raise ConfigError(
                f"expected {self.ncols} exponents, got {len(exponents)}"
            )
        return tuple(
            sum(row[j] * exponents[j] for j in range(self.ncols))
            for row in self.rows
        )

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.rows]}


def config_from_rows(rows: Sequence[Sequence[int]]) -> ToricConfig:
    """Configuration from a list of integer rows, as read from text or JSON.

    Entries are taken as they are, not coerced: a float, boolean, string or
    null entry is a ConfigError, as is a matrix or row that is not a list.
    """
    if not isinstance(rows, (list, tuple)):
        raise ConfigError("matrix must be a list of rows")
    for i, row in enumerate(rows, 1):
        if not isinstance(row, (list, tuple)):
            raise ConfigError(f"matrix row {i} is not a list, got {row!r}")
    return ToricConfig(tuple(tuple(row) for row in rows))


def fiber(config: ToricConfig, degree: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with the given grading degree, lex ascending.

    A sweep over the columns keeps (prefix, residual) pairs, the residual
    being the degree still to be made up, and extends each by every
    multiplicity its residual allows, ascending, so the prefixes stay lex
    ascending.  A pair is dropped once a row left nonzero has no column
    after the one just placed.
    """

    target = tuple(int(x) for x in degree)
    if len(target) != config.nrows:
        raise ConfigError(f"degree must have {config.nrows} entries")
    if any(x < 0 for x in target):
        return ()
    cols = config.columns
    # closes[j]: the rows whose last nonzero column is j; zero rows close at 0
    closes: list[list[int]] = [[] for _ in cols]
    for r in range(config.nrows):
        closes[max((j for j, col in enumerate(cols) if col[r]), default=0)].append(r)

    pairs = [((), target)]
    for col, shut in zip(cols, closes):
        reached = [r for r, c in enumerate(col) if c]
        extended = []
        for prefix, residual in pairs:
            rest = residual
            for k in range(min(residual[r] // col[r] for r in reached) + 1):
                if not any(rest[r] for r in shut):
                    extended.append((prefix + (k,), rest))
                rest = tuple(map(sub, rest, col))
        pairs = extended
    return tuple(prefix for prefix, _ in pairs)


def fibers(
    config: ToricConfig, degrees: Sequence[Sequence[int]]
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``fiber`` at each distinct degree, keyed by the degree as a tuple.

    From ``_BATCH_MIN_DEGREES`` distinct degrees on, and while every entry
    fits in int64, a numpy sweep runs ``fiber``'s column sweep for up to
    ``_BATCH_MAX_DEGREES`` of them at once.  Its rows are (degree index,
    residual, prefix); each column repeats every row once per multiplicity,
    ascending, and drops the rows that leave a row it closes nonzero.  Rows
    stay grouped by degree and lex ascending within it, so each degree's
    members come out in ``fiber``'s order.  Fewer degrees go through
    ``fiber`` one by one, which skips the sweep's fixed numpy cost of
    100-200 us.
    """
    targets = {tuple(int(x) for x in d): None for d in degrees}
    if any(len(t) != config.nrows for t in targets):
        raise ConfigError(f"degree must have {config.nrows} entries")
    live = [t for t in targets if min(t) >= 0]
    dtype = None
    if len(targets) >= _BATCH_MIN_DEGREES:
        dtype = _batch_dtype(config, live)
    if dtype is None:
        return {t: fiber(config, t) for t in targets}
    found = {}
    for start in range(0, len(live), _BATCH_MAX_DEGREES):
        chunk = live[start:start + _BATCH_MAX_DEGREES]
        found.update(_fiber_batch(config, chunk, dtype))
    return {t: found.get(t, ()) for t in targets}


def _batch_dtype(config: ToricConfig, degrees: list[tuple[int, ...]]):
    """The narrowest of ``_BATCH_DTYPES`` that holds every entry of a batch
    row, or None past int64.  Every entry lies in 0..limit: a multiplicity
    k of column c takes k * c <= residual from each row c reaches."""
    limit = max(
        len(degrees), max(map(max, degrees), default=0), max(map(max, config.rows))
    )
    return next((t for t, top in _BATCH_DTYPES if limit <= top), None)


def _fiber_batch(
    config: ToricConfig, degrees: list[tuple[int, ...]], dtype: type
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``fibers``'s numpy sweep over nonnegative degrees whose every entry,
    like every matrix entry and the number of degrees, fits in ``dtype``."""
    # a row is [degree index, residual (nrows), prefix (ncols)]
    cols = config.columns
    width = 1 + config.nrows + config.ncols
    rows = np.zeros((len(degrees), width), dtype=dtype)
    rows[:, 0] = np.arange(len(degrees))
    rows[:, 1:1 + config.nrows] = np.array(degrees, dtype=dtype)
    lasts = [max((j for j, col in enumerate(cols) if col[r]), default=0)
             for r in range(config.nrows)]
    for j, col in enumerate(cols):
        reached = [r for r, c in enumerate(col) if c]
        shut = [1 + r for r, last in enumerate(lasts) if last == j]
        most = (rows[:, [1 + r for r in reached]]
                // np.array([col[r] for r in reached], dtype=dtype)).min(axis=1)
        steps = most.astype(np.intp) + 1
        pick = np.repeat(np.arange(len(rows)), steps)
        firsts = np.repeat(np.cumsum(steps) - steps, steps)
        k = (np.arange(len(pick)) - firsts).astype(dtype)
        rows = rows[pick]
        rows[:, 1:1 + config.nrows] -= k[:, None] * np.array(col, dtype=dtype)
        rows[:, 1 + config.nrows + j] = k
        if shut:
            rows = rows[~rows[:, shut].any(axis=1)]

    # converted one degree at a time, so that the short-lived lists of one
    # degree reuse the memory of the last instead of fragmenting the heap
    prefixes = rows[:, 1 + config.nrows:]
    bounds = np.searchsorted(rows[:, 0], np.arange(len(degrees) + 1)).tolist()
    return {
        t: tuple(map(tuple, prefixes[bounds[i]:bounds[i + 1]].tolist()))
        for i, t in enumerate(degrees)
    }


def graver_bounded(config: ToricConfig, box: int) -> tuple[Binomial, ...]:
    """Primitive kernel elements whose exponents are bounded by ``box``.

    Enumerates every exponent vector in {0..box}^m, sorts them by degree so
    each degree is a run of rows, pairs rows of a run whose supports (as
    bitmasks) are disjoint, and keeps the conformally minimal pairs.
    Minimality inside the box equals global minimality because a proper
    conformal divisor of an in-box vector is itself in the box.
    """

    if box < 1:
        raise ValueError("box must be at least 1")
    m = config.ncols
    total = (box + 1) ** m
    if total > _MAX_BOX_ROWS:
        raise ScaleGuardError(
            f"box enumeration would need {total} exponent vectors "
            f"(limit {_MAX_BOX_ROWS}); reduce the box or the variable count"
        )
    exps = np.indices((box + 1,) * m, dtype=np.min_scalar_type(box))
    exps = exps.reshape(m, -1).T
    # Entries are nonnegative, so no partial sum exceeds the largest degree
    # entry and the narrowest type holding it is safe for the product.
    matrix = np.array(
        config.rows,
        dtype=np.min_scalar_type(box * max(sum(row) for row in config.rows)),
    )
    degs = exps @ matrix.T
    order = np.lexsort(degs.T)
    ranked_degs = degs[order]
    del degs
    starts = np.any(ranked_degs[1:] != ranked_degs[:-1], axis=1)
    del ranked_degs
    group = np.concatenate(([0], np.cumsum(starts)))
    bits = np.zeros(total, dtype=np.int64)
    for j in range(m):
        bits |= (exps[:, j] > 0).astype(np.int64) << j
    bits = bits[order]

    # Sorted row k pairs with row k + d while both lie in one degree run.
    firsts = [np.empty(0, dtype=np.intp)]
    seconds = [np.empty(0, dtype=np.intp)]
    for d in range(1, total):
        same = group[:-d] == group[d:]
        if not same.any():
            break
        kept = np.flatnonzero(same & ((bits[:-d] & bits[d:]) == 0))
        firsts.append(kept)
        seconds.append(kept + d)
    firsts_rows = exps[order[np.concatenate(firsts)]].tolist()
    seconds_rows = exps[order[np.concatenate(seconds)]].tolist()

    candidates: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for u, v in zip(firsts_rows, seconds_rows):
        ut, vt = tuple(u), tuple(v)
        candidates.add((ut, vt) if ut > vt else (vt, ut))

    ranked = sorted(candidates, key=lambda pv: (sum(pv[0]) + sum(pv[1]), pv))
    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for plus, minus in ranked:
        dominated = False
        for ap, am in accepted:
            straight = all(x <= y for x, y in zip(ap, plus)) and all(
                x <= y for x, y in zip(am, minus)
            )
            crossed = all(x <= y for x, y in zip(am, plus)) and all(
                x <= y for x, y in zip(ap, minus)
            )
            if straight or crossed:
                dominated = True
                break
        if not dominated:
            accepted.append((plus, minus))
    return tuple(
        make_binomial(plus, minus, config.degree) for plus, minus in accepted
    )


def _degree_sort_key(degree: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(degree), degree)


@dataclass(frozen=True)
class FiberGraph:
    """One fiber together with its components under lower-degree moves."""

    degree: tuple[int, ...]
    fiber: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def beta0(self) -> int:
        return len(self.components) - 1

    @property
    def is_betti(self) -> bool:
        return len(self.components) > 1

    @property
    def indispensable_degree(self) -> bool:
        return len(self.components) == 2 and all(
            len(c) == 1 for c in self.components
        )

    def to_json(self) -> dict:
        return {
            "degree": list(self.degree),
            "fiber": [list(u) for u in self.fiber],
            "components": [list(c) for c in self.components],
            "beta0": self.beta0,
        }


def fiber_graphs(
    config: ToricConfig,
    degrees: Sequence[tuple[int, ...]],
) -> tuple[tuple[FiberGraph, ...], tuple[Binomial, ...]]:
    """Process candidate degrees in a linear extension of the grading order.

    At each degree the fiber members are connected by moves coming from
    generators already discovered at smaller degrees.  Every fiber with more
    than one component contributes spanning-tree edges: a star rooted at the
    lexicographically least monomial of the lexicographically least
    component, with each other component represented by its least monomial.
    The collected edges form a minimal Markov basis.
    """

    ranked = sorted(set(tuple(int(x) for x in d) for d in degrees),
                    key=_degree_sort_key)
    # each discovered generator, once in each orientation (from, to)
    moves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    minimal: list[Binomial] = []
    graphs: list[FiberGraph] = []

    found = fibers(config, ranked)
    for deg in ranked:
        members = found[deg]
        if not members:
            continue
        index = {u: i for i, u in enumerate(members)}
        # flood each unseen member through the moves; the moves come in both
        # orientations, so each component starts at its least member
        seen = [False] * len(members)
        components = []
        for start in range(len(members)):
            if seen[start]:
                continue
            seen[start] = True
            component, stack = [start], [start]
            while stack:
                u = members[stack.pop()]
                for p, q in moves:
                    if all(map(ge, u, p)):
                        j = index.get(tuple(map(add, map(sub, u, p), q)))
                        if j is None:
                            raise InternalInvariantError(
                                f"generator move left the fiber of degree {list(deg)}"
                            )
                        if not seen[j]:
                            seen[j] = True
                            component.append(j)
                            stack.append(j)
            components.append(sorted(component))
        graphs.append(
            FiberGraph(deg, members, tuple(tuple(c) for c in components))
        )
        if len(components) > 1:
            root_rep = members[components[0][0]]
            for comp in components[1:]:
                rep = members[comp[0]]
                b = make_binomial(rep, root_rep, config.degree)
                minimal.append(b)
                moves += ((b.plus, b.minus), (b.minus, b.plus))

    return tuple(graphs), tuple(
        sorted(minimal, key=lambda b: b.sort_key())
    )


def candidate_degrees(graver: Sequence[Binomial]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted({b.degree for b in graver}, key=_degree_sort_key)
    )


@dataclass(frozen=True)
class FiberBundle:
    """Markov data read off the fiber graphs at a Graver set's degrees."""

    config: ToricConfig
    graver: tuple[Binomial, ...]
    graphs: tuple[FiberGraph, ...]
    minimal_markov: tuple[Binomial, ...]
    universal_markov: BasisSet
    indispensable: BasisSet


def markov_bundle(config: ToricConfig, graver: Sequence[Binomial]) -> FiberBundle:
    """Fiber graphs at the Graver degrees and the Markov data they give.

    The universal Markov basis is every difference joining two distinct
    components of a Betti fiber.  A degree whose fiber has precisely two
    components, both singletons, forces its one such difference into every
    minimal Markov basis: that element is indispensable.
    """

    graphs, minimal = fiber_graphs(config, [b.degree for b in graver])
    universal: list[tuple[Binomial, dict]] = []
    indispensable: list[tuple[Binomial, dict]] = []
    for fg in graphs:
        if not fg.is_betti:
            continue
        joins = [
            (make_binomial(fg.fiber[iu], fg.fiber[iv], config.degree), {})
            for ci in range(len(fg.components))
            for cj in range(ci + 1, len(fg.components))
            for iu in fg.components[ci]
            for iv in fg.components[cj]
        ]
        universal += joins
        if fg.indispensable_degree:
            indispensable += joins
    return FiberBundle(
        config,
        tuple(graver),
        graphs,
        minimal,
        make_basis_set("markov", config.ncols, universal),
        make_basis_set("indispensable", config.ncols, indispensable),
    )


@dataclass(frozen=True)
class WeightOrder:
    """Weighted total order on monomials: weight first, lex tie-break."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise OrderError("weight vector must be nonempty")
        for w in self.weights:
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise OrderError(
                    "weights must be strictly positive integers"
                )

    def key(self, mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (
            sum(w * x for w, x in zip(self.weights, mono)),
            mono,
        )

    def orient(
        self, p: tuple[int, ...], q: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if p == q:
            return None
        return (p, q) if self.key(p) > self.key(q) else (q, p)


_Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _divides(d: tuple[int, ...], mono: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(d, mono))


def _reduce_step(
    mono: tuple[int, ...], basis: Sequence[_Pair], skip: int = -1
) -> tuple[int, ...] | None:
    for k, (lead, trail) in enumerate(basis):
        if k == skip:
            continue
        if _divides(lead, mono):
            return tuple(x - a + b for x, a, b in zip(mono, lead, trail))
    return None


def _normal_form(
    p: tuple[int, ...],
    q: tuple[int, ...],
    basis: Sequence[_Pair],
    order: WeightOrder,
) -> _Pair | None:
    while True:
        if p == q:
            return None
        if order.key(p) < order.key(q):
            p, q = q, p
        r = _reduce_step(p, basis)
        if r is not None:
            p = r
            continue
        r = _reduce_step(q, basis)
        if r is not None:
            q = r
            continue
        return (p, q)


def buchberger(
    generators: Sequence[Binomial], order: WeightOrder
) -> tuple[_Pair, ...]:
    """Reduced Groebner basis of a binomial ideal, as (lead, trail) pairs.

    All S-pairs and reductions of binomials stay binomial, so the loop works
    on exponent pairs only.  The reduced basis is unique for the order.
    """

    basis: list[_Pair] = []
    for g in generators:
        oriented = order.orient(g.plus, g.minus)
        if oriented is not None and oriented not in basis:
            basis.append(oriented)

    pending = deque(
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
    )
    while pending:
        i, j = pending.popleft()
        (lf, tf), (lg, tg) = basis[i], basis[j]
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        if all(a + b == c for a, b, c in zip(lf, lg, lcm)):
            # Disjoint leading terms; the S-pair reduces to zero.
            continue
        sp = tuple(c - a + b for c, a, b in zip(lcm, lf, tf))
        sq = tuple(c - a + b for c, a, b in zip(lcm, lg, tg))
        nf = _normal_form(sp, sq, basis, order)
        if nf is not None and nf not in basis:
            basis.append(nf)
            new = len(basis) - 1
            pending.extend((k, new) for k in range(new))

    # Minimalize: drop entries whose lead another lead divides.
    ranked = sorted(range(len(basis)), key=lambda k: order.key(basis[k][0]))
    kept: list[_Pair] = []
    for k in ranked:
        lead = basis[k][0]
        if any(_divides(other[0], lead) for other in kept):
            continue
        kept.append(basis[k])

    # Tail-reduce each element against the other leads.
    reduced: list[_Pair] = []
    for idx, (lead, trail) in enumerate(kept):
        while True:
            r = _reduce_step(trail, kept, skip=idx)
            if r is None:
                break
            trail = r
            if trail == lead:
                raise InternalInvariantError(
                    "tail reduction collapsed a basis element"
                )
        reduced.append((lead, trail))
    return tuple(sorted(reduced))


@dataclass(frozen=True)
class GroebnerSample:
    weights: tuple[int, ...]
    elements: tuple[Binomial, ...]

    def to_json(self, prefix: str = "e") -> dict:
        return {
            "weights": list(self.weights),
            "elements": [b.to_json(prefix) for b in self.elements],
        }


def sample_groebner(
    config: ToricConfig,
    generators: Sequence[Binomial],
    samples: int,
    seed: int,
) -> tuple[GroebnerSample, ...]:
    """Reduced Groebner bases for seeded random positive weight orders."""

    rng = random.Random(seed)
    low, high = _WEIGHT_RANGE
    out = []
    for _ in range(samples):
        weights = tuple(rng.randint(low, high) for _ in range(config.ncols))
        order = WeightOrder(weights)
        pairs = buchberger(generators, order)
        elements = tuple(
            sorted(
                (make_binomial(p, q, config.degree) for p, q in pairs),
                key=lambda b: b.sort_key(),
            )
        )
        out.append(GroebnerSample(weights, elements))
    return tuple(out)


def analyze_config(config: ToricConfig, box: int = 2) -> FiberBundle:
    return markov_bundle(config, graver_bounded(config, box))
