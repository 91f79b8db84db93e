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
A fiber is enumerated by a sweep over the columns, the fibers at 16 or
more degrees (the measured crossover, see ``_BATCH_MIN_DEGREES``) by one
batched numpy sweep; none of it recurses.  The sweep's residuals are
packed into one Python integer each, a guarded field per row
(``_packing``), so an entrywise comparison is one subtraction and a mask.
``fibers`` gives each degree's members with their components, split from
its own members alone: members that share a column lie in one component
(``fiber_graphs``), so no degree depends on the moves found at another;
the batch labels the components of its rows itself.  ``graver_bounded``
finds the kernel vectors in its box by a meet in the middle: two
half-boxes, each row with a signed degree key, joined where the keys
cancel.  numpy is imported inside the functions that use it, so a process
that reaches none of them never loads it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from operator import index, lshift
from typing import Sequence

from .binomials import (
    BasisSet,
    Binomial,
    make_basis_set,
    make_binomial,
)
from .errors import InternalInvariantError, ScaleGuardError

# Cap on the size (box + 1)^m of graver_bounded's box {0..box}^m.  The join
# builds only two half-boxes of (2 * box + 1)^half rows, far fewer, but the
# cap stays on the box so that the inputs it refused before still exit 3.
# It does not bound the join's matches, which set its cost: the one row
# 1 2 ... 22 at box 1 is under it and has 122,551,623 matches.
_MAX_BOX_ROWS = 5_000_000
# Cap on the matches of graver_bounded's join, counted before any is built.
# A match took 105 bytes of peak memory at 10-11 columns and 145-172 at 16
# (rows of 1s at box 2, rows of 1s or 1..16 at box 1), so this cap holds
# the join to about 200-350 MB.
_MAX_JOIN_MATCHES = 2_000_000

# Inclusive range of the random weights sample_groebner draws.
_WEIGHT_RANGE = (1, 100)

# Distinct degrees from which ``fibers`` sweeps them in one numpy batch, and
# the batch labels the components of ``fiber_graphs``.  On the ``corpus``
# and ``oracle`` benchmark graphs and 100 seeded 11-13-edge graphs (median
# over the graphs with that many Graver degrees of the best of nine
# ``fiber_graphs`` calls), the batch takes this multiple of the time of one
# packed ``fiber`` call and one union-find per degree:
#
#   degrees   8     9-10  11    12    13    14    15    16    17-19      20-24
#   batch     1.54  1.45  1.34  1.25  1.10  1.05  1.01  0.98  0.85-0.94  0.71-0.79
_BATCH_MIN_DEGREES = 16
# The numpy integer dtypes by name, each with its largest value.  The batch
# stores rows in the narrowest of them that holds every entry; past int64
# ``fibers`` falls back to ``fiber``, on Python integers.
_DTYPES = (
    ("int8", 2**7 - 1),
    ("int16", 2**15 - 1),
    ("int32", 2**31 - 1),
    ("int64", 2**63 - 1),
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
    """A nonnegative integer matrix, one column per variable, held as its
    columns' nonzero entries.  Columns must be nonzero so every fiber is
    finite; the pass that checks them also builds ``last_columns`` and
    ``top``.  ``config_from_rows`` checks the entries of a dense matrix.
    """

    nrows: int
    # For each column, its nonzero entries as (row, entry) pairs, rows ascending.
    column_support: tuple[tuple[tuple[int, int], ...], ...]
    # For each row, the index of its last nonzero column (0 if none).
    last_columns: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The largest entry.
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nrows or not self.column_support:
            raise ConfigError("configuration matrix must be nonempty")
        last_columns = [0] * self.nrows
        top = 0
        for j, support in enumerate(self.column_support):
            if not support:
                raise ConfigError(f"column {j + 1} of the configuration is zero")
            for i, a in support:
                last_columns[i] = j
                top = max(top, a)
        object.__setattr__(self, "last_columns", tuple(last_columns))
        object.__setattr__(self, "top", top)

    @property
    def ncols(self) -> int:
        return len(self.column_support)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, built on each call."""
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for j, support in enumerate(self.column_support):
            for i, a in support:
                rows[i][j] = a
        return tuple(map(tuple, rows))

    def degree(self, exponents: Sequence[int]) -> tuple[int, ...]:
        """The degree A·u, summed over the nonzero exponents only."""
        if len(exponents) != self.ncols:
            raise ConfigError(
                f"expected {self.ncols} exponents, got {len(exponents)}"
            )
        deg = [0] * self.nrows
        for k, support in zip(exponents, self.column_support):
            if k:
                for i, a in support:
                    deg[i] += a * k
        return tuple(deg)

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.rows]}


def config_from_rows(rows: Sequence[Sequence[int]]) -> ToricConfig:
    """Configuration from a list of integer rows, as read from text or JSON.

    Entries are checked here, in the pass that builds the column supports,
    and taken as they are, not coerced: a float, boolean, string or null
    entry is a ConfigError, as is a matrix or row that is not a list.
    """
    if not isinstance(rows, (list, tuple)):
        raise ConfigError("matrix must be a list of rows")
    for i, row in enumerate(rows, 1):
        if not isinstance(row, (list, tuple)):
            raise ConfigError(f"matrix row {i} is not a list, got {row!r}")
    if not rows or not rows[0]:
        raise ConfigError("configuration matrix must be nonempty")
    width = len(rows[0])
    support: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ConfigError("configuration matrix rows have unequal lengths")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ConfigError(
                    f"configuration entries must be integers, got {entry!r}"
                )
            if entry < 0:
                raise NegativeEntryError("configuration entries must be nonnegative")
            if entry:
                support[j].append((i, entry))
    return ToricConfig(len(rows), tuple(map(tuple, support)))


def _degree(config: ToricConfig, degree: Sequence[int]) -> tuple[int, ...]:
    """``degree`` as a tuple of ints, one per row of ``config``.

    Each entry is taken as it is, not coerced: an int or a numpy integer,
    read by ``operator.index``; a bool, float, string or null entry is a
    ConfigError naming it, as is a degree of the wrong length.
    """
    if len(degree) != config.nrows:
        raise ConfigError(f"degree must have {config.nrows} entries")
    target = []
    for x in degree:
        try:
            if isinstance(x, bool):
                raise TypeError
            target.append(index(x))
        except TypeError:  # numpy's bool refuses ``index`` itself
            raise ConfigError(f"degree entries must be integers, got {x!r}") from None
    return tuple(target)


def fiber(config: ToricConfig, degree: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with the given grading degree, lex ascending.

    A sweep over the columns keeps (prefix, residual) pairs, the residual
    being the degree still to be made up, and extends each by every
    multiplicity its residual allows, ascending, so the prefixes stay lex
    ascending.  A pair is dropped once a row left nonzero has no column
    after the one just placed.  Residuals and columns are packed as by
    ``_packing``, one field per row, so taking a column off a residual is
    one subtraction and the guard bits tell whether it fit.
    """

    target = _degree(config, degree)
    if any(x < 0 for x in target):
        return ()
    top = max(*target, config.top)
    shifts, guard = _packing(config.nrows, top)
    # closed[j]: the value bits of the rows whose last nonzero column is j
    closed = [0] * config.ncols
    for shift, last in zip(shifts, config.last_columns):
        closed[last] |= (1 << top.bit_length()) - 1 << shift

    pairs = [((), _pack(target, shifts))]
    for support, shut in zip(config.column_support, closed):
        col = sum(a << shifts[i] for i, a in support)
        extended = []
        for prefix, rest in pairs:
            k = 0
            while True:
                if not rest & shut:
                    extended.append((prefix + (k,), rest))
                rest = (rest | guard) - col
                if rest & guard != guard:
                    break
                rest ^= guard
                k += 1
        pairs = extended
    return tuple(prefix for prefix, _ in pairs)


def _packing(fields: int, top: int) -> tuple[list[int], int]:
    """Field offsets and guard mask packing vectors of ``fields`` entries in
    0..top into one integer.  Each field is ``top.bit_length() + 1`` bits
    wide and its top bit, the guard, is clear in every packed vector.  For
    packed u and p, ``((u | guard) - p) & guard == guard`` exactly when
    u >= p in every entry: setting the guards lends each field its own
    borrow, and a field keeps its guard exactly when it did not need it.
    """
    width = top.bit_length() + 1
    shifts = [width * i for i in range(fields)]
    return shifts, sum(1 << s + width - 1 for s in shifts)


def _pack(vector: Sequence[int], shifts: list[int]) -> int:
    return sum(map(lshift, vector, shifts))


def fibers(
    config: ToricConfig, degrees: Sequence[Sequence[int]]
) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], tuple]]:
    """``fiber`` at each distinct degree, keyed by the degree as a tuple,
    its members paired with their components as ``fiber_graphs`` defines
    them.

    From ``_BATCH_MIN_DEGREES`` distinct degrees on, and while every entry
    fits in int64, a numpy sweep runs ``fiber``'s column sweep for up to
    ``_BATCH_MAX_DEGREES`` of them at once.  Its rows are (degree index,
    residual, prefix); each column repeats every row once per multiplicity,
    ascending, and drops the rows that leave a row it closes nonzero.  Rows
    stay grouped by degree and lex ascending within it, so each degree's
    members come out in ``fiber``'s order, and the batch labels the
    components of its rows itself.  Fewer degrees go through ``fiber`` one
    by one, whose packed sweep is faster than the batch's fixed numpy cost
    there, and each fiber is split by ``_components``.
    """
    # Each distinct degree is converted once.  One equal to a degree already
    # seen is skipped only when its entries are plain ints, so a float equal
    # to an int is refused, not merged.
    targets = {}
    for d in map(tuple, degrees):
        if d not in targets or set(map(type, d)) != {int}:
            targets[_degree(config, d)] = None
    live = [t for t in targets if min(t) >= 0]
    dtype = None
    if len(targets) >= _BATCH_MIN_DEGREES:
        dtype = _batch_dtype(config, live)
    if dtype is None:
        found = {t: fiber(config, t) for t in targets}
        return {t: (members, _components(members)) for t, members in found.items()}
    swept = {}
    for start in range(0, len(live), _BATCH_MAX_DEGREES):
        chunk = live[start:start + _BATCH_MAX_DEGREES]
        swept.update(_fiber_batch(config, chunk, dtype))
    return {t: swept.get(t, ((), ())) for t in targets}


def _narrowest_dtype(limit: int) -> str | None:
    """The name of the narrowest of ``_DTYPES`` that holds 0..limit, or
    None past int64."""
    return next((name for name, top in _DTYPES if limit <= top), None)


def _batch_dtype(config: ToricConfig, degrees: list[tuple[int, ...]]) -> str | None:
    """The narrowest dtype that holds every entry of a batch row, or None
    past int64.  Every entry lies in 0..limit: a multiplicity k of column c
    takes k * c <= residual from each row c reaches."""
    limit = max(len(degrees), max(map(max, degrees), default=0), config.top)
    return _narrowest_dtype(limit)


def _fiber_batch(
    config: ToricConfig, degrees: list[tuple[int, ...]], dtype: str
) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], tuple]]:
    """``fibers``' numpy batch over nonnegative degrees whose every entry,
    like every matrix entry and the number of degrees, fits in ``dtype``."""
    import numpy as np

    # a row is [degree index, residual (nrows), prefix (ncols)]
    width = 1 + config.nrows + config.ncols
    rows = np.zeros((len(degrees), width), dtype=dtype)
    rows[:, 0] = np.arange(len(degrees))
    rows[:, 1:1 + config.nrows] = np.array(degrees, dtype=dtype)
    for j, support in enumerate(config.column_support):
        reached = [1 + r for r, _ in support]
        entries = np.array([a for _, a in support], dtype=dtype)
        shut = [1 + r for r, last in enumerate(config.last_columns) if last == j]
        most = (rows[:, reached] // entries).min(axis=1)
        steps = most.astype(np.intp) + 1
        pick = np.repeat(np.arange(len(rows)), steps)
        firsts = np.repeat(np.cumsum(steps) - steps, steps)
        k = (np.arange(len(pick)) - firsts).astype(dtype)
        rows = rows[pick]
        rows[:, reached] -= k[:, None] * entries
        rows[:, 1 + config.nrows + j] = k
        if shut:
            rows = rows[~rows[:, shut].any(axis=1)]

    # converted one degree at a time, so that the short-lived lists of one
    # degree reuse the memory of the last instead of fragmenting the heap
    prefixes = rows[:, 1 + config.nrows:]
    bounds = np.searchsorted(rows[:, 0], np.arange(len(degrees) + 1)).tolist()
    split = _batch_components(prefixes, rows[:, 0], bounds)
    out = {}
    for i, t in enumerate(degrees):
        lo, hi = bounds[i], bounds[i + 1]
        members = tuple(map(tuple, prefixes[lo:hi].tolist()))
        if i in split:
            out[t] = (members, split[i])
        else:
            out[t] = (members, (tuple(range(hi - lo)),) if hi > lo else ())
    return out


def _batch_components(prefixes, degree_index, bounds: list[int]) -> dict:
    """The components of the batch's degrees that have more than one, keyed
    by degree index, as ``fiber_graphs`` defines them.

    A node is a (degree, column) pair.  Each member's support columns are
    labelled with the least label among them, and labels follow their own
    labels, until nothing changes: then the columns that members link share
    one label, the least node among them.  A member's label is its first
    support column's; the zero vector, the zero degree's one member, has
    none and gets -1.
    """
    import numpy as np

    ncols = prefixes.shape[1]
    member, column = np.nonzero(prefixes)  # by member, columns ascending
    node = degree_index[member].astype(np.intp) * ncols + column
    # starts[k]: where member k's support begins among the nonzero entries
    counts = np.bincount(member, minlength=len(prefixes))
    starts = np.cumsum(counts) - counts
    held = counts > 0
    label = np.arange((len(bounds) - 1) * ncols)
    while node.size:
        low = np.minimum.reduceat(label[node], starts[held])
        spread = label.copy()
        np.minimum.at(spread, node, np.repeat(low, counts[held]))
        spread = spread[spread]
        if np.array_equal(spread, label):
            break
        label = spread
    of_member = np.full(len(prefixes), -1)
    of_member[held] = label[node[starts[held]]]
    # the degrees whose members do not all share their first member's label
    firsts = np.array(bounds[:-1])
    nonempty = firsts < bounds[1:]
    first_label = np.zeros(len(firsts), dtype=of_member.dtype)
    first_label[nonempty] = of_member[firsts[nonempty]]
    split = np.zeros(len(firsts), dtype=bool)
    split[degree_index[of_member != first_label[degree_index]]] = True
    out = {}
    for i in np.flatnonzero(split).tolist():
        classes: dict[int, list[int]] = {}
        for k, lab in enumerate(of_member[bounds[i]:bounds[i + 1]].tolist()):
            classes.setdefault(lab, []).append(k)
        out[i] = tuple(map(tuple, classes.values()))
    return out


def _components(
    members: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """The components of one fiber's members, as ``fiber_graphs`` defines
    them: a union-find over the columns merges each member's support, and a
    member's component is the class of its first support column, -1 for
    the zero vector, which has none.  Components come in the order of
    their least members."""
    if not members:
        return ()
    supports = [[j for j, x in enumerate(u) if x] for u in members]
    label = list(range(len(members[0])))
    for support in supports:
        merged = {label[j] for j in support}
        if len(merged) > 1:
            root = label[support[0]]
            label = [root if k in merged else k for k in label]
    classes: dict[int, list[int]] = {}
    for i, support in enumerate(supports):
        classes.setdefault(label[support[0]] if support else -1, []).append(i)
    return tuple(map(tuple, classes.values()))


def graver_bounded(config: ToricConfig, box: int) -> tuple[Binomial, ...]:
    """Primitive kernel elements whose exponents are bounded by ``box``.

    These are the binomials x^u - x^v, u = w⁺ and v = w⁻, of the nonzero
    w in {-box..box}^m with A·w = 0 that no other such w conformally
    precedes.  The kernel vectors come from a meet in the middle (Horowitz
    and Sahni, 1974): the first ⌊m/2⌋ columns of w and the rest each get a
    signed degree key, and A·w = 0 exactly when the two keys cancel, so
    only the two half-boxes of (2·box + 1)^half rows are built.  Of each
    pair ±w the one with u > v is kept.  They are ranked by total degree,
    then (u, v), and each is kept unless a kept one divides it straight or
    crossed.  Minimality inside the box equals global minimality because a
    proper conformal divisor of an in-box vector is itself in the box.
    """

    if box < 1:
        raise ValueError("box must be at least 1")
    m = config.ncols
    total = (box + 1) ** m
    if total > _MAX_BOX_ROWS:
        raise ScaleGuardError(
            f"the box {{0..{box}}}^{m} holds {total} exponent vectors "
            f"(limit {_MAX_BOX_ROWS}); reduce the box or the variable count"
        )
    if m == 1:
        # A nonzero column has no kernel; its half-box would hold 2 * box + 1
        # rows, more than its box.
        return ()
    import numpy as np

    # The key of w is sum_j w_j * weight_j, its degree A·w in a balanced
    # mixed radix: matrix row r, of sum s, gives the digit of radix
    # 2 * box * s + 1, which lies in -box*s..box*s; the last row is the
    # most significant.  So a key is 0 exactly when A·w = 0, and every key,
    # like every partial sum of one, lies within (radix - 1) / 2 of 0.
    # Past int64 the keys are Python integers in an object array.
    radix = 1
    weights = [0] * m
    for row in config.rows:
        for j, a in enumerate(row):
            weights[j] += a * radix
        radix *= 2 * box * sum(row) + 1
    key_dtype = np.int64 if (radix - 1) // 2 <= np.iinfo(np.int64).max else object
    narrow = np.dtype(_narrowest_dtype(2 * box))
    left_keys, left = _half_box(weights[:m // 2], box, key_dtype, narrow)
    right_keys, right = _half_box(weights[m // 2:], box, key_dtype, narrow)

    # A half-box's rows are lex ascending, so its middle row is zero and
    # the rows after it are those whose first nonzero entry is positive.
    # The w with u > v are those whose first nonzero entry is positive:
    # those with a left half past the middle, and those with a zero left
    # half and a right half past the middle.
    zero = len(left) // 2
    left_keys, left = left_keys[zero:], left[zero:]
    order = np.argsort(left_keys, kind="stable")
    ranked_keys, targets = left_keys[order], -right_keys
    lo = np.searchsorted(ranked_keys, targets, side="left")
    hi = np.searchsorted(ranked_keys, targets, side="right")
    counts = hi - lo
    matches = int(counts.sum())
    if matches > _MAX_JOIN_MATCHES:
        raise ScaleGuardError(
            f"the kernel join of the box {{0..{box}}}^{m} has {matches} "
            f"matches (limit {_MAX_JOIN_MATCHES}); reduce the box or the "
            "variable count"
        )
    right_rows = np.repeat(np.arange(len(right)), counts)
    # the k-th match of right row r is ranked left row lo[r] + k
    left_rows = order[
        np.arange(len(right_rows)) - np.repeat(np.cumsum(counts) - hi, counts)
    ]
    positive = (left_rows > 0) | (right_rows > len(right) // 2)
    kernel = np.concatenate(
        (left[left_rows[positive]], right[right_rows[positive]]), axis=1
    )
    pairs = np.concatenate((np.maximum(kernel, 0), np.maximum(-kernel, 0)), axis=1)
    # by total degree, then (u, v); lexsort's last key is the primary one
    ranking = np.lexsort((*pairs.T[::-1], pairs.sum(axis=1)))

    # Each (u, v) packed into one integer as by ``_packing``: its entries
    # lie in 0..box, so the sign bit of each little-endian ``narrow`` field
    # is clear and serves as the guard.  A kept (u', v') divides (u, v)
    # straight when (u', v') <= (u, v) and crossed when (v', u') <= (u, v).
    _, guard = _packing(2 * m, np.iinfo(narrow).max)
    field = narrow.newbyteorder("<")
    packed = pairs[ranking].astype(field).tobytes()
    size = 2 * m * field.itemsize  # bytes per (u, v)
    half = 4 * size  # bits of the fields of v
    divisors: list[int] = []
    kept = []
    for i in range(len(pairs)):
        pair = int.from_bytes(packed[i * size:(i + 1) * size], "little")
        lifted = pair | guard
        for divisor in divisors:
            if (lifted - divisor) & guard == guard:
                break
        else:
            kept.append(ranking[i])
            divisors += (pair, pair >> half | (pair & (1 << half) - 1) << half)
    return tuple(
        make_binomial(tuple(row[:m]), tuple(row[m:]), config.degree)
        for row in pairs[kept].tolist()
    )


def _half_box(weights: list[int], box: int, key_dtype, narrow):
    """The keys and rows of {-box..box}^len(weights), as numpy arrays: the
    rows lex ascending in the dtype ``narrow``, the key of w
    sum_j w_j * weights[j] in ``key_dtype``."""
    import numpy as np

    n = len(weights)
    rows = np.indices((2 * box + 1,) * n, dtype=narrow)
    rows = rows.reshape(n, (2 * box + 1) ** n).T - narrow.type(box)
    return rows.astype(key_dtype) @ np.array(weights, dtype=key_dtype), rows


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
    """Each fiber at the given degrees, split into components under the
    moves of smaller degree, and a minimal Markov basis.

    Members u, v are joined by such moves exactly when a chain of members
    links them in which each consecutive pair shares a column: sharing
    column i puts u - e_i and v - e_i in the smaller fiber at b - a_i (no
    column is zero), and a move of smaller degree keeps a nonzero common
    part of a member and its image.  So a member's component is the class
    of its first support column once each member's support is merged: by
    ``_components``' union-find over the columns for a fiber swept alone,
    by ``_batch_components``' labels for the numpy batch.  Components come
    in the order of their least members.  Each fiber with more than one component contributes a star
    from its least member to the least member of each other component;
    these edges form a minimal Markov basis.
    """

    found = fibers(config, degrees)
    minimal: list[Binomial] = []
    graphs: list[FiberGraph] = []
    for deg in sorted(found, key=_degree_sort_key):
        members, components = found[deg]
        if not members:
            continue
        graphs.append(FiberGraph(deg, members, components))
        first = components[0][0]
        for comp in components[1:]:
            minimal.append(
                make_binomial(members[comp[0]], members[first], config.degree)
            )

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
    minimal Markov basis: that element is indispensable, so the indispensable
    set is the universal one's part at those degrees.  Both sides of
    every Graver element must be members of its degree's fiber, or an
    invariant error naming the degree is raised.
    """

    graphs, minimal = fiber_graphs(config, [b.degree for b in graver])
    members = {fg.degree: frozenset(fg.fiber) for fg in graphs}
    for b in graver:
        if not {b.plus, b.minus} <= members.get(b.degree, frozenset()):
            raise InternalInvariantError(
                f"a Graver side is missing from the fiber of degree {list(b.degree)}"
            )
    universal: list[tuple[Binomial, dict]] = []
    for fg in graphs:
        if not fg.is_betti:
            continue
        universal += [
            (make_binomial(fg.fiber[iu], fg.fiber[iv], config.degree), {})
            for ci in range(len(fg.components))
            for cj in range(ci + 1, len(fg.components))
            for iu in fg.components[ci]
            for iv in fg.components[cj]
        ]
    markov = make_basis_set("markov", config.ncols, universal)
    forcing = {fg.degree for fg in graphs if fg.indispensable_degree}
    return FiberBundle(
        config,
        tuple(graver),
        graphs,
        minimal,
        markov,
        markov.subset("indispensable", lambda b, _: b.degree in forcing),
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


def sample_groebner(
    config: ToricConfig,
    generators: Sequence[Binomial],
    samples: int,
    seed: int,
) -> tuple[GroebnerSample, ...]:
    """Reduced Groebner bases for seeded random positive weight orders."""

    if samples < 0:
        raise ValueError("samples must be nonnegative")
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
