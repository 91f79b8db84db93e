"""Binomials x^plus - x^minus with disjoint supports and a common grading degree.

The canonical orientation puts the lexicographically larger exponent vector
on the plus side, so equal binomials compare equal regardless of how they
were produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Sequence


class BinomialError(ValueError):
    pass


class NonCoprimeError(BinomialError):
    """Plus and minus share a variable; the relation is not in reduced form."""


class DegreeMismatchError(BinomialError):
    """The two monomials grade differently; not a valid relation."""


@dataclass(frozen=True)
class Binomial:
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    degree: tuple[int, ...]

    @property
    def total_degree(self) -> int:
        return sum(self.plus)

    def sort_key(self) -> tuple:
        return (self.total_degree, self.plus, self.minus)

    def render(self, prefix: str = "e") -> str:
        return f"{render_monomial(self.plus, prefix)} - {render_monomial(self.minus, prefix)}"

    @cached_property
    def _json_bodies(self) -> dict[str, dict]:
        return {}

    def to_json(self, prefix: str = "e") -> dict:
        """Exponents, degree and text, with variables named ``prefix1``, ...

        The dict is built on the first call for each prefix and every later
        call returns that same dict, so the sets that share an element share
        its body.  It is read-only: copy it before changing it.
        """
        body = self._json_bodies.get(prefix)
        if body is None:
            body = self._json_bodies[prefix] = {
                "plus": {
                    f"{prefix}{i + 1}": k for i, k in enumerate(self.plus) if k
                },
                "minus": {
                    f"{prefix}{i + 1}": k for i, k in enumerate(self.minus) if k
                },
                "degree": list(self.degree),
                "text": self.render(prefix),
            }
        return body


def render_monomial(exponents: Sequence[int], prefix: str = "e") -> str:
    parts = []
    for i, k in enumerate(exponents):
        if k == 1:
            parts.append(f"{prefix}{i + 1}")
        elif k > 1:
            parts.append(f"{prefix}{i + 1}^{k}")
    return "*".join(parts) if parts else "1"


def make_binomial(
    plus: Sequence[int],
    minus: Sequence[int],
    degree_fn: Callable[[Sequence[int]], tuple[int, ...]],
) -> Binomial:
    """Build a canonical binomial, validating coprimality and degree balance."""
    p = tuple(map(int, plus))
    q = tuple(map(int, minus))
    if len(p) != len(q):
        raise BinomialError("exponent vectors differ in length")
    if min(p + q, default=0) < 0:
        raise BinomialError("exponents must be nonnegative")
    # nonnegative exponents share a variable exactly where their product is
    # nonzero (a bitwise and would miss 1 against 2)
    if any(map(mul, p, q)):
        shared = [i for i, (a, b) in enumerate(zip(p, q)) if a and b]
        raise NonCoprimeError(f"shared variables at indices {shared}")
    if p == q:
        raise BinomialError("zero binomial")
    dp = tuple(degree_fn(p))
    dq = tuple(degree_fn(q))
    if dp != dq:
        raise DegreeMismatchError(f"degrees differ: {dp} vs {dq}")
    if p < q:
        p, q = q, p
    return Binomial(p, q, dp)


BASIS_KINDS = ("circuits", "graver", "ugb", "markov", "indispensable")


@dataclass(frozen=True)
class BasisSet:
    """A canonical, duplicate-free, sorted family of binomials.

    ``annotations[i]`` is a JSON-ready dict of per-element tags (may be empty).
    Elements are sorted by (total degree, plus vector, minus vector), so two
    runs over the same input serialize to identical bytes.  A subset built
    by ``subset`` shares its annotation dicts with this set, so they are
    read-only: copy one before changing it.
    """

    kind: str
    variables: int
    elements: tuple[Binomial, ...]
    annotations: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _keys(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        return frozenset((b.plus, b.minus) for b in self.elements)

    def element_set(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The ``(plus, minus)`` key of every element, built on the first call."""
        return self._keys

    def subset(self, kind: str, keep: Callable[[Binomial, dict], bool]) -> BasisSet:
        """The elements for which ``keep(binomial, annotation)`` holds, in this
        set's order and with its annotation dicts, as a set of ``kind``."""
        if kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        kept = [pair for pair in zip(self.elements, self.annotations) if keep(*pair)]
        return BasisSet(
            kind,
            self.variables,
            tuple(b for b, _ in kept),
            tuple(a for _, a in kept),
        )

    def to_json(self, prefix: str = "e") -> dict:
        return {
            "kind": self.kind,
            "variables": self.variables,
            "count": len(self.elements),
            "elements": [
                {**b.to_json(prefix), "tags": dict(ann)}
                for b, ann in zip(self.elements, self.annotations)
            ],
        }


def make_basis_set(
    kind: str,
    variables: int,
    items: Sequence[tuple[Binomial, dict]],
) -> BasisSet:
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    seen: dict[tuple, tuple[Binomial, dict]] = {}
    for binomial, ann in items:
        if len(binomial.plus) != variables:
            raise BinomialError("element length does not match variable count")
        key = (binomial.plus, binomial.minus)
        if key in seen:
            if seen[key][1] != ann:
                raise BinomialError(
                    f"duplicate element {binomial.render()} with conflicting tags"
                )
            continue
        seen[key] = (binomial, dict(ann))
    ordered = sorted(seen.values(), key=lambda pair: pair[0].sort_key())
    return BasisSet(
        kind,
        variables,
        tuple(b for b, _ in ordered),
        tuple(a for _, a in ordered),
    )
